//! Declarative scenario specs: the data-driven face of the experiment
//! harness.
//!
//! A [`ScenarioSpec`] describes everything a hand-coded experiment
//! function in `lib.rs` encodes in Rust — workload shape (population,
//! mobility and query mix, Zipf skew, churn), sweep axes, the scheme
//! grid, fault plans (chaos, a regional partition, WAN link severs, or
//! node crashes), flash-crowd spikes, seeds, and the requested output
//! columns — as a JSON document
//! under `specs/`. The generic trial runner ([`crate::run_spec`])
//! expands a spec into independent trial cells, runs them in parallel,
//! audits the post-quiesce invariants of every trial, and emits the same
//! table an equivalent hand-coded experiment would print plus structured
//! per-trial records.
//!
//! # Strictness
//!
//! The vendored serde stand-in is deliberately lax about unknown map
//! keys, so [`ScenarioSpec::parse`] walks the raw [`serde::Value`] tree
//! first and rejects any key the schema does not know, pointing at the
//! offending field by dotted path (and by line/column where the source
//! text locates it). [`ScenarioSpec::validate`] then checks semantics —
//! unknown scheme kinds, dangling column references, contradictory fault
//! plans — with the same field-naming discipline. Neither step panics on
//! arbitrary input; [`ScenarioSpec::load_str`] chains both.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

/// Scheme kinds the runner can instantiate.
pub const SCHEME_KINDS: &[&str] = &["hashed", "centralized", "home-registry", "forwarding"];

/// Sweep-axis parameters the runner can apply.
pub const AXIS_PARAMS: &[&str] = &[
    "agents",
    "residence_ms",
    "intensity",
    "rehash_concurrency",
    "query_skew",
    "mobility_skew",
    "freshness_ms",
    "churn_lifespan_ms",
    "crash_frac",
];

/// Column fields the runner can format, with their formatting rules
/// (documented in `EXPERIMENTS.md` §E18).
pub const COLUMN_FIELDS: &[&str] = &[
    // Point / trial metadata.
    "agents",
    "residence_ms",
    "intensity",
    "rehash_concurrency",
    "query_skew",
    "mobility_skew",
    "freshness_ms",
    "churn_lifespan_s",
    "crash_frac",
    "scheme",
    "kind",
    "replication",
    "seed",
    // Locate outcome counters and latency metrics.
    "issued",
    "completed",
    "failures",
    "success_pct",
    "mean_ms",
    "mean_ms_or_dnf",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "max_ms",
    // Directory shape and adaptation.
    "trackers",
    "peak_trackers",
    "splits",
    "merges",
    "denied",
    "tree_height",
    "mean_prefix_bits",
    "reconverge_ms",
    // Traffic, mail, and durability.
    "messages_sent",
    "messages_remote",
    "messages_failed",
    "mail_buffered",
    "mail_flushed",
    "mail_lost",
    "record_syncs",
    "recoveries_started",
    "recoveries_completed",
    "rec_p50_ms",
    "rec_p95_ms",
    "stale_answers",
    // Geo / freshness (E20).
    "stale_answer_pct",
    "replica_answers",
    "freshness_refusals",
    "hedged_locates",
    "bound_violations",
    "stale_hits",
    "hf_fetches",
    "chain_hops",
    "iagent_moves",
    // Population dynamics.
    "registrations",
    "moves",
    "births",
    "deaths",
    // Invariant audit.
    "violations",
];

/// A validation or parse error, naming the offending field by dotted
/// path and, when the source text locates it, by line and column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path of the offending field (`workload.agents`,
    /// `schemes[1].kind`), or `<spec>` for document-level errors.
    pub path: String,
    /// 1-based line of the field in the source text, when located.
    pub line: Option<usize>,
    /// 1-based column of the field in the source text, when located.
    pub col: Option<usize>,
    /// What is wrong.
    pub message: String,
}

impl SpecError {
    fn at(path: impl Into<String>, message: impl Into<String>) -> Self {
        SpecError {
            path: path.into(),
            line: None,
            col: None,
            message: message.into(),
        }
    }

    /// Attaches the line/column of the first occurrence of `key` as a
    /// quoted JSON key in `source`. Best effort: a key repeated across
    /// sibling objects may resolve to an earlier occurrence.
    fn locate(mut self, source: &str, key: &str) -> Self {
        let needle = format!("\"{key}\"");
        if let Some(pos) = source.find(&needle) {
            let prefix = &source[..pos];
            self.line = Some(prefix.matches('\n').count() + 1);
            self.col = Some(pos - prefix.rfind('\n').map_or(0, |p| p + 1) + 1);
        }
        self
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.line, self.col) {
            (Some(line), Some(col)) => {
                write!(
                    f,
                    "{} (line {line}, col {col}): {}",
                    self.path, self.message
                )
            }
            _ => write!(f, "{}: {}", self.path, self.message),
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete declarative experiment: what to run, over what grid, and
/// what to report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Spec identity: names the output files (`results/<name>.csv`,
    /// `results/<name>.trials.json`).
    pub name: String,
    /// Table title, printed above the rendered table.
    pub title: String,
    /// The workload shape every trial shares (sweep axes override
    /// individual knobs per grid point).
    pub workload: WorkloadSpec,
    /// Sweep axes; the grid is their cartesian product in declaration
    /// order (later axes vary fastest). Absent = a single point.
    pub sweep: Option<Vec<AxisSpec>>,
    /// The schemes to run at every grid point.
    pub schemes: Vec<SchemeSpec>,
    /// Row layout: `true` emits one row per (point, scheme, seed) with
    /// schemes varying inside each point (the E13 shape); `false`/absent
    /// emits one row per (point, seed) with scheme-scoped columns side
    /// by side (the E1 shape).
    pub scheme_rows: Option<bool>,
    /// Master seeds; each adds a full replication of the grid. Absent =
    /// `[42]`, the `Scenario` default.
    pub seeds: Option<Vec<u64>>,
    /// Scheduled fault injection, applied to every trial.
    pub faults: Option<FaultSpec>,
    /// Flash-crowd query spikes riding on the steady workload.
    pub spikes: Option<Vec<SpikeSpec>>,
    /// Post-quiesce invariant audit: on by default for every spec run;
    /// `false` opts out (the audit never changes report metrics — it
    /// runs after the report is snapshotted — only trial records and
    /// `violations` columns).
    pub audit: Option<bool>,
    /// Structured-trace ring capacity. Absent = tracing only when a
    /// column needs it (`reconverge_ms`, `rec_p50_ms`, `rec_p95_ms`),
    /// with a 1 Mi-record ring.
    pub trace_buffer: Option<usize>,
    /// The output columns, left to right.
    pub columns: Vec<ColumnSpec>,
}

/// The workload knobs of [`agentrack_workload::Scenario`], at full
/// fidelity; the runner applies [`crate::Fidelity`] scaling exactly as
/// the hand-coded experiments do (population via `scale_agents`, query
/// budget and spans from the fidelity when unset here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// TAgent population at full fidelity (quick runs scale it down).
    pub agents: usize,
    /// Constant residence time per node, milliseconds.
    pub residence_ms: Option<u64>,
    /// Total steady-state locate budget; absent = the fidelity's budget
    /// (2000 full / 200 quick), like every hand-coded experiment.
    pub queries: Option<u64>,
    /// LAN node count; absent = the paper's 16.
    pub nodes: Option<u32>,
    /// Steady-state querier agents; absent = the default 32.
    pub queriers: Option<usize>,
    /// Warmup seconds; absent = the fidelity's span. Set both or
    /// neither of `warmup_s`/`measure_s`.
    pub warmup_s: Option<f64>,
    /// Measurement seconds; absent = the fidelity's span.
    pub measure_s: Option<f64>,
    /// Grace seconds past warmup+measure; absent = the default 10.
    pub grace_s: Option<f64>,
    /// Zipf exponent for query targets (hot keys); absent = uniform.
    pub query_skew: Option<f64>,
    /// Zipf exponent for mobility destinations; absent = uniform.
    pub mobility_skew: Option<f64>,
    /// Population churn: TAgent lifespan in milliseconds; each death
    /// spawns a successor (steady size, turning membership).
    pub churn_lifespan_ms: Option<u64>,
    /// How lifespans are drawn: `constant` (absent) or `exponential`
    /// with `churn_lifespan_ms` as the mean.
    pub churn_dist: Option<String>,
    /// Message loss probability.
    pub loss: Option<f64>,
    /// Message duplication probability.
    pub duplication: Option<f64>,
    /// WAN regions: nodes are dealt round-robin into this many regions
    /// and inter-region hops pay `inter_region_ms`. Absent or 1 = the
    /// paper's flat LAN.
    pub regions: Option<u32>,
    /// Inter-region one-way latency, milliseconds (needs `regions`).
    /// Absent = 60 ms, a transcontinental round trip of ~120 ms.
    pub inter_region_ms: Option<f64>,
    /// Freshness bound every steady-state locate declares: `0` demands
    /// the authoritative record (`Fresh`), a positive value accepts
    /// replica answers up to that many milliseconds old (`BoundedMs`),
    /// absent accepts anything (`Any`). A `freshness_ms` sweep axis
    /// overrides this per grid point.
    pub freshness_ms: Option<u64>,
}

/// One sweep axis: a parameter name from [`AXIS_PARAMS`] and the values
/// it takes. Values are numbers; integer parameters (`agents`,
/// `residence_ms`, `rehash_concurrency`, and the millisecond knobs) must
/// hold whole numbers. A `churn_lifespan_ms` of `0` means no churn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSpec {
    /// Which knob this axis drives.
    pub param: String,
    /// Further knobs that take the same value at every point (E6 moves
    /// query and mobility skew together).
    pub also: Option<Vec<String>>,
    /// The values the sweep visits, in order.
    pub values: Vec<f64>,
}

impl AxisSpec {
    /// Every parameter this axis drives: `param`, then `also`.
    pub(crate) fn params(&self) -> impl Iterator<Item = &str> {
        std::iter::once(self.param.as_str()).chain(self.also.iter().flatten().map(String::as_str))
    }
}

/// One scheme arm of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemeSpec {
    /// Scheme kind, one of [`SCHEME_KINDS`].
    pub kind: String,
    /// Label columns reference this arm by; absent = the kind. Must be
    /// unique across arms (two `hashed` ablations need distinct labels).
    pub label: Option<String>,
    /// Experiment-grade client patience (30 locate attempts, 2 s retry
    /// timeout) — what the hand-coded experiments call `patient`.
    pub patient: Option<bool>,
    /// Run the hashed scheme with a standby HAgent replica.
    pub standby: Option<bool>,
    /// Demand every live hash-function copy match the primary's version
    /// in the invariant audit (only sound with `version_audit_s`).
    pub strict_versions: Option<bool>,
    /// Periodic hash-function version audit interval, seconds.
    pub version_audit_s: Option<f64>,
    /// Record replication interval to buddy replicas, milliseconds.
    pub replication_ms: Option<u64>,
    /// Rehash pipeline width (1 = the single-flight ablation).
    pub rehash_concurrency: Option<usize>,
    /// Propagate new hash functions eagerly instead of lazily.
    pub eager_propagation: Option<bool>,
    /// Restrict rehashes to single splits (no cascades).
    pub simple_splits_only: Option<bool>,
    /// Split without load-aware placement.
    pub blind_splits: Option<bool>,
    /// Migrate IAgents toward their query sources (extension E9).
    pub locality_migration: Option<bool>,
    /// Split threshold (load above which a tracker splits).
    pub threshold_max: Option<f64>,
    /// Merge threshold (load below which trackers merge); requires
    /// `threshold_max`.
    pub threshold_min: Option<f64>,
}

/// Scheduled fault injection. Set at most one of the arms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Randomized chaos via [`agentrack_sim::ChaosConfig`].
    pub chaos: Option<ChaosFaults>,
    /// A deterministic regional partition that heals.
    pub regional_partition: Option<RegionalPartitionFaults>,
    /// Deterministic WAN link sever/heal cycles between two regions
    /// (needs `workload.regions`).
    pub region_sever: Option<RegionSeverFaults>,
    /// Nodes that crash together, losing soft state, and restart.
    pub node_crash: Option<NodeCrashFaults>,
}

/// Randomized chaos: partitions, crashes/restarts, latency spikes, loss
/// bursts, blackholes, scaled by `intensity`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosFaults {
    /// Chaos generator seed (independent of the scenario seed).
    pub seed: u64,
    /// Fault intensity in `[0, 1]`; absent = driven by an `intensity`
    /// sweep axis. Intensity `0` means a fault-free plan.
    pub intensity: Option<f64>,
}

/// The network severs into node groups at `at_frac` of the run and heals
/// at `heal_frac`; nodes not listed straddle the partition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionalPartitionFaults {
    /// The isolated node-id groups (pairwise disjoint). Absent = the
    /// node range split into two contiguous halves.
    pub groups: Option<Vec<Vec<u32>>>,
    /// When the partition starts, as a fraction of the run duration.
    pub at_frac: f64,
    /// When it heals, as a fraction of the run duration (> `at_frac`).
    pub heal_frac: f64,
}

/// The WAN link between regions `a` and `b` severs at `at_frac` of the
/// run and heals at `heal_frac`; with `cycles > 1` the sever/heal window
/// repeats back to back (each cycle is `2 * (heal_frac - at_frac)` of
/// the run: equal outage and recovery spans). Requires a region
/// topology (`workload.regions`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSeverFaults {
    /// One severed region (index into `0..workload.regions`).
    pub a: u32,
    /// The other severed region.
    pub b: u32,
    /// When the first sever lands, as a fraction of the run duration.
    pub at_frac: f64,
    /// When the first sever heals, as a fraction of the run duration
    /// (> `at_frac`).
    pub heal_frac: f64,
    /// Back-to-back sever/heal cycles; absent = 1. Every cycle's heal
    /// must land within the run.
    pub cycles: Option<u32>,
}

/// The listed nodes crash at once, losing the soft state (tracker
/// records) they hosted, and restart `restart_ms` later. The crash time,
/// as a fraction of the run duration, comes from a `crash_frac` sweep
/// axis (a one-value axis fixes it).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeCrashFaults {
    /// The node ids that crash (distinct, inside the topology).
    pub nodes: Vec<u32>,
    /// Restart delay after the crash, milliseconds.
    pub restart_ms: u64,
}

/// A flash crowd riding the steady workload: timing as fractions of the
/// measurement span (so quick and full fidelity place it identically),
/// budget as either an absolute count or a multiple of the steady
/// budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpikeSpec {
    /// Spike start: `warmup + at_frac * measure`.
    pub at_frac: f64,
    /// Spike length: `span_frac * measure`.
    pub span_frac: f64,
    /// Spike budget as a multiple of the steady query budget. Set
    /// exactly one of `queries_factor`/`queries`.
    pub queries_factor: Option<u64>,
    /// Spike budget as an absolute locate count.
    pub queries: Option<u64>,
    /// Dedicated spike queriers (round-robin over nodes).
    pub queriers: usize,
}

/// One output column: a field from [`COLUMN_FIELDS`], the scheme arm it
/// reads from (wide layout), and the CSV header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnSpec {
    /// What to report.
    pub field: String,
    /// Which scheme arm's trial to read, by label. Wide layout only;
    /// absent with several arms is ambiguous for per-trial fields.
    pub scheme: Option<String>,
    /// CSV header; absent derives `field` or `scheme_field`.
    pub header: Option<String>,
}

impl ColumnSpec {
    /// The CSV header this column prints.
    #[must_use]
    pub fn header(&self) -> String {
        if let Some(h) = &self.header {
            return h.clone();
        }
        match &self.scheme {
            Some(scheme) => format!("{scheme}_{}", self.field),
            None => self.field.clone(),
        }
    }
}

/// Fields describing the grid point / trial rather than the report.
const POINT_FIELDS: &[&str] = &[
    "agents",
    "residence_ms",
    "intensity",
    "rehash_concurrency",
    "query_skew",
    "mobility_skew",
    "freshness_ms",
    "churn_lifespan_s",
    "crash_frac",
    "scheme",
    "kind",
    "seed",
];

impl ScenarioSpec {
    /// Parses a spec from JSON text: syntax, strict unknown-key
    /// checking over the raw value tree, then typed deserialization.
    /// Semantic checks live in [`ScenarioSpec::validate`];
    /// [`ScenarioSpec::load_str`] chains both.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn parse(source: &str) -> Result<Self, SpecError> {
        let value: Value = serde_json::from_str(source)
            .map_err(|e| SpecError::at("<spec>", format!("invalid JSON: {e}")))?;
        check_keys(&value, source)?;
        ScenarioSpec::deserialize(&value).map_err(|e| SpecError::at("<spec>", format!("{e}")))
    }

    /// Parses and validates: the one call sites should use.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn load_str(source: &str) -> Result<Self, SpecError> {
        let spec = Self::parse(source)?;
        spec.validate().map_err(|e| {
            if e.line.is_none() {
                relocate(e, source)
            } else {
                e
            }
        })?;
        Ok(spec)
    }

    /// Serializes back to JSON (every optional field explicit, absent
    /// ones as `null`); [`ScenarioSpec::parse`] of the output yields an
    /// equal spec.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization cannot fail")
    }

    /// The effective scheme labels, in declaration order.
    #[must_use]
    pub fn scheme_labels(&self) -> Vec<String> {
        self.schemes
            .iter()
            .map(|s| s.label.clone().unwrap_or_else(|| s.kind.clone()))
            .collect()
    }

    /// The effective seed list (`[42]` when unset).
    #[must_use]
    pub fn seed_list(&self) -> Vec<u64> {
        self.seeds.clone().unwrap_or_else(|| vec![42])
    }

    /// Whether rows repeat per scheme (E13 shape) or schemes sit side
    /// by side in one row (E1 shape).
    #[must_use]
    pub fn scheme_rows(&self) -> bool {
        self.scheme_rows.unwrap_or(false)
    }

    /// Whether the post-quiesce invariant audit runs (default yes).
    #[must_use]
    pub fn audit(&self) -> bool {
        self.audit.unwrap_or(true)
    }

    /// Every parameter some sweep axis drives.
    fn swept(&self) -> Vec<&str> {
        self.sweep
            .iter()
            .flatten()
            .flat_map(AxisSpec::params)
            .collect()
    }

    /// Semantic validation. Total: never panics, whatever the spec
    /// holds.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field by dotted
    /// path.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty()
            || !self
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SpecError::at(
                "name",
                "spec names are non-empty [a-zA-Z0-9_-]+ (they name output files)",
            ));
        }
        self.validate_workload()?;
        self.validate_sweep()?;
        self.validate_schemes()?;
        self.validate_faults()?;
        self.validate_spikes()?;
        if let Some(seeds) = &self.seeds {
            if seeds.is_empty() {
                return Err(SpecError::at("seeds", "needs at least one seed"));
            }
        }
        if self.trace_buffer == Some(0) {
            return Err(SpecError::at("trace_buffer", "must be positive"));
        }
        self.validate_columns()
    }

    fn validate_workload(&self) -> Result<(), SpecError> {
        let w = &self.workload;
        if w.agents == 0 {
            return Err(SpecError::at("workload.agents", "needs a population"));
        }
        if w.residence_ms == Some(0) {
            return Err(SpecError::at("workload.residence_ms", "must be positive"));
        }
        if w.nodes == Some(0) {
            return Err(SpecError::at("workload.nodes", "needs at least one node"));
        }
        if w.queriers == Some(0) && w.queries.is_none_or(|q| q > 0) {
            return Err(SpecError::at(
                "workload.queriers",
                "queries need queriers; set workload.queries to 0 for a query-free run",
            ));
        }
        if w.warmup_s.is_some() != w.measure_s.is_some() {
            return Err(SpecError::at(
                "workload.warmup_s",
                "set both warmup_s and measure_s, or neither (the fidelity supplies the pair)",
            ));
        }
        for (path, v) in [
            ("workload.warmup_s", w.warmup_s),
            ("workload.measure_s", w.measure_s),
            ("workload.grace_s", w.grace_s),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v < 0.0 {
                    return Err(SpecError::at(path, "must be a finite non-negative number"));
                }
            }
        }
        if w.measure_s == Some(0.0) && w.queries.is_none_or(|q| q > 0) {
            return Err(SpecError::at(
                "workload.measure_s",
                "queries are paced over the measurement span; it cannot be zero",
            ));
        }
        for (path, v) in [
            ("workload.query_skew", w.query_skew),
            ("workload.mobility_skew", w.mobility_skew),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || v < 0.0 {
                    return Err(SpecError::at(path, "Zipf exponents are finite and >= 0"));
                }
            }
        }
        if w.churn_lifespan_ms == Some(0) {
            return Err(SpecError::at(
                "workload.churn_lifespan_ms",
                "must be positive",
            ));
        }
        if let Some(dist) = w.churn_dist.as_deref() {
            if !matches!(dist, "constant" | "exponential") {
                return Err(SpecError::at(
                    "workload.churn_dist",
                    format!("unknown lifespan distribution {dist:?} (constant or exponential)"),
                ));
            }
            if w.churn_lifespan_ms.is_none() && !self.swept().contains(&"churn_lifespan_ms") {
                return Err(SpecError::at(
                    "workload.churn_dist",
                    "a lifespan distribution needs workload.churn_lifespan_ms or a \
                     churn_lifespan_ms sweep axis",
                ));
            }
        }
        for (path, v) in [
            ("workload.loss", w.loss),
            ("workload.duplication", w.duplication),
        ] {
            if let Some(v) = v {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(SpecError::at(path, "probabilities live in [0, 1]"));
                }
            }
        }
        if let Some(regions) = w.regions {
            let nodes = w.nodes.unwrap_or(16);
            if regions < 2 {
                return Err(SpecError::at(
                    "workload.regions",
                    "a WAN model needs at least two regions (drop the field for a flat LAN)",
                ));
            }
            if regions > nodes {
                return Err(SpecError::at(
                    "workload.regions",
                    format!("{regions} regions cannot be cut from {nodes} nodes"),
                ));
            }
        } else if w.inter_region_ms.is_some() {
            return Err(SpecError::at(
                "workload.inter_region_ms",
                "inter-region latency needs workload.regions",
            ));
        }
        if let Some(v) = w.inter_region_ms {
            if !v.is_finite() || v <= 0.0 {
                return Err(SpecError::at(
                    "workload.inter_region_ms",
                    "must be a positive number of milliseconds",
                ));
            }
        }
        Ok(())
    }

    fn validate_sweep(&self) -> Result<(), SpecError> {
        let Some(axes) = &self.sweep else {
            return Ok(());
        };
        let w = &self.workload;
        let mut seen: Vec<&str> = Vec::new();
        for (i, axis) in axes.iter().enumerate() {
            for (k, param) in axis.params().enumerate() {
                let path = match k {
                    0 => format!("sweep[{i}].param"),
                    k => format!("sweep[{i}].also[{}]", k - 1),
                };
                if !AXIS_PARAMS.contains(&param) {
                    return Err(SpecError::at(
                        path,
                        format!(
                            "unknown sweep parameter {param:?} (expected one of {})",
                            AXIS_PARAMS.join(", ")
                        ),
                    ));
                }
                if seen.contains(&param) {
                    return Err(SpecError::at(path, "duplicate sweep parameter"));
                }
                seen.push(param);
                let fixed = match param {
                    "freshness_ms" => w.freshness_ms.is_some(),
                    "churn_lifespan_ms" => w.churn_lifespan_ms.is_some(),
                    _ => false,
                };
                if fixed {
                    return Err(SpecError::at(
                        path,
                        format!("either fix workload.{param} or sweep it, not both"),
                    ));
                }
            }
            if axis.values.is_empty() {
                return Err(SpecError::at(
                    format!("sweep[{i}].values"),
                    "needs at least one value",
                ));
            }
            for (j, &v) in axis.values.iter().enumerate() {
                for param in axis.params() {
                    if let Some(message) = axis_value_error(param, v) {
                        return Err(SpecError::at(format!("sweep[{i}].values[{j}]"), message));
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_schemes(&self) -> Result<(), SpecError> {
        if self.schemes.is_empty() {
            return Err(SpecError::at("schemes", "needs at least one scheme"));
        }
        let labels = self.scheme_labels();
        for (i, scheme) in self.schemes.iter().enumerate() {
            if !SCHEME_KINDS.contains(&scheme.kind.as_str()) {
                return Err(SpecError::at(
                    format!("schemes[{i}].kind"),
                    format!(
                        "unknown scheme kind {:?} (expected one of {})",
                        scheme.kind,
                        SCHEME_KINDS.join(", ")
                    ),
                ));
            }
            if labels.iter().filter(|l| **l == labels[i]).count() > 1 {
                return Err(SpecError::at(
                    format!("schemes[{i}].label"),
                    format!(
                        "label {:?} is not unique; give ablation arms distinct labels",
                        labels[i]
                    ),
                ));
            }
            if scheme.kind != "hashed" {
                for (field, set) in [
                    ("standby", scheme.standby == Some(true)),
                    ("strict_versions", scheme.strict_versions == Some(true)),
                    ("rehash_concurrency", scheme.rehash_concurrency.is_some()),
                    ("eager_propagation", scheme.eager_propagation == Some(true)),
                    (
                        "simple_splits_only",
                        scheme.simple_splits_only == Some(true),
                    ),
                    ("blind_splits", scheme.blind_splits == Some(true)),
                    (
                        "locality_migration",
                        scheme.locality_migration == Some(true),
                    ),
                    ("threshold_max", scheme.threshold_max.is_some()),
                ] {
                    if set {
                        return Err(SpecError::at(
                            format!("schemes[{i}].{field}"),
                            format!("only the hashed scheme understands {field}"),
                        ));
                    }
                }
            }
            if let Some(v) = scheme.version_audit_s {
                if !v.is_finite() || v <= 0.0 {
                    return Err(SpecError::at(
                        format!("schemes[{i}].version_audit_s"),
                        "must be a positive number of seconds",
                    ));
                }
            }
            if scheme.replication_ms == Some(0) {
                return Err(SpecError::at(
                    format!("schemes[{i}].replication_ms"),
                    "must be positive",
                ));
            }
            if scheme.rehash_concurrency == Some(0) {
                return Err(SpecError::at(
                    format!("schemes[{i}].rehash_concurrency"),
                    "must be at least 1 (the single-flight ablation)",
                ));
            }
            if scheme.threshold_min.is_some() && scheme.threshold_max.is_none() {
                return Err(SpecError::at(
                    format!("schemes[{i}].threshold_min"),
                    "threshold_min needs threshold_max",
                ));
            }
            if let (Some(t_max), t_min) = (scheme.threshold_max, scheme.threshold_min) {
                let t_min = t_min.unwrap_or(t_max / 10.0);
                if !t_max.is_finite() || !t_min.is_finite() || t_max <= 0.0 || t_min >= t_max {
                    return Err(SpecError::at(
                        format!("schemes[{i}].threshold_max"),
                        "thresholds need 0 < threshold_min < threshold_max",
                    ));
                }
            }
            if scheme.strict_versions == Some(true) && scheme.version_audit_s.is_none() {
                return Err(SpecError::at(
                    format!("schemes[{i}].strict_versions"),
                    "strict version convergence is only sound with a version_audit_s interval \
                     (the paper's propagation is deliberately lazy)",
                ));
            }
        }
        Ok(())
    }

    fn validate_faults(&self) -> Result<(), SpecError> {
        let swept = self.swept();
        let swept_intensity = swept.contains(&"intensity");
        let swept_crash = swept.contains(&"crash_frac");
        let faults = self.faults.as_ref();
        match faults.and_then(|f| f.chaos.as_ref()).map(|c| c.intensity) {
            None if swept_intensity => {
                return Err(SpecError::at(
                    "sweep",
                    "an intensity axis needs faults.chaos to drive",
                ));
            }
            Some(Some(v)) if !v.is_finite() || !(0.0..=1.0).contains(&v) => {
                return Err(SpecError::at(
                    "faults.chaos.intensity",
                    "intensity lives in [0, 1]",
                ));
            }
            Some(Some(_)) if swept_intensity => {
                return Err(SpecError::at(
                    "faults.chaos.intensity",
                    "either fix the intensity here or sweep it, not both",
                ));
            }
            Some(None) if !swept_intensity => {
                return Err(SpecError::at(
                    "faults.chaos.intensity",
                    "set an intensity or add an intensity sweep axis",
                ));
            }
            _ => {}
        }
        if swept_crash && faults.and_then(|f| f.node_crash.as_ref()).is_none() {
            return Err(SpecError::at(
                "sweep",
                "a crash_frac axis needs faults.node_crash to drive",
            ));
        }
        let Some(faults) = faults else {
            return Ok(());
        };
        let arms = usize::from(faults.chaos.is_some())
            + usize::from(faults.regional_partition.is_some())
            + usize::from(faults.region_sever.is_some())
            + usize::from(faults.node_crash.is_some());
        if arms != 1 {
            return Err(SpecError::at(
                "faults",
                "set exactly one of chaos, regional_partition, region_sever, or node_crash \
                 (or drop the faults block)",
            ));
        }
        if let Some(crash) = &faults.node_crash {
            if !swept_crash {
                return Err(SpecError::at(
                    "faults.node_crash",
                    "the crash time comes from a crash_frac sweep axis; add one",
                ));
            }
            let nodes = self.workload.nodes.unwrap_or(16);
            if crash.nodes.is_empty() {
                return Err(SpecError::at(
                    "faults.node_crash.nodes",
                    "needs at least one node",
                ));
            }
            for (j, &node) in crash.nodes.iter().enumerate() {
                let path = format!("faults.node_crash.nodes[{j}]");
                if node >= nodes {
                    return Err(SpecError::at(
                        path,
                        format!("node {node} is outside the {nodes}-node topology"),
                    ));
                }
                if crash.nodes[..j].contains(&node) {
                    return Err(SpecError::at(path, format!("node {node} is listed twice")));
                }
            }
            if crash.restart_ms == 0 {
                return Err(SpecError::at(
                    "faults.node_crash.restart_ms",
                    "must be positive",
                ));
            }
        }
        if let Some(partition) = &faults.regional_partition {
            for (path, v) in [
                ("faults.regional_partition.at_frac", partition.at_frac),
                ("faults.regional_partition.heal_frac", partition.heal_frac),
            ] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(SpecError::at(path, "fractions of the run live in [0, 1]"));
                }
            }
            if partition.heal_frac <= partition.at_frac {
                return Err(SpecError::at(
                    "faults.regional_partition.heal_frac",
                    "the partition must heal after it starts",
                ));
            }
            if let Some(groups) = &partition.groups {
                let nodes = self.workload.nodes.unwrap_or(16);
                if groups.len() < 2 {
                    return Err(SpecError::at(
                        "faults.regional_partition.groups",
                        "a partition needs at least two groups",
                    ));
                }
                let mut seen = std::collections::HashSet::new();
                for (g, group) in groups.iter().enumerate() {
                    for &node in group {
                        if node >= nodes {
                            return Err(SpecError::at(
                                format!("faults.regional_partition.groups[{g}]"),
                                format!("node {node} is outside the {nodes}-node topology"),
                            ));
                        }
                        if !seen.insert(node) {
                            return Err(SpecError::at(
                                format!("faults.regional_partition.groups[{g}]"),
                                format!("node {node} appears in two groups"),
                            ));
                        }
                    }
                }
            }
        }
        if let Some(sever) = &faults.region_sever {
            let Some(regions) = self.workload.regions else {
                return Err(SpecError::at(
                    "faults.region_sever",
                    "severing a WAN link needs workload.regions",
                ));
            };
            for (path, region) in [
                ("faults.region_sever.a", sever.a),
                ("faults.region_sever.b", sever.b),
            ] {
                if region >= regions {
                    return Err(SpecError::at(
                        path,
                        format!("region {region} is outside the {regions}-region topology"),
                    ));
                }
            }
            if sever.a == sever.b {
                return Err(SpecError::at(
                    "faults.region_sever.b",
                    "a region cannot sever from itself",
                ));
            }
            for (path, v) in [
                ("faults.region_sever.at_frac", sever.at_frac),
                ("faults.region_sever.heal_frac", sever.heal_frac),
            ] {
                if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                    return Err(SpecError::at(path, "fractions of the run live in [0, 1]"));
                }
            }
            if sever.heal_frac <= sever.at_frac {
                return Err(SpecError::at(
                    "faults.region_sever.heal_frac",
                    "the link must heal after it severs",
                ));
            }
            let cycles = sever.cycles.unwrap_or(1);
            if cycles == 0 {
                return Err(SpecError::at(
                    "faults.region_sever.cycles",
                    "needs at least one sever/heal cycle",
                ));
            }
            // Cycle i severs at at_frac + i * 2d and heals d later.
            let d = sever.heal_frac - sever.at_frac;
            let last_heal = sever.at_frac + f64::from(2 * cycles - 1) * d;
            if last_heal > 1.0 {
                return Err(SpecError::at(
                    "faults.region_sever.cycles",
                    format!("cycle {cycles} would heal at {last_heal:.2} of the run, past its end"),
                ));
            }
        }
        Ok(())
    }

    fn validate_spikes(&self) -> Result<(), SpecError> {
        let Some(spikes) = &self.spikes else {
            return Ok(());
        };
        for (i, spike) in spikes.iter().enumerate() {
            for (field, v) in [("at_frac", spike.at_frac), ("span_frac", spike.span_frac)] {
                if !v.is_finite() || v < 0.0 {
                    return Err(SpecError::at(
                        format!("spikes[{i}].{field}"),
                        "spike timing fractions are finite and >= 0",
                    ));
                }
            }
            if spike.span_frac == 0.0 {
                return Err(SpecError::at(
                    format!("spikes[{i}].span_frac"),
                    "a spike needs a non-zero span",
                ));
            }
            if spike.queriers == 0 {
                return Err(SpecError::at(
                    format!("spikes[{i}].queriers"),
                    "a spike needs queriers",
                ));
            }
            match (spike.queries_factor, spike.queries) {
                (Some(_), Some(_)) | (None, None) => {
                    return Err(SpecError::at(
                        format!("spikes[{i}].queries"),
                        "set exactly one of queries or queries_factor",
                    ));
                }
                (Some(0), None) | (None, Some(0)) => {
                    return Err(SpecError::at(
                        format!("spikes[{i}].queries"),
                        "a spike needs a positive query budget",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn validate_columns(&self) -> Result<(), SpecError> {
        if self.columns.is_empty() {
            return Err(SpecError::at("columns", "needs at least one column"));
        }
        let labels = self.scheme_labels();
        let swept = self.swept();
        let w = &self.workload;
        let faults = self.faults.as_ref();
        for (i, column) in self.columns.iter().enumerate() {
            let path = format!("columns[{i}].field");
            if !COLUMN_FIELDS.contains(&column.field.as_str()) {
                return Err(SpecError::at(
                    path,
                    format!(
                        "unknown column field {:?} (see EXPERIMENTS.md E18 for the catalog)",
                        column.field
                    ),
                ));
            }
            if let Some(scheme) = &column.scheme {
                if !labels.iter().any(|l| l == scheme) {
                    return Err(SpecError::at(
                        format!("columns[{i}].scheme"),
                        format!(
                            "no scheme labelled {:?} (have {})",
                            scheme,
                            labels.join(", ")
                        ),
                    ));
                }
                if self.scheme_rows() {
                    return Err(SpecError::at(
                        format!("columns[{i}].scheme"),
                        "scheme_rows emits one row per scheme; scheme-scoped columns are for \
                         the wide layout",
                    ));
                }
            } else if !self.scheme_rows()
                && labels.len() > 1
                && !POINT_FIELDS.contains(&column.field.as_str())
            {
                return Err(SpecError::at(
                    format!("columns[{i}].scheme"),
                    format!(
                        "ambiguous: {} schemes are in play; name one (have {})",
                        labels.len(),
                        labels.join(", ")
                    ),
                ));
            }
            // A point column prints a knob: it must be set somewhere or
            // swept. (param, set, where it is set.)
            let knob = match column.field.as_str() {
                "residence_ms" => Some(("residence_ms", w.residence_ms.is_some(), "workload")),
                "query_skew" => Some(("query_skew", w.query_skew.is_some(), "workload")),
                "mobility_skew" => Some(("mobility_skew", w.mobility_skew.is_some(), "workload")),
                "freshness_ms" => Some(("freshness_ms", w.freshness_ms.is_some(), "workload")),
                "churn_lifespan_s" => Some((
                    "churn_lifespan_ms",
                    w.churn_lifespan_ms.is_some(),
                    "workload",
                )),
                "rehash_concurrency" => Some((
                    "rehash_concurrency",
                    self.schemes.iter().any(|s| s.rehash_concurrency.is_some()),
                    "a scheme",
                )),
                "intensity" => Some((
                    "intensity",
                    faults.is_some_and(|f| f.chaos.is_some()),
                    "faults.chaos",
                )),
                "crash_frac" => Some((
                    "crash_frac",
                    faults.is_some_and(|f| f.node_crash.is_some()),
                    "faults.node_crash",
                )),
                _ => None,
            };
            if let Some((param, set, home)) = knob {
                if !set && !swept.contains(&param) {
                    return Err(SpecError::at(
                        path,
                        format!(
                            "a {} column needs {param} set in {home} or a sweep axis",
                            column.field
                        ),
                    ));
                }
            }
            match column.field.as_str() {
                "scheme" | "kind" if !self.scheme_rows() => {
                    return Err(SpecError::at(
                        path,
                        format!(
                            "a {} column only makes sense with scheme_rows",
                            column.field
                        ),
                    ));
                }
                "reconverge_ms" if self.spikes.as_ref().is_none_or(Vec::is_empty) => {
                    return Err(SpecError::at(
                        path,
                        "reconverge_ms measures rehash settling after a spike; add spikes",
                    ));
                }
                "violations" if !self.audit() => {
                    return Err(SpecError::at(
                        path,
                        "a violations column needs the invariant audit (drop audit: false)",
                    ));
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Why `v` is not a valid value of sweep parameter `param`, if it is not.
fn axis_value_error(param: &str, v: f64) -> Option<String> {
    let whole = v.fract() == 0.0;
    match param {
        _ if !v.is_finite() => Some("must be finite".to_owned()),
        "agents" | "residence_ms" | "rehash_concurrency" if !whole || v < 1.0 => {
            Some(format!("{param} values are positive whole numbers"))
        }
        // Zero is meaningful here: Fresh answers, or no churn.
        "freshness_ms" | "churn_lifespan_ms" if !whole || v < 0.0 => Some(format!(
            "{param} values are whole non-negative milliseconds"
        )),
        "intensity" | "crash_frac" if !(0.0..=1.0).contains(&v) => {
            Some(format!("{param} lives in [0, 1]"))
        }
        "query_skew" | "mobility_skew" if v < 0.0 => Some("Zipf exponents are >= 0".to_owned()),
        _ => None,
    }
}

/// Re-runs [`SpecError::locate`] using the error path's leaf key, so
/// semantic errors also point into the source text when possible.
fn relocate(error: SpecError, source: &str) -> SpecError {
    let leaf = error
        .path
        .rsplit('.')
        .next()
        .map(|s| s.split('[').next().unwrap_or(s))
        .unwrap_or("");
    if leaf.is_empty() || leaf == "<spec>" {
        return error;
    }
    let leaf = leaf.to_owned();
    error.locate(source, &leaf)
}

/// Strict unknown-key checking over the raw value tree: the vendored
/// serde ignores unknown keys, so a typo like `residence_millis` would
/// silently fall back to the default — exactly the failure mode a
/// declarative lab cannot afford.
fn check_keys(value: &Value, source: &str) -> Result<(), SpecError> {
    const SPEC_KEYS: &[&str] = &[
        "name",
        "title",
        "workload",
        "sweep",
        "schemes",
        "scheme_rows",
        "seeds",
        "faults",
        "spikes",
        "audit",
        "trace_buffer",
        "columns",
    ];
    const WORKLOAD_KEYS: &[&str] = &[
        "agents",
        "residence_ms",
        "queries",
        "nodes",
        "queriers",
        "warmup_s",
        "measure_s",
        "grace_s",
        "query_skew",
        "mobility_skew",
        "churn_lifespan_ms",
        "churn_dist",
        "loss",
        "duplication",
        "regions",
        "inter_region_ms",
        "freshness_ms",
    ];
    const AXIS_KEYS: &[&str] = &["param", "also", "values"];
    const SCHEME_KEYS: &[&str] = &[
        "kind",
        "label",
        "patient",
        "standby",
        "strict_versions",
        "version_audit_s",
        "replication_ms",
        "rehash_concurrency",
        "eager_propagation",
        "simple_splits_only",
        "blind_splits",
        "locality_migration",
        "threshold_max",
        "threshold_min",
    ];
    const FAULT_ARMS: &[(&str, &[&str])] = &[
        ("chaos", &["seed", "intensity"]),
        ("regional_partition", &["groups", "at_frac", "heal_frac"]),
        (
            "region_sever",
            &["a", "b", "at_frac", "heal_frac", "cycles"],
        ),
        ("node_crash", &["nodes", "restart_ms"]),
    ];
    const SPIKE_KEYS: &[&str] = &[
        "at_frac",
        "span_frac",
        "queries_factor",
        "queries",
        "queriers",
    ];
    const COLUMN_KEYS: &[&str] = &["field", "scheme", "header"];

    let root = expect_map(value, "<spec>")?;
    allow_keys("<spec>", root, SPEC_KEYS, source)?;
    if let Some(workload) = get(root, "workload") {
        allow_keys(
            "workload",
            expect_map(workload, "workload")?,
            WORKLOAD_KEYS,
            source,
        )?;
    }
    for (i, axis) in seq(root, "sweep", source)? {
        let path = format!("sweep[{i}]");
        allow_keys(&path, expect_map(axis, &path)?, AXIS_KEYS, source)?;
    }
    for (i, scheme) in seq(root, "schemes", source)? {
        let path = format!("schemes[{i}]");
        allow_keys(&path, expect_map(scheme, &path)?, SCHEME_KEYS, source)?;
    }
    if let Some(faults) = get(root, "faults") {
        if !matches!(faults, Value::Null) {
            let map = expect_map(faults, "faults")?;
            let arms: Vec<&str> = FAULT_ARMS.iter().map(|(arm, _)| *arm).collect();
            allow_keys("faults", map, &arms, source)?;
            for (arm, keys) in FAULT_ARMS {
                if let Some(value) = get(map, arm).filter(|v| !matches!(v, Value::Null)) {
                    let path = format!("faults.{arm}");
                    allow_keys(&path, expect_map(value, &path)?, keys, source)?;
                }
            }
        }
    }
    for (i, spike) in seq(root, "spikes", source)? {
        let path = format!("spikes[{i}]");
        allow_keys(&path, expect_map(spike, &path)?, SPIKE_KEYS, source)?;
    }
    for (i, column) in seq(root, "columns", source)? {
        let path = format!("columns[{i}]");
        allow_keys(&path, expect_map(column, &path)?, COLUMN_KEYS, source)?;
    }
    Ok(())
}

fn expect_map<'a>(value: &'a Value, path: &str) -> Result<&'a [(String, Value)], SpecError> {
    match value {
        Value::Map(entries) => Ok(entries),
        other => Err(SpecError::at(
            path,
            format!("expected an object, got {}", kind_of(other)),
        )),
    }
}

fn get<'a>(map: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    map.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The elements of an optional array field, or empty when absent/null.
fn seq<'a>(
    map: &'a [(String, Value)],
    key: &str,
    _source: &str,
) -> Result<Vec<(usize, &'a Value)>, SpecError> {
    match get(map, key) {
        None | Some(Value::Null) => Ok(Vec::new()),
        Some(Value::Seq(items)) => Ok(items.iter().enumerate().collect()),
        Some(other) => Err(SpecError::at(
            key,
            format!("expected an array, got {}", kind_of(other)),
        )),
    }
}

fn allow_keys(
    path: &str,
    map: &[(String, Value)],
    allowed: &[&str],
    source: &str,
) -> Result<(), SpecError> {
    for (key, _) in map {
        if !allowed.contains(&key.as_str()) {
            let full = if path == "<spec>" {
                key.clone()
            } else {
                format!("{path}.{key}")
            };
            return Err(SpecError::at(
                full,
                format!("unknown field (expected one of {})", allowed.join(", ")),
            )
            .locate(source, key));
        }
    }
    Ok(())
}

fn kind_of(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "a bool",
        Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
        Value::Str(_) => "a string",
        Value::Seq(_) => "an array",
        Value::Map(_) => "an object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal() -> &'static str {
        r#"{
            "name": "smoke",
            "title": "smoke",
            "workload": {"agents": 100},
            "schemes": [{"kind": "hashed"}],
            "columns": [{"field": "mean_ms"}]
        }"#
    }

    #[test]
    fn minimal_spec_loads() {
        let spec = ScenarioSpec::load_str(minimal()).expect("loads");
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.seed_list(), vec![42]);
        assert!(spec.audit());
        assert!(!spec.scheme_rows());
    }

    #[test]
    fn unknown_key_is_named_and_located() {
        let source = minimal().replace("\"agents\"", "\"agnets\"");
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "workload.agnets");
        assert!(err.line.is_some(), "span missing: {err}");
        assert!(err.message.contains("unknown field"));
    }

    #[test]
    fn bad_scheme_kind_is_named() {
        let source = minimal().replace("\"hashed\"", "\"hasjed\"");
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "schemes[0].kind");
    }

    /// The error path `load_str` reports for `minimal()` with `extra`
    /// top-level entries spliced in.
    fn error_path(extra: &str) -> String {
        let source = minimal().replacen('{', &format!("{{ {extra},"), 1);
        ScenarioSpec::load_str(&source).expect_err("rejects").path
    }

    #[test]
    fn crash_node_outside_topology_is_named() {
        // The default topology has 16 nodes.
        let path = error_path(
            r#""sweep": [{"param": "crash_frac", "values": [0.5]}],
               "faults": {"node_crash": {"nodes": [1, 16], "restart_ms": 500}}"#,
        );
        assert_eq!(path, "faults.node_crash.nodes[1]");
    }

    #[test]
    fn crash_frac_axis_needs_node_crash() {
        let path = error_path(r#""sweep": [{"param": "crash_frac", "values": [0.5]}]"#);
        assert_eq!(path, "sweep");
    }

    #[test]
    fn node_crash_needs_crash_frac_axis() {
        let path = error_path(r#""faults": {"node_crash": {"nodes": [0], "restart_ms": 500}}"#);
        assert_eq!(path, "faults.node_crash");
    }

    #[test]
    fn churn_dist_needs_a_lifespan() {
        let source = minimal().replace(
            r#""agents": 100"#,
            r#""agents": 100, "churn_dist": "exponential""#,
        );
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "workload.churn_dist");
        let swept = source.replacen(
            '{',
            r#"{ "sweep": [{"param": "churn_lifespan_ms", "values": [0, 5000]}],"#,
            1,
        );
        ScenarioSpec::load_str(&swept).expect("a lifespan axis satisfies churn_dist");
    }

    #[test]
    fn also_names_known_distinct_parameters() {
        let unknown = error_path(
            r#""sweep": [{"param": "mobility_skew", "also": ["warp"], "values": [1.0]}]"#,
        );
        assert_eq!(unknown, "sweep[0].also[0]");
        let duplicate = error_path(
            r#""sweep": [{"param": "mobility_skew", "also": ["query_skew", "mobility_skew"],
                          "values": [1.0]}]"#,
        );
        assert_eq!(duplicate, "sweep[0].also[1]");
    }

    #[test]
    fn negative_mobility_skew_is_rejected() {
        let path = error_path(r#""sweep": [{"param": "mobility_skew", "values": [0.5, -0.1]}]"#);
        assert_eq!(path, "sweep[0].values[1]");
    }

    #[test]
    fn node_crash_excludes_other_fault_arms() {
        let path = error_path(
            r#""faults": {"chaos": {"seed": 1, "intensity": 0.3},
                          "node_crash": {"nodes": [0], "restart_ms": 500}}"#,
        );
        assert_eq!(path, "faults");
    }

    #[test]
    fn round_trips_through_json() {
        let spec = ScenarioSpec::load_str(minimal()).expect("loads");
        let again = ScenarioSpec::parse(&spec.to_json()).expect("reparses");
        assert_eq!(spec, again);
    }
}
