//! Declarative scenario specs: the data-driven face of the experiment
//! harness.
//!
//! A [`ScenarioSpec`] describes one experiment — workload shape
//! (population, mobility and query mix, Zipf skew, churn), sweep axes,
//! the scheme grid, fault plans (chaos, a regional partition, WAN link
//! severs, or node crashes), flash-crowd spikes, seeds, the requested
//! output columns and exports — as a JSON document under `specs/`. The
//! generic trial runner ([`crate::run_spec`]) expands a spec into
//! independent trial cells, runs them in parallel, audits the
//! post-quiesce invariants of every trial, and emits the spec's table,
//! its exports and structured per-trial records.
//!
//! # Strictness
//!
//! Every spec type derives `Deserialize` with
//! `#[serde(deny_unknown_fields)]`, so the schema is the structs below
//! and nothing else: [`ScenarioSpec::parse`] rejects a key a struct does
//! not declare (a typo like `residence_millis` would otherwise fall back
//! to the default silently), a value of the wrong type and a missing
//! required field, each named by dotted path (`schemes[1].bogus`,
//! `sweep[0].values[0]`) and, where the source text holds the key, by
//! line and column. [`ScenarioSpec::validate`] (in `validate.rs`) then
//! checks semantics — unknown scheme kinds, axes and columns,
//! contradictory fault plans — with the same field-naming discipline,
//! reading the axis table here and the runner's column table. Neither
//! step panics on arbitrary input; [`ScenarioSpec::load_str`] chains
//! both.

use std::fmt;

use serde::{Deserialize, Serialize, Value};

mod validate;

/// One sweep axis the runner can apply: the knob it drives, what its
/// values may be, the point column that prints it, and where a fixed
/// value of the knob may live instead. Adding an axis adds one row.
#[derive(Debug, Clone, Copy)]
struct Axis {
    /// The `param` (or `also`) name a sweep axis uses.
    name: &'static str,
    /// What its values may be.
    rule: Rule,
    /// The point column that prints it (a runner column).
    column: &'static str,
    /// Where a fixed value may live instead of a sweep.
    home: Home,
}

/// What the values of a sweep axis may be.
#[derive(Debug, Clone, Copy)]
enum Rule {
    /// Whole numbers >= 1.
    Positive,
    /// Whole milliseconds >= 0; zero means Fresh answers, or no churn.
    NonNegative,
    /// Fractions in `[0, 1]`.
    Unit,
    /// Zipf exponents >= 0.
    Zipf,
}

/// Where a fixed value of an axis's knob may live instead of a sweep.
/// A point column of the knob needs a fixed value or a sweep axis.
#[derive(Debug, Clone, Copy)]
enum Home {
    /// A `workload` field, set when the function says so; a sweep
    /// overrides it point by point.
    Workload(fn(&WorkloadSpec) -> bool),
    /// A `workload` field that may be fixed or swept, not both.
    WorkloadOrSweep(fn(&WorkloadSpec) -> bool),
    /// A field of any scheme arm; a sweep overrides it.
    Scheme(fn(&SchemeSpec) -> bool),
    /// `faults.chaos`.
    Chaos,
    /// `faults.node_crash`, which holds no value: the axis supplies it.
    NodeCrash,
}

/// Every sweep axis, in the order `unknown sweep parameter` lists them.
#[rustfmt::skip]
const AXES: &[Axis] = &[
    // `workload.agents` is required, so always set.
    Axis { name: "agents", rule: Rule::Positive, column: "agents",
           home: Home::Workload(|_| true) },
    Axis { name: "residence_ms", rule: Rule::Positive, column: "residence_ms",
           home: Home::Workload(|w| w.residence_ms.is_some()) },
    Axis { name: "intensity", rule: Rule::Unit, column: "intensity",
           home: Home::Chaos },
    Axis { name: "rehash_concurrency", rule: Rule::Positive, column: "rehash_concurrency",
           home: Home::Scheme(|s| s.rehash_concurrency.is_some()) },
    Axis { name: "query_skew", rule: Rule::Zipf, column: "query_skew",
           home: Home::Workload(|w| w.query_skew.is_some()) },
    Axis { name: "mobility_skew", rule: Rule::Zipf, column: "mobility_skew",
           home: Home::Workload(|w| w.mobility_skew.is_some()) },
    Axis { name: "freshness_ms", rule: Rule::NonNegative, column: "freshness_ms",
           home: Home::WorkloadOrSweep(|w| w.freshness_ms.is_some()) },
    Axis { name: "churn_lifespan_ms", rule: Rule::NonNegative, column: "churn_lifespan_s",
           home: Home::WorkloadOrSweep(|w| w.churn_lifespan_ms.is_some()) },
    Axis { name: "crash_frac", rule: Rule::Unit, column: "crash_frac",
           home: Home::NodeCrash },
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

    /// Attaches the line/column of the path's leaf key in `source`. Each
    /// key of the path (`sweep`, `zip`, `values` for
    /// `sweep[0].zip[0].values[1]`) is found as a quoted JSON key after
    /// the one before it. Best effort: indices are not counted, so a key
    /// repeated across sibling objects may resolve to an earlier one.
    fn locate(mut self, source: &str) -> Self {
        let mut pos = 0;
        for key in self.path.split('.') {
            let key = key.split('[').next().unwrap_or_default();
            let needle = format!("\"{key}\"");
            match source[pos..].find(&needle).filter(|_| !key.is_empty()) {
                Some(at) => pos += at,
                None => return self,
            }
        }
        let prefix = &source[..pos];
        self.line = Some(prefix.matches('\n').count() + 1);
        self.col = Some(pos - prefix.rfind('\n').map_or(0, |p| p + 1) + 1);
        self
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.path)?;
        if let (Some(line), Some(col)) = (self.line, self.col) {
            write!(f, " (line {line}, col {col})")?;
        }
        write!(f, ": {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// A complete declarative experiment: what to run, over what grid, and
/// what to report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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
    /// order (later axes vary fastest). Absent = a single point. An axis
    /// with `zip` lanes walks several knobs in lockstep, for points that
    /// are not a product.
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
    /// column or an export reads the trace (the runner's `COLUMNS` and
    /// `EXPORTS` tables say which), with a 1 Mi-record ring.
    pub trace_buffer: Option<usize>,
    /// Files rendered from the grid's first trial and written beside
    /// `<name>.csv`, by name from the runner's `EXPORTS` table
    /// (`perfetto`, `folded`, `registry_json`, `registry_csv`).
    pub exports: Option<Vec<String>>,
    /// The output columns, left to right.
    pub columns: Vec<ColumnSpec>,
}

/// The workload knobs of [`agentrack_workload::Scenario`], at full
/// fidelity; the runner applies [`crate::Fidelity`] scaling (population
/// via `scale_agents`, query budget and spans from the fidelity when
/// unset here).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct WorkloadSpec {
    /// TAgent population at full fidelity (quick runs scale it down).
    pub agents: usize,
    /// Constant residence time per node, milliseconds.
    pub residence_ms: Option<u64>,
    /// Total steady-state locate budget; absent = the fidelity's budget
    /// (2000 full / 200 quick).
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

/// One sweep axis: a parameter name from the axis table and the values
/// it takes. Values are numbers; integer parameters (`agents`,
/// `residence_ms`, `rehash_concurrency`, and the millisecond knobs) must
/// hold whole numbers. A `churn_lifespan_ms` of `0` means no churn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct AxisSpec {
    /// Which knob this axis drives.
    pub param: String,
    /// Further knobs that take the same value at every point (E6 moves
    /// query and mobility skew together).
    pub also: Option<Vec<String>>,
    /// The values the sweep visits, in order.
    pub values: Vec<f64>,
    /// Further knobs that step with this one through value lists of
    /// their own, as long as `values`: point `i` sets every knob to its
    /// `i`-th value (E7's three (agents, residence) points are no
    /// product of axes).
    pub zip: Option<Vec<ZipSpec>>,
}

/// One lockstep lane of a zipped sweep axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct ZipSpec {
    /// Which knob this lane drives.
    pub param: String,
    /// Its value at each point of the axis.
    pub values: Vec<f64>,
}

impl AxisSpec {
    /// Every parameter this axis drives, each with its value list:
    /// `param` and `also` share `values`, then each `zip` lane.
    pub(crate) fn lanes(&self) -> impl Iterator<Item = (&str, &[f64])> {
        let shared = std::iter::once(&self.param).chain(self.also.iter().flatten());
        let shared = shared.map(|param| (param.as_str(), self.values.as_slice()));
        let zipped = self.zip.iter().flatten();
        shared.chain(zipped.map(|lane| (lane.param.as_str(), lane.values.as_slice())))
    }
}

/// One scheme arm of the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SchemeSpec {
    /// Scheme kind: `hashed`, `centralized`, `home-registry` or
    /// `forwarding` (the names the harness's `SCHEMES` table declares).
    pub kind: String,
    /// Label columns reference this arm by; absent = the kind. Must be
    /// unique across arms (two `hashed` ablations need distinct labels).
    pub label: Option<String>,
    /// Experiment-grade client patience (30 locate attempts, 2 s retry
    /// timeout).
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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

/// One output column: a field from the runner's column table
/// (`COLUMNS` in `runner.rs`), the scheme arm it reads from (wide
/// layout), and the CSV header.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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

impl ScenarioSpec {
    /// Parses a spec from JSON text: syntax, then strict typed
    /// deserialization. Semantic checks live in
    /// [`ScenarioSpec::validate`]; [`ScenarioSpec::load_str`] chains
    /// both.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn parse(source: &str) -> Result<Self, SpecError> {
        let value: Value = serde_json::from_str(source)
            .map_err(|e| SpecError::at("<spec>", format!("invalid JSON: {e}")))?;
        ScenarioSpec::deserialize(&value).map_err(|e| {
            let path = if e.path().is_empty() {
                "<spec>"
            } else {
                e.path()
            };
            SpecError::at(path, e.message()).locate(source)
        })
    }

    /// Parses and validates: the one call sites should use.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] naming the offending field.
    pub fn load_str(source: &str) -> Result<Self, SpecError> {
        let spec = Self::parse(source)?;
        spec.validate().map_err(|e| e.locate(source))?;
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
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(super) fn minimal() -> &'static str {
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

    /// A spec with an object at every nesting level, one root entry per
    /// line. `@level` marks where a case splices its unknown key, and
    /// `@arm` is the one fault arm in play.
    const EVERY_LEVEL: &str = r#"{
        @root "name": "pin",
        "workload": { @workload "agents": 100 },
        "sweep": [{ @sweep[0] "param": "agents", "values": [100], "zip": [{ @sweep[0].zip[0] "param": "residence_ms", "values": [500] }] }],
        "schemes": [{ "kind": "hashed" }, { @schemes[1] "kind": "centralized" }],
        "faults": { @faults @arm },
        "spikes": [{ @spikes[0] "at_frac": 0.1, "span_frac": 0.1, "queries": 10, "queriers": 2 }],
        "columns": [{ @columns[0] "field": "mean_ms", "scheme": "hashed" }],
        "exports": ["perfetto", "registry_csv"],
        "title": "pin"
    }"#;

    const FAULT_ARMS: [&str; 4] = [
        r#""chaos": { @faults.chaos "seed": 1, "intensity": 0.5 }"#,
        r#""regional_partition": { @faults.regional_partition "at_frac": 0.1, "heal_frac": 0.5 }"#,
        r#""region_sever": { @faults.region_sever "a": 0, "b": 1, "at_frac": 0.1, "heal_frac": 0.2 }"#,
        r#""node_crash": { @faults.node_crash "nodes": [0], "restart_ms": 500 }"#,
    ];

    /// `EVERY_LEVEL` with `arm` in `faults`, `"bogus": 1` spliced in at
    /// `level` (if any), and every other marker dropped.
    fn every_level(arm: &str, level: &str) -> String {
        let mut source = EVERY_LEVEL.replace("@arm", arm);
        source = source.replace(&format!("@{level} "), "\"bogus\": 1, ");
        while let Some(at) = source.find('@') {
            let end = at + source[at..].find(' ').expect("markers end in a space");
            source.replace_range(at..=end, "");
        }
        source
    }

    #[test]
    fn unknown_key_is_named_and_located() {
        let source = minimal().replace("\"agents\"", "\"agnets\"");
        let err = ScenarioSpec::load_str(&source).expect_err("rejects");
        assert_eq!(err.path, "workload.agnets");
        assert!(err.line.is_some(), "span missing: {err}");
        assert!(err.message.contains("unknown field"));

        // One unknown key at each nesting level: (level, fault arm).
        let cases = [
            ("root", 0),
            ("workload", 0),
            ("sweep[0]", 0),
            ("sweep[0].zip[0]", 0),
            ("schemes[1]", 0),
            ("faults", 0),
            ("faults.chaos", 0),
            ("faults.regional_partition", 1),
            ("faults.region_sever", 2),
            ("faults.node_crash", 3),
            ("spikes[0]", 0),
            ("columns[0]", 0),
        ];
        for (level, arm) in cases {
            let source = every_level(FAULT_ARMS[arm], level);
            let err = ScenarioSpec::load_str(&source).expect_err(level);
            let want = if level == "root" {
                "bogus".to_owned()
            } else {
                format!("{level}.bogus")
            };
            assert_eq!(err.path, want, "{err}");
            assert!(err.message.contains("unknown field"), "{err}");
            let at = source.find("\"bogus\"").expect("spliced");
            assert_eq!(
                err.line,
                Some(source[..at].matches('\n').count() + 1),
                "{err}"
            );
        }

        // The wrong shape at each level: (root key, its value, path).
        let shapes = [
            ("workload", "5", "workload"),
            ("sweep", "{}", "sweep"),
            ("sweep", "[5]", "sweep[0]"),
            (
                "sweep",
                r#"[{ "param": "agents", "values": [100], "zip": 5 }]"#,
                "sweep[0].zip",
            ),
            (
                "sweep",
                r#"[{ "param": "agents", "values": [100], "zip": [5] }]"#,
                "sweep[0].zip[0]",
            ),
            ("schemes", r#"[{ "kind": "hashed" }, 5]"#, "schemes[1]"),
            ("faults", "5", "faults"),
            ("faults", r#"{ "chaos": 5 }"#, "faults.chaos"),
            (
                "faults",
                r#"{ "regional_partition": [] }"#,
                "faults.regional_partition",
            ),
            (
                "faults",
                r#"{ "region_sever": "x" }"#,
                "faults.region_sever",
            ),
            ("faults", r#"{ "node_crash": true }"#, "faults.node_crash"),
            ("spikes", "{}", "spikes"),
            ("spikes", "[5]", "spikes[0]"),
            ("columns", "[5]", "columns[0]"),
            ("exports", "5", "exports"),
            ("exports", "[5]", "exports[0]"),
        ];
        let valid = every_level(FAULT_ARMS[0], "");
        for (key, value, path) in shapes {
            let entry = format!("\"{key}\": ");
            let source: Vec<String> = valid
                .lines()
                .map(|line| match line.trim_start().strip_prefix(&entry) {
                    Some(_) => format!("{entry}{value},"),
                    None => line.to_owned(),
                })
                .collect();
            let err = ScenarioSpec::load_str(&source.join("\n")).expect_err(path);
            assert_eq!(err.path, path, "{err}");
        }
        let err = ScenarioSpec::load_str("[]").expect_err("not an object");
        assert_eq!(err.path, "<spec>", "{err}");
    }

    #[test]
    fn type_errors_and_missing_fields_are_named_and_located() {
        // (source, path, whether the key occurs in the source).
        let cases = [
            (
                minimal().replace("100", "\"many\""),
                "workload.agents",
                true,
            ),
            (
                minimal().replace(r#""workload": {"agents": 100},"#, ""),
                "workload",
                false,
            ),
            (
                minimal().replacen(
                    '{',
                    r#"{ "sweep": [{"param": "agents", "values": ["x"]}],"#,
                    1,
                ),
                "sweep[0].values[0]",
                true,
            ),
        ];
        for (source, path, present) in cases {
            let err = ScenarioSpec::load_str(&source).expect_err(path);
            assert_eq!(err.path, path, "{err}");
            let leaf = path.rsplit('.').next().and_then(|l| l.split('[').next());
            let at = source.find(&format!("\"{}\"", leaf.expect("a leaf")));
            assert_eq!(err.line.is_some(), present, "{err}");
            if let (Some(at), Some(line)) = (at, err.line) {
                assert_eq!(line, source[..at].matches('\n').count() + 1, "{err}");
            }
        }
    }

    #[test]
    fn round_trips_through_json() {
        let spec = ScenarioSpec::load_str(minimal()).expect("loads");
        let again = ScenarioSpec::parse(&spec.to_json()).expect("reparses");
        assert_eq!(spec, again);
    }
}
