//! The generic trial runner: expands a [`ScenarioSpec`] into independent
//! trial cells (grid point × scheme arm × seed), runs them across worker
//! threads on a work-stealing executor, and folds the outcomes into the
//! spec's table, its exports and structured per-trial records.
//!
//! Every trial owns its entire simulation and is fully determined by the
//! spec and its seed, so `--jobs 1` and `--jobs N` produce byte-identical
//! tables and exports — the property the `scenario-lab-smoke` CI job
//! diffs.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use agentrack_core::{Freshness, LocationConfig, TrackerRows};
use agentrack_sim::{
    ChaosConfig, DurationDist, FaultEvent, FaultKind, FaultPlan, NodeId, SimDuration, SimTime,
    TraceEvent, TraceRecord, TraceSink,
};
use agentrack_trace_analysis::{
    build_spans, to_folded, to_perfetto_json, Attribution, Phase, SpanTree,
};
use agentrack_workload::{
    AuditOptions, InvariantReport, QuerySpike, RunOptions, Scenario, ScenarioReport,
};
use serde::{Deserialize, Serialize};

use crate::spec::ScenarioSpec;
use crate::{boxed_scheme, Fidelity, Table};

/// Runs independent cells across `jobs` worker threads and returns the
/// outcomes in cell order.
///
/// Work-stealing by atomic index: scoped threads pull the next unclaimed
/// cell until the grid is exhausted, so a slow cell (the big-population
/// end of a sweep) never serialises the rest of the grid behind it.
/// `jobs <= 1` degenerates to the plain sequential loop.
///
/// # Panics
///
/// Propagates a panic from any cell (scoped-thread join).
fn run_cells<T: Send>(cells: Vec<Box<dyn FnOnce() -> T + Send>>, jobs: usize) -> Vec<T> {
    let jobs = jobs.clamp(1, cells.len().max(1));
    if jobs <= 1 {
        return cells.into_iter().map(|cell| cell()).collect();
    }
    #[allow(clippy::type_complexity)]
    let slots: Vec<Mutex<Option<Box<dyn FnOnce() -> T + Send>>>> =
        cells.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let rows: Vec<Mutex<Option<T>>> = slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let cell = slots[i]
                    .lock()
                    .expect("cell slot poisoned")
                    .take()
                    .expect("cell claimed twice");
                *rows[i].lock().expect("row slot poisoned") = Some(cell());
            });
        }
    });
    rows.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("row slot poisoned")
                .expect("cell never ran")
        })
        .collect()
}

/// One sweep-axis assignment of a trial's grid point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointValue {
    /// The axis parameter.
    pub param: String,
    /// The value this trial ran at (full-fidelity, before scaling).
    pub value: f64,
}

/// One scheduled fault's effect window, in run-relative milliseconds —
/// lets downstream analysis line locate samples up against outages
/// without re-deriving the fault plan from the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// The fault kind's short name (`partition`, `region-sever`, ...).
    pub kind: String,
    /// When the fault lands, milliseconds from the start of the run.
    pub at_ms: f64,
    /// When its effect ends, when it ends on its own (a sever's heal, a
    /// crash's restart); `None` for permanent effects.
    pub ends_ms: Option<f64>,
}

/// The structured outcome of one trial: everything the table formatter
/// reads, plus the full report and audit for downstream analysis. One
/// JSON array of these lands in `results/<spec>.trials.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialRecord {
    /// The spec that produced this trial.
    pub spec: String,
    /// The scenario name the trial ran under.
    pub scenario: String,
    /// Scheme arm label.
    pub scheme: String,
    /// Scheme kind behind the label.
    pub kind: String,
    /// Master seed of the trial.
    pub seed: u64,
    /// The grid point, one assignment per sweep axis.
    pub point: Vec<PointValue>,
    /// Population actually simulated (after fidelity scaling).
    pub agents: usize,
    /// Resolved residence time, when the workload fixes one.
    pub residence_ms: Option<u64>,
    /// Resolved chaos intensity, when chaos faults are in play.
    pub intensity: Option<f64>,
    /// Resolved rehash pipeline width, when set.
    pub rehash_concurrency: Option<usize>,
    /// Resolved query Zipf exponent, when set.
    pub query_skew: Option<f64>,
    /// Resolved mobility Zipf exponent, when set.
    pub mobility_skew: Option<f64>,
    /// Resolved freshness bound in milliseconds (`0` = Fresh), when the
    /// workload or a sweep axis declares one; `None` = Any.
    pub freshness_ms: Option<u64>,
    /// Resolved churn lifespan (the mean, for exponential churn) in
    /// milliseconds; `None` = a static population.
    pub churn_lifespan_ms: Option<u64>,
    /// Resolved crash time as a fraction of the run, when node-crash
    /// faults are in play.
    pub crash_frac: Option<f64>,
    /// The arm's record replication interval, when replication is on.
    pub replication_ms: Option<u64>,
    /// The trial's scheduled fault windows (sever/heal, crash/restart),
    /// empty for fault-free trials.
    pub fault_windows: Vec<FaultWindow>,
    /// The scenario report.
    pub report: ScenarioReport,
    /// The post-quiesce invariant audit (absent with `audit: false`).
    pub invariants: Option<InvariantReport>,
    /// Rehash requests the control plane denied.
    pub rehash_denied: u64,
    /// Milliseconds from the first spike's start to the last committed
    /// split — rehash settling time (requires tracing and spikes).
    pub reconverge_ms: Option<f64>,
    /// Median tracker recovery span, `RecoveryStart` to `RecoveryEnd`,
    /// in milliseconds; `0` without recoveries (requires tracing).
    pub rec_p50_ms: Option<f64>,
    /// 95th-percentile tracker recovery span, as `rec_p50_ms`.
    pub rec_p95_ms: Option<f64>,
    /// Where the traced operations' time went (requires tracing).
    pub phases: Option<PhaseMeans>,
    /// Host wall-clock milliseconds the trial took. The only
    /// non-deterministic field; golden tests bound it instead of
    /// comparing it.
    pub wall_ms: f64,
}

/// Critical-path attribution of one trial: its traced operations folded
/// into span trees, and the mean milliseconds per operation end to end
/// and in each phase. Child spans partition each root window, so the
/// phase means sum to `mean_ms`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseMeans {
    /// Operations attributed.
    pub traced: u64,
    /// Mean end-to-end milliseconds.
    pub mean_ms: f64,
    /// Hash-tree resolution (`Resolve`, `ResolveFresh`, `Resolved`).
    pub resolution_ms: f64,
    /// The tracker query (`Locate`).
    pub tracker_ms: f64,
    /// Forwarding-pointer chain traversal.
    pub chain_ms: f64,
    /// The answer leg.
    pub answer_ms: f64,
    /// Stale-directory detours (`NotResponsible`).
    pub stale_ms: f64,
    /// Queueing at a service station.
    pub queue_ms: f64,
    /// Retry timeouts and backoff.
    pub retry_ms: f64,
    /// Time no phase names.
    pub other_ms: f64,
}

impl PhaseMeans {
    fn of(trees: &[SpanTree]) -> Self {
        let mut attr = Attribution::new();
        for tree in trees {
            attr.record(&tree.breakdown());
        }
        let phase = |p| attr.mean_ms(p);
        PhaseMeans {
            traced: attr.count(),
            mean_ms: attr.mean_total_ms(),
            resolution_ms: phase(Phase::Resolution),
            tracker_ms: phase(Phase::TrackerQuery),
            chain_ms: phase(Phase::ChainTraversal),
            answer_ms: phase(Phase::Answer),
            stale_ms: phase(Phase::StaleDetour),
            queue_ms: phase(Phase::QueueWait),
            retry_ms: phase(Phase::RetryBackoff),
            other_ms: phase(Phase::Other),
        }
    }
}

/// Named output files, as (file name, contents).
type Files = Vec<(String, String)>;

/// Everything one spec run produces: the rendered table, the trial
/// records behind its rows, and the spec's exports.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The spec's name, the stem of every file [`SpecOutcome::write`]
    /// writes.
    pub name: String,
    /// The table, shaped by the spec's columns and row layout.
    pub table: Table,
    /// Per-trial structured records, in grid order (point, then scheme,
    /// then seed).
    pub trials: Vec<TrialRecord>,
    /// The exports the spec asks for, rendered from the grid's first
    /// trial, as (file name, contents) in the spec's order.
    pub exports: Vec<(String, String)>,
}

impl SpecOutcome {
    /// Writes `<name>.csv`, every export and the trial records as
    /// `<name>.trials.json` (whose `wall_ms` fields differ run to run)
    /// into `dir`. Returns the paths written.
    ///
    /// # Errors
    ///
    /// The first failed write, naming its path.
    pub fn write(&self, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
        let mut files = vec![(format!("{}.csv", self.name), self.table.to_csv())];
        files.extend(self.exports.iter().cloned());
        let json = serde_json::to_string(&self.trials).expect("trial serialization cannot fail");
        files.push((format!("{}.trials.json", self.name), json));
        let mut written = Vec::with_capacity(files.len());
        for (file, contents) in files {
            let path = dir.join(file);
            std::fs::write(&path, contents).map_err(|e| {
                std::io::Error::new(e.kind(), format!("cannot write {}: {e}", path.display()))
            })?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Runs every trial of a validated spec and folds the outcomes into the
/// spec's table. `jobs` is the worker-thread count (callers resolve
/// `0 = all cores` before calling, as the `scenario_lab` binary does).
///
/// # Panics
///
/// Panics if the spec was not validated ([`ScenarioSpec::load_str`]
/// guarantees validity) or if a trial's simulation panics.
#[must_use]
pub fn run_spec(spec: &ScenarioSpec, fidelity: Fidelity, jobs: usize) -> SpecOutcome {
    let spec = Arc::new(spec.clone());
    let labels = spec.scheme_labels();
    let seeds = spec.seed_list();
    let points = expand_points(&spec);

    let mut cells: Vec<Box<dyn FnOnce() -> (TrialRecord, Files) + Send>> = Vec::new();
    for point in &points {
        for (scheme_idx, _) in spec.schemes.iter().enumerate() {
            for &seed in &seeds {
                let spec = Arc::clone(&spec);
                let point = point.clone();
                let label = labels[scheme_idx].clone();
                let exports = cells.is_empty();
                cells.push(Box::new(move || {
                    run_trial(&spec, fidelity, &point, scheme_idx, &label, seed, exports)
                }));
            }
        }
    }
    let (trials, exports): (Vec<TrialRecord>, Vec<Files>) =
        run_cells(cells, jobs).into_iter().unzip();

    let formats: Vec<_> = spec
        .columns
        .iter()
        .map(|c| column(&c.field).expect("validated column field").format)
        .collect();
    let headers: Vec<String> = spec.columns.iter().map(|c| c.header()).collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(spec.title.clone(), &header_refs);
    let per_point = spec.schemes.len() * seeds.len();
    for (point_idx, _) in points.iter().enumerate() {
        let block = &trials[point_idx * per_point..(point_idx + 1) * per_point];
        if spec.scheme_rows() {
            for trial in block {
                let row = formats.iter().map(|format| format(trial)).collect();
                table.push_row(row);
            }
        } else {
            for (seed_idx, _) in seeds.iter().enumerate() {
                let arm = |label: Option<&String>| -> &TrialRecord {
                    let scheme_idx = label
                        .map(|l| {
                            labels
                                .iter()
                                .position(|have| have == l)
                                .expect("validated scheme reference")
                        })
                        .unwrap_or(0);
                    &block[scheme_idx * seeds.len() + seed_idx]
                };
                let row = spec
                    .columns
                    .iter()
                    .zip(&formats)
                    .map(|(c, format)| format(arm(c.scheme.as_ref())))
                    .collect();
                table.push_row(row);
            }
        }
    }
    SpecOutcome {
        name: spec.name.clone(),
        table,
        trials,
        exports: exports.into_iter().flatten().collect(),
    }
}

/// The cartesian product of the sweep axes, in declaration order (later
/// axes vary fastest); a single empty point without a sweep. Point `i`
/// of an axis assigns each parameter it drives that lane's `i`-th value.
fn expand_points(spec: &ScenarioSpec) -> Vec<Vec<PointValue>> {
    let mut points: Vec<Vec<PointValue>> = vec![Vec::new()];
    for axis in spec.sweep.iter().flatten() {
        let mut next = Vec::with_capacity(points.len() * axis.values.len());
        for point in &points {
            for i in 0..axis.values.len() {
                let mut grown = point.clone();
                grown.extend(axis.lanes().map(|(param, values)| PointValue {
                    param: param.to_owned(),
                    value: values[i],
                }));
                next.push(grown);
            }
        }
        points = next;
    }
    points
}

fn axis_value(point: &[PointValue], param: &str) -> Option<f64> {
    point.iter().find(|p| p.param == param).map(|p| p.value)
}

/// Runs one trial; with `exports`, also renders the spec's exports from
/// it.
#[allow(clippy::too_many_lines)]
fn run_trial(
    spec: &ScenarioSpec,
    fidelity: Fidelity,
    point: &[PointValue],
    scheme_idx: usize,
    label: &str,
    seed: u64,
    exports: bool,
) -> (TrialRecord, Files) {
    let wall = Instant::now();
    let w = &spec.workload;
    let arm = &spec.schemes[scheme_idx];

    let full_agents = axis_value(point, "agents").map_or(w.agents, |v| v as usize);
    let agents = fidelity.scale_agents(full_agents);
    let (fidelity_warmup, fidelity_measure) = fidelity.spans();
    let warmup = w.warmup_s.unwrap_or(fidelity_warmup);
    let measure = w.measure_s.unwrap_or(fidelity_measure);
    let queries = w.queries.unwrap_or_else(|| fidelity.queries());
    let residence_ms = axis_value(point, "residence_ms")
        .map(|v| v as u64)
        .or(w.residence_ms);
    let query_skew = axis_value(point, "query_skew").or(w.query_skew);
    let mobility_skew = axis_value(point, "mobility_skew").or(w.mobility_skew);
    // A swept lifespan of 0 is the static population.
    let churn_lifespan_ms = axis_value(point, "churn_lifespan_ms")
        .map(|v| v as u64)
        .or(w.churn_lifespan_ms)
        .filter(|&ms| ms > 0);
    let rehash_concurrency = axis_value(point, "rehash_concurrency")
        .map(|v| v as usize)
        .or(arm.rehash_concurrency);
    let freshness_ms = axis_value(point, "freshness_ms")
        .map(|v| v as u64)
        .or(w.freshness_ms);

    let mut scenario = Scenario::new(format!("{}-{label}-s{seed}", spec.name))
        .with_agents(agents)
        .with_queries(queries)
        .with_seconds(warmup, measure)
        .with_seed(seed);
    if let Some(residence) = residence_ms {
        scenario = scenario.with_residence_ms(residence);
    }
    if let Some(nodes) = w.nodes {
        scenario.nodes = nodes;
    }
    if let Some(queriers) = w.queriers {
        scenario.queriers = queriers;
    }
    if let Some(grace) = w.grace_s {
        scenario.grace = SimDuration::from_secs_f64(grace);
    }
    scenario.query_skew = query_skew;
    scenario.mobility_skew = mobility_skew;
    if let Some(loss) = w.loss {
        scenario.loss = loss;
    }
    if let Some(duplication) = w.duplication {
        scenario.duplication = duplication;
    }
    scenario.churn_lifespan = churn_lifespan_ms.map(|ms| {
        let mean = SimDuration::from_millis(ms);
        match w.churn_dist.as_deref() {
            Some("exponential") => DurationDist::Exponential { mean },
            _ => DurationDist::Constant(mean),
        }
    });
    if let Some(regions) = w.regions {
        scenario = scenario.with_regions(regions, w.inter_region_ms.unwrap_or(60.0));
    }
    if let Some(bound_ms) = freshness_ms {
        scenario = scenario.with_freshness(match bound_ms {
            0 => Freshness::Fresh,
            ms => Freshness::BoundedMs(ms),
        });
    }

    // Spikes: timed against the resolved spans, exactly as E17 computes
    // its flash crowd from `scenario.warmup`/`scenario.measure`.
    let mut first_spike_at: Option<SimDuration> = None;
    for s in spec.spikes.iter().flatten() {
        let at = scenario.warmup + scenario.measure.mul_f64(s.at_frac);
        let span = scenario.measure.mul_f64(s.span_frac);
        let queries = s
            .queries
            .unwrap_or_else(|| scenario.queries_total * s.queries_factor.unwrap_or(0));
        first_spike_at = Some(first_spike_at.map_or(at, |earliest| earliest.min(at)));
        scenario = scenario.with_spike(QuerySpike {
            at,
            span,
            queries,
            queriers: s.queriers,
        });
    }

    let (mut intensity, mut crash_frac) = (None, None);
    if let Some(faults) = &spec.faults {
        if let Some(chaos) = &faults.chaos {
            let resolved = chaos
                .intensity
                .or_else(|| axis_value(point, "intensity"))
                .unwrap_or(0.0);
            intensity = Some(resolved);
            if resolved > 0.0 {
                scenario.faults = ChaosConfig {
                    seed: chaos.seed,
                    intensity: resolved,
                }
                .generate(scenario.nodes, scenario.duration());
            }
        }
        if let Some(partition) = &faults.regional_partition {
            let duration = scenario.duration();
            let groups: Vec<Vec<NodeId>> = match &partition.groups {
                Some(groups) => groups
                    .iter()
                    .map(|group| group.iter().copied().map(NodeId::new).collect())
                    .collect(),
                None => {
                    let half = scenario.nodes / 2;
                    vec![
                        (0..half).map(NodeId::new).collect(),
                        (half..scenario.nodes).map(NodeId::new).collect(),
                    ]
                }
            };
            let mut plan = FaultPlan::new();
            plan.push(FaultEvent {
                at: SimTime::ZERO + duration.mul_f64(partition.at_frac),
                kind: FaultKind::Partition {
                    groups,
                    heal_at: SimTime::ZERO + duration.mul_f64(partition.heal_frac),
                },
            });
            scenario.faults = plan;
        }
        if let Some(sever) = &faults.region_sever {
            let duration = scenario.duration();
            let d = sever.heal_frac - sever.at_frac;
            let mut plan = FaultPlan::new();
            for cycle in 0..sever.cycles.unwrap_or(1) {
                let start = sever.at_frac + f64::from(2 * cycle) * d;
                plan.push(FaultEvent {
                    at: SimTime::ZERO + duration.mul_f64(start),
                    kind: FaultKind::RegionSever {
                        a: sever.a,
                        b: sever.b,
                        heal_at: SimTime::ZERO + duration.mul_f64(start + d),
                    },
                });
            }
            scenario.faults = plan;
        }
        if let Some(crash) = &faults.node_crash {
            let resolved = axis_value(point, "crash_frac").unwrap_or(0.0);
            crash_frac = Some(resolved);
            let at = SimTime::ZERO + scenario.duration().mul_f64(resolved);
            let restart_at = Some(at + SimDuration::from_millis(crash.restart_ms));
            let mut plan = FaultPlan::new();
            for &node in &crash.nodes {
                plan.push(FaultEvent {
                    at,
                    kind: FaultKind::NodeCrash {
                        node: NodeId::new(node),
                        lose_soft_state: true,
                        restart_at,
                    },
                });
            }
            scenario.faults = plan;
        }
    }
    let fault_windows: Vec<FaultWindow> = scenario
        .faults
        .events()
        .iter()
        .map(|e| FaultWindow {
            kind: e.kind.name().to_owned(),
            at_ms: e.at.saturating_since(SimTime::ZERO).as_millis_f64(),
            ends_ms: e
                .kind
                .ends_at()
                .map(|end| end.saturating_since(SimTime::ZERO).as_millis_f64()),
        })
        .collect();

    let mut config = LocationConfig::default();
    if arm.patient.unwrap_or(false) {
        config = patient(config);
    }
    if let Some(t_max) = arm.threshold_max {
        config = config.with_thresholds(t_max, arm.threshold_min.unwrap_or(t_max / 10.0));
    }
    if arm.simple_splits_only.unwrap_or(false) {
        config = config.simple_splits_only();
    }
    if arm.blind_splits.unwrap_or(false) {
        config = config.with_blind_splits();
    }
    if arm.eager_propagation.unwrap_or(false) {
        config = config.with_eager_propagation();
    }
    if arm.locality_migration.unwrap_or(false) {
        config = config.with_locality_migration();
    }
    if let Some(interval_s) = arm.version_audit_s {
        config = config.with_version_audit(SimDuration::from_secs_f64(interval_s));
    }
    if let Some(interval_ms) = arm.replication_ms {
        config = config.with_replication(SimDuration::from_millis(interval_ms));
    }
    if let Some(concurrency) = rehash_concurrency {
        config = config.with_rehash_concurrency(concurrency);
    }

    let spec_exports = spec.exports.iter().flatten();
    let spec_exports = spec_exports.map(|name| export(name).expect("validated export"));
    let needs_trace = spec.trace_buffer.is_some()
        || spec
            .columns
            .iter()
            .any(|c| column(&c.field).is_some_and(|col| col.trace))
        || spec_exports.clone().any(|e| e.trace);
    let sink = if needs_trace {
        TraceSink::bounded(spec.trace_buffer.unwrap_or(1_048_576))
    } else {
        TraceSink::disabled()
    };
    let mut options = RunOptions::new();
    if needs_trace {
        options = options.with_sink(sink.clone());
    }
    if spec.audit() {
        options = options.with_audit(AuditOptions {
            strict_versions: arm.strict_versions.unwrap_or(false),
        });
    }

    let mut scheme = boxed_scheme(&arm.kind, config, arm.standby.unwrap_or(false));
    let out = scenario.run_with(scheme.as_mut(), options);
    let rehash_denied = scheme.stats().rehash_denied;

    let (mut reconverge_ms, mut rec_p50_ms, mut rec_p95_ms) = (None, None, None);
    let mut trees = Vec::new();
    if needs_trace {
        let records = sink.snapshot();
        reconverge_ms = first_spike_at.and_then(|at| {
            let spike_start = SimTime::ZERO + at;
            records
                .iter()
                .filter(|r| {
                    matches!(r.event, TraceEvent::RehashSplit { .. }) && r.at >= spike_start
                })
                .map(|r| r.at)
                .max()
                .map(|last| last.saturating_since(spike_start).as_millis_f64())
        });
        let [p50, p95] = recovery_percentiles(&records);
        (rec_p50_ms, rec_p95_ms) = (Some(p50), Some(p95));
        // An operation with a single record spans no time to attribute.
        trees = build_spans(&records);
        trees.retain(|t| !t.duration().is_zero());
    }
    let files = if exports {
        let source = ExportSource {
            label,
            trees: &trees,
            trackers: scheme.shared().tracker_rows(),
        };
        let render = |e: &Export| (format!("{}{}", spec.name, e.suffix), (e.render)(&source));
        spec_exports.map(render).collect()
    } else {
        Vec::new()
    };

    let record = TrialRecord {
        spec: spec.name.clone(),
        scenario: scenario.name.clone(),
        scheme: label.to_owned(),
        kind: arm.kind.clone(),
        seed,
        point: point.to_vec(),
        agents,
        residence_ms,
        intensity,
        rehash_concurrency,
        query_skew,
        mobility_skew,
        freshness_ms,
        churn_lifespan_ms,
        crash_frac,
        replication_ms: arm.replication_ms,
        fault_windows,
        report: out.report,
        invariants: out.invariants,
        rehash_denied,
        reconverge_ms,
        rec_p50_ms,
        rec_p95_ms,
        phases: needs_trace.then(|| PhaseMeans::of(&trees)),
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    };
    (record, files)
}

/// Pairs each tracker's `RecoveryStart` with its next `RecoveryEnd` and
/// returns the p50 and p95 of those spans in milliseconds (`0` when no
/// recovery completed).
fn recovery_percentiles(records: &[TraceRecord]) -> [f64; 2] {
    let mut open: HashMap<u64, SimTime> = HashMap::new();
    let mut spans_ms: Vec<f64> = Vec::new();
    for record in records {
        match record.event {
            TraceEvent::RecoveryStart { tracker } => {
                open.insert(tracker, record.at);
            }
            TraceEvent::RecoveryEnd { tracker, .. } => {
                if let Some(started) = open.remove(&tracker) {
                    spans_ms.push(record.at.saturating_since(started).as_millis_f64());
                }
            }
            _ => {}
        }
    }
    spans_ms.sort_by(f64::total_cmp);
    [50.0, 95.0].map(|p: f64| {
        if spans_ms.is_empty() {
            return 0.0;
        }
        spans_ms[((p / 100.0) * (spans_ms.len() - 1) as f64).round() as usize]
    })
}

fn ms(v: f64) -> String {
    format!("{v:.2}")
}

/// Formats a report's mean locate time, or `dnf` when the scheme answered
/// nothing at all (a tracker so saturated that every query outlived the
/// retry budget).
fn ms_or_dnf(report: &ScenarioReport) -> String {
    if report.locates_completed == 0 {
        "dnf".to_owned()
    } else {
        ms(report.mean_locate_ms)
    }
}

/// Experiment-grade client patience: a saturated tracker answers queries
/// from a queue that is seconds deep; giving up early would record the
/// meltdown as "no data" instead of as the honest, huge location times.
fn patient(mut config: LocationConfig) -> LocationConfig {
    config.max_locate_attempts = 30;
    config.locate_retry_timeout = SimDuration::from_secs(2);
    config
}

/// A table column: its name, whether it reads the trial's trace, and
/// how it prints from one trial.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Column {
    name: &'static str,
    /// A spec with this column runs every trial traced.
    trace: bool,
    format: fn(&TrialRecord) -> String,
}

/// A column printed from the report, the audit or the grid point.
const fn plain(name: &'static str, format: fn(&TrialRecord) -> String) -> Column {
    Column {
        name,
        trace: false,
        format,
    }
}

/// A column printed from what the runner reads out of the trace.
const fn traced(name: &'static str, format: fn(&TrialRecord) -> String) -> Column {
    Column {
        name,
        trace: true,
        format,
    }
}

/// Every column a spec may request (documented in `EXPERIMENTS.md`
/// §E18): latencies `{:.2}`, attribution phases `{:.3}`, percentages and
/// intensities `{:.1}`, counters as integers, `dnf` for starved or
/// unsettled metrics.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    // Point / trial metadata.
    plain("agents", |t| t.agents.to_string()),
    plain("residence_ms", |t| t.residence_ms.unwrap_or(t.report.residence_ms as u64).to_string()),
    plain("intensity", |t| format!("{:.1}", t.intensity.unwrap_or(0.0))),
    plain("rehash_concurrency", |t| {
        t.rehash_concurrency.map_or_else(|| "-".to_owned(), |v| v.to_string())
    }),
    plain("query_skew", |t| format!("{:.1}", t.query_skew.unwrap_or(0.0))),
    plain("mobility_skew", |t| format!("{}", t.mobility_skew.unwrap_or(0.0))),
    // `any` marks the unbounded default so a swept 0 (Fresh) stays
    // distinguishable in the table.
    plain("freshness_ms", |t| t.freshness_ms.map_or_else(|| "any".to_owned(), |v| v.to_string())),
    plain("churn_lifespan_s", |t| {
        let seconds = |ms| format!("{}", ms as f64 / 1000.0);
        t.churn_lifespan_ms.map_or_else(|| "static".to_owned(), seconds)
    }),
    plain("crash_frac", |t| format!("{:.2}", t.crash_frac.unwrap_or(0.0))),
    plain("scheme", |t| t.scheme.clone()),
    plain("kind", |t| t.kind.clone()),
    plain("replication", |t| t.replication_ms.map_or_else(|| "off".to_owned(), |v| format!("{v}ms"))),
    plain("seed", |t| t.seed.to_string()),
    // Locate outcome counters and latency metrics.
    plain("issued", |t| t.report.locates_issued.to_string()),
    plain("completed", |t| t.report.locates_completed.to_string()),
    plain("failures", |t| t.report.locate_failures.to_string()),
    plain("success_pct", |t| format!("{:.1}", 100.0 * t.report.completion_ratio())),
    plain("mean_ms", |t| ms(t.report.mean_locate_ms)),
    plain("mean_ms_or_dnf", |t| ms_or_dnf(&t.report)),
    plain("p50_ms", |t| ms(t.report.p50_locate_ms)),
    plain("p95_ms", |t| ms(t.report.p95_locate_ms)),
    plain("p99_ms", |t| ms(t.report.p99_locate_ms)),
    plain("max_ms", |t| ms(t.report.max_locate_ms)),
    // Directory shape and adaptation.
    plain("trackers", |t| t.report.trackers.to_string()),
    plain("peak_trackers", |t| t.report.peak_trackers.to_string()),
    plain("splits", |t| t.report.splits.to_string()),
    plain("merges", |t| t.report.merges.to_string()),
    plain("denied", |t| t.rehash_denied.to_string()),
    plain("tree_height", |t| t.report.tree_height.to_string()),
    plain("mean_prefix_bits", |t| format!("{:.2}", t.report.mean_prefix_bits)),
    traced("reconverge_ms", |t| t.reconverge_ms.map_or_else(|| "dnf".to_owned(), ms)),
    // Traffic, mail, and durability.
    plain("messages_sent", |t| t.report.messages_sent.to_string()),
    plain("messages_remote", |t| t.report.messages_remote.to_string()),
    plain("messages_failed", |t| t.report.messages_failed.to_string()),
    plain("mail_buffered", |t| t.report.mail_buffered.to_string()),
    plain("mail_flushed", |t| t.report.mail_flushed.to_string()),
    plain("mail_lost", |t| t.report.mail_lost.to_string()),
    plain("record_syncs", |t| t.report.record_syncs.to_string()),
    plain("recoveries_started", |t| t.report.recoveries_started.to_string()),
    plain("recoveries_completed", |t| t.report.recoveries_completed.to_string()),
    traced("rec_p50_ms", |t| t.rec_p50_ms.map_or_else(|| "-".to_owned(), ms)),
    traced("rec_p95_ms", |t| t.rec_p95_ms.map_or_else(|| "-".to_owned(), ms)),
    plain("stale_answers", |t| t.report.stale_answers.to_string()),
    // Geo / freshness (E20).
    plain("stale_answer_pct", |t| {
        #[allow(clippy::cast_precision_loss)]
        let (stale, completed) = (t.report.stale_located as f64, t.report.locates_completed as f64);
        format!("{:.1}", if completed == 0.0 { 0.0 } else { 100.0 * stale / completed })
    }),
    plain("replica_answers", |t| t.report.replica_answers.to_string()),
    plain("freshness_refusals", |t| t.report.freshness_refusals.to_string()),
    plain("hedged_locates", |t| t.report.hedged_locates.to_string()),
    plain("bound_violations", |t| t.report.bound_violations.to_string()),
    plain("stale_hits", |t| t.report.stale_hits.to_string()),
    plain("hf_fetches", |t| t.report.hf_fetches.to_string()),
    plain("chain_hops", |t| t.report.chain_hops.to_string()),
    plain("iagent_moves", |t| t.report.iagent_moves.to_string()),
    // Population dynamics.
    plain("registrations", |t| t.report.registrations.to_string()),
    plain("moves", |t| t.report.moves.to_string()),
    plain("births", |t| t.report.births.to_string()),
    plain("deaths", |t| t.report.deaths.to_string()),
    // Critical-path attribution (E14): operations traced, their mean
    // end-to-end time, and the per-phase means that sum to it.
    traced("traced", |t| phases(t).traced.to_string()),
    traced("traced_mean_ms", |t| format!("{:.3}", phases(t).mean_ms)),
    traced("resolution_ms", |t| format!("{:.3}", phases(t).resolution_ms)),
    traced("tracker_ms", |t| format!("{:.3}", phases(t).tracker_ms)),
    traced("chain_ms", |t| format!("{:.3}", phases(t).chain_ms)),
    traced("answer_ms", |t| format!("{:.3}", phases(t).answer_ms)),
    traced("stale_ms", |t| format!("{:.3}", phases(t).stale_ms)),
    traced("queue_ms", |t| format!("{:.3}", phases(t).queue_ms)),
    traced("retry_ms", |t| format!("{:.3}", phases(t).retry_ms)),
    traced("other_ms", |t| format!("{:.3}", phases(t).other_ms)),
    plain("trace_dropped", |t| t.report.trace_dropped.to_string()),
    // Invariant audit.
    plain("violations", |t| {
        let count = |i: &InvariantReport| i.violations.len().to_string();
        t.invariants.as_ref().map_or_else(|| "-".to_owned(), count)
    }),
];

/// The phase figures of a traced trial.
fn phases(t: &TrialRecord) -> &PhaseMeans {
    t.phases.as_ref().expect("a traced column turns tracing on")
}

/// The column named `field`, if there is one.
pub(crate) fn column(field: &str) -> Option<Column> {
    COLUMNS.iter().find(|c| c.name == field).copied()
}

/// What an export renders from: the grid's first trial.
struct ExportSource<'a> {
    /// The trial's scheme label, the root frame of folded stacks.
    label: &'a str,
    /// The trial's span trees (empty unless traced).
    trees: &'a [SpanTree],
    /// The scheme's per-tracker rows at the end of the run.
    trackers: TrackerRows,
}

/// A file a spec may ask for beside its CSV.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Export {
    pub(crate) name: &'static str,
    /// Appended to the spec name to name the file.
    suffix: &'static str,
    /// A spec with this export runs every trial traced.
    trace: bool,
    render: fn(&ExportSource<'_>) -> String,
}

/// Every export a spec may request (documented in `EXPERIMENTS.md`
/// §E18).
pub(crate) const EXPORTS: &[Export] = &[
    // Chrome/Perfetto trace-event JSON of the 8 slowest operations.
    Export {
        name: "perfetto",
        suffix: ".perfetto.json",
        trace: true,
        render: |s| {
            let mut slowest = s.trees.to_vec();
            slowest.sort_by_key(|t| (std::cmp::Reverse(t.duration()), t.corr));
            slowest.truncate(8);
            to_perfetto_json(&slowest)
        },
    },
    // Folded-stack flamegraph text over every traced operation.
    Export {
        name: "folded",
        suffix: ".folded",
        trace: true,
        render: |s| to_folded(s.trees, s.label),
    },
    // The per-tracker rows as JSON.
    Export {
        name: "registry_json",
        suffix: ".json",
        trace: false,
        render: |s| s.trackers.to_json(),
    },
    // The per-tracker rows as CSV.
    Export {
        name: "registry_csv",
        suffix: ".registry.csv",
        trace: false,
        render: |s| s.trackers.to_csv(),
    },
];

/// The export named `name`, if there is one.
pub(crate) fn export(name: &str) -> Option<&'static Export> {
    EXPORTS.iter().find(|e| e.name == name)
}
