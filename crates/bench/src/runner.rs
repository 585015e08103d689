//! The generic trial runner: expands a [`ScenarioSpec`] into independent
//! trial cells (grid point × scheme arm × seed), runs them across worker
//! threads with the same work-stealing executor the hand-coded
//! experiments use, and folds the outcomes into the spec's table plus
//! structured per-trial records.
//!
//! Every trial owns its entire simulation and is fully determined by the
//! spec and its seed, so `--jobs 1` and `--jobs N` produce byte-identical
//! tables — the property the `scenario-lab-smoke` CI job diffs.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use agentrack_core::{Freshness, LocationConfig};
use agentrack_sim::{
    ChaosConfig, DurationDist, FaultEvent, FaultKind, FaultPlan, NodeId, SimDuration, SimTime,
    TraceEvent, TraceRecord, TraceSink,
};
use agentrack_workload::{
    AuditOptions, InvariantReport, QuerySpike, RunOptions, Scenario, ScenarioReport,
};
use serde::{Deserialize, Serialize};

use crate::spec::ScenarioSpec;
use crate::{boxed_scheme, ms, ms_or_dnf, patient, run_cells, Fidelity, Table};

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
    /// Host wall-clock milliseconds the trial took. The only
    /// non-deterministic field; golden tests bound it instead of
    /// comparing it.
    pub wall_ms: f64,
}

/// Everything one spec run produces: the rendered table and the trial
/// records behind its rows.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// The table, shaped by the spec's columns and row layout.
    pub table: Table,
    /// Per-trial structured records, in grid order (point, then scheme,
    /// then seed).
    pub trials: Vec<TrialRecord>,
}

impl SpecOutcome {
    /// The trial records as a JSON array.
    #[must_use]
    pub fn trials_json(&self) -> String {
        serde_json::to_string(&self.trials).expect("trial serialization cannot fail")
    }
}

/// Runs every trial of a validated spec and folds the outcomes into the
/// spec's table. `jobs` is the worker-thread count (callers resolve
/// `0 = all cores` before calling, as the `repro` binary does).
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

    let mut cells: Vec<Box<dyn FnOnce() -> TrialRecord + Send>> = Vec::new();
    for point in &points {
        for (scheme_idx, _) in spec.schemes.iter().enumerate() {
            for &seed in &seeds {
                let spec = Arc::clone(&spec);
                let point = point.clone();
                let label = labels[scheme_idx].clone();
                cells.push(Box::new(move || {
                    run_trial(&spec, fidelity, &point, scheme_idx, &label, seed)
                }));
            }
        }
    }
    let trials = run_cells(cells, jobs);

    let formats: Vec<_> = spec
        .columns
        .iter()
        .map(|c| column(&c.field).expect("validated column field"))
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
    SpecOutcome { table, trials }
}

/// The cartesian product of the sweep axes, in declaration order (later
/// axes vary fastest); a single empty point without a sweep. An axis
/// assigns its value to every parameter it drives.
fn expand_points(spec: &ScenarioSpec) -> Vec<Vec<PointValue>> {
    let mut points: Vec<Vec<PointValue>> = vec![Vec::new()];
    for axis in spec.sweep.iter().flatten() {
        let mut next = Vec::with_capacity(points.len() * axis.values.len());
        for point in &points {
            for &value in &axis.values {
                let mut grown = point.clone();
                grown.extend(axis.params().map(|param| PointValue {
                    param: param.to_owned(),
                    value,
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

#[allow(clippy::too_many_lines)]
fn run_trial(
    spec: &ScenarioSpec,
    fidelity: Fidelity,
    point: &[PointValue],
    scheme_idx: usize,
    label: &str,
    seed: u64,
) -> TrialRecord {
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

    let needs_trace = spec.trace_buffer.is_some()
        || spec.columns.iter().any(|c| {
            matches!(
                c.field.as_str(),
                "reconverge_ms" | "rec_p50_ms" | "rec_p95_ms"
            )
        });
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
    }

    TrialRecord {
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
        wall_ms: wall.elapsed().as_secs_f64() * 1e3,
    }
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

/// A table column: its name, and how it prints from one trial.
pub(crate) type Column = (&'static str, fn(&TrialRecord) -> String);

/// Every column a spec may request (documented in `EXPERIMENTS.md`
/// §E18), formatted exactly as the hand-coded experiments do: latencies
/// `{:.2}`, percentages and intensities `{:.1}`, counters as integers,
/// `dnf` for starved or unsettled metrics.
#[rustfmt::skip]
pub(crate) const COLUMNS: &[Column] = &[
    // Point / trial metadata.
    ("agents", |t| t.agents.to_string()),
    ("residence_ms", |t| t.residence_ms.unwrap_or(t.report.residence_ms as u64).to_string()),
    ("intensity", |t| format!("{:.1}", t.intensity.unwrap_or(0.0))),
    ("rehash_concurrency", |t| {
        t.rehash_concurrency.map_or_else(|| "-".to_owned(), |v| v.to_string())
    }),
    ("query_skew", |t| format!("{:.1}", t.query_skew.unwrap_or(0.0))),
    ("mobility_skew", |t| format!("{}", t.mobility_skew.unwrap_or(0.0))),
    // `any` marks the unbounded default so a swept 0 (Fresh) stays
    // distinguishable in the table.
    ("freshness_ms", |t| t.freshness_ms.map_or_else(|| "any".to_owned(), |v| v.to_string())),
    ("churn_lifespan_s", |t| {
        let seconds = |ms| format!("{}", ms as f64 / 1000.0);
        t.churn_lifespan_ms.map_or_else(|| "static".to_owned(), seconds)
    }),
    ("crash_frac", |t| format!("{:.2}", t.crash_frac.unwrap_or(0.0))),
    ("scheme", |t| t.scheme.clone()),
    ("kind", |t| t.kind.clone()),
    ("replication", |t| t.replication_ms.map_or_else(|| "off".to_owned(), |v| format!("{v}ms"))),
    ("seed", |t| t.seed.to_string()),
    // Locate outcome counters and latency metrics.
    ("issued", |t| t.report.locates_issued.to_string()),
    ("completed", |t| t.report.locates_completed.to_string()),
    ("failures", |t| t.report.locate_failures.to_string()),
    ("success_pct", |t| format!("{:.1}", 100.0 * t.report.completion_ratio())),
    ("mean_ms", |t| ms(t.report.mean_locate_ms)),
    ("mean_ms_or_dnf", |t| ms_or_dnf(&t.report)),
    ("p50_ms", |t| ms(t.report.p50_locate_ms)),
    ("p95_ms", |t| ms(t.report.p95_locate_ms)),
    ("p99_ms", |t| ms(t.report.p99_locate_ms)),
    ("max_ms", |t| ms(t.report.max_locate_ms)),
    // Directory shape and adaptation.
    ("trackers", |t| t.report.trackers.to_string()),
    ("peak_trackers", |t| t.report.peak_trackers.to_string()),
    ("splits", |t| t.report.splits.to_string()),
    ("merges", |t| t.report.merges.to_string()),
    ("denied", |t| t.rehash_denied.to_string()),
    ("tree_height", |t| t.report.tree_height.to_string()),
    ("mean_prefix_bits", |t| format!("{:.2}", t.report.mean_prefix_bits)),
    ("reconverge_ms", |t| t.reconverge_ms.map_or_else(|| "dnf".to_owned(), ms)),
    // Traffic, mail, and durability.
    ("messages_sent", |t| t.report.messages_sent.to_string()),
    ("messages_remote", |t| t.report.messages_remote.to_string()),
    ("messages_failed", |t| t.report.messages_failed.to_string()),
    ("mail_buffered", |t| t.report.mail_buffered.to_string()),
    ("mail_flushed", |t| t.report.mail_flushed.to_string()),
    ("mail_lost", |t| t.report.mail_lost.to_string()),
    ("record_syncs", |t| t.report.record_syncs.to_string()),
    ("recoveries_started", |t| t.report.recoveries_started.to_string()),
    ("recoveries_completed", |t| t.report.recoveries_completed.to_string()),
    ("rec_p50_ms", |t| t.rec_p50_ms.map_or_else(|| "-".to_owned(), ms)),
    ("rec_p95_ms", |t| t.rec_p95_ms.map_or_else(|| "-".to_owned(), ms)),
    ("stale_answers", |t| t.report.stale_answers.to_string()),
    // Geo / freshness (E20).
    ("stale_answer_pct", |t| {
        #[allow(clippy::cast_precision_loss)]
        let (stale, completed) = (t.report.stale_located as f64, t.report.locates_completed as f64);
        format!("{:.1}", if completed == 0.0 { 0.0 } else { 100.0 * stale / completed })
    }),
    ("replica_answers", |t| t.report.replica_answers.to_string()),
    ("freshness_refusals", |t| t.report.freshness_refusals.to_string()),
    ("hedged_locates", |t| t.report.hedged_locates.to_string()),
    ("bound_violations", |t| t.report.bound_violations.to_string()),
    ("stale_hits", |t| t.report.stale_hits.to_string()),
    ("hf_fetches", |t| t.report.hf_fetches.to_string()),
    ("chain_hops", |t| t.report.chain_hops.to_string()),
    ("iagent_moves", |t| t.report.iagent_moves.to_string()),
    // Population dynamics.
    ("registrations", |t| t.report.registrations.to_string()),
    ("moves", |t| t.report.moves.to_string()),
    ("births", |t| t.report.births.to_string()),
    ("deaths", |t| t.report.deaths.to_string()),
    // Invariant audit.
    ("violations", |t| {
        let count = |i: &InvariantReport| i.violations.len().to_string();
        t.invariants.as_ref().map_or_else(|| "-".to_owned(), count)
    }),
];

/// How column `field` prints, if it is a column.
pub(crate) fn column(field: &str) -> Option<fn(&TrialRecord) -> String> {
    COLUMNS
        .iter()
        .find(|(name, _)| *name == field)
        .map(|&(_, format)| format)
}
