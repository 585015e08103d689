//! # agentrack-bench
//!
//! The experiment harness: the paper's evaluation (E1, E2) and the
//! extension experiments. Twelve of the sixteen `repro` names are trial
//! grids the declarative [`ScenarioSpec`] expresses: they live only as
//! `specs/<name>.json` and run through [`run_spec`]. The other four
//! (baselines, delivery, trackers, attribution) are not grids of scenario
//! reports and stay one function each here. The `repro` binary dispatches
//! by name ([`run_experiment`]) and prints the tables recorded in
//! `EXPERIMENTS.md`.
//!
//! Every experiment takes a [`Fidelity`]: [`Fidelity::Full`] reproduces the
//! paper's parameters (reconstructed where the source text lost digits —
//! see `DESIGN.md`), [`Fidelity::Quick`] shrinks populations and spans so
//! integration tests and smoke runs finish in seconds.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use agentrack_core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
    LocationScheme,
};
use agentrack_workload::{RunOptions, Scenario, ScenarioReport};

pub mod spec;

mod runner;
pub use runner::{run_spec, PointValue, SpecOutcome, TrialRecord};
pub use spec::{ScenarioSpec, SpecError};

/// One independent grid cell of an experiment: computes one table row.
///
/// Cells own their entire simulation (topology, platform, RNG seeded from
/// the scenario's explicit master seed), so the thread that happens to run
/// a cell cannot influence its result — parallel and sequential execution
/// produce identical tables.
type Cell = Box<dyn FnOnce() -> Vec<String> + Send>;

/// Runs independent experiment cells across `jobs` worker threads and
/// returns the outcomes in cell order. Generic over the outcome type: the
/// hand-coded experiments produce formatted rows (`Vec<String>`), the
/// spec-driven trial runner produces structured trial outcomes.
///
/// Work-stealing by atomic index: scoped threads pull the next unclaimed
/// cell until the grid is exhausted, so a slow cell (the big-population
/// end of a sweep) never serialises the rest of the grid behind it.
/// `jobs <= 1` degenerates to the plain sequential loop.
///
/// # Panics
///
/// Propagates a panic from any cell (scoped-thread join).
pub(crate) fn run_cells<T: Send>(cells: Vec<Box<dyn FnOnce() -> T + Send>>, jobs: usize) -> Vec<T> {
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

/// How much of the paper's scale to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// The reconstructed paper parameters.
    Full,
    /// Shrunk populations and spans for smoke tests.
    Quick,
}

impl Fidelity {
    fn scale_agents(self, n: usize) -> usize {
        match self {
            Fidelity::Full => n,
            Fidelity::Quick => (n / 10).max(10),
        }
    }

    fn queries(self) -> u64 {
        match self {
            Fidelity::Full => 2000,
            Fidelity::Quick => 200,
        }
    }

    fn spans(self) -> (f64, f64) {
        match self {
            // The split cascade at the largest population needs ~25 s to
            // converge (the HAgent serialises rehashes); measure after it.
            Fidelity::Full => (35.0, 15.0),
            Fidelity::Quick => (10.0, 5.0),
        }
    }
}

/// A printable result table with a machine-readable CSV form.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (the experiment id and description).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of formatted cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n== {} ==", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// Renders the table as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.join(","));
        }
        out
    }
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
    config.locate_retry_timeout = agentrack_sim::SimDuration::from_secs(2);
    config
}

/// Builds one scheme instance; the flag asks for a standby HAgent, which
/// only the hashed scheme has (spec validation rejects it elsewhere).
type MakeScheme = fn(LocationConfig, bool) -> Box<dyn LocationScheme>;

/// Every scheme kind the harness can instantiate, by the name specs use.
/// Spec validation reads the names from here.
pub(crate) const SCHEMES: &[(&str, MakeScheme)] = &[
    ("hashed", |config, standby| {
        let scheme = HashedScheme::new(config);
        Box::new(if standby {
            scheme.with_standby()
        } else {
            scheme
        })
    }),
    ("centralized", |config, _| {
        Box::new(CentralizedScheme::new(config))
    }),
    ("home-registry", |config, _| {
        Box::new(HomeRegistryScheme::new(config))
    }),
    ("forwarding", |config, _| {
        Box::new(ForwardingScheme::new(config))
    }),
];

/// Builds a fresh boxed scheme instance of the named kind.
///
/// # Panics
///
/// Panics on a kind [`SCHEMES`] does not list.
pub(crate) fn boxed_scheme(
    kind: &str,
    config: LocationConfig,
    standby: bool,
) -> Box<dyn LocationScheme> {
    let (_, make) = SCHEMES
        .iter()
        .find(|&&(name, _)| name == kind)
        .unwrap_or_else(|| panic!("unknown scheme {kind}"));
    make(config, standby)
}

/// Runs one scenario against a fresh scheme instance of the named kind.
fn run_scheme(scenario: &Scenario, kind: &str, config: LocationConfig) -> ScenarioReport {
    let mut scheme = boxed_scheme(kind, config, false);
    scenario.run_with(scheme.as_mut(), RunOptions::new()).report
}

/// **E7** — baseline panel: all four schemes under the Experiment-I
/// workload at two populations and under fast mobility.
#[must_use]
pub fn baselines(fidelity: Fidelity, jobs: usize) -> Table {
    let (warmup, measure) = fidelity.spans();
    let mut table = Table::new(
        "E7: baseline panel (mean locate ms; per workload)",
        &[
            "scheme",
            "n200_r500_ms",
            "n500_r500_ms",
            "n200_r100_ms",
            "failures",
        ],
    );
    let workloads = [
        (fidelity.scale_agents(200), 500u64),
        (fidelity.scale_agents(500), 500),
        (fidelity.scale_agents(200), 100),
    ];
    let kinds = ["hashed", "centralized", "home-registry", "forwarding"];
    // Cell grid is scheme × workload (12 cells); rows are reassembled per
    // scheme afterwards, summing the failure counts across workloads.
    let cells: Vec<Cell> = kinds
        .iter()
        .flat_map(|&kind| {
            workloads.into_iter().map(move |(agents, res)| {
                Box::new(move || {
                    let scenario = Scenario::new(format!("baseline-{kind}-{agents}-{res}"))
                        .with_agents(agents)
                        .with_residence_ms(res)
                        .with_queries(fidelity.queries())
                        .with_seconds(warmup, measure);
                    let report = run_scheme(&scenario, kind, patient(LocationConfig::default()));
                    vec![ms_or_dnf(&report), report.locate_failures.to_string()]
                }) as Cell
            })
        })
        .collect();
    let results = run_cells(cells, jobs);
    for (k, kind) in kinds.iter().enumerate() {
        let mut row = vec![(*kind).to_owned()];
        let mut failures: u64 = 0;
        for w in 0..workloads.len() {
            let cell = &results[k * workloads.len() + w];
            row.push(cell[0].clone());
            failures += cell[1].parse::<u64>().expect("failure count");
        }
        row.push(failures.to_string());
        table.push_row(row);
    }
    table
}

/// **E12** — per-tracker observability: the hashed scheme under the
/// Experiment-I workload, reported tracker by tracker from the scheme's
/// [`agentrack_sim::MetricsRegistry`] instead of as aggregates. This is
/// the view an operator needs — which IAgent is saturated, whose mailbox
/// is filling — and the table the determinism gate diffs across thread
/// counts.
///
/// Returns the table plus the registry's JSON export (rehash counts per
/// version and the locate-latency summary included).
#[must_use]
pub fn trackers_registry(fidelity: Fidelity) -> (Table, String) {
    let agents = fidelity.scale_agents(500);
    let (warmup, measure) = fidelity.spans();
    let mut scenario = Scenario::new("trackers")
        .with_agents(agents)
        .with_residence_ms(300)
        .with_queries(fidelity.queries())
        .with_seconds(warmup, measure);
    scenario.grace = agentrack_sim::SimDuration::from_secs(45);
    let mut scheme = HashedScheme::new(patient(LocationConfig::default()));
    let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
    let snapshot = scheme.registry().snapshot();
    let mut table = Table::new(
        format!(
            "E12: per-tracker metrics (hashed, {} agents, locate p95 {:.2} ms)",
            report.agents, snapshot.locate_latency.p95_ms
        ),
        &[
            "tracker",
            "requests",
            "rate_per_sec",
            "queue_peak",
            "mailbox_peak",
            "records_held",
            "mail_buffered",
            "mail_flushed",
            "mail_lost",
        ],
    );
    for (id, t) in &snapshot.trackers {
        table.push_row(vec![
            id.to_string(),
            t.requests.to_string(),
            format!("{:.3}", t.rate_per_sec),
            t.queue_depth_peak.to_string(),
            t.mailbox_occupancy_peak.to_string(),
            t.records_held.to_string(),
            t.mail_buffered.to_string(),
            t.mail_flushed.to_string(),
            t.mail_lost.to_string(),
        ]);
    }
    (table, snapshot.to_json())
}

/// **E14** — critical-path latency attribution: where a locate's
/// end-to-end time actually goes, for all four schemes, calm and under
/// chaos. Each cell runs observed (a [`agentrack_sim::TraceSink`] on the
/// platform), folds the record stream into span trees, and reports the
/// per-phase mean milliseconds. Because child spans partition each root
/// window, the phase columns sum to `mean_ms` exactly — unattributed
/// time can only appear in `other_ms`, never vanish.
///
/// Returns the table plus two deterministic exports from the calm hashed
/// cell: Chrome/Perfetto trace-event JSON of the slowest locates and
/// folded-stack flamegraph text over every traced locate.
#[must_use]
pub fn attribution(fidelity: Fidelity, jobs: usize) -> (Table, String, String) {
    use agentrack_sim::{ChaosConfig, SimDuration, TraceSink};
    use agentrack_trace_analysis::{build_spans, to_folded, to_perfetto_json, Attribution, Phase};

    let agents = fidelity.scale_agents(200);
    let (warmup, measure) = fidelity.spans();
    let mut table = Table::new(
        "E14: critical-path latency attribution (phase columns sum to mean_ms)",
        &[
            "intensity",
            "scheme",
            "traced",
            "mean_ms",
            "resolution_ms",
            "tracker_ms",
            "chain_ms",
            "answer_ms",
            "stale_ms",
            "queue_ms",
            "retry_ms",
            "other_ms",
            "trace_dropped",
        ],
    );
    // The calm hashed cell doubles as the export source; one slot, one
    // writer, so parallel cell order cannot affect the output bytes.
    let exports = std::sync::Arc::new(Mutex::new(None::<(String, String)>));
    let cells: Vec<Cell> = [0.0f64, 0.6]
        .into_iter()
        .flat_map(|intensity| {
            let exports = std::sync::Arc::clone(&exports);
            ["hashed", "centralized", "home-registry", "forwarding"]
                .into_iter()
                .map(move |kind| {
                    let exports = std::sync::Arc::clone(&exports);
                    Box::new(move || {
                        let mut scenario = Scenario::new(format!("attribution-{kind}-{intensity}"))
                            .with_agents(agents)
                            .with_residence_ms(400)
                            .with_queries(fidelity.queries())
                            .with_seconds(warmup, measure);
                        if intensity > 0.0 {
                            scenario.faults = ChaosConfig {
                                seed: 0xC4A0_5EED,
                                intensity,
                            }
                            .generate(scenario.nodes, scenario.duration());
                        }
                        let config = patient(LocationConfig::default())
                            .with_version_audit(SimDuration::from_secs(1));
                        let sink = TraceSink::bounded(262_144);
                        let report = run_observed_scheme(&scenario, kind, config, sink.clone());
                        let trees: Vec<_> = build_spans(&sink.snapshot())
                            .into_iter()
                            .filter(|t| !t.duration().is_zero())
                            .collect();
                        let mut attr = Attribution::new();
                        for tree in &trees {
                            attr.record(&tree.breakdown());
                        }
                        if kind == "hashed" && intensity == 0.0 {
                            let mut slowest_first = trees.clone();
                            slowest_first
                                .sort_by_key(|t| (std::cmp::Reverse(t.duration()), t.corr));
                            slowest_first.truncate(8);
                            *exports.lock().expect("exports slot poisoned") =
                                Some((to_perfetto_json(&slowest_first), to_folded(&trees, kind)));
                        }
                        let phase_ms = |p: Phase| -> String { format!("{:.3}", attr.mean_ms(p)) };
                        vec![
                            format!("{intensity:.1}"),
                            kind.to_owned(),
                            attr.count().to_string(),
                            format!("{:.3}", attr.mean_total_ms()),
                            phase_ms(Phase::Resolution),
                            phase_ms(Phase::TrackerQuery),
                            phase_ms(Phase::ChainTraversal),
                            phase_ms(Phase::Answer),
                            phase_ms(Phase::StaleDetour),
                            phase_ms(Phase::QueueWait),
                            phase_ms(Phase::RetryBackoff),
                            phase_ms(Phase::Other),
                            report.trace_dropped.to_string(),
                        ]
                    }) as Cell
                })
        })
        .collect();
    table.rows = run_cells(cells, jobs);
    let (perfetto, folded) = exports
        .lock()
        .expect("exports slot poisoned")
        .take()
        .expect("calm hashed cell always runs");
    (table, perfetto, folded)
}

fn run_observed_scheme(
    scenario: &Scenario,
    kind: &str,
    config: LocationConfig,
    sink: agentrack_sim::TraceSink,
) -> ScenarioReport {
    let mut scheme = boxed_scheme(kind, config, false);
    scenario
        .run_with(scheme.as_mut(), RunOptions::new().with_sink(sink))
        .report
}

/// All experiment names accepted by the `repro` binary, in order.
pub const EXPERIMENTS: &[&str] = &[
    "exp1",
    "exp2",
    "ablation-split",
    "ablation-propagation",
    "sweep-thresholds",
    "skew",
    "baselines",
    "churn",
    "locality",
    "ablation-planning",
    "delivery",
    "trackers",
    "chaos",
    "attribution",
    "recovery",
    "rehash-spike",
];

/// The experiments that run from `specs/*.json`, embedded so `repro` works
/// from any directory; a spec's `name` is its `repro` name. Every other
/// name in [`EXPERIMENTS`] is a hand-coded function.
const SPECS: &[&str] = &[
    include_str!("../../../specs/exp1.json"),
    include_str!("../../../specs/exp2.json"),
    include_str!("../../../specs/ablation-split.json"),
    include_str!("../../../specs/ablation-propagation.json"),
    include_str!("../../../specs/sweep-thresholds.json"),
    include_str!("../../../specs/skew.json"),
    include_str!("../../../specs/churn.json"),
    include_str!("../../../specs/locality.json"),
    include_str!("../../../specs/ablation-planning.json"),
    include_str!("../../../specs/chaos.json"),
    include_str!("../../../specs/recovery.json"),
    include_str!("../../../specs/rehash-spike.json"),
];

fn embedded_spec(name: &str) -> Option<ScenarioSpec> {
    SPECS
        .iter()
        .map(|source| {
            ScenarioSpec::load_str(source).unwrap_or_else(|e| panic!("embedded spec: {e}"))
        })
        .find(|spec| spec.name == name)
}

/// The four experiments that are not a (grid point × scheme arm) sweep of
/// scenario reports: a transposed table with a summed column
/// (baselines), custom agents on a bare platform (delivery), one run's
/// metrics registry (trackers), and trace exports (attribution).
fn hand_coded(name: &str) -> Option<fn(Fidelity, usize) -> Table> {
    let run: fn(Fidelity, usize) -> Table = match name {
        "baselines" => baselines,
        "delivery" => delivery,
        "trackers" => |fidelity, _| trackers_registry(fidelity).0,
        "attribution" => |fidelity, jobs| attribution(fidelity, jobs).0,
        _ => return None,
    };
    Some(run)
}

/// Dispatches an experiment by name: spec-backed names run their embedded
/// spec through [`run_spec`], the rest call their function.
///
/// # Panics
///
/// Panics if the name is unknown (the binary validates first).
#[must_use]
pub fn run_experiment(name: &str, fidelity: Fidelity, jobs: usize) -> Table {
    if let Some(spec) = embedded_spec(name) {
        return run_spec(&spec, fidelity, jobs).table;
    }
    let run = hand_coded(name).unwrap_or_else(|| panic!("unknown experiment {name}"));
    run(fidelity, jobs)
}

/// **E11** — guaranteed delivery (paper §6 open problem): success rate of
/// messaging a constantly moving agent, naive locate-then-send vs.
/// tracker-mediated `send_via`, across mobility rates.
#[must_use]
pub fn delivery(fidelity: Fidelity, jobs: usize) -> Table {
    use agentrack_core::{ClientEvent, DirectoryClient};
    use agentrack_platform::{
        Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
    };
    use agentrack_sim::{DurationDist, SimDuration, Topology};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const NODES: u32 = 6;

    struct Mover {
        client: Box<dyn DirectoryClient>,
        residence: SimDuration,
        received: Arc<AtomicU64>,
    }
    impl Agent for Mover {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            self.client.register(ctx);
            ctx.set_timer(self.residence);
        }
        fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
            self.client.moved(ctx);
            ctx.set_timer(self.residence);
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
            if self.client.on_timer(ctx, timer) == ClientEvent::NotMine {
                let next = NodeId::new((ctx.node().raw() + 1) % NODES);
                ctx.dispatch(next);
            }
        }
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            match self.client.on_message(ctx, from, payload) {
                ClientEvent::Mail { .. } => {
                    self.received.fetch_add(1, Ordering::Relaxed);
                }
                ClientEvent::NotMine if payload.decode::<String>().is_ok() => {
                    self.received.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
        fn on_delivery_failed(
            &mut self,
            ctx: &mut AgentCtx<'_>,
            to: AgentId,
            node: NodeId,
            payload: &Payload,
        ) {
            let _ = self.client.on_delivery_failed(ctx, to, node, payload);
        }
    }

    struct Poster {
        client: Box<dyn DirectoryClient>,
        target: AgentId,
        mediated: bool,
        remaining: u32,
        token: u64,
        tick: Option<TimerId>,
    }
    impl Agent for Poster {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            self.tick = Some(ctx.set_timer(SimDuration::from_millis(40)));
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
            if self.tick == Some(timer) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    if self.mediated {
                        self.client.send_via(ctx, self.target, vec![1]);
                    } else {
                        self.token += 1;
                        self.client.locate(ctx, self.target, self.token);
                    }
                    self.tick = Some(ctx.set_timer(SimDuration::from_millis(40)));
                }
                return;
            }
            let _ = self.client.on_timer(ctx, timer);
        }
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            if let ClientEvent::Located { target, node, .. } =
                self.client.on_message(ctx, from, payload)
            {
                ctx.send(target, node, Payload::encode(&"direct".to_owned()));
            }
        }
        fn on_delivery_failed(
            &mut self,
            ctx: &mut AgentCtx<'_>,
            to: AgentId,
            node: NodeId,
            payload: &Payload,
        ) {
            let _ = self.client.on_delivery_failed(ctx, to, node, payload);
        }
    }

    let count: u32 = match fidelity {
        Fidelity::Full => 200,
        Fidelity::Quick => 50,
    };
    let mut table = Table::new(
        "E11: delivery to a constantly moving agent (success %, N msgs)",
        &["residence_ms", "locate_then_send", "send_via"],
    );
    let residences = [20u64, 50, 200];
    // Cell grid is residence × {locate-then-send, send_via} (6 cells);
    // rows are reassembled per residence afterwards.
    let cells: Vec<Cell> = residences
        .into_iter()
        .flat_map(|residence_ms| {
            [false, true].into_iter().map(move |mediated| {
                Box::new(move || {
                    let topology =
                        Topology::lan(NODES, DurationDist::Constant(SimDuration::from_micros(300)));
                    let mut platform =
                        SimPlatform::new(topology, PlatformConfig::default().with_seed(33));
                    let mut scheme = HashedScheme::new(LocationConfig::default());
                    scheme.bootstrap(&mut platform);
                    let received = Arc::new(AtomicU64::new(0));
                    let mover = platform.spawn(
                        Box::new(Mover {
                            client: scheme.make_client(),
                            residence: SimDuration::from_millis(residence_ms),
                            received: received.clone(),
                        }),
                        NodeId::new(1),
                    );
                    platform.spawn(
                        Box::new(Poster {
                            client: scheme.make_client(),
                            target: mover,
                            mediated,
                            remaining: count,
                            token: 0,
                            tick: None,
                        }),
                        NodeId::new(0),
                    );
                    platform.run_for(SimDuration::from_secs_f64(0.04 * f64::from(count) + 15.0));
                    let got = received.load(Ordering::Relaxed);
                    vec![format!("{:.1}%", 100.0 * got as f64 / f64::from(count))]
                }) as Cell
            })
        })
        .collect();
    let results = run_cells(cells, jobs);
    for (r, residence_ms) in residences.into_iter().enumerate() {
        table.push_row(vec![
            residence_ms.to_string(),
            results[r * 2][0].clone(),
            results[r * 2 + 1][0].clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_aligns_and_csvs() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        let rendered = t.render();
        assert!(rendered.contains("== demo =="));
        assert!(rendered.contains("a  bb"));
        assert_eq!(t.to_csv(), "a,bb\n1,2\n");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_is_checked() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn every_experiment_has_exactly_one_path() {
        for name in EXPERIMENTS {
            assert_ne!(
                embedded_spec(name).is_some(),
                hand_coded(name).is_some(),
                "{name}: needs a spec or a function, never both"
            );
        }
        for source in SPECS {
            let name = ScenarioSpec::load_str(source).expect("embedded spec").name;
            assert!(
                EXPERIMENTS.contains(&name.as_str()),
                "{name}: not in EXPERIMENTS"
            );
        }
    }
}
