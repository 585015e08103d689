//! The simulator workload: `Scenario::run_with` on the paper's cost model,
//! timed from outside. A message tracer stamps the wall clock against the
//! simulated one every `STAMP_MSGS` messages, which is the only view into
//! a run that `run_with` executes in one call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use agentrack_core::{HashedScheme, LocationConfig, LocationScheme, SchemeStats, Wire};
use agentrack_platform::{MsgTrace, TraceSink};
use agentrack_sim::{SimDuration, SimTime};
use agentrack_trace_analysis::{build_spans, Attribution};
use agentrack_workload::{AuditOptions, InvariantReport, RunOptions, Scenario, ScenarioReport};

use crate::stats::{subwindow_percentile, SUBWINDOWS};
use crate::sys;

/// Messages between two clock stamps: ≈ 3 simulated ms at this
/// scenario's message rate, finer than the ≈ 4.6 ms a locate lasts.
const STAMP_MSGS: u64 = 32;
/// Registration-only runs per benchmark run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Newest trace records kept for span building. `build_spans` rescans the
/// whole record list once per locate, so the ring bounds its cost.
const TRACE_RING: usize = 65_536;

/// Simulated seconds measured per second of `--seconds`: 60 (and 50 000
/// locates) for the 15 of `BENCHMARK.json`, which cost this box ≈ 4 s after
/// the ≈ 12 s the tree takes to grow, so one rep lasts about as long as the
/// window asked for. Four times as many bought nothing: the steady state is
/// bound by memory latency, which on a shared host swings by a third within
/// seconds, and ten runs that were mostly steady state spread no narrower
/// (8–20 % in `locate_per_s`) than ten that are mostly tree growth (7–17 %).
/// A scale fixed in simulated time keeps the inputs a function of the seed
/// and the window alone.
const SIM_SECS_PER_SECOND: f64 = 4.0;

/// Size of the simulated experiment. The measured span is not part of it:
/// it follows the window the run was asked to measure for.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    pub agents: usize,
    pub warmup_s: f64,
    /// Locates issued per measured simulated second.
    pub queries_per_s: f64,
}

/// The gated size: 2 500 agents at 500 ms residence need ≈ 230 IAgents
/// under the default thresholds. Growing that tree is most of the wall
/// time and nearly over after 20 simulated seconds; the measured span
/// that follows is the steady state the sampled locates see.
pub const FULL: SimSpec = SimSpec {
    agents: 2500,
    warmup_s: 20.0,
    queries_per_s: 833.0,
};

/// The smoke-test size for `--quick`.
pub const QUICK: SimSpec = SimSpec {
    agents: 300,
    warmup_s: 4.0,
    queries_per_s: 500.0,
};

impl SimSpec {
    /// The scenario whose rep takes `seconds` of wall time, roughly. It
    /// keeps the default grace of 10 simulated seconds: the queriers jitter
    /// their pace, and the longer the span, the later after its end the
    /// slowest issues its last locates (over 240 s, more than 2 s after).
    fn scenario(&self, seed: u64, seconds: f64) -> Scenario {
        let measure_s = seconds * SIM_SECS_PER_SECOND;
        Scenario::new("sim_scale")
            .with_agents(self.agents)
            .with_queries((measure_s * self.queries_per_s).round() as u64)
            .with_seconds(self.warmup_s, measure_s)
            .with_seed(seed)
    }

    /// Bootstrap plus two simulated seconds: the population spawns over
    /// the first and the last `Registered` lands well inside the second.
    /// The set-up a user of the simulator waits for before a workload runs;
    /// the tree already grows under it, as it does under any registration.
    fn registration_only(&self, seed: u64) -> Scenario {
        let mut scenario = self.scenario(seed, 0.0).with_seconds(2.0, 0.0);
        scenario.grace = SimDuration::ZERO;
        scenario
    }
}

/// Count and payload bytes of one `Wire` variant, as the tracer saw them.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindTally {
    pub msgs: u64,
    pub bytes: u64,
}

#[derive(Default)]
struct TracerState {
    seen: u64,
    /// Wall and simulated time at every `STAMP_MSGS`-th message.
    stamps: Vec<(Instant, SimTime)>,
    by_kind: BTreeMap<&'static str, KindTally>,
}

/// One timed `run_with`.
pub struct Rep {
    /// Wall seconds of the whole `run_with` call, audit included.
    pub wall_secs: f64,
    /// Wall seconds until the scenario's last simulated instant, before
    /// any audit: what a traced and an untraced rep can be compared on.
    pub scenario_wall_secs: f64,
    pub cpu_secs: f64,
    /// Messages the tracer saw, delivered or bounced, the audit's included.
    pub msgs_seen: u64,
    /// Wall µs that passed while the simulator carried each sampled locate
    /// from issue to answer: the locate's simulated interval mapped onto
    /// the wall clock through the tracer's stamps. A locate whose interval
    /// holds a hash-function fetch pays for decoding it. One ascending
    /// list per sub-window of the measured span, by time of issue.
    pub locate_wall_us: Vec<Vec<f64>>,
    pub report: ScenarioReport,
    /// The post-run audit; the traced rep skips it (see [`run_sim`]).
    pub invariants: Option<InvariantReport>,
    pub scheme: SchemeStats,
    pub by_kind: BTreeMap<&'static str, KindTally>,
}

impl Rep {
    pub fn msgs_per_s(&self) -> f64 {
        self.msgs_seen as f64 / self.wall_secs
    }

    pub fn locate_per_s(&self) -> f64 {
        self.report.locates_completed as f64 / self.wall_secs
    }

    /// The `p`-th percentile of the median sub-window, in wall µs.
    pub fn locate_wall_us(&self, p: f64) -> f64 {
        subwindow_percentile(&self.locate_wall_us, p)
    }

    fn attempted(&self) -> u64 {
        self.report.locates_issued + self.invariants.as_ref().map_or(0, |i| i.probed) as u64
    }

    fn failed(&self) -> u64 {
        (self.report.locates_issued - self.report.locates_completed)
            + self.invariants.as_ref().map_or(0, |i| i.probed - i.located) as u64
    }
}

/// What the traced rep adds.
pub struct SimTrace {
    pub build_spans_ms: f64,
    pub attribution: Attribution,
    pub trace_dropped: u64,
}

/// Raw results of one `sim_scale` run.
pub struct SimOutcome {
    pub setup_secs: Vec<f64>,
    /// The untraced rep, audited: what the end-to-end metrics come from.
    pub rep: Rep,
    pub traced: Option<(Rep, SimTrace)>,
    pub rss_mib: f64,
    pub violations: Vec<String>,
}

impl SimOutcome {
    fn reps(&self) -> impl Iterator<Item = &Rep> {
        std::iter::once(&self.rep).chain(self.traced.iter().map(|(rep, _)| rep))
    }

    pub fn attempted(&self) -> u64 {
        self.reps().map(Rep::attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.reps().map(Rep::failed).sum()
    }
}

/// Wall seconds after the first stamp at which the simulation reached
/// simulated time `t`, interpolated between the stamps around it.
fn wall_at(stamps: &[(Instant, SimTime)], t: SimTime) -> f64 {
    let origin = stamps[0].0;
    let secs = |i: usize| (stamps[i].0 - origin).as_secs_f64();
    let after = stamps.partition_point(|&(_, at)| at < t);
    if after == 0 {
        return 0.0;
    }
    if after == stamps.len() {
        return secs(after - 1);
    }
    let (t0, t1) = (stamps[after - 1].1, stamps[after].1);
    let span = t1.saturating_since(t0).as_nanos() as f64;
    let part = t.saturating_since(t0).as_nanos() as f64;
    secs(after - 1) + (secs(after) - secs(after - 1)) * part / span
}

/// Runs the scenario once. `sink` enabled means a traced rep: the tracer
/// then also decodes every payload to tally messages and bytes per kind,
/// and the invariant audit is left to the untraced rep — its 2 500 probe
/// locates, paced over two simulated minutes, would be all the ring holds.
fn run_rep(scenario: &Scenario, sink: &TraceSink) -> Rep {
    let state = Rc::new(RefCell::new(TracerState::default()));
    let tracer_state = Rc::clone(&state);
    let decode = sink.is_enabled();
    let tracer = Box::new(move |msg: MsgTrace<'_>| {
        let mut state = tracer_state.borrow_mut();
        state.seen += 1;
        if state.seen % STAMP_MSGS == 0 {
            state.stamps.push((Instant::now(), msg.now));
        }
        if decode {
            let kind = Wire::from_payload(msg.payload).map_or("other", |w| w.kind());
            let tally = state.by_kind.entry(kind).or_default();
            tally.msgs += 1;
            tally.bytes += msg.payload.len() as u64;
        }
    });
    let mut options = RunOptions::new()
        .with_tracer(tracer)
        .with_sink(sink.clone());
    if !decode {
        options = options.with_audit(AuditOptions::default());
    }
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let cpu_before = sys::process_cpu_secs();
    let began = Instant::now();
    let out = scenario.run_with(&mut scheme, options);
    let wall_secs = began.elapsed().as_secs_f64();
    let cpu_secs = sys::process_cpu_secs() - cpu_before;
    let state = state.take();
    let mut stamps = vec![(began, SimTime::ZERO)];
    stamps.extend(state.stamps);
    let measure_began = SimTime::ZERO + scenario.warmup;
    let sub_ns = (scenario.measure.as_nanos() / SUBWINDOWS as u64).max(1);
    let mut locate_wall_us = vec![Vec::new(); SUBWINDOWS];
    for &(issued, _, elapsed) in &out.samples {
        let sub = (issued.saturating_since(measure_began).as_nanos() / sub_ns) as usize;
        let wall = wall_at(&stamps, issued + elapsed) - wall_at(&stamps, issued);
        locate_wall_us[sub.min(SUBWINDOWS - 1)].push(wall * 1e6);
    }
    for sub in &mut locate_wall_us {
        sub.sort_by(f64::total_cmp);
    }
    let scenario_end = SimTime::ZERO + scenario.duration() + scenario.grace;
    Rep {
        wall_secs,
        scenario_wall_secs: wall_at(&stamps, scenario_end),
        cpu_secs,
        msgs_seen: state.seen,
        locate_wall_us,
        report: out.report,
        invariants: out.invariants,
        scheme: scheme.stats(),
        by_kind: state.by_kind,
    }
}

fn audit(rep: &Rep, violations: &mut Vec<String>) {
    let r = &rep.report;
    for v in rep.invariants.iter().flat_map(|i| &i.violations) {
        violations.push(format!("invariant audit: {v}"));
    }
    if r.locates_completed != r.locates_issued || r.locate_failures != 0 {
        violations.push(format!(
            "{} of {} locates completed, {} gave up",
            r.locates_completed, r.locates_issued, r.locate_failures
        ));
    }
    let sampled = rep.locate_wall_us.iter().map(Vec::len).min().unwrap_or(0);
    if sampled < 100 {
        violations.push(format!(
            "a sub-window holds only {sampled} sampled locates of {} completed",
            r.locates_completed
        ));
    }
}

/// Runs `sim_scale`: the set-up runs, then one untraced rep whose measured
/// span is sized to `seconds`, then (when `traced`) the same rep again with
/// the trace sink on. A rep is one deterministic piece of work — growing
/// the tree, then the measured span — so the window sizes the rep instead
/// of bounding a count of reps.
pub fn run_sim(spec: &SimSpec, seed: u64, seconds: f64, traced: bool) -> SimOutcome {
    let mut violations = Vec::new();
    let registration = spec.registration_only(seed);
    let setup_secs = (0..SETUP_REPEATS)
        .map(|_| {
            let mut scheme = HashedScheme::new(LocationConfig::default());
            let began = Instant::now();
            let out = registration.run_with(&mut scheme, RunOptions::new());
            let secs = began.elapsed().as_secs_f64();
            if out.report.registrations < spec.agents as u64 {
                violations.push(format!(
                    "set-up registered {} of {} agents",
                    out.report.registrations, spec.agents
                ));
            }
            secs
        })
        .collect();

    let scenario = spec.scenario(seed, seconds);
    let rep = run_rep(&scenario, &TraceSink::disabled());
    audit(&rep, &mut violations);

    let traced = traced.then(|| {
        let sink = TraceSink::bounded(TRACE_RING);
        let traced_rep = run_rep(&scenario, &sink);
        audit(&traced_rep, &mut violations);
        // Same seed, same inputs: both reps must have simulated the same
        // run, whether or not anybody watched; only the count of records
        // the ring dropped may differ.
        let watched = ScenarioReport {
            trace_dropped: rep.report.trace_dropped,
            ..traced_rep.report.clone()
        };
        if watched != rep.report {
            violations.push("the traced and the untraced rep produced different reports".into());
        }
        let records = sink.snapshot();
        let began = Instant::now();
        let trees = build_spans(&records);
        let build_spans_ms = began.elapsed().as_secs_f64() * 1e3;
        // The ring holds the end of the measured span. A locate whose first
        // records fell off it shows up as a truncated tree; anything
        // starting a simulated second after the oldest record is whole.
        let whole_from =
            records.first().map_or(SimTime::ZERO, |r| r.at) + SimDuration::from_secs(1);
        let mut attribution = Attribution::new();
        for tree in trees.iter().filter(|t| t.start >= whole_from) {
            attribution.record(&tree.breakdown());
        }
        (
            traced_rep,
            SimTrace {
                build_spans_ms,
                attribution,
                trace_dropped: sink.dropped(),
            },
        )
    });

    SimOutcome {
        setup_secs,
        rep,
        traced,
        rss_mib: sys::peak_rss_mib(),
        violations,
    }
}
