//! The four workloads: their fixed parameters, how each is run untraced
//! (end-to-end metrics) and traced (per-layer metrics), and how raw
//! outcomes become named metrics.

use std::fmt::Write as _;
use std::fs;

use agentrack_trace_analysis::Phase;

use crate::live::{
    histogram_delta_us, in_flight_locates, run_live, LiveOutcome, LiveSpec, SchemeKind,
};
use crate::probes::run_probes;
use crate::report::{phase_metric, workload_named, Metrics, RunResult};
use crate::simrun::{run_sim, Rep, SimOutcome, FULL, QUICK};
use crate::stats::{median, percentile};

const STEADY: LiveSpec = LiveSpec {
    scheme: SchemeKind::Hashed,
    agents: 100_000,
    residence_ms: None,
    // The default (50 msg/s) is calibrated for the simulator's 1 ms
    // handlers; live handlers cost microseconds and the default tree
    // would never stop splitting.
    t_max: 2000.0,
    freeze: true,
};

const MOVE_MIX: LiveSpec = LiveSpec {
    agents: 20_000,
    residence_ms: Some(1000),
    ..STEADY
};

const REHASH_CHURN: LiveSpec = LiveSpec {
    agents: 20_000,
    t_max: 150.0,
    freeze: false,
    ..STEADY
};

/// The control for `live_locate_steady`: same load, one tracker, no hash
/// tree, LHAgent or HAgent in the path.
const CENTRAL_CONTROL: LiveSpec = LiveSpec {
    scheme: SchemeKind::Centralized,
    freeze: false,
    ..STEADY
};

/// Where the traced run leaves its spans.
const TRACE_DIR: &str = "benchmark/out";

fn live_spec(workload: &str, quick: bool) -> Option<LiveSpec> {
    let spec = match workload {
        "live_locate_steady" => STEADY,
        "live_move_mix" => MOVE_MIX,
        "live_rehash_churn" => REHASH_CHURN,
        _ => return None,
    };
    Some(LiveSpec {
        agents: if quick { spec.agents / 10 } else { spec.agents },
        ..spec
    })
}

/// Runs one workload once. `quick` is the smoke test: populations a tenth
/// the size, one set-up, and no layer probes beside the traced run (the
/// caller takes them once). The gated numbers never use it.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
) -> Result<RunResult, String> {
    let name = workload_named(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let probes = || {
        if quick {
            Metrics::default()
        } else {
            run_probes()
        }
    };
    let result = match live_spec(name, quick) {
        Some(spec) if traced => live_traced(name, &spec, seed, seconds, probes())?,
        Some(spec) => {
            let outcome = run_live(&spec, seed, seconds, false, !quick)?;
            live_result(name, &outcome, false, end_to_end_of_live(&outcome))
        }
        None => {
            let spec = if quick { QUICK } else { FULL };
            let outcome = run_sim(&spec, seed, seconds, traced);
            sim_result(name, &outcome, traced.then(probes))?
        }
    };
    Ok(result)
}

fn live_result(
    workload: &'static str,
    outcome: &LiveOutcome,
    traced: bool,
    metrics: Metrics,
) -> RunResult {
    RunResult {
        workload,
        traced,
        attempted: outcome.attempted(),
        failed: outcome.failed(),
        violations: outcome.violations.clone(),
        metrics,
    }
}

fn end_to_end_of_live(o: &LiveOutcome) -> Metrics {
    let mut m = Metrics::default();
    m.set("locate_per_s", o.locate_per_s());
    m.set("locate_mean_us", o.mean_latency_us());
    m.set("cpu_us_per_locate", o.cpu_secs * 1e6 / o.ok.max(1) as f64);
    m.set("rss_mb", o.rss_mib);
    m.set("setup_s", median(&o.setup_secs));
    m
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run of a live workload: an untraced reference arm, the
/// traced arm, the layer probes and (for the steady workload) the
/// centralized control, all in one process so they share the machine's
/// mood.
fn live_traced(
    workload: &'static str,
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    probes: Metrics,
) -> Result<RunResult, String> {
    let reference = run_live(spec, seed, seconds, false, false)?;
    let o = run_live(spec, seed, seconds, true, false)?;
    let mut m = probes;

    let locates = o.ok.max(1);
    m.set(
        "core.msgs_per_locate",
        o.platform.messages_sent as f64 / locates as f64,
    );
    m.set("core.stale_hit_share", share(o.scheme.stale_hits, locates));
    m.set("core.stale_answer_share", share(o.one_behind, locates));
    m.set("core.splits", o.scheme.splits as f64);
    m.set("core.merges", o.scheme.merges as f64);
    m.set("core.rehash_denied", o.scheme.rehash_denied as f64);
    m.set("core.handoff_records", o.scheme.records_handed_off as f64);
    m.set("core.hf_fetches", o.scheme.hf_fetches as f64);
    m.set("core.trackers_end", o.scheme.trackers as f64);
    m.set("platform.msgs_failed", o.platform.messages_failed as f64);
    m.set("platform.queue_depth_max", o.queue_depth_max as f64);
    m.set(
        "platform.route_cache_hit_share",
        share(o.registry_hits, o.registry_hits + o.registry_misses),
    );
    if let Some((before, after)) = &o.telemetry {
        let us =
            |pick: fn(&agentrack_platform::TelemetrySnapshot) -> &agentrack_sim::LogHistogram,
             p: f64| histogram_delta_us(pick(before), pick(after), p);
        m.set("platform.deliver_p50_us", us(|s| &s.deliver_ns, 50.0));
        m.set("platform.deliver_p99_us", us(|s| &s.deliver_ns, 99.0));
        m.set("platform.move_p50_us", us(|s| &s.move_ns, 50.0));
        m.set("platform.timer_lag_p50_us", us(|s| &s.timer_lag_ns, 50.0));
    }
    m.set(
        "client.resolve_leg_p50_us",
        percentile(&o.resolve_leg_ns, 50.0) / 1e3,
    );
    m.set(
        "client.query_leg_p50_us",
        percentile(&o.query_leg_ns, 50.0) / 1e3,
    );
    m.set("client.retry_share", share(o.retries, locates));
    // The typical locate as the untraced arm saw it, next to the tail and
    // the legs of the traced one.
    m.set("client.locate_p50_us", reference.latency_us(50.0));
    m.set("client.locate_p90_us", reference.latency_us(90.0));
    m.set("client.locate_p99_us", o.tail_latency_us(99.0));
    m.set("client.locate_p999_us", o.tail_latency_us(99.9));
    m.set("client.move_per_s", median(&o.move_rates));
    m.set("client.fail_share", share(o.failed(), o.attempted()));
    m.set("harness.subwindow_spread", o.subwindow_spread());
    m.set(
        "harness.trace_overhead_share",
        1.0 - o.locate_per_s() / reference.locate_per_s(),
    );
    m.set(
        "harness.ledger_unattributed_share",
        unattributed_share(&m, &o),
    );

    let mut violations = reference.violations.clone();
    if workload == "live_locate_steady" {
        let control_spec = LiveSpec {
            agents: spec.agents,
            ..CENTRAL_CONTROL
        };
        let control = run_live(&control_spec, seed, (seconds / 3.0).max(1.0), false, false)?;
        m.set("core.central_locate_per_s", control.locate_per_s());
        violations.extend(control.violations);
    }

    write_live_trace(workload, &o)?;
    let mut result = live_result(workload, &o, true, m);
    result.attempted += reference.attempted();
    result.failed += reference.failed();
    result.violations.extend(violations);
    Ok(result)
}

/// One minus the share of a locate's CPU time the probes account for:
/// every message of the locate at the price of a same-thread hop, the two
/// service handlers, the client's two encodes and two decodes, and per
/// move one `Update` encoded and handled. What is left — queue
/// management, timers, migration, cache misses under real interleaving —
/// is what only tracing inside the program can explain.
fn unattributed_share(probes: &Metrics, o: &LiveOutcome) -> f64 {
    let ns = |name: &str| probes.get(name).unwrap_or(0.0);
    let locates = o.ok.max(1) as f64;
    let moves_per_locate = o.platform.migrations as f64 / locates;
    let attributed_ns = o.platform.messages_sent as f64 / locates * ns("platform.local_hop_ns")
        + ns("core.lhagent_resolve_ns")
        + ns("core.iagent_locate_ns")
        + 2.0 * (ns("core.wire_locate_encode_ns") + ns("core.wire_locate_decode_ns"))
        + moves_per_locate * (ns("core.iagent_update_ns") + ns("core.wire_locate_encode_ns"));
    1.0 - attributed_ns / (o.cpu_secs * 1e9 / locates)
}

fn write_trace(workload: &str, body: &str) -> Result<(), String> {
    let path = format!("{TRACE_DIR}/trace_{workload}.json");
    fs::create_dir_all(TRACE_DIR)
        .and_then(|()| fs::write(&path, body))
        .map_err(|e| format!("cannot write {path}: {e}"))
}

/// Writes the prober-side spans. The legs of one locate share its trace
/// id, name `locate` as their parent, and tile it exactly.
fn write_live_trace(workload: &str, o: &LiveOutcome) -> Result<(), String> {
    let mut body = format!(
        "{{\"workload\": \"{workload}\", \"in_flight\": {}, \"unit\": \"ns since run start\", \"spans\": [\n",
        in_flight_locates()
    );
    for (i, span) in o.spans.iter().enumerate() {
        let parent = if span.name == "locate" {
            "null"
        } else {
            "\"locate\""
        };
        let sep = if i + 1 == o.spans.len() { "" } else { "," };
        writeln!(
            body,
            "{{\"trace\": {}, \"span\": \"{}\", \"parent\": {parent}, \"start\": {}, \"end\": {}}}{sep}",
            span.trace, span.name, span.start_ns, span.end_ns
        )
        .expect("write to string");
    }
    body.push_str("]}\n");
    write_trace(workload, &body)
}

fn sim_result(
    workload: &'static str,
    o: &SimOutcome,
    probes: Option<Metrics>,
) -> Result<RunResult, String> {
    let traced = probes.is_some();
    let mut m = probes.unwrap_or_default();
    if let Some((rep, trace)) = &o.traced {
        let r = &rep.report;
        let locates = r.locates_completed.max(1);
        let kind = |k: &str| rep.by_kind.get(k).copied().unwrap_or_default();
        let locate_msgs: u64 = [
            "Resolve",
            "ResolveFresh",
            "Resolved",
            "Locate",
            "Located",
            "NotFound",
            "NotResponsible",
        ]
        .iter()
        .map(|k| kind(k).msgs)
        .sum();
        m.set("core.msgs_per_locate", locate_msgs as f64 / locates as f64);
        m.set("core.stale_hit_share", share(r.stale_hits, locates));
        m.set("core.splits", r.splits as f64);
        m.set("core.merges", r.merges as f64);
        m.set("core.rehash_denied", rep.scheme.rehash_denied as f64);
        m.set("core.handoff_records", r.records_handed_off as f64);
        m.set("core.hf_fetches", r.hf_fetches as f64);
        m.set("core.trackers_end", r.trackers as f64);
        m.set("core.msgs_install", kind("InstallHashFn").msgs as f64);
        m.set("core.bytes_install", kind("InstallHashFn").bytes as f64);
        m.set("core.msgs_handoff", kind("Handoff").msgs as f64);
        m.set("sim.msgs_sent", r.messages_sent as f64);
        m.set("sim.msgs_per_s", o.rep.msgs_per_s());
        m.set("sim.locate_wall_p50_us", o.rep.locate_wall_us(50.0));
        m.set("sim.locate_wall_p90_us", o.rep.locate_wall_us(90.0));
        m.set("workload.sim_wall_s", o.rep.wall_secs);
        m.set("workload.sim_splits", r.splits as f64);
        m.set("workload.sim_trackers", r.trackers as f64);
        m.set("workload.sim_locate_ms", r.mean_locate_ms);
        m.set("trace.build_spans_ms", trace.build_spans_ms);
        for phase in Phase::ALL {
            m.set(&phase_metric(phase), trace.attribution.share(phase));
        }
        m.set("client.fail_share", share(o.failed(), o.attempted()));
        m.set(
            "harness.trace_overhead_share",
            1.0 - o.rep.scenario_wall_secs / rep.scenario_wall_secs,
        );
        write_sim_trace(workload, rep, trace.trace_dropped, &trace.attribution)?;
    } else {
        let locates = o.rep.report.locates_completed.max(1);
        m.set("locate_per_s", o.rep.locate_per_s());
        m.set("locate_mean_us", o.rep.report.mean_locate_ms * 1e3);
        m.set("cpu_us_per_locate", o.rep.cpu_secs * 1e6 / locates as f64);
        m.set("rss_mb", o.rss_mib);
        m.set("setup_s", median(&o.setup_secs));
    }
    let mut violations = o.violations.clone();
    // The tree this workload exists to exercise: the full-size scenario
    // must have grown one.
    let grown = o.rep.report.trackers;
    if o.rep.report.agents >= FULL.agents && grown < 200 {
        violations.push(format!(
            "only {grown} IAgents: the scenario no longer stresses the tree"
        ));
    }
    Ok(RunResult {
        workload,
        traced,
        attempted: o.attempted(),
        failed: o.failed(),
        violations,
        metrics: m,
    })
}

/// Writes what the traced simulator run saw: messages and bytes per wire
/// variant, and the phase attribution of the locates still in the ring.
fn write_sim_trace(
    workload: &str,
    rep: &Rep,
    dropped: u64,
    attribution: &agentrack_trace_analysis::Attribution,
) -> Result<(), String> {
    let mut body = format!(
        "{{\"workload\": \"{workload}\", \"trace_records_dropped\": {dropped}, \"locates_attributed\": {}, \"mean_locate_ms\": {}, \"phases_ms\": {{",
        attribution.count(),
        attribution.mean_total_ms()
    );
    for (i, phase) in Phase::ALL.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{}\": {}",
            phase.name(),
            attribution.mean_ms(*phase)
        )
        .expect("write to string");
    }
    body.push_str("}, \"wire\": {");
    for (i, (kind, tally)) in rep.by_kind.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{kind}\": {{\"msgs\": {}, \"bytes\": {}}}",
            tally.msgs, tally.bytes
        )
        .expect("write to string");
    }
    body.push_str("}}\n");
    write_trace(workload, &body)
}
