//! Deterministic chaos suite: every scheme runs under randomized but
//! seed-pinned fault plans (partitions, tracker crashes and restarts,
//! latency spikes, loss bursts, blackholes), and the post-quiesce
//! invariant audit must come back clean. A failing seed is perfectly
//! reproducible: the same seed replays the identical `TraceEvent`
//! sequence, which the last test pins.

use agentrack::core::{
    CentralizedScheme, ForwardingScheme, HashedScheme, HomeRegistryScheme, LocationConfig,
    LocationScheme,
};
use agentrack::sim::{ChaosConfig, SimDuration, TraceEvent, TraceSink};
use agentrack::workload::{AuditOptions, RunOptions, Scenario};

/// Pinned seeds: each generates a different fault plan (CI runs exactly
/// these, so a regression here is a regression there).
const SEEDS: &[u64] = &[11, 23, 47];

/// Fault intensity: ~4 scheduled faults per run, enough to hit crash,
/// partition, and loss paths across three seeds.
const INTENSITY: f64 = 0.7;

fn chaos_scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::new(format!("chaos-{seed}"))
        .with_agents(24)
        .with_residence_ms(400)
        .with_queries(120)
        .with_seconds(6.0, 4.0)
        .with_seed(seed);
    scenario.nodes = 8;
    scenario.queriers = 8;
    scenario.faults = ChaosConfig {
        seed,
        intensity: INTENSITY,
    }
    .generate(scenario.nodes, scenario.duration());
    assert!(!scenario.faults.is_empty(), "chaos plan came out empty");
    scenario
}

fn config() -> LocationConfig {
    // The periodic version audit makes the strict convergence check sound:
    // stale hash-function copies re-fetch within ~1 s of the heal.
    LocationConfig::default().with_version_audit(SimDuration::from_secs(1))
}

fn assert_chaos_clean(mut make: impl FnMut() -> Box<dyn LocationScheme>, strict_versions: bool) {
    for &seed in SEEDS {
        let scenario = chaos_scenario(seed);
        let mut scheme = make();
        let out = scenario.run_with(
            scheme.as_mut(),
            RunOptions::new().with_audit(AuditOptions { strict_versions }),
        );
        let (report, invariants) = (out.report, out.invariants.expect("audit was requested"));
        assert!(
            invariants.ok(),
            "seed {seed}, scheme {}: invariant violations {:?}",
            report.scheme,
            invariants.violations
        );
        assert!(
            report.locates_completed > 0,
            "seed {seed}, scheme {}: no locate completed under faults",
            report.scheme
        );
        assert!(
            invariants.probed > 0,
            "seed {seed}: the audit probed nothing — every agent unreachable?"
        );
    }
}

#[test]
fn hashed_with_standby_survives_chaos() {
    assert_chaos_clean(
        || Box::new(HashedScheme::new(config()).with_standby()),
        true,
    );
}

#[test]
fn centralized_survives_chaos() {
    assert_chaos_clean(|| Box::new(CentralizedScheme::new(config())), false);
}

#[test]
fn home_registry_survives_chaos() {
    assert_chaos_clean(|| Box::new(HomeRegistryScheme::new(config())), false);
}

#[test]
fn forwarding_survives_chaos() {
    // Locatability is not asserted for forwarding under faults (a severed
    // chain is unrecoverable by design); the remaining invariants are.
    assert_chaos_clean(|| Box::new(ForwardingScheme::new(config())), false);
}

/// The scheduled faults actually fire and are visible in the trace.
#[test]
fn fault_events_appear_in_the_trace() {
    let scenario = chaos_scenario(SEEDS[0]);
    let sink = TraceSink::bounded(500_000);
    let mut scheme = HashedScheme::new(config()).with_standby();
    let _ = scenario.run_with(&mut scheme, RunOptions::new().with_sink(sink.clone()));
    let records = sink.snapshot();
    let fault_records = records
        .iter()
        .filter(|r| {
            matches!(
                r.event,
                TraceEvent::PartitionStarted { .. }
                    | TraceEvent::PartitionHealed
                    | TraceEvent::NodeCrashed { .. }
                    | TraceEvent::NodeRestarted { .. }
                    | TraceEvent::FaultApplied { .. }
                    | TraceEvent::FaultCleared { .. }
            )
        })
        .count();
    assert!(
        fault_records > 0,
        "a non-empty fault plan left no fault events in the trace"
    );
}

/// Re-running a seed reproduces the identical trace: byte-for-byte the
/// same `TraceEvent` sequence, so any chaos failure can be replayed and
/// shrunk offline.
#[test]
fn same_seed_replays_the_identical_trace() {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let scenario = chaos_scenario(SEEDS[0]);
        let sink = TraceSink::bounded(500_000);
        let mut scheme = HashedScheme::new(config()).with_standby();
        let _ = scenario.run_with(&mut scheme, RunOptions::new().with_sink(sink.clone()));
        assert_eq!(sink.dropped(), 0, "trace buffer overflowed; raise the cap");
        runs.push(sink.snapshot());
    }
    let (a, b) = (&runs[0], &runs[1]);
    assert_eq!(a.len(), b.len(), "trace lengths diverged between replays");
    if let Some(i) = (0..a.len()).find(|&i| a[i] != b[i]) {
        panic!(
            "trace diverged at record {i}: first run {:?}, second run {:?}",
            a[i], b[i]
        );
    }
}
