//! Durability and recovery integration tests: buddy replication restoring
//! crashed trackers' records, epoch-fenced recovery converging under the
//! post-quiesce invariant audit, restart accounting for lost soft state,
//! and the locate answer-vs-timeout race (a stale retry timer must not
//! burn budget for a completed locate).

use agentrack::core::{CentralizedScheme, DirectoryClient, HashedScheme, LocationConfig};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{
    DurationDist, FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime, Topology, TraceEvent,
    TraceSink,
};
use agentrack::workload::{
    AuditOptions, Metrics, QuerierBehavior, RunOptions, Scenario, TargetSelector, Targets,
};

/// Crashes `nodes` at `at` with soft-state loss, restarting each 500 ms
/// later.
fn crash_plan(nodes: &[u32], at: SimDuration) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &node in nodes {
        plan.push(FaultEvent {
            at: SimTime::ZERO + at,
            kind: FaultKind::NodeCrash {
                node: NodeId::new(node),
                lose_soft_state: true,
                restart_at: Some(SimTime::ZERO + at + SimDuration::from_millis(500)),
            },
        });
    }
    plan
}

fn replicated_config() -> LocationConfig {
    LocationConfig::default()
        .with_version_audit(SimDuration::from_secs(1))
        .with_replication(SimDuration::from_millis(250))
}

/// Run options for a strict-versions post-quiesce audit.
fn audited() -> RunOptions {
    RunOptions::new().with_audit(AuditOptions {
        strict_versions: true,
    })
}

fn recovery_scenario(seed: u64) -> Scenario {
    let mut scenario = Scenario::new(format!("recovery-{seed}"))
        .with_agents(24)
        .with_residence_ms(400)
        .with_queries(120)
        .with_seconds(6.0, 4.0)
        .with_seed(seed)
        .with_faults(crash_plan(&[0, 1], SimDuration::from_secs(4)));
    scenario.nodes = 8;
    scenario.queriers = 8;
    scenario
}

/// Crashing both low-index nodes (the initial tracker's home and the
/// first split target) with soft-state loss must put at least two IAgents
/// through epoch-fenced recovery, and the audit must come back clean:
/// every reachable agent locatable, single ownership intact, every
/// recovery finished.
#[test]
fn replicated_hashed_recovers_from_double_tracker_crash() {
    let scenario = recovery_scenario(11);
    let sink = TraceSink::bounded(500_000);
    let mut scheme = HashedScheme::new(replicated_config()).with_standby();
    let out = scenario.run_with(&mut scheme, audited().with_sink(sink.clone()));
    let (report, invariants) = (out.report, out.invariants.expect("audit was requested"));
    assert!(
        invariants.ok(),
        "invariant violations after recovery: {:?}",
        invariants.violations
    );
    assert!(
        invariants.recoveries_started >= 2,
        "expected at least two trackers to enter recovery, got {}",
        invariants.recoveries_started
    );
    assert_eq!(
        invariants.recoveries_started, invariants.recoveries_completed,
        "a recovery never finished"
    );
    assert!(
        report.record_syncs > 0,
        "replication never shipped a batch before the crash"
    );
    let starts = sink
        .snapshot()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RecoveryStart { .. }))
        .count();
    assert!(
        starts >= 2,
        "expected at least two RecoveryStart trace events, got {starts}"
    );
}

/// The replication and recovery paths are deterministic: the same seed
/// replays the identical trace, RecordSync batches and all.
#[test]
fn replicated_recovery_replays_the_identical_trace() {
    let mut runs = Vec::new();
    for _ in 0..2 {
        let scenario = recovery_scenario(23);
        let sink = TraceSink::bounded(500_000);
        let mut scheme = HashedScheme::new(replicated_config()).with_standby();
        let _ = scenario.run_with(&mut scheme, audited().with_sink(sink.clone()));
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
    let syncs = a
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RecordSync { .. }))
        .count();
    assert!(syncs > 0, "the replayed runs never replicated anything");
}

/// Once every epoch-fenced recovery has converged, the replica sets must
/// be reconverged too: the post-quiesce probes (issued with no freshness
/// bound) are answered authoritatively, never `stale: true`. Pins the
/// recovery machine clearing `stale_records` on convergence — a
/// regression here would let a healed tracker keep serving degraded
/// answers forever.
#[test]
fn no_stale_answers_after_replica_reconvergence() {
    // Freshness-bounded queriers make the degraded path reachable
    // during the outage without changing what the probes assert after.
    let mut scenario = recovery_scenario(31);
    scenario = scenario.with_freshness(agentrack::core::Freshness::BoundedMs(2000));
    let mut scheme = HashedScheme::new(replicated_config()).with_standby();
    let invariants = scenario
        .run_with(&mut scheme, audited())
        .invariants
        .expect("audit was requested");
    assert!(
        invariants.ok(),
        "invariant violations after recovery: {:?}",
        invariants.violations
    );
    assert!(
        invariants.recoveries_started >= 1,
        "the crash never put a tracker through recovery; the test is vacuous"
    );
    assert_eq!(
        invariants.recoveries_started, invariants.recoveries_completed,
        "a recovery never finished"
    );
    assert_eq!(
        invariants.probe_stale, 0,
        "post-quiesce probes were answered stale after every recovery converged"
    );
}

/// Drives a scheme client by script: registers on create, optionally
/// sends one piece of guaranteed-delivery mail at a scheduled time.
struct ScriptedClient {
    client: Box<dyn DirectoryClient>,
    mail_to: Option<(AgentId, SimDuration)>,
    mail_timer: Option<TimerId>,
}

impl Agent for ScriptedClient {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        if let Some((_, at)) = self.mail_to {
            self.mail_timer = Some(ctx.set_timer(at));
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.mail_timer == Some(timer) {
            self.mail_timer = None;
            let target = self.mail_to.expect("mail timer without mail").0;
            self.client.send_via(ctx, target, vec![0xAB]);
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let _ = self.client.on_message(ctx, from, payload);
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

impl std::fmt::Debug for ScriptedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedClient").finish_non_exhaustive()
    }
}

/// A tracker restart with `lost_soft_state = true` must account for what
/// died with it: buffered mail is counted into `mail_lost` (with a
/// `MailExpired` trace long before the mailbox TTL), the record set is
/// cleared (a pre-crash locate succeeds, a post-restart one fails and
/// charges `giveup_negative` on the tracker), and the records gauge reads
/// zero once refreshed.
#[test]
fn soft_state_loss_restart_accounts_mail_and_clears_records() {
    use agentrack::core::LocationScheme;
    let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(5));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    // Crash the tracker's node (node 0 hosts the initial IAgent and the
    // HAgent) at 2 s; restart 100 ms later with soft state gone. No
    // replication: this test pins the bare accounting path.
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: SimTime::ZERO + SimDuration::from_secs(2),
        kind: FaultKind::NodeCrash {
            node: NodeId::new(0),
            lose_soft_state: true,
            restart_at: Some(SimTime::ZERO + SimDuration::from_millis(2100)),
        },
    });
    platform.set_fault_plan(&plan);

    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    // A registered agent whose record the crash wipes, and who also
    // buffers one piece of mail for a never-registered phantom at t = 1 s.
    let phantom = AgentId::new(0xFA_47_03);
    let registered = platform.spawn(
        Box::new(ScriptedClient {
            client: scheme.make_client(),
            mail_to: Some((phantom, SimDuration::from_secs(1))),
            mail_timer: None,
        }),
        NodeId::new(1),
    );

    // One locate before the crash (must succeed) and one after the
    // restart (must exhaust its retries on NotFound answers).
    let before = Metrics::new();
    let after = Metrics::new();
    for (first_at, metrics) in [
        (SimDuration::from_millis(1000), &before),
        (SimDuration::from_millis(4000), &after),
    ] {
        let querier = QuerierBehavior::new(
            scheme.make_client(),
            Targets::Fixed(vec![registered]),
            TargetSelector::Uniform,
            first_at,
            DurationDist::Constant(SimDuration::from_millis(100)),
            1,
            metrics.clone(),
        );
        platform.spawn(Box::new(querier), NodeId::new(1));
    }
    // 8 attempts x 800 ms retry after t = 4 s all resolve well within 16 s.
    platform.run_for(SimDuration::from_secs(16));

    assert_eq!(
        before.with(|m| (m.locate_times.len(), m.locate_failures)),
        (1, 0),
        "the pre-crash locate must succeed"
    );
    assert_eq!(
        after.with(|m| (m.locate_times.len(), m.locate_failures)),
        (0, 1),
        "the post-restart locate must fail: the record died with the node"
    );

    let snapshot = scheme.shared().tracker_rows();
    let (mail_lost, giveup_negative, records_held) =
        snapshot
            .trackers
            .iter()
            .fold((0u64, 0u64, 0u64), |(lost, neg, held), (_, t)| {
                (
                    lost + t.mail_lost,
                    neg + t.giveup_negative,
                    held + t.records_held as u64,
                )
            });
    assert_eq!(mail_lost, 1, "the buffered mail must be counted as lost");
    assert_eq!(
        giveup_negative, 1,
        "the failed locate must charge giveup_negative on the tracker"
    );
    assert_eq!(
        records_held, 0,
        "the records gauge must read zero after the wipe (nobody re-registered)"
    );

    // The loss was accounted at restart (t = 2.1 s), not by TTL expiry
    // (which would have been at t = 11 s).
    let expiries: Vec<SimTime> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MailExpired { .. } => Some(r.at),
            _ => None,
        })
        .collect();
    assert_eq!(expiries.len(), 1, "exactly one expiry sweep expected");
    assert!(
        expiries[0] < SimTime::ZERO + SimDuration::from_secs(3),
        "mail loss must be accounted at restart, not at TTL expiry"
    );
}

/// The answer-vs-timeout race: retry timers that outlive their locate
/// (the answer arrived first) must be inert. With the retry timeout far
/// below the round-trip time, several retries fire before the first
/// answer lands — and once it does, the stale timers still queued must
/// not burn budget, give up, or complete the locate twice.
#[test]
fn stale_retry_timer_does_not_double_burn_a_completed_locate() {
    // 2 ms one-way latency against a 1 ms retry timeout: every locate's
    // answer loses the race with at least one retry timer.
    let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_millis(2)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(17));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    let config = LocationConfig {
        locate_retry_timeout: SimDuration::from_millis(1),
        max_locate_attempts: 20,
        ..LocationConfig::default()
    };
    let mut scheme = CentralizedScheme::new(config);
    use agentrack::core::LocationScheme;
    scheme.bootstrap(&mut platform);

    let registered = platform.spawn(
        Box::new(ScriptedClient {
            client: scheme.make_client(),
            mail_to: None,
            mail_timer: None,
        }),
        NodeId::new(1),
    );
    let metrics = Metrics::new();
    let querier = QuerierBehavior::new(
        scheme.make_client(),
        Targets::Fixed(vec![registered]),
        TargetSelector::Uniform,
        SimDuration::from_millis(500),
        DurationDist::Constant(SimDuration::from_millis(100)),
        1,
        metrics.clone(),
    );
    // Node 1: the central tracker lives on node 0, so the locate crosses
    // the slow link both ways and the retry timer always wins the race.
    platform.spawn(Box::new(querier), NodeId::new(1));
    platform.run_for(SimDuration::from_secs(5));

    let (completed, failures) = metrics.with(|m| (m.locate_times.len(), m.locate_failures));
    assert_eq!(completed, 1, "the locate must complete exactly once");
    assert_eq!(
        failures, 0,
        "stale timers must not drive the locate to give up"
    );

    let records = sink.snapshot();
    let attempts = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RetryAttempt { .. }))
        .count();
    let give_ups = records
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RetryGiveUp { .. }))
        .count();
    assert!(
        attempts >= 1,
        "the race never happened: no retry fired before the answer"
    );
    assert_eq!(give_ups, 0, "no give-up may follow a completed locate");

    let snapshot = scheme.shared().tracker_rows();
    let (giveup_timeout, giveup_negative) = snapshot
        .trackers
        .iter()
        .fold((0u64, 0u64), |(t0, n0), (_, t)| {
            (t0 + t.giveup_timeout, n0 + t.giveup_negative)
        });
    assert_eq!(
        (giveup_timeout, giveup_negative),
        (0, 0),
        "no tracker may be charged a give-up for a completed locate"
    );
}
