//! Cross-crate integration tests: the full mechanism (hash tree + platform
//! + protocol agents) exercised end to end.

use std::sync::{Arc, Mutex};

use agentrack::core::{CopyRole, HashedScheme, LocationConfig, LocationScheme, Wire};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, Topology};
use agentrack::workload::{RunOptions, Scenario};

/// Drives synthetic tracker load: sends `Locate` requests for random
/// targets at a fixed rate for a while, then goes quiet. (The IAgent's
/// thresholds are about *request rate*, so driving them does not need real
/// mobile agents.)
struct Blaster {
    lhagent: AgentId,
    active_for: SimDuration,
    gap: SimDuration,
    started: Option<agentrack::sim::SimTime>,
    token: u64,
}

impl Agent for Blaster {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.started = Some(ctx.now());
        ctx.set_timer(self.gap);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        let started = self.started.expect("set in on_create");
        if ctx.now().saturating_since(started) > self.active_for {
            return; // burst over: go silent
        }
        // Phase 1 of a locate: resolve a pseudo-random target through the
        // local LHAgent, then (in on_message) query the IAgent it names.
        self.token += 1;
        let target = AgentId::new(10_000 + self.token % 64);
        let here = ctx.node();
        ctx.send(
            self.lhagent,
            here,
            Wire::Resolve {
                target,
                token: Some(self.token),
                corr: None,
            }
            .payload(),
        );
        ctx.set_timer(self.gap);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        if let Some(Wire::Resolved {
            target,
            iagent,
            node,
            token: Some(token),
            ..
        }) = Wire::from_payload(payload)
        {
            let here = ctx.node();
            ctx.send(
                iagent,
                node,
                Wire::Locate {
                    target,
                    token,
                    reply_node: here,
                    corr: None,
                    freshness: Default::default(),
                }
                .payload(),
            );
        }
    }
}

/// Bootstraps the hashed scheme on a 4-node LAN and spawns one blaster
/// per node: 4 × 100 req/s for 8 seconds, way over `T_max` = 50/s.
fn blasted_hashed_scheme() -> (SimPlatform, HashedScheme) {
    let topology = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(3));
    let config = LocationConfig {
        merge_warmup: SimDuration::from_secs(2),
        ..LocationConfig::default()
    };
    let mut scheme = HashedScheme::new(config);
    scheme.bootstrap(&mut platform);

    let lhagents = scheme.lhagents();
    for node in 0..4u32 {
        platform.spawn(
            Box::new(Blaster {
                lhagent: lhagents[node as usize],
                active_for: SimDuration::from_secs(8),
                gap: SimDuration::from_millis(10),
                started: None,
                token: u64::from(node) * 1_000_000,
            }),
            NodeId::new(node),
        );
    }
    (platform, scheme)
}

/// The adaptivity cycle the paper describes: load above `T_max` grows the
/// tree; load vanishing below `T_min` shrinks it back.
#[test]
fn tree_grows_under_load_and_shrinks_when_it_stops() {
    let (mut platform, scheme) = blasted_hashed_scheme();

    platform.run_for(SimDuration::from_secs(10));
    let mid = scheme.stats();
    assert!(mid.splits >= 2, "load must grow the tree: {mid:?}");
    assert!(mid.trackers >= 3);

    // Silence: rates collapse below T_min and the tree folds back.
    platform.run_for(SimDuration::from_secs(30));
    let end = scheme.stats();
    assert!(end.merges >= 2, "silence must shrink the tree: {end:?}");
    assert_eq!(end.trackers, 1, "all the way back to one IAgent: {end:?}");
}

/// Every committed rehash bumps the hash function's version by one and is
/// counted once in the scheme-wide totals, so `splits + merges` accounts
/// for every version the primary HAgent published after version 1.
#[test]
fn rehashes_are_counted_once_per_version() {
    let (mut platform, scheme) = blasted_hashed_scheme();
    platform.run_for(SimDuration::from_secs(40));

    let stats = scheme.stats();
    assert!(stats.splits >= 2 && stats.merges >= 2, "{stats:?}");
    assert_eq!(stats.iagent_moves, 0, "locality migration is off");
    let primary = scheme
        .hash_versions()
        .into_iter()
        .find(|&(_, role, _)| role == CopyRole::Primary)
        .map(|(_, _, version)| version)
        .expect("the HAgent published a version");
    assert_eq!(stats.splits + stats.merges, primary - 1, "{stats:?}");
}

/// Querying a nonexistent agent fails cleanly after the retry budget.
#[test]
fn locating_a_ghost_fails_cleanly() {
    use agentrack::core::{ClientEvent, DirectoryClient};

    struct GhostHunter {
        client: Box<dyn DirectoryClient>,
        outcome: Arc<Mutex<Option<ClientEvent>>>,
    }
    impl Agent for GhostHunter {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            self.client.locate(ctx, AgentId::new(404_404), 1);
        }
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            let ev = self.client.on_message(ctx, from, payload);
            if matches!(ev, ClientEvent::Failed { .. } | ClientEvent::Located { .. }) {
                *self.outcome.lock().unwrap() = Some(ev);
            }
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
            let ev = self.client.on_timer(ctx, timer);
            if matches!(ev, ClientEvent::Failed { .. } | ClientEvent::Located { .. }) {
                *self.outcome.lock().unwrap() = Some(ev);
            }
        }
    }

    let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default());
    let config = LocationConfig {
        max_locate_attempts: 3,
        locate_retry_timeout: SimDuration::from_millis(300),
        ..LocationConfig::default()
    };
    let mut scheme = HashedScheme::new(config.clone());
    scheme.bootstrap(&mut platform);

    let outcome = Arc::new(Mutex::new(None));
    platform.spawn(
        Box::new(GhostHunter {
            client: scheme.make_client(),
            outcome: outcome.clone(),
        }),
        NodeId::new(1),
    );
    platform.run_for(SimDuration::from_secs(20));
    let outcome = outcome.lock().unwrap().clone();
    match outcome {
        Some(ClientEvent::Failed { target, .. }) => {
            assert_eq!(target, AgentId::new(404_404));
        }
        other => panic!("expected a clean failure, got {other:?}"),
    }
}

/// A single locate's multi-hop path (client → LHAgent → IAgent → answer)
/// is reconstructible from the trace ring by correlation id.
#[test]
fn locate_path_reconstructs_by_correlation_id() {
    use agentrack::core::{ClientEvent, DirectoryClient};
    use agentrack::sim::{CorrId, TraceEvent, TraceSink};

    /// Registers a client and sits still: the locate target.
    struct Registrant {
        client: Box<dyn DirectoryClient>,
    }
    impl Agent for Registrant {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            self.client.register(ctx);
        }
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            let _ = self.client.on_message(ctx, from, payload);
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
            let _ = self.client.on_timer(ctx, timer);
        }
    }

    /// Issues one locate for the registrant after the dust settles.
    struct Seeker {
        client: Box<dyn DirectoryClient>,
        target: AgentId,
        kickoff: Option<TimerId>,
        outcome: Arc<Mutex<Option<ClientEvent>>>,
    }
    impl Agent for Seeker {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            self.kickoff = Some(ctx.set_timer(SimDuration::from_secs(2)));
        }
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
            let ev = self.client.on_message(ctx, from, payload);
            if matches!(ev, ClientEvent::Failed { .. } | ClientEvent::Located { .. }) {
                *self.outcome.lock().unwrap() = Some(ev);
            }
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
            if self.kickoff == Some(timer) {
                self.kickoff = None;
                self.client.locate(ctx, self.target, 7);
                return;
            }
            let _ = self.client.on_timer(ctx, timer);
        }
    }

    let topology = Topology::lan(3, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(5));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let target = platform.spawn(
        Box::new(Registrant {
            client: scheme.make_client(),
        }),
        NodeId::new(1),
    );
    let outcome = Arc::new(Mutex::new(None));
    let seeker = platform.spawn(
        Box::new(Seeker {
            client: scheme.make_client(),
            target,
            kickoff: None,
            outcome: outcome.clone(),
        }),
        NodeId::new(2),
    );
    platform.run_for(SimDuration::from_secs(10));
    assert!(
        matches!(
            *outcome.lock().unwrap(),
            Some(ClientEvent::Located { target: t, .. }) if t == target
        ),
        "the locate must complete: {:?}",
        outcome.lock().unwrap()
    );

    // The locate's correlation id is (client id, token) by construction.
    let corr = CorrId::new(seeker.raw(), 7);
    let path = sink.records_for(corr);
    let hops: Vec<(&str, &'static str)> = path
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::MessageSend { kind, .. } => Some(("send", *kind)),
            TraceEvent::MessageRecv { kind, .. } => Some(("recv", *kind)),
            _ => None,
        })
        .collect();
    assert_eq!(
        hops,
        vec![
            ("send", "Resolve"),  // client asks its local LHAgent
            ("recv", "Resolve"),  // LHAgent
            ("send", "Resolved"), // LHAgent answers with the IAgent
            ("recv", "Resolved"), // client
            ("send", "Locate"),   // client queries the IAgent
            ("recv", "Locate"),   // IAgent
            ("send", "Located"),  // IAgent answers
            ("recv", "Located"),  // client
        ],
        "full path: {path:#?}"
    );
    assert!(
        path.windows(2).all(|w| w[0].at <= w[1].at),
        "records must be time-ordered"
    );
}

/// The mechanism keeps locating agents while the network drops and
/// duplicates messages.
#[test]
fn survives_message_loss_and_duplication() {
    let mut scenario = Scenario::new("faulty")
        .with_agents(40)
        .with_residence_ms(400)
        .with_queries(80)
        .with_seconds(10.0, 5.0);
    scenario.loss = 0.02;
    scenario.duplication = 0.02;
    let config = LocationConfig {
        max_locate_attempts: 12,
        ..LocationConfig::default()
    };
    let mut scheme = HashedScheme::new(config);
    let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
    assert!(
        report.completion_ratio() > 0.9,
        "losses must be retried through: {report:#?}"
    );
    assert_eq!(report.registrations, 40);
}

/// A locate is timed once, by its first answer: while the network
/// duplicates a fifth of all messages, a duplicate `Located` is swallowed,
/// so no more locates complete than were issued.
#[test]
fn a_duplicated_answer_is_timed_once() {
    let mut scenario = Scenario::new("duplicating")
        .with_agents(40)
        .with_residence_ms(400)
        .with_queries(80)
        .with_seconds(10.0, 5.0);
    scenario.duplication = 0.2;
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
    assert!(report.locates_completed > 0, "{report:#?}");
    assert!(
        report.locates_completed + report.locate_failures <= report.locates_issued,
        "{report:#?}"
    );
}

/// One seed, one trace: the entire stack is deterministic.
#[test]
fn full_stack_determinism() {
    let scenario = Scenario::new("det")
        .with_agents(50)
        .with_queries(60)
        .with_seconds(8.0, 4.0)
        .with_seed(99);
    let run = || {
        let mut scheme = HashedScheme::new(LocationConfig::default());
        scenario.run_with(&mut scheme, RunOptions::new()).report
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

/// Registrations work from every node (not just where the scheme's agents
/// started), and the hash function actually spreads agents over IAgents.
#[test]
fn load_spreads_over_iagents() {
    let scenario = Scenario::new("spread")
        .with_agents(120)
        .with_residence_ms(200)
        .with_queries(100)
        .with_seconds(12.0, 5.0);
    let mut scheme = HashedScheme::new(LocationConfig::default());
    let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
    assert!(
        report.trackers >= 4,
        "expected several IAgents: {report:#?}"
    );
    assert!(
        report.records_handed_off > 0,
        "splits must redistribute records"
    );
    assert!(report.stale_hits > 0, "lazy copies must have gone stale");
    assert!(report.hf_fetches > 0, "staleness must trigger refreshes");
    assert_eq!(report.locate_failures, 0);
}

/// Registration survives message loss: the handshake's watchdog restarts
/// it until the ack lands, so even a *stationary* agent (which never gets
/// the re-register-on-move fallback) becomes locatable.
#[test]
fn registration_survives_heavy_message_loss() {
    let mut scenario = Scenario::new("lossy-registration")
        .with_agents(30)
        .with_residence_ms(120_000) // effectively stationary for the run
        .with_queries(60)
        .with_seconds(12.0, 6.0);
    scenario.loss = 0.10; // every tenth message vanishes
    let config = LocationConfig {
        max_locate_attempts: 15,
        ..LocationConfig::default()
    };
    let mut scheme = HashedScheme::new(config);
    let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
    assert_eq!(
        report.registrations, 30,
        "every stationary agent must register despite loss: {report:#?}"
    );
    assert!(report.completion_ratio() > 0.9, "{report:#?}");
}
