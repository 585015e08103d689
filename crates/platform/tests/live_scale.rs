//! Tests of the live runtime's scale machinery: sharded registry +
//! route cache behaviour through the public API, panic containment, and
//! the migration-vs-delivery race. Timing assertions are deliberately
//! loose — wall clocks are not simulation clocks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, Once};
use std::time::Duration;

use agentrack_platform::{
    Agent, AgentCtx, AgentId, LiveConfig, LivePlatform, NodeId, Payload, TimerId, TraceSink,
};
use agentrack_sim::{SimDuration, SimRng};

/// Keeps intentional behaviour panics out of the test output while
/// leaving every other panic (i.e. real test failures) loud.
fn quiet_node_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_node_thread = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("agentrack-"));
            if !on_node_thread {
                default(info);
            }
        }));
    });
}

/// Waits (bounded) until `cond` is true.
fn eventually(mut cond: impl FnMut() -> bool) -> bool {
    for _ in 0..500 {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

/// Migrates to the node named by any `u32` payload; ignores the rest.
struct Hopper;
impl Agent for Hopper {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        if let Ok(dest) = payload.decode::<u32>() {
            ctx.dispatch(NodeId::new(dest));
        }
    }
}

#[test]
fn a_panicking_behaviour_kills_its_node_not_the_platform() {
    quiet_node_panics();

    struct Bomber;
    impl Agent for Bomber {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            panic!("intentional test panic: behaviour bug");
        }
    }
    struct Witness {
        bomber: AgentId,
        bomber_node: NodeId,
        failures: Arc<AtomicU64>,
        echoes: Arc<AtomicU64>,
    }
    impl Agent for Witness {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            if payload.decode::<String>().as_deref() == Ok("probe the dead node") {
                ctx.send(self.bomber, self.bomber_node, Payload::encode(&"anyone?"));
            } else {
                self.echoes.fetch_add(1, Ordering::Relaxed);
            }
        }
        fn on_delivery_failed(
            &mut self,
            _ctx: &mut AgentCtx<'_>,
            _to: AgentId,
            _node: NodeId,
            _payload: &Payload,
        ) {
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
    }

    let platform = LivePlatform::new(2);
    let bomber = platform.spawn(Box::new(Bomber), NodeId::new(1));
    let failures = Arc::new(AtomicU64::new(0));
    let echoes = Arc::new(AtomicU64::new(0));
    let witness = platform.spawn(
        Box::new(Witness {
            bomber,
            bomber_node: NodeId::new(1),
            failures: failures.clone(),
            echoes: echoes.clone(),
        }),
        NodeId::new(0),
    );
    assert!(eventually(|| platform.stats().agents_activated == 2));

    // Detonate. The node must die and take the bomber's registration.
    assert!(platform.post(bomber, Payload::encode(&"boom")));
    assert!(eventually(|| platform.stats().nodes_dead == 1));
    assert!(eventually(|| platform.agent_node(bomber).is_none()));

    // A pending delivery to the dead node fails back to the sender's
    // on_delivery_failed instead of vanishing into a dead queue.
    assert!(platform.post(witness, Payload::encode(&"probe the dead node")));
    assert!(eventually(|| failures.load(Ordering::Relaxed) == 1));

    // The surviving node keeps serving.
    assert!(platform.post(witness, Payload::encode(&"still alive?")));
    assert!(eventually(|| echoes.load(Ordering::Relaxed) >= 1));

    // And shutdown joins every thread — no leak, no hang.
    let stats = platform.shutdown();
    assert_eq!(stats.nodes_dead, 1);
    assert!(stats.messages_failed >= 1);
}

#[test]
fn a_panicking_timer_handler_is_contained_too() {
    quiet_node_panics();

    struct TimeBomb;
    impl Agent for TimeBomb {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(10));
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>, _timer: TimerId) {
            panic!("intentional test panic: timer bug");
        }
    }

    let platform = LivePlatform::new(2);
    let bomb = platform.spawn(Box::new(TimeBomb), NodeId::new(1));
    assert!(eventually(|| platform.stats().nodes_dead == 1));
    assert!(eventually(|| platform.agent_node(bomb).is_none()));
    platform.shutdown();
}

/// Satellite: migration-vs-deliver race. Several threads hammer `move`
/// and `deliver` against the same agent; every message must either be
/// delivered at the destination or fail observably — the runtime's
/// counters have to reconcile exactly (sent = delivered + failed), and
/// the agent must still be registered and responsive afterwards.
#[test]
fn racing_moves_and_delivers_never_silently_drop_a_message() {
    let nodes = 4u32;
    for seed in [0x5eed1u64, 0x5eed2, 0x5eed3] {
        let platform = LivePlatform::with_config(
            nodes,
            // Small shard count and batches exercise the coalescing and
            // cross-shard paths harder than the defaults would.
            LiveConfig::default().with_shards(4).with_batch_max(8),
            TraceSink::disabled(),
        );
        let hopper = platform.spawn(Box::new(Hopper), NodeId::new(0));
        let delivered = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));

        // An agent-world sender: each timer tick fires a burst at the
        // hopper using a *guessed* (usually wrong) node, so some sends
        // bounce into on_delivery_failed while the hopper keeps moving.
        struct Stresser {
            target: AgentId,
            nodes: u32,
            round: u32,
            delivered: Arc<AtomicU64>,
            failed: Arc<AtomicU64>,
        }
        impl Agent for Stresser {
            fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(1));
            }
            fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
                for i in 0..10u32 {
                    let guess = NodeId::new((self.round + i) % self.nodes);
                    ctx.send(self.target, guess, Payload::encode(&"are you there?"));
                }
                self.round += 1;
                if self.round < 40 {
                    ctx.set_timer(SimDuration::from_millis(1));
                }
            }
            fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _p: &Payload) {
                self.delivered.fetch_add(1, Ordering::Relaxed);
            }
            fn on_delivery_failed(
                &mut self,
                _ctx: &mut AgentCtx<'_>,
                _to: AgentId,
                _node: NodeId,
                _payload: &Payload,
            ) {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        platform.spawn(
            Box::new(Stresser {
                target: hopper,
                nodes,
                round: 0,
                delivered: delivered.clone(),
                failed: failed.clone(),
            }),
            NodeId::new(3),
        );

        // Meanwhile the test thread keeps the hopper migrating and lobs
        // its own externally injected deliveries through a batched handle.
        let mut handle = platform.handle();
        let mut rng = SimRng::seed_from(seed);
        for i in 0..400u32 {
            let dest = rng.index(nodes as usize) as u32;
            assert!(handle.post(hopper, Payload::encode(&dest)));
            if i % 16 == 0 {
                handle.flush();
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        handle.flush();

        // Quiesce: stats stop changing and the books balance exactly.
        assert!(
            eventually(|| {
                let s = platform.stats();
                s.messages_sent == s.messages_delivered + s.messages_failed
            }),
            "seed {seed:#x}: messages lost: {:?}",
            platform.stats()
        );
        let mid = platform.stats();
        assert!(mid.migrations > 0, "seed {seed:#x}: the hopper never moved");
        assert!(
            mid.messages_sent >= 400,
            "seed {seed:#x}: sends went missing before the wire"
        );

        // The hopper survived the storm: still registered, still willing
        // to hop when told.
        let before = platform.stats().migrations;
        let here = platform
            .agent_node(hopper)
            .expect("hopper still registered");
        let away = NodeId::new((here.raw() + 1) % nodes);
        assert!(platform.post(hopper, Payload::encode(&away.raw())));
        assert!(eventually(|| platform.stats().migrations > before));

        let stats = platform.shutdown();
        assert_eq!(
            stats.messages_sent,
            stats.messages_delivered + stats.messages_failed,
            "seed {seed:#x}: final books must balance: {stats:?}"
        );
        assert_eq!(stats.nodes_dead, 0);
    }
}

/// Shutdown accounting is exact even when it races in-flight traffic:
/// whatever is still queued behind a node's `Shutdown` marker — or
/// sitting in a sender's batch buffer — must end up counted delivered
/// or failed, never silently dropped. No quiescing before `shutdown()`
/// here, deliberately.
#[test]
fn books_balance_even_when_shutdown_races_inflight_traffic() {
    for round in 0..8u32 {
        let platform = LivePlatform::with_config(
            4,
            LiveConfig::default().with_shards(4).with_batch_max(4),
            TraceSink::disabled(),
        );
        let hopper = platform.spawn(Box::new(Hopper), NodeId::new(0));
        let mut handle = platform.handle();
        let mut rng = SimRng::seed_from(0xace0 + u64::from(round));
        for _ in 0..200u32 {
            let dest = rng.index(4) as u32;
            assert!(handle.post(hopper, Payload::encode(&dest)));
        }
        handle.flush();
        // Shut down mid-storm: migrations and deliveries are in flight.
        let stats = platform.shutdown();
        assert_eq!(
            stats.messages_sent,
            stats.messages_delivered + stats.messages_failed,
            "round {round}: shutdown lost messages: {stats:?}"
        );
    }
}

/// A pending timer belonging to an agent that migrated away survives its
/// origin node dying: `die()` hops it to the agent's current node.
#[test]
fn a_migrated_agents_timer_survives_its_old_node_dying() {
    quiet_node_panics();

    struct Bomber;
    impl Agent for Bomber {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            panic!("intentional test panic: behaviour bug");
        }
    }
    /// Sets a long timer at birth, then immediately migrates away —
    /// leaving the pending timer on the node it was born on.
    struct TimerHopper {
        home: NodeId,
        fired: Arc<AtomicU64>,
    }
    impl Agent for TimerHopper {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(150));
            ctx.dispatch(self.home);
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>, _timer: TimerId) {
            self.fired.fetch_add(1, Ordering::Relaxed);
        }
    }

    let platform = LivePlatform::new(2);
    let fired = Arc::new(AtomicU64::new(0));
    let hopper = platform.spawn(
        Box::new(TimerHopper {
            home: NodeId::new(0),
            fired: fired.clone(),
        }),
        NodeId::new(1),
    );
    let bomber = platform.spawn(Box::new(Bomber), NodeId::new(1));
    assert!(eventually(
        || platform.agent_node(hopper) == Some(NodeId::new(0))
    ));

    // Kill node 1 while it still holds the hopper's unexpired timer.
    assert!(platform.post(bomber, Payload::encode(&"boom")));
    assert!(eventually(|| platform.stats().nodes_dead == 1));

    // The timer must still reach the agent at its new home.
    assert!(eventually(|| fired.load(Ordering::Relaxed) == 1));
    platform.shutdown();
}

/// The route cache answers steady-state locates without the lock path:
/// repeat lookups of unmoved agents are cache hits, and a migration
/// flips the generation so the next lookup re-reads the truth.
#[test]
fn handle_locates_are_cached_until_a_migration_invalidates() {
    let platform = LivePlatform::new(2);
    let a = platform.spawn(Box::new(Hopper), NodeId::new(0));
    let b = platform.spawn(Box::new(Hopper), NodeId::new(1));
    assert!(eventually(|| platform.stats().agents_activated == 2));

    let mut handle = platform.handle();
    assert_eq!(handle.locate(a), Some(NodeId::new(0)));
    assert_eq!(handle.locate(b), Some(NodeId::new(1)));
    let misses_after_first = handle.cache_misses();
    for _ in 0..100 {
        assert_eq!(handle.locate(a), Some(NodeId::new(0)));
        assert_eq!(handle.locate(b), Some(NodeId::new(1)));
    }
    assert_eq!(
        handle.cache_misses(),
        misses_after_first,
        "no agent moved: every repeat locate must be a lock-free hit"
    );
    assert_eq!(handle.cache_hits(), 200);

    // Move `a`; the bumped shard generation must force a re-read.
    assert!(platform.post(a, Payload::encode(&1u32)));
    assert!(eventually(|| platform.agent_node(a) == Some(NodeId::new(1))));
    assert!(eventually(|| handle.locate(a) == Some(NodeId::new(1))));
    platform.shutdown();
}

/// Driver threads, each with its own handle, locate a skewed key set while
/// the hot agents migrate. At quiesce every handle agrees with the registry
/// on every agent: no cache kept a route a generation bump had retired.
#[test]
fn concurrent_handles_agree_with_the_registry_after_migrations() {
    let nodes = 4u32;
    let agents = 2_000usize;
    let hot = 32usize;
    let platform = LivePlatform::new(nodes);
    let ids: Vec<AgentId> = (0..agents)
        .map(|i| platform.spawn(Box::new(Hopper), NodeId::new(i as u32 % nodes)))
        .collect();
    assert!(eventually(
        || platform.stats().agents_activated == agents as u64
    ));

    let drivers = 3u64;
    let start = Barrier::new(drivers as usize);
    let handles: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = (0..drivers)
            .map(|d| {
                let (platform, ids, start) = (&platform, &ids, &start);
                s.spawn(move || {
                    let mut rng = SimRng::seed_from(0xd00d + d);
                    let mut handle = platform.handle();
                    start.wait();
                    for i in 0..20_000u32 {
                        // Four picks in five land on the hot set.
                        let range = if rng.index(5) < 4 { hot } else { agents };
                        let id = ids[rng.index(range)];
                        if i % 8 == 0 {
                            let dest = (i / 8 + d as u32) % nodes;
                            assert!(handle.post(id, Payload::encode(&dest)));
                        } else {
                            assert!(handle.locate(id).is_some(), "{id} went missing");
                        }
                        if i % 256 == 0 {
                            handle.flush();
                        }
                    }
                    handle.flush();
                    handle
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });

    assert!(eventually(|| {
        let s = platform.stats();
        s.messages_sent == s.messages_delivered + s.messages_failed
    }));
    assert!(platform.stats().migrations > 0, "nothing migrated");
    for (d, mut handle) in handles.into_iter().enumerate() {
        assert!(handle.cache_hits() > 0, "driver {d} never hit its cache");
        for &id in &ids {
            let truth = platform.agent_node(id);
            assert!(truth.is_some(), "{id} lost from the registry");
            assert_eq!(handle.locate(id), truth, "driver {d}: {id} at quiesce");
        }
    }
    let stats = platform.shutdown();
    assert_eq!(
        stats.messages_sent,
        stats.messages_delivered + stats.messages_failed
    );
    assert_eq!(stats.nodes_dead, 0);
}

/// A handle's route cache holds tens of thousands of routes at once: the
/// first pass over 20 000 agents misses on each, and a second pass finds
/// almost all of them still cached.
#[test]
fn a_handle_caches_tens_of_thousands_of_routes_at_once() {
    let count = 20_000u64;
    let platform = LivePlatform::new(4);
    let ids: Vec<AgentId> = (0..count)
        .map(|i| platform.spawn(Box::new(Hopper), NodeId::new(i as u32 % 4)))
        .collect();
    assert!(eventually(|| platform.stats().agents_activated == count));
    let mut handle = platform.handle();
    for _pass in 0..2 {
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(handle.locate(id), Some(NodeId::new(i as u32 % 4)));
        }
    }
    let evicted = handle.cache_misses() - count;
    assert!(evicted * 100 <= count, "{evicted} routes evicted");
    platform.shutdown();
}

/// A node loop drains at most 256 queued channel messages per wake-up.
/// Holding a handler open while 1 000 unbatched deliveries queue behind
/// it makes the split exact: 256 + 256 + 256 + 233 with the gate message,
/// so exactly three wake-ups exhaust the budget.
#[test]
fn a_flooded_node_drains_at_most_the_budget_per_wakeup() {
    use std::sync::mpsc::{channel, Receiver, Sender};

    struct Gate(Option<(Sender<()>, Receiver<()>)>);
    impl Agent for Gate {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            if let Some((entered, release)) = self.0.take() {
                entered.send(()).unwrap();
                let _ = release.recv_timeout(Duration::from_secs(10));
            }
        }
    }

    let flood = 1_000u64;
    let platform = LivePlatform::with_config(
        2,
        LiveConfig::default().with_batch_max(1).with_telemetry(true),
        TraceSink::disabled(),
    );
    let ((entered_tx, entered), (open, release)) = (channel(), channel());
    let gate = platform.spawn(Box::new(Gate(Some((entered_tx, release)))), NodeId::new(1));
    assert!(eventually(|| platform.stats().agents_activated == 1));
    assert!(platform.post(gate, Payload::encode(&0u8)));
    entered.recv_timeout(Duration::from_secs(10)).unwrap();
    let mut handle = platform.handle();
    for _ in 0..flood {
        assert!(handle.post(gate, Payload::encode(&0u8)));
    }
    open.send(()).unwrap();
    assert!(eventually(
        || platform.stats().messages_delivered == 1 + flood
    ));
    let snap = platform.telemetry_snapshot().expect("telemetry on");
    assert_eq!(snap.nodes[1].drain_exhausted, (1 + flood) / 256);
    assert_eq!(platform.shutdown().messages_failed, 0);
}

/// Sanity at (modest) scale with the full machinery on: tens of
/// thousands of agents register, activate, stay individually locatable
/// through both lookup paths, and a batched fan-out reaches them all.
#[test]
fn fifty_thousand_agents_register_and_answer() {
    struct Counter(Arc<AtomicU64>);
    impl Agent for Counter {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _p: &Payload) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    let nodes = 4u32;
    let count = 50_000u64;
    let platform = LivePlatform::new(nodes);
    let hits = Arc::new(AtomicU64::new(0));
    let ids: Vec<AgentId> = (0..count)
        .map(|i| {
            platform.spawn(
                Box::new(Counter(hits.clone())),
                NodeId::new((i % u64::from(nodes)) as u32),
            )
        })
        .collect();
    assert!(eventually(|| platform.stats().agents_activated == count));
    assert_eq!(platform.agent_count(), count as usize);

    let mut handle = platform.handle();
    for (i, &id) in ids.iter().enumerate() {
        let expect = NodeId::new((i as u32) % nodes);
        assert_eq!(handle.locate(id), Some(expect));
        assert_eq!(platform.agent_node(id), Some(expect));
        assert!(handle.post(id, Payload::encode(&0u8)));
    }
    handle.flush();
    assert!(eventually(|| hits.load(Ordering::Relaxed) == count));
    let stats = platform.shutdown();
    assert_eq!(stats.messages_delivered, count);
    assert_eq!(stats.messages_failed, 0);
}

/// The log that existing live tests use, kept here for a cross-check
/// that `post` through the platform (unbatched path) and through a
/// handle (batched path) deliver identically.
#[test]
fn platform_post_and_handle_post_agree() {
    struct Echo(Arc<Mutex<Vec<String>>>);
    impl Agent for Echo {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            self.0.lock().unwrap().push(payload.decode().unwrap());
        }
    }

    let platform = LivePlatform::new(2);
    let log = Arc::new(Mutex::new(Vec::new()));
    let echo = platform.spawn(Box::new(Echo(log.clone())), NodeId::new(1));
    assert!(eventually(|| platform.stats().agents_activated == 1));

    assert!(platform.post(echo, Payload::encode(&"direct")));
    let mut handle = platform.handle();
    assert!(handle.post(echo, Payload::encode(&"batched")));
    handle.flush();
    assert!(eventually(|| log.lock().unwrap().len() == 2));
    let got = log.lock().unwrap().clone();
    assert!(got.contains(&"direct".to_string()));
    assert!(got.contains(&"batched".to_string()));
    assert!(!platform.post(AgentId::new(999_999_999), Payload::encode(&"void")));
    platform.shutdown();
}

/// Checks a final (post-drain) snapshot against its own stats: per-node
/// rows must sum exactly to the snapshot totals, and those totals must
/// equal the platform counters — every counted operation appears in
/// exactly one node's telemetry.
fn assert_conserved(
    stats: &agentrack_platform::LiveStats,
    snap: &agentrack_platform::TelemetrySnapshot,
    context: &str,
) {
    let delivered: u64 = snap.nodes.iter().map(|n| n.delivered).sum();
    let failed: u64 = snap.nodes.iter().map(|n| n.failed).sum();
    assert_eq!(
        delivered, snap.delivered_total,
        "{context}: node rows must sum to the snapshot total"
    );
    assert_eq!(
        failed, snap.failed_total,
        "{context}: node rows must sum to the snapshot total"
    );
    assert_eq!(
        snap.delivered_total, stats.messages_delivered,
        "{context}: snapshot and stats disagree on delivered"
    );
    assert_eq!(
        snap.failed_total, stats.messages_failed,
        "{context}: snapshot and stats disagree on failed"
    );
    assert_eq!(
        stats.messages_sent,
        stats.messages_delivered + stats.messages_failed,
        "{context}: books must balance"
    );
    for n in &snap.nodes {
        assert_eq!(
            n.queue_depth, 0,
            "{context}: node {} still shows queued work after the final drain",
            n.node
        );
        assert_eq!(
            n.enqueued, n.processed,
            "{context}: node {}'s channel accounting must close",
            n.node
        );
    }
}

/// Tentpole: snapshot conservation when shutdown races in-flight
/// traffic. Same shape as the untelemetered race test above, but every
/// counted operation must also land in exactly one node's telemetry row.
#[test]
fn telemetry_conserves_counts_when_shutdown_races_inflight_traffic() {
    for round in 0..8u32 {
        let platform = LivePlatform::with_config(
            4,
            LiveConfig::default()
                .with_shards(4)
                .with_batch_max(4)
                .with_telemetry(true)
                .with_flight_recorder(8),
            TraceSink::disabled(),
        );
        let hopper = platform.spawn(Box::new(Hopper), NodeId::new(0));
        let mut handle = platform.handle();
        let mut rng = SimRng::seed_from(0x7e1e ^ u64::from(round));
        for _ in 0..200u32 {
            let dest = rng.index(4) as u32;
            assert!(handle.post(hopper, Payload::encode(&dest)));
        }
        handle.flush();
        drop(handle);
        // Shut down mid-storm: migrations and deliveries are in flight.
        let (stats, snap) = platform.shutdown_telemetry();
        let snap = snap.expect("telemetry was on");
        assert_conserved(&stats, &snap, &format!("round {round}"));
    }
}

/// Tentpole: snapshot conservation across panic-contained node death.
/// The dead node's row keeps the deliveries it made and absorbs the
/// failures charged to it; nothing is double-counted or lost.
#[test]
fn telemetry_conserves_counts_across_node_death() {
    quiet_node_panics();

    struct Bomber;
    impl Agent for Bomber {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            panic!("intentional test panic: behaviour bug");
        }
    }
    /// Pokes the dead node with a raw location-dependent send per
    /// message: each one bounces, charged to node 1's telemetry row.
    struct Prodder {
        bomber: AgentId,
    }
    impl Agent for Prodder {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            ctx.send(self.bomber, NodeId::new(1), Payload::encode(&"anyone?"));
        }
    }

    let platform = LivePlatform::with_config(
        3,
        LiveConfig::default()
            .with_telemetry(true)
            .with_flight_recorder(4),
        TraceSink::disabled(),
    );
    let bomber = platform.spawn(Box::new(Bomber), NodeId::new(1));
    let prodder = platform.spawn(Box::new(Prodder { bomber }), NodeId::new(2));
    assert!(eventually(|| platform.stats().agents_activated == 2));

    // Kill node 1, then keep traffic flowing: deliveries accrue on the
    // survivor, bounces accrue at the dead node.
    assert!(platform.post(bomber, Payload::encode(&"boom")));
    assert!(eventually(|| platform.stats().nodes_dead == 1));
    let mut handle = platform.handle();
    for _ in 0..50 {
        assert!(handle.post(prodder, Payload::encode(&0u8)));
    }
    handle.flush();
    drop(handle);
    assert!(eventually(|| {
        let s = platform.stats();
        s.messages_sent == s.messages_delivered + s.messages_failed
    }));

    // While the platform is still up, only the bombed node reads dead.
    let live_snap = platform.telemetry_snapshot().expect("telemetry on");
    assert!(
        live_snap.nodes[1].dead,
        "the snapshot must flag the dead node"
    );
    assert!(
        !live_snap.nodes[0].dead && !live_snap.nodes[2].dead,
        "survivors must not be flagged while the platform runs"
    );

    let (stats, snap) = platform.shutdown_telemetry();
    let snap = snap.expect("telemetry was on");
    assert_eq!(stats.nodes_dead, 1);
    assert!(snap.nodes[1].dead, "the final snapshot keeps the dead flag");
    assert!(
        stats.messages_failed >= 1,
        "the boom delivery itself bounced nothing? {stats:?}"
    );
    assert_conserved(&stats, &snap, "node-death run");
}

/// The flight recorder keeps at most K ops, ranked slowest-first, with
/// internally ordered phase timestamps; the known-slow handlers dominate
/// the capture.
#[test]
fn flight_recorder_captures_the_slowest_ops_with_ordered_phases() {
    struct PayloadSleeper;
    impl Agent for PayloadSleeper {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            if let Ok(ms) = payload.decode::<u64>() {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    let k = 3usize;
    let platform = LivePlatform::with_config(
        2,
        LiveConfig::default()
            .with_telemetry(true)
            .with_flight_recorder(k),
        TraceSink::disabled(),
    );
    let a = platform.spawn(Box::new(PayloadSleeper), NodeId::new(1));
    assert!(eventually(|| platform.stats().agents_activated == 1));
    let mut handle = platform.handle();
    // Many fast ops, three deliberately slow ones.
    for _ in 0..30 {
        assert!(handle.post(a, Payload::encode(&0u64)));
        handle.flush();
    }
    for ms in [40u64, 60, 50] {
        assert!(handle.post(a, Payload::encode(&ms)));
        handle.flush();
    }
    drop(handle);
    assert!(eventually(|| platform.stats().messages_delivered == 33));

    let (_, snap) = platform.shutdown_telemetry();
    let snap = snap.expect("telemetry was on");
    assert!(snap.slow_ops.len() <= k, "bounded at K");
    assert_eq!(snap.slow_ops.len(), k, "33 candidates: the ring fills");
    for pair in snap.slow_ops.windows(2) {
        assert!(
            pair[0].total_ns() >= pair[1].total_ns(),
            "slowest first: {:?}",
            snap.slow_ops
        );
    }
    for op in &snap.slow_ops {
        assert!(op.enqueued_ns <= op.started_ns && op.started_ns <= op.ended_ns);
        assert!(
            op.total_ns() >= Duration::from_millis(40).as_nanos() as u64,
            "a fast op displaced a deliberately slow one: {:?}",
            snap.slow_ops
        );
        assert!(
            op.handle_ns() >= Duration::from_millis(35).as_nanos() as u64,
            "the sleep happens in the handle phase: {op:?}"
        );
    }
}

/// With telemetry on, the op-latency histograms and queue/batch gauges
/// actually fill — and sampled locate latency appears once the handle
/// has made enough calls.
#[test]
fn latency_histograms_fill_under_instrumented_traffic() {
    struct Worker;
    impl Agent for Worker {
        fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.set_timer(SimDuration::from_millis(5));
        }
        fn on_timer(&mut self, _ctx: &mut AgentCtx<'_>, _timer: TimerId) {}
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            if let Ok(dest) = payload.decode::<u32>() {
                ctx.dispatch(NodeId::new(dest));
            }
        }
    }

    let platform = LivePlatform::with_config(
        2,
        LiveConfig::default().with_telemetry(true),
        TraceSink::disabled(),
    );
    let w = platform.spawn(Box::new(Worker), NodeId::new(0));
    assert!(eventually(|| platform.stats().agents_activated == 1));
    let mut handle = platform.handle();
    for _ in 0..2048u32 {
        let _ = handle.locate(w);
    }
    for i in 0..200u32 {
        assert!(handle.post(w, Payload::encode(&(i % 2))));
        if i % 8 == 0 {
            handle.flush();
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    handle.flush();
    drop(handle);
    assert!(eventually(|| {
        let s = platform.stats();
        s.messages_sent == s.messages_delivered + s.messages_failed && s.migrations > 0
    }));

    // The aggregator publishes on its own, without being asked.
    assert!(eventually(|| platform
        .latest_telemetry()
        .is_some_and(|published| published.at_ns > 0)));

    let (stats, snap) = platform.shutdown_telemetry();
    let snap = snap.expect("telemetry was on");
    assert!(
        !snap.deliver_ns.is_empty(),
        "deliveries were stamped: histogram must fill"
    );
    assert_eq!(
        snap.deliver_ns.len(),
        stats.messages_delivered,
        "every delivered message contributes exactly one latency sample"
    );
    assert!(!snap.move_ns.is_empty(), "migrations were stamped");
    assert_eq!(snap.move_ns.len(), stats.migrations);
    assert!(!snap.timer_lag_ns.is_empty(), "the worker's timer fired");
    assert!(
        !snap.locate_ns.is_empty(),
        "2048 locates at 1-in-256 sampling: some samples must exist"
    );
    assert!(
        snap.locate_ns.len() <= 2048 / 128,
        "sampling must thin the stream"
    );
    assert!(!snap.batch_occupancy.is_empty(), "batches were shipped");
    assert!(
        snap.registry_generation > 0,
        "spawns and migrations churn the registry"
    );
    assert_conserved(&stats, &snap, "histogram run");
}

/// Satellite: per-handle route-cache counters survive the handle — they
/// fold into the platform totals on flush/drop and surface in
/// `LiveStats`.
#[test]
fn route_cache_totals_outlive_their_handles() {
    let platform = LivePlatform::new(2);
    let a = platform.spawn(Box::new(Hopper), NodeId::new(0));
    assert!(eventually(|| platform.stats().agents_activated == 1));

    let mut h1 = platform.handle();
    for _ in 0..100 {
        assert_eq!(h1.locate(a), Some(NodeId::new(0)));
    }
    let (hits1, misses1) = (h1.cache_hits(), h1.cache_misses());
    assert_eq!((hits1, misses1), (99, 1));
    drop(h1); // drop publishes via flush()

    let mut h2 = platform.handle();
    for _ in 0..50 {
        assert_eq!(h2.locate(a), Some(NodeId::new(0)));
    }
    h2.flush(); // explicit flush publishes too, without dropping
    let stats = platform.stats();
    assert_eq!(stats.route_cache_hits, 99 + 49);
    assert_eq!(stats.route_cache_misses, 2);

    // Flushing again publishes only the delta (nothing new happened).
    h2.flush();
    assert_eq!(platform.stats().route_cache_hits, 99 + 49);
    drop(h2);
    let final_stats = platform.shutdown();
    assert_eq!(final_stats.route_cache_hits, 99 + 49);
    assert_eq!(final_stats.route_cache_misses, 2);
}

/// Satellite: trace-ring overflow is no longer silent — the dropped
/// count surfaces in `LiveStats::trace_dropped`.
#[test]
fn trace_ring_overflow_surfaces_in_live_stats() {
    use agentrack_platform::TraceEvent;

    struct Chatterbox;
    impl Agent for Chatterbox {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, _payload: &Payload) {
            let node = ctx.node();
            let now = ctx.now();
            ctx.trace().emit(now, || TraceEvent::MessageSend {
                kind: "Chatter",
                corr: None,
                from: 1,
                to: 2,
                node,
            });
        }
    }

    // A 4-record ring and 64 emissions: most must overflow.
    let platform = LivePlatform::with_trace(2, TraceSink::bounded(4));
    let chatter = platform.spawn(Box::new(Chatterbox), NodeId::new(1));
    assert!(eventually(|| platform.stats().agents_activated == 1));
    for _ in 0..64 {
        assert!(platform.post(chatter, Payload::encode(&0u8)));
    }
    assert!(eventually(|| platform.stats().messages_delivered == 64));
    assert!(eventually(|| platform.stats().trace_dropped >= 60));
    let stats = platform.shutdown();
    assert_eq!(stats.trace_dropped, 60, "64 events, 4 kept");
}

/// Telemetry off is really off: no snapshots, no stamps — but the
/// always-on per-node accounting still balances the books.
#[test]
fn telemetry_off_means_no_snapshots_but_exact_books() {
    let platform = LivePlatform::new(2);
    assert!(platform.telemetry_snapshot().is_none());
    assert!(platform.latest_telemetry().is_none());
    let a = platform.spawn(Box::new(Hopper), NodeId::new(0));
    let mut handle = platform.handle();
    for _ in 0..20 {
        assert!(handle.post(a, Payload::encode(&1u32)));
    }
    handle.flush();
    drop(handle);
    assert!(eventually(|| {
        let s = platform.stats();
        s.messages_sent == s.messages_delivered + s.messages_failed
    }));
    let (stats, snap) = platform.shutdown_telemetry();
    assert!(
        snap.is_none(),
        "telemetry off: shutdown returns no snapshot"
    );
    assert_eq!(stats.messages_sent, 20);
}
