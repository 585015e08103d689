//! Layer probes: what one call into each layer costs, measured
//! single-threaded from outside, beside a fixed calibration loop that
//! shows how fast the machine itself was running at the time.
//!
//! Probe sizes are constants on purpose: a probe whose tree size could be
//! chosen per run would be a different probe per run.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::sleep;
use std::time::{Duration, Instant};

use agentrack_core::{
    key_of, plan_split, Freshness, HashFunction, IAgentBehavior, LHAgentBehavior, LocationConfig,
    SharedSchemeStats, Wire,
};
use agentrack_hashtree::{AgentKey, IAgentId, Side, SplitKind};
use agentrack_platform::{
    Agent, AgentCtx, AgentId, LivePlatform, NodeId, Payload, PlatformConfig, SimPlatform,
};
use agentrack_sim::{DurationDist, Histogram, SimDuration, Topology};

use crate::report::Metrics;
use crate::stats::{median, percentile};

/// IAgents in the probed hash function.
const TREE_LEAVES: usize = 256;
/// Nodes the probed IAgents are spread over.
const TREE_NODES: u64 = 16;
/// Messages pumped through a behaviour per handler probe.
const HANDLER_MSGS: usize = 20_000;
/// Records the probed IAgent holds.
const IAGENT_RECORDS: u64 = 1_000;
/// Timed batches per micro-probe; the median batch is reported.
const BATCHES: usize = 5;

/// Nanoseconds per call of `f`, median of `BATCHES` batches of `iters`.
fn ns_per_call<R>(iters: u64, mut f: impl FnMut(u64) -> R) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let began = Instant::now();
            for i in 0..iters {
                black_box(f(black_box(i)));
            }
            began.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// The calibration loop: a dependent chain of integer mixes that touches
/// no memory, so its speed is the core's speed and nothing else.
fn calibration_ns() -> f64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    ns_per_call(2_000_000, |i| {
        x = (x ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 31;
        x
    })
}

/// A hash function over `TREE_LEAVES` IAgents, grown by simple splits the
/// way the protocol micro-benchmarks grow theirs.
fn grown_hash_function() -> HashFunction {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut next = 1000u64;
    while hf.tree.iagent_count() < TREE_LEAVES {
        let leaf = hf.tree.lookup(key_of(AgentId::new(next * 77)));
        let candidate = hf
            .tree
            .split_candidates(leaf)
            .expect("leaf exists")
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            .expect("a simple split always exists");
        hf.tree
            .apply_split(&candidate, IAgentId::new(next), Side::Right)
            .expect("candidate is current");
        hf.locations
            .insert(IAgentId::new(next), NodeId::new((next % TREE_NODES) as u32));
        hf.version += 1;
        next += 1;
    }
    hf.recompile();
    hf
}

fn hashtree_and_wire(m: &mut Metrics) {
    let hf = grown_hash_function();
    m.set(
        "hashtree.lookup_ns",
        ns_per_call(2_000_000, |i| {
            hf.compiled().lookup(AgentKey::from_sequential(i))
        }),
    );
    m.set(
        "core.key_of_ns",
        ns_per_call(2_000_000, |i| key_of(AgentId::new(i))),
    );
    m.set(
        "core.resolve_ns",
        ns_per_call(2_000_000, |i| hf.resolve(AgentId::new(i))),
    );

    // One split and the incremental refresh of the compiled table, which
    // is what every rehash costs the HAgent before it sends a byte.
    let mut spent = Vec::new();
    for round in 0..40u64 {
        let mut tree = hf.tree.clone();
        let mut compiled = hf.compiled().clone();
        let leaf = tree.lookup(key_of(AgentId::new(round * 7919)));
        let candidate = tree.split_candidates(leaf).expect("leaf exists")[0];
        let fresh = IAgentId::new(9_000_000 + round);
        let began = Instant::now();
        let applied = tree
            .apply_split(&candidate, fresh, Side::Right)
            .expect("candidate is current");
        let mut involved = applied.affected.clone();
        involved.push(fresh);
        compiled.refresh(&tree, &involved);
        spent.push(began.elapsed().as_nanos() as f64 / 1e3);
        black_box((tree, compiled));
    }
    m.set("hashtree.split_refresh_us", median(&spent));

    let locate = Wire::Locate {
        target: AgentId::new(42),
        token: 7,
        reply_node: NodeId::new(3),
        freshness: Freshness::Any,
        corr: None,
    };
    let encoded = locate.payload();
    m.set("core.wire_locate_bytes", encoded.len() as f64);
    m.set(
        "core.wire_locate_encode_ns",
        ns_per_call(100_000, |_| locate.payload()),
    );
    m.set(
        "core.wire_locate_decode_ns",
        ns_per_call(100_000, |_| Wire::from_payload(&encoded)),
    );
    let install = Wire::InstallHashFn { hf: hf.clone() };
    let encoded = install.payload();
    m.set("core.wire_install_bytes", encoded.len() as f64);
    m.set(
        "core.wire_install_encode_us",
        ns_per_call(6, |_| install.payload()) / 1e3,
    );
    m.set(
        "core.wire_install_decode_us",
        ns_per_call(6, |_| Wire::from_payload(&encoded)) / 1e3,
    );

    let config = LocationConfig::default();
    let leaf = hf.tree.iagents().next().expect("tree has leaves");
    let loads: Vec<(AgentId, u64)> = (0..1000).map(|i| (AgentId::new(i), 1 + i % 7)).collect();
    m.set(
        "core.plan_split_us",
        ns_per_call(200, |_| plan_split(&hf.tree, leaf, &loads, &config)) / 1e3,
    );

    let mut hist = Histogram::new();
    m.set(
        "sim.hist_record_ns",
        ns_per_call(2_000_000, |i| hist.record(SimDuration::from_nanos(i))),
    );
}

/// Sends every payload to `target` (same node) at creation and ignores
/// whatever comes back.
struct Pump {
    target: AgentId,
    payloads: Vec<Payload>,
}

impl Agent for Pump {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let here = ctx.node();
        for payload in self.payloads.drain(..) {
            ctx.send(self.target, here, payload);
        }
    }
}

struct Sink;
impl Agent for Sink {}

/// Wall ns per pumped message when `payloads` are pushed through
/// `behavior` on a one-node simulator with free handlers. Includes the
/// simulator's own per-event cost, which the caller subtracts.
fn pumped_ns(behavior: Box<dyn Agent>, prime: Vec<Payload>, payloads: Vec<Payload>) -> f64 {
    let topology = Topology::lan(1, DurationDist::Constant(SimDuration::ZERO));
    let config = PlatformConfig::default()
        .with_handler_service_time(DurationDist::Constant(SimDuration::ZERO));
    let mut platform = SimPlatform::new(topology, config);
    let node = NodeId::new(0);
    let target = platform.spawn(behavior, node);
    if !prime.is_empty() {
        platform.spawn(
            Box::new(Pump {
                target,
                payloads: prime,
            }),
            node,
        );
        platform.run_for(SimDuration::from_millis(50));
    }
    let count = payloads.len();
    platform.spawn(Box::new(Pump { target, payloads }), node);
    let began = Instant::now();
    platform.run_for(SimDuration::from_millis(50));
    let ns = began.elapsed().as_nanos() as f64 / count as f64;
    assert!(
        platform.stats().messages_delivered >= count as u64,
        "the pumped messages were handled"
    );
    ns
}

fn handlers(m: &mut Metrics) {
    let median_of = |f: &dyn Fn() -> f64| median(&(0..BATCHES).map(|_| f()).collect::<Vec<_>>());
    let filler = || vec![Payload::encode(&0u8); HANDLER_MSGS];
    let event_ns = median_of(&|| pumped_ns(Box::new(Sink), Vec::new(), filler()));
    m.set("sim.event_ns", event_ns);

    let hagent = AgentId::new(u64::MAX - 1);
    let node = NodeId::new(0);
    let hf = grown_hash_function();
    let resolves = || -> Vec<Payload> {
        (0..HANDLER_MSGS as u64)
            .map(|i| {
                Wire::Resolve {
                    target: AgentId::new(i),
                    token: Some(i),
                    corr: None,
                }
                .payload()
            })
            .collect()
    };
    // A resolve is two simulator events: the request and the answer.
    let lhagent = median_of(&|| {
        let lh = LHAgentBehavior::new(hf.clone(), hagent, node, SharedSchemeStats::new());
        pumped_ns(Box::new(lh), Vec::new(), resolves())
    });
    m.set("core.lhagent_resolve_ns", lhagent - 2.0 * event_ns);

    // One IAgent owning the whole key space, thresholds out of reach so it
    // never asks for a split.
    let quiet = LocationConfig {
        merge_enabled: false,
        ..LocationConfig::default().with_thresholds(1e15, 1.0)
    };
    let iagent = || {
        let hf = HashFunction::initial(AgentId::new(0), node);
        IAgentBehavior::initial(quiet.clone(), hagent, node, hf, SharedSchemeStats::new())
    };
    let registers = || -> Vec<Payload> {
        (0..IAGENT_RECORDS)
            .map(|i| {
                Wire::Register {
                    agent: AgentId::new(1000 + i),
                    node,
                }
                .payload()
            })
            .collect()
    };
    let locate = median_of(&|| {
        let locates = (0..HANDLER_MSGS as u64)
            .map(|i| {
                Wire::Locate {
                    target: AgentId::new(1000 + i % IAGENT_RECORDS),
                    token: i,
                    reply_node: node,
                    freshness: Freshness::Any,
                    corr: None,
                }
                .payload()
            })
            .collect();
        pumped_ns(Box::new(iagent()), registers(), locates)
    });
    m.set("core.iagent_locate_ns", locate - 2.0 * event_ns);
    // An update is answered by nothing: one event.
    let update = median_of(&|| {
        let updates = (0..HANDLER_MSGS as u64)
            .map(|i| {
                Wire::Update {
                    agent: AgentId::new(1000 + i % IAGENT_RECORDS),
                    node,
                }
                .payload()
            })
            .collect();
        pumped_ns(Box::new(iagent()), registers(), updates)
    });
    m.set("core.iagent_update_ns", update - event_ns);
}

/// Shared between a live probe agent and the thread waiting on it.
#[derive(Default)]
struct Scoreboard {
    done: AtomicU64,
    samples: Mutex<Vec<u32>>,
}

/// Bounces a message off `peer` `rounds` times, then reports the total
/// nanoseconds.
struct Pinger {
    peer: (AgentId, NodeId),
    left: u64,
    began: Option<Instant>,
    board: Arc<Scoreboard>,
}

impl Agent for Pinger {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        let began = *self.began.get_or_insert_with(Instant::now);
        if self.left == 0 {
            let ns = began.elapsed().as_nanos() as u64;
            self.board.done.store(ns.max(1), Ordering::Release);
            return;
        }
        self.left -= 1;
        ctx.send(self.peer.0, self.peer.1, payload.clone());
    }
}

/// Returns every message to its sender, which it is told lives on `home`.
struct Ponger {
    home: NodeId,
}

impl Agent for Ponger {
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        ctx.send(from, self.home, payload.clone());
    }
}

/// Hops between two nodes, timing each dispatch → `on_arrival`.
struct Hopper {
    left: u64,
    dispatched: Instant,
    board: Arc<Scoreboard>,
}

impl Hopper {
    fn hop(&mut self, ctx: &mut AgentCtx<'_>) {
        self.dispatched = Instant::now();
        ctx.dispatch(NodeId::new(1 - ctx.node().raw()));
    }
}

impl Agent for Hopper {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.hop(ctx);
    }

    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        let ns = self.dispatched.elapsed().as_nanos() as u32;
        self.board.samples.lock().expect("scoreboard").push(ns);
        if self.left == 0 {
            self.board.done.store(1, Ordering::Release);
            return;
        }
        self.left -= 1;
        self.hop(ctx);
    }
}

fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "live probe stuck: {what}");
        sleep(Duration::from_micros(200));
    }
}

/// Nanoseconds per one-way hop between a pinger on node 0 and a ponger on
/// `peer_node`.
fn hop_ns(peer_node: u32, rounds: u64) -> f64 {
    let platform = LivePlatform::new(2);
    let board = Arc::new(Scoreboard::default());
    let ponger = platform.spawn(
        Box::new(Ponger {
            home: NodeId::new(0),
        }),
        NodeId::new(peer_node),
    );
    let pinger = platform.spawn(
        Box::new(Pinger {
            peer: (ponger, NodeId::new(peer_node)),
            left: rounds,
            began: None,
            board: Arc::clone(&board),
        }),
        NodeId::new(0),
    );
    wait_for("agents activate", || platform.stats().agents_activated == 2);
    platform.post(pinger, Payload::encode(&0u8));
    wait_for("ping-pong", || board.done.load(Ordering::Acquire) != 0);
    platform.shutdown();
    board.done.load(Ordering::Acquire) as f64 / (2 * rounds) as f64
}

fn live_platform(m: &mut Metrics) {
    m.set("platform.local_hop_ns", hop_ns(0, 200_000));
    m.set("platform.cross_hop_us", hop_ns(1, 20_000) / 1e3);

    // One-way flood from an outside driver into an empty handler.
    {
        const FLOOD: u64 = 500_000;
        let platform = LivePlatform::new(2);
        let sink = platform.spawn(Box::new(Sink), NodeId::new(1));
        wait_for("sink activates", || platform.stats().agents_activated == 1);
        let payload = Payload::encode(&0u8);
        let mut handle = platform.handle();
        let began = Instant::now();
        for _ in 0..FLOOD {
            handle.post(sink, payload.clone());
        }
        handle.flush();
        wait_for("flood drains", || {
            platform.stats().messages_delivered == FLOOD
        });
        m.set(
            "platform.post_per_s",
            FLOOD as f64 / began.elapsed().as_secs_f64(),
        );
        platform.shutdown();
    }

    // Spawn rate, then registry lookups over what was spawned.
    {
        const POPULATION: u64 = 20_000;
        let platform = LivePlatform::new(2);
        let began = Instant::now();
        let ids: Vec<AgentId> = (0..POPULATION)
            .map(|i| platform.spawn(Box::new(Sink), NodeId::new((i % 2) as u32)))
            .collect();
        wait_for("population activates", || {
            platform.stats().agents_activated == POPULATION
        });
        m.set(
            "platform.spawn_per_s",
            POPULATION as f64 / began.elapsed().as_secs_f64(),
        );
        let mut handle = platform.handle();
        m.set(
            "platform.registry_locate_ns",
            ns_per_call(1_000_000, |i| {
                handle.locate(ids[(i.wrapping_mul(0x9e37_79b9) % POPULATION) as usize])
            }),
        );
        drop(handle);
        platform.shutdown();
    }

    // Migration: dispatch on one node thread to `on_arrival` on the other.
    {
        const HOPS: u64 = 5_000;
        let platform = LivePlatform::new(2);
        let board = Arc::new(Scoreboard::default());
        platform.spawn(
            Box::new(Hopper {
                left: HOPS,
                dispatched: Instant::now(),
                board: Arc::clone(&board),
            }),
            NodeId::new(0),
        );
        wait_for("hopper finishes", || {
            board.done.load(Ordering::Acquire) != 0
        });
        platform.shutdown();
        let mut samples = std::mem::take(&mut *board.samples.lock().expect("scoreboard"));
        samples.sort_unstable();
        m.set("platform.migrate_p50_us", percentile(&samples, 50.0) / 1e3);
    }
}

/// Runs every probe; a few seconds in all.
pub fn run_probes() -> Metrics {
    let mut m = Metrics::default();
    // Calibrate before and after: the probes between the two readings ran
    // on a machine at least as slow as the slower one.
    let before = calibration_ns();
    hashtree_and_wire(&mut m);
    handlers(&mut m);
    live_platform(&mut m);
    m.set("harness.calib_ns", before.max(calibration_ns()));
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probed_tree_has_the_advertised_size() {
        let hf = grown_hash_function();
        assert_eq!(hf.tree.iagent_count(), TREE_LEAVES);
        hf.validate().expect("tree, directory and table agree");
    }
}
