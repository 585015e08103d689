//! The live runtime: the same [`Agent`] behaviours on real threads.
//!
//! Where [`SimPlatform`](crate::SimPlatform) executes agents on a virtual
//! clock for deterministic experiments, [`LivePlatform`] runs one OS
//! thread per node, connected by channels: messages really travel between
//! threads, migrations really move the boxed behaviour to another thread,
//! and timers fire on the wall clock. The paper's implementation ran on
//! Aglets over a real LAN; this runtime is the analogous "for real"
//! deployment mode, sized for millions of registered agents (see
//! `DESIGN.md` §13 for the design and `benchmark/` for protocol-level
//! locate and move numbers).
//!
//! Semantics match the simulated runtime:
//!
//! * messages are addressed to `(agent, node)`; if the agent is not there,
//!   the sender's `on_delivery_failed` fires;
//! * timers follow their agent across migrations;
//! * disposal runs `on_dispose` and drops the behaviour;
//! * the books always balance: by the time [`LivePlatform::shutdown`]
//!   returns, every message counted sent has been counted delivered or
//!   failed — shutdown joins the node threads and then bounces whatever
//!   was still queued behind their `Shutdown` markers.
//!
//! Costs differ: latencies are whatever the machine delivers (no modelled
//! network). Runs are therefore *timing*-nondeterministic — message
//! interleavings vary run to run, so use the simulated runtime for
//! experiments that must reproduce bit-for-bit — but every run obeys the
//! delivery/bounce/migration semantics above at every tuning setting.
//!
//! ## Scaling machinery
//!
//! Three mechanisms keep the hot paths off global synchronisation; none
//! changes semantics. The first two are tunable through [`LiveConfig`]:
//!
//! * **Sharded registry** (`shards`, default auto = 1024): the
//!   `AgentId -> Whereabouts` map is split into power-of-two shards
//!   picked by [`AgentId::shard_of`], each under its own lock with a
//!   generation stamp ([`registry::ShardedRegistry`]). `shards = 1`
//!   reproduces the old single-`RwLock` registry.
//! * **Batched channels** (`batch_max`, default 64): senders coalesce
//!   per-destination `Deliver` bursts into one `DeliverBatch` channel
//!   op, flushed at the size cap or as soon as the sender goes idle — a
//!   lone message never waits ([`batch::OutBatch`]). Node threads drain
//!   up to [`DRAIN_BUDGET`] (256) queued messages per wake-up before
//!   flushing their own output. `batch_max = 1` reproduces
//!   one-channel-op-per-message.
//! * **Route caching** ([`ROUTE_CACHE_BITS`], 2^20 slots): each
//!   [`LiveHandle`] revalidates cached `(agent, node)` routes against
//!   the owning shard's generation with a single atomic load, so
//!   steady-state lookups of agents that haven't moved take zero locks
//!   ([`route_cache::RouteCache`]).
//!
//! A node thread whose behaviour panics is contained, not leaked: the
//! panic is caught at the node loop, the node is marked dead, its queued
//! and future deliveries bounce back to their senders'
//! `on_delivery_failed`, and its residents disappear from the registry
//! (their `on_dispose` does *not* run — the node died with them).
//! Pending timers whose agents already migrated elsewhere are not lost
//! with the dead node's heap: they hop, deadline intact, to wherever
//! their agent now is.

mod batch;
mod registry;
mod route_cache;
mod telemetry;

use std::collections::{BinaryHeap, HashMap};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender};

use agentrack_sim::{NodeId, SimDuration, SimRng, SimTime, TraceSink};

use crate::agent::{Action, Agent, AgentCtx};
use crate::config::LiveConfig;
use crate::id::{AgentId, TimerId};
use crate::payload::{Payload, PayloadForm};

use batch::{DeliverItem, OutBatch};
use registry::{ShardedRegistry, Whereabouts};
pub use route_cache::RouteCache;
use telemetry::Telemetry;
pub use telemetry::{NodeHealth, OpKind, SlowOp, TelemetrySnapshot};

/// The `from` id used for messages injected from outside the agent world
/// (no failure notice can be routed back to it).
const EXTERNAL: AgentId = AgentId::new(u64::MAX);

/// Upper bound on messages a node thread drains per wake-up before it
/// flushes its own outgoing batches and re-checks timers. Bounds both
/// timer latency and batch residency.
const DRAIN_BUDGET: usize = 256;

/// log2 of each [`LiveHandle`]'s route-cache slot count: 2^20 packed
/// 16-byte `(agent, node, generation)` slots arranged as 2-way sets,
/// 16 MiB per handle.
const ROUTE_CACHE_BITS: u8 = 20;

/// Why a behaviour is being handed to a node thread.
enum WelcomeKind {
    Creation,
    Arrival,
}

enum NodeMsg {
    Deliver(DeliverItem),
    /// A coalesced burst of deliveries for this node (see [`batch`]).
    DeliverBatch(Vec<DeliverItem>),
    /// A delivery failure notice for `notify`.
    Failure {
        notify: AgentId,
        to: AgentId,
        node: NodeId,
        payload: Payload,
    },
    /// A behaviour arriving at this node (creation or migration).
    Welcome {
        id: AgentId,
        behavior: Box<dyn Agent>,
        kind: WelcomeKind,
        /// When the behaviour was shipped (ns since platform start);
        /// `0` when telemetry is off. Feeds the migration-latency
        /// histogram for arrivals.
        sent_ns: u64,
    },
    /// A timer following its agent to this node: either it fired where
    /// the agent no longer lives, or its node died while the agent was
    /// already elsewhere. `at` preserves the original deadline so a
    /// forwarded unexpired timer does not fire early.
    TimerHop {
        agent: AgentId,
        timer: TimerId,
        at: Instant,
    },
    Shutdown,
}

/// Global activity counters. Delivered/failed live in *per-node* cells
/// instead ([`telemetry::NodeCells`]): they are the counters the
/// conservation invariant is about, so the platform totals are defined
/// as the sum over nodes rather than kept in a second register that
/// could drift (it also spreads the two hottest counters across node
/// cache lines).
#[derive(Default)]
struct LiveCounters {
    messages_sent: AtomicU64,
    migrations: AtomicU64,
    agents_created: AtomicU64,
    agents_activated: AtomicU64,
    agents_disposed: AtomicU64,
    nodes_dead: AtomicU64,
}

/// Snapshot of live-runtime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Messages submitted by agents.
    pub messages_sent: u64,
    /// Messages whose handler ran.
    pub messages_delivered: u64,
    /// Messages that bounced.
    pub messages_failed: u64,
    /// Migrations performed.
    pub migrations: u64,
    /// Agents created.
    pub agents_created: u64,
    /// Agents whose `on_create` has run (creation welcomes processed).
    pub agents_activated: u64,
    /// Agents disposed.
    pub agents_disposed: u64,
    /// Node threads killed by a panicking behaviour.
    pub nodes_dead: u64,
    /// Route-cache lookups answered without locking, summed over every
    /// [`LiveHandle`] that has flushed or been dropped.
    pub route_cache_hits: u64,
    /// Route-cache lookups that took the sharded-map path, likewise.
    pub route_cache_misses: u64,
    /// Structured-trace records lost to ring overflow (see
    /// [`TraceSink::dropped`]); a shutdown with a non-zero count warns
    /// on stderr.
    pub trace_dropped: u64,
}

struct Shared {
    senders: Vec<Sender<NodeMsg>>,
    registry: ShardedRegistry,
    /// `dead[n]` is set when node `n`'s thread died to a behaviour panic;
    /// deliveries addressed to it bounce immediately at the sender.
    dead: Box<[AtomicBool]>,
    next_agent_id: AtomicU64,
    counters: LiveCounters,
    telemetry: Telemetry,
    start: Instant,
    trace: TraceSink,
    config: LiveConfig,
}

impl Shared {
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ns())
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// The current time if telemetry wants stamps, else the 0 sentinel —
    /// the hot paths' "maybe read the clock" in one branch.
    fn stamp_ns(&self) -> u64 {
        if self.telemetry.enabled {
            self.now_ns()
        } else {
            0
        }
    }

    fn node_dead(&self, node: NodeId) -> bool {
        self.dead[node.index()].load(Ordering::Acquire)
    }

    /// Ships a burst of deliveries to `dest` as one channel operation —
    /// or bounces the lot if the destination cannot take it.
    fn ship(&self, dest: NodeId, mut items: Vec<DeliverItem>) {
        if self.telemetry.enabled {
            self.telemetry
                .batch_occupancy
                .record_value(items.len() as u64);
        }
        let msg = if items.len() == 1 {
            NodeMsg::Deliver(items.pop().expect("len checked"))
        } else {
            NodeMsg::DeliverBatch(items)
        };
        self.send_to_node(dest, msg);
    }

    fn send_to_node(&self, node: NodeId, msg: NodeMsg) {
        if self.node_dead(node) {
            self.discard(node, msg);
            return;
        }
        // The receiver can only be gone once the platform itself has been
        // torn down (node threads park their receivers in their join
        // handles until the final shutdown drain, so mere thread exit
        // never closes a channel). Take the message back out of the
        // error and account for it instead of losing it.
        if let Err(SendError(msg)) = self.senders[node.index()].send(msg) {
            self.discard(node, msg);
        } else if self.telemetry.enabled {
            self.telemetry.nodes[node.index()]
                .chan_in
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts for a message that can never be processed at `node` (the
    /// node is dead, or the platform has shut down): deliveries bounce to
    /// their senders so `sent == delivered + failed` keeps holding, a
    /// behaviour in flight is unregistered so lookups say "gone" instead
    /// of pointing at a thread that will never answer, and the uncounted
    /// rest (failure notices, timer hops, shutdown markers) is droppable.
    fn discard(&self, node: NodeId, msg: NodeMsg) {
        match msg {
            NodeMsg::Deliver(item) => self.fail_delivery(node, item),
            NodeMsg::DeliverBatch(items) => {
                for item in items {
                    self.fail_delivery(node, item);
                }
            }
            NodeMsg::Welcome { id, .. } => self.registry.remove(id),
            NodeMsg::Failure { .. } | NodeMsg::TimerHop { .. } | NodeMsg::Shutdown => {}
        }
    }

    /// Counts a failed delivery and, for agent senders, routes the
    /// failure notice back to wherever the sender now is.
    fn fail_delivery(&self, at: NodeId, item: DeliverItem) {
        self.bounce(item.from, item.to, at, item.payload);
    }

    /// Routes a delivery failure back to the sender, wherever it now is.
    /// The failure is charged to `node` — the node at which delivery was
    /// attempted (or would have been) — so per-node failure counts sum
    /// to the platform total with each bounce counted exactly once.
    fn bounce(&self, from: AgentId, to: AgentId, node: NodeId, payload: Payload) {
        self.telemetry.nodes[node.index()]
            .failed
            .fetch_add(1, Ordering::Relaxed);
        if from == EXTERNAL {
            return;
        }
        if let Some(Whereabouts::Active(sender_node)) = self.registry.get(from) {
            if self.node_dead(sender_node) {
                return; // the would-be notifee died too: drop the notice
            }
            self.send_to_node(
                sender_node,
                NodeMsg::Failure {
                    notify: from,
                    to,
                    node,
                    payload,
                },
            );
        }
    }
}

/// A multi-threaded agent platform: one thread per node.
///
/// # Examples
///
/// ```
/// use agentrack_platform::{Agent, AgentCtx, LivePlatform, NodeId, Payload};
/// use std::sync::{Arc, Mutex};
/// use std::time::Duration;
///
/// struct Greeter(Arc<Mutex<Vec<String>>>);
/// impl Agent for Greeter {
///     fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: agentrack_platform::AgentId, payload: &Payload) {
///         self.0.lock().unwrap().push(payload.decode().unwrap());
///     }
/// }
///
/// let platform = LivePlatform::new(2);
/// let log = Arc::new(Mutex::new(Vec::new()));
/// let greeter = platform.spawn(Box::new(Greeter(log.clone())), NodeId::new(1));
/// platform.post(greeter, Payload::encode(&"hello across threads"));
/// platform.run_for(Duration::from_millis(100));
/// platform.shutdown();
/// assert_eq!(log.lock().unwrap().as_slice(), ["hello across threads"]);
/// ```
pub struct LivePlatform {
    shared: Arc<Shared>,
    /// Each node thread returns its channel receiver when it exits, so
    /// the channel stays open (sends keep succeeding, nothing is dropped
    /// on the floor) until [`halt`](LivePlatform::halt) has joined the
    /// thread and drained the backlog into the failure accounting.
    handles: Vec<JoinHandle<Receiver<NodeMsg>>>,
    /// Stop signal + join handle of the telemetry aggregator thread
    /// (present only when telemetry is on).
    aggregator: Option<(Sender<()>, JoinHandle<()>)>,
    node_count: u32,
}

impl LivePlatform {
    /// Starts `node_count` node threads with default tuning.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    #[must_use]
    pub fn new(node_count: u32) -> Self {
        Self::with_config(node_count, LiveConfig::default(), TraceSink::disabled())
    }

    /// Starts `node_count` node threads with a structured-event trace
    /// sink visible to every handler through [`AgentCtx::trace`]. The
    /// sink is thread-safe; events from different nodes interleave in
    /// wall-clock arrival order.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    #[must_use]
    pub fn with_trace(node_count: u32, trace: TraceSink) -> Self {
        Self::with_config(node_count, LiveConfig::default(), trace)
    }

    /// Starts `node_count` node threads with explicit [`LiveConfig`]
    /// tuning (sharding, batching, route caching) and a trace sink.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    #[must_use]
    pub fn with_config(node_count: u32, config: LiveConfig, trace: TraceSink) -> Self {
        assert!(node_count > 0, "live platform needs at least one node");
        let mut senders = Vec::with_capacity(node_count as usize);
        let mut receivers: Vec<Receiver<NodeMsg>> = Vec::with_capacity(node_count as usize);
        for _ in 0..node_count {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }
        let shared = Arc::new(Shared {
            senders,
            registry: ShardedRegistry::new(config.effective_shards()),
            dead: (0..node_count)
                .map(|_| AtomicBool::new(false))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            next_agent_id: AtomicU64::new(0),
            counters: LiveCounters::default(),
            telemetry: Telemetry::new(node_count as usize, &config),
            start: Instant::now(),
            trace,
            config,
        });
        let aggregator = if config.telemetry {
            let (stop_tx, stop_rx) = unbounded::<()>();
            let agg_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name("agentrack-telemetry".into())
                .spawn(move || loop {
                    match stop_rx.recv_deadline(Instant::now() + telemetry::SNAPSHOT_INTERVAL) {
                        Err(RecvTimeoutError::Timeout) => {
                            let snap = telemetry::snapshot(&agg_shared);
                            *agg_shared.telemetry.latest.lock() = Some(snap);
                        }
                        _ => return, // stop signal, or the platform is gone
                    }
                })
                .expect("spawn telemetry aggregator");
            Some((stop_tx, handle))
        } else {
            None
        };
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let shared = Arc::clone(&shared);
                let node = NodeId::new(i as u32);
                std::thread::Builder::new()
                    .name(format!("agentrack-{node}"))
                    .spawn(move || node_loop(node, rx, shared))
                    .expect("spawn node thread")
            })
            .collect();
        LivePlatform {
            shared,
            handles,
            aggregator,
            node_count,
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    /// The tuning this platform runs with.
    #[must_use]
    pub fn config(&self) -> LiveConfig {
        self.shared.config
    }

    /// The id the next externally spawned agent will receive.
    #[must_use]
    pub fn peek_next_agent_id(&self) -> u64 {
        self.shared.next_agent_id.load(Ordering::Relaxed)
    }

    /// Creates an agent at `node`; its `on_create` runs on that node's
    /// thread.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn spawn(&self, behavior: Box<dyn Agent>, node: NodeId) -> AgentId {
        assert!(node.raw() < self.node_count, "spawn at unknown node");
        let id = AgentId::new(self.shared.next_agent_id.fetch_add(1, Ordering::Relaxed));
        self.shared.registry.insert(id, Whereabouts::Creating(node));
        self.shared
            .counters
            .agents_created
            .fetch_add(1, Ordering::Relaxed);
        self.shared.send_to_node(
            node,
            NodeMsg::Welcome {
                id,
                behavior,
                kind: WelcomeKind::Creation,
                sent_ns: 0,
            },
        );
        id
    }

    /// Injects a message from outside the agent world (no failure notice
    /// comes back). Returns `false` if the target is unknown.
    ///
    /// Each call is one channel operation; external drivers that inject
    /// at rate should use a [`LiveHandle`], which batches and caches.
    pub fn post(&self, to: AgentId, payload: Payload) -> bool {
        let Some(w) = self.shared.registry.get(to) else {
            return false;
        };
        self.shared
            .counters
            .messages_sent
            .fetch_add(1, Ordering::Relaxed);
        self.shared.ship(
            w.node(),
            vec![DeliverItem {
                to,
                from: EXTERNAL,
                payload: payload.into_text(),
                enqueued_ns: self.shared.stamp_ns(),
            }],
        );
        true
    }

    /// A sender/locator handle for one external driver thread, with its
    /// own route cache and outgoing batch buffer. Cheap to create; make
    /// one per thread.
    #[must_use]
    pub fn handle(&self) -> LiveHandle {
        LiveHandle {
            cache: RouteCache::new(ROUTE_CACHE_BITS),
            out: OutBatch::new(self.node_count as usize, self.shared.config.batch_max),
            telemetry_on: self.shared.telemetry.enabled,
            locate_tick: 0,
            published_hits: 0,
            published_misses: 0,
            shared: Arc::clone(&self.shared),
        }
    }

    /// The node an agent currently occupies, if it exists.
    #[must_use]
    pub fn agent_node(&self, id: AgentId) -> Option<NodeId> {
        self.shared.registry.get(id).map(Whereabouts::node)
    }

    /// Number of live agents.
    #[must_use]
    pub fn agent_count(&self) -> usize {
        self.shared.registry.len()
    }

    /// Lets the world run for a wall-clock duration.
    pub fn run_for(&self, duration: Duration) {
        std::thread::sleep(duration);
    }

    /// Activity counters so far. Delivered/failed are summed from the
    /// per-node cells — the same cells a [`TelemetrySnapshot`] reports —
    /// so the two views agree at quiesce by construction.
    #[must_use]
    pub fn stats(&self) -> LiveStats {
        let c = &self.shared.counters;
        let t = &self.shared.telemetry;
        LiveStats {
            messages_sent: c.messages_sent.load(Ordering::Relaxed),
            messages_delivered: t
                .nodes
                .iter()
                .map(|n| n.delivered.load(Ordering::Relaxed))
                .sum(),
            messages_failed: t
                .nodes
                .iter()
                .map(|n| n.failed.load(Ordering::Relaxed))
                .sum(),
            migrations: c.migrations.load(Ordering::Relaxed),
            agents_created: c.agents_created.load(Ordering::Relaxed),
            agents_activated: c.agents_activated.load(Ordering::Relaxed),
            agents_disposed: c.agents_disposed.load(Ordering::Relaxed),
            nodes_dead: c.nodes_dead.load(Ordering::Relaxed),
            route_cache_hits: t.route_hits.load(Ordering::Relaxed),
            route_cache_misses: t.route_misses.load(Ordering::Relaxed),
            trace_dropped: self.shared.trace.dropped(),
        }
    }

    /// Stops all node threads and returns the final statistics.
    ///
    /// The returned stats always reconcile: `messages_sent ==
    /// messages_delivered + messages_failed`. Messages still queued when
    /// a node reached its `Shutdown` marker (or that raced a dying node)
    /// are bounced — counted failed — during the final drain.
    pub fn shutdown(mut self) -> LiveStats {
        self.halt();
        self.stats()
    }

    /// Like [`shutdown`](LivePlatform::shutdown), but also returns the
    /// final [`TelemetrySnapshot`] — taken *after* the node threads have
    /// joined and the backlog has been drained, so it is exact: its
    /// totals equal the returned stats, and its per-node rows sum to
    /// those totals. `None` if telemetry was off.
    pub fn shutdown_telemetry(mut self) -> (LiveStats, Option<TelemetrySnapshot>) {
        self.halt();
        let snap = self
            .shared
            .config
            .telemetry
            .then(|| telemetry::snapshot(&self.shared));
        (self.stats(), snap)
    }

    /// A fresh [`TelemetrySnapshot`] built now, on the calling thread.
    /// `None` when telemetry is off. Counters in the snapshot are
    /// per-node-consistent (totals are sums of the rows returned) and
    /// monotonic between calls.
    #[must_use]
    pub fn telemetry_snapshot(&self) -> Option<TelemetrySnapshot> {
        self.shared
            .config
            .telemetry
            .then(|| telemetry::snapshot(&self.shared))
    }

    /// The aggregator thread's most recently published snapshot, if it
    /// has published one yet. Cheaper than building a fresh one when a
    /// view up to 200 ms stale is acceptable.
    #[must_use]
    pub fn latest_telemetry(&self) -> Option<TelemetrySnapshot> {
        self.shared.telemetry.latest.lock().clone()
    }

    /// Sends every node its shutdown marker, joins the threads, then
    /// drains what their channels still hold so the accounting closes.
    fn halt(&mut self) {
        if self.handles.is_empty() {
            return; // already halted (shutdown() followed by Drop)
        }
        // Stop the aggregator first so no snapshot races the teardown's
        // dead-flag flips below; the final exact snapshot is published
        // once the books are closed.
        if let Some((stop, handle)) = self.aggregator.take() {
            let _ = stop.send(());
            let _ = handle.join();
        }
        for (i, sender) in self.shared.senders.iter().enumerate() {
            // Count the marker as enqueued: whoever takes it out (the
            // node loop, or the final drain below) counts it back out,
            // and the per-node channel books close exactly.
            if sender.send(NodeMsg::Shutdown).is_ok() && self.shared.telemetry.enabled {
                self.shared.telemetry.nodes[i]
                    .chan_in
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        let receivers: Vec<_> = self.handles.drain(..).map(JoinHandle::join).collect();
        // All threads are gone: nothing will ever be processed again.
        // Mark every node dead so late senders (a still-live LiveHandle,
        // say) bounce at the send site rather than filling dead queues.
        for dead in self.shared.dead.iter() {
            dead.store(true, Ordering::Release);
        }
        // Bounce the leftovers: deliveries queued behind a Shutdown (or
        // that raced a dying node's drain) were counted sent, so they
        // must be counted failed for the books to balance.
        for (i, rx) in receivers.into_iter().enumerate() {
            let Ok(rx) = rx else {
                continue; // the node loop itself crashed: nothing to drain
            };
            let node = NodeId::new(i as u32);
            while let Ok(msg) = rx.try_recv() {
                if self.shared.telemetry.enabled {
                    self.shared.telemetry.nodes[i]
                        .chan_out
                        .fetch_add(1, Ordering::Relaxed);
                }
                self.shared.discard(node, msg);
            }
        }
        let dropped = self.shared.trace.dropped();
        if dropped > 0 {
            eprintln!(
                "warning: live trace ring dropped {dropped} records to overflow \
                 (grow the TraceSink capacity to keep them)"
            );
        }
        if self.shared.telemetry.enabled {
            let snap = telemetry::snapshot(&self.shared);
            *self.shared.telemetry.latest.lock() = Some(snap);
        }
    }
}

impl std::fmt::Debug for LivePlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LivePlatform")
            .field("nodes", &self.node_count)
            .field("agents", &self.agent_count())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Drop for LivePlatform {
    fn drop(&mut self) {
        self.halt();
    }
}

/// An external driver's sending/locating handle: a route cache plus an
/// outgoing batch buffer over the platform's shared state.
///
/// Make one per driver thread (it is `Send` but deliberately not
/// `Clone`/`Sync`: the cache and buffer are single-owner by design).
/// Dropping the handle flushes anything still buffered.
///
/// # Examples
///
/// ```
/// use agentrack_platform::{Agent, LivePlatform, NodeId, Payload};
///
/// struct Sink;
/// impl Agent for Sink {}
///
/// let platform = LivePlatform::new(2);
/// let id = platform.spawn(Box::new(Sink), NodeId::new(1));
/// let mut handle = platform.handle();
/// assert_eq!(handle.locate(id), Some(NodeId::new(1)));
/// assert!(handle.post(id, Payload::encode(&1u32)));
/// handle.flush();
/// platform.shutdown();
/// ```
pub struct LiveHandle {
    cache: RouteCache,
    out: OutBatch,
    /// Cached `config.telemetry` so the hot paths branch on a local.
    telemetry_on: bool,
    /// Locate call counter driving the 1-in-`LOCATE_SAMPLE_EVERY`
    /// latency sampling (the locate fast path is itself only tens of
    /// nanoseconds — stamping every call would dominate it).
    locate_tick: u64,
    /// Cache hit/miss counts already folded into the platform totals by
    /// earlier [`flush`](LiveHandle::flush) calls.
    published_hits: u64,
    published_misses: u64,
    shared: Arc<Shared>,
}

impl LiveHandle {
    /// Where the registry believes `id` is — from the route cache when
    /// the generation token proves the slot current, otherwise through
    /// the sharded map. `None` if the agent is unknown or disposed.
    pub fn locate(&mut self, id: AgentId) -> Option<NodeId> {
        if self.telemetry_on {
            self.locate_tick = self.locate_tick.wrapping_add(1);
            if self
                .locate_tick
                .is_multiple_of(telemetry::LOCATE_SAMPLE_EVERY)
            {
                let t0 = Instant::now();
                let found = self.cache.resolve(id, &self.shared.registry);
                self.shared
                    .telemetry
                    .locate_ns
                    .record_value(t0.elapsed().as_nanos() as u64);
                return found;
            }
        }
        self.cache.resolve(id, &self.shared.registry)
    }

    /// Queues a message to `id` from outside the agent world (no failure
    /// notice comes back; a stale route costs a bounce, counted in
    /// [`LiveStats::messages_failed`]). Ships when the per-destination
    /// batch cap is reached or on [`flush`](LiveHandle::flush)/drop.
    /// Returns `false` if the target is unknown.
    pub fn post(&mut self, to: AgentId, payload: Payload) -> bool {
        let Some(node) = self.cache.resolve(to, &self.shared.registry) else {
            return false;
        };
        self.shared
            .counters
            .messages_sent
            .fetch_add(1, Ordering::Relaxed);
        self.out.push(
            &self.shared,
            node,
            DeliverItem {
                to,
                from: EXTERNAL,
                payload: payload.into_text(),
                enqueued_ns: self.shared.stamp_ns(),
            },
        );
        true
    }

    /// Ships every buffered message now, and folds this handle's
    /// route-cache hit/miss counts into the platform totals
    /// ([`LiveStats::route_cache_hits`]/`route_cache_misses`) so they
    /// outlive the handle.
    pub fn flush(&mut self) {
        self.out.flush(&self.shared);
        let (hits, misses) = (self.cache.hits(), self.cache.misses());
        let t = &self.shared.telemetry;
        t.route_hits
            .fetch_add(hits - self.published_hits, Ordering::Relaxed);
        t.route_misses
            .fetch_add(misses - self.published_misses, Ordering::Relaxed);
        self.published_hits = hits;
        self.published_misses = misses;
    }

    /// Route-cache lookups answered without locking.
    #[must_use]
    pub fn cache_hits(&self) -> u64 {
        self.cache.hits()
    }

    /// Route-cache lookups that took the sharded-map path.
    #[must_use]
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses()
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.flush();
    }
}

impl std::fmt::Debug for LiveHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveHandle")
            .field("cache", &self.cache)
            .field("out", &self.out)
            .finish()
    }
}

/// A pending wall-clock timer, ordered soonest-first in a max-heap.
struct PendingTimer {
    at: Instant,
    agent: AgentId,
    timer: TimerId,
}

impl PartialEq for PendingTimer {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at
    }
}
impl Eq for PendingTimer {}
impl PartialOrd for PendingTimer {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PendingTimer {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.at.cmp(&self.at) // reversed: earliest first
    }
}

/// Everything a node thread owns.
struct NodeState {
    node: NodeId,
    residents: HashMap<AgentId, Box<dyn Agent>>,
    timers: BinaryHeap<PendingTimer>,
    rng: SimRng,
    out: OutBatch,
    next_agent_id: u64,
    next_timer_id: u64,
}

/// What a processed message asks the node loop to do next.
enum Flow {
    Continue,
    Shutdown,
    /// A behaviour panicked: contain it (mark the node dead, bounce the
    /// backlog) and exit the thread.
    Dead,
}

/// Runs one node until shutdown or death. Returns the channel receiver
/// (instead of dropping it) so the platform can drain and account for
/// whatever was still queued when the thread stopped processing.
fn node_loop(node: NodeId, rx: Receiver<NodeMsg>, shared: Arc<Shared>) -> Receiver<NodeMsg> {
    let mut state = NodeState {
        node,
        residents: HashMap::new(),
        timers: BinaryHeap::new(),
        rng: SimRng::seed_from(0x11fe ^ u64::from(node.raw())),
        out: OutBatch::new(shared.senders.len(), shared.config.batch_max),
        // Node-local id allocation from a per-node range (the shared counter
        // covers external spawns, which stay far below these offsets).
        next_agent_id: (u64::from(node.raw()) + 1) << 40,
        next_timer_id: (u64::from(node.raw()) + 1) << 40,
    };
    let tele = shared.telemetry.enabled;

    loop {
        if tele {
            shared.telemetry.nodes[node.index()]
                .wakeups
                .fetch_add(1, Ordering::Relaxed);
        }
        // Fire due timers, then wait for the next message or deadline.
        let now = Instant::now();
        while state.timers.peek().is_some_and(|t| t.at <= now) {
            let t = state.timers.pop().expect("peeked");
            if state.residents.contains_key(&t.agent) {
                let (due_ns, started_ns) = if tele {
                    let due =
                        t.at.checked_duration_since(shared.start)
                            .map_or(0, |d| d.as_nanos() as u64);
                    (due, shared.now_ns())
                } else {
                    (0, 0)
                };
                if invoke(&shared, &mut state, t.agent, |a, ctx| {
                    a.on_timer(ctx, t.timer)
                })
                .is_err()
                {
                    return die(&shared, state, rx);
                }
                if tele {
                    shared
                        .telemetry
                        .timer_lag_ns
                        .record_value(started_ns.saturating_sub(due_ns));
                    shared.telemetry.flight.record(SlowOp {
                        kind: OpKind::Timer,
                        node: node.raw(),
                        agent: t.agent.raw(),
                        enqueued_ns: due_ns,
                        started_ns,
                        ended_ns: shared.now_ns(),
                    });
                }
            } else {
                // The agent moved (or is mid-flight): forward the timer.
                match shared.registry.get(t.agent) {
                    Some(Whereabouts::Active(n)) if n != node => shared.send_to_node(
                        n,
                        NodeMsg::TimerHop {
                            agent: t.agent,
                            timer: t.timer,
                            at: t.at,
                        },
                    ),
                    Some(Whereabouts::InTransit(_) | Whereabouts::Creating(_)) => {
                        state.timers.push(PendingTimer {
                            at: Instant::now() + Duration::from_millis(1),
                            agent: t.agent,
                            timer: t.timer,
                        });
                    }
                    _ => {} // disposed, or stale local state: drop
                }
            }
        }

        // About to go idle (block on the channel): ship everything the
        // timer handlers above queued, or it would wait for the next
        // inbound message to flush it.
        state.out.flush(&shared);

        let first = match state.timers.peek().map(|t| t.at) {
            Some(d) => match rx.recv_deadline(d) {
                Ok(msg) => msg,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return rx,
            },
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => return rx,
            },
        };

        // Drain a bounded burst: the first (blocking) receive plus up to
        // `DRAIN_BUDGET - 1` already-queued messages, coalescing channel
        // wake-ups. The budget bounds how long timers and our own output
        // batches can sit while a flood keeps the queue non-empty.
        let mut msg = first;
        let mut drained = 1usize;
        loop {
            if tele {
                shared.telemetry.nodes[node.index()]
                    .chan_out
                    .fetch_add(1, Ordering::Relaxed);
            }
            match process(&shared, &mut state, msg) {
                Flow::Continue => {}
                Flow::Shutdown => {
                    // Output queued by handlers that already completed is
                    // real, counted traffic: ship it before exiting. What
                    // is still *inbound* behind the Shutdown stays in the
                    // channel for the platform's final drain.
                    state.out.flush(&shared);
                    return rx;
                }
                Flow::Dead => {
                    return die(&shared, state, rx);
                }
            }
            if drained >= DRAIN_BUDGET {
                if tele {
                    shared.telemetry.nodes[node.index()]
                        .drain_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                }
                break;
            }
            match rx.try_recv() {
                Ok(next) => {
                    msg = next;
                    drained += 1;
                }
                Err(_) => break,
            }
        }
        // Flush-on-idle: the burst is over (or the budget spent), so ship
        // everything our handlers queued. A single message therefore
        // still leaves in the same wake-up that produced it.
        state.out.flush(&shared);
    }
}

/// Handles one inbound message. Returns what the loop should do next.
fn process(shared: &Arc<Shared>, state: &mut NodeState, msg: NodeMsg) -> Flow {
    match msg {
        NodeMsg::Shutdown => Flow::Shutdown,
        NodeMsg::Welcome {
            id,
            behavior,
            kind,
            sent_ns,
        } => {
            state.residents.insert(id, behavior);
            shared.registry.insert(id, Whereabouts::Active(state.node));
            if matches!(kind, WelcomeKind::Creation) {
                shared
                    .counters
                    .agents_activated
                    .fetch_add(1, Ordering::Relaxed);
            }
            let stamped = sent_ns != 0 && shared.telemetry.enabled;
            let started_ns = if stamped { shared.now_ns() } else { 0 };
            match invoke(shared, state, id, |a, ctx| match kind {
                WelcomeKind::Creation => a.on_create(ctx),
                WelcomeKind::Arrival => a.on_arrival(ctx),
            }) {
                Ok(()) => {
                    if stamped {
                        let ended_ns = shared.now_ns();
                        shared
                            .telemetry
                            .move_ns
                            .record_value(ended_ns.saturating_sub(sent_ns));
                        shared.telemetry.flight.record(SlowOp {
                            kind: OpKind::Move,
                            node: state.node.raw(),
                            agent: id.raw(),
                            enqueued_ns: sent_ns,
                            started_ns,
                            ended_ns,
                        });
                    }
                    Flow::Continue
                }
                Err(()) => Flow::Dead,
            }
        }
        NodeMsg::Deliver(item) => deliver(shared, state, item),
        NodeMsg::DeliverBatch(items) => {
            let mut items = items.into_iter();
            for item in items.by_ref() {
                if let Flow::Dead = deliver(shared, state, item) {
                    // The rest of the batch can never be handled here:
                    // fail it back to the senders before dying.
                    for rest in items {
                        shared.fail_delivery(state.node, rest);
                    }
                    return Flow::Dead;
                }
            }
            Flow::Continue
        }
        NodeMsg::Failure {
            notify,
            to,
            node: failed_node,
            payload,
        } => {
            if state.residents.contains_key(&notify)
                && invoke(shared, state, notify, |a, ctx| {
                    a.on_delivery_failed(ctx, to, failed_node, &payload)
                })
                .is_err()
            {
                return Flow::Dead;
            }
            Flow::Continue
        }
        NodeMsg::TimerHop { agent, timer, at } => {
            state.timers.push(PendingTimer { at, agent, timer });
            Flow::Continue
        }
    }
}

/// Delivers one message to a resident, or bounces it.
fn deliver(shared: &Arc<Shared>, state: &mut NodeState, item: DeliverItem) -> Flow {
    let DeliverItem {
        to,
        from,
        payload,
        enqueued_ns,
    } = item;
    if state.residents.contains_key(&to) {
        shared.telemetry.nodes[state.node.index()]
            .delivered
            .fetch_add(1, Ordering::Relaxed);
        let stamped = enqueued_ns != 0 && shared.telemetry.enabled;
        let started_ns = if stamped { shared.now_ns() } else { 0 };
        match invoke(shared, state, to, |a, ctx| {
            a.on_message(ctx, from, &payload)
        }) {
            Ok(()) => {
                if stamped {
                    let ended_ns = shared.now_ns();
                    shared
                        .telemetry
                        .deliver_ns
                        .record_value(ended_ns.saturating_sub(enqueued_ns));
                    shared.telemetry.flight.record(SlowOp {
                        kind: OpKind::Deliver,
                        node: state.node.raw(),
                        agent: to.raw(),
                        enqueued_ns,
                        started_ns,
                        ended_ns,
                    });
                }
                Flow::Continue
            }
            Err(()) => Flow::Dead,
        }
    } else {
        shared.bounce(from, to, state.node, payload);
        Flow::Continue
    }
}

/// Contains a behaviour panic: marks the node dead, unregisters its
/// residents, ships the output of *completed* handlers, hops migrated
/// agents' pending timers to their current nodes, and fails the queued
/// backlog back to the senders, then lets the thread exit.
///
/// Draining is best-effort two-pass: senders observe the dead flag before
/// enqueueing, so after the flag is set and the queue runs dry twice with
/// a pause in between, a still-racing send has usually crossed the flag
/// check and bounces at the sender instead. The rare send that slips in
/// after the second pass is not lost — the receiver is handed back to the
/// platform, which drains and accounts for it at shutdown.
fn die(shared: &Arc<Shared>, mut state: NodeState, rx: Receiver<NodeMsg>) -> Receiver<NodeMsg> {
    shared.dead[state.node.index()].store(true, Ordering::Release);
    shared.counters.nodes_dead.fetch_add(1, Ordering::Relaxed);
    // Output already queued by handlers that completed normally is real:
    // ship it before anything else so no completed send is lost.
    state.out.flush(shared);
    // The node's residents died with it (no on_dispose: there is no
    // thread left to run it on). Unregister them so lookups answer
    // "gone" and future sends bounce at the sender.
    for id in state.residents.keys() {
        shared.registry.remove(*id);
    }
    // Pending timers whose agents already migrated (or are in flight)
    // elsewhere belong to agents that are still alive: hop them, with
    // their original deadline, to wherever the agent now is. Timers of
    // the residents just unregistered resolve to `None` and drop.
    for t in std::mem::take(&mut state.timers) {
        if let Some(w) = shared.registry.get(t.agent) {
            let dest = w.node();
            if dest != state.node && !shared.node_dead(dest) {
                shared.send_to_node(
                    dest,
                    NodeMsg::TimerHop {
                        agent: t.agent,
                        timer: t.timer,
                        at: t.at,
                    },
                );
            }
        }
    }
    for round in 0..2 {
        while let Ok(msg) = rx.try_recv() {
            if shared.telemetry.enabled {
                shared.telemetry.nodes[state.node.index()]
                    .chan_out
                    .fetch_add(1, Ordering::Relaxed);
            }
            shared.discard(state.node, msg);
        }
        if round == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    rx
}

/// Runs one handler and applies its requested actions.
///
/// Returns `Err(())` if the behaviour panicked; the panicking agent has
/// already been taken out of `residents` and its behaviour dropped — the
/// caller decides the node's fate.
fn invoke<F>(shared: &Arc<Shared>, state: &mut NodeState, id: AgentId, f: F) -> Result<(), ()>
where
    F: FnOnce(&mut dyn Agent, &mut AgentCtx<'_>),
{
    let Some(mut behavior) = state.residents.remove(&id) else {
        return Ok(());
    };
    let mut actions = Vec::new();
    {
        let mut ctx = AgentCtx {
            now: shared.now(),
            self_id: id,
            node: state.node,
            rng: &mut state.rng,
            actions: &mut actions,
            next_agent_id: &mut state.next_agent_id,
            next_timer_id: &mut state.next_timer_id,
            trace: &shared.trace,
            queued: SimDuration::ZERO,
            form: PayloadForm::Text,
        };
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            f(behavior.as_mut(), &mut ctx);
        }));
        if caught.is_err() {
            // The handler died mid-flight: its requested actions are
            // abandoned wholesale (it never finished deciding them) and
            // its registry entry goes away with it.
            shared.registry.remove(id);
            return Err(());
        }
    }
    // First-wins structural rule (matches the simulated runtime): after a
    // dispatch the behaviour is gone from this thread, so a later dispose
    // is ignored; after a dispose every later action is ignored.
    let mut keep = Some(behavior);
    let mut departed = false;
    for action in actions {
        match action {
            Action::Send {
                to,
                node: dest,
                payload,
            } => {
                if dest.raw() >= shared.senders.len() as u32 {
                    continue;
                }
                shared
                    .counters
                    .messages_sent
                    .fetch_add(1, Ordering::Relaxed);
                state.out.push(
                    shared,
                    dest,
                    DeliverItem {
                        to,
                        from: id,
                        payload: payload.into_text(),
                        enqueued_ns: shared.stamp_ns(),
                    },
                );
            }
            Action::Dispatch { to } => {
                if to.raw() >= shared.senders.len() as u32 || keep.is_none() || departed {
                    continue;
                }
                if to == state.node {
                    continue; // staying put: nothing to transfer
                }
                let behavior = keep.take().expect("checked");
                departed = true;
                shared.registry.insert(id, Whereabouts::InTransit(to));
                shared.counters.migrations.fetch_add(1, Ordering::Relaxed);
                // Messages we queued for `to` earlier in this handler must
                // not be overtaken by the Welcome (the batch would arrive
                // after the agent already started running there — harmless
                // — but a reply addressed *back here* must not beat it).
                state.out.flush_node(shared, to);
                shared.send_to_node(
                    to,
                    NodeMsg::Welcome {
                        id,
                        behavior,
                        kind: WelcomeKind::Arrival,
                        sent_ns: shared.stamp_ns(),
                    },
                );
            }
            Action::SetTimer { timer, delay } => {
                state.timers.push(PendingTimer {
                    at: Instant::now() + Duration::from_nanos(delay.as_nanos()),
                    agent: id,
                    timer,
                });
            }
            Action::Create {
                id: new_id,
                node: dest,
                behavior,
            } => {
                if dest.raw() >= shared.senders.len() as u32 {
                    continue;
                }
                shared.registry.insert(new_id, Whereabouts::Creating(dest));
                shared
                    .counters
                    .agents_created
                    .fetch_add(1, Ordering::Relaxed);
                state.out.flush_node(shared, dest);
                shared.send_to_node(
                    dest,
                    NodeMsg::Welcome {
                        id: new_id,
                        behavior,
                        kind: WelcomeKind::Creation,
                        sent_ns: 0,
                    },
                );
            }
            Action::Dispose => {
                if departed {
                    continue; // the behaviour already left for another node
                }
                if let Some(mut behavior) = keep.take() {
                    let mut dispose_actions = Vec::new();
                    let mut ctx = AgentCtx {
                        now: shared.now(),
                        self_id: id,
                        node: state.node,
                        rng: &mut state.rng,
                        actions: &mut dispose_actions,
                        next_agent_id: &mut state.next_agent_id,
                        next_timer_id: &mut state.next_timer_id,
                        trace: &shared.trace,
                        queued: SimDuration::ZERO,
                        form: PayloadForm::Text,
                    };
                    let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        behavior.on_dispose(&mut ctx);
                    }));
                    if caught.is_err() {
                        shared.registry.remove(id);
                        return Err(());
                    }
                    // Farewell sends only; other actions are meaningless now.
                    for action in dispose_actions {
                        if let Action::Send {
                            to,
                            node: dest,
                            payload,
                        } = action
                        {
                            if dest.raw() < shared.senders.len() as u32 {
                                shared
                                    .counters
                                    .messages_sent
                                    .fetch_add(1, Ordering::Relaxed);
                                state.out.push(
                                    shared,
                                    dest,
                                    DeliverItem {
                                        to,
                                        from: id,
                                        payload: payload.into_text(),
                                        enqueued_ns: shared.stamp_ns(),
                                    },
                                );
                            }
                        }
                    }
                    shared.registry.remove(id);
                    shared
                        .counters
                        .agents_disposed
                        .fetch_add(1, Ordering::Relaxed);
                    // The agent is gone; ignore later actions.
                    return Ok(());
                }
            }
        }
    }
    if let Some(behavior) = keep {
        state.residents.insert(id, behavior);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use super::*;
    use crate::payload::Payload;

    /// Whether each payload an agent was handed was still the message
    /// itself, not text.
    type Seen = Arc<Mutex<Vec<bool>>>;

    struct Witness {
        seen: Seen,
    }

    impl Agent for Witness {
        fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            self.seen.lock().unwrap().push(payload.is_message());
        }
    }

    /// Sends in-process payloads every way a node thread can: across nodes,
    /// on its own node, astray (bounced back to it) and in a farewell.
    struct Sender {
        near: AgentId,
        far: AgentId,
        seen: Seen,
    }

    impl Agent for Sender {
        fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
            let first = payload.decode::<u8>() == Ok(1);
            self.seen.lock().unwrap().push(payload.is_message());
            if first {
                ctx.send(self.far, NodeId::new(1), Payload::encode(&"across"));
                ctx.send(self.near, NodeId::new(0), Payload::encode(&"local"));
                ctx.send(self.far, NodeId::new(0), Payload::encode(&"astray"));
                ctx.send(self.far, NodeId::new(1), ctx.encode(&"written here"));
            } else {
                ctx.dispose();
            }
        }

        fn on_delivery_failed(
            &mut self,
            _ctx: &mut AgentCtx<'_>,
            _to: AgentId,
            _node: NodeId,
            payload: &Payload,
        ) {
            self.seen.lock().unwrap().push(payload.is_message());
        }

        fn on_dispose(&mut self, ctx: &mut AgentCtx<'_>) {
            ctx.send(self.far, NodeId::new(1), Payload::encode(&"farewell"));
        }
    }

    fn wait_until(mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done() {
            assert!(Instant::now() < deadline, "live run stalled");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// A message leaves a live node as text, whichever form its sender
    /// built: no handler is ever handed the message itself, whether the
    /// payload came from another node, its own node, a bounce, a farewell
    /// or an outside driver.
    #[test]
    fn a_live_node_never_delivers_the_message_itself() {
        let platform = LivePlatform::new(2);
        let seen = Seen::default();
        let witness = |node| {
            let seen = Arc::clone(&seen);
            platform.spawn(Box::new(Witness { seen }), NodeId::new(node))
        };
        let (near, far) = (witness(0), witness(1));
        let sender = platform.spawn(
            Box::new(Sender {
                near,
                far,
                seen: Arc::clone(&seen),
            }),
            NodeId::new(0),
        );
        wait_until(|| platform.stats().agents_activated == 3);

        assert!(platform.post(sender, Payload::encode(&1u8)));
        let mut handle = platform.handle();
        assert!(handle.post(far, Payload::encode(&"handled")));
        handle.flush();
        wait_until(|| seen.lock().unwrap().len() == 6);
        assert!(platform.post(sender, Payload::encode(&2u8)));
        wait_until(|| seen.lock().unwrap().len() == 8);

        let stats = platform.shutdown();
        assert_eq!(stats.messages_failed, 1, "the astray message bounced");
        assert_eq!(*seen.lock().unwrap(), vec![false; 8]);
    }
}
