//! Live-runtime telemetry: lock-free per-node instrumentation, periodic
//! health snapshots, and a slow-op flight recorder.
//!
//! The live runtime's hot paths run at tens of millions of operations per
//! second on commodity hardware, so observability has to be paid for in
//! single relaxed atomic operations or not at all. This module follows
//! three rules:
//!
//! * **Conservation by construction.** The delivered/failed message
//!   counters live in *per-node* cells ([`NodeCells`]) and the platform
//!   totals are *defined* as the sum of those cells — there is no second
//!   set of global counters that could drift. A [`TelemetrySnapshot`]
//!   reads each cell exactly once and derives its totals from the values
//!   it read, so `delivered_total == Σ nodes[i].delivered` holds in every
//!   snapshot, including ones taken while nodes are dying to contained
//!   panics or while shutdown is bouncing the queued backlog.
//! * **Near-zero cost when off.** With `LiveConfig::telemetry == false`
//!   the only residue is the per-node delivered/failed cells (which
//!   *replace* the old global counters — less contention, not more) and
//!   one predictable branch per instrumented site. Latency stamping,
//!   queue-depth accounting, histograms and the flight recorder are all
//!   gated behind that branch.
//! * **Bounded cost when on.** Latency samples go into striped
//!   [`AtomicLogHistogram`]s (one relaxed `fetch_add` per sample, no
//!   locks); the nanosecond-scale locate path is sampled 1-in-256 so two
//!   `Instant::now()` calls are amortised to well under a nanosecond per
//!   op; the flight recorder takes a lock only for ops slower than the
//!   current K-slowest floor, which a single relaxed load rejects.
//!
//! A background aggregator thread (spawned by
//! [`LivePlatform::with_config`](super::LivePlatform::with_config) when
//! telemetry is on) publishes a fresh snapshot every
//! [`SNAPSHOT_INTERVAL`] to [`Telemetry::latest`].

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use agentrack_sim::{AtomicLogHistogram, LogHistogram};

use crate::config::LiveConfig;

use super::Shared;

/// Stripes per shared histogram: enough to keep a few node threads plus
/// external driver threads off each other's cache lines.
const HISTOGRAM_STRIPES: usize = 8;

/// Locate latency is sampled once per this many calls (power of two):
/// the locate fast path is itself only tens of nanoseconds, so stamping
/// every call would more than double its cost, and even at millions of
/// locates per second 1-in-256 still fills the histogram thousands of
/// times per second.
pub(crate) const LOCATE_SAMPLE_EVERY: u64 = 256;

/// How often the aggregator thread publishes a snapshot.
pub(crate) const SNAPSHOT_INTERVAL: Duration = Duration::from_millis(200);

/// Per-node monotonic counters. The delivered/failed cells are the
/// *primary* accounting (always on — `LiveStats` sums them); the rest
/// are telemetry-gated.
#[derive(Default)]
pub(crate) struct NodeCells {
    /// Messages whose handler ran on this node (authoritative).
    pub(crate) delivered: AtomicU64,
    /// Failed deliveries attributed to this node: bounces of messages
    /// addressed to it, plus its share of the shutdown drain
    /// (authoritative).
    pub(crate) failed: AtomicU64,
    /// Channel messages successfully enqueued to this node.
    pub(crate) chan_in: AtomicU64,
    /// Channel messages this node (or the platform's final drain on its
    /// behalf) has taken out of the queue.
    pub(crate) chan_out: AtomicU64,
    /// Node-loop wake-ups (message bursts or timer deadlines).
    pub(crate) wakeups: AtomicU64,
    /// Wake-ups that consumed the entire drain budget — sustained
    /// saturation shows up here first.
    pub(crate) drain_exhausted: AtomicU64,
}

/// What kind of operation a [`SlowOp`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// A message delivery (`enqueued` = send stamped, `started` =
    /// handler entry, `ended` = handler return).
    Deliver,
    /// A migration (`enqueued` = `Dispatch` shipped the behaviour,
    /// `started` = `on_arrival` entry, `ended` = `on_arrival` return).
    Move,
    /// A timer firing (`enqueued` = the deadline, so the queue phase is
    /// the lateness; `started`/`ended` bracket `on_timer`).
    Timer,
}

/// One operation captured by the flight recorder, with the timestamps
/// (nanoseconds since platform start) that split it into an
/// enqueue→start *queue* phase and a start→end *handle* phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowOp {
    /// What the operation was.
    pub kind: OpKind,
    /// Node whose thread executed it.
    pub node: u32,
    /// Raw id of the agent it ran against.
    pub agent: u64,
    /// When the work was enqueued (or, for timers, due).
    pub enqueued_ns: u64,
    /// When the handler started running.
    pub started_ns: u64,
    /// When the handler returned.
    pub ended_ns: u64,
}

impl SlowOp {
    /// Time spent waiting between enqueue and handler start.
    #[must_use]
    pub fn queue_ns(&self) -> u64 {
        self.started_ns.saturating_sub(self.enqueued_ns)
    }

    /// Time spent inside the handler.
    #[must_use]
    pub fn handle_ns(&self) -> u64 {
        self.ended_ns.saturating_sub(self.started_ns)
    }

    /// End-to-end duration — the flight recorder's ranking key.
    #[must_use]
    pub fn total_ns(&self) -> u64 {
        self.ended_ns.saturating_sub(self.enqueued_ns)
    }
}

/// Min-heap entry ordered by total duration, so the heap root is always
/// the *least* slow of the K kept ops — the one the next candidate must
/// beat.
struct FlightEntry(SlowOp);

impl PartialEq for FlightEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_ns() == other.0.total_ns()
    }
}
impl Eq for FlightEntry {}
impl PartialOrd for FlightEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FlightEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.total_ns().cmp(&self.0.total_ns()) // reversed: min-heap
    }
}

/// A bounded record of the K slowest operations seen so far.
///
/// The common case — an op faster than everything already kept — is
/// rejected by one relaxed load of the duration floor, no lock. Only
/// genuinely slow ops (or the first K) pay for the mutex, and those are
/// by definition rare and already expensive.
pub(crate) struct FlightRecorder {
    cap: usize,
    /// Total duration of the fastest kept op once the ring is full;
    /// 0 until then (so the first K ops all take the slow path).
    floor: AtomicU64,
    heap: Mutex<BinaryHeap<FlightEntry>>,
}

impl FlightRecorder {
    pub(crate) fn new(cap: usize) -> Self {
        FlightRecorder {
            cap,
            floor: AtomicU64::new(0),
            heap: Mutex::new(BinaryHeap::with_capacity(cap.saturating_add(1))),
        }
    }

    /// Offers an op; keeps it only if it ranks among the K slowest.
    pub(crate) fn record(&self, op: SlowOp) {
        if self.cap == 0 {
            return;
        }
        let total = op.total_ns();
        if total <= self.floor.load(Ordering::Relaxed) {
            return; // fast path: not slow enough to displace anything
        }
        let mut heap = self.heap.lock();
        heap.push(FlightEntry(op));
        if heap.len() > self.cap {
            heap.pop();
        }
        if heap.len() == self.cap {
            if let Some(min) = heap.peek() {
                self.floor.store(min.0.total_ns(), Ordering::Relaxed);
            }
        }
    }

    /// The kept ops, slowest first.
    pub(crate) fn slowest(&self) -> Vec<SlowOp> {
        let heap = self.heap.lock();
        let mut ops: Vec<SlowOp> = heap.iter().map(|e| e.0).collect();
        ops.sort_by_key(|o| std::cmp::Reverse(o.total_ns()));
        ops
    }
}

/// All telemetry state, owned by [`Shared`](super::Shared).
pub(crate) struct Telemetry {
    /// The master gate: when false, only the per-node delivered/failed
    /// cells are maintained (they are the runtime's accounting, not an
    /// optional extra).
    pub(crate) enabled: bool,
    pub(crate) nodes: Box<[NodeCells]>,
    /// Sampled locate latency (1 in [`LOCATE_SAMPLE_EVERY`] calls).
    pub(crate) locate_ns: AtomicLogHistogram,
    /// End-to-end delivery latency: send stamped → handler returned.
    pub(crate) deliver_ns: AtomicLogHistogram,
    /// Migration latency: `Dispatch` shipped → `on_arrival` returned.
    pub(crate) move_ns: AtomicLogHistogram,
    /// Timer lateness: deadline → handler entry.
    pub(crate) timer_lag_ns: AtomicLogHistogram,
    /// `Deliver` items per shipped batch (dimensionless).
    pub(crate) batch_occupancy: AtomicLogHistogram,
    /// Route-cache totals folded in from retiring/flushing handles.
    pub(crate) route_hits: AtomicU64,
    pub(crate) route_misses: AtomicU64,
    pub(crate) flight: FlightRecorder,
    /// The aggregator thread's most recent published snapshot.
    pub(crate) latest: Mutex<Option<TelemetrySnapshot>>,
}

impl Telemetry {
    pub(crate) fn new(node_count: usize, config: &LiveConfig) -> Self {
        // Histograms are striped only when they will actually be
        // written; a disabled platform keeps them at one ~400-byte
        // stripe each.
        let stripes = if config.telemetry {
            HISTOGRAM_STRIPES
        } else {
            1
        };
        Telemetry {
            enabled: config.telemetry,
            nodes: (0..node_count).map(|_| NodeCells::default()).collect(),
            locate_ns: AtomicLogHistogram::new(stripes),
            deliver_ns: AtomicLogHistogram::new(stripes),
            move_ns: AtomicLogHistogram::new(stripes),
            timer_lag_ns: AtomicLogHistogram::new(stripes),
            batch_occupancy: AtomicLogHistogram::new(stripes),
            route_hits: AtomicU64::new(0),
            route_misses: AtomicU64::new(0),
            flight: FlightRecorder::new(if config.telemetry {
                config.flight_recorder
            } else {
                0
            }),
            latest: Mutex::new(None),
        }
    }
}

/// One node's health at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHealth {
    /// The node's index.
    pub node: u32,
    /// Messages whose handler ran here.
    pub delivered: u64,
    /// Failed deliveries attributed to this node.
    pub failed: u64,
    /// Channel messages enqueued to this node so far.
    pub enqueued: u64,
    /// Channel messages drained from its queue so far.
    pub processed: u64,
    /// Channel messages believed still queued (`enqueued - processed`;
    /// saturating, because the two cells are read at slightly different
    /// instants while the node is running).
    pub queue_depth: u64,
    /// Node-loop wake-ups.
    pub wakeups: u64,
    /// Wake-ups that consumed the entire drain budget.
    pub drain_exhausted: u64,
    /// The node's thread died to a contained behaviour panic.
    pub dead: bool,
}

/// A delta-consistent view of the whole platform's telemetry.
///
/// Totals are *derived from the per-node values in this snapshot*, so
/// `delivered_total == nodes.iter().map(|n| n.delivered).sum()` holds by
/// construction in every snapshot, concurrent activity or not; and all
/// counters are monotonic between snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetrySnapshot {
    /// Nanoseconds since platform start when the snapshot was taken.
    pub at_ns: u64,
    /// Per-node health, indexed by node.
    pub nodes: Vec<NodeHealth>,
    /// Σ `nodes[i].delivered` — equals `LiveStats::messages_delivered`
    /// at quiesce.
    pub delivered_total: u64,
    /// Σ `nodes[i].failed` — equals `LiveStats::messages_failed` at
    /// quiesce.
    pub failed_total: u64,
    /// Sampled locate latency (1 in 256 locate calls is stamped,
    /// `LOCATE_SAMPLE_EVERY`).
    pub locate_ns: LogHistogram,
    /// End-to-end delivery latency.
    pub deliver_ns: LogHistogram,
    /// Migration (dispatch → arrival) latency.
    pub move_ns: LogHistogram,
    /// Timer lateness past the deadline.
    pub timer_lag_ns: LogHistogram,
    /// `Deliver` items per shipped batch.
    pub batch_occupancy: LogHistogram,
    /// Route-cache hits folded in from handles that flushed or retired.
    pub route_cache_hits: u64,
    /// Route-cache misses likewise.
    pub route_cache_misses: u64,
    /// Σ per-shard registry generations: total registry churn (every
    /// spawn, migration step and disposal bumps exactly one shard).
    pub registry_generation: u64,
    /// Trace-ring records dropped to overflow so far.
    pub trace_dropped: u64,
    /// The K slowest operations so far, slowest first.
    pub slow_ops: Vec<SlowOp>,
}

/// Builds a snapshot from the shared state. Safe to call at any time
/// from any thread; see [`TelemetrySnapshot`] for its consistency
/// guarantees.
pub(crate) fn snapshot(shared: &Shared) -> TelemetrySnapshot {
    let tele = &shared.telemetry;
    let at_ns = shared.now_ns();
    let mut delivered_total = 0u64;
    let mut failed_total = 0u64;
    let nodes: Vec<NodeHealth> = tele
        .nodes
        .iter()
        .enumerate()
        .map(|(i, cells)| {
            let delivered = cells.delivered.load(Ordering::Relaxed);
            let failed = cells.failed.load(Ordering::Relaxed);
            let enqueued = cells.chan_in.load(Ordering::Relaxed);
            let processed = cells.chan_out.load(Ordering::Relaxed);
            delivered_total += delivered;
            failed_total += failed;
            NodeHealth {
                node: i as u32,
                delivered,
                failed,
                enqueued,
                processed,
                queue_depth: enqueued.saturating_sub(processed),
                wakeups: cells.wakeups.load(Ordering::Relaxed),
                drain_exhausted: cells.drain_exhausted.load(Ordering::Relaxed),
                dead: shared.dead[i].load(Ordering::Acquire),
            }
        })
        .collect();
    TelemetrySnapshot {
        at_ns,
        nodes,
        delivered_total,
        failed_total,
        locate_ns: tele.locate_ns.snapshot(),
        deliver_ns: tele.deliver_ns.snapshot(),
        move_ns: tele.move_ns.snapshot(),
        timer_lag_ns: tele.timer_lag_ns.snapshot(),
        batch_occupancy: tele.batch_occupancy.snapshot(),
        route_cache_hits: tele.route_hits.load(Ordering::Relaxed),
        route_cache_misses: tele.route_misses.load(Ordering::Relaxed),
        registry_generation: shared.registry.total_generation(),
        trace_dropped: shared.trace.dropped(),
        slow_ops: tele.flight.slowest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(total: u64) -> SlowOp {
        SlowOp {
            kind: OpKind::Deliver,
            node: 0,
            agent: total, // tag so assertions can tell ops apart
            enqueued_ns: 0,
            started_ns: total / 2,
            ended_ns: total,
        }
    }

    #[test]
    fn flight_recorder_keeps_exactly_the_k_slowest() {
        let fr = FlightRecorder::new(3);
        for total in [5u64, 900, 20, 40, 1000, 1, 800, 30] {
            fr.record(op(total));
        }
        let kept: Vec<u64> = fr.slowest().iter().map(SlowOp::total_ns).collect();
        assert_eq!(kept, vec![1000, 900, 800], "slowest first, bounded at K");
    }

    #[test]
    fn flight_recorder_floor_rejects_fast_ops_without_blocking() {
        let fr = FlightRecorder::new(2);
        fr.record(op(100));
        fr.record(op(200));
        assert_eq!(fr.floor.load(Ordering::Relaxed), 100);
        fr.record(op(50)); // below the floor: rejected on the fast path
        assert_eq!(
            fr.slowest()
                .iter()
                .map(SlowOp::total_ns)
                .collect::<Vec<_>>(),
            vec![200, 100]
        );
        fr.record(op(150)); // beats the floor: displaces 100
        assert_eq!(
            fr.slowest()
                .iter()
                .map(SlowOp::total_ns)
                .collect::<Vec<_>>(),
            vec![200, 150]
        );
        assert_eq!(fr.floor.load(Ordering::Relaxed), 150);
    }

    #[test]
    fn zero_capacity_recorder_keeps_nothing() {
        let fr = FlightRecorder::new(0);
        fr.record(op(1_000_000));
        assert!(fr.slowest().is_empty());
    }

    #[test]
    fn slow_op_phases_partition_the_total() {
        let o = SlowOp {
            kind: OpKind::Timer,
            node: 3,
            agent: 9,
            enqueued_ns: 100,
            started_ns: 250,
            ended_ns: 400,
        };
        assert_eq!(o.queue_ns(), 150);
        assert_eq!(o.handle_ns(), 150);
        assert_eq!(o.total_ns(), o.queue_ns() + o.handle_ns());
    }
}
