//! # agentrack-sim
//!
//! A deterministic discrete-event simulation kernel: the substrate that
//! stands in for the paper's physical testbed (Aglets 2.0 on a Sun Blade
//! LAN).
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond
//!   resolution;
//! * [`Scheduler`] — a future-event list with FIFO tie-breaking, so runs
//!   are reproducible event by event;
//! * [`SimRng`] / [`DurationDist`] / [`Zipf`] — seeded randomness and the
//!   distributions workloads and network models draw from;
//! * [`Topology`] — a LAN model: full mesh, per-hop latency distributions,
//!   optional loss/duplication for failure-injection tests — plus
//!   [`RegionTopo`], the multi-region WAN generalisation with an
//!   inter-region latency matrix and per-link sever/heal faults;
//! * [`ServiceStation`] — single-server FIFO queues that make tracker
//!   saturation (the paper's headline effect) emerge naturally;
//! * [`Histogram`] / [`WindowedRate`] / [`Counter`] — measurement, plus the
//!   windowed request-rate statistics IAgents use to decide splits and
//!   merges;
//! * [`TraceSink`] / [`TraceEvent`] / [`CorrId`] — structured protocol
//!   tracing: correlation ids threaded through wire messages land in a
//!   bounded ring buffer, off by default and zero-cost when disabled;
//! * [`FaultPlan`] / [`ChaosConfig`] — time-scheduled correlated faults
//!   (partitions, crash/restart, latency spikes, loss bursts,
//!   blackholes) plus a seeded chaos generator and plan shrinker.
//!
//! The mobile-agent platform in `agentrack-platform` builds its runtime on
//! top of these pieces.
//!
//! ## Example: a tiny latency experiment
//!
//! ```
//! use agentrack_sim::{
//!     DurationDist, Histogram, NodeId, Scheduler, SimDuration, SimRng, Topology,
//! };
//!
//! let topo = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(250)));
//! let mut rng = SimRng::seed_from(7);
//! let mut sched: Scheduler<NodeId> = Scheduler::new();
//! let mut hist = Histogram::new();
//!
//! // Send a message to each node and record the delivery latencies.
//! for dst in topo.nodes() {
//!     let latency = topo.latency(NodeId::new(0), dst, &mut rng);
//!     sched.schedule_after(latency, dst);
//! }
//! let start = sched.now();
//! while let Some((at, _dst)) = sched.pop() {
//!     hist.record(at - start);
//! }
//! assert_eq!(hist.len(), 4);
//! assert_eq!(hist.max(), SimDuration::from_micros(250));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod faults;
mod metrics;
mod net;
mod queue;
mod rng;
mod station;
mod time;
mod trace;

pub use faults::{shrink, ChaosConfig, FaultEvent, FaultKind, FaultPlan};
pub use metrics::{AtomicLogHistogram, Counter, Histogram, LogHistogram, WindowedRate};
pub use net::{arrival, Delivery, NodeId, RegionTopo, Topology};
pub use queue::Scheduler;
pub use rng::{DurationDist, SimRng, Zipf};
pub use station::ServiceStation;
pub use time::{SimDuration, SimTime};
pub use trace::{CorrId, GiveUpCause, TraceEvent, TraceRecord, TraceSink};
