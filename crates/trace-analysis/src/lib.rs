//! # agentrack-trace-analysis
//!
//! Causal span trees over the flat [`agentrack_sim::TraceSink`] record
//! stream, with critical-path latency attribution.
//!
//! The trace ring records *that* events happened — sends, receives, queue
//! residency, retries, rehashes. This crate folds those flat records into
//! hierarchical structure after the fact:
//!
//! * [`SpanTree`] — one root span per locate/resolve [`CorrId`], whose
//!   child [`Span`]s exactly partition the root's `[start, end]` window:
//!   wire hops (transport), queue residency at service stations, retry
//!   backoff gaps, and handler work. Rehash and mailbox activity that
//!   overlaps the window is attached as zero-width [`Marker`]s.
//! * [`PhaseBreakdown`] — the critical-path decomposition of one locate's
//!   end-to-end latency into named [`Phase`] buckets. Because child spans
//!   partition the window, the per-phase durations **always sum to the
//!   root latency** — unattributed time can only land in the explicit
//!   [`Phase::Other`] bucket, never vanish.
//! * [`Attribution`] — per-phase aggregation across many locates, backed
//!   by mergeable [`agentrack_sim::LogHistogram`]s.
//! * [`to_perfetto_json`] / [`to_folded`] — deterministic exporters:
//!   Chrome/Perfetto trace-event JSON and folded-stack flamegraph text,
//!   byte-identical for a fixed seed regardless of host parallelism.
//!
//! ## Example
//!
//! ```
//! use agentrack_sim::{CorrId, NodeId, SimDuration, SimTime, TraceEvent, TraceSink};
//! use agentrack_trace_analysis::{build_spans, Phase};
//!
//! let sink = TraceSink::bounded(16);
//! let corr = CorrId::new(7, 1);
//! sink.emit(SimTime::from_nanos(0), || TraceEvent::MessageSend {
//!     kind: "Locate", corr: Some(corr), from: 7, to: 3, node: NodeId::new(0),
//! });
//! sink.emit(SimTime::from_nanos(900), || TraceEvent::MessageRecv {
//!     kind: "Locate", corr: Some(corr), by: 3, node: NodeId::new(1),
//!     queued: SimDuration::from_nanos(200),
//! });
//! let trees = build_spans(&sink.snapshot());
//! let breakdown = trees[0].breakdown();
//! assert_eq!(breakdown.total, SimDuration::from_nanos(900));
//! assert_eq!(breakdown.of(Phase::TrackerQuery), SimDuration::from_nanos(700));
//! assert_eq!(breakdown.of(Phase::QueueWait), SimDuration::from_nanos(200));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod export;
mod span;

pub use agentrack_sim::CorrId;
pub use export::{render_breakdown, slowest, to_folded, to_perfetto_json};
pub use span::{
    build_span, build_spans, Attribution, Marker, Phase, PhaseBreakdown, Span, SpanKind, SpanTree,
};
