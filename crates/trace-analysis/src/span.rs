//! Span construction and critical-path attribution.
//!
//! The builder is a timeline sweep: a locate's corr-filtered records,
//! taken in time order, cut the root window into consecutive intervals,
//! and each interval is classified by the event that *ends* it. An
//! interval ending at a receive is transport time (minus the measured
//! queue residency, which becomes its own child); an interval ending at a
//! retry is backoff; everything else falls into an explicit catch-all.
//! Because consecutive intervals partition the window by construction,
//! the per-phase durations always sum to the end-to-end latency.

use std::collections::BTreeMap;
use std::fmt;

use agentrack_sim::{CorrId, LogHistogram, SimDuration, SimTime, TraceEvent, TraceRecord};

/// Named latency bucket a slice of a locate's end-to-end time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Phase-1 hash-tree resolution traffic (`Resolve`, `ResolveFresh`,
    /// `Resolved`).
    Resolution,
    /// Phase-2 tracker query traffic (`Locate`).
    TrackerQuery,
    /// Forwarding-pointer chain traversal (`ChainLocate`).
    ChainTraversal,
    /// The answer leg (`Located`, `NotFound`).
    Answer,
    /// Stale-directory detours (`NotResponsible`) forced by rehashing.
    StaleDetour,
    /// Time spent queued at a service station before handling.
    QueueWait,
    /// Gaps ended by a retry attempt or give-up: timeout waits and
    /// post-negative backoff.
    RetryBackoff,
    /// Anything the taxonomy cannot name — the explicit remainder, so no
    /// time is ever silently unattributed.
    Other,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 8;

    /// Every phase, in presentation order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Resolution,
        Phase::TrackerQuery,
        Phase::ChainTraversal,
        Phase::Answer,
        Phase::StaleDetour,
        Phase::QueueWait,
        Phase::RetryBackoff,
        Phase::Other,
    ];

    /// Stable index into per-phase arrays.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Phase::Resolution => 0,
            Phase::TrackerQuery => 1,
            Phase::ChainTraversal => 2,
            Phase::Answer => 3,
            Phase::StaleDetour => 4,
            Phase::QueueWait => 5,
            Phase::RetryBackoff => 6,
            Phase::Other => 7,
        }
    }

    /// Short stable name (used in CSV headers and exporter categories).
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Phase::Resolution => "resolution",
            Phase::TrackerQuery => "tracker_query",
            Phase::ChainTraversal => "chain_traversal",
            Phase::Answer => "answer",
            Phase::StaleDetour => "stale_detour",
            Phase::QueueWait => "queue_wait",
            Phase::RetryBackoff => "retry_backoff",
            Phase::Other => "other",
        }
    }

    /// The phase a wire-message kind belongs to.
    #[must_use]
    pub fn of_kind(kind: &str) -> Phase {
        match kind {
            "Resolve" | "ResolveFresh" | "Resolved" => Phase::Resolution,
            "Locate" => Phase::TrackerQuery,
            "ChainLocate" => Phase::ChainTraversal,
            "Located" | "NotFound" => Phase::Answer,
            "NotResponsible" => Phase::StaleDetour,
            _ => Phase::Other,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Mechanical classification of a child span: what kind of waiting the
/// interval was, independent of which protocol phase it serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// In flight on the network (plus handler service, which the trace
    /// cannot separate from propagation).
    Transport,
    /// Waiting in a service-station queue.
    QueueWait,
    /// Local handler work between a receive and the next send (zero on
    /// the simulated runtime, where handlers are instantaneous).
    Handle,
    /// Waiting out a retry timeout or post-negative backoff.
    Backoff,
    /// Unclassifiable.
    Other,
}

impl SpanKind {
    /// Short stable name, used as the exporter label prefix.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SpanKind::Transport => "transport",
            SpanKind::QueueWait => "queue",
            SpanKind::Handle => "handle",
            SpanKind::Backoff => "backoff",
            SpanKind::Other => "other",
        }
    }
}

/// One child span: a contiguous slice of the root window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Human-readable label, e.g. `transport:Locate`.
    pub label: String,
    /// Mechanical classification.
    pub kind: SpanKind,
    /// Latency-attribution bucket.
    pub phase: Phase,
    /// Slice start.
    pub start: SimTime,
    /// Slice end.
    pub end: SimTime,
}

impl Span {
    /// The slice's duration.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A zero-width annotation: background activity (rehash, mailbox,
/// failover) that overlapped the root window and may explain its shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Marker {
    /// When it happened.
    pub at: SimTime,
    /// What happened, e.g. `rehash:split v3`.
    pub label: String,
}

/// The reconstructed span tree of one operation: a root spanning first
/// to last trace record, child spans that exactly partition that window,
/// and overlapping background markers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanTree {
    /// The operation's correlation id.
    pub corr: CorrId,
    /// Time of the first record (the initiating send).
    pub start: SimTime,
    /// Time of the last record (the final answer, give-up, or wherever
    /// the trace ends).
    pub end: SimTime,
    /// Child spans, in time order, exactly partitioning `[start, end]`.
    pub children: Vec<Span>,
    /// Rehash / mailbox / failover activity inside the window.
    pub markers: Vec<Marker>,
}

impl SpanTree {
    /// End-to-end duration of the root span.
    #[must_use]
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }

    /// Decomposes the root latency into per-phase buckets. The bucket
    /// sum equals [`SpanTree::duration`] by construction.
    #[must_use]
    pub fn breakdown(&self) -> PhaseBreakdown {
        let mut phases = [SimDuration::ZERO; Phase::COUNT];
        for child in &self.children {
            phases[child.phase.index()] += child.duration();
        }
        PhaseBreakdown {
            corr: self.corr,
            total: self.duration(),
            phases,
        }
    }
}

/// Per-phase decomposition of one operation's end-to-end latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// The operation.
    pub corr: CorrId,
    /// End-to-end latency (equals the sum over all phases).
    pub total: SimDuration,
    phases: [SimDuration; Phase::COUNT],
}

impl PhaseBreakdown {
    /// Time attributed to one phase.
    #[must_use]
    pub fn of(&self, phase: Phase) -> SimDuration {
        self.phases[phase.index()]
    }
}

fn classify(prev_at: SimTime, record: &TraceRecord, out: &mut Vec<Span>) {
    let at = record.at;
    match &record.event {
        TraceEvent::MessageRecv { kind, queued, .. } => {
            // The interval is transport plus the measured queue residency
            // at the far end; slice the queue part off as its own child.
            let queue_start = SimTime::from_nanos(
                at.as_nanos()
                    .saturating_sub(queued.as_nanos())
                    .max(prev_at.as_nanos()),
            );
            if queue_start > prev_at {
                out.push(Span {
                    label: format!("transport:{kind}"),
                    kind: SpanKind::Transport,
                    phase: Phase::of_kind(kind),
                    start: prev_at,
                    end: queue_start,
                });
            }
            if at > queue_start {
                out.push(Span {
                    label: format!("queue:{kind}"),
                    kind: SpanKind::QueueWait,
                    phase: Phase::QueueWait,
                    start: queue_start,
                    end: at,
                });
            }
        }
        TraceEvent::MessageSend { kind, .. } if at > prev_at => {
            out.push(Span {
                label: format!("handle:{kind}"),
                kind: SpanKind::Handle,
                phase: Phase::of_kind(kind),
                start: prev_at,
                end: at,
            });
        }
        TraceEvent::RetryAttempt { attempt, .. } if at > prev_at => {
            out.push(Span {
                label: format!("backoff:attempt{attempt}"),
                kind: SpanKind::Backoff,
                phase: Phase::RetryBackoff,
                start: prev_at,
                end: at,
            });
        }
        TraceEvent::RetryGiveUp { .. } if at > prev_at => {
            out.push(Span {
                label: "backoff:giveup".to_string(),
                kind: SpanKind::Backoff,
                phase: Phase::RetryBackoff,
                start: prev_at,
                end: at,
            });
        }
        _ if at > prev_at => {
            out.push(Span {
                label: "other".to_string(),
                kind: SpanKind::Other,
                phase: Phase::Other,
                start: prev_at,
                end: at,
            });
        }
        _ => {}
    }
}

fn marker_label(event: &TraceEvent) -> Option<String> {
    match event {
        TraceEvent::RehashSplit { version, .. } => Some(format!("rehash:split v{version}")),
        TraceEvent::RehashMerge { version, .. } => Some(format!("rehash:merge v{version}")),
        TraceEvent::MailBuffered { target, .. } => Some(format!("mail:buffered for {target}")),
        TraceEvent::MailFlushed { count, .. } => Some(format!("mail:flushed x{count}")),
        TraceEvent::MailExpired { lost, .. } => Some(format!("mail:expired x{lost}")),
        TraceEvent::Failover { by, .. } => Some(format!("failover by {by}")),
        _ => None,
    }
}

/// The background markers of a time-sorted record stream, in time order.
fn markers_of(sorted: &[TraceRecord]) -> Vec<Marker> {
    sorted
        .iter()
        .filter_map(|r| marker_label(&r.event).map(|label| Marker { at: r.at, label }))
        .collect()
}

fn build_tree(corr: CorrId, events: &[TraceRecord], markers: &[Marker]) -> SpanTree {
    let start = events.first().map_or(SimTime::ZERO, |r| r.at);
    let end = events.last().map_or(SimTime::ZERO, |r| r.at);
    let mut children = Vec::new();
    let mut prev_at = start;
    for record in events.iter().skip(1) {
        classify(prev_at, record, &mut children);
        prev_at = record.at;
    }
    // `markers` is time-sorted, so the window's inclusive slice is two
    // binary searches rather than a pass over the whole trace.
    let lo = markers.partition_point(|m| m.at < start);
    let hi = markers.partition_point(|m| m.at <= end);
    let markers = markers[lo..hi].to_vec();
    SpanTree {
        corr,
        start,
        end,
        children,
        markers,
    }
}

/// Builds one span tree per correlation id found in `records`, in
/// correlation-id order (deterministic for a deterministic trace).
///
/// `records` is typically a [`agentrack_sim::TraceSink::snapshot`]: a
/// time-ordered record stream. Out-of-order input is sorted (stably) by
/// time first.
#[must_use]
pub fn build_spans(records: &[TraceRecord]) -> Vec<SpanTree> {
    let mut sorted: Vec<TraceRecord> = records.to_vec();
    sorted.sort_by_key(|r| r.at);
    let mut groups: BTreeMap<CorrId, Vec<TraceRecord>> = BTreeMap::new();
    for record in &sorted {
        if let Some(corr) = record.event.corr() {
            groups.entry(corr).or_default().push(record.clone());
        }
    }
    let markers = markers_of(&sorted);
    groups
        .into_iter()
        .map(|(corr, events)| build_tree(corr, &events, &markers))
        .collect()
}

/// Builds the span tree of one operation, or `None` when no record
/// carries its correlation id.
#[must_use]
pub fn build_span(records: &[TraceRecord], corr: CorrId) -> Option<SpanTree> {
    let mut sorted: Vec<TraceRecord> = records.to_vec();
    sorted.sort_by_key(|r| r.at);
    let events: Vec<TraceRecord> = sorted
        .iter()
        .filter(|r| r.event.corr() == Some(corr))
        .cloned()
        .collect();
    if events.is_empty() {
        return None;
    }
    Some(build_tree(corr, &events, &markers_of(&sorted)))
}

/// Per-phase latency aggregation across many operations.
///
/// Means are exact (running totals); tails come from mergeable
/// [`LogHistogram`]s, so shards built in parallel cells can be combined
/// without re-reading traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribution {
    count: u64,
    totals: [SimDuration; Phase::COUNT],
    hists: [LogHistogram; Phase::COUNT],
    end_to_end: LogHistogram,
}

impl Attribution {
    /// Creates an empty aggregation.
    #[must_use]
    pub fn new() -> Self {
        Attribution {
            count: 0,
            totals: [SimDuration::ZERO; Phase::COUNT],
            hists: std::array::from_fn(|_| LogHistogram::new()),
            end_to_end: LogHistogram::new(),
        }
    }

    /// Folds one operation's breakdown in.
    pub fn record(&mut self, breakdown: &PhaseBreakdown) {
        self.count += 1;
        self.end_to_end.record(breakdown.total);
        for phase in Phase::ALL {
            let d = breakdown.of(phase);
            self.totals[phase.index()] += d;
            self.hists[phase.index()].record(d);
        }
    }

    /// Combines another aggregation into this one.
    pub fn merge(&mut self, other: &Attribution) {
        self.count += other.count;
        self.end_to_end.merge(&other.end_to_end);
        for i in 0..Phase::COUNT {
            self.totals[i] += other.totals[i];
            self.hists[i].merge(&other.hists[i]);
        }
    }

    /// Operations aggregated.
    #[must_use]
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Mean time per operation spent in `phase`, in milliseconds.
    #[must_use]
    pub fn mean_ms(&self, phase: Phase) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.totals[phase.index()].as_millis_f64() / self.count as f64
    }

    /// Mean end-to-end latency, in milliseconds.
    #[must_use]
    pub fn mean_total_ms(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let total: SimDuration = self.totals.iter().copied().sum();
        total.as_millis_f64() / self.count as f64
    }

    /// Fraction of all attributed time spent in `phase` (0 when empty).
    #[must_use]
    pub fn share(&self, phase: Phase) -> f64 {
        let total: SimDuration = self.totals.iter().copied().sum();
        if total.is_zero() {
            return 0.0;
        }
        self.totals[phase.index()].as_nanos() as f64 / total.as_nanos() as f64
    }

    /// The per-phase latency histogram.
    #[must_use]
    pub fn histogram(&self, phase: Phase) -> &LogHistogram {
        &self.hists[phase.index()]
    }

    /// The end-to-end latency histogram.
    #[must_use]
    pub fn end_to_end(&self) -> &LogHistogram {
        &self.end_to_end
    }
}

impl Default for Attribution {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentrack_sim::{NodeId, TraceSink};

    fn send(at: u64, kind: &'static str, corr: CorrId) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at),
            event: TraceEvent::MessageSend {
                kind,
                corr: Some(corr),
                from: corr.origin,
                to: 99,
                node: NodeId::new(0),
            },
        }
    }

    fn recv(at: u64, kind: &'static str, corr: CorrId, queued: u64) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_nanos(at),
            event: TraceEvent::MessageRecv {
                kind,
                corr: Some(corr),
                by: 99,
                node: NodeId::new(1),
                queued: SimDuration::from_nanos(queued),
            },
        }
    }

    #[test]
    fn children_partition_the_root_window() {
        let corr = CorrId::new(1, 1);
        let records = vec![
            send(0, "Resolve", corr),
            recv(1_000, "Resolve", corr, 300),
            send(1_000, "Resolved", corr),
            recv(2_500, "Resolved", corr, 0),
            send(2_500, "Locate", corr),
            recv(4_000, "Locate", corr, 500),
            send(4_000, "Located", corr),
            recv(5_000, "Located", corr, 0),
        ];
        let tree = build_span(&records, corr).expect("records exist");
        assert_eq!(tree.duration(), SimDuration::from_nanos(5_000));
        let sum: SimDuration = tree.children.iter().map(Span::duration).sum();
        assert_eq!(sum, tree.duration(), "children must partition the root");
        let b = tree.breakdown();
        let phase_sum: SimDuration = Phase::ALL.iter().map(|&p| b.of(p)).sum();
        assert_eq!(phase_sum, b.total);
        assert_eq!(b.of(Phase::QueueWait), SimDuration::from_nanos(800));
        assert_eq!(b.of(Phase::Resolution), SimDuration::from_nanos(2_200));
        assert_eq!(b.of(Phase::TrackerQuery), SimDuration::from_nanos(1_000));
        assert_eq!(b.of(Phase::Answer), SimDuration::from_nanos(1_000));
        assert_eq!(b.of(Phase::Other), SimDuration::ZERO);
    }

    #[test]
    fn retry_gaps_become_backoff() {
        let corr = CorrId::new(2, 9);
        let records = vec![
            send(0, "Locate", corr),
            TraceRecord {
                at: SimTime::from_nanos(10_000),
                event: TraceEvent::RetryAttempt {
                    corr: Some(corr),
                    client: 2,
                    target: 50,
                    attempt: 1,
                },
            },
            send(10_000, "Locate", corr),
            recv(11_000, "Locate", corr, 0),
        ];
        let tree = build_span(&records, corr).expect("records exist");
        let b = tree.breakdown();
        assert_eq!(b.of(Phase::RetryBackoff), SimDuration::from_nanos(10_000));
        assert_eq!(b.of(Phase::TrackerQuery), SimDuration::from_nanos(1_000));
        assert_eq!(b.total, SimDuration::from_nanos(11_000));
    }

    #[test]
    fn overlapping_rehash_becomes_a_marker() {
        let corr = CorrId::new(3, 1);
        let sink = TraceSink::bounded(8);
        sink.emit(SimTime::from_nanos(0), || TraceEvent::MessageSend {
            kind: "Locate",
            corr: Some(corr),
            from: 3,
            to: 9,
            node: NodeId::new(0),
        });
        sink.emit(SimTime::from_nanos(500), || TraceEvent::RehashSplit {
            version: 4,
            from_tracker: 9,
            to_tracker: 10,
        });
        sink.emit(SimTime::from_nanos(1_000), || TraceEvent::MessageRecv {
            kind: "Locate",
            corr: Some(corr),
            by: 9,
            node: NodeId::new(1),
            queued: SimDuration::ZERO,
        });
        let trees = build_spans(&sink.snapshot());
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].markers.len(), 1);
        assert_eq!(trees[0].markers[0].label, "rehash:split v4");
    }

    #[test]
    fn queue_wait_clamps_to_the_interval() {
        // A recv whose reported residency exceeds the whole interval
        // (possible when prior records interleave) must not underflow.
        let corr = CorrId::new(4, 1);
        let records = vec![
            send(1_000, "Locate", corr),
            recv(1_500, "Locate", corr, 900),
        ];
        let tree = build_span(&records, corr).expect("records exist");
        let sum: SimDuration = tree.children.iter().map(Span::duration).sum();
        assert_eq!(sum, SimDuration::from_nanos(500));
        assert_eq!(
            tree.breakdown().of(Phase::QueueWait),
            SimDuration::from_nanos(500)
        );
    }

    #[test]
    fn attribution_aggregates_and_merges() {
        let corr = CorrId::new(5, 1);
        let records = vec![
            send(0, "Locate", corr),
            recv(2_000, "Locate", corr, 1_000),
            send(2_000, "Located", corr),
            recv(3_000, "Located", corr, 0),
        ];
        let tree = build_span(&records, corr).expect("records exist");
        let mut a = Attribution::new();
        a.record(&tree.breakdown());
        let mut b = Attribution::new();
        b.record(&tree.breakdown());
        b.merge(&a);
        assert_eq!(b.count(), 2);
        assert!((b.mean_ms(Phase::QueueWait) - 0.001).abs() < 1e-9);
        assert!((b.mean_total_ms() - 0.003).abs() < 1e-9);
        assert!(b.share(Phase::QueueWait) > 0.3);
        assert_eq!(b.histogram(Phase::QueueWait).len(), 2);
        assert_eq!(b.end_to_end().len(), 2);
    }

    #[test]
    fn marker_windows_match_the_naive_filter() {
        let (a, b) = (CorrId::new(6, 1), CorrId::new(7, 1));
        let split = |at: u64, version: u64| TraceRecord {
            at: SimTime::from_nanos(at),
            event: TraceEvent::RehashSplit {
                version,
                from_tracker: 1,
                to_tracker: 2,
            },
        };
        // Markers just outside, exactly at, and inside each window.
        let records = vec![
            split(999, 1),
            send(1_000, "Locate", a),
            split(1_000, 2),
            split(2_000, 3),
            send(2_500, "Locate", b),
            recv(3_000, "Locate", a, 0),
            split(3_000, 4),
            split(3_001, 5),
            recv(4_000, "Locate", b, 0),
            split(4_000, 6),
            split(4_001, 7),
        ];
        let trees = build_spans(&records);
        assert_eq!(trees.len(), 2);
        for tree in &trees {
            let naive: Vec<Marker> = records
                .iter()
                .filter(|r| r.at >= tree.start && r.at <= tree.end)
                .filter_map(|r| marker_label(&r.event).map(|label| Marker { at: r.at, label }))
                .collect();
            assert_eq!(tree.markers, naive, "corr {:?}", tree.corr);
            assert_eq!(
                Some(&tree.markers),
                build_span(&records, tree.corr).map(|t| t.markers).as_ref()
            );
        }
        let labels =
            |t: &SpanTree| -> Vec<String> { t.markers.iter().map(|m| m.label.clone()).collect() };
        assert_eq!(
            labels(&trees[0]),
            ["rehash:split v2", "rehash:split v3", "rehash:split v4"]
        );
        assert_eq!(
            labels(&trees[1]),
            ["rehash:split v4", "rehash:split v5", "rehash:split v6"]
        );
    }

    #[test]
    fn build_span_returns_none_for_unknown_corr() {
        assert!(build_span(&[], CorrId::new(1, 1)).is_none());
    }
}
