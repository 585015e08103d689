//! Span-tree reconstruction over the trace ring: one multi-hop locate
//! under the forwarding scheme, folded into a causal span tree whose
//! child phases exactly account for the end-to-end latency.

use std::sync::{Arc, Mutex};

use agentrack::core::{
    ClientEvent, DirectoryClient, ForwardingScheme, LocationConfig, LocationScheme,
};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{CorrId, DurationDist, SimDuration, Topology, TraceSink};
use agentrack::trace_analysis::{build_span, to_folded, to_perfetto_json, Phase, SpanKind};

/// Registers, then migrates twice so the forwarding chain at its birth
/// node grows to two pointer hops.
struct Roamer {
    client: Box<dyn DirectoryClient>,
    itinerary: Vec<NodeId>,
    hop: Option<TimerId>,
}

impl Agent for Roamer {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        self.hop = Some(ctx.set_timer(SimDuration::from_millis(500)));
    }
    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.moved(ctx);
        if !self.itinerary.is_empty() {
            self.hop = Some(ctx.set_timer(SimDuration::from_millis(500)));
        }
    }
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let _ = self.client.on_message(ctx, from, payload);
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.hop == Some(timer) {
            self.hop = None;
            if let Some(next) = self.itinerary.pop() {
                ctx.dispatch(next);
            }
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }
}

/// Issues one locate for the roamer once it has settled.
struct Seeker {
    client: Box<dyn DirectoryClient>,
    target: AgentId,
    kickoff: Option<TimerId>,
    outcome: Arc<Mutex<Option<ClientEvent>>>,
}

impl Agent for Seeker {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.kickoff = Some(ctx.set_timer(SimDuration::from_secs(3)));
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

/// The acceptance invariant of the span subsystem: for a real multi-hop
/// locate under the forwarding scheme, the reconstructed span tree's
/// child durations sum exactly to the root's end-to-end latency — every
/// nanosecond lands in a named phase (or the explicit `other` bucket),
/// none vanishes.
#[test]
fn forwarding_span_tree_accounts_for_every_nanosecond() {
    let topology = Topology::lan(4, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(11));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    let mut scheme = ForwardingScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    // Born on node 1, hops to node 2 then node 3: two chain pointers.
    let target = platform.spawn(
        Box::new(Roamer {
            client: scheme.make_client(),
            itinerary: vec![NodeId::new(3), NodeId::new(2)],
            hop: None,
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
        NodeId::new(0),
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
    assert_eq!(sink.dropped(), 0, "the ring must be large enough");

    let corr = CorrId::new(seeker.raw(), 7);
    let records = sink.snapshot();
    let tree = build_span(&records, corr).expect("the locate left trace records");

    // The chain was traversed: the locate crossed more wire hops than a
    // direct query-and-answer would, and some transport time is attributed
    // to chain traversal specifically.
    let transports = tree
        .children
        .iter()
        .filter(|c| matches!(c.kind, SpanKind::Transport))
        .count();
    assert!(
        transports >= 3,
        "client -> birth forwarder -> chain -> answer is at least 3 wire hops: {tree:#?}"
    );
    let breakdown = tree.breakdown();
    assert!(
        !breakdown.of(Phase::ChainTraversal).is_zero(),
        "forwarded ChainLocate hops must be attributed to chain traversal: {breakdown:#?}"
    );

    // The accounting invariant: child spans partition the root window, so
    // their durations sum to the end-to-end latency exactly.
    let child_sum: SimDuration = tree.children.iter().map(|c| c.duration()).sum();
    assert_eq!(
        child_sum,
        tree.duration(),
        "child phases must sum to the root latency: {tree:#?}"
    );
    let phase_sum: SimDuration = Phase::ALL.iter().map(|&p| breakdown.of(p)).sum();
    assert_eq!(phase_sum, breakdown.total, "phase buckets must partition");
    assert_eq!(breakdown.total, tree.duration());

    // Children never overlap and never leave the root window.
    for pair in tree.children.windows(2) {
        assert!(pair[0].end <= pair[1].start, "spans must not overlap");
    }
    assert!(tree.children.first().expect("non-empty").start >= tree.start);
    assert!(tree.children.last().expect("non-empty").end <= tree.end);

    // Both exporters accept the tree and are deterministic.
    let trees = [tree];
    assert_eq!(to_perfetto_json(&trees), to_perfetto_json(&trees));
    assert_eq!(
        to_folded(&trees, "forwarding"),
        to_folded(&trees, "forwarding")
    );
    assert!(to_folded(&trees, "forwarding").contains("chain_traversal"));
}

/// Re-running the same seeded platform yields byte-identical exporter
/// output — the spans side of the determinism guarantee.
#[test]
fn span_exports_are_deterministic_across_runs() {
    let run = || {
        let scenario = agentrack::workload::Scenario::new("span-det")
            .with_agents(20)
            .with_queries(40)
            .with_seconds(6.0, 3.0)
            .with_seed(77);
        let sink = TraceSink::bounded(65_536);
        let mut scheme = ForwardingScheme::new(LocationConfig::default());
        scenario.run_with(
            &mut scheme,
            agentrack::workload::RunOptions::new().with_sink(sink.clone()),
        );
        let trees = agentrack::trace_analysis::build_spans(&sink.snapshot());
        (to_perfetto_json(&trees), to_folded(&trees, "forwarding"))
    };
    let (perfetto_a, folded_a) = run();
    let (perfetto_b, folded_b) = run();
    assert_eq!(perfetto_a, perfetto_b);
    assert_eq!(folded_a, folded_b);
    assert!(!folded_a.is_empty(), "a real run must produce spans");
}
