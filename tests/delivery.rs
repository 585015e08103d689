//! Guaranteed delivery (the paper's §6 open problem): messages must reach
//! an agent even when it "moves faster than the requests for its
//! location". Compares the naive locate-then-send pattern against
//! tracker-mediated delivery (`DirectoryClient::send_via`). This file is
//! experiment E11: `e11_table_at_full_size` asserts the table
//! `EXPERIMENTS.md` records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use agentrack::core::{ClientEvent, DirectoryClient, HashedScheme, LocationConfig, LocationScheme};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, Topology};

const NODES: u32 = 6;

/// Hops constantly, staying `residence` on each node, and counts
/// everything that reaches it.
struct FastMover {
    client: Box<dyn DirectoryClient>,
    residence: SimDuration,
    received: Arc<AtomicU64>,
}

impl Agent for FastMover {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        ctx.set_timer(self.residence);
    }
    fn on_arrival(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.moved(ctx);
        ctx.set_timer(self.residence);
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.client.on_timer(ctx, timer) == ClientEvent::NotMine {
            let next = NodeId::new((ctx.node().raw() + 1) % NODES);
            ctx.dispatch(next);
        }
    }
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        match self.client.on_message(ctx, from, payload) {
            ClientEvent::Mail { .. } => {
                self.received.fetch_add(1, Ordering::Relaxed);
            }
            ClientEvent::NotMine
                // A direct application message (locate-then-send path).
                if payload.decode::<String>().is_ok() => {
                    self.received.fetch_add(1, Ordering::Relaxed);
                }
            _ => {}
        }
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

/// Sends one message every `period` to the target, `mediated` choosing
/// the path.
struct Sender {
    client: Box<dyn DirectoryClient>,
    target: AgentId,
    period: SimDuration,
    mediated: bool,
    remaining: u32,
    sent: Arc<AtomicU64>,
    next_token: u64,
    tick: Option<TimerId>,
}

impl Agent for Sender {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.tick = Some(ctx.set_timer(self.period));
    }
    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.tick == Some(timer) {
            if self.remaining > 0 {
                self.remaining -= 1;
                self.sent.fetch_add(1, Ordering::Relaxed);
                if self.mediated {
                    assert!(self.client.send_via(ctx, self.target, vec![1, 2, 3]));
                } else {
                    self.next_token += 1;
                    self.client.locate(ctx, self.target, self.next_token);
                }
                self.tick = Some(ctx.set_timer(self.period));
            }
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }
    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if let ClientEvent::Located { target, node, .. } =
            self.client.on_message(ctx, from, payload)
        {
            // Naive pattern: fire at the located node and hope.
            ctx.send(target, node, Payload::encode(&"direct".to_owned()));
        }
    }
    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        // The naive sender does not retry its app message; the mechanism's
        // own traffic handles itself.
        let _ = self.client.on_delivery_failed(ctx, to, node, payload);
    }
}

/// Posts `count` messages, one every `period_ms`, to an agent that hops
/// every `residence_ms`, and returns (sent, received) after 15 s of
/// grace past the last post.
fn run(residence_ms: u64, period_ms: u64, count: u32, mediated: bool) -> (u64, u64) {
    let topology = Topology::lan(NODES, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(33));
    let mut scheme = HashedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let received = Arc::new(AtomicU64::new(0));
    let mover = platform.spawn(
        Box::new(FastMover {
            client: scheme.make_client(),
            residence: SimDuration::from_millis(residence_ms),
            received: received.clone(),
        }),
        NodeId::new(1),
    );

    let sent = Arc::new(AtomicU64::new(0));
    platform.spawn(
        Box::new(Sender {
            client: scheme.make_client(),
            target: mover,
            period: SimDuration::from_millis(period_ms),
            mediated,
            remaining: count,
            sent: sent.clone(),
            next_token: 0,
            tick: None,
        }),
        NodeId::new(0),
    );

    let posting = SimDuration::from_millis(period_ms * u64::from(count));
    platform.run_for(posting + SimDuration::from_secs(15));
    (
        sent.load(Ordering::Relaxed),
        received.load(Ordering::Relaxed),
    )
}

/// The mediated path delivers everything, even to an agent that never
/// stops moving.
#[test]
fn mediated_delivery_is_lossless_under_constant_motion() {
    let (sent, received) = run(30, 50, 100, true);
    assert_eq!(sent, 100);
    assert_eq!(received, sent, "every mediated message must arrive");
}

/// The naive locate-then-send pattern races the mover and loses some of
/// the time — the gap the paper's §6 names and this extension closes.
#[test]
fn locate_then_send_drops_messages_to_fast_movers() {
    let (sent, received) = run(30, 50, 100, false);
    assert_eq!(sent, 100);
    assert!(
        received < sent,
        "expected the naive pattern to lose messages ({received}/{sent} arrived)"
    );
    assert!(
        received > sent / 2,
        "but it should not collapse entirely ({received}/{sent})"
    );
}

/// The E11 table in `EXPERIMENTS.md`: 200 messages at a 40 ms period to
/// an agent hopping every 20, 50 or 200 ms. The naive pattern loses more
/// the faster the agent moves; mediated delivery loses nothing.
#[test]
fn e11_table_at_full_size() {
    let success_pct = |residence_ms, mediated| {
        let (sent, received) = run(residence_ms, 40, 200, mediated);
        format!("{:.1}", 100.0 * received as f64 / sent as f64)
    };
    for (residence_ms, naive) in [(20, "56.0"), (50, "77.0"), (200, "95.5")] {
        assert_eq!(success_pct(residence_ms, false), naive, "{residence_ms} ms");
        assert_eq!(
            success_pct(residence_ms, true),
            "100.0",
            "{residence_ms} ms"
        );
    }
}
