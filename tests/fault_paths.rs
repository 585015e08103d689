//! Targeted fault-path tests: the retry give-up and mailbox double-expiry
//! paths, asserted through their trace events and metrics, the rehash
//! request give-up (its re-ask must wait out the HAgent's lease timeout),
//! plus the transport-randomness isolation guarantee (enabling loss must
//! not perturb the agent-visible RNG stream).

use std::sync::{Arc, Mutex};

use agentrack::core::{
    CentralizedScheme, DirectoryClient, HashFunction, IAgentBehavior, LocationConfig,
    LocationScheme, SharedSchemeStats, Wire,
};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, SimTime, Topology, TraceEvent, TraceSink};
use agentrack::workload::{Metrics, QuerierBehavior, TargetSelector, Targets};

fn lan(nodes: u32) -> Topology {
    Topology::lan(nodes, DurationDist::Constant(SimDuration::from_micros(300)))
}

/// A locate aimed at an agent that never registered burns its whole retry
/// budget, emits `RetryGiveUp`, and surfaces as a recorded failure.
#[test]
fn locate_of_phantom_agent_gives_up_with_a_trace() {
    let mut platform = SimPlatform::new(lan(4), PlatformConfig::default().with_seed(7));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    let mut scheme = CentralizedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let phantom = AgentId::new(0xDEAD);
    let metrics = Metrics::new();
    let querier = QuerierBehavior::new(
        scheme.make_client(),
        Targets::Fixed(vec![phantom]),
        TargetSelector::Uniform,
        SimDuration::from_millis(100),
        DurationDist::Constant(SimDuration::from_millis(100)),
        1,
        metrics.clone(),
    );
    platform.spawn(Box::new(querier), NodeId::new(1));
    platform.run_for(SimDuration::from_secs(20));

    let failures = metrics.with(|m| m.locate_failures);
    assert_eq!(failures, 1, "the phantom locate must fail exactly once");
    let give_ups = sink
        .snapshot()
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::RetryGiveUp { .. }))
        .count();
    assert_eq!(give_ups, 1, "expected exactly one RetryGiveUp trace event");
}

/// Drives a directory client by hand: sends guaranteed-delivery mail to a
/// never-registered target at scheduled times.
struct MailSender {
    client: Box<dyn DirectoryClient>,
    target: AgentId,
    send_at: Vec<SimDuration>,
    next: usize,
    send_timer: Option<TimerId>,
}

impl MailSender {
    fn arm(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some(&at) = self.send_at.get(self.next) {
            let elapsed = ctx.now().saturating_since(agentrack::sim::SimTime::ZERO);
            self.send_timer = Some(ctx.set_timer(at - elapsed));
        }
    }
}

impl Agent for MailSender {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.send_timer == Some(timer) {
            self.send_timer = None;
            let seq = self.next as u8;
            self.next += 1;
            let target = self.target;
            self.client.send_via(ctx, target, vec![seq]);
            self.arm(ctx);
            return;
        }
        let _ = self.client.on_timer(ctx, timer);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let _ = self.client.on_message(ctx, from, payload);
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

impl std::fmt::Debug for MailSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MailSender").finish_non_exhaustive()
    }
}

/// Two pieces of mail buffered 5 s apart for a target that never shows up
/// expire in two separate sweeps: two `MailExpired` trace events, and the
/// tracker's `mail_lost` gauge counts both.
#[test]
fn buffered_mail_expires_twice_and_is_counted() {
    let mut platform = SimPlatform::new(lan(4), PlatformConfig::default().with_seed(9));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    let mut scheme = CentralizedScheme::new(LocationConfig::default());
    scheme.bootstrap(&mut platform);

    let sender = MailSender {
        client: scheme.make_client(),
        target: AgentId::new(0xBEEF),
        send_at: vec![SimDuration::from_millis(100), SimDuration::from_secs(5)],
        next: 0,
        send_timer: None,
    };
    platform.spawn(Box::new(sender), NodeId::new(2));
    // The mailbox TTL is 10 s: the first item expires around t=10.1 s, the
    // second around t=15 s — comfortably inside 25 s.
    platform.run_for(SimDuration::from_secs(25));

    let expiries: Vec<usize> = sink
        .snapshot()
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MailExpired { lost, .. } => Some(lost),
            _ => None,
        })
        .collect();
    assert_eq!(
        expiries,
        vec![1, 1],
        "expected two single-item expiry sweeps, got {expiries:?}"
    );
    let mail_lost: u64 = scheme
        .shared()
        .tracker_rows()
        .trackers
        .iter()
        .map(|(_, t)| t.mail_lost)
        .sum();
    assert_eq!(mail_lost, 2, "both expired items must be counted as lost");
}

/// Plays a dead-silent HAgent (records split requests, never answers) and
/// simultaneously drives steady registration traffic at the IAgent.
struct SilentHAgent {
    iagent: AgentId,
    iagent_node: NodeId,
    requests: Arc<Mutex<Vec<SimTime>>>,
    sent: u64,
}

impl Agent for SilentHAgent {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(5));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        let agent = AgentId::new(3000 + self.sent % 64);
        self.sent += 1;
        let here = ctx.node();
        ctx.send(
            self.iagent,
            self.iagent_node,
            Wire::Register { agent, node: here }.payload(),
        );
        ctx.set_timer(SimDuration::from_millis(5));
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        if let Some(Wire::SplitRequest { .. }) = Wire::from_payload(payload) {
            self.requests.lock().unwrap().push(ctx.now());
        }
    }
}

impl std::fmt::Debug for SilentHAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SilentHAgent").finish_non_exhaustive()
    }
}

/// A split request whose answer is lost (the HAgent never replies) is
/// given up and re-asked only after the HAgent's own lease timeout plus
/// its commit cooldown have certainly passed — re-asking earlier would
/// race a lease that may still be live on the HAgent. The old threshold
/// (`rehash_cooldown + rate_window * 4`) sat *below* the lease timeout,
/// so the retry was guaranteed a pointless Busy denial.
#[test]
fn lost_rehash_answer_gives_up_after_the_lease_timeout() {
    let mut platform = SimPlatform::new(lan(2), PlatformConfig::default().with_seed(21));
    let requests: Arc<Mutex<Vec<SimTime>>> = Arc::default();

    let config = LocationConfig {
        // Lease timeout = rate_window * 5 = 500 ms; give-up threshold
        // = 500 ms + rehash_cooldown (100 ms) = 600 ms. The old formula
        // gave 100 ms + 4 * 100 ms = 500 ms — inside the lease window.
        rate_window: SimDuration::from_millis(100),
        check_interval: SimDuration::from_millis(50),
        ..LocationConfig::default()
    };
    assert_eq!(config.rehash_lease_timeout(), SimDuration::from_millis(500));

    let ia = AgentId::new(platform.next_agent_id());
    let driver = AgentId::new(ia.raw() + 1);
    let hf = HashFunction::initial(ia, NodeId::new(0));
    let spawned = platform.spawn(
        Box::new(IAgentBehavior::initial(
            config,
            driver, // the silent driver plays the HAgent
            NodeId::new(1),
            hf,
            SharedSchemeStats::new(),
        )),
        NodeId::new(0),
    );
    assert_eq!(spawned, ia);
    platform.spawn(
        Box::new(SilentHAgent {
            iagent: ia,
            iagent_node: NodeId::new(0),
            requests: requests.clone(),
            sent: 0,
        }),
        NodeId::new(1),
    );

    platform.run_for(SimDuration::from_secs(2));

    let times = requests.lock().unwrap().clone();
    assert!(
        times.len() >= 2,
        "the IAgent must give up on the lost answer and re-ask: {times:?}"
    );
    let gap = times[1].saturating_since(times[0]);
    assert!(
        gap > SimDuration::from_millis(600),
        "re-asked after only {gap:?}: inside the HAgent's lease window"
    );
    assert!(
        gap < SimDuration::from_millis(750),
        "re-ask took {gap:?}: give-up threshold drifted from the lease timeout"
    );
}

/// Sends a message to a fixed peer every tick and records what the
/// agent-visible RNG hands out.
struct RngProbe {
    peer: AgentId,
    peer_node: NodeId,
    samples: Arc<Mutex<Vec<u64>>>,
    remaining: u32,
}

impl Agent for RngProbe {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(100));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        let draw = ctx.rng().next_u64();
        self.samples.lock().expect("samples poisoned").push(draw);
        let (peer, peer_node) = (self.peer, self.peer_node);
        ctx.send(peer, peer_node, Payload::encode(&draw));
        ctx.set_timer(SimDuration::from_millis(100));
    }
}

impl std::fmt::Debug for RngProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RngProbe").finish_non_exhaustive()
    }
}

/// A message sink that does nothing (its traffic exists to be lost).
#[derive(Debug)]
struct Sink;

impl Agent for Sink {}

fn rng_stream_under_loss(loss: f64) -> (Vec<u64>, u64) {
    let topology = lan(2).with_loss(loss);
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(33));
    let sink_id = platform.spawn(Box::new(Sink), NodeId::new(1));
    let samples = Arc::new(Mutex::new(Vec::new()));
    let probe = RngProbe {
        peer: sink_id,
        peer_node: NodeId::new(1),
        samples: Arc::clone(&samples),
        remaining: 50,
    };
    platform.spawn(Box::new(probe), NodeId::new(0));
    platform.run_for(SimDuration::from_secs(10));
    let lost = platform.stats().messages_lost;
    let out = samples.lock().expect("samples poisoned").clone();
    (out, lost)
}

/// Transport randomness (loss, duplication, latency jitter) draws from its
/// own forked stream: turning loss on must not shift a single value the
/// agents' RNG hands out, so enabling faults cannot perturb workload
/// arrival sequences.
#[test]
fn loss_decisions_do_not_perturb_the_agent_rng_stream() {
    let (clean, lost_clean) = rng_stream_under_loss(0.0);
    let (lossy, lost_lossy) = rng_stream_under_loss(0.5);
    assert_eq!(lost_clean, 0);
    assert!(lost_lossy > 0, "the loss knob must actually drop messages");
    assert_eq!(clean.len(), 50);
    assert_eq!(
        clean, lossy,
        "agent-visible RNG draws shifted when loss was enabled"
    );
}
