//! The client-side locate discipline, tested once for all four schemes:
//! the same script — register, then locate an agent that never existed —
//! runs against each scheme's client on a `SimPlatform`, and the trace,
//! the owner-visible events and the per-tracker give-up counters must
//! tell the same story everywhere.

use std::sync::{Arc, Mutex};

use agentrack_core::{
    CentralizedScheme, ClientEvent, DirectoryClient, ForwardingScheme, HashedScheme,
    HomeRegistryScheme, LocationConfig, LocationScheme,
};
use agentrack_platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack_sim::{
    DurationDist, GiveUpCause, SimDuration, Topology, TraceEvent, TraceRecord, TraceSink,
};

const TOKEN: u64 = 1;
const GHOST: AgentId = AgentId::new(0xDEAD);

type Events = Arc<Mutex<Vec<ClientEvent>>>;

/// Registers on creation, starts one locate of `target` 50 ms later, and
/// records how it ends.
struct Owner {
    client: Box<dyn DirectoryClient>,
    target: AgentId,
    start: Option<TimerId>,
    outcomes: Events,
}

impl Owner {
    fn note(&self, event: ClientEvent) {
        if matches!(
            event,
            ClientEvent::Located { .. } | ClientEvent::Failed { .. }
        ) {
            self.outcomes.lock().unwrap().push(event);
        }
    }
}

impl Agent for Owner {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.client.register(ctx);
        self.start = Some(ctx.set_timer(SimDuration::from_millis(50)));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        if self.start == Some(timer) {
            self.start = None;
            self.client.locate(ctx, self.target, TOKEN);
        } else {
            let event = self.client.on_timer(ctx, timer);
            self.note(event);
        }
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        let event = self.client.on_message(ctx, from, payload);
        self.note(event);
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        self.client.on_delivery_failed(ctx, to, node, payload);
    }
}

struct Run {
    owner: AgentId,
    outcomes: Vec<ClientEvent>,
    trace: Vec<TraceRecord>,
    /// `(tracker, giveup_timeout, giveup_negative)` rows with a give-up.
    charged: Vec<(u64, u64, u64)>,
}

/// Bootstraps `scheme` on a two-node LAN with `latency` one-way delay and
/// runs one [`Owner`] on node 1 locating `target` for `millis`.
fn run(scheme: &mut dyn LocationScheme, latency: SimDuration, target: AgentId, millis: u64) -> Run {
    let topology = Topology::lan(2, DurationDist::Constant(latency));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(17));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    scheme.bootstrap(&mut platform);
    let outcomes = Events::default();
    let owner = platform.spawn(
        Box::new(Owner {
            client: scheme.make_client(),
            target,
            start: None,
            outcomes: outcomes.clone(),
        }),
        NodeId::new(1),
    );
    platform.run_for(SimDuration::from_millis(millis));
    assert_eq!(sink.dropped(), 0, "trace buffer overflowed; raise the cap");
    let charged = scheme
        .registry()
        .snapshot()
        .trackers
        .iter()
        .filter(|(_, t)| t.giveup_timeout + t.giveup_negative > 0)
        .map(|(id, t)| (*id, t.giveup_timeout, t.giveup_negative))
        .collect();
    let outcomes = outcomes.lock().unwrap().clone();
    Run {
        owner,
        outcomes,
        trace: sink.snapshot(),
        charged,
    }
}

fn config(max_locate_attempts: u32, retry_ms: u64) -> LocationConfig {
    LocationConfig {
        max_locate_attempts,
        locate_retry_timeout: SimDuration::from_millis(retry_ms),
        // The IAgent holds a locate for a missing record this long (a
        // handoff may be in flight) before answering NotFound; keep that
        // well inside the retry timeout so the hashed scheme's attempts
        // end on the negative answer, as the central tracker's do.
        pending_timeout: SimDuration::from_millis(5),
        check_interval: SimDuration::from_millis(5),
        ..LocationConfig::default()
    }
}

/// The `RetryAttempt` numbers and `RetryGiveUp` causes `client` emitted.
fn retries(trace: &[TraceRecord], client: AgentId) -> (Vec<u32>, Vec<(u32, GiveUpCause)>) {
    let mut attempts = Vec::new();
    let mut give_ups = Vec::new();
    for record in trace {
        match record.event {
            TraceEvent::RetryAttempt {
                client: by,
                attempt,
                ..
            } if by == client.raw() => attempts.push(attempt),
            TraceEvent::RetryGiveUp {
                client: by,
                attempts,
                cause,
                ..
            } if by == client.raw() => give_ups.push((attempts, cause)),
            _ => {}
        }
    }
    (attempts, give_ups)
}

#[test]
fn locating_a_ghost_fails_once_after_the_whole_budget_in_every_scheme() {
    const MAX: u32 = 4;
    // What ends each attempt, and whether a tracker gets the blame. The
    // hashed and centralized schemes route the locate to a tracker that
    // answers `NotFound`; the name-based schemes have no name to derive a
    // tracker from, so every attempt times out against nobody.
    type Make = fn(LocationConfig) -> Box<dyn LocationScheme>;
    let table: [(Make, GiveUpCause, bool); 4] = [
        (
            |c| Box::new(HashedScheme::new(c)),
            GiveUpCause::Negative,
            true,
        ),
        (
            |c| Box::new(CentralizedScheme::new(c)),
            GiveUpCause::Negative,
            true,
        ),
        (
            |c| Box::new(HomeRegistryScheme::new(c)),
            GiveUpCause::Timeout,
            false,
        ),
        (
            |c| Box::new(ForwardingScheme::new(c)),
            GiveUpCause::Timeout,
            false,
        ),
    ];
    for (make, cause, charged) in table {
        let mut scheme = make(config(MAX, 100));
        let name = scheme.name();
        let run = run(scheme.as_mut(), SimDuration::from_micros(300), GHOST, 2_000);

        assert_eq!(
            run.outcomes,
            [ClientEvent::Failed {
                token: TOKEN,
                target: GHOST
            }],
            "{name}: exactly one Failed"
        );
        let (attempts, give_ups) = retries(&run.trace, run.owner);
        assert_eq!(
            attempts,
            (2..=MAX).collect::<Vec<_>>(),
            "{name}: one RetryAttempt per attempt after the first"
        );
        assert_eq!(give_ups, [(MAX, cause)], "{name}: one RetryGiveUp");

        let expected = match cause {
            GiveUpCause::Timeout => (1, 0),
            GiveUpCause::Negative => (0, 1),
        };
        match run.charged.as_slice() {
            [] => assert!(!charged, "{name}: the noted tracker must be charged"),
            [(_, timeouts, negatives)] => {
                assert!(charged, "{name}: no tracker was noted, none may be charged");
                assert_eq!((*timeouts, *negatives), expected, "{name}");
            }
            many => panic!("{name}: one give-up charged to several trackers: {many:?}"),
        }
    }
}

/// The race the retry bookkeeping exists for: a negative answer that
/// already triggered a retry must make the older attempt's timer a no-op.
/// With a 4 ms round trip to the central tracker and a 10 ms retry timeout,
/// the timers of attempts 1..6 all fire while later attempts of the same
/// locate are in flight; if any of them burned budget the locate would
/// give up before its eighth `NotFound`.
#[test]
fn a_negative_answers_retry_disarms_the_older_attempts_timer() {
    const MAX: u32 = 8;
    let mut scheme = CentralizedScheme::new(config(MAX, 10));
    let run = run(&mut scheme, SimDuration::from_millis(2), GHOST, 500);

    let (attempts, give_ups) = retries(&run.trace, run.owner);
    assert_eq!(attempts, (2..=MAX).collect::<Vec<_>>());
    assert_eq!(give_ups, [(MAX, GiveUpCause::Negative)]);
    assert_eq!(run.outcomes.len(), 1, "the locate fails exactly once");

    // Every attempt was sent once and lived to see its own answer.
    let me = run.owner.raw();
    let before_give_up = || {
        run.trace
            .iter()
            .map(|r| &r.event)
            .take_while(|e| !matches!(e, TraceEvent::RetryGiveUp { .. }))
    };
    let sent = before_give_up()
        .filter(
            |e| matches!(e, TraceEvent::MessageSend { kind: "Locate", from, .. } if *from == me),
        )
        .count();
    let answered = before_give_up()
        .filter(|e| matches!(e, TraceEvent::MessageRecv { kind: "NotFound", by, .. } if *by == me))
        .count();
    assert_eq!(
        (sent, answered),
        (MAX as usize, MAX as usize),
        "the budget burns once"
    );
}

/// `MessageSend.node` is the node the message is sent *to*: the `Locate`
/// of a querier on node 1 goes to the bootstrap IAgent on node 0.
#[test]
fn a_send_event_carries_the_destination_node() {
    let mut scheme = HashedScheme::new(config(4, 100));
    let run = run(&mut scheme, SimDuration::from_micros(300), GHOST, 200);
    let me = run.owner.raw();
    let locate_nodes: Vec<NodeId> = run
        .trace
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::MessageSend {
                kind: "Locate",
                from,
                node,
                ..
            } if from == me => Some(node),
            _ => None,
        })
        .collect();
    assert!(!locate_nodes.is_empty(), "the locate never left the client");
    assert!(
        locate_nodes.iter().all(|&node| node == NodeId::new(0)),
        "Locate sends stamped {locate_nodes:?}, the IAgent lives on node 0"
    );
}

/// A hashed locate that bounces off its IAgent (merged away, or
/// mid-migration) is retried 50 ms after the bounce comes back, not after
/// the whole retry timeout: the outage is short, and an immediate retry
/// would burn the budget inside it.
#[test]
fn a_bounced_hashed_locate_is_retried_after_50_ms() {
    let topology = Topology::lan(2, DurationDist::Constant(SimDuration::from_micros(300)));
    let mut platform = SimPlatform::new(topology, PlatformConfig::default().with_seed(17));
    let sink = TraceSink::bounded(100_000);
    platform.set_trace_sink(sink.clone());
    // The bootstrap IAgent is the scheme's first agent.
    let iagent = AgentId::new(platform.next_agent_id());
    let mut scheme = HashedScheme::new(config(4, 400));
    scheme.bootstrap(&mut platform);
    let owner = platform.spawn(
        Box::new(Owner {
            client: scheme.make_client(),
            target: GHOST,
            start: None,
            outcomes: Events::default(),
        }),
        NodeId::new(1),
    );
    // Registered by now; the locate starts at 50 ms.
    platform.run_for(SimDuration::from_millis(40));
    assert!(platform.kill(iagent));
    platform.run_for(SimDuration::from_millis(200));

    let me = owner.raw();
    let trace = sink.snapshot();
    let first = |pick: &dyn Fn(&TraceEvent) -> bool| {
        trace
            .iter()
            .find(|r| pick(&r.event))
            .map(|r| r.at)
            .expect("event traced")
    };
    let sent = first(
        &|e| matches!(e, TraceEvent::MessageSend { kind: "Locate", from, .. } if *from == me),
    );
    let retried = first(&|e| matches!(e, TraceEvent::RetryAttempt { client, .. } if *client == me));
    // The backoff starts once the bounce is back: about a millisecond of
    // hops and handling after the send.
    let waited = retried.saturating_since(sent);
    assert!(
        (SimDuration::from_millis(50)..=SimDuration::from_millis(52)).contains(&waited),
        "retried {waited:?} after the send: the 50 ms bounce backoff, not the 400 ms timeout"
    );
}
