//! The simulator's agent table: ids it never assigned, the live-agent
//! counters across every way an agent comes and goes, and the per-agent
//! timer floor a node restart raises.

use std::sync::{Arc, Mutex};

use agentrack_platform::{
    Agent, AgentCtx, AgentId, DurationDist, NodeId, Payload, PlatformConfig, SimDuration,
    SimPlatform, SimTime, TimerId, Topology,
};
use agentrack_sim::{FaultEvent, FaultKind, FaultPlan};

const LATENCY: SimDuration = SimDuration::from_micros(300);
const SERVICE: SimDuration = SimDuration::from_micros(100);

fn platform(nodes: u32) -> SimPlatform {
    let topo = Topology::lan(nodes, DurationDist::Constant(LATENCY));
    let config = PlatformConfig::default()
        .with_seed(7)
        .with_handler_service_time(DurationDist::Constant(SERVICE));
    SimPlatform::new(topo, config)
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

type Bounces = Arc<Mutex<Vec<(SimTime, AgentId, NodeId)>>>;

/// Sends one message to `target` at node 1 when its timer fires at 1 ms,
/// and records when and what bounced.
struct Sender {
    target: AgentId,
    bounces: Bounces,
}

impl Agent for Sender {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        ctx.send(self.target, NodeId::new(1), Payload::encode(&"anyone?"));
    }

    fn on_delivery_failed(
        &mut self,
        ctx: &mut AgentCtx<'_>,
        to: AgentId,
        node: NodeId,
        payload: &Payload,
    ) {
        assert_eq!(payload.decode::<String>().unwrap(), "anyone?");
        self.bounces.lock().unwrap().push((ctx.now(), to, node));
    }
}

struct Idle;
impl Agent for Idle {}

/// A message to an id the simulator never assigned bounces like one to an
/// agent that is gone, and leaves the table as it was.
#[test]
fn an_unassigned_id_bounces_like_a_gone_agent() {
    // The stand-in HAgent id the benchmark's layer probes address; a
    // table that grew to hold it would abort on the allocation.
    let never = AgentId::new(u64::MAX - 1);
    let bounce_of = |target: Option<AgentId>| {
        let mut p = platform(2);
        let gone = p.spawn(Box::new(Idle), NodeId::new(1));
        p.run_until_idle();
        assert!(p.kill(gone));
        let bounces: Bounces = Arc::default();
        p.spawn(
            Box::new(Sender {
                target: target.unwrap_or(gone),
                bounces: Arc::clone(&bounces),
            }),
            NodeId::new(0),
        );
        let sent_at = p.now() + p.config().creation_overhead + SimDuration::from_millis(1);
        p.run_until_idle();
        let stats = p.stats();
        assert_eq!(
            (
                stats.messages_sent,
                stats.messages_failed,
                stats.messages_delivered
            ),
            (1, 1, 0)
        );
        assert_eq!(p.agent_count(), 1, "only the sender is live");
        assert!(!p.is_live(never) && !p.is_active(never));
        assert_eq!(p.agent_node(never), None);
        assert_eq!(p.next_agent_id(), 2, "ids stay sequential");
        let bounces = bounces.lock().unwrap().clone();
        assert_eq!(bounces.len(), 1);
        let (at, to, node) = bounces[0];
        assert_eq!(node, NodeId::new(1));
        (at - sent_at, to)
    };
    let (gone_after, gone) = bounce_of(None);
    let (never_after, to) = bounce_of(Some(never));
    assert_eq!(to, never);
    assert_eq!(gone, AgentId::new(0));
    // Out to node 1, back to node 0, then the sender's own service.
    assert_eq!(never_after, LATENCY * 2 + SERVICE);
    assert_eq!(never_after, gone_after);
}

/// Creates a child on node 1 when created; the child disposes itself
/// when its 1 ms timer fires.
struct Parent {
    child: Arc<Mutex<Option<AgentId>>>,
}

impl Agent for Parent {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        let child = ctx.create_agent(Box::new(Mayfly), NodeId::new(1));
        *self.child.lock().unwrap() = Some(child);
    }
}

struct Mayfly;

impl Agent for Mayfly {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(1));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        ctx.dispose();
    }
}

#[test]
fn counts_follow_spawn_create_kill_and_dispose() {
    let mut p = platform(2);
    let child = Arc::new(Mutex::new(None));
    let parent = p.spawn(
        Box::new(Parent {
            child: Arc::clone(&child),
        }),
        NodeId::new(0),
    );
    let idle = p.spawn(Box::new(Idle), NodeId::new(1));
    assert_eq!(p.agent_count(), 2);
    assert!(
        p.is_live(parent) && !p.is_active(parent),
        "still being created"
    );

    // Run past the parent's creation, not yet past the child's 1 ms timer.
    let created = p.now() + p.config().creation_overhead;
    p.run_until(created);
    let child = child.lock().unwrap().expect("the parent created a child");
    assert_eq!(child, AgentId::new(2), "a created agent takes the next id");
    assert_eq!(p.agent_count(), 3);
    assert!(p.is_active(parent) && p.is_active(idle));
    assert!(p.is_live(child) && !p.is_active(child));

    assert!(p.kill(idle));
    assert!(!p.kill(idle), "killed once");
    assert_eq!(p.agent_count(), 2);
    assert!(!p.is_live(idle) && !p.is_active(idle));

    p.run_until_idle();
    assert!(!p.is_live(child), "the child disposed itself");
    assert_eq!(p.agent_count(), 1);
    assert_eq!(p.stats().agents_disposed, 1);
    assert_eq!(p.agent_node(parent), Some(NodeId::new(0)));

    let next = p.spawn(Box::new(Idle), NodeId::new(0));
    assert_eq!(next, AgentId::new(3));
    assert_eq!(p.agent_count(), 2);
}

type Fired = Arc<Mutex<Vec<(AgentId, &'static str, SimTime)>>>;

/// Arms a 100 ms timer at creation and a 30 ms one on restart, and logs
/// which fires when.
struct Ticker {
    first: Option<TimerId>,
    fired: Fired,
}

impl Agent for Ticker {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.first = Some(ctx.set_timer(SimDuration::from_millis(100)));
    }

    fn on_restart(&mut self, ctx: &mut AgentCtx<'_>, _lost_soft_state: bool) {
        ctx.set_timer(SimDuration::from_millis(30));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, timer: TimerId) {
        let which = if Some(timer) == self.first {
            "armed at creation"
        } else {
            "armed on restart"
        };
        self.fired
            .lock()
            .unwrap()
            .push((ctx.self_id(), which, ctx.now()));
    }
}

/// Node 1 crashes at 10 ms and restarts at 50 ms. Its ticker's 100 ms
/// timer, due after the restart, never fires; the one it arms on restart
/// does, and so does the 100 ms timer of the ticker on node 0.
#[test]
fn a_restart_keeps_pre_crash_timers_dead() {
    let mut p = platform(2);
    let fired: Fired = Arc::default();
    let ticker = |fired: &Fired| {
        Box::new(Ticker {
            first: None,
            fired: Arc::clone(fired),
        })
    };
    let up = p.spawn(ticker(&fired), NodeId::new(0));
    let crashed = p.spawn(ticker(&fired), NodeId::new(1));
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: ms(10),
        kind: FaultKind::NodeCrash {
            node: NodeId::new(1),
            lose_soft_state: false,
            restart_at: Some(ms(50)),
        },
    });
    p.set_fault_plan(&plan);
    p.run_until_idle();

    let created = SimTime::ZERO + p.config().creation_overhead;
    let mut fired = fired.lock().unwrap().clone();
    fired.sort();
    assert_eq!(
        fired,
        [
            (
                up,
                "armed at creation",
                created + SimDuration::from_millis(100)
            ),
            (crashed, "armed on restart", ms(80)),
        ]
    );
    assert!(p.is_active(crashed), "the resident survived the restart");
}
