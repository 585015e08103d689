//! Protocol-level tests of the scheme behaviours (IAgent, HAgent,
//! LHAgent), driven by a scripted "puppet" agent speaking the wire
//! protocol directly.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use agentrack_core::{
    key_of, DenyReason, Freshness, HAgentBehavior, HashFunction, IAgentBehavior, LHAgentBehavior,
    LocationConfig, RehashOp, SharedSchemeStats, TrackerView, Wire,
};
use agentrack_hashtree::IAgentId;
use agentrack_platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack_sim::{DurationDist, SimDuration, Topology};

type Inbox = Arc<Mutex<Vec<(AgentId, Wire)>>>;
type Outbox = Arc<Mutex<VecDeque<(AgentId, NodeId, Wire)>>>;
type Moves = Arc<Mutex<Option<NodeId>>>;

/// Sends whatever the test queues in its outbox, then migrates if the
/// test queued a move; records every protocol message it receives.
struct Puppet {
    inbox: Inbox,
    outbox: Outbox,
    moves: Moves,
}

impl Agent for Puppet {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(5));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        while let Some((to, node, msg)) = self.outbox.lock().unwrap().pop_front() {
            ctx.send(to, node, msg.payload());
        }
        if let Some(node) = self.moves.lock().unwrap().take() {
            ctx.dispatch(node);
        }
        ctx.set_timer(SimDuration::from_millis(5));
    }

    fn on_message(&mut self, _ctx: &mut AgentCtx<'_>, from: AgentId, payload: &Payload) {
        if let Some(msg) = Wire::from_payload(payload) {
            self.inbox.lock().unwrap().push((from, msg));
        }
    }
}

struct Harness {
    platform: SimPlatform,
    puppet: AgentId,
    puppet_node: NodeId,
    inbox: Inbox,
    outbox: Outbox,
    moves: Moves,
}

impl Harness {
    fn new(nodes: u32) -> Self {
        Self::with_platform(nodes, PlatformConfig::default())
    }

    fn with_platform(nodes: u32, config: PlatformConfig) -> Self {
        let topo = Topology::lan(nodes, DurationDist::Constant(SimDuration::from_micros(200)));
        let mut platform = SimPlatform::new(topo, config.with_seed(17));
        let inbox: Inbox = Arc::default();
        let outbox: Outbox = Arc::default();
        let moves: Moves = Arc::default();
        let puppet_node = NodeId::new(0);
        let puppet = platform.spawn(
            Box::new(Puppet {
                inbox: inbox.clone(),
                outbox: outbox.clone(),
                moves: moves.clone(),
            }),
            puppet_node,
        );
        Harness {
            platform,
            puppet,
            puppet_node,
            inbox,
            outbox,
            moves,
        }
    }

    fn send(&self, to: AgentId, node: NodeId, msg: Wire) {
        self.outbox.lock().unwrap().push_back((to, node, msg));
    }

    /// Migrates the puppet to `node` after its next batch of sends.
    fn move_to(&self, node: NodeId) {
        *self.moves.lock().unwrap() = Some(node);
    }

    fn run_ms(&mut self, ms: u64) {
        self.platform.run_for(SimDuration::from_millis(ms));
    }

    fn received(&self) -> Vec<Wire> {
        self.inbox
            .lock()
            .unwrap()
            .iter()
            .map(|(_, m)| m.clone())
            .collect()
    }

    fn clear(&self) {
        self.inbox.lock().unwrap().clear();
    }
}

fn config() -> LocationConfig {
    LocationConfig {
        merge_warmup: SimDuration::from_secs(1),
        ..LocationConfig::default()
    }
}

// ---------------------------------------------------------------------
// LHAgent
// ---------------------------------------------------------------------

#[test]
fn lhagent_resolves_from_its_local_copy() {
    let mut h = Harness::new(2);
    // A hash function whose single IAgent is a dummy id on node 1.
    let iagent = AgentId::new(77);
    let hf = HashFunction::initial(iagent, NodeId::new(1));
    let hagent = AgentId::new(88); // never contacted in this test
    let lh = h.platform.spawn(
        Box::new(LHAgentBehavior::new(
            hf,
            hagent,
            NodeId::new(1),
            SharedSchemeStats::new(),
        )),
        NodeId::new(0),
    );

    h.send(
        lh,
        NodeId::new(0),
        Wire::Resolve {
            target: AgentId::new(5),
            token: Some(9),
            corr: None,
        },
    );
    h.run_ms(50);
    let got = h.received();
    assert_eq!(got.len(), 1);
    match &got[0] {
        Wire::Resolved {
            target,
            iagent: ia,
            node,
            version,
            token,
            ..
        } => {
            assert_eq!(*target, AgentId::new(5));
            assert_eq!(*ia, iagent);
            assert_eq!(*node, NodeId::new(1));
            assert_eq!(*version, 1);
            assert_eq!(*token, Some(9));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn lhagent_resolve_fresh_pulls_the_primary_copy() {
    let mut h = Harness::new(2);
    // The puppet plays the HAgent: it will answer FetchHashFn with a newer
    // version pointing at a different IAgent.
    let stale_iagent = AgentId::new(70);
    let fresh_iagent = AgentId::new(71);
    let stale = HashFunction::initial(stale_iagent, NodeId::new(1));
    let mut fresh = HashFunction::initial(fresh_iagent, NodeId::new(0));
    fresh.version = 5;

    let lh = h.platform.spawn(
        Box::new(LHAgentBehavior::new(
            stale,
            h.puppet,
            h.puppet_node,
            SharedSchemeStats::new(),
        )),
        NodeId::new(0),
    );

    h.send(
        lh,
        NodeId::new(0),
        Wire::ResolveFresh {
            target: AgentId::new(5),
            token: Some(1),
            corr: None,
        },
    );
    h.run_ms(30);
    // The LHAgent asked us (the HAgent) for the primary copy.
    let fetch = h
        .received()
        .into_iter()
        .find(|m| matches!(m, Wire::FetchHashFn { .. }));
    assert!(matches!(
        fetch,
        Some(Wire::FetchHashFn {
            have_version: 1,
            ..
        })
    ));
    h.clear();

    // Answer it; the pending resolve must now complete with the new copy.
    h.send(lh, NodeId::new(0), Wire::HashFnCopy { hf: fresh });
    h.run_ms(30);
    let got = h.received();
    assert_eq!(got.len(), 1);
    match &got[0] {
        Wire::Resolved {
            iagent, version, ..
        } => {
            assert_eq!(*iagent, fresh_iagent);
            assert_eq!(*version, 5);
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// An LHAgent already at the HAgent's version, asked to `ResolveFresh`,
/// fetches and is answered by a delta with no ops — no whole copy
/// crosses the wire — which confirms its copy, so it answers.
#[test]
fn lhagent_at_the_current_version_is_confirmed_without_a_copy() {
    let mut h = Harness::new(2);
    let replies: Arc<Mutex<Vec<Wire>>> = Arc::default();
    let seen = replies.clone();
    let hagent = AgentId::new(h.platform.next_agent_id());
    h.platform.set_tracer(Box::new(move |m| {
        if m.from == hagent {
            if let Some(msg) = Wire::from_payload(m.payload) {
                seen.lock().unwrap().push(msg);
            }
        }
    }));
    let hf = HashFunction::initial(AgentId::new(70), NodeId::new(1));
    let spawned = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf.clone(),
            Vec::new(),
            2,
            SharedSchemeStats::new(),
        )),
        NodeId::new(1),
    );
    assert_eq!(spawned, hagent);
    let lh = h.platform.spawn(
        Box::new(LHAgentBehavior::new(
            hf,
            hagent,
            NodeId::new(1),
            SharedSchemeStats::new(),
        )),
        NodeId::new(0),
    );

    h.send(
        lh,
        NodeId::new(0),
        Wire::ResolveFresh {
            target: AgentId::new(5),
            token: Some(3),
            corr: None,
        },
    );
    h.run_ms(50);
    assert_eq!(
        *replies.lock().unwrap(),
        vec![Wire::HashFnDelta {
            from_version: 1,
            ops: Vec::new()
        }]
    );
    let got = h.received();
    assert!(
        matches!(
            got.as_slice(),
            [Wire::Resolved {
                version: 1,
                token: Some(3),
                ..
            }]
        ),
        "{got:?}"
    );
}

/// An LHAgent advances its copy by the ops a delta carries, answering
/// the waiting resolve under the new version; a delta that starts past
/// its version (a gap) or whose op does not apply is discarded, and the
/// LHAgent asks for a whole copy (`have_version: 0`) instead of guessing.
#[test]
fn lhagent_applies_a_delta_and_falls_back_to_a_whole_copy() {
    let mut h = Harness::new(2);
    // The puppet plays the HAgent.
    let old = AgentId::new(70);
    let moved_to = NodeId::new(1);
    let hf = HashFunction::initial(old, NodeId::new(0));
    let lh = h.platform.spawn(
        Box::new(LHAgentBehavior::new(
            hf,
            h.puppet,
            h.puppet_node,
            SharedSchemeStats::new(),
        )),
        NodeId::new(0),
    );
    let resolve_fresh = Wire::ResolveFresh {
        target: AgentId::new(5),
        token: Some(1),
        corr: None,
    };
    let moved = RehashOp::Moved {
        iagent: IAgentId::new(old.raw()),
        node: moved_to,
    };
    let fetches = |h: &Harness| -> Vec<u64> {
        h.received()
            .iter()
            .filter_map(|m| match m {
                Wire::FetchHashFn { have_version, .. } => Some(*have_version),
                _ => None,
            })
            .collect()
    };

    // A gap: the delta starts at version 2, the copy is at 1.
    h.send(lh, NodeId::new(0), resolve_fresh.clone());
    h.run_ms(30);
    assert_eq!(fetches(&h), [1]);
    h.clear();
    h.send(
        lh,
        NodeId::new(0),
        Wire::HashFnDelta {
            from_version: 2,
            ops: vec![moved.clone()],
        },
    );
    h.run_ms(30);
    assert_eq!(fetches(&h), [0], "a gap asks for a whole copy");
    assert!(!h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::Resolved { .. })));
    h.clear();

    // An op that does not apply: moving an IAgent the copy does not hold.
    h.send(
        lh,
        NodeId::new(0),
        Wire::HashFnDelta {
            from_version: 1,
            ops: vec![RehashOp::Moved {
                iagent: IAgentId::new(999),
                node: moved_to,
            }],
        },
    );
    h.run_ms(30);
    assert_eq!(fetches(&h), [0], "a bad op asks for a whole copy");
    h.clear();

    // A delta that applies advances the copy and answers the resolve.
    h.send(
        lh,
        NodeId::new(0),
        Wire::HashFnDelta {
            from_version: 1,
            ops: vec![moved],
        },
    );
    h.run_ms(30);
    let got = h.received();
    assert!(
        matches!(
            got.as_slice(),
            [Wire::Resolved { iagent, node, version: 2, .. }]
                if *iagent == old && *node == moved_to
        ),
        "{got:?}"
    );
    h.clear();

    // Later fetches name the held version again.
    h.send(lh, NodeId::new(0), resolve_fresh);
    h.run_ms(30);
    assert_eq!(fetches(&h), [2]);
}

// ---------------------------------------------------------------------
// IAgent
// ---------------------------------------------------------------------

/// Spawns an installed IAgent owning the whole key space.
fn spawn_sole_iagent(h: &mut Harness, config: LocationConfig) -> AgentId {
    let expected = AgentId::new(h.platform.next_agent_id());
    let hf = HashFunction::initial(expected, NodeId::new(1));
    let id = h.platform.spawn(
        Box::new(IAgentBehavior::initial(
            config,
            h.puppet, // the puppet plays the HAgent
            h.puppet_node,
            hf,
            SharedSchemeStats::new(),
        )),
        NodeId::new(1),
    );
    assert_eq!(id, expected);
    id
}

#[test]
fn iagent_register_then_locate_round_trip() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());

    let agent = AgentId::new(500);
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent,
            node: NodeId::new(0), // == puppet node, so the ack reaches us
        },
    );
    h.run_ms(30);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::RegisterAck { agent: a } if *a == agent)));
    h.clear();

    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target: agent,
            token: 3,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
    h.run_ms(30);
    let got = h.received();
    assert!(
        matches!(
            got.as_slice(),
            [Wire::Located { target, node, token: 3, .. }]
                if *target == agent && *node == NodeId::new(0)
        ),
        "{got:?}"
    );
}

#[test]
fn iagent_update_changes_the_answer() {
    let mut h = Harness::new(3);
    let ia = spawn_sole_iagent(&mut h, config());
    let agent = AgentId::new(500);
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent,
            node: NodeId::new(0),
        },
    );
    h.send(
        ia,
        NodeId::new(1),
        Wire::Update {
            agent,
            node: NodeId::new(2),
        },
    );
    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target: agent,
            token: 1,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
    h.run_ms(50);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::Located { node, .. } if *node == NodeId::new(2))));
}

#[test]
fn iagent_answers_not_responsible_when_the_key_is_elsewhere() {
    let mut h = Harness::new(2);
    // Give the IAgent a hash function in which it owns only half the space:
    // find an agent id that maps to the *other* IAgent.
    let expected = AgentId::new(h.platform.next_agent_id());
    let mut hf = HashFunction::initial(expected, NodeId::new(1));
    let other = IAgentId::new(9_999);
    let cand = hf
        .tree
        .split_candidates(IAgentId::new(expected.raw()))
        .unwrap()[64 - 64]; // first candidate: complex-free tree ⇒ simple m=1
    hf.tree
        .apply_split(&cand, other, agentrack_hashtree::Side::Right)
        .unwrap();
    hf.locations.insert(other, NodeId::new(0));
    hf.version = 2;

    let not_mine = (0..1000u64)
        .map(AgentId::new)
        .find(|a| hf.tree.lookup(key_of(*a)) == other)
        .expect("half the key space maps to the other IAgent");

    let ia = h.platform.spawn(
        Box::new(IAgentBehavior::initial(
            config(),
            h.puppet,
            h.puppet_node,
            hf,
            SharedSchemeStats::new(),
        )),
        NodeId::new(1),
    );
    assert_eq!(ia, expected);

    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target: not_mine,
            token: 8,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
    h.run_ms(30);
    assert!(h.received().iter().any(|m| matches!(
        m,
        Wire::NotResponsible { about, token: Some(8), .. } if *about == not_mine
    )));
}

#[test]
fn iagent_buffers_locates_until_the_handoff_lands() {
    let mut h = Harness::new(2);
    let cfg = LocationConfig {
        pending_timeout: SimDuration::from_millis(400),
        ..config()
    };
    let ia = spawn_sole_iagent(&mut h, cfg);
    let agent = AgentId::new(321);

    // Locate before any record exists: buffered, not answered.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target: agent,
            token: 4,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
    h.run_ms(50);
    assert!(h.received().is_empty(), "{:?}", h.received());

    // The handoff arrives; the buffered locate completes.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Handoff {
            records: vec![(agent, NodeId::new(1))],
        },
    );
    h.run_ms(50);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::Located { token: 4, .. })));
}

#[test]
fn iagent_times_out_pending_locates_with_not_found() {
    let mut h = Harness::new(2);
    let cfg = LocationConfig {
        pending_timeout: SimDuration::from_millis(200),
        ..config()
    };
    let ia = spawn_sole_iagent(&mut h, cfg);

    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target: AgentId::new(31_337),
            token: 6,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
    h.run_ms(1000);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::NotFound { token: 6, .. })));
}

#[test]
fn iagent_requests_a_split_when_the_rate_crosses_t_max() {
    let mut h = Harness::new(2);
    let cfg = LocationConfig {
        t_max: 20.0, // low threshold: a short burst crosses it
        ..config()
    };
    let ia = spawn_sole_iagent(&mut h, cfg);

    // ~40 updates over 200 ms ≈ 200 msg/s into the rate window.
    for i in 0..40u64 {
        h.send(
            ia,
            NodeId::new(1),
            Wire::Update {
                agent: AgentId::new(1000 + i),
                node: NodeId::new(0),
            },
        );
    }
    h.run_ms(1500);
    let split = h
        .received()
        .into_iter()
        .find(|m| matches!(m, Wire::SplitRequest { .. }));
    match split {
        Some(Wire::SplitRequest { rate, loads }) => {
            assert!(rate > 20.0, "reported rate {rate}");
            assert!(!loads.is_empty());
        }
        other => panic!("expected a split request, got {other:?}"),
    }
}

/// A split request denied `Busy` is retried 50 ms later: the conflicting
/// rehash commits soon, so the IAgent waits neither the 100 ms cooldown
/// of a `Cooldown` denial nor not at all.
#[test]
fn iagent_retries_a_split_denied_busy_after_50_ms() {
    let mut h = Harness::new(2);
    let cfg = LocationConfig {
        t_max: 20.0,
        ..config()
    };
    let ia = spawn_sole_iagent(&mut h, cfg);
    let split_requested = |h: &Harness| {
        h.received()
            .iter()
            .any(|m| matches!(m, Wire::SplitRequest { .. }))
    };
    // One update per 5 ms puppet tick: 200 msg/s, ten times t_max.
    let mut updates = 0u64;
    let mut tick = |h: &mut Harness| {
        let agent = AgentId::new(1000 + updates % 40);
        updates += 1;
        h.send(
            ia,
            NodeId::new(1),
            Wire::Update {
                agent,
                node: NodeId::new(0),
            },
        );
        h.run_ms(5);
    };
    while !split_requested(&h) {
        assert!(
            h.platform.now().as_millis_f64() < 2_000.0,
            "no split request"
        );
        tick(&mut h);
    }
    h.clear();

    h.send(
        ia,
        NodeId::new(1),
        Wire::RehashDenied {
            reason: DenyReason::Busy,
        },
    );
    tick(&mut h);
    let denied_at = h.platform.now();
    while !split_requested(&h) {
        assert!(
            h.platform.now().saturating_since(denied_at) < SimDuration::from_millis(100),
            "no retry within the cooldown"
        );
        tick(&mut h);
    }
    let waited = h.platform.now().saturating_since(denied_at);
    assert_eq!(
        waited,
        SimDuration::from_millis(50),
        "retried after {waited:?}"
    );
}

#[test]
fn iagent_merged_away_hands_off_everything_and_retires() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());
    let agent = AgentId::new(512);
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent,
            node: NodeId::new(0),
        },
    );
    h.run_ms(30);
    h.clear();

    // Install a version in which this IAgent's leaf is gone; the puppet's
    // id owns everything now.
    let mut hf = HashFunction::initial(h.puppet, h.puppet_node);
    hf.version = 7;
    h.send(ia, NodeId::new(1), Wire::InstallHashFn { hf });
    h.run_ms(50);

    let got = h.received();
    assert!(
        got.iter().any(|m| matches!(
            m,
            Wire::Handoff { records } if records.contains(&(agent, NodeId::new(0)))
        )),
        "{got:?}"
    );
    // And the IAgent is gone: further messages bounce.
    assert!(!h.platform.is_active(ia));
}

// ---------------------------------------------------------------------
// HAgent
// ---------------------------------------------------------------------

#[test]
fn hagent_serves_the_primary_copy() {
    let mut h = Harness::new(2);
    let hf = HashFunction::initial(AgentId::new(70), NodeId::new(1));
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    h.send(
        hagent,
        NodeId::new(1),
        Wire::FetchHashFn {
            have_version: 0,
            reply_node: h.puppet_node,
        },
    );
    h.run_ms(30);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::HashFnCopy { hf } if hf.version == 1)));
    assert_eq!(stats.snapshot().hf_fetches, 1);
}

#[test]
fn hagent_denies_merging_the_last_iagent() {
    let mut h = Harness::new(2);
    // The puppet pretends to be the sole IAgent requesting its own merge.
    let hf = HashFunction::initial(h.puppet, h.puppet_node);
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    h.send(hagent, NodeId::new(1), Wire::MergeRequest { rate: 0.0 });
    h.run_ms(30);
    assert!(h.received().iter().any(|m| matches!(
        m,
        Wire::RehashDenied {
            reason: DenyReason::NoPlan
        }
    )));
    assert_eq!(stats.snapshot().merges, 0);
}

#[test]
fn hagent_split_flow_creates_and_installs_a_new_iagent() {
    let mut h = Harness::new(2);
    // The puppet is the overloaded sole IAgent.
    let hf = HashFunction::initial(h.puppet, h.puppet_node);
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    let loads: Vec<(AgentId, u64)> = (0..64).map(|i| (AgentId::new(2000 + i), 5)).collect();
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest { rate: 99.0, loads },
    );
    // The real new IAgent sends IAgentReady itself; then the HAgent commits
    // and installs the new version on the involved parties — including the
    // puppet, which receives its view of a tree with two IAgents.
    h.run_ms(500);
    let installs: Vec<Wire> = h
        .received()
        .into_iter()
        .filter(|m| matches!(m, Wire::InstallHashFn { .. } | Wire::InstallView { .. }))
        .collect();
    assert_eq!(installs.len(), 1, "the requester is installed once");
    let Wire::InstallView { image } = installs[0].clone() else {
        panic!(
            "a compiled tree is installed as an image: {:?}",
            installs[0]
        );
    };
    let view = TrackerView::from_image(image);
    let copy = fetch_copy(&mut h, hagent);
    assert_eq!(view.version(), 2);
    assert_eq!(view.leaf_count(), 2);
    assert_eq!(
        view.own_label(),
        copy.tree
            .hyper_label(IAgentId::new(h.puppet.raw()))
            .ok()
            .as_ref()
    );
    assert_eq!(view.buddy(), copy.buddy_of(h.puppet));
    for raw in 0..256 {
        let agent = AgentId::new(raw);
        assert_eq!(view.resolve(agent), copy.resolve(agent));
    }
    assert_eq!(stats.snapshot().splits, 1);
    assert_eq!(stats.snapshot().trackers, 2);
}

/// Two agents whose keys agree on the first `bit` bits and differ on key
/// bit `bit`: an even split of their load branches on that bit.
fn agents_first_differing_at(bit: usize) -> [AgentId; 2] {
    let mut seen: std::collections::HashMap<u64, [Option<AgentId>; 2]> = Default::default();
    for raw in 0..1_000_000u64 {
        let key = key_of(AgentId::new(raw));
        let pair = seen.entry(key.raw() >> (64 - bit)).or_default();
        pair[usize::from(key.bit(bit))] = Some(AgentId::new(raw));
        if let [Some(a), Some(b)] = *pair {
            return [a, b];
        }
    }
    panic!("no two agents first differ at bit {bit}");
}

#[test]
fn hagent_installs_the_whole_copy_where_an_image_has_too_many_runs() {
    // Splitting the lone leaf on key bit b cuts the key space into
    // 2^(b+1) alternating runs: 4 a leaf on bit 2, still an image; 8 a
    // leaf on bit 3, past the limit, so the whole copy.
    for (bit, whole) in [(2, false), (3, true)] {
        let mut h = Harness::new(2);
        let hf = HashFunction::initial(h.puppet, h.puppet_node);
        let stats = SharedSchemeStats::new();
        let hagent = h.platform.spawn(
            Box::new(HAgentBehavior::new(
                config(),
                hf,
                Vec::new(),
                2,
                stats.clone(),
            )),
            NodeId::new(1),
        );
        let loads = agents_first_differing_at(bit)
            .map(|agent| (agent, 5))
            .to_vec();
        h.send(
            hagent,
            NodeId::new(1),
            Wire::SplitRequest { rate: 99.0, loads },
        );
        h.run_ms(500);
        let installs: Vec<Wire> = h
            .received()
            .into_iter()
            .filter(|m| matches!(m, Wire::InstallHashFn { .. } | Wire::InstallView { .. }))
            .collect();
        assert_eq!(stats.snapshot().splits, 1);
        assert_eq!(installs.len(), 1, "the requester is installed once");
        assert_eq!(
            matches!(installs[0], Wire::InstallHashFn { .. }),
            whole,
            "split on key bit {bit}: {:?}",
            installs[0]
        );
    }
}

/// The HAgent's primary copy, fetched by the puppet.
fn fetch_copy(h: &mut Harness, hagent: AgentId) -> HashFunction {
    h.clear();
    h.send(
        hagent,
        NodeId::new(1),
        Wire::FetchHashFn {
            have_version: 0,
            reply_node: h.platform.agent_node(h.puppet).unwrap(),
        },
    );
    h.run_ms(30);
    h.received()
        .into_iter()
        .find_map(|m| match m {
            Wire::HashFnCopy { hf } => Some(hf),
            _ => None,
        })
        .expect("fetch answered")
}

#[test]
fn hagent_resends_an_install_that_bounced_off_a_migrating_receiver() {
    // A slow migration keeps the puppet in transit while the install of
    // its split arrives.
    let platform = PlatformConfig {
        migration_overhead: SimDuration::from_millis(50),
        ..PlatformConfig::default()
    };
    let mut h = Harness::with_platform(2, platform);
    let hf = HashFunction::initial(h.puppet, h.puppet_node);
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    // The puppet asks for a split and leaves for node 1 at once.
    let loads: Vec<(AgentId, u64)> = (0..64).map(|i| (AgentId::new(2000 + i), 5)).collect();
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest { rate: 99.0, loads },
    );
    h.move_to(NodeId::new(1));
    h.run_ms(100);
    assert_eq!(stats.snapshot().splits, 1);
    assert_eq!(h.platform.agent_node(h.puppet), Some(NodeId::new(1)));
    let is_install = |m: &Wire| matches!(m, Wire::InstallHashFn { .. } | Wire::InstallView { .. });
    assert!(
        !h.received().iter().any(is_install),
        "the install bounced off the migrating puppet"
    );

    // Once the directory knows the new node, the next periodic tick
    // re-sends the current version there.
    h.send(
        hagent,
        NodeId::new(1),
        Wire::IAgentMoved {
            node: NodeId::new(1),
        },
    );
    h.run_ms(600);
    let installs: Vec<Wire> = h.received().into_iter().filter(is_install).collect();
    assert_eq!(installs.len(), 1, "one re-sent install: {installs:?}");
    let Wire::InstallView { image } = installs[0].clone() else {
        panic!("the retry is an image too: {:?}", installs[0]);
    };
    let view = TrackerView::from_image(image);
    let copy = fetch_copy(&mut h, hagent);
    assert_eq!(view.version(), 3, "the split and the move");
    assert_eq!(view.version(), copy.version);
    assert!(view.own_label().is_some());
    for raw in 0..256 {
        let agent = AgentId::new(raw);
        assert_eq!(view.resolve(agent), copy.resolve(agent));
        if view.is_responsible(h.puppet, agent) {
            assert_eq!(
                view.resolve(agent).1,
                NodeId::new(1),
                "the puppet's new node"
            );
        }
    }
}

#[test]
fn hagent_denies_concurrent_rehashes() {
    let mut h = Harness::new(2);
    let hf = HashFunction::initial(h.puppet, h.puppet_node);
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    let loads: Vec<(AgentId, u64)> = (0..64).map(|i| (AgentId::new(2000 + i), 5)).collect();
    // Two split requests back to back from the same leaf: the second
    // overlaps the first one's still-held lease region and is denied Busy
    // (overlapping rehashes stay serialised even at concurrency > 1).
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest {
            rate: 99.0,
            loads: loads.clone(),
        },
    );
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest { rate: 99.0, loads },
    );
    h.run_ms(500);
    assert!(h.received().iter().any(|m| matches!(
        m,
        Wire::RehashDenied {
            reason: DenyReason::Busy
        }
    )));
    assert_eq!(stats.snapshot().splits, 1);
    assert_eq!(stats.snapshot().rehash_denied, 1);
}

#[test]
fn frozen_hagent_denies_readonly_without_counting_denial_traffic() {
    let mut h = Harness::new(2);
    let hf = HashFunction::initial(h.puppet, h.puppet_node);
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(
            config(),
            hf,
            Vec::new(),
            2,
            stats.clone(),
        )),
        NodeId::new(1),
    );

    // Administrative drain: the audit (or an operator) froze adaptation.
    stats.set_adaptation_frozen(true);
    let loads: Vec<(AgentId, u64)> = (0..64).map(|i| (AgentId::new(2000 + i), 5)).collect();
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest {
            rate: 99.0,
            loads: loads.clone(),
        },
    );
    h.send(hagent, NodeId::new(1), Wire::MergeRequest { rate: 0.0 });
    h.run_ms(200);
    let readonly = h
        .received()
        .iter()
        .filter(|m| {
            matches!(
                m,
                Wire::RehashDenied {
                    reason: DenyReason::ReadOnly
                }
            )
        })
        .count();
    assert_eq!(readonly, 2, "both requests bounce ReadOnly while frozen");
    assert_eq!(stats.snapshot().splits, 0);
    // A closed admission gate is not denial traffic.
    assert_eq!(stats.snapshot().rehash_denied, 0);

    // Thawing restores normal admission.
    stats.set_adaptation_frozen(false);
    h.send(
        hagent,
        NodeId::new(1),
        Wire::SplitRequest { rate: 99.0, loads },
    );
    h.run_ms(500);
    assert_eq!(stats.snapshot().splits, 1);
}

// ---------------------------------------------------------------------
// Locality extension (E9)
// ---------------------------------------------------------------------

#[test]
fn iagent_relocates_toward_its_traffic_and_updates_the_directory() {
    let mut h = Harness::new(3);
    let cfg = LocationConfig {
        locality_migration: true,
        locality_min_requests: 20,
        locality_threshold: 0.6,
        ..config()
    };
    let ia = spawn_sole_iagent(&mut h, cfg);
    assert_eq!(h.platform.agent_node(ia), Some(NodeId::new(1)));

    // 30 updates all reporting agents on node 2: 100% of traffic
    // originates there.
    for i in 0..30u64 {
        h.send(
            ia,
            NodeId::new(1),
            Wire::Update {
                agent: AgentId::new(3000 + i),
                node: NodeId::new(2),
            },
        );
    }
    h.run_ms(2000);
    assert_eq!(
        h.platform.agent_node(ia),
        Some(NodeId::new(2)),
        "the IAgent should have moved to node 2"
    );
    // The puppet (playing the HAgent) heard about the move.
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::IAgentMoved { node } if *node == NodeId::new(2))));
}

#[test]
fn hagent_updates_the_directory_when_an_iagent_moves() {
    let mut h = Harness::new(3);
    // The puppet plays the (sole) IAgent that just moved.
    let hf = HashFunction::initial(h.puppet, NodeId::new(1));
    let stats = SharedSchemeStats::new();
    let hagent = h.platform.spawn(
        Box::new(HAgentBehavior::new(config(), hf, Vec::new(), 3, stats)),
        NodeId::new(1),
    );

    h.send(
        hagent,
        NodeId::new(1),
        Wire::IAgentMoved {
            node: NodeId::new(2),
        },
    );
    h.send(
        hagent,
        NodeId::new(1),
        Wire::FetchHashFn {
            have_version: 0,
            reply_node: h.puppet_node,
        },
    );
    h.run_ms(50);
    let copy = h
        .received()
        .into_iter()
        .find_map(|m| match m {
            Wire::HashFnCopy { hf } => Some(hf),
            _ => None,
        })
        .expect("fetch answered");
    assert_eq!(copy.version, 2, "the move bumped the version");
    let (_, node) = copy.resolve(AgentId::new(1));
    assert_eq!(node, NodeId::new(2), "the directory points at the new node");
}

// ---------------------------------------------------------------------
// Guaranteed delivery (mediated mail, §6 future work)
// ---------------------------------------------------------------------

#[test]
fn deliver_via_forwards_when_the_record_exists() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());
    let target = AgentId::new(600);
    // The "recipient" is the puppet itself, so the MailDrop lands in our
    // inbox. Register it at the puppet's node.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent: h.puppet,
            node: h.puppet_node,
        },
    );
    let _ = target;
    h.run_ms(30);
    h.clear();

    h.send(
        ia,
        NodeId::new(1),
        Wire::DeliverVia {
            target: h.puppet,
            from: AgentId::new(42),
            data: vec![9, 9, 9],
            ttl: 8,
        },
    );
    h.run_ms(30);
    assert!(h.received().iter().any(|m| matches!(
        m,
        Wire::MailDrop { from, data } if *from == AgentId::new(42) && data == &vec![9, 9, 9]
    )));
}

#[test]
fn deliver_via_buffers_until_the_next_update() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());

    // No record yet: the mail must wait, not bounce.
    h.send(
        ia,
        NodeId::new(1),
        Wire::DeliverVia {
            target: h.puppet,
            from: AgentId::new(42),
            data: vec![7],
            ttl: 8,
        },
    );
    h.run_ms(50);
    assert!(
        !h.received()
            .iter()
            .any(|m| matches!(m, Wire::MailDrop { .. })),
        "mail must be buffered while the target is unknown"
    );

    // The target's update releases it.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Update {
            agent: h.puppet,
            node: h.puppet_node,
        },
    );
    h.run_ms(50);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::MailDrop { data, .. } if data == &vec![7])));
}

#[test]
fn deliver_via_chases_across_a_stale_tracker() {
    let mut h = Harness::new(2);
    // IAgent whose hash function maps the target to the *puppet* (playing
    // a second IAgent): a DeliverVia for that target must be forwarded to
    // us, with the ttl decremented.
    let expected = AgentId::new(h.platform.next_agent_id());
    let mut hf = HashFunction::initial(expected, NodeId::new(1));
    let other = IAgentId::new(h.puppet.raw());
    let cand = hf
        .tree
        .split_candidates(IAgentId::new(expected.raw()))
        .unwrap()[0];
    hf.tree
        .apply_split(&cand, other, agentrack_hashtree::Side::Right)
        .unwrap();
    hf.locations.insert(other, h.puppet_node);
    hf.version = 2;

    let not_mine = (0..1000u64)
        .map(AgentId::new)
        .find(|a| hf.tree.lookup(key_of(*a)) == other)
        .expect("half the key space is the puppet's");

    let ia = h.platform.spawn(
        Box::new(IAgentBehavior::initial(
            config(),
            h.puppet,
            h.puppet_node,
            hf,
            SharedSchemeStats::new(),
        )),
        NodeId::new(1),
    );
    assert_eq!(ia, expected);

    h.send(
        ia,
        NodeId::new(1),
        Wire::DeliverVia {
            target: not_mine,
            from: AgentId::new(42),
            data: vec![5],
            ttl: 8,
        },
    );
    h.run_ms(30);
    assert!(h.received().iter().any(|m| matches!(
        m,
        Wire::DeliverVia { target, ttl: 7, .. } if *target == not_mine
    )));
}

// ---------------------------------------------------------------------
// Tombstones (deregistered agents stay dead)
// ---------------------------------------------------------------------

fn locate_any(h: &Harness, ia: AgentId, target: AgentId, token: u64) {
    h.send(
        ia,
        NodeId::new(1),
        Wire::Locate {
            target,
            token,
            reply_node: h.puppet_node,
            corr: None,
            freshness: Freshness::Any,
        },
    );
}

fn was_located(h: &Harness, token: u64) -> bool {
    h.received()
        .iter()
        .any(|m| matches!(m, Wire::Located { token: t, .. } if *t == token))
}

fn was_not_found(h: &Harness, token: u64) -> bool {
    h.received()
        .iter()
        .any(|m| matches!(m, Wire::NotFound { token: t, .. } if *t == token))
}

/// Registers `agent` at the puppet's node, then deregisters it.
fn register_then_deregister(h: &mut Harness, ia: AgentId, agent: AgentId) {
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent,
            node: h.puppet_node,
        },
    );
    h.run_ms(30);
    h.send(ia, NodeId::new(1), Wire::Deregister { agent, ttl: 0 });
    h.run_ms(30);
    h.clear();
}

#[test]
fn iagent_tombstone_drops_straggling_update_and_register() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());
    let agent = AgentId::new(700);
    register_then_deregister(&mut h, ia, agent);

    // The dead agent's last Update and a duplicate Register were still in
    // flight when the Deregister landed.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Update {
            agent,
            node: h.puppet_node,
        },
    );
    h.send(
        ia,
        NodeId::new(1),
        Wire::Register {
            agent,
            node: h.puppet_node,
        },
    );
    h.run_ms(30);
    locate_any(&h, ia, agent, 1);
    h.run_ms(1500);
    assert!(
        !h.received()
            .iter()
            .any(|m| matches!(m, Wire::RegisterAck { .. })),
        "a straggling Register must not land: {:?}",
        h.received()
    );
    assert!(!was_located(&h, 1), "{:?}", h.received());
    assert!(was_not_found(&h, 1), "{:?}", h.received());
}

#[test]
fn iagent_filters_tombstoned_keys_out_of_handoffs() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());
    let (dead, alive) = (AgentId::new(701), AgentId::new(702));
    register_then_deregister(&mut h, ia, dead);

    // A handoff computed before the deregister still carries the dead
    // agent next to a live one.
    h.send(
        ia,
        NodeId::new(1),
        Wire::Handoff {
            records: vec![(dead, NodeId::new(0)), (alive, NodeId::new(0))],
        },
    );
    h.run_ms(30);
    locate_any(&h, ia, dead, 1);
    locate_any(&h, ia, alive, 2);
    h.run_ms(1500);
    assert!(was_located(&h, 2), "{:?}", h.received());
    assert!(!was_located(&h, 1), "{:?}", h.received());
    assert!(was_not_found(&h, 1), "{:?}", h.received());
}

#[test]
fn iagent_tombstone_expires_and_a_fresh_register_lands() {
    let mut h = Harness::new(2);
    let ia = spawn_sole_iagent(&mut h, config());
    let agent = AgentId::new(703);
    let register = Wire::Register {
        agent,
        node: h.puppet_node,
    };
    register_then_deregister(&mut h, ia, agent);

    // Halfway through the tombstone's 10 s lifetime the key is still shut.
    h.run_ms(5_000);
    h.send(ia, NodeId::new(1), register.clone());
    h.run_ms(30);
    assert!(h.received().is_empty(), "{:?}", h.received());

    // Past it, the key may be reused: the periodic timer expired the
    // tombstone and the registration is acknowledged and answered.
    h.run_ms(6_000);
    h.send(ia, NodeId::new(1), register);
    h.run_ms(30);
    locate_any(&h, ia, agent, 3);
    h.run_ms(30);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::RegisterAck { agent: a } if *a == agent)));
    assert!(was_located(&h, 3), "{:?}", h.received());
}

/// A soft-state-losing crash right after a deregister: the buddy's replica
/// was written before the deregister and still lists the agent. Recovery
/// must not bring the record back — no stale answer for a dead agent, and
/// no `SolicitReregister` sent to it.
#[test]
fn iagent_recovery_does_not_resurrect_a_deregistered_agent() {
    use agentrack_sim::{FaultEvent, FaultKind, FaultPlan};

    let mut h = Harness::new(2);
    let expected = AgentId::new(h.platform.next_agent_id());
    let hf = HashFunction::initial(expected, NodeId::new(1));
    // The puppet plays the HAgent and the standby buddy.
    let cfg = config().with_replication(SimDuration::from_millis(250));
    let ia = h.platform.spawn(
        Box::new(
            IAgentBehavior::initial(cfg, h.puppet, h.puppet_node, hf, SharedSchemeStats::new())
                .with_standby(Some((h.puppet, h.puppet_node))),
        ),
        NodeId::new(1),
    );
    assert_eq!(ia, expected);
    // The tracked agent is the puppet itself, so a solicit would land in
    // our inbox.
    let agent = h.puppet;
    register_then_deregister(&mut h, ia, agent);

    let crash_at = h.platform.now() + SimDuration::from_millis(10);
    let mut plan = FaultPlan::new();
    plan.push(FaultEvent {
        at: crash_at,
        kind: FaultKind::NodeCrash {
            node: NodeId::new(1),
            lose_soft_state: true,
            restart_at: Some(crash_at + SimDuration::from_millis(100)),
        },
    });
    h.platform.set_fault_plan(&plan);
    h.run_ms(200);
    assert!(
        h.received().iter().any(|m| matches!(m, Wire::EpochRequest)),
        "the restarted tracker enters recovery: {:?}",
        h.received()
    );

    h.send(
        ia,
        NodeId::new(1),
        Wire::EpochGrant {
            epoch: 1,
            buddy: Some((h.puppet, h.puppet_node)),
        },
    );
    h.run_ms(30);
    assert!(h
        .received()
        .iter()
        .any(|m| matches!(m, Wire::ReplicaPull { epoch: 1, .. })));
    h.clear();

    h.send(
        ia,
        NodeId::new(1),
        Wire::ReplicaSet {
            epoch: 0,
            seq: 1,
            records: vec![(agent, h.puppet_node)],
            rate: 0.0,
            age_ms: 0,
        },
    );
    h.run_ms(30);
    locate_any(&h, ia, agent, 4);
    h.run_ms(30);
    let got = h.received();
    assert!(
        !got.iter().any(|m| matches!(m, Wire::SolicitReregister)),
        "solicited a deregistered agent: {got:?}"
    );
    assert!(!was_located(&h, 4), "answered for a dead agent: {got:?}");
}
