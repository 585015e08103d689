//! Protocol-level tests of the concurrent rehash pipeline: prefix-disjoint
//! splits are granted in parallel, overlapping/over-budget requests are
//! denied `Busy` and land on retry once the conflict clears, and an
//! install of a version that rehashed a *distant* subtree no longer
//! silences a tracker's own overdue split request.

use std::sync::{Arc, Mutex};

use agentrack::core::{
    DenyReason, HAgentBehavior, HashFunction, IAgentBehavior, LocationConfig, SharedSchemeStats,
    Wire,
};
use agentrack::hashtree::{IAgentId, Side, SplitKind};
use agentrack::platform::{
    Agent, AgentCtx, AgentId, NodeId, Payload, PlatformConfig, SimPlatform, TimerId,
};
use agentrack::sim::{DurationDist, SimDuration, SimTime, Topology};

fn lan(nodes: u32) -> Topology {
    Topology::lan(nodes, DurationDist::Constant(SimDuration::from_micros(300)))
}

type Inbox = Arc<Mutex<Vec<(SimTime, Wire)>>>;

/// Plays one leaf of the tree by script: sends the queued wire messages at
/// their scheduled times and records everything it receives, timestamped.
struct ScriptedLeaf {
    script: Vec<(SimDuration, AgentId, NodeId, Wire)>,
    next: usize,
    inbox: Inbox,
}

impl ScriptedLeaf {
    fn arm(&mut self, ctx: &mut AgentCtx<'_>) {
        if let Some(&(at, ..)) = self.script.get(self.next) {
            let elapsed = ctx.now().saturating_since(SimTime::ZERO);
            let delay = if at > elapsed {
                at - elapsed
            } else {
                SimDuration::from_micros(1)
            };
            ctx.set_timer(delay);
        }
    }
}

impl Agent for ScriptedLeaf {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        while let Some((at, to, node, msg)) = self.script.get(self.next).cloned() {
            if ctx.now().saturating_since(SimTime::ZERO) < at {
                break;
            }
            self.next += 1;
            ctx.send(to, node, msg.payload());
        }
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut AgentCtx<'_>, _from: AgentId, payload: &Payload) {
        if let Some(msg) = Wire::from_payload(payload) {
            self.inbox.lock().unwrap().push((ctx.now(), msg));
        }
    }
}

impl std::fmt::Debug for ScriptedLeaf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScriptedLeaf").finish_non_exhaustive()
    }
}

/// Splits `hf`'s leaf owned by `leaf` with the first simple candidate,
/// assigning the right side to `new`, and keeps the directory coherent.
fn split_leaf(hf: &mut HashFunction, leaf: AgentId, new: AgentId, node: NodeId) {
    let old = IAgentId::new(leaf.raw());
    let new_ia = IAgentId::new(new.raw());
    let candidates = hf.tree.split_candidates(old).expect("known leaf");
    let cand = candidates
        .iter()
        .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
        .expect("a simple split is always available");
    let applied = hf
        .tree
        .apply_split(cand, new_ia, Side::Right)
        .expect("fresh candidate applies");
    hf.locations.insert(new_ia, node);
    hf.version += 1;
    let mut involved = applied.affected;
    involved.push(new_ia);
    hf.refresh_compiled(&involved);
}

/// Uniform per-agent loads: enough distinct keys that every leaf's split
/// plan can balance.
fn loads() -> Vec<(AgentId, u64)> {
    (0..64).map(|i| (AgentId::new(2000 + i), 5)).collect()
}

fn denials(inbox: &Inbox) -> Vec<DenyReason> {
    inbox
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(_, m)| match m {
            Wire::RehashDenied { reason } => Some(*reason),
            _ => None,
        })
        .collect()
}

fn installed_versions(inbox: &Inbox) -> Vec<u64> {
    inbox
        .lock()
        .unwrap()
        .iter()
        .filter_map(|(_, m)| match m {
            Wire::InstallHashFn { hf } => Some(hf.version),
            Wire::InstallView { image } => Some(image.version()),
            _ => None,
        })
        .collect()
}

/// Spawns the HAgent plus two scripted leaves owning disjoint subtrees,
/// each scripted to send `SplitRequest`s at the given times.
fn two_leaf_world(
    config: LocationConfig,
    a_requests: Vec<SimDuration>,
    b_requests: Vec<SimDuration>,
) -> (SimPlatform, SharedSchemeStats, Inbox, Inbox) {
    let mut platform = SimPlatform::new(lan(3), PlatformConfig::default().with_seed(11));
    let stats = SharedSchemeStats::new();
    let hagent_node = NodeId::new(2);

    let inbox_a: Inbox = Arc::default();
    let inbox_b: Inbox = Arc::default();

    // Leaf ids are assigned by the platform: A first, then B, then the
    // HAgent (whose id the leaves' scripts must target).
    let a = AgentId::new(platform.next_agent_id());
    let b = AgentId::new(a.raw() + 1);
    let hagent = AgentId::new(a.raw() + 2);

    let script = |times: Vec<SimDuration>| -> Vec<(SimDuration, AgentId, NodeId, Wire)> {
        times
            .into_iter()
            .map(|at| {
                (
                    at,
                    hagent,
                    hagent_node,
                    Wire::SplitRequest { loads: loads() },
                )
            })
            .collect()
    };

    let spawned_a = platform.spawn(
        Box::new(ScriptedLeaf {
            script: script(a_requests),
            next: 0,
            inbox: inbox_a.clone(),
        }),
        NodeId::new(0),
    );
    let spawned_b = platform.spawn(
        Box::new(ScriptedLeaf {
            script: script(b_requests),
            next: 0,
            inbox: inbox_b.clone(),
        }),
        NodeId::new(1),
    );
    assert_eq!(spawned_a, a);
    assert_eq!(spawned_b, b);

    let mut hf = HashFunction::initial(a, NodeId::new(0));
    split_leaf(&mut hf, a, b, NodeId::new(1));
    hf.validate().expect("two-leaf bootstrap");

    let spawned_h = platform.spawn(
        Box::new(HAgentBehavior::new(
            config,
            hf,
            Vec::new(),
            3,
            stats.clone(),
        )),
        hagent_node,
    );
    assert_eq!(spawned_h, hagent);

    (platform, stats, inbox_a, inbox_b)
}

/// Tentpole: two overloaded leaves in disjoint subtrees request splits at
/// the same instant. With the pipelined lease table both are granted —
/// no denial, two commits — where the single-flight protocol would have
/// bounced one.
#[test]
fn disjoint_splits_proceed_in_parallel() {
    let t = SimDuration::from_millis(5);
    let (mut platform, stats, inbox_a, inbox_b) =
        two_leaf_world(LocationConfig::default(), vec![t], vec![t]);
    platform.run_for(SimDuration::from_millis(500));

    let snap = stats.snapshot();
    assert_eq!(snap.splits, 2, "both disjoint splits must commit");
    assert_eq!(snap.rehash_denied, 0, "no denial at concurrency > 1");
    assert_eq!(snap.trackers, 4);
    assert!(denials(&inbox_a).is_empty(), "{:?}", denials(&inbox_a));
    assert!(denials(&inbox_b).is_empty(), "{:?}", denials(&inbox_b));
    // Each requester was installed with a committed version.
    assert!(!installed_versions(&inbox_a).is_empty());
    assert!(!installed_versions(&inbox_b).is_empty());
}

/// Satellite: in the single-flight ablation the second requester is denied
/// `Busy` (pipeline full), and its scripted retry lands once the
/// conflicting rehash has committed and cooled down.
#[test]
fn busy_denied_split_retries_and_lands() {
    let config = LocationConfig::default().with_rehash_concurrency(1);
    let (mut platform, stats, _inbox_a, inbox_b) = two_leaf_world(
        config,
        vec![SimDuration::from_millis(5)],
        // B asks while A's lease is in flight (denied Busy), then retries
        // after A's split has committed and the cooldown has expired.
        vec![SimDuration::from_millis(6), SimDuration::from_millis(300)],
    );
    platform.run_for(SimDuration::from_millis(800));

    assert_eq!(
        denials(&inbox_b),
        vec![DenyReason::Busy],
        "the overlapping-in-time request must be denied Busy exactly once"
    );
    let snap = stats.snapshot();
    assert_eq!(snap.splits, 2, "the retried split must land");
    assert_eq!(snap.rehash_denied, 1);
    assert!(
        !installed_versions(&inbox_b).is_empty(),
        "B must be installed with its own committed split"
    );
}

/// Drives steady registration traffic at one real IAgent and periodically
/// installs hash-function versions that rehash a *distant* subtree.
struct DistantNoise {
    iagent: AgentId,
    iagent_node: NodeId,
    /// Register targets that hash to the IAgent under test.
    targets: Vec<AgentId>,
    sent: usize,
    /// Pre-built distant versions, installed at the scheduled times.
    installs: Vec<(SimDuration, HashFunction)>,
    next_install: usize,
}

impl Agent for DistantNoise {
    fn on_create(&mut self, ctx: &mut AgentCtx<'_>) {
        ctx.set_timer(SimDuration::from_millis(5));
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx<'_>, _timer: TimerId) {
        let agent = self.targets[self.sent % self.targets.len()];
        self.sent += 1;
        let here = ctx.node();
        ctx.send(
            self.iagent,
            self.iagent_node,
            Wire::Register { agent, node: here }.payload(),
        );
        while let Some((at, hf)) = self.installs.get(self.next_install) {
            if ctx.now().saturating_since(SimTime::ZERO) < *at {
                break;
            }
            let hf = hf.clone();
            self.next_install += 1;
            ctx.send(
                self.iagent,
                self.iagent_node,
                Wire::InstallHashFn { hf }.payload(),
            );
        }
        ctx.set_timer(SimDuration::from_millis(5));
    }
}

impl std::fmt::Debug for DistantNoise {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistantNoise").finish_non_exhaustive()
    }
}

/// Satellite regression: installs of versions that only rehashed a distant
/// subtree must not reset this tracker's rate statistics or back off its
/// split check. Under the old global cooldown, a distant install every
/// 150 ms wiped the rate window before it could ever cross `T_max`, so the
/// overdue split request was silenced indefinitely.
#[test]
fn distant_install_does_not_silence_an_overdue_split() {
    let mut platform = SimPlatform::new(lan(3), PlatformConfig::default().with_seed(13));
    let stats = SharedSchemeStats::new();

    let requests: Inbox = Arc::default();
    let puppet_hagent = platform.spawn(
        Box::new(ScriptedLeaf {
            script: Vec::new(),
            next: 0,
            inbox: requests.clone(),
        }),
        NodeId::new(2),
    );

    // The real IAgent under test owns the left leaf; the right leaf and
    // its successive distant splits belong to dummy ids never spawned.
    let ia = AgentId::new(platform.next_agent_id());
    let mut hf = HashFunction::initial(ia, NodeId::new(0));
    split_leaf(&mut hf, ia, AgentId::new(9001), NodeId::new(1));
    hf.validate().expect("two-leaf bootstrap");

    // Distant versions: the right subtree keeps splitting; the tested
    // leaf's hyper-label never changes.
    let mut installs = Vec::new();
    let mut distant = hf.clone();
    for (i, at_ms) in [150u64, 300, 450].into_iter().enumerate() {
        split_leaf(
            &mut distant,
            AgentId::new(9001),
            AgentId::new(9002 + i as u64),
            NodeId::new(1),
        );
        installs.push((SimDuration::from_millis(at_ms), distant.clone()));
    }

    let config = LocationConfig {
        t_max: 50.0,
        check_interval: SimDuration::from_millis(50),
        ..LocationConfig::default()
    };
    let spawned = platform.spawn(
        Box::new(IAgentBehavior::initial(
            config,
            puppet_hagent,
            NodeId::new(2),
            hf.clone(),
            stats.clone(),
        )),
        NodeId::new(0),
    );
    assert_eq!(spawned, ia);

    // 200 requests/s of traffic, all for keys in the tested leaf.
    let targets: Vec<AgentId> = (0..20_000u64)
        .map(AgentId::new)
        .filter(|&a| hf.is_responsible(ia, a))
        .take(50)
        .collect();
    assert_eq!(targets.len(), 50);
    platform.spawn(
        Box::new(DistantNoise {
            iagent: ia,
            iagent_node: NodeId::new(0),
            targets,
            sent: 0,
            installs,
            next_install: 0,
        }),
        NodeId::new(1),
    );

    platform.run_for(SimDuration::from_millis(600));

    let first_request = requests
        .lock()
        .unwrap()
        .iter()
        .find_map(|(at, m)| matches!(m, Wire::SplitRequest { .. }).then_some(*at));
    let at =
        first_request.expect("the overdue split request must be sent despite distant installs");
    assert!(
        at.saturating_since(SimTime::ZERO) < SimDuration::from_millis(400),
        "split request delayed to {at:?}: distant installs reset the rate window"
    );
}
