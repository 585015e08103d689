//! Property tests of secondary-copy refresh by delta: a copy advanced by
//! the ops of a [`RehashLog`] becomes exactly the primary copy — version,
//! tree, directory and compiled runs — from every earlier version, and
//! the log's bound and the gap rule hold.

use agentrack_core::{key_of, DeltaError, HashFunction, RehashLog, RehashOp, Wire};
use agentrack_hashtree::{IAgentId, Side, SplitKind, TreeError};
use agentrack_platform::{AgentId, NodeId};
use proptest::prelude::*;

/// One step of a random history, naming the leaf that serves
/// `key_of(seed)`.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A simple split on the `m`-th free bit.
    Simple { seed: u64, m: usize },
    /// A complex split on the leaf's first unused label bit, if any.
    Complex { seed: u64 },
    /// Merge the leaf away; with two leaves left this is a root merge.
    Merge { seed: u64 },
    /// Move the leaf's IAgent to another node.
    Move { seed: u64 },
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (any::<u64>(), 1usize..4).prop_map(|(seed, m)| Step::Simple { seed, m }),
        2 => any::<u64>().prop_map(|seed| Step::Complex { seed }),
        2 => any::<u64>().prop_map(|seed| Step::Merge { seed }),
        1 => any::<u64>().prop_map(|seed| Step::Move { seed }),
    ]
}

/// The op `step` names on `hf`; `None` when the leaf has no such split
/// candidate. A new IAgent is numbered `next`.
fn op_for(hf: &HashFunction, step: Step, next: u64) -> Option<RehashOp> {
    let leaf = |seed| hf.tree.lookup(key_of(AgentId::new(seed)));
    let node = |seed: u64| NodeId::new((seed >> 8) as u32 % 16);
    match step {
        Step::Simple { seed, .. } | Step::Complex { seed } => {
            let requester = leaf(seed);
            let candidate =
                hf.tree
                    .split_candidates(requester)
                    .ok()?
                    .into_iter()
                    .find(|c| match (step, c.kind) {
                        (Step::Simple { m, .. }, SplitKind::Simple { m: cm }) => m == cm,
                        (Step::Complex { .. }, SplitKind::Complex { .. }) => true,
                        _ => false,
                    })?;
            Some(RehashOp::Split {
                requester,
                key_bit: candidate.key_bit,
                new_iagent: IAgentId::new(next),
                side: Side::from_bit(seed & 1 == 1),
                node: node(seed),
            })
        }
        Step::Merge { seed } => Some(RehashOp::Merge { iagent: leaf(seed) }),
        Step::Move { seed } => Some(RehashOp::Moved {
            iagent: leaf(seed),
            node: node(seed),
        }),
    }
}

/// `msg` as a receiver decodes it.
fn over_the_wire(msg: &Wire) -> Wire {
    Wire::from_payload(&msg.payload()).expect("a protocol message round-trips")
}

/// `hf` as an LHAgent holds it after fetching a whole copy: decoded, with
/// freshly built compiled runs.
fn fetched_copy(hf: &HashFunction) -> HashFunction {
    match over_the_wire(&Wire::HashFnCopy { hf: hf.clone() }) {
        Wire::HashFnCopy { hf } => hf,
        other => panic!("copy did not round-trip: {other:?}"),
    }
}

/// The delta `log` answers a fetch of `have_version` with, as received.
fn delta(log: &RehashLog, have_version: u64) -> Option<(u64, Vec<RehashOp>)> {
    match over_the_wire(&log.since(have_version)?) {
        Wire::HashFnDelta { from_version, ops } => Some((from_version, ops)),
        other => panic!("the log answered with {other:?}"),
    }
}

/// `copy` is the primary copy: equal (version, tree, directory), valid,
/// its compiled runs current and checked run by run (or absent, past the
/// bound), and it resolves every probe the same way.
fn assert_same(copy: &HashFunction, primary: &HashFunction, probes: &[u64]) {
    assert_eq!(copy, primary);
    copy.validate().unwrap();
    assert!(
        copy.compiled().is_current(&copy.tree),
        "compiled runs left stale"
    );
    for &raw in probes {
        let agent = AgentId::new(raw);
        assert_eq!(copy.resolve(agent), primary.resolve(agent), "resolve {raw}");
        assert_eq!(copy.buddy_of(agent), primary.buddy_of(agent));
    }
}

proptest! {
    /// Random split / merge / move histories on a primary copy. A fetched
    /// copy at every earlier version, advanced by the delta the log
    /// answers its version with, is the primary copy. So is a copy that
    /// moved on since it asked (only the suffix of ops above it applies);
    /// a copy older than the delta's start is refused as a gap and left
    /// unchanged. The HAgent's bounded log covers a suffix of versions,
    /// never with more ops than the tree has IAgents, and where it covers
    /// a version it answers as an unbounded log would.
    #[test]
    fn a_copy_advanced_by_deltas_is_the_primary(
        steps in prop::collection::vec(arb_step(), 0..40),
        probes in prop::collection::vec(any::<u64>(), 24..25),
    ) {
        let mut primary = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let mut full = RehashLog::new(primary.version);
        let mut bounded = RehashLog::new(primary.version);
        let mut copies = vec![fetched_copy(&primary)];
        let mut next = 1;
        for step in steps {
            let Some(op) = op_for(&primary, step, next) else {
                continue;
            };
            if primary.apply(&op).is_err() {
                continue;
            }
            next += 1;
            full.push(op.clone(), usize::MAX);
            bounded.push(op, primary.tree.iagent_count());
            copies.push(fetched_copy(&primary));
        }
        primary.validate().unwrap();

        let mut covered = false;
        for (i, copy) in copies.iter().enumerate() {
            let (from_version, ops) = delta(&full, copy.version).expect("unbounded log");
            prop_assert_eq!(from_version, copy.version);
            prop_assert_eq!(ops.len() as u64, primary.version - copy.version);

            let mut advanced = copy.clone();
            advanced.advance(from_version, &ops).unwrap();
            assert_same(&advanced, &primary, &probes);

            let mut ahead = copies[(i + copies.len()) / 2].clone();
            ahead.advance(from_version, &ops).unwrap();
            assert_same(&ahead, &primary, &probes);

            if let Some(behind) = i.checked_sub(1).map(|j| &copies[j]) {
                let mut refused = behind.clone();
                prop_assert_eq!(
                    refused.advance(from_version, &ops),
                    Err(DeltaError::Gap { from_version, have_version: behind.version })
                );
                prop_assert_eq!(&refused, behind);
            }

            match delta(&bounded, copy.version) {
                Some(answer) => {
                    covered = true;
                    prop_assert!(answer.1.len() <= primary.tree.iagent_count());
                    prop_assert_eq!(answer, (from_version, ops));
                }
                None => prop_assert!(!covered, "trimmed version {} after a covered one", copy.version),
            }
        }
        prop_assert!(covered, "the current version is always covered");
        prop_assert!(full.since(0).is_none(), "0 holds no whole copy");
        prop_assert!(full.since(primary.version + 1).is_none());
    }
}

/// The log keeps at most as many ops as the tree has IAgents: older
/// versions then get a whole copy.
#[test]
fn the_log_keeps_as_many_ops_as_the_tree_has_iagents() {
    let mut primary = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut log = RehashLog::new(primary.version);
    let split = op_for(&primary, Step::Simple { seed: 1, m: 1 }, 1).unwrap();
    let mut ops = vec![split];
    for n in 0..3 {
        ops.push(RehashOp::Moved {
            iagent: IAgentId::new(0),
            node: NodeId::new(n),
        });
    }
    for op in ops {
        primary.apply(&op).unwrap();
        log.push(op, primary.tree.iagent_count());
    }
    assert_eq!((primary.version, primary.tree.iagent_count()), (5, 2));
    assert!(
        log.since(2).is_none(),
        "three versions behind, two ops kept"
    );
    for have in 3..=5 {
        assert!(matches!(
            log.since(have),
            Some(Wire::HashFnDelta { from_version, ops })
                if from_version == have && ops.len() as u64 == 5 - have
        ));
    }

    // A merge shrinks the tree, and the bound with it.
    let op = RehashOp::Merge {
        iagent: IAgentId::new(1),
    };
    primary.apply(&op).unwrap();
    log.push(op, primary.tree.iagent_count());
    assert!(log.since(4).is_none());
    assert!(matches!(log.since(5), Some(Wire::HashFnDelta { ops, .. }) if ops.len() == 1));
}

/// An op that does not describe the copy is refused and leaves the copy
/// unchanged; a delta stops at the op before it.
#[test]
fn an_inapplicable_op_is_refused() {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let split = op_for(&hf, Step::Simple { seed: 1, m: 1 }, 1).unwrap();
    hf.apply(&split).unwrap();
    let before = hf.clone();
    let unknown = IAgentId::new(99);
    let refusals = [
        (
            RehashOp::Moved {
                iagent: unknown,
                node: NodeId::new(1),
            },
            TreeError::UnknownIAgent(unknown),
        ),
        (
            RehashOp::Merge { iagent: unknown },
            TreeError::UnknownIAgent(unknown),
        ),
        (split.clone(), TreeError::DuplicateIAgent(IAgentId::new(1))),
    ];
    for (op, error) in refusals {
        assert_eq!(hf.apply(&op), Err(error));
        assert_eq!(hf, before);
    }
    let RehashOp::Split { requester, .. } = split else {
        unreachable!()
    };
    let no_candidate = RehashOp::Split {
        requester,
        key_bit: 0,
        new_iagent: IAgentId::new(2),
        side: Side::Left,
        node: NodeId::new(0),
    };
    assert!(matches!(
        hf.apply(&no_candidate),
        Err(TreeError::StaleCandidate(_))
    ));
    assert_eq!(hf, before);

    // The move applies, the bad op stops the delta one version later.
    let moved = RehashOp::Moved {
        iagent: IAgentId::new(0),
        node: NodeId::new(3),
    };
    let result = hf.advance(hf.version, &[moved, no_candidate]);
    assert!(matches!(result, Err(DeltaError::Op(_))));
    assert_eq!(hf.version, before.version + 1);
    hf.validate().unwrap();

    let mut last = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    assert_eq!(
        last.apply(&RehashOp::Merge {
            iagent: IAgentId::new(0)
        }),
        Err(TreeError::LastIAgent)
    );
}
