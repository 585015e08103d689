//! Property-based tests for the compiled directory: the flat `2^d` table
//! must be observationally identical to the tree walk it replaces, no
//! matter what rehash sequence produced the tree — including the awkward
//! shapes (multi-bit labels whose unused bits must *not* constrain the
//! lookup) that complex splits and merges create.

use agentrack_hashtree::{AgentKey, CompiledDirectory, HashTree, IAgentId, Side, TreeError};
use proptest::prelude::*;

/// One randomly-directed rehash operation (mirrors `properties.rs`).
#[derive(Debug, Clone)]
enum Op {
    Split {
        leaf_sel: usize,
        cand_sel: usize,
        new_side: bool,
    },
    Merge {
        leaf_sel: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<usize>(), any::<usize>(), any::<bool>()).prop_map(
            |(leaf_sel, cand_sel, new_side)| Op::Split {
                leaf_sel,
                cand_sel,
                new_side,
            }
        ),
        1 => any::<usize>().prop_map(|leaf_sel| Op::Merge { leaf_sel }),
    ]
}

/// Applies an op and returns the involved IAgents exactly as the HAgent
/// reports them to `refresh` (split: affected + the new leaf; merge: the
/// absorbers). `None` when the op was a legal no-op for this tree.
fn apply(tree: &mut HashTree, op: &Op, next_id: &mut u64) -> Option<Vec<IAgentId>> {
    let mut iagents: Vec<IAgentId> = tree.iagents().collect();
    iagents.sort_unstable();
    match *op {
        Op::Split {
            leaf_sel,
            cand_sel,
            new_side,
        } => {
            let target = iagents[leaf_sel % iagents.len()];
            let candidates = tree.split_candidates(target).expect("known IAgent");
            if candidates.is_empty() {
                return None;
            }
            let cand = candidates[cand_sel % candidates.len().min(8)];
            let new_iagent = IAgentId::new(*next_id);
            let side = if new_side { Side::Right } else { Side::Left };
            match tree.apply_split(&cand, new_iagent, side) {
                Ok(applied) => {
                    *next_id += 1;
                    let mut involved = applied.affected;
                    involved.push(applied.new_iagent);
                    Some(involved)
                }
                Err(TreeError::DepthExceeded { .. }) => None,
                Err(e) => panic!("unexpected split error: {e}"),
            }
        }
        Op::Merge { leaf_sel } => {
            let target = iagents[leaf_sel % iagents.len()];
            match tree.apply_merge(target) {
                Ok(applied) => Some(applied.absorbers),
                Err(TreeError::LastIAgent) => None,
                Err(e) => panic!("unexpected merge error: {e}"),
            }
        }
    }
}

/// Keys that probe every leaf and every slot boundary: one compatible
/// witness per leaf, each also perturbed in its low (unconstrained) bits.
fn probe_keys(tree: &HashTree, extra: &[u64]) -> Vec<AgentKey> {
    let mut keys: Vec<AgentKey> = extra.iter().map(|&raw| AgentKey::new(raw)).collect();
    keys.extend((0..64u64).map(AgentKey::from_sequential));
    for (_, hl) in tree.mapping() {
        let mut raw = 0u64;
        let mut cursor = hl.prefix_skip().len();
        for label in hl.labels() {
            if label.valid_bit() {
                raw |= 1u64 << (63 - cursor);
            }
            cursor += label.len();
        }
        // The witness itself, with trailing bits flipped (must not change
        // the answer), and with an *unused* mid-label bit flipped (ditto).
        keys.push(AgentKey::new(raw));
        keys.push(AgentKey::new(raw | (u64::MAX >> cursor.min(63))));
        if cursor < 64 {
            keys.push(AgentKey::new(raw | (1u64 << (63 - cursor))));
        }
    }
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An incrementally-maintained directory answers every key exactly as
    /// the tree walk does, after any rehash sequence.
    #[test]
    fn compiled_agrees_with_tree_walk(
        ops in prop::collection::vec(op_strategy(), 1..40),
        extra in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut tree = HashTree::new(IAgentId::new(0));
        let mut dir = CompiledDirectory::build(&tree);
        let mut next_id = 1u64;
        for op in &ops {
            if let Some(involved) = apply(&mut tree, op, &mut next_id) {
                dir.refresh(&tree, &involved);
            }
            prop_assert!(dir.is_current(&tree));
            for key in probe_keys(&tree, &extra) {
                prop_assert_eq!(
                    dir.lookup(key).expect("compiled within depth cap"),
                    tree.lookup(key),
                    "key {} disagrees after {:?}", key, op
                );
            }
        }
        // The exhaustive slot-by-slot check. Note the maintained table may
        // be *deeper* than a fresh build (merges never shrink it — the
        // extra low index bits are unconstrained), so the comparison with
        // a fresh build is observational, not structural.
        dir.verify(&tree).expect("slot-exact directory");
        let fresh = CompiledDirectory::build(&tree);
        fresh.verify(&tree).expect("fresh build is slot-exact");
        prop_assert!(dir.depth() >= fresh.depth(), "maintained table shrank");
        // The tree counts the runs the table holds.
        if let Some(slots) = fresh.slots() {
            let runs = 1 + slots.windows(2).filter(|pair| pair[0] != pair[1]).count();
            prop_assert_eq!(tree.run_count(), runs as u64);
        }
    }

    /// Generation stamps only move forward, and `is_current` is precisely
    /// "compiled at the tree's current generation".
    #[test]
    fn generation_stamps_are_monotonic(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let mut tree = HashTree::new(IAgentId::new(0));
        let mut dir = CompiledDirectory::build(&tree);
        let mut next_id = 1u64;
        let mut last_gen = dir.generation();
        for op in &ops {
            if let Some(involved) = apply(&mut tree, op, &mut next_id) {
                // The tree moved on: a directory compiled against the old
                // generation must report stale.
                prop_assert!(!dir.is_current(&tree));
                dir.refresh(&tree, &involved);
            }
            prop_assert!(dir.generation() >= last_gen, "generation went backwards");
            prop_assert_eq!(dir.generation(), tree.generation());
            prop_assert!(dir.is_current(&tree));
            last_gen = dir.generation();
        }
    }

    /// Complex-split-heavy sequences produce multi-bit labels with unused
    /// bits; flipping an unused bit in a key must never change the answer,
    /// in both the walk and the table (regression: the table must index by
    /// *valid-bit* positions only).
    #[test]
    fn unused_bits_never_constrain_lookup(
        ops in prop::collection::vec(op_strategy(), 1..30),
        flips in prop::collection::vec(any::<u64>(), 4..5),
    ) {
        let mut tree = HashTree::new(IAgentId::new(0));
        let mut next_id = 1u64;
        for op in &ops {
            apply(&mut tree, op, &mut next_id);
        }
        let dir = CompiledDirectory::build(&tree);
        for (ia, hl) in tree.mapping() {
            if !hl.has_unused_bits() {
                continue;
            }
            // A witness key for the leaf, then flip every unused position
            // (prefix-skip bits and each label's trailing bits) in random
            // combinations: the key must keep resolving to this leaf.
            let mut raw = 0u64;
            let mut unused_positions = Vec::new();
            let mut cursor = 0usize;
            for _ in 0..hl.prefix_skip().len() {
                unused_positions.push(cursor);
                cursor += 1;
            }
            for label in hl.labels() {
                if label.valid_bit() {
                    raw |= 1u64 << (63 - cursor);
                }
                cursor += 1;
                for _ in 0..label.len() - 1 {
                    unused_positions.push(cursor);
                    cursor += 1;
                }
            }
            for &flip in &flips {
                let mut key = raw;
                for (i, &pos) in unused_positions.iter().enumerate() {
                    if flip & (1 << (i % 64)) != 0 {
                        key |= 1u64 << (63 - pos);
                    }
                }
                let key = AgentKey::new(key);
                prop_assert_eq!(tree.lookup(key), ia,
                    "walk: unused bit constrained key {}", key);
                prop_assert_eq!(dir.lookup(key).expect("compiled"), ia,
                    "table: unused bit constrained key {}", key);
            }
        }
    }
}
