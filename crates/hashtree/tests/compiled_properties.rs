//! Property-based tests for the compiled directory: its runs must be
//! observationally identical to the tree walk they replace, no matter what
//! rehash sequence produced the tree — including the awkward shapes
//! (multi-bit labels whose unused bits must *not* constrain the lookup)
//! that complex splits and merges create — and it must hold runs exactly
//! while the tree has at most `MAX_RUNS_PER_LEAF` of them a leaf.

use agentrack_hashtree::{
    AgentKey, CompiledDirectory, HashTree, IAgentId, Side, TreeError, MAX_RUNS_PER_LEAF,
};
use proptest::prelude::*;
use proptest::TestRng;

/// One randomly-directed rehash operation (mirrors `properties.rs`).
#[derive(Debug, Clone)]
enum Op {
    Split {
        leaf_sel: usize,
        cand_sel: usize,
        /// How far into the paper's candidate order the pick may reach:
        /// 2 stays near the complex and first simple candidates, which
        /// leave a leaf few runs; 8 reaches simple splits up to eight
        /// bits deep, which fragment the key space past the bound.
        reach: usize,
        new_side: bool,
    },
    Merge {
        leaf_sel: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (any::<usize>(), any::<usize>(), 2usize..9, any::<bool>()).prop_map(
            |(leaf_sel, cand_sel, reach, new_side)| Op::Split {
                leaf_sel,
                cand_sel,
                reach,
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
            reach,
            new_side,
        } => {
            let target = iagents[leaf_sel % iagents.len()];
            let candidates = tree.split_candidates(target).expect("known IAgent");
            if candidates.is_empty() {
                return None;
            }
            let cand = candidates[cand_sel % candidates.len().min(reach)];
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

/// Keys that probe every leaf: one compatible witness per leaf, each also
/// perturbed in its low (unconstrained) bits.
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

/// `true` when `tree` has more runs than its flat form may hold.
fn past_the_bound(tree: &HashTree) -> bool {
    tree.run_count() > (MAX_RUNS_PER_LEAF * tree.iagent_count()) as u64
}

/// `dir` holds runs exactly when `tree` is within the bound; `lookup` is
/// `None` everywhere past it, and within it answers like the walk at every
/// probe key and at each run's first and last key.
fn agrees_with_walk(
    dir: &CompiledDirectory,
    tree: &HashTree,
    probes: &[AgentKey],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(dir.runs().is_none(), past_the_bound(tree));
    let Some(runs) = dir.runs() else {
        for &key in probes {
            prop_assert_eq!(dir.lookup(key), None, "key {} past the bound", key);
        }
        return Ok(());
    };
    let ends = runs.iter().enumerate().flat_map(|(i, &(start, _))| {
        let last = runs.get(i + 1).map_or(u64::MAX, |&(next, _)| next - 1);
        [AgentKey::new(start), AgentKey::new(last)]
    });
    for key in probes.iter().copied().chain(ends) {
        prop_assert_eq!(dir.lookup(key), Some(tree.lookup(key)), "key {}", key);
    }
    Ok(())
}

/// Grows a tree by `ops` from a single leaf.
fn grow(ops: &[Op]) -> HashTree {
    let mut tree = HashTree::new(IAgentId::new(0));
    let mut next_id = 1u64;
    for op in ops {
        apply(&mut tree, op, &mut next_id);
    }
    tree
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An incrementally-maintained directory answers every key exactly as
    /// the tree walk does, after any rehash sequence, and equals a fresh
    /// build run for run.
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
            agrees_with_walk(&dir, &tree, &probe_keys(&tree, &extra))?;
        }
        dir.verify(&tree).expect("run-exact directory");
        let fresh = CompiledDirectory::build(&tree);
        fresh.verify(&tree).expect("fresh build is run-exact");
        prop_assert_eq!(&dir, &fresh, "refreshed directory differs from a fresh build");
        // The tree counts the runs the directory holds.
        if let Some(runs) = fresh.runs() {
            prop_assert_eq!(tree.run_count(), runs.len() as u64);
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
    /// in both the walk and the runs (regression: runs must be cut by
    /// *valid-bit* positions only).
    #[test]
    fn unused_bits_never_constrain_lookup(
        ops in prop::collection::vec(op_strategy(), 1..30),
        flips in prop::collection::vec(any::<u64>(), 4..5),
    ) {
        let tree = grow(&ops);
        let dir = CompiledDirectory::build(&tree);
        prop_assert_eq!(dir.runs().is_none(), past_the_bound(&tree));
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
                if dir.runs().is_some() {
                    prop_assert_eq!(dir.lookup(key), Some(ia),
                        "runs: unused bit constrained key {}", key);
                }
            }
        }
    }
}

/// The properties above are not vacuous: replaying the cases
/// `unused_bits_never_constrain_lookup` draws (its generator, its order),
/// many trees whose leaves have unused bits still compile, so the runs'
/// side of its check runs on them, and many do not, so the bound's does.
#[test]
fn generated_trees_with_unused_bits_do_compile() {
    let mut rng = TestRng::from_test_name(concat!(
        module_path!(),
        "::unused_bits_never_constrain_lookup"
    ));
    let ops = prop::collection::vec(op_strategy(), 1..30);
    let flips = prop::collection::vec(any::<u64>(), 4..5);
    let (mut with_unused, mut compiled) = (0, 0);
    for _ in 0..ProptestConfig::with_cases(64).cases {
        let tree = grow(&ops.generate(&mut rng));
        flips.generate(&mut rng);
        if tree.mapping().iter().any(|(_, hl)| hl.has_unused_bits()) {
            with_unused += 1;
            if CompiledDirectory::build(&tree).runs().is_some() {
                compiled += 1;
            }
        }
    }
    println!("{compiled} of {with_unused} trees with unused bits compile");
    assert!(
        compiled >= 8 && with_unused - compiled >= 8,
        "{compiled} of {with_unused} trees with unused bits compile"
    );
}
