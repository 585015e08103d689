//! Interleaving property test: *any* random interleaving of splits and
//! merges preserves, **after every single step** (not just at the end of
//! the sequence):
//!
//! * prefix-freeness — no key is compatible with two leaves' hyper-labels,
//!   and each leaf's witness key is claimed by that leaf alone;
//! * full id-space coverage — every probed key is compatible with exactly
//!   one leaf, and that leaf is what the tree walk returns;
//! * compiled directory ≡ tree walk — the incrementally-refreshed runs
//!   agree with the authoritative walk at each step, or are absent
//!   exactly when the tree is past `MAX_RUNS_PER_LEAF` runs a leaf.
//!
//! `properties.rs` checks invariants after a whole sequence;
//! this suite pins them at every intermediate tree shape, which is where
//! a split applied concurrently with a merge would first go wrong.

use agentrack_hashtree::{
    AgentKey, CompiledDirectory, HashTree, HyperLabel, IAgentId, PrefixRegion, Side, TreeError,
    MAX_RUNS_PER_LEAF,
};
use proptest::prelude::*;

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

/// Applies an op and returns the involved IAgents as the HAgent would
/// report them to a directory refresh; `None` for legal no-ops.
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

/// A key every bit of whose constrained positions matches the leaf's
/// hyper-label: the leaf's own witness in id space.
fn witness(hl: &agentrack_hashtree::HyperLabel) -> AgentKey {
    let mut raw = 0u64;
    let mut cursor = hl.prefix_skip().len();
    for label in hl.labels() {
        if label.valid_bit() {
            raw |= 1u64 << (63 - cursor);
        }
        cursor += label.len();
    }
    AgentKey::new(raw)
}

/// `dir` holds runs exactly when `tree` has at most `MAX_RUNS_PER_LEAF`
/// runs a leaf; `lookup` is `None` everywhere past that, and within it
/// answers like the walk at every probe key and at each run's first and
/// last key.
fn agrees_with_walk(
    dir: &CompiledDirectory,
    tree: &HashTree,
    probes: impl Iterator<Item = AgentKey>,
) -> Result<(), TestCaseError> {
    let past = tree.run_count() > (MAX_RUNS_PER_LEAF * tree.iagent_count()) as u64;
    prop_assert_eq!(dir.runs().is_none(), past);
    let Some(runs) = dir.runs() else {
        for key in probes {
            prop_assert_eq!(dir.lookup(key), None, "key {} past the bound", key);
        }
        return Ok(());
    };
    let ends = runs.iter().enumerate().flat_map(|(i, &(start, _))| {
        let last = runs.get(i + 1).map_or(u64::MAX, |&(next, _)| next - 1);
        [AgentKey::new(start), AgentKey::new(last)]
    });
    for key in probes.chain(ends) {
        prop_assert_eq!(
            dir.lookup(key),
            Some(tree.lookup(key)),
            "compiled directory diverged from the walk at key {}",
            key
        );
    }
    Ok(())
}

/// A rehash planned against a frozen base tree, exactly as the HAgent's
/// lease table holds it: the split keeps only the partition bit (the
/// candidate is re-derived at commit), the merge only its target.
#[derive(Debug, Clone)]
enum LeasedOp {
    Split {
        target: IAgentId,
        key_bit: usize,
        side: Side,
        new_iagent: IAgentId,
    },
    Merge {
        target: IAgentId,
    },
}

/// Commits a leased op through the same path the HAgent uses on
/// `IAgentReady`: re-derive the candidate by partition bit, apply, refresh
/// the compiled directory with the involved leaves only.
fn commit(tree: &mut HashTree, dir: &mut CompiledDirectory, op: &LeasedOp) {
    match *op {
        LeasedOp::Split {
            target,
            key_bit,
            side,
            new_iagent,
        } => {
            let cand = tree
                .refreshed_candidate(target, key_bit)
                .expect("a leased subtree is untouched by disjoint commits");
            let applied = tree
                .apply_split(&cand, new_iagent, side)
                .expect("refreshed candidate applies");
            let mut involved = applied.affected;
            involved.push(new_iagent);
            dir.refresh(tree, &involved);
        }
        LeasedOp::Merge { target } => {
            let applied = tree
                .apply_merge(target)
                .expect("a leased merge target is still a leaf");
            dir.refresh(tree, &applied.absorbers);
        }
    }
}

/// Deterministic permutation by selection: element `seeds[i] % remaining`
/// is drawn next. An empty seed list yields the identity order.
fn permute(items: &[LeasedOp], seeds: &[usize]) -> Vec<LeasedOp> {
    let mut pool = items.to_vec();
    let mut out = Vec::with_capacity(pool.len());
    let mut i = 0;
    while !pool.is_empty() {
        let k = seeds.get(i).copied().unwrap_or(0) % pool.len();
        out.push(pool.remove(k));
        i += 1;
    }
    out
}

fn sorted_mapping(tree: &HashTree) -> Vec<(IAgentId, HyperLabel)> {
    let mut mapping = tree.mapping();
    mapping.sort_by_key(|&(ia, _)| ia);
    mapping
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole's fencing argument, as a property: a set of pairwise
    /// prefix-disjoint splits/merges, all planned against the same frozen
    /// tree (grant time), committed in *any* order (completion order),
    /// yields the same final tree shape and the same CompiledDirectory
    /// contents as committing them serially in plan order — so the HAgent
    /// may pipeline them freely.
    #[test]
    fn disjoint_rehashes_commute_with_any_commit_order(
        setup in prop::collection::vec(op_strategy(), 0..12),
        picks in prop::collection::vec(
            (any::<usize>(), any::<usize>(), any::<bool>(), any::<bool>()),
            1..10,
        ),
        orders in prop::collection::vec(
            prop::collection::vec(any::<usize>(), 0..16),
            1..4,
        ),
        extra in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        // Grow a random base tree.
        let mut base = HashTree::new(IAgentId::new(0));
        let mut next_id = 1u64;
        for op in &setup {
            let _ = apply(&mut base, op, &mut next_id);
        }

        // Plan a pairwise prefix-disjoint op set against the frozen base,
        // exactly as the HAgent's admission check does: an op whose region
        // overlaps an already-granted one is dropped (it would be denied).
        let mut leaves: Vec<IAgentId> = base.iagents().collect();
        leaves.sort_unstable();
        let mut regions: Vec<PrefixRegion> = Vec::new();
        let mut planned: Vec<LeasedOp> = Vec::new();
        for &(leaf_sel, cand_sel, right, is_split) in &picks {
            let target = leaves[leaf_sel % leaves.len()];
            if is_split {
                let candidates = base.split_candidates(target).expect("known IAgent");
                if candidates.is_empty() {
                    continue;
                }
                let cand = candidates[cand_sel % candidates.len().min(8)];
                let region = base.split_region(&cand).expect("fresh candidate");
                if regions.iter().any(|r| r.overlaps(&region)) {
                    continue;
                }
                regions.push(region);
                planned.push(LeasedOp::Split {
                    target,
                    key_bit: cand.key_bit,
                    side: if right { Side::Right } else { Side::Left },
                    new_iagent: IAgentId::new(next_id),
                });
                next_id += 1;
            } else {
                let region = match base.merge_region(target) {
                    Ok(region) => region,
                    Err(_) => continue, // last IAgent: nothing to merge
                };
                if regions.iter().any(|r| r.overlaps(&region)) {
                    continue;
                }
                regions.push(region);
                planned.push(LeasedOp::Merge { target });
            }
        }
        if planned.is_empty() {
            return Ok(());
        }

        // The serial baseline (identity order) plus every random
        // completion order must agree on everything observable.
        let mut all_orders: Vec<Vec<usize>> = vec![Vec::new()];
        all_orders.extend(orders);
        let mut outcome: Option<Vec<(IAgentId, HyperLabel)>> = None;
        for seeds in &all_orders {
            let mut tree = base.clone();
            let mut dir = CompiledDirectory::build(&tree);
            for op in permute(&planned, seeds) {
                commit(&mut tree, &mut dir, &op);
                tree.validate().expect("structural invariants");
            }
            // The incrementally-refreshed directory answers like the walk,
            // and is the directory a fresh build would hold.
            let probes = (0..64u64)
                .map(AgentKey::from_sequential)
                .chain(extra.iter().map(|&raw| AgentKey::new(raw)));
            agrees_with_walk(&dir, &tree, probes)?;
            prop_assert_eq!(&dir, &CompiledDirectory::build(&tree));
            let mapping = sorted_mapping(&tree);
            match &outcome {
                None => outcome = Some(mapping),
                Some(first) => prop_assert_eq!(
                    first, &mapping,
                    "commit order {:?} changed the final tree", seeds
                ),
            }
        }
    }

    /// After *every* step of a random split/merge interleaving: labels are
    /// prefix-free, the id space is fully covered, and the compiled
    /// directory answers exactly like the tree walk.
    #[test]
    fn every_step_preserves_tree_invariants(
        ops in prop::collection::vec(op_strategy(), 1..30),
        extra in prop::collection::vec(any::<u64>(), 8..9),
    ) {
        let mut tree = HashTree::new(IAgentId::new(0));
        let mut dir = CompiledDirectory::build(&tree);
        let mut next_id = 1u64;

        for op in &ops {
            if let Some(involved) = apply(&mut tree, op, &mut next_id) {
                dir.refresh(&tree, &involved);
            }
            tree.validate().expect("structural invariants");

            let mapping = tree.mapping();

            // Prefix-freeness: each leaf's witness key is compatible with
            // that leaf and no other.
            for (ia, hl) in &mapping {
                let w = witness(hl);
                let owners: Vec<IAgentId> = mapping
                    .iter()
                    .filter(|(_, other)| other.is_compatible(w))
                    .map(|(other_ia, _)| *other_ia)
                    .collect();
                prop_assert_eq!(&owners, &vec![*ia],
                    "witness of {} after {:?} claimed by {:?}", ia, op, owners);
            }

            // Full coverage + uniqueness + compiled agreement over a probe
            // set: sequential keys plus random extras.
            let probes = (0..64u64)
                .map(AgentKey::from_sequential)
                .chain(extra.iter().map(|&raw| AgentKey::new(raw)));
            for key in probes {
                let by_walk = tree.lookup(key);
                let compatible: Vec<IAgentId> = mapping
                    .iter()
                    .filter(|(_, hl)| hl.is_compatible(key))
                    .map(|(ia, _)| *ia)
                    .collect();
                prop_assert_eq!(&compatible, &vec![by_walk],
                    "key {} covered by {:?} after {:?}", key, compatible, op);
            }
            let probes = (0..64u64)
                .map(AgentKey::from_sequential)
                .chain(extra.iter().map(|&raw| AgentKey::new(raw)));
            agrees_with_walk(&dir, &tree, probes)?;
        }
    }
}
