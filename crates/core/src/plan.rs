//! Split planning: choosing where an overloaded IAgent's load divides.
//!
//! The paper's procedure (§4.1), executed by the HAgent with the
//! requester's per-agent load statistics in hand:
//!
//! 1. If the requester's hyper-label has a multi-bit label, try **complex
//!    splits**: the left-most multi-bit label first, its first unused bit
//!    first. Accept the first bit that divides the load evenly.
//! 2. Otherwise (or if no complex split is even), try **simple splits**
//!    with `m = 1, 2, …`: branch on the `m`-th extra bit, until one divides
//!    the load evenly.
//! 3. If no candidate is even, settle for the most even one — unless every
//!    candidate leaves all load on one side (a single red-hot agent), in
//!    which case splitting cannot help and the plan fails.

use agentrack_hashtree::{HashTree, IAgentId, Side, SplitCandidate, SplitKind, TreeError};
use agentrack_platform::AgentId;

use crate::config::LocationConfig;
use crate::hashfn::key_of;

/// The largest `m` a simple split tries before settling for the best
/// uneven candidate.
const MAX_SIMPLE_M: usize = 16;

/// Evenness tolerance: a partition is *even* when its lighter side
/// carries at least `0.5 - SPLIT_TOLERANCE` of the load.
pub(crate) const SPLIT_TOLERANCE: f64 = 0.15;

/// A chosen split: the tree candidate plus which side the new IAgent takes.
#[derive(Debug, Clone, PartialEq)]
pub struct SplitPlan {
    /// The tree operation to apply.
    pub candidate: SplitCandidate,
    /// Side assigned to the new IAgent (agents whose key bit equals this
    /// side's valid bit move to it).
    pub new_side: Side,
    /// Fraction of the load on the lighter side (0.5 = perfectly even).
    pub balance: f64,
    /// `true` if the plan satisfied the evenness tolerance.
    pub even: bool,
}

/// Why no split plan could be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The IAgent owns no leaf of the tree (already merged away).
    UnknownIAgent,
    /// The tree cannot split further for this IAgent (key bits exhausted).
    NoCandidates,
    /// Every candidate leaves the entire load on one side: one agent
    /// receives essentially all requests, and no hash split can relieve
    /// that.
    Unbalanceable,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownIAgent => write!(f, "IAgent owns no leaf"),
            PlanError::NoCandidates => write!(f, "no split candidates remain"),
            PlanError::Unbalanceable => {
                write!(
                    f,
                    "load is concentrated on a single agent; no split can balance it"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Plans a split of `iagent`'s load, following the paper's candidate order.
///
/// `loads` are the requester's accumulated per-agent request counts; agents
/// with zero recorded load still matter for the partition (they weigh 1, so
/// a population split stays meaningful when traffic is sparse).
///
/// # Errors
///
/// See [`PlanError`].
pub fn plan_split(
    tree: &HashTree,
    iagent: IAgentId,
    loads: &[(AgentId, u64)],
    config: &LocationConfig,
) -> Result<SplitPlan, PlanError> {
    let candidates = match tree.split_candidates(iagent) {
        Ok(c) => c,
        Err(TreeError::UnknownIAgent(_)) => return Err(PlanError::UnknownIAgent),
        Err(_) => return Err(PlanError::NoCandidates),
    };

    // Ablation E10: skip the statistics entirely and take the first simple
    // candidate (m = 1) — what a naive extendible-hash split would do.
    if config.blind_splits {
        return candidates
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            .map(|candidate| SplitPlan {
                candidate,
                new_side: Side::Right,
                balance: 0.0,
                even: false,
            })
            .ok_or(PlanError::NoCandidates);
    }

    let weighted: Vec<(u64, u64)> = loads
        .iter()
        .map(|&(agent, w)| (key_of(agent).raw(), w.max(1)))
        .collect();

    let mut best: Option<SplitPlan> = None;
    for candidate in candidates {
        if !config.complex_splits_enabled && matches!(candidate.kind, SplitKind::Complex { .. }) {
            continue;
        }
        if let SplitKind::Simple { m } = candidate.kind {
            if m > MAX_SIMPLE_M {
                break; // candidates are ordered; all later m are larger
            }
        }
        let (w0, w1) = partition(&weighted, candidate.key_bit);
        let total = w0 + w1;
        if total == 0 {
            continue;
        }
        let balance = w0.min(w1) as f64 / total as f64;
        let new_side = if w1 <= w0 { Side::Right } else { Side::Left };
        let even = balance >= 0.5 - SPLIT_TOLERANCE;
        let plan = SplitPlan {
            candidate,
            new_side,
            balance,
            even,
        };
        if even {
            return Ok(plan);
        }
        if best.as_ref().is_none_or(|b| plan.balance > b.balance) {
            best = Some(plan);
        }
    }
    match best {
        Some(plan) if plan.balance > 0.0 => Ok(plan),
        Some(_) => Err(PlanError::Unbalanceable),
        None => Err(PlanError::NoCandidates),
    }
}

/// Sums weights by the value of `key_bit` (0-side, 1-side).
fn partition(weighted: &[(u64, u64)], key_bit: usize) -> (u64, u64) {
    let mut w0 = 0u64;
    let mut w1 = 0u64;
    for &(key, w) in weighted {
        if (key >> (63 - key_bit)) & 1 == 1 {
            w1 += w;
        } else {
            w0 += w;
        }
    }
    (w0, w1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentrack_hashtree::AgentKey;
    use std::collections::HashMap;

    /// Finds agent ids whose hashed keys start with the given first bit,
    /// so tests can construct loads with known partitions.
    fn agent_with_first_bit(bit: bool, skip: u64) -> AgentId {
        let mut skipped = 0;
        for raw in 0..100_000u64 {
            let key = key_of(AgentId::new(raw));
            if key.bit(0) == bit {
                if skipped == skip {
                    return AgentId::new(raw);
                }
                skipped += 1;
            }
        }
        panic!("no agent with first bit {bit}");
    }

    #[test]
    fn even_population_splits_on_the_first_bit() {
        let tree = HashTree::new(IAgentId::new(0));
        let loads: Vec<(AgentId, u64)> = (0..100).map(|i| (AgentId::new(i), 10)).collect();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default())
            .expect("even loads must split");
        assert!(plan.even);
        assert_eq!(plan.candidate.kind, SplitKind::Simple { m: 1 });
        assert_eq!(plan.candidate.key_bit, 0);
        assert!(plan.balance >= 0.35);
    }

    #[test]
    fn skewed_first_bit_moves_to_a_later_bit() {
        // All load on agents whose keys start with 1: bit 0 is useless and
        // the planner must advance to a deeper bit (m > 1).
        let tree = HashTree::new(IAgentId::new(0));
        let loads: Vec<(AgentId, u64)> = (0..64)
            .map(|i| (agent_with_first_bit(true, i), 5))
            .collect();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default())
            .expect("must find a deeper even bit");
        assert!(plan.even, "balance {}", plan.balance);
        match plan.candidate.kind {
            SplitKind::Simple { m } => assert!(m > 1, "expected m > 1"),
            SplitKind::Complex { .. } => panic!("fresh tree has no complex candidates"),
        }
    }

    #[test]
    fn single_hot_agent_is_unbalanceable() {
        let tree = HashTree::new(IAgentId::new(0));
        let loads = vec![(AgentId::new(7), 1_000_000)];
        assert_eq!(
            plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default()),
            Err(PlanError::Unbalanceable)
        );
    }

    /// Two agents whose keys agree on the first `bit` bits and differ on
    /// key bit `bit`: only a split on that bit divides them.
    fn agents_first_differing_at(bit: usize) -> [AgentId; 2] {
        let mut seen: HashMap<u64, [Option<AgentId>; 2]> = HashMap::new();
        for raw in 0..1_000_000u64 {
            let key = key_of(AgentId::new(raw));
            let side = usize::from(key.bit(bit));
            let pair = seen.entry(key.raw() >> (64 - bit)).or_default();
            pair[side] = Some(AgentId::new(raw));
            if let [Some(a), Some(b)] = *pair {
                return [a, b];
            }
        }
        panic!("no two agents first differ at bit {bit}");
    }

    #[test]
    fn simple_splits_stop_after_the_sixteenth_extra_bit() {
        let tree = HashTree::new(IAgentId::new(0));
        let plan = |[a, b]: [AgentId; 2]| {
            plan_split(
                &tree,
                IAgentId::new(0),
                &[(a, 5), (b, 5)],
                &LocationConfig::default(),
            )
        };
        let at_16 = plan(agents_first_differing_at(15)).expect("m = 16 is tried");
        assert_eq!(at_16.candidate.kind, SplitKind::Simple { m: 16 });
        assert!(at_16.even);
        assert_eq!(
            plan(agents_first_differing_at(16)),
            Err(PlanError::Unbalanceable),
            "m = 17 is not"
        );
    }

    #[test]
    fn zero_load_agents_weigh_one() {
        let tree = HashTree::new(IAgentId::new(0));
        let loads: Vec<(AgentId, u64)> = (0..100).map(|i| (AgentId::new(i), 0)).collect();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default()).unwrap();
        assert!(plan.even);
    }

    #[test]
    fn blind_splits_ignore_the_statistics() {
        let tree = HashTree::new(IAgentId::new(0));
        // All load on 1-prefixed keys: the even-split planner would pick a
        // deeper bit, the blind planner must not.
        let loads: Vec<(AgentId, u64)> = (0..32)
            .map(|i| (agent_with_first_bit(true, i), 9))
            .collect();
        let config = LocationConfig::default().with_blind_splits();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &config).unwrap();
        assert_eq!(plan.candidate.kind, SplitKind::Simple { m: 1 });
        assert_eq!(plan.candidate.key_bit, 0);
        assert!(!plan.even);
    }

    #[test]
    fn unknown_iagent_is_reported() {
        let tree = HashTree::new(IAgentId::new(0));
        assert_eq!(
            plan_split(&tree, IAgentId::new(9), &[], &LocationConfig::default()),
            Err(PlanError::UnknownIAgent)
        );
    }

    #[test]
    fn complex_candidates_win_when_enabled_and_even() {
        // Build a tree whose IAgent 0 leaf carries a multi-bit label by
        // splitting (m=2) and merging the sibling back.
        let mut tree = HashTree::new(IAgentId::new(0));
        let cand = tree
            .split_candidates(IAgentId::new(0))
            .unwrap()
            .into_iter()
            .find(|c| c.kind == SplitKind::Simple { m: 2 })
            .unwrap();
        tree.apply_split(&cand, IAgentId::new(1), Side::Right)
            .unwrap();
        tree.apply_merge(IAgentId::new(1)).unwrap();
        assert!(tree
            .hyper_label(IAgentId::new(0))
            .unwrap()
            .has_unused_bits());

        let loads: Vec<(AgentId, u64)> = (0..200).map(|i| (AgentId::new(i), 1)).collect();
        let config = LocationConfig::default();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &config).unwrap();
        assert!(
            matches!(plan.candidate.kind, SplitKind::Complex { .. }),
            "complex candidates come first: {plan:?}"
        );

        // With the ablation flag the planner falls back to simple splits.
        let simple_only = LocationConfig::default().simple_splits_only();
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &simple_only).unwrap();
        assert!(matches!(plan.candidate.kind, SplitKind::Simple { .. }));
    }

    #[test]
    fn new_side_takes_the_lighter_half() {
        let tree = HashTree::new(IAgentId::new(0));
        // 64 units on the 0-side, 36 on the 1-side of bit 0: even within
        // the 0.15 tolerance.
        let loads = vec![
            (agent_with_first_bit(true, 0), 36),
            (agent_with_first_bit(false, 0), 64),
        ];
        let plan = plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default()).unwrap();
        assert_eq!(plan.candidate.key_bit, 0);
        assert!(plan.even);
        assert_eq!(plan.new_side, Side::Right, "lighter side is the 1-side");
        let key = key_of(loads[0].0);
        assert!(AgentKey::from(key.raw()).bit(0));
    }

    #[test]
    fn the_split_tolerance_is_fifteen_points() {
        assert_eq!(SPLIT_TOLERANCE, 0.15);
        let tree = HashTree::new(IAgentId::new(0));
        let plan = |light: u64| {
            let loads = [
                (agent_with_first_bit(true, 0), light),
                (agent_with_first_bit(false, 0), 100 - light),
            ];
            plan_split(&tree, IAgentId::new(0), &loads, &LocationConfig::default()).unwrap()
        };
        assert!(plan(36).even, "36/64 is even");
        // Two agents split 34/66 on every bit that separates them, so the
        // planner settles for the first such bit, uneven.
        let uneven = plan(34);
        assert!(!uneven.even, "34/66 is not");
        assert_eq!(uneven.candidate.key_bit, 0);
        assert_eq!(uneven.balance, 0.34);
        // 25/75 is not even either.
        assert!(!plan(25).even);
    }
}
