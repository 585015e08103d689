//! The dynamic (extendible) hash tree mapping agent keys to IAgents.
//!
//! # Structure
//!
//! The hash function `H` is represented as a binary tree (paper §3). Each
//! leaf corresponds to one IAgent; the IAgent serves every agent whose key is
//! *compatible* with the leaf's hyper-label. Each edge carries a label whose
//! first bit — the **valid bit** — selects the left (`0`) or right (`1`)
//! child; the remaining **unused** bits are skipped during traversal.
//!
//! # Representation
//!
//! Two observations shape the in-memory representation:
//!
//! 1. A valid bit always equals the side of the child it leads to, so it
//!    never needs to be stored: each node records only the *unused* bits of
//!    its incoming edge label.
//! 2. Merging both children of the root leaves the surviving subtree with a
//!    label whose valid bit must stop constraining keys (the new root serves
//!    the whole key space) while every deeper position stays put. The root
//!    therefore carries a *skip prefix*: key bits consumed before the first
//!    branching decision, all unconstrained. A freshly built tree has an
//!    empty skip; merges at the root grow it, and complex splits can later
//!    promote its bits back into branching decisions.
//!
//! # Operations
//!
//! * [`HashTree::lookup`] — the paper's traversal procedure: follow one key
//!   bit per node, skipping a label's unused bits.
//! * [`HashTree::split_candidates`] — enumerate the split points the paper's
//!   rehashing procedure considers, in the paper's order: complex candidates
//!   (left-most multi-bit label first, first unused bit first), then simple
//!   candidates (`m = 1, 2, …`).
//! * [`HashTree::apply_split`] / [`HashTree::apply_merge`] — perform the
//!   structural change, reporting which IAgents must re-examine the agents
//!   they serve ("the splitting and merging process should affect the
//!   mapping of only the mobile agents and the IAgents that are involved").

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bits::Bits;
use crate::error::TreeError;
use crate::key::{AgentKey, KEY_BITS};
use crate::label::{HyperLabel, Label};

/// Identifier of an Information Agent (IAgent), the owner of one hash-tree
/// leaf.
///
/// Displayed as `IA<n>`, following the paper's figures.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct IAgentId(pub u64);

impl IAgentId {
    /// Creates an IAgent id from its numeric value.
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        IAgentId(raw)
    }

    /// The numeric value.
    #[must_use]
    pub const fn raw(&self) -> u64 {
        self.0
    }
}

impl From<u64> for IAgentId {
    fn from(raw: u64) -> Self {
        IAgentId(raw)
    }
}

impl fmt::Display for IAgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IA{}", self.0)
    }
}

impl fmt::Debug for IAgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IA{}", self.0)
    }
}

/// Which child of an internal node an edge leads to.
///
/// The valid bit of an edge label equals the side of the child it leads to:
/// `Left` ⇔ `0`, `Right` ⇔ `1` (paper §3).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Side {
    /// The `0` side.
    Left,
    /// The `1` side.
    Right,
}

impl Side {
    /// The valid-bit value of an edge leading to this side.
    #[must_use]
    pub const fn bit(self) -> bool {
        matches!(self, Side::Right)
    }

    /// The side selected by a key bit.
    #[must_use]
    pub const fn from_bit(bit: bool) -> Self {
        if bit {
            Side::Right
        } else {
            Side::Left
        }
    }

    /// The opposite side.
    #[must_use]
    pub const fn opposite(self) -> Self {
        match self {
            Side::Left => Side::Right,
            Side::Right => Side::Left,
        }
    }

    const fn index(self) -> usize {
        match self {
            Side::Left => 0,
            Side::Right => 1,
        }
    }
}

impl fmt::Debug for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "Left(0)",
            Side::Right => "Right(1)",
        })
    }
}

impl fmt::Display for Side {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Side::Left => "left",
            Side::Right => "right",
        })
    }
}

/// Index of a node in the tree's arena. Opaque; stable only until the next
/// structural change.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(u32);

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct NodeData {
    /// Parent node and which side of it this node hangs on; `None` for the
    /// root.
    parent: Option<(NodeId, Side)>,
    /// Unused bits of the incoming edge label (after the implied valid
    /// bit). For the root this is the skip prefix.
    unused: Bits,
    kind: NodeKind,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum NodeKind {
    Leaf(IAgentId),
    Internal { children: [NodeId; 2] },
}

/// How a split partitions the key space (paper §4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitKind {
    /// Simple split: branch on the `m`-th key bit past the bits the leaf's
    /// hyper-label already consumes, skipping the `m - 1` bits before it.
    Simple {
        /// The 1-based index of the extra bit to branch on.
        m: usize,
    },
    /// Complex split: promote an unused bit of an edge label on the leaf's
    /// root path into a branching decision.
    Complex {
        /// The node at the child end of the edge whose label holds the bit
        /// (the root itself when promoting a skip-prefix bit).
        edge_node: NodeId,
        /// Index of the bit within that label's unused bits (0 = first
        /// unused bit, i.e. "the first bit after the valid bit").
        bit_offset: usize,
    },
}

/// A possible split point for an overloaded IAgent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitCandidate {
    /// The leaf (IAgent) being split.
    pub iagent: IAgentId,
    /// Simple or complex, and where.
    pub kind: SplitKind,
    /// The key-bit position the split partitions agents on. The load planner
    /// evaluates evenness by testing this bit of each served agent's key.
    pub key_bit: usize,
    /// The tree generation this candidate was computed against; any
    /// structural change invalidates it (arena slots are recycled, so a
    /// stale `NodeId` could otherwise point at an unrelated node).
    pub generation: u64,
}

/// Result of [`HashTree::apply_split`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitApplied {
    /// The IAgent that was split.
    pub split_iagent: IAgentId,
    /// The newly created IAgent.
    pub new_iagent: IAgentId,
    /// The key bit the partition branches on.
    pub key_bit: usize,
    /// The side (hence valid-bit value) assigned to the new IAgent's leaf.
    pub new_side: Side,
    /// IAgents that must re-examine the agents they serve: agents whose key
    /// now maps to the new IAgent have to be handed over. For a simple split
    /// this is just the split IAgent; for a complex split it is every IAgent
    /// in the subtree under the re-labelled edge.
    pub affected: Vec<IAgentId>,
}

/// How a merge folded a leaf away (paper §4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeKind {
    /// The sibling was a leaf: the merged IAgent's load goes to that one
    /// sibling IAgent.
    Simple,
    /// The sibling was an internal node: the load is distributed over the
    /// IAgents of the sibling's subtree.
    Complex,
}

/// Result of [`HashTree::apply_merge`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeApplied {
    /// The IAgent whose leaf was removed.
    pub removed: IAgentId,
    /// Simple (sibling was a leaf) or complex (sibling was a subtree).
    pub kind: MergeKind,
    /// The IAgents that absorb the removed IAgent's agents. Exactly one for
    /// a simple merge.
    pub absorbers: Vec<IAgentId>,
}

/// The key-space region a rehash operation can remap, expressed as a
/// prefix constraint: the set of keys that agree with `value` on every bit
/// selected by `mask` (bit positions count from the most significant end,
/// matching [`AgentKey::bit`]).
///
/// Regions are how the HAgent's lease table decides whether two rehashes
/// are independent: a split or merge restructures only nodes inside its
/// region, so any set of pairwise-disjoint regions can be rehashed
/// concurrently without one invalidating another's plan. Two regions
/// *overlap* when some key satisfies both constraints — which happens
/// exactly when they agree on every commonly-constrained bit. An ancestor
/// region (fewer constrained bits) therefore overlaps all of its
/// descendants, which is what serialises a complex split at a shallow edge
/// against every operation underneath it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrefixRegion {
    /// Bit positions constrained by this region (MSB-first, like keys).
    mask: u64,
    /// Required values at the constrained positions.
    value: u64,
}

impl PrefixRegion {
    /// The unconstrained region: the whole key space. Overlaps everything.
    pub const EVERYTHING: PrefixRegion = PrefixRegion { mask: 0, value: 0 };

    /// The region of keys compatible with a hyper-label: each label's valid
    /// bit constrains its position, unused bits (and the prefix skip)
    /// constrain nothing.
    #[must_use]
    pub fn from_hyper_label(hl: &HyperLabel) -> Self {
        let mut mask = 0u64;
        let mut value = 0u64;
        for (pos, label) in hl.valid_bit_positions().iter().zip(hl.labels()) {
            let bit = 1u64 << (KEY_BITS - 1 - pos);
            mask |= bit;
            if label.valid_bit() {
                value |= bit;
            }
        }
        PrefixRegion { mask, value }
    }

    /// `true` when some key lies in both regions: the regions agree on
    /// every bit they both constrain. Disjoint regions differ on at least
    /// one commonly-constrained bit, so no key can satisfy both.
    #[must_use]
    pub fn overlaps(&self, other: &PrefixRegion) -> bool {
        (self.value ^ other.value) & self.mask & other.mask == 0
    }

    /// Number of constrained bit positions (0 for [`Self::EVERYTHING`]).
    #[must_use]
    pub fn constrained_bits(&self) -> u32 {
        self.mask.count_ones()
    }
}

/// The dynamic hash tree: the paper's representation of the extendible hash
/// function `H` mapping agent ids to IAgents.
///
/// # Examples
///
/// ```
/// use agentrack_hashtree::{AgentKey, HashTree, IAgentId, Side, SplitKind};
///
/// // A new tree maps every key to the single initial IAgent.
/// let mut tree = HashTree::new(IAgentId::new(0));
/// assert_eq!(tree.lookup(AgentKey::new(42)), IAgentId::new(0));
///
/// // Split it on the first key bit: keys starting 0 stay, keys starting 1
/// // move to the new IAgent.
/// let cand = tree
///     .split_candidates(IAgentId::new(0))?
///     .into_iter()
///     .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
///     .unwrap();
/// tree.apply_split(&cand, IAgentId::new(1), Side::Right)?;
/// assert_eq!(tree.lookup(AgentKey::new(0)), IAgentId::new(0));
/// assert_eq!(tree.lookup(AgentKey::new(u64::MAX)), IAgentId::new(1));
/// # Ok::<(), agentrack_hashtree::TreeError>(())
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct HashTree {
    nodes: Vec<Option<NodeData>>,
    free: Vec<NodeId>,
    root: NodeId,
    /// IAgent → leaf index; every leaf appears exactly once.
    leaves: HashMap<IAgentId, NodeId>,
    /// Bumped by every structural change; stamps split candidates.
    generation: u64,
}

impl HashTree {
    /// Creates a tree with a single leaf: one IAgent serving the whole key
    /// space.
    #[must_use]
    pub fn new(initial: IAgentId) -> Self {
        let mut leaves = HashMap::new();
        leaves.insert(initial, NodeId(0));
        HashTree {
            nodes: vec![Some(NodeData {
                parent: None,
                unused: Bits::new(),
                kind: NodeKind::Leaf(initial),
            })],
            free: Vec::new(),
            root: NodeId(0),
            leaves,
            generation: 0,
        }
    }

    /// The structural generation: bumped by every split and merge. A
    /// [`SplitCandidate`] is only valid against the generation it was
    /// computed from.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of IAgents (leaves).
    #[must_use]
    pub fn iagent_count(&self) -> usize {
        self.leaves.len()
    }

    /// Returns `true` if `iagent` owns a leaf of this tree.
    #[must_use]
    pub fn contains(&self, iagent: IAgentId) -> bool {
        self.leaves.contains_key(&iagent)
    }

    /// Iterates over all IAgents, in unspecified order.
    pub fn iagents(&self) -> impl Iterator<Item = IAgentId> + '_ {
        self.leaves.keys().copied()
    }

    /// The paper's lookup procedure: walk from the root, branching on one
    /// key bit per internal node and skipping each label's unused bits.
    ///
    /// Total mapping: every key maps to exactly one IAgent.
    #[must_use]
    pub fn lookup(&self, key: AgentKey) -> IAgentId {
        match self.node(self.leaf_node_for_key(key)).kind {
            NodeKind::Leaf(iagent) => iagent,
            NodeKind::Internal { .. } => unreachable!("leaf_node_for_key returned internal node"),
        }
    }

    /// The hyper-label of the leaf owned by `iagent`.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownIAgent`] if `iagent` owns no leaf.
    pub fn hyper_label(&self, iagent: IAgentId) -> Result<HyperLabel, TreeError> {
        let leaf = self.leaf_of(iagent)?;
        Ok(self.hyper_label_of_node(leaf))
    }

    /// Number of key bits a traversal ending at `iagent`'s leaf consumes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownIAgent`] if `iagent` owns no leaf.
    pub fn consumed_bits(&self, iagent: IAgentId) -> Result<usize, TreeError> {
        let leaf = self.leaf_of(iagent)?;
        Ok(self.consumed_bits_of_node(leaf))
    }

    /// How many runs the key space falls into: maximal key intervals that
    /// one leaf serves. A leaf serves one interval for each setting of the
    /// unconstrained bits its hyper-label consumes before its last valid
    /// bit, so a leaf with `g` such bits serves `2^g` runs. Saturates at
    /// `u64::MAX`.
    ///
    /// # Examples
    ///
    /// ```
    /// use agentrack_hashtree::{HashTree, IAgentId, Side, SplitKind};
    ///
    /// let mut tree = HashTree::new(IAgentId::new(0));
    /// assert_eq!(tree.run_count(), 1);
    /// // Branch on the third key bit: the two sides alternate eight times.
    /// let cand = tree
    ///     .split_candidates(IAgentId::new(0))?
    ///     .into_iter()
    ///     .find(|c| c.kind == SplitKind::Simple { m: 3 })
    ///     .unwrap();
    /// tree.apply_split(&cand, IAgentId::new(1), Side::Right)?;
    /// assert_eq!(tree.run_count(), 8);
    /// # Ok::<(), agentrack_hashtree::TreeError>(())
    /// ```
    #[must_use]
    pub fn run_count(&self) -> u64 {
        // (node, key bits consumed through its edge label, labels so far)
        let root = self.node(self.root);
        let mut stack = vec![(self.root, root.unused.len(), 0usize)];
        let mut runs = 0u64;
        while let Some((id, consumed, labels)) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf(_) => {
                    // The bits consumed up to the leaf's own valid bit,
                    // less one valid bit per label. The root's unused
                    // bits are its skip, so a lone root leaf has none.
                    let free = consumed - self.node(id).unused.len() - labels;
                    runs = runs.saturating_add(1u64.checked_shl(free as u32).unwrap_or(u64::MAX));
                }
                NodeKind::Internal { children } => {
                    for &child in children {
                        let edge = 1 + self.node(child).unused.len();
                        stack.push((child, consumed + edge, labels + 1));
                    }
                }
            }
        }
        runs
    }

    /// Height of the tree: number of edges on the longest root-to-leaf path.
    #[must_use]
    pub fn height(&self) -> usize {
        self.leaves
            .values()
            .map(|&leaf| {
                let mut h = 0;
                let mut node = leaf;
                while let Some((parent, _)) = self.node(node).parent {
                    h += 1;
                    node = parent;
                }
                h
            })
            .max()
            .unwrap_or(0)
    }

    /// Enumerates split candidates for an overloaded IAgent, in the order
    /// the paper prescribes (§4.1):
    ///
    /// 1. **Complex** candidates — for each multi-bit label in the leaf's
    ///    hyper-label from left (root) to right, each unused bit from first
    ///    to last (the root's skip prefix counts, all of its bits being
    ///    unused);
    /// 2. **Simple** candidates — `m = 1, 2, …` up to the key width.
    ///
    /// The caller (the HAgent's planner) evaluates each candidate's load
    /// partition and applies the first acceptable one.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownIAgent`] if `iagent` owns no leaf.
    pub fn split_candidates(&self, iagent: IAgentId) -> Result<Vec<SplitCandidate>, TreeError> {
        let leaf = self.leaf_of(iagent)?;
        let mut candidates = Vec::new();

        // Complex candidates: walk the root path top-down.
        let mut path = Vec::new();
        let mut node = leaf;
        loop {
            path.push(node);
            match self.node(node).parent {
                Some((parent, _)) => node = parent,
                None => break,
            }
        }
        path.reverse(); // root first

        let mut cursor = 0;
        for &n in &path {
            let data = self.node(n);
            let is_root = data.parent.is_none();
            // The incoming label occupies [cursor, cursor + label_len); its
            // unused bits start one past the valid bit (or at the start, for
            // the root skip which has no valid bit).
            let unused_start = if is_root { cursor } else { cursor + 1 };
            for j in 0..data.unused.len() {
                candidates.push(SplitCandidate {
                    iagent,
                    kind: SplitKind::Complex {
                        edge_node: n,
                        bit_offset: j,
                    },
                    key_bit: unused_start + j,
                    generation: self.generation,
                });
            }
            cursor = unused_start + data.unused.len();
        }

        // Simple candidates: m-th extra bit past the consumed prefix.
        let consumed = cursor;
        debug_assert_eq!(consumed, self.consumed_bits_of_node(leaf));
        for m in 1..=(KEY_BITS.saturating_sub(consumed)) {
            candidates.push(SplitCandidate {
                iagent,
                kind: SplitKind::Simple { m },
                key_bit: consumed + m - 1,
                generation: self.generation,
            });
        }
        Ok(candidates)
    }

    /// The key-space region a split would remap: for a simple split, the
    /// keys compatible with the leaf's hyper-label; for a complex split,
    /// the keys routed through the candidate's edge (the whole subtree
    /// under it re-partitions on the promoted bit).
    ///
    /// The HAgent's lease table admits a rehash only when its region is
    /// disjoint from every in-flight lease: operations inside disjoint
    /// regions touch disjoint node sets and never invalidate each other.
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownIAgent`] — the candidate's IAgent owns no leaf.
    /// * [`TreeError::StaleCandidate`] — the candidate was computed against
    ///   an older generation (its `edge_node` may dangle).
    pub fn split_region(&self, candidate: &SplitCandidate) -> Result<PrefixRegion, TreeError> {
        if candidate.generation != self.generation {
            return Err(TreeError::StaleCandidate(format!(
                "candidate from generation {}, tree at {}",
                candidate.generation, self.generation
            )));
        }
        let leaf = self.leaf_of(candidate.iagent)?;
        let node = match candidate.kind {
            SplitKind::Simple { .. } => leaf,
            SplitKind::Complex { edge_node, .. } => edge_node,
        };
        Ok(PrefixRegion::from_hyper_label(
            &self.hyper_label_of_node(node),
        ))
    }

    /// The key-space region a merge of `iagent` would remap: the keys
    /// routed through its parent node (the merged leaf's keys redistribute
    /// over the sibling subtree, whose labels all shift).
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownIAgent`] — `iagent` owns no leaf.
    /// * [`TreeError::LastIAgent`] — the tree has only one leaf.
    pub fn merge_region(&self, iagent: IAgentId) -> Result<PrefixRegion, TreeError> {
        let leaf = self.leaf_of(iagent)?;
        match self.node(leaf).parent {
            Some((parent, _)) => Ok(PrefixRegion::from_hyper_label(
                &self.hyper_label_of_node(parent),
            )),
            None => Err(TreeError::LastIAgent),
        }
    }

    /// Re-derives a split candidate against the *current* generation by its
    /// partitioning key bit.
    ///
    /// A lease holder plans its split at grant time, but disjoint rehashes
    /// may commit (and bump the generation) before it reports back. The key
    /// bit survives those commits — no node on the leased leaf's root path
    /// can change while operations are confined to disjoint regions — and
    /// it uniquely identifies a candidate: complex key bits are unused-bit
    /// positions below the leaf's consumed prefix, simple key bits lie at
    /// or past it, and each set enumerates distinct positions.
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownIAgent`] — `iagent` owns no leaf.
    /// * [`TreeError::StaleCandidate`] — no candidate partitions on
    ///   `key_bit` any more (an overlapping rehash slipped through).
    pub fn refreshed_candidate(
        &self,
        iagent: IAgentId,
        key_bit: usize,
    ) -> Result<SplitCandidate, TreeError> {
        self.split_candidates(iagent)?
            .into_iter()
            .find(|c| c.key_bit == key_bit)
            .ok_or_else(|| {
                TreeError::StaleCandidate(format!(
                    "no split candidate for {iagent} partitions on key bit {key_bit}"
                ))
            })
    }

    /// Applies a split: the leaf of `candidate.iagent` (for a simple split)
    /// or the subtree under the candidate's edge (for a complex split) is
    /// partitioned on `candidate.key_bit`; keys whose bit equals
    /// `new_side.bit()` map to the new IAgent `new_iagent`.
    ///
    /// Only the mapping of keys inside the affected region changes; the
    /// returned [`SplitApplied::affected`] lists the IAgents that must
    /// re-examine their served agents.
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownIAgent`] — the candidate's IAgent owns no leaf.
    /// * [`TreeError::DuplicateIAgent`] — `new_iagent` already owns a leaf.
    /// * [`TreeError::DepthExceeded`] — a simple split would branch past the
    ///   key width.
    /// * [`TreeError::InvalidParameter`] / [`TreeError::StaleCandidate`] —
    ///   the candidate does not describe this tree.
    pub fn apply_split(
        &mut self,
        candidate: &SplitCandidate,
        new_iagent: IAgentId,
        new_side: Side,
    ) -> Result<SplitApplied, TreeError> {
        if self.contains(new_iagent) {
            return Err(TreeError::DuplicateIAgent(new_iagent));
        }
        if candidate.generation != self.generation {
            return Err(TreeError::StaleCandidate(format!(
                "candidate from generation {}, tree at {}",
                candidate.generation, self.generation
            )));
        }
        let leaf = self.leaf_of(candidate.iagent)?;
        let applied = match candidate.kind {
            SplitKind::Simple { m } => self.split_simple(leaf, m, new_iagent, new_side),
            SplitKind::Complex {
                edge_node,
                bit_offset,
            } => self.split_complex(leaf, edge_node, bit_offset, new_iagent, new_side),
        }?;
        self.generation += 1;
        Ok(applied)
    }

    /// Merges the leaf of `iagent` away. If its sibling is a leaf this is a
    /// *simple merge* (the sibling absorbs everything); if the sibling is an
    /// internal node it is a *complex merge* (the sibling's subtree leaves
    /// absorb the agents according to their hyper-labels).
    ///
    /// # Errors
    ///
    /// * [`TreeError::UnknownIAgent`] — `iagent` owns no leaf.
    /// * [`TreeError::LastIAgent`] — the tree has only one leaf.
    pub fn apply_merge(&mut self, iagent: IAgentId) -> Result<MergeApplied, TreeError> {
        let leaf = self.leaf_of(iagent)?;
        let Some((parent, side)) = self.node(leaf).parent else {
            return Err(TreeError::LastIAgent);
        };
        let sibling = self.child(parent, side.opposite());

        // The surviving node keeps its subtree; its incoming label becomes
        // parent_label ++ sibling_label with the sibling's old valid bit
        // demoted to an unused bit (positions are preserved for everything
        // under the sibling).
        let parent_unused = self.node(parent).unused;
        let sibling_unused = self.node(sibling).unused;
        let merged_unused = parent_unused
            .concat(&Bits::single(side.opposite().bit()))
            .concat(&sibling_unused);

        let grand = self.node(parent).parent;
        {
            let s = self.node_mut(sibling);
            s.parent = grand;
            s.unused = merged_unused;
        }
        match grand {
            Some((g, gside)) => self.set_child(g, gside, sibling),
            None => self.root = sibling,
        }

        self.release(leaf);
        self.release(parent);
        self.leaves.remove(&iagent);

        let absorbers = self.leaf_iagents_under(sibling);
        let kind = match self.node(sibling).kind {
            NodeKind::Leaf(_) => MergeKind::Simple,
            NodeKind::Internal { .. } => MergeKind::Complex,
        };
        debug_assert!(
            kind == MergeKind::Complex || absorbers.len() == 1,
            "simple merge must have exactly one absorber"
        );
        self.generation += 1;
        Ok(MergeApplied {
            removed: iagent,
            kind,
            absorbers,
        })
    }

    /// Checks every structural invariant, returning a description of the
    /// first violation found.
    ///
    /// Intended for tests and debug assertions; the public mutation methods
    /// preserve all of these invariants.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen_leaves = 0usize;
        let mut stack = vec![(self.root, 0usize)];
        let mut visited = 0usize;
        while let Some((id, consumed)) = stack.pop() {
            visited += 1;
            let node = self
                .nodes
                .get(id.0 as usize)
                .and_then(Option::as_ref)
                .ok_or_else(|| format!("{id:?} referenced but not allocated"))?;
            let consumed = consumed + node.unused.len() + usize::from(node.parent.is_some());
            if consumed > KEY_BITS {
                return Err(format!("{id:?} consumes {consumed} bits > {KEY_BITS}"));
            }
            match &node.kind {
                NodeKind::Leaf(iagent) => {
                    seen_leaves += 1;
                    if self.leaves.get(iagent) != Some(&id) {
                        return Err(format!("leaf index out of sync for {iagent} at {id:?}"));
                    }
                }
                NodeKind::Internal { children } => {
                    if consumed >= KEY_BITS {
                        return Err(format!(
                            "{id:?} branches on key bit {consumed} beyond key width"
                        ));
                    }
                    for (i, &child) in children.iter().enumerate() {
                        let side = if i == 0 { Side::Left } else { Side::Right };
                        let cd = self
                            .nodes
                            .get(child.0 as usize)
                            .and_then(Option::as_ref)
                            .ok_or_else(|| format!("{child:?} referenced but not allocated"))?;
                        if cd.parent != Some((id, side)) {
                            return Err(format!(
                                "{child:?} has parent {:?}, expected {:?}/{side:?}",
                                cd.parent, id
                            ));
                        }
                        stack.push((child, consumed));
                    }
                }
            }
        }
        if seen_leaves != self.leaves.len() {
            return Err(format!(
                "leaf index has {} entries but tree has {seen_leaves} leaves",
                self.leaves.len()
            ));
        }
        let allocated = self.nodes.iter().filter(|n| n.is_some()).count();
        if allocated != visited {
            return Err(format!(
                "{allocated} nodes allocated but only {visited} reachable from the root"
            ));
        }
        if self.node(self.root).parent.is_some() {
            return Err("root has a parent".to_owned());
        }
        Ok(())
    }

    /// All (IAgent, hyper-label) pairs, for display and diagnostics.
    #[must_use]
    pub fn mapping(&self) -> Vec<(IAgentId, HyperLabel)> {
        let mut out: Vec<(IAgentId, HyperLabel)> = self
            .leaves
            .iter()
            .map(|(&ia, &leaf)| (ia, self.hyper_label_of_node(leaf)))
            .collect();
        out.sort_by_key(|(ia, _)| *ia);
        out
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    pub(crate) fn root_id(&self) -> NodeId {
        self.root
    }

    /// For the shape module: `(is_leaf, iagent, unused_bits, children)`.
    pub(crate) fn node_view(&self, id: NodeId) -> (Option<IAgentId>, Bits, Option<[NodeId; 2]>) {
        let data = self.node(id);
        match &data.kind {
            NodeKind::Leaf(ia) => (Some(*ia), data.unused, None),
            NodeKind::Internal { children } => (None, data.unused, Some(*children)),
        }
    }

    fn node(&self, id: NodeId) -> &NodeData {
        self.nodes[id.0 as usize].as_ref().expect("dangling NodeId")
    }

    fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        self.nodes[id.0 as usize].as_mut().expect("dangling NodeId")
    }

    fn child(&self, id: NodeId, side: Side) -> NodeId {
        match &self.node(id).kind {
            NodeKind::Internal { children } => children[side.index()],
            NodeKind::Leaf(_) => panic!("child() on a leaf"),
        }
    }

    fn set_child(&mut self, id: NodeId, side: Side, child: NodeId) {
        match &mut self.node_mut(id).kind {
            NodeKind::Internal { children } => children[side.index()] = child,
            NodeKind::Leaf(_) => panic!("set_child() on a leaf"),
        }
    }

    fn alloc(&mut self, data: NodeData) -> NodeId {
        if let Some(id) = self.free.pop() {
            self.nodes[id.0 as usize] = Some(data);
            id
        } else {
            let id = NodeId(u32::try_from(self.nodes.len()).expect("tree too large"));
            self.nodes.push(Some(data));
            id
        }
    }

    fn release(&mut self, id: NodeId) {
        self.nodes[id.0 as usize] = None;
        self.free.push(id);
    }

    fn leaf_of(&self, iagent: IAgentId) -> Result<NodeId, TreeError> {
        self.leaves
            .get(&iagent)
            .copied()
            .ok_or(TreeError::UnknownIAgent(iagent))
    }

    fn leaf_node_for_key(&self, key: AgentKey) -> NodeId {
        let mut node = self.root;
        let mut cursor = self.node(node).unused.len();
        loop {
            match &self.node(node).kind {
                NodeKind::Leaf(_) => return node,
                NodeKind::Internal { children } => {
                    let side = Side::from_bit(key.bit(cursor));
                    let child = children[side.index()];
                    cursor += 1 + self.node(child).unused.len();
                    node = child;
                }
            }
        }
    }

    fn consumed_bits_of_node(&self, mut node: NodeId) -> usize {
        let mut consumed = 0;
        loop {
            let data = self.node(node);
            consumed += data.unused.len() + usize::from(data.parent.is_some());
            match data.parent {
                Some((parent, _)) => node = parent,
                None => return consumed,
            }
        }
    }

    fn hyper_label_of_node(&self, leaf: NodeId) -> HyperLabel {
        let mut labels = Vec::new();
        let mut node = leaf;
        let skip;
        loop {
            let data = self.node(node);
            match data.parent {
                Some((parent, side)) => {
                    let label = Label::single(side.bit()).augmented(&data.unused);
                    labels.push(label);
                    node = parent;
                }
                None => {
                    skip = data.unused;
                    break;
                }
            }
        }
        labels.reverse();
        let mut hl = HyperLabel::from_labels(labels);
        hl.set_prefix_skip(skip);
        hl
    }

    fn leaf_iagents_under(&self, node: NodeId) -> Vec<IAgentId> {
        let mut out = Vec::new();
        let mut stack = vec![node];
        while let Some(id) = stack.pop() {
            match &self.node(id).kind {
                NodeKind::Leaf(iagent) => out.push(*iagent),
                NodeKind::Internal { children } => stack.extend(children.iter().copied()),
            }
        }
        out.sort_unstable();
        out
    }

    /// Simple split: branch on the `m`-th extra bit. The split leaf's label
    /// is augmented with the `m - 1` skipped bits (recorded as zeros — their
    /// values carry no constraint), and two fresh single-bit leaf children
    /// are created.
    fn split_simple(
        &mut self,
        leaf: NodeId,
        m: usize,
        new_iagent: IAgentId,
        new_side: Side,
    ) -> Result<SplitApplied, TreeError> {
        if m == 0 {
            return Err(TreeError::InvalidParameter(
                "simple split needs m >= 1".into(),
            ));
        }
        let old_iagent = match self.node(leaf).kind {
            NodeKind::Leaf(ia) => ia,
            NodeKind::Internal { .. } => unreachable!("leaf_of returned internal node"),
        };
        let consumed = self.consumed_bits_of_node(leaf);
        let key_bit = consumed + m - 1;
        if key_bit >= KEY_BITS {
            return Err(TreeError::DepthExceeded { key_bit });
        }

        // Augment the leaf's label with the m-1 skipped bits, then turn it
        // into an internal node with two fresh leaves.
        let mut unused = self.node(leaf).unused;
        for _ in 0..(m - 1) {
            unused.push(false);
        }
        let old_leaf = self.alloc(NodeData {
            parent: Some((leaf, new_side.opposite())),
            unused: Bits::new(),
            kind: NodeKind::Leaf(old_iagent),
        });
        let new_leaf = self.alloc(NodeData {
            parent: Some((leaf, new_side)),
            unused: Bits::new(),
            kind: NodeKind::Leaf(new_iagent),
        });
        let mut children = [old_leaf; 2];
        children[new_side.index()] = new_leaf;
        {
            let n = self.node_mut(leaf);
            n.unused = unused;
            n.kind = NodeKind::Internal { children };
        }
        self.leaves.insert(old_iagent, old_leaf);
        self.leaves.insert(new_iagent, new_leaf);

        Ok(SplitApplied {
            split_iagent: old_iagent,
            new_iagent,
            key_bit,
            new_side,
            affected: vec![old_iagent],
        })
    }

    /// Complex split: promote unused bit `bit_offset` of the edge label into
    /// `edge_node` to a branching decision. A new internal node takes over
    /// the first `bit_offset` unused bits; the existing subtree keeps the
    /// rest and moves to one side; a fresh leaf for the new IAgent takes the
    /// other side.
    fn split_complex(
        &mut self,
        leaf: NodeId,
        edge_node: NodeId,
        bit_offset: usize,
        new_iagent: IAgentId,
        new_side: Side,
    ) -> Result<SplitApplied, TreeError> {
        let old_iagent = match self.node(leaf).kind {
            NodeKind::Leaf(ia) => ia,
            NodeKind::Internal { .. } => unreachable!("leaf_of returned internal node"),
        };
        // The edge node must lie on the leaf's root path.
        let mut on_path = false;
        let mut n = leaf;
        loop {
            if n == edge_node {
                on_path = true;
                break;
            }
            match self.node(n).parent {
                Some((parent, _)) => n = parent,
                None => break,
            }
        }
        if !on_path {
            return Err(TreeError::StaleCandidate(format!(
                "{edge_node:?} is not on the root path of {old_iagent}"
            )));
        }
        let edge = self.node(edge_node).clone();
        if bit_offset >= edge.unused.len() {
            return Err(TreeError::StaleCandidate(format!(
                "bit offset {bit_offset} out of range for a label with {} unused bits",
                edge.unused.len()
            )));
        }

        let head = edge.unused.prefix(bit_offset);
        let tail = edge.unused.suffix_from(bit_offset + 1);
        let key_bit = {
            // Position of the promoted bit.
            let consumed_above = match edge.parent {
                Some((p, _)) => self.consumed_bits_of_node(p) + 1,
                None => 0,
            };
            consumed_above + bit_offset
        };

        // New internal node takes the edge's place, keeping the label head.
        let existing_side = new_side.opposite();
        let new_internal = self.alloc(NodeData {
            parent: edge.parent,
            unused: head,
            kind: NodeKind::Leaf(IAgentId(u64::MAX)), // placeholder, set below
        });
        let new_leaf = self.alloc(NodeData {
            parent: Some((new_internal, new_side)),
            unused: tail,
            kind: NodeKind::Leaf(new_iagent),
        });
        {
            let e = self.node_mut(edge_node);
            e.parent = Some((new_internal, existing_side));
            e.unused = tail;
        }
        let mut children = [edge_node; 2];
        children[new_side.index()] = new_leaf;
        self.node_mut(new_internal).kind = NodeKind::Internal { children };
        match edge.parent {
            Some((p, side)) => self.set_child(p, side, new_internal),
            None => self.root = new_internal,
        }
        self.leaves.insert(new_iagent, new_leaf);

        let mut affected = self.leaf_iagents_under(edge_node);
        affected.retain(|&ia| ia != new_iagent);
        Ok(SplitApplied {
            split_iagent: old_iagent,
            new_iagent,
            key_bit,
            new_side,
            affected,
        })
    }
}

impl fmt::Debug for HashTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("HashTree");
        s.field("iagents", &self.iagent_count());
        for (ia, hl) in self.mapping() {
            s.field(&ia.to_string(), &hl.to_string());
        }
        s.finish()
    }
}

impl fmt::Display for HashTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (ia, hl) in self.mapping() {
            writeln!(f, "{ia}: {hl}")?;
        }
        Ok(())
    }
}

impl PartialEq for HashTree {
    /// Trees are equal when they encode the same hash function: same IAgents
    /// with the same hyper-labels. Arena layout is irrelevant.
    fn eq(&self, other: &Self) -> bool {
        self.mapping() == other.mapping()
    }
}

impl Eq for HashTree {}

#[cfg(test)]
mod tests {
    use super::*;

    /// Key whose first bits are given by `prefix`, remaining bits zero.
    fn key(prefix: &str) -> AgentKey {
        let bits: Bits = prefix.parse().unwrap();
        AgentKey::new(bits.raw())
    }

    fn ia(n: u64) -> IAgentId {
        IAgentId::new(n)
    }

    fn simple(tree: &HashTree, iagent: IAgentId, m: usize) -> SplitCandidate {
        tree.split_candidates(iagent)
            .unwrap()
            .into_iter()
            .find(|c| c.kind == SplitKind::Simple { m })
            .unwrap_or_else(|| panic!("no simple-{m} candidate for {iagent}"))
    }

    fn labels_of(tree: &HashTree) -> Vec<(IAgentId, String)> {
        tree.mapping()
            .into_iter()
            .map(|(ia, hl)| (ia, hl.to_string()))
            .collect()
    }

    /// Builds a small Figure-1-style tree:
    ///
    /// ```text
    ///   IA0: 0.0    IA2: 0.1    IA1: 10.0    IA3: 10.1
    /// ```
    ///
    /// (The exact bit patterns of the paper's Figure 1 are unreadable in the
    /// source text; this tree exercises the same structure: single-bit and
    /// multi-bit labels on both sides.)
    fn figure1_style_tree() -> HashTree {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(0), 1), ia(2), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 2), ia(3), Side::Right)
            .unwrap();
        tree.validate().unwrap();
        tree
    }

    #[test]
    fn fresh_tree_maps_everything_to_the_initial_iagent() {
        let tree = HashTree::new(ia(7));
        assert_eq!(tree.iagent_count(), 1);
        for raw in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
            assert_eq!(tree.lookup(AgentKey::new(raw)), ia(7));
        }
        assert_eq!(tree.hyper_label(ia(7)).unwrap(), HyperLabel::root());
        assert_eq!(tree.consumed_bits(ia(7)).unwrap(), 0);
        assert_eq!(tree.height(), 0);
        tree.validate().unwrap();
    }

    #[test]
    fn figure1_style_structure() {
        let tree = figure1_style_tree();
        assert_eq!(
            labels_of(&tree),
            vec![
                (ia(0), "0.0".to_owned()),
                (ia(1), "10.0".to_owned()),
                (ia(2), "0.1".to_owned()),
                (ia(3), "10.1".to_owned()),
            ]
        );
        // Traversal: bit 0 selects the root child; the right child's label
        // "10" skips bit 1; bit 1 (left) / bit 2 (right) select the leaf.
        assert_eq!(tree.lookup(key("00")), ia(0));
        assert_eq!(tree.lookup(key("01")), ia(2));
        assert_eq!(tree.lookup(key("100")), ia(1));
        assert_eq!(tree.lookup(key("101")), ia(3));
        assert_eq!(tree.lookup(key("110")), ia(1)); // bit 1 ignored
        assert_eq!(tree.lookup(key("111")), ia(3));
        assert_eq!(tree.consumed_bits(ia(0)).unwrap(), 2);
        assert_eq!(tree.consumed_bits(ia(3)).unwrap(), 3);
        assert_eq!(tree.height(), 2);
    }

    /// Paper §4.1 / Figure 3: simple split of IA3 with hyper-label `1.1`
    /// and m = 1 creates `1.1.0` (kept by IA3) and `1.1.1` (new IAgent).
    #[test]
    fn paper_figure3_simple_split() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 1), ia(3), Side::Right)
            .unwrap();
        assert_eq!(tree.hyper_label(ia(3)).unwrap().to_string(), "1.1");

        let applied = tree
            .apply_split(&simple(&tree, ia(3), 1), ia(7), Side::Right)
            .unwrap();
        assert_eq!(applied.split_iagent, ia(3));
        assert_eq!(applied.new_iagent, ia(7));
        assert_eq!(applied.key_bit, 2);
        assert_eq!(applied.affected, vec![ia(3)]);
        assert_eq!(tree.hyper_label(ia(3)).unwrap().to_string(), "1.1.0");
        assert_eq!(tree.hyper_label(ia(7)).unwrap().to_string(), "1.1.1");
        assert_eq!(tree.lookup(key("110")), ia(3));
        assert_eq!(tree.lookup(key("111")), ia(7));
        tree.validate().unwrap();
    }

    /// Simple split with m = 2: the split leaf's label is augmented with the
    /// skipped bit, and the partition happens on the second extra bit.
    #[test]
    fn simple_split_m2_augments_label_and_branches_later() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        let cand = simple(&tree, ia(1), 2);
        assert_eq!(cand.key_bit, 2);
        let applied = tree.apply_split(&cand, ia(2), Side::Right).unwrap();
        assert_eq!(applied.key_bit, 2);
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "10.0");
        assert_eq!(tree.hyper_label(ia(2)).unwrap().to_string(), "10.1");
        // Bit 1 is skipped: keys 10x and 11x branch the same way on bit 2.
        assert_eq!(tree.lookup(key("100")), ia(1));
        assert_eq!(tree.lookup(key("110")), ia(1));
        assert_eq!(tree.lookup(key("101")), ia(2));
        assert_eq!(tree.lookup(key("111")), ia(2));
        tree.validate().unwrap();
    }

    /// Paper §4.1 / Figure 4: complex split uses an unused bit of a
    /// multi-bit label. Splitting a leaf whose own edge label is `10`
    /// (valid bit 1, unused bit at key position 2) promotes the unused bit.
    #[test]
    fn paper_figure4_complex_split_on_own_label() {
        let mut tree = figure1_style_tree();
        // IA1 has hyper-label 10.0: the label "10" has one unused bit at
        // key position 1.
        let candidates = tree.split_candidates(ia(1)).unwrap();
        let complex = candidates
            .iter()
            .find(|c| matches!(c.kind, SplitKind::Complex { .. }))
            .expect("complex candidate must exist");
        // Complex candidates come before simple ones (paper order).
        assert!(matches!(candidates[0].kind, SplitKind::Complex { .. }));
        assert_eq!(complex.key_bit, 1);

        let applied = tree.apply_split(complex, ia(8), Side::Right).unwrap();
        assert_eq!(applied.key_bit, 1);
        // The multi-bit label 10 was truncated at the promoted bit: the
        // subtree that held IA1/IA3 now hangs under 1.0 and the new IAgent
        // under 1.1.
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "1.0.0");
        assert_eq!(tree.hyper_label(ia(3)).unwrap().to_string(), "1.0.1");
        assert_eq!(tree.hyper_label(ia(8)).unwrap().to_string(), "1.1");
        // Both old leaves are affected: their agents with bit1 = 1 move.
        assert_eq!(applied.affected, vec![ia(1), ia(3)]);
        assert_eq!(tree.lookup(key("100")), ia(1));
        assert_eq!(tree.lookup(key("101")), ia(3));
        assert_eq!(tree.lookup(key("110")), ia(8));
        assert_eq!(tree.lookup(key("111")), ia(8));
        tree.validate().unwrap();
    }

    /// Paper §4.2 / Figure 5: simple merge — the sibling is a leaf, the two
    /// fold into one whose label records the demoted valid bit as unused.
    #[test]
    fn paper_figure5_simple_merge() {
        let mut tree = figure1_style_tree();
        // IA3 (10.1) merges with its sibling leaf IA1 (10.0).
        let applied = tree.apply_merge(ia(3)).unwrap();
        assert_eq!(applied.removed, ia(3));
        assert_eq!(applied.kind, MergeKind::Simple);
        assert_eq!(applied.absorbers, vec![ia(1)]);
        // IA1's label becomes 100: valid bit 1, unused bits 0 (the skipped
        // bit from the old "10") and 0 (IA1's demoted valid bit).
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "100");
        for k in ["100", "101", "110", "111"] {
            assert_eq!(tree.lookup(key(k)), ia(1));
        }
        assert_eq!(tree.lookup(key("00")), ia(0));
        tree.validate().unwrap();
    }

    /// Paper §4.2 / Figure 6: complex merge — the sibling is an internal
    /// node; the merged IAgent's agents are distributed over the leaves of
    /// the sibling's subtree, and the height may shrink.
    #[test]
    fn paper_figure6_complex_merge() {
        let mut tree = figure1_style_tree();
        assert_eq!(tree.height(), 2);
        // IA0 (0.0) has sibling leaf IA2; but IA1's parent subtree is
        // internal seen from IA0's side? Build the complex case explicitly:
        // merge IA0 whose sibling is the leaf IA2 — that is simple. Instead
        // merge IA2, then the left side is a single leaf; so use the right
        // side: IA1's sibling is IA3 (leaf). To exercise complex merge,
        // merge IA0 and then IA2's sibling is the internal right subtree?
        // Simpler: merge the left leaf IA0; sibling IA2 is a leaf (simple).
        // For the complex case we need a leaf whose sibling is internal:
        // after merging IA2 away the left child of the root is IA0 and the
        // right child is the internal node over IA1/IA3.
        tree.apply_merge(ia(2)).unwrap();
        assert_eq!(tree.hyper_label(ia(0)).unwrap().to_string(), "00");

        let applied = tree.apply_merge(ia(0)).unwrap();
        assert_eq!(applied.kind, MergeKind::Complex);
        assert_eq!(applied.absorbers, vec![ia(1), ia(3)]);
        // The surviving subtree's root-edge label ("10") becomes a prefix
        // skip with its valid bit demoted: bits 0-1 are unconstrained and
        // the removed leaf's own label is discarded.
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "[10].0");
        assert_eq!(tree.hyper_label(ia(3)).unwrap().to_string(), "[10].1");
        assert_eq!(tree.height(), 1);
        // Keys previously served by IA0 (prefix 00) distribute over the
        // subtree by bit 2.
        assert_eq!(tree.lookup(key("000")), ia(1));
        assert_eq!(tree.lookup(key("001")), ia(3));
        assert_eq!(tree.lookup(key("100")), ia(1));
        assert_eq!(tree.lookup(key("111")), ia(3));
        tree.validate().unwrap();
    }

    #[test]
    fn merge_to_single_leaf_and_resplit_via_skip() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        let applied = tree.apply_merge(ia(1)).unwrap();
        assert_eq!(applied.absorbers, vec![ia(0)]);
        assert_eq!(tree.iagent_count(), 1);
        assert_eq!(tree.hyper_label(ia(0)).unwrap().to_string(), "[0]");
        assert_eq!(tree.consumed_bits(ia(0)).unwrap(), 1);
        for raw in [0u64, u64::MAX] {
            assert_eq!(tree.lookup(AgentKey::new(raw)), ia(0));
        }
        tree.validate().unwrap();

        // The skip bit is a complex-split candidate (key bit 0).
        let candidates = tree.split_candidates(ia(0)).unwrap();
        let complex = &candidates[0];
        assert!(matches!(
            complex.kind,
            SplitKind::Complex { bit_offset: 0, .. }
        ));
        assert_eq!(complex.key_bit, 0);
        tree.apply_split(complex, ia(2), Side::Right).unwrap();
        assert_eq!(tree.hyper_label(ia(0)).unwrap().to_string(), "0");
        assert_eq!(tree.hyper_label(ia(2)).unwrap().to_string(), "1");
        assert_eq!(tree.lookup(key("0")), ia(0));
        assert_eq!(tree.lookup(key("1")), ia(2));
        tree.validate().unwrap();
    }

    #[test]
    fn complex_split_at_ancestor_edge_affects_whole_subtree() {
        // Build: IA0 = 0, IA1 = 11.0, IA2 = 11.1 (merge IA1's old sibling
        // away to create the multi-bit ancestor label).
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 1), ia(9), Side::Left)
            .unwrap();
        // IA9 took the left side: IA9 = 1.0, IA1 = 1.1. Split IA1 again.
        tree.apply_split(&simple(&tree, ia(1), 1), ia(2), Side::Right)
            .unwrap();
        // Now merge IA9; its sibling (internal over IA1, IA2) absorbs.
        let merged = tree.apply_merge(ia(9)).unwrap();
        assert_eq!(merged.kind, MergeKind::Complex);
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "11.0");
        assert_eq!(tree.hyper_label(ia(2)).unwrap().to_string(), "11.1");

        // Complex candidate at the ancestor edge "11", key bit 1.
        let candidates = tree.split_candidates(ia(1)).unwrap();
        let complex = candidates
            .iter()
            .find(|c| matches!(c.kind, SplitKind::Complex { .. }))
            .unwrap();
        assert_eq!(complex.key_bit, 1);
        let applied = tree.apply_split(complex, ia(5), Side::Left).unwrap();
        assert_eq!(applied.affected, vec![ia(1), ia(2)]);
        assert_eq!(tree.hyper_label(ia(5)).unwrap().to_string(), "1.0");
        assert_eq!(tree.hyper_label(ia(1)).unwrap().to_string(), "1.1.0");
        assert_eq!(tree.hyper_label(ia(2)).unwrap().to_string(), "1.1.1");
        assert_eq!(tree.lookup(key("10")), ia(5));
        assert_eq!(tree.lookup(key("110")), ia(1));
        assert_eq!(tree.lookup(key("111")), ia(2));
        tree.validate().unwrap();
    }

    #[test]
    fn exactly_one_leaf_is_compatible_with_any_key() {
        let tree = figure1_style_tree();
        let keys: Vec<AgentKey> = (0..256u64).map(AgentKey::from_sequential).collect();
        for k in keys {
            let compatible: Vec<IAgentId> = tree
                .mapping()
                .into_iter()
                .filter(|(_, hl)| hl.is_compatible(k))
                .map(|(ia, _)| ia)
                .collect();
            assert_eq!(
                compatible.len(),
                1,
                "key {k} compatible with {compatible:?}"
            );
            assert_eq!(compatible[0], tree.lookup(k));
        }
    }

    #[test]
    fn split_errors() {
        let mut tree = figure1_style_tree();
        // Duplicate IAgent id.
        let cand = simple(&tree, ia(0), 1);
        assert_eq!(
            tree.apply_split(&cand, ia(1), Side::Right),
            Err(TreeError::DuplicateIAgent(ia(1)))
        );
        // Unknown IAgent.
        assert_eq!(
            tree.split_candidates(ia(42)),
            Err(TreeError::UnknownIAgent(ia(42)))
        );
        // m = 0 is invalid.
        let bad = SplitCandidate {
            iagent: ia(0),
            kind: SplitKind::Simple { m: 0 },
            key_bit: 0,
            generation: tree.generation(),
        };
        assert!(matches!(
            tree.apply_split(&bad, ia(50), Side::Right),
            Err(TreeError::InvalidParameter(_))
        ));
        // Branching past the key width.
        let too_deep = SplitCandidate {
            iagent: ia(0),
            kind: SplitKind::Simple { m: KEY_BITS },
            key_bit: KEY_BITS + 1,
            generation: tree.generation(),
        };
        assert!(matches!(
            tree.apply_split(&too_deep, ia(51), Side::Right),
            Err(TreeError::DepthExceeded { .. })
        ));
        tree.validate().unwrap();
    }

    #[test]
    fn merge_errors() {
        let mut tree = HashTree::new(ia(0));
        assert_eq!(tree.apply_merge(ia(0)), Err(TreeError::LastIAgent));
        assert_eq!(
            tree.apply_merge(ia(9)),
            Err(TreeError::UnknownIAgent(ia(9)))
        );
    }

    #[test]
    fn stale_complex_candidate_is_rejected() {
        let mut tree = figure1_style_tree();
        let complex = tree
            .split_candidates(ia(1))
            .unwrap()
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Complex { .. }))
            .unwrap();
        // Mutate the tree so the candidate's edge node no longer lies on
        // IA1's path (merge IA1 itself away and re-add it elsewhere).
        tree.apply_merge(ia(1)).unwrap();
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        assert!(matches!(
            tree.apply_split(&complex, ia(60), Side::Right),
            Err(TreeError::StaleCandidate(_))
        ));
    }

    #[test]
    fn simple_candidates_cover_remaining_key_bits() {
        let tree = HashTree::new(ia(0));
        let candidates = tree.split_candidates(ia(0)).unwrap();
        assert_eq!(candidates.len(), KEY_BITS);
        assert!(candidates
            .iter()
            .enumerate()
            .all(|(i, c)| c.kind == SplitKind::Simple { m: i + 1 } && c.key_bit == i));
    }

    #[test]
    fn split_then_merge_restores_the_mapping() {
        let mut tree = figure1_style_tree();
        let before: Vec<(AgentKey, IAgentId)> = (0..512u64)
            .map(|i| {
                let k = AgentKey::from_sequential(i);
                (k, tree.lookup(k))
            })
            .collect();
        tree.apply_split(&simple(&tree, ia(2), 3), ia(30), Side::Left)
            .unwrap();
        tree.apply_merge(ia(30)).unwrap();
        for (k, expect) in before {
            assert_eq!(tree.lookup(k), expect);
        }
        tree.validate().unwrap();
    }

    #[test]
    fn serde_round_trip_preserves_the_hash_function() {
        let tree = figure1_style_tree();
        let json = serde_json::to_string(&tree).unwrap();
        let back: HashTree = serde_json::from_str(&json).unwrap();
        back.validate().unwrap();
        assert_eq!(tree, back);
        for i in 0..512u64 {
            let k = AgentKey::from_sequential(i);
            assert_eq!(tree.lookup(k), back.lookup(k));
        }
    }

    #[test]
    fn display_and_debug_are_informative() {
        let tree = figure1_style_tree();
        let shown = tree.to_string();
        assert!(shown.contains("IA0: 0.0"));
        assert!(shown.contains("IA3: 10.1"));
        assert!(format!("{tree:?}").contains("iagents"));
        assert!(!format!("{:?}", Side::Left).is_empty());
        assert_eq!(Side::Left.to_string(), "left");
    }

    #[test]
    fn side_arithmetic() {
        assert_eq!(Side::Left.opposite(), Side::Right);
        assert_eq!(Side::Right.opposite(), Side::Left);
        assert!(Side::Right.bit());
        assert!(!Side::Left.bit());
        assert_eq!(Side::from_bit(true), Side::Right);
        assert_eq!(Side::from_bit(false), Side::Left);
    }

    #[test]
    fn regions_overlap_iff_a_key_satisfies_both() {
        let tree = figure1_style_tree();
        // IA0: 0.0, IA1: 10.0, IA2: 0.1, IA3: 10.1
        let region_of = |n: u64| PrefixRegion::from_hyper_label(&tree.hyper_label(ia(n)).unwrap());
        let (r0, r1, r2, r3) = (region_of(0), region_of(1), region_of(2), region_of(3));
        // Sibling leaves differ on their deepest valid bit: disjoint.
        assert!(!r0.overlaps(&r2));
        assert!(!r1.overlaps(&r3));
        // Leaves across the root differ on bit 0: disjoint.
        assert!(!r0.overlaps(&r1));
        // Every region overlaps itself and the universal region.
        for r in [r0, r1, r2, r3] {
            assert!(r.overlaps(&r));
            assert!(r.overlaps(&PrefixRegion::EVERYTHING));
            assert!(PrefixRegion::EVERYTHING.overlaps(&r));
        }
        assert_eq!(PrefixRegion::EVERYTHING.constrained_bits(), 0);
        // An ancestor region (the subtree under the root's right edge)
        // overlaps both of its descendant leaves but not the left side.
        let parent: HyperLabel = "10".parse().unwrap();
        let ancestor = PrefixRegion::from_hyper_label(&parent);
        assert!(ancestor.overlaps(&r1));
        assert!(ancestor.overlaps(&r3));
        assert!(!ancestor.overlaps(&r0));
        assert_eq!(ancestor.constrained_bits(), 1);
    }

    #[test]
    fn split_and_merge_regions_match_the_affected_subtree() {
        let tree = figure1_style_tree();
        // Simple split of IA1 (10.0) remaps only IA1's own keys.
        let simple_cand = simple(&tree, ia(1), 1);
        let r = tree.split_region(&simple_cand).unwrap();
        assert_eq!(
            r,
            PrefixRegion::from_hyper_label(&tree.hyper_label(ia(1)).unwrap())
        );
        // Complex split of IA1 promotes the unused bit of the root's right
        // edge: the region covers the whole right subtree (IA1 and IA3).
        let complex_cand = tree
            .split_candidates(ia(1))
            .unwrap()
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Complex { .. }))
            .unwrap();
        let rc = tree.split_region(&complex_cand).unwrap();
        let r3 = PrefixRegion::from_hyper_label(&tree.hyper_label(ia(3)).unwrap());
        assert!(rc.overlaps(&r3), "complex region must cover the sibling");
        assert!(!rc.overlaps(&PrefixRegion::from_hyper_label(
            &tree.hyper_label(ia(0)).unwrap()
        )));
        // Merging IA3 remaps its parent's subtree: overlaps IA1, not IA0.
        let rm = tree.merge_region(ia(3)).unwrap();
        assert!(rm.overlaps(&PrefixRegion::from_hyper_label(
            &tree.hyper_label(ia(1)).unwrap()
        )));
        assert!(!rm.overlaps(&PrefixRegion::from_hyper_label(
            &tree.hyper_label(ia(0)).unwrap()
        )));
        // A stale candidate (older generation) is rejected.
        let mut grown = tree.clone();
        grown
            .apply_split(&simple(&grown, ia(2), 1), ia(9), Side::Right)
            .unwrap();
        assert!(matches!(
            grown.split_region(&simple_cand),
            Err(TreeError::StaleCandidate(_))
        ));
        // Merging the last leaf has no region.
        let lone = HashTree::new(ia(0));
        assert_eq!(lone.merge_region(ia(0)), Err(TreeError::LastIAgent));
    }

    #[test]
    fn refreshed_candidate_survives_disjoint_commits() {
        let mut tree = figure1_style_tree();
        // Plan a split of IA1 (right subtree), then commit a disjoint
        // split of IA0 (left subtree) first.
        let planned = simple(&tree, ia(1), 1);
        tree.apply_split(&simple(&tree, ia(0), 1), ia(8), Side::Right)
            .unwrap();
        // The planned candidate is now generation-stale, but its key bit
        // re-derives an equivalent candidate against the new generation.
        assert!(matches!(
            tree.apply_split(&planned, ia(9), Side::Right),
            Err(TreeError::StaleCandidate(_))
        ));
        let refreshed = tree.refreshed_candidate(ia(1), planned.key_bit).unwrap();
        assert_eq!(refreshed.kind, planned.kind);
        assert_eq!(refreshed.key_bit, planned.key_bit);
        tree.apply_split(&refreshed, ia(9), Side::Right).unwrap();
        tree.validate().unwrap();
        // A key bit nothing partitions on is an error.
        assert!(matches!(
            tree.refreshed_candidate(ia(1), KEY_BITS + 5),
            Err(TreeError::StaleCandidate(_))
        ));
    }

    #[test]
    fn iagent_display_matches_paper() {
        assert_eq!(ia(3).to_string(), "IA3");
        assert_eq!(format!("{:?}", ia(3)), "IA3");
        assert_eq!(IAgentId::from(4u64).raw(), 4);
    }
}
