//! The hash-function artifact the HAgent distributes, and the rehash ops
//! that change it.
//!
//! Every change to a [`HashFunction`] is one [`RehashOp`] applied through
//! [`HashFunction::apply`]: the HAgent's primary copy changes that way,
//! and so does an LHAgent's secondary copy when it advances by a
//! [`Wire::HashFnDelta`] built from the HAgent's [`RehashLog`]. IAgents
//! hold no copy: each install carries the receiver's run view of the new
//! version ([`Wire::InstallView`]), unless the whole copy is the smaller
//! message ([`Wire::InstallHashFn`]).

use std::collections::{HashMap, VecDeque};

use agentrack_hashtree::{AgentKey, CompiledDirectory, HashTree, IAgentId, Side, TreeError};
use agentrack_platform::{AgentId, NodeId};
use serde::{Deserialize, Serialize};

use crate::wire::Wire;

/// Derives the hash key of a platform agent id.
///
/// The platform assigns agent ids sequentially; the location mechanism
/// requires keys whose prefix bits are uniform, so ids are passed through a
/// full-avalanche mixer. This is the system-wide hash function's first
/// stage (its second stage is the hash tree's prefix matching).
#[must_use]
pub fn key_of(agent: AgentId) -> AgentKey {
    AgentKey::from_sequential(agent.raw())
}

/// The complete hash-function artifact: what the HAgent owns (primary
/// copy) and LHAgents cache (secondary copies). IAgents keep only a
/// [`TrackerView`](crate::TrackerView) of it, and are installed with
/// that view's [`ViewImage`](crate::ViewImage) unless the copy is the
/// smaller message.
///
/// Besides the tree this carries the IAgent *directory* — the current node
/// of every IAgent — because resolving an agent must yield both "which
/// IAgent" and "where is it" (paper: the LHAgent returns "the id and the
/// current location of A's IAgent").
///
/// Every copy also carries a [`CompiledDirectory`]: the tree's key space
/// as sorted runs, so the hot [`resolve`](Self::resolve) path is a binary
/// search instead of a per-bit tree walk. A tree with more than
/// [`MAX_RUNS_PER_LEAF`] runs a leaf has no runs, and resolves walk it.
/// The directory is derived data — it is rebuilt on deserialisation
/// rather than sent over the wire, it is excluded from equality, and it
/// is generation-stamped so a direct mutation of [`tree`](Self::tree) can
/// never produce a wrong answer: resolves fall back to the tree walk until
/// [`recompile`](Self::recompile) (full) or
/// [`refresh_compiled`](Self::refresh_compiled) (incremental, used by
/// [`apply`](Self::apply) after each rehash op) brings it current. A copy
/// handed over in process is a clone and carries the sender's runs, stale
/// ones included; the stamp keeps those as safe as the sender's own.
///
/// [`MAX_RUNS_PER_LEAF`]: agentrack_hashtree::MAX_RUNS_PER_LEAF
#[derive(Debug, Clone)]
pub struct HashFunction {
    /// Version counter, bumped by every [`RehashOp`]; lets copies
    /// recognise staleness.
    pub version: u64,
    /// The extendible hash tree.
    pub tree: HashTree,
    /// Where each IAgent lives. Keys are the tree's leaf owners.
    pub locations: HashMap<IAgentId, NodeId>,
    /// The runs of `tree`; lazily kept current.
    compiled: CompiledDirectory,
}

impl HashFunction {
    /// Builds version 1 of the hash function: one IAgent serving the whole
    /// key space.
    #[must_use]
    pub fn initial(iagent: AgentId, node: NodeId) -> Self {
        let ia = IAgentId::new(iagent.raw());
        let mut locations = HashMap::new();
        locations.insert(ia, node);
        let tree = HashTree::new(ia);
        let compiled = CompiledDirectory::build(&tree);
        HashFunction {
            version: 1,
            tree,
            locations,
            compiled,
        }
    }

    /// The tree lookup, through the compiled directory when it is current
    /// (the common case — the HAgent refreshes it on every rehash, and
    /// deserialised copies arrive freshly compiled).
    #[inline]
    fn lookup(&self, key: AgentKey) -> IAgentId {
        if self.compiled.is_current(&self.tree) {
            if let Some(ia) = self.compiled.lookup(key) {
                return ia;
            }
        }
        self.tree.lookup(key)
    }

    /// Resolves an agent id to its responsible IAgent and that IAgent's
    /// node.
    ///
    /// # Panics
    ///
    /// Panics if the tree and directory are out of sync — an invariant the
    /// HAgent maintains.
    #[must_use]
    pub fn resolve(&self, target: AgentId) -> (AgentId, NodeId) {
        let ia = self.lookup(key_of(target));
        let node = *self
            .locations
            .get(&ia)
            .expect("hash tree leaf without a directory entry");
        (AgentId::new(ia.raw()), node)
    }

    /// `true` if `iagent` is responsible for `target` under this version.
    #[must_use]
    pub fn is_responsible(&self, iagent: AgentId, target: AgentId) -> bool {
        self.lookup(key_of(target)) == IAgentId::new(iagent.raw())
    }

    /// The compiled runs (possibly stale; check
    /// [`CompiledDirectory::is_current`]).
    #[must_use]
    pub fn compiled(&self) -> &CompiledDirectory {
        &self.compiled
    }

    /// Rebuilds the compiled runs from scratch. Call after mutating
    /// [`tree`](Self::tree) directly; until then resolves take the (safe,
    /// slower) tree walk.
    pub fn recompile(&mut self) {
        self.compiled = CompiledDirectory::build(&self.tree);
    }

    /// Incrementally refreshes the compiled runs after one split or
    /// merge: only the runs of `involved` leaves are rebuilt
    /// ([`SplitApplied::affected`] plus the new IAgent, or
    /// [`MergeApplied::absorbers`]).
    ///
    /// [`SplitApplied::affected`]: agentrack_hashtree::SplitApplied::affected
    /// [`MergeApplied::absorbers`]: agentrack_hashtree::MergeApplied::absorbers
    pub fn refresh_compiled(&mut self, involved: &[IAgentId]) {
        self.compiled.refresh(&self.tree, involved);
    }

    /// The buddy replica of an IAgent: the leaf serving the key region
    /// adjacent to the IAgent's own — reached by flipping the last valid
    /// bit of its hyper-label. Returns `None` when the tree has a single
    /// leaf (no sibling exists; callers fall back to the configured
    /// standby) or when `iagent` is not a current leaf.
    #[must_use]
    pub fn buddy_of(&self, iagent: AgentId) -> Option<(AgentId, NodeId)> {
        let ia = IAgentId::new(iagent.raw());
        if self.tree.iagent_count() <= 1 || !self.tree.contains(ia) {
            return None;
        }
        let hl = self.tree.hyper_label(ia).ok()?;
        let positions = hl.valid_bit_positions();
        let labels = hl.labels();
        let mut raw = 0u64;
        for (i, (pos, label)) in positions.iter().zip(labels).enumerate() {
            let bit = if i == labels.len() - 1 {
                !label.valid_bit()
            } else {
                label.valid_bit()
            };
            if bit {
                raw |= 1u64 << (63 - pos);
            }
        }
        let sibling = self.tree.lookup(AgentKey::new(raw));
        if sibling == ia {
            return None;
        }
        let node = *self.locations.get(&sibling)?;
        Some((AgentId::new(sibling.raw()), node))
    }

    /// Consistency check: every leaf has a directory entry and vice versa,
    /// and a current compiled directory holds the tree's runs exactly (or
    /// none, past the bound).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        self.tree.validate()?;
        for ia in self.tree.iagents() {
            if !self.locations.contains_key(&ia) {
                return Err(format!("{ia} has no directory entry"));
            }
        }
        if self.locations.len() != self.tree.iagent_count() {
            return Err(format!(
                "directory has {} entries for {} leaves",
                self.locations.len(),
                self.tree.iagent_count()
            ));
        }
        if self.compiled.is_current(&self.tree) {
            self.compiled.verify(&self.tree)?;
        }
        Ok(())
    }
}

/// The compiled directory is derived data: two hash functions are equal
/// when their versions, trees and directories agree, regardless of whether
/// either side's runs are current.
impl PartialEq for HashFunction {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.tree == other.tree
            && self.locations == other.locations
    }
}

/// Wire format identical to the former derived one (`version`, `tree`,
/// `locations`); the compiled runs stay local.
impl Serialize for HashFunction {
    fn serialize(&self) -> serde::Value {
        serde::Value::Map(vec![
            (String::from("version"), Serialize::serialize(&self.version)),
            (String::from("tree"), Serialize::serialize(&self.tree)),
            (
                String::from("locations"),
                Serialize::serialize(&self.locations),
            ),
        ])
    }
}

/// Deserialised copies arrive with freshly compiled runs: this is what
/// gives LHAgent secondary copies and client-held copies their
/// per-generation compiled cache without any extra protocol.
impl Deserialize for HashFunction {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        let field = |name: &str| -> Result<&serde::Value, serde::Error> {
            value
                .get(name)
                .ok_or_else(|| serde::Error::custom(format!("HashFunction: missing {name}")))
        };
        let version = Deserialize::deserialize(field("version")?)?;
        let tree: HashTree = Deserialize::deserialize(field("tree")?)?;
        let locations = Deserialize::deserialize(field("locations")?)?;
        let compiled = CompiledDirectory::build(&tree);
        Ok(HashFunction {
            version,
            tree,
            locations,
            compiled,
        })
    }
}

/// One committed rehash: the unit both the primary copy and every
/// secondary copy change by. Applying the ops of versions `v+1 ..= w` to a
/// copy at version `v` yields the copy at version `w`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RehashOp {
    /// `requester`'s leaf split on `key_bit`: keys on `side` of it go to
    /// the new IAgent `new_iagent`, which lives on `node`.
    Split {
        /// The IAgent whose leaf (or subtree, for a complex split) split.
        requester: IAgentId,
        /// The partitioning key bit; it names the split among the
        /// requester's candidates (see `HashTree::refreshed_candidate`).
        key_bit: usize,
        /// The IAgent created for the new side.
        new_iagent: IAgentId,
        /// The side of `key_bit` the new IAgent serves.
        side: Side,
        /// Where the new IAgent lives.
        node: NodeId,
    },
    /// `iagent`'s leaf merged away into its sibling subtree.
    Merge {
        /// The IAgent that retired.
        iagent: IAgentId,
    },
    /// `iagent` migrated to `node`; the tree is unchanged.
    Moved {
        /// The IAgent that moved.
        iagent: IAgentId,
        /// Its new node.
        node: NodeId,
    },
}

/// Why a [`Wire::HashFnDelta`] could not advance a copy. The holder then
/// fetches a whole copy; it never guesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta starts above the copy's version: the ops in between are
    /// missing.
    Gap {
        /// The version the delta's first op applies to.
        from_version: u64,
        /// The copy's version.
        have_version: u64,
    },
    /// An op does not describe the copy.
    Op(TreeError),
}

impl HashFunction {
    /// Applies one rehash op, the one way a copy changes: bumps the
    /// version, keeps the directory in step with the tree, refreshes the
    /// compiled runs for the leaves that changed and returns them — the
    /// split leaf's affected IAgents plus the new one, a merge's
    /// absorbers, nothing for a move.
    ///
    /// # Errors
    ///
    /// An op that does not describe this copy (an unknown IAgent, a new
    /// IAgent that already has a directory entry, a key bit that is no
    /// split candidate, merging the last leaf) is refused, and the copy
    /// is left unchanged.
    pub fn apply(&mut self, op: &RehashOp) -> Result<Vec<IAgentId>, TreeError> {
        let involved = match *op {
            RehashOp::Split {
                requester,
                key_bit,
                new_iagent,
                side,
                node,
            } => {
                if self.locations.contains_key(&new_iagent) {
                    return Err(TreeError::DuplicateIAgent(new_iagent));
                }
                // Re-derived against this copy's own generation: the key
                // bit names the same split on every copy at this version.
                let candidate = self.tree.refreshed_candidate(requester, key_bit)?;
                let mut involved = self
                    .tree
                    .apply_split(&candidate, new_iagent, side)?
                    .affected;
                self.locations.insert(new_iagent, node);
                involved.push(new_iagent);
                involved
            }
            RehashOp::Merge { iagent } => {
                let absorbers = self.tree.apply_merge(iagent)?.absorbers;
                self.locations.remove(&iagent);
                absorbers
            }
            RehashOp::Moved { iagent, node } => {
                let entry = self
                    .locations
                    .get_mut(&iagent)
                    .ok_or(TreeError::UnknownIAgent(iagent))?;
                *entry = node;
                Vec::new()
            }
        };
        self.version += 1;
        self.refresh_compiled(&involved);
        Ok(involved)
    }

    /// Advances this copy by a [`Wire::HashFnDelta`] to
    /// `from_version + ops.len()`, applying only the ops above its own
    /// version: a copy that moved on since it asked needs a suffix, and a
    /// copy already there needs none.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Gap`] when the delta starts above this copy's version,
    /// [`DeltaError::Op`] when an op does not apply. The copy then stays
    /// at the last version an op reached.
    pub fn advance(&mut self, from_version: u64, ops: &[RehashOp]) -> Result<(), DeltaError> {
        if from_version > self.version {
            return Err(DeltaError::Gap {
                from_version,
                have_version: self.version,
            });
        }
        let known = usize::try_from(self.version - from_version).unwrap_or(usize::MAX);
        for op in ops.iter().skip(known) {
            self.apply(op).map_err(DeltaError::Op)?;
        }
        Ok(())
    }
}

/// The HAgent's log of the ops behind its most recent versions, from which
/// it answers a fetch with a [`Wire::HashFnDelta`] instead of a whole copy.
///
/// It holds at most as many ops as the tree has IAgents
/// ([`push`](Self::push)'s bound): a longer delta would be no smaller than
/// the copy it replaces. A fetch from before the oldest op gets the whole
/// copy.
#[derive(Debug, Clone)]
pub struct RehashLog {
    /// Oldest first; the last one produced `version`.
    ops: VecDeque<RehashOp>,
    /// The version the log ends at: the primary copy's.
    version: u64,
}

impl RehashLog {
    /// An empty log ending at `version`.
    #[must_use]
    pub fn new(version: u64) -> Self {
        RehashLog {
            ops: VecDeque::new(),
            version,
        }
    }

    /// Records the op that produced the next version, then drops the
    /// oldest ops past `bound`.
    pub fn push(&mut self, op: RehashOp, bound: usize) {
        self.ops.push_back(op);
        self.version += 1;
        while self.ops.len() > bound {
            self.ops.pop_front();
        }
    }

    /// The delta that takes a copy at `have_version` to the log's end, or
    /// `None` when the log does not cover it: 0 (no whole copy held), a
    /// version older than the oldest op, or one past the end.
    #[must_use]
    pub fn since(&self, have_version: u64) -> Option<Wire> {
        let behind = usize::try_from(self.version.checked_sub(have_version)?).ok()?;
        if have_version == 0 || behind > self.ops.len() {
            return None;
        }
        Some(Wire::HashFnDelta {
            from_version: have_version,
            ops: self.ops.range(self.ops.len() - behind..).cloned().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_of_spreads_sequential_ids() {
        let ones = (0..1000u64)
            .filter(|&i| key_of(AgentId::new(i)).bit(0))
            .count();
        assert!((400..=600).contains(&ones));
    }

    #[test]
    fn initial_hash_function_resolves_everything_to_the_first_iagent() {
        let hf = HashFunction::initial(AgentId::new(3), NodeId::new(1));
        hf.validate().unwrap();
        for raw in [0u64, 7, 1 << 40] {
            let (ia, node) = hf.resolve(AgentId::new(raw));
            assert_eq!(ia, AgentId::new(3));
            assert_eq!(node, NodeId::new(1));
        }
        assert!(hf.is_responsible(AgentId::new(3), AgentId::new(77)));
        assert!(!hf.is_responsible(AgentId::new(4), AgentId::new(77)));
    }

    #[test]
    fn buddy_is_the_sibling_leaf_and_symmetric_after_one_split() {
        use agentrack_hashtree::SplitKind;
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        assert_eq!(hf.buddy_of(AgentId::new(0)), None, "single leaf: no buddy");
        let candidates = hf.tree.split_candidates(IAgentId::new(0)).unwrap();
        let simple = candidates
            .iter()
            .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            .unwrap();
        hf.tree
            .apply_split(simple, IAgentId::new(1), Side::Right)
            .unwrap();
        hf.locations.insert(IAgentId::new(1), NodeId::new(1));
        hf.recompile();
        assert_eq!(
            hf.buddy_of(AgentId::new(0)),
            Some((AgentId::new(1), NodeId::new(1)))
        );
        assert_eq!(
            hf.buddy_of(AgentId::new(1)),
            Some((AgentId::new(0), NodeId::new(0)))
        );
        assert_eq!(hf.buddy_of(AgentId::new(7)), None, "not a leaf");
    }
}
