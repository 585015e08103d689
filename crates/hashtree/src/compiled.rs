//! The compiled dispatch directory: O(1) lookup over a flattened tree.
//!
//! # Why
//!
//! [`HashTree::lookup`] walks from the root, one key bit per internal node
//! — O(height) pointer chases on the hottest path in the system (every
//! register, move and locate resolves a key). Classic extendible hashing,
//! the paper's own ancestry, flattens the tree into a `2^d` directory so a
//! lookup is a single array index. [`CompiledDirectory`] is that directory
//! for the hash tree.
//!
//! # Shape
//!
//! The directory holds `2^d` slots, where `d` is the number of key bits
//! needed to reach any *branching decision* in the tree. A key's slot is
//! its top `d` bits; the slot holds the [`IAgentId`] that
//! [`HashTree::lookup`] would return for every key sharing those bits.
//!
//! `d` counts only **valid bits** (branch positions). Unused label bits and
//! the root's skip prefix are *recorded but never constrain a lookup*
//! (paper §3), so they need no directory depth: a leaf whose hyper-label
//! consumes `c` key bits but constrains only `v` of them owns `2^(d-v)`
//! slots — a non-contiguous region when unused bits sit between valid
//! ones. [`HashTree::max_consumed_bits`] therefore bounds `d` from above;
//! the compiled depth is usually much smaller.
//!
//! # Maintenance
//!
//! The directory is stamped with the tree's structural
//! [generation](HashTree::generation). After a split or merge, callers
//! pass the IAgents the change involved ([`SplitApplied::affected`] plus
//! the new IAgent, or [`MergeApplied::absorbers`]) to
//! [`CompiledDirectory::refresh`], which rewrites only those leaves'
//! regions instead of rebuilding the whole table. A directory whose stamp
//! does not match the tree must not serve lookups; [`is_current`] makes
//! that check explicit and cheap.
//!
//! [`SplitApplied::affected`]: crate::SplitApplied::affected
//! [`MergeApplied::absorbers`]: crate::MergeApplied::absorbers
//! [`is_current`]: CompiledDirectory::is_current

use crate::key::AgentKey;
use crate::tree::{HashTree, IAgentId};

/// Deepest branching position the directory will compile. `2^24` slots of
/// 8 bytes is 128 MiB — past that, the memory/latency trade no longer
/// favours a flat table and [`CompiledDirectory::lookup`] reports `None`
/// so callers fall back to the tree walk.
pub const MAX_COMPILED_DEPTH: usize = 24;

/// A flattened, generation-stamped image of a [`HashTree`]: one slot per
/// `depth`-bit key prefix, holding the leaf IAgent that serves it.
///
/// # Examples
///
/// ```
/// use agentrack_hashtree::{AgentKey, CompiledDirectory, HashTree, IAgentId, Side, SplitKind};
///
/// let mut tree = HashTree::new(IAgentId::new(0));
/// let cand = tree
///     .split_candidates(IAgentId::new(0))?
///     .into_iter()
///     .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
///     .unwrap();
/// let applied = tree.apply_split(&cand, IAgentId::new(1), Side::Right)?;
///
/// let mut dir = CompiledDirectory::build(&tree);
/// assert_eq!(dir.lookup(AgentKey::new(0)), Some(IAgentId::new(0)));
/// assert_eq!(dir.lookup(AgentKey::new(u64::MAX)), Some(IAgentId::new(1)));
///
/// // After another change, refresh only the involved region.
/// let cand = tree
///     .split_candidates(IAgentId::new(1))?
///     .into_iter()
///     .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
///     .unwrap();
/// let applied = tree.apply_split(&cand, IAgentId::new(2), Side::Right)?;
/// let mut involved = applied.affected.clone();
/// involved.push(applied.new_iagent);
/// dir.refresh(&tree, &involved);
/// assert_eq!(dir.lookup(AgentKey::new(u64::MAX)), Some(IAgentId::new(2)));
/// assert!(dir.is_current(&tree));
/// # Ok::<(), agentrack_hashtree::TreeError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CompiledDirectory {
    /// `2^depth` slots; empty when the tree is too deep to compile.
    slots: Vec<IAgentId>,
    /// Number of top key bits indexing the table.
    depth: usize,
    /// The tree generation this image reflects.
    generation: u64,
    /// `false` when the tree's branch depth exceeded
    /// [`MAX_COMPILED_DEPTH`]: lookups must take the tree walk.
    compiled: bool,
}

impl CompiledDirectory {
    /// Compiles the full directory for `tree`.
    #[must_use]
    pub fn build(tree: &HashTree) -> Self {
        let depth = branch_depth(tree);
        if depth > MAX_COMPILED_DEPTH {
            return CompiledDirectory {
                slots: Vec::new(),
                depth,
                generation: tree.generation(),
                compiled: false,
            };
        }
        let mut dir = CompiledDirectory {
            slots: vec![IAgentId::new(u64::MAX); 1usize << depth],
            depth,
            generation: tree.generation(),
            compiled: true,
        };
        for ia in tree.iagents() {
            dir.emit_leaf(tree, ia);
        }
        dir
    }

    /// Incrementally re-compiles after one structural change: only the
    /// regions of `involved` leaves are rewritten. Pass the IAgents the
    /// change reported — [`SplitApplied::affected`] plus the new IAgent
    /// for a split, [`MergeApplied::absorbers`] for a merge; their
    /// post-change regions jointly cover every slot the change moved.
    /// IAgents no longer in the tree are skipped (a merged-away leaf's
    /// region is covered by its absorbers).
    ///
    /// Falls back to a full [`build`](Self::build) when the table must
    /// grow (a split branched deeper than the current depth) or when the
    /// directory was not compiled. The table never shrinks on a merge:
    /// extra low index bits are simply unconstrained, and keeping them
    /// makes merge refreshes O(region) instead of O(table).
    ///
    /// [`SplitApplied::affected`]: crate::SplitApplied::affected
    /// [`MergeApplied::absorbers`]: crate::MergeApplied::absorbers
    pub fn refresh(&mut self, tree: &HashTree, involved: &[IAgentId]) {
        // A rehash can only deepen the tree through the leaves it touched
        // (`involved` is every leaf whose hyper-label changed), so the
        // depth check needs only those — not a full-tree scan, which would
        // cost as much as the rebuild this method exists to avoid.
        let required = involved
            .iter()
            .filter(|&&ia| tree.contains(ia))
            .map(|&ia| {
                tree.hyper_label(ia)
                    .expect("contained leaf has a hyper-label")
                    .valid_bit_positions()
                    .last()
                    .map_or(0, |&p| p + 1)
            })
            .max()
            .unwrap_or(0);
        if !self.compiled || required > self.depth {
            *self = CompiledDirectory::build(tree);
            return;
        }
        for &ia in involved {
            if tree.contains(ia) {
                self.emit_leaf(tree, ia);
            }
        }
        self.generation = tree.generation();
    }

    /// O(1) lookup: the IAgent serving `key`, or `None` when the tree was
    /// too deep to compile (callers fall back to [`HashTree::lookup`]).
    #[inline]
    #[must_use]
    pub fn lookup(&self, key: AgentKey) -> Option<IAgentId> {
        if !self.compiled {
            return None;
        }
        // depth == 0: a single slot serves the whole key space (shifting
        // by 64 would be UB).
        let index = if self.depth == 0 {
            0
        } else {
            (key.raw() >> (64 - self.depth)) as usize
        };
        Some(self.slots[index])
    }

    /// The tree generation this directory was compiled against.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when the directory reflects `tree`'s current structure and
    /// can serve lookups.
    #[must_use]
    pub fn is_current(&self, tree: &HashTree) -> bool {
        self.compiled && self.generation == tree.generation()
    }

    /// Number of top key bits indexing the table.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of slots (`2^depth`), 0 when not compiled.
    #[must_use]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The `2^depth` slots in key-prefix order, or `None` when the tree
    /// was too deep to compile.
    #[must_use]
    pub fn slots(&self) -> Option<&[IAgentId]> {
        self.compiled.then_some(self.slots.as_slice())
    }

    /// Exhaustively checks every slot against [`HashTree::lookup`].
    ///
    /// O(`2^depth` · height) — intended for tests and debugging, not the
    /// hot path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreeing slot, a stale
    /// generation stamp, or a depth mismatch.
    pub fn verify(&self, tree: &HashTree) -> Result<(), String> {
        if !self.compiled {
            return Ok(());
        }
        if self.generation != tree.generation() {
            return Err(format!(
                "directory at generation {}, tree at {}",
                self.generation,
                tree.generation()
            ));
        }
        if branch_depth(tree) > self.depth {
            return Err(format!(
                "directory depth {} shallower than the tree's branch depth {}",
                self.depth,
                branch_depth(tree)
            ));
        }
        for (slot, &got) in self.slots.iter().enumerate() {
            // A key whose top bits are the slot index, rest zero; every
            // key in the slot shares its branch bits, so one witness per
            // slot suffices.
            let key = if self.depth == 0 {
                AgentKey::new(0)
            } else {
                AgentKey::new((slot as u64) << (64 - self.depth))
            };
            let expect = tree.lookup(key);
            if got != expect {
                return Err(format!(
                    "slot {slot:0width$b} holds {got}, tree says {expect}",
                    width = self.depth
                ));
            }
        }
        Ok(())
    }

    /// Writes `ia` into every slot its leaf owns.
    ///
    /// The leaf's hyper-label constrains the key bits at valid-bit
    /// positions and leaves every other position free; its region is the
    /// set of slot indices matching the constrained bits — enumerated by
    /// the standard submask walk over the free positions, so the work is
    /// exactly the region size and a full build totals exactly `2^depth`
    /// slot writes.
    fn emit_leaf(&mut self, tree: &HashTree, ia: IAgentId) {
        let hl = tree
            .hyper_label(ia)
            .expect("emit_leaf called for an IAgent not in the tree");
        // Constraint over slot-index bits: key bit p maps to index bit
        // (depth - 1 - p).
        let mut mask = 0u64;
        let mut value = 0u64;
        let mut cursor = hl.prefix_skip().len();
        for label in hl.labels() {
            debug_assert!(cursor < self.depth, "valid bit beyond table depth");
            let bit = 1u64 << (self.depth - 1 - cursor);
            mask |= bit;
            if label.valid_bit() {
                value |= bit;
            }
            cursor += label.len();
        }
        // depth == 0: one unconstrained slot.
        if self.depth == 0 {
            self.slots[0] = ia;
            return;
        }
        let free = !mask & ((1u64 << self.depth) - 1);
        let mut sub = 0u64;
        loop {
            self.slots[(value | sub) as usize] = ia;
            if sub == free {
                break;
            }
            sub = sub.wrapping_sub(free) & free;
        }
    }
}

impl std::fmt::Debug for CompiledDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledDirectory")
            .field("depth", &self.depth)
            .field("slots", &self.slots.len())
            .field("generation", &self.generation)
            .field("compiled", &self.compiled)
            .finish()
    }
}

/// Key bits needed to reach every branching decision: one past the deepest
/// valid-bit position, 0 for a single-leaf tree. Unused bits and skip
/// prefixes need no depth — they never constrain a lookup.
fn branch_depth(tree: &HashTree) -> usize {
    tree.iagents()
        .map(|ia| {
            let hl = tree.hyper_label(ia).expect("iagents() returned a leaf");
            hl.valid_bit_positions()
                .last()
                .map_or(0, |&deepest| deepest + 1)
        })
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::{Side, SplitCandidate, SplitKind};

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

    /// The sample keys `verify` cannot cover: random-ish raws exercising
    /// low bits beyond the table depth.
    fn sample_keys() -> Vec<AgentKey> {
        (0..512u64)
            .map(AgentKey::from_sequential)
            .chain([0, 1, u64::MAX, 1 << 63, (1 << 63) - 1].map(AgentKey::new))
            .collect()
    }

    fn assert_agrees(dir: &CompiledDirectory, tree: &HashTree) {
        dir.verify(tree).unwrap();
        for key in sample_keys() {
            assert_eq!(
                dir.lookup(key),
                Some(tree.lookup(key)),
                "disagreement at {key}"
            );
        }
    }

    #[test]
    fn single_leaf_tree_compiles_to_one_slot() {
        let tree = HashTree::new(ia(9));
        let dir = CompiledDirectory::build(&tree);
        assert_eq!(dir.depth(), 0);
        assert_eq!(dir.slot_count(), 1);
        assert!(dir.is_current(&tree));
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn figure1_style_tree_compiles_exactly() {
        // IA0: 0.0, IA2: 0.1, IA1: 10.0, IA3: 10.1 — multi-bit label "10"
        // with an unused bit between valid bits.
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(0), 1), ia(2), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 2), ia(3), Side::Right)
            .unwrap();
        let dir = CompiledDirectory::build(&tree);
        // Valid bits sit at key positions 0, 1 (left side) and 0, 2
        // (right side, bit 1 unused): depth 3.
        assert_eq!(dir.depth(), 3);
        assert_agrees(&dir, &tree);
        // The unused bit leaves IA1 owning the non-contiguous slots
        // {100, 110}.
        assert_eq!(dir.lookup(AgentKey::new(0b100 << 61)), Some(ia(1)));
        assert_eq!(dir.lookup(AgentKey::new(0b110 << 61)), Some(ia(1)));
        assert_eq!(dir.lookup(AgentKey::new(0b101 << 61)), Some(ia(3)));
        assert_eq!(dir.lookup(AgentKey::new(0b111 << 61)), Some(ia(3)));
    }

    #[test]
    fn skip_prefix_after_root_merge_stays_unconstrained() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_merge(ia(1)).unwrap();
        // Single leaf with skip prefix [0]: depth 0 again.
        let dir = CompiledDirectory::build(&tree);
        assert_eq!(dir.depth(), 0);
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn refresh_after_split_rewrites_only_the_involved_region() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        let mut dir = CompiledDirectory::build(&tree);
        assert_agrees(&dir, &tree);

        // Split IA1 at the same depth the table already covers… it does
        // not: m=1 branches one level deeper, so this exercises the
        // grow-and-rebuild path.
        let applied = tree
            .apply_split(&simple(&tree, ia(1), 1), ia(2), Side::Right)
            .unwrap();
        let mut involved = applied.affected.clone();
        involved.push(applied.new_iagent);
        dir.refresh(&tree, &involved);
        assert_agrees(&dir, &tree);

        // A merge keeps the table size and rewrites only the absorbers'
        // regions.
        let merged = tree.apply_merge(ia(2)).unwrap();
        let depth_before = dir.depth();
        dir.refresh(&tree, &merged.absorbers);
        assert_eq!(dir.depth(), depth_before, "merge must not shrink");
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn refresh_handles_complex_splits_on_unused_bits() {
        // Build a multi-bit label, then promote its unused bit.
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 2), ia(2), Side::Right)
            .unwrap();
        let mut dir = CompiledDirectory::build(&tree);
        assert_agrees(&dir, &tree);

        let complex = tree
            .split_candidates(ia(1))
            .unwrap()
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Complex { .. }))
            .expect("multi-bit label must yield a complex candidate");
        let applied = tree.apply_split(&complex, ia(7), Side::Right).unwrap();
        let mut involved = applied.affected.clone();
        involved.push(applied.new_iagent);
        dir.refresh(&tree, &involved);
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn stale_directory_reports_not_current() {
        let mut tree = HashTree::new(ia(0));
        let dir = CompiledDirectory::build(&tree);
        assert!(dir.is_current(&tree));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        assert!(!dir.is_current(&tree));
        assert!(dir.verify(&tree).is_err());
    }

    #[test]
    fn too_deep_trees_fall_back_to_the_walk() {
        let mut tree = HashTree::new(ia(0));
        // One deep path: repeatedly split the same leaf on m = 1 until
        // the branch depth passes the cap.
        let mut next = 1u64;
        while crate::compiled::branch_depth(&tree) <= MAX_COMPILED_DEPTH {
            let deepest = tree
                .iagents()
                .max_by_key(|&ia| tree.consumed_bits(ia).unwrap())
                .unwrap();
            tree.apply_split(&simple(&tree, deepest, 1), ia(1000 + next), Side::Right)
                .unwrap();
            next += 1;
        }
        let dir = CompiledDirectory::build(&tree);
        assert!(!dir.is_current(&tree));
        assert_eq!(dir.lookup(AgentKey::new(0)), None);
        assert_eq!(dir.slot_count(), 0);
        dir.verify(&tree).unwrap(); // vacuously fine
    }

    #[test]
    fn build_work_is_exactly_one_write_per_slot() {
        // Regions partition the table: the sum of region sizes is 2^d, so
        // no slot keeps its poison value.
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_split(&simple(&tree, ia(1), 3), ia(2), Side::Right)
            .unwrap();
        let dir = CompiledDirectory::build(&tree);
        assert!(dir
            .slots
            .iter()
            .all(|&slot| slot != IAgentId::new(u64::MAX)));
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn debug_is_compact() {
        let dir = CompiledDirectory::build(&HashTree::new(ia(0)));
        let shown = format!("{dir:?}");
        assert!(shown.contains("depth"));
        assert!(!shown.contains("IA0"), "slots must not be dumped: {shown}");
    }
}
