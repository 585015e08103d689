//! The compiled dispatch directory: the tree's key space as sorted runs.
//!
//! # Why
//!
//! [`HashTree::lookup`] walks from the root, one key bit per internal node
//! — O(height) pointer chases on the hottest path in the system (every
//! register, move and locate resolves a key). [`CompiledDirectory`] is the
//! tree's flat form: the key space cut into **runs**, maximal key
//! intervals one leaf serves, each kept as its first key and its owner in
//! one ascending array. A lookup is a binary search over the run starts.
//!
//! # Shape
//!
//! A leaf's hyper-label fixes the key bits at its valid-bit positions and
//! leaves every other bit free (paper §3: unused bits and the root's skip
//! prefix are recorded but never constrain a lookup). The free bits after
//! its last valid bit vary within one run; each setting of the `g` free
//! bits before it starts another, so the leaf serves `2^g` runs and
//! [`HashTree::run_count`] sums them. Complex and deep simple splits make
//! `g` large: a leaf's keys then scatter over many runs, and the flat
//! form would be larger than the tree. So the directory holds runs only
//! while the tree has at most [`MAX_RUNS_PER_LEAF`] runs a leaf, checked
//! with [`HashTree::run_count`] before anything is allocated; past that it
//! holds none, [`lookup`](CompiledDirectory::lookup) answers `None`, and
//! callers walk the tree. Nothing it stores grows with the depth of the
//! tree's deepest branch.
//!
//! # Maintenance
//!
//! The directory is stamped with the tree's structural
//! [generation](HashTree::generation). After a split or merge, callers
//! pass the IAgents the change involved ([`SplitApplied::affected`] plus
//! the new IAgent, or [`MergeApplied::absorbers`]) to
//! [`CompiledDirectory::refresh`], which splices those leaves' runs over
//! the old ones instead of rebuilding from every leaf. A directory whose
//! stamp does not match the tree must not serve lookups; [`is_current`]
//! makes that check explicit and cheap.
//!
//! [`SplitApplied::affected`]: crate::SplitApplied::affected
//! [`MergeApplied::absorbers`]: crate::MergeApplied::absorbers
//! [`is_current`]: CompiledDirectory::is_current

use crate::key::AgentKey;
use crate::tree::{HashTree, IAgentId};

/// The most runs a leaf the tree's flat form may hold, on average: the
/// one bound that decides both whether a [`CompiledDirectory`] holds runs
/// and whether the HAgent installs a version as run images rather than as
/// the whole copy. An install image costs 28–45 encoded bytes a run and a
/// whole copy 175–370 a leaf (measured over the spec lab's quick runs), so
/// past this ratio the runs are the larger form, in memory as on the wire.
/// Complex and deep simple splits cut a leaf's keys into many runs: the
/// spec lab's flash crowd reached 1 584 runs a leaf.
pub const MAX_RUNS_PER_LEAF: usize = 4;

/// The tree's key space as runs, stamped with the tree generation they
/// reflect: every run's first key and the leaf IAgent serving it up to the
/// next run's, ascending from key 0. Empty past [`MAX_RUNS_PER_LEAF`].
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
/// // After another change, refresh only the involved leaves' runs.
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
/// assert_eq!(dir.runs().map(<[_]>::len), Some(3));
/// assert!(dir.is_current(&tree));
/// # Ok::<(), agentrack_hashtree::TreeError>(())
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct CompiledDirectory {
    /// `(first key, owner)` ascending, the first at key 0, each owner
    /// differing from the one before; empty past the bound.
    runs: Vec<(u64, IAgentId)>,
    /// The tree generation this directory reflects.
    generation: u64,
}

/// The most runs `tree` may have and still keep its flat form.
fn run_bound(tree: &HashTree) -> u64 {
    (MAX_RUNS_PER_LEAF * tree.iagent_count()) as u64
}

/// The keys one leaf serves, as masks over key bits (bit 63 is key bit 0):
/// `value` on its valid-bit positions, anything on `free` (the bits before
/// its last valid bit that it leaves unconstrained) and on `tail` (every
/// bit after its last valid bit).
struct Region {
    value: u64,
    free: u64,
    tail: u64,
}

impl Region {
    fn of(tree: &HashTree, ia: IAgentId) -> Self {
        let hl = tree.hyper_label(ia).expect("a leaf of the tree");
        let (mut mask, mut value, mut tail) = (0u64, 0u64, u64::MAX);
        let mut cursor = hl.prefix_skip().len();
        for label in hl.labels() {
            let bit = 1u64 << (63 - cursor);
            mask |= bit;
            if label.valid_bit() {
                value |= bit;
            }
            tail = bit - 1;
            cursor += label.len();
        }
        Region {
            value,
            free: !(mask | tail),
            tail,
        }
    }

    /// How many runs the leaf serves: one per setting of its free bits.
    fn run_count(&self) -> u64 {
        1u64 << self.free.count_ones()
    }

    /// The leaf's runs as `(first key, last key)`, ascending: the free
    /// bits' settings in increasing order (the submask walk).
    fn runs(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        std::iter::successors(Some(0u64), move |&sub| {
            (sub != self.free).then(|| sub.wrapping_sub(self.free) & self.free)
        })
        .map(move |sub| (self.value | sub, self.value | sub | self.tail))
    }
}

/// Appends a run unless it continues the last one's owner.
fn push(runs: &mut Vec<(u64, IAgentId)>, start: u64, owner: IAgentId) {
    if runs.last().is_none_or(|&(_, last)| last != owner) {
        runs.push((start, owner));
    }
}

/// `old`'s runs with the key ranges of `fresh` — `(first key, last key,
/// owner)`, disjoint and ascending — overwritten by their owners.
fn splice(old: &[(u64, IAgentId)], fresh: &[(u64, u64, IAgentId)]) -> Vec<(u64, IAgentId)> {
    let mut runs = Vec::with_capacity(old.len() + fresh.len());
    // `old`'s runs from key `from` on, stopping before key `to`.
    let copy_old = |runs: &mut Vec<_>, from: u64, to: Option<u64>| {
        let first = old.partition_point(|&(start, _)| start <= from) - 1;
        push(runs, from, old[first].1);
        for &(start, owner) in &old[first + 1..] {
            if to.is_some_and(|to| start >= to) {
                break;
            }
            push(runs, start, owner);
        }
    };
    // The first key not yet covered; `None` once the key space is.
    let mut from = Some(0u64);
    for &(start, last, owner) in fresh {
        let next = from.expect("fresh runs are disjoint");
        if next < start {
            copy_old(&mut runs, next, Some(start));
        }
        push(&mut runs, start, owner);
        from = last.checked_add(1);
    }
    if let Some(next) = from {
        copy_old(&mut runs, next, None);
    }
    runs
}

impl CompiledDirectory {
    /// Compiles the runs of `tree`, or none when it has more than
    /// [`MAX_RUNS_PER_LEAF`] runs a leaf.
    #[must_use]
    pub fn build(tree: &HashTree) -> Self {
        let count = tree.run_count();
        let mut runs = Vec::new();
        if count <= run_bound(tree) {
            runs.reserve_exact(count as usize);
            for ia in tree.iagents() {
                let region = Region::of(tree, ia);
                runs.extend(region.runs().map(|(start, _)| (start, ia)));
            }
            runs.sort_unstable_by_key(|&(start, _)| start);
        }
        CompiledDirectory {
            runs,
            generation: tree.generation(),
        }
    }

    /// Incrementally re-compiles after one structural change to the tree
    /// this directory was current for: only the runs of `involved` leaves
    /// are rebuilt and spliced over the old ones. Pass the IAgents the
    /// change reported — [`SplitApplied::affected`] plus the new IAgent
    /// for a split, [`MergeApplied::absorbers`] for a merge; their
    /// post-change regions jointly cover every key the change moved.
    /// IAgents no longer in the tree are skipped (a merged-away leaf's
    /// keys are covered by its absorbers).
    ///
    /// A directory that held no runs, or whose involved leaves alone pass
    /// the bound, is rebuilt instead: [`build`](Self::build) enumerates
    /// no run of a tree past the bound, and compiles one that came back
    /// within it.
    ///
    /// [`SplitApplied::affected`]: crate::SplitApplied::affected
    /// [`MergeApplied::absorbers`]: crate::MergeApplied::absorbers
    pub fn refresh(&mut self, tree: &HashTree, involved: &[IAgentId]) {
        let regions: Vec<(IAgentId, Region)> = involved
            .iter()
            .filter(|&&ia| tree.contains(ia))
            .map(|&ia| (ia, Region::of(tree, ia)))
            .collect();
        let added = regions
            .iter()
            .map(|(_, region)| region.run_count())
            .fold(0u64, u64::saturating_add);
        if self.runs.is_empty() || added > run_bound(tree) {
            *self = CompiledDirectory::build(tree);
            return;
        }
        let mut fresh: Vec<(u64, u64, IAgentId)> = regions
            .iter()
            .flat_map(|(ia, region)| region.runs().map(|(first, last)| (first, last, *ia)))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        self.runs = splice(&self.runs, &fresh);
        if self.runs.len() as u64 > run_bound(tree) {
            self.runs = Vec::new();
        }
        self.generation = tree.generation();
    }

    /// The IAgent serving `key`, by binary search over the run starts, or
    /// `None` when the tree has too many runs to compile (callers fall
    /// back to [`HashTree::lookup`]).
    #[inline]
    #[must_use]
    pub fn lookup(&self, key: AgentKey) -> Option<IAgentId> {
        let after = self.runs.partition_point(|&(start, _)| start <= key.raw());
        after.checked_sub(1).map(|run| self.runs[run].1)
    }

    /// Every run's first key and owner, ascending from key 0, or `None`
    /// when the tree has too many runs to compile.
    #[must_use]
    pub fn runs(&self) -> Option<&[(u64, IAgentId)]> {
        (!self.runs.is_empty()).then_some(self.runs.as_slice())
    }

    /// The tree generation this directory was compiled against.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `true` when the directory reflects `tree`'s current structure: its
    /// lookups answer for it, `None` meaning "walk the tree".
    #[must_use]
    pub fn is_current(&self, tree: &HashTree) -> bool {
        self.generation == tree.generation()
    }

    /// Checks the directory against `tree`: it holds runs exactly when
    /// the tree is within [`MAX_RUNS_PER_LEAF`], and then as many as the
    /// tree has, ascending from key 0, each owned at its first and last key
    /// by the leaf [`HashTree::lookup`] names. Each run boundary is then an
    /// owner change, and there are as many as the tree has, so the runs
    /// are exact.
    ///
    /// O(runs · height) — intended for tests and debugging, not the hot
    /// path.
    ///
    /// # Errors
    ///
    /// Returns a description of the first disagreement, or a stale
    /// generation stamp.
    pub fn verify(&self, tree: &HashTree) -> Result<(), String> {
        if self.generation != tree.generation() {
            return Err(format!(
                "directory at generation {}, tree at {}",
                self.generation,
                tree.generation()
            ));
        }
        let (count, bound) = (tree.run_count(), run_bound(tree));
        if self.runs.is_empty() != (count > bound) {
            return Err(format!(
                "{} runs held for a tree of {count} runs, bound {bound}",
                self.runs.len()
            ));
        }
        if self.runs.is_empty() {
            return Ok(());
        }
        if self.runs.len() as u64 != count {
            return Err(format!("{} runs, the tree has {count}", self.runs.len()));
        }
        if self.runs[0].0 != 0 {
            return Err(format!("the first run starts at {:#x}", self.runs[0].0));
        }
        for (i, &(start, owner)) in self.runs.iter().enumerate() {
            let last = match self.runs.get(i + 1) {
                Some(&(next, _)) if next <= start => {
                    return Err(format!("run {i} at {start:#x} is not below {next:#x}"));
                }
                Some(&(next, _)) => next - 1,
                None => u64::MAX,
            };
            for key in [start, last] {
                let expect = tree.lookup(AgentKey::new(key));
                if owner != expect {
                    return Err(format!(
                        "run {i} holds {owner} at {key:#x}, tree says {expect}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for CompiledDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledDirectory")
            .field("runs", &self.runs.len())
            .field("generation", &self.generation)
            .finish()
    }
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

    /// Random-ish raws exercising low bits and the key space's ends.
    fn sample_keys() -> Vec<AgentKey> {
        (0..512u64)
            .map(AgentKey::from_sequential)
            .chain([0, 1, u64::MAX, 1 << 63, (1 << 63) - 1].map(AgentKey::new))
            .collect()
    }

    fn assert_agrees(dir: &CompiledDirectory, tree: &HashTree) {
        dir.verify(tree).unwrap();
        assert_eq!(dir, &CompiledDirectory::build(tree), "refresh ≠ build");
        for key in sample_keys() {
            assert_eq!(
                dir.lookup(key),
                Some(tree.lookup(key)),
                "disagreement at {key}"
            );
        }
    }

    #[test]
    fn single_leaf_tree_compiles_to_one_run() {
        let tree = HashTree::new(ia(9));
        let dir = CompiledDirectory::build(&tree);
        assert_eq!(dir.runs(), Some(&[(0, ia(9))][..]));
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
        assert_agrees(&dir, &tree);
        // The unused bit leaves IA1 two runs, {100…, 110…}, with IA3's
        // between and after them.
        let top3 = |bits: u64| bits << 61;
        assert_eq!(
            dir.runs().unwrap(),
            [
                (0, ia(0)),
                (top3(0b010), ia(2)),
                (top3(0b100), ia(1)),
                (top3(0b101), ia(3)),
                (top3(0b110), ia(1)),
                (top3(0b111), ia(3)),
            ]
        );
    }

    #[test]
    fn skip_prefix_after_root_merge_stays_unconstrained() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        tree.apply_merge(ia(1)).unwrap();
        // Single leaf with skip prefix [0]: one run again.
        let dir = CompiledDirectory::build(&tree);
        assert_eq!(dir.runs().map(<[_]>::len), Some(1));
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn refresh_after_split_and_merge_equals_a_fresh_build() {
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 1), ia(1), Side::Right)
            .unwrap();
        let mut dir = CompiledDirectory::build(&tree);
        assert_agrees(&dir, &tree);

        let applied = tree
            .apply_split(&simple(&tree, ia(1), 1), ia(2), Side::Right)
            .unwrap();
        let mut involved = applied.affected.clone();
        involved.push(applied.new_iagent);
        dir.refresh(&tree, &involved);
        assert_agrees(&dir, &tree);

        let merged = tree.apply_merge(ia(2)).unwrap();
        dir.refresh(&tree, &merged.absorbers);
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
    fn a_deep_comb_compiles_to_one_run_a_leaf() {
        // Split the leaf holding key 0 on m = 1, forty times: branch depth
        // 40, and still one run a leaf.
        let mut tree = HashTree::new(ia(0));
        let mut dir = CompiledDirectory::build(&tree);
        for next in 1..=40 {
            let leaf = tree.lookup(AgentKey::new(0));
            let applied = tree
                .apply_split(&simple(&tree, leaf, 1), ia(next), Side::Right)
                .unwrap();
            let mut involved = applied.affected;
            involved.push(ia(next));
            dir.refresh(&tree, &involved);
        }
        assert_eq!(dir.runs().map(<[_]>::len), Some(41));
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn too_fragmented_trees_fall_back_to_the_walk_and_come_back() {
        // Branching on key bit 19 leaves 19 free bits above it: 2^20 runs
        // for two leaves.
        let mut tree = HashTree::new(ia(0));
        let mut dir = CompiledDirectory::build(&tree);
        let applied = tree
            .apply_split(&simple(&tree, ia(0), 20), ia(1), Side::Right)
            .unwrap();
        let mut involved = applied.affected;
        involved.push(ia(1));
        dir.refresh(&tree, &involved);
        assert_eq!(tree.run_count(), 1 << 20);
        assert!(dir.is_current(&tree));
        assert_eq!(dir.runs(), None);
        assert_eq!(dir.lookup(AgentKey::new(0)), None);
        dir.verify(&tree).unwrap();
        assert_eq!(dir, CompiledDirectory::build(&tree));

        // Merging it away brings the runs back.
        let merged = tree.apply_merge(ia(1)).unwrap();
        dir.refresh(&tree, &merged.absorbers);
        assert_agrees(&dir, &tree);
    }

    #[test]
    fn the_bound_is_four_runs_a_leaf() {
        // Branching on key bit 2 gives two leaves eight runs: within.
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 3), ia(1), Side::Right)
            .unwrap();
        assert_eq!(tree.run_count(), 8);
        assert_agrees(&CompiledDirectory::build(&tree), &tree);
        // On key bit 3, sixteen: past it.
        let mut tree = HashTree::new(ia(0));
        tree.apply_split(&simple(&tree, ia(0), 4), ia(1), Side::Right)
            .unwrap();
        assert_eq!(tree.run_count(), 16);
        assert_eq!(CompiledDirectory::build(&tree).runs(), None);
    }

    #[test]
    fn debug_is_compact() {
        let dir = CompiledDirectory::build(&HashTree::new(ia(0)));
        let shown = format!("{dir:?}");
        assert!(shown.contains("runs"));
        assert!(!shown.contains("IA0"), "runs must not be dumped: {shown}");
    }
}
