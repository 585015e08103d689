//! The tracker's compact, lookup-only view of one hash-function version.
//!
//! An IAgent asks its copy of the hash function three things: which IAgent
//! owns a key and where it lives, whether that IAgent is itself, and what
//! its own leaf is — the hyper-label (for the install-time "did my
//! partition change" test), its buddy, and whether it is still a leaf at
//! all. A whole [`HashFunction`] answers from a node arena, two maps and
//! its compiled runs; with one per tracker, n leaves cost O(n²).
//! [`TrackerView`] keeps only what those answers read:
//!
//! * the key space as runs: each run a first key and the `(IAgent, node)`
//!   serving every key up to the next run, taken from the copy's compiled
//!   runs ([`CompiledDirectory::runs`]);
//! * the facts about the tracker's own leaf, computed once at install.
//!
//! The runs are cut at 32 fixed key-space boundaries, and a chunk
//! is immutable, so views share equal chunks: a new view takes each chunk
//! from any view that still holds an equal one. The trackers of one
//! version share every chunk, and a split changes only the chunks its
//! leaf's keys fall in, so a tracker still on an older version shares the
//! rest. Without that, the trackers' views of a tree that keeps splitting
//! grow as n², because trackers not touched by a split keep older
//! versions.
//!
//! The HAgent installs a version on an IAgent by sending it a
//! [`ViewImage`]: the view's runs in key order, uncut, plus the receiver's
//! own facts. [`TrackerView::from_image`] cuts the runs into the same
//! chunks, so a view from an image shares them like any other.
//!
//! A tree with more than [`MAX_RUNS_PER_LEAF`] runs a leaf has no
//! compiled runs; the view then keeps the tree and walks it, as the full
//! copy does, and shares nothing. Such a view has no image: its install is
//! the whole copy, the smaller message then.
//!
//! [`MAX_RUNS_PER_LEAF`]: agentrack_hashtree::MAX_RUNS_PER_LEAF

use std::sync::{Arc, Mutex, PoisonError, Weak};

use agentrack_hashtree::{CompiledDirectory, HashTree, HyperLabel, IAgentId};
use agentrack_platform::{AgentId, NodeId};
use serde::{Deserialize, Serialize};

use crate::hashfn::{key_of, HashFunction};

/// Log₂ of the number of key-space chunks a view is cut into.
const CHUNK_BITS: usize = 5;
/// Key-space chunks per view.
const CHUNKS: usize = 1 << CHUNK_BITS;

/// Keys from `start` up to the next run's `start` belong to `iagent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    iagent: IAgentId,
    node: NodeId,
}

/// Every chunk a view still holds, by chunk position, for the next view
/// to share.
static HELD: Mutex<Vec<Vec<Weak<[Run]>>>> = Mutex::new(Vec::new());

/// How a key finds its IAgent.
#[derive(Debug)]
enum Index {
    /// Chunk `c` holds the runs of the keys whose top `CHUNK_BITS` bits
    /// are `c`, in key order; its first run starts at the chunk's first
    /// key.
    Chunks(Box<[Arc<[Run]>]>),
    /// Too many runs to compile: walk the tree, then find the IAgent's
    /// node.
    Walk {
        tree: Box<HashTree>,
        /// Ascending by IAgent.
        locations: Box<[(IAgentId, NodeId)]>,
    },
}

/// The first key of chunk `chunk`.
fn chunk_start(chunk: usize) -> u64 {
    (chunk as u64) << (64 - CHUNK_BITS)
}

/// Builds each chunk's runs with `cut`, taking an equal chunk some view
/// holds where there is one.
fn intern(mut cut: impl FnMut(usize) -> Vec<Run>) -> Box<[Arc<[Run]>]> {
    let mut held = HELD.lock().unwrap_or_else(PoisonError::into_inner);
    held.resize_with(CHUNKS, Vec::new);
    held.iter_mut()
        .enumerate()
        .map(|(chunk, held)| {
            let runs = cut(chunk);
            held.retain(|chunk| chunk.strong_count() > 0);
            if let Some(same) = held
                .iter()
                .filter_map(Weak::upgrade)
                .find(|chunk| **chunk == *runs)
            {
                return same;
            }
            let runs: Arc<[Run]> = runs.into();
            held.push(Arc::downgrade(&runs));
            runs
        })
        .collect()
}

/// Cuts runs in key order, the first starting at key 0 and each differing
/// in IAgent from the one before, into chunks: chunk `c`'s first run
/// starts at the chunk's first key, and the equal chunks of any two cuts
/// are shared.
fn recut(runs: &[(u64, IAgentId, NodeId)]) -> Box<[Arc<[Run]>]> {
    let run = |&(start, iagent, node): &(u64, IAgentId, NodeId)| Run {
        start,
        iagent,
        node,
    };
    let mut next = 0;
    let mut covering = run(&runs[0]);
    intern(|chunk| {
        let start = chunk_start(chunk);
        while next < runs.len() && runs[next].0 <= start {
            covering = run(&runs[next]);
            next += 1;
        }
        let mut cut = vec![Run { start, ..covering }];
        while next < runs.len() && runs[next].0 >> (64 - CHUNK_BITS) == chunk as u64 {
            covering = run(&runs[next]);
            cut.push(covering);
            next += 1;
        }
        cut
    })
}

/// What a tracker knows about its own leaf.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OwnLeaf {
    label: HyperLabel,
    buddy: Option<(AgentId, NodeId)>,
}

impl OwnLeaf {
    /// `me`'s facts under `hf`, or `None` when `me` is not one of its
    /// leaves.
    fn of(hf: &HashFunction, me: AgentId) -> Option<Self> {
        let label = hf.tree.hyper_label(IAgentId::new(me.raw())).ok()?;
        Some(OwnLeaf {
            label,
            buddy: hf.buddy_of(me),
        })
    }
}

/// One version's [`TrackerView`] as the HAgent sends it to one IAgent
/// ([`Wire::InstallView`](crate::Wire::InstallView)): the version and
/// leaf count, every run in key order as `(first key, IAgent, node)`, and
/// the receiver's own hyper-label and buddy — `None` when the receiver is
/// no longer a leaf. Built by [`TrackerView::image_for`], read back by
/// [`TrackerView::from_image`].
///
/// Decoding checks the runs: they start at key 0 and ascend strictly, so
/// every key has exactly one owner. `image_for` builds only such images,
/// so an in-process clone is what its text decodes to.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ViewImage {
    version: u64,
    leaves: usize,
    runs: Vec<(u64, IAgentId, NodeId)>,
    own: Option<OwnLeaf>,
}

impl ViewImage {
    /// The hash-function version this image carries.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many runs the image carries.
    #[must_use]
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }
}

impl Deserialize for ViewImage {
    fn deserialize(value: &serde::Value) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Fields {
            version: u64,
            leaves: usize,
            runs: Vec<(u64, IAgentId, NodeId)>,
            own: Option<OwnLeaf>,
        }
        let Fields {
            version,
            leaves,
            runs,
            own,
        } = Fields::deserialize(value)?;
        if runs.first().map(|&(start, ..)| start) != Some(0) {
            return Err(serde::Error::custom("ViewImage: runs must start at key 0"));
        }
        if runs.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(serde::Error::custom("ViewImage: runs must ascend"));
        }
        Ok(ViewImage {
            version,
            leaves,
            runs,
            own,
        })
    }
}

/// A lookup-only image of one [`HashFunction`] version, as one tracker
/// needs it. Every answer equals the full copy's: [`resolve`],
/// [`is_responsible`], and, for the tracker it was built for,
/// [`HashFunction::buddy_of`] and the leaf's hyper-label.
///
/// # Examples
///
/// ```
/// use agentrack_core::{HashFunction, TrackerView};
/// use agentrack_platform::{AgentId, NodeId};
///
/// let hf = HashFunction::initial(AgentId::new(3), NodeId::new(1));
/// let view = TrackerView::new(&hf, Some(AgentId::new(3)));
/// assert_eq!(view.resolve(AgentId::new(77)), hf.resolve(AgentId::new(77)));
/// assert!(view.is_responsible(AgentId::new(3), AgentId::new(77)));
/// assert!(view.own_label().is_some());
/// assert_eq!(view.buddy(), None); // a single leaf has no sibling
///
/// // What an install carries: the runs and the receiver's own facts.
/// let image = TrackerView::new(&hf, None).image_for(&hf, AgentId::new(3));
/// let installed = TrackerView::from_image(image.unwrap());
/// assert_eq!(installed.own_label(), view.own_label());
/// assert_eq!(installed.resolve(AgentId::new(77)), view.resolve(AgentId::new(77)));
/// ```
///
/// [`resolve`]: TrackerView::resolve
/// [`is_responsible`]: TrackerView::is_responsible
#[derive(Debug)]
pub struct TrackerView {
    version: u64,
    leaves: usize,
    index: Index,
    /// `None` when the view was built for no tracker, or for one that is
    /// not a leaf of this version.
    own: Option<OwnLeaf>,
}

impl TrackerView {
    /// Builds the view of `hf` for tracker `me` (`None`: for nobody in
    /// particular, as a fresh IAgent awaiting its first install needs).
    ///
    /// # Panics
    ///
    /// Panics if a leaf of the tree has no directory entry — an invariant
    /// the HAgent maintains ([`HashFunction::validate`]).
    #[must_use]
    pub fn new(hf: &HashFunction, me: Option<AgentId>) -> Self {
        let rebuilt;
        let compiled = if hf.compiled().is_current(&hf.tree) {
            hf.compiled()
        } else {
            rebuilt = CompiledDirectory::build(&hf.tree);
            &rebuilt
        };
        let index = match compiled.runs() {
            Some(runs) => {
                let runs: Vec<(u64, IAgentId, NodeId)> = runs
                    .iter()
                    .map(|&(start, ia)| {
                        let node = hf
                            .locations
                            .get(&ia)
                            .expect("hash tree leaf without a directory entry");
                        (start, ia, *node)
                    })
                    .collect();
                Index::Chunks(recut(&runs))
            }
            None => {
                let mut locations: Vec<(IAgentId, NodeId)> =
                    hf.locations.iter().map(|(&ia, &node)| (ia, node)).collect();
                locations.sort_unstable_by_key(|&(ia, _)| ia);
                Index::Walk {
                    tree: Box::new(hf.tree.clone()),
                    locations: locations.into(),
                }
            }
        };
        TrackerView {
            version: hf.version,
            leaves: hf.locations.len(),
            index,
            own: me.and_then(|me| OwnLeaf::of(hf, me)),
        }
    }

    /// The image tracker `me` installs this view from: its runs, merged
    /// across chunk boundaries, and `me`'s own facts under `hf`, the
    /// version this view was built from. `None` for a view that walks the
    /// tree, which has no runs.
    #[must_use]
    pub fn image_for(&self, hf: &HashFunction, me: AgentId) -> Option<ViewImage> {
        debug_assert_eq!(hf.version, self.version, "an image of another version");
        let Index::Chunks(chunks) = &self.index else {
            return None;
        };
        let mut runs: Vec<(u64, IAgentId, NodeId)> = Vec::new();
        for run in chunks.iter().flat_map(|chunk| chunk.iter()) {
            if runs
                .last()
                .is_some_and(|&(_, iagent, _)| iagent == run.iagent)
            {
                continue;
            }
            runs.push((run.start, run.iagent, run.node));
        }
        Some(ViewImage {
            version: self.version,
            leaves: self.leaves,
            runs,
            own: OwnLeaf::of(hf, me),
        })
    }

    /// The view an install image describes, sharing its chunks with every
    /// view that holds equal ones.
    #[must_use]
    pub fn from_image(image: ViewImage) -> Self {
        TrackerView {
            version: image.version,
            leaves: image.leaves,
            index: Index::Chunks(recut(&image.runs)),
            own: image.own,
        }
    }

    /// The hash-function version this view images.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of leaves (IAgents) in this version's tree.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves
    }

    /// The IAgent serving `target`'s key, and its node.
    fn owner(&self, target: AgentId) -> (IAgentId, NodeId) {
        let key = key_of(target);
        match &self.index {
            Index::Chunks(chunks) => {
                let runs = &chunks[(key.raw() >> (64 - CHUNK_BITS)) as usize];
                let run = runs[runs.partition_point(|run| run.start <= key.raw()) - 1];
                (run.iagent, run.node)
            }
            Index::Walk { tree, locations } => {
                let iagent = tree.lookup(key);
                let row = locations
                    .binary_search_by_key(&iagent, |&(ia, _)| ia)
                    .expect("hash tree leaf without a directory entry");
                locations[row]
            }
        }
    }

    /// The responsible IAgent for `target` and that IAgent's node; equal
    /// to [`HashFunction::resolve`].
    #[must_use]
    pub fn resolve(&self, target: AgentId) -> (AgentId, NodeId) {
        let (iagent, node) = self.owner(target);
        (AgentId::new(iagent.raw()), node)
    }

    /// `true` if `iagent` is responsible for `target` under this version;
    /// equal to [`HashFunction::is_responsible`].
    #[must_use]
    pub fn is_responsible(&self, iagent: AgentId, target: AgentId) -> bool {
        self.owner(target).0.raw() == iagent.raw()
    }

    /// The hyper-label of the tracker's own leaf, or `None` when it is not
    /// a leaf of this version (merged away, not yet split in, or the view
    /// was built for nobody).
    #[must_use]
    pub fn own_label(&self) -> Option<&HyperLabel> {
        self.own.as_ref().map(|own| &own.label)
    }

    /// The tracker's buddy replica: [`HashFunction::buddy_of`] itself,
    /// taken when the view was built.
    #[must_use]
    pub fn buddy(&self) -> Option<(AgentId, NodeId)> {
        self.own.as_ref().and_then(|own| own.buddy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agentrack_hashtree::{Side, SplitKind};

    fn split(hf: &mut HashFunction, leaf: IAgentId, new: u64) {
        let cand = hf
            .tree
            .split_candidates(leaf)
            .unwrap()
            .into_iter()
            .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
            .unwrap();
        hf.tree
            .apply_split(&cand, IAgentId::new(new), Side::Right)
            .unwrap();
        hf.locations
            .insert(IAgentId::new(new), NodeId::new(new as u32));
        hf.version += 1;
    }

    fn chunks_of(view: &TrackerView) -> &[Arc<[Run]>] {
        match &view.index {
            Index::Chunks(chunks) => chunks,
            Index::Walk { .. } => panic!("a walked view"),
        }
    }

    #[test]
    fn stale_compiled_runs_are_rebuilt_not_trusted() {
        let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        split(&mut hf, IAgentId::new(0), 1);
        // No recompile: the copy's own runs still say "all IA0".
        let view = TrackerView::new(&hf, Some(AgentId::new(1)));
        for raw in 0..256 {
            let agent = AgentId::new(raw);
            assert_eq!(view.resolve(agent), hf.resolve(agent));
        }
        assert_eq!(view.buddy(), Some((AgentId::new(0), NodeId::new(0))));
        assert_eq!(view.leaf_count(), 2);
        assert_eq!(view.version(), 2);
    }

    #[test]
    fn views_share_the_chunks_a_split_leaves_alone() {
        // Split breadth first, oldest leaf first: a balanced tree.
        let mut hf = HashFunction::initial(AgentId::new(1 << 40), NodeId::new(70_000));
        let mut queue = std::collections::VecDeque::from([IAgentId::new(1 << 40)]);
        for new in 1..=40 {
            let leaf = queue.pop_front().unwrap();
            split(&mut hf, leaf, (1 << 40) + new);
            queue.extend([leaf, IAgentId::new((1 << 40) + new)]);
        }
        hf.recompile();
        let leaves: Vec<IAgentId> = hf.tree.iagents().collect();
        let (a, b) = (leaves[0], leaves[1]);
        let left = TrackerView::new(&hf, Some(AgentId::new(a.raw())));
        let right = TrackerView::new(&hf, Some(AgentId::new(b.raw())));
        // One version: every chunk shared.
        assert!(chunks_of(&left)
            .iter()
            .zip(chunks_of(&right))
            .all(|(l, r)| Arc::ptr_eq(l, r)));
        assert_ne!(left.own_label(), right.own_label());

        // The next version shares every chunk but the split leaf's.
        let before = hf.clone();
        let leaf = hf.tree.iagents().max().unwrap();
        split(&mut hf, leaf, 1 << 41);
        hf.recompile();
        let next = TrackerView::new(&hf, None);
        let changed = chunks_of(&left)
            .iter()
            .zip(chunks_of(&next))
            .filter(|(l, n)| !Arc::ptr_eq(l, n))
            .count();
        assert!(
            (1..CHUNKS / 4).contains(&changed),
            "{changed} chunks changed"
        );
        for raw in 0..4096 {
            let agent = AgentId::new(raw * 0x9e37_79b9);
            assert_eq!(left.resolve(agent), before.resolve(agent));
            assert_eq!(next.resolve(agent), hf.resolve(agent));
        }
    }

    #[test]
    fn a_view_from_an_image_shares_every_chunk_of_its_version() {
        let mut hf = HashFunction::initial(AgentId::new(1 << 40), NodeId::new(70_000));
        let mut queue = std::collections::VecDeque::from([IAgentId::new(1 << 40)]);
        for new in 1..=40 {
            let leaf = queue.pop_front().unwrap();
            split(&mut hf, leaf, (1 << 40) + new);
            queue.extend([leaf, IAgentId::new((1 << 40) + new)]);
        }
        hf.recompile();
        let me = AgentId::new(hf.tree.iagents().nth(7).unwrap().raw());
        let primary = TrackerView::new(&hf, None);
        let installed = TrackerView::from_image(primary.image_for(&hf, me).unwrap());
        assert!(chunks_of(&primary)
            .iter()
            .zip(chunks_of(&installed))
            .all(|(p, i)| Arc::ptr_eq(p, i)));
        let built = TrackerView::new(&hf, Some(me));
        assert_eq!(installed.own_label(), built.own_label());
        assert_eq!(installed.buddy(), built.buddy());
        assert_eq!(installed.leaf_count(), 41);
    }

    #[test]
    fn a_tracker_that_is_not_a_leaf_has_no_own_facts() {
        let hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
        let view = TrackerView::new(&hf, Some(AgentId::new(9)));
        assert_eq!(view.own_label(), None);
        assert_eq!(view.buddy(), None);
        assert!(TrackerView::new(&hf, None).own_label().is_none());
    }
}
