//! What one tracker's copy of the hash function costs in memory, counted
//! by a global allocator. Every IAgent holds one, so at n leaves the
//! trackers together hold n of them: the first view of a version must not
//! grow like a whole copy, and every later one must share its directory.
//!
//! One test only: the allocator counts every thread of the binary, and a
//! second test running alongside would show up in the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use agentrack_core::{key_of, plan_split, HashFunction, LocationConfig, TrackerView, Wire};
use agentrack_hashtree::IAgentId;
use agentrack_platform::{AgentId, NodeId};

/// Bytes currently allocated through the global allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Leaves of the measured tree.
const LEAVES: usize = 600;
/// Agents spread over them, each with the same load.
const AGENTS: u64 = 30_000;
/// The most a tracker's view of a `LEAVES`-leaf tree may hold.
const VIEW_BUDGET_BYTES: usize = 20 * 1024;
/// The most a second tracker's view of the same version may add: its own
/// leaf's facts and a pointer per shared chunk, not another copy of the
/// runs.
const SHARED_VIEW_BUDGET_BYTES: usize = 1024;

/// Runs `build` and returns its value with the bytes it left allocated.
fn held_by<T>(build: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::SeqCst);
    let value = build();
    (value, LIVE.load(Ordering::SeqCst) - before)
}

/// A `LEAVES`-leaf hash function grown the way the HAgent grows one under
/// uniform traffic: the busiest leaf splits, where `plan_split` divides
/// its agents most evenly.
fn grown() -> HashFunction {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let config = LocationConfig::default();
    let mut served: HashMap<IAgentId, Vec<(AgentId, u64)>> = HashMap::new();
    served.insert(
        IAgentId::new(0),
        (0..AGENTS).map(|raw| (AgentId::new(raw), 1)).collect(),
    );
    let mut next = 1000u64;
    while hf.tree.iagent_count() < LEAVES {
        let busiest = *served
            .iter()
            .max_by_key(|(ia, loads)| (loads.len(), **ia))
            .unwrap()
            .0;
        let plan = plan_split(&hf.tree, busiest, &served[&busiest], &config).unwrap();
        let new = IAgentId::new(next);
        let applied = hf
            .tree
            .apply_split(&plan.candidate, new, plan.new_side)
            .unwrap();
        hf.locations.insert(new, NodeId::new((next % 16) as u32));
        hf.version += 1;
        next += 1;
        // Re-home the agents of every leaf the split touched.
        let moved: Vec<(AgentId, u64)> = applied
            .affected
            .iter()
            .flat_map(|ia| served.remove(ia).unwrap_or_default())
            .collect();
        for (agent, load) in moved {
            let owner = hf.tree.lookup(key_of(agent));
            served.entry(owner).or_default().push((agent, load));
        }
    }
    hf.recompile();
    hf
}

#[test]
fn a_tracker_view_of_600_leaves_fits_its_budget() {
    let payload = Wire::InstallHashFn { hf: grown() }.payload();
    // What an IAgent used to keep: the decoded copy itself.
    let (decoded, copy_bytes) = held_by(|| match Wire::from_payload(&payload) {
        Some(Wire::InstallHashFn { hf }) => hf,
        other => panic!("not an install: {other:?}"),
    });
    let mut leaves = decoded.tree.iagents().map(|ia| AgentId::new(ia.raw()));
    let (me, peer) = (leaves.next().unwrap(), leaves.next().unwrap());
    let (view, view_bytes) = held_by(|| TrackerView::new(&decoded, Some(me)));
    let (peer_view, peer_bytes) = held_by(|| TrackerView::new(&decoded, Some(peer)));
    println!(
        "{LEAVES} leaves, {} compiled runs: decoded copy {copy_bytes} B, \
         first tracker view {view_bytes} B, second {peer_bytes} B",
        decoded.compiled().runs().map_or(0, <[_]>::len)
    );
    assert_eq!(view.leaf_count(), LEAVES);
    assert!(
        view_bytes <= VIEW_BUDGET_BYTES,
        "a {LEAVES}-leaf view holds {view_bytes} B, budget {VIEW_BUDGET_BYTES} B"
    );
    assert!(
        view_bytes * 4 < copy_bytes,
        "the view ({view_bytes} B) must be far smaller than a copy ({copy_bytes} B)"
    );
    assert_eq!(peer_view.leaf_count(), LEAVES);
    assert!(
        peer_bytes <= SHARED_VIEW_BUDGET_BYTES,
        "a second view of the same version holds {peer_bytes} B, \
         budget {SHARED_VIEW_BUDGET_BYTES} B"
    );
}
