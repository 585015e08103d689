//! What a copy of the hash function costs the allocator when its tree
//! branches deep. The HAgent, the standby and every LHAgent hold a whole
//! copy, and the simulator hands one over in process by cloning it, so a
//! clone, and a decode that clones the value sent, must cost about what
//! the tree itself holds: nothing may grow with `2^d`, where `d` is the
//! deepest branch bit. Both trees here branch at key bit 22, so `d` is 23,
//! and a flat `2^d` table of 8-byte slots would be 64 MiB.
//!
//! One test only: the allocator counts every thread of the binary, and a
//! second test running alongside would show up in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use agentrack_core::{HashFunction, RehashOp, Wire};
use agentrack_hashtree::{AgentKey, IAgentId, Side, SplitKind};
use agentrack_platform::{AgentId, NodeId};

static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes allocated while running `f`, and its value.
fn allocated<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = BYTES.load(Ordering::SeqCst);
    let value = f();
    (value, BYTES.load(Ordering::SeqCst) - before)
}

/// The most bytes a clone or an in-process decode of a copy of a few
/// dozen leaves may allocate. The tree, its directory and its runs take
/// a few KiB; a `2^23`-slot table alone is 64 MiB.
const COPY_BUDGET_BYTES: usize = 64 * 1024;

/// Splits the leaf serving `key` on its simple candidate `m`, the way the
/// HAgent commits a split.
fn split(hf: &mut HashFunction, key: AgentKey, m: usize, next: &mut u64) {
    let requester = hf.tree.lookup(key);
    let cand = hf
        .tree
        .split_candidates(requester)
        .unwrap()
        .into_iter()
        .find(|c| c.kind == SplitKind::Simple { m })
        .unwrap();
    hf.apply(&RehashOp::Split {
        requester,
        key_bit: cand.key_bit,
        new_iagent: IAgentId::new(*next),
        side: Side::Right,
        node: NodeId::new((*next % 8) as u32),
    })
    .unwrap();
    *next += 1;
}

/// A comb of simple splits two bits deep, and one bit deep at its end:
/// each of the first eleven leaves one more key bit free above its branch,
/// so the deepest leaves' keys fall into 2^11 runs each, and the last
/// branches on key bit 22.
fn fragmented() -> HashFunction {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut next = 1;
    for _ in 0..11 {
        split(&mut hf, AgentKey::new(0), 2, &mut next);
    }
    split(&mut hf, AgentKey::new(0), 1, &mut next);
    hf
}

/// A comb 23 splits deep: one run a leaf, and the deepest branch on key
/// bit 22.
fn comb() -> HashFunction {
    let mut hf = HashFunction::initial(AgentId::new(0), NodeId::new(0));
    let mut next = 1;
    for _ in 0..23 {
        split(&mut hf, AgentKey::new(0), 1, &mut next);
    }
    hf
}

#[test]
fn a_deep_copy_clones_and_decodes_without_a_2_to_the_d_table() {
    for (name, hf) in [("fragmented", fragmented()), ("comb", comb())] {
        hf.validate().unwrap();
        let (copy, clone_bytes) = allocated(|| hf.clone());
        assert_eq!(copy, hf);
        let payload = Wire::InstallHashFn { hf: hf.clone() }.payload();
        let (decoded, decode_bytes) = allocated(|| Wire::from_payload(&payload));
        match decoded {
            Some(Wire::InstallHashFn { hf: copy }) => assert_eq!(copy, hf),
            other => panic!("the install did not round-trip: {other:?}"),
        }
        println!(
            "{name}: {} leaves, {} runs; clone {clone_bytes} B, in-process decode {decode_bytes} B",
            hf.tree.iagent_count(),
            hf.tree.run_count()
        );
        assert!(
            clone_bytes <= COPY_BUDGET_BYTES,
            "{name}: a clone allocated {clone_bytes} B, budget {COPY_BUDGET_BYTES} B"
        );
        assert!(
            decode_bytes <= COPY_BUDGET_BYTES,
            "{name}: an in-process decode allocated {decode_bytes} B, budget {COPY_BUDGET_BYTES} B"
        );
    }
}
