//! What one in-process message costs the allocator. The simulator hands
//! the message itself from sender to receiver: encoding a locate is one
//! allocation (the value and its text cache, behind one `Arc`), decoding
//! it is none, and the last clone dropped frees it. An extra copy, or a
//! data-model tree built on the way, fails this without any timing.
//!
//! One test only: the allocator counts every thread of the binary, and a
//! second test running alongside would show up in the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicUsize, Ordering};

use agentrack_core::{Freshness, Wire};
use agentrack_platform::{AgentId, CorrId, NodeId, Payload};

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            ALLOCS.fetch_add(1, Ordering::SeqCst);
            BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        FREES.fetch_add(1, Ordering::SeqCst);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What running `f` cost: its value, and the allocations, frees and
/// bytes allocated on the way.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize, usize) {
    let (allocs, frees, bytes) = (
        ALLOCS.load(Ordering::SeqCst),
        FREES.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    let value = f();
    (
        value,
        ALLOCS.load(Ordering::SeqCst) - allocs,
        FREES.load(Ordering::SeqCst) - frees,
        BYTES.load(Ordering::SeqCst) - bytes,
    )
}

#[test]
fn an_in_process_locate_is_one_allocation_and_decodes_without_any() {
    let locate = Wire::Locate {
        target: AgentId::new(7),
        token: 42,
        reply_node: NodeId::new(1),
        freshness: Freshness::BoundedMs(500),
        corr: Some(CorrId::new(3, 42)),
    };

    let (payload, allocs, frees, bytes) = counted(|| locate.payload());
    assert_eq!(
        (allocs, frees),
        (1, 0),
        "encoding allocates the message once"
    );
    let (sent, allocs, ..) = counted(|| payload.clone());
    assert_eq!(allocs, 0, "a clone shares the message");

    let (decoded, allocs, frees, _) = counted(|| Wire::from_payload(&sent));
    assert_eq!((allocs, frees), (0, 0), "decoding copies the message out");
    assert_eq!(decoded.as_ref(), Some(&locate));

    let ((), _, frees, _) = counted(|| drop(sent));
    assert_eq!(
        frees, 0,
        "a clone dropped while another lives frees nothing"
    );
    let ((), _, frees, _) = counted(|| drop(payload));
    assert_eq!(frees, 1, "the last clone dropped frees the message");

    println!(
        "in-process Locate: 1 allocation of {bytes} B (size_of::<Wire>() = {} B, size_of::<Payload>() = {} B)",
        size_of::<Wire>(),
        size_of::<Payload>()
    );
}
