//! # agentrack-hashtree
//!
//! The dynamic (extendible) hash tree at the heart of the scalable
//! hash-based mobile-agent location mechanism of Kastidou, Pitoura and
//! Samaras (ICDCSW 2003).
//!
//! A mobile-agent system needs to *locate* agents as they roam: given an
//! agent's id, find the node it currently executes on. The paper assigns
//! each agent to an **Information Agent (IAgent)** that tracks its precise
//! location, and determines the assignment with a dynamic hash function over
//! the binary representation of the agent's id. This crate implements that
//! hash function's representation — the **hash tree** — and its rehashing
//! operations (simple/complex split and merge), as a pure data structure
//! with no I/O, suitable both for the protocol engine in `agentrack-core`
//! and for standalone study.
//!
//! ## Concepts
//!
//! * [`AgentKey`] — the binary representation of an agent id (64 bits,
//!   consumed most-significant first).
//! * [`Label`] — an edge label: a *valid bit* (which selects the left/`0` or
//!   right/`1` child) followed by recorded-but-ignored *unused* bits.
//! * [`HyperLabel`] — the concatenation of labels from the root to a node;
//!   an agent key is served by the leaf whose hyper-label it is *compatible*
//!   with.
//! * [`HashTree`] — the tree itself: total key→IAgent mapping, split
//!   candidate enumeration, split/merge application, invariant validation.
//!
//! ## Example
//!
//! ```
//! use agentrack_hashtree::{AgentKey, HashTree, IAgentId, Side, SplitKind};
//!
//! let mut tree = HashTree::new(IAgentId::new(0));
//!
//! // Overloaded? Enumerate split candidates in the paper's order and apply
//! // one (here: the first simple split, branching on key bit 0).
//! let candidates = tree.split_candidates(IAgentId::new(0))?;
//! let first_simple = candidates
//!     .iter()
//!     .find(|c| matches!(c.kind, SplitKind::Simple { m: 1 }))
//!     .unwrap();
//! tree.apply_split(first_simple, IAgentId::new(1), Side::Right)?;
//!
//! assert_eq!(tree.iagent_count(), 2);
//! assert_eq!(tree.lookup(AgentKey::new(0)), IAgentId::new(0));
//! assert_eq!(tree.lookup(AgentKey::new(u64::MAX)), IAgentId::new(1));
//!
//! // Underloaded? Merge the new IAgent back away.
//! let merged = tree.apply_merge(IAgentId::new(1))?;
//! assert_eq!(merged.absorbers, vec![IAgentId::new(0)]);
//! assert_eq!(tree.lookup(AgentKey::new(u64::MAX)), IAgentId::new(0));
//! # Ok::<(), agentrack_hashtree::TreeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod bits;
pub mod compiled;
mod error;
mod key;
mod label;
mod shape;
pub mod tree;

pub use bits::{Bits, ParseBitsError, MAX_BITS};
pub use compiled::{CompiledDirectory, MAX_RUNS_PER_LEAF};
pub use error::TreeError;
pub use key::{AgentKey, KEY_BITS};
pub use label::{HyperLabel, Label, ParseLabelError};
pub use shape::TreeShape;
pub use tree::{
    HashTree, IAgentId, MergeApplied, MergeKind, NodeId, PrefixRegion, Side, SplitApplied,
    SplitCandidate, SplitKind,
};
