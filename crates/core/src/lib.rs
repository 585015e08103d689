//! # agentrack-core
//!
//! The scalable hash-based mobile-agent location mechanism of Kastidou,
//! Pitoura and Samaras (ICDCSW 2003), implemented as behaviours on the
//! `agentrack-platform` mobile-agent platform, plus the baseline schemes it
//! is evaluated against.
//!
//! ## The mechanism
//!
//! * **IAgents** ([`IAgentBehavior`]) track the precise current location of
//!   the mobile agents the hash function assigns to them, keep per-agent
//!   request statistics, and request splits/merges when their observed
//!   message rate crosses `T_max`/`T_min`.
//! * The **HAgent** ([`HAgentBehavior`]) owns the primary copy of the
//!   [`HashFunction`] (the extendible hash tree plus the IAgent directory)
//!   and serialises rehash operations, planning even splits from the
//!   requester's load statistics ([`plan_split`]).
//! * **LHAgents** ([`LHAgentBehavior`]) hold lazily updated secondary
//!   copies, refreshed on demand when a client detects staleness via a
//!   `NotResponsible` answer.
//! * [`HashedScheme`] bootstraps the cast and hands out [`HashedClient`]
//!   state machines that mobile agents embed for registration, movement
//!   updates and two-phase locates.
//!
//! ## Baselines
//!
//! * [`CentralizedScheme`] — the paper's comparator: one tracker for the
//!   whole system.
//! * `HomeRegistryScheme` / `ForwardingScheme` — Ajanta-like and
//!   Voyager-like schemes from the paper's related-work section, used by
//!   the extended baseline panel experiment.
//!
//! All schemes implement [`LocationScheme`] and their clients implement
//! [`DirectoryClient`], so workloads and experiments are scheme-agnostic.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

mod centralized;
mod config;
mod forwarding;
mod geo;
mod hagent;
mod hashed;
mod hashfn;
mod home;
mod iagent;
mod lhagent;
mod locality;
mod mailbox;
mod pending;
mod plan;
mod records;
mod rehash;
mod replica;
mod retry;
mod scheme;
mod stats;
mod tracker_metrics;
mod view;
mod wire;

pub use centralized::{CentralBehavior, CentralizedClient, CentralizedScheme};
pub use config::LocationConfig;
pub use forwarding::{ForwarderBehavior, ForwardingClient, ForwardingScheme};
pub use geo::{ReachabilityMap, RegionState};
pub use hagent::{HAgentBehavior, StandbyHAgentBehavior};
pub use hashed::{HashedClient, HashedScheme};
pub use hashfn::{key_of, DeltaError, HashFunction, RehashLog, RehashOp};
pub use home::{HomeRegistryBehavior, HomeRegistryClient, HomeRegistryScheme};
pub use iagent::IAgentBehavior;
pub use lhagent::LHAgentBehavior;
pub use mailbox::{MailItem, Mailbox, MAIL_MAX_HOPS};
pub use plan::{plan_split, PlanError, SplitPlan};
pub use scheme::{
    ClientEvent, ClientFactory, CopyRole, DirectoryClient, LocationScheme, SchemeStats,
    SharedSchemeStats,
};
pub use stats::LoadStats;
pub use tracker_metrics::{TrackerMetrics, TrackerRows};
pub use view::{TrackerView, ViewImage};
pub use wire::{DenyReason, Freshness, Wire};
