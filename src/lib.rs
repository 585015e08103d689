//! # agentrack
//!
//! A scalable hash-based mobile-agent location mechanism — a faithful,
//! from-scratch reproduction of *"A Scalable Hash-Based Mobile Agent
//! Location Mechanism"* (Kastidou, Pitoura, Samaras; ICDCS Workshops 2003),
//! together with the mobile-agent platform it runs on, the baseline schemes
//! it is evaluated against, and the complete experiment harness that
//! regenerates the paper's figures.
//!
//! ## The problem
//!
//! Mobile agents migrate between network nodes while they work. To send a
//! message to an agent you must know *where it currently is* — so every
//! mobile-agent system needs a location mechanism, and that mechanism must
//! scale with the number of agents, their mobility rate, and the query
//! rate.
//!
//! ## The mechanism
//!
//! Agents are assigned to **Information Agents (IAgents)** by a dynamic
//! *extendible hash function* over their ids, represented as a **hash
//! tree** ([`hashtree`]). Each IAgent tracks the precise location of its
//! assigned agents and watches its own request rate: above `T_max` it asks
//! the central **HAgent** (owner of the hash function's primary copy) to
//! *split* its load to a newly created IAgent; below `T_min` it asks to be
//! *merged* away. Per-node **LHAgents** hold lazily refreshed secondary
//! copies for cheap local resolution; staleness is detected on use and
//! repaired on demand.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |---|---|
//! | [`hashtree`] | The extendible hash tree: labels, hyper-labels, simple/complex split, merge |
//! | [`sim`] | Deterministic discrete-event kernel: virtual time, LAN model, service stations |
//! | [`platform`] | The mobile-agent platform (Aglets-style lifecycle, messaging, migration) |
//! | [`core`] | IAgent / HAgent / LHAgent behaviours, client state machines, baseline schemes |
//! | [`workload`] | TAgents, queriers, scenario runner, experiment metrics |
//! | [`trace_analysis`] | Causal span trees, critical-path latency attribution, trace exporters |
//!
//! ## Quickstart
//!
//! ```
//! use agentrack::core::{HashedScheme, LocationConfig};
//! use agentrack::workload::{RunOptions, Scenario};
//!
//! // 30 agents roaming a 16-node LAN; 50 location queries.
//! let scenario = Scenario::new("quickstart")
//!     .with_agents(30)
//!     .with_queries(50)
//!     .with_seconds(8.0, 4.0);
//! let mut scheme = HashedScheme::new(LocationConfig::default());
//! let report = scenario.run_with(&mut scheme, RunOptions::new()).report;
//! assert!(report.completion_ratio() > 0.9);
//! println!("mean location time: {:.2} ms", report.mean_locate_ms);
//! ```
//!
//! Runnable examples live under `examples/`; the `scenario_lab` binary
//! in `agentrack-bench` regenerates every figure of the paper's
//! evaluation from `specs/*.json` (see `EXPERIMENTS.md`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use agentrack_core as core;
pub use agentrack_hashtree as hashtree;
pub use agentrack_platform as platform;
pub use agentrack_sim as sim;
pub use agentrack_trace_analysis as trace_analysis;
pub use agentrack_workload as workload;
