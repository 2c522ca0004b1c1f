//! # `stringfigure`
//!
//! A Rust reproduction of **String Figure: A Scalable and Elastic Memory
//! Network Architecture** (Ogleari, Yu, Qian, Miller, Zhao — HPCA 2019).
//!
//! String Figure interconnects hundreds to ~1300 3D die-stacked memory nodes
//! with a *balanced random multi-space topology*, routes packets with a
//! *compute+table hybrid greediest protocol* whose per-router state is
//! independent of network size, and supports *elastic reconfiguration*
//! (power gating and static expansion/reduction) without regenerating the
//! network.
//!
//! This crate is the user-facing facade over the workspace:
//!
//! * [`StringFigureNetwork`] / [`StringFigureBuilder`] — build a network,
//!   route packets, inspect path lengths and routing-table costs, gate and
//!   un-gate nodes, and run cycle-level simulations.
//! * [`PowerManager`] — dynamic scale-down/up with the paper's
//!   reconfiguration sequence and sleep/wake latencies.
//! * [`TopologyKind`] / [`NetworkInstance`] — uniform access to every
//!   baseline design the paper compares against (DM, ODM, FB, AFB, S2-ideal,
//!   Jellyfish).
//! * [`study`] — the unified experiment API: the [`Study`] trait, the
//!   builder-style [`RunContext`] (pool, cache, scale, emitters,
//!   checkpoint/resume), and the [`StudyRegistry`] of the eight paper
//!   artefacts and four scenario studies that the `sfbench` CLI
//!   multiplexes over. Each study's row type, driver and [`Study`] impl
//!   share one module, e.g. [`study::fig10`].
//! * [`experiments`] — the helpers the study drivers share: the
//!   [`ExperimentScale`](experiments::ExperimentScale) policy and the
//!   single-simulation building blocks.
//!
//! ## Quick start
//!
//! ```
//! use stringfigure::StringFigureNetwork;
//! use sf_types::NodeId;
//!
//! // A 128-node memory network with 4-port routers (1 TB at 8 GiB/node).
//! let network = StringFigureNetwork::generate(128)?;
//! let route = network.route(NodeId::new(3), NodeId::new(97))?;
//! assert!(!route.has_loop());
//! assert!(network.path_stats().average < 6.0);
//! # Ok::<(), sf_types::SfError>(())
//! ```
//!
//! ## Crates underneath
//!
//! | crate | contents |
//! |-------|----------|
//! | `sf-types`     | ids, coordinates, configuration, deterministic RNG |
//! | `sf-topology`  | String Figure topology, baselines, graph analysis |
//! | `sf-routing`   | greediest routing, mesh routing, table routing |
//! | `sf-netsim`    | cycle-level simulator, DRAM model, energy accounting |
//! | `sf-workloads` | traffic patterns, application models, cache filter |

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![forbid(unsafe_code)]

pub mod comparison;
pub mod experiments;
pub mod network;
pub mod power;
pub mod study;

pub use comparison::{NetworkInstance, TopologyKind};
pub use network::{StringFigureBuilder, StringFigureNetwork};
pub use power::{PowerManager, PowerReport, ReconfigurationEvent};
pub use study::{RunContext, Study, StudyGrid, StudyRegistry};

// Re-export the underlying crates so downstream users need a single
// dependency.
pub use sf_netsim as netsim;
pub use sf_routing as routing;
pub use sf_topology as topology;
pub use sf_types as types;
pub use sf_workloads as workloads;
