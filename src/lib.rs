//! # bedom — Distributed Domination on Graph Classes of Bounded Expansion
//!
//! An implementation and experimental reproduction of the SPAA 2018 paper
//! *"Distributed Domination on Graph Classes of Bounded Expansion"*
//! (Akhoondian Amiri, Ossona de Mendez, Rabinovich, Siebertz).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`graph`] (`bedom-graph`) — CSR graphs, generators for every class the
//!   paper names, BFS/distance utilities, exact and greedy reference solvers;
//! * [`distsim`] (`bedom-distsim`) — the LOCAL / CONGEST / CONGEST_BC
//!   synchronous simulator with bandwidth enforcement and round accounting;
//! * [`wcol`] (`bedom-wcol`) — linear orders, weak reachability, weak
//!   colouring numbers, sparse neighbourhood covers, and the distributed
//!   order computation;
//! * [`core`] (`bedom-core`) — the paper's algorithms (Theorems 5, 8, 9, 10
//!   and 17); the standalone Theorem 8–10 entry points share one config,
//!   `DistDomSetConfig`, and `DominationPipeline` is the one-call layer;
//! * [`baselines`] (`bedom-baselines`) — greedy, Dvořák-style, Lenzen et al.
//!   planar, Kutten–Peleg and bucketed-greedy comparison algorithms.
//!
//! ## Quick start
//!
//! ```
//! use bedom::core::{approximate_distance_domination, distributed_distance_domination, DistDomSetConfig};
//! use bedom::graph::generators::stacked_triangulation;
//! use bedom::graph::domset::is_distance_dominating_set;
//!
//! let g = stacked_triangulation(500, 42);
//! let r = 2;
//!
//! // Sequential Theorem 5.
//! let seq = approximate_distance_domination(&g, r);
//! assert!(is_distance_dominating_set(&g, &seq.dominating_set, r));
//!
//! // Distributed Theorem 9 (CONGEST_BC simulation).
//! let dist = distributed_distance_domination(&g, DistDomSetConfig::new(r)).unwrap();
//! assert!(is_distance_dominating_set(&g, &dist.dominating_set, r));
//! ```

pub use bedom_baselines as baselines;
pub use bedom_core as core;
pub use bedom_distsim as distsim;
pub use bedom_graph as graph;
pub use bedom_wcol as wcol;
