//! The shared precompute substrate of the distributed stack.
//!
//! Every distributed pipeline in this crate (Theorems 8, 9 and 10) has the
//! same prefix: run the order phase once, run the weak-reachability protocol
//! of Lemma 7 once at the *largest* radius any later phase will query, and
//! then answer every analysis question — witnessed constants, expected
//! elections, cover homes, verification — from that shared state. Before
//! this module each entry point re-ran the prefix for itself and every
//! simulation-side check re-swept weak reachability from scratch; a
//! [`DistContext`] runs each piece **once** and hands it out by reference:
//!
//! * the **order phase** (`bedom_wcol::distributed`) runs eagerly in
//!   [`DistContext::elect`] — everything downstream needs the order;
//! * the **weak-reachability protocol** ([`crate::dist_wreach`]) runs lazily
//!   on first use and is cached, so a domination run, a cover and the
//!   connected variant built on one context share a single protocol
//!   execution;
//! * the **[`WReachIndex`]** over the elected order is built lazily at
//!   [`DistContext::max_radius`] — **one ball sweep, ever** — and serves the
//!   witnessed constant (`wcol_2r` of the elected order), the expected
//!   sequential election `min WReach_r`, and any other simulation-side
//!   verification as `O(1)` CSR-slice reads at every radius up to the build
//!   radius. Pipelines that never ask an analysis question never pay for the
//!   sweep.
//!
//! The regression contract (asserted in `tests/end_to_end_pipelines.rs`):
//! one end-to-end distributed [`DominationPipeline::solve`](crate::DominationPipeline::solve)
//! (`crate::pipeline`), including witnessed-constant computation and
//! election verification, performs **exactly one** ball sweep, where
//! assembling the same report from the pre-context entry points took three
//! (constant, election check, cover home — one sweep each).

use crate::dist_wreach::{distributed_weak_reachability, DistributedWReach, WReachConfig};
use bedom_distsim::{ExecutionStrategy, IdAssignment, Model, ModelViolation, RunStats};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::{
    default_threshold, distributed_wcol_order_with, DistributedOrder, LinearOrder, SidLookup,
    WReachIndex,
};
use std::cell::OnceCell;

/// Configuration of a [`DistContext`] (the knobs shared by every phase).
#[derive(Clone, Copy, Debug)]
pub struct DistContextConfig {
    /// The largest reach radius any phase will query: the weak-reachability
    /// protocol runs `max_radius` rounds and the lazy index is built at this
    /// radius. Theorem 9 needs `2r`, Theorem 10 needs `2r + 1`.
    pub max_radius: u32,
    /// Identifier assignment used by the order phase.
    pub assignment: IdAssignment,
    /// Bandwidth multiplier for the protocol phases (`None` = measure only;
    /// see [`WReachConfig::bandwidth_logs`]).
    pub bandwidth_logs: Option<usize>,
    /// Engine execution strategy for every phase and for the index build
    /// (sequential and parallel are bit-identical).
    pub strategy: ExecutionStrategy,
}

impl DistContextConfig {
    /// Defaults at the given reach radius: shuffled ids, unenforced
    /// bandwidth, size-gated automatic execution strategy.
    pub fn new(max_radius: u32) -> Self {
        DistContextConfig {
            max_radius,
            assignment: IdAssignment::Shuffled(0x5eed),
            bandwidth_logs: None,
            strategy: ExecutionStrategy::Auto,
        }
    }

    /// The radius a plain distance-`r` domination run needs (`2r`).
    pub fn for_domination(r: u32) -> Self {
        DistContextConfig::new(2 * r)
    }

    /// The radius the connected variant needs (`2r + 1`).
    pub fn for_connected_domination(r: u32) -> Self {
        DistContextConfig::new(2 * r + 1)
    }
}

/// The shared precompute state of one distributed run: the graph, the
/// elected order (with its protocol statistics), a lazily-run-once
/// weak-reachability protocol execution, and a lazily-built-once
/// [`WReachIndex`]. See the module docs for the sharing contract.
pub struct DistContext<'g> {
    graph: &'g Graph,
    config: DistContextConfig,
    order_phase: DistributedOrder,
    sid_lookup: SidLookup,
    id_bits: usize,
    wreach: OnceCell<DistributedWReach>,
    index: OnceCell<WReachIndex>,
}

impl std::fmt::Debug for DistContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistContext")
            .field("num_vertices", &self.graph.num_vertices())
            .field("config", &self.config)
            .field("id_bits", &self.id_bits)
            .field("wreach_ran", &self.wreach.get().is_some())
            .field("index_built", &self.index.get().is_some())
            .finish_non_exhaustive()
    }
}

impl<'g> DistContext<'g> {
    /// Runs the order phase (the Theorem 3 substitute) on `graph` and wraps
    /// the result as the context every later phase reads from.
    pub fn elect(graph: &'g Graph, config: DistContextConfig) -> Result<Self, ModelViolation> {
        let order_phase = distributed_wcol_order_with(
            graph,
            default_threshold(graph),
            config.assignment,
            config.strategy,
        )?;
        let sid_lookup = order_phase.sid_lookup();
        // Super-ids fit in O(log n) bits: they are bounded by (phases+1)·n.
        let id_bits = bedom_distsim::log2_ceil(graph.num_vertices().max(2).pow(2)) + 8;
        Ok(DistContext {
            graph,
            config,
            order_phase,
            sid_lookup,
            id_bits,
            wreach: OnceCell::new(),
            index: OnceCell::new(),
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// The largest radius any phase of this context may query.
    pub fn max_radius(&self) -> u32 {
        self.config.max_radius
    }

    /// The execution strategy every phase runs with.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.config.strategy
    }

    /// The identifier assignment the context's phases run with.
    pub fn assignment(&self) -> IdAssignment {
        self.config.assignment
    }

    /// The communication model protocol phases run under (scaled CONGEST_BC
    /// when bandwidth enforcement is on, LOCAL when only measuring).
    pub fn model(&self) -> Model {
        match self.config.bandwidth_logs {
            Some(k) => Model::congest_bc_scaled(k),
            None => Model::Local,
        }
    }

    /// Bits charged per super-id on the wire.
    pub fn id_bits(&self) -> usize {
        self.id_bits
    }

    /// The linear order elected by the order phase.
    pub fn order(&self) -> &LinearOrder {
        &self.order_phase.order
    }

    /// The per-vertex super-ids (position keys) inducing the order.
    pub fn super_ids(&self) -> &[u64] {
        &self.order_phase.super_ids
    }

    /// Rounds used by the order phase.
    pub fn order_rounds(&self) -> usize {
        self.order_phase.rounds
    }

    /// Statistics of the order phase.
    pub fn order_stats(&self) -> &RunStats {
        &self.order_phase.stats
    }

    /// Resolves a protocol super-id back to its graph vertex (`O(log n)`; a
    /// local renaming, not a network step).
    pub fn vertex_of_sid(&self, sid: u64) -> Option<Vertex> {
        self.sid_lookup.vertex_of(sid)
    }

    /// The weak-reachability protocol execution (Lemma 7) at
    /// [`DistContext::max_radius`]. Runs the protocol on first call and
    /// caches it; later calls — from the same pipeline or from another phase
    /// sharing this context — are free.
    pub fn wreach(&self) -> Result<&DistributedWReach, ModelViolation> {
        if self.wreach.get().is_none() {
            let result = if self.graph.num_vertices() == 0 {
                DistributedWReach {
                    info: Vec::new(),
                    rounds: 0,
                    stats: RunStats::default(),
                }
            } else {
                distributed_weak_reachability(
                    self.graph,
                    self.super_ids(),
                    WReachConfig {
                        rho: self.config.max_radius,
                        bandwidth_logs: self.config.bandwidth_logs,
                        strategy: self.config.strategy,
                    },
                )?
            };
            // A concurrent set is impossible (&self is !Sync via OnceCell);
            // ignore the Err the API forces us to consider.
            let _ = self.wreach.set(result);
        }
        Ok(self.wreach.get().expect("wreach cell was just filled"))
    }

    /// Whether the weak-reachability protocol has already run.
    pub fn wreach_ran(&self) -> bool {
        self.wreach.get().is_some()
    }

    /// The shared [`WReachIndex`] over the elected order, built lazily at
    /// [`DistContext::max_radius`] — **the** single ball sweep of a
    /// context-backed pipeline. Every radius `r ≤ max_radius` is answered
    /// from the stored depths.
    pub fn index(&self) -> &WReachIndex {
        self.index.get_or_init(|| {
            WReachIndex::build_with(
                self.graph,
                self.order(),
                self.config.max_radius,
                self.config.strategy,
            )
        })
    }

    /// Whether the index has been built (i.e. whether the one sweep has been
    /// paid for yet).
    pub fn index_built(&self) -> bool {
        self.index.get().is_some()
    }

    /// Checks that a radius-`r` analysis query is answerable exactly by this
    /// context. The shared index is built at [`DistContext::max_radius`];
    /// answering a larger radius from it would silently read truncated balls
    /// as if they were exact, so the query fails loudly instead.
    fn check_query_radius(&self, r: u32) -> Result<(), ModelViolation> {
        if r > self.config.max_radius {
            Err(ModelViolation::RadiusOutOfRange {
                requested: r,
                supported: self.config.max_radius,
                what: "a DistContext's shared weak-reachability index",
            })
        } else {
            Ok(())
        }
    }

    /// The constant witnessed by the elected order at radius `r ≤ max_radius`
    /// (`wcol_r` of the order) — the proven approximation-ratio bound for a
    /// radius-`r` query against this order. An `O(n)` read of the shared
    /// index; builds it on first use. Fails with
    /// [`ModelViolation::RadiusOutOfRange`] when `r > max_radius`: the index
    /// holds only radius-`max_radius` balls, so a larger query has no exact
    /// answer here.
    pub fn witnessed_constant(&self, r: u32) -> Result<usize, ModelViolation> {
        self.check_query_radius(r)?;
        Ok(self.index().wcol_at(r))
    }

    /// The expected sequential election `min WReach_r` for `r ≤ max_radius`
    /// — what the distributed election of Theorem 9 must reproduce. Read
    /// from the shared index. Fails with
    /// [`ModelViolation::RadiusOutOfRange`] when `r > max_radius` (see
    /// [`DistContext::witnessed_constant`]).
    pub fn expected_election(&self, r: u32) -> Result<Vec<Vertex>, ModelViolation> {
        self.check_query_radius(r)?;
        Ok(self.index().min_wreach_at(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::{grid, stacked_triangulation};
    use bedom_wcol::ball_sweeps_on_this_thread;

    #[test]
    fn index_is_lazy_and_built_exactly_once() {
        let g = stacked_triangulation(150, 5);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(1)).unwrap();
        assert!(!ctx.index_built());
        let before = ball_sweeps_on_this_thread();
        let c = ctx.witnessed_constant(2).unwrap();
        let election = ctx.expected_election(1).unwrap();
        let _ = ctx.index();
        assert_eq!(
            ball_sweeps_on_this_thread() - before,
            1,
            "all index reads must share one sweep"
        );
        assert!(ctx.index_built());
        // The reads agree with fresh sequential computations on the order.
        assert_eq!(c, bedom_wcol::wcol_of_order(&g, ctx.order(), 2));
        assert_eq!(election, bedom_wcol::min_wreach(&g, ctx.order(), 1));
    }

    #[test]
    fn wreach_protocol_runs_once_and_is_shared() {
        let g = grid(9, 9);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(2)).unwrap();
        assert!(!ctx.wreach_ran());
        let first = ctx.wreach().unwrap() as *const DistributedWReach;
        assert!(ctx.wreach_ran());
        let second = ctx.wreach().unwrap() as *const DistributedWReach;
        assert_eq!(first, second, "second call must return the cached run");
        assert_eq!(ctx.wreach().unwrap().rounds, 4);
    }

    #[test]
    fn sid_resolution_and_order_agree_with_the_order_phase() {
        let g = stacked_triangulation(90, 2);
        let ctx = DistContext::elect(&g, DistContextConfig::new(2)).unwrap();
        for v in g.vertices() {
            let sid = ctx.super_ids()[v as usize];
            assert_eq!(ctx.vertex_of_sid(sid), Some(v));
        }
        // The order is induced by the super-ids.
        for u in g.vertices() {
            for v in g.vertices() {
                if u != v {
                    assert_eq!(
                        ctx.order().less(u, v),
                        ctx.super_ids()[u as usize] < ctx.super_ids()[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn empty_graph_context() {
        let g = Graph::empty(0);
        let ctx = DistContext::elect(&g, DistContextConfig::for_connected_domination(1)).unwrap();
        assert_eq!(ctx.num_vertices(), 0);
        assert_eq!(ctx.order_rounds(), 0);
        let wreach = ctx.wreach().unwrap();
        assert_eq!(wreach.rounds, 0);
        assert!(wreach.info.is_empty());
        assert_eq!(ctx.witnessed_constant(3).unwrap(), 0);
        assert_eq!(ctx.max_radius(), 3);
    }

    #[test]
    fn oversized_radius_queries_fail_loudly_instead_of_truncating() {
        // Regression: a query beyond the context's reach radius must not be
        // answered from the (truncated) index as if it were exact.
        let g = stacked_triangulation(120, 4);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(1)).unwrap();
        assert_eq!(ctx.max_radius(), 2);
        assert!(ctx.witnessed_constant(2).is_ok());
        let err = ctx.witnessed_constant(3).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::RadiusOutOfRange {
                requested: 3,
                supported: 2,
                ..
            }
        ));
        let err = ctx.expected_election(5).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::RadiusOutOfRange {
                requested: 5,
                supported: 2,
                ..
            }
        ));
        // The truncated answer really would differ on this instance: the
        // radius-3 constant is strictly larger than the radius-2 one, so a
        // silently-truncating implementation would have returned a wrong
        // (smaller) value where the error now is.
        let exact3 = bedom_wcol::wcol_of_order(&g, ctx.order(), 3);
        assert!(exact3 > ctx.witnessed_constant(2).unwrap());
    }
}
