//! Distributed computation of a weak-colouring order in CONGEST_BC
//! (the substitute for Theorem 3 / Nešetřil–Ossona de Mendez).
//!
//! The paper obtains its order from the distributed low-tree-depth
//! decomposition of \[46\], whose engine is the Barenboim–Elkin H-partition /
//! forest-decomposition procedure: repeatedly peel, in parallel, all vertices
//! whose residual degree is at most a fixed threshold. Each peeling phase is
//! one CONGEST_BC round with a one-bit broadcast, and for any graph of
//! degeneracy `k` a threshold `≥ 2k(1+ε)` removes a constant fraction of the
//! remaining vertices per phase, so `O(log n)` phases suffice.
//!
//! The resulting *block number* plays the role of the paper's "class-id": the
//! linear order `L` sorts vertices by decreasing block number, ties broken by
//! identifier, and every vertex can compute its position key ("super-id")
//! locally from `(block, id)`. Every vertex then has at most `threshold`
//! neighbours smaller than itself, and the weak colouring numbers of the
//! order are bounded on bounded-expansion classes exactly as for the
//! sequential heuristic (measured explicitly by experiment T2).

use crate::order::LinearOrder;
use bedom_distsim::{
    Engine, ExecutionStrategy, IdAssignment, Inbox, Model, ModelViolation, Network, NodeAlgorithm,
    NodeContext, Outgoing, RunPolicy, RunStats,
};
use bedom_graph::degeneracy::degeneracy;
use bedom_graph::{Graph, Vertex};

/// Per-vertex state of the H-partition protocol.
///
/// Message semantics: each round a vertex broadcasts `true` while it is still
/// active (not yet assigned to a block) and `false` in the first round after
/// its removal; thereafter it stays silent. One bit per message, well within
/// the CONGEST_BC budget.
#[derive(Debug)]
pub struct HPartitionNode {
    threshold: usize,
    total_phases: usize,
    active: bool,
    just_removed: bool,
    active_neighbors: usize,
    block: u32,
}

impl HPartitionNode {
    /// Creates the initial state for a vertex.
    pub fn new(threshold: usize, total_phases: usize, ctx: &NodeContext) -> Self {
        HPartitionNode {
            threshold,
            total_phases,
            active: true,
            just_removed: false,
            active_neighbors: ctx.degree(),
            block: 0,
        }
    }

    /// The block this vertex was assigned to (meaningful after the protocol
    /// has run for `total_phases` rounds).
    pub fn block(&self) -> u32 {
        self.block
    }
}

impl NodeAlgorithm for HPartitionNode {
    type Message = bool;
    type Output = u32;

    fn init(&mut self, _ctx: &NodeContext) -> Outgoing<bool> {
        // Everybody starts active and says so.
        Outgoing::Broadcast(true)
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: usize,
        inbox: Inbox<'_, bool>,
    ) -> Outgoing<bool> {
        // Update the count of still-active neighbours from the flags received.
        // A `false` flag is the one-off "I was just removed" notification.
        let removed_now = inbox.iter().filter(|m| !*m.payload).count();
        self.active_neighbors = self.active_neighbors.saturating_sub(removed_now);

        if self.active {
            let is_last_phase = round >= self.total_phases;
            if self.active_neighbors <= self.threshold || is_last_phase {
                // Join the block of the current phase and announce the removal
                // in the next round's broadcast.
                self.active = false;
                self.just_removed = true;
                self.block = bedom_graph::cast::u32_from_usize(round);
                return Outgoing::Broadcast(false);
            }
            return Outgoing::Broadcast(true);
        }
        if self.just_removed {
            // The removal was already announced by the `false` broadcast that
            // ended the previous round; from now on stay silent.
            self.just_removed = false;
        }
        Outgoing::Silent
    }

    fn output(&self, _ctx: &NodeContext) -> u32 {
        self.block
    }
}

/// Result of the distributed order computation.
#[derive(Clone, Debug)]
pub struct DistributedOrder {
    /// The computed linear order (smaller = earlier = "more hub-like").
    pub order: LinearOrder,
    /// Block number of each vertex (1-based phase in which it was peeled).
    pub blocks: Vec<u32>,
    /// Number of communication rounds used.
    pub rounds: usize,
    /// Executor statistics (message/bit accounting).
    pub stats: RunStats,
    /// The per-vertex position keys ("super-ids"): the value each vertex can
    /// compute locally from its block and identifier, inducing the order.
    pub super_ids: Vec<u64>,
}

impl DistributedOrder {
    /// Builds the sorted super-id → vertex table for `O(log n)` resolution of
    /// protocol super-ids back to graph vertices. This is a *local renaming*
    /// performed by the simulation harness (every vertex already knows its
    /// own super-id), not a network step; the former per-consumer `HashMap`s
    /// in the domination and cover pipelines are replaced by one shared table
    /// owned by the precompute context.
    pub fn sid_lookup(&self) -> SidLookup {
        let mut table: Vec<(u64, Vertex)> = self
            .super_ids
            .iter()
            .enumerate()
            .map(|(v, &sid)| (sid, v as Vertex))
            .collect();
        table.sort_unstable();
        SidLookup { table }
    }
}

/// Sorted `(super_id, vertex)` table resolving the order phase's locally
/// computable position keys back to graph vertices.
#[derive(Clone, Debug, Default)]
pub struct SidLookup {
    table: Vec<(u64, Vertex)>,
}

impl SidLookup {
    /// The graph vertex carrying super-id `sid`, if any. `O(log n)`.
    pub fn vertex_of(&self, sid: u64) -> Option<Vertex> {
        self.table
            .binary_search_by_key(&sid, |&(s, _)| s)
            .ok()
            .map(|i| self.table[i].1)
    }

    /// Number of entries (= number of vertices).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Default peel threshold for `graph`: `4 · degeneracy + 2`. Since every
/// subgraph has average degree at most `2 · degeneracy`, fewer than half of
/// the remaining vertices can exceed this threshold, so each phase removes at
/// least half of them and `⌈log₂ n⌉ + 1` phases always suffice. In a real
/// deployment this is the known class constant (a function of `f(0)`);
/// computing it from the input here does not affect the round complexity
/// because it is not part of the protocol.
pub fn default_threshold(graph: &Graph) -> usize {
    4 * degeneracy(graph) as usize + 2
}

/// Runs the H-partition protocol in the CONGEST_BC model and derives the
/// linear order, choosing the execution strategy automatically from the
/// instance size. `threshold` is the peel threshold (see
/// [`default_threshold`]); `assignment` chooses the identifier scheme.
pub fn distributed_wcol_order(
    graph: &Graph,
    threshold: usize,
    assignment: IdAssignment,
) -> Result<DistributedOrder, ModelViolation> {
    distributed_wcol_order_with(
        graph,
        threshold,
        assignment,
        ExecutionStrategy::auto_for(graph.num_vertices()),
    )
}

/// [`distributed_wcol_order`] with an explicit [`ExecutionStrategy`]; both
/// strategies produce bit-identical orders.
pub fn distributed_wcol_order_with(
    graph: &Graph,
    threshold: usize,
    assignment: IdAssignment,
    strategy: ExecutionStrategy,
) -> Result<DistributedOrder, ModelViolation> {
    let n = graph.num_vertices();
    if n == 0 {
        return Ok(DistributedOrder {
            order: LinearOrder::identity(0),
            blocks: Vec::new(),
            rounds: 0,
            stats: RunStats::default(),
            super_ids: Vec::new(),
        });
    }
    // ⌈log₂ n⌉ + 2 phases suffice for any threshold ≥ 2·degeneracy + 1; the
    // +2 also forces termination for smaller thresholds via the last-phase
    // catch-all in the node logic.
    let total_phases = bedom_distsim::log2_ceil(n) + 2;
    let mut network = Network::new(graph, Model::congest_bc(), assignment, |_, ctx| {
        HPartitionNode::new(threshold, total_phases, ctx)
    });
    network.set_strategy(strategy);
    // One extra round lets the final `false` announcements drain (they are
    // sent in the round a vertex is removed).
    Engine::new(&mut network).run(RunPolicy::fixed(total_phases + 1))?;
    let blocks = network.outputs();
    let ids: Vec<u64> = (0..n as Vertex).map(|v| network.id_of(v)).collect();
    let stats = network.stats().clone();
    let rounds = stats.rounds;

    // Position key: higher block ⇒ earlier in L; ties by id.
    let max_block = blocks.iter().copied().max().unwrap_or(0) as u64;
    let super_ids: Vec<u64> = (0..n)
        .map(|v| (max_block - blocks[v] as u64) * n as u64 + ids[v])
        .collect();
    let keys: Vec<u64> = super_ids.clone();
    let order = LinearOrder::from_keys(&keys);
    Ok(DistributedOrder {
        order,
        blocks,
        rounds,
        stats,
        super_ids,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wreach::wcol_of_order;
    use bedom_graph::generators::{
        configuration_model_power_law, grid, maximal_outerplanar, path, random_tree,
        stacked_triangulation,
    };

    #[test]
    fn every_vertex_gets_a_block_and_order_is_a_permutation() {
        let g = stacked_triangulation(300, 2);
        let result =
            distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Natural).unwrap();
        assert_eq!(result.blocks.len(), 300);
        assert!(result.blocks.iter().all(|&b| b >= 1));
        assert_eq!(result.order.len(), 300);
    }

    #[test]
    fn smaller_vertices_have_bounded_back_degree() {
        // Defining property of the H-partition order: every vertex has at most
        // `threshold` neighbours earlier in the order.
        let g = stacked_triangulation(400, 5);
        let threshold = default_threshold(&g);
        let result = distributed_wcol_order(&g, threshold, IdAssignment::Shuffled(1)).unwrap();
        for v in g.vertices() {
            let back = g
                .neighbors(v)
                .iter()
                .filter(|&&w| result.order.less(w, v))
                .count();
            assert!(
                back <= threshold,
                "vertex {v} has back-degree {back} > {threshold}"
            );
        }
    }

    #[test]
    fn round_count_is_logarithmic() {
        for (n, seed) in [(100usize, 1u64), (1000, 2), (4000, 3)] {
            let g = random_tree(n, seed);
            let result =
                distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Natural).unwrap();
            let bound = bedom_distsim::log2_ceil(n) + 3;
            assert!(
                result.rounds <= bound,
                "n={n}: {} rounds > {bound}",
                result.rounds
            );
        }
    }

    #[test]
    fn messages_fit_congest_bc() {
        // The protocol runs under Model::congest_bc(); reaching this point
        // without a ModelViolation already proves it, but also check the
        // recorded maximum message size is a single bit.
        let g = grid(20, 20);
        let result =
            distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Natural).unwrap();
        assert_eq!(result.stats.max_message_bits, 1);
    }

    #[test]
    fn distributed_order_witnesses_small_wcol_on_sparse_classes() {
        for (g, limit) in [
            (path(200), 6usize),
            (grid(15, 15), 25),
            (maximal_outerplanar(150), 20),
            (stacked_triangulation(300, 7), 40),
            (configuration_model_power_law(300, 2.5, 2, 8, 7), 60),
        ] {
            let result =
                distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Shuffled(3))
                    .unwrap();
            let c = wcol_of_order(&g, &result.order, 2);
            assert!(
                c <= limit,
                "wcol_2 = {c} > {limit} (n = {})",
                g.num_vertices()
            );
        }
    }

    #[test]
    fn super_ids_induce_the_order() {
        let g = random_tree(150, 9);
        let result =
            distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Shuffled(4)).unwrap();
        for u in g.vertices() {
            for v in g.vertices() {
                if u == v {
                    continue;
                }
                assert_eq!(
                    result.order.less(u, v),
                    result.super_ids[u as usize] < result.super_ids[v as usize],
                    "u={u}, v={v}"
                );
            }
        }
    }

    #[test]
    fn sid_lookup_inverts_super_ids() {
        let g = random_tree(120, 4);
        let result =
            distributed_wcol_order(&g, default_threshold(&g), IdAssignment::Shuffled(8)).unwrap();
        let lookup = result.sid_lookup();
        assert_eq!(lookup.len(), 120);
        for v in g.vertices() {
            assert_eq!(lookup.vertex_of(result.super_ids[v as usize]), Some(v));
        }
        assert_eq!(lookup.vertex_of(u64::MAX), None);
        assert!(SidLookup::default().is_empty());
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = bedom_graph::Graph::empty(0);
        let result = distributed_wcol_order(&g, 4, IdAssignment::Natural).unwrap();
        assert_eq!(result.order.len(), 0);
        assert_eq!(result.rounds, 0);
    }
}
