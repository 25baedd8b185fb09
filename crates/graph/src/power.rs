//! Closed `r`-neighbourhood lists, the distance-`r` adjacency of the power
//! graph `G^r`.
//!
//! The paper motivates why distance-r domination cannot simply be reduced to
//! ordinary domination in `G^r`: "all structural information which is used in
//! the algorithms may be lost when building the r-transitive closure of the
//! graph" (Section 1). The exact solver for distance-r domination still uses
//! the `r`-th power as its set-cover formulation on small instances, so this
//! module computes every vertex's closed `r`-neighbourhood without building
//! `G^r` itself.

use crate::bfs::BfsScratch;
use crate::graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// Closed `r`-neighbourhood lists for every vertex (each list sorted).
///
/// This is the "distance-r adjacency" view used by brute-force domination
/// solvers; parallelised via `bedom-par` with a worker-local scratch.
pub fn all_closed_neighborhoods(graph: &Graph, r: u32) -> Vec<Vec<Vertex>> {
    let n = graph.num_vertices();
    ExecutionStrategy::Auto.map_collect_with(
        n,
        || BfsScratch::new(n),
        |scratch, v| {
            let mut out = Vec::new();
            scratch.closed_neighborhood_into(graph, v as Vertex, r, &mut out);
            out
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::closed_neighborhood;
    use crate::graph::graph_from_edges;

    #[test]
    fn all_closed_neighborhoods_agree_with_single_queries() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let all = all_closed_neighborhoods(&g, 2);
        for v in 0..6u32 {
            assert_eq!(all[v as usize], closed_neighborhood(&g, v, 2));
        }
    }
}
