//! Power graphs `G^r` and related distance-`r` structures.
//!
//! The paper motivates why distance-r domination cannot simply be reduced to
//! ordinary domination in `G^r`: "all structural information which is used in
//! the algorithms may be lost when building the r-transitive closure of the
//! graph" (Section 1). We still provide the construction — both to *exhibit*
//! that loss experimentally (the degeneracy of `G^r` blows up on bounded
//! expansion classes) and because exact solvers for distance-r domination use
//! the `r`-th power reduction on small instances.

use crate::bfs::BfsScratch;
use crate::graph::{Graph, GraphBuilder, Vertex};
use bedom_par::ExecutionStrategy;

/// The `r`-th power of `graph`: same vertex set, an edge between every pair at
/// distance at most `r` (and at least 1).
///
/// Runs one bounded BFS per vertex, parallelised via `bedom-par` with one
/// epoch-stamped [`BfsScratch`] per worker (no per-vertex visited arrays);
/// memory is `O(Σ_v |N_r[v]|)` which can be quadratic for large `r`, so this
/// is intended for moderate instances.
pub fn power_graph(graph: &Graph, r: u32) -> Graph {
    let n = graph.num_vertices();
    if r == 0 {
        return Graph::empty(n);
    }
    if r == 1 {
        return graph.clone();
    }
    let chunks: Vec<Vec<(Vertex, Vertex)>> = ExecutionStrategy::Auto.chunk_collect_with(
        n,
        || (BfsScratch::new(n), Vec::new()),
        |(scratch, nbh), range| {
            let mut edges: Vec<(Vertex, Vertex)> = Vec::new();
            for v in range {
                let v = v as Vertex;
                nbh.clear();
                scratch.closed_neighborhood_into(graph, v, r, nbh);
                edges.extend(nbh.iter().filter(|&&w| w > v).map(|&w| (v, w)));
            }
            edges
        },
    );
    let mut builder = GraphBuilder::new(n);
    for chunk in chunks {
        builder.extend_edges(chunk);
    }
    builder.build()
}

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

/// The `r`-subdivision of `graph`: every edge replaced by a path with `r`
/// internal vertices (so of length `r + 1`).
///
/// Subdivisions appear in the paper's *definition* of bounded expansion ("the
/// average degree of all graphs having their r-subdivision in C is bounded")
/// and in the concluding discussion; the experiment suite uses them to build
/// stress instances whose shallow-minor structure is known by construction.
pub fn subdivision(graph: &Graph, r: u32) -> Graph {
    let n = graph.num_vertices();
    let m = graph.num_edges();
    let mut builder = GraphBuilder::new(n + m * r as usize);
    let mut next = n as Vertex;
    for (u, v) in graph.edges() {
        if r == 0 {
            builder.add_edge(u, v);
            continue;
        }
        let mut prev = u;
        for _ in 0..r {
            builder.add_edge(prev, next);
            prev = next;
            next += 1;
        }
        builder.add_edge(prev, v);
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::{closed_neighborhood, distance};
    use crate::graph::graph_from_edges;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        graph_from_edges(n, &edges)
    }

    #[test]
    fn power_zero_and_one() {
        let g = path_graph(5);
        let p0 = power_graph(&g, 0);
        assert_eq!(p0.num_edges(), 0);
        let p1 = power_graph(&g, 1);
        assert_eq!(p1, g);
    }

    #[test]
    fn square_of_path_connects_distance_two() {
        let g = path_graph(6);
        let p2 = power_graph(&g, 2);
        assert!(p2.has_edge(0, 2));
        assert!(p2.has_edge(0, 1));
        assert!(!p2.has_edge(0, 3));
        // Each internal vertex gains edges to its distance-2 neighbours.
        assert_eq!(p2.degree(2), 4);
    }

    #[test]
    fn power_edges_match_pairwise_distances() {
        let g = graph_from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 0),
                (1, 4),
            ],
        );
        let r = 3;
        let p = power_graph(&g, r);
        for u in 0..7u32 {
            for v in (u + 1)..7u32 {
                let d = distance(&g, u, v).unwrap();
                assert_eq!(
                    p.has_edge(u, v),
                    d >= 1 && d <= r,
                    "pair ({u},{v}) dist {d}"
                );
            }
        }
    }

    #[test]
    fn all_closed_neighborhoods_agree_with_single_queries() {
        let g = graph_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let all = all_closed_neighborhoods(&g, 2);
        for v in 0..6u32 {
            assert_eq!(all[v as usize], closed_neighborhood(&g, v, 2));
        }
    }

    #[test]
    fn subdivision_sizes_and_distances() {
        let g = graph_from_edges(3, &[(0, 1), (1, 2), (2, 0)]); // triangle
        let s = subdivision(&g, 2);
        assert_eq!(s.num_vertices(), 3 + 3 * 2);
        assert_eq!(s.num_edges(), 3 * 3);
        // Original endpoints are now at distance r + 1 = 3.
        assert_eq!(distance(&s, 0, 1), Some(3));
        assert_eq!(distance(&s, 1, 2), Some(3));
        // 0-subdivision is the original graph.
        let s0 = subdivision(&g, 0);
        assert_eq!(s0.num_vertices(), 3);
        assert_eq!(s0.num_edges(), 3);
    }
}
