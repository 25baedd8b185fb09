//! Instance statistics gathered by the experiment harness: sizes, density,
//! degeneracy, degree distribution summaries, shallow-minor density probes.
//!
//! The shallow-minor density probe is the empirical counterpart of the
//! bounded-expansion definition (`∇_r(G) = max { d(H)/2 : H ≼_r G }` stays
//! bounded); we estimate it by contracting random low-radius balls, which
//! gives a *lower* bound on the true ∇_r and is enough to separate the
//! bounded-expansion families from the `G(n,p)` control in the tables.

use crate::components::connected_components;
use crate::degeneracy::degeneracy;
use crate::graph::{Graph, GraphBuilder, Vertex};
use bedom_rng::DetRng;
use std::collections::VecDeque;

/// Summary statistics of a graph instance, reported in experiment output.
#[derive(Clone, Debug)]
pub struct InstanceStats {
    /// Number of vertices.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Average degree 2m/n.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: usize,
    /// Degeneracy (ergo an upper bound on arboricity).
    pub degeneracy: u32,
    /// Number of connected components.
    pub components: usize,
}

/// Computes [`InstanceStats`] for `graph`.
pub fn instance_stats(graph: &Graph) -> InstanceStats {
    let (_, components) = connected_components(graph);
    InstanceStats {
        n: graph.num_vertices(),
        m: graph.num_edges(),
        average_degree: graph.average_degree(),
        max_degree: graph.max_degree(),
        degeneracy: degeneracy(graph),
        components,
    }
}

/// Estimates the density of depth-`r` minors of `graph` by randomly growing
/// disjoint balls of radius ≤ `r`, contracting them, and measuring the average
/// degree of the contracted graph. This is a lower bound on the true
/// greatest-reduced-average-density `∇_r(G)` (any particular minor model gives
/// a lower bound) but tracks its growth well enough to distinguish classes.
pub fn shallow_minor_density_estimate(graph: &Graph, r: u32, seed: u64) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut rng = DetRng::seed_from_u64(seed);
    let mut owner = vec![u32::MAX; n];
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    rng.shuffle(&mut order);

    // Grow balls greedily: each unowned seed claims unowned vertices within
    // distance ≤ radius (radius chosen uniformly in 0..=r per ball to create
    // varied branch sets).
    let mut num_branch_sets = 0u32;
    let mut queue = VecDeque::new();
    for &seed_vertex in &order {
        if owner[seed_vertex as usize] != u32::MAX {
            continue;
        }
        let ball_radius = if r == 0 { 0 } else { rng.gen_range(0..=r) };
        let id = num_branch_sets;
        num_branch_sets += 1;
        owner[seed_vertex as usize] = id;
        queue.clear();
        queue.push_back((seed_vertex, 0u32));
        while let Some((v, d)) = queue.pop_front() {
            if d >= ball_radius {
                continue;
            }
            for &w in graph.neighbors(v) {
                if owner[w as usize] == u32::MAX {
                    owner[w as usize] = id;
                    queue.push_back((w, d + 1));
                }
            }
        }
    }

    // Contract: one vertex per branch set, edge when any cross edge exists.
    let mut builder = GraphBuilder::new(num_branch_sets as usize);
    for (u, v) in graph.edges() {
        let (a, b) = (owner[u as usize], owner[v as usize]);
        if a != b {
            builder.add_edge(a, b);
        }
    }
    let minor = builder.build();
    minor.average_degree()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{gnp_with_average_degree, grid, stacked_triangulation};

    #[test]
    fn stats_of_grid() {
        let g = grid(5, 5);
        let s = instance_stats(&g);
        assert_eq!(s.n, 25);
        assert_eq!(s.m, 40);
        assert_eq!(s.max_degree, 4);
        assert_eq!(s.degeneracy, 2);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn shallow_minor_density_distinguishes_classes() {
        // On a planar triangulation the depth-2 minor density stays below 6
        // (minors of planar graphs are planar); on a dense-ish G(n,p) control,
        // contracting balls concentrates edges and the density exceeds it.
        let planar = stacked_triangulation(3000, 1);
        let dense = gnp_with_average_degree(3000, 12.0, 1);
        let planar_density = shallow_minor_density_estimate(&planar, 2, 7);
        let dense_density = shallow_minor_density_estimate(&dense, 2, 7);
        assert!(planar_density < 6.0, "planar density {planar_density}");
        assert!(
            dense_density > planar_density,
            "dense {dense_density} vs planar {planar_density}"
        );
    }
}
