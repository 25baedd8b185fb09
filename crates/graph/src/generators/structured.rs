//! Structured, exactly analysable graph families: paths, cycles, grids, tori,
//! trees and stars.
//!
//! Optimal (distance-r) dominating set sizes for several of these families are
//! known in closed form (e.g. `γ_r(P_n) = ⌈n / (2r + 1)⌉`), which makes them
//! the reference instances for approximation-ratio tests.

use super::rng_from_seed;
use crate::graph::{Graph, GraphBuilder, Vertex};

/// Path `P_n` on `n ≥ 1` vertices.
pub fn path(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n);
    for i in 1..n {
        b.add_edge((i - 1) as Vertex, i as Vertex);
    }
    b.build()
}

/// Cycle `C_n` on `n ≥ 3` vertices.
pub fn cycle(n: usize) -> Graph {
    assert!(n >= 3, "a cycle needs at least 3 vertices");
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        b.add_edge(i as Vertex, ((i + 1) % n) as Vertex);
    }
    b.build()
}

/// `rows × cols` grid graph.
pub fn grid(rows: usize, cols: usize) -> Graph {
    let rows = rows.max(1);
    let cols = cols.max(1);
    let idx = |r: usize, c: usize| (r * cols + c) as Vertex;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(idx(r, c), idx(r, c + 1));
            }
            if r + 1 < rows {
                b.add_edge(idx(r, c), idx(r + 1, c));
            }
        }
    }
    b.build()
}

/// `rows × cols` torus (grid with wraparound); requires both dimensions ≥ 3
/// to stay simple.
pub fn torus(rows: usize, cols: usize) -> Graph {
    let rows = rows.max(3);
    let cols = cols.max(3);
    let idx = |r: usize, c: usize| (r * cols + c) as Vertex;
    let mut b = GraphBuilder::new(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            b.add_edge(idx(r, c), idx(r, (c + 1) % cols));
            b.add_edge(idx(r, c), idx((r + 1) % rows, c));
        }
    }
    b.build()
}

/// Star `K_{1,n-1}`: vertex 0 is the centre.
pub fn star(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n.max(1));
    for i in 1..n {
        b.add_edge(0, i as Vertex);
    }
    b.build()
}

/// Complete binary tree on `n` vertices (vertex `i` has children `2i+1`,
/// `2i+2`).
pub fn complete_binary_tree(n: usize) -> Graph {
    let mut b = GraphBuilder::new(n.max(1));
    for i in 1..n {
        b.add_edge(((i - 1) / 2) as Vertex, i as Vertex);
    }
    b.build()
}

/// Uniform random recursive tree: vertex `i` attaches to a uniformly random
/// earlier vertex.
pub fn random_tree(n: usize, seed: u64) -> Graph {
    let mut rng = rng_from_seed(seed);
    let mut b = GraphBuilder::new(n.max(1));
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        b.add_edge(parent as Vertex, i as Vertex);
    }
    b.build()
}

/// Random graph where every vertex ends with degree at most `max_degree`:
/// repeatedly propose uniform random edges, accept while both endpoints have
/// residual capacity. Bounded maximum degree implies bounded expansion.
pub fn bounded_degree_random(n: usize, max_degree: usize, seed: u64) -> Graph {
    let n = n.max(1);
    let mut rng = rng_from_seed(seed);
    let mut deg = vec![0usize; n];
    let mut b = GraphBuilder::new(n);
    let mut seen = std::collections::HashSet::new();
    let target_edges = n * max_degree / 2;
    let mut attempts = 0usize;
    let max_attempts = 20 * target_edges + 100;
    let mut added = 0usize;
    while added < target_edges && attempts < max_attempts {
        attempts += 1;
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u == v || deg[u] >= max_degree || deg[v] >= max_degree {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if !seen.insert(key) {
            continue;
        }
        deg[u] += 1;
        deg[v] += 1;
        b.add_edge(u as Vertex, v as Vertex);
        added += 1;
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::diameter;
    use crate::components::is_connected;
    use crate::degeneracy::degeneracy;

    #[test]
    fn path_and_cycle_shapes() {
        let p = path(6);
        assert_eq!(p.num_edges(), 5);
        assert_eq!(p.max_degree(), 2);
        assert_eq!(diameter(&p), Some(5));
        let c = cycle(6);
        assert_eq!(c.num_edges(), 6);
        assert!(c.vertices().all(|v| c.degree(v) == 2));
        let p1 = path(1);
        assert_eq!(p1.num_vertices(), 1);
        assert_eq!(p1.num_edges(), 0);
    }

    #[test]
    fn grid_and_torus_counts() {
        let g = grid(4, 5);
        assert_eq!(g.num_vertices(), 20);
        assert_eq!(g.num_edges(), 4 * 4 + 3 * 5);
        assert!(is_connected(&g));
        assert_eq!(degeneracy(&g), 2);
        let t = torus(4, 5);
        assert_eq!(t.num_vertices(), 20);
        assert!(t.vertices().all(|v| t.degree(v) == 4));
        assert!(is_connected(&t));
    }

    #[test]
    fn trees_are_trees() {
        for g in [complete_binary_tree(31), random_tree(50, 5)] {
            assert_eq!(g.num_edges(), g.num_vertices() - 1);
            assert!(is_connected(&g));
            assert_eq!(degeneracy(&g), 1);
        }
    }

    #[test]
    fn star_structure() {
        let s = star(10);
        assert_eq!(s.degree(0), 9);
        assert_eq!(s.num_edges(), 9);
    }

    #[test]
    fn bounded_degree_respects_cap() {
        let g = bounded_degree_random(500, 4, 99);
        assert!(g.max_degree() <= 4);
        assert!(
            g.num_edges() > 400,
            "generator produced too few edges: {}",
            g.num_edges()
        );
    }

    #[test]
    fn single_vertex_edge_cases() {
        assert_eq!(star(1).num_vertices(), 1);
        assert_eq!(complete_binary_tree(1).num_edges(), 0);
        assert_eq!(random_tree(1, 0).num_edges(), 0);
        assert_eq!(grid(1, 1).num_vertices(), 1);
    }
}
