//! A Kutten–Peleg-style distance-`r` dominating set of size `O(n / r)` \[35\].
//!
//! The paper cites this family of algorithms as the fast distributed
//! baselines whose output size is bounded only in terms of `n/r`, "without
//! any relation to the size of an optimal distance-r dominating set" — the
//! experiments use it to show how much smaller the structure-aware sets of
//! Theorems 5/9 are on bounded expansion classes whose optimum is far below
//! `n/r`.
//!
//! Construction (per connected component): build a BFS tree, group its levels
//! modulo `r + 1`, take the smallest group plus the root. Every vertex has a
//! tree ancestor in the chosen group within distance `r` (or is within `r` of
//! the root), so the set distance-`r` dominates, and the smallest group has
//! at most `n / (r + 1)` vertices.

use bedom_graph::bfs::UNREACHABLE;
use bedom_graph::{Graph, Vertex};
use std::collections::VecDeque;

/// Computes the level-sampling distance-`r` dominating set. For `r = 0` this
/// is the whole vertex set.
pub fn kutten_peleg_dominating_set(graph: &Graph, r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    if r == 0 {
        return graph.vertices().collect();
    }
    let modulus = r as usize + 1;
    let mut depth = vec![UNREACHABLE; n];
    let mut result = Vec::new();
    let mut queue = VecDeque::new();
    for root in graph.vertices() {
        if depth[root as usize] != UNREACHABLE {
            continue;
        }
        // BFS tree of this component.
        depth[root as usize] = 0;
        queue.push_back(root);
        let mut members = vec![root];
        while let Some(v) = queue.pop_front() {
            for &w in graph.neighbors(v) {
                if depth[w as usize] == UNREACHABLE {
                    depth[w as usize] = depth[v as usize] + 1;
                    members.push(w);
                    queue.push_back(w);
                }
            }
        }
        // Pick the least populated residue class of the depth.
        let mut counts = vec![0usize; modulus];
        for &v in &members {
            counts[depth[v as usize] as usize % modulus] += 1;
        }
        let best_class = counts
            .iter()
            .enumerate()
            .min_by_key(|&(_, &c)| c)
            .map(|(i, _)| i)
            .unwrap_or(0);
        result.push(root);
        for &v in &members {
            if depth[v as usize] as usize % modulus == best_class && v != root {
                result.push(v);
            }
        }
    }
    result.sort_unstable();
    result.dedup();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::components::connected_components;
    use bedom_graph::domset::is_distance_dominating_set;
    use bedom_graph::generators::{cycle, grid, path, random_tree, stacked_triangulation};

    fn check(graph: &Graph, r: u32) -> Vec<Vertex> {
        let d = kutten_peleg_dominating_set(graph, r);
        assert!(
            is_distance_dominating_set(graph, &d, r),
            "invalid for r = {r}"
        );
        let (_, components) = connected_components(graph);
        assert!(
            d.len() <= graph.num_vertices() / (r as usize + 1) + components,
            "size {} exceeds n/(r+1) + #components",
            d.len()
        );
        d
    }

    #[test]
    fn size_bound_holds_on_many_families() {
        for r in 1..=4u32 {
            check(&path(50), r);
            check(&cycle(37), r);
            check(&grid(10, 10), r);
            check(&random_tree(200, 3), r);
            check(&stacked_triangulation(200, 3), r);
        }
    }

    #[test]
    fn r_zero_returns_everything() {
        let g = path(9);
        assert_eq!(kutten_peleg_dominating_set(&g, 0).len(), 9);
    }

    #[test]
    fn oblivious_to_optimum() {
        // On a long path the optimum is ⌈n/3⌉ but the level-sampling baseline
        // returns ≈ n/2 — size tied to n/(r+1) rather than to OPT, which is
        // the behaviour the comparison tables highlight.
        let g = path(60);
        let d = check(&g, 1);
        assert!(d.len() > 20, "unexpectedly close to optimal: {}", d.len());
    }

    #[test]
    fn disconnected_graphs() {
        let g = bedom_graph::graph_from_edges(8, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7)]);
        let d = check(&g, 1);
        assert!(d.len() >= 3);
    }
}
