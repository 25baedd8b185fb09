//! A faithful replica of the **seed**'s weak-reachability computation, kept
//! as the baseline for the `wreach_index` benchmark.
//!
//! The seed allocated a fresh `vec![false; n]` visited array (Θ(n) memory
//! traffic just to zero it), a `VecDeque` and a growable result `Vec` for
//! *every* restricted ball, materialised the `WReach_r` sets as ragged
//! `Vec<Vec<Vertex>>`, and re-ran the full `n`-ball sweep in every consumer —
//! `domset_via_min_wreach` swept twice per call (once for the election at
//! radius `r`, once for the witnessed constant at `2r`). The shared flat
//! [`WReachIndex`](bedom_wcol::WReachIndex) replaced all of that with one
//! epoch-stamped CSR sweep; this module preserves the old behaviour bit for
//! bit so the bench can quantify the difference on identical instances.

use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;
use bedom_wcol::LinearOrder;
use std::collections::VecDeque;

/// The seed's restricted ball: fresh visited array, queue and result vector
/// per source.
pub fn seed_restricted_ball(graph: &Graph, order: &LinearOrder, u: Vertex, r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let mut visited = vec![false; n];
    let mut result = vec![u];
    let mut queue = VecDeque::new();
    visited[u as usize] = true;
    queue.push_back((u, 0u32));
    while let Some((x, d)) = queue.pop_front() {
        if d >= r {
            continue;
        }
        for &w in graph.neighbors(x) {
            if !visited[w as usize] && order.less(u, w) {
                visited[w as usize] = true;
                result.push(w);
                queue.push_back((w, d + 1));
            }
        }
    }
    result.sort_unstable();
    result
}

/// The seed's `WReach_r` sets: one full ball sweep, inverted into ragged
/// `Vec<Vec<Vertex>>`.
pub fn seed_weak_reachability_sets(graph: &Graph, order: &LinearOrder, r: u32) -> Vec<Vec<Vertex>> {
    let n = graph.num_vertices();
    let balls: Vec<(Vertex, Vec<Vertex>)> = ExecutionStrategy::Auto.map_collect(n, |u| {
        let u = u as Vertex;
        (u, seed_restricted_ball(graph, order, u, r))
    });
    let mut wreach: Vec<Vec<Vertex>> = vec![Vec::new(); n];
    for (u, ball) in balls {
        for w in ball {
            wreach[w as usize].push(u);
        }
    }
    for set in &mut wreach {
        set.sort_unstable();
    }
    wreach
}

/// The seed's weak colouring number of an order: a full sweep of its own.
pub fn seed_wcol_of_order(graph: &Graph, order: &LinearOrder, r: u32) -> usize {
    seed_weak_reachability_sets(graph, order, r)
        .iter()
        .map(Vec::len)
        .max()
        .unwrap_or(0)
}

/// The seed's dominator election: yet another full sweep.
pub fn seed_min_wreach(graph: &Graph, order: &LinearOrder, r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    let balls: Vec<(Vertex, Vec<Vertex>)> = ExecutionStrategy::Auto.map_collect(n, |u| {
        let u = u as Vertex;
        (u, seed_restricted_ball(graph, order, u, r))
    });
    let mut best: Vec<Vertex> = (0..n as Vertex).collect();
    for (u, ball) in balls {
        for w in ball {
            if order.less(u, best[w as usize]) {
                best[w as usize] = u;
            }
        }
    }
    best
}

/// The seed's `domset_via_min_wreach` analysis core — the **double** ball
/// sweep: one sweep at radius `r` for the election, a second at `2r` for the
/// witnessed constant. This is the exact work the benchmark compares against
/// one `WReachIndex` build at `2r`.
pub fn seed_election_and_constant(
    graph: &Graph,
    order: &LinearOrder,
    r: u32,
) -> (Vec<Vertex>, usize) {
    let dominator_of = seed_min_wreach(graph, order, r);
    let witnessed_constant = seed_wcol_of_order(graph, order, 2 * r);
    (dominator_of, witnessed_constant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::stacked_triangulation;
    use bedom_wcol::degeneracy_based_order;

    #[test]
    fn seed_replica_matches_the_index_backed_entry_points() {
        // The baseline must stay equivalent to the production path, or the
        // bench compares different computations.
        let g = stacked_triangulation(150, 7);
        let order = degeneracy_based_order(&g);
        for r in [1u32, 2] {
            assert_eq!(
                seed_weak_reachability_sets(&g, &order, r),
                bedom_wcol::weak_reachability_sets(&g, &order, r)
            );
            assert_eq!(
                seed_min_wreach(&g, &order, r),
                bedom_wcol::min_wreach(&g, &order, r)
            );
            assert_eq!(
                seed_wcol_of_order(&g, &order, r),
                bedom_wcol::wcol_of_order(&g, &order, r)
            );
            for v in g.vertices().step_by(17) {
                assert_eq!(
                    seed_restricted_ball(&g, &order, v, r),
                    bedom_wcol::restricted_ball(&g, &order, v, r)
                );
            }
        }
    }
}
