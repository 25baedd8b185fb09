//! The Lenzen–Pignolet–Wattenhofer constant-round LOCAL approximation of the
//! minimum dominating set on planar graphs \[36\] — the algorithm Theorem 17
//! composes with to get a constant-round *connected* dominating set on planar
//! graphs ("the constant c(1) which we need here is 6").
//!
//! The algorithm (two phases, constant LOCAL rounds):
//!
//! 1. a vertex `v` joins `D₁` if its open neighbourhood cannot be covered by
//!    the closed neighbourhoods of any two other vertices — on a planar graph
//!    only `O(OPT)` vertices can have this property;
//! 2. every vertex not dominated by `D₁` elects the vertex of maximum degree
//!    in its closed neighbourhood (ties by identifier) into `D₂`.
//!
//! The output `D₁ ∪ D₂` is a dominating set and, on planar graphs, a
//! constant-factor approximation. Phase 1 needs each vertex's radius-2 view;
//! phase 2 additionally needs to know which neighbours joined `D₁`, so the
//! whole computation is a function of the radius-4 view and we evaluate it
//! with the ball-based LOCAL evaluator.

use bedom_distsim::{run_local, LocalView};
use bedom_graph::{Graph, Vertex};

/// Phase-1 membership test: can `N(v)` be covered by the closed
/// neighbourhoods of at most two vertices other than `v`?
fn coverable_by_two(view: &LocalView<'_>, v: Vertex) -> bool {
    let open_neighborhood = view.neighbors_in_view(v);
    if open_neighborhood.len() <= 2 {
        // Two neighbours always cover a neighbourhood of size ≤ 2 (each vertex
        // covers itself).
        return true;
    }
    // Candidate coverers must dominate at least one neighbour, so they lie in
    // the radius-2 ball of v.
    let candidates: Vec<Vertex> = view
        .ball
        .iter()
        .copied()
        .filter(|&a| a != v && view.distance_to(a).unwrap_or(u32::MAX) <= 2)
        .collect();
    let covered_by =
        |a: Vertex, w: Vertex| -> bool { w == a || view.neighbors_in_view(a).contains(&w) };
    for (i, &a) in candidates.iter().enumerate() {
        // Quick reject: a alone covers something.
        for &b in candidates.iter().skip(i) {
            if open_neighborhood
                .iter()
                .all(|&w| covered_by(a, w) || covered_by(b, w))
            {
                return true;
            }
        }
    }
    false
}

/// Runs the planar MDS algorithm of \[36\]. `ids` provide the identifiers used
/// for tie-breaking. Returns the dominating set sorted by vertex id.
///
/// The algorithm is correct (it always returns a dominating set) on every
/// graph; its constant approximation guarantee holds on planar graphs, which
/// is how the experiments use it.
pub fn lenzen_planar_dominating_set(graph: &Graph, ids: &[u64]) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // Phase 1: the "hard to cover" vertices.
    let in_d1: Vec<bool> = run_local(graph, ids, 2, |view| !coverable_by_two(view, view.center));

    // Phase 2: uncovered vertices elect their highest-degree closed neighbour.
    // Evaluated at radius 2: a vertex sees the D₁ membership of its neighbours
    // only through their own radius-2 computation, so the composite is a
    // radius-4 LOCAL algorithm; here we simply reuse the precomputed flags
    // (the outcome is identical, the round count is what the analysis states).
    let elected: Vec<Option<Vertex>> = run_local(graph, ids, 1, |view| {
        let v = view.center;
        let dominated =
            in_d1[v as usize] || view.neighbors_in_view(v).iter().any(|&w| in_d1[w as usize]);
        if dominated {
            return None;
        }
        // Elect the maximum-degree vertex in N[v] (ties towards larger id, then
        // deterministic).
        let mut best = v;
        let mut best_key = (view.neighbors_in_view(v).len(), view.id_of(v));
        for w in view.neighbors_in_view(v) {
            let key = (view.neighbors_in_view(w).len(), view.id_of(w));
            if key > best_key {
                best_key = key;
                best = w;
            }
        }
        Some(best)
    });

    let mut in_set = in_d1;
    for choice in elected.iter().flatten() {
        in_set[*choice as usize] = true;
    }
    graph.vertices().filter(|&v| in_set[v as usize]).collect()
}

/// Number of LOCAL rounds the algorithm corresponds to (constant).
pub const LENZEN_PLANAR_ROUNDS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_distsim::IdAssignment;
    use bedom_graph::domset::{
        exact_distance_dominating_set, is_distance_dominating_set, packing_lower_bound,
    };
    use bedom_graph::generators::{
        cycle, grid, maximal_outerplanar, path, stacked_triangulation, star, triangulated_grid,
    };

    fn run(graph: &Graph) -> Vec<Vertex> {
        let ids = IdAssignment::Shuffled(7).assign(graph);
        let d = lenzen_planar_dominating_set(graph, &ids);
        assert!(
            is_distance_dominating_set(graph, &d, 1),
            "not a dominating set (n = {})",
            graph.num_vertices()
        );
        d
    }

    #[test]
    fn dominates_structured_planar_graphs() {
        run(&path(30));
        run(&cycle(25));
        run(&grid(9, 9));
        run(&star(20));
        run(&maximal_outerplanar(60));
        run(&triangulated_grid(8, 8));
        run(&stacked_triangulation(150, 3));
    }

    #[test]
    fn star_center_alone_suffices() {
        let g = star(40);
        let d = run(&g);
        assert!(d.contains(&0));
        assert!(d.len() <= 2);
    }

    #[test]
    fn constant_factor_on_planar_instances() {
        // Measure the ratio against the exact optimum on instances small
        // enough to solve exactly; the constant here is far below the proven
        // worst-case constant of [36].
        for g in [
            grid(6, 6),
            stacked_triangulation(60, 1),
            maximal_outerplanar(40),
        ] {
            let d = run(&g);
            let opt = exact_distance_dominating_set(&g, 1, 5_000_000)
                .map(|o| o.len())
                .unwrap_or_else(|| packing_lower_bound(&g, 1));
            assert!(
                d.len() <= 20 * opt.max(1),
                "ratio too large: {} vs opt {}",
                d.len(),
                opt
            );
        }
    }

    #[test]
    fn empty_graph() {
        assert!(lenzen_planar_dominating_set(&Graph::empty(0), &[]).is_empty());
    }
}
