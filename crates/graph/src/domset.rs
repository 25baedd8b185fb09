//! Reference algorithms for (distance-r) dominating sets: validity checking,
//! the classical greedy set-cover approximation, an exact branch-and-bound
//! solver for small instances and a packing-based lower bound for large ones.
//!
//! These are the yardsticks every approximation-ratio experiment (T1, T4, T5,
//! T6 in DESIGN.md) measures against. None of them is the paper's
//! contribution; the paper's own algorithms live in `bedom-core`.

use crate::bfs::{closed_neighborhood, multi_source_distances, UNREACHABLE};
use crate::bitset::{reach_words64, ReachMatrix};
use crate::graph::{Graph, Vertex};
use crate::power::all_closed_neighborhoods;
use std::collections::BinaryHeap;

/// Largest `n` for which the brute-force validator routes through the
/// word-parallel `N_r[·]` bitset rows ([`ReachMatrix`]) instead of a scalar
/// multi-source BFS. At these sizes the rows cost about as much as the one
/// scalar BFS while the membership test collapses to word ANDs — and the
/// conformance corpus then exercises the bitset kernel inside the validator
/// itself. Beyond the gate a single `O(n + m)` scalar BFS is strictly
/// cheaper than building `n²/64` words of rows, so large instances keep the
/// scalar path.
const BITSET_VALIDATOR_MAX_N: usize = 512;

/// Checks that `set` is a distance-`r` dominating set of `graph`: every vertex
/// is within distance `r` of some member of `set`.
///
/// The empty set dominates only the empty graph. Small instances (up to
/// `BITSET_VALIDATOR_MAX_N`) are checked against word-parallel `N_r[·]`
/// bitset rows; larger ones by one scalar multi-source BFS.
pub fn is_distance_dominating_set(graph: &Graph, set: &[Vertex], r: u32) -> bool {
    let n = graph.num_vertices();
    if n == 0 {
        return true;
    }
    if set.is_empty() {
        return false;
    }
    if n <= BITSET_VALIDATOR_MAX_N {
        return ReachMatrix::build(graph, r).covers(set);
    }
    let dist = multi_source_distances(graph, set);
    dist.iter().all(|&d| d != UNREACHABLE && d <= r)
}

/// Vertices *not* dominated by `set` at distance `r` (sorted). Routed like
/// [`is_distance_dominating_set`]: bitset rows below the size gate, scalar
/// multi-source BFS above it.
pub fn undominated_vertices(graph: &Graph, set: &[Vertex], r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    if set.is_empty() {
        return graph.vertices().collect();
    }
    if n <= BITSET_VALIDATOR_MAX_N {
        return ReachMatrix::build(graph, r).uncovered(set);
    }
    let dist = multi_source_distances(graph, set);
    graph
        .vertices()
        .filter(|&v| dist[v as usize] == UNREACHABLE || dist[v as usize] > r)
        .collect()
}

/// Classical greedy distance-`r` dominating set: repeatedly pick the vertex
/// whose closed `r`-neighbourhood covers the most not-yet-dominated vertices.
///
/// Achieves the `ln n − ln ln n + Θ(1)` ratio quoted in the paper's
/// introduction (via the set-cover reduction); used as the general-purpose
/// baseline in T1/T6.
pub fn greedy_distance_dominating_set(graph: &Graph, r: u32) -> Vec<Vertex> {
    let n = graph.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let neighborhoods = all_closed_neighborhoods(graph, r);
    let mut dominated = vec![false; n];
    let mut remaining = n;
    let mut result = Vec::new();
    // Lazy-deletion max-heap of (gain, vertex). Gains only decrease, so a
    // popped entry whose recomputed gain still matches is globally maximal.
    let mut heap: BinaryHeap<(usize, Vertex)> = graph
        .vertices()
        .map(|v| (neighborhoods[v as usize].len(), v))
        .collect();
    while remaining > 0 {
        let (claimed_gain, v) = heap.pop().expect("heap exhausted before full domination");
        let actual_gain = neighborhoods[v as usize]
            .iter()
            .filter(|&&w| !dominated[w as usize])
            .count();
        if actual_gain < claimed_gain {
            if actual_gain > 0 {
                heap.push((actual_gain, v));
            }
            continue;
        }
        if actual_gain == 0 {
            // All remaining entries have gain 0 as well, yet vertices remain
            // undominated: they must be isolated from every candidate, which
            // cannot happen since each vertex covers itself. Defensive break.
            break;
        }
        result.push(v);
        for &w in &neighborhoods[v as usize] {
            if !dominated[w as usize] {
                dominated[w as usize] = true;
                remaining -= 1;
            }
        }
    }
    result.sort_unstable();
    result
}

/// Greedy ordinary dominating set (`r = 1`).
pub fn greedy_dominating_set(graph: &Graph) -> Vec<Vertex> {
    greedy_distance_dominating_set(graph, 1)
}

/// Exact minimum distance-`r` dominating set by branch and bound over the
/// set-cover formulation. Exponential in the worst case; intended for
/// instances up to a few hundred vertices (the sizes used in T1 to measure
/// true approximation ratios).
///
/// Returns `None` if the search exceeds `node_budget` branch-and-bound nodes,
/// so callers can fall back to the packing lower bound.
pub fn exact_distance_dominating_set(
    graph: &Graph,
    r: u32,
    node_budget: usize,
) -> Option<Vec<Vertex>> {
    let n = graph.num_vertices();
    if n == 0 {
        return Some(Vec::new());
    }
    let neighborhoods = all_closed_neighborhoods(graph, r);
    // who_can_dominate[v] = vertices u with v ∈ N_r[u]; by symmetry of
    // distance this equals N_r[v].
    let coverers: Vec<Vec<Vertex>> = neighborhoods.clone();

    // Start from the greedy solution as the incumbent upper bound.
    let greedy = greedy_distance_dominating_set(graph, r);
    let mut best: Vec<Vertex> = greedy;
    let mut budget = node_budget;

    struct Search<'a> {
        neighborhoods: &'a [Vec<Vertex>],
        coverers: &'a [Vec<Vertex>],
    }

    impl<'a> Search<'a> {
        /// Recursive branch and bound. `chosen` is the current partial
        /// solution, `dominated` its coverage. Returns false if the node
        /// budget was exhausted.
        fn recurse(
            &self,
            chosen: &mut Vec<Vertex>,
            dominated: &mut Vec<bool>,
            remaining: usize,
            best: &mut Vec<Vertex>,
            budget: &mut usize,
        ) -> bool {
            if *budget == 0 {
                return false;
            }
            *budget -= 1;
            if remaining == 0 {
                if chosen.len() < best.len() {
                    *best = chosen.clone();
                }
                return true;
            }
            if chosen.len() + 1 >= best.len() {
                // Even one more vertex cannot beat the incumbent.
                return true;
            }
            // Simple lower bound: remaining / max cover size.
            let max_cover = self
                .neighborhoods
                .iter()
                .map(|nb| nb.len())
                .max()
                .unwrap_or(1)
                .max(1);
            let lb = remaining.div_ceil(max_cover);
            if chosen.len() + lb >= best.len() {
                return true;
            }
            // Branch on the undominated vertex with the fewest candidate
            // dominators (most constrained first).
            let mut pivot = None;
            let mut pivot_options = usize::MAX;
            for (v, &is_dominated) in dominated.iter().enumerate() {
                if !is_dominated {
                    let options = self.coverers[v].len();
                    if options < pivot_options {
                        pivot_options = options;
                        pivot = Some(v);
                        if options <= 1 {
                            break;
                        }
                    }
                }
            }
            let pivot = pivot.expect("remaining > 0 but no undominated vertex");
            let mut complete = true;
            for &candidate in &self.coverers[pivot] {
                let mut newly = Vec::new();
                for &w in &self.neighborhoods[candidate as usize] {
                    if !dominated[w as usize] {
                        dominated[w as usize] = true;
                        newly.push(w);
                    }
                }
                chosen.push(candidate);
                complete &= self.recurse(chosen, dominated, remaining - newly.len(), best, budget);
                chosen.pop();
                for w in newly {
                    dominated[w as usize] = false;
                }
                if !complete {
                    break;
                }
            }
            complete
        }
    }

    let search = Search {
        neighborhoods: &neighborhoods,
        coverers: &coverers,
    };
    let mut chosen = Vec::new();
    let mut dominated = vec![false; n];
    let complete = search.recurse(&mut chosen, &mut dominated, n, &mut best, &mut budget);
    if complete {
        best.sort_unstable();
        Some(best)
    } else {
        None
    }
}

/// Largest instance [`bitmask_minimum_domination_number`] will solve.
/// Raised from 20 to 26 by the word-parallel rework: the `N_r[·]` rows come
/// from the bitset BFS kernel ([`reach_words64`]) as one `u64` word per
/// vertex, and subsets are enumerated in increasing size (Gosper's hack per
/// size class), so the oracle checks `Σ_{k ≤ γ} C(n, k)` candidates at
/// `O(k)` word ORs each instead of all `2ⁿ` — instant on a single core for
/// every corpus instance up to 26 vertices.
pub const BITMASK_ORACLE_MAX_N: usize = 26;

/// The exact minimum distance-`r` dominating set size by brute-force subset
/// enumeration over `u64` coverage bitmasks — the ground-truth oracle of the
/// conformance harness. Unlike [`exact_distance_dominating_set`] (branch and
/// bound, heuristic pruning, a node budget that can give up), this has no
/// search-tree cleverness to mistrust: subsets are enumerated exhaustively
/// in increasing size (all `C(n, k)` size-`k` candidates via Gosper's hack,
/// then `k + 1`), so the first size with a covering subset **is** the
/// minimum — every smaller size was checked in full. The coverage test is
/// the OR of the members' `N_r[·]` rows (built by the word-parallel bitset
/// kernel) against the all-ones word: `O(k · n/64)` word ops per candidate.
///
/// Returns `None` when `n >` [`BITMASK_ORACLE_MAX_N`] (callers fall back to
/// the packing bound). The empty graph has domination number 0.
pub fn bitmask_minimum_domination_number(graph: &Graph, r: u32) -> Option<usize> {
    let n = graph.num_vertices();
    if n > BITMASK_ORACLE_MAX_N {
        return None;
    }
    if n == 0 {
        return Some(0);
    }
    // The size gate keeps n ≤ 26 ≤ 64: one lane word holds every vertex.
    let limit: u64 = 1u64 << n;
    let full: u64 = limit - 1;
    // rows[v] = N_r[v] as a bitmask, via the word-parallel BFS kernel.
    let rows: Vec<u64> = reach_words64(graph, r);
    for k in 1..=n {
        // All size-k subsets in Gosper order; first success is the minimum.
        let mut subset: u64 = (1u64 << k) - 1;
        while subset < limit {
            let mut covered = 0u64;
            let mut bits = subset;
            while bits != 0 {
                covered |= rows[bits.trailing_zeros() as usize];
                if covered == full {
                    break;
                }
                bits &= bits - 1;
            }
            if covered == full {
                return Some(k);
            }
            // Gosper's hack: the next subset with k bits set.
            let c = subset & subset.wrapping_neg();
            let up = subset + c;
            subset = up | (((subset ^ up) >> 2) / c);
        }
    }
    // V itself always dominates at any radius, so k = n succeeded above.
    Some(n)
}

/// A lower bound on the minimum distance-`r` dominating set size via a
/// greedily constructed `2r`-independent set (a set of vertices pairwise at
/// distance > 2r): no vertex can distance-r dominate two of them, so the
/// packing size is a valid lower bound on OPT. Used on instances too large
/// for the exact solver.
pub fn packing_lower_bound(graph: &Graph, r: u32) -> usize {
    let n = graph.num_vertices();
    if n == 0 {
        return 0;
    }
    let mut blocked = vec![false; n];
    let mut count = 0usize;
    // Greedy maximal packing, scanning vertices in id order.
    for v in graph.vertices() {
        if blocked[v as usize] {
            continue;
        }
        count += 1;
        for w in closed_neighborhood(graph, v, 2 * r) {
            blocked[w as usize] = true;
        }
    }
    count
}

/// Measured quality of a dominating set against the best available reference:
/// the exact optimum when the branch-and-bound solver finishes within budget,
/// otherwise the packing lower bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproximationQuality {
    /// Size of the evaluated set.
    pub size: usize,
    /// Size of the reference (OPT or a lower bound on OPT).
    pub reference: usize,
    /// Whether the reference is exact.
    pub reference_is_exact: bool,
    /// `size / reference` (∞ if the reference is 0 and size > 0).
    pub ratio: f64,
}

/// Computes [`ApproximationQuality`] for `set` on `graph`.
pub fn approximation_quality(
    graph: &Graph,
    set: &[Vertex],
    r: u32,
    exact_node_budget: usize,
) -> ApproximationQuality {
    let exact = exact_distance_dominating_set(graph, r, exact_node_budget);
    let (reference, reference_is_exact) = match exact {
        Some(opt) => (opt.len(), true),
        None => (packing_lower_bound(graph, r), false),
    };
    let ratio = if reference == 0 {
        if set.is_empty() {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        set.len() as f64 / reference as f64
    };
    ApproximationQuality {
        size: set.len(),
        reference,
        reference_is_exact,
        ratio,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{cycle, grid, path, star};
    use crate::graph::graph_from_edges;

    #[test]
    fn validity_checks() {
        let g = path(5);
        assert!(is_distance_dominating_set(&g, &[2], 2));
        assert!(!is_distance_dominating_set(&g, &[2], 1));
        assert!(is_distance_dominating_set(&g, &[1, 3], 1));
        assert!(!is_distance_dominating_set(&g, &[], 1));
        assert!(is_distance_dominating_set(&Graph::empty(0), &[], 3));
    }

    #[test]
    fn undominated_listing() {
        let g = path(6);
        assert_eq!(undominated_vertices(&g, &[0], 1), vec![2, 3, 4, 5]);
        assert_eq!(undominated_vertices(&g, &[2, 5], 1), vec![0]);
        assert!(undominated_vertices(&g, &[2, 5], 2).is_empty());
        assert_eq!(undominated_vertices(&g, &[], 1).len(), 6);
    }

    #[test]
    fn greedy_dominates_and_is_reasonable_on_path() {
        let g = path(21);
        for r in 1..=3u32 {
            let d = greedy_distance_dominating_set(&g, r);
            assert!(is_distance_dominating_set(&g, &d, r));
            // Optimal on a path is ceil(n / (2r+1)); greedy should be within 2x.
            let opt = (21 + 2 * r as usize) / (2 * r as usize + 1);
            assert!(d.len() <= 2 * opt, "r = {r}: {} vs opt {opt}", d.len());
        }
    }

    #[test]
    fn greedy_on_star_picks_center() {
        let g = star(30);
        let d = greedy_dominating_set(&g);
        assert_eq!(d, vec![0]);
    }

    #[test]
    fn exact_solver_matches_known_optima() {
        // Path P_n: γ_r = ceil(n / (2r + 1)).
        for (n, r) in [(7usize, 1u32), (10, 1), (9, 2), (13, 2)] {
            let g = path(n);
            let opt = exact_distance_dominating_set(&g, r, 1_000_000).unwrap();
            assert!(is_distance_dominating_set(&g, &opt, r));
            assert_eq!(
                opt.len(),
                (n + 2 * r as usize) / (2 * r as usize + 1),
                "P_{n}, r={r}"
            );
        }
        // Cycle C_n: γ_r = ceil(n / (2r + 1)).
        for (n, r) in [(9usize, 1u32), (12, 1), (15, 2)] {
            let g = cycle(n);
            let opt = exact_distance_dominating_set(&g, r, 1_000_000).unwrap();
            assert_eq!(
                opt.len(),
                (n + 2 * r as usize) / (2 * r as usize + 1),
                "C_{n}, r={r}"
            );
        }
        // 3x3 grid has domination number 3.
        let g = grid(3, 3);
        let opt = exact_distance_dominating_set(&g, 1, 1_000_000).unwrap();
        assert_eq!(opt.len(), 3);
    }

    #[test]
    fn exact_solver_respects_budget() {
        // A moderately large instance with a tiny budget must bail out.
        let g = grid(12, 12);
        assert_eq!(exact_distance_dominating_set(&g, 1, 5), None);
    }

    #[test]
    fn packing_lower_bound_is_valid() {
        for (g, r) in [
            (path(20), 1u32),
            (path(20), 2),
            (cycle(17), 1),
            (grid(6, 6), 1),
            (star(12), 1),
        ] {
            let lb = packing_lower_bound(&g, r);
            let opt = exact_distance_dominating_set(&g, r, 5_000_000).unwrap();
            assert!(lb <= opt.len(), "lb {lb} > opt {}", opt.len());
            assert!(lb >= 1);
        }
    }

    #[test]
    fn bitmask_oracle_matches_known_optima_and_the_branch_and_bound() {
        // Known closed forms: γ_r(P_n) = γ_r(C_n) = ⌈n / (2r + 1)⌉. The
        // n ∈ (20, 26] cases exercise the enlarged size-ordered oracle.
        for (n, r) in [
            (7usize, 1u32),
            (13, 1),
            (9, 2),
            (13, 2),
            (15, 3),
            (21, 2),
            (25, 2),
            (26, 3),
        ] {
            let g = path(n);
            assert_eq!(
                bitmask_minimum_domination_number(&g, r),
                Some((n + 2 * r as usize) / (2 * r as usize + 1)),
                "P_{n}, r={r}"
            );
        }
        for (n, r) in [(9usize, 1u32), (12, 1), (15, 2), (24, 2), (26, 3)] {
            let g = cycle(n);
            assert_eq!(
                bitmask_minimum_domination_number(&g, r),
                Some((n + 2 * r as usize) / (2 * r as usize + 1)),
                "C_{n}, r={r}"
            );
        }
        // Independent implementations must agree where both apply.
        for g in [
            grid(3, 4),
            star(11),
            graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]),
        ] {
            for r in [1u32, 2] {
                assert_eq!(
                    bitmask_minimum_domination_number(&g, r).unwrap(),
                    exact_distance_dominating_set(&g, r, 10_000_000)
                        .unwrap()
                        .len(),
                    "r = {r}"
                );
            }
        }
        // Edge cases and the size gate.
        assert_eq!(
            bitmask_minimum_domination_number(&Graph::empty(0), 2),
            Some(0)
        );
        assert_eq!(
            bitmask_minimum_domination_number(&Graph::empty(1), 1),
            Some(1)
        );
        assert_eq!(
            bitmask_minimum_domination_number(&Graph::empty(3), 1),
            Some(3)
        );
        // Within the enlarged gate a former refusal now has an exact answer;
        // past the gate the oracle still declines rather than guessing.
        assert_eq!(bitmask_minimum_domination_number(&path(21), 1), Some(7));
        assert_eq!(bitmask_minimum_domination_number(&path(27), 1), None);
    }

    #[test]
    fn approximation_quality_ratios() {
        let g = path(15);
        let greedy = greedy_distance_dominating_set(&g, 1);
        let q = approximation_quality(&g, &greedy, 1, 1_000_000);
        assert!(q.reference_is_exact);
        assert_eq!(q.reference, 5);
        assert!(q.ratio >= 1.0);
        assert!(q.ratio <= 2.0);
    }

    #[test]
    fn disconnected_graph_domination() {
        let g = graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let d = greedy_dominating_set(&g);
        assert!(is_distance_dominating_set(&g, &d, 1));
        assert_eq!(d.len(), 3);
        let opt = exact_distance_dominating_set(&g, 1, 100_000).unwrap();
        assert_eq!(opt.len(), 3);
    }
}
