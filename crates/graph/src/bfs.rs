//! Breadth-first search utilities: single- and multi-source distances, bounded
//! (depth-`r`) searches, eccentricities and radii of (sub)graphs.
//!
//! These back the definitions of Section 2 of the paper: closed
//! `r`-neighbourhoods `N_r[v]`, graph distance, and the radius used to state
//! the quality of neighbourhood covers (radius ≤ 2r, Theorem 4).

use crate::graph::{Graph, Vertex};
use std::cell::RefCell;

/// Distance value used for "unreachable".
pub const UNREACHABLE: u32 = u32::MAX;

thread_local! {
    /// One [`BfsScratch`] per thread backing the whole-graph entry points
    /// ([`bfs_distances`], [`multi_source_distances`], [`distance`],
    /// [`eccentricity`], [`radius`], [`closed_neighborhood`],
    /// [`closed_set_neighborhood`] and the domination validator
    /// [`is_distance_dominating_set`](crate::domset::is_distance_dominating_set)):
    /// repeated calls reuse a single epoch-stamped visited array instead of
    /// allocating and zeroing a fresh `vec![UNREACHABLE; n]` queue + marks
    /// pair per call. A worker thread of a batch therefore validates every
    /// shard it solves on one scratch.
    static SHARED_SCRATCH: RefCell<BfsScratch> = RefCell::new(BfsScratch::new(0));
}

/// Runs `f` with the thread's shared scratch, grown to cover `n` vertices.
/// The closure must not re-enter another `bfs` entry point that also takes
/// the shared scratch (the `RefCell` would panic) — none of them do.
fn with_shared_scratch<T>(n: usize, f: impl FnOnce(&mut BfsScratch) -> T) -> T {
    SHARED_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        scratch.ensure_capacity(n);
        f(&mut scratch)
    })
}

/// Panics unless `v` is a vertex of a graph of `n` vertices. A scratch grown
/// by a larger graph would otherwise record `v` and answer for it.
fn assert_in_graph(v: Vertex, n: usize) {
    assert!(
        (v as usize) < n,
        "vertex {v} is not in a graph of {n} vertices"
    );
}

/// Single-source BFS distances from `source`. `UNREACHABLE` marks vertices in
/// other components.
///
/// # Panics
///
/// If `source` is not a vertex of `graph`.
pub fn bfs_distances(graph: &Graph, source: Vertex) -> Vec<u32> {
    multi_source_distances(graph, std::slice::from_ref(&source))
}

/// Multi-source BFS: distance from the nearest vertex of `sources`
/// (duplicates allowed and ignored). Only the returned distance vector is
/// allocated; the traversal itself runs through the thread's shared
/// [`BfsScratch`].
///
/// # Panics
///
/// If a member of `sources` is not a vertex of `graph`.
pub fn multi_source_distances(graph: &Graph, sources: &[Vertex]) -> Vec<u32> {
    with_set_ball(graph, sources, UNREACHABLE, |scratch| {
        let mut dist = vec![UNREACHABLE; graph.num_vertices()];
        for &(v, d) in scratch.entries() {
            dist[v as usize] = d;
        }
        dist
    })
}

/// Distance between `u` and `v`, or `None` if they are disconnected: a BFS
/// from `u` on the thread's shared [`BfsScratch`] that stops when it reaches
/// `v`.
///
/// # Panics
///
/// If `u` or `v` is not a vertex of `graph`.
pub fn distance(graph: &Graph, u: Vertex, v: Vertex) -> Option<u32> {
    let n = graph.num_vertices();
    assert_in_graph(v, n);
    with_shared_scratch(n, |scratch| {
        scratch.ball(graph, std::slice::from_ref(&u), UNREACHABLE, |x| x == v)
    })
}

/// The closed `r`-neighbourhood `N_r[v]` (always contains `v`, per the paper's
/// convention that paths of length 0 are allowed), sorted by vertex id.
/// Runs [`BfsScratch::closed_neighborhood_into`] on the thread's shared
/// scratch, so a call touches `O(|N_r[v]|)` memory, not `Θ(n)`, and
/// allocates only the returned vector.
///
/// # Panics
///
/// If `v` is not a vertex of `graph`.
pub fn closed_neighborhood(graph: &Graph, v: Vertex, r: u32) -> Vec<Vertex> {
    let mut result = Vec::new();
    with_shared_scratch(graph.num_vertices(), |scratch| {
        scratch.closed_neighborhood_into(graph, v, r, &mut result);
    });
    result
}

/// Reusable scratch for repeated bounded BFS sweeps: an **epoch-stamped**
/// visited array that is reset in `O(1)` by bumping the epoch (never
/// re-allocated or re-zeroed per traversal) plus one flat `(vertex, depth)`
/// buffer that doubles as BFS queue and output. Running `n` bounded BFS
/// sweeps through one scratch therefore touches `O(Σ ball sizes)` memory
/// instead of the `Θ(n²)` of a fresh `vec![false; n]` per source — the
/// difference Theorem 5's linear-time claim rests on.
///
/// Callers drive the traversal themselves (so arbitrary visit predicates —
/// order restrictions, placement filters — compose without closures):
///
/// ```
/// use bedom_graph::bfs::BfsScratch;
/// use bedom_graph::graph_from_edges;
///
/// let g = graph_from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
/// let mut scratch = BfsScratch::new(4);
/// scratch.begin();
/// scratch.try_visit(1, 0);
/// let mut head = 0;
/// while let Some(&(x, d)) = scratch.entries().get(head) {
///     head += 1;
///     if d >= 1 {
///         continue;
///     }
///     for &w in g.neighbors(x) {
///         scratch.try_visit(w, d + 1);
///     }
/// }
/// assert_eq!(scratch.entries().len(), 3); // {1} ∪ N(1) = {0, 1, 2}
/// ```
#[derive(Clone, Debug)]
pub struct BfsScratch {
    stamp: Vec<u32>,
    epoch: u32,
    entries: Vec<(Vertex, u32)>,
}

impl BfsScratch {
    /// A scratch for graphs with `n` vertices. Allocates once; every
    /// traversal after the first is allocation-free at steady state.
    pub fn new(n: usize) -> Self {
        BfsScratch {
            stamp: vec![0; n],
            epoch: 0,
            entries: Vec::new(),
        }
    }

    /// Grows the scratch to cover graphs of up to `n` vertices (no-op when it
    /// is already large enough). Lets one scratch be reused across a batch of
    /// differently-sized graphs — e.g. the shards of a scenario run — without
    /// re-allocating per shard once it reaches the largest size. Fresh slots
    /// carry stamp 0, which never equals a live epoch, so marks from the
    /// current traversal stay valid.
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.stamp.len() < n {
            self.stamp.resize(n, 0);
        }
    }

    /// Starts a new traversal: clears the entry buffer and expires all
    /// previous visited marks by bumping the epoch (`O(1)`; the stamp array
    /// is only re-zeroed on the one-in-`u32::MAX` epoch wraparound).
    pub fn begin(&mut self) {
        self.entries.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
    }

    /// Marks `v` as visited at `depth` and records it, unless it was already
    /// visited in this traversal. Returns whether `v` was newly visited.
    #[inline]
    pub fn try_visit(&mut self, v: Vertex, depth: u32) -> bool {
        let slot = &mut self.stamp[v as usize];
        if *slot == self.epoch {
            return false;
        }
        *slot = self.epoch;
        self.entries.push((v, depth));
        true
    }

    /// Whether `v` has been visited in the current traversal.
    #[inline]
    pub fn visited(&self, v: Vertex) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    /// The vertices visited so far, with their BFS depths, in discovery order
    /// (or sorted, after [`BfsScratch::sort_entries_by_vertex`]).
    #[inline]
    pub fn entries(&self) -> &[(Vertex, u32)] {
        &self.entries
    }

    /// Sorts the recorded entries by vertex id (each vertex appears at most
    /// once, so the sort is total). Call after the traversal completes.
    pub fn sort_entries_by_vertex(&mut self) {
        self.entries.sort_unstable_by_key(|&(v, _)| v);
    }

    /// The closed `r`-neighbourhood `N_r[v]`, appended to `out` sorted by
    /// vertex id — what [`closed_neighborhood`] computes on the thread's
    /// shared scratch.
    ///
    /// # Panics
    ///
    /// If `v` is not a vertex of `graph`, even when the scratch was grown
    /// for a larger graph.
    pub fn closed_neighborhood_into(
        &mut self,
        graph: &Graph,
        v: Vertex,
        r: u32,
        out: &mut Vec<Vertex>,
    ) {
        self.ball(graph, std::slice::from_ref(&v), r, |_| false);
        self.sort_entries_by_vertex();
        out.extend(self.entries.iter().map(|&(w, _)| w));
    }

    /// The depth-`r` multi-source sweep behind every closed-neighbourhood
    /// query, every distance and the domination validator: a new traversal
    /// that records each vertex within distance `r` of `sources` (duplicates
    /// ignored) with its depth, in discovery order. It stops at the first
    /// dequeued vertex that `stop` accepts and returns that vertex's depth,
    /// or `None` if no vertex within reach is accepted. Panics on a source
    /// outside `graph`.
    fn ball(
        &mut self,
        graph: &Graph,
        sources: &[Vertex],
        r: u32,
        stop: impl Fn(Vertex) -> bool,
    ) -> Option<u32> {
        let n = graph.num_vertices();
        self.begin();
        for &s in sources {
            assert_in_graph(s, n);
            self.try_visit(s, 0);
        }
        let mut head = 0;
        while let Some(&(x, d)) = self.entries.get(head) {
            if stop(x) {
                return Some(d);
            }
            head += 1;
            if d >= r {
                continue;
            }
            for &w in graph.neighbors(x) {
                self.try_visit(w, d + 1);
            }
        }
        None
    }
}

/// Runs the depth-`r` sweep from `set` on the thread's shared scratch and
/// hands `f` the scratch, whose entries are then `N_r[set]` with depths.
///
/// # Panics
///
/// If a member of `set` is not a vertex of `graph`.
pub(crate) fn with_set_ball<T>(
    graph: &Graph,
    set: &[Vertex],
    r: u32,
    f: impl FnOnce(&mut BfsScratch) -> T,
) -> T {
    with_shared_scratch(graph.num_vertices(), |scratch| {
        scratch.ball(graph, set, r, |_| false);
        f(scratch)
    })
}

/// Closed `r`-neighbourhood of a set: `N_r[A] = ∪_{v∈A} N_r[v]`, sorted.
/// A depth-bounded multi-source sweep through the thread's shared
/// [`BfsScratch`]: touches `O(|N_r[A]|)` memory, not `Θ(n)` per call.
///
/// # Panics
///
/// If a member of `set` is not a vertex of `graph`.
pub fn closed_set_neighborhood(graph: &Graph, set: &[Vertex], r: u32) -> Vec<Vertex> {
    with_set_ball(graph, set, r, |scratch| {
        scratch.sort_entries_by_vertex();
        scratch.entries().iter().map(|&(w, _)| w).collect()
    })
}

/// Eccentricity of `v` within its connected component (max distance to a
/// reachable vertex). Runs through the thread's shared [`BfsScratch`], so no
/// distance vector is materialised.
///
/// # Panics
///
/// If `v` is not a vertex of `graph`.
pub fn eccentricity(graph: &Graph, v: Vertex) -> u32 {
    eccentricity_up_to(graph, v, UNREACHABLE)
}

/// `min(eccentricity(v), cutoff)`: the depth-`cutoff` sweep from `v`. FIFO
/// order makes depths non-decreasing, so the last entry's depth is the
/// maximum. [`radius`] passes its best value so far as the cutoff.
fn eccentricity_up_to(graph: &Graph, v: Vertex, cutoff: u32) -> u32 {
    with_set_ball(graph, std::slice::from_ref(&v), cutoff, |scratch| {
        scratch.entries().last().map_or(0, |&(_, d)| d)
    })
}

/// Radius of a connected graph: `min_v ecc(v)`.
///
/// Returns `None` if the graph is empty or disconnected. This is the quantity
/// bounded by `2r` for every cluster of the paper's neighbourhood covers.
pub fn radius(graph: &Graph) -> Option<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return None;
    }
    // Check connectivity once.
    let d0 = bfs_distances(graph, 0);
    if d0.contains(&UNREACHABLE) {
        return None;
    }
    // Exact radius by n BFS runs would be O(nm); use the standard refinement:
    // start from a vertex of maximum distance ordering and prune with lower
    // bounds. For the moderate cluster sizes we measure, a direct scan with an
    // early-stopping lower bound is sufficient and exact.
    let mut best = u32::MAX;
    for v in graph.vertices() {
        best = eccentricity_up_to(graph, v, best);
        if best == 0 {
            break;
        }
    }
    Some(best)
}

/// Radius of the subgraph of `graph` induced by `cluster` (duplicates allowed
/// and ignored). `None` if the induced subgraph is empty or disconnected.
///
/// This is the measurement used to verify the radius bound of Theorem 4 /
/// Theorem 8 for every cluster `X_v`.
pub fn induced_radius(graph: &Graph, cluster: &[Vertex]) -> Option<u32> {
    let (sub, _) = graph.induced_subgraph(cluster);
    radius(&sub)
}

/// Diameter of a connected graph (max eccentricity); `None` if disconnected or
/// empty.
pub fn diameter(graph: &Graph) -> Option<u32> {
    let n = graph.num_vertices();
    if n == 0 {
        return None;
    }
    let d0 = bfs_distances(graph, 0);
    if d0.contains(&UNREACHABLE) {
        return None;
    }
    let mut best = 0;
    for v in graph.vertices() {
        best = best.max(eccentricity(graph, v));
    }
    Some(best)
}

/// All-pairs shortest path distances via repeated BFS. Quadratic memory — only
/// for small validation graphs.
pub fn all_pairs_distances(graph: &Graph) -> Vec<Vec<u32>> {
    graph.vertices().map(|v| bfs_distances(graph, v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::graph_from_edges;

    fn path_graph(n: usize) -> Graph {
        let edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        graph_from_edges(n, &edges)
    }

    fn cycle_graph(n: usize) -> Graph {
        let mut edges: Vec<_> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        edges.push((n as u32 - 1, 0));
        graph_from_edges(n, &edges)
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = path_graph(5);
        let d = bfs_distances(&g, 0);
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
        let d = bfs_distances(&g, 2);
        assert_eq!(d, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn bfs_marks_unreachable() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        let d = bfs_distances(&g, 0);
        assert_eq!(d[0], 0);
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn multi_source_takes_nearest() {
        let g = path_graph(7);
        let d = multi_source_distances(&g, &[0, 6]);
        assert_eq!(d, vec![0, 1, 2, 3, 2, 1, 0]);
    }

    #[test]
    fn distance_pairwise() {
        let g = cycle_graph(6);
        assert_eq!(distance(&g, 0, 3), Some(3));
        assert_eq!(distance(&g, 0, 5), Some(1));
        assert_eq!(distance(&g, 2, 2), Some(0));
        let g2 = graph_from_edges(3, &[(0, 1)]);
        assert_eq!(distance(&g2, 0, 2), None);
    }

    #[test]
    fn closed_neighborhood_contains_self_and_respects_radius() {
        let g = path_graph(7);
        assert_eq!(closed_neighborhood(&g, 3, 0), vec![3]);
        assert_eq!(closed_neighborhood(&g, 3, 1), vec![2, 3, 4]);
        assert_eq!(closed_neighborhood(&g, 3, 2), vec![1, 2, 3, 4, 5]);
        assert_eq!(closed_neighborhood(&g, 0, 2), vec![0, 1, 2]);
    }

    #[test]
    fn scratch_neighborhoods_match_fresh_queries_across_epochs() {
        let g = cycle_graph(9);
        let mut scratch = BfsScratch::new(9);
        let mut out = Vec::new();
        // Repeated sweeps through one scratch must each match a fresh BFS —
        // the epoch bump, not a re-zeroed array, invalidates old marks.
        for round in 0..3 {
            for v in 0..9u32 {
                for r in 0..=3u32 {
                    out.clear();
                    scratch.closed_neighborhood_into(&g, v, r, &mut out);
                    assert_eq!(
                        out,
                        closed_neighborhood(&g, v, r),
                        "round {round}, v={v}, r={r}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_grows_across_differently_sized_graphs() {
        let small = path_graph(3);
        let big = cycle_graph(8);
        let mut scratch = BfsScratch::new(0);
        let mut out = Vec::new();
        scratch.ensure_capacity(small.num_vertices());
        scratch.closed_neighborhood_into(&small, 1, 1, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        out.clear();
        scratch.ensure_capacity(big.num_vertices());
        scratch.closed_neighborhood_into(&big, 0, 2, &mut out);
        assert_eq!(out, closed_neighborhood(&big, 0, 2));
        // Shrinking is never needed: a larger scratch serves smaller graphs.
        scratch.ensure_capacity(1);
        out.clear();
        scratch.closed_neighborhood_into(&small, 0, 1, &mut out);
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn scratch_epoch_wraparound_resets_marks() {
        let g = path_graph(3);
        let mut scratch = BfsScratch::new(3);
        // Force the epoch to the wrapping point and check marks still expire.
        scratch.epoch = u32::MAX - 1;
        let mut out = Vec::new();
        scratch.closed_neighborhood_into(&g, 0, 1, &mut out); // epoch -> MAX
        assert_eq!(out, vec![0, 1]);
        out.clear();
        scratch.closed_neighborhood_into(&g, 2, 1, &mut out); // epoch wraps -> 1
        assert_eq!(out, vec![1, 2]);
        assert!(!scratch.visited(0));
    }

    #[test]
    fn closed_set_neighborhood_is_union() {
        let g = path_graph(9);
        let nbh = closed_set_neighborhood(&g, &[0, 8], 1);
        assert_eq!(nbh, vec![0, 1, 7, 8]);
        // Duplicate sources collapse, and r = 0 is the (sorted) set itself.
        assert_eq!(closed_set_neighborhood(&g, &[4, 4, 0], 0), vec![0, 4]);
    }

    #[test]
    #[should_panic(expected = "vertex 7 is not in a graph of 5 vertices")]
    fn closed_neighborhood_rejects_a_vertex_outside_the_graph() {
        // The warm-up grows the thread's shared scratch past vertex 7.
        closed_neighborhood(&path_graph(100), 50, 2);
        closed_neighborhood(&path_graph(5), 7, 0);
    }

    #[test]
    #[should_panic(expected = "vertex 7 is not in a graph of 5 vertices")]
    fn closed_set_neighborhood_rejects_a_vertex_outside_the_graph() {
        closed_set_neighborhood(&path_graph(100), &[50], 2);
        closed_set_neighborhood(&path_graph(5), &[7], 0);
    }

    #[test]
    fn entry_points_refuse_a_vertex_outside_the_graph() {
        // The warm-up grows the thread's shared scratch past vertex 5, which
        // each call below must refuse rather than answer for.
        closed_neighborhood(&path_graph(100), 50, 2);
        let g = path_graph(5);
        let calls: [(&str, &dyn Fn()); 6] = [
            ("distance(5, 5)", &|| {
                let _ = distance(&g, 5, 5);
            }),
            ("distance(0, 5)", &|| {
                let _ = distance(&g, 0, 5);
            }),
            ("distance(5, 0)", &|| {
                let _ = distance(&g, 5, 0);
            }),
            ("eccentricity", &|| {
                let _ = eccentricity(&g, 5);
            }),
            ("bfs_distances", &|| {
                let _ = bfs_distances(&g, 5);
            }),
            ("multi_source_distances", &|| {
                let _ = multi_source_distances(&g, &[0, 5]);
            }),
        ];
        for (name, call) in calls {
            let panic =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(call)).expect_err(name);
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(
                message,
                Some("vertex 5 is not in a graph of 5 vertices"),
                "{name}"
            );
        }
    }

    #[test]
    fn shared_scratch_entry_points_agree_with_naive_references() {
        // The rewired entry points reuse one thread-local scratch; repeated
        // interleaved calls must each still match a from-scratch computation.
        let g = graph_from_edges(9, &[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (7, 8)]);
        for _ in 0..3 {
            for v in 0..9u32 {
                let d = bfs_distances(&g, v);
                let naive_ecc = d.iter().copied().filter(|&x| x != UNREACHABLE).max();
                assert_eq!(eccentricity(&g, v), naive_ecc.unwrap_or(0), "v={v}");
                for r in 0..=2u32 {
                    let want: Vec<u32> = (0..9u32).filter(|&w| d[w as usize] <= r).collect();
                    assert_eq!(closed_set_neighborhood(&g, &[v], r), want, "v={v} r={r}");
                }
            }
            let multi = multi_source_distances(&g, &[0, 6, 6]);
            assert_eq!(multi, vec![0, 1, 2, 1, 2, 1, 0, UNREACHABLE, UNREACHABLE]);
        }
    }

    #[test]
    fn radius_and_diameter_of_path_and_cycle() {
        let p = path_graph(7);
        assert_eq!(radius(&p), Some(3));
        assert_eq!(diameter(&p), Some(6));
        let c = cycle_graph(8);
        assert_eq!(radius(&c), Some(4));
        assert_eq!(diameter(&c), Some(4));
    }

    #[test]
    fn radius_none_for_disconnected_or_empty() {
        let g = graph_from_edges(4, &[(0, 1), (2, 3)]);
        assert_eq!(radius(&g), None);
        assert_eq!(diameter(&g), None);
        let e = Graph::empty(0);
        assert_eq!(radius(&e), None);
    }

    #[test]
    fn induced_radius_of_cluster() {
        let g = path_graph(10);
        assert_eq!(induced_radius(&g, &[2, 3, 4, 5, 6]), Some(2));
        assert_eq!(induced_radius(&g, &[2, 4]), None); // disconnected inside cluster
        assert_eq!(induced_radius(&g, &[7]), Some(0));
    }

    #[test]
    fn all_pairs_symmetric() {
        let g = cycle_graph(5);
        let d = all_pairs_distances(&g);
        for (u, row) in d.iter().enumerate() {
            for (v, &duv) in row.iter().enumerate() {
                assert_eq!(duv, d[v][u]);
            }
        }
    }

    #[test]
    fn eccentricity_of_center_and_leaf() {
        let g = path_graph(5);
        assert_eq!(eccentricity(&g, 2), 2);
        assert_eq!(eccentricity(&g, 0), 4);
    }
}
