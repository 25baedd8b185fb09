//! Ball-based evaluation of LOCAL-model algorithms.
//!
//! A `t`-round LOCAL algorithm is, by definition (and by the standard
//! simulation argument), a function from each vertex's radius-`t` view —
//! the induced subgraph on `N_t[v]` together with all identifiers — to that
//! vertex's output. Evaluating that function directly per vertex is exactly
//! equivalent to running the message-passing protocol for `t` rounds with
//! unbounded messages, but avoids materialising the (potentially enormous)
//! LOCAL messages; this is how we execute the paper's LOCAL-model algorithms
//! (Lemma 16 / Theorem 17 and the Lenzen et al. baseline) on graphs with 10⁵⁺
//! vertices.
//!
//! The evaluation is embarrassingly parallel over vertices and runs through
//! the same [`ExecutionStrategy`] as the superstep engine, so sequential and
//! parallel evaluation share one code path and agree bit for bit.

use bedom_graph::bfs::BfsScratch;
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// The radius-`t` view of a single vertex: everything a LOCAL algorithm may
/// depend on after `t` communication rounds.
#[derive(Clone, Debug)]
pub struct LocalView<'g> {
    /// The whole network graph (access is *restricted* by the helper methods;
    /// algorithms must only look at vertices in [`LocalView::ball`]).
    graph: &'g Graph,
    /// The centre vertex (graph index).
    pub center: Vertex,
    /// View radius `t`.
    pub radius: u32,
    /// Vertices of `N_t(center)`, sorted by graph index.
    pub ball: Vec<Vertex>,
    /// `dist[i]` = distance from the centre to `ball[i]`.
    pub ball_distances: Vec<u32>,
    /// Network identifiers: `ids[v]` for every `v` in the graph (only entries
    /// for ball members are meaningful to the algorithm).
    ids: &'g [u64],
}

impl<'g> LocalView<'g> {
    /// Network id of a vertex in the view.
    pub fn id_of(&self, v: Vertex) -> u64 {
        self.ids[v as usize]
    }

    /// Whether `v` lies in this view.
    pub fn contains(&self, v: Vertex) -> bool {
        self.ball.binary_search(&v).is_ok()
    }

    /// Distance from the centre to `v` (`None` if outside the view).
    pub fn distance_to(&self, v: Vertex) -> Option<u32> {
        self.ball
            .binary_search(&v)
            .ok()
            .map(|i| self.ball_distances[i])
    }

    /// Neighbours of `v` *within the view*. For vertices at distance < radius
    /// from the centre this is their full neighbourhood, so edge information
    /// up to distance `radius` is complete — exactly the information `radius`
    /// LOCAL rounds provide.
    pub fn neighbors_in_view(&self, v: Vertex) -> Vec<Vertex> {
        self.graph
            .neighbors(v)
            .iter()
            .copied()
            .filter(|&w| self.contains(w))
            .collect()
    }
}

/// Evaluates a `radius`-round LOCAL algorithm given as a per-vertex function
/// of its [`LocalView`]. Returns the per-vertex outputs indexed by graph
/// vertex. Uses the automatic execution strategy; see [`run_local_with`] to
/// pin one.
pub fn run_local<O: Send>(
    graph: &Graph,
    ids: &[u64],
    radius: u32,
    algorithm: impl Fn(&LocalView<'_>) -> O + Sync,
) -> Vec<O> {
    run_local_with(ExecutionStrategy::Auto, graph, ids, radius, algorithm)
}

/// [`run_local`] with an explicit [`ExecutionStrategy`]; both strategies
/// produce identical outputs.
pub fn run_local_with<O: Send>(
    strategy: ExecutionStrategy,
    graph: &Graph,
    ids: &[u64],
    radius: u32,
    algorithm: impl Fn(&LocalView<'_>) -> O + Sync,
) -> Vec<O> {
    assert_eq!(
        ids.len(),
        graph.num_vertices(),
        "one id per vertex required"
    );
    let n = graph.num_vertices();
    // One scratch per worker, so that a view costs O(|ball|).
    strategy.map_collect_with(
        n,
        || BfsScratch::new(n),
        |scratch, v| algorithm(&view_in(scratch, graph, ids, v as Vertex, radius)),
    )
}

/// Builds the radius-`t` view of vertex `v`.
///
/// # Panics
///
/// If `v` is not a vertex of `graph`.
pub fn build_view<'g>(graph: &'g Graph, ids: &'g [u64], v: Vertex, radius: u32) -> LocalView<'g> {
    view_in(
        &mut BfsScratch::new(graph.num_vertices()),
        graph,
        ids,
        v,
        radius,
    )
}

/// [`build_view`] on a caller's scratch, which must cover `graph`: the ball
/// and its depths come from one bounded sweep, sorted by vertex.
fn view_in<'g>(
    scratch: &mut BfsScratch,
    graph: &'g Graph,
    ids: &'g [u64],
    v: Vertex,
    radius: u32,
) -> LocalView<'g> {
    let mut ball = Vec::new();
    scratch.closed_neighborhood_into(graph, v, radius, &mut ball);
    let ball_distances = scratch.entries().iter().map(|&(_, d)| d).collect();
    LocalView {
        graph,
        center: v,
        radius,
        ball,
        ball_distances,
        ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use bedom_graph::generators::{cycle, grid, path};

    #[test]
    fn view_contents_match_bfs_ball() {
        let g = path(10);
        let ids = IdAssignment::Natural.assign(&g);
        let view = build_view(&g, &ids, 4, 2);
        assert_eq!(view.ball, vec![2, 3, 4, 5, 6]);
        assert_eq!(view.distance_to(2), Some(2));
        assert_eq!(view.distance_to(4), Some(0));
        assert_eq!(view.distance_to(8), None);
        assert!(view.contains(5));
        assert!(!view.contains(7));
    }

    #[test]
    fn neighbors_in_view_are_clipped() {
        let g = path(10);
        let ids = IdAssignment::Natural.assign(&g);
        let view = build_view(&g, &ids, 0, 2);
        assert_eq!(view.neighbors_in_view(2), vec![1]); // 3 is outside the radius-2 ball of 0
        assert_eq!(view.neighbors_in_view(1), vec![0, 2]);
    }

    #[test]
    fn run_local_zero_rounds_sees_only_self() {
        let g = cycle(8);
        let ids = IdAssignment::Natural.assign(&g);
        let outputs = run_local(&g, &ids, 0, |view| view.ball.len());
        assert!(outputs.iter().all(|&len| len == 1));
    }

    #[test]
    fn run_local_computes_local_maxima() {
        // "Am I a local maximum among my distance-≤2 ball?" — a genuinely
        // local predicate; verify against a direct computation.
        let g = grid(6, 6);
        let ids = IdAssignment::Shuffled(3).assign(&g);
        let outputs = run_local(&g, &ids, 2, |view| {
            view.ball
                .iter()
                .all(|&w| view.id_of(w) <= view.id_of(view.center))
        });
        for v in g.vertices() {
            let ball = bedom_graph::bfs::closed_neighborhood(&g, v, 2);
            let expected = ball.iter().all(|&w| ids[w as usize] <= ids[v as usize]);
            assert_eq!(outputs[v as usize], expected, "vertex {v}");
        }
    }

    #[test]
    fn parallel_evaluation_is_deterministic() {
        let g = grid(10, 10);
        let ids = IdAssignment::Shuffled(11).assign(&g);
        let a = run_local(&g, &ids, 3, |view| view.ball.len());
        let b = run_local(&g, &ids, 3, |view| view.ball.len());
        assert_eq!(a, b);
    }
}
