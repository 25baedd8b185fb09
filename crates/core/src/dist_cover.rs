//! Distributed sparse `r`-neighbourhood covers in CONGEST_BC — Theorem 8 of
//! the paper.
//!
//! Theorem 8 states that the cover of Theorem 4 can be *represented*
//! distributedly: after the order phase and the weak-reachability phase
//! (Lemma 7), every vertex `w` knows, for each `v ∈ WReach_2r[w]`, that it
//! belongs to the cluster `X_v`, together with a routing path of length at
//! most `2r` towards the cluster centre `v`. That per-vertex knowledge *is*
//! the distributed cover representation; this module packages it, offers the
//! global (collected) view used by the experiments, and verifies that it
//! coincides with the sequential cover built from the same order.

use crate::context::{DistContext, DistContextConfig};
use bedom_distsim::{ExecutionStrategy, IdAssignment, ModelViolation, RunStats};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::{LinearOrder, NeighborhoodCover};

/// Distributed representation of an `r`-neighbourhood cover.
#[derive(Clone, Debug)]
pub struct DistributedCover {
    /// The covering radius parameter `r`.
    pub r: u32,
    /// The linear order induced by the distributed super-ids.
    pub order: LinearOrder,
    /// Per-vertex cluster memberships: `memberships[w]` lists the centres `v`
    /// (as graph vertices) with `w ∈ X_v`, together with the routing path
    /// (as graph vertices, from the centre to `w`).
    pub memberships: Vec<Vec<(Vertex, Vec<Vertex>)>>,
    /// `home[w]` = the centre whose cluster is guaranteed to contain
    /// `N_r[w]` (namely `min WReach_r[w]`, Lemma 6) — computed *locally* by
    /// each vertex as the `L`-minimum of its memberships with a stored path
    /// of at most `r` edges; no extra rounds and no ball sweep.
    pub home: Vec<Vertex>,
    /// Rounds used by the order phase.
    pub order_rounds: usize,
    /// Rounds used by the weak-reachability phase.
    pub wreach_rounds: usize,
    /// Statistics of both phases.
    pub phase_stats: Vec<RunStats>,
    /// The measured degree bound `max_w |WReach_2r[w]|`.
    pub measured_constant: usize,
}

impl DistributedCover {
    /// Total communication rounds.
    pub fn total_rounds(&self) -> usize {
        self.order_rounds + self.wreach_rounds
    }

    /// Collects the distributed representation into explicit clusters
    /// (`clusters[v]` = sorted members of `X_v`), the form the sequential
    /// cover uses. A coordinator — not a network round — does this; it exists
    /// for verification and experiments only.
    pub fn collect_clusters(&self, n: usize) -> Vec<Vec<Vertex>> {
        let mut clusters: Vec<Vec<Vertex>> = vec![Vec::new(); n];
        for (w, entries) in self.memberships.iter().enumerate() {
            for (center, _path) in entries {
                clusters[*center as usize].push(w as Vertex);
            }
        }
        for cluster in &mut clusters {
            cluster.sort_unstable();
        }
        clusters
    }

    /// Converts to the sequential [`NeighborhoodCover`] form (same clusters,
    /// plus the per-vertex home-cluster pointers) for reuse of its
    /// verification methods. Pure packaging of the distributed
    /// representation — the homes were already computed locally during the
    /// protocol, so no ball sweep happens here (the pre-context version
    /// re-swept `min WReach_r` on every call).
    pub fn to_neighborhood_cover(&self, graph: &Graph) -> NeighborhoodCover {
        let clusters = self.collect_clusters(graph.num_vertices());
        NeighborhoodCover {
            r: self.r,
            clusters,
            home: self.home.clone(),
        }
    }
}

/// Configuration for the distributed cover computation.
#[derive(Clone, Copy, Debug)]
pub struct DistCoverConfig {
    /// Covering radius `r` (clusters have radius ≤ 2r).
    pub r: u32,
    /// Identifier assignment for the order phase.
    pub assignment: IdAssignment,
    /// Bandwidth multiplier (see
    /// [`WReachConfig::bandwidth_logs`](crate::WReachConfig::bandwidth_logs)).
    pub bandwidth_logs: Option<usize>,
    /// Engine execution strategy for both phases.
    pub strategy: ExecutionStrategy,
}

impl DistCoverConfig {
    /// Defaults: shuffled ids, unenforced bandwidth, size-gated automatic
    /// execution strategy.
    pub fn new(r: u32) -> Self {
        DistCoverConfig {
            r,
            assignment: IdAssignment::Shuffled(0xc0fe),
            bandwidth_logs: None,
            strategy: ExecutionStrategy::Auto,
        }
    }

    /// The same configuration with an explicit execution strategy.
    pub fn with_strategy(r: u32, strategy: ExecutionStrategy) -> Self {
        DistCoverConfig {
            strategy,
            ..DistCoverConfig::new(r)
        }
    }
}

/// Runs the Theorem 8 pipeline: elects a fresh [`DistContext`] at reach
/// radius `2r` and packages the cover representation from it.
pub fn distributed_neighborhood_cover(
    graph: &Graph,
    config: DistCoverConfig,
) -> Result<DistributedCover, ModelViolation> {
    let ctx = DistContext::elect(
        graph,
        DistContextConfig {
            assignment: config.assignment,
            bandwidth_logs: config.bandwidth_logs,
            strategy: config.strategy,
            ..DistContextConfig::for_domination(config.r)
        },
    )?;
    distributed_neighborhood_cover_in(&ctx, config.r)
}

/// Packages the Theorem 8 cover representation from an existing
/// [`DistContext`] — no additional protocol phase: the per-vertex
/// memberships *are* the weak-reachability outputs the context already
/// holds. A context at a reach radius larger than `2r` (e.g. the `2r + 1` of
/// a connected-domination run) serves the radius-`2r` cover by filtering the
/// stored paths to at most `2r` edges (they are restricted shortest paths,
/// so the filter recovers `WReach_2r` exactly).
///
/// # Panics
/// Panics if `ctx.max_radius() < 2r`.
pub fn distributed_neighborhood_cover_in(
    ctx: &DistContext<'_>,
    r: u32,
) -> Result<DistributedCover, ModelViolation> {
    // In u64, so that no r doubles past u32::MAX and wraps below the
    // context's radius.
    let reach = 2 * u64::from(r);
    assert!(
        u64::from(ctx.max_radius()) >= reach,
        "radius-{r} cover needs a context of reach radius ≥ {reach}, got {}",
        ctx.max_radius()
    );
    let graph = ctx.graph();
    if graph.num_vertices() == 0 {
        return Ok(DistributedCover {
            r,
            order: LinearOrder::identity(0),
            memberships: Vec::new(),
            home: Vec::new(),
            order_rounds: 0,
            wreach_rounds: 0,
            phase_stats: Vec::new(),
            measured_constant: 0,
        });
    }
    let wreach = ctx.wreach()?;

    let resolve = |sid: u32| -> Vertex {
        ctx.vertex_of_sid(u64::from(sid))
            .expect("path sid must belong to a vertex")
    };
    let mut memberships: Vec<Vec<(Vertex, Vec<Vertex>)>> = Vec::with_capacity(wreach.info.len());
    let mut home: Vec<Vertex> = Vec::with_capacity(wreach.info.len());
    let mut measured_constant = 0;
    for (w, info) in wreach.info.iter().enumerate() {
        let mut entries: Vec<(Vertex, Vec<Vertex>)> = Vec::with_capacity(info.paths.len());
        // Each vertex derives its home locally: the L-minimum membership
        // whose stored path has at most r edges is min WReach_r[w] (paths are
        // restricted shortest paths). Stored sids increase along the store,
        // and smaller sid = smaller in L, so the first short-enough entry is
        // the home.
        let mut my_home = w as Vertex;
        let mut home_found = false;
        for (center_sid, path) in info.paths.iter() {
            // Stored paths have at most `max_radius` edges (protocol bound);
            // a checked conversion keeps a pathological store loud.
            let edges = u32::try_from(path.len() - 1)
                .expect("stored path length exceeds u32 — violates the protocol's radius bound");
            if edges > 2 * r {
                // A larger-radius context may hold farther-reaching paths;
                // they belong to WReach beyond 2r, not to this cover.
                continue;
            }
            if !home_found && edges <= r {
                my_home = resolve(center_sid);
                home_found = true;
            }
            let path_vertices: Vec<Vertex> = path.iter().map(|&sid| resolve(sid)).collect();
            entries.push((resolve(center_sid), path_vertices));
        }
        measured_constant = measured_constant.max(entries.len());
        memberships.push(entries);
        home.push(my_home);
    }

    Ok(DistributedCover {
        r,
        order: ctx.order().clone(),
        memberships,
        home,
        order_rounds: ctx.order_rounds(),
        wreach_rounds: wreach.rounds,
        measured_constant,
        phase_stats: vec![ctx.order_stats().clone(), wreach.stats.clone()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::{
        configuration_model_power_law, grid, maximal_outerplanar, random_ktree, random_tree,
        stacked_triangulation,
    };
    use bedom_wcol::neighborhood_cover;

    fn check(graph: &Graph, r: u32) -> DistributedCover {
        let cover = distributed_neighborhood_cover(graph, DistCoverConfig::new(r)).unwrap();
        let as_seq = cover.to_neighborhood_cover(graph);
        // Covering property, radius bound and degree bound of Theorem 8.
        assert!(as_seq.covers_all_r_neighborhoods(graph));
        let radius = as_seq
            .max_cluster_radius(graph)
            .expect("disconnected cluster");
        assert!(radius <= 2 * r, "radius {radius} > {}", 2 * r);
        assert!(as_seq.degree() <= cover.measured_constant);
        // The distributed clusters are exactly the sequential clusters built
        // from the same order (Theorem 8 computes the Theorem 4 cover).
        let seq = neighborhood_cover(graph, &cover.order, r);
        assert_eq!(seq.clusters, as_seq.clusters);
        cover
    }

    #[test]
    fn covers_on_planar_and_ktree_and_random_families() {
        check(&grid(8, 8), 1);
        check(&grid(8, 8), 2);
        check(&stacked_triangulation(150, 3), 1);
        check(&stacked_triangulation(150, 3), 2);
        check(&maximal_outerplanar(100), 2);
        check(&random_ktree(120, 3, 5), 1);
        check(&random_tree(150, 5), 3);
        check(&configuration_model_power_law(200, 2.5, 2, 8, 5), 1);
    }

    #[test]
    fn routing_paths_lead_to_cluster_centers() {
        let g = stacked_triangulation(80, 7);
        let cover = check(&g, 2);
        for (w, entries) in cover.memberships.iter().enumerate() {
            for (center, path) in entries {
                assert_eq!(path.first(), Some(center));
                assert_eq!(*path.last().unwrap(), w as Vertex);
                assert!(path.len() <= 2 * 2 + 1, "path longer than 2r: {path:?}");
                for pair in path.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]));
                }
            }
        }
    }

    #[test]
    fn every_vertex_is_in_its_own_cluster() {
        let g = random_tree(60, 1);
        let cover = check(&g, 1);
        for (w, entries) in cover.memberships.iter().enumerate() {
            assert!(entries.iter().any(|(c, _)| *c == w as Vertex));
        }
    }

    #[test]
    fn round_budget_matches_phases() {
        let g = grid(10, 10);
        let cover = check(&g, 3);
        assert_eq!(cover.wreach_rounds, 6);
        assert!(cover.order_rounds <= bedom_distsim::log2_ceil(100) + 3);
        assert_eq!(
            cover.total_rounds(),
            cover.order_rounds + cover.wreach_rounds
        );
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(0);
        let cover = distributed_neighborhood_cover(&g, DistCoverConfig::new(2)).unwrap();
        assert!(cover.memberships.is_empty());
        assert!(cover.home.is_empty());
        assert_eq!(cover.total_rounds(), 0);
    }

    #[test]
    fn locally_computed_homes_equal_the_sequential_min_wreach() {
        let g = stacked_triangulation(120, 13);
        let cover = distributed_neighborhood_cover(&g, DistCoverConfig::new(2)).unwrap();
        assert_eq!(
            cover.home,
            bedom_wcol::min_wreach(&g, &cover.order, 2),
            "per-vertex local home election must match min WReach_r"
        );
    }

    #[test]
    #[should_panic(expected = "needs a context of reach radius")]
    fn radius_whose_double_overflows_u32_is_rejected() {
        let g = bedom_graph::generators::path(5);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(1)).unwrap();
        let _ = distributed_neighborhood_cover_in(&ctx, 1 << 31);
    }

    #[test]
    fn larger_radius_context_serves_the_cover_through_path_filtering() {
        // A 2r+1 context (as a connected-domination run holds) must produce
        // exactly the cover a dedicated 2r context produces: same clusters,
        // same homes, same measured degree bound.
        let g = stacked_triangulation(100, 4);
        let r = 1;
        let config = |max_radius| DistContextConfig {
            assignment: IdAssignment::Shuffled(17),
            ..DistContextConfig::new(max_radius)
        };
        let exact_ctx = DistContext::elect(&g, config(2 * r)).unwrap();
        let big_ctx = DistContext::elect(&g, config(2 * r + 1)).unwrap();
        let exact = distributed_neighborhood_cover_in(&exact_ctx, r).unwrap();
        let filtered = distributed_neighborhood_cover_in(&big_ctx, r).unwrap();
        assert_eq!(exact.order, filtered.order);
        assert_eq!(
            exact.collect_clusters(g.num_vertices()),
            filtered.collect_clusters(g.num_vertices())
        );
        assert_eq!(exact.home, filtered.home);
        assert_eq!(exact.measured_constant, filtered.measured_constant);
        let as_seq = filtered.to_neighborhood_cover(&g);
        assert!(as_seq.covers_all_r_neighborhoods(&g));
    }
}
