//! Sparse neighbourhood covers from weak-reachability orders (Theorem 4 of
//! the paper, after Grohe et al.).
//!
//! Given an order `L` witnessing `wcol_2r(G) ≤ c`, the collection
//! `X = { X_v : v ∈ V(G) }` with `X_v = { w : v ∈ WReach_2r[G, L, w] }` is an
//! `r`-neighbourhood cover of radius at most `2r` and degree at most `c`.
//! This module constructs the cover and provides the verification predicates
//! the experiments (T2, T3) report: measured maximum cluster radius, measured
//! degree, and the covering property `∀w ∃X ∈ X : N_r[w] ⊆ X`.

use crate::index::WReachIndex;
use crate::order::LinearOrder;
use bedom_graph::bfs::{closed_neighborhood, induced_radius};
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// An `r`-neighbourhood cover produced from an order.
#[derive(Clone, Debug)]
pub struct NeighborhoodCover {
    /// The covering radius parameter `r` (clusters contain `N_r[w]` for every
    /// `w`; their own radius is at most `2r`).
    pub r: u32,
    /// `clusters[v]` = the cluster `X_v`, sorted by vertex id. Every cluster
    /// contains at least its centre `v`.
    pub clusters: Vec<Vec<Vertex>>,
    /// `home[w]` = the centre `v` whose cluster is guaranteed to contain
    /// `N_r[w]` (namely `v = min WReach_r[G, L, w]`, Lemma 6).
    pub home: Vec<Vertex>,
}

impl NeighborhoodCover {
    /// The degree of the cover: the maximum, over vertices `w`, of the number
    /// of clusters containing `w`. By Theorem 4 this is at most the witnessed
    /// `wcol_2r` constant.
    pub fn degree(&self) -> usize {
        let mut count = vec![0usize; self.clusters.len()];
        for cluster in &self.clusters {
            for &w in cluster {
                count[w as usize] += 1;
            }
        }
        count.into_iter().max().unwrap_or(0)
    }

    /// The maximum radius of `G[X]` over all clusters `X` (computed on the
    /// induced subgraphs). By Theorem 4 this is at most `2r`. Returns `None`
    /// if some cluster induces a disconnected subgraph (which would violate
    /// the theorem).
    pub fn max_cluster_radius(&self, graph: &Graph) -> Option<u32> {
        let radii: Vec<Option<u32>> = ExecutionStrategy::Auto
            .map_collect(self.clusters.len(), |v| {
                induced_radius(graph, &self.clusters[v])
            });
        radii
            .into_iter()
            .try_fold(0u32, |acc, r| r.map(|r| acc.max(r)))
    }

    /// Checks the covering property: for every vertex `w`, the designated home
    /// cluster contains the full closed `r`-neighbourhood `N_r[w]`.
    pub fn covers_all_r_neighborhoods(&self, graph: &Graph) -> bool {
        let n = graph.num_vertices();
        ExecutionStrategy::Auto
            .map_collect(n, |w| {
                let w = w as Vertex;
                let home = self.home[w as usize];
                let cluster = &self.clusters[home as usize];
                closed_neighborhood(graph, w, self.r)
                    .iter()
                    .all(|u| cluster.binary_search(u).is_ok())
            })
            .into_iter()
            .all(|ok| ok)
    }

    /// Mean cluster size (a measure of the cover's total storage cost).
    pub fn average_cluster_size(&self) -> f64 {
        if self.clusters.is_empty() {
            return 0.0;
        }
        self.clusters.iter().map(Vec::len).sum::<usize>() as f64 / self.clusters.len() as f64
    }
}

/// Builds the cover of Theorem 4 for radius parameter `r` from an order
/// witnessing `wcol_2r(G) ≤ c`: cluster `X_v` is the depth-`2r` BFS ball from
/// `v` restricted to vertices `≥_L v`, and the home pointers are
/// `min WReach_r` — both read from **one** [`WReachIndex`] sweep at radius
/// `2r` (the seed ran two full sweeps here).
pub fn neighborhood_cover(graph: &Graph, order: &LinearOrder, r: u32) -> NeighborhoodCover {
    let index = WReachIndex::build(graph, order, 2 * r);
    neighborhood_cover_from_index(&index, r)
}

/// Builds the Theorem 4 cover for radius parameter `r` from an existing index
/// built at radius ≥ `2r` — no ball sweep at all. Use this when the caller
/// already holds the index (e.g. to also read `wcol` from it).
///
/// # Panics
/// Panics if `index.radius() < 2r`.
pub fn neighborhood_cover_from_index(index: &WReachIndex, r: u32) -> NeighborhoodCover {
    assert!(
        index.radius() >= 2 * r,
        "cover for radius {r} needs an index of radius ≥ {}, got {}",
        2 * r,
        index.radius()
    );
    let n = index.num_vertices();
    let clusters: Vec<Vec<Vertex>> =
        ExecutionStrategy::Auto.map_collect(n, |v| index.ball_at(v as Vertex, 2 * r));
    let home = index.min_wreach_at(r);
    NeighborhoodCover { r, clusters, home }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heuristics::degeneracy_based_order;
    use crate::wreach::wcol_of_order;
    use bedom_graph::generators::{
        cycle, grid, maximal_outerplanar, path, random_tree, stacked_triangulation,
    };

    fn check_cover_properties(graph: &Graph, r: u32) {
        let order = degeneracy_based_order(graph);
        let cover = neighborhood_cover(graph, &order, r);
        let c = wcol_of_order(graph, &order, 2 * r);

        assert_eq!(cover.clusters.len(), graph.num_vertices());
        assert!(
            cover.covers_all_r_neighborhoods(graph),
            "cover misses an r-neighborhood"
        );
        let radius = cover
            .max_cluster_radius(graph)
            .expect("cluster disconnected");
        assert!(radius <= 2 * r, "radius {radius} > 2r = {}", 2 * r);
        assert!(
            cover.degree() <= c,
            "degree {} > witnessed c {}",
            cover.degree(),
            c
        );
        assert!(cover.degree() >= 1);
    }

    #[test]
    fn cover_on_structured_graphs() {
        for r in 1..=2u32 {
            check_cover_properties(&path(30), r);
            check_cover_properties(&cycle(24), r);
            check_cover_properties(&grid(7, 9), r);
            check_cover_properties(&random_tree(60, 5), r);
        }
    }

    #[test]
    fn cover_on_planar_families() {
        check_cover_properties(&stacked_triangulation(120, 3), 1);
        check_cover_properties(&stacked_triangulation(120, 3), 2);
        check_cover_properties(&maximal_outerplanar(60), 2);
    }

    #[test]
    fn cover_from_shared_index_matches_direct_construction() {
        // An index built at a larger radius (as the domination pipeline holds
        // one at 2r) serves the cover through depth filtering.
        let g = stacked_triangulation(100, 11);
        let order = degeneracy_based_order(&g);
        let index = WReachIndex::build(&g, &order, 4);
        let from_index = neighborhood_cover_from_index(&index, 1);
        let direct = neighborhood_cover(&g, &order, 1);
        assert_eq!(from_index.clusters, direct.clusters);
        assert_eq!(from_index.home, direct.home);
        assert_eq!(from_index.r, direct.r);
    }

    #[test]
    fn cluster_centers_belong_to_their_clusters() {
        let g = grid(6, 6);
        let order = degeneracy_based_order(&g);
        let cover = neighborhood_cover(&g, &order, 2);
        for v in g.vertices() {
            assert!(cover.clusters[v as usize].contains(&v));
        }
    }

    #[test]
    fn home_cluster_contains_whole_r_ball() {
        let g = stacked_triangulation(80, 9);
        let order = degeneracy_based_order(&g);
        let r = 2;
        let cover = neighborhood_cover(&g, &order, r);
        for w in g.vertices() {
            let home = cover.home[w as usize];
            let cluster = &cover.clusters[home as usize];
            for u in closed_neighborhood(&g, w, r) {
                assert!(cluster.contains(&u), "w={w}, u={u}, home={home}");
            }
        }
    }

    #[test]
    fn degenerate_cases() {
        let single = bedom_graph::Graph::empty(1);
        let order = LinearOrder::identity(1);
        let cover = neighborhood_cover(&single, &order, 3);
        assert_eq!(cover.clusters.len(), 1);
        assert_eq!(cover.degree(), 1);
        assert!(cover.covers_all_r_neighborhoods(&single));
        assert_eq!(cover.max_cluster_radius(&single), Some(0));

        let empty = bedom_graph::Graph::empty(0);
        let order = LinearOrder::identity(0);
        let cover = neighborhood_cover(&empty, &order, 2);
        assert_eq!(cover.clusters.len(), 0);
        assert_eq!(cover.degree(), 0);
        assert!(cover.covers_all_r_neighborhoods(&empty));
    }

    #[test]
    fn average_cluster_size_reasonable() {
        let g = path(20);
        let order = LinearOrder::identity(20);
        let cover = neighborhood_cover(&g, &order, 1);
        // With the identity order on a path, X_v = {v, v+1, v+2} (clipped).
        assert!(cover.average_cluster_size() > 2.0);
        assert!(cover.average_cluster_size() <= 3.0);
    }
}
