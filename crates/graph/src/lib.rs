//! # bedom-graph
//!
//! Graph substrate for the **bedom** project — a reproduction of
//! *"Distributed Domination on Graph Classes of Bounded Expansion"*
//! (SPAA 2018).
//!
//! This crate is deliberately self-contained (no external graph library): it
//! provides
//!
//! * a compact CSR [`Graph`] type with a safe builder,
//! * BFS/distance/radius utilities matching the paper's definitions
//!   ([`bfs`]),
//! * word-parallel closed-neighbourhood rows for graphs with `n ≤ 64`, from
//!   a `u64`-packed multi-source BFS ([`bitset`]),
//! * connectivity and union–find ([`components`]),
//! * degeneracy / core decomposition and degeneracy orderings
//!   ([`degeneracy`]),
//! * closed `r`-neighbourhood lists, the adjacency of the power graph `G^r`
//!   ([`power`]),
//! * generators for every graph class the paper names ([`generators`]),
//! * reference dominating-set algorithms and validity checks ([`domset`]),
//! * instance statistics and shallow-minor density probes ([`metrics`]).
//!
//! The paper's own algorithms are implemented in `bedom-core`; the distributed
//! execution model lives in `bedom-distsim`.

pub mod bfs;
pub mod bitset;
pub mod cast;
pub mod components;
pub mod degeneracy;
pub mod domset;
pub mod generators;
pub mod graph;
pub mod io;
pub mod metrics;
pub mod power;

pub use graph::{graph_from_edges, Graph, GraphBuilder, Vertex};

#[cfg(test)]
mod randomized_tests {
    //! Deterministic randomised property tests (the registry-free stand-in
    //! for the former proptest suite): every case is derived from a fixed
    //! seed via `bedom-rng`, so failures reproduce exactly.

    use crate::bfs::{all_pairs_distances, bfs_distances, closed_neighborhood, UNREACHABLE};
    use crate::components::{connected_components, is_induced_connected};
    use crate::degeneracy::{core_decomposition, max_forward_degree};
    use crate::domset::{
        greedy_distance_dominating_set, is_distance_dominating_set, packing_lower_bound,
    };
    use crate::generators::{gnp, random_ktree, random_tree, stacked_triangulation};
    use crate::graph::{Graph, GraphBuilder};
    use bedom_rng::DetRng;

    /// Arbitrary small graph from a seeded edge list over up to 24 vertices.
    fn arb_graph(rng: &mut DetRng) -> Graph {
        let n = rng.gen_range(2..24usize);
        let m = rng.gen_range(0..80usize);
        let mut b = GraphBuilder::new(n);
        for _ in 0..m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                b.add_edge(u, v);
            }
        }
        b.build()
    }

    fn for_each_case(cases: usize, mut body: impl FnMut(usize, &mut DetRng)) {
        for case in 0..cases {
            // Stable per-case seed, decorated so unrelated suites diverge.
            let mut rng = DetRng::seed_from_u64(0x6772_6170_6800_0000 ^ case as u64);
            body(case, &mut rng);
        }
    }

    #[test]
    fn bfs_distances_satisfy_triangle_inequality_on_edges() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let d = all_pairs_distances(&g);
            for (u, v) in g.edges() {
                for row in &d {
                    let du = row[u as usize];
                    let dv = row[v as usize];
                    if du != UNREACHABLE && dv != UNREACHABLE {
                        assert!(du.abs_diff(dv) <= 1, "case {case}: edge gap > 1");
                    } else {
                        assert_eq!(du, dv, "case {case}: one endpoint unreachable");
                    }
                }
            }
        });
    }

    #[test]
    fn closed_neighborhoods_are_monotone_in_r() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let v = rng.gen_range(0..g.num_vertices() as u32);
            let r = rng.gen_range(0..5u32);
            let small = closed_neighborhood(&g, v, r);
            let large = closed_neighborhood(&g, v, r + 1);
            assert!(small.iter().all(|x| large.contains(x)), "case {case}");
            assert!(small.contains(&v), "case {case}");
        });
    }

    #[test]
    fn degeneracy_order_is_witnessing() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let dec = core_decomposition(&g);
            assert_eq!(
                max_forward_degree(&g, &dec.order),
                dec.degeneracy as usize,
                "case {case}"
            );
        });
    }

    #[test]
    fn greedy_always_dominates_and_beats_packing_bound() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let r = rng.gen_range(1..4u32);
            let d = greedy_distance_dominating_set(&g, r);
            assert!(is_distance_dominating_set(&g, &d, r), "case {case}");
            assert!(packing_lower_bound(&g, r) <= d.len(), "case {case}");
        });
    }

    #[test]
    fn components_partition_vertices_and_are_induced_connected() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let (comp, k) = connected_components(&g);
            assert!(comp.iter().all(|&c| (c as usize) < k), "case {case}");
            for (u, v) in g.edges() {
                assert_eq!(comp[u as usize], comp[v as usize], "case {case}");
            }
            for c in 0..k as u32 {
                let members: Vec<u32> = (0..g.num_vertices() as u32)
                    .filter(|&v| comp[v as usize] == c)
                    .collect();
                assert!(is_induced_connected(&g, &members), "case {case}");
            }
        });
    }

    #[test]
    fn generators_respect_seed_determinism() {
        for_each_case(24, |case, rng| {
            let n = rng.gen_range(10..120usize);
            let seed = rng.gen_range(0..1000u64);
            assert_eq!(random_tree(n, seed), random_tree(n, seed), "case {case}");
            assert_eq!(
                stacked_triangulation(n, seed),
                stacked_triangulation(n, seed),
                "case {case}"
            );
            assert_eq!(
                random_ktree(n, 3, seed),
                random_ktree(n, 3, seed),
                "case {case}"
            );
            assert_eq!(gnp(n, 0.1, seed), gnp(n, 0.1, seed), "case {case}");
        });
    }

    #[test]
    fn bfs_distance_zero_iff_source() {
        for_each_case(48, |case, rng| {
            let g = arb_graph(rng);
            let s = rng.gen_range(0..g.num_vertices() as u32);
            let d = bfs_distances(&g, s);
            for (v, &dist) in d.iter().enumerate() {
                assert_eq!(dist == 0, v as u32 == s, "case {case}");
            }
        });
    }
}
