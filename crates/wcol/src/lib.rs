//! # bedom-wcol
//!
//! Generalized colouring numbers for the **bedom** project: linear orders,
//! weak reachability sets, the weak `r`-colouring number `wcol_r`, sequential
//! ordering heuristics (the stand-in for Dvořák's Theorem 2 algorithm),
//! a distributed CONGEST_BC order computation (the stand-in for
//! Nešetřil–Ossona de Mendez's Theorem 3 procedure), and sparse
//! `r`-neighbourhood covers built from orders (Theorem 4 of the paper).
//!
//! The measured quantity that everything downstream depends on is the
//! *witnessed constant* `c(r) = max_v |WReach_r[G, L, v]|` of the computed
//! order: the approximation ratios of `bedom-core`'s dominating-set
//! algorithms and the degree of the neighbourhood covers are all stated in
//! terms of it, exactly as in the paper.

pub mod cover;
pub mod distributed;
#[cfg(test)]
mod exact;
pub mod heuristics;
pub mod index;
pub mod order;
pub mod wreach;

pub use cover::{neighborhood_cover, neighborhood_cover_from_index, NeighborhoodCover};
pub use distributed::{
    default_threshold, distributed_wcol_order, distributed_wcol_order_with, DistributedOrder,
    SidLookup,
};
pub use heuristics::{compute_order, degeneracy_based_order, OrderingStrategy};
pub use index::{ball_sweeps_on_this_thread, restricted_ball_into, WReachIndex};
pub use order::LinearOrder;
pub use wreach::{min_wreach, restricted_ball, wcol_of_order, weak_reachability_sets};

#[cfg(test)]
mod randomized_tests {
    //! Deterministic randomised tests over seeded graph families (the
    //! registry-free stand-in for the former proptest suite).

    use super::*;
    use bedom_graph::generators::{gnp, random_ktree, random_tree, stacked_triangulation};
    use bedom_graph::Graph;
    use bedom_rng::DetRng;

    fn arb_sparse_graph(rng: &mut DetRng) -> Graph {
        let s = rng.gen_range(0..100u64);
        match rng.gen_range(0..4u32) {
            0 => random_tree(rng.gen_range(5..60usize), s),
            1 => stacked_triangulation(rng.gen_range(5..60usize), s),
            2 => random_ktree(rng.gen_range(6..60usize), 2, s),
            _ => gnp(rng.gen_range(5..50usize), 0.12, s),
        }
    }

    fn arb_order(n: usize, seed: u64) -> LinearOrder {
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut rng = DetRng::seed_from_u64(seed);
        rng.shuffle(&mut order);
        LinearOrder::from_order(order)
    }

    fn for_each_case(cases: usize, mut body: impl FnMut(usize, &mut DetRng)) {
        for case in 0..cases {
            let mut rng = DetRng::seed_from_u64(0x7763_6f6c_0000_0000 ^ case as u64);
            body(case, &mut rng);
        }
    }

    #[test]
    fn wreach_sets_contain_self_and_only_smaller_vertices() {
        for_each_case(48, |case, rng| {
            let g = arb_sparse_graph(rng);
            let r = rng.gen_range(0..4u32);
            let order = arb_order(g.num_vertices(), rng.gen_range(0..50u64));
            let sets = weak_reachability_sets(&g, &order, r);
            for v in g.vertices() {
                assert!(sets[v as usize].contains(&v), "case {case}");
                for &u in &sets[v as usize] {
                    assert!(order.less_eq(u, v), "case {case}");
                }
            }
        });
    }

    #[test]
    fn wcol_is_monotone_in_r() {
        for_each_case(24, |case, rng| {
            let g = arb_sparse_graph(rng);
            let order = arb_order(g.num_vertices(), rng.gen_range(0..50u64));
            let mut prev = 0;
            for r in 0..4 {
                let c = wcol_of_order(&g, &order, r);
                assert!(c >= prev, "case {case}, r {r}");
                prev = c;
            }
        });
    }

    #[test]
    fn cover_from_any_order_is_valid() {
        // Theorem 4 holds for *every* order (the order quality only affects
        // the degree bound), so radius and covering must hold even for
        // random orders.
        for_each_case(24, |case, rng| {
            let g = arb_sparse_graph(rng);
            let r = rng.gen_range(1..3u32);
            let order = arb_order(g.num_vertices(), rng.gen_range(0..50u64));
            let cover = neighborhood_cover(&g, &order, r);
            assert!(cover.covers_all_r_neighborhoods(&g), "case {case}");
            let radius = cover.max_cluster_radius(&g);
            assert!(radius.is_some(), "case {case}: some cluster disconnected");
            assert!(radius.unwrap() <= 2 * r, "case {case}");
            let c = wcol_of_order(&g, &order, 2 * r);
            assert!(cover.degree() <= c, "case {case}");
        });
    }

    #[test]
    fn heuristic_orders_never_beat_exact_wcol() {
        for_each_case(48, |case, rng| {
            let seed = rng.gen_range(0..200u64);
            let r = rng.gen_range(1..3u32);
            let g = random_tree(7, seed);
            let (opt, _) = exact::exact_wcol(&g, r, 8).unwrap();
            for strategy in OrderingStrategy::ALL {
                let order = compute_order(&g, strategy);
                assert!(wcol_of_order(&g, &order, r) >= opt, "case {case}");
            }
        });
    }

    #[test]
    fn min_wreach_is_minimum_of_set() {
        for_each_case(24, |case, rng| {
            let g = arb_sparse_graph(rng);
            let r = rng.gen_range(1..3u32);
            let order = arb_order(g.num_vertices(), rng.gen_range(0..50u64));
            let sets = weak_reachability_sets(&g, &order, r);
            let mins = min_wreach(&g, &order, r);
            for v in g.vertices() {
                assert_eq!(
                    Some(mins[v as usize]),
                    order.min_of(&sets[v as usize]),
                    "case {case}"
                );
            }
        });
    }

    #[test]
    fn distributed_order_has_bounded_back_degree() {
        for_each_case(24, |case, rng| {
            let n = rng.gen_range(10..150usize);
            let seed = rng.gen_range(0..50u64);
            let g = stacked_triangulation(n, seed);
            let threshold = default_threshold(&g);
            let result =
                distributed_wcol_order(&g, threshold, bedom_distsim::IdAssignment::Shuffled(seed))
                    .unwrap();
            for v in g.vertices() {
                let back = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| result.order.less(w, v))
                    .count();
                assert!(back <= threshold, "case {case}");
            }
        });
    }
}
