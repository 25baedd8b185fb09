//! # bedom-core
//!
//! The algorithms of *"Distributed Domination on Graph Classes of Bounded
//! Expansion"* (SPAA 2018):
//!
//! | Paper result | Module | Entry point |
//! |---|---|---|
//! | Theorem 5 (sequential `c(r)`-approximation, Algorithms 1–3) | [`seq_domset`] | [`seq_domset::approximate_distance_domination`] |
//! | Lemma 7 / Algorithm 4 (distributed weak reachability + routing paths) | [`dist_wreach`] | [`dist_wreach::distributed_weak_reachability`] |
//! | Theorem 8 (distributed sparse `r`-neighbourhood covers) | [`dist_cover`] | [`dist_cover::distributed_neighborhood_cover`] |
//! | Theorem 9 (distributed `c(r)`-approximation in CONGEST_BC) | [`dist_domset`] | [`dist_domset::distributed_distance_domination`] |
//! | Theorem 10 (distributed *connected* approximation in CONGEST_BC) | [`dist_connected`] | [`dist_connected::distributed_connected_domination`] |
//! | Lemmas 14–16, Theorem 17 (LOCAL connector, factor `2r·d`) | [`local_connect`](mod@local_connect) | [`local_connect::local_connect`] |
//! | KSV constant-round protocol (arXiv:2012.02701, follow-up work) | [`dist_ksv`] | [`dist_ksv::distributed_ksv_domination`] |
//! | Distance-`r` KSV generalisation (arXiv:2207.02669, follow-up work) | [`dist_ksv`] | [`dist_ksv::distributed_ksv_domination_r`] |
//!
//! The three order-based distributed results (Theorems 8, 9 and 10) share
//! one prefix, the order phase plus Lemma 7, which a [`DistContext`] runs
//! once. Each has an `_in` variant that runs against such a context, and a
//! standalone entry point that elects a fresh one from the one config they
//! share, [`DistDomSetConfig`]. [`DominationPipeline`] is the one-call layer
//! over Theorems 5, 9 and 10 and the KSV family.
//!
//! The substrates live in sibling crates: graphs and generators in
//! `bedom-graph`, the LOCAL/CONGEST/CONGEST_BC simulator in `bedom-distsim`,
//! orders/weak-reachability/covers in `bedom-wcol`, and the comparison
//! algorithms in `bedom-baselines`.

pub mod context;
pub mod dist_connected;
pub mod dist_cover;
pub mod dist_domset;
pub mod dist_ksv;
pub mod dist_wreach;
pub mod local_connect;
pub mod pipeline;
pub mod seq_domset;

pub use context::{DistContext, DistContextConfig};
pub use dist_connected::{
    distributed_connected_domination, distributed_connected_domination_in, DistConnectedResult,
};
pub use dist_cover::{
    distributed_neighborhood_cover, distributed_neighborhood_cover_in, DistributedCover,
};
pub use dist_domset::{
    distributed_distance_domination, distributed_distance_domination_in, DistDomSetConfig,
    DistDomSetResult,
};
pub use dist_ksv::{
    default_hub_cap, distributed_ksv_domination, distributed_ksv_domination_r,
    distributed_ksv_domination_r_faulty, distributed_ksv_domination_r_in_with, ksv_rounds,
    KsvConfig, KsvContextReport, KsvDomResult, KsvPhaseBits, KSV_FRAME_HEADER_BITS,
    KSV_FRAME_PAYLOAD_BITS, KSV_ROUNDS,
};
pub use dist_wreach::{
    distributed_weak_reachability, DistributedWReach, PathStore, PathView, WReachConfig, WReachInfo,
};
pub use local_connect::{local_connect, LocalConnectResult};
pub use pipeline::{
    solve_scenario, solve_scenario_resumable, Algorithm, BatchError, DominationPipeline,
    DominationReport, Mode,
};
pub use seq_domset::{
    approximate_distance_domination, domset_algorithm1, domset_via_min_wreach,
    domset_via_min_wreach_with, SeqDomSetResult,
};

#[cfg(test)]
mod randomized_tests {
    //! Deterministic randomised tests over seeded graph families (the
    //! registry-free stand-in for the former proptest suite).

    use super::*;
    use bedom_distsim::IdAssignment;
    use bedom_graph::components::{is_induced_connected, largest_component};
    use bedom_graph::domset::is_distance_dominating_set;
    use bedom_graph::generators::{random_ktree, random_tree, stacked_triangulation};
    use bedom_graph::Graph;
    use bedom_rng::DetRng;

    fn arb_connected_sparse_graph(rng: &mut DetRng) -> Graph {
        let s = rng.gen_range(0..100u64);
        match rng.gen_range(0..3u32) {
            0 => random_tree(rng.gen_range(5..70usize), s),
            1 => stacked_triangulation(rng.gen_range(5..70usize), s),
            _ => random_ktree(rng.gen_range(6..70usize), 2, s),
        }
    }

    fn for_each_case(cases: usize, mut body: impl FnMut(usize, &mut DetRng)) {
        for case in 0..cases {
            let mut rng = DetRng::seed_from_u64(0x636f_7265_0000_0000 ^ case as u64);
            body(case, &mut rng);
        }
    }

    #[test]
    fn sequential_and_algorithm1_agree_and_dominate() {
        for_each_case(24, |case, rng| {
            let g = arb_connected_sparse_graph(rng);
            let r = rng.gen_range(1..4u32);
            let order = bedom_wcol::degeneracy_based_order(&g);
            let direct = domset_via_min_wreach(&g, &order, r);
            let faithful = domset_algorithm1(&g, &order, r);
            assert_eq!(&faithful, &direct.dominating_set, "case {case}");
            assert!(
                is_distance_dominating_set(&g, &direct.dominating_set, r),
                "case {case}"
            );
        });
    }

    #[test]
    fn distributed_matches_sequential_given_its_own_order() {
        for_each_case(24, |case, rng| {
            let g = arb_connected_sparse_graph(rng);
            let r = rng.gen_range(1..3u32);
            let result = distributed_distance_domination(&g, DistDomSetConfig::new(r)).unwrap();
            assert!(
                is_distance_dominating_set(&g, &result.dominating_set, r),
                "case {case}"
            );
            let seq = domset_via_min_wreach(&g, &result.order, r);
            assert_eq!(seq.dominating_set, result.dominating_set, "case {case}");
        });
    }

    #[test]
    fn connected_variant_is_connected_and_dominating() {
        for_each_case(24, |case, rng| {
            let g = arb_connected_sparse_graph(rng);
            let r = rng.gen_range(1..3u32);
            let core_vertices = largest_component(&g);
            let (core, _) = g.induced_subgraph(&core_vertices);
            let result = distributed_connected_domination(&core, DistDomSetConfig::new(r)).unwrap();
            assert!(
                is_distance_dominating_set(&core, &result.connected_dominating_set, r),
                "case {case}"
            );
            assert!(
                is_induced_connected(&core, &result.connected_dominating_set),
                "case {case}"
            );
        });
    }

    #[test]
    fn local_connector_preserves_domination_and_connects() {
        for_each_case(24, |case, rng| {
            let g = arb_connected_sparse_graph(rng);
            let r = rng.gen_range(1..3u32);
            let ids = IdAssignment::Shuffled(rng.gen_range(0..50u64)).assign(&g);
            let d = bedom_graph::domset::greedy_distance_dominating_set(&g, r);
            let result = local_connect(&g, &ids, &d, r);
            assert!(
                is_distance_dominating_set(&g, &result.connected_dominating_set, r),
                "case {case}"
            );
            assert!(
                is_induced_connected(&g, &result.connected_dominating_set),
                "case {case}"
            );
        });
    }
}
