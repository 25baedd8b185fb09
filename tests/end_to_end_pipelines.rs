//! Integration tests spanning all crates: full pipelines from graph
//! generation through orders, covers, sequential and distributed dominating
//! sets, connected variants and baselines, with the paper's guarantees
//! checked at every step.

use bedom::baselines::{
    dvorak_style_domination, greedy::greedy_baseline, kutten_peleg_dominating_set,
    lenzen_planar_dominating_set,
};
use bedom::core::{
    approximate_distance_domination, distributed_connected_domination,
    distributed_distance_domination, distributed_neighborhood_cover, domset_via_min_wreach,
    local_connect, DistDomSetConfig, DistDomSetResult,
};
use bedom::distsim::IdAssignment;
use bedom::graph::components::{is_induced_connected, largest_component};
use bedom::graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom::graph::generators::Family;
use bedom::wcol::{degeneracy_based_order, neighborhood_cover, wcol_of_order};

/// One pass of the whole stack on a single instance.
fn full_stack(graph: &bedom::graph::Graph, r: u32) {
    // Order + witnessed constant.
    let order = degeneracy_based_order(graph);
    let c2r = wcol_of_order(graph, &order, 2 * r);

    // Sequential cover (Theorem 4).
    let cover = neighborhood_cover(graph, &order, r);
    assert!(cover.covers_all_r_neighborhoods(graph));
    assert!(cover.max_cluster_radius(graph).unwrap_or(0) <= 2 * r);
    assert!(cover.degree() <= c2r);

    // Sequential dominating set (Theorem 5).
    let seq = domset_via_min_wreach(graph, &order, r);
    assert!(is_distance_dominating_set(graph, &seq.dominating_set, r));
    let lb = packing_lower_bound(graph, r).max(1);
    assert!(seq.dominating_set.len() <= c2r * lb);

    // Distributed dominating set (Theorem 9) and cover (Theorem 8).
    let dist = distributed_distance_domination(graph, DistDomSetConfig::new(r)).unwrap();
    assert!(is_distance_dominating_set(graph, &dist.dominating_set, r));
    assert!(dist.dominating_set.len() <= dist.measured_constant * lb);
    let dist_cover = distributed_neighborhood_cover(graph, DistDomSetConfig::new(r)).unwrap();
    let collected = dist_cover.to_neighborhood_cover(graph);
    assert!(collected.covers_all_r_neighborhoods(graph));

    // Baselines all dominate.
    assert!(is_distance_dominating_set(
        graph,
        &greedy_baseline(graph, r),
        r
    ));
    assert!(is_distance_dominating_set(
        graph,
        &dvorak_style_domination(graph, &order, r),
        r
    ));
    assert!(is_distance_dominating_set(
        graph,
        &kutten_peleg_dominating_set(graph, r),
        r
    ));
}

#[test]
fn full_stack_on_every_bounded_expansion_family() {
    for family in Family::BOUNDED_EXPANSION {
        let graph = family.generate(300, 11);
        full_stack(&graph, 1);
    }
}

#[test]
fn full_stack_with_larger_radius_on_planar_families() {
    for family in [
        Family::Grid,
        Family::PlanarTriangulation,
        Family::Outerplanar,
        Family::RandomTree,
    ] {
        let graph = family.generate(400, 3);
        full_stack(&graph, 2);
    }
}

#[test]
fn full_stack_on_the_gnp_control() {
    // The algorithms stay *correct* on the non-bounded-expansion control; only
    // the constants degrade. Correctness is what this test checks.
    let graph = Family::Gnp.generate(250, 5);
    full_stack(&graph, 1);
}

#[test]
fn connected_pipelines_agree_on_guarantees() {
    for family in [Family::Grid, Family::PlanarTriangulation, Family::TwoTree] {
        let raw = family.generate(350, 9);
        let (graph, _) = raw.induced_subgraph(&largest_component(&raw));
        let r = 1;

        // CONGEST_BC pipeline (Theorem 10).
        let congest = distributed_connected_domination(&graph, DistDomSetConfig::new(r)).unwrap();
        assert!(is_distance_dominating_set(
            &graph,
            &congest.connected_dominating_set,
            r
        ));
        assert!(is_induced_connected(
            &graph,
            &congest.connected_dominating_set
        ));

        // LOCAL pipeline (Theorem 17 over Lenzen et al.).
        let ids = IdAssignment::Shuffled(4).assign(&graph);
        let mds = lenzen_planar_dominating_set(&graph, &ids);
        let local = local_connect(&graph, &ids, &mds, r);
        assert!(is_distance_dominating_set(
            &graph,
            &local.connected_dominating_set,
            r
        ));
        assert!(is_induced_connected(
            &graph,
            &local.connected_dominating_set
        ));
        // Theorem 17 blow-up bound with the planar density constant 3.
        assert!(
            local.connected_dominating_set.len() <= (1 + 2 * r as usize * 3) * mds.len().max(1),
            "LOCAL blow-up bound violated"
        );
    }
}

#[test]
fn distributed_pipeline_performs_exactly_one_ball_sweep() {
    // The regression contract of the shared precompute context: one
    // end-to-end distributed solve — protocol phases, witnessed constant,
    // election verification — performs exactly ONE WReachIndex build.
    // Assembling the same report from the pre-context entry points took
    // three sweeps (constant, election cross-check, cover home).
    use bedom::core::{DominationPipeline, Mode};
    use bedom::wcol::ball_sweeps_on_this_thread;

    let graph = Family::PlanarTriangulation.generate(400, 7);

    let before = ball_sweeps_on_this_thread();
    let report = DominationPipeline::new(1)
        .mode(Mode::Distributed)
        .solve(&graph)
        .unwrap();
    assert_eq!(
        ball_sweeps_on_this_thread() - before,
        1,
        "plain distributed solve must build the index exactly once"
    );
    assert!(report.election_verified);
    assert!(is_distance_dominating_set(
        &graph,
        &report.dominating_set,
        1
    ));

    let before = ball_sweeps_on_this_thread();
    let connected = DominationPipeline::new(1)
        .mode(Mode::Distributed)
        .connected(true)
        .solve(&graph)
        .unwrap();
    assert_eq!(
        ball_sweeps_on_this_thread() - before,
        1,
        "connected distributed solve must also build the index exactly once"
    );
    assert!(connected.election_verified);
    assert!(is_induced_connected(
        &graph,
        connected.connected_dominating_set.as_ref().unwrap()
    ));
}

#[test]
fn context_shares_phases_across_domset_cover_and_connected() {
    // One context, three consumers: the Theorem 8 cover, the Theorem 9 set
    // and the Theorem 10 connected set all read a single order phase and a
    // single weak-reachability protocol execution — and their outputs match
    // the standalone entry points given the same order.
    use bedom::core::{
        distributed_distance_domination_in, distributed_neighborhood_cover_in, DistContext,
        DistContextConfig,
    };

    let graph = Family::PlanarTriangulation.generate(350, 5);
    let r = 1;
    let ctx = DistContext::elect(&graph, DistContextConfig::for_connected_domination(r)).unwrap();

    let domset = distributed_distance_domination_in(&ctx, r).unwrap();
    let cover = distributed_neighborhood_cover_in(&ctx, r).unwrap();
    let connected = bedom::core::distributed_connected_domination_in(&ctx, r).unwrap();

    // All three report the same (single) order-phase round count and share
    // the same wreach execution.
    assert_eq!(domset.order_rounds, cover.order_rounds);
    assert_eq!(domset.wreach_rounds, cover.wreach_rounds);
    assert_eq!(connected.domset.dominating_set, domset.dominating_set);

    // The cover is the Theorem 4 cover of the shared order, and the set is
    // the Theorem 5 set of the shared order.
    let seq_cover = neighborhood_cover(&graph, &domset.order, r);
    assert_eq!(
        seq_cover.clusters,
        cover.to_neighborhood_cover(&graph).clusters
    );
    let seq = domset_via_min_wreach(&graph, &domset.order, r);
    assert_eq!(seq.dominating_set, domset.dominating_set);
    assert!(is_induced_connected(
        &graph,
        &connected.connected_dominating_set
    ));
}

/// Asserts that two Theorem 9 runs agree on every set, round and bit.
fn assert_same_domset(a: &DistDomSetResult, b: &DistDomSetResult, what: &str) {
    assert_eq!(a.dominating_set, b.dominating_set, "{what}: set");
    assert_eq!(a.dominator_of, b.dominator_of, "{what}: dominator_of");
    assert_eq!(a.order, b.order, "{what}: order");
    let rounds = |x: &DistDomSetResult| (x.order_rounds, x.wreach_rounds, x.election_rounds);
    assert_eq!(rounds(a), rounds(b), "{what}: rounds");
    assert_eq!(
        a.phase_stats, b.phase_stats,
        "{what}: per-phase stats and bits"
    );
    assert_eq!(a.measured_constant, b.measured_constant, "{what}: constant");
}

#[test]
fn standalone_entry_points_match_their_context_backed_runs() {
    // Each standalone Theorem 8–10 entry point is `DistContext::elect` at
    // its reach radius plus its `_in` variant. With the same explicit ids
    // and strategy on both sides, every set, order, round, per-phase bit,
    // cover membership and home must agree.
    use bedom::core::{
        distributed_connected_domination_in, distributed_distance_domination_in,
        distributed_neighborhood_cover_in, DistContext, DistContextConfig,
    };
    use bedom::distsim::ExecutionStrategy;

    let assignment = IdAssignment::Shuffled(0xd15d);
    let strategy = ExecutionStrategy::Sequential;
    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        let graph = family.generate(300, 7);
        for r in 1..=2u32 {
            let what = format!("{} r = {r}", family.name());
            let context = |max_radius| {
                let config = DistContextConfig {
                    assignment,
                    strategy,
                    ..DistContextConfig::new(max_radius)
                };
                DistContext::elect(&graph, config).unwrap()
            };
            let config = DistDomSetConfig {
                assignment,
                ..DistDomSetConfig::with_strategy(r, strategy)
            };

            // Theorem 9.
            let alone = distributed_distance_domination(&graph, config).unwrap();
            let within = distributed_distance_domination_in(&context(2 * r), r).unwrap();
            assert_same_domset(&alone, &within, &what);

            // Theorem 8.
            let alone = distributed_neighborhood_cover(&graph, config).unwrap();
            let within = distributed_neighborhood_cover_in(&context(2 * r), r).unwrap();
            assert_eq!(alone.memberships, within.memberships, "{what}: memberships");
            assert_eq!(alone.home, within.home, "{what}: homes");
            assert_eq!(alone.order, within.order, "{what}: cover order");
            assert_eq!(alone.total_rounds(), within.total_rounds(), "{what}");
            assert_eq!(alone.phase_stats, within.phase_stats, "{what}: cover bits");
            assert_eq!(alone.measured_constant, within.measured_constant);
            // `serve` answers `cover r=<r>` from a context at
            // `DistContextConfig::for_domination(r)`; the standalone cover at
            // its default config elects the same ids.
            let alone = distributed_neighborhood_cover(&graph, DistDomSetConfig::new(r)).unwrap();
            let served = DistContext::elect(&graph, DistContextConfig::for_domination(r)).unwrap();
            let served = distributed_neighborhood_cover_in(&served, r).unwrap();
            assert_eq!(alone.memberships, served.memberships, "{what}: default ids");
            assert_eq!(alone.home, served.home, "{what}: default homes");

            // Theorem 10.
            let alone = distributed_connected_domination(&graph, config).unwrap();
            let within = distributed_connected_domination_in(&context(2 * r + 1), r).unwrap();
            assert_same_domset(&alone.domset, &within.domset, &what);
            assert_eq!(
                alone.connected_dominating_set, within.connected_dominating_set,
                "{what}: connected set"
            );
            assert_eq!(alone.flood_rounds, within.flood_rounds, "{what}");
            assert_eq!(alone.flood_stats, within.flood_stats, "{what}: flood bits");
            assert_eq!(alone.measured_constant, within.measured_constant);
        }
    }
}

#[test]
fn sequential_and_distributed_sets_coincide_for_shared_order() {
    let graph = Family::PlanarTriangulation.generate(500, 21);
    for r in 1..=2u32 {
        let dist = distributed_distance_domination(&graph, DistDomSetConfig::new(r)).unwrap();
        let seq = domset_via_min_wreach(&graph, &dist.order, r);
        assert_eq!(seq.dominating_set, dist.dominating_set);
    }
}

#[test]
fn ksv_runs_in_constant_rounds_independent_of_n() {
    // The KSV acceptance contract: the end-to-end constant-round solve uses
    // exactly KSV_ROUNDS engine rounds at every graph size, for at least two
    // sizes per family — while the order-based pipeline's round count keeps
    // growing with n.
    use bedom::core::{distributed_ksv_domination, KsvConfig, KSV_ROUNDS};

    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        let mut ksv_rounds = Vec::new();
        for n in [2_000usize, 8_000] {
            let graph = family.generate(n, 13);
            let result = distributed_ksv_domination(&graph, KsvConfig::new()).unwrap();
            assert!(
                is_distance_dominating_set(&graph, &result.dominating_set, 1),
                "{family:?}, n = {n}"
            );
            assert_eq!(
                result.rounds, KSV_ROUNDS,
                "{family:?}, n = {n}: rounds must not depend on n"
            );
            ksv_rounds.push(result.rounds);
        }
        assert_eq!(ksv_rounds[0], ksv_rounds[1], "{family:?}: O(1) rounds");

        // The order-based path on the same instances needs strictly more
        // rounds (its order phase alone is Ω(log n)).
        let graph = family.generate(2_000, 13);
        let order_based =
            distributed_distance_domination(&graph, DistDomSetConfig::new(1)).unwrap();
        assert!(
            order_based.total_rounds() > KSV_ROUNDS,
            "{family:?}: order-based path should pay more than {KSV_ROUNDS} rounds"
        );
    }
}

#[test]
fn distance_r_ksv_runs_in_exactly_ksv_rounds_r_independent_of_n() {
    // The distance-r acceptance contract, mirroring the r = 1 test above:
    // the generalised protocol uses exactly ksv_rounds(r) = 6r − 1 engine
    // rounds at two graph sizes per family for every r in {1, 2, 3}, so
    // constant-roundness cannot silently regress at any radius.
    use bedom::core::{distributed_ksv_domination_r, ksv_rounds, KsvConfig};

    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        for r in [1u32, 2, 3] {
            let mut rounds = Vec::new();
            for n in [400usize, 1600] {
                let graph = family.generate(n, 13);
                let result = distributed_ksv_domination_r(&graph, r, KsvConfig::new()).unwrap();
                assert!(
                    is_distance_dominating_set(&graph, &result.dominating_set, r),
                    "{family:?}, n = {n}, r = {r}"
                );
                assert_eq!(
                    result.rounds,
                    ksv_rounds(r),
                    "{family:?}, n = {n}, r = {r}: rounds must not depend on n"
                );
                rounds.push(result.rounds);
            }
            assert_eq!(rounds[0], rounds[1], "{family:?}, r = {r}: O(1) rounds");
        }
    }
}

#[test]
fn ksv_full_stack_comparison_on_one_instance() {
    // One instance, both phase families through the pipeline: same validity
    // guarantees, directly comparable accounting.
    use bedom::core::{Algorithm, DominationPipeline, Mode, KSV_ROUNDS};

    let graph = Family::PlanarTriangulation.generate(400, 7);
    let order_based = DominationPipeline::new(1)
        .mode(Mode::Distributed)
        .solve(&graph)
        .unwrap();
    let ksv = DominationPipeline::new(1)
        .algorithm(Algorithm::KsvConstantRound)
        .solve(&graph)
        .unwrap();
    for report in [&order_based, &ksv] {
        assert!(is_distance_dominating_set(
            &graph,
            &report.dominating_set,
            1
        ));
        assert!(report.election_verified);
        assert!(report.total_message_bits > 0);
    }
    // Same witnessed constant: both read wcol₂ of an elected order from a
    // shared-index sweep on the same instance and seed.
    assert_eq!(order_based.witnessed_constant, ksv.witnessed_constant);
    assert_eq!(ksv.rounds, KSV_ROUNDS);
    assert!(order_based.rounds > ksv.rounds);
}

#[test]
fn zero_radius_and_degenerate_graphs_are_safe_through_every_entry_point() {
    // The bugfix sweep's edge-case charter: radius-0 contexts, empty and
    // single-vertex graphs, disconnected graphs — no panics anywhere, and
    // the produced sets still dominate.
    use bedom::core::{
        distributed_distance_domination_in, distributed_ksv_domination,
        distributed_ksv_domination_r_in_with, DistContext, DistContextConfig, DominationPipeline,
        KsvConfig, Mode,
    };
    use bedom::graph::Graph;

    // A radius-0 context answers radius-0 questions and elections.
    let g = Family::Grid.generate(64, 1);
    let ctx = DistContext::elect(&g, DistContextConfig::new(0)).unwrap();
    assert_eq!(ctx.max_radius(), 0);
    assert_eq!(ctx.witnessed_constant(0).unwrap(), 1);
    let result = distributed_distance_domination_in(&ctx, 0).unwrap();
    assert_eq!(result.dominating_set.len(), g.num_vertices());
    assert!(is_distance_dominating_set(&g, &result.dominating_set, 0));
    // …but any larger question fails loudly instead of truncating.
    assert!(ctx.witnessed_constant(1).is_err());
    assert!(ctx.expected_election(1).is_err());
    assert!(distributed_ksv_domination_r_in_with(&ctx, 1, KsvConfig::new()).is_err());

    // Radius-0 pipelines in both modes.
    for mode in [Mode::Sequential, Mode::Distributed] {
        let report = DominationPipeline::new(0).mode(mode).solve(&g).unwrap();
        assert!(
            is_distance_dominating_set(&g, &report.dominating_set, 0),
            "{mode:?}"
        );
    }

    // Empty, single-vertex and disconnected graphs through KSV.
    let empty = Graph::empty(0);
    let result = distributed_ksv_domination(&empty, KsvConfig::new()).unwrap();
    assert!(result.dominating_set.is_empty());
    assert_eq!(result.rounds, 0);

    let single = Graph::empty(1);
    let ctx = DistContext::elect(&single, DistContextConfig::for_domination(1)).unwrap();
    let report = distributed_ksv_domination_r_in_with(&ctx, 1, KsvConfig::new()).unwrap();
    assert_eq!(report.result.dominating_set, vec![0]);
    assert!(report.verified);

    let disconnected = bedom::graph::graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
    let ctx = DistContext::elect(&disconnected, DistContextConfig::for_domination(1)).unwrap();
    let report = distributed_ksv_domination_r_in_with(&ctx, 1, KsvConfig::new()).unwrap();
    assert!(is_distance_dominating_set(
        &disconnected,
        &report.result.dominating_set,
        1
    ));
    assert!(report.verified);
}

#[test]
fn quality_ordering_of_methods_on_bounded_expansion_classes() {
    // The headline comparison of experiment T1/T6: on bounded expansion
    // classes our set should not be (much) larger than the baselines', and
    // the Kutten–Peleg style set should be the largest by far for larger r.
    let graph = Family::PlanarTriangulation.generate(2000, 2);
    let r = 3;
    let ours = approximate_distance_domination(&graph, r)
        .dominating_set
        .len();
    let greedy = greedy_baseline(&graph, r).len();
    let kp = kutten_peleg_dominating_set(&graph, r).len();
    assert!(ours <= 3 * greedy, "ours {ours} vs greedy {greedy}");
    assert!(
        kp > greedy,
        "kp {kp} should exceed greedy {greedy} at r = {r}"
    );
}

/// The FNV-1a (64-bit) offset basis (same idiom as `tests/ksv_flood.rs`).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a (64-bit) hash over the little-endian bytes of `words`.
fn fnv1a_words(mut hash: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Continues an FNV-1a hash over a vertex list, length first.
fn fnv1a_vertices(hash: u64, set: &[bedom::graph::Vertex]) -> u64 {
    let hash = fnv1a_words(hash, [set.len() as u64]);
    fnv1a_words(hash, set.iter().map(|&v| u64::from(v)))
}

/// One pinned Lemma 7 row: `(shape, r, [|D|, |D'|, Lemma 7 bits, election
/// bits, flood bits], FNV-1a hash of every path and every consumer output)`.
type PathPin = (&'static str, u32, [usize; 5], u64);

/// Runs Lemma 7 and its three consumers on one `for_connected_domination(r)`
/// context (ρ = 2r + 1, so Theorem 9's and the cover's length filters drop
/// paths) and folds everything they output into one fingerprint: every
/// vertex's `(start, path)` store and the protocol's bit totals, the Theorem 9
/// set with its per-phase bits, the Theorem 10 `D'` with its flood bits, and
/// the cover memberships.
fn lemma7_fingerprint(graph: &bedom::graph::Graph, r: u32) -> ([usize; 5], u64) {
    use bedom::core::{
        distributed_connected_domination_in, distributed_distance_domination_in,
        distributed_neighborhood_cover_in, DistContext, DistContextConfig,
    };
    use bedom::distsim::ExecutionStrategy;

    let ctx = DistContext::elect(
        graph,
        DistContextConfig {
            assignment: IdAssignment::Shuffled(11),
            strategy: ExecutionStrategy::Sequential,
            ..DistContextConfig::for_connected_domination(r)
        },
    )
    .unwrap();
    let wreach = ctx.wreach().unwrap();
    let mut hash = FNV_OFFSET;
    for info in &wreach.info {
        hash = fnv1a_words(hash, [u64::from(info.sid), info.paths.len() as u64]);
        for (start, path) in info.paths.iter() {
            hash = fnv1a_words(hash, [u64::from(start), path.len() as u64]);
            hash = fnv1a_words(hash, path.iter().map(|&id| u64::from(id)));
        }
    }
    hash = fnv1a_words(
        hash,
        [
            wreach.stats.total_bits as u64,
            wreach.stats.max_message_bits as u64,
        ],
    );

    let domset = distributed_distance_domination_in(&ctx, r).unwrap();
    hash = fnv1a_vertices(hash, &domset.dominating_set);
    hash = fnv1a_vertices(hash, &domset.dominator_of);
    hash = fnv1a_words(hash, domset.phase_stats.iter().map(|s| s.total_bits as u64));
    hash = fnv1a_words(hash, [domset.max_message_bits() as u64]);

    let connected = distributed_connected_domination_in(&ctx, r).unwrap();
    hash = fnv1a_vertices(hash, &connected.connected_dominating_set);
    hash = fnv1a_words(hash, [connected.flood_stats.total_bits as u64]);

    let cover = distributed_neighborhood_cover_in(&ctx, r).unwrap();
    for entries in &cover.memberships {
        hash = fnv1a_words(hash, [entries.len() as u64]);
        for (center, path) in entries {
            hash = fnv1a_words(hash, [u64::from(*center)]);
            hash = fnv1a_vertices(hash, path);
        }
    }
    hash = fnv1a_vertices(hash, &cover.home);
    (
        [
            domset.dominating_set.len(),
            connected.connected_dominating_set.len(),
            wreach.stats.total_bits,
            domset.phase_stats[2].total_bits,
            connected.flood_stats.total_bits,
        ],
        hash,
    )
}

/// Pins of the Lemma 7 paths and everything built from them, recorded while
/// every path was still its own `Vec`; any change to the path store, the
/// path message or the nodes that read them must leave this table intact.
#[rustfmt::skip]
const LEMMA7_PINS: &[PathPin] = &[
    ("planar-tri-300", 1, [52, 119, 225_197, 14_063, 141_209], 0x9c447fe9cabe80ad),
    ("planar-tri-300", 2, [10, 23, 526_937, 21_925, 19_580], 0x86e07660f8a94e04),
    ("planar-tri-300", 3, [5, 7, 591_284, 27_027, 3_226], 0xdc0f5e53eab3918a),
    ("star-60", 1, [1, 1, 6_416, 2_596, 44], 0xea35147d33e3793c),
    ("star-60", 2, [1, 1, 6_416, 2_596, 44], 0xea35147d33e3793c),
    ("star-60", 3, [1, 1, 6_416, 2_596, 44], 0xea35147d33e3793c),
    ("config-model-300", 1, [138, 300, 114_907, 10_486, 324_746], 0x5bbc27692f4b04bc),
    ("config-model-300", 2, [65, 287, 667_442, 19_496, 694_177], 0xa8b3208bded0aa34),
    ("config-model-300", 3, [39, 280, 2_450_006, 29_214, 1_001_126], 0x583e43e5efbbd5cc),
    ("grid-12x12", 1, [61, 139, 57_631, 5_358, 73_337], 0xd2238c6a2a87d3c5),
    ("grid-12x12", 2, [30, 113, 190_634, 9_192, 69_242], 0x50624fd78df051a3),
    ("grid-12x12", 3, [19, 110, 414_204, 12_360, 83_198], 0xd1b921022a674630),
    ("path-40", 1, [20, 38, 5_745, 1_075, 7_334], 0x46dd0b035f5b7f4c),
    ("path-40", 2, [15, 38, 9_636, 1_976, 9_321], 0xa05e5f3aa067cf03),
    ("path-40", 3, [10, 36, 12_987, 2_504, 7_723], 0x02355556399cfad0),
];

#[test]
fn lemma7_paths_and_their_consumers_match_their_pins() {
    use bedom::graph::generators::{
        configuration_model_power_law, grid, path, stacked_triangulation, star,
    };

    let shapes = [
        ("planar-tri-300", stacked_triangulation(300, 5)),
        ("star-60", star(60)),
        (
            "config-model-300",
            configuration_model_power_law(300, 2.5, 2, 8, 3),
        ),
        ("grid-12x12", grid(12, 12)),
        ("path-40", path(40)),
    ];
    let mut got = Vec::new();
    for (name, graph) in &shapes {
        for r in 1..=3u32 {
            let (counts, hash) = lemma7_fingerprint(graph, r);
            got.push((*name, r, counts, hash));
        }
    }
    assert_eq!(
        got, LEMMA7_PINS,
        "a Lemma 7 path or consumer moved off its pin"
    );
}
