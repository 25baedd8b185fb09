//! Cross-algorithm oracle conformance: every dominating-set solver in the
//! workspace — the sequential Theorem 5 pipeline, the Theorem 9 distributed
//! pipeline, the constant-round KSV family at r ∈ {1, 2, 3}, and every
//! baseline — is pinned against ground truth on one shared corpus of small
//! instances.
//!
//! Ground truth is two independent brute-force artifacts from `bedom-graph`:
//!
//! * the distance-`r` domination *validator*
//!   ([`is_distance_dominating_set`], a plain multi-source BFS with no
//!   algorithmic cleverness to mistrust), and
//! * the exact *minimum* ([`bitmask_minimum_domination_number`], full subset
//!   enumeration over coverage bitmasks, exact for every corpus instance).
//!
//! Every solver output must (a) pass the validator, (b) never beat the
//! enumerated minimum (a smaller "dominating set" would mean the solver and
//! the validator disagree about the problem), and (c) never exceed `n`. The
//! corpus deliberately includes the degenerate shapes — empty, single
//! vertex, disconnected with isolated vertices — because those are where
//! solvers historically diverge from the oracle first.

use bedom::baselines::{
    bucketed_greedy_dominating_set, dvorak_style_domination_default, greedy::greedy_baseline,
    kutten_peleg_dominating_set, lenzen_planar_dominating_set,
};
use bedom::core::{
    approximate_distance_domination, distributed_distance_domination, distributed_ksv_domination,
    distributed_ksv_domination_r, ksv_rounds, Algorithm, DistContext, DistContextConfig,
    DistDomSetConfig, DominationPipeline, KsvConfig, Mode,
};
use bedom::distsim::{ExecutionStrategy, IdAssignment};
use bedom::graph::domset::{
    bitmask_minimum_domination_number, exact_distance_dominating_set, is_distance_dominating_set,
    packing_lower_bound, BITMASK_ORACLE_MAX_N,
};
use bedom::graph::generators::{
    configuration_model_power_law, cycle, grid, path, stacked_triangulation, star,
};
use bedom::graph::{graph_from_edges, Graph, Vertex};

/// The shared corpus: every instance small enough for the exact bitmask
/// oracle, covering the paper's structured families, a planar triangulation,
/// a configuration-model draw, and the degenerate shapes.
fn corpus() -> Vec<(&'static str, Graph)> {
    vec![
        ("empty", Graph::empty(0)),
        ("single-vertex", Graph::empty(1)),
        ("two-isolated", Graph::empty(2)),
        ("path-10", path(10)),
        ("path-16", path(16)),
        ("cycle-13", cycle(13)),
        ("star-10", star(9)),
        ("grid-3x4", grid(3, 4)),
        ("grid-4x4", grid(4, 4)),
        ("planar-tri-14", stacked_triangulation(14, 3)),
        (
            "config-model-14",
            configuration_model_power_law(14, 2.5, 1, 5, 7),
        ),
        (
            "disconnected",
            graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]),
        ),
        // The n ∈ (20, 26] band unlocked by the word-parallel oracle rework
        // (BITMASK_ORACLE_MAX_N: 20 → 26): the closed-form families at sizes
        // the old u32 enumeration refused, a larger grid and triangulation,
        // and a disconnected union mixing all of the above with an isolate.
        ("path-26", path(26)),
        ("cycle-24", cycle(24)),
        ("grid-5x5", grid(5, 5)),
        ("planar-tri-26", stacked_triangulation(26, 5)),
        ("disconnected-23", disconnected_union_23()),
    ]
}

/// A 23-vertex disconnected instance: a path on {0..7}, a cycle on {8..16},
/// a path on {17..21}, and the isolated vertex 22.
fn disconnected_union_23() -> Graph {
    let mut edges: Vec<(u32, u32)> = (0..7).map(|i| (i, i + 1)).collect();
    edges.extend((8..16).map(|i| (i, i + 1)));
    edges.push((16, 8));
    edges.extend((17..21).map(|i| (i, i + 1)));
    graph_from_edges(23, &edges)
}

/// The five shapes of the Lemma 7 pin table in
/// `tests/end_to_end_pipelines.rs`.
fn lemma7_pin_shapes() -> Vec<(&'static str, Graph)> {
    vec![
        ("planar-tri-300", stacked_triangulation(300, 5)),
        ("star-60", star(60)),
        (
            "config-model-300",
            configuration_model_power_law(300, 2.5, 2, 8, 3),
        ),
        ("grid-12x12", grid(12, 12)),
        ("path-40", path(40)),
    ]
}

/// Oracle check of one solver output on one instance: validates against the
/// brute-force BFS validator and sandwiches the size between the enumerated
/// exact minimum and `n`.
fn conforms(name: &str, instance: &str, graph: &Graph, set: &[u32], r: u32, opt: usize) {
    assert!(
        is_distance_dominating_set(graph, set, r),
        "{name} on {instance} (r = {r}): output is not a distance-{r} dominating set: {set:?}"
    );
    assert!(
        set.len() >= opt,
        "{name} on {instance} (r = {r}): claims {} dominators, below the exact minimum {opt} — \
         solver and oracle disagree about the problem",
        set.len()
    );
    assert!(
        set.len() <= graph.num_vertices(),
        "{name} on {instance} (r = {r}): {} dominators exceed n",
        set.len()
    );
    // Outputs are sets of distinct, in-range, sorted vertices.
    assert!(
        set.windows(2).all(|w| w[0] < w[1]),
        "{name} on {instance} (r = {r}): output is not sorted-unique: {set:?}"
    );
    assert!(
        set.iter().all(|&v| (v as usize) < graph.num_vertices()),
        "{name} on {instance} (r = {r}): out-of-range vertex in {set:?}"
    );
}

#[test]
fn every_solver_conforms_to_the_brute_force_oracle() {
    for (instance, graph) in corpus() {
        assert!(
            graph.num_vertices() <= BITMASK_ORACLE_MAX_N,
            "{instance}: corpus instance too large for the exact oracle"
        );
        for r in [1u32, 2, 3] {
            let opt = bitmask_minimum_domination_number(&graph, r)
                .expect("corpus instances fit the exact oracle");

            // Sequential Theorem 5.
            let seq = approximate_distance_domination(&graph, r);
            conforms("seq_domset", instance, &graph, &seq.dominating_set, r, opt);

            // Distributed Theorem 9.
            let t9 = distributed_distance_domination(&graph, DistDomSetConfig::new(r)).unwrap();
            conforms("dist_domset", instance, &graph, &t9.dominating_set, r, opt);

            // The constant-round KSV family at this radius (the r = 1 case
            // is the PR 4 protocol; r ≥ 2 is the distance-r generalisation).
            let ksv = distributed_ksv_domination_r(&graph, r, KsvConfig::new()).unwrap();
            conforms("ksv", instance, &graph, &ksv.dominating_set, r, opt);
            assert_eq!(
                ksv.rounds,
                if graph.num_vertices() == 0 {
                    0
                } else {
                    ksv_rounds(r)
                },
                "ksv on {instance} (r = {r}): wrong round constant"
            );

            // Baselines.
            conforms(
                "greedy",
                instance,
                &graph,
                &greedy_baseline(&graph, r),
                r,
                opt,
            );
            conforms(
                "dvorak",
                instance,
                &graph,
                &dvorak_style_domination_default(&graph, r),
                r,
                opt,
            );
            conforms(
                "kutten-peleg",
                instance,
                &graph,
                &kutten_peleg_dominating_set(&graph, r),
                r,
                opt,
            );
            conforms(
                "bucketed-greedy",
                instance,
                &graph,
                &bucketed_greedy_dominating_set(&graph, r),
                r,
                opt,
            );
            if r == 1 {
                // Lenzen et al. solves the r = 1 problem only.
                let ids = IdAssignment::Shuffled(9).assign(&graph);
                conforms(
                    "lenzen-planar",
                    instance,
                    &graph,
                    &lenzen_planar_dominating_set(&graph, &ids),
                    1,
                    opt,
                );
            }
        }
    }
}

#[test]
fn enlarged_corpus_oracle_matches_closed_forms() {
    // The new (20, 26] instances of the closed-form families pin the
    // enlarged oracle itself: γ_r(P_n) = γ_r(C_n) = ⌈n / (2r + 1)⌉.
    for r in [1u32, 2, 3] {
        let span = 2 * r as usize + 1;
        assert_eq!(
            bitmask_minimum_domination_number(&path(26), r),
            Some(26usize.div_ceil(span)),
            "P_26, r = {r}"
        );
        assert_eq!(
            bitmask_minimum_domination_number(&cycle(24), r),
            Some(24usize.div_ceil(span)),
            "C_24, r = {r}"
        );
    }
    // And the disconnected union is the sum of its parts:
    // γ_1 = γ_1(P_8) + γ_1(C_9) + γ_1(P_5) + 1 = 3 + 3 + 2 + 1.
    assert_eq!(
        bitmask_minimum_domination_number(&disconnected_union_23(), 1),
        Some(9)
    );
}

#[test]
fn distance_1_ksv_entry_point_agrees_with_the_family_at_r_1() {
    // The PR 4 distance-1 entry point and the generalised family at r = 1
    // are the same protocol — same sets, same rounds, same bits.
    for (instance, graph) in corpus() {
        let legacy = distributed_ksv_domination(&graph, KsvConfig::new()).unwrap();
        let family = distributed_ksv_domination_r(&graph, 1, KsvConfig::new()).unwrap();
        assert_eq!(
            legacy.dominating_set, family.dominating_set,
            "{instance}: r = 1 sets diverge"
        );
        assert_eq!(legacy.rounds, family.rounds, "{instance}");
        assert_eq!(
            legacy.stats.total_bits, family.stats.total_bits,
            "{instance}: r = 1 wire accounting diverges"
        );
    }
}

#[test]
fn pipeline_entry_points_conform_too() {
    // The high-level pipeline (both modes, both algorithms) feeds the same
    // oracle checks — what a user calls must be as correct as what the
    // lower-level entry points produce.
    for (instance, graph) in corpus() {
        for r in [1u32, 2] {
            let opt = bitmask_minimum_domination_number(&graph, r).unwrap();
            let seq = DominationPipeline::new(r).solve(&graph).unwrap();
            conforms(
                "pipeline-seq",
                instance,
                &graph,
                &seq.dominating_set,
                r,
                opt,
            );
            let dist = DominationPipeline::new(r)
                .mode(Mode::Distributed)
                .solve(&graph)
                .unwrap();
            conforms(
                "pipeline-dist",
                instance,
                &graph,
                &dist.dominating_set,
                r,
                opt,
            );
            let ksv = DominationPipeline::new(r)
                .algorithm(Algorithm::KsvConstantRound)
                .solve(&graph)
                .unwrap();
            conforms(
                "pipeline-ksv",
                instance,
                &graph,
                &ksv.dominating_set,
                r,
                opt,
            );
            assert!(ksv.election_verified, "{instance} (r = {r})");
        }
    }
}

#[test]
fn reference_solvers_agree_with_the_oracle_on_the_corpus() {
    // The branch-and-bound exact solver and the packing lower bound are
    // themselves yardsticks elsewhere — pin them to the independent subset
    // enumeration so a regression in either cannot silently skew every
    // experiment that uses them.
    for (instance, graph) in corpus() {
        for r in [1u32, 2, 3] {
            let opt = bitmask_minimum_domination_number(&graph, r).unwrap();
            let bnb = exact_distance_dominating_set(&graph, r, 50_000_000)
                .unwrap_or_else(|| panic!("{instance}: branch and bound gave up"));
            assert!(
                is_distance_dominating_set(&graph, &bnb, r),
                "{instance} (r = {r}): branch-and-bound output invalid"
            );
            assert_eq!(
                bnb.len(),
                opt,
                "{instance} (r = {r}): branch and bound disagrees with subset enumeration"
            );
            assert!(
                packing_lower_bound(&graph, r) <= opt,
                "{instance} (r = {r}): packing bound exceeds the optimum"
            );
        }
    }
}

#[test]
fn ksv_self_healing_recovers_the_fault_free_result() {
    // Fault injection on the whole corpus at r = 1 and r = 2, with heavy
    // loss in rounds 1..=3: the adjacency exchange, the D₁ announcement and
    // the election at r = 1, the whole knowledge flood at r = 2. Three
    // contracts:
    //
    // 1. **Typed degradation** — a lossy run either still produces a set
    //    that passes the oracle, or fails with a typed violation; never a
    //    silently wrong set and never a panic (the r = 1 decision view reads
    //    a record for every neighbour). At this loss rate at least one
    //    corpus instance per radius must take the typed-failure path.
    // 2. **Self-healing** — the same run under a `RecoveryPolicy` succeeds,
    //    and its output is bit-identical to the fault-free run.
    // 3. The recovered set is certified against the brute-force oracle like
    //    every other solver output.
    use bedom::core::distributed_ksv_domination_r_faulty;
    use bedom::distsim::{FaultPlan, ModelViolation, RecoveryPolicy};
    let plan = FaultPlan::seeded(0xd509).drop_messages(0.5).during(1, 4);
    for r in [1u32, 2] {
        let mut typed_failures = 0usize;
        for (instance, graph) in corpus() {
            let opt = bitmask_minimum_domination_number(&graph, r)
                .expect("corpus instances fit the exact oracle");
            let fault_free = distributed_ksv_domination_r(&graph, r, KsvConfig::new()).unwrap();
            let faulty = distributed_ksv_domination_r_faulty(
                &graph,
                r,
                KsvConfig::new(),
                plan.clone(),
                None,
            );
            match &faulty {
                Ok(res) => conforms("ksv-lossy", instance, &graph, &res.dominating_set, r, opt),
                Err(violation) => {
                    assert!(
                        matches!(violation, ModelViolation::IncompleteKnowledge { .. }),
                        "{instance} (r = {r}): unexpected violation kind: {violation}"
                    );
                    typed_failures += 1;
                }
            }
            let recovered = distributed_ksv_domination_r_faulty(
                &graph,
                r,
                KsvConfig::new(),
                plan.clone(),
                Some(RecoveryPolicy::new(2, 10)),
            )
            .unwrap_or_else(|violation| {
                panic!("{instance} (r = {r}): recovery failed to heal the run: {violation}")
            });
            conforms(
                "ksv-recovered",
                instance,
                &graph,
                &recovered.dominating_set,
                r,
                opt,
            );
            assert_eq!(
                recovered.dominating_set, fault_free.dominating_set,
                "{instance} (r = {r}): recovered set is not bit-identical to the fault-free run"
            );
            if faulty.is_err() {
                let report = recovered
                    .recovery
                    .expect("healed runs carry a recovery report");
                assert!(
                    report.retries >= 1,
                    "{instance} (r = {r}): the lossy run failed without recovery retrying"
                );
            }
        }
        assert!(
            typed_failures >= 1,
            "the fault plan never produced a typed violation on the corpus at r = {r} — \
             the degradation checks are not firing"
        );
    }
}

/// The two Lemma 7 invariants that the Theorem 9 election and the Theorem 10
/// path flood keep no bookkeeping for, on every stored path of the corpus
/// and the pin shapes at ρ = 1 to 5 under two id seeds: a stored path is an
/// induced path of G (consecutive vertices adjacent, no other pair), and the
/// path without its last vertex is the stored path of its new last vertex
/// for the same start. Both follow from storing, per start, a shortest
/// restricted path with a lexicographic tie-break. A change to Lemma 7's
/// broadcast or tie-break rule that breaks the first lets the flood forward
/// a path twice; one that breaks the second lets the election drop a token.
#[test]
fn lemma7_stored_paths_are_induced_and_closed_under_prefixes() {
    let mut long_paths = 0;
    for (instance, graph) in corpus().into_iter().chain(lemma7_pin_shapes()) {
        for rho in 1..=5u32 {
            for seed in [11, 0x5eed] {
                let config = DistContextConfig {
                    assignment: IdAssignment::Shuffled(seed),
                    strategy: ExecutionStrategy::Sequential,
                    ..DistContextConfig::new(rho)
                };
                let ctx = DistContext::elect(&graph, config).unwrap();
                let info = &ctx.wreach().unwrap().info;
                let vertex = |sid: u32| {
                    ctx.vertex_of_sid(u64::from(sid))
                        .expect("a stored super-id names a vertex")
                };
                for (w, own) in info.iter().enumerate() {
                    for (start, path) in own.paths.iter() {
                        let ids = path.to_vec();
                        let at = format!("{instance}, ρ = {rho}, seed {seed}: path {ids:?} of {w}");
                        let vertices: Vec<Vertex> = ids.iter().map(|&sid| vertex(sid)).collect();
                        assert_eq!(vertices.last(), Some(&(w as Vertex)), "{at}");
                        for (i, &a) in vertices.iter().enumerate() {
                            for (j, &b) in vertices.iter().enumerate().skip(i + 1) {
                                assert_eq!(graph.has_edge(a, b), j == i + 1, "{at}: ({i}, {j})");
                            }
                        }
                        if let [head @ .., last, _] = ids.as_slice() {
                            let stored = info[vertex(*last) as usize].paths.get(start);
                            let prefix: Vec<u32> = head.iter().chain([last]).copied().collect();
                            assert_eq!(stored.map(|p| p.to_vec()), Some(prefix), "{at}");
                        }
                        long_paths += usize::from(ids.len() >= 3);
                    }
                }
            }
        }
    }
    assert!(long_paths > 0, "no stored path had an interior to check");
}
