//! Determinism of the superstep engine: sequential and parallel execution
//! must produce **bit-identical** results — same dominating sets, same round
//! counts, same per-round statistics — for every distributed algorithm in the
//! workspace, across graph families and shuffled identifier assignments.
//!
//! This is the contract that lets experiments toggle
//! [`ExecutionStrategy::Parallel`] freely: parallelism is a value fed into
//! one shared execution path, never a second code path.

use bedom::core::{
    distributed_connected_domination, distributed_distance_domination,
    distributed_neighborhood_cover, distributed_weak_reachability, DistDomSetConfig, WReachConfig,
};
use bedom::distsim::{ExecutionStrategy, IdAssignment, Model, Network};
use bedom::graph::generators::Family;
use bedom::graph::Graph;
use bedom::wcol::{default_threshold, distributed_wcol_order_with};

/// The strategy pair every assertion compares: `Sequential` against
/// `Parallel` by default, or — when `BEDOM_PERTURB_SEED` is set to a
/// decimal integer — against [`ExecutionStrategy::Pooled`] with that seed,
/// which staggers worker start-up and shuffles the join order. Any other
/// value panics instead of silently running unperturbed. CI runs the whole
/// suite a second time under a perturbed schedule this way; any output that
/// depends on worker completion order fails the same assertions.
fn strategies() -> [ExecutionStrategy; 2] {
    let adversary = ExecutionStrategy::perturbed_from_env().unwrap_or(ExecutionStrategy::Parallel);
    [ExecutionStrategy::Sequential, adversary]
}

/// The instances every algorithm is checked on: a shuffled-id random family
/// and planar families, per the determinism suite's charter.
fn instances() -> Vec<(&'static str, Graph)> {
    vec![
        ("random-tree", Family::RandomTree.generate(600, 11)),
        ("config-model", Family::ConfigurationModel.generate(500, 7)),
        ("planar-tri", Family::PlanarTriangulation.generate(600, 3)),
        ("grid", Family::Grid.generate(400, 1)),
    ]
}

#[test]
fn wreach_index_build_is_strategy_independent() {
    // Sequential and parallel builds of the shared flat index must be
    // bit-identical (same CSR offsets, data, depths and elected minima),
    // because every analysis quantity downstream is read straight out of
    // the index.
    use bedom::wcol::{degeneracy_based_order, WReachIndex};
    for (name, g) in instances() {
        let order = degeneracy_based_order(&g);
        for radius in [1u32, 3] {
            let [a, b] =
                strategies().map(|strategy| WReachIndex::build_with(&g, &order, radius, strategy));
            assert_eq!(a, b, "{name}, radius {radius}: index build diverged");
        }
    }
}

#[test]
fn wcol_order_is_strategy_independent() {
    for (name, g) in instances() {
        let run = |strategy| {
            let result = distributed_wcol_order_with(
                &g,
                default_threshold(&g),
                IdAssignment::Shuffled(21),
                strategy,
            )
            .unwrap();
            (result.super_ids, result.blocks, result.rounds)
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: order phase diverged");
    }
}

#[test]
fn weak_reachability_is_strategy_independent() {
    for (name, g) in instances() {
        let order = bedom::wcol::degeneracy_based_order(&g);
        let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
        let run = |strategy| {
            let result = distributed_weak_reachability(
                &g,
                &super_ids,
                WReachConfig {
                    rho: 3,
                    bandwidth_logs: None,
                    strategy,
                },
            )
            .unwrap();
            let paths: Vec<_> = result.info.iter().map(|i| i.paths.clone()).collect();
            (paths, result.rounds, result.stats.total_bits)
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: weak reachability diverged");
    }
}

#[test]
fn distance_domination_is_strategy_independent() {
    for (name, g) in instances() {
        for r in [1u32, 2] {
            let run = |strategy| {
                let config = DistDomSetConfig {
                    assignment: IdAssignment::Shuffled(9),
                    ..DistDomSetConfig::with_strategy(r, strategy)
                };
                let result = distributed_distance_domination(&g, config).unwrap();
                let rounds = result.total_rounds();
                let phases: Vec<_> = result
                    .phase_stats
                    .iter()
                    .map(|s| (s.rounds, s.total_bits, s.total_deliveries))
                    .collect();
                (result.dominating_set, result.dominator_of, rounds, phases)
            };
            let [a, b] = strategies().map(run);
            assert_eq!(a, b, "{name}, r = {r}: dominating set diverged");
        }
    }
}

#[test]
fn ksv_domination_is_strategy_independent() {
    use bedom::core::{distributed_ksv_domination, KsvConfig};

    for (name, g) in instances() {
        let run = |strategy| {
            let config = KsvConfig {
                assignment: IdAssignment::Shuffled(17),
                ..KsvConfig::with_strategy(strategy)
            };
            let result = distributed_ksv_domination(&g, config).unwrap();
            (
                result.dominating_set,
                result.hard_core,
                result.cover_dominators,
                result.self_elected,
                result.rounds,
                result.stats,
            )
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: KSV diverged");
    }
}

/// KSV engine runs observed round by round: the per-round statistics stream
/// must be identical across strategies (matching the per-algorithm observer
/// cases above), and the stream length is the protocol's constant.
#[test]
fn ksv_observer_streams_are_strategy_independent() {
    use bedom::core::KSV_ROUNDS;
    use bedom::core::{distributed_ksv_domination, KsvConfig};

    let g = Family::PlanarTriangulation.generate(500, 23);
    let run = |strategy| {
        let result = distributed_ksv_domination(&g, KsvConfig::with_strategy(strategy)).unwrap();
        assert_eq!(result.stats.per_round.len(), KSV_ROUNDS);
        result.stats.per_round.clone()
    };
    let [a, b] = strategies().map(run);
    assert_eq!(a, b, "KSV per-round streams diverged");
}

/// The distance-r generalisation: sequential and parallel runs must be
/// bit-identical in everything the protocol reports — sets, the D₁/D₂/D₃
/// partition, rounds and full wire statistics — across the suite's graph
/// families.
#[test]
fn distance_r_ksv_is_strategy_independent() {
    use bedom::core::{distributed_ksv_domination_r, KsvConfig};

    for (name, g) in instances() {
        let run = |strategy| {
            let config = KsvConfig {
                assignment: IdAssignment::Shuffled(29),
                ..KsvConfig::with_strategy(strategy)
            };
            let result = distributed_ksv_domination_r(&g, 2, config).unwrap();
            (
                result.dominating_set,
                result.hard_core,
                result.cover_dominators,
                result.self_elected,
                result.rounds,
                result.stats,
            )
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: distance-2 KSV diverged");
    }
}

/// The clustered summary flood with hubs forced on (a tiny hub cap): the
/// beacon/summary/relay waves, the hub memberships, and the per-phase bit
/// buckets must all be bit-identical across strategies. (The exact-view
/// oracle in `bedom_core::dist_ksv`'s unit tests pins the cluster merge to
/// the exact-distance semantics.)
#[test]
fn clustered_summary_flood_is_strategy_independent() {
    use bedom::core::{distributed_ksv_domination_r, KsvConfig};

    for (name, g) in instances() {
        let run = |strategy| {
            let config = KsvConfig {
                assignment: IdAssignment::Shuffled(31),
                hub_cap: Some(8),
                ..KsvConfig::with_strategy(strategy)
            };
            let result = distributed_ksv_domination_r(&g, 2, config).unwrap();
            (
                result.dominating_set,
                result.hard_core,
                result.cover_dominators,
                result.self_elected,
                result.high_degree,
                result.rounds,
                result.phase_bits,
                result.stats,
            )
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: clustered summary flood diverged");
    }
}

/// Distance-r KSV observed round by round: identical per-round statistic
/// streams across strategies, stream length pinned to ksv_rounds(r).
#[test]
fn distance_r_ksv_observer_streams_are_strategy_independent() {
    use bedom::core::{distributed_ksv_domination_r, ksv_rounds, KsvConfig};

    let g = Family::Grid.generate(400, 5);
    for r in [2u32, 3] {
        let run = |strategy| {
            let result =
                distributed_ksv_domination_r(&g, r, KsvConfig::with_strategy(strategy)).unwrap();
            assert_eq!(result.stats.per_round.len(), ksv_rounds(r));
            result.stats.per_round.clone()
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "r = {r}: distance-r KSV per-round streams diverged");
    }
}

/// A scenario batch mixing KSV radii across shards (r = 1, 2, 3 next to an
/// order-based shard and a degenerate one): per-shard reports bit-identical
/// across sequential and parallel shard execution, with each KSV shard
/// pinned to its own round constant.
#[test]
fn scenario_batch_with_mixed_ksv_radii_is_strategy_independent() {
    use bedom::core::{ksv_rounds, solve_scenario, Algorithm, DominationPipeline, Mode};

    let shards: Vec<(Graph, DominationPipeline)> = vec![
        (
            Family::PlanarTriangulation.generate(200, 4),
            DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(150, 1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::RandomTree.generate(180, 6),
            DominationPipeline::new(3).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(100, 2),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            Graph::empty(1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
    ];

    let run = |strategy| {
        let report = solve_scenario(&shards, strategy).unwrap();
        report
            .shards
            .iter()
            .map(|s| {
                (
                    s.shard,
                    s.output.dominating_set.clone(),
                    s.output.rounds,
                    s.metrics,
                )
            })
            .collect::<Vec<_>>()
    };
    let [a, b] = strategies().map(run);
    assert_eq!(a, b, "mixed-radius KSV batch diverged between strategies");
    for (i, r) in [1u32, 2, 3].iter().copied().enumerate() {
        assert_eq!(a[i].2, ksv_rounds(r), "shard {i} (r = {r})");
    }
    assert_eq!(a[4].1, vec![0], "single-vertex shard must self-elect");
    assert_eq!(a[4].2, ksv_rounds(2));
}

#[test]
fn neighborhood_cover_is_strategy_independent() {
    for (name, g) in instances() {
        let run = |strategy| {
            let config = DistDomSetConfig {
                assignment: IdAssignment::Shuffled(5),
                ..DistDomSetConfig::with_strategy(1, strategy)
            };
            let cover = distributed_neighborhood_cover(&g, config).unwrap();
            let rounds = cover.total_rounds();
            (cover.memberships, rounds)
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: cover diverged");
    }
}

#[test]
fn connected_domination_is_strategy_independent() {
    for (name, g) in instances() {
        let run = |strategy| {
            let config = DistDomSetConfig {
                assignment: IdAssignment::Shuffled(13),
                ..DistDomSetConfig::with_strategy(1, strategy)
            };
            let result = distributed_connected_domination(&g, config).unwrap();
            let rounds = result.total_rounds();
            (
                result.dominating_set,
                result.connected_dominating_set,
                rounds,
            )
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: connected dominating set diverged");
    }
}

/// The scenario runner: an N-shard batch over mixed graph families,
/// pipelines and degenerate inputs (empty graph, single vertex, disconnected
/// graph) must produce bit-identical per-shard reports — sets, rounds,
/// message bits, sweep counts — across sequential and parallel shard
/// execution, in shard order.
#[test]
fn scenario_batch_is_strategy_independent_and_in_shard_order() {
    use bedom::core::{solve_scenario, DominationPipeline, Mode};

    let shards: Vec<(Graph, DominationPipeline)> = vec![
        (
            Family::PlanarTriangulation.generate(300, 2),
            DominationPipeline::new(1).mode(Mode::Distributed).seed(4),
        ),
        (
            Graph::empty(0),
            DominationPipeline::new(2).mode(Mode::Distributed),
        ),
        (
            Graph::empty(1),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            bedom::graph::graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (Family::Grid.generate(200, 1), DominationPipeline::new(2)),
        (
            Family::RandomTree.generate(250, 9),
            DominationPipeline::new(1)
                .mode(Mode::Distributed)
                .connected(true),
        ),
    ];

    let run = |strategy| {
        let report = solve_scenario(&shards, strategy).unwrap();
        assert_eq!(report.num_shards(), shards.len());
        report
            .shards
            .iter()
            .map(|s| {
                (
                    s.shard,
                    s.output.dominating_set.clone(),
                    s.output.connected_dominating_set.clone(),
                    s.output.witnessed_constant,
                    s.output.rounds,
                    s.metrics,
                )
            })
            .collect::<Vec<_>>()
    };
    let [a, b] = strategies().map(run);
    assert_eq!(a, b, "scenario batch diverged between strategies");
    for (i, shard) in a.iter().enumerate() {
        assert_eq!(shard.0, i, "reports must come back in shard order");
    }
    // Degenerate shards resolve sensibly: empty graph → empty set, single
    // vertex → itself, disconnected → one dominator per component.
    assert!(a[1].1.is_empty());
    assert_eq!(a[2].1, vec![0]);
    assert_eq!(a[3].1.len(), 3);
}

/// The pooled worker queue and the streaming runner against the sequential
/// baseline: `solve_scenario` streams every shard through
/// `ScenarioRunner::run_streaming` into a keep-everything report, and seeded
/// dynamic shard claiming must never reach it (bit-identical reports for
/// every pool seed) — under every strategy.
#[test]
fn pooled_and_streaming_scenario_paths_match_the_collected_run() {
    use bedom::core::{solve_scenario, Algorithm, DominationPipeline, Mode};

    let shards: Vec<(Graph, DominationPipeline)> = vec![
        (
            Family::PlanarTriangulation.generate(200, 4),
            DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(150, 1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(100, 2),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            Graph::empty(1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::RandomTree.generate(180, 6),
            DominationPipeline::new(2),
        ),
    ];

    let reference = solve_scenario(&shards, ExecutionStrategy::Sequential).unwrap();
    for strategy in [
        ExecutionStrategy::Parallel,
        ExecutionStrategy::Pooled(0),
        ExecutionStrategy::Pooled(0xDEAD_BEEF),
        ExecutionStrategy::Pooled(12),
    ] {
        assert_eq!(
            solve_scenario(&shards, strategy).unwrap(),
            reference,
            "{strategy:?}: collected batch diverged from sequential"
        );
    }
}

/// Scenario jobs that record per-round statistics: the round streams inside
/// each shard must be identical whether shards run sequentially or across
/// workers.
#[test]
fn scenario_shard_observer_streams_are_strategy_independent() {
    use bedom::distsim::scenario::{ScenarioReport, ScenarioRunner, ShardMetrics};
    use bedom::distsim::{Inbox, NodeAlgorithm, NodeContext, Outgoing};

    /// Fresh-id flood, quiet once nothing new is learnt.
    struct Flood {
        known: std::collections::BTreeSet<u64>,
    }

    impl NodeAlgorithm for Flood {
        type Message = Vec<u64>;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<Vec<u64>> {
            self.known.insert(ctx.id);
            Outgoing::Broadcast(vec![ctx.id])
        }

        fn round(
            &mut self,
            _: &NodeContext,
            _: usize,
            inbox: Inbox<'_, Vec<u64>>,
        ) -> Outgoing<Vec<u64>> {
            let mut fresh: Vec<u64> = inbox
                .iter()
                .flat_map(|m| m.payload.iter().copied())
                .filter(|&id| self.known.insert(id))
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            if fresh.is_empty() {
                Outgoing::Silent
            } else {
                Outgoing::Broadcast(fresh)
            }
        }

        fn output(&self, _: &NodeContext) -> usize {
            self.known.len()
        }
    }

    let graphs: Vec<Graph> = vec![
        Family::RandomTree.generate(150, 3),
        Family::Grid.generate(100, 1),
        Family::PlanarTriangulation.generate(180, 8),
        Graph::empty(1),
    ];

    let run = |strategy: ExecutionStrategy| {
        let mut report = ScenarioReport { shards: Vec::new() };
        ScenarioRunner::new(strategy).run_streaming(
            &graphs,
            || (),
            |(), shard, graph| {
                let mut net = Network::new(
                    graph,
                    Model::Local,
                    IdAssignment::Shuffled(shard as u64),
                    |_, _| Flood {
                        known: Default::default(),
                    },
                );
                net.set_strategy(strategy.nested());
                net.run(flood_rounds(graph)).unwrap();
                let stats = net.stats();
                let metrics = ShardMetrics {
                    rounds: stats.rounds,
                    total_bits: stats.total_bits,
                    ..ShardMetrics::default()
                };
                ((net.outputs(), stats.per_round.clone()), Some(metrics))
            },
            &mut report,
        );
        report
    };
    let [a, b] = strategies().map(run);
    assert_eq!(a, b, "per-shard round streams diverged between strategies");
}

/// The rounds a fresh-id flood on connected `graph` runs until it falls
/// silent: one per hop of the diameter, plus the round that delivers the
/// last broadcasts, after which every outbox is silent.
fn flood_rounds(graph: &Graph) -> usize {
    let diameter = bedom::graph::bfs::diameter(graph).expect("a connected graph");
    diameter as usize + 1
}

/// The network records identical per-round statistics under both
/// strategies.
#[test]
fn observers_see_identical_round_streams() {
    use bedom::distsim::{Inbox, NodeAlgorithm, NodeContext, Outgoing};

    /// Fresh-id flood, quiet once nothing new is learnt.
    struct Flood {
        known: std::collections::BTreeSet<u64>,
    }

    impl NodeAlgorithm for Flood {
        type Message = Vec<u64>;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<Vec<u64>> {
            self.known.insert(ctx.id);
            Outgoing::Broadcast(vec![ctx.id])
        }

        fn round(
            &mut self,
            _: &NodeContext,
            _: usize,
            inbox: Inbox<'_, Vec<u64>>,
        ) -> Outgoing<Vec<u64>> {
            let mut fresh: Vec<u64> = inbox
                .iter()
                .flat_map(|m| m.payload.iter().copied())
                .filter(|&id| self.known.insert(id))
                .collect();
            fresh.sort_unstable();
            fresh.dedup();
            if fresh.is_empty() {
                Outgoing::Silent
            } else {
                Outgoing::Broadcast(fresh)
            }
        }

        fn output(&self, _: &NodeContext) -> usize {
            self.known.len()
        }
    }

    let g = Family::PlanarTriangulation.generate(400, 19);
    let run = |strategy| {
        let mut net = Network::new(&g, Model::Local, IdAssignment::Shuffled(2), |_, _| Flood {
            known: Default::default(),
        });
        net.set_strategy(strategy);
        net.run(flood_rounds(&g)).unwrap();
        // Every vertex has heard every id.
        assert!(net.outputs().iter().all(|&known| known == g.num_vertices()));
        (net.outputs(), net.stats().per_round.clone())
    };
    let [a, b] = strategies().map(run);
    assert_eq!(a, b, "round streams diverged between strategies");
}

/// The seeded schedule-perturbing mode, exercised unconditionally (not just
/// when `BEDOM_PERTURB_SEED` re-runs the whole suite): a full distributed
/// domination pipeline must produce bit-identical output under perturbed
/// schedules with several seeds, including everything the run reports.
#[test]
fn perturbed_schedules_match_sequential_output() {
    let g = Family::PlanarTriangulation.generate(400, 7);
    let run = |strategy| {
        let config = DistDomSetConfig {
            assignment: IdAssignment::Shuffled(9),
            ..DistDomSetConfig::with_strategy(1, strategy)
        };
        let result = distributed_distance_domination(&g, config).unwrap();
        let rounds = result.total_rounds();
        let phases: Vec<_> = result
            .phase_stats
            .iter()
            .map(|s| (s.rounds, s.total_bits, s.total_deliveries))
            .collect();
        (result.dominating_set, result.dominator_of, rounds, phases)
    };
    let reference = run(ExecutionStrategy::Sequential);
    for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
        assert_eq!(
            reference,
            run(ExecutionStrategy::Pooled(seed)),
            "seed {seed}: perturbed schedule changed the output"
        );
    }
}

#[test]
fn faulty_ksv_runs_are_strategy_independent() {
    // Fault decisions are pure per-(round, edge) hashes of the plan seed, so
    // the same plan must produce the same drops, the same typed violations,
    // and the same surviving statistics under both strategies — whether the
    // lossy run happens to succeed or to fail.
    use bedom::core::{distributed_ksv_domination_r_faulty, KsvConfig};
    use bedom::distsim::FaultPlan;
    for (name, g) in instances() {
        let plan = FaultPlan::seeded(0xbad_5eed)
            .drop_messages(0.25)
            .link_outages(0.05)
            .crash(3, 2, 4);
        let run = |strategy| {
            let config = KsvConfig {
                strategy,
                assignment: IdAssignment::Shuffled(9),
                ..KsvConfig::for_radius(2)
            };
            match distributed_ksv_domination_r_faulty(&g, 2, config, plan.clone(), None) {
                Ok(res) => Ok((res.dominating_set, res.stats)),
                Err(violation) => Err(violation),
            }
        };
        let [a, b] = strategies().map(run);
        assert_eq!(a, b, "{name}: faulty KSV run diverged across strategies");
    }
}

#[test]
fn recovered_ksv_runs_match_the_fault_free_run_across_strategies() {
    // Checkpoint-based recovery walks back to a clean snapshot and replays
    // with the fault cleared, so the healed output must be bit-identical to
    // the fault-free run — and the whole rollback history must be identical
    // across strategies.
    use bedom::core::{
        distributed_ksv_domination_r, distributed_ksv_domination_r_faulty, KsvConfig,
    };
    use bedom::distsim::{FaultPlan, RecoveryPolicy};
    let g = Family::PlanarTriangulation.generate(300, 5);
    let config = |strategy| KsvConfig {
        strategy,
        assignment: IdAssignment::Shuffled(4),
        ..KsvConfig::for_radius(2)
    };
    let reference =
        distributed_ksv_domination_r(&g, 2, config(ExecutionStrategy::Sequential)).unwrap();
    // Heavy loss on the knowledge flood (rounds 1..=3 at r = 2).
    let plan = FaultPlan::seeded(0xfa11).drop_messages(0.4).during(1, 4);
    let [a, b] = strategies().map(|strategy| {
        let res = distributed_ksv_domination_r_faulty(
            &g,
            2,
            config(strategy),
            plan.clone(),
            Some(RecoveryPolicy::new(2, 8)),
        )
        .unwrap();
        let recovery = res.recovery.clone().expect("recovery report missing");
        assert!(recovery.retries >= 1, "the fault plan never fired");
        (res.dominating_set, res.stats, recovery.restored_rounds)
    });
    assert_eq!(
        a.0, reference.dominating_set,
        "recovered set differs from the fault-free run"
    );
    assert_eq!(a, b, "recovery diverged across strategies");
}
