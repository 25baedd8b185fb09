//! Table/figure generator for the bedom reproduction.
//!
//! Each sub-command regenerates one experiment table (the paper has no
//! empirical section, so the experiments operationalise its theorems; the
//! README's *Experiment tables* maps each table to its theorem):
//!
//! ```text
//! cargo run --release -p bedom-bench --bin experiments -- [t1|t2|t3|t4|t5|t6|f1|f2|f3|f4|s1|k1|all] [--quick]
//! ```
//!
//! `--quick` shrinks instance sizes so the full suite finishes in a couple of
//! minutes; CI runs `all --quick`. The default sizes are the full scale. No
//! argument runs everything; any other argument prints the usage to stderr
//! and exits with status 2 before anything runs.
//!
//! The distributed experiments construct their phases from a shared
//! [`DistContext`] per instance (one order phase, one weak-reachability
//! protocol run, one lazy index sweep feeding every reported quantity), and
//! `s1` exercises the sharded multi-graph scenario runner.

use bedom_bench::{compared_algorithms, connected_instance, format_quality_table, QualityRow};
use bedom_core::{
    approximate_distance_domination, distributed_connected_domination,
    distributed_distance_domination, distributed_distance_domination_in,
    distributed_neighborhood_cover_in, local_connect, solve_scenario, DistContext,
    DistContextConfig, DistDomSetConfig, DominationPipeline, Mode,
};
use bedom_distsim::{log2_ceil, ExecutionStrategy, IdAssignment};
use bedom_graph::domset::{exact_distance_dominating_set, packing_lower_bound};
use bedom_graph::generators::Family;
use bedom_graph::metrics::shallow_minor_density_estimate;
use bedom_graph::Graph;
use bedom_wcol::{neighborhood_cover_from_index, OrderingStrategy, WReachIndex};
use std::time::Instant;

struct Scale {
    quick: bool,
}

impl Scale {
    fn n(&self, full: usize) -> usize {
        if self.quick {
            (full / 8).max(120)
        } else {
            full
        }
    }
}

/// One table or figure: its command-line name and its generator.
type Table = (&'static str, fn(&Scale));

/// Every table and figure, in the order `all` runs them.
const TABLES: [Table; 12] = [
    ("t1", table_t1),
    ("t2", table_t2),
    ("t3", table_t3),
    ("t4", table_t4),
    ("t5", table_t5),
    ("t6", table_t6),
    ("f1", figure_f1),
    ("f2", figure_f2),
    ("f3", figure_f3),
    ("f4", figure_f4),
    ("s1", scenario_s1),
    ("k1", table_k1),
];

const USAGE: &str = "usage: experiments [all|t1|t2|t3|t4|t5|t6|f1|f2|f3|f4|s1|k1]... [--quick]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "--quick")
        .collect();
    let known = |a: &str| a == "all" || TABLES.iter().any(|&(name, _)| name == a);
    if let Some(bad) = which.iter().find(|&&a| !known(a)) {
        eprintln!("experiments: unknown argument {bad:?}\n{USAGE}");
        std::process::exit(2);
    }
    let scale = Scale { quick };
    let run_all = which.is_empty() || which.contains(&"all");
    for (name, run) in TABLES {
        if run_all || which.contains(&name) {
            run(&scale);
        }
    }
}

/// K1 — the constant-round KSV phase family (arXiv:2012.02701 at r = 1, the
/// arXiv:2207.02669 distance-r generalisation at r ≥ 2) against the
/// order-based Theorem 9 pipeline on the same instances and seeds: rounds,
/// wire bits (with the per-phase flood/announcement/token split), and set
/// sizes, with both verified through one shared `DistContext` per
/// `(instance, r)` (single index sweep). A second table sweeps the
/// pseudo-cover admission threshold at r = 2 across {1, ∇, 2∇ + 1} — the
/// exhaustive-cover default against the papers' Θ(∇) counting regime.
fn table_k1(scale: &Scale) {
    use bedom_core::{distributed_ksv_domination_r_in_with, ksv_rounds, KsvConfig};

    println!(
        "\n===== K1: constant-round KSV vs the order-based pipeline (rounds / bits / |D|) ====="
    );
    println!(
        "{:<14} {:>8} {:>3} {:>10} {:>9} {:>13} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6} {:>6}",
        "family",
        "n",
        "r",
        "t9-rounds",
        "ksv-rnds",
        "t9-bits",
        "ksv-bits",
        "flood-bits",
        "ann-bits",
        "|D-t9|",
        "|D-ksv|",
        "lb",
        "c-wit"
    );
    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        for n in [scale.n(4_000), scale.n(16_000)] {
            let graph = connected_instance(family, n, 11);
            for r in [1u32, 2] {
                let ctx = DistContext::elect(&graph, DistContextConfig::for_domination(r)).unwrap();
                let t9 = distributed_distance_domination_in(&ctx, r).unwrap();
                let ksv = distributed_ksv_domination_r_in_with(&ctx, r, KsvConfig::new()).unwrap();
                assert!(ksv.verified, "KSV output failed verification");
                assert_eq!(ksv.result.rounds, ksv_rounds(r));
                let t9_bits: usize = t9.phase_stats.iter().map(|s| s.total_bits).sum();
                let phases = ksv.result.phase_bits;
                println!(
                    "{:<14} {:>8} {:>3} {:>10} {:>9} {:>13} {:>12} {:>12} {:>9} {:>8} {:>8} {:>6} {:>6}",
                    family.name(),
                    graph.num_vertices(),
                    r,
                    t9.total_rounds(),
                    ksv.result.rounds,
                    t9_bits,
                    ksv.result.stats.total_bits,
                    phases.flood,
                    phases.hard_core_announce + phases.cover_announce,
                    t9.dominating_set.len(),
                    ksv.result.dominating_set.len(),
                    packing_lower_bound(&graph, r),
                    ksv.witnessed_constant
                );
            }
        }
    }

    println!("\n===== K1b: pseudo-cover admission threshold sweep at r = 2 =====");
    println!(
        "{:<14} {:>8} {:>9} {:>8} {:>6} {:>6} {:>6} {:>6} {:>12} {:>9} {:>10}",
        "family",
        "n",
        "thresh",
        "|D|",
        "D1",
        "D2",
        "D3",
        "hubs",
        "flood-bits",
        "ann-bits",
        "token-bits"
    );
    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        let n = scale.n(16_000);
        let graph = connected_instance(family, n, 11);
        let nabla = graph
            .num_edges()
            .div_ceil(graph.num_vertices().max(1))
            .max(1) as u32;
        let ctx = DistContext::elect(&graph, DistContextConfig::for_domination(2)).unwrap();
        for (label, threshold) in [("1", 1u32), ("nabla", nabla), ("2*nabla+1", 2 * nabla + 1)] {
            let report = distributed_ksv_domination_r_in_with(
                &ctx,
                2,
                KsvConfig {
                    threshold,
                    ..KsvConfig::new()
                },
            )
            .unwrap();
            assert!(
                report.verified,
                "threshold {threshold}: output failed verification"
            );
            let result = &report.result;
            let phases = result.phase_bits;
            println!(
                "{:<14} {:>8} {:>6}={:>2} {:>8} {:>6} {:>6} {:>6} {:>6} {:>12} {:>9} {:>10}",
                family.name(),
                graph.num_vertices(),
                label,
                threshold,
                result.dominating_set.len(),
                result.hard_core.len(),
                result.cover_dominators.len(),
                result.self_elected.len(),
                result.high_degree.len(),
                phases.flood,
                phases.hard_core_announce + phases.cover_announce,
                phases.election
            );
        }
    }
}

/// T1 — approximation quality vs exact OPT on small instances (Theorem 5).
fn table_t1(scale: &Scale) {
    println!("\n===== T1: approximation ratios against the exact optimum (Theorem 5) =====");
    let families = [
        Family::Grid,
        Family::RandomTree,
        Family::PlanarTriangulation,
        Family::Outerplanar,
        Family::TwoTree,
        Family::ConfigurationModel,
    ];
    let mut rows = Vec::new();
    for family in families {
        for r in [1u32, 2] {
            let graph = connected_instance(family, scale.n(240).min(240), 7);
            let n = graph.num_vertices();
            let reference = exact_distance_dominating_set(&graph, r, 4_000_000);
            let (opt, exact) = match &reference {
                Some(set) => (set.len(), true),
                None => (packing_lower_bound(&graph, r), false),
            };
            for (name, algorithm) in compared_algorithms() {
                let size = algorithm(&graph, r).len();
                rows.push(QualityRow::new(family.name(), n, r, name, size, opt, exact));
            }
        }
    }
    print!("{}", format_quality_table(&rows));
}

/// T2 — witnessed constants and cover quality across sizes (Theorems 1/2/4).
fn table_t2(scale: &Scale) {
    println!("\n===== T2: witnessed wcol constants and cover quality (Theorems 2/4) =====");
    println!(
        "{:<14} {:>8} {:>3} {:<14} {:>8} {:>10} {:>12} {:>10}",
        "family", "n", "r", "strategy", "c(2r)", "cov-degree", "cov-radius", "avg-size"
    );
    let families = [
        Family::Grid,
        Family::PlanarTriangulation,
        Family::ConfigurationModel,
        Family::ChungLu,
    ];
    for family in families {
        for target in [scale.n(2_000), scale.n(16_000)] {
            let graph = connected_instance(family, target, 3);
            let r = 2u32;
            for strategy in OrderingStrategy::ALL {
                let order = bedom_wcol::compute_order(&graph, strategy);
                // One index sweep serves both the constant and the cover.
                let index = WReachIndex::build(&graph, &order, 2 * r);
                let c = index.wcol();
                let cover = neighborhood_cover_from_index(&index, r);
                println!(
                    "{:<14} {:>8} {:>3} {:<14} {:>8} {:>10} {:>12} {:>10.1}",
                    family.name(),
                    graph.num_vertices(),
                    r,
                    strategy.name(),
                    c,
                    cover.degree(),
                    cover
                        .max_cluster_radius(&graph)
                        .map(|x| x.to_string())
                        .unwrap_or_else(|| "-".into()),
                    cover.average_cluster_size()
                );
            }
        }
    }
}

/// T3 — distributed covers equal sequential covers (Theorem 8). Both the
/// cover and the comparison run from one shared `DistContext` per instance:
/// the sequential reference clusters are read from the context's single
/// index sweep instead of a dedicated re-sweep.
fn table_t3(scale: &Scale) {
    println!("\n===== T3: distributed neighbourhood covers (Theorem 8) =====");
    println!(
        "{:<14} {:>8} {:>3} {:>7} {:>10} {:>12} {:>10} {:>8}",
        "family", "n", "r", "rounds", "cov-degree", "cov-radius", "covers-ok", "same-seq"
    );
    for family in [
        Family::PlanarTriangulation,
        Family::ThreeTree,
        Family::ConfigurationModel,
    ] {
        for r in [1u32, 2] {
            let graph = connected_instance(family, scale.n(6_000), 5);
            let ctx = DistContext::elect(&graph, DistContextConfig::for_domination(r)).unwrap();
            let dist = distributed_neighborhood_cover_in(&ctx, r).unwrap();
            let collected = dist.to_neighborhood_cover(&graph);
            let seq = neighborhood_cover_from_index(ctx.index(), r);
            println!(
                "{:<14} {:>8} {:>3} {:>7} {:>10} {:>12} {:>10} {:>8}",
                family.name(),
                graph.num_vertices(),
                r,
                dist.total_rounds(),
                collected.degree(),
                collected
                    .max_cluster_radius(&graph)
                    .map(|x| x.to_string())
                    .unwrap_or_else(|| "-".into()),
                collected.covers_all_r_neighborhoods(&graph),
                seq.clusters == collected.clusters,
            );
        }
    }
}

/// T4 — connected distance-r dominating sets in CONGEST_BC (Theorem 10).
fn table_t4(scale: &Scale) {
    println!("\n===== T4: connected distance-r domination in CONGEST_BC (Theorem 10) =====");
    println!(
        "{:<14} {:>8} {:>3} {:>8} {:>8} {:>8} {:>10} {:>8}",
        "family", "n", "r", "|D|", "|D'|", "blowup", "bound", "rounds"
    );
    for family in [
        Family::Grid,
        Family::PlanarTriangulation,
        Family::TwoTree,
        Family::ConfigurationModel,
    ] {
        for r in [1u32, 2] {
            let graph = connected_instance(family, scale.n(4_000), 9);
            let result =
                distributed_connected_domination(&graph, DistDomSetConfig::new(r)).unwrap();
            println!(
                "{:<14} {:>8} {:>3} {:>8} {:>8} {:>8.2} {:>10} {:>8}",
                family.name(),
                graph.num_vertices(),
                r,
                result.dominating_set.len(),
                result.connected_dominating_set.len(),
                result.blowup,
                result.proven_blowup_bound(r),
                result.total_rounds()
            );
        }
    }
}

/// T5 — the LOCAL connector over Lenzen et al. on planar graphs (Theorem 17).
fn table_t5(scale: &Scale) {
    println!("\n===== T5: LOCAL connector over Lenzen et al. on planar graphs (Theorem 17) =====");
    println!(
        "{:<14} {:>8} {:>3} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "family", "n", "r", "|D|", "|D'|", "blowup", "bound", "rounds"
    );
    for family in [
        Family::Grid,
        Family::PlanarTriangulation,
        Family::Outerplanar,
    ] {
        for r in [1u32, 2] {
            let graph = connected_instance(family, scale.n(8_000), 1);
            let ids = IdAssignment::Shuffled(5).assign(&graph);
            let base = if r == 1 {
                bedom_baselines::lenzen_planar_dominating_set(&graph, &ids)
            } else {
                approximate_distance_domination(&graph, r).dominating_set
            };
            let result = local_connect(&graph, &ids, &base, r);
            // Planar depth-r minors have density < 3, so the Theorem 17 factor
            // is 2r·3.
            let bound = 1 + 2 * r as usize * 3;
            println!(
                "{:<14} {:>8} {:>3} {:>8} {:>8} {:>8.2} {:>8} {:>8}",
                family.name(),
                graph.num_vertices(),
                r,
                base.len(),
                result.connected_dominating_set.len(),
                result.blowup,
                bound,
                result.rounds
            );
        }
    }
}

/// T6 — head-to-head quality comparison including the G(n,p) control.
fn table_t6(scale: &Scale) {
    println!("\n===== T6: method comparison incl. the non-bounded-expansion control =====");
    let mut rows = Vec::new();
    for family in [
        Family::PlanarTriangulation,
        Family::ChungLu,
        Family::BoundedDegree,
        Family::Gnp,
    ] {
        for r in [1u32, 2] {
            let graph = connected_instance(family, scale.n(3_000), 13);
            let n = graph.num_vertices();
            let lb = packing_lower_bound(&graph, r);
            for (name, algorithm) in compared_algorithms() {
                let size = algorithm(&graph, r).len();
                rows.push(QualityRow::new(family.name(), n, r, name, size, lb, false));
            }
        }
    }
    print!("{}", format_quality_table(&rows));
    println!(
        "shallow-minor density estimates (depth 2): planar-tri = {:.2}, gnp = {:.2}",
        shallow_minor_density_estimate(
            &connected_instance(Family::PlanarTriangulation, scale.n(3_000), 13),
            2,
            1
        ),
        shallow_minor_density_estimate(&connected_instance(Family::Gnp, scale.n(3_000), 13), 2, 1)
    );
}

/// F1 — round complexity vs n and vs r (Theorem 9).
fn figure_f1(scale: &Scale) {
    println!("\n===== F1: CONGEST_BC rounds vs n and vs r (Theorem 9) =====");
    println!(
        "{:<14} {:>8} {:>3} {:>8} {:>8} {:>9} {:>10}",
        "family", "n", "r", "rounds", "order", "wreach", "election"
    );
    for family in [Family::Grid, Family::PlanarTriangulation, Family::ChungLu] {
        for n in [
            scale.n(1_000),
            scale.n(4_000),
            scale.n(16_000),
            scale.n(64_000),
        ] {
            let graph = connected_instance(family, n, 3);
            let r = 2;
            let result = distributed_distance_domination(&graph, DistDomSetConfig::new(r)).unwrap();
            println!(
                "{:<14} {:>8} {:>3} {:>8} {:>8} {:>9} {:>10}",
                family.name(),
                graph.num_vertices(),
                r,
                result.total_rounds(),
                result.order_rounds,
                result.wreach_rounds,
                result.election_rounds
            );
        }
    }
    println!("--- fixed n, varying r ---");
    let graph = connected_instance(Family::PlanarTriangulation, scale.n(8_000), 3);
    for r in 1..=4u32 {
        let result = distributed_distance_domination(&graph, DistDomSetConfig::new(r)).unwrap();
        println!(
            "{:<14} {:>8} {:>3} {:>8} {:>8} {:>9} {:>10}",
            "planar-tri",
            graph.num_vertices(),
            r,
            result.total_rounds(),
            result.order_rounds,
            result.wreach_rounds,
            result.election_rounds
        );
    }
}

/// F2 — message sizes vs the Lemma 7 budget. The run and the constants come
/// from one shared `DistContext` per instance: `c-meas` is the protocol's
/// measured constant, `c-wit` the index-witnessed `wcol_2r` of the elected
/// order (both must agree — the protocol computes exact WReach sets).
fn figure_f2(scale: &Scale) {
    println!("\n===== F2: message sizes vs the O(c²·r·log n) budget (Lemma 7 / Theorem 9) =====");
    println!(
        "{:<14} {:>8} {:>3} {:>6} {:>6} {:>16} {:>16} {:>14}",
        "family", "n", "r", "c-meas", "c-wit", "max-msg-bits", "max-vertex-bits", "budget-bits"
    );
    for family in [Family::Grid, Family::PlanarTriangulation, Family::ChungLu] {
        for n in [scale.n(2_000), scale.n(16_000)] {
            let graph = connected_instance(family, n, 3);
            let r = 2;
            let ctx = DistContext::elect(&graph, DistContextConfig::for_domination(r)).unwrap();
            let result = distributed_distance_domination_in(&ctx, r).unwrap();
            let c = result.measured_constant.max(1);
            let witnessed = ctx.witnessed_constant(2 * r).unwrap();
            assert_eq!(c, witnessed.max(1), "protocol and index constants differ");
            let budget = 8 * c * c * (2 * r as usize + 1) * log2_ceil(graph.num_vertices());
            let max_vertex_bits = result
                .phase_stats
                .iter()
                .map(|s| s.max_vertex_round_bits)
                .max()
                .unwrap_or(0);
            println!(
                "{:<14} {:>8} {:>3} {:>6} {:>6} {:>16} {:>16} {:>14}",
                family.name(),
                graph.num_vertices(),
                r,
                c,
                witnessed,
                result.max_message_bits(),
                max_vertex_bits,
                budget
            );
        }
    }
}

/// F3 — sequential running-time scaling (Contribution 1: linear time).
fn figure_f3(scale: &Scale) {
    println!("\n===== F3: sequential running time vs n (Theorem 5, linear-time claim) =====");
    println!(
        "{:<14} {:>9} {:>12} {:>14}",
        "family", "n", "millis", "ns-per-vertex"
    );
    for family in [Family::PlanarTriangulation, Family::ConfigurationModel] {
        for n in [scale.n(20_000), scale.n(80_000), scale.n(320_000)] {
            let graph = connected_instance(family, n, 3);
            let start = Instant::now();
            let result = approximate_distance_domination(&graph, 2);
            let elapsed = start.elapsed();
            std::hint::black_box(&result.dominating_set);
            println!(
                "{:<14} {:>9} {:>12.1} {:>14.0}",
                family.name(),
                graph.num_vertices(),
                elapsed.as_secs_f64() * 1e3,
                elapsed.as_nanos() as f64 / graph.num_vertices() as f64
            );
        }
    }
}

/// S1 — the sharded multi-graph scenario runner: a batch of independent
/// `(graph, pipeline)` instances across families and radii, executed under
/// both shard strategies and checked bit-identical.
fn scenario_s1(scale: &Scale) {
    println!("\n===== S1: sharded multi-graph scenario batch (distributed pipelines) =====");
    let families = [
        Family::PlanarTriangulation,
        Family::Grid,
        Family::RandomTree,
        Family::ConfigurationModel,
        Family::TwoTree,
        Family::ChungLu,
    ];
    let shards: Vec<(Graph, DominationPipeline)> = families
        .iter()
        .enumerate()
        .flat_map(|(i, &family)| {
            let graph = connected_instance(family, scale.n(2_000), i as u64 + 1);
            [1u32, 2].map(|r| {
                (
                    graph.clone(),
                    DominationPipeline::new(r).mode(Mode::Distributed).seed(7),
                )
            })
        })
        .collect();

    let mut timings = Vec::new();
    let mut reports = Vec::new();
    for strategy in [ExecutionStrategy::Sequential, ExecutionStrategy::Parallel] {
        let start = Instant::now();
        let report = solve_scenario(&shards, strategy).unwrap();
        timings.push((strategy, start.elapsed()));
        reports.push(report);
    }
    let digest =
        |report: &bedom_distsim::scenario::ScenarioReport<bedom_core::DominationReport>| {
            report
                .shards
                .iter()
                .map(|s| (s.shard, s.output.dominating_set.clone(), s.metrics))
                .collect::<Vec<_>>()
        };
    assert_eq!(
        digest(&reports[0]),
        digest(&reports[1]),
        "scenario batch must be strategy-independent"
    );

    println!(
        "{:<7} {:<14} {:>8} {:>3} {:>8} {:>7} {:>12} {:>7}",
        "shard", "family", "n", "r", "|D|", "rounds", "bits", "sweeps"
    );
    for shard in &reports[0].shards {
        let family = families[shard.shard / 2];
        println!(
            "{:<7} {:<14} {:>8} {:>3} {:>8} {:>7} {:>12} {:>7}",
            shard.shard,
            family.name(),
            shards[shard.shard].0.num_vertices(),
            shard.output.r,
            shard.output.dominating_set.len(),
            shard.expect_metrics().rounds,
            shard.expect_metrics().total_bits,
            shard.expect_metrics().ball_sweeps
        );
    }
    let report = &reports[0];
    println!(
        "aggregate: {} shards, {} rounds, {} bits, {} sweeps (one per shard)",
        report.num_shards(),
        report.total_rounds(),
        report.total_message_bits(),
        report.total_ball_sweeps()
    );
    for (strategy, elapsed) in timings {
        println!(
            "  shard strategy {:>10?}: {:.1} ms",
            strategy,
            elapsed.as_secs_f64() * 1e3
        );
    }
}

/// F4 — simulator throughput: sequential vs parallel round execution of the
/// superstep engine.
fn figure_f4(scale: &Scale) {
    println!("\n===== F4: simulator throughput, sequential vs parallel rounds =====");
    let graph = connected_instance(Family::PlanarTriangulation, scale.n(64_000), 3);
    let r = 2;
    for strategy in [ExecutionStrategy::Sequential, ExecutionStrategy::Parallel] {
        let config = DistDomSetConfig::with_strategy(r, strategy);
        let start = Instant::now();
        let result = distributed_distance_domination(&graph, config).unwrap();
        let elapsed = start.elapsed();
        println!(
            "n = {:>7}, strategy = {:>10?}: {:>8.1} ms total, {} rounds, |D| = {}",
            graph.num_vertices(),
            strategy,
            elapsed.as_secs_f64() * 1e3,
            result.total_rounds(),
            result.dominating_set.len()
        );
    }
    println!("(threads: {})", bedom_par::available_threads());
}
