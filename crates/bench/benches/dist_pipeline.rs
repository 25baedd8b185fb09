//! The PR 3 tentpole benchmark: end-to-end distributed domination through
//! the shared [`DistContext`](bedom_core::DistContext) on 100k-vertex
//! bounded-expansion instances.
//!
//! The context run is the order phase, the Lemma 7 protocol and the
//! election, with the witnessed constant, the election cross-check and the
//! cover homes all read from the context's one lazy [`WReachIndex`] sweep.
//! The thread-local ball-sweep counter checks that it sweeps once
//! (`{family}_context_sweeps`).
//!
//! A second set of rows splits the context run by layer, each timed on its
//! own: the order phase (`DistContext::elect`, `{family}_order_seconds`),
//! the Lemma 7 protocol the context runs (`{family}_protocol_seconds`) and
//! the index sweep it builds (`{family}_sweep_seconds`).
//!
//! Each timing is the median of `SAMPLES` runs after an untimed warm-up run.
//! Run with `BEDOM_BENCH_JSON=BENCH_distdom.json` to commit the numbers.
//!
//! Frozen rows: the `per-phase-recompute/*` timing rows and the
//! `{family}_baseline_sweeps`, `_baseline_seconds`, `_end_to_end_speedup`,
//! `_analysis_baseline_seconds`, `_analysis_context_seconds` and
//! `_analysis_speedup` metrics of `BENCH_distdom.json`. They measured the
//! pre-context workflow, which recomputed the constant, the election
//! cross-check and the cover homes with one ball sweep each (3 sweeps
//! against the context's 1), and that post-protocol analysis on its own.
//! That leg is deleted (`tests/end_to_end_pipelines.rs` pins the 3 → 1
//! sweep count), so this bench no longer writes them; they are carried over
//! unchanged when the file is regenerated.
//!
//! [`WReachIndex`]: bedom_wcol::WReachIndex

use bedom_bench::connected_instance;
use bedom_bench::report::{record_metric, time_samples, write_json_report};
use bedom_core::dist_wreach::WReachConfig;
use bedom_core::{
    distributed_distance_domination_in, distributed_weak_reachability, DistContext,
    DistContextConfig,
};
use bedom_distsim::{ExecutionStrategy, IdAssignment};
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::Graph;
use bedom_wcol::{ball_sweeps_on_this_thread, neighborhood_cover_from_index, WReachIndex};
use std::hint::black_box;

const N: usize = 100_000;
const R: u32 = 1;
const SEED: u64 = 0xd15d;
const SAMPLES: usize = 2;

fn context_config() -> DistContextConfig {
    DistContextConfig {
        assignment: IdAssignment::Shuffled(SEED),
        // Pinned Sequential so the numbers compare engine work with engine
        // work whatever the machine's core count.
        strategy: ExecutionStrategy::Sequential,
        ..DistContextConfig::for_domination(R)
    }
}

/// One context-backed run with the constant, the election check and the
/// cover homes all read from the context's single lazy index sweep. Returns
/// the number of ball sweeps it made.
fn context_pipeline(graph: &Graph) -> u64 {
    let before = ball_sweeps_on_this_thread();
    let ctx = DistContext::elect(graph, context_config()).unwrap();
    let result = distributed_distance_domination_in(&ctx, R).unwrap();
    let witnessed_constant = ctx.witnessed_constant(2 * R).unwrap();
    assert_eq!(
        result.dominator_of,
        ctx.expected_election(R).unwrap(),
        "the election differs from the index's"
    );
    let cover = neighborhood_cover_from_index(ctx.index(), R);
    black_box((result.dominating_set, witnessed_constant, cover.home));
    ball_sweeps_on_this_thread() - before
}

fn bench_dist_pipeline() {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri", stacked_triangulation(N, 3)),
        (
            "config-model",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];

    for (name, graph) in &instances {
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);

        let (context_sweeps, context_secs) =
            time_samples(&format!("context/{name}/{n}"), SAMPLES, || {
                context_pipeline(graph)
            });
        assert_eq!(context_sweeps, 1, "{name}: context must sweep once");
        println!("{name} (n = {n}): context = {context_secs:.2} s / {context_sweeps} sweep");
        record_metric(&format!("{name}_context_sweeps"), context_sweeps as f64);
        record_metric(&format!("{name}_context_seconds"), context_secs);

        // The layers: each call below is the one `ctx.wreach()` and
        // `ctx.index()` make, timed on the order the first layer elected.
        let config = context_config();
        let (ctx, order_secs) = time_samples(&format!("order/{name}/{n}"), SAMPLES, || {
            DistContext::elect(graph, config).unwrap()
        });
        let wreach_config = WReachConfig {
            rho: config.max_radius,
            bandwidth_logs: config.bandwidth_logs,
            strategy: config.strategy,
        };
        let (_, protocol_secs) = time_samples(&format!("protocol/{name}/{n}"), SAMPLES, || {
            distributed_weak_reachability(graph, ctx.super_ids(), wreach_config).unwrap()
        });
        let (_, sweep_secs) = time_samples(&format!("sweep/{name}/{n}"), SAMPLES, || {
            WReachIndex::build_with(graph, ctx.order(), config.max_radius, config.strategy)
        });
        println!(
            "{name} layers: order = {order_secs:.3} s, protocol = {protocol_secs:.3} s, \
             sweep = {sweep_secs:.3} s"
        );
        record_metric(&format!("{name}_order_seconds"), order_secs);
        record_metric(&format!("{name}_protocol_seconds"), protocol_secs);
        record_metric(&format!("{name}_sweep_seconds"), sweep_secs);
    }
}

fn main() {
    bench_dist_pipeline();
    write_json_report();
}
