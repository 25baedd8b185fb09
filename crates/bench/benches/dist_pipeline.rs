//! The PR 3 tentpole benchmark: end-to-end distributed domination through
//! the shared [`DistContext`](bedom_core::DistContext) versus the
//! per-phase-recompute consumer workflow it replaces, on 100k-vertex
//! bounded-expansion instances.
//!
//! Both variants run the *same* protocol phases (order, weak reachability,
//! election — the simulation cost is identical by construction); what
//! differs is how the report quantities around them are obtained:
//!
//! * **baseline (pre-context)**: the witnessed constant, the election
//!   cross-check and the cover homes are each recomputed with their own
//!   restricted-BFS ball sweep over the elected order — three sweeps after
//!   the protocol, exactly what consumers had to do before the context
//!   existed;
//! * **context**: one lazy [`WReachIndex`] sweep serves all three as
//!   CSR-slice reads.
//!
//! Outputs are asserted identical before timing starts. The thread-local
//! ball-sweep counter reports the sweep counts next to the wall times, and a
//! second pair of measurements isolates the post-protocol analysis portion
//! (where the 3-sweeps-to-1 structural change is the whole story).
//!
//! A third set of rows splits the context pipeline by layer, each timed on
//! its own: the order phase (`DistContext::elect`,
//! `{family}_order_seconds`), the Lemma 7 protocol (`ctx.wreach()`,
//! `{family}_protocol_seconds`) and the index sweep (`ctx.index()`,
//! `{family}_sweep_seconds`).
//!
//! Run with `BEDOM_BENCH_JSON=BENCH_distdom.json` to commit the numbers.

use bedom_bench::connected_instance;
use bedom_core::{
    distributed_distance_domination, distributed_distance_domination_in, DistContext,
    DistContextConfig, DistDomSetConfig,
};
use bedom_distsim::{ExecutionStrategy, IdAssignment};
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::{ball_sweeps_on_this_thread, min_wreach, neighborhood_cover, wcol_of_order};
use criterion::{criterion_group, criterion_main, record_metric, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

const N: usize = 100_000;
const R: u32 = 1;
const SEED: u64 = 0xd15d;

/// The quantities an end-to-end distributed run reports; both variants must
/// produce the same values.
struct PipelineDigest {
    dominating_set: Vec<Vertex>,
    witnessed_constant: usize,
    election_ok: bool,
    cover_home_digest: u64,
}

fn home_digest(home: &[Vertex]) -> u64 {
    home.iter()
        .fold(0u64, |acc, &v| acc.wrapping_mul(31).wrapping_add(v as u64))
}

fn config() -> DistDomSetConfig {
    DistDomSetConfig {
        assignment: IdAssignment::Shuffled(SEED),
        // Pinned Sequential so the two variants compare the same engine work
        // on any machine (the container is single-core anyway).
        ..DistDomSetConfig::with_strategy(R, ExecutionStrategy::Sequential)
    }
}

/// Pre-context consumer workflow: run the protocol, then recompute the
/// witnessed constant, the election cross-check and the cover homes with one
/// dedicated ball sweep each (this is verbatim what assembling the full
/// report took before `DistContext`).
fn baseline_pipeline(graph: &Graph) -> PipelineDigest {
    let result = distributed_distance_domination(graph, config()).unwrap();
    let witnessed_constant = wcol_of_order(graph, &result.order, 2 * R); // sweep 1
    let expected = min_wreach(graph, &result.order, R); // sweep 2
    let election_ok = result.dominator_of == expected;
    let cover = neighborhood_cover(graph, &result.order, R); // sweep 3
    PipelineDigest {
        dominating_set: result.dominating_set,
        witnessed_constant,
        election_ok,
        cover_home_digest: home_digest(&cover.home),
    }
}

fn context_config() -> DistContextConfig {
    DistContextConfig {
        assignment: IdAssignment::Shuffled(SEED),
        strategy: ExecutionStrategy::Sequential,
        ..DistContextConfig::for_domination(R)
    }
}

/// Context workflow: the same protocol phases through one `DistContext`,
/// with constant, election check and cover homes all read from the context's
/// single lazy index sweep.
fn context_pipeline(graph: &Graph) -> PipelineDigest {
    let ctx = DistContext::elect(graph, context_config()).unwrap();
    let result = distributed_distance_domination_in(&ctx, R).unwrap();
    let witnessed_constant = ctx.witnessed_constant(2 * R).unwrap(); // THE sweep
    let election_ok = result.dominator_of == ctx.expected_election(R).unwrap();
    let cover = bedom_wcol::neighborhood_cover_from_index(ctx.index(), R);
    PipelineDigest {
        dominating_set: result.dominating_set,
        witnessed_constant,
        election_ok,
        cover_home_digest: home_digest(&cover.home),
    }
}

fn timed_sweeps(f: impl FnOnce()) -> (u64, f64) {
    let start = Instant::now();
    let before = ball_sweeps_on_this_thread();
    f();
    (
        ball_sweeps_on_this_thread() - before,
        start.elapsed().as_secs_f64(),
    )
}

fn bench_dist_pipeline(c: &mut Criterion) {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri", stacked_triangulation(N, 3)),
        (
            "config-model",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];

    let mut group = c.benchmark_group("dist_pipeline");
    group.sample_size(2);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(1));

    for (name, graph) in &instances {
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);

        // Both variants must report identical quantities.
        let base = baseline_pipeline(graph);
        let ctx = context_pipeline(graph);
        assert_eq!(base.dominating_set, ctx.dominating_set, "{name}: set");
        assert_eq!(
            base.witnessed_constant, ctx.witnessed_constant,
            "{name}: constant"
        );
        assert_eq!(
            base.cover_home_digest, ctx.cover_home_digest,
            "{name}: cover homes"
        );
        assert!(base.election_ok && ctx.election_ok, "{name}: election");
        drop((base, ctx));

        // End-to-end profile of one full run of each variant, with the
        // ball-sweep counter reporting the structural difference.
        let (baseline_sweeps, baseline_secs) = timed_sweeps(|| {
            black_box(baseline_pipeline(graph));
        });
        let (context_sweeps, context_secs) = timed_sweeps(|| {
            black_box(context_pipeline(graph));
        });
        assert_eq!(baseline_sweeps, 3, "{name}: baseline must sweep per phase");
        assert_eq!(context_sweeps, 1, "{name}: context must sweep once");
        println!(
            "{name} (n = {n}): per-phase-recompute = {baseline_secs:.2} s / {baseline_sweeps} sweeps, \
             context = {context_secs:.2} s / {context_sweeps} sweep \
             ({:.2}x faster end-to-end)",
            baseline_secs / context_secs
        );
        record_metric(&format!("{name}_baseline_sweeps"), baseline_sweeps as f64);
        record_metric(&format!("{name}_context_sweeps"), context_sweeps as f64);
        record_metric(&format!("{name}_baseline_seconds"), baseline_secs);
        record_metric(&format!("{name}_context_seconds"), context_secs);
        record_metric(
            &format!("{name}_end_to_end_speedup"),
            baseline_secs / context_secs,
        );

        // Analysis-only portion: protocol already run, how long does
        // assembling constant + election check + cover take? This isolates
        // the 3-sweeps-to-1 change from the (identical) protocol cost.
        let probe = distributed_distance_domination(graph, config()).unwrap();
        let analysis_baseline = {
            let start = Instant::now();
            let c = wcol_of_order(graph, &probe.order, 2 * R);
            let expected = min_wreach(graph, &probe.order, R);
            let cover = neighborhood_cover(graph, &probe.order, R);
            black_box((c, expected, cover.home.len()));
            start.elapsed().as_secs_f64()
        };
        let analysis_context = {
            let start = Instant::now();
            let index = bedom_wcol::WReachIndex::build_with(
                graph,
                &probe.order,
                2 * R,
                ExecutionStrategy::Sequential,
            );
            let c = index.wcol();
            let expected = index.min_wreach_at(R);
            let cover = bedom_wcol::neighborhood_cover_from_index(&index, R);
            black_box((c, expected, cover.home.len()));
            start.elapsed().as_secs_f64()
        };
        println!(
            "{name} analysis-only: 3-sweep = {:.3} s, 1-sweep = {:.3} s ({:.2}x)",
            analysis_baseline,
            analysis_context,
            analysis_baseline / analysis_context
        );
        record_metric(
            &format!("{name}_analysis_baseline_seconds"),
            analysis_baseline,
        );
        record_metric(
            &format!("{name}_analysis_context_seconds"),
            analysis_context,
        );
        record_metric(
            &format!("{name}_analysis_speedup"),
            analysis_baseline / analysis_context,
        );

        let start = Instant::now();
        let ctx = DistContext::elect(graph, context_config()).unwrap();
        let order_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(ctx.wreach().unwrap());
        let protocol_secs = start.elapsed().as_secs_f64();
        let start = Instant::now();
        black_box(ctx.index());
        let sweep_secs = start.elapsed().as_secs_f64();
        drop(ctx);
        println!(
            "{name} layers: order = {order_secs:.3} s, protocol = {protocol_secs:.3} s, \
             sweep = {sweep_secs:.3} s"
        );
        record_metric(&format!("{name}_order_seconds"), order_secs);
        record_metric(&format!("{name}_protocol_seconds"), protocol_secs);
        record_metric(&format!("{name}_sweep_seconds"), sweep_secs);

        group.bench_with_input(
            BenchmarkId::new(format!("per-phase-recompute/{name}"), n),
            graph,
            |b, g| b.iter(|| black_box(baseline_pipeline(g).dominating_set.len())),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("context/{name}"), n),
            graph,
            |b, g| b.iter(|| black_box(context_pipeline(g).dominating_set.len())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dist_pipeline);
criterion_main!(benches);
