//! The PR 2 tentpole benchmark: the shared flat [`WReachIndex`] (one
//! epoch-stamped CSR ball sweep serving election *and* witnessed constant)
//! versus the seed's per-ball-allocating double sweep, on 100k-vertex
//! bounded-expansion instances.
//!
//! The measured operation is the analysis core of `domset_via_min_wreach`
//! (Theorem 5): compute `min WReach_r[w]` for every `w` and the witnessed
//! constant `wcol_2r`. The seed ran two full restricted-BFS sweeps with a
//! fresh `vec![false; n]` visited array per ball (`Θ(n²)` memory traffic);
//! the index runs one sweep through reused epoch-stamped scratch and stores
//! everything flat. Outputs are asserted identical before timing starts, and
//! a counting global allocator reports the allocation totals of one run of
//! each variant.
//!
//! A second section profiles the distributed Lemma 7 protocol, whose paths
//! live in flat per-vertex [`PathStore`](bedom_core::PathStore) arenas, on
//! one 20k-vertex instance: allocations and wall time of one engine run.
//! The `dist_wreach_btree_*` rows of `BENCH_wreach.json` are frozen: they
//! measured a replica of the former `BTreeMap` per-node store, which this
//! bench no longer builds.
//!
//! Run with `BEDOM_BENCH_JSON=BENCH_wreach.json` to commit the numbers.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use bedom_bench::connected_instance;
use bedom_bench::legacy_wreach::seed_election_and_constant;
use bedom_core::dist_wreach::WReachConfig;
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::Graph;
use bedom_wcol::{degeneracy_based_order, LinearOrder, WReachIndex};
use criterion::{
    criterion_group, criterion_main, record_metric, BenchmarkId, Criterion, Throughput,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

const N: usize = 100_000;
const R: u32 = 1;

/// Counts heap allocations so the bench can report, next to the timings, how
/// many allocations each implementation performs for one identical run.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The seed analysis core: two full ball sweeps (election at `r`, constant
/// at `2r`), fresh visited arrays per ball. Returns a digest to black-box.
fn seed_pipeline(graph: &Graph, order: &LinearOrder) -> usize {
    let (dominators, constant) = seed_election_and_constant(graph, order, R);
    dominators.len() + constant
}

/// The index-backed analysis core: one sweep at `2r` serves both quantities.
fn index_pipeline(graph: &Graph, order: &LinearOrder) -> usize {
    let index = WReachIndex::build(graph, order, 2 * R);
    let dominators = index.min_wreach_at(R);
    dominators.len() + index.wcol()
}

/// One sequential protocol run; returns the measured constant.
fn run_flat_protocol(graph: &Graph, super_ids: &[u64], rho: u32) -> usize {
    let config = WReachConfig {
        rho,
        bandwidth_logs: None,
        strategy: bedom_distsim::ExecutionStrategy::Sequential,
    };
    bedom_core::distributed_weak_reachability(graph, super_ids, config)
        .unwrap()
        .measured_constant()
}

fn timed_allocs(f: impl FnOnce()) -> (u64, f64) {
    let start = Instant::now();
    let allocs = count_allocs(f);
    (allocs, start.elapsed().as_secs_f64())
}

fn bench_wreach_index(c: &mut Criterion) {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri", stacked_triangulation(N, 3)),
        (
            "config-model",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];

    let mut group = c.benchmark_group("wreach_index");
    group.sample_size(2);
    group.measurement_time(std::time::Duration::from_secs(1));
    group.warm_up_time(std::time::Duration::from_millis(1));

    for (name, graph) in &instances {
        let order = degeneracy_based_order(graph);
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);

        // Both variants must compute the same election and constant.
        let (seed_doms, seed_c) = seed_election_and_constant(graph, &order, R);
        let index = WReachIndex::build(graph, &order, 2 * R);
        assert_eq!(
            seed_doms,
            index.min_wreach_at(R),
            "{name}: election differs"
        );
        assert_eq!(seed_c, index.wcol(), "{name}: constant differs");
        drop((seed_doms, index));

        // Allocation + wall-clock profile of one full run of each variant.
        let (seed_allocs, seed_secs) = timed_allocs(|| {
            black_box(seed_pipeline(graph, &order));
        });
        let (index_allocs, index_secs) = timed_allocs(|| {
            black_box(index_pipeline(graph, &order));
        });
        println!(
            "{name} (n = {n}): seed-double-sweep = {seed_secs:.2} s / {seed_allocs} allocs, \
             flat-index = {index_secs:.2} s / {index_allocs} allocs \
             ({:.1}x faster, {:.1}x fewer allocs)",
            seed_secs / index_secs,
            seed_allocs as f64 / index_allocs as f64
        );
        record_metric(&format!("{name}_seed_allocs"), seed_allocs as f64);
        record_metric(&format!("{name}_index_allocs"), index_allocs as f64);
        record_metric(&format!("{name}_seed_seconds"), seed_secs);
        record_metric(&format!("{name}_index_seconds"), index_secs);
        record_metric(&format!("{name}_speedup"), seed_secs / index_secs);
        record_metric(
            &format!("{name}_alloc_ratio"),
            seed_allocs as f64 / index_allocs as f64,
        );

        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("seed-double-sweep/{name}"), n),
            graph,
            |b, g| b.iter(|| black_box(seed_pipeline(g, &order))),
        );
        group.bench_with_input(
            BenchmarkId::new(format!("flat-index/{name}"), n),
            graph,
            |b, g| b.iter(|| black_box(index_pipeline(g, &order))),
        );
    }
    group.finish();

    // The distributed protocol's flat path store, profiled with the
    // allocation counter on one engine run.
    let g = stacked_triangulation(20_000, 3);
    let order = degeneracy_based_order(&g);
    let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
    let rho = 4;
    assert_eq!(
        run_flat_protocol(&g, &super_ids, rho),
        bedom_wcol::wcol_of_order(&g, &order, rho),
        "the protocol's constant differs from wcol of its order"
    );
    let (flat_allocs, flat_secs) = timed_allocs(|| {
        black_box(run_flat_protocol(&g, &super_ids, rho));
    });
    println!(
        "dist-wreach path store (n = 20000, rho = {rho}): \
         flat = {flat_secs:.2} s / {flat_allocs} allocs"
    );
    record_metric("dist_wreach_flat_allocs", flat_allocs as f64);
    record_metric("dist_wreach_flat_seconds", flat_secs);
}

criterion_group!(benches, bench_wreach_index);
criterion_main!(benches);
