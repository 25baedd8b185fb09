//! The PR 2 tentpole benchmark: the shared flat [`WReachIndex`] (one
//! epoch-stamped CSR ball sweep serving election *and* witnessed constant)
//! on 100k-vertex bounded-expansion instances.
//!
//! The measured operation is the analysis core of `domset_via_min_wreach`
//! (Theorem 5): compute `min WReach_r[w]` for every `w` and the witnessed
//! constant `wcol_2r`, from one index built at `2r`. A counting global
//! allocator reports the allocations of one run next to the timings.
//!
//! The timed runs build the index with [`WReachIndex::build`], whose `Auto`
//! strategy takes its worker count from `available_parallelism`, and every
//! worker allocates its own scratch and chunk. The counted run
//! (`{family}_index_allocs`) builds it with
//! `ExecutionStrategy::Sequential` instead, so that row depends on the code
//! alone, not on the core count of the machine that ran the bench.
//!
//! A second section profiles the distributed Lemma 7 protocol, whose paths
//! live in flat per-vertex [`PathStore`](bedom_core::PathStore) arenas, on
//! one 20k-vertex instance: allocations, peak live bytes
//! (`dist_wreach_flat_peak_bytes`, the most bytes held at once above what
//! was live before the run) and wall time of one engine run, with the
//! measured constant checked against `wcol_of_order`. That run is
//! already sequential, yet its `dist_wreach_flat_allocs` row once read both
//! 428 091 and 428 090 with no code change between the two, so that row is
//! exact only for one box and toolchain (the committed 281 976 is what a
//! 2-vCPU box measures with each stored path's first and last id implicit).
//!
//! Each timing is the median of `SAMPLES` runs after an untimed warm-up run.
//! Run with `BEDOM_BENCH_JSON=BENCH_wreach.json` to commit the numbers.
//!
//! Frozen rows, carried over unchanged when the file is regenerated:
//! * the `seed-double-sweep/*` timing rows and the `{family}_seed_allocs`,
//!   `_seed_seconds`, `_speedup` and `_alloc_ratio` metrics. They measured
//!   a replica of the seed's two restricted-BFS sweeps (election at `r`,
//!   constant at `2r`) with a fresh `vec![false; n]` visited array per
//!   ball. The replica is deleted; `tests/wreach_index.rs` keeps its own
//!   seed reference for correctness.
//! * the `dist_wreach_btree_*` metrics, which measured a replica of the
//!   former `BTreeMap` per-node Lemma 7 store.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use bedom_bench::connected_instance;
use bedom_bench::report::{record_metric, time_samples, write_json_report};
use bedom_core::dist_wreach::WReachConfig;
use bedom_distsim::ExecutionStrategy;
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::Graph;
use bedom_wcol::{degeneracy_based_order, LinearOrder, WReachIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

const N: usize = 100_000;
const R: u32 = 1;
const SAMPLES: usize = 5;

/// Counts heap allocations and live bytes so the bench can report, next to
/// the timings, how many allocations one run performs and how many bytes it
/// holds at its peak.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since `peak_bytes` last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
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

/// The most bytes `f` holds live at once, above what was live before it.
fn peak_bytes(f: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

/// The index-backed analysis core: one sweep at `2r` serves both quantities.
fn index_pipeline(graph: &Graph, order: &LinearOrder, strategy: ExecutionStrategy) -> usize {
    let index = WReachIndex::build_with(graph, order, 2 * R, strategy);
    let dominators = index.min_wreach_at(R);
    dominators.len() + index.wcol()
}

/// One sequential protocol run; returns the measured constant.
fn run_flat_protocol(graph: &Graph, super_ids: &[u64], rho: u32) -> usize {
    let config = WReachConfig {
        rho,
        bandwidth_logs: None,
        strategy: ExecutionStrategy::Sequential,
    };
    bedom_core::distributed_weak_reachability(graph, super_ids, config)
        .unwrap()
        .measured_constant()
}

fn bench_wreach_index() {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri", stacked_triangulation(N, 3)),
        (
            "config-model",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];

    for (name, graph) in &instances {
        let order = degeneracy_based_order(graph);
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);

        let (_, index_secs) = time_samples(&format!("flat-index/{name}/{n}"), SAMPLES, || {
            index_pipeline(graph, &order, ExecutionStrategy::Auto)
        });
        let index_allocs = count_allocs(|| {
            black_box(index_pipeline(graph, &order, ExecutionStrategy::Sequential));
        });
        println!("{name} (n = {n}): flat-index = {index_secs:.3} s / {index_allocs} allocs");
        record_metric(&format!("{name}_index_allocs"), index_allocs as f64);
        record_metric(&format!("{name}_index_seconds"), index_secs);
    }

    // The distributed protocol's flat path store, profiled with the
    // allocation counter on one engine run.
    let g = stacked_triangulation(20_000, 3);
    let order = degeneracy_based_order(&g);
    let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
    let rho = 4;
    let (constant, flat_secs) = time_samples("dist-wreach-flat/planar-tri/20000", SAMPLES, || {
        run_flat_protocol(&g, &super_ids, rho)
    });
    assert_eq!(
        constant,
        bedom_wcol::wcol_of_order(&g, &order, rho),
        "the protocol's constant differs from wcol of its order"
    );
    let mut flat_allocs = 0;
    let flat_peak = peak_bytes(|| {
        flat_allocs = count_allocs(|| {
            black_box(run_flat_protocol(&g, &super_ids, rho));
        });
    });
    println!(
        "dist-wreach path store (n = 20000, rho = {rho}): \
         flat = {flat_secs:.2} s / {flat_allocs} allocs / {flat_peak} peak bytes"
    );
    record_metric("dist_wreach_flat_allocs", flat_allocs as f64);
    record_metric("dist_wreach_flat_peak_bytes", flat_peak as f64);
    record_metric("dist_wreach_flat_seconds", flat_secs);
}

fn main() {
    bench_wreach_index();
    write_json_report();
}
