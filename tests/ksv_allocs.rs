//! Allocation regression for the KSV protocol: a sequential run must stay
//! within a constant number of allocations per vertex — the messages it
//! sends and a handful of flat per-node arrays — never per-candidate masks,
//! per-neighbour records or hash-map nodes — and within a budget of peak
//! live bytes per vertex, which holds the flood state's compact layout.
//!
//! Lives in its own integration-test binary so the counting global allocator
//! sees no interference from unrelated tests running on sibling threads; the
//! tests in it take one lock so they do not see each other either.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use bedom::core::{distributed_ksv_domination_r, KsvConfig};
use bedom::distsim::ExecutionStrategy;
use bedom::graph::generators::{configuration_model_power_law, stacked_triangulation};
use bedom::graph::Graph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Serialises the tests of this binary.
static SERIAL: Mutex<()> = Mutex::new(());

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

/// One sequential fault-free run at radius `r`.
fn run(g: &Graph, r: u32) {
    let config = KsvConfig::with_strategy(ExecutionStrategy::Sequential);
    let result = distributed_ksv_domination_r(g, r, config).expect("fault-free runs succeed");
    assert!(!result.dominating_set.is_empty());
}

#[test]
fn ksv_runs_stay_within_their_per_vertex_allocation_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 5000;
    let shapes = [
        ("planar-tri", stacked_triangulation(n, 3)),
        (
            "config-model",
            configuration_model_power_law(n, 2.5, 2, 8, 3),
        ),
    ];
    let mut measured = Vec::new();
    for (name, g) in &shapes {
        for r in [1u32, 2] {
            // The warm-up run grows the thread's decision scratch, which
            // later runs reuse.
            run(g, r);
            let per_vertex = count_allocs(|| run(g, r)) as f64 / n as f64;
            measured.push((format!("{name} r = {r}"), per_vertex));
        }
    }
    eprintln!("allocations per vertex: {measured:.1?}");
    assert!(
        measured.iter().all(|&(_, per_vertex)| per_vertex < 40.0),
        "allocations per vertex (budget 40): {measured:.1?}"
    );
}

/// Peak live bytes per vertex of a planar-tri r = 2 run: 3261 with one
/// word per ball entry and local distance and a 4-byte heard slot, 5531
/// with the `(u64, u32)` pairs and optional summary slots they replaced.
const BUDGET: f64 = 4000.0;

#[test]
fn ksv_peak_live_bytes_stay_within_their_per_vertex_budget() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let n = 5000;
    let g = stacked_triangulation(n, 3);
    run(&g, 2);
    let per_vertex = peak_bytes(|| run(&g, 2)) as f64 / n as f64;
    eprintln!("peak live bytes per vertex, planar-tri r = 2: {per_vertex:.0}");
    assert!(
        per_vertex < BUDGET,
        "peak live bytes per vertex {per_vertex:.0} (budget {BUDGET})"
    );
}
