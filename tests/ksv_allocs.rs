//! Allocation regression for the KSV protocol: a sequential run must stay
//! within a constant number of allocations per vertex — the messages it
//! sends and a handful of flat per-node arrays — never per-candidate masks,
//! per-neighbour records or hash-map nodes.
//!
//! Lives in its own integration-test binary so the counting global allocator
//! sees no interference from unrelated tests running on sibling threads.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use bedom::core::{distributed_ksv_domination_r, KsvConfig};
use bedom::distsim::ExecutionStrategy;
use bedom::graph::generators::{configuration_model_power_law, stacked_triangulation};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

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

#[test]
fn ksv_runs_stay_within_their_per_vertex_allocation_budget() {
    let n = 5000;
    let shapes = [
        ("planar-tri", stacked_triangulation(n, 3)),
        (
            "config-model",
            configuration_model_power_law(n, 2.5, 2, 8, 3),
        ),
    ];
    let config = KsvConfig::with_strategy(ExecutionStrategy::Sequential);
    let run = |g, r| {
        let result = distributed_ksv_domination_r(g, r, config).expect("fault-free runs succeed");
        assert!(!result.dominating_set.is_empty());
    };
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
