//! The counting global allocator behind every allocation and peak-bytes
//! figure the workspace reports: the budgets of `tests/sweep_allocs.rs` and
//! `tests/ksv_allocs.rs`, and the allocation and peak rows of the benches.
//!
//! The library installs nothing. A binary that measures installs
//! [`CountingAlloc`] as its global allocator, with a two-line
//! `global_allocator` static, and reads the counters through
//! [`count_allocs`], [`alloc_bytes`] and [`peak_bytes`]. Each helper panics
//! when the allocator is not installed, since every count would then read 0
//! and pass every budget.
//!
//! `realloc` and `alloc_zeroed` keep `GlobalAlloc`'s default bodies, which
//! go through `alloc` and `dealloc`: growing a block counts one allocation of
//! the new size, and the old block stays live until the copy is done. The
//! counters are relaxed atomics shared by every thread, so a binary measures
//! one closure at a time.

#![allow(unsafe_code)] // the counting allocator implements `GlobalAlloc`

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// The system allocator plus four counters: allocations, bytes allocated,
/// bytes live and the peak of the live bytes.
#[derive(Debug)]
pub struct CountingAlloc;

/// Allocations in total.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated in total.
static BYTES: AtomicUsize = AtomicUsize::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The most bytes allocated at once since `peak_bytes` last reset it.
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, and the counters
// beside it never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract for
        // `layout`, which is `System`'s too.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` was allocated by `alloc` above, so by `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Panics unless [`CountingAlloc`] is the global allocator. Only while no
/// allocation has been counted does it probe with one of its own; each
/// helper calls it before reading a counter, so the probe lands outside
/// every measured window, and a nested helper never probes.
fn assert_installed() {
    if ALLOCS.load(Ordering::Relaxed) == 0 {
        drop(black_box(Box::new(0u8)));
    }
    assert!(
        ALLOCS.load(Ordering::Relaxed) > 0,
        "bedom_bench::alloc::CountingAlloc is not the global allocator, so every count would read 0"
    );
}

/// The allocations `f` makes.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    assert_installed();
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

/// The bytes `f` allocates in total.
pub fn alloc_bytes(f: impl FnOnce()) -> usize {
    assert_installed();
    let before = BYTES.load(Ordering::Relaxed);
    f();
    BYTES.load(Ordering::Relaxed) - before
}

/// The most bytes `f` holds live at once, above what was live before it.
pub fn peak_bytes(f: impl FnOnce()) -> usize {
    assert_installed();
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    f();
    PEAK.load(Ordering::Relaxed) - before
}

#[cfg(test)]
mod tests {
    /// This crate's own test binary installs no global allocator.
    #[test]
    #[should_panic(expected = "is not the global allocator")]
    fn a_helper_panics_without_the_allocator() {
        super::peak_bytes(|| {});
    }
}
