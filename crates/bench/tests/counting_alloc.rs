//! Pins the arithmetic of the shared counting allocator's helpers, which
//! every allocation budget and allocation or peak row reads, on allocations
//! whose sizes are known exactly.
//!
//! Lives in its own integration-test binary, with a single `#[test]`, so no
//! test on a sibling thread allocates inside a measured window.

use bedom_bench::alloc::{alloc_bytes, count_allocs, peak_bytes, CountingAlloc};
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn helpers_read_exact_counts_of_known_allocations() {
    let boxed = || drop(black_box(Box::new([0u8; 4096])));
    assert_eq!(count_allocs(boxed), 1, "a 4096-byte box is one allocation");
    assert_eq!(alloc_bytes(boxed), 4096, "a 4096-byte box is 4096 bytes");

    let mib = 1 << 20;
    assert_eq!(peak_bytes(|| drop(black_box(vec![0u8; mib]))), mib);

    // `GlobalAlloc`'s default `realloc` allocates the new block, copies and
    // frees the old one, so both blocks are live at once.
    let grow = || {
        let mut v = black_box(Vec::<u8>::with_capacity(1));
        v.reserve_exact(4096);
        drop(black_box(v));
    };
    assert_eq!(count_allocs(grow), 2, "with_capacity, then the grown block");
    assert_eq!(alloc_bytes(grow), 1 + 4096);
    assert_eq!(peak_bytes(grow), 1 + 4096);

    // Nested as `tests/sweep_allocs.rs` nests them.
    let mut allocs = 0;
    let peak = peak_bytes(|| {
        allocs = count_allocs(|| drop(black_box(vec![0u64; 1000])));
    });
    assert_eq!((allocs, peak), (1, 8000));
}
