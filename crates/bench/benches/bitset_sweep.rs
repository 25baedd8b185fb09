//! The word-parallel bitset frontier kernel versus its scalar counterpart,
//! measured on the one place it is wired in.
//!
//! **Oracle leg** (n = 24). The exact bitmask oracle before this kernel
//! existed: enumerate all 2ⁿ subsets in numeric order over scalar-built u32
//! coverage masks. After: closed-neighbourhood rows from one kernel run
//! (`bedom_graph::bitset::reach_words64`), subsets enumerated in **size
//! order** (Gosper's hack), stopping at the first covering size. This is
//! what paid for raising `BITMASK_ORACLE_MAX_N` from 20 to 26.
//!
//! Two more legs were deleted; the README records their figures:
//!
//! * the order-restricted `WReachIndex` sweep run 64 sources at a time,
//!   which lost to the per-source scalar sweep on every instance it was
//!   measured on;
//! * the validator leg, which timed kernel-built rows against one full
//!   scalar BFS per query over 512 queries per row build. Every caller of
//!   the validator asks one query per graph and set, and at that traffic
//!   the rows were slower than one depth-`r` BFS, so the validator runs
//!   that BFS and the leg has nothing left to measure.
//!
//! Each timing is the median of `SAMPLES` runs after an untimed warm-up run,
//! and the checks read the last run's output. Run with
//! `BEDOM_BENCH_JSON=BENCH_bitset.json` to commit the numbers.

use bedom_bench::report::{record_metric, time_samples, write_json_report};
use bedom_graph::domset::bitmask_minimum_domination_number;
use bedom_graph::generators::cycle;
use bedom_graph::power::all_closed_neighborhoods;
use bedom_graph::Graph;

const SAMPLES: usize = 20;

/// The exact oracle as it stood before the kernel (seed version, verbatim
/// algorithm): scalar closed neighbourhoods folded into u32 masks, then every
/// subset of `0..2ⁿ` scanned in numeric order with a popcount gate. Kept here
/// as the baseline the size-ordered Gosper enumeration is measured against.
fn full_enumeration_oracle(graph: &Graph, r: u32) -> usize {
    let n = graph.num_vertices();
    assert!(0 < n && n <= 32);
    let full: u32 = if n == 32 { !0 } else { (1u32 << n) - 1 };
    let cover: Vec<u32> = all_closed_neighborhoods(graph, r)
        .into_iter()
        .map(|nb| nb.into_iter().fold(0u32, |m, w| m | (1u32 << w)))
        .collect();
    let mut best = n;
    for subset in 0u32..=full {
        let size = subset.count_ones() as usize;
        if size >= best {
            continue;
        }
        let mut covered = 0u32;
        let mut bits = subset;
        while bits != 0 {
            let v = bits.trailing_zeros() as usize;
            covered |= cover[v];
            bits &= bits - 1;
        }
        if covered == full {
            best = size;
        }
    }
    best
}

fn bench_oracle_leg() {
    // C_24 at r = 2 has gamma = ceil(24/5) = 5 — the size-ordered oracle must
    // genuinely scan every subset of size <= 4 before it can answer, so this
    // is its worst case relative to gamma, not a lucky early exit.
    let n = 24usize;
    let graph = cycle(n);
    let r = 2u32;

    let (want, full_secs) = time_samples("oracle/full-enumeration/24", SAMPLES, || {
        full_enumeration_oracle(&graph, r)
    });
    let (got, gosper_secs) = time_samples("oracle/size-ordered/24", SAMPLES, || {
        bitmask_minimum_domination_number(&graph, r)
    });
    assert_eq!(got, Some(want), "oracle leg: enumerations disagree");
    println!(
        "oracle leg, cycle (n = {n}, r = {r}, gamma = {want}): full-2^n = {full_secs:.3} s, \
         size-ordered = {gosper_secs:.6} s ({:.0}x)",
        full_secs / gosper_secs
    );
    record_metric("oracle_n", n as f64);
    record_metric("oracle_gamma", want as f64);
    record_metric("oracle_full_enumeration_seconds", full_secs);
    record_metric("oracle_size_ordered_seconds", gosper_secs);
    record_metric("oracle_speedup", full_secs / gosper_secs);
}

fn main() {
    bench_oracle_leg();
    write_json_report();
}
