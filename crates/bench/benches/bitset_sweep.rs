//! The word-parallel bitset frontier kernel versus its scalar counterparts,
//! measured on the two places it is wired in.
//!
//! **Oracle leg** (n = 24). The exact bitmask oracle before this kernel
//! existed: enumerate all 2ⁿ subsets in numeric order over scalar-built u32
//! coverage masks. After: closed-neighbourhood rows from one
//! [`reach_words64`] batch, subsets enumerated in **size order** (Gosper's
//! hack), stopping at the first covering size. This is what paid for raising
//! `BITMASK_ORACLE_MAX_N` from 20 to 26.
//!
//! **Validator leg** (n = 512, a stream of coverage queries). Before: one
//! scalar multi-source BFS per candidate set. After: [`ReachMatrix`] rows
//! built once through the kernel, each query `O(|set|·n/64)` word ORs —
//! build cost included in the measured time.
//!
//! A third leg, the order-restricted `WReachIndex` sweep run 64 sources at a
//! time, lost to the per-source scalar sweep on every instance it was
//! measured on and was deleted; the README records its figures.
//!
//! Each timing is the median of `SAMPLES` runs after an untimed warm-up run,
//! and the checks read the last run's output. Run with
//! `BEDOM_BENCH_JSON=BENCH_bitset.json` to commit the numbers.

use bedom_bench::report::{record_metric, time_samples, write_json_report};
use bedom_graph::bfs::{multi_source_distances, UNREACHABLE};
use bedom_graph::bitset::{reach_words64, ReachMatrix};
use bedom_graph::domset::{bitmask_minimum_domination_number, greedy_distance_dominating_set};
use bedom_graph::generators::{cycle, stacked_triangulation};
use bedom_graph::power::all_closed_neighborhoods;
use bedom_graph::{Graph, Vertex};

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
    // The raised gate exists because the rows come from one kernel batch and
    // the enumeration stops at the first covering size.
    let _ = reach_words64(&graph, r);
}

fn bench_validator_leg() {
    let n = 512usize;
    let graph = stacked_triangulation(n, 4);
    let r = 2u32;
    // A deterministic stream of candidate sets of varying size and verdict —
    // the query pattern of a search loop asking "does this set dominate?".
    // Every fourth query extends a known dominating set (greedy), so both
    // verdicts occur; the rest are pseudo-random near-covers.
    let base = greedy_distance_dominating_set(&graph, r);
    let queries: Vec<Vec<Vertex>> = (0..512u64)
        .map(|i| {
            let mut set: Vec<Vertex> = (0..n as u64)
                .filter(|&v| {
                    (v.wrapping_mul(2654435761).wrapping_add(i * 40503)) % 512 < 24 + i % 48
                })
                .map(|v| v as Vertex)
                .collect();
            if i % 4 == 0 {
                set.extend_from_slice(&base);
            }
            set
        })
        .collect();

    let (scalar_verdicts, scalar_secs) = time_samples("validator/scalar-bfs/512", SAMPLES, || {
        queries
            .iter()
            .map(|set| {
                let dist = multi_source_distances(&graph, set);
                dist.iter().all(|&d| d != UNREACHABLE && d <= r)
            })
            .collect::<Vec<bool>>()
    });
    // Row build included: the matrix is paid for once per (graph, r), then
    // every query is a handful of word ORs.
    let (matrix_verdicts, matrix_secs) = time_samples("validator/bitset-rows/512", SAMPLES, || {
        let matrix = ReachMatrix::build(&graph, r);
        queries
            .iter()
            .map(|set| matrix.covers(set))
            .collect::<Vec<bool>>()
    });
    assert_eq!(
        scalar_verdicts, matrix_verdicts,
        "validator leg: verdicts disagree"
    );
    let positives = scalar_verdicts.iter().filter(|&&v| v).count();
    let q = queries.len();
    println!(
        "validator leg, planar-tri (n = {n}, r = {r}, {q} queries, {positives} dominating): \
         scalar-bfs = {scalar_secs:.3} s, bitset-rows = {matrix_secs:.3} s ({:.1}x)",
        scalar_secs / matrix_secs
    );
    record_metric("validator_n", n as f64);
    record_metric("validator_queries", q as f64);
    record_metric("validator_scalar_seconds", scalar_secs);
    record_metric("validator_bitset_seconds", matrix_secs);
    record_metric("validator_speedup", scalar_secs / matrix_secs);
}

fn main() {
    bench_oracle_leg();
    bench_validator_leg();
    write_json_report();
}
