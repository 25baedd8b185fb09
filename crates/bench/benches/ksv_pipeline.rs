//! The PR 4 tentpole benchmark: the constant-round KSV phase family
//! (arXiv:2012.02701) against the order-based Theorem 9 pipeline on
//! 100k-vertex bounded-expansion instances.
//!
//! Both protocols solve the same distance-1 domination instances with the
//! same seeds; what differs is the phase structure:
//!
//! * **order-based (Theorem 9)**: `O(log n)`-round order phase, 2-round weak
//!   reachability, election routing — the paper's pipeline, witnessed
//!   constants and all;
//! * **ksv (constant-round)**: exactly `KSV_ROUNDS` engine rounds regardless
//!   of `n` — adjacency exchange, hard-core election, pseudo-cover election
//!   with one forwarding hop, self-election cleanup. No order phase.
//!
//! The recorded quantities are the acceptance metrics of the PR: engine
//! rounds, total wire bits, set sizes against the packing lower bound, and
//! wall time. Each protocol is timed after an untimed warm-up run, and the
//! last timed run's output is validity-checked; the `*_seconds` metrics are
//! the medians of the timing rows. Run with `BEDOM_BENCH_JSON=BENCH_ksv.json` to commit the
//! numbers.
//!
//! The distance-r generalisation (arXiv:2207.02669) runs at the full
//! `N` = 100k headline sizes on the summary flood (per-edge dedup,
//! dictionary compression, hub-clustered summaries), and per-phase bit
//! buckets show where the wire budget goes.
//!
//! The shared counting allocator (`bedom_bench::alloc::CountingAlloc`)
//! records the peak live bytes of one untimed r = 2 run per instance
//! (`{instance}_ksv_peak_bytes`: the most bytes held at once above what was
//! live before the run). Every allocation of the timed runs passes through
//! it as well, so the `*_seconds` rows carry its overhead, as
//! `wreach_index`'s do.
//!
//! Frozen rows: the 22 `planar-tri-flood_*` and `config-model-flood_*`
//! metrics of `BENCH_ksv.json` compared the former per-path record flood
//! with the summary flood on 10k instances. The record flood is deleted, so
//! this bench no longer writes them; they are carried over unchanged when
//! the file is regenerated.

use bedom_bench::alloc::{peak_bytes, CountingAlloc};
use bedom_bench::connected_instance;
use bedom_bench::report::{record_metric, time_samples, write_json_report};
use bedom_core::{
    distributed_distance_domination, distributed_ksv_domination, distributed_ksv_domination_r,
    ksv_rounds, DistDomSetConfig, KsvConfig, KsvDomResult, KSV_ROUNDS,
};
use bedom_distsim::{ExecutionStrategy, IdAssignment};
use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::Graph;
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const N: usize = 100_000;
const SEED: u64 = 0xd15d;
/// Timed runs per protocol at r = 1; the r = 2 runs take one each.
const SAMPLES: usize = 2;

fn t9_config_r(r: u32) -> DistDomSetConfig {
    DistDomSetConfig {
        assignment: IdAssignment::Shuffled(SEED),
        // Pinned Sequential so the comparison is engine work for engine work
        // whatever the machine's core count.
        ..DistDomSetConfig::with_strategy(r, ExecutionStrategy::Sequential)
    }
}

fn t9_config() -> DistDomSetConfig {
    t9_config_r(1)
}

fn ksv_config() -> KsvConfig {
    KsvConfig {
        assignment: IdAssignment::Shuffled(SEED),
        ..KsvConfig::with_strategy(ExecutionStrategy::Sequential)
    }
}

/// Per-phase wire-bit buckets, committed alongside the totals so the JSON
/// shows where the budget goes (flood vs announcements vs election tokens).
fn record_phase_bits(name: &str, ksv: &KsvDomResult) {
    record_metric(
        &format!("{name}_ksv_flood_bits"),
        ksv.phase_bits.flood as f64,
    );
    record_metric(
        &format!("{name}_ksv_hard_core_announce_bits"),
        ksv.phase_bits.hard_core_announce as f64,
    );
    record_metric(
        &format!("{name}_ksv_election_bits"),
        ksv.phase_bits.election as f64,
    );
    record_metric(
        &format!("{name}_ksv_cover_announce_bits"),
        ksv.phase_bits.cover_announce as f64,
    );
}

fn bench_ksv_pipeline() {
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

        let (t9, t9_secs) = time_samples(&format!("order-based/{name}/{n}"), SAMPLES, || {
            distributed_distance_domination(graph, t9_config()).unwrap()
        });
        let (ksv, ksv_secs) = time_samples(&format!("ksv/{name}/{n}"), SAMPLES, || {
            distributed_ksv_domination(graph, ksv_config()).unwrap()
        });
        // Validity and the acceptance contract.
        assert!(is_distance_dominating_set(graph, &t9.dominating_set, 1));
        assert!(is_distance_dominating_set(graph, &ksv.dominating_set, 1));
        assert_eq!(
            ksv.rounds, KSV_ROUNDS,
            "{name}: KSV must stay constant-round at n = {n}"
        );
        let lb = packing_lower_bound(graph, 1);
        let t9_bits: usize = t9.phase_stats.iter().map(|s| s.total_bits).sum();

        println!(
            "{name} (n = {n}): order-based = {} rounds / {t9_bits} bits / |D| = {} in {t9_secs:.2} s, \
             ksv = {} rounds / {} bits / |D| = {} in {ksv_secs:.2} s (lb {lb})",
            t9.total_rounds(),
            t9.dominating_set.len(),
            ksv.rounds,
            ksv.stats.total_bits,
            ksv.dominating_set.len(),
        );
        record_metric(&format!("{name}_t9_rounds"), t9.total_rounds() as f64);
        record_metric(&format!("{name}_ksv_rounds"), ksv.rounds as f64);
        record_metric(&format!("{name}_t9_total_bits"), t9_bits as f64);
        record_metric(
            &format!("{name}_ksv_total_bits"),
            ksv.stats.total_bits as f64,
        );
        record_metric(
            &format!("{name}_t9_max_message_bits"),
            t9.max_message_bits() as f64,
        );
        record_metric(
            &format!("{name}_ksv_max_message_bits"),
            ksv.stats.max_message_bits as f64,
        );
        record_metric(&format!("{name}_t9_set"), t9.dominating_set.len() as f64);
        record_metric(&format!("{name}_ksv_set"), ksv.dominating_set.len() as f64);
        record_metric(&format!("{name}_ksv_hard_core"), ksv.hard_core.len() as f64);
        record_metric(
            &format!("{name}_ksv_cover_dominators"),
            ksv.cover_dominators.len() as f64,
        );
        record_metric(
            &format!("{name}_ksv_self_elected"),
            ksv.self_elected.len() as f64,
        );
        record_phase_bits(name, &ksv);
        record_metric(&format!("{name}_packing_lower_bound"), lb as f64);
        record_metric(&format!("{name}_t9_seconds"), t9_secs);
        record_metric(&format!("{name}_ksv_seconds"), ksv_secs);
        record_metric(
            &format!("{name}_round_reduction"),
            t9.total_rounds() as f64 / ksv.rounds.max(1) as f64,
        );
        record_metric(
            &format!("{name}_bit_reduction"),
            t9_bits as f64 / ksv.stats.total_bits.max(1) as f64,
        );
    }
}

/// The distance-r headline: KSV at r = 2 against the order-based pipeline at
/// r = 2 on the same full-size (`N`) instances and seeds — feasible since
/// the summary flood replaced per-path record re-shipping. One warm-up run
/// and one timed run per protocol; the timed run is validity-checked against
/// the acceptance contract (total KSV bits ≤ 2× the order-based bits). A
/// last, untimed KSV run measures the protocol's peak live bytes.
fn bench_ksv_distance_r() {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri-r", stacked_triangulation(N, 3)),
        (
            "config-model-r",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];
    let r = 2u32;

    for (name, graph) in &instances {
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);

        let (t9, t9_secs) = time_samples(&format!("order-based/{name}/{n}"), 1, || {
            distributed_distance_domination(graph, t9_config_r(r)).unwrap()
        });
        let (ksv, ksv_secs) = time_samples(&format!("ksv/{name}/{n}"), 1, || {
            distributed_ksv_domination_r(graph, r, ksv_config()).unwrap()
        });
        assert!(is_distance_dominating_set(graph, &t9.dominating_set, r));
        assert!(is_distance_dominating_set(graph, &ksv.dominating_set, r));
        assert_eq!(
            ksv.rounds,
            ksv_rounds(r),
            "{name}: distance-{r} KSV must stay constant-round at n = {n}"
        );
        let ksv_peak = peak_bytes(|| {
            black_box(distributed_ksv_domination_r(graph, r, ksv_config()).unwrap());
        });
        let lb = packing_lower_bound(graph, r);
        let t9_bits: usize = t9.phase_stats.iter().map(|s| s.total_bits).sum();
        assert!(
            ksv.stats.total_bits <= 2 * t9_bits,
            "{name}: KSV r = {r} burned {} bits, above the 2× acceptance budget {}",
            ksv.stats.total_bits,
            2 * t9_bits
        );

        println!(
            "{name} (n = {n}, r = {r}): order-based = {} rounds / {t9_bits} bits / |D| = {} in \
             {t9_secs:.2} s, ksv = {} rounds / {} bits / |D| = {} in {ksv_secs:.2} s, \
             {ksv_peak} peak bytes (lb {lb})",
            t9.total_rounds(),
            t9.dominating_set.len(),
            ksv.rounds,
            ksv.stats.total_bits,
            ksv.dominating_set.len(),
        );
        record_metric(&format!("{name}_r"), r as f64);
        record_metric(&format!("{name}_t9_rounds"), t9.total_rounds() as f64);
        record_metric(&format!("{name}_ksv_rounds"), ksv.rounds as f64);
        record_metric(&format!("{name}_t9_total_bits"), t9_bits as f64);
        record_metric(
            &format!("{name}_ksv_total_bits"),
            ksv.stats.total_bits as f64,
        );
        record_metric(
            &format!("{name}_t9_max_message_bits"),
            t9.max_message_bits() as f64,
        );
        record_metric(
            &format!("{name}_ksv_max_message_bits"),
            ksv.stats.max_message_bits as f64,
        );
        record_metric(&format!("{name}_t9_set"), t9.dominating_set.len() as f64);
        record_metric(&format!("{name}_ksv_set"), ksv.dominating_set.len() as f64);
        record_metric(&format!("{name}_ksv_hard_core"), ksv.hard_core.len() as f64);
        record_metric(
            &format!("{name}_ksv_cover_dominators"),
            ksv.cover_dominators.len() as f64,
        );
        record_metric(
            &format!("{name}_ksv_self_elected"),
            ksv.self_elected.len() as f64,
        );
        record_metric(
            &format!("{name}_ksv_high_degree"),
            ksv.high_degree.len() as f64,
        );
        record_phase_bits(name, &ksv);
        record_metric(&format!("{name}_packing_lower_bound"), lb as f64);
        record_metric(&format!("{name}_t9_seconds"), t9_secs);
        record_metric(&format!("{name}_ksv_seconds"), ksv_secs);
        record_metric(&format!("{name}_ksv_peak_bytes"), ksv_peak as f64);
        record_metric(
            &format!("{name}_round_reduction"),
            t9.total_rounds() as f64 / ksv.rounds.max(1) as f64,
        );
        record_metric(
            &format!("{name}_ksv_vs_t9_bits"),
            ksv.stats.total_bits as f64 / t9_bits.max(1) as f64,
        );
    }
}

fn main() {
    bench_ksv_pipeline();
    bench_ksv_distance_r();
    write_json_report();
}
