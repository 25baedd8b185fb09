//! The PR 7 robustness benchmark: what checkpoint-based self-healing costs
//! on the 100k-vertex headline instances.
//!
//! Four distance-2 KSV variants per instance, same graph and seeds throughout:
//!
//! * **clean**: the fault-free baseline (`distributed_ksv_domination_r`);
//! * **checkpointed**: the same run under a [`RecoveryPolicy`] with an empty
//!   [`FaultPlan`] — no fault ever fires, so the delta over *clean* is the
//!   pure snapshot-taking overhead;
//! * **lossy**: a 50% message-drop window over the early rounds with no
//!   recovery — must come back as a typed [`ModelViolation`], never a
//!   silently wrong set;
//! * **healed**: the same lossy plan under recovery — the supervisor walks
//!   checkpoints backwards, clears the faults on restore, and must reproduce
//!   the *clean* dominating set bit for bit.
//!
//! The recorded quantities are the wall times, the overhead ratios
//! (`checkpoint_overhead`, `recovery_overhead`), and the supervisor's
//! accounting (retries, restored rounds, replayed rounds). After one
//! untimed warm-up run of each variant, which brings the allocator to a
//! steady state, each of `SAMPLES` samples runs the four variants back to
//! back. A variant's row and time read the median over its samples, and
//! each overhead is the median over samples of that sample's ratio to its
//! own clean run, so a drift of the machine between samples cancels in
//! the ratio instead of landing in it. The checks read the last sample's
//! outputs.
//! Run with `BEDOM_BENCH_JSON=BENCH_faults.json` to commit the numbers.

use bedom_bench::connected_instance;
use bedom_bench::report::{record_metric, record_samples, write_json_report};
use bedom_core::{
    distributed_ksv_domination_r, distributed_ksv_domination_r_faulty, ksv_rounds, KsvConfig,
};
use bedom_distsim::{ExecutionStrategy, FaultPlan, IdAssignment, RecoveryPolicy};
use bedom_graph::domset::is_distance_dominating_set;
use bedom_graph::generators::{stacked_triangulation, Family};
use bedom_graph::Graph;
use std::hint::black_box;
use std::time::{Duration, Instant};

const N: usize = 100_000;
const SEED: u64 = 0xd15d;
const R: u32 = 2;
/// Samples, each running the four variants back to back; each row and
/// ratio reads their median.
const SAMPLES: usize = 5;
/// The variants in the order each sample runs them, as named in the rows.
const VARIANTS: [&str; 4] = ["clean", "checkpointed", "lossy", "healed"];

fn ksv_config() -> KsvConfig {
    KsvConfig {
        assignment: IdAssignment::Shuffled(SEED),
        // Pinned Sequential so the numbers compare engine work with engine
        // work whatever the machine's core count; fault decisions are
        // stateless hashes, so the strategy does not change the outcome.
        ..KsvConfig::with_strategy(ExecutionStrategy::Sequential)
    }
}

/// The lossy plan: drop half of all deliveries while the adjacency exchange
/// and knowledge flood are on the wire. Early-round drops are the ones the
/// typed coverage checks are guaranteed to catch.
fn lossy_plan() -> FaultPlan {
    FaultPlan::seeded(SEED).drop_messages(0.5).during(1, 4)
}

fn recovery_policy() -> RecoveryPolicy {
    RecoveryPolicy::new(4, 8)
}

/// Runs `f` once under the clock.
fn timed<O>(f: impl FnOnce() -> O) -> (O, Duration) {
    let start = Instant::now();
    let output = black_box(f());
    (output, start.elapsed())
}

/// The upper median, as `bedom_bench::report` takes it.
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

fn bench_fault_recovery() {
    let instances: Vec<(&str, Graph)> = vec![
        ("planar-tri-faults", stacked_triangulation(N, 3)),
        (
            "config-model-faults",
            connected_instance(Family::ConfigurationModel, N, 5),
        ),
    ];

    for (name, graph) in &instances {
        let n = graph.num_vertices();
        record_metric(&format!("{name}_n"), n as f64);
        record_metric(&format!("{name}_r"), R as f64);

        // Fault-free baseline.
        let clean = || distributed_ksv_domination_r(graph, R, ksv_config()).unwrap();
        // Checkpointing without faults: the pure snapshot cost.
        let checkpointed = || {
            distributed_ksv_domination_r_faulty(
                graph,
                R,
                ksv_config(),
                FaultPlan::seeded(SEED),
                Some(recovery_policy()),
            )
            .unwrap()
        };
        // Lossy without recovery: must degrade to a typed violation.
        let lossy =
            || distributed_ksv_domination_r_faulty(graph, R, ksv_config(), lossy_plan(), None);
        // Lossy under recovery: must heal to the fault-free set.
        let healed = || {
            distributed_ksv_domination_r_faulty(
                graph,
                R,
                ksv_config(),
                lossy_plan(),
                Some(recovery_policy()),
            )
            .unwrap()
        };

        // One untimed warm-up run of each variant.
        drop(clean());
        drop(checkpointed());
        drop(lossy());
        drop(healed());
        let mut times: [Vec<Duration>; 4] = Default::default();
        let (mut checkpoint_ratios, mut recovery_ratios) = (Vec::new(), Vec::new());
        let mut outputs = None;
        for _ in 0..SAMPLES {
            // Drop the previous sample's outputs off the clock, so no run
            // shares the heap with them.
            drop(outputs.take());
            let (clean, clean_time) = timed(clean);
            let (checkpointed, checkpointed_time) = timed(checkpointed);
            let (lossy, lossy_time) = timed(lossy);
            let (healed, healed_time) = timed(healed);
            let sample = [clean_time, checkpointed_time, lossy_time, healed_time];
            for (variant, time) in times.iter_mut().zip(sample) {
                variant.push(time);
            }
            checkpoint_ratios.push(checkpointed_time.as_secs_f64() / clean_time.as_secs_f64());
            recovery_ratios.push(healed_time.as_secs_f64() / clean_time.as_secs_f64());
            outputs = Some((clean, checkpointed, lossy, healed));
        }
        let [clean_secs, checkpointed_secs, lossy_secs, healed_secs] = std::array::from_fn(|i| {
            let id = format!("{}/{name}/{n}", VARIANTS[i]);
            record_samples(&id, std::mem::take(&mut times[i]))
        });
        let (clean, checkpointed, lossy, healed) = outputs.expect("SAMPLES is at least one");
        let checkpoint_overhead = median(checkpoint_ratios);
        let recovery_overhead = median(recovery_ratios);

        assert!(is_distance_dominating_set(graph, &clean.dominating_set, R));
        assert_eq!(clean.rounds, ksv_rounds(R));
        let checkpoint_report = checkpointed.recovery.as_ref().unwrap();
        assert_eq!(
            checkpoint_report.retries, 0,
            "{name}: an empty fault plan must not trigger recovery"
        );
        assert_eq!(checkpointed.dominating_set, clean.dominating_set);
        let violation = lossy.expect_err("a 50% drop window at n = 100k must be detected");
        let report = healed.recovery.as_ref().unwrap();
        assert!(report.retries >= 1, "{name}: recovery must have fired");
        assert_eq!(
            healed.dominating_set, clean.dominating_set,
            "{name}: the healed set must be bit-identical to the fault-free run"
        );

        println!(
            "{name} (n = {n}, r = {R}): clean = {clean_secs:.2} s, checkpointed = \
             {checkpointed_secs:.2} s ({:.2}×), lossy = {lossy_secs:.2} s ({violation}), healed = \
             {healed_secs:.2} s ({:.2}×, {} retries, {} rounds replayed)",
            checkpoint_overhead, recovery_overhead, report.retries, report.replayed_rounds,
        );
        record_metric(&format!("{name}_clean_seconds"), clean_secs);
        record_metric(&format!("{name}_checkpointed_seconds"), checkpointed_secs);
        record_metric(&format!("{name}_lossy_seconds"), lossy_secs);
        record_metric(&format!("{name}_healed_seconds"), healed_secs);
        record_metric(&format!("{name}_checkpoint_overhead"), checkpoint_overhead);
        record_metric(&format!("{name}_recovery_overhead"), recovery_overhead);
        record_metric(
            &format!("{name}_clean_set"),
            clean.dominating_set.len() as f64,
        );
        record_metric(
            &format!("{name}_healed_set"),
            healed.dominating_set.len() as f64,
        );
        record_metric(
            &format!("{name}_clean_total_bits"),
            clean.stats.total_bits as f64,
        );
        record_metric(
            &format!("{name}_healed_total_bits"),
            healed.stats.total_bits as f64,
        );
        record_metric(&format!("{name}_retries"), report.retries as f64);
        record_metric(
            &format!("{name}_replayed_rounds"),
            report.replayed_rounds as f64,
        );
        record_metric(
            &format!("{name}_restores"),
            report.restored_rounds.len() as f64,
        );
        record_metric(
            &format!("{name}_violations_recovered"),
            report.violations.len() as f64,
        );
        record_metric(&format!("{name}_lossy_typed_error"), 1.0);
    }
}

fn main() {
    bench_fault_recovery();
    write_json_report();
}
