//! Sharded multi-graph scenario runner — the batch entry point of the
//! simulator.
//!
//! The north-star workloads are not "one graph, one run" but *fleets* of
//! independent instances: many sensor fields, many topology seeds, many
//! `(graph, config)` what-if scenarios evaluated side by side. This module
//! packages that shape once, on one schedule:
//!
//! * Every entry point runs its shards through
//!   [`ExecutionStrategy::queue_stream_with`]: the workers of a
//!   [`bedom_par::ExecutionStrategy`] claim shards one at a time off the
//!   work queue that every `bedom-par` loop schedules on, so an imbalanced
//!   batch keeps every worker busy, and
//!   each worker reuses **one scratch value** (a `BfsScratch`, a buffer
//!   pool, whatever the job needs) across all of its shards, so a
//!   thousand-shard batch allocates `O(workers)` scratches.
//! * Finished shards reach the calling thread **in ascending shard order**
//!   under every strategy (a reorder window holds the ones that finish
//!   early). [`ScenarioRunner::run_streaming`] folds them into a
//!   [`ReportSink`] (a [`ScenarioReport`] keeps one [`ShardReport`] per
//!   shard), and [`ScenarioRunner::run_resumable`] also appends each one to
//!   a [`BatchJournal`], so an interrupted batch resumes where it died,
//!   bit-identically to an uninterrupted run. Because a shard runs entirely
//!   on one worker and the order is fixed, reports and journal bytes are
//!   identical across **every** strategy (asserted in `tests/determinism.rs`
//!   and `tests/journal_resume.rs`).
//! * [`ShardMetrics`] is the per-shard measurement record (rounds, message
//!   bits, ball sweeps) that the aggregate accessors of [`ScenarioReport`]
//!   fold over, skipping shards that failed before measuring and counting
//!   them in [`ScenarioReport::failed_shards`].
//! * A panicking shard panics the batch, with the shard's own payload, once
//!   every lower-indexed shard has been delivered and every worker joined;
//!   the shards after it are dropped, even those that had already finished.
//!
//! The runner is deliberately generic over the job: `bedom-distsim` sits
//! below the algorithm crates, so the concrete "solve a domination instance"
//! job lives in `bedom_core::pipeline::solve_scenario`, and benches/tests
//! plug in custom jobs (e.g. engine runs through `Network::run`) directly.
//!
//! Loops *inside* a shard should run with the outer strategy's
//! [`ExecutionStrategy::nested`] strategy — a parallel batch that also forked
//! per shard would oversubscribe the machine.

use crate::codec::ByteCodec;
use crate::journal::{BatchJournal, DurabilityMode, JournalError, ShardRecord};
use bedom_par::ExecutionStrategy;
use std::path::Path;

/// Per-shard measurement record, filled in by the job and aggregated by
/// [`ScenarioReport`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardMetrics {
    /// Communication rounds executed by the shard (all phases summed).
    pub rounds: usize,
    /// Total bits put on the wire by the shard.
    pub total_bits: usize,
    /// Largest single message of the shard, in bits.
    pub max_message_bits: usize,
    /// `WReachIndex` ball sweeps performed by the shard (counted by the job
    /// via `bedom_wcol::ball_sweeps_on_this_thread`, which is exact because a
    /// shard runs entirely on one worker thread).
    pub ball_sweeps: u64,
}

/// One shard's result: its index in the input batch, the job's output, and
/// the measurements.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardReport<T> {
    /// Index of this shard in the input slice (reports are returned in this
    /// order).
    pub shard: usize,
    /// The job's output for this shard.
    pub output: T,
    /// The job's measurements for this shard, or `None` if the shard failed
    /// before measuring. The absence is deliberate: a failed shard must not
    /// masquerade as a "0 rounds, 0 bits" success, so jobs report `None`
    /// (and the aggregate accessors fail loudly) instead of defaulting to
    /// zeroed metrics.
    pub metrics: Option<ShardMetrics>,
}

impl<T> ShardReport<T> {
    /// The shard's metrics, panicking loudly if the shard never reported any
    /// (i.e. it failed before measuring).
    pub fn expect_metrics(&self) -> &ShardMetrics {
        match &self.metrics {
            Some(metrics) => metrics,
            None => panic!(
                "shard {} reported no metrics (it failed before measuring)",
                self.shard
            ),
        }
    }
}

/// Aggregate result of a scenario run: per-shard reports in shard order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ScenarioReport<T> {
    /// One report per input shard, index-aligned with the input slice.
    pub shards: Vec<ShardReport<T>>,
}

impl<T> ScenarioReport<T> {
    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Indices of shards that reported no metrics (failed before measuring).
    /// Empty on a fully-measured report.
    pub fn missing_metrics(&self) -> Vec<usize> {
        self.shards
            .iter()
            .filter(|s| s.metrics.is_none())
            .map(|s| s.shard)
            .collect()
    }

    /// Number of shards that reported no metrics — the count behind
    /// [`ScenarioReport::missing_metrics`]. Always check (or display) this
    /// next to the aggregate accessors: they fold over **measured shards
    /// only**, so a non-zero `failed_shards` means the totals understate the
    /// full batch.
    pub fn failed_shards(&self) -> usize {
        self.shards.iter().filter(|s| s.metrics.is_none()).count()
    }

    /// The metrics of every measured shard, in shard order — the common
    /// iterator behind the aggregate accessors. Failed (metric-less) shards
    /// are skipped; [`ScenarioReport::failed_shards`] says how many.
    fn measured(&self) -> impl Iterator<Item = &ShardMetrics> + '_ {
        self.shards.iter().filter_map(|s| s.metrics.as_ref())
    }

    /// Sum of the measured shards' communication rounds.
    ///
    /// Shards that failed before measuring are **skipped**, not counted as
    /// zero successes, so the rest of the batch stays reportable. Callers
    /// that cannot tolerate a partial batch should use
    /// [`ScenarioReport::failed_shards`] /
    /// [`ScenarioReport::missing_metrics`], or the strict
    /// [`ShardReport::expect_metrics`] per shard.
    pub fn total_rounds(&self) -> usize {
        self.measured().map(|m| m.rounds).sum()
    }

    /// Sum of the measured shards' wire bits; failed shards are skipped
    /// (see [`ScenarioReport::total_rounds`]).
    pub fn total_message_bits(&self) -> usize {
        self.measured().map(|m| m.total_bits).sum()
    }

    /// Largest single message across the measured shards, in bits; failed
    /// shards are skipped (see [`ScenarioReport::total_rounds`]).
    pub fn max_message_bits(&self) -> usize {
        self.measured()
            .map(|m| m.max_message_bits)
            .max()
            .unwrap_or(0)
    }

    /// Sum of the measured shards' ball sweeps; failed shards are skipped
    /// (see [`ScenarioReport::total_rounds`]).
    pub fn total_ball_sweeps(&self) -> u64 {
        self.measured().map(|m| m.ball_sweeps).sum()
    }
}

/// A streaming fold over shard results.
///
/// [`ScenarioRunner::run_streaming`] hands each [`ShardReport`] to the sink
/// **in shard order** (a reorder buffer sits between the workers and the
/// sink), as soon as it and all lower-indexed shards have finished. The sink
/// therefore observes exactly the same sequence under every
/// [`ExecutionStrategy`], so any deterministic fold is itself
/// strategy-independent — asserted in `tests/determinism.rs`.
pub trait ReportSink<T> {
    /// Folds one shard's report into the sink. Called once per shard, in
    /// ascending shard order.
    fn absorb(&mut self, report: ShardReport<T>);
}

/// The keep-everything sink: one [`ShardReport`] per shard, in shard order.
impl<T> ReportSink<T> for ScenarioReport<T> {
    fn absorb(&mut self, report: ShardReport<T>) {
        self.shards.push(report);
    }
}

/// Executes independent shards across the workers of an
/// [`ExecutionStrategy`]. See the module docs for the contract.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioRunner {
    strategy: ExecutionStrategy,
}

impl ScenarioRunner {
    /// A runner spreading shards per `strategy`.
    pub fn new(strategy: ExecutionStrategy) -> Self {
        ScenarioRunner { strategy }
    }

    /// Runs `job` once per input shard and hands each [`ShardReport`] to
    /// `sink` **in shard order as soon as it is ready**; the batch holds at
    /// most the reorder window beyond what the sink keeps. Each worker
    /// thread builds one scratch via `init` and reuses it for every shard it
    /// processes; the job must leave no shard-visible residue in the scratch
    /// (reset-by-epoch buffers like `bedom_graph::bfs::BfsScratch` do this by
    /// construction).
    ///
    /// A job that fails before measuring must return `None` metrics — never
    /// a zeroed [`ShardMetrics`] — so the failure stays visible in the
    /// report.
    pub fn run_streaming<In, Sc, T>(
        &self,
        inputs: &[In],
        init: impl Fn() -> Sc + Sync,
        job: impl Fn(&mut Sc, usize, &In) -> (T, Option<ShardMetrics>) + Sync,
        sink: &mut impl ReportSink<T>,
    ) where
        In: Sync,
        T: Send,
    {
        self.strategy.queue_stream_with(
            inputs.len(),
            init,
            |scratch, shard| {
                let (output, metrics) = job(scratch, shard, &inputs[shard]);
                ShardReport {
                    shard,
                    output,
                    metrics,
                }
            },
            |_, report| sink.absorb(report),
        );
    }

    /// Like [`ScenarioRunner::run_streaming`] into a [`ScenarioReport`], but
    /// checkpointed through a [`BatchJournal`] at `journal_path`: every
    /// completed shard is appended as a durable record (per `durability`),
    /// shards the journal already holds are **skipped** and their recorded
    /// outputs reused, and the assembled report is bit-identical to an
    /// uninterrupted run — the journal stores the job's actual outputs, and
    /// a shard's result never depends on which strategy or worker ran it.
    ///
    /// Start-to-finish on a fresh path collects the report and writes a
    /// journal file; after a crash, rerunning with the same inputs and path
    /// resumes where the journal ends. Delete the journal to recompute from
    /// scratch.
    ///
    /// Records are appended on the calling thread in ascending shard order,
    /// so the file's bytes do not depend on the strategy. A crash loses the
    /// shards that finished while a lower-indexed shard was still running
    /// (they wait in the reorder window); a resume re-runs them. After the
    /// first failed append nothing more is written, so the file never holds
    /// a torn frame between intact ones, and the run returns that error once
    /// the workers have joined.
    ///
    /// A shard whose job reports `None` metrics — the runner-wide "failed
    /// before measuring" signal — is **not** checkpointed: its (presumably
    /// degenerate) output still appears in this run's report, but a resume
    /// re-attempts the shard instead of trusting a failure recorded forever.
    pub fn run_resumable<In, Sc, T>(
        &self,
        inputs: &[In],
        journal_path: &Path,
        durability: DurabilityMode,
        init: impl Fn() -> Sc + Sync,
        job: impl Fn(&mut Sc, usize, &In) -> (T, Option<ShardMetrics>) + Sync,
    ) -> Result<ScenarioReport<T>, JournalError>
    where
        In: Sync,
        T: Send + ByteCodec,
    {
        let mut journal =
            BatchJournal::<T>::open_or_create(journal_path, inputs.len(), durability)?;
        let pending = journal.pending();
        // The recovered records are index-aligned, so flattening them keeps
        // shard order; `pending` is exactly their complement, and the fresh
        // shards are merged in as they are released.
        let mut recovered = journal.take_recovered().into_iter().flatten().peekable();
        let mut shards = Vec::with_capacity(inputs.len());
        let mut append_error = None;
        self.strategy.queue_stream_with(
            pending.len(),
            init,
            |scratch, k| {
                let shard = pending[k];
                let (output, metrics) = job(scratch, shard, &inputs[shard]);
                ShardRecord {
                    shard: shard as u64,
                    metrics,
                    output,
                }
            },
            |_, record| {
                while let Some(earlier) = recovered.next_if(|r| r.shard < record.shard) {
                    shards.push(report_of(earlier));
                }
                if append_error.is_none() && record.metrics.is_some() {
                    append_error = journal.append(&record).err();
                }
                shards.push(report_of(record));
            },
        );
        if let Some(e) = append_error {
            return Err(e);
        }
        journal.finish()?;
        shards.extend(recovered.map(report_of));
        Ok(ScenarioReport { shards })
    }
}

/// The report of a journaled (or about to be journaled) shard.
fn report_of<T>(record: ShardRecord<T>) -> ShardReport<T> {
    ShardReport {
        shard: record.shard as usize,
        output: record.output,
        metrics: record.metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(rounds: usize, bits: usize, max_bits: usize, sweeps: u64) -> ShardMetrics {
        ShardMetrics {
            rounds,
            total_bits: bits,
            max_message_bits: max_bits,
            ball_sweeps: sweeps,
        }
    }

    /// Streams a batch into a fresh keep-everything report.
    fn collect<In: Sync, Sc, T: Send>(
        strategy: ExecutionStrategy,
        inputs: &[In],
        init: impl Fn() -> Sc + Sync,
        job: impl Fn(&mut Sc, usize, &In) -> (T, Option<ShardMetrics>) + Sync,
    ) -> ScenarioReport<T> {
        let mut report = ScenarioReport { shards: Vec::new() };
        ScenarioRunner::new(strategy).run_streaming(inputs, init, job, &mut report);
        report
    }

    #[test]
    fn reports_come_back_in_shard_order_under_every_strategy() {
        let inputs: Vec<usize> = (0..37).collect();
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Pooled(42),
        ] {
            let report = collect(
                strategy,
                &inputs,
                || (),
                |(), shard, &input| (input * 10, Some(metrics(shard, input, input, 1))),
            );
            assert_eq!(report.num_shards(), 37);
            for (i, shard) in report.shards.iter().enumerate() {
                assert_eq!(shard.shard, i, "{strategy:?}");
                assert_eq!(shard.output, i * 10, "{strategy:?}");
            }
            assert_eq!(report.total_ball_sweeps(), 37);
            assert_eq!(report.total_rounds(), (0..37).sum::<usize>());
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker_and_reused_across_shards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let inputs: Vec<u32> = (0..100).collect();
        let strategy = ExecutionStrategy::Parallel;
        let report = collect(
            strategy,
            &inputs,
            || {
                builds.fetch_add(1, Ordering::Relaxed);
                Vec::<u32>::new()
            },
            |scratch, _, &input| {
                // Residue-free use: clear, then work.
                scratch.clear();
                scratch.push(input);
                (scratch.iter().sum::<u32>(), Some(ShardMetrics::default()))
            },
        );
        assert_eq!(report.num_shards(), 100);
        assert!(builds.load(Ordering::Relaxed) <= strategy.threads_for(100));
    }

    #[test]
    fn empty_batch() {
        let report = collect(
            ExecutionStrategy::Parallel,
            &Vec::<u8>::new(),
            || (),
            |(), _, _| ((), Some(ShardMetrics::default())),
        );
        assert_eq!(report.num_shards(), 0);
        assert_eq!(report.max_message_bits(), 0);
        assert_eq!(report.total_rounds(), 0);
    }

    /// A shard without metrics is **skipped** by the aggregates and counted
    /// in `failed_shards` — it must neither masquerade as a "0 rounds"
    /// success nor panic the aggregate.
    #[test]
    fn aggregates_skip_metricless_shards_and_count_them() {
        let inputs: Vec<usize> = (0..4).collect();
        let report = collect(
            ExecutionStrategy::Sequential,
            &inputs,
            || (),
            |(), shard, _| {
                let metrics = (shard != 2).then(|| metrics(1, 10, 10, 1));
                (shard, metrics)
            },
        );
        assert_eq!(report.missing_metrics(), vec![2]);
        assert_eq!(report.failed_shards(), 1);
        assert_eq!(report.total_rounds(), 3);
        assert_eq!(report.total_message_bits(), 30);
        assert_eq!(report.max_message_bits(), 10);
        assert_eq!(report.total_ball_sweeps(), 3);
    }

    #[test]
    #[should_panic(expected = "reported no metrics")]
    fn expect_metrics_on_a_failed_shard_panics() {
        let report = ShardReport {
            shard: 7,
            output: (),
            metrics: None,
        };
        let _ = report.expect_metrics();
    }

    /// A collision-free scratch path (no wall clock: pid + counter).
    fn temp_journal(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "bedom-scenario-{}-{}-{}.bin",
            std::process::id(),
            tag,
            n
        ))
    }

    #[test]
    fn run_resumable_matches_run_and_skips_journaled_shards() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inputs: Vec<u64> = (0..16).collect();
        let job = |_: &mut (), shard: usize, &input: &u64| {
            (
                input * input,
                Some(metrics(shard + 1, shard * 10, shard, 2)),
            )
        };
        let baseline = collect(ExecutionStrategy::Sequential, &inputs, || (), job);
        for (mode, strategy) in [
            (DurabilityMode::Sync, ExecutionStrategy::Sequential),
            (DurabilityMode::Deferred, ExecutionStrategy::Parallel),
            (DurabilityMode::Sync, ExecutionStrategy::Pooled(3)),
        ] {
            let path = temp_journal("resumable");
            let report = ScenarioRunner::new(strategy)
                .run_resumable(&inputs, &path, mode, || (), job)
                .unwrap();
            assert_eq!(report, baseline, "{strategy:?}");

            // A second run against the completed journal recomputes nothing.
            let executed = AtomicUsize::new(0);
            let resumed = ScenarioRunner::new(strategy)
                .run_resumable(
                    &inputs,
                    &path,
                    mode,
                    || (),
                    |scratch, shard, input| {
                        executed.fetch_add(1, Ordering::Relaxed);
                        job(scratch, shard, input)
                    },
                )
                .unwrap();
            assert_eq!(executed.load(Ordering::Relaxed), 0, "{strategy:?}");
            assert_eq!(resumed, baseline, "{strategy:?}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn run_resumable_reattempts_shards_that_failed_before_measuring() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inputs: Vec<u64> = (0..6).collect();
        let path = temp_journal("reattempt");
        let runner = ScenarioRunner::new(ExecutionStrategy::Sequential);
        // First run: shard 4 fails before measuring (None metrics) — its
        // degenerate output must not be checkpointed.
        let report = runner
            .run_resumable(
                &inputs,
                &path,
                DurabilityMode::Sync,
                || (),
                |(), shard, &input| {
                    if shard == 4 {
                        (u64::MAX, None)
                    } else {
                        (input + 1, Some(metrics(1, 1, 1, 1)))
                    }
                },
            )
            .unwrap();
        assert_eq!(report.failed_shards(), 1);
        assert_eq!(report.shards[4].output, u64::MAX);

        // Resume: exactly the failed shard reruns, now succeeding.
        let executed = AtomicUsize::new(0);
        let resumed = runner
            .run_resumable(
                &inputs,
                &path,
                DurabilityMode::Sync,
                || (),
                |(), shard, &input| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(shard, 4);
                    (input + 1, Some(metrics(1, 1, 1, 1)))
                },
            )
            .unwrap();
        assert_eq!(executed.load(Ordering::Relaxed), 1);
        assert_eq!(resumed.failed_shards(), 0);
        assert_eq!(resumed.shards[4].output, 5);
        std::fs::remove_file(&path).unwrap();
    }

    /// A panicking shard panics the batch after every lower-indexed shard
    /// was journaled, and nothing after it is, even a shard that had already
    /// finished: a resume re-runs exactly the shards from the panicking one
    /// on.
    #[test]
    fn a_panicking_shard_leaves_exactly_the_shards_before_it_in_the_journal() {
        let inputs: Vec<u64> = (0..24).collect();
        let job = |shard: usize, input: u64| (input * 2, Some(metrics(1, shard, 1, 1)));
        let baseline = collect(
            ExecutionStrategy::Sequential,
            &inputs,
            || (),
            |(), shard, &input| job(shard, input),
        );
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Pooled(11),
        ] {
            let path = temp_journal("panic");
            let runner = ScenarioRunner::new(strategy);
            let crashed = std::thread::scope(|scope| {
                scope
                    .spawn(|| {
                        runner.run_resumable(
                            &inputs,
                            &path,
                            DurabilityMode::Sync,
                            || (),
                            |(), shard, &input| {
                                assert!(shard != 5, "shard 5 exploded");
                                job(shard, input)
                            },
                        )
                    })
                    .join()
            });
            assert!(crashed.is_err(), "{strategy:?}: the panic must propagate");
            let journal =
                BatchJournal::<u64>::open_or_create(&path, inputs.len(), DurabilityMode::Sync)
                    .unwrap();
            assert_eq!(
                journal.pending(),
                (5..24).collect::<Vec<_>>(),
                "{strategy:?}"
            );
            drop(journal);
            let resumed = runner
                .run_resumable(
                    &inputs,
                    &path,
                    DurabilityMode::Sync,
                    || (),
                    |(), shard, &input| job(shard, input),
                )
                .unwrap();
            assert_eq!(resumed, baseline, "{strategy:?}");
            std::fs::remove_file(&path).unwrap();
        }
    }
}
