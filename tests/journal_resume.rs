//! Interrupt/resume determinism of the durable batch journal: a multi-shard
//! KSV batch whose journal is cut short — cleanly after `k` completed shards
//! or mid-frame, as a crash during an append would — must resume to output
//! **bit-identical** to the uninterrupted run, under every execution
//! strategy. A long batch that dies must not restart from zero, and resuming
//! must never be observable in the results.
//!
//! Alongside the resume cases, the seeded pooled strategy (dynamic shard
//! claiming, seeded claim order) is pinned against unseeded parallel
//! execution over the conformance corpus's instance shapes — the other half
//! of the "domination as a service" determinism contract.

use bedom::core::{
    solve_scenario, solve_scenario_resumable, Algorithm, BatchError, DominationPipeline,
    DominationReport, Mode,
};
use bedom::distsim::{
    encode_frame, DurabilityMode, ExecutionStrategy, FrameReader, ModelViolation, ScenarioReport,
    ShardRecord,
};
use bedom::graph::generators::{cycle, grid, path, stacked_triangulation, star, Family};
use bedom::graph::{graph_from_edges, Graph};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A collision-free scratch path (no wall clock: pid + counter).
fn temp_journal(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "bedom-resume-{}-{}-{}.journal",
        std::process::id(),
        tag,
        n
    ))
}

/// The resumable batch under test: KSV shards at r ∈ {1, 2, 3} next to an
/// order-based shard and a degenerate single-vertex one — the same mix the
/// determinism suite pins, sized for a quick full solve.
fn ksv_batch() -> Vec<(Graph, DominationPipeline)> {
    vec![
        (
            Family::PlanarTriangulation.generate(160, 4),
            DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(120, 1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::RandomTree.generate(140, 6),
            DominationPipeline::new(3).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::Grid.generate(90, 2),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            Graph::empty(1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            Family::RandomTree.generate(110, 9),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
    ]
}

/// Byte offsets of every frame boundary in a completed journal file: the
/// header's end, then the end of each record frame. Frame lengths are
/// recovered by re-encoding each decoded record — encoding is deterministic,
/// so the round trip reproduces the on-disk frame exactly.
fn frame_boundaries(bytes: &[u8], num_shards: usize) -> Vec<usize> {
    // The header frame's payload is a bare `num_shards: u64`.
    let header_len = encode_frame(&(num_shards as u64)).len();
    let mut boundaries = vec![header_len];
    for frame in FrameReader::<ShardRecord<Option<DominationReport>>>::new(&bytes[header_len..]) {
        let record = frame.expect("a completed journal holds only intact frames");
        let end = boundaries.last().copied().unwrap_or(header_len) + encode_frame(&record).len();
        boundaries.push(end);
    }
    boundaries
}

/// Record frames currently in the journal at `path` (header excluded).
fn journal_record_count(path: &std::path::Path, num_shards: usize) -> usize {
    let bytes = std::fs::read(path).unwrap();
    frame_boundaries(&bytes, num_shards).len() - 1
}

#[test]
fn interrupted_batches_resume_bit_identically_under_every_strategy() {
    let shards = ksv_batch();
    let reference = solve_scenario(&shards, ExecutionStrategy::Sequential).unwrap();

    // One uninterrupted resumable run provides both the baseline equality
    // check and the completed journal whose frame boundaries the truncation
    // cases are measured from. Every strategy appends records in shard
    // order, so cutting after `k` frames leaves exactly shards `0..k`.
    let full_path = temp_journal("full");
    let full = solve_scenario_resumable(
        &shards,
        ExecutionStrategy::Sequential,
        &full_path,
        DurabilityMode::Sync,
    )
    .unwrap();
    assert_eq!(full, reference, "journaling changed the output");
    let bytes = std::fs::read(&full_path).unwrap();
    let boundaries = frame_boundaries(&bytes, shards.len());
    assert_eq!(
        boundaries.len(),
        shards.len() + 1,
        "every successful shard writes exactly one record frame"
    );
    std::fs::remove_file(&full_path).unwrap();

    let strategies = [
        ExecutionStrategy::Sequential,
        ExecutionStrategy::Parallel,
        ExecutionStrategy::Pooled(0xfeed),
        ExecutionStrategy::Pooled(3),
    ];
    for (i, strategy) in strategies.into_iter().enumerate() {
        // Clean interruption: the journal ends exactly at a frame boundary,
        // as if the process died between appends. Vary k per strategy so the
        // suite covers resuming near the start and near the end.
        for k in [1 + i % 2, shards.len() - 1 - i % 2] {
            let path = temp_journal("cut");
            std::fs::write(&path, &bytes[..boundaries[k]]).unwrap();
            let resumed =
                solve_scenario_resumable(&shards, strategy, &path, DurabilityMode::Deferred)
                    .unwrap();
            assert_eq!(
                resumed, reference,
                "{strategy:?}, {k} shard(s) journaled: resume diverged"
            );
            assert_eq!(
                journal_record_count(&path, shards.len()),
                shards.len(),
                "{strategy:?}, {k} shard(s) journaled: resume must append \
                 exactly the missing records (no re-runs, no gaps)"
            );
            std::fs::remove_file(&path).unwrap();
        }

        // Torn interruption: the crash landed mid-append, leaving a partial
        // trailing frame. Once a few bytes into the record (magic + version),
        // and once three bytes short of a complete frame. Salvage drops the
        // torn record; the resume re-runs it and everything after.
        for cut in [boundaries[2] + 5, boundaries[3] - 3] {
            let path = temp_journal("torn");
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let resumed =
                solve_scenario_resumable(&shards, strategy, &path, DurabilityMode::Sync).unwrap();
            assert_eq!(
                resumed, reference,
                "{strategy:?}, torn frame at byte {cut}: resume diverged"
            );
            assert_eq!(
                journal_record_count(&path, shards.len()),
                shards.len(),
                "{strategy:?}, torn frame at byte {cut}: salvage must drop \
                 the torn record and the resume must re-append it"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}

/// The journal's bytes do not depend on the strategy: every strategy appends
/// the records on the calling thread in ascending shard order.
#[test]
fn journal_bytes_are_identical_under_every_strategy() {
    let shards = ksv_batch();
    let write = |strategy| {
        let path = temp_journal("bytes");
        solve_scenario_resumable(&shards, strategy, &path, DurabilityMode::Deferred).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    };
    let sequential = write(ExecutionStrategy::Sequential);
    for strategy in [
        ExecutionStrategy::Parallel,
        ExecutionStrategy::Pooled(3),
        ExecutionStrategy::Pooled(0xfeed),
    ] {
        assert!(
            write(strategy) == sequential,
            "{strategy:?}: the journal's bytes differ from the sequential run's"
        );
    }
}

/// A resume against an already-complete journal does no work and changes no
/// bytes: the report is rebuilt entirely from recovered records.
#[test]
fn resuming_a_complete_journal_replays_without_touching_the_file() {
    let shards = ksv_batch();
    let path = temp_journal("replay");
    let first = solve_scenario_resumable(
        &shards,
        ExecutionStrategy::Parallel,
        &path,
        DurabilityMode::Deferred,
    )
    .unwrap();
    let on_disk = std::fs::read(&path).unwrap();
    let replayed = solve_scenario_resumable(
        &shards,
        ExecutionStrategy::Pooled(0),
        &path,
        DurabilityMode::Sync,
    )
    .unwrap();
    assert_eq!(replayed, first, "replay from the journal diverged");
    assert_eq!(
        std::fs::read(&path).unwrap(),
        on_disk,
        "a no-op resume must not rewrite the journal"
    );
    std::fs::remove_file(&path).unwrap();
}

/// The seeded work queue against the unseeded one over the conformance
/// corpus's shapes: structured families, a planar triangulation, and the
/// degenerate instances (empty, single vertex, disconnected) where solvers
/// historically diverge first. Dynamic claim order must never reach the
/// output, for any pool seed.
#[test]
fn pooled_queue_matches_chunked_execution_over_the_corpus() {
    let shards: Vec<(Graph, DominationPipeline)> = vec![
        (
            Graph::empty(0),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            Graph::empty(1),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            path(16),
            DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            cycle(13),
            DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
        ),
        (star(9), DominationPipeline::new(1).mode(Mode::Distributed)),
        (
            grid(4, 4),
            DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            stacked_triangulation(26, 5),
            DominationPipeline::new(3).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            graph_from_edges(12, &[(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 8)]),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (grid(5, 5), DominationPipeline::new(2)),
    ];

    let run = |strategy| -> ScenarioReport<DominationReport> {
        solve_scenario(&shards, strategy).unwrap()
    };
    let parallel = run(ExecutionStrategy::Parallel);
    assert_eq!(
        run(ExecutionStrategy::Sequential),
        parallel,
        "parallel execution diverged from sequential"
    );
    for seed in [0u64, 1, 0xC0FFEE, u64::MAX] {
        assert_eq!(
            run(ExecutionStrategy::Pooled(seed)),
            parallel,
            "pool seed {seed}: dynamic claim order reached the output"
        );
    }
}

/// The batch violation contract, pinned under every strategy: a batch whose
/// shards 1 and 3 both hit `RadiusOutOfRange` fails with shard 1's error
/// through both entry points, and the journal keeps exactly the two
/// successful shards' records, so a rerun re-attempts only the violated
/// shards.
#[test]
fn a_violating_batch_fails_with_the_lowest_indexed_shards_error_under_every_strategy() {
    let shards: Vec<(Graph, DominationPipeline)> = vec![
        (path(10), DominationPipeline::new(1)),
        (
            grid(3, 3),
            DominationPipeline::new(256).algorithm(Algorithm::KsvConstantRound),
        ),
        (
            grid(3, 3),
            DominationPipeline::new(1).mode(Mode::Distributed),
        ),
        (
            path(7),
            DominationPipeline::new(128).mode(Mode::Distributed),
        ),
    ];
    // Shard 3 fails on its own too, with a different error.
    let last = solve_scenario(&shards[3..], ExecutionStrategy::Sequential).unwrap_err();
    assert!(
        matches!(
            last,
            ModelViolation::RadiusOutOfRange {
                requested: 256,
                supported: 254,
                ..
            }
        ),
        "shard 3 alone failed with {last:?}"
    );
    for strategy in [
        ExecutionStrategy::Sequential,
        ExecutionStrategy::Parallel,
        ExecutionStrategy::Pooled(3),
        ExecutionStrategy::Pooled(0xfeed),
    ] {
        let collected = solve_scenario(&shards, strategy).unwrap_err();
        assert!(
            matches!(
                collected,
                ModelViolation::RadiusOutOfRange {
                    requested: 256,
                    supported: 255,
                    ..
                }
            ),
            "{strategy:?}: solve_scenario failed with {collected:?}"
        );

        let journal = temp_journal("violation");
        match solve_scenario_resumable(&shards, strategy, &journal, DurabilityMode::Sync) {
            Err(BatchError::Violation(violation)) => {
                assert_eq!(violation, collected, "{strategy:?}: resumable")
            }
            other => panic!("{strategy:?}: resumable returned {other:?}"),
        }
        assert_eq!(
            journal_record_count(&journal, shards.len()),
            2,
            "{strategy:?}: only the two solved shards are journaled"
        );
        std::fs::remove_file(&journal).unwrap();
    }
}
