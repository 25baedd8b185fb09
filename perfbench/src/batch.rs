//! `batch-journal`: 2048 shards of about 250 vertices through
//! `solve_scenario_resumable` with `Pooled(seed)` workers and
//! `DurabilityMode::Sync` into a fresh journal (the measured write pass),
//! then one resume from the complete journal, which must reproduce the write
//! pass bit for bit.
//!
//! The traced run re-solves the shards through `ScenarioRunner::run_streaming`
//! with the same per-shard calls, timing each shard on its worker, and
//! appends every report to a fresh `BatchJournal` as it arrives, timing each
//! `append` (encode, write and `sync_data`).

use crate::inputs::{batch_shards, shard_pipeline, Seeds, ShardPipeline};
use crate::stats::{median, peak_rss_mb, percentile, repeat_setup, work_dir, Outcome};
use crate::trace::Tracer;
use crate::Args;
use bedom_core::{solve_scenario_resumable, DominationPipeline, DominationReport};
use bedom_distsim::journal::{BatchJournal, DurabilityMode, ShardRecord};
use bedom_distsim::scenario::{
    ReportSink, ScenarioReport, ScenarioRunner, ShardMetrics, ShardReport,
};
use bedom_distsim::ExecutionStrategy;
use bedom_graph::components::is_induced_connected;
use bedom_graph::domset::is_distance_dominating_set;
use bedom_graph::Graph;
use bedom_wcol::ball_sweeps_on_this_thread;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Shard-list generations per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// A journal path in the work directory, removed first if a crashed run
/// left one behind.
fn fresh_journal(args: &Args, tag: &str) -> Result<PathBuf, String> {
    let path = work_dir()?.join(format!(
        "journal-{}-{}-{tag}.bin",
        args.seed,
        std::process::id()
    ));
    match std::fs::remove_file(&path) {
        Ok(()) => Ok(path),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(path),
        Err(e) => Err(format!("removing {}: {e}", path.display())),
    }
}

/// Checks one solved shard; `None` when it is good.
fn check_shard(
    shard: usize,
    graph: &Graph,
    report: &ShardReport<DominationReport>,
) -> Option<String> {
    let out = &report.output;
    if report.shard != shard {
        return Some(format!("shard {shard} came back as {}", report.shard));
    }
    if !is_distance_dominating_set(graph, &out.dominating_set, out.r) {
        return Some(format!("shard {shard}: the set does not dominate"));
    }
    if !out.election_verified {
        return Some(format!("shard {shard}: election_verified is false"));
    }
    if shard_pipeline(shard) == ShardPipeline::Theorem10 {
        let connected = out.connected_dominating_set.as_deref().unwrap_or(&[]);
        if !is_distance_dominating_set(graph, connected, out.r)
            || !is_induced_connected(graph, connected)
        {
            return Some(format!(
                "shard {shard}: the connected set is not a connected dominating set"
            ));
        }
    }
    match report.metrics {
        Some(m) if m.ball_sweeps == 1 => None,
        other => Some(format!(
            "shard {shard}: metrics {other:?}, expected one ball sweep"
        )),
    }
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds = Seeds::of(args.seed);
    let mut out = Outcome::new(args.trace);
    let strategy = ExecutionStrategy::Pooled(args.seed);

    let (shards, setup) = repeat_setup(SETUP_REPEATS, || batch_shards(&seeds));

    let journal = fresh_journal(args, "write")?;
    let mut pass_secs = Vec::new();
    let mut written: Option<ScenarioReport<DominationReport>> = None;
    let budget_start = Instant::now();
    loop {
        if written.is_some() {
            std::fs::remove_file(&journal).map_err(|e| format!("removing the journal: {e}"))?;
        }
        let t = Instant::now();
        let report = solve_scenario_resumable(&shards, strategy, &journal, DurabilityMode::Sync);
        pass_secs.push(t.elapsed().as_secs_f64());
        let report = report.map_err(|e| format!("the write pass failed: {e}"))?;
        match &written {
            None => written = Some(report),
            Some(first) => out.check(first.shards == report.shards, || {
                "a repeated write pass differs from the first".to_string()
            }),
        }
        if budget_start.elapsed().as_secs_f64() + median(&pass_secs) > args.seconds {
            break;
        }
    }
    let written = written.expect("at least one pass ran");
    let journal_bytes = std::fs::metadata(&journal)
        .map_err(|e| format!("reading the journal's size: {e}"))?
        .len();

    // Resume from the complete journal: every shard is read back, none is
    // re-solved, and the report must be bit-identical.
    let t = Instant::now();
    let resumed = solve_scenario_resumable(&shards, strategy, &journal, DurabilityMode::Sync)
        .map_err(|e| format!("the resume failed: {e}"))?;
    let replay_s = t.elapsed().as_secs_f64();
    out.check(resumed.shards == written.shards, || {
        "the resumed batch is not bit-identical to the write pass".to_string()
    });
    std::fs::remove_file(&journal).map_err(|e| format!("removing the journal: {e}"))?;
    let rss = peak_rss_mb(None)?;

    let (mut set_size, mut rounds, mut bits, mut sweeps) = (0usize, 0usize, 0usize, 0u64);
    for (i, ((graph, _), report)) in shards.iter().zip(&written.shards).enumerate() {
        set_size += report.output.dominating_set.len();
        rounds += report.output.rounds;
        bits += report.output.total_message_bits;
        sweeps += report.metrics.map_or(0, |m| m.ball_sweeps);
        out.op(check_shard(i, graph, report));
    }
    out.check(written.shards.len() == shards.len(), || {
        format!(
            "{} reports for {} shards",
            written.shards.len(),
            shards.len()
        )
    });

    let untraced_solve_s = median(&pass_secs);
    out.end_to_end(&setup, &pass_secs, rss, (set_size, rounds, bits));

    if args.trace {
        out.set("scenario.ball_sweeps", sweeps as f64);
        out.set("journal.bytes", journal_bytes as f64);
        out.set("journal.replay_s", replay_s);
        let traced_journal = fresh_journal(args, "traced")?;
        let traced = traced_pass(
            &shards,
            strategy,
            &traced_journal,
            &mut out,
            untraced_solve_s,
        );
        let _ = std::fs::remove_file(&traced_journal);
        let (tr, reports) = traced?;
        out.check(reports == written.shards, || {
            "the traced pass does not reproduce the write pass".to_string()
        });
        tr.write_jsonl(
            &work_dir()?.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
            &args.workload,
            args.seed,
        )?;
    }
    Ok(out)
}

/// What a traced shard job hands the sink: the solved report, if any.
type Solved = Option<DominationReport>;

/// Appends each report to the journal as it arrives, timing every append.
struct JournalSink {
    journal: BatchJournal<DominationReport>,
    origin: Instant,
    appends: Vec<(u64, u64)>,
    reports: Vec<ShardReport<DominationReport>>,
    error: Option<String>,
}

impl ReportSink<Solved> for JournalSink {
    fn absorb(&mut self, report: ShardReport<Solved>) {
        let (Some(output), Some(metrics)) = (report.output, report.metrics) else {
            self.error
                .get_or_insert(format!("shard {} failed", report.shard));
            return;
        };
        let record = ShardRecord {
            shard: report.shard as u64,
            metrics: Some(metrics),
            output,
        };
        let start = self.origin.elapsed().as_nanos() as u64;
        let appended = self.journal.append(&record);
        self.appends
            .push((start, self.origin.elapsed().as_nanos() as u64));
        if let Err(e) = appended {
            self.error
                .get_or_insert(format!("append of shard {} failed: {e}", report.shard));
        }
        self.reports.push(ShardReport {
            shard: report.shard,
            output: record.output,
            metrics: record.metrics,
        });
    }
}

/// The per-shard body `solve_scenario_resumable` runs, from outside: solve
/// with the nested (sequential) strategy and count ball sweeps.
fn solve_shard(
    graph: &Graph,
    pipeline: &DominationPipeline,
    strategy: ExecutionStrategy,
) -> (Solved, Option<ShardMetrics>) {
    let sweeps = ball_sweeps_on_this_thread();
    match pipeline.execution(strategy.nested()).solve(graph) {
        Ok(solved) => {
            let metrics = ShardMetrics {
                rounds: solved.rounds,
                total_bits: solved.total_message_bits,
                max_message_bits: solved.max_message_bits,
                ball_sweeps: ball_sweeps_on_this_thread() - sweeps,
            };
            (Some(solved), Some(metrics))
        }
        Err(_) => (None, None),
    }
}

fn traced_pass(
    shards: &[(Graph, DominationPipeline)],
    strategy: ExecutionStrategy,
    journal_path: &Path,
    out: &mut Outcome,
    untraced_solve_s: f64,
) -> Result<(Tracer, Vec<ShardReport<DominationReport>>), String> {
    let mut tr = Tracer::new();
    let journal = BatchJournal::open_or_create(journal_path, shards.len(), DurabilityMode::Sync)
        .map_err(|e| format!("opening the traced journal: {e}"))?;
    let origin = Instant::now();
    let origin_ns = tr.now_ns();
    let mut sink = JournalSink {
        journal,
        origin,
        appends: Vec::with_capacity(shards.len()),
        reports: Vec::with_capacity(shards.len()),
        error: None,
    };
    let shard_times: Mutex<Vec<(u64, u64)>> = Mutex::new(vec![(0, 0); shards.len()]);
    let root = tr.next_index();
    tr.span("pass", |_| {
        ScenarioRunner::new(strategy).run_streaming(
            shards,
            || (),
            |(), shard, (graph, pipeline)| {
                let start = origin.elapsed().as_nanos() as u64;
                let solved = solve_shard(graph, pipeline, strategy);
                let end = origin.elapsed().as_nanos() as u64;
                shard_times
                    .lock()
                    .expect("no worker panics while holding the lock")[shard] = (start, end);
                solved
            },
            &mut sink,
        );
    });
    let wall = tr.total_secs("pass");
    if let Some(e) = sink.error.take() {
        return Err(e);
    }
    sink.journal
        .finish()
        .map_err(|e| format!("finishing the traced journal: {e}"))?;

    let shard_times = shard_times.into_inner().expect("the workers have joined");
    for &(start, end) in &shard_times {
        tr.record(
            "scenario.shard",
            origin_ns + start,
            origin_ns + end,
            Some(root),
        );
    }
    for &(start, end) in &sink.appends {
        tr.record(
            "journal.append",
            origin_ns + start,
            origin_ns + end,
            Some(root),
        );
    }
    let shard_ms: Vec<f64> = shard_times
        .iter()
        .map(|(s, e)| (e - s) as f64 * 1e-6)
        .collect();
    let append_us: Vec<f64> = sink
        .appends
        .iter()
        .map(|(s, e)| (e - s) as f64 * 1e-3)
        .collect();
    let busy: f64 = shard_ms.iter().sum::<f64>() * 1e-3;
    let workers = strategy.threads_for(shards.len()) as f64;
    out.set("scenario.shard_ms_p50", percentile(&shard_ms, 0.5));
    out.set("scenario.shard_ms_p99", percentile(&shard_ms, 0.99));
    out.set("par.busy_frac", busy / (workers * wall));
    out.set("journal.append_us_p50", percentile(&append_us, 0.5));
    out.set("journal.append_us_p99", percentile(&append_us, 0.99));
    out.set("trace.solve_s", wall);
    out.set("trace.coverage", busy / (workers * wall));
    out.set("trace_overhead", wall / untraced_solve_s.max(1e-12));
    Ok((tr, sink.reports))
}
