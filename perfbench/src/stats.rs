//! Metric names, the result record every workload returns, and the small
//! statistics the workloads share (medians, nearest-rank percentiles, peak
//! RSS).

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports with `--trace 0`, with their
/// units. `BENCHMARK.json` lists the same names; README.md defines them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("solve_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("set_size", "count"),
    ("rounds", "count"),
    ("wire_bits", "bits"),
];

/// The per-layer metrics every workload reports with `--trace 1`. A layer a
/// workload never enters reads 0 there (its self time and counts are 0).
pub const PER_LAYER: [(&str, &str); 52] = [
    // End-to-end figures that apply to one workload only, taken from the
    // untraced pass of the traced run.
    ("error_rate", "ratio"),
    ("planar-tri.r1_s", "s"),
    ("planar-tri.r2_s", "s"),
    ("config-model.r1_s", "s"),
    ("config-model.r2_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_samples", "count"),
    // wcol: the order phase, through DistContext::elect.
    ("wcol.order_s", "s"),
    ("wcol.order_rounds", "count"),
    ("wcol.order_bits", "bits"),
    ("wcol.ball_sweeps", "count"),
    // dist_wreach: Lemma 7, through DistContext::wreach.
    ("dist_wreach.protocol_s", "s"),
    ("dist_wreach.bits", "bits"),
    ("dist_wreach.allocs", "count"),
    // dist_domset: the Theorem 9 election with weak reachability cached.
    ("dist_domset.election_s", "s"),
    ("dist_domset.election_bits", "bits"),
    // context: the index sweep, its reads, and dropping the context.
    ("context.index_s", "s"),
    ("context.index_allocs", "count"),
    ("context.reads_s", "s"),
    ("context.drop_s", "s"),
    // graph: the packing lower bound.
    ("graph.lower_bound_s", "s"),
    // dist_ksv: the whole protocol run (phases are not reachable from
    // outside), its allocations, bit buckets and membership counts.
    ("dist_ksv.protocol_s", "s"),
    ("dist_ksv.allocs", "count"),
    ("dist_ksv.alloc_bytes", "bytes"),
    ("dist_ksv.flood_bits", "bits"),
    ("dist_ksv.hard_core_bits", "bits"),
    ("dist_ksv.election_bits", "bits"),
    ("dist_ksv.cover_announce_bits", "bits"),
    ("dist_ksv.hard_core", "count"),
    ("dist_ksv.cover_dominators", "count"),
    ("dist_ksv.self_elected", "count"),
    ("dist_ksv.hubs", "count"),
    // dist_cover and seq_domset.
    ("dist_cover.cover_s", "s"),
    ("seq_domset.solve_s", "s"),
    // serve: client latency per query family, I/O overhead, cold contexts.
    ("serve.order_ms_p50", "ms"),
    ("serve.ksv_ms_p50", "ms"),
    ("serve.seq_ms_p50", "ms"),
    ("serve.cover_ms_p50", "ms"),
    ("serve.io_overhead_us_p50", "us"),
    ("serve.context_cold_s", "s"),
    // scenario and par: per-shard time and worker occupancy.
    ("scenario.shard_ms_p50", "ms"),
    ("scenario.shard_ms_p99", "ms"),
    ("scenario.ball_sweeps", "count"),
    ("par.busy_frac", "ratio"),
    // journal and snapshot_codec: append (encode + write + fsync), size,
    // replay on resume.
    ("journal.append_us_p50", "us"),
    ("journal.append_us_p99", "us"),
    ("journal.bytes", "bytes"),
    ("journal.replay_s", "s"),
    // The trace itself.
    ("trace_overhead", "ratio"),
    ("trace.solve_s", "s"),
    ("trace.coverage", "ratio"),
];

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (solves, queries or shards).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// One line per failed check, printed to standard error.
    pub failures: Vec<String>,
    /// Metric values by name; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Whether the run reports the per-layer metrics.
    pub traced: bool,
}

impl Outcome {
    /// A fresh outcome for a run in the given mode.
    pub fn new(traced: bool) -> Self {
        Outcome {
            traced,
            ..Outcome::default()
        }
    }

    /// Records one attempted operation; `problem` names what went wrong, if
    /// anything.
    pub fn op(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            self.failures.push(problem);
        }
    }

    /// Records a failed check that is not tied to one operation (the check
    /// still makes the run incorrect).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Sets a metric. Panics on a name neither list knows, which would be a
    /// bug in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Adds to a metric (starting from 0).
    pub fn add(&mut self, name: &'static str, value: f64) {
        let sum = self.metrics.get(name).copied().unwrap_or(0.0) + value;
        self.set(name, sum);
    }

    /// Sets the end-to-end metrics from a run's figures: the median set-up
    /// and pass times, the peak RSS, and the pass's sums. `ok_rate` and
    /// `error_rate` come from the operations recorded so far.
    pub fn end_to_end(
        &mut self,
        setup: &[f64],
        passes: &[f64],
        peak_rss_mb: f64,
        sums: (usize, usize, usize),
    ) {
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("setup_s", median(setup));
        self.set("solve_s", median(passes));
        self.set("peak_rss_mb", peak_rss_mb);
        self.set("ok_rate", 1.0 - error_rate);
        self.set("error_rate", error_rate);
        self.set("set_size", sums.0 as f64);
        self.set("rounds", sums.1 as f64);
        self.set("wire_bits", sums.2 as f64);
    }

    /// Whether every operation and check passed.
    pub fn is_clean(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The result line. End-to-end metrics must all have been set; a
    /// per-layer metric the workload never set reads 0.
    pub fn to_json(&self) -> String {
        let list: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        let mut fields = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if self.traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.is_clean(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Runs `generate` `repeats` times (at least once), dropping each result
/// before the next, and returns the last result with every run's seconds.
pub fn repeat_setup<T>(repeats: usize, mut generate: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut secs = Vec::with_capacity(repeats);
    let mut timed = || {
        let t = std::time::Instant::now();
        let value = std::hint::black_box(generate());
        secs.push(t.elapsed().as_secs_f64());
        value
    };
    let mut value = timed();
    for _ in 1..repeats {
        drop(value);
        value = timed();
    }
    (value, secs)
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `(0, 1]`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or_else(|| format!("{path} has no VmHWM line"))?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// A scratch directory inside the checkout for the files a workload writes
/// (the serve graph, batch journals, span dumps). Created on demand.
pub fn work_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::PathBuf::from("perfbench/work");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 100.0);
        assert_eq!(percentile(&values, 0.95), 190.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
