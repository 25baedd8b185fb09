//! The machine-readable report of a bench binary.
//!
//! Every bench in `crates/bench/benches` collects its timings and scalar
//! facts here and calls [`write_json_report`] at the end of its `main`. When
//! the `BEDOM_BENCH_JSON` environment variable names a file, the report is
//! written there as JSON: a `benchmarks` array of
//! `{id, min_ns, median_ns, max_ns}` rows, one per [`time_samples`] call, and
//! a `metrics` object of the numbers passed to [`record_metric`]. The
//! committed `BENCH_*.json` files at the repository root are such reports.

use std::hint::black_box;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One sampled timing: the fastest, median and slowest sample.
#[derive(Debug)]
struct TimingRow {
    id: String,
    min: Duration,
    median: Duration,
    max: Duration,
}

impl TimingRow {
    /// Summarises a non-empty sample set. The median is `sorted[len / 2]`,
    /// the upper median for an even count.
    fn from_samples(id: &str, mut samples: Vec<Duration>) -> Self {
        samples.sort_unstable();
        TimingRow {
            id: id.to_owned(),
            min: samples[0],
            median: samples[samples.len() / 2],
            max: samples[samples.len() - 1],
        }
    }
}

/// Timings and metrics collected by the current bench binary.
#[derive(Debug)]
struct Report {
    benchmarks: Vec<TimingRow>,
    metrics: Vec<(String, f64)>,
}

static REPORT: Mutex<Report> = Mutex::new(Report {
    benchmarks: Vec::new(),
    metrics: Vec::new(),
});

fn report() -> MutexGuard<'static, Report> {
    REPORT
        .lock()
        .expect("a bench thread panicked while holding the report lock")
}

/// Records a named scalar fact (an allocation count, a ratio, an instance
/// size). The last write of a name wins.
pub fn record_metric(name: &str, value: f64) {
    let mut report = report();
    if let Some(entry) = report.metrics.iter_mut().find(|(n, _)| n == name) {
        entry.1 = value;
    } else {
        report.metrics.push((name.to_owned(), value));
    }
}

/// Calls `f` once to warm up, then `samples` more times under the clock, and
/// records the row `{id, min_ns, median_ns, max_ns}` over those samples.
/// Each output is dropped off the clock before the next call, so no run
/// shares the heap with an earlier run's result. Returns the last sample's
/// output, for the caller's checks, and the median in seconds.
pub fn time_samples<O>(id: &str, samples: usize, mut f: impl FnMut() -> O) -> (O, f64) {
    assert!(samples > 0, "{id}: a timing needs at least one sample");
    drop(f());
    let mut durations = Vec::with_capacity(samples);
    let mut output = None;
    for _ in 0..samples {
        drop(output.take());
        let start = Instant::now();
        let out = black_box(f());
        durations.push(start.elapsed());
        output = Some(out);
    }
    let median = record_samples(id, durations);
    let output = output.expect("the sample loop ran at least once");
    (output, median)
}

/// Records the row `{id, min_ns, median_ns, max_ns}` over samples the caller
/// timed itself (a bench that runs several variants back to back within
/// each sample) and returns their median in seconds.
pub fn record_samples(id: &str, samples: Vec<Duration>) -> f64 {
    assert!(
        !samples.is_empty(),
        "{id}: a timing needs at least one sample"
    );
    let row = TimingRow::from_samples(id, samples);
    println!(
        "  {id:<40} time: [{:.2?} {:.2?} {:.2?}]",
        row.min, row.median, row.max
    );
    let median = row.median.as_secs_f64();
    report().benchmarks.push(row);
    median
}

/// Writes every row and metric collected so far to the file named by the
/// `BEDOM_BENCH_JSON` environment variable; does nothing when it is unset.
pub fn write_json_report() {
    let Ok(path) = std::env::var("BEDOM_BENCH_JSON") else {
        return;
    };
    let json = render_json(&report());
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("bedom-bench: failed to write {path}: {e}");
    } else {
        println!("bedom-bench: wrote JSON report to {path}");
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, b) in report.benchmarks.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"max_ns\": {}}}{}\n",
            json_escape(&b.id),
            b.min.as_nanos(),
            b.median.as_nanos(),
            b.max.as_nanos(),
            if i + 1 < report.benchmarks.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  ],\n  \"metrics\": {\n");
    for (i, (name, value)) in report.metrics.iter().enumerate() {
        // JSON has no NaN/Infinity literals; degrade non-finite metrics to
        // null rather than emitting an unparseable file.
        let rendered = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_owned()
        };
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            json_escape(name),
            rendered,
            if i + 1 < report.metrics.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_renders_rows_and_metrics() {
        let report = Report {
            benchmarks: vec![TimingRow {
                id: "group/case \"quoted\"\n".into(),
                min: Duration::from_nanos(10),
                median: Duration::from_nanos(20),
                max: Duration::from_nanos(30),
            }],
            metrics: vec![
                ("allocs".into(), 42.0),
                ("speedup".into(), 3.5),
                ("bad-ratio".into(), f64::INFINITY),
            ],
        };
        let json = render_json(&report);
        assert!(json.contains("\"id\": \"group/case \\\"quoted\\\"\\u000a\""));
        assert!(json.contains("\"min_ns\": 10, \"median_ns\": 20, \"max_ns\": 30}"));
        assert!(json.contains("\"allocs\": 42"));
        assert!(json.contains("\"speedup\": 3.5,"));
        assert!(json.contains("\"bad-ratio\": null"));
        assert!(!json.contains("inf"));
        // Well-formed: one benchmarks array, one metrics object, no trailing
        // comma before a closing bracket.
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n  }"));
    }

    #[test]
    fn record_metric_overwrites_duplicates() {
        record_metric("report-self-test-metric", 1.0);
        record_metric("report-self-test-metric", 2.0);
        let report = report();
        let hits: Vec<_> = report
            .metrics
            .iter()
            .filter(|(n, _)| n == "report-self-test-metric")
            .collect();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].1, 2.0);
    }

    #[test]
    fn time_samples_warms_up_once_and_records_one_row() {
        let mut calls = 0;
        let (last, median) = time_samples("report-self-test-timing", 5, || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 6, "one warm-up call and five samples");
        assert_eq!(last, 6, "the last sample's output is returned");
        let report = report();
        let rows: Vec<_> = report
            .benchmarks
            .iter()
            .filter(|row| row.id == "report-self-test-timing")
            .collect();
        assert_eq!(rows.len(), 1);
        let row = rows[0];
        assert!(row.min <= row.median && row.median <= row.max);
        assert_eq!(median, row.median.as_secs_f64());
    }

    #[test]
    fn the_median_is_the_upper_middle_sample() {
        let ms = Duration::from_millis;
        let row = TimingRow::from_samples("odd", vec![ms(5), ms(1), ms(4)]);
        assert_eq!((row.min, row.median, row.max), (ms(1), ms(4), ms(5)));
        // sorted = [1, 2, 4, 5]: sorted[len / 2] is 4, not the mean 3.
        let row = TimingRow::from_samples("even", vec![ms(5), ms(1), ms(4), ms(2)]);
        assert_eq!((row.min, row.median, row.max), (ms(1), ms(4), ms(5)));
    }
}
