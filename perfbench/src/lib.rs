//! The bedom benchmark: four workloads over the Theorem 9 pipeline, the
//! constant-round KSV protocols, the `serve` binary and the journaled batch
//! runner, each timed from outside through the library's public calls.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` the per-layer ones,
//! taken from a traced pass that runs after an untraced one (see README.md).
//! Any correctness-gate failure makes the exit code nonzero.

pub mod batch;
pub mod headline;
pub mod inputs;
pub mod serve_session;
pub mod stats;
pub mod trace;

use stats::Outcome;
use std::process::ExitCode;

/// The workloads, in the order README.md describes them.
pub const WORKLOADS: [&str; 4] = [
    "t9-headline",
    "ksv-headline",
    "serve-session",
    "batch-journal",
];

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name, one of [`WORKLOADS`].
    pub workload: String,
    /// Input seed; 0 reproduces the legacy instances.
    pub seed: u64,
    /// Measurement budget: passes repeat while another one fits (at least
    /// one pass always runs).
    pub seconds: f64,
    /// Whether this run reports the per-layer metrics.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = value.to_string(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Entry point of both binaries. `counting_allocator` says whether the
/// calling binary installed [`trace::CountingAlloc`]; the plain binary hands
/// a traced run over to its counting sibling so allocation counts exist only
/// where tracing is on.
pub fn run(counting_allocator: bool) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.trace && !counting_allocator {
        return hand_over_to_traced_binary(&raw);
    }
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let outcome = match args.workload.as_str() {
        "t9-headline" => headline::run(&args, headline::Protocol::Theorem9),
        "ksv-headline" => headline::run(&args, headline::Protocol::Ksv),
        "serve-session" => serve_session::run(&args),
        "batch-journal" => batch::run(&args),
        _ => unreachable!("parse_args checked the workload"),
    };
    finish(outcome)
}

fn finish(outcome: Result<Outcome, String>) -> ExitCode {
    match outcome {
        Ok(outcome) => {
            for failure in &outcome.failures {
                eprintln!("perfbench: FAILED {failure}");
            }
            println!("{}", outcome.to_json());
            if outcome.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn hand_over_to_traced_binary(raw: &[String]) -> ExitCode {
    let traced = match std::env::current_exe() {
        Ok(exe) => exe.with_file_name("perfbench-traced"),
        Err(e) => {
            eprintln!("perfbench: cannot locate the traced binary: {e}");
            return ExitCode::from(1);
        }
    };
    match std::process::Command::new(&traced).args(raw).status() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(_) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: cannot run {}: {e}", traced.display());
            ExitCode::from(1)
        }
    }
}
