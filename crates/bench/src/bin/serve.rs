//! Long-lived domination server — the "load once, query many times" shape.
//!
//! Loads (or generates) one graph at startup, then answers repeated
//! domination and cover queries over a line-oriented stdin/stdout protocol.
//! The expensive distributed precompute — the order election, the
//! weak-reachability protocol, the index sweep — lives in per-radius
//! [`DistContext`]s that are elected on first use and **cached**, so the
//! second query at a radius pays only the protocol phases, not the context.
//!
//! ```text
//! cargo run --release -p bedom-bench --bin serve -- --family grid --n 400 --seed 7
//! cargo run --release -p bedom-bench --bin serve -- --graph instances/foo.txt
//! ```
//!
//! Protocol (one request per line, one `ok ...` / `err ...` reply per line):
//!
//! ```text
//! domset r=<r> [alg=ksv|order|seq] [hub_cap=<k>] [threshold=<t>]
//! cover r=<r>
//! info
//! quit
//! ```
//!
//! Every `ok` reply carries per-query metrics (`rounds=`, `bits=`,
//! `max_bits=`, `micros=`). Unknown commands and bad arguments answer
//! `err <reason>` and keep the session alive; `quit` (or EOF) exits cleanly.
//! Lines starting with `#` and blank lines are ignored, so a scripted
//! session can be piped straight in.

use bedom_core::{
    distributed_distance_domination_in, distributed_ksv_domination_r_in_with,
    distributed_neighborhood_cover_in, DistContext, DistContextConfig, DominationPipeline,
    KsvConfig,
};
use bedom_graph::generators::Family;
use bedom_graph::Graph;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut family = "grid".to_string();
    let mut n: usize = 400;
    let mut seed: u64 = 0x5eed;
    let mut graph_path: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| {
                    eprintln!("serve: {name} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match flag.as_str() {
            "--family" => family = value("--family"),
            "--n" => {
                n = value("--n").parse().unwrap_or_else(|_| {
                    eprintln!("serve: --n needs an unsigned integer");
                    std::process::exit(2);
                })
            }
            "--seed" => {
                seed = value("--seed").parse().unwrap_or_else(|_| {
                    eprintln!("serve: --seed needs an unsigned integer");
                    std::process::exit(2);
                })
            }
            "--graph" => graph_path = Some(value("--graph")),
            other => {
                eprintln!(
                    "serve: unknown flag {other}\n\
                     usage: serve [--family <name> --n <n> --seed <s>] [--graph <path>]"
                );
                std::process::exit(2);
            }
        }
    }

    let (graph, source) = match graph_path {
        Some(path) => {
            let graph = bedom_graph::io::read_graph_file(std::path::Path::new(&path))
                .unwrap_or_else(|e| {
                    eprintln!("serve: cannot read {path}: {e}");
                    std::process::exit(2);
                });
            (graph, path)
        }
        None => {
            let fam = Family::ALL
                .into_iter()
                .find(|f| f.name() == family)
                .unwrap_or_else(|| {
                    let names: Vec<&str> = Family::ALL.iter().map(|f| f.name()).collect();
                    eprintln!(
                        "serve: unknown family {family}; one of: {}",
                        names.join(", ")
                    );
                    std::process::exit(2);
                });
            (
                fam.generate(n, seed),
                format!("{family}(n={n},seed={seed})"),
            )
        }
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut reply = |line: String| {
        writeln!(out, "{line}")
            .and_then(|()| out.flush())
            .unwrap_or_else(|_| {
                // Reader hung up: nothing sensible left to serve.
                std::process::exit(0);
            });
    };
    reply(format!(
        "ready source={source} n={} m={}",
        graph.num_vertices(),
        graph.num_edges()
    ));

    // Per-radius context cache: key = the context's reach radius (2r for
    // domination and cover queries). Repeated queries at a radius reuse the
    // elected order, the weak-reachability run and the index sweep.
    let mut contexts: BTreeMap<u32, DistContext<'_>> = BTreeMap::new();

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let started = Instant::now();
        let mut tokens = line.split_whitespace();
        let command = tokens.next().unwrap_or("");
        let rest: Vec<&str> = tokens.collect();
        match command {
            "quit" => {
                reply("ok bye".to_string());
                return;
            }
            "info" => {
                let radii: Vec<String> = contexts.keys().map(|r| r.to_string()).collect();
                reply(format!(
                    "ok info source={source} n={} m={} contexts={} radii=[{}]",
                    graph.num_vertices(),
                    graph.num_edges(),
                    contexts.len(),
                    radii.join(",")
                ));
            }
            "domset" => {
                let answer = query_domset(&graph, &mut contexts, seed, &rest, started);
                reply(answer);
            }
            "cover" => {
                let answer = query_cover(&graph, &mut contexts, &rest, started);
                reply(answer);
            }
            other => reply(format!("err unknown command {other}")),
        }
    }
    reply("ok bye".to_string());
}

/// `key=value` lookup over a query's argument tokens.
fn arg<'a>(rest: &[&'a str], key: &str) -> Option<&'a str> {
    rest.iter()
        .find_map(|t| t.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
}

/// The query's radius. Every query path doubles it — contexts reach `2r`
/// and the sequential solve orders at `2r` — and the library's connected
/// variants reach `2r + 1`, so a radius whose `2r + 1` overflows `u32` is
/// refused before any context is touched.
fn parse_radius(rest: &[&str]) -> Result<u32, String> {
    let Some(raw) = arg(rest, "r") else {
        return Err("err missing r=<radius>".to_string());
    };
    let r: u32 = raw
        .parse()
        .map_err(|_| format!("err r={raw} is not a radius"))?;
    match r.checked_mul(2).and_then(|reach| reach.checked_add(1)) {
        Some(_) => Ok(r),
        None => Err(format!("err r={r} is out of range")),
    }
}

/// The cached context at reach radius `2r`, electing it on first use.
fn context_for<'c, 'g>(
    contexts: &'c mut BTreeMap<u32, DistContext<'g>>,
    graph: &'g Graph,
    r: u32,
) -> Result<&'c DistContext<'g>, String> {
    match contexts.entry(2 * r) {
        std::collections::btree_map::Entry::Occupied(cached) => Ok(cached.into_mut()),
        std::collections::btree_map::Entry::Vacant(slot) => {
            let ctx = DistContext::elect(graph, DistContextConfig::for_domination(r))
                .map_err(|v| format!("err context election violated the model: {v}"))?;
            Ok(slot.insert(ctx))
        }
    }
}

fn query_domset<'g>(
    graph: &'g Graph,
    contexts: &mut BTreeMap<u32, DistContext<'g>>,
    seed: u64,
    rest: &[&str],
    started: Instant,
) -> String {
    let r = match parse_radius(rest) {
        Ok(r) => r,
        Err(e) => return e,
    };
    let alg = arg(rest, "alg").unwrap_or("ksv");
    match alg {
        "seq" => {
            let report = match DominationPipeline::new(r).seed(seed).solve(graph) {
                Ok(report) => report,
                Err(v) => return format!("err sequential solve failed: {v}"),
            };
            format!(
                "ok domset r={r} alg=seq size={} constant={} verified={} \
                 rounds=0 bits=0 max_bits=0 micros={}",
                report.dominating_set.len(),
                report.witnessed_constant,
                report.election_verified,
                started.elapsed().as_micros()
            )
        }
        "order" => {
            if r == 0 {
                return "err alg=order needs r >= 1 (use alg=seq for r=0)".to_string();
            }
            let ctx = match context_for(contexts, graph, r) {
                Ok(ctx) => ctx,
                Err(e) => return e,
            };
            let result = match distributed_distance_domination_in(ctx, r) {
                Ok(result) => result,
                Err(v) => return format!("err order-based solve violated the model: {v}"),
            };
            let constant = match ctx.witnessed_constant(2 * r) {
                Ok(c) => c,
                Err(v) => return format!("err witnessed-constant read failed: {v}"),
            };
            let verified = match ctx.expected_election(r) {
                Ok(expected) => result.dominator_of == expected,
                Err(v) => return format!("err election verification failed: {v}"),
            };
            let bits: usize = result.phase_stats.iter().map(|s| s.total_bits).sum();
            format!(
                "ok domset r={r} alg=order size={} constant={constant} verified={verified} \
                 rounds={} bits={bits} max_bits={} micros={}",
                result.dominating_set.len(),
                result.total_rounds(),
                result.max_message_bits(),
                started.elapsed().as_micros()
            )
        }
        "ksv" => {
            if r == 0 {
                return "err alg=ksv needs r >= 1 (use alg=seq for r=0)".to_string();
            }
            let mut config = KsvConfig::for_radius(r);
            if let Some(raw) = arg(rest, "threshold") {
                config.threshold = match raw.parse() {
                    Ok(t) => t,
                    Err(_) => return format!("err threshold={raw} is not an integer"),
                };
            }
            if let Some(raw) = arg(rest, "hub_cap") {
                config.hub_cap = match raw.parse() {
                    Ok(k) => Some(k),
                    Err(_) => return format!("err hub_cap={raw} is not an integer"),
                };
            }
            let ctx = match context_for(contexts, graph, r) {
                Ok(ctx) => ctx,
                Err(e) => return e,
            };
            let report = match distributed_ksv_domination_r_in_with(ctx, r, config) {
                Ok(report) => report,
                Err(v) => return format!("err ksv solve violated the model: {v}"),
            };
            format!(
                "ok domset r={r} alg=ksv size={} constant={} verified={} hubs={} \
                 rounds={} bits={} max_bits={} micros={}",
                report.result.dominating_set.len(),
                report.witnessed_constant,
                report.verified,
                report.result.high_degree.len(),
                report.result.rounds,
                report.result.stats.total_bits,
                report.result.stats.max_message_bits,
                started.elapsed().as_micros()
            )
        }
        other => format!("err unknown alg {other} (ksv|order|seq)"),
    }
}

fn query_cover<'g>(
    graph: &'g Graph,
    contexts: &mut BTreeMap<u32, DistContext<'g>>,
    rest: &[&str],
    started: Instant,
) -> String {
    let r = match parse_radius(rest) {
        Ok(r) => r,
        Err(e) => return e,
    };
    if r == 0 {
        return "err cover needs r >= 1".to_string();
    }
    let ctx = match context_for(contexts, graph, r) {
        Ok(ctx) => ctx,
        Err(e) => return e,
    };
    let cover = match distributed_neighborhood_cover_in(ctx, r) {
        Ok(cover) => cover,
        Err(v) => return format!("err cover violated the model: {v}"),
    };
    let clusters = cover.collect_clusters(graph.num_vertices());
    let nonempty = clusters.iter().filter(|c| !c.is_empty()).count();
    let largest = clusters.iter().map(Vec::len).max().unwrap_or(0);
    let bits: usize = cover.phase_stats.iter().map(|s| s.total_bits).sum();
    let max_bits = cover
        .phase_stats
        .iter()
        .map(|s| s.max_message_bits)
        .max()
        .unwrap_or(0);
    format!(
        "ok cover r={r} clusters={nonempty} max_cluster={largest} constant={} \
         rounds={} bits={bits} max_bits={max_bits} micros={}",
        cover.measured_constant,
        cover.total_rounds(),
        started.elapsed().as_micros()
    )
}
