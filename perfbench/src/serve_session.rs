//! `serve-session`: the `serve` binary as a child process on a 5k planar
//! triangulation written to an edge-list file, driven by one closed-loop
//! client over its line protocol.
//!
//! Set-up writes the file, spawns the child, checks the `ready` banner and
//! sends one warm-up query of each of the eight kinds (which elects the two
//! cached contexts). The measured pass is a seeded stream with every kind
//! equally often, each query timed from writing the line to reading the
//! reply. The traced run replays the stream in-process through the library
//! calls `serve` makes, one span each, and must reproduce every reply.

use crate::inputs::{query_stream, serve_graph, Seeds, QUERY_KINDS};
use crate::stats::{median, peak_rss_mb, percentile, work_dir, Outcome};
use crate::trace::Tracer;
use crate::Args;
use bedom_core::{
    distributed_distance_domination_in, distributed_ksv_domination_r_in_with,
    distributed_neighborhood_cover_in, DistContext, DistContextConfig, DominationPipeline,
    KsvConfig,
};
use bedom_graph::domset::is_distance_dominating_set;
use bedom_graph::{Graph, Vertex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Child start-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Queries of each kind in one pass: 8 × 25 = 200 samples, so the 95th
/// percentile has 10 samples beyond it.
const PER_KIND: usize = 25;
/// The seed `serve` uses for `alg=seq` when started without `--seed`.
const SERVE_DEFAULT_SEED: u64 = 0x5eed;

/// A running `serve` child.
struct Session {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Session {
    /// Spawns `serve --graph <path>` and returns it with its banner line.
    fn spawn(bin: &Path, graph: &Path) -> Result<(Session, String), String> {
        let mut child = Command::new(bin)
            .arg("--graph")
            .arg(graph)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().ok_or("serve has no stdin pipe")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("serve has no stdout pipe")?);
        let mut session = Session {
            child,
            stdin,
            stdout,
        };
        let banner = session.read_line()?;
        Ok((session, banner))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve closed its output".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("reading from serve: {e}")),
        }
    }

    /// Sends one query and returns the reply with its client-side latency
    /// in seconds.
    fn query(&mut self, line: &str) -> Result<(String, f64), String> {
        let started = Instant::now();
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("writing to serve: {e}"))?;
        let reply = self.read_line()?;
        Ok((reply, started.elapsed().as_secs_f64()))
    }

    /// Peak RSS of the child, read before it exits.
    fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(Some(self.child.id()))
    }

    /// Sends `quit` and waits for the child to exit.
    fn quit(mut self) -> Result<(), String> {
        let (reply, _) = self.query("quit")?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for serve: {e}"))?;
        if reply != "ok bye" || !status.success() {
            return Err(format!("serve quit with {reply:?} and {status}"));
        }
        Ok(())
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        // A session that already quit has exited; killing it again is a
        // harmless error. Either way the child is reaped here.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The value of `key=` in a reply.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|t| t.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
}

fn count(reply: &str, key: &str) -> usize {
    field(reply, key).and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// A reply without its timing field, for exact comparisons.
fn without_micros(reply: &str) -> String {
    reply
        .split_whitespace()
        .filter(|t| !t.starts_with("micros="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Checks one reply to `query`; `None` when it is good.
fn check_reply(query: &str, reply: &str) -> Option<String> {
    let echo = format!("ok {query} ");
    if !reply.starts_with(&echo) {
        return Some(format!("{query:?} answered {reply:?}"));
    }
    if query.starts_with("domset") && field(reply, "verified") != Some("true") {
        return Some(format!("{query:?} was not verified: {reply:?}"));
    }
    if field(reply, "micros")
        .and_then(|v| v.parse::<u64>().ok())
        .is_none()
    {
        return Some(format!("{query:?} has no micros= field: {reply:?}"));
    }
    None
}

/// Runs the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let seeds = Seeds::of(args.seed);
    let mut out = Outcome::new(args.trace);
    let graph_path = work_dir()?.join(format!("serve-{}-{}.txt", args.seed, std::process::id()));
    let bin = std::env::current_exe()
        .map_err(|e| format!("locating this binary: {e}"))?
        .with_file_name("serve");

    // Set-up, several times: generate and write the graph, start the child,
    // check its banner, send the warm-up queries.
    let mut setup = Vec::with_capacity(SETUP_REPEATS);
    let mut current: Option<(Session, Vec<(String, f64)>)> = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((session, _)) = current.take() {
            session.quit()?;
        }
        let started = Instant::now();
        let graph = serve_graph(&seeds);
        bedom_graph::io::write_graph_file(&graph, &graph_path)
            .map_err(|e| format!("writing {}: {e}", graph_path.display()))?;
        let (mut session, banner) = Session::spawn(&bin, &graph_path)?;
        let mut warm = Vec::with_capacity(QUERY_KINDS.len());
        for kind in QUERY_KINDS {
            warm.push(session.query(kind)?);
        }
        setup.push(started.elapsed().as_secs_f64());
        let expected = (graph.num_vertices(), graph.num_edges());
        let got = (count(&banner, "n"), count(&banner, "m"));
        out.check(banner.starts_with("ready ") && got == expected, || {
            format!("banner {banner:?} does not match the graph (n, m) = {expected:?}")
        });
        current = Some((session, warm));
    }
    let (mut session, warm) = current.expect("SETUP_REPEATS is positive");

    // The reference answer of each kind is its warm-up reply; every later
    // reply of that kind must match it exactly (cached contexts must not
    // change answers).
    let reference: Vec<String> = warm
        .iter()
        .map(|(reply, _)| without_micros(reply))
        .collect();
    for (kind, (reply, _)) in QUERY_KINDS.iter().zip(&warm) {
        out.check(check_reply(kind, reply).is_none(), || {
            format!("warm-up {kind:?} answered {reply:?}")
        });
    }
    // The two warm-up queries that elect a context: the first at each radius.
    let context_cold_s = warm[0].1 + warm[1].1;

    let stream = query_stream(&seeds, PER_KIND);
    let mut replies: Vec<(usize, String, f64)> = Vec::with_capacity(stream.len());
    let mut pass_secs = Vec::new();
    let budget_start = Instant::now();
    loop {
        let started = Instant::now();
        let first_pass = pass_secs.is_empty();
        for &kind in &stream {
            let (reply, secs) = session.query(QUERY_KINDS[kind])?;
            if first_pass {
                replies.push((kind, reply, secs));
            } else {
                let same = without_micros(&reply) == reference[kind];
                out.check(same, || format!("repeat pass: {reply:?} differs"));
            }
        }
        pass_secs.push(started.elapsed().as_secs_f64());
        if budget_start.elapsed().as_secs_f64() + median(&pass_secs) > args.seconds {
            break;
        }
    }
    let rss = session.peak_rss_mb()?;
    session.quit()?;

    let (mut set_size, mut rounds, mut bits) = (0usize, 0usize, 0usize);
    for (kind, reply, _) in &replies {
        let query = QUERY_KINDS[*kind];
        let problem = check_reply(query, reply).or_else(|| {
            (without_micros(reply) != reference[*kind]).then(|| {
                format!(
                    "{query:?} answered {reply:?}, warm-up said {:?}",
                    reference[*kind]
                )
            })
        });
        set_size += count(reply, "size");
        rounds += count(reply, "rounds");
        bits += count(reply, "bits");
        out.op(problem);
    }

    let untraced_solve_s = median(&pass_secs);
    out.end_to_end(&setup, &pass_secs, rss, (set_size, rounds, bits));

    if args.trace {
        let ms: Vec<f64> = replies.iter().map(|(_, _, s)| s * 1e3).collect();
        out.set("query_p50_ms", percentile(&ms, 0.5));
        out.set("query_p95_ms", percentile(&ms, 0.95));
        out.set("query_samples", ms.len() as f64);
        for (alg, metric) in [
            ("alg=order", "serve.order_ms_p50"),
            ("alg=ksv", "serve.ksv_ms_p50"),
            ("alg=seq", "serve.seq_ms_p50"),
            ("cover", "serve.cover_ms_p50"),
        ] {
            let of_alg: Vec<f64> = replies
                .iter()
                .filter(|(k, _, _)| QUERY_KINDS[*k].contains(alg))
                .map(|(_, _, s)| s * 1e3)
                .collect();
            out.set(metric, percentile(&of_alg, 0.5));
        }
        let overhead_us: Vec<f64> = replies
            .iter()
            .map(|(_, reply, s)| s * 1e6 - count(reply, "micros") as f64)
            .collect();
        out.set("serve.io_overhead_us_p50", percentile(&overhead_us, 0.5));
        out.set("serve.context_cold_s", context_cold_s);
        traced_replay(
            &mut out,
            &graph_path,
            &stream,
            &reference,
            untraced_solve_s,
            args,
        )?;
    }
    let _ = std::fs::remove_file(&graph_path);
    Ok(out)
}

/// `serve`'s per-radius context cache, as in the binary.
fn context_for<'c, 'g>(
    contexts: &'c mut BTreeMap<u32, DistContext<'g>>,
    graph: &'g Graph,
    r: u32,
    tr: &mut Tracer,
) -> Result<&'c DistContext<'g>, String> {
    match contexts.entry(2 * r) {
        std::collections::btree_map::Entry::Occupied(cached) => Ok(cached.into_mut()),
        std::collections::btree_map::Entry::Vacant(slot) => {
            let ctx = tr
                .span("wcol.order", |_| {
                    DistContext::elect(graph, DistContextConfig::for_domination(r))
                })
                .map_err(|v| format!("context election violated the model: {v}"))?;
            Ok(slot.insert(ctx))
        }
    }
}

/// A reply line (without `micros=`) and, for `domset`, the set and radius.
type Answer = (String, Option<(Vec<Vertex>, u32)>);

/// Answers one query kind in-process with the calls `serve` makes, in the
/// reply format `serve` prints (without `micros=`), and checks every
/// dominating set by BFS the first time its kind is seen.
fn answer<'g>(
    kind: &str,
    graph: &'g Graph,
    contexts: &mut BTreeMap<u32, DistContext<'g>>,
    tr: &mut Tracer,
) -> Result<Answer, String> {
    let r: u32 = field(kind, "r")
        .and_then(|v| v.parse().ok())
        .ok_or("query without r")?;
    let violated = |v: bedom_distsim::ModelViolation| format!("{kind}: {v}");
    if kind.starts_with("cover") {
        let ctx = context_for(contexts, graph, r, tr)?;
        let cover = tr
            .span("dist_cover.cover", |_| {
                distributed_neighborhood_cover_in(ctx, r)
            })
            .map_err(violated)?;
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
        let reply = format!(
            "ok cover r={r} clusters={nonempty} max_cluster={largest} constant={} \
             rounds={} bits={bits} max_bits={max_bits}",
            cover.measured_constant,
            cover.total_rounds(),
        );
        return Ok((reply, None));
    }
    match field(kind, "alg") {
        Some("seq") => {
            let report = tr
                .span("seq_domset.solve", |_| {
                    DominationPipeline::new(r)
                        .seed(SERVE_DEFAULT_SEED)
                        .solve(graph)
                })
                .map_err(violated)?;
            let reply = format!(
                "ok domset r={r} alg=seq size={} constant={} verified={} \
                 rounds=0 bits=0 max_bits=0",
                report.dominating_set.len(),
                report.witnessed_constant,
                report.election_verified,
            );
            Ok((reply, Some((report.dominating_set, r))))
        }
        Some("order") => {
            let ctx = context_for(contexts, graph, r, tr)?;
            tr.span("dist_wreach.protocol", |_| ctx.wreach().map(|_| ()))
                .map_err(violated)?;
            let result = tr
                .span("dist_domset.election", |_| {
                    distributed_distance_domination_in(ctx, r)
                })
                .map_err(violated)?;
            tr.span("context.index", |_| {
                std::hint::black_box(ctx.index());
            });
            let (constant, expected) = tr.span("context.reads", |_| {
                (ctx.witnessed_constant(2 * r), ctx.expected_election(r))
            });
            let verified = result.dominator_of == expected.map_err(violated)?;
            let bits: usize = result.phase_stats.iter().map(|s| s.total_bits).sum();
            let reply = format!(
                "ok domset r={r} alg=order size={} constant={} verified={verified} \
                 rounds={} bits={bits} max_bits={}",
                result.dominating_set.len(),
                constant.map_err(violated)?,
                result.total_rounds(),
                result.max_message_bits(),
            );
            Ok((reply, Some((result.dominating_set, r))))
        }
        Some("ksv") => {
            let ctx = context_for(contexts, graph, r, tr)?;
            let report = tr
                .span("dist_ksv.protocol", |_| {
                    distributed_ksv_domination_r_in_with(ctx, r, KsvConfig::for_radius(r))
                })
                .map_err(violated)?;
            let reply = format!(
                "ok domset r={r} alg=ksv size={} constant={} verified={} hubs={} \
                 rounds={} bits={} max_bits={}",
                report.result.dominating_set.len(),
                report.witnessed_constant,
                report.verified,
                report.result.high_degree.len(),
                report.result.rounds,
                report.result.stats.total_bits,
                report.result.stats.max_message_bits,
            );
            Ok((reply, Some((report.result.dominating_set, r))))
        }
        _ => Err(format!("unknown query {kind:?}")),
    }
}

fn traced_replay(
    out: &mut Outcome,
    graph_path: &Path,
    stream: &[usize],
    reference: &[String],
    untraced_solve_s: f64,
    args: &Args,
) -> Result<(), String> {
    let graph = bedom_graph::io::read_graph_file(graph_path)
        .map_err(|e| format!("reading {}: {e}", graph_path.display()))?;
    let mut contexts: BTreeMap<u32, DistContext<'_>> = BTreeMap::new();
    // The warm-up, untraced, as in the session's set-up.
    let mut scratch = Tracer::new();
    for (k, kind) in QUERY_KINDS.iter().enumerate() {
        let (reply, set) = answer(kind, &graph, &mut contexts, &mut scratch)?;
        out.check(reply == reference[k], || {
            format!(
                "in-process {kind:?} gave {reply:?}, serve said {:?}",
                reference[k]
            )
        });
        if let Some((set, r)) = set {
            out.check(is_distance_dominating_set(&graph, &set, r), || {
                format!("{kind:?}: the set does not dominate")
            });
        }
    }
    let mut tr = Tracer::new();
    let mut replies = Vec::with_capacity(stream.len());
    tr.span("pass", |tr| -> Result<(), String> {
        for &k in stream {
            let reply = tr.span("query", |tr| {
                answer(QUERY_KINDS[k], &graph, &mut contexts, tr)
            })?;
            replies.push((k, reply.0));
        }
        Ok(())
    })?;
    for (k, reply) in replies {
        out.check(reply == reference[k], || {
            format!(
                "in-process replay gave {reply:?}, serve said {:?}",
                reference[k]
            )
        });
    }
    crate::trace::layer_metrics(out, &tr, untraced_solve_s);
    tr.write_jsonl(
        &work_dir()?.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        &args.workload,
        args.seed,
    )
}
