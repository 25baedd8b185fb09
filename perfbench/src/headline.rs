//! `t9-headline` and `ksv-headline`: four solves per pass (100k planar
//! triangulation and 100k configuration model, at r = 1 and r = 2), under
//! the Theorem 9 pipeline or the standalone distance-r KSV protocol, both
//! pinned to `Sequential` execution.
//!
//! The untraced pass calls `DominationPipeline::solve` (Theorem 9) or
//! `distributed_ksv_domination_r` (KSV) once per instance. The traced pass
//! makes the calls `solve` makes, one span each — `packing_lower_bound`,
//! `DistContext::elect`, `wreach`, `distributed_distance_domination_in`,
//! `index`, the index reads, dropping the context — and must rebuild the
//! identical `DominationReport`.

use crate::inputs::{headline_instances, Seeds};
use crate::stats::{median, peak_rss_mb, repeat_setup, work_dir, Outcome};
use crate::trace::{layer_metrics, Tracer};
use crate::Args;
use bedom_core::{
    distributed_distance_domination_in, distributed_ksv_domination_r, ksv_rounds, DistContext,
    DistContextConfig, DominationPipeline, DominationReport, KsvConfig, KsvDomResult, Mode,
};
use bedom_distsim::{ExecutionStrategy, IdAssignment, ModelViolation};
use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::ball_sweeps_on_this_thread;
use std::time::Instant;

/// Which protocol a headline workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// `DominationPipeline` in distributed mode (the paper's Theorem 9).
    Theorem9,
    /// Standalone `distributed_ksv_domination_r`.
    Ksv,
}

/// Input generations per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// The solves of one pass: (instance index, radius, per-layer metric name).
const SOLVES: [(usize, u32, &str); 4] = [
    (0, 1, "planar-tri.r1_s"),
    (0, 2, "planar-tri.r2_s"),
    (1, 1, "config-model.r1_s"),
    (1, 2, "config-model.r2_s"),
];

/// Set size, rounds and bit total of each solve at seed 0, in [`SOLVES`]
/// order, as committed in `BENCH_ksv.json`.
const LEGACY_T9: [(usize, usize, usize); 4] = [
    (15698, 24, 42_252_372),
    (3191, 27, 290_294_302),
    (43458, 24, 27_780_616),
    (20170, 27, 214_876_564),
];
const LEGACY_KSV: [(usize, usize, usize); 4] = [
    (23244, 5, 14_836_143),
    (5445, 11, 108_288_845),
    (52317, 5, 11_552_574),
    (25680, 11, 148_700_261),
];

/// One solve's result.
#[derive(Clone, Debug)]
enum Solved {
    T9(DominationReport),
    Ksv(Box<KsvDomResult>),
}

impl Solved {
    fn set(&self) -> &[Vertex] {
        match self {
            Solved::T9(report) => &report.dominating_set,
            Solved::Ksv(result) => &result.dominating_set,
        }
    }

    fn rounds(&self) -> usize {
        match self {
            Solved::T9(report) => report.rounds,
            Solved::Ksv(result) => result.rounds,
        }
    }

    fn bits(&self) -> usize {
        match self {
            Solved::T9(report) => report.total_message_bits,
            Solved::Ksv(result) => result.stats.total_bits,
        }
    }

    /// Everything a rerun must reproduce exactly.
    fn fingerprint(&self) -> String {
        match self {
            Solved::T9(report) => format!("{report:?}"),
            Solved::Ksv(k) => format!(
                "{:?} {:?} {:?} {:?} {:?} {} {} {} {:?}",
                k.dominating_set,
                k.hard_core,
                k.cover_dominators,
                k.self_elected,
                k.high_degree,
                k.rounds,
                k.stats.total_bits,
                k.stats.max_message_bits,
                k.phase_bits
            ),
        }
    }
}

fn ksv_config(ids: u64) -> KsvConfig {
    KsvConfig {
        assignment: IdAssignment::Shuffled(ids),
        ..KsvConfig::with_strategy(ExecutionStrategy::Sequential)
    }
}

/// The untraced call of one solve.
fn solve(protocol: Protocol, graph: &Graph, r: u32, ids: u64) -> Result<Solved, ModelViolation> {
    match protocol {
        Protocol::Theorem9 => DominationPipeline::new(r)
            .mode(Mode::Distributed)
            .seed(ids)
            .execution(ExecutionStrategy::Sequential)
            .solve(graph)
            .map(Solved::T9),
        Protocol::Ksv => distributed_ksv_domination_r(graph, r, ksv_config(ids))
            .map(|k| Solved::Ksv(Box::new(k))),
    }
}

/// One untraced pass: per-solve seconds and results, in [`SOLVES`] order.
struct Pass {
    secs: Vec<f64>,
    total: f64,
    results: Vec<Result<Solved, ModelViolation>>,
}

fn untraced_pass(protocol: Protocol, graphs: &[(&str, Graph); 2], ids: u64) -> Pass {
    let started = Instant::now();
    let mut secs = Vec::with_capacity(SOLVES.len());
    let mut results = Vec::with_capacity(SOLVES.len());
    for (instance, r, _) in SOLVES {
        let t = Instant::now();
        let result = solve(protocol, &graphs[instance].1, r, ids);
        secs.push(t.elapsed().as_secs_f64());
        results.push(std::hint::black_box(result));
    }
    Pass {
        secs,
        total: started.elapsed().as_secs_f64(),
        results,
    }
}

/// Runs the workload.
pub fn run(args: &Args, protocol: Protocol) -> Result<Outcome, String> {
    let seeds = Seeds::of(args.seed);
    let mut out = Outcome::new(args.trace);

    let (graphs, setup) = repeat_setup(SETUP_REPEATS, || headline_instances(&seeds));
    for (name, g) in &graphs {
        eprintln!(
            "perfbench: {name} n={} m={}",
            g.num_vertices(),
            g.num_edges()
        );
    }

    // Settle the heap: the first large solve in a process can run slower
    // while the allocator grows its arenas, so the cheapest solve of the
    // pass (config-model, r = 1) runs once untimed first.
    std::hint::black_box(solve(protocol, &graphs[1].1, 1, seeds.ids).ok());

    let budget = args.seconds;
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let pass = untraced_pass(protocol, &graphs, seeds.ids);
        eprintln!(
            "perfbench: pass {} took {:.3} s ({})",
            passes.len() + 1,
            pass.total,
            pass.secs
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(" / ")
        );
        // Keep only the first pass's results; later ones must match them.
        let pass = match passes.first() {
            None => pass,
            Some(first) => {
                for (i, (a, b)) in first.results.iter().zip(&pass.results).enumerate() {
                    let same = match (a, b) {
                        (Ok(a), Ok(b)) => a.fingerprint() == b.fingerprint(),
                        _ => false,
                    };
                    out.check(same, || format!("solve {i} differs between passes"));
                }
                Pass {
                    results: Vec::new(),
                    ..pass
                }
            }
        };
        passes.push(pass);
        let typical = median(&passes.iter().map(|p| p.total).collect::<Vec<_>>());
        if started.elapsed().as_secs_f64() + typical > budget {
            break;
        }
    }
    let rss = peak_rss_mb(None)?;

    // The correctness gate, outside the timed region.
    let legacy = match protocol {
        Protocol::Theorem9 => &LEGACY_T9,
        Protocol::Ksv => &LEGACY_KSV,
    };
    let (mut set_size, mut rounds, mut bits) = (0usize, 0usize, 0usize);
    for (i, result) in passes[0].results.iter().enumerate() {
        let (instance, r, _) = SOLVES[i];
        let (family, graph) = &graphs[instance];
        let problem = match result {
            Err(v) => Some(format!("{family} r={r}: {v}")),
            Ok(solved) => {
                set_size += solved.set().len();
                rounds += solved.rounds();
                bits += solved.bits();
                gate(protocol, solved, graph, r, &seeds, legacy[i])
                    .map(|p| format!("{family} r={r}: {p}"))
            }
        };
        out.op(problem);
    }

    let totals: Vec<f64> = passes.iter().map(|p| p.total).collect();
    out.end_to_end(&setup, &totals, rss, (set_size, rounds, bits));

    if args.trace {
        let untraced_solve_s = median(&totals);
        for (i, (_, _, name)) in SOLVES.iter().enumerate() {
            let per_pass: Vec<f64> = passes.iter().map(|p| p.secs[i]).collect();
            out.set(name, median(&per_pass));
        }
        let reference: Vec<Option<String>> = passes[0]
            .results
            .iter()
            .map(|r| r.as_ref().ok().map(Solved::fingerprint))
            .collect();
        drop(passes);
        traced_pass(
            &mut out,
            protocol,
            &graphs,
            &seeds,
            &reference,
            untraced_solve_s,
            args,
        )?;
    }
    Ok(out)
}

/// The per-solve correctness checks; `None` when everything holds.
fn gate(
    protocol: Protocol,
    solved: &Solved,
    graph: &Graph,
    r: u32,
    seeds: &Seeds,
    legacy: (usize, usize, usize),
) -> Option<String> {
    if !is_distance_dominating_set(graph, solved.set(), r) {
        return Some("the set does not dominate".to_string());
    }
    match (protocol, solved) {
        (Protocol::Theorem9, Solved::T9(report)) if !report.election_verified => {
            return Some("election_verified is false".to_string())
        }
        (Protocol::Ksv, Solved::Ksv(result)) if result.rounds != ksv_rounds(r) => {
            return Some(format!(
                "{} rounds, expected {}",
                result.rounds,
                ksv_rounds(r)
            ))
        }
        _ => {}
    }
    let got = (solved.set().len(), solved.rounds(), solved.bits());
    if seeds.is_legacy() && got != legacy {
        return Some(format!(
            "(|D|, rounds, bits) = {got:?}, committed {legacy:?}"
        ));
    }
    None
}

/// Counts the traced Theorem 9 sequence reads off the context.
struct T9Counts {
    order_rounds: usize,
    order_bits: usize,
    wreach_bits: usize,
    election_bits: usize,
}

/// The calls `DominationPipeline::solve` makes in distributed mode, one span
/// each, reassembled into the report `solve` returns.
fn traced_t9(
    tr: &mut Tracer,
    graph: &Graph,
    r: u32,
    ids: u64,
) -> Result<(DominationReport, T9Counts), ModelViolation> {
    let max_radius = 2 * r;
    let lower_bound = tr.span("graph.lower_bound", |_| packing_lower_bound(graph, r));
    let ctx = tr.span("wcol.order", |_| {
        DistContext::elect(
            graph,
            DistContextConfig {
                assignment: IdAssignment::Shuffled(ids),
                strategy: ExecutionStrategy::Sequential,
                ..DistContextConfig::new(max_radius)
            },
        )
    })?;
    tr.span("dist_wreach.protocol", |_| ctx.wreach().map(|_| ()))?;
    let result = tr.span("dist_domset.election", |_| {
        distributed_distance_domination_in(&ctx, r)
    })?;
    tr.span("context.index", |_| {
        std::hint::black_box(ctx.index());
    });
    let (witnessed_constant, expected) = tr.span("context.reads", |_| {
        (ctx.witnessed_constant(max_radius), ctx.expected_election(r))
    });
    let counts = T9Counts {
        order_rounds: ctx.order_rounds(),
        order_bits: ctx.order_stats().total_bits,
        wreach_bits: ctx.wreach()?.stats.total_bits,
        election_bits: result.phase_stats.last().map_or(0, |s| s.total_bits),
    };
    tr.span("context.drop", |_| drop(ctx));
    let report = DominationReport {
        r,
        mode: Mode::Distributed,
        connected_dominating_set: None,
        witnessed_constant: witnessed_constant?,
        optimum_lower_bound: lower_bound,
        rounds: result.total_rounds(),
        total_message_bits: result.phase_stats.iter().map(|s| s.total_bits).sum(),
        max_message_bits: result.max_message_bits(),
        election_verified: result.dominator_of == expected?,
        dominating_set: result.dominating_set,
    };
    Ok((report, counts))
}

fn traced_pass(
    out: &mut Outcome,
    protocol: Protocol,
    graphs: &[(&str, Graph); 2],
    seeds: &Seeds,
    reference: &[Option<String>],
    untraced_solve_s: f64,
    args: &Args,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut results = Vec::with_capacity(SOLVES.len());
    tr.span("pass", |tr| {
        for (instance, r, _) in SOLVES {
            let graph = &graphs[instance].1;
            tr.span("solve", |tr| {
                let sweeps = ball_sweeps_on_this_thread();
                let solved = match protocol {
                    Protocol::Theorem9 => match traced_t9(tr, graph, r, seeds.ids) {
                        Ok((report, counts)) => {
                            out.add("wcol.order_rounds", counts.order_rounds as f64);
                            out.add("wcol.order_bits", counts.order_bits as f64);
                            out.add("dist_wreach.bits", counts.wreach_bits as f64);
                            out.add("dist_domset.election_bits", counts.election_bits as f64);
                            Some(Solved::T9(report))
                        }
                        Err(_) => None,
                    },
                    Protocol::Ksv => {
                        let result = tr.span("dist_ksv.protocol", |_| {
                            distributed_ksv_domination_r(graph, r, ksv_config(seeds.ids))
                        });
                        match result {
                            Ok(k) => {
                                out.add("dist_ksv.flood_bits", k.phase_bits.flood as f64);
                                out.add(
                                    "dist_ksv.hard_core_bits",
                                    k.phase_bits.hard_core_announce as f64,
                                );
                                out.add("dist_ksv.election_bits", k.phase_bits.election as f64);
                                out.add(
                                    "dist_ksv.cover_announce_bits",
                                    k.phase_bits.cover_announce as f64,
                                );
                                out.add("dist_ksv.hard_core", k.hard_core.len() as f64);
                                out.add(
                                    "dist_ksv.cover_dominators",
                                    k.cover_dominators.len() as f64,
                                );
                                out.add("dist_ksv.self_elected", k.self_elected.len() as f64);
                                out.add("dist_ksv.hubs", k.high_degree.len() as f64);
                                Some(Solved::Ksv(Box::new(k)))
                            }
                            Err(_) => None,
                        }
                    }
                };
                let swept = ball_sweeps_on_this_thread() - sweeps;
                out.add("wcol.ball_sweeps", swept as f64);
                if protocol == Protocol::Theorem9 {
                    out.check(swept == 1, || {
                        format!("traced solve made {swept} ball sweeps, expected 1")
                    });
                }
                results.push(solved);
            });
        }
    });
    // Compared after the pass, so formatting the fingerprints is not traced.
    for (i, (traced, untraced)) in results.iter().zip(reference).enumerate() {
        let traced = traced.as_ref().map(Solved::fingerprint);
        out.check(traced.is_some() && &traced == untraced, || {
            format!("traced solve {i} does not reproduce the untraced result")
        });
    }
    layer_metrics(out, &tr, untraced_solve_s);
    if protocol == Protocol::Theorem9 {
        let coverage = out.metrics["trace.coverage"];
        out.check(coverage >= 0.9, || {
            format!("layer self times cover only {coverage:.3} of the traced pass")
        });
    }
    tr.write_jsonl(
        &work_dir()?.join(format!("trace-{}-{}.jsonl", args.workload, args.seed)),
        &args.workload,
        args.seed,
    )
}
