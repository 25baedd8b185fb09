//! High-level convenience API: one call per paper result, sensible defaults,
//! and a single report struct that bundles the quantities the experiments
//! (and a downstream user) care about.
//!
//! The lower-level entry points in the sibling modules expose every knob
//! (orders, id assignments, bandwidth enforcement); this module is the
//! "just solve my instance" layer used by the examples and by the quickstart
//! in the README.
//!
//! Two execution shapes:
//!
//! * [`DominationPipeline::solve`] — one instance. In distributed mode the
//!   pipeline elects **one** [`DistContext`] and constructs every phase from
//!   it. The witnessed constant and the expected election are read from one
//!   [`WReachIndex`] sweep over the elected order, which the pipeline builds
//!   itself, not through the context's cached index, and drops before the
//!   protocol phases run Lemma 7, so the sweep never coexists with the
//!   Lemma 7 path stores. That is exactly one ball sweep per end-to-end
//!   distributed solve — a regression test pins this.
//! * [`solve_scenario`] — a batch of independent `(graph, pipeline)` shards
//!   spread over the workers of an execution strategy through
//!   [`bedom_distsim::scenario::ScenarioRunner`], with per-shard
//!   validation through [`is_distance_dominating_set`] and per-shard
//!   sweep/round/bit accounting. Shard reports come back in shard order and
//!   are bit-identical across sequential and parallel execution.

use crate::context::{lemma7_reach_radius, reach_radius, DistContext, DistContextConfig};
use crate::dist_connected::distributed_connected_domination_in;
use crate::dist_domset::distributed_distance_domination_in;
use crate::dist_ksv::{check_ksv_radius, distributed_ksv_domination_r_in_with, KsvConfig};
use crate::local_connect::local_connect;
use crate::seq_domset::domset_via_min_wreach_with;
use bedom_distsim::journal::{DurabilityMode, JournalError};
use bedom_distsim::scenario::{ScenarioReport, ScenarioRunner, ShardMetrics, ShardReport};
use bedom_distsim::{
    ByteCodec, CodecError, ExecutionStrategy, IdAssignment, ModelViolation, RunStats,
};
use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::{ball_sweeps_on_this_thread, degeneracy_based_order, WReachIndex};

/// Which execution mode to use for solving an instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The sequential linear-time algorithm of Theorem 5.
    Sequential,
    /// The CONGEST_BC protocol of Theorem 9 (simulated).
    Distributed,
}

/// Which distributed phase family solves the instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// The paper's order-based pipeline: the `O(log n)`-round order phase,
    /// then weak reachability and the Theorem 9 election (or Theorem 5
    /// sequentially). Works for every radius `r`.
    OrderBased,
    /// The Kublenz–Siebertz–Vigny constant-round protocol family
    /// ([`crate::dist_ksv`], arXiv:2012.02701) and its distance-`r`
    /// generalisation (arXiv:2207.02669): no order phase, exactly
    /// [`crate::dist_ksv::ksv_rounds`]`(r)` rounds at every radius `r ≥ 1`.
    /// Inherently a distributed protocol — selecting it solves distributedly
    /// regardless of [`Mode`]; `r = 0` degenerates to the full vertex set
    /// without communication.
    KsvConstantRound,
}

/// A solved instance, with the measured quantities attached.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DominationReport {
    /// Radius parameter.
    pub r: u32,
    /// Execution mode used.
    pub mode: Mode,
    /// The distance-`r` dominating set.
    pub dominating_set: Vec<Vertex>,
    /// The connected distance-`r` dominating set, if one was requested.
    pub connected_dominating_set: Option<Vec<Vertex>>,
    /// The constant `c` witnessed by the order that was used — the proven
    /// approximation-ratio bound for this run. In distributed mode this is
    /// `wcol` of the elected order at the pipeline's reach radius, read from
    /// the solve's one index sweep.
    pub witnessed_constant: usize,
    /// A lower bound on the optimum (2r-packing), for ratio reporting.
    pub optimum_lower_bound: usize,
    /// Communication rounds used (0 in sequential mode).
    pub rounds: usize,
    /// Total bits put on the wire across all phases (0 in sequential mode).
    pub total_message_bits: usize,
    /// Largest single message across all phases, in bits (0 in sequential
    /// mode).
    pub max_message_bits: usize,
    /// Whether the election was verified against the sequential formula
    /// `min WReach_r` of the order actually used. Sequential mode computes
    /// the formula directly (trivially verified); distributed mode
    /// cross-checks the protocol's elected dominators against the election
    /// read from the solve's one index sweep — a simulation-side soundness
    /// check.
    pub election_verified: bool,
}

impl ByteCodec for Mode {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self == Mode::Distributed).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(if bool::decode(input)? {
            Mode::Distributed
        } else {
            Mode::Sequential
        })
    }
}

/// The wire form of a solved shard — what [`solve_scenario_resumable`]
/// checkpoints into its [`bedom_distsim::BatchJournal`]. Field order is the
/// declaration order; resumed reports are bit-identical to freshly computed
/// ones because the codec stores the report verbatim, not a summary.
impl ByteCodec for DominationReport {
    fn encode(&self, out: &mut Vec<u8>) {
        self.r.encode(out);
        self.mode.encode(out);
        self.dominating_set.encode(out);
        self.connected_dominating_set.encode(out);
        self.witnessed_constant.encode(out);
        self.optimum_lower_bound.encode(out);
        self.rounds.encode(out);
        self.total_message_bits.encode(out);
        self.max_message_bits.encode(out);
        self.election_verified.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(DominationReport {
            r: u32::decode(input)?,
            mode: Mode::decode(input)?,
            dominating_set: Vec::decode(input)?,
            connected_dominating_set: Option::decode(input)?,
            witnessed_constant: usize::decode(input)?,
            optimum_lower_bound: usize::decode(input)?,
            rounds: usize::decode(input)?,
            total_message_bits: usize::decode(input)?,
            max_message_bits: usize::decode(input)?,
            election_verified: bool::decode(input)?,
        })
    }
}

/// Builder-style solver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DominationPipeline {
    r: u32,
    mode: Mode,
    algorithm: Algorithm,
    connected: bool,
    seed: u64,
    execution: ExecutionStrategy,
}

impl DominationPipeline {
    /// A pipeline for distance-`r` domination with the project defaults
    /// (sequential mode, degeneracy order, no connection step, size-gated
    /// automatic execution strategy).
    pub fn new(r: u32) -> Self {
        DominationPipeline {
            r,
            mode: Mode::Sequential,
            algorithm: Algorithm::OrderBased,
            connected: false,
            seed: 0x5eed,
            execution: ExecutionStrategy::Auto,
        }
    }

    /// Selects sequential or distributed execution.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// Selects the phase family ([`Algorithm::OrderBased`] by default).
    /// [`Algorithm::KsvConstantRound`] implies distributed execution; see
    /// the enum docs for its radius restrictions.
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Also computes a connected distance-`r` dominating set (Theorem 10 in
    /// distributed mode, Theorem 17's LOCAL connector in sequential mode).
    pub fn connected(mut self, connected: bool) -> Self {
        self.connected = connected;
        self
    }

    /// Seed for identifier assignment in distributed mode.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Execution strategy for the engine rounds and the index sweep
    /// (bit-identical across strategies). [`solve_scenario`] pins this to
    /// `Sequential` inside its shard workers.
    pub fn execution(mut self, execution: ExecutionStrategy) -> Self {
        self.execution = execution;
        self
    }

    /// The reach radius a distributed run of this pipeline queries (`2r`,
    /// or `2r + 1` when the connected set is requested), checked before any
    /// arithmetic on `r`, as KSV checks its radius: a reach beyond `u32` is
    /// [`ModelViolation::RadiusOutOfRange`]. Past this check `2r` cannot
    /// overflow either. A radius the distributed protocol would refuse fails
    /// here too, so that no phase runs before the protocol would refuse it:
    /// with [`Algorithm::KsvConstantRound`], `r > 255` (KSV; `r = 0` is the
    /// degenerate full vertex set, which the KSV path answers without the
    /// protocol), and in distributed mode with [`Algorithm::OrderBased`], a
    /// reach above 254 (Lemma 7).
    fn reach_radius(&self) -> Result<u32, ModelViolation> {
        if self.algorithm == Algorithm::KsvConstantRound && self.r > 0 {
            check_ksv_radius(self.r)?;
        }
        if self.mode == Mode::Distributed && self.algorithm == Algorithm::OrderBased {
            lemma7_reach_radius(self.r, self.connected)
        } else {
            reach_radius(self.r, self.connected)
        }
    }

    /// Solves the instance. A radius whose reach radius (`2r`, or `2r + 1`
    /// when connected) overflows `u32`, or that the distributed protocol
    /// refuses (KSV above 255, Lemma 7 above a reach of 254), fails with
    /// [`ModelViolation::RadiusOutOfRange`] before any phase runs.
    pub fn solve(&self, graph: &Graph) -> Result<DominationReport, ModelViolation> {
        let r = self.r;
        let reach = self.reach_radius()?;
        let lower_bound = packing_lower_bound(graph, r);
        if self.algorithm == Algorithm::KsvConstantRound {
            return self.solve_ksv(graph, lower_bound);
        }
        match self.mode {
            Mode::Sequential => {
                let order = degeneracy_based_order(graph);
                let result = domset_via_min_wreach_with(graph, &order, r, self.execution);
                let connected = if self.connected {
                    let ids = IdAssignment::Shuffled(self.seed).assign(graph);
                    Some(
                        local_connect(graph, &ids, &result.dominating_set, r)
                            .connected_dominating_set,
                    )
                } else {
                    None
                };
                Ok(DominationReport {
                    r,
                    mode: Mode::Sequential,
                    dominating_set: result.dominating_set,
                    connected_dominating_set: connected,
                    witnessed_constant: result.witnessed_constant,
                    optimum_lower_bound: lower_bound,
                    rounds: 0,
                    total_message_bits: 0,
                    max_message_bits: 0,
                    election_verified: true,
                })
            }
            Mode::Distributed => {
                // One context per solve: the order phase runs here, and the
                // weak-reachability protocol runs once, on first use below.
                let ctx = DistContext::elect(
                    graph,
                    DistContextConfig {
                        assignment: IdAssignment::Shuffled(self.seed),
                        strategy: self.execution,
                        ..DistContextConfig::new(reach)
                    },
                )?;
                // The solve's one ball sweep serves the witnessed constant
                // *and* the expected election. It needs only the graph and
                // the order, so it runs before Lemma 7 and is dropped at the
                // end of this block: the index and the path stores never
                // coexist.
                let (witnessed_constant, expected_election) = {
                    let index = WReachIndex::build_with(graph, ctx.order(), reach, self.execution);
                    (index.wcol_at(reach), index.min_wreach_at(r))
                };
                // Fold the wire accounting by reference before moving the
                // results out — no per-round stats are cloned.
                let bits_of = |stats: &[RunStats]| -> (usize, usize) {
                    (
                        stats.iter().map(|s| s.total_bits).sum(),
                        stats.iter().map(|s| s.max_message_bits).max().unwrap_or(0),
                    )
                };
                let (domset, connected_set, rounds, total_message_bits, max_message_bits) =
                    if self.connected {
                        let result = distributed_connected_domination_in(&ctx, r)?;
                        let rounds = result.total_rounds();
                        let (bits, max_bits) = bits_of(&result.domset.phase_stats);
                        (
                            result.domset,
                            Some(result.connected_dominating_set),
                            rounds,
                            bits + result.flood_stats.total_bits,
                            max_bits.max(result.flood_stats.max_message_bits),
                        )
                    } else {
                        let result = distributed_distance_domination_in(&ctx, r)?;
                        let rounds = result.total_rounds();
                        let (bits, max_bits) = bits_of(&result.phase_stats);
                        (result, None, rounds, bits, max_bits)
                    };
                let election_verified = domset.dominator_of == expected_election;
                Ok(DominationReport {
                    r,
                    mode: Mode::Distributed,
                    dominating_set: domset.dominating_set,
                    connected_dominating_set: connected_set,
                    witnessed_constant,
                    optimum_lower_bound: lower_bound,
                    rounds,
                    total_message_bits,
                    max_message_bits,
                    election_verified,
                })
            }
        }
    }
}

impl DominationPipeline {
    /// The KSV constant-round path: the protocol runs with **zero** order
    /// phase and [`crate::dist_ksv::ksv_rounds`]`(r)` rounds at every radius
    /// `r ≥ 1`; the reported round and bit accounting covers the protocol
    /// only. The witnessed constant and the output verification come from a
    /// `DistContext` elected on the analysis side (one shared index sweep,
    /// like every distributed solve) — simulation-side reads, not protocol
    /// rounds.
    fn solve_ksv(
        &self,
        graph: &Graph,
        lower_bound: usize,
    ) -> Result<DominationReport, ModelViolation> {
        match self.r {
            // Distance-0 domination is the full vertex set; nothing to
            // communicate.
            0 => {
                let all: Vec<Vertex> = graph.vertices().collect();
                Ok(DominationReport {
                    r: 0,
                    mode: Mode::Distributed,
                    dominating_set: all.clone(),
                    connected_dominating_set: self.connected.then_some(all),
                    witnessed_constant: 1,
                    optimum_lower_bound: lower_bound,
                    rounds: 0,
                    total_message_bits: 0,
                    max_message_bits: 0,
                    election_verified: true,
                })
            }
            r => {
                let ctx = DistContext::elect(
                    graph,
                    DistContextConfig {
                        assignment: IdAssignment::Shuffled(self.seed),
                        strategy: self.execution,
                        ..DistContextConfig::for_domination(r)
                    },
                )?;
                let report = distributed_ksv_domination_r_in_with(&ctx, r, KsvConfig::new())?;
                let connected = if self.connected {
                    // The LOCAL connector of Theorem 17, as in sequential
                    // mode (the Theorem 10 machinery is order-based).
                    let ids = IdAssignment::Shuffled(self.seed).assign(graph);
                    Some(
                        local_connect(graph, &ids, &report.result.dominating_set, r)
                            .connected_dominating_set,
                    )
                } else {
                    None
                };
                Ok(DominationReport {
                    r,
                    mode: Mode::Distributed,
                    dominating_set: report.result.dominating_set,
                    connected_dominating_set: connected,
                    witnessed_constant: report.witnessed_constant,
                    optimum_lower_bound: lower_bound,
                    rounds: report.result.rounds,
                    total_message_bits: report.result.stats.total_bits,
                    max_message_bits: report.result.stats.max_message_bits,
                    election_verified: report.verified,
                })
            }
        }
    }
}

/// Solves a batch of independent `(graph, pipeline)` shards across the
/// workers of `strategy` and returns per-shard [`DominationReport`]s **in
/// shard order**, each with rounds / message bits / ball-sweep metrics
/// attached.
///
/// Contract (asserted in `tests/determinism.rs`):
///
/// * outputs and metrics are bit-identical across every
///   [`ExecutionStrategy`] — each shard's engine and index sweeps are
///   pinned to the [`ExecutionStrategy::nested`] strategy, so nothing
///   depends on how shards are spread;
/// * every shard's dominating set is re-validated with
///   [`is_distance_dominating_set`], which runs on its worker thread's
///   shared BFS scratch — an invalid set panics;
/// * a [`ModelViolation`] in any shard fails the whole batch with the
///   lowest-indexed shard's error.
pub fn solve_scenario(
    shards: &[(Graph, DominationPipeline)],
    strategy: ExecutionStrategy,
) -> Result<ScenarioReport<DominationReport>, ModelViolation> {
    let inner = strategy.nested();
    let mut results = ScenarioReport {
        shards: Vec::with_capacity(shards.len()),
    };
    ScenarioRunner::new(strategy).run_streaming(
        shards,
        || (),
        |_, shard, (graph, pipeline)| solve_shard(inner, shard, graph, pipeline),
        &mut results,
    );
    // Shards arrive in ascending order, so the first error is the
    // lowest-indexed shard's.
    let shards = results
        .shards
        .into_iter()
        .map(|report| {
            Ok(ShardReport {
                shard: report.shard,
                output: report.output?,
                metrics: report.metrics,
            })
        })
        .collect::<Result<_, ModelViolation>>()?;
    Ok(ScenarioReport { shards })
}

/// The per-shard body shared by every batch entry point: solve, re-validate
/// the dominating set, and measure.
/// A failed shard reports `None` metrics — absence is the signal; a failure
/// must never read as a "0 rounds, 0 bits" success.
fn solve_shard(
    inner: ExecutionStrategy,
    shard: usize,
    graph: &Graph,
    pipeline: &DominationPipeline,
) -> (
    Result<DominationReport, ModelViolation>,
    Option<ShardMetrics>,
) {
    let sweeps_before = ball_sweeps_on_this_thread();
    match pipeline.execution(inner).solve(graph) {
        Ok(solved) => {
            assert!(
                is_distance_dominating_set(graph, &solved.dominating_set, solved.r),
                "shard {shard} produced an invalid dominating set"
            );
            let metrics = ShardMetrics {
                rounds: solved.rounds,
                total_bits: solved.total_message_bits,
                max_message_bits: solved.max_message_bits,
                ball_sweeps: ball_sweeps_on_this_thread() - sweeps_before,
            };
            (Ok(solved), Some(metrics))
        }
        Err(violation) => (Err(violation), None),
    }
}

/// Why a resumable batch failed: either a shard's protocol run hit a typed
/// [`ModelViolation`], or the checkpoint journal itself was unusable.
#[derive(Debug)]
pub enum BatchError {
    /// The lowest-indexed failing shard's violation (violated shards are not
    /// checkpointed, so a rerun re-attempts them).
    Violation(ModelViolation),
    /// The journal could not be opened, read, or appended to.
    Journal(JournalError),
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Violation(v) => write!(f, "a shard violated the model: {v}"),
            BatchError::Journal(e) => write!(f, "batch checkpointing failed: {e}"),
        }
    }
}

impl std::error::Error for BatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BatchError::Violation(v) => Some(v),
            BatchError::Journal(e) => Some(e),
        }
    }
}

impl From<JournalError> for BatchError {
    fn from(e: JournalError) -> Self {
        BatchError::Journal(e)
    }
}

/// Like [`solve_scenario`], but checkpointed through a
/// [`bedom_distsim::BatchJournal`] at `journal_path` (per `durability`):
/// every successfully solved shard is appended as a durable record, and a
/// rerun with the same shards and path **skips** everything the journal
/// already holds — the resumed report is bit-identical to an uninterrupted
/// run, because the journal stores each shard's actual
/// [`DominationReport`].
///
/// Shards that fail with a [`ModelViolation`] are *not* checkpointed; the
/// batch fails with the lowest-indexed violation and a rerun re-attempts
/// exactly the unjournaled shards. Records are appended in ascending shard
/// order under every strategy; see
/// [`ScenarioRunner::run_resumable`](bedom_distsim::ScenarioRunner::run_resumable)
/// for what a crash loses.
pub fn solve_scenario_resumable(
    shards: &[(Graph, DominationPipeline)],
    strategy: ExecutionStrategy,
    journal_path: &std::path::Path,
    durability: DurabilityMode,
) -> Result<ScenarioReport<DominationReport>, BatchError> {
    let inner = strategy.nested();
    let runner = ScenarioRunner::new(strategy);
    // `run_resumable` journals only metric-bearing shards, so a violated
    // shard (always metric-less) is re-attempted on resume; its violation is
    // parked here because the journaled output type has no error channel.
    let first_violation: std::sync::Mutex<Option<(usize, ModelViolation)>> =
        std::sync::Mutex::new(None);
    let report = runner.run_resumable(
        shards,
        journal_path,
        durability,
        || (),
        |_, shard, (graph, pipeline)| match solve_shard(inner, shard, graph, pipeline) {
            (Ok(solved), metrics) => (Some(solved), metrics),
            (Err(violation), _) => {
                let mut slot = first_violation
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if slot.as_ref().is_none_or(|(s, _)| shard < *s) {
                    *slot = Some((shard, violation));
                }
                (None, None)
            }
        },
    )?;
    if let Some((_, violation)) = first_violation
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .take()
    {
        return Err(BatchError::Violation(violation));
    }
    let mut solved = Vec::with_capacity(report.shards.len());
    for shard in report.shards {
        match shard.output {
            Some(output) => solved.push(ShardReport {
                shard: shard.shard,
                output,
                metrics: shard.metrics,
            }),
            // Unreachable: every `None` output records a violation above,
            // and the violation path returns before this loop.
            None => panic!(
                "bedom-core: shard {} has no output and no violation",
                shard.shard
            ),
        }
    }
    Ok(ScenarioReport { shards: solved })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::components::is_induced_connected;
    use bedom_graph::generators::{grid, path, random_tree, stacked_triangulation};

    #[test]
    fn sequential_pipeline_with_defaults() {
        let g = stacked_triangulation(200, 3);
        let report = DominationPipeline::new(2).solve(&g).unwrap();
        assert_eq!(report.mode, Mode::Sequential);
        assert!(is_distance_dominating_set(&g, &report.dominating_set, 2));
        assert!(report.connected_dominating_set.is_none());
        assert!(report.dominating_set.len() >= report.optimum_lower_bound.max(1));
        assert_eq!(report.rounds, 0);
        assert_eq!(report.total_message_bits, 0);
        assert!(report.election_verified);
    }

    #[test]
    fn distributed_pipeline_reports_rounds_bits_and_verifies() {
        let g = grid(12, 12);
        let report = DominationPipeline::new(1)
            .mode(Mode::Distributed)
            .solve(&g)
            .unwrap();
        assert!(is_distance_dominating_set(&g, &report.dominating_set, 1));
        assert!(report.rounds > 0);
        assert!(report.total_message_bits > 0);
        assert!(report.max_message_bits > 0);
        assert!(report.max_message_bits <= report.total_message_bits);
        assert!(
            report.election_verified,
            "distributed election must match the index's sequential formula"
        );
        // The witnessed constant comes from the solve's index sweep at 2r
        // and bounds the ratio.
        assert!(report.witnessed_constant >= 1);
        assert!(
            report.dominating_set.len()
                <= report.witnessed_constant * report.optimum_lower_bound.max(1)
        );
    }

    #[test]
    fn connected_variants_in_both_modes() {
        let g = stacked_triangulation(150, 9);
        for mode in [Mode::Sequential, Mode::Distributed] {
            let report = DominationPipeline::new(1)
                .mode(mode)
                .connected(true)
                .solve(&g)
                .unwrap();
            let connected = report.connected_dominating_set.as_ref().unwrap();
            assert!(is_distance_dominating_set(&g, connected, 1), "{mode:?}");
            assert!(is_induced_connected(&g, connected), "{mode:?}");
            assert!(report.election_verified, "{mode:?}");
        }
    }

    /// Solving `pipeline` at radii whose double overflows `u32` fails with
    /// the typed reach error, not an overflow.
    fn assert_reach_overflow_is_refused(pipeline: DominationPipeline) {
        for r in [1 << 31, u32::MAX] {
            let pipeline = DominationPipeline { r, ..pipeline };
            let err = pipeline.solve(&path(5)).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelViolation::RadiusOutOfRange { requested, supported, .. }
                        if requested == r && supported == u32::MAX / 2
                ),
                "r = {r}: {err:?}"
            );
        }
    }

    #[test]
    fn sequential_solve_refuses_a_radius_whose_double_overflows() {
        assert_reach_overflow_is_refused(DominationPipeline::new(1));
    }

    #[test]
    fn distributed_solve_refuses_a_radius_whose_double_overflows() {
        assert_reach_overflow_is_refused(DominationPipeline::new(1).mode(Mode::Distributed));
    }

    #[test]
    fn ksv_radii_beyond_255_are_refused_before_any_phase() {
        // The helper `solve` calls first refuses them, so neither the
        // packing bound nor the order phase runs on a radius KSV refuses.
        for connected in [false, true] {
            for r in [256, u32::MAX] {
                let pipeline = DominationPipeline::new(r)
                    .algorithm(Algorithm::KsvConstantRound)
                    .connected(connected);
                let err = pipeline.reach_radius().unwrap_err();
                assert!(
                    matches!(
                        err,
                        ModelViolation::RadiusOutOfRange { requested, supported: 255, .. }
                            if requested == r
                    ),
                    "r = {r}: {err:?}"
                );
                assert_eq!(pipeline.solve(&path(5)).unwrap_err(), err);
            }
        }
        let ksv = DominationPipeline::new(255).algorithm(Algorithm::KsvConstantRound);
        assert_eq!(ksv.reach_radius(), Ok(510));
        assert_eq!(DominationPipeline { r: 0, ..ksv }.reach_radius(), Ok(0));
    }

    #[test]
    fn lemma7_reaches_beyond_254_are_refused_before_any_phase() {
        // The helper `solve` calls first refuses them with the protocol's
        // own error, so neither the packing bound, the order phase nor the
        // index sweep runs on a reach Lemma 7 refuses.
        let g = path(5);
        let super_ids: Vec<u64> = (0..5).collect();
        for (r, connected) in [(128, false), (127, true)] {
            let reach = 2 * r + u32::from(connected);
            let pipeline = DominationPipeline::new(r)
                .mode(Mode::Distributed)
                .connected(connected);
            let err = pipeline.reach_radius().unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelViolation::RadiusOutOfRange { requested, supported: 254, .. }
                        if requested == reach
                ),
                "r = {r}: {err:?}"
            );
            let protocol = crate::distributed_weak_reachability(
                &g,
                &super_ids,
                crate::dist_wreach::WReachConfig::measuring(reach),
            );
            assert_eq!(protocol.unwrap_err(), err);
            let before = ball_sweeps_on_this_thread();
            assert_eq!(pipeline.solve(&g).unwrap_err(), err);
            assert_eq!(ball_sweeps_on_this_thread(), before, "r = {r}: a sweep ran");
        }
        let plain = DominationPipeline::new(127).mode(Mode::Distributed);
        assert_eq!(plain.reach_radius(), Ok(254));
        let connected = DominationPipeline::new(126).connected(true);
        assert_eq!(connected.mode(Mode::Distributed).reach_radius(), Ok(253));
        // Neither Theorem 5 nor KSV runs Lemma 7.
        assert_eq!(DominationPipeline::new(128).reach_radius(), Ok(256));
        let ksv = DominationPipeline { r: 128, ..plain }.algorithm(Algorithm::KsvConstantRound);
        assert_eq!(ksv.reach_radius(), Ok(256));
    }

    #[test]
    fn connected_solves_refuse_a_radius_whose_double_overflows() {
        for mode in [Mode::Sequential, Mode::Distributed] {
            assert_reach_overflow_is_refused(DominationPipeline::new(1).mode(mode).connected(true));
        }
    }

    #[test]
    fn ksv_pipeline_is_constant_round_and_dominates() {
        let g = stacked_triangulation(250, 8);
        let report = DominationPipeline::new(1)
            .algorithm(Algorithm::KsvConstantRound)
            .solve(&g)
            .unwrap();
        assert_eq!(report.mode, Mode::Distributed);
        assert_eq!(report.rounds, crate::dist_ksv::KSV_ROUNDS);
        assert!(report.total_message_bits > 0);
        assert!(is_distance_dominating_set(&g, &report.dominating_set, 1));
        assert!(report.election_verified, "KSV output failed verification");
        assert!(report.witnessed_constant >= 1);
    }

    #[test]
    fn ksv_pipeline_edge_radii() {
        let g = grid(6, 6);
        // r = 0 degenerates to the full vertex set, zero rounds.
        let report = DominationPipeline::new(0)
            .algorithm(Algorithm::KsvConstantRound)
            .solve(&g)
            .unwrap();
        assert_eq!(report.dominating_set.len(), g.num_vertices());
        assert_eq!(report.rounds, 0);
        assert!(is_distance_dominating_set(&g, &report.dominating_set, 0));
    }

    #[test]
    fn ksv_pipeline_solves_distance_r_end_to_end() {
        // The former "r ≥ 2 fails loudly" boundary is gone: the distance-r
        // generalisation solves r = 2 and 3 in exactly ksv_rounds(r) engine
        // rounds, verified through the shared index like every solve.
        let g = stacked_triangulation(200, 8);
        for r in [2u32, 3] {
            let report = DominationPipeline::new(r)
                .algorithm(Algorithm::KsvConstantRound)
                .solve(&g)
                .unwrap();
            assert_eq!(report.mode, Mode::Distributed);
            assert_eq!(report.rounds, crate::dist_ksv::ksv_rounds(r));
            assert!(is_distance_dominating_set(&g, &report.dominating_set, r));
            assert!(report.election_verified, "r = {r}: verification failed");
            assert!(report.witnessed_constant >= 1);
        }
    }

    #[test]
    fn ksv_pipeline_connected_variant() {
        let g = stacked_triangulation(150, 9);
        let report = DominationPipeline::new(1)
            .algorithm(Algorithm::KsvConstantRound)
            .connected(true)
            .solve(&g)
            .unwrap();
        let connected = report.connected_dominating_set.as_ref().unwrap();
        assert!(is_distance_dominating_set(&g, connected, 1));
        assert!(bedom_graph::components::is_induced_connected(&g, connected));
    }

    #[test]
    fn ksv_shards_mix_with_order_based_shards_in_a_scenario() {
        let shards: Vec<(Graph, DominationPipeline)> = vec![
            (
                stacked_triangulation(120, 1),
                DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
            ),
            (
                grid(8, 8),
                DominationPipeline::new(1).mode(Mode::Distributed),
            ),
            (
                Graph::empty(1),
                DominationPipeline::new(1).algorithm(Algorithm::KsvConstantRound),
            ),
            // The distance-r generalisation rides in the same batch: a
            // radius-2 KSV shard is a solve, not an error, since this PR.
            (
                grid(7, 7),
                DominationPipeline::new(2).algorithm(Algorithm::KsvConstantRound),
            ),
        ];
        let report = solve_scenario(&shards, ExecutionStrategy::Parallel).unwrap();
        assert_eq!(report.num_shards(), 4);
        assert!(report.missing_metrics().is_empty());
        assert_eq!(
            report.shards[0].expect_metrics().rounds,
            crate::dist_ksv::KSV_ROUNDS
        );
        assert_eq!(report.shards[2].output.dominating_set, vec![0]);
        assert_eq!(
            report.shards[3].expect_metrics().rounds,
            crate::dist_ksv::ksv_rounds(2)
        );
        assert!(is_distance_dominating_set(
            &shards[3].0,
            &report.shards[3].output.dominating_set,
            2
        ));
    }

    #[test]
    fn scenario_batch_solves_every_shard_in_order() {
        let shards: Vec<(Graph, DominationPipeline)> = vec![
            (
                stacked_triangulation(120, 1),
                DominationPipeline::new(1).mode(Mode::Distributed),
            ),
            (grid(8, 8), DominationPipeline::new(2)),
            (
                random_tree(90, 2),
                DominationPipeline::new(1)
                    .mode(Mode::Distributed)
                    .connected(true),
            ),
        ];
        let report = solve_scenario(&shards, ExecutionStrategy::Parallel).unwrap();
        assert_eq!(report.num_shards(), 3);
        for (i, shard) in report.shards.iter().enumerate() {
            assert_eq!(shard.shard, i);
            let (graph, _) = &shards[i];
            assert!(is_distance_dominating_set(
                graph,
                &shard.output.dominating_set,
                shard.output.r
            ));
        }
        // Distributed shards pay exactly one sweep; the sequential shard's
        // single sweep is its election.
        assert!(report.missing_metrics().is_empty());
        assert_eq!(report.shards[0].expect_metrics().ball_sweeps, 1);
        assert_eq!(report.shards[1].expect_metrics().ball_sweeps, 1);
        assert_eq!(report.shards[2].expect_metrics().ball_sweeps, 1);
        assert!(report.shards[0].expect_metrics().rounds > 0);
        assert_eq!(report.shards[1].expect_metrics().rounds, 0);
        assert!(report.total_message_bits() > 0);
    }
}
