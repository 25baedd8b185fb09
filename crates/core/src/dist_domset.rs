//! Distributed constant-factor approximation of the minimum distance-`r`
//! dominating set in CONGEST_BC — Theorem 9 of the paper.
//!
//! The algorithm composes three phases, each a protocol on the same network:
//!
//! 1. **Order phase** — the H-partition order computation
//!    ([`bedom_wcol::distributed_wcol_order`], the Theorem 3 substitute);
//!    every vertex ends up with a locally-computable super-id inducing `L`.
//! 2. **Weak-reachability phase** — Algorithm 4 with reach radius `ρ = 2r`
//!    ([`crate::dist_wreach`]); every vertex `w` learns `WReach_2r[w]` and a
//!    routing path to each member.
//! 3. **Election phase** — every vertex elects `min WReach_r[w]` as its
//!    dominator and sends it a "you are in `D`" token along the stored path
//!    (at most `r` hops); tokens to the same target are deduplicated at every
//!    forwarder, so no vertex ever carries more than `c(2r)` distinct tokens
//!    (the paper's forwarding bound in the proof of Theorem 9).
//!
//! Phases 1 and 2 are owned by the shared [`DistContext`]
//! ([`crate::context`]): [`distributed_distance_domination_in`] runs only the
//! election against a context, so covers, the connected variant and repeated
//! queries on one context reuse a single order phase, protocol execution and
//! (lazy) `WReachIndex` sweep.
//!
//! The total number of communication rounds is
//! `(order phase) + 2r + (r + 1) = O(log n + r)`, comfortably within the
//! paper's `O(r²·log n)` bound (our substituted order phase is cheaper than
//! the one of \[46\]; see DESIGN.md §1.3).

use crate::context::{DistContext, DistContextConfig};
use crate::dist_wreach::{PathOutbox, PathSetMessage, PathView};
use bedom_distsim::{
    Engine, ExecutionStrategy, IdAssignment, Inbox, ModelViolation, Network, NodeAlgorithm,
    NodeContext, Outgoing, RunPolicy, RunStats,
};
use bedom_graph::{Graph, Vertex};
use bedom_wcol::LinearOrder;

/// Per-vertex state of the election/routing phase.
///
/// A token is the remaining path (super-id sequence) from the elected
/// dominator to the current holder; the holder broadcasts the token with
/// itself popped off, and the vertex whose super-id now terminates the path
/// becomes the next holder. A token of length 1 has reached its target, which
/// thereby learns it is in the dominating set.
#[derive(Debug)]
pub struct ElectionNode {
    sid: u32,
    id_bits: usize,
    /// `(target, length of the token forwarded towards it)`, sorted by
    /// target: a later token for the same target is forwarded only if it is
    /// shorter than that one, so duplicates are dropped.
    forwarded: Vec<(u32, usize)>,
    /// The init broadcast: the own token, built at construction and handed
    /// out by `init`.
    init: Option<PathSetMessage>,
    /// Whether this vertex has learnt it is in the dominating set.
    in_dominating_set: bool,
}

impl ElectionNode {
    /// Initial state: the vertex already knows its elected dominator path
    /// (from the weak-reachability phase outputs), which ends at `sid`.
    pub fn new(sid: u32, id_bits: usize, elected_path: PathView<'_>) -> Self {
        let mut node = ElectionNode {
            sid,
            id_bits,
            forwarded: Vec::new(),
            init: None,
            in_dominating_set: false,
        };
        // The path is the start, the interior and this vertex, which the
        // one-id path of a self-election lacks.
        let [start, interior, own] = elected_path.parts();
        debug_assert!(own.is_empty() || own == [sid]);
        if own.is_empty() {
            node.in_dominating_set = true;
        } else {
            // The token is the path with this vertex popped off.
            let len = elected_path.len() - 1;
            node.forwarded.push((start[0], len));
            let mut message = PathSetMessage::with_capacity(id_bits, 1, len);
            message.push(&[start, interior]);
            node.init = Some(message);
        }
        node
    }

    /// Accepts a token whose last entry is this vertex, and returns the
    /// token to forward, if any.
    fn accept<'p>(&mut self, path: &'p [u32]) -> Option<&'p [u32]> {
        debug_assert_eq!(path.last(), Some(&self.sid));
        if path.len() == 1 {
            // The token has reached its target: self-election.
            self.in_dominating_set = true;
            return None;
        }
        let target = path[0];
        let forward = &path[..path.len() - 1];
        match self.forwarded.binary_search_by_key(&target, |&(t, _)| t) {
            Ok(i) if path.len() < self.forwarded[i].1 => self.forwarded[i].1 = forward.len(),
            Ok(_) => return None,
            Err(i) => self.forwarded.insert(i, (target, forward.len())),
        }
        Some(forward)
    }
}

impl NodeAlgorithm for ElectionNode {
    type Message = PathSetMessage;
    type Output = bool;

    fn init(&mut self, _ctx: &NodeContext) -> Outgoing<PathSetMessage> {
        self.init
            .take()
            .map_or(Outgoing::Silent, Outgoing::Broadcast)
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        _round: usize,
        inbox: Inbox<'_, PathSetMessage>,
    ) -> Outgoing<PathSetMessage> {
        PathOutbox::with(|outbox| {
            for message in inbox {
                for path in message.payload.paths() {
                    if path.last() != Some(&self.sid) {
                        continue;
                    }
                    if let Some(forward) = self.accept(path) {
                        outbox.push(&[forward]);
                    }
                }
            }
            outbox.broadcast(self.id_bits)
        })
    }

    fn output(&self, _ctx: &NodeContext) -> bool {
        self.in_dominating_set
    }
}

/// Result of the full distributed dominating-set computation (Theorem 9).
#[derive(Clone, Debug)]
pub struct DistDomSetResult {
    /// The computed distance-`r` dominating set, sorted by vertex id.
    pub dominating_set: Vec<Vertex>,
    /// Dominator elected by each vertex (`min WReach_r[w]`), as graph vertex.
    pub dominator_of: Vec<Vertex>,
    /// The linear order induced by the distributed super-ids.
    pub order: LinearOrder,
    /// Rounds used by the order phase.
    pub order_rounds: usize,
    /// Rounds used by the weak-reachability phase (= 2r).
    pub wreach_rounds: usize,
    /// Rounds used by the election/routing phase.
    pub election_rounds: usize,
    /// Statistics of the three phases, in order.
    pub phase_stats: Vec<RunStats>,
    /// The measured constant `max_w |WReach_2r[w]|` (the approximation-ratio
    /// bound of Theorem 9 for this run), read off the protocol outputs —
    /// length-filtered to `2r`-edge paths, so it is exact even when the
    /// shared context's reach radius exceeds `2r`.
    pub measured_constant: usize,
}

impl DistDomSetResult {
    /// Total communication rounds across all phases.
    pub fn total_rounds(&self) -> usize {
        self.order_rounds + self.wreach_rounds + self.election_rounds
    }

    /// Largest single message observed across all phases, in bits.
    pub fn max_message_bits(&self) -> usize {
        self.phase_stats
            .iter()
            .map(|s| s.max_message_bits)
            .max()
            .unwrap_or(0)
    }
}

/// Configuration of the distributed dominating-set algorithm.
#[derive(Clone, Copy, Debug)]
pub struct DistDomSetConfig {
    /// Domination radius `r`.
    pub r: u32,
    /// Identifier assignment used in the order phase.
    pub assignment: IdAssignment,
    /// Bandwidth multiplier for the weak-reachability and election phases
    /// (`None` = measure only; see
    /// [`WReachConfig::bandwidth_logs`](crate::WReachConfig::bandwidth_logs)).
    pub bandwidth_logs: Option<usize>,
    /// Engine execution strategy for every phase (sequential and parallel
    /// produce bit-identical results).
    pub strategy: ExecutionStrategy,
}

impl DistDomSetConfig {
    /// Reasonable defaults: shuffled ids, no bandwidth enforcement, and the
    /// size-gated automatic execution strategy.
    pub fn new(r: u32) -> Self {
        DistDomSetConfig {
            r,
            assignment: IdAssignment::Shuffled(0x5eed),
            bandwidth_logs: None,
            strategy: ExecutionStrategy::Auto,
        }
    }

    /// The same configuration with an explicit execution strategy.
    pub fn with_strategy(r: u32, strategy: ExecutionStrategy) -> Self {
        DistDomSetConfig {
            strategy,
            ..DistDomSetConfig::new(r)
        }
    }
}

/// Runs the full Theorem 9 pipeline on `graph`: elects a fresh
/// [`DistContext`] at reach radius `2r` and solves in it.
pub fn distributed_distance_domination(
    graph: &Graph,
    config: DistDomSetConfig,
) -> Result<DistDomSetResult, ModelViolation> {
    let ctx = DistContext::elect(
        graph,
        DistContextConfig {
            assignment: config.assignment,
            bandwidth_logs: config.bandwidth_logs,
            strategy: config.strategy,
            ..DistContextConfig::for_domination(config.r)
        },
    )?;
    distributed_distance_domination_in(&ctx, config.r)
}

/// Runs the election/routing phases of Theorem 9 against an existing
/// [`DistContext`] — the order phase and the weak-reachability protocol are
/// taken from (and cached in) the context, so several consumers of one
/// context (a cover, the connected variant, repeated radii) share a single
/// execution of each.
///
/// The context's reach radius may exceed `2r` (Theorem 10 solves with a
/// `2r + 1` context): the election only considers stored paths of at most
/// `r` edges, so the computed `D` is the Theorem 9 set either way.
///
/// # Panics
/// Panics if `ctx.max_radius() < 2r`.
pub fn distributed_distance_domination_in(
    ctx: &DistContext<'_>,
    r: u32,
) -> Result<DistDomSetResult, ModelViolation> {
    // In u64, so that no r doubles past u32::MAX and wraps below the
    // context's radius.
    let reach = 2 * u64::from(r);
    assert!(
        u64::from(ctx.max_radius()) >= reach,
        "radius-{r} domination needs a context of reach radius ≥ {reach}, got {}",
        ctx.max_radius()
    );
    let graph = ctx.graph();
    let n = graph.num_vertices();

    if n == 0 {
        return Ok(DistDomSetResult {
            dominating_set: Vec::new(),
            dominator_of: Vec::new(),
            order: LinearOrder::identity(0),
            order_rounds: 0,
            wreach_rounds: 0,
            election_rounds: 0,
            phase_stats: vec![],
            measured_constant: 0,
        });
    }

    // Phase 2 (shared): weak reachability at the context's reach radius.
    let wreach = ctx.wreach()?;

    // Phase 3: election and token routing (r + 1 rounds: the init broadcast
    // plus up to r forwarding hops). Every vertex elects min WReach_r[w].
    let id_bits = ctx.id_bits();
    let info = &wreach.info;
    let elected_sids: Vec<u32> = info
        .iter()
        .map(|info| info.min_reachable_within(r as usize))
        .collect();
    let mut election = Network::new(graph, ctx.model(), IdAssignment::Natural, |v, _ctx| {
        let my_info = &info[v as usize];
        let elected_path = my_info
            .paths
            .get(elected_sids[v as usize])
            .expect("elected start must have a stored path");
        ElectionNode::new(my_info.sid, id_bits, elected_path)
    });
    election.set_strategy(ctx.strategy());
    Engine::new(&mut election).run(RunPolicy::fixed(r as usize + 1))?;
    let in_set = election.outputs();
    let election_stats = election.stats().clone();

    // Assemble the result; sid → vertex resolution is the context's shared
    // lookup table (a local renaming, not a network step).
    let dominator_of: Vec<Vertex> = elected_sids
        .iter()
        .map(|&sid| {
            ctx.vertex_of_sid(u64::from(sid))
                .expect("elected sid must belong to a vertex")
        })
        .collect();
    let dominating_set: Vec<Vertex> = graph.vertices().filter(|&v| in_set[v as usize]).collect();
    // Token-routing invariant: the set of vertices whose token route
    // completed must equal exactly `{ dominator_of[w] : w ∈ V }`. On a
    // reliable network this always holds (tokens travel ≤ r stored-path
    // hops in r forwarding rounds); a mismatch means messages were lost in
    // transit, and the run fails with a typed error instead of returning a
    // set that silently fails to dominate.
    let mut elected: Vec<Vertex> = dominator_of.clone();
    elected.sort_unstable();
    elected.dedup();
    if elected != dominating_set {
        return Err(ModelViolation::TokenLost {
            round: r as usize + 1,
            expected: elected.len(),
            received: dominating_set.len(),
        });
    }
    // Theorem 9's constant is c(2r); on a shared context with a larger reach
    // radius, count only stored paths of ≤ 2r edges (restricted shortest
    // paths, so the filter recovers |WReach_2r| exactly — same as the cover
    // and the connected variant do). No-op at an exact-radius context.
    let rho = 2 * r as usize;
    let measured_constant = wreach
        .info
        .iter()
        .map(|info| {
            info.paths
                .values()
                .filter(|path| path.len() - 1 <= rho)
                .count()
        })
        .max()
        .unwrap_or(0);

    Ok(DistDomSetResult {
        dominating_set,
        dominator_of,
        order: ctx.order().clone(),
        order_rounds: ctx.order_rounds(),
        wreach_rounds: wreach.rounds,
        election_rounds: election_stats.rounds,
        phase_stats: vec![
            ctx.order_stats().clone(),
            wreach.stats.clone(),
            election_stats,
        ],
        measured_constant,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
    use bedom_graph::generators::{
        chung_lu_power_law, configuration_model_power_law, cycle, grid, maximal_outerplanar, path,
        random_ktree, random_tree, stacked_triangulation,
    };

    fn check(graph: &Graph, r: u32) -> DistDomSetResult {
        let result = distributed_distance_domination(graph, DistDomSetConfig::new(r)).unwrap();
        assert!(
            is_distance_dominating_set(graph, &result.dominating_set, r),
            "not a distance-{r} dominating set"
        );
        // The set must equal exactly { dominator_of[w] : w }, i.e. the
        // election reached every elected vertex.
        let mut elected: Vec<Vertex> = result.dominator_of.clone();
        elected.sort_unstable();
        elected.dedup();
        assert_eq!(
            elected, result.dominating_set,
            "election routing lost a token"
        );
        // Theorem 9 size bound against the packing lower bound.
        let lb = packing_lower_bound(graph, r).max(1);
        assert!(
            result.dominating_set.len() <= result.measured_constant * lb,
            "size {} > c·lb = {}·{}",
            result.dominating_set.len(),
            result.measured_constant,
            lb
        );
        result
    }

    #[test]
    fn structured_graphs() {
        for r in 1..=2u32 {
            check(&path(40), r);
            check(&cycle(30), r);
            check(&grid(9, 9), r);
            check(&random_tree(100, 3), r);
        }
    }

    #[test]
    fn planar_and_sparse_random_graphs() {
        check(&stacked_triangulation(200, 1), 1);
        check(&stacked_triangulation(200, 1), 2);
        check(&maximal_outerplanar(150), 2);
        check(&random_ktree(150, 3, 2), 1);
        check(&configuration_model_power_law(250, 2.5, 2, 8, 3), 1);
        check(&chung_lu_power_law(250, 2.5, 2.0, 10.0, 3), 1);
    }

    #[test]
    fn round_complexity_is_logarithmic_in_n_and_linear_in_r() {
        let mut rounds_by_n = Vec::new();
        for n in [200usize, 800, 3200] {
            let g = random_tree(n, 7);
            let result = check(&g, 2);
            rounds_by_n.push(result.total_rounds());
            // O(log n + r) bound, generously instantiated.
            let bound = 3 * bedom_distsim::log2_ceil(n) + 10 * 2 + 10;
            assert!(result.total_rounds() <= bound);
        }
        // Growth must be sublinear: quadrupling n adds only O(1) rounds.
        assert!(rounds_by_n[2] <= rounds_by_n[0] + 8);

        let g = grid(12, 12);
        let r1 = check(&g, 1).total_rounds();
        let r3 = check(&g, 3).total_rounds();
        assert!(r3 > r1);
        assert!(r3 <= r1 + 3 * 2 + 4, "r-dependence should be linear-ish");
    }

    #[test]
    fn agrees_with_sequential_algorithm_given_same_order() {
        // When fed the same order, the distributed algorithm must output
        // exactly the sequential D = {min WReach_r[w]}.
        let g = stacked_triangulation(120, 9);
        let r = 2;
        let result = check(&g, r);
        let seq = crate::seq_domset::domset_via_min_wreach(&g, &result.order, r);
        assert_eq!(seq.dominating_set, result.dominating_set);
    }

    #[test]
    fn bandwidth_enforcement_at_paper_bound_succeeds() {
        let g = stacked_triangulation(150, 4);
        let r = 1;
        // First run unenforced to learn the constant, then enforce the
        // corresponding Lemma 7 / Theorem 9 bandwidth and re-run.
        let probe = distributed_distance_domination(&g, DistDomSetConfig::new(r)).unwrap();
        let c = probe.measured_constant.max(1);
        let config = DistDomSetConfig {
            bandwidth_logs: Some(8 * c * c * (2 * r as usize + 1)),
            ..DistDomSetConfig::new(r)
        };
        let enforced = distributed_distance_domination(&g, config).unwrap();
        assert_eq!(enforced.dominating_set, probe.dominating_set);
    }

    #[test]
    fn works_under_adversarial_id_assignments() {
        let g = grid(10, 10);
        for assignment in [
            IdAssignment::Natural,
            IdAssignment::Shuffled(3),
            IdAssignment::ReverseBfs,
            IdAssignment::ReverseDegeneracy,
        ] {
            let config = DistDomSetConfig {
                assignment,
                ..DistDomSetConfig::new(2)
            };
            let result = distributed_distance_domination(&g, config).unwrap();
            assert!(is_distance_dominating_set(&g, &result.dominating_set, 2));
        }
    }

    #[test]
    fn two_radii_share_one_context_and_one_protocol_run() {
        // A context at reach radius 2·2 answers both the r = 1 and the r = 2
        // election; the order phase and the weak-reachability protocol run
        // once, and both sets are the ones fresh pipelines would compute on
        // the same order.
        let g = stacked_triangulation(160, 6);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(2)).unwrap();
        let r2 = distributed_distance_domination_in(&ctx, 2).unwrap();
        assert!(ctx.wreach_ran());
        let r1 = distributed_distance_domination_in(&ctx, 1).unwrap();
        assert_eq!(r1.order, r2.order, "both queries read the shared order");
        // The measured constant is radius-exact even on the shared context.
        assert_eq!(
            r1.measured_constant,
            bedom_wcol::wcol_of_order(&g, ctx.order(), 2),
            "r = 1 constant must be c(2), not c(4)"
        );
        assert_eq!(
            r2.measured_constant,
            bedom_wcol::wcol_of_order(&g, ctx.order(), 4)
        );
        for (result, r) in [(&r1, 1u32), (&r2, 2u32)] {
            assert!(is_distance_dominating_set(&g, &result.dominating_set, r));
            let seq = crate::seq_domset::domset_via_min_wreach(&g, ctx.order(), r);
            assert_eq!(seq.dominating_set, result.dominating_set, "r = {r}");
        }
    }

    #[test]
    #[should_panic(expected = "needs a context of reach radius")]
    fn context_with_too_small_radius_is_rejected() {
        let g = grid(4, 4);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(1)).unwrap();
        let _ = distributed_distance_domination_in(&ctx, 2);
    }

    #[test]
    #[should_panic(expected = "needs a context of reach radius")]
    fn radius_whose_double_overflows_u32_is_rejected() {
        let g = path(5);
        let ctx = DistContext::elect(&g, DistContextConfig::for_domination(1)).unwrap();
        let _ = distributed_distance_domination_in(&ctx, 1 << 31);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Graph::empty(0);
        let result = distributed_distance_domination(&empty, DistDomSetConfig::new(2)).unwrap();
        assert!(result.dominating_set.is_empty());

        let single = Graph::empty(1);
        let result = distributed_distance_domination(&single, DistDomSetConfig::new(2)).unwrap();
        assert_eq!(result.dominating_set, vec![0]);

        let disconnected = bedom_graph::graph_from_edges(6, &[(0, 1), (2, 3), (4, 5)]);
        let result =
            distributed_distance_domination(&disconnected, DistDomSetConfig::new(1)).unwrap();
        assert!(is_distance_dominating_set(
            &disconnected,
            &result.dominating_set,
            1
        ));
        assert_eq!(result.dominating_set.len(), 3);
    }
}
