//! Distributed constant-factor approximation of the minimum *connected*
//! distance-`r` dominating set in CONGEST_BC — Theorem 10 of the paper.
//!
//! The construction (Lemmas 11–13): compute an order for `wcol_{2r+1}`, run
//! the weak-reachability protocol with reach radius `ρ = 2r + 1`, elect the
//! dominating set `D = { min WReach_r[w] }` exactly as in Theorem 9, and then
//! let every vertex `v ∈ D` add, for each `w ∈ WReach_{2r+1}[v]`, the vertex
//! set of its stored path from `w` to `v`. By Lemma 12 the `L`-minimum of any
//! short path between two dominators is weakly `(2r+1)`-reachable from both,
//! so these added paths glue `D` together (Corollary 13), and by Lemma 11 the
//! result is connected whenever `G` is.
//!
//! Distributedly, the extra phase is a path-flooding protocol: every `v ∈ D`
//! broadcasts its stored paths, and every vertex on a flooded path joins `D'`
//! and forwards the path once. Every path a vertex forwards starts at a
//! member of its own weak reachability set, which bounds the number of
//! simultaneously forwarded paths by `c' = c(2r+1)` — the same bookkeeping as
//! in the proof of Theorem 10.
//!
//! No vertex keeps a path. Lemma 7 stores, per start, a shortest restricted
//! path (ties broken lexicographically), so every stored path is an induced
//! path of `G`: a chord would give a shorter restricted path. A path
//! `[t, …, v]` that its owner `v` broadcasts in `init` therefore reaches the
//! vertex `k` hops before `v` first in round `k`, from its successor on the
//! path; the flood runs on a fresh network, no vertex off the path ever
//! forwards it, and the only other path vertex adjacent to it, its
//! predecessor, sends it two rounds later. So round `k` forwards exactly the
//! received paths on which the vertex sits `k` hops before the owner, which
//! is the vertex's first and only forwarding of each. The suite pins both
//! Lemma 7 invariants this rests on (`tests/conformance.rs`).

use crate::context::DistContext;
use crate::dist_domset::{distributed_distance_domination_in, DistDomSetConfig, DistDomSetResult};
use crate::dist_wreach::{PathOutbox, PathSetMessage, PathStore, PathView};
use bedom_distsim::{
    IdAssignment, Inbox, ModelViolation, Network, NodeAlgorithm, NodeContext, Outgoing, RunStats,
};
use bedom_graph::{Graph, Vertex};

/// Per-vertex state of the path-flooding phase.
#[derive(Debug)]
struct PathFloodNode<'s> {
    sid: u32,
    id_bits: usize,
    /// ρ = 2r + 1: the longest seed path, in edges.
    rho: usize,
    /// Whether this vertex belongs to `D'`.
    in_connected_set: bool,
    /// The stored paths of a `D` member, broadcast in `init`; `None` for
    /// every other vertex.
    seeds: Option<&'s PathStore>,
}

impl NodeAlgorithm for PathFloodNode<'_> {
    type Message = PathSetMessage;
    type Output = bool;

    fn init(&mut self, _ctx: &NodeContext) -> Outgoing<PathSetMessage> {
        let Some(seeds) = self.seeds else {
            return Outgoing::Silent;
        };
        PathOutbox::with(|outbox| {
            for path in seeds.values().filter(|path| path.len() - 1 <= self.rho) {
                outbox.push(&path.parts());
            }
            outbox.broadcast(self.id_bits)
        })
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: usize,
        inbox: Inbox<'_, PathSetMessage>,
    ) -> Outgoing<PathSetMessage> {
        PathOutbox::with(|outbox| {
            for message in inbox {
                for path in message.payload.paths() {
                    let position = path.iter().position(|&id| id == self.sid);
                    if position.is_some_and(|p| path.len() - 1 - p == round) {
                        self.in_connected_set = true;
                        outbox.push(&[path]);
                    }
                }
            }
            outbox.broadcast(self.id_bits)
        })
    }

    fn output(&self, _ctx: &NodeContext) -> bool {
        self.in_connected_set
    }
}

/// Result of the Theorem 10 pipeline.
#[derive(Clone, Debug)]
pub struct DistConnectedResult {
    /// The plain distance-`r` dominating set `D` computed first.
    pub dominating_set: Vec<Vertex>,
    /// The connected distance-`r` dominating set `D' ⊇ D`.
    pub connected_dominating_set: Vec<Vertex>,
    /// Blow-up factor `|D'| / |D|` (1.0 when `D` is empty).
    pub blowup: f64,
    /// The Theorem 9 sub-result (order, per-phase stats, constants).
    pub domset: DistDomSetResult,
    /// Rounds used by the path-flooding phase.
    pub flood_rounds: usize,
    /// Statistics of the flooding phase.
    pub flood_stats: RunStats,
    /// The measured constant `c' = max_w |WReach_{2r+1}[w]|`.
    pub measured_constant: usize,
}

impl DistConnectedResult {
    /// Total communication rounds across all phases.
    pub fn total_rounds(&self) -> usize {
        self.domset.total_rounds() + self.flood_rounds
    }

    /// The bound of Theorem 10 on `|D'| / |D|`, namely `c'·(2r + 1)`.
    pub fn proven_blowup_bound(&self, r: u32) -> usize {
        self.measured_constant * (2 * r as usize + 1)
    }
}

/// Runs the full Theorem 10 pipeline: elects a fresh [`DistContext`] at
/// reach radius `2r + 1` and solves in it. A radius whose reach overflows
/// `u32` or exceeds what the Lemma 7 protocol accepts (`r ≥ 127`) fails with
/// [`ModelViolation::RadiusOutOfRange`] before the order phase.
pub fn distributed_connected_domination(
    graph: &Graph,
    config: DistDomSetConfig,
) -> Result<DistConnectedResult, ModelViolation> {
    distributed_connected_domination_in(&config.elect(graph, true)?, config.r)
}

/// Runs Theorem 10 against an existing [`DistContext`] (reach radius
/// `≥ 2r + 1`): the dominating-set election of Theorem 9 and the
/// path-flooding phase both read the context's single weak-reachability
/// execution — electing from the `(2r+1)`-radius run yields the same `D`
/// because the election only uses paths of length ≤ `r`
/// (`|WReach_2r| ≤ |WReach_{2r+1}|`, as the paper notes). A context whose
/// reach radius is below `2r + 1` fails with
/// [`ModelViolation::RadiusOutOfRange`], reporting the largest `r` it
/// serves.
pub fn distributed_connected_domination_in(
    ctx: &DistContext<'_>,
    r: u32,
) -> Result<DistConnectedResult, ModelViolation> {
    ctx.check_reach(r, true)?;
    let graph = ctx.graph();
    let n = graph.num_vertices();

    // Phases 1–3 of Theorem 9, shared through the context.
    let domset = distributed_distance_domination_in(ctx, r)?;

    if n == 0 {
        return Ok(DistConnectedResult {
            dominating_set: Vec::new(),
            connected_dominating_set: Vec::new(),
            blowup: 1.0,
            domset,
            flood_rounds: 0,
            flood_stats: RunStats::default(),
            measured_constant: 0,
        });
    }

    // Phase 4: path flooding from the members of D, seeded from the
    // context's cached weak-reachability outputs. A context at a reach
    // radius beyond 2r + 1 holds farther-reaching paths that belong to
    // WReach sets Theorem 10 never uses; the nodes filter them out (same as
    // the cover does), or the 2r + 2-round flood budget and the blow-up bound
    // would not hold. At an exact-radius context the filter is a no-op.
    let rho = 2 * r as usize + 1;
    let within_rho = |path: &PathView<'_>| path.len() - 1 <= rho;
    let id_bits = ctx.id_bits();
    let in_d: Vec<bool> = {
        let mut flags = vec![false; n];
        for &v in &domset.dominating_set {
            flags[v as usize] = true;
        }
        flags
    };
    let wreach_info = &ctx.wreach()?.info;
    let mut flood = Network::new(graph, ctx.model(), IdAssignment::Natural, |v, _ctx| {
        let info = &wreach_info[v as usize];
        let member = in_d[v as usize];
        PathFloodNode {
            sid: info.sid,
            id_bits,
            rho,
            in_connected_set: member,
            seeds: member.then_some(&info.paths),
        }
    });
    flood.set_strategy(ctx.strategy());
    // Paths have at most 2r + 2 vertices, so 2r + 2 rounds let every path
    // reach all of its vertices.
    flood.run(2 * r as usize + 2)?;
    let in_dprime = flood.outputs();
    let flood_stats = flood.stats().clone();

    let connected_dominating_set: Vec<Vertex> = graph
        .vertices()
        .filter(|&v| in_dprime[v as usize])
        .collect();
    let blowup = if domset.dominating_set.is_empty() {
        1.0
    } else {
        connected_dominating_set.len() as f64 / domset.dominating_set.len() as f64
    };
    // c' = max_w |WReach_{2r+1}[w]|, length-filtered for the same reason as
    // the seeds (equals the protocol's measured constant at exact radius).
    let measured_constant = wreach_info
        .iter()
        .map(|info| info.paths.values().filter(within_rho).count())
        .max()
        .unwrap_or(0);
    Ok(DistConnectedResult {
        dominating_set: domset.dominating_set.clone(),
        connected_dominating_set,
        blowup,
        flood_rounds: flood_stats.rounds,
        flood_stats,
        measured_constant,
        domset,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::lemma7_reach_radius;
    use bedom_graph::components::is_induced_connected;
    use bedom_graph::components::largest_component;
    use bedom_graph::domset::{is_distance_dominating_set, packing_lower_bound};
    use bedom_graph::generators::{
        configuration_model_power_law, cycle, grid, maximal_outerplanar, path, random_ktree,
        random_tree, stacked_triangulation,
    };

    #[test]
    fn radii_lemma7_refuses_fail_with_the_checked_reach_error() {
        // Lemma 7 refuses a reach of 255, and 2r + 1 overflows u32 for the others.
        let g = path(5);
        for r in [127, 1 << 31, u32::MAX] {
            let refused = lemma7_reach_radius(r, true).unwrap_err();
            let result = distributed_connected_domination(&g, DistDomSetConfig::new(r));
            assert_eq!(result.unwrap_err(), refused);
        }
        check(&g, 126);
    }

    fn check(graph: &Graph, r: u32) -> DistConnectedResult {
        let result = distributed_connected_domination(graph, DistDomSetConfig::new(r)).unwrap();
        // D' dominates, contains D, and is connected (G is connected in all
        // test instances).
        assert!(is_distance_dominating_set(
            graph,
            &result.connected_dominating_set,
            r
        ));
        for v in &result.dominating_set {
            assert!(result.connected_dominating_set.contains(v));
        }
        assert!(
            is_induced_connected(graph, &result.connected_dominating_set),
            "D' is not connected"
        );
        // Blow-up within the proven bound c'·(2r+1).
        assert!(
            result.connected_dominating_set.len()
                <= result.proven_blowup_bound(r) * result.dominating_set.len().max(1),
            "blow-up {} exceeds proven bound {}",
            result.blowup,
            result.proven_blowup_bound(r)
        );
        // Overall size bound against OPT of the *unconnected* problem (which
        // lower-bounds the connected optimum): c'²·(2r+1)·lb.
        let lb = packing_lower_bound(graph, r).max(1);
        let c = result.measured_constant;
        assert!(
            result.connected_dominating_set.len() <= c * c * (2 * r as usize + 1) * lb,
            "size {} > c'²(2r+1)·lb = {}",
            result.connected_dominating_set.len(),
            c * c * (2 * r as usize + 1) * lb
        );
        result
    }

    #[test]
    fn connected_domination_on_structured_graphs() {
        for r in 1..=2u32 {
            check(&path(40), r);
            check(&cycle(31), r);
            check(&grid(8, 8), r);
            check(&random_tree(90, 3), r);
        }
    }

    #[test]
    fn connected_domination_on_planar_and_sparse_families() {
        check(&stacked_triangulation(150, 1), 1);
        check(&stacked_triangulation(150, 1), 2);
        check(&maximal_outerplanar(100), 1);
        check(&random_ktree(120, 2, 4), 1);
        let cm = configuration_model_power_law(250, 2.5, 2, 8, 9);
        let (core, _) = cm.induced_subgraph(&largest_component(&cm));
        check(&core, 1);
    }

    #[test]
    fn blowup_is_modest_in_practice() {
        // The proven bound is c'·(2r+1); in practice the blow-up should be far
        // smaller (a handful), which is what experiment T4 reports.
        let g = stacked_triangulation(300, 5);
        let result = check(&g, 1);
        assert!(result.blowup <= 8.0, "blow-up {}", result.blowup);
    }

    #[test]
    fn round_complexity_stays_logarithmic() {
        let mut rounds = Vec::new();
        for n in [200usize, 800, 3200] {
            let g = random_tree(n, 5);
            let result = check(&g, 1);
            rounds.push(result.total_rounds());
        }
        assert!(
            rounds[2] <= rounds[0] + 8,
            "rounds grew too fast: {rounds:?}"
        );
    }

    #[test]
    fn oversized_context_matches_the_exact_radius_run() {
        // A context with a larger reach radius than Theorem 10 needs must
        // yield the same connected set as a dedicated 2r+1 context: the
        // flood seeds and the measured constant are filtered to path
        // lengths ≤ 2r+1, so farther-reaching paths of the bigger context
        // cannot leak into the construction.
        let g = stacked_triangulation(120, 8);
        let r = 1;
        let config = |max_radius| crate::DistContextConfig {
            assignment: IdAssignment::Shuffled(23),
            ..crate::DistContextConfig::new(max_radius)
        };
        let exact_ctx = crate::DistContext::elect(&g, config(2 * r + 1)).unwrap();
        let big_ctx = crate::DistContext::elect(&g, config(2 * r + 3)).unwrap();
        let exact = distributed_connected_domination_in(&exact_ctx, r).unwrap();
        let big = distributed_connected_domination_in(&big_ctx, r).unwrap();
        assert_eq!(exact.dominating_set, big.dominating_set);
        assert_eq!(exact.connected_dominating_set, big.connected_dominating_set);
        assert_eq!(exact.measured_constant, big.measured_constant);
        assert!(is_induced_connected(&g, &big.connected_dominating_set));
    }

    #[test]
    fn radius_whose_double_overflows_u32_is_rejected() {
        let g = path(5);
        let ctx =
            crate::DistContext::elect(&g, crate::DistContextConfig::for_domination(1)).unwrap();
        let err = distributed_connected_domination_in(&ctx, 1 << 31).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::RadiusOutOfRange {
                requested: 0x8000_0000,
                supported: 0,
                ..
            }
        ));
    }

    #[test]
    fn single_vertex_and_single_edge() {
        let single = Graph::empty(1);
        let result = distributed_connected_domination(&single, DistDomSetConfig::new(1)).unwrap();
        assert_eq!(result.connected_dominating_set, vec![0]);

        let edge = bedom_graph::graph_from_edges(2, &[(0, 1)]);
        let result = distributed_connected_domination(&edge, DistDomSetConfig::new(1)).unwrap();
        assert!(is_distance_dominating_set(
            &edge,
            &result.connected_dominating_set,
            1
        ));
        assert!(is_induced_connected(
            &edge,
            &result.connected_dominating_set
        ));
    }
}
