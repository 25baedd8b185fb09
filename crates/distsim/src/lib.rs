//! # bedom-distsim
//!
//! A synchronous distributed-computing simulator for the **bedom** project:
//! the LOCAL and CONGEST_BC models of Section 2 of *"Distributed Domination
//! on Graph Classes of Bounded Expansion"* (SPAA 2018), with a broadcast-only
//! engine (so the broadcast restriction holds by type), run-time enforcement
//! of the bandwidth, and detailed round/bit accounting.
//!
//! Two execution styles are provided:
//!
//! * The **superstep executor** ([`network::Network`]) — drives one
//!   [`node::NodeAlgorithm`] state machine per vertex in lockstep rounds,
//!   with zero-copy broadcast delivery, per-round statistics
//!   ([`trace::RunStats::per_round`]) and a single sequential/parallel code
//!   path ([`ExecutionStrategy`]). [`network::Network::run`] executes the
//!   fixed number of rounds a protocol's theorem prescribes; every
//!   CONGEST_BC algorithm of the paper runs through it, because there the
//!   round count and the message sizes are the measured quantities.
//! * [`local::run_local`] — ball-based evaluation of LOCAL-model algorithms
//!   (a `t`-round LOCAL algorithm is a function of each vertex's radius-`t`
//!   view), used for the paper's LOCAL-model results where messages may be
//!   arbitrarily large and materialising them would be wasteful.
//!
//! On top of single-instance execution, [`scenario::ScenarioRunner`] shards
//! **batches** of independent `(graph, config)` instances across the workers
//! of an [`ExecutionStrategy`] with per-worker scratch reuse — the entry
//! point for multi-graph workloads.
//!
//! Both styles are deterministic; parallel and sequential evaluation are
//! bit-identical (asserted by the workspace's determinism test suite).
//!
//! The executor also supports **fault injection and self-healing**: a seeded
//! [`fault::FaultPlan`] schedules message drops, link outages and crash
//! windows inside [`network::Network::step`] (deterministically — the same
//! plan produces the same faults under every [`ExecutionStrategy`]),
//! algorithms surface lost knowledge as typed [`model::ModelViolation`]s
//! instead of silently wrong outputs, and [`engine::run_with_recovery`]
//! steps the network under periodic in-memory checkpoints, rolls back and
//! replays until a run passes its invariant check.
//!
//! [`journal::BatchJournal`] makes batches durable: each completed shard is
//! one versioned, checksummed frame of the [`codec`] in an append-only file,
//! so an interrupted batch resumes bit-identically.

pub mod codec;
pub mod engine;
pub mod fault;
pub mod ids;
pub mod journal;
pub mod local;
pub mod message;
pub mod model;
pub mod network;
pub mod node;
pub mod scenario;
pub mod trace;

pub use bedom_par::ExecutionStrategy;
pub use codec::{encode_frame, ByteCodec, CodecError, FrameError, FrameReader};
pub use engine::{run_with_recovery, RecoveryExhausted, RecoveryPolicy, RecoveryReport};
pub use fault::{CrashWindow, FaultPlan};
pub use ids::IdAssignment;
pub use journal::{BatchJournal, DurabilityMode, JournalError, ShardRecord};
pub use local::{build_view, run_local, run_local_with, LocalView};
pub use message::MessageSize;
pub use model::{id_bits, log2_ceil, Model, ModelViolation};
pub use network::Network;
pub use node::{Inbox, Incoming, NodeAlgorithm, NodeContext, Outgoing};
pub use scenario::{ReportSink, ScenarioReport, ScenarioRunner, ShardMetrics, ShardReport};
pub use trace::{RoundStats, RunStats};

#[cfg(test)]
mod randomized_tests {
    //! Deterministic randomised tests over seeded graph families (the
    //! registry-free stand-in for the former proptest suite).

    use super::*;
    use bedom_graph::generators::{gnp, random_tree};
    use bedom_graph::Graph;
    use bedom_rng::DetRng;

    /// Count, at every vertex, the number of distinct ids heard within `k`
    /// rounds of flooding; must equal |N_k[v]| exactly.
    struct NeighborhoodCounter {
        known: std::collections::BTreeSet<u64>,
        fresh: Vec<u64>,
    }

    impl NodeAlgorithm for NeighborhoodCounter {
        type Message = Vec<u64>;
        type Output = usize;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<Vec<u64>> {
            self.known.insert(ctx.id);
            self.fresh = vec![ctx.id];
            Outgoing::Broadcast(self.fresh.clone())
        }

        fn round(
            &mut self,
            _ctx: &NodeContext,
            _round: usize,
            inbox: Inbox<'_, Vec<u64>>,
        ) -> Outgoing<Vec<u64>> {
            let mut new_fresh = Vec::new();
            for msg in inbox {
                for &id in msg.payload {
                    if self.known.insert(id) {
                        new_fresh.push(id);
                    }
                }
            }
            new_fresh.sort_unstable();
            new_fresh.dedup();
            self.fresh = new_fresh;
            if self.fresh.is_empty() {
                Outgoing::Silent
            } else {
                Outgoing::Broadcast(self.fresh.clone())
            }
        }

        fn output(&self, _ctx: &NodeContext) -> usize {
            self.known.len()
        }
    }

    fn arb_graph(rng: &mut DetRng) -> Graph {
        if rng.gen_range(0..2u32) == 0 {
            random_tree(rng.gen_range(5..40usize), rng.gen_range(0..50u64))
        } else {
            gnp(rng.gen_range(5..40usize), 0.15, rng.gen_range(0..50u64))
        }
    }

    fn for_each_case(cases: usize, mut body: impl FnMut(usize, &mut DetRng)) {
        for case in 0..cases {
            let mut rng = DetRng::seed_from_u64(0x6469_7374_7369_6d00 ^ case as u64);
            body(case, &mut rng);
        }
    }

    fn counter_network(g: &Graph, seed: u64) -> Network<'_, NeighborhoodCounter> {
        Network::new(g, Model::Local, IdAssignment::Shuffled(seed), |_, _| {
            NeighborhoodCounter {
                known: Default::default(),
                fresh: Vec::new(),
            }
        })
    }

    #[test]
    fn flooding_counts_exactly_the_k_ball() {
        for_each_case(32, |case, rng| {
            let g = arb_graph(rng);
            let k = rng.gen_range(0..4usize);
            let seed = rng.gen_range(0..100u64);
            let mut net = counter_network(&g, seed);
            net.run(k).unwrap();
            let outputs = net.outputs();
            for v in g.vertices() {
                let ball = bedom_graph::bfs::closed_neighborhood(&g, v, k as u32);
                assert_eq!(outputs[v as usize], ball.len(), "case {case}, vertex {v}");
            }
        });
    }

    #[test]
    fn parallel_matches_sequential_round_by_round() {
        for_each_case(32, |case, rng| {
            let g = arb_graph(rng);
            let seed = rng.gen_range(0..100u64);
            let build = |strategy: ExecutionStrategy| {
                let mut net = counter_network(&g, seed);
                net.set_strategy(strategy);
                net.run(4).unwrap();
                assert_eq!(net.stats().per_round.len(), 4);
                (
                    net.outputs(),
                    net.stats().total_bits,
                    net.stats().total_deliveries,
                    net.stats().per_round.clone(),
                )
            };
            assert_eq!(
                build(ExecutionStrategy::Sequential),
                build(ExecutionStrategy::Parallel),
                "case {case}"
            );
        });
    }

    #[test]
    fn local_view_ball_matches_bfs() {
        for_each_case(32, |case, rng| {
            let g = arb_graph(rng);
            let r = rng.gen_range(0..4u32);
            let ids = IdAssignment::Natural.assign(&g);
            for v in g.vertices() {
                let view = build_view(&g, &ids, v, r);
                let ball = bedom_graph::bfs::closed_neighborhood(&g, v, r);
                assert_eq!(&view.ball, &ball, "case {case}, vertex {v}");
            }
        });
    }
}
