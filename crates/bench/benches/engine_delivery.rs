//! The superstep engine's double-buffered, zero-copy broadcast delivery on a
//! 100k-vertex stacked planar triangulation, sequential and parallel.
//!
//! The protocol is a token relay — the communication pattern of the paper's
//! election and token-routing phases (Theorem 9) and the connected-set
//! flooding (Theorem 10): every vertex broadcasts a bundle of fixed-size
//! tokens, each addressed (in its header word) to one neighbour, and every
//! receiver scans the header of each delivered token, keeping only the ones
//! addressed to it. This is how an addressed message travels over CONGEST_BC
//! broadcast: `d − 1` of a broadcast's `d` receivers discard it after
//! reading one word. The engine delivers by reference, so a discarded token
//! costs one cache line instead of a clone.
//!
//! The sequential and parallel engines are checked to move identical traffic
//! before timing starts, and the shared counting allocator
//! (`bedom_bench::alloc::CountingAlloc`) reports the allocations one run
//! makes. Each timing is the median of `SAMPLES` runs after an untimed
//! warm-up run. No committed `BENCH_*.json` file holds these rows; the bench
//! is the instrument for engine delivery until the engine reports per-round
//! timings itself.

use bedom_bench::alloc::{count_allocs, CountingAlloc};
use bedom_bench::report::{time_samples, write_json_report};
use bedom_distsim::{
    ExecutionStrategy, IdAssignment, Inbox, Model, Network, NodeAlgorithm, NodeContext, Outgoing,
};
use bedom_graph::generators::stacked_triangulation;
use bedom_graph::Graph;
use std::hint::black_box;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const N: usize = 100_000;
const ROUNDS: usize = 8;
/// Words per token, sized like the election phase's path-set payloads.
const P: usize = 48;
const SAMPLES: usize = 3;

/// Keeps the tokens addressed to this vertex and re-addresses each to the
/// vertex's lowest-id neighbour.
fn keep_and_readdress(
    my_id: u64,
    next_hop: u64,
    payloads: &mut dyn Iterator<Item = &Vec<u64>>,
) -> Option<Vec<u64>> {
    let mut mine: Vec<u64> = Vec::new();
    for payload in payloads {
        for token in payload.chunks_exact(P) {
            if token[0] == my_id {
                let start = mine.len();
                mine.extend_from_slice(token);
                mine[start] = next_hop;
            }
        }
    }
    if mine.is_empty() {
        None
    } else {
        Some(mine)
    }
}

/// Token relay on the engine.
struct Relay;

impl NodeAlgorithm for Relay {
    type Message = Vec<u64>;
    type Output = u64;

    fn init(&mut self, ctx: &NodeContext) -> Outgoing<Vec<u64>> {
        let mut token = vec![ctx.id; P];
        token[0] = *ctx.neighbor_ids.first().unwrap_or(&ctx.id);
        Outgoing::Broadcast(token)
    }

    fn round(
        &mut self,
        ctx: &NodeContext,
        _: usize,
        inbox: Inbox<'_, Vec<u64>>,
    ) -> Outgoing<Vec<u64>> {
        let next_hop = *ctx.neighbor_ids.first().unwrap_or(&ctx.id);
        match keep_and_readdress(ctx.id, next_hop, &mut inbox.iter().map(|m| m.payload)) {
            Some(out) => Outgoing::Broadcast(out),
            None => Outgoing::Silent,
        }
    }

    fn output(&self, _: &NodeContext) -> u64 {
        0
    }
}

fn total_bits_engine(graph: &Graph, strategy: ExecutionStrategy) -> usize {
    let mut net = Network::new(graph, Model::Local, IdAssignment::Natural, |_, _| Relay);
    net.set_strategy(strategy);
    net.run(ROUNDS).unwrap();
    net.stats().total_bits
}

fn bench_delivery() {
    let graph = stacked_triangulation(N, 3);
    // Cross-check: both strategies must move exactly the same traffic.
    assert_eq!(
        total_bits_engine(&graph, ExecutionStrategy::Sequential),
        total_bits_engine(&graph, ExecutionStrategy::Parallel),
        "sequential and parallel engine disagree"
    );

    // Allocation profile of one full run (network construction and algorithm
    // allocations included).
    let engine_allocs = count_allocs(|| {
        black_box(total_bits_engine(&graph, ExecutionStrategy::Sequential));
    });
    println!("allocations for one {ROUNDS}-round relay on n = {N}: engine-flat = {engine_allocs}");

    for (id, strategy) in [
        ("relay8/engine-flat-seq", ExecutionStrategy::Sequential),
        ("relay8/engine-flat-par", ExecutionStrategy::Parallel),
    ] {
        let (_, secs) = time_samples(id, SAMPLES, || total_bits_engine(&graph, strategy));
        println!(
            "{id}: {:.3} Melem/s",
            (N * ROUNDS) as f64 / secs / 1_000_000.0
        );
    }
}

fn main() {
    bench_delivery();
    write_json_report();
}
