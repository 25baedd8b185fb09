//! Allocation regression for the phases every Theorem 9 solve runs.
//!
//! * The index sweep: `DistContext::index()` must stay `O(workers)` in
//!   allocation count — one epoch-stamped BFS scratch per worker, one set of
//!   ball buffers per chunk, one final CSR — never `Θ(n)` fresh vectors (the
//!   seed's per-ball `vec![false; n]`) nor the per-batch lane buffers of a
//!   64-source word-parallel sweep.
//! * The packing lower bound: `packing_lower_bound` must allocate in
//!   proportion to its balls, never an `n`-sized array per packing vertex.
//! * Network set-up: `Network::new` must allocate a fixed number of flat
//!   arrays, never one neighbour-id vector per vertex.
//! * The Lemma 7 protocol: `DistContext::wreach()` must stay within a fixed
//!   number of allocations per vertex — a flat path store per vertex, one
//!   outbox per thread, one message per broadcast — never one vector per
//!   stored or forwarded path — and within a budget of peak live bytes per
//!   vertex, which holds the stores' and messages' compact layout.
//! * The Theorem 9 election on a context whose Lemma 7 run is cached: a
//!   fixed number of allocations per vertex, with no outbox per vertex.
//! * One whole distributed Theorem 9 solve: a budget of peak live bytes per
//!   vertex, which holds the solve's index sweep apart from the Lemma 7
//!   stores — the sweep runs before the protocol and is dropped.
//! * Theorem 10 on a context whose Lemma 7 run is cached: a fixed number of
//!   allocations per vertex for the election and the path flood, which
//!   keep no path of their own, and a budget of peak live bytes per vertex
//!   for one whole connected solve.
//!
//! Lives in its own integration-test binary, with a single `#[test]`, so the
//! shared counting allocator (`bedom_bench::alloc::CountingAlloc`) sees no
//! interference from tests running on sibling threads.

use bedom::core::{
    distributed_connected_domination_in, distributed_distance_domination_in, DistContext,
    DistContextConfig, DominationPipeline, Mode,
};
use bedom::distsim::{
    ExecutionStrategy, IdAssignment, Inbox, Model, Network, NodeAlgorithm, NodeContext, Outgoing,
};
use bedom::graph::domset::packing_lower_bound;
use bedom::graph::generators::{configuration_model_power_law, stacked_triangulation};
use bedom::wcol::WReachIndex;
use bedom_bench::alloc::{alloc_bytes, count_allocs, peak_bytes, CountingAlloc};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Peak live bytes per vertex of a ρ = 4 Lemma 7 run, including the result
/// the context keeps: 1040 (planar-tri) and 930 (config-model) with each
/// stored path's first and last id implicit, 1291 and 1152 with both ids in
/// the store's arena, 1673 and 1415 with an outbox and a neighbour-id vector
/// per vertex as well, 2644 and 2232 with 64-bit super-ids as well.
const PEAK_BUDGET: f64 = 1200.0;

/// Peak live bytes per vertex of one whole distributed Theorem 9 solve at
/// r = 2 (ρ = 4): 1080 (planar-tri) and 989 (config-model) with an election
/// that records only the targets it forwards to, 1086 and 1032 with a token
/// length per target as well, both with the index swept before Lemma 7 and
/// dropped; 1308 and 1221 with the index built after the election, beside
/// the Lemma 7 stores.
const SOLVE_PEAK_BUDGET: f64 = 1200.0;

/// Peak live bytes per vertex of one whole connected distributed solve at
/// r = 2 (ρ = 5): 2118 (config-model) and 1243 (planar-tri) with a path
/// flood that forwards by position and keeps no path, 4653 and 1324 with
/// every flooded path kept as its own vector in a set per vertex.
const CONNECTED_SOLVE_PEAK_BUDGET: f64 = 2400.0;

/// A protocol that never sends: its network costs only the set-up.
struct Silent;

impl NodeAlgorithm for Silent {
    type Message = ();
    type Output = ();

    fn init(&mut self, _: &NodeContext) -> Outgoing<()> {
        Outgoing::Silent
    }

    fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, ()>) -> Outgoing<()> {
        Outgoing::Silent
    }

    fn output(&self, _: &NodeContext) {}
}

#[test]
fn context_index_sweep_and_wreach_protocol_stay_within_their_allocation_budgets() {
    let n = 20_000;
    let radius = 2;
    let g = stacked_triangulation(n, 3);
    let ctx = DistContext::elect(
        &g,
        DistContextConfig {
            strategy: ExecutionStrategy::Sequential,
            ..DistContextConfig::new(radius)
        },
    )
    .expect("the order phase runs on a connected planar graph");
    let allocs = count_allocs(|| {
        ctx.index();
    });
    // The per-source sweep needs a few dozen allocations whatever n is: the
    // scratch, the chunk buffers and their growth, the CSR arrays. A
    // per-source allocation (≥ 20 000) or per-64-source-batch buffers
    // (≈ 313 batches) both trip the budget.
    assert!(
        allocs < 100,
        "DistContext::index() performed {allocs} allocations on n = {n} (budget 100)"
    );
    assert_eq!(
        ctx.index(),
        &WReachIndex::build_with(&g, ctx.order(), radius, ExecutionStrategy::Sequential),
        "the context's index differs from the plain per-source build"
    );

    // The packing lower bound blocks each packing vertex's 2-ball through
    // the thread's shared BFS scratch: a fresh n-sized distance array per
    // packing vertex (the former layout allocated 99.5 MB here) trips the
    // budget.
    let mut packing = 0;
    let bytes = alloc_bytes(|| packing = packing_lower_bound(&g, 1));
    assert!(packing > 0);
    eprintln!("packing_lower_bound: {bytes} bytes allocated");
    assert!(
        bytes < 1 << 20,
        "packing_lower_bound allocated {bytes} bytes on n = {n} at r = 1 (budget 1 MiB)"
    );

    // The Lemma 7 protocol at radius 4: each vertex stores and forwards
    // dozens of paths, so one vector per path (the former layout made 80.0
    // and 60.8 allocations per vertex here) or an outbox per vertex (25.3 and
    // 21.2) trips the budget. The stores' arenas hold only path interiors
    // (16.3 and 14.4; 17.5 and 15.4 with whole paths).
    let n = 5_000;
    for (name, g) in [
        ("planar-tri", stacked_triangulation(n, 3)),
        (
            "config-model",
            configuration_model_power_law(n, 2.5, 2, 8, 3),
        ),
    ] {
        for (what, connected, budget) in [
            ("distributed", false, SOLVE_PEAK_BUDGET),
            ("connected distributed", true, CONNECTED_SOLVE_PEAK_BUDGET),
        ] {
            let peak = peak_bytes(|| {
                let report = DominationPipeline::new(2)
                    .mode(Mode::Distributed)
                    .connected(connected)
                    .execution(ExecutionStrategy::Sequential)
                    .solve(&g)
                    .expect("a fault-free distributed solve succeeds");
                assert!(report.election_verified);
            });
            let peak_per_vertex = peak as f64 / n as f64;
            eprintln!(
                "{name}: a {what} solve held {peak_per_vertex:.0} peak live bytes per vertex"
            );
            assert!(
                peak_per_vertex < budget,
                "{name}: a {what} r = 2 solve held {peak_per_vertex:.0} peak live bytes per \
                 vertex on n = {n} (budget {budget})"
            );
        }

        let ctx = DistContext::elect(
            &g,
            DistContextConfig {
                strategy: ExecutionStrategy::Sequential,
                ..DistContextConfig::new(4)
            },
        )
        .expect("the order phase runs on every generated graph");
        // A neighbour-id vector per vertex (the former layout made 5011
        // allocations here) trips the budget.
        let allocs = count_allocs(|| {
            Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| Silent);
        });
        eprintln!("{name}: Network::new performed {allocs} allocations");
        assert!(
            allocs < 32,
            "{name}: Network::new performed {allocs} allocations on n = {n} (budget 32)"
        );

        let mut allocs = 0;
        let peak = peak_bytes(|| {
            allocs = count_allocs(|| {
                ctx.wreach().expect("a fault-free protocol run succeeds");
            });
        });
        let per_vertex = allocs as f64 / n as f64;
        assert!(
            per_vertex < 18.0,
            "{name}: DistContext::wreach() performed {per_vertex:.1} allocations per vertex \
             on n = {n} (budget 18)"
        );
        let peak_per_vertex = peak as f64 / n as f64;
        eprintln!(
            "{name}: {per_vertex:.1} allocations and {peak_per_vertex:.0} peak live bytes \
             per vertex"
        );
        assert!(
            peak_per_vertex < PEAK_BUDGET,
            "{name}: DistContext::wreach() held {peak_per_vertex:.0} peak live bytes per vertex \
             on n = {n} (budget {PEAK_BUDGET})"
        );

        // The election on the cached Lemma 7 result: a token message per
        // sender and a forwarding record per vertex, so an outbox and a
        // neighbour-id vector per vertex (5.13 and 4.76 allocations per
        // vertex) trip the budget.
        let allocs = count_allocs(|| {
            distributed_distance_domination_in(&ctx, 2).expect("a fault-free election succeeds");
        });
        let per_vertex = allocs as f64 / n as f64;
        eprintln!("{name}: {per_vertex:.2} election allocations per vertex");
        assert!(
            per_vertex < 3.0,
            "{name}: distributed_distance_domination_in performed {per_vertex:.2} allocations \
             per vertex on n = {n} (budget 3)"
        );

        // Theorem 10 on the cached Lemma 7 result at ρ = 5: the election's
        // records plus one flood message per sender and round, so a vector
        // per flooded path (42.6 and 4.9 allocations per vertex) trips the
        // budget.
        let ctx = DistContext::elect(
            &g,
            DistContextConfig {
                strategy: ExecutionStrategy::Sequential,
                ..DistContextConfig::for_connected_domination(2)
            },
        )
        .expect("the order phase runs on every generated graph");
        ctx.wreach().expect("a fault-free protocol run succeeds");
        let allocs = count_allocs(|| {
            distributed_connected_domination_in(&ctx, 2)
                .expect("a fault-free connected run succeeds");
        });
        let per_vertex = allocs as f64 / n as f64;
        eprintln!("{name}: {per_vertex:.2} connected-phase allocations per vertex");
        assert!(
            per_vertex < 8.0,
            "{name}: distributed_connected_domination_in performed {per_vertex:.2} allocations \
             per vertex on n = {n} (budget 8)"
        );
    }
}
