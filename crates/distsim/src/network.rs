//! The synchronous executor: one [`NodeAlgorithm`] instance per vertex, the
//! communication model, the delivery buffers and the statistics, and the one
//! loop that drives them.
//!
//! Every protocol in the workspace — the order phase, weak reachability, the
//! election, the connected-set flooding, the KSV family — runs the number of
//! rounds its theorem fixes through [`Network::run`]; the recovery supervisor
//! ([`crate::engine::run_with_recovery`]) steps the same network between its
//! checkpoints. The execution strategy (sequential vs `std::thread` chunks,
//! see [`bedom_par::ExecutionStrategy`]) is a *value*, not a code path: there
//! is exactly one implementation of a round, used by both modes, so
//! sequential and parallel runs are bit-identical by construction. Per-round
//! statistics accumulate in [`RunStats::per_round`].
//!
//! ## Double-buffered broadcast delivery
//!
//! Every outbox is silent or one broadcast ([`Outgoing`]). So a receiver's
//! inbox is its neighbours' outboxes, read in network-id order through the
//! id-sorted neighbour CSR the network builds once. Per round the executor
//!
//! 1. charges the current outboxes to the statistics,
//! 2. evaluates every vertex's transition on its [`Inbox`], writing the next
//!    outbox into a second pre-allocated outbox buffer, and
//! 3. swaps the two outbox buffers.
//!
//! An inbox reads payloads by reference, so **no payload is ever cloned**.
//! Under a fault plan it skips, as it is read, each broadcast the plan
//! drops. Delivery therefore does no per-round work, and with both outbox
//! buffers reused the executor performs no per-round heap allocation of its
//! own (payload allocations made by the algorithms themselves are theirs).
//! The `engine_delivery` bench in `bedom-bench` times it.
//!
//! ## Storage order
//!
//! Generators number vertices with no locality (a stacked triangulation
//! attaches each new vertex to a random face), so walking inboxes in vertex
//! order misses cache on every neighbour. The network therefore stores its
//! per-vertex state in *slots*: one BFS order of the graph, computed when it
//! is built. The node instances, both outbox buffers and the id-sorted
//! neighbour CSR are all indexed by slot, so a receiver's neighbours, and
//! the payloads they allocated earlier in the same sweep, sit near it in
//! memory. The CSR holds each slot's neighbours twice over one offset
//! array: as slots (the delivery order) and as network ids, the slice every
//! [`NodeContext`] of that slot borrows. Contexts are built per call, so a
//! network is built with a fixed number of allocations, none per vertex.
//!
//! Slots never leave this module. The factory receives the graph vertex,
//! [`Network::outputs`], [`Network::node`] and [`Network::id_of`] are keyed
//! by graph vertex, fault plans are asked about graph vertices, and model
//! violations are checked in graph-vertex order (so the first one reported
//! is the same whatever the layout). Inboxes are ordered by sender network
//! id, which the layout does not touch, so no protocol can observe it.
//! Checkpoints copy the state as stored, in slot order: they are
//! crate-private, and the recovery supervisor restores them into the
//! network that took them.

use crate::fault::{DeliveryFilter, FaultPlan};
use crate::ids::IdAssignment;
use crate::message::MessageSize;
use crate::model::{Model, ModelViolation};
use crate::node::{Inbox, NodeAlgorithm, NodeContext, Outgoing};
use crate::trace::{RoundStats, RunStats};
use bedom_graph::cast::u32_from_usize;
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// A configured network: the input graph, a communication model, an id
/// assignment, one algorithm instance per vertex, and the reusable delivery
/// buffers. Drive it with [`Network::run`].
///
/// Every per-vertex buffer below is indexed by storage slot (see the module
/// docs' *Storage order*).
pub struct Network<'g, A: NodeAlgorithm> {
    graph: &'g Graph,
    model: Model,
    /// The graph vertex stored in each slot: a BFS order of the graph.
    vertex_at: Vec<Vertex>,
    /// Inverse of `vertex_at`: the slot each graph vertex is stored in.
    slot_of: Vec<u32>,
    /// Network id of each slot's vertex.
    ids: Vec<u64>,
    nodes: Vec<A>,
    /// Outboxes produced by the last evaluated round (to be delivered next).
    outboxes: Vec<Outgoing<A::Message>>,
    /// Double buffer the next round's outboxes are written into.
    next_outboxes: Vec<Outgoing<A::Message>>,
    /// CSR offsets into [`Network::delivery_order`] and
    /// [`Network::neighbor_ids`]; length `n + 1`.
    nbr_offsets: Vec<u32>,
    /// Every slot's neighbour slots sorted by network id — the deterministic
    /// delivery order, precomputed once.
    delivery_order: Vec<u32>,
    /// The network ids of [`Network::delivery_order`]'s slots: each slot's
    /// sorted neighbour ids, which its contexts borrow.
    neighbor_ids: Vec<u64>,
    /// The installed fault schedule, if any. Configuration, not execution
    /// state: snapshots do not capture it and restores do not touch it.
    fault: Option<FaultPlan>,
    stats: RunStats,
    strategy: ExecutionStrategy,
    initialized: bool,
}

impl<A: NodeAlgorithm> std::fmt::Debug for Network<'_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("num_vertices", &self.ids.len())
            .field("model", &self.model)
            .field("strategy", &self.strategy)
            .field("initialized", &self.initialized)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'g, A: NodeAlgorithm> Network<'g, A> {
    /// Builds a network over `graph` where vertex `v` runs the instance
    /// produced by `factory(v, &context_of_v)`. The factory is called once
    /// per vertex, in an unspecified order.
    pub fn new(
        graph: &'g Graph,
        model: Model,
        assignment: IdAssignment,
        mut factory: impl FnMut(Vertex, &NodeContext) -> A,
    ) -> Self {
        let n = graph.num_vertices();
        let id_of = assignment.assign(graph);
        let vertex_at = crate::ids::bfs_order(graph);
        let mut slot_of = vec![0u32; n];
        for (slot, &v) in vertex_at.iter().enumerate() {
            slot_of[v as usize] = u32_from_usize(slot);
        }
        let ids: Vec<u64> = vertex_at.iter().map(|&v| id_of[v as usize]).collect();
        // The slot holding each id (ids are always a dense permutation of
        // `0..n`).
        let mut slot_of_id = vec![0u32; n];
        for (slot, &id) in ids.iter().enumerate() {
            debug_assert!((id as usize) < n, "id assignments are dense permutations");
            slot_of_id[id as usize] = u32_from_usize(slot);
        }

        // The id-sorted neighbour CSR: each slot's neighbour ids, sorted,
        // then the slots holding them — the deterministic delivery order.
        let mut nbr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut neighbor_ids: Vec<u64> = Vec::with_capacity(2 * graph.num_edges());
        nbr_offsets.push(0);
        for &v in &vertex_at {
            let start = neighbor_ids.len();
            neighbor_ids.extend(graph.neighbors(v).iter().map(|&w| id_of[w as usize]));
            neighbor_ids[start..].sort_unstable();
            nbr_offsets.push(u32_from_usize(neighbor_ids.len()));
        }
        let delivery_order: Vec<u32> = neighbor_ids
            .iter()
            .map(|&id| slot_of_id[id as usize])
            .collect();
        let nodes: Vec<A> = vertex_at
            .iter()
            .enumerate()
            .map(|(s, &v)| factory(v, &context_at(&ids, &nbr_offsets, &neighbor_ids, s)))
            .collect();

        Network {
            graph,
            model,
            ids,
            vertex_at,
            slot_of,
            nodes,
            outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            next_outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            nbr_offsets,
            delivery_order,
            neighbor_ids,
            fault: None,
            stats: RunStats::default(),
            strategy: ExecutionStrategy::Sequential,
            initialized: false,
        }
    }

    /// Selects the execution strategy for round evaluation. Sequential and
    /// parallel execution produce bit-identical results.
    pub fn set_strategy(&mut self, strategy: ExecutionStrategy) -> &mut Self {
        self.strategy = strategy;
        self
    }

    /// The strategy rounds are evaluated with.
    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// The communication model in force.
    pub fn model(&self) -> Model {
        self.model
    }

    /// Installs a fault schedule. All subsequent [`Network::step`]s honour
    /// it: drops and outages suppress individual deliveries (tracked in
    /// [`RoundStats::dropped_deliveries`]), crashed vertices neither send,
    /// receive nor transition for their windows
    /// ([`RoundStats::crashed`]). Round 0 is never faulted.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.fault = Some(plan);
        self
    }

    /// Removes the installed fault schedule — the crash-restore step of the
    /// recovery supervisor ([`crate::engine::run_with_recovery`]). Returns
    /// the removed plan, if any.
    pub(crate) fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault schedule, if any.
    #[cfg(test)]
    pub(crate) fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// The network id assigned to graph vertex `v`.
    pub fn id_of(&self, v: Vertex) -> u64 {
        self.ids[self.slot_of[v as usize] as usize]
    }

    /// Statistics of the execution so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// Runs the initialisation step (round 0) if it has not run yet. Called
    /// automatically by [`Network::run`] and [`Network::step`].
    pub fn init(&mut self) -> Result<(), ModelViolation> {
        if self.initialized {
            return Ok(());
        }
        let (ids, nbr_offsets, neighbor_ids) = (&self.ids, &self.nbr_offsets, &self.neighbor_ids);
        self.strategy
            .zip_apply(&mut self.nodes, &mut self.outboxes, |s, node, slot| {
                *slot = node.init(&context_at(ids, nbr_offsets, neighbor_ids, s));
            });
        self.validate(&self.outboxes, 0)?;
        self.initialized = true;
        Ok(())
    }

    /// Executes exactly `rounds` communication rounds: the initialisation
    /// step (round 0) if the network is fresh, then `rounds` calls of
    /// [`Network::step`]. Successive calls compose: the global round counter
    /// and the statistics continue where the previous call stopped.
    pub fn run(&mut self, rounds: usize) -> Result<(), ModelViolation> {
        self.init()?;
        for _ in 0..rounds {
            self.step()?;
        }
        Ok(())
    }

    /// Executes a single communication round — delivers the current outboxes
    /// and computes the next ones — and returns its statistics. This is the
    /// single-round primitive; use [`Network::run`] for whole executions.
    pub fn step(&mut self) -> Result<RoundStats, ModelViolation> {
        self.init()?;
        let round_index = self.stats.rounds + 1;

        // Fault preamble. Crashed senders lose whatever they queued last
        // round: silencing their outboxes up front keeps the accounting and
        // the delivery consistent without special cases. `active_at` gates
        // all of this, so fault-free rounds (and fault-free networks) pay
        // nothing.
        let fault = self.fault.as_ref().filter(|p| p.active_at(round_index));
        let mut crashed = 0usize;
        if let Some(plan) = fault {
            for (out, &v) in self.outboxes.iter_mut().zip(&self.vertex_at) {
                if plan.is_crashed(round_index, v) {
                    crashed += 1;
                    *out = Outgoing::Silent;
                }
            }
        }

        // Account for what is about to be delivered. Under a fault plan the
        // sender still pays the wire cost of every message it offers
        // (`bits_sent`), but suppressed deliveries move from `deliveries` to
        // `dropped_deliveries`.
        let mut round_stats = RoundStats {
            round: round_index,
            crashed,
            ..RoundStats::default()
        };
        let graph = self.graph;
        for (out, &v) in self.outboxes.iter().zip(&self.vertex_at) {
            let Outgoing::Broadcast(m) = out else {
                continue;
            };
            let bits = m.size_bits();
            round_stats.senders += 1;
            let degree = graph.degree(v);
            let delivered = match fault {
                Some(plan) => graph
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| plan.delivers(round_index, v, w))
                    .count(),
                None => degree,
            };
            round_stats.deliveries += delivered;
            round_stats.dropped_deliveries += degree - delivered;
            round_stats.bits_sent += bits;
            // The per-round maximum is frame-granular: payloads that model a
            // framing layer report their largest frame, so a hub's split
            // broadcast no longer dominates the statistic while its full
            // (framed) cost still lands in bits_sent.
            round_stats.max_message_bits = round_stats.max_message_bits.max(m.max_frame_bits());
            self.stats.max_vertex_round_bits = self.stats.max_vertex_round_bits.max(bits);
        }

        // Evaluate every vertex's transition through the one execution path;
        // results land in the second outbox buffer by slot. Inboxes read
        // straight off the pre-sorted neighbour CSR and, under a fault plan,
        // filter on read.
        {
            let outboxes = &self.outboxes;
            let ids = &self.ids;
            let vertex_at = &self.vertex_at;
            let nbr_offsets = &self.nbr_offsets;
            let delivery_order = &self.delivery_order;
            let neighbor_ids = &self.neighbor_ids;
            self.strategy
                .zip_apply(&mut self.nodes, &mut self.next_outboxes, |w, node, slot| {
                    let receiver = vertex_at[w];
                    if fault.is_some_and(|plan| plan.is_crashed(round_index, receiver)) {
                        // A crashed vertex neither receives nor transitions;
                        // its state freezes until restore.
                        *slot = Outgoing::Silent;
                        return;
                    }
                    let inbox = Inbox {
                        neighbors: &delivery_order
                            [nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize],
                        ids,
                        filter: fault.map(|plan| DeliveryFilter {
                            plan,
                            round: round_index,
                            receiver,
                            vertex_at,
                        }),
                        outboxes,
                    };
                    let ctx = context_at(ids, nbr_offsets, neighbor_ids, w);
                    *slot = node.round(&ctx, round_index, inbox);
                });
        }
        self.validate(&self.next_outboxes, round_index)?;
        std::mem::swap(&mut self.outboxes, &mut self.next_outboxes);
        self.stats.push_round(round_stats);
        Ok(round_stats)
    }

    /// Captures the complete execution state — node state machines, pending
    /// outboxes, statistics — as a [`NetworkSnapshot`], in storage order.
    /// Restoring it into this network, or one built identically over the
    /// same graph (same factory, model, ids and strategy), resumes the run
    /// **bit-identically**: the next round's inboxes read the restored
    /// outboxes, so nothing observable depends on when the snapshot was
    /// taken. This is the checkpoint primitive behind
    /// [`crate::engine::run_with_recovery`].
    pub(crate) fn snapshot(&self) -> NetworkSnapshot<A>
    where
        A: Clone,
        A::Message: Clone,
    {
        NetworkSnapshot {
            nodes: self.nodes.clone(),
            outboxes: self.outboxes.clone(),
            stats: self.stats.clone(),
            initialized: self.initialized,
        }
    }

    /// Restores the execution state captured by [`Network::snapshot`].
    ///
    /// # Panics
    /// Panics if the snapshot's vertex count differs from this network's.
    pub(crate) fn restore(&mut self, snapshot: &NetworkSnapshot<A>)
    where
        A: Clone,
        A::Message: Clone,
    {
        assert_eq!(
            snapshot.nodes.len(),
            self.graph.num_vertices(),
            "snapshot is for a {}-vertex network, this one has {}",
            snapshot.nodes.len(),
            self.graph.num_vertices()
        );
        self.nodes.clone_from(&snapshot.nodes);
        self.outboxes.clone_from(&snapshot.outboxes);
        for slot in &mut self.next_outboxes {
            *slot = Outgoing::Silent;
        }
        self.stats.clone_from(&snapshot.stats);
        self.initialized = snapshot.initialized;
    }

    /// Collects every vertex's output, indexed by graph vertex.
    pub fn outputs(&self) -> Vec<A::Output> {
        self.slot_of
            .iter()
            .map(|&s| {
                let ctx = context_at(&self.ids, &self.nbr_offsets, &self.neighbor_ids, s as usize);
                self.nodes[s as usize].output(&ctx)
            })
            .collect()
    }

    /// Consumes the network and returns every vertex's algorithm instance,
    /// indexed by graph vertex, so a caller can move state out where
    /// [`Network::outputs`] would clone it.
    pub fn into_nodes(self) -> Vec<A> {
        let (mut nodes, mut vertex_at) = (self.nodes, self.vertex_at);
        // Cycle-follow the permutation: each swap settles slot `t`'s vertex.
        for s in 0..nodes.len() {
            while vertex_at[s] as usize != s {
                let t = vertex_at[s] as usize;
                nodes.swap(s, t);
                vertex_at.swap(s, t);
            }
        }
        nodes
    }

    /// Immutable access to a vertex's algorithm instance (for white-box
    /// assertions in tests).
    pub fn node(&self, v: Vertex) -> &A {
        &self.nodes[self.slot_of[v as usize] as usize]
    }

    /// Checks every broadcast against the model's bandwidth, in graph-vertex
    /// order, so the first violation reported does not depend on the layout.
    fn validate(
        &self,
        outboxes: &[Outgoing<A::Message>],
        round: usize,
    ) -> Result<(), ModelViolation> {
        let Some(limit) = self.model.max_message_bits(self.graph.num_vertices()) else {
            return Ok(());
        };
        for &s in &self.slot_of {
            let s = s as usize;
            if let Outgoing::Broadcast(m) = &outboxes[s] {
                let bits = m.size_bits();
                if bits > limit {
                    return Err(ModelViolation::MessageTooLarge {
                        vertex: self.ids[s],
                        round,
                        bits,
                        limit,
                    });
                }
            }
        }
        Ok(())
    }
}

/// The context of the vertex in slot `s`: its id, and its sorted neighbour
/// ids borrowed from the network's CSR.
fn context_at<'a>(
    ids: &[u64],
    nbr_offsets: &[u32],
    neighbor_ids: &'a [u64],
    s: usize,
) -> NodeContext<'a> {
    NodeContext {
        id: ids[s],
        n: ids.len(),
        neighbor_ids: &neighbor_ids[nbr_offsets[s] as usize..nbr_offsets[s + 1] as usize],
    }
}

/// A checkpoint of a [`Network`]'s execution state, captured by
/// [`Network::snapshot`] and consumed by [`Network::restore`]: the node state
/// machines and the outboxes pending delivery, both in storage order, and
/// the accumulated statistics (including the global round counter). The
/// delivery order is derived from the graph and ids, so it is not captured.
pub(crate) struct NetworkSnapshot<A: NodeAlgorithm> {
    nodes: Vec<A>,
    outboxes: Vec<Outgoing<A::Message>>,
    stats: RunStats,
    initialized: bool,
}

impl<A: NodeAlgorithm> NetworkSnapshot<A> {
    /// The global round index at which the snapshot was taken.
    pub(crate) fn rounds(&self) -> usize {
        self.stats.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::node::Incoming;
    use bedom_graph::generators::{cycle, grid, path, star};

    /// Flood the maximum id through the network: each vertex repeatedly
    /// broadcasts the largest id it has heard of. After `diameter` rounds
    /// every vertex knows the global maximum — a classic smoke-test protocol.
    pub(crate) struct MaxIdFlood {
        pub best: u64,
        pub changed: bool,
    }

    impl NodeAlgorithm for MaxIdFlood {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.best = ctx.id;
            self.changed = true;
            Outgoing::Broadcast(self.best)
        }

        fn round(
            &mut self,
            _ctx: &NodeContext,
            _round: usize,
            inbox: Inbox<'_, u64>,
        ) -> Outgoing<u64> {
            let incoming_best = inbox.iter().map(|m| *m.payload).max().unwrap_or(0);
            if incoming_best > self.best {
                self.best = incoming_best;
                self.changed = true;
            } else {
                self.changed = false;
            }
            if self.changed {
                Outgoing::Broadcast(self.best)
            } else {
                Outgoing::Silent
            }
        }

        fn output(&self, _ctx: &NodeContext) -> u64 {
            self.best
        }
    }

    fn new_flood(graph: &Graph, model: Model) -> Network<'_, MaxIdFlood> {
        Network::new(graph, model, IdAssignment::Natural, |_, _| MaxIdFlood {
            best: 0,
            changed: false,
        })
    }

    #[test]
    fn max_id_flood_converges_in_diameter_rounds() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.run(9).unwrap();
        let outputs = net.outputs();
        assert!(outputs.iter().all(|&b| b == 9));
        assert_eq!(net.stats().rounds, 9);
    }

    #[test]
    fn insufficient_rounds_leave_far_vertices_unaware() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.run(3).unwrap();
        let outputs = net.outputs();
        assert_eq!(outputs[0], 3); // vertex 0 has only heard up to id 3
        assert_eq!(outputs[9], 9);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = grid(12, 12);
        let mut seq = new_flood(&g, Model::congest_bc_scaled(32));
        seq.set_strategy(ExecutionStrategy::Sequential);
        seq.run(30).unwrap();
        let mut par = new_flood(&g, Model::congest_bc_scaled(32));
        par.set_strategy(ExecutionStrategy::Parallel);
        par.run(30).unwrap();
        assert_eq!(seq.outputs(), par.outputs());
        assert_eq!(seq.stats().total_bits, par.stats().total_bits);
        assert_eq!(seq.stats().total_deliveries, par.stats().total_deliveries);
    }

    #[test]
    fn stats_account_broadcasts() {
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.run(1).unwrap();
        let stats = net.stats();
        assert_eq!(stats.rounds, 1);
        // Round 1 delivers the init-round broadcasts of all 6 vertices.
        assert_eq!(stats.per_round[0].senders, 6);
        assert_eq!(stats.per_round[0].deliveries, 12);
        assert_eq!(stats.max_message_bits, 64);
    }

    /// A flood that re-broadcasts its best id every round, so every vertex
    /// sends in every round.
    struct ChattyFlood(u64);

    impl NodeAlgorithm for ChattyFlood {
        type Message = u64;
        type Output = u64;
        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.0 = ctx.id;
            Outgoing::Broadcast(self.0)
        }
        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            self.0 = inbox.iter().map(|m| *m.payload).fold(self.0, u64::max);
            Outgoing::Broadcast(self.0)
        }
        fn output(&self, _: &NodeContext) -> u64 {
            self.0
        }
    }

    fn chatty_net(g: &Graph) -> Network<'_, ChattyFlood> {
        Network::new(
            g,
            Model::congest_bc_scaled(32),
            IdAssignment::Natural,
            |_, _| ChattyFlood(0),
        )
    }

    #[test]
    fn run_executes_exactly_its_round_budget() {
        let g = star(5);
        let mut net = chatty_net(&g);
        net.run(7).unwrap();
        let stats = net.stats();
        assert_eq!(stats.rounds, 7);
        assert_eq!(
            stats.per_round.iter().map(|r| r.round).collect::<Vec<_>>(),
            (1..=7).collect::<Vec<_>>()
        );
        // Every round all 5 vertices broadcast.
        assert!(stats.per_round.iter().all(|r| r.senders == 5));
    }

    #[test]
    fn multiple_runs_compose_and_keep_global_round_numbers() {
        let g = path(8);
        let mut net = chatty_net(&g);
        net.run(2).unwrap();
        net.run(0).unwrap();
        net.run(3).unwrap();
        assert_eq!(net.stats().rounds, 5);
        assert_eq!(
            net.stats().per_round[2..]
                .iter()
                .map(|r| r.round)
                .collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        let mut whole = chatty_net(&g);
        whole.run(5).unwrap();
        assert_eq!(net.stats(), whole.stats());
        assert_eq!(net.outputs(), whole.outputs());
    }

    /// A stateful protocol for snapshot tests: every vertex sums all values
    /// it has ever received and re-broadcasts its running total, so any
    /// divergence in a resumed run compounds and is caught by the final
    /// comparison.
    #[derive(Clone)]
    struct Accumulator {
        total: u64,
    }

    impl NodeAlgorithm for Accumulator {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.total = ctx.id + 1;
            Outgoing::Broadcast(self.total)
        }

        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            self.total += inbox.iter().map(|m| *m.payload).sum::<u64>();
            Outgoing::Broadcast(self.total)
        }

        fn output(&self, _: &NodeContext) -> u64 {
            self.total
        }
    }

    fn accumulator_net(g: &Graph) -> Network<'_, Accumulator> {
        Network::new(g, Model::Local, IdAssignment::Shuffled(11), |_, _| {
            Accumulator { total: 0 }
        })
    }

    #[test]
    fn resumed_run_from_snapshot_is_bit_identical() {
        // BFS from vertex 0 numbers `star(9)` as it is; on the scrambled grid
        // the storage order differs from the vertex numbering.
        for g in [star(9), scrambled(&grid(3, 3), 4)] {
            let total_rounds = 10;

            // Uninterrupted reference run.
            let mut reference = accumulator_net(&g);
            reference.run(total_rounds).unwrap();

            // Checkpointed run: snapshot at round 6, between two `run` calls;
            // the source network moves on, and a *fresh* network resumes.
            let mut first = accumulator_net(&g);
            first.run(6).unwrap();
            let snapshot = first.snapshot();
            assert_eq!(snapshot.rounds(), 6);
            assert_eq!(snapshot.nodes.len(), 9);
            first.run(1).unwrap();

            let mut resumed = accumulator_net(&g);
            resumed.restore(&snapshot);
            assert_eq!(resumed.stats().rounds, 6);
            resumed.run(total_rounds - 6).unwrap();

            // Outputs and full statistics, the per-round stream included,
            // must match the uninterrupted run exactly.
            assert_eq!(resumed.outputs(), reference.outputs());
            assert_eq!(resumed.stats(), reference.stats());
        }
    }

    /// An algorithm that records its whole inbox, to pin down delivery order.
    struct InboxRecorder {
        seen: Vec<(u64, u64)>,
    }

    impl NodeAlgorithm for InboxRecorder {
        type Message = u64;
        type Output = Vec<(u64, u64)>;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            Outgoing::Broadcast(ctx.id * 100)
        }

        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            for Incoming { from, payload } in inbox {
                self.seen.push((from, *payload));
            }
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) -> Vec<(u64, u64)> {
            self.seen.clone()
        }
    }

    #[test]
    fn delivery_order_is_sorted_by_sender_id_even_with_shuffled_ids() {
        let g = star(8);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Shuffled(3), |_, _| {
            InboxRecorder { seen: Vec::new() }
        });
        net.run(1).unwrap();
        for (v, seen) in net.outputs().into_iter().enumerate() {
            let froms: Vec<u64> = seen.iter().map(|&(f, _)| f).collect();
            let mut sorted = froms.clone();
            sorted.sort_unstable();
            assert_eq!(froms, sorted, "vertex {v} saw unsorted inbox");
            for (from, payload) in seen {
                assert_eq!(payload, from * 100);
            }
        }
    }

    /// An algorithm whose message grows past any bandwidth limit.
    struct Bloater;

    impl NodeAlgorithm for Bloater {
        type Message = Vec<u64>;
        type Output = ();

        fn init(&mut self, _ctx: &NodeContext) -> Outgoing<Vec<u64>> {
            Outgoing::Broadcast(vec![0; 64])
        }

        fn round(
            &mut self,
            _: &NodeContext,
            _: usize,
            _: Inbox<'_, Vec<u64>>,
        ) -> Outgoing<Vec<u64>> {
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) {}
    }

    #[test]
    fn oversized_message_rejected_in_congest_but_fine_in_local() {
        let g = path(8);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| {
            Bloater
        });
        let err = net.run(1).unwrap_err();
        assert!(matches!(err, ModelViolation::MessageTooLarge { .. }));

        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| Bloater);
        net.run(1).unwrap();
    }

    #[test]
    fn shuffled_ids_still_converge_to_global_max() {
        let g = grid(8, 8);
        let mut net = Network::new(
            &g,
            Model::congest_bc_scaled(32),
            IdAssignment::Shuffled(5),
            |_, _| MaxIdFlood {
                best: 0,
                changed: false,
            },
        );
        net.run(20).unwrap();
        assert!(net.outputs().iter().all(|&b| b == 63));
    }

    #[test]
    fn dropped_broadcasts_move_from_deliveries_to_dropped() {
        use crate::fault::FaultPlan;
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.set_fault_plan(FaultPlan::seeded(1).drop_messages(1.0).during(1, 2));
        net.run(2).unwrap();
        let stats = net.stats();
        // Round 1: every init broadcast offered, none delivered.
        assert_eq!(stats.per_round[0].senders, 6);
        assert_eq!(stats.per_round[0].deliveries, 0);
        assert_eq!(stats.per_round[0].dropped_deliveries, 12);
        assert!(
            stats.per_round[0].bits_sent > 0,
            "senders still pay the wire"
        );
        // Round 2 is outside the fault window; nobody heard anything in
        // round 1, so nobody has news to flood and the round is silent.
        assert_eq!(stats.per_round[1].dropped_deliveries, 0);
        assert_eq!(stats.dropped_deliveries, 12);
    }

    #[test]
    fn crashed_vertex_freezes_and_blocks_the_flood() {
        use crate::fault::FaultPlan;
        let g = path(10);
        // Vertex 5 is down for the whole run: the max id 9 cannot cross it.
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.set_fault_plan(FaultPlan::seeded(0).crash(5, 1, 100));
        net.run(9).unwrap();
        let outputs = net.outputs();
        assert!(
            outputs[..5].iter().all(|&b| b <= 4),
            "flood crossed a crashed vertex"
        );
        assert_eq!(outputs[5], 5, "crashed vertex keeps its frozen init state");
        assert!(outputs[6..].iter().all(|&b| b == 9));
        assert_eq!(net.stats().crashed_vertex_rounds, 9);
        assert!(net.stats().dropped_deliveries > 0);
    }

    #[test]
    fn crash_window_end_restores_the_vertex() {
        use crate::fault::FaultPlan;
        // Unlike the event-driven `MaxIdFlood` (whose neighbours fall silent
        // and never retransmit), `ChattyFlood` keeps offering state to a
        // restored vertex.
        let g = path(5);
        let mut net = chatty_net(&g);
        net.set_fault_plan(FaultPlan::seeded(0).crash(2, 1, 3));
        net.run(10).unwrap();
        // After the restore round the flood crosses the revived vertex and
        // still converges everywhere.
        assert!(net.outputs().iter().all(|&b| b == 4));
        assert_eq!(net.stats().crashed_vertex_rounds, 2);
    }

    #[test]
    fn faulty_runs_are_bit_identical_across_strategies() {
        use crate::fault::FaultPlan;
        let g = grid(10, 10);
        let plan = FaultPlan::seeded(0xfa57)
            .drop_messages(0.2)
            .link_outages(0.05)
            .crash(17, 2, 5);
        let run = |strategy: ExecutionStrategy| {
            let mut net = new_flood(&g, Model::congest_bc_scaled(32));
            net.set_strategy(strategy);
            net.set_fault_plan(plan.clone());
            net.run(25).unwrap();
            (net.outputs(), net.stats().clone())
        };
        let seq = run(ExecutionStrategy::Sequential);
        let par = run(ExecutionStrategy::Parallel);
        assert_eq!(seq, par);
        assert!(seq.1.dropped_deliveries > 0, "the plan should bite");
    }

    /// The FNV-1a (64-bit) offset basis.
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Continues an FNV-1a (64-bit) hash over `bytes`.
    fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// Broadcasts its state on odd rounds; on even rounds even ids broadcast
    /// a round-salted state and odd ids stay silent, so silent senders are
    /// covered too. Folds every `(from, payload)` it receives, in inbox
    /// order, into its state.
    #[derive(Clone, Debug)]
    struct Folder(u64);

    impl Folder {
        fn send(&self, ctx: &NodeContext, round: usize) -> Outgoing<u64> {
            if round % 2 == 1 {
                Outgoing::Broadcast(self.0)
            } else if ctx.id.is_multiple_of(2) {
                Outgoing::Broadcast(self.0 ^ round as u64)
            } else {
                Outgoing::Silent
            }
        }
    }

    impl NodeAlgorithm for Folder {
        type Message = u64;
        type Output = u64;
        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.0 = fnv1a_extend(FNV_OFFSET, &ctx.id.to_le_bytes());
            self.send(ctx, 0)
        }
        fn round(
            &mut self,
            ctx: &NodeContext,
            round: usize,
            inbox: Inbox<'_, u64>,
        ) -> Outgoing<u64> {
            for Incoming { from, payload } in inbox {
                self.0 = fnv1a_extend(self.0, &from.to_le_bytes());
                self.0 = fnv1a_extend(self.0, &payload.to_le_bytes());
            }
            self.send(ctx, round)
        }
        fn output(&self, _: &NodeContext) -> u64 {
            self.0
        }
    }

    /// `g` with its vertices renumbered by a seeded random permutation, so a
    /// BFS from vertex 0 no longer follows the numbering.
    fn scrambled(g: &Graph, seed: u64) -> Graph {
        let mut perm: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
        bedom_rng::DetRng::seed_from_u64(seed).shuffle(&mut perm);
        g.relabel(&perm)
    }

    /// `slot_of[v]`: the position of `v` in the BFS order from vertex 0.
    fn bfs_slots(g: &Graph) -> Vec<usize> {
        let mut slot_of = vec![0; g.num_vertices()];
        for (slot, &v) in crate::ids::bfs_order(g).iter().enumerate() {
            slot_of[v as usize] = slot;
        }
        slot_of
    }

    #[test]
    fn into_nodes_returns_nodes_in_graph_vertex_order() {
        let g = scrambled(&grid(12, 12), 5);
        let slot_of = bfs_slots(&g);
        assert!((0..g.num_vertices()).any(|v| slot_of[v] != v));
        // Each node remembers the vertex its factory call was for.
        let net = Network::new(&g, Model::Local, IdAssignment::Shuffled(3), |v, _| {
            MaxIdFlood {
                best: u64::from(v),
                changed: false,
            }
        });
        let owners: Vec<u64> = net.into_nodes().iter().map(|node| node.best).collect();
        assert_eq!(owners, (0..g.num_vertices() as u64).collect::<Vec<_>>());
    }

    /// Everything observable at the network's boundary must be keyed by graph
    /// vertex and network id, whatever order the network stores vertices in:
    /// outputs, ids, statistics and the first reported model violation. A
    /// round-3 snapshot restored into a fresh, identically built network
    /// must resume to the same outputs and statistics. The scrambled shapes
    /// make a BFS order differ from the numbering; `path-40` (where BFS is
    /// the identity) is the control.
    #[test]
    fn boundary_outputs_match_their_pins() {
        use bedom_graph::generators::{configuration_model_power_law, stacked_triangulation};
        let shapes = [
            ("grid-12x12", scrambled(&grid(12, 12), 1)),
            (
                "planar-tri-300",
                scrambled(&stacked_triangulation(300, 5), 2),
            ),
            (
                "config-model-300",
                scrambled(&configuration_model_power_law(300, 2.5, 2, 8, 3), 3),
            ),
            ("path-40", path(40)),
        ];
        let pins: [(&str, IdAssignment, bool, u64); 16] = [
            (
                "grid-12x12",
                IdAssignment::Natural,
                false,
                0xa139_9747_7ce6_40f1,
            ),
            (
                "grid-12x12",
                IdAssignment::Natural,
                true,
                0xbca6_696b_3067_5fb1,
            ),
            (
                "grid-12x12",
                IdAssignment::Shuffled(11),
                false,
                0x7fb3_06c0_2ef9_f9be,
            ),
            (
                "grid-12x12",
                IdAssignment::Shuffled(11),
                true,
                0x038e_7987_782f_ebf7,
            ),
            (
                "planar-tri-300",
                IdAssignment::Natural,
                false,
                0x5f89_7df3_7eb4_4fa8,
            ),
            (
                "planar-tri-300",
                IdAssignment::Natural,
                true,
                0x7e17_c2a9_81ba_30d9,
            ),
            (
                "planar-tri-300",
                IdAssignment::Shuffled(11),
                false,
                0xa293_ecd0_814f_44cd,
            ),
            (
                "planar-tri-300",
                IdAssignment::Shuffled(11),
                true,
                0xa627_fe0e_8048_21d6,
            ),
            (
                "config-model-300",
                IdAssignment::Natural,
                false,
                0x91bd_eca3_e991_9a42,
            ),
            (
                "config-model-300",
                IdAssignment::Natural,
                true,
                0x72b9_6507_0360_daf0,
            ),
            (
                "config-model-300",
                IdAssignment::Shuffled(11),
                false,
                0x6726_933c_164b_fd61,
            ),
            (
                "config-model-300",
                IdAssignment::Shuffled(11),
                true,
                0x4d10_bded_15a7_6aa3,
            ),
            (
                "path-40",
                IdAssignment::Natural,
                false,
                0x069c_fc6d_eba9_b1db,
            ),
            (
                "path-40",
                IdAssignment::Natural,
                true,
                0x7395_7bff_a16d_4297,
            ),
            (
                "path-40",
                IdAssignment::Shuffled(11),
                false,
                0xbae0_0e3f_51eb_5a0a,
            ),
            (
                "path-40",
                IdAssignment::Shuffled(11),
                true,
                0xd715_aa0a_9ce4_a9bc,
            ),
        ];
        let mut actual = Vec::new();
        for &(name, assignment, faulty, _) in &pins {
            let g = &shapes.iter().find(|(shape, _)| *shape == name).unwrap().1;
            let n = g.num_vertices();
            let slot_of = bfs_slots(g);
            let crashed = (0..n).find(|&v| slot_of[v] != v).unwrap_or(n / 2) as Vertex;
            let build = || {
                let mut net = Network::new(g, Model::Local, assignment, |_, _| Folder(0));
                if faulty {
                    let plan = FaultPlan::seeded(0xb0d7)
                        .drop_messages(0.2)
                        .link_outages(0.05)
                        .crash(crashed, 2, 5);
                    net.set_fault_plan(plan);
                }
                net
            };
            let mut net = build();
            net.run(3).unwrap();
            let snapshot = net.snapshot();
            net.run(5).unwrap();
            let mut resumed = build();
            resumed.restore(&snapshot);
            resumed.run(5).unwrap();
            assert_eq!(resumed.outputs(), net.outputs(), "{name}: resumed outputs");
            assert_eq!(resumed.stats(), net.stats(), "{name}: resumed stats");
            let mut hash = FNV_OFFSET;
            for (v, out) in net.outputs().into_iter().enumerate() {
                hash = fnv1a_extend(hash, &out.to_le_bytes());
                hash = fnv1a_extend(hash, &net.id_of(v as Vertex).to_le_bytes());
            }
            if faulty {
                assert!(
                    net.stats().dropped_deliveries > 0,
                    "{name}: the plan should bite"
                );
                assert_eq!(net.stats().crashed_vertex_rounds, 3, "{name}");
            }
            hash = fnv1a_extend(hash, format!("{:?}", net.stats()).as_bytes());
            actual.push((name, assignment, faulty, hash));
        }
        assert_eq!(actual, pins);

        // Two vertices send an oversized message in the same round: the
        // violation reported names the smaller graph vertex, here the one a
        // BFS reaches later.
        struct RoundOneBloater(bool);
        impl NodeAlgorithm for RoundOneBloater {
            type Message = Vec<u64>;
            type Output = ();
            fn init(&mut self, _: &NodeContext) -> Outgoing<Vec<u64>> {
                Outgoing::Silent
            }
            fn round(
                &mut self,
                _: &NodeContext,
                _: usize,
                _: Inbox<'_, Vec<u64>>,
            ) -> Outgoing<Vec<u64>> {
                if self.0 {
                    Outgoing::Broadcast(vec![0; 64])
                } else {
                    Outgoing::Silent
                }
            }
            fn output(&self, _: &NodeContext) {}
        }
        let g = &shapes[0].1;
        let n = g.num_vertices();
        let slot_of = bfs_slots(g);
        let (a, b) = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .find(|&(a, b)| slot_of[a] > slot_of[b])
            .unwrap();
        let mut net = Network::new(
            g,
            Model::congest_bc(),
            IdAssignment::Shuffled(11),
            |v, _| RoundOneBloater(v as usize == a || v as usize == b),
        );
        let violation = net.run(2).unwrap_err();
        assert_eq!((a, b), (1, 2));
        assert_eq!(
            violation,
            ModelViolation::MessageTooLarge {
                vertex: 97,
                round: 1,
                bits: 4128,
                limit: 8
            }
        );
        assert_eq!(net.id_of(a as Vertex), 97);
    }
}
