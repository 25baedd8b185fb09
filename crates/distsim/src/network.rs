//! The synchronous executor state: one [`NodeAlgorithm`] instance per vertex,
//! the communication model, the delivery buffers and the statistics.
//!
//! A [`Network`] holds *state*; the loop that drives it lives in
//! [`crate::engine`] ([`crate::engine::Engine::run`]). The split matters:
//! every algorithm in the workspace — the order phase, weak reachability, the
//! election, the connected-set flooding — used to hand-roll its own
//! `init`/`step` loop; they now all go through the one engine entry point,
//! and the execution strategy (sequential vs `std::thread` chunks, see
//! [`bedom_par::ExecutionStrategy`]) is a *value*, not a code path: there is
//! exactly one implementation of a round, used by both modes, so sequential
//! and parallel runs are bit-identical by construction.
//!
//! ## Flat, double-buffered delivery
//!
//! Per round the executor
//!
//! 1. charges the current outboxes to the statistics,
//! 2. prepares delivery: in broadcast-only rounds (all of CONGEST_BC)
//!    receivers read straight off the precomputed id-sorted neighbour CSR —
//!    zero per-round work; in rounds with unicasts it rebuilds the flat
//!    inbox arena, a CSR-style `offsets` array (one slot per receiver) plus
//!    one 16-byte `Packet` per delivery, pointing into the sender's
//!    outbox — either way **no payload is ever cloned**, receivers read
//!    messages by reference through [`Inbox`],
//! 3. evaluates every vertex's transition, writing the next outbox into a
//!    second pre-allocated outbox buffer, and
//! 4. swaps the two outbox buffers.
//!
//! The offsets, arena and both outbox buffers are reused across rounds, so
//! the executor performs no per-round heap allocation of its own once the
//! buffers have grown to their steady-state size (payload allocations made by
//! the algorithms themselves are, of course, theirs). The seed implementation
//! allocated a fresh `Vec` per receiver per round and cloned every payload
//! per delivery; the `engine_delivery` bench in `bedom-bench` measures the
//! difference.
//!
//! ## Storage order
//!
//! Generators number vertices with no locality (a stacked triangulation
//! attaches each new vertex to a random face), so walking inboxes in vertex
//! order misses cache on every neighbour. The network therefore stores its
//! per-vertex state in *slots*: one BFS order of the graph, computed when it
//! is built. The node instances, their contexts, both outbox buffers, the
//! inbox arena and the id-sorted delivery CSR are all indexed by slot, so a
//! receiver's neighbours, and the payloads they allocated earlier in the
//! same sweep, sit near it in memory.
//!
//! Slots never leave this module. The factory receives the graph vertex,
//! [`Network::outputs`], [`Network::node`] and [`Network::id_of`] are keyed
//! by graph vertex, fault plans are asked about graph vertices, model
//! violations are checked in graph-vertex order (so the first one reported
//! is the same whatever the layout), and snapshots hold nodes and outboxes
//! in graph-vertex order. Inboxes are ordered by sender network id, which
//! the layout does not touch, so no protocol can observe it.

use crate::fault::{DeliveryFilter, FaultPlan};
use crate::ids::IdAssignment;
use crate::message::MessageSize;
use crate::model::{Model, ModelViolation};
use crate::node::{Inbox, InboxSource, NodeAlgorithm, NodeContext, Outgoing, Packet};
use crate::trace::{RoundStats, RunStats};
use bedom_graph::cast::u32_from_usize;
use bedom_graph::{Graph, Vertex};
use bedom_par::ExecutionStrategy;

/// A configured network: the input graph, a communication model, an id
/// assignment, one algorithm instance per vertex, and the reusable delivery
/// buffers. Drive it with [`crate::engine::Engine`].
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
    contexts: Vec<NodeContext>,
    nodes: Vec<A>,
    /// Outboxes produced by the last evaluated round (to be delivered next).
    outboxes: Vec<Outgoing<A::Message>>,
    /// Double buffer the next round's outboxes are written into.
    next_outboxes: Vec<Outgoing<A::Message>>,
    /// CSR offsets into [`Network::inbox_arena`]; length `n + 1`.
    inbox_offsets: Vec<u32>,
    /// Flat delivery arena, rebuilt (in place) every round.
    inbox_arena: Vec<Packet>,
    /// CSR offsets into [`Network::delivery_order`]; length `n + 1`.
    nbr_offsets: Vec<u32>,
    /// Every slot's neighbour slots sorted by network id — the deterministic
    /// delivery order, precomputed once.
    delivery_order: Vec<u32>,
    /// Inverse of the id assignment (ids are always a dense permutation of
    /// `0..n`): the graph vertex holding each id, used to resolve unicast
    /// targets for fault checks.
    vertex_of: Vec<Vertex>,
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
        let mut vertex_of: Vec<Vertex> = vec![0; n];
        for (v, &id) in id_of.iter().enumerate() {
            debug_assert!((id as usize) < n, "id assignments are dense permutations");
            vertex_of[id as usize] = v as Vertex;
        }
        let contexts: Vec<NodeContext> = vertex_at
            .iter()
            .map(|&v| {
                let mut neighbor_ids: Vec<u64> = graph
                    .neighbors(v)
                    .iter()
                    .map(|&w| id_of[w as usize])
                    .collect();
                neighbor_ids.sort_unstable();
                NodeContext {
                    id: id_of[v as usize],
                    n,
                    neighbor_ids,
                }
            })
            .collect();
        let nodes: Vec<A> = vertex_at
            .iter()
            .zip(&contexts)
            .map(|(&v, ctx)| factory(v, ctx))
            .collect();

        // Precompute the deterministic delivery order: each slot's
        // neighbours, sorted by network id as its context already lists them.
        let mut nbr_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        let mut delivery_order: Vec<u32> = Vec::with_capacity(2 * graph.num_edges());
        nbr_offsets.push(0);
        for ctx in &contexts {
            delivery_order.extend(
                ctx.neighbor_ids
                    .iter()
                    .map(|&id| slot_of[vertex_of[id as usize] as usize]),
            );
            nbr_offsets.push(u32_from_usize(delivery_order.len()));
        }

        Network {
            graph,
            model,
            ids: vertex_at.iter().map(|&v| id_of[v as usize]).collect(),
            vertex_at,
            slot_of,
            contexts,
            nodes,
            outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            next_outboxes: (0..n).map(|_| Outgoing::Silent).collect(),
            inbox_offsets: vec![0; n + 1],
            inbox_arena: Vec::new(),
            nbr_offsets,
            delivery_order,
            vertex_of,
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
    pub fn clear_fault_plan(&mut self) -> Option<FaultPlan> {
        self.fault.take()
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
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

    /// Whether no vertex has anything pending to send (the engine's
    /// quiescence test).
    pub fn is_quiet(&self) -> bool {
        self.outboxes.iter().all(Outgoing::is_silent)
    }

    /// Runs the initialisation step (round 0) if it has not run yet. Called
    /// automatically by the engine.
    pub fn init(&mut self) -> Result<(), ModelViolation> {
        if self.initialized {
            return Ok(());
        }
        let contexts = &self.contexts;
        self.strategy
            .zip_apply(&mut self.nodes, &mut self.outboxes, |s, node, slot| {
                *slot = node.init(&contexts[s]);
            });
        self.validate(&self.outboxes, 0)?;
        self.initialized = true;
        Ok(())
    }

    /// Executes a single communication round — delivers the current outboxes
    /// through the flat arena and computes the next ones — and returns its
    /// statistics. This is the engine's single-round primitive; use
    /// [`crate::engine::Engine::run`] for whole executions.
    pub fn step(&mut self) -> Result<RoundStats, ModelViolation> {
        self.init()?;
        let round_index = self.stats.rounds + 1;

        // Fault preamble. Crashed senders lose whatever they queued last
        // round: silencing their outboxes up front keeps the accounting and
        // both delivery paths consistent without per-path special cases.
        // `active_at` gates all of this, so fault-free rounds (and fault-free
        // networks) pay nothing.
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

        // Account for what is about to be delivered, and detect whether any
        // sender unicast (broadcast-only rounds — all of CONGEST_BC — take a
        // delivery fast path that needs no arena at all). Under a fault plan
        // the sender still pays the wire cost of every message it offers
        // (`bits_sent`), but suppressed deliveries move from `deliveries`
        // to `dropped_deliveries`.
        let mut round_stats = RoundStats {
            round: round_index,
            crashed,
            ..RoundStats::default()
        };
        let mut any_unicast = false;
        let graph = self.graph;
        for (out, &v) in self.outboxes.iter().zip(&self.vertex_at) {
            match out {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
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
                    // The per-round maximum is frame-granular: payloads that
                    // model a framing layer report their largest frame, so a
                    // hub's split broadcast no longer dominates the statistic
                    // while its full (framed) cost still lands in bits_sent.
                    round_stats.max_message_bits =
                        round_stats.max_message_bits.max(m.max_frame_bits());
                    self.stats.max_vertex_round_bits = self.stats.max_vertex_round_bits.max(bits);
                }
                Outgoing::Unicast(messages) => {
                    any_unicast = true;
                    if !messages.is_empty() {
                        round_stats.senders += 1;
                    }
                    let mut vertex_bits = 0;
                    for (target, m) in messages {
                        let bits = m.size_bits();
                        let delivered = match fault {
                            // Targets passed validation last round, so the
                            // inverse id map resolves them to real vertices.
                            Some(plan) => {
                                plan.delivers(round_index, v, self.vertex_of[*target as usize])
                            }
                            None => true,
                        };
                        if delivered {
                            round_stats.deliveries += 1;
                        } else {
                            round_stats.dropped_deliveries += 1;
                        }
                        round_stats.bits_sent += bits;
                        vertex_bits += bits;
                        round_stats.max_message_bits =
                            round_stats.max_message_bits.max(m.max_frame_bits());
                    }
                    self.stats.max_vertex_round_bits =
                        self.stats.max_vertex_round_bits.max(vertex_bits);
                }
            }
        }

        if any_unicast {
            let mut offsets = std::mem::take(&mut self.inbox_offsets);
            let mut arena = std::mem::take(&mut self.inbox_arena);
            self.build_inboxes(&mut offsets, &mut arena, fault, round_index);
            (self.inbox_offsets, self.inbox_arena) = (offsets, arena);
        }

        // Evaluate every vertex's transition through the one execution path;
        // results land in the second outbox buffer by slot. Broadcast-only
        // rounds read straight off the pre-sorted neighbour CSR; rounds with
        // unicasts go through the freshly built packet arena. Both sources
        // deliver in the same deterministic order; under a fault plan the
        // arena was built pre-filtered and the fast path filters on read.
        {
            let contexts = &self.contexts;
            let outboxes = &self.outboxes;
            let ids = &self.ids;
            let vertex_at = &self.vertex_at;
            let offsets = &self.inbox_offsets;
            let arena = &self.inbox_arena;
            let nbr_offsets = &self.nbr_offsets;
            let delivery_order = &self.delivery_order;
            self.strategy
                .zip_apply(&mut self.nodes, &mut self.next_outboxes, |w, node, slot| {
                    let receiver = vertex_at[w];
                    if fault.is_some_and(|plan| plan.is_crashed(round_index, receiver)) {
                        // A crashed vertex neither receives nor transitions;
                        // its state freezes until restore.
                        *slot = Outgoing::Silent;
                        return;
                    }
                    let source = if any_unicast {
                        InboxSource::Packets(&arena[offsets[w] as usize..offsets[w + 1] as usize])
                    } else {
                        InboxSource::Broadcasts(
                            &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize],
                            ids,
                            fault.map(|plan| DeliveryFilter {
                                plan,
                                round: round_index,
                                receiver,
                                vertex_at,
                            }),
                        )
                    };
                    let inbox = Inbox { source, outboxes };
                    *slot = node.round(&contexts[w], round_index, inbox);
                });
        }
        self.validate(&self.next_outboxes, round_index)?;
        std::mem::swap(&mut self.outboxes, &mut self.next_outboxes);
        self.stats.push_round(round_stats);
        Ok(round_stats)
    }

    /// Rebuilds the flat inbox arena from the current outboxes: counts per
    /// receiver, prefix sums, then a fill pass over disjoint arena segments.
    /// With a fault plan, deliveries it suppresses in `round` are excluded at
    /// build time, so the arena only ever contains surviving packets.
    fn build_inboxes(
        &self,
        offsets: &mut [u32],
        arena: &mut Vec<Packet>,
        fault: Option<&FaultPlan>,
        round: usize,
    ) {
        let n = self.graph.num_vertices();
        let ids = &self.ids;
        let outboxes = &self.outboxes;
        let nbr_offsets = &self.nbr_offsets;
        let delivery_order = &self.delivery_order;
        let vertex_at = &self.vertex_at;
        let delivers = move |u: u32, w: usize| -> bool {
            fault.is_none_or(|plan| plan.delivers(round, vertex_at[u as usize], vertex_at[w]))
        };

        // How many messages does receiver `w` get this round?
        let count_for = |w: usize| -> u32 {
            let mut count = 0u32;
            for &u in &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize] {
                match &outboxes[u as usize] {
                    Outgoing::Silent => {}
                    Outgoing::Broadcast(_) => {
                        if delivers(u, w) {
                            count += 1;
                        }
                    }
                    Outgoing::Unicast(messages) => {
                        if delivers(u, w) {
                            count += u32_from_usize(
                                messages.iter().filter(|(t, _)| *t == ids[w]).count(),
                            );
                        }
                    }
                }
            }
            count
        };
        // Fill counts shifted by one, then prefix-sum in place: offsets[w] /
        // offsets[w + 1] end up delimiting receiver w's arena segment.
        offsets[0] = 0;
        self.strategy
            .apply(&mut offsets[1..], |w, slot| *slot = count_for(w));
        for w in 0..n {
            offsets[w + 1] += offsets[w];
        }
        let total = offsets[n] as usize;
        arena.clear();
        arena.resize(total, Packet::default());

        // Fill receiver segments; contiguous receiver chunks own disjoint
        // arena slices, so the fill parallelises without synchronisation.
        let offsets = &*offsets;
        let fill_receiver = |w: usize, segment: &mut [Packet]| {
            let mut cursor = 0;
            for &u in &delivery_order[nbr_offsets[w] as usize..nbr_offsets[w + 1] as usize] {
                match &outboxes[u as usize] {
                    Outgoing::Silent => {}
                    Outgoing::Broadcast(_) => {
                        if delivers(u, w) {
                            segment[cursor] = Packet {
                                from: ids[u as usize],
                                sender: u,
                                unicast_idx: 0,
                            };
                            cursor += 1;
                        }
                    }
                    Outgoing::Unicast(messages) => {
                        if delivers(u, w) {
                            for (k, (target, _)) in messages.iter().enumerate() {
                                if *target == ids[w] {
                                    segment[cursor] = Packet {
                                        from: ids[u as usize],
                                        sender: u,
                                        unicast_idx: u32_from_usize(k),
                                    };
                                    cursor += 1;
                                }
                            }
                        }
                    }
                }
            }
            debug_assert_eq!(cursor, segment.len());
        };
        let threads = self.strategy.threads_for(n);
        let chunk = n.div_ceil(threads.max(1)).max(1);
        let mut jobs: Vec<(usize, &mut [Packet])> = Vec::with_capacity(threads);
        let mut rest: &mut [Packet] = arena;
        let mut consumed = 0usize;
        let mut w = 0usize;
        while w < n {
            let end = (w + chunk).min(n);
            let slice_end = offsets[end] as usize;
            let (head, tail) = rest.split_at_mut(slice_end - consumed);
            jobs.push((w, head));
            rest = tail;
            consumed = slice_end;
            w = end;
        }
        self.strategy.run_jobs(jobs, |(start_w, mut slice)| {
            let mut w = start_w;
            while !slice.is_empty() {
                let len = (offsets[w + 1] - offsets[w]) as usize;
                let (segment, tail) = slice.split_at_mut(len);
                fill_receiver(w, segment);
                slice = tail;
                w += 1;
            }
        });
    }

    /// Captures the complete execution state — node state machines, pending
    /// outboxes, statistics — as a [`NetworkSnapshot`]. Restoring it into a
    /// network built over the same graph (same factory, model, ids and
    /// strategy) resumes the run **bit-identically**: the delivery buffers
    /// are rebuilt from the restored outboxes, so nothing observable depends
    /// on when the snapshot was taken. This is the checkpoint primitive
    /// behind [`crate::engine::SnapshotObserver`]. Nodes and outboxes are
    /// captured in graph-vertex order, whatever the storage order.
    pub fn snapshot(&self) -> NetworkSnapshot<A>
    where
        A: Clone,
        A::Message: Clone,
    {
        NetworkSnapshot {
            nodes: gather(&self.nodes, &self.slot_of),
            outboxes: gather(&self.outboxes, &self.slot_of),
            stats: self.stats.clone(),
            initialized: self.initialized,
        }
    }

    /// Restores the execution state captured by [`Network::snapshot`].
    /// The network must be built over a graph of the same size (the intended
    /// use is an identically-constructed network; nothing else is meaningful).
    ///
    /// # Panics
    /// Panics if the snapshot's vertex count differs from this network's.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot<A>)
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
        self.nodes = gather(&snapshot.nodes, &self.vertex_at);
        self.outboxes = gather(&snapshot.outboxes, &self.vertex_at);
        for slot in &mut self.next_outboxes {
            *slot = Outgoing::Silent;
        }
        self.inbox_arena.clear();
        self.stats = snapshot.stats.clone();
        self.initialized = snapshot.initialized;
    }

    /// Collects every vertex's output, indexed by graph vertex.
    pub fn outputs(&self) -> Vec<A::Output> {
        self.slot_of
            .iter()
            .map(|&s| self.nodes[s as usize].output(&self.contexts[s as usize]))
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

    /// Checks every outbox against the communication model, in graph-vertex
    /// order, so the first violation reported does not depend on the layout.
    fn validate(
        &self,
        outboxes: &[Outgoing<A::Message>],
        round: usize,
    ) -> Result<(), ModelViolation> {
        let limit = self.model.max_message_bits(self.graph.num_vertices());
        for &s in &self.slot_of {
            let s = s as usize;
            let vertex = self.ids[s];
            match &outboxes[s] {
                Outgoing::Silent => {}
                Outgoing::Broadcast(m) => {
                    if let Some(limit) = limit {
                        let bits = m.size_bits();
                        if bits > limit {
                            return Err(ModelViolation::MessageTooLarge {
                                vertex,
                                round,
                                bits,
                                limit,
                            });
                        }
                    }
                }
                Outgoing::Unicast(messages) => {
                    if self.model.broadcast_only() {
                        return Err(ModelViolation::UnicastInBroadcastModel { vertex, round });
                    }
                    for (target, m) in messages {
                        if !self.contexts[s].is_neighbor(*target) {
                            return Err(ModelViolation::NotANeighbor {
                                vertex,
                                target: *target,
                                round,
                            });
                        }
                        if let Some(limit) = limit {
                            let bits = m.size_bits();
                            if bits > limit {
                                return Err(ModelViolation::MessageTooLarge {
                                    vertex,
                                    round,
                                    bits,
                                    limit,
                                });
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// `items[order[0]], items[order[1]], …`: moves per-vertex state between
/// slot order and graph-vertex order.
fn gather<T: Clone>(items: &[T], order: &[u32]) -> Vec<T> {
    order.iter().map(|&i| items[i as usize].clone()).collect()
}

/// A checkpoint of a [`Network`]'s execution state, captured by
/// [`Network::snapshot`] and consumed by [`Network::restore`]. Holds the node
/// state machines, the outboxes pending delivery, and the accumulated
/// statistics (including the global round counter); the engine-side delivery
/// buffers are derived state and are rebuilt on resume.
pub struct NetworkSnapshot<A: NodeAlgorithm> {
    pub(crate) nodes: Vec<A>,
    pub(crate) outboxes: Vec<Outgoing<A::Message>>,
    pub(crate) stats: RunStats,
    pub(crate) initialized: bool,
}

impl<A: NodeAlgorithm> NetworkSnapshot<A> {
    /// The global round index at which the snapshot was taken.
    pub fn rounds(&self) -> usize {
        self.stats.rounds
    }

    /// Number of vertices of the snapshotted network.
    pub fn num_vertices(&self) -> usize {
        self.nodes.len()
    }
}

// Manual impl: summarises the snapshot without requiring `A: Debug`.
impl<A: NodeAlgorithm> std::fmt::Debug for NetworkSnapshot<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetworkSnapshot")
            .field("rounds", &self.stats.rounds)
            .field("num_vertices", &self.nodes.len())
            .field("initialized", &self.initialized)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, RunPolicy, StopReason};
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

    fn run_fixed<A: NodeAlgorithm>(
        net: &mut Network<'_, A>,
        rounds: usize,
    ) -> Result<(), ModelViolation> {
        Engine::new(net).run(RunPolicy::fixed(rounds)).map(|_| ())
    }

    #[test]
    fn max_id_flood_converges_in_diameter_rounds() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 9).unwrap();
        let outputs = net.outputs();
        assert!(outputs.iter().all(|&b| b == 9));
        assert_eq!(net.stats().rounds, 9);
    }

    #[test]
    fn insufficient_rounds_leave_far_vertices_unaware() {
        let g = path(10);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 3).unwrap();
        let outputs = net.outputs();
        assert_eq!(outputs[0], 3); // vertex 0 has only heard up to id 3
        assert_eq!(outputs[9], 9);
    }

    #[test]
    fn until_quiet_stops_early() {
        let g = star(20);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        let outcome = Engine::new(&mut net)
            .run(RunPolicy::until_quiet(100))
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Quiet);
        assert!(
            outcome.rounds <= 4,
            "star should converge fast, took {}",
            outcome.rounds
        );
        assert!(net.outputs().iter().all(|&b| b == 19));
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let g = grid(12, 12);
        let mut seq = new_flood(&g, Model::congest_bc_scaled(32));
        seq.set_strategy(ExecutionStrategy::Sequential);
        run_fixed(&mut seq, 30).unwrap();
        let mut par = new_flood(&g, Model::congest_bc_scaled(32));
        par.set_strategy(ExecutionStrategy::Parallel);
        run_fixed(&mut par, 30).unwrap();
        assert_eq!(seq.outputs(), par.outputs());
        assert_eq!(seq.stats().total_bits, par.stats().total_bits);
        assert_eq!(seq.stats().total_deliveries, par.stats().total_deliveries);
    }

    #[test]
    fn stats_account_broadcasts() {
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        run_fixed(&mut net, 1).unwrap();
        let stats = net.stats();
        assert_eq!(stats.rounds, 1);
        // Round 1 delivers the init-round broadcasts of all 6 vertices.
        assert_eq!(stats.per_round[0].senders, 6);
        assert_eq!(stats.per_round[0].deliveries, 12);
        assert_eq!(stats.max_message_bits, 64);
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
        run_fixed(&mut net, 1).unwrap();
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

    /// An algorithm that (incorrectly) unicasts, to exercise model checking.
    struct BadUnicaster;

    impl NodeAlgorithm for BadUnicaster {
        type Message = u64;
        type Output = ();

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            match ctx.neighbor_ids.first() {
                Some(&t) => Outgoing::Unicast(vec![(t, ctx.id)]),
                None => Outgoing::Silent,
            }
        }

        fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
            Outgoing::Silent
        }

        fn output(&self, _: &NodeContext) {}
    }

    #[test]
    fn unicast_rejected_in_broadcast_model_but_allowed_in_congest() {
        let g = path(5);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| {
            BadUnicaster
        });
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::UnicastInBroadcastModel { .. }
        ));

        let mut net = Network::new(
            &g,
            Model::Congest { bandwidth_logs: 64 },
            IdAssignment::Natural,
            |_, _| BadUnicaster,
        );
        run_fixed(&mut net, 1).unwrap();
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
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(err, ModelViolation::MessageTooLarge { .. }));

        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| Bloater);
        run_fixed(&mut net, 1).unwrap();
    }

    #[test]
    fn addressing_non_neighbor_is_rejected() {
        struct WrongTarget;
        impl NodeAlgorithm for WrongTarget {
            type Message = u64;
            type Output = ();
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                // Vertex 0 addresses id 4, which is not adjacent on a path of 5.
                if ctx.id == 0 {
                    Outgoing::Unicast(vec![(4, 1)])
                } else {
                    Outgoing::Silent
                }
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) {}
        }
        let g = path(5);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| WrongTarget);
        let err = run_fixed(&mut net, 1).unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::NotANeighbor { target: 4, .. }
        ));
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
        run_fixed(&mut net, 20).unwrap();
        assert!(net.outputs().iter().all(|&b| b == 63));
    }

    #[test]
    fn dropped_broadcasts_move_from_deliveries_to_dropped() {
        use crate::fault::FaultPlan;
        let g = cycle(6);
        let mut net = new_flood(&g, Model::congest_bc_scaled(32));
        net.set_fault_plan(FaultPlan::seeded(1).drop_messages(1.0).during(1, 2));
        run_fixed(&mut net, 2).unwrap();
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
        run_fixed(&mut net, 9).unwrap();
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
        // A flood that re-broadcasts its best every round: unlike the
        // event-driven `MaxIdFlood` (whose neighbours fall silent and never
        // retransmit), it keeps offering state to a restored vertex.
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
        let g = path(5);
        let mut net = Network::new(
            &g,
            Model::congest_bc_scaled(32),
            IdAssignment::Natural,
            |_, _| ChattyFlood(0),
        );
        net.set_fault_plan(FaultPlan::seeded(0).crash(2, 1, 3));
        run_fixed(&mut net, 10).unwrap();
        // After the restore round the flood crosses the revived vertex and
        // still converges everywhere.
        assert!(net.outputs().iter().all(|&b| b == 4));
        assert_eq!(net.stats().crashed_vertex_rounds, 2);
    }

    #[test]
    fn unicast_arena_honours_the_fault_plan() {
        use crate::fault::FaultPlan;
        struct UniFloodState(usize);
        impl NodeAlgorithm for UniFloodState {
            type Message = u64;
            type Output = usize;
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                Outgoing::Unicast(ctx.neighbor_ids.iter().map(|&t| (t, ctx.id)).collect())
            }
            fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
                self.0 = inbox.len();
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) -> usize {
                self.0
            }
        }
        let g = cycle(6);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| {
            UniFloodState(usize::MAX)
        });
        net.set_fault_plan(FaultPlan::seeded(0).crash(3, 1, 2));
        run_fixed(&mut net, 1).unwrap();
        let outputs = net.outputs();
        // Vertex 3 crashed: it received nothing (state frozen at MAX) and
        // its two unicasts were lost, so its neighbours got one message.
        assert_eq!(outputs[3], usize::MAX);
        assert_eq!(outputs[2], 1);
        assert_eq!(outputs[4], 1);
        assert_eq!(outputs[0], 2);
        let stats = net.stats();
        // The crashed sender's queued unicasts are silenced before they
        // reach the wire (a dead vertex offers nothing), so only the two
        // messages inbound to the crashed vertex count as dropped.
        assert_eq!(stats.per_round[0].dropped_deliveries, 2);
        assert_eq!(stats.per_round[0].senders, 5);
        assert_eq!(stats.per_round[0].deliveries, 8);
        assert_eq!(stats.per_round[0].crashed, 1);
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
            run_fixed(&mut net, 25).unwrap();
            (net.outputs(), net.stats().clone())
        };
        let seq = run(ExecutionStrategy::Sequential);
        let par = run(ExecutionStrategy::Parallel);
        assert_eq!(seq, par);
        assert!(seq.1.dropped_deliveries > 0, "the plan should bite");
    }

    #[test]
    fn multiple_unicasts_to_same_receiver_arrive_in_send_order() {
        struct DoubleSender;
        impl NodeAlgorithm for DoubleSender {
            type Message = u64;
            type Output = Vec<u64>;
            fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
                if ctx.id == 0 {
                    Outgoing::Unicast(vec![(1, 10), (1, 20)])
                } else {
                    Outgoing::Silent
                }
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) -> Vec<u64> {
                Vec::new()
            }
        }
        let g = path(3);
        let mut net = Network::new(&g, Model::Local, IdAssignment::Natural, |_, _| DoubleSender);
        net.init().unwrap();
        let stats = net.step().unwrap();
        assert_eq!(stats.deliveries, 2);
        assert_eq!(stats.senders, 1);
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

    /// Broadcasts on odd rounds and unicasts to its two smallest-id
    /// neighbours on even rounds (so both delivery paths run), folding every
    /// `(from, payload)` it receives, in inbox order, into its state.
    #[derive(Clone, Debug)]
    struct Folder(u64);

    impl Folder {
        fn send(&self, ctx: &NodeContext, round: usize) -> Outgoing<u64> {
            if round % 2 == 1 {
                Outgoing::Broadcast(self.0)
            } else {
                let targets = ctx.neighbor_ids.iter().take(2);
                Outgoing::Unicast(targets.map(|&t| (t, self.0 ^ t)).collect())
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

    impl crate::snapshot_codec::ByteCodec for Folder {
        fn encode(&self, out: &mut Vec<u8>) {
            self.0.encode(out);
        }
        fn decode(input: &mut &[u8]) -> Result<Self, crate::snapshot_codec::CodecError> {
            u64::decode(input).map(Folder)
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

    /// Everything observable at the engine's boundary must be keyed by graph
    /// vertex and network id, whatever order the network stores vertices in:
    /// outputs, ids, statistics, snapshot bytes and the first reported model
    /// violation. The scrambled shapes make a BFS order differ from the
    /// numbering; `path-40` (where BFS is the identity) is the control.
    #[test]
    fn boundary_outputs_match_their_pins() {
        use crate::snapshot_codec::{encode_snapshot, ByteCodec};
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
                0x9489_fe97_20b8_83ba,
            ),
            (
                "grid-12x12",
                IdAssignment::Natural,
                true,
                0x65d8_20a8_7d01_2508,
            ),
            (
                "grid-12x12",
                IdAssignment::Shuffled(11),
                false,
                0x7d1d_bcc2_c492_4118,
            ),
            (
                "grid-12x12",
                IdAssignment::Shuffled(11),
                true,
                0xcc99_3c92_bc3a_6ecf,
            ),
            (
                "planar-tri-300",
                IdAssignment::Natural,
                false,
                0xe52f_680e_2b41_f79e,
            ),
            (
                "planar-tri-300",
                IdAssignment::Natural,
                true,
                0x434c_0ae4_ce16_0858,
            ),
            (
                "planar-tri-300",
                IdAssignment::Shuffled(11),
                false,
                0xa3eb_909b_583e_0fea,
            ),
            (
                "planar-tri-300",
                IdAssignment::Shuffled(11),
                true,
                0xae13_e6aa_2edf_6624,
            ),
            (
                "config-model-300",
                IdAssignment::Natural,
                false,
                0xdb7b_b296_1fe7_6019,
            ),
            (
                "config-model-300",
                IdAssignment::Natural,
                true,
                0x21dc_6b4b_7727_528f,
            ),
            (
                "config-model-300",
                IdAssignment::Shuffled(11),
                false,
                0x80df_fa13_744b_e8ca,
            ),
            (
                "config-model-300",
                IdAssignment::Shuffled(11),
                true,
                0xe799_ed37_b911_4087,
            ),
            (
                "path-40",
                IdAssignment::Natural,
                false,
                0x9c5a_2a07_26ea_d492,
            ),
            (
                "path-40",
                IdAssignment::Natural,
                true,
                0xc17a_0eb7_4868_43b1,
            ),
            (
                "path-40",
                IdAssignment::Shuffled(11),
                false,
                0xa19b_e3c2_2f32_aaf9,
            ),
            (
                "path-40",
                IdAssignment::Shuffled(11),
                true,
                0x6784_9b57_3c80_a8e6,
            ),
        ];
        let mut actual = Vec::new();
        for &(name, assignment, faulty, _) in &pins {
            let g = &shapes.iter().find(|(shape, _)| *shape == name).unwrap().1;
            let n = g.num_vertices();
            let slot_of = bfs_slots(g);
            let crashed = (0..n).find(|&v| slot_of[v] != v).unwrap_or(n / 2) as Vertex;
            let mut net = Network::new(g, Model::Local, assignment, |_, _| Folder(0));
            if faulty {
                let plan = FaultPlan::seeded(0xb0d7)
                    .drop_messages(0.2)
                    .link_outages(0.05)
                    .crash(crashed, 2, 5);
                net.set_fault_plan(plan);
            }
            let mut snapshots = crate::engine::SnapshotObserver::every(3);
            Engine::new(&mut net)
                .observe_state(&mut snapshots)
                .run(RunPolicy::fixed(8))
                .unwrap();
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
            let mut stats = Vec::new();
            net.stats().encode(&mut stats);
            hash = fnv1a_extend(hash, &stats);
            hash = fnv1a_extend(hash, &encode_snapshot(&snapshots.snapshots()[0]));
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
        let violation = run_fixed(&mut net, 2).unwrap_err();
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
