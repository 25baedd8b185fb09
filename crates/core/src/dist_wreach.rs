//! Distributed computation of weak reachability sets with routing paths —
//! Algorithm 4 / Lemma 7 of the paper.
//!
//! After the distributed order computation has equipped every vertex with a
//! locally-computable *super-id* (the paper's class-id + identifier pair,
//! here produced by [`bedom_wcol::distributed_wcol_order`]), every vertex `w`
//! learns, in `ρ` further CONGEST_BC rounds,
//!
//! * the set `WReach_ρ[G, L, w]` (as super-ids), and
//! * for each `v` in it, a path of length at most `ρ` from `v` to `w` that is
//!   a shortest path inside the cluster `X_v`.
//!
//! The protocol is the paper's parallel restricted BFS: each vertex maintains
//! at most one path per known start vertex, keeps only starts smaller than
//! itself, prefers shorter paths and breaks ties lexicographically by
//! super-id sequence, and re-broadcasts a path only when it is new or
//! improved. Every vertex therefore forwards information only about vertices
//! in its own weak reachability set, which is what keeps the per-round
//! broadcast at `O(c(ρ)²·ρ·log n)` bits (Lemma 7).
//!
//! This module owns the path format, and every path is stored flat. A
//! vertex's [`PathStore`] is its sorted start super-ids, one span per start
//! and one id arena. Every path it stores begins with its start and ends
//! with the vertex's own super-id, so the arena holds only each path's
//! interior: the key supplies the first id, the store holds the last one
//! once, and readers see each path through a [`PathView`]. A
//! [`PathSetMessage`] is one vector of `[len, id…]` runs of whole paths.
//! The Lemma 7 node here, the Theorem 9 election and the Theorem 10 path
//! flood read messages through [`PathSetMessage::paths`]. The first two
//! queue a round's broadcast in one crate-private `PathOutbox` per thread,
//! reused by every vertex that thread evaluates, so they accept and forward
//! paths without allocating a vector per path or keeping a queue per vertex.
//! The wire format charges 8 bits for a path's length, so a path has at most
//! 255 ids and [`distributed_weak_reachability`] rejects `ρ > 254`.
//!
//! Every path protocol holds super-ids as `u32` in memory, while the wire
//! accounting still charges `id_bits` per id, so no bit total depends on the
//! width. The order phase's super-ids stay below `(⌈log₂ n⌉ + 3)·n`, which
//! fits in 32 bits up to n ≈ 1.2·10⁸; [`distributed_weak_reachability`]
//! narrows them once, and fails with [`ModelViolation::IdOutOfRange`] before
//! any round when one does not fit.

use bedom_distsim::{
    Engine, ExecutionStrategy, IdAssignment, Inbox, MessageSize, Model, ModelViolation, Network,
    NodeAlgorithm, NodeContext, Outgoing, RunPolicy, RunStats,
};
use bedom_graph::cast::{u32_from_u64, u32_from_usize};
use bedom_graph::Graph;
use std::cell::RefCell;

/// The largest reach radius whose paths (`ρ + 1` ids) fit the 8-bit path
/// length of the wire format.
const MAX_RHO: u32 = 254;

/// The path a `(offset, len)` span marks in `ids`.
fn span_of(ids: &[u32], (offset, len): (u32, u32)) -> &[u32] {
    &ids[offset as usize..][..len as usize]
}

/// A sorted flat map from start super-id to the stored routing path of one
/// vertex, the store's *owner*.
///
/// Every stored path runs from its start to the owner: it begins with the
/// start, which is the entry's key, and ends with the owner's super-id,
/// which the store holds once. So the store keeps only each path's interior
/// ids, and the owner's own entry is the one-id path `[owner]`. It holds at
/// most `|WReach_ρ[w]| ≤ c(ρ)` entries (a class constant) in three
/// allocations: the sorted starts, one `(offset, len)` span of interior ids
/// per start, and one arena holding every interior. Starts and ids are
/// 32-bit super-ids in memory; [`PathStore::encoded_bits`] still charges
/// `id_bits` per id of the whole path, as the wire accounting does. Lookups
/// are binary searches over the starts, and [`PathStore::get`],
/// [`PathStore::iter`] and [`PathStore::values`] hand out each path as a
/// [`PathView`]. The protocol replaces a path only by one that is no longer
/// (shorter paths win), so a replacement overwrites its span in place and a
/// new start appends to the arena; a shorter replacement leaves dead words
/// behind. Equality therefore compares the owner and the `(start, path)`
/// sequences, never the arena.
#[derive(Clone, Debug)]
pub struct PathStore {
    owner: u32,
    keys: Vec<u32>,
    spans: Vec<(u32, u32)>,
    ids: Vec<u32>,
}

impl PartialEq for PathStore {
    fn eq(&self, other: &Self) -> bool {
        self.owner == other.owner && self.iter().eq(other.iter())
    }
}

impl Eq for PathStore {}

impl PathStore {
    /// An empty store of paths that end at `owner`.
    fn new(owner: u32) -> Self {
        PathStore {
            owner,
            keys: Vec::new(),
            spans: Vec::new(),
            ids: Vec::new(),
        }
    }

    /// Number of stored starts — `|WReach_ρ[w]|` once the protocol finishes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The stored path for `start`, if any. `O(log len)`.
    pub fn get(&self, start: u32) -> Option<PathView<'_>> {
        let i = self.keys.binary_search(&start).ok()?;
        Some(self.path_at(i))
    }

    /// The path of the `i`-th smallest start.
    fn path_at(&self, i: usize) -> PathView<'_> {
        let start = &self.keys[i];
        PathView {
            start,
            interior: span_of(&self.ids, self.spans[i]),
            owner: (*start != self.owner).then_some(&self.owner),
        }
    }

    /// Stores `path` for `start`, replacing any previous entry.
    ///
    /// # Panics
    /// Panics unless `path` runs from `start` to the owner.
    fn insert(&mut self, start: u32, path: &[u32]) {
        let interior = match path {
            [only] if *only == start && start == self.owner => &[],
            [first, interior @ .., last]
                if *first == start && *last == self.owner && start != self.owner =>
            {
                interior
            }
            _ => panic!("path {path:?} does not run from {start} to {}", self.owner),
        };
        self.store(self.keys.binary_search(&start), start, interior);
    }

    /// Stores the path with `interior` for `start` at `slot`, the result of
    /// searching the starts for `start`. An interior no longer than the one
    /// it replaces overwrites it in place; anything else appends to the
    /// arena.
    fn store(&mut self, slot: Result<usize, usize>, start: u32, interior: &[u32]) {
        let len = u32_from_usize(interior.len());
        let span = match slot {
            Ok(i) if len <= self.spans[i].1 => {
                let offset = self.spans[i].0;
                self.ids[offset as usize..][..interior.len()].copy_from_slice(interior);
                (offset, len)
            }
            _ => {
                let offset = u32_from_usize(self.ids.len());
                self.ids.extend_from_slice(interior);
                (offset, len)
            }
        };
        match slot {
            Ok(i) => self.spans[i] = span,
            Err(i) => {
                self.keys.insert(i, start);
                self.spans.insert(i, span);
            }
        }
    }

    /// Iterates `(start, path)` in increasing start super-id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, PathView<'_>)> + '_ {
        (0..self.len()).map(|i| (self.keys[i], self.path_at(i)))
    }

    /// The stored start super-ids, in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = u32> + '_ {
        self.keys.iter().copied()
    }

    /// The stored paths, in increasing start super-id order.
    pub fn values(&self) -> impl Iterator<Item = PathView<'_>> + '_ {
        (0..self.len()).map(|i| self.path_at(i))
    }

    /// Bits a [`PathSetMessage`] broadcasting every stored path would occupy
    /// under the flat encoding the engine's bandwidth accounting charges
    /// (16-bit message length prefix, 8-bit per-path length prefix,
    /// `id_bits` per super-id of the whole path, its implicit first and last
    /// ids included). This ties the per-node store to the wire format: what
    /// a vertex *can* announce about its weak-reachability knowledge costs
    /// exactly `encoded_bits`, and any actual [`PathSetMessage`] carries a
    /// subset of it — the audit hook behind the bandwidth regression in
    /// `tests/model_compliance.rs`.
    pub fn encoded_bits(&self, id_bits: usize) -> usize {
        16 + self
            .values()
            .map(|path| 8 + path.len() * id_bits)
            .sum::<usize>()
    }
}

/// One stored path of a [`PathStore`], from its start to the store's owner,
/// read from the three places the store keeps its ids: the start (the
/// entry's key), the interior, and the owner's super-id, which the owner's
/// own one-id entry lacks.
#[derive(Clone, Copy)]
pub struct PathView<'a> {
    start: &'a u32,
    interior: &'a [u32],
    owner: Option<&'a u32>,
}

impl<'a> PathView<'a> {
    /// Number of ids on the path, one more than its edges; never zero.
    #[allow(clippy::len_without_is_empty)] // a path holds at least its start
    pub fn len(&self) -> usize {
        1 + self.interior.len() + usize::from(self.owner.is_some())
    }

    /// The path's super-ids, from the start to the owner.
    pub fn iter(&self) -> impl Iterator<Item = &'a u32> + 'a {
        std::iter::once(self.start)
            .chain(self.interior)
            .chain(self.owner)
    }

    /// The path's super-ids as a vector, from the start to the owner.
    pub fn to_vec(&self) -> Vec<u32> {
        self.iter().copied().collect()
    }

    /// The path as three runs of ids — the start, the interior, and the
    /// owner or nothing — to copy it into a message without a vector.
    pub(crate) fn parts(&self) -> [&'a [u32]; 3] {
        [
            std::slice::from_ref(self.start),
            self.interior,
            self.owner.map_or(&[], std::slice::from_ref),
        ]
    }
}

impl PartialEq for PathView<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PathView<'_> {}

impl std::fmt::Debug for PathView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// A set of routing paths, the broadcast payload of the protocol and of the
/// Theorem 9 and 10 phases that route along its paths.
///
/// Each path is a sequence of super-ids from its start vertex to the sender,
/// held as one `[len, id…]` run of a single 32-bit word vector. For
/// bandwidth accounting every super-id is charged at `id_bits` bits
/// (super-ids are bounded by `O(n log n)`, i.e. `O(log n)` bits), whatever
/// its width in memory, plus 16 bits for the message and 8 bits per path for
/// the lengths.
#[derive(Clone, Debug, Default)]
pub struct PathSetMessage {
    words: Vec<u32>,
    count: usize,
    id_bits: usize,
}

impl PathSetMessage {
    /// An empty message with room for `paths` paths of `ids` super-ids in
    /// total, charging `id_bits` bits per super-id.
    pub(crate) fn with_capacity(id_bits: usize, paths: usize, ids: usize) -> Self {
        PathSetMessage {
            words: Vec::with_capacity(paths + ids),
            count: 0,
            id_bits,
        }
    }

    /// Appends the path whose ids are the runs of `parts`, back to back.
    pub(crate) fn push(&mut self, parts: &[&[u32]]) {
        let len = parts.iter().map(|part| part.len()).sum();
        self.words.push(u32_from_usize(len));
        for part in parts {
            self.words.extend_from_slice(part);
        }
        self.count += 1;
    }

    /// The paths, in the order they were sent.
    pub fn paths(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let mut rest = self.words.as_slice();
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (path, next) = tail.split_at(len as usize);
            rest = next;
            Some(path)
        })
    }
}

impl MessageSize for PathSetMessage {
    fn size_bits(&self) -> usize {
        // Length prefix per message and per path, plus the ids themselves.
        16 + 8 * self.count + (self.words.len() - self.count) * self.id_bits
    }
}

/// A queue of outgoing paths: their ids back to back plus one span per path.
/// [`PathOutbox::broadcast`] turns a round's queue into one
/// [`PathSetMessage`] in lexicographic path order, the deterministic
/// broadcast order of every path protocol, and empties it. Each thread
/// holds one ([`PathOutbox::with`]), which the nodes it evaluates fill and
/// broadcast in turn, so its capacity is reused across vertices and rounds.
#[derive(Debug, Default)]
pub(crate) struct PathOutbox {
    ids: Vec<u32>,
    spans: Vec<(u32, u32)>,
}

thread_local! {
    /// One [`PathOutbox`] per thread, empty between node calls.
    static OUTBOX: RefCell<PathOutbox> = RefCell::new(PathOutbox::default());
}

impl PathOutbox {
    /// Runs `f` with the thread's outbox. `f` must leave it empty, which
    /// [`PathOutbox::broadcast`] does, and must not re-enter.
    pub(crate) fn with<T>(f: impl FnOnce(&mut PathOutbox) -> T) -> T {
        OUTBOX.with(|cell| f(&mut cell.borrow_mut()))
    }

    /// Queues the path whose ids are the runs of `parts`, back to back.
    pub(crate) fn push(&mut self, parts: &[&[u32]]) {
        let offset = u32_from_usize(self.ids.len());
        for part in parts {
            self.ids.extend_from_slice(part);
        }
        self.spans
            .push((offset, u32_from_usize(self.ids.len()) - offset));
    }

    /// Broadcasts every queued path, sorted by content, and empties the
    /// queue; silent when nothing is queued.
    pub(crate) fn broadcast(&mut self, id_bits: usize) -> Outgoing<PathSetMessage> {
        if self.spans.is_empty() {
            return Outgoing::Silent;
        }
        let ids = &self.ids;
        self.spans
            .sort_unstable_by(|&a, &b| span_of(ids, a).cmp(span_of(ids, b)));
        let mut message = PathSetMessage::with_capacity(id_bits, self.spans.len(), ids.len());
        for &span in &self.spans {
            message.push(&[span_of(ids, span)]);
        }
        self.ids.clear();
        self.spans.clear();
        Outgoing::Broadcast(message)
    }
}

/// Per-vertex output of the protocol.
#[derive(Clone, Debug)]
pub struct WReachInfo {
    /// This vertex's super-id.
    pub sid: u32,
    /// For every known start `v` (with `sid(v) < sid(self)`): the stored path
    /// from `v`'s super-id to this vertex's super-id, whose owner is `sid`.
    /// The entry for the vertex itself (`sid → [sid]`) is included,
    /// mirroring `v ∈ WReach_ρ[v]`.
    pub paths: PathStore,
}

impl WReachInfo {
    /// Super-ids of `WReach_ρ[w]` (including `w` itself), sorted.
    pub fn wreach_sids(&self) -> Vec<u32> {
        self.paths.keys().collect()
    }

    /// The `L`-minimum super-id reachable by a stored path of at most
    /// `max_len` edges — used by Theorem 9 to elect `min WReach_r[w]` from an
    /// order computed for a larger radius. Starts are sorted, so this is the
    /// first short-enough one.
    pub fn min_reachable_within(&self, max_len: usize) -> u32 {
        self.paths
            .iter()
            .find(|(_, path)| path.len() - 1 <= max_len)
            .map_or(self.sid, |(sid, _)| sid)
    }
}

/// Node state of the parallel restricted-BFS protocol (paper's Algorithm 4).
#[derive(Debug)]
pub struct WReachNode {
    rho: u32,
    id_bits: usize,
    /// The paths found so far, owned by this vertex's super-id.
    paths: PathStore,
}

impl WReachNode {
    /// Creates the initial state for a vertex with super-id `sid`, reach
    /// radius `rho`, charging `id_bits` bits per transmitted super-id.
    pub fn new(sid: u32, rho: u32, id_bits: usize) -> Self {
        WReachNode {
            rho,
            id_bits,
            paths: PathStore::new(sid),
        }
    }

    /// Offers the extension `path ++ [sid]` as a candidate, where `sid` is
    /// this vertex's super-id; stores it, and queues it in `outbox` for
    /// broadcast, if it is new or better than the stored one. Both copies
    /// are written straight from the borrowed incoming path, and the store
    /// keeps only its interior `path[1..]`.
    fn offer(&mut self, path: &[u32], outbox: &mut PathOutbox) {
        let sid = self.paths.owner;
        let start = path[0];
        // Only smaller starts, and never a path through this vertex.
        if start >= sid || path.contains(&sid) {
            return;
        }
        let interior = &path[1..];
        let slot = self.paths.keys.binary_search(&start);
        if let Ok(i) = slot {
            if !interior_is_better(interior, span_of(&self.paths.ids, self.paths.spans[i])) {
                return;
            }
        }
        // Re-broadcast only paths that can still be usefully extended.
        if path.len() < self.rho as usize {
            outbox.push(&[path, &[sid]]);
        }
        self.paths.store(slot, start, interior);
    }
}

/// Whether a candidate path beats the stored one for the same start under
/// the protocol's preference (shorter first, then lexicographically
/// smaller), decided on their interiors: both paths begin with the start and
/// end with the owner, so the interiors alone order them.
fn interior_is_better(candidate: &[u32], stored: &[u32]) -> bool {
    (candidate.len(), candidate) < (stored.len(), stored)
}

impl NodeAlgorithm for WReachNode {
    type Message = PathSetMessage;
    type Output = WReachInfo;

    fn init(&mut self, _ctx: &NodeContext) -> Outgoing<PathSetMessage> {
        let sid = self.paths.owner;
        self.paths.insert(sid, &[sid]);
        let mut message = PathSetMessage::with_capacity(self.id_bits, 1, 1);
        message.push(&[&[sid]]);
        Outgoing::Broadcast(message)
    }

    fn round(
        &mut self,
        _ctx: &NodeContext,
        round: usize,
        inbox: Inbox<'_, PathSetMessage>,
    ) -> Outgoing<PathSetMessage> {
        if round > self.rho as usize {
            return Outgoing::Silent;
        }
        PathOutbox::with(|outbox| {
            for message in inbox {
                for path in message.payload.paths() {
                    // Extending a longer path would exceed the reach radius.
                    if path.len() <= self.rho as usize {
                        self.offer(path, outbox);
                    }
                }
            }
            outbox.broadcast(self.id_bits)
        })
    }

    fn output(&self, _ctx: &NodeContext) -> WReachInfo {
        WReachInfo {
            sid: self.paths.owner,
            paths: self.paths.clone(),
        }
    }
}

/// Result of running the weak reachability protocol.
#[derive(Clone, Debug)]
pub struct DistributedWReach {
    /// Per-vertex outputs, indexed by graph vertex.
    pub info: Vec<WReachInfo>,
    /// Communication rounds used by this phase.
    pub rounds: usize,
    /// Executor statistics for this phase.
    pub stats: RunStats,
}

impl DistributedWReach {
    /// The measured constant: `max_w |WReach_ρ[w]|` over all vertices.
    pub fn measured_constant(&self) -> usize {
        self.info.iter().map(|i| i.paths.len()).max().unwrap_or(0)
    }
}

/// Configuration of the weak reachability phase.
#[derive(Clone, Copy, Debug)]
pub struct WReachConfig {
    /// Reach radius ρ (the protocol runs ρ communication rounds). The paper
    /// uses ρ = 2r for Theorem 9 and ρ = 2r + 1 for Theorem 10.
    pub rho: u32,
    /// Bandwidth multiplier (in units of `⌈log₂ n⌉` bits) for the CONGEST_BC
    /// model check, or `None` to run without bandwidth enforcement (LOCAL)
    /// and only *measure* message sizes. The paper's Lemma 7 bound corresponds
    /// to a multiplier of `Θ(c(ρ)²·ρ)`, a class constant it assumes known.
    pub bandwidth_logs: Option<usize>,
    /// How the engine evaluates rounds (sequential and parallel agree bit
    /// for bit).
    pub strategy: ExecutionStrategy,
}

impl WReachConfig {
    /// Convenience constructor with enforcement disabled.
    pub fn measuring(rho: u32) -> Self {
        WReachConfig {
            rho,
            bandwidth_logs: None,
            strategy: ExecutionStrategy::Auto,
        }
    }
}

/// Runs the weak reachability protocol of Lemma 7 on `graph` using the given
/// per-vertex super-ids (from the distributed order phase).
///
/// Fails with [`ModelViolation::RadiusOutOfRange`] before any round runs when
/// `config.rho > 254`: a stored path has `ρ + 1` ids, and the wire format
/// describes at most 255. Fails with [`ModelViolation::IdOutOfRange`] before
/// any round runs when a super-id exceeds `u32::MAX`, the width every path
/// protocol holds super-ids in.
pub fn distributed_weak_reachability(
    graph: &Graph,
    super_ids: &[u64],
    config: WReachConfig,
) -> Result<DistributedWReach, ModelViolation> {
    assert_eq!(super_ids.len(), graph.num_vertices());
    if config.rho > MAX_RHO {
        return Err(ModelViolation::RadiusOutOfRange {
            requested: config.rho,
            supported: MAX_RHO,
            what: "the Lemma 7 protocol (a path's length travels in 8 bits)",
        });
    }
    // Refuse a super-id wider than 32 bits before any round, so that the
    // checked narrowing of each one below cannot fire.
    if let Some(&id) = super_ids.iter().find(|&&sid| sid > u64::from(u32::MAX)) {
        return Err(ModelViolation::IdOutOfRange {
            id,
            supported: u64::from(u32::MAX),
            what: "the Lemma 7 protocol (super-ids are held in 32 bits)",
        });
    }
    let n = graph.num_vertices();
    // Super-ids fit in O(log n) bits: they are bounded by (phases+1)·n.
    let id_bits = bedom_distsim::log2_ceil(n.max(2).pow(2)) + 8;
    let model = match config.bandwidth_logs {
        Some(k) => Model::congest_bc_scaled(k),
        None => Model::Local,
    };
    let mut network = Network::new(graph, model, IdAssignment::Natural, |v, _ctx| {
        WReachNode::new(u32_from_u64(super_ids[v as usize]), config.rho, id_bits)
    });
    network.set_strategy(config.strategy);
    Engine::new(&mut network).run(RunPolicy::fixed(config.rho as usize))?;
    let stats = network.stats().clone();
    // Move each vertex's path store out instead of cloning it.
    let info: Vec<WReachInfo> = network
        .into_nodes()
        .into_iter()
        .map(|node| WReachInfo {
            sid: node.paths.owner,
            paths: node.paths,
        })
        .collect();
    // Unconditional-path invariant, O(m): the first exchange round delivers
    // every vertex's unit path to all its neighbours, and an offered
    // one-edge extension is never discarded (it is minimal for its start),
    // so for every edge the higher-sid endpoint must store a path from the
    // lower-sid endpoint. A gap proves messages were lost in transit — the
    // run fails with a typed error instead of returning truncated
    // reachability sets.
    if config.rho >= 1 {
        for w in graph.vertices() {
            let my_sid = info[w as usize].sid;
            for &u in graph.neighbors(w) {
                let u_sid = info[u as usize].sid;
                if u_sid < my_sid && info[w as usize].paths.get(u_sid).is_none() {
                    return Err(ModelViolation::PathMissing {
                        vertex: u64::from(my_sid),
                        neighbor: u64::from(u_sid),
                        round: 1,
                    });
                }
            }
        }
    }
    Ok(DistributedWReach {
        info,
        rounds: stats.rounds,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bedom_graph::generators::{cycle, grid, path, random_tree, stacked_triangulation};
    use bedom_graph::Vertex;
    use bedom_wcol::{weak_reachability_sets, LinearOrder};

    /// Runs the protocol with super-ids equal to ranks of the given order and
    /// cross-checks the computed sets against the sequential computation.
    fn check_against_sequential(graph: &Graph, order: &LinearOrder, rho: u32) {
        let super_ids: Vec<u64> = graph.vertices().map(|v| order.rank(v) as u64).collect();
        let result =
            distributed_weak_reachability(graph, &super_ids, WReachConfig::measuring(rho)).unwrap();
        let expected = weak_reachability_sets(graph, order, rho);
        for w in graph.vertices() {
            let mut got: Vec<Vertex> = result.info[w as usize]
                .paths
                .keys()
                .map(|sid| order.vertex_at(sid as usize))
                .collect();
            got.sort_unstable();
            assert_eq!(got, expected[w as usize], "vertex {w}, rho {rho}");
        }
        assert_eq!(result.rounds, rho as usize);
    }

    #[test]
    fn matches_sequential_on_structured_graphs() {
        for rho in 1..=4u32 {
            check_against_sequential(&path(20), &LinearOrder::identity(20), rho);
            check_against_sequential(
                &cycle(15),
                &LinearOrder::from_order((0..15).rev().collect()),
                rho,
            );
        }
    }

    #[test]
    fn matches_sequential_on_sparse_classes_with_heuristic_order() {
        for (g, rho) in [
            (grid(7, 7), 2u32),
            (grid(7, 7), 4),
            (random_tree(80, 3), 3),
            (stacked_triangulation(90, 5), 2),
            (stacked_triangulation(90, 5), 4),
        ] {
            let order = bedom_wcol::degeneracy_based_order(&g);
            check_against_sequential(&g, &order, rho);
        }
    }

    #[test]
    fn stored_paths_are_valid_and_short() {
        let g = stacked_triangulation(70, 2);
        let order = bedom_wcol::degeneracy_based_order(&g);
        let rho = 4u32;
        let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
        let result =
            distributed_weak_reachability(&g, &super_ids, WReachConfig::measuring(rho)).unwrap();
        for w in g.vertices() {
            for (start_sid, path) in result.info[w as usize].paths.iter() {
                let path = path.to_vec();
                assert_eq!(*path.first().unwrap(), start_sid);
                assert_eq!(u64::from(*path.last().unwrap()), super_ids[w as usize]);
                assert!(path.len() <= rho as usize + 1, "path too long: {path:?}");
                // Consecutive path vertices must be adjacent in G.
                let as_vertices: Vec<Vertex> = path
                    .iter()
                    .map(|&sid| order.vertex_at(sid as usize))
                    .collect();
                for pair in as_vertices.windows(2) {
                    assert!(g.has_edge(pair[0], pair[1]), "non-edge on path {path:?}");
                }
                // The start is the L-minimum of the path (weak reachability).
                for &sid in path.iter() {
                    assert!(sid >= start_sid);
                }
                // The stored path is a shortest v-w path within the cluster
                // X_v; in particular its length is at least the G-distance.
                let d = bedom_graph::bfs::distance(&g, as_vertices[0], w).unwrap();
                // Compare in usize: `path.len() as u32` would wrap on a
                // pathological store instead of failing the assertion.
                assert!(path.len() > d as usize);
            }
        }
    }

    #[test]
    fn min_reachable_within_smaller_radius() {
        // With ρ = 2r the election for radius r must only use paths of ≤ r
        // edges; check it against the sequential min over WReach_r.
        let g = grid(6, 8);
        let order = bedom_wcol::degeneracy_based_order(&g);
        let r = 2u32;
        let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
        let result =
            distributed_weak_reachability(&g, &super_ids, WReachConfig::measuring(2 * r)).unwrap();
        let seq_min = bedom_wcol::min_wreach(&g, &order, r);
        for w in g.vertices() {
            let elected_sid = result.info[w as usize].min_reachable_within(r as usize);
            let elected = order.vertex_at(elected_sid as usize);
            // The distributed election may find a path of length ≤ r that the
            // restricted BFS also finds; both must agree because both minimise
            // over the same set WReach_r[w].
            assert_eq!(elected, seq_min[w as usize], "vertex {w}");
        }
    }

    #[test]
    fn bandwidth_enforcement_within_paper_bound() {
        // Enforce the CONGEST_BC bandwidth at the Lemma 7 bound
        // Θ(c²·ρ·log n) and verify the protocol fits within it.
        let g = stacked_triangulation(150, 8);
        let order = bedom_wcol::degeneracy_based_order(&g);
        let rho = 4u32;
        let c = bedom_wcol::wcol_of_order(&g, &order, rho);
        let super_ids: Vec<u64> = g.vertices().map(|v| order.rank(v) as u64).collect();
        let config = WReachConfig {
            rho,
            bandwidth_logs: Some(4 * c * c * (rho as usize + 1)),
            strategy: ExecutionStrategy::Sequential,
        };
        let result = distributed_weak_reachability(&g, &super_ids, config).unwrap();
        assert_eq!(result.measured_constant(), c);
    }

    #[test]
    fn tiny_bandwidth_is_rejected() {
        let g = grid(8, 8);
        let super_ids: Vec<u64> = (0..64u64).collect();
        let config = WReachConfig {
            rho: 4,
            bandwidth_logs: Some(1),
            strategy: ExecutionStrategy::Sequential,
        };
        let err = distributed_weak_reachability(&g, &super_ids, config).unwrap_err();
        assert!(matches!(err, ModelViolation::MessageTooLarge { .. }));
    }

    #[test]
    fn interior_comparison_matches_materialised_comparison() {
        // Two paths for one start share their first and last ids, so
        // comparing interiors must agree with "compare the whole Vecs" on
        // every shape: shorter, longer, and lexicographic splits anywhere in
        // the interior.
        let cases: &[(&[u32], &[u32])] = &[
            (&[1, 9], &[1, 4, 9]),
            (&[1, 4, 9], &[1, 9]),
            (&[1, 2, 9], &[1, 3, 9]),
            (&[1, 3, 9], &[1, 2, 9]),
            (&[1, 3, 9], &[1, 3, 9]),
            (&[1, 3, 5, 9], &[1, 3, 4, 9]),
            (&[1, 3, 4, 9], &[1, 3, 5, 9]),
            (&[2, 8, 9], &[2, 5, 7, 9]),
        ];
        let interior = |path: &'static [u32]| &path[1..path.len() - 1];
        for &(candidate, stored) in cases {
            let expected = (candidate.len(), candidate) < (stored.len(), stored);
            assert_eq!(
                interior_is_better(interior(candidate), interior(stored)),
                expected,
                "{candidate:?} vs {stored:?}"
            );
        }
    }

    #[test]
    fn path_store_behaves_like_a_sorted_map() {
        let mut store = PathStore::new(9);
        assert!(store.is_empty());
        assert_eq!(store.get(3), None);
        store.insert(9, &[9]);
        store.insert(2, &[2, 5, 9]);
        store.insert(5, &[5, 9]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.keys().collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(store.get(2).map(|path| path.to_vec()), Some(vec![2, 5, 9]));
        // Replacement keeps the store sorted and deduplicated, in place when
        // the new path is no longer and by appending when it is longer.
        store.insert(2, &[2, 9]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(2).map(|path| path.to_vec()), Some(vec![2, 9]));
        store.insert(5, &[5, 7, 3, 9]);
        assert_eq!(store.get(5).map(|path| path.len()), Some(4));
        let collected: Vec<(u32, Vec<u32>)> = store
            .iter()
            .map(|(start, path)| (start, path.to_vec()))
            .collect();
        assert_eq!(
            collected,
            vec![(2, vec![2, 9]), (5, vec![5, 7, 3, 9]), (9, vec![9])]
        );
        assert!(store.values().map(|path| path.to_vec()).eq([
            vec![2, 9],
            vec![5, 7, 3, 9],
            vec![9]
        ]));
    }

    #[test]
    #[should_panic(expected = "does not run from 2 to 9")]
    fn path_store_refuses_a_path_that_misses_its_owner() {
        PathStore::new(9).insert(2, &[2, 5]);
    }

    #[test]
    fn path_views_rebuild_every_length_the_wire_format_describes() {
        // At ρ = 254 a store holds paths of 1 to 255 ids: the owner's own
        // one-id entry and, for every other start, the start, an interior
        // of up to 253 ids and the owner. The view must give each back whole.
        let owner = 1000;
        let path_of = |len: u32| -> Vec<u32> {
            if len == 1 {
                return vec![owner];
            }
            let mut path = vec![len];
            path.extend((0..len - 2).map(|i| 2000 + i));
            path.push(owner);
            path
        };
        let mut store = PathStore::new(owner);
        for len in (1..=255).rev() {
            let path = path_of(len);
            store.insert(path[0], &path);
        }
        assert_eq!(store.len(), 255);
        let mut bits = 16;
        for len in 1..=255 {
            let expected = path_of(len);
            let view = store.get(expected[0]).expect("every start is stored");
            assert_eq!(view.len(), expected.len());
            assert_eq!(view.to_vec(), expected);
            assert!(view.iter().copied().eq(expected.iter().copied()));
            assert_eq!(view.parts().concat(), expected);
            bits += 8 + 13 * expected.len();
        }
        assert_eq!(store.encoded_bits(13), bits);
        let own = store.get(owner).expect("the own entry is stored");
        assert_eq!((own.len(), own.to_vec()), (1, vec![owner]));
        assert_eq!(own.parts(), [&[owner][..], &[], &[]]);
        // The arena holds only interiors: 0 + 1 + … + 253 ids.
        let arena = 253 * 254 / 2;
        assert_eq!(store.ids.len(), arena);
        // A same-length replacement overwrites its interior in place.
        let mut replacement = path_of(255);
        replacement[1..254].reverse();
        store.insert(255, &replacement);
        assert_eq!(store.ids.len(), arena);
        assert_eq!(store.get(255).map(|path| path.to_vec()), Some(replacement));
        // The same content reached through another history — another
        // insertion order, then the original and a shorter path for start
        // 255 before the final one, which no longer fits in place — is the
        // same store.
        let mut other = PathStore::new(owner);
        other.insert(255, &path_of(255));
        for len in 1..=254 {
            let path = path_of(len);
            other.insert(path[0], &path);
        }
        assert_ne!(store, other);
        let mut shorter = path_of(255);
        shorter.drain(1..3);
        other.insert(255, &shorter);
        assert_ne!(store, other);
        other.insert(255, &store.get(255).expect("stored").to_vec());
        assert_eq!(store, other);
        assert_ne!(PathStore::new(1), PathStore::new(2));
    }

    #[test]
    fn path_stores_with_equal_content_are_equal_whatever_their_history() {
        // An in-place replacement leaves dead words in the arena, so equal
        // stores may differ in layout; equality must see only the content.
        let mut replaced = PathStore::new(9);
        replaced.insert(4, &[4, 8, 6, 9]);
        replaced.insert(1, &[1, 3, 9]);
        replaced.insert(4, &[4, 9]);
        let mut direct = PathStore::new(9);
        direct.insert(1, &[1, 3, 9]);
        direct.insert(4, &[4, 9]);
        assert_eq!(replaced, direct);
        direct.insert(1, &[1, 2, 9]);
        assert_ne!(replaced, direct);
    }

    #[test]
    fn message_size_accounting() {
        let mut m = PathSetMessage::with_capacity(10, 2, 4);
        m.push(&[&[1, 2], &[3]]);
        m.push(&[&[4]]);
        assert_eq!(m.size_bits(), 16 + (8 + 30) + (8 + 10));
        assert_eq!(m.paths().collect::<Vec<_>>(), vec![&[1, 2, 3][..], &[4]]);
        assert_eq!(PathSetMessage::with_capacity(10, 0, 0).size_bits(), 16);
    }

    #[test]
    fn outbox_broadcasts_every_queued_path_in_lexicographic_order() {
        // Two candidates for one start in one round are both sent, in the
        // order `Vec<Vec<u64>>::sort` would give.
        let mut outbox = PathOutbox::default();
        assert!(matches!(outbox.broadcast(8), Outgoing::Silent));
        outbox.push(&[&[3, 5], &[9]]);
        outbox.push(&[&[1]]);
        outbox.push(&[&[3], &[9]]);
        outbox.push(&[&[1, 4]]);
        let Outgoing::Broadcast(message) = outbox.broadcast(8) else {
            panic!("queued paths must be broadcast");
        };
        let mut expected = vec![vec![3, 5, 9], vec![1], vec![3, 9], vec![1, 4]];
        expected.sort();
        assert_eq!(message.paths().collect::<Vec<_>>(), expected);
        assert!(matches!(outbox.broadcast(8), Outgoing::Silent));
    }

    #[test]
    fn store_encoding_matches_the_message_accounting_bit_for_bit() {
        // A message carrying exactly the store's paths must cost exactly the
        // store's flat encoding — the wire accounting runs on the flat
        // PathStore representation, not on any legacy shape.
        let mut store = PathStore::new(7);
        store.insert(7, &[7]);
        store.insert(2, &[2, 9, 7]);
        store.insert(4, &[4, 7]);
        let id_bits = 13;
        let mut message = PathSetMessage::with_capacity(id_bits, 0, 0);
        for path in store.values() {
            message.push(&path.parts());
        }
        assert_eq!(message.size_bits(), store.encoded_bits(id_bits));
        assert_eq!(PathStore::new(7).encoded_bits(id_bits), 16);
    }

    #[test]
    fn super_ids_wider_than_32_bits_fail_with_a_typed_error() {
        // Every path protocol holds super-ids in 32 bits: a wider one fails
        // before any round instead of being truncated into another vertex's.
        let g = path(2);
        let err = distributed_weak_reachability(&g, &[0, 1 << 32], WReachConfig::measuring(1))
            .unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::IdOutOfRange {
                id: 0x1_0000_0000,
                supported: 0xffff_ffff,
                ..
            }
        ));
        let widest = [0, u64::from(u32::MAX)];
        let result =
            distributed_weak_reachability(&g, &widest, WReachConfig::measuring(1)).unwrap();
        assert_eq!(result.info[1].sid, u32::MAX);
        assert_eq!(
            result.info[1].paths.get(0).map(|path| path.to_vec()),
            Some(vec![0, u32::MAX])
        );
    }

    #[test]
    fn radii_beyond_the_8_bit_path_length_are_rejected() {
        // ρ = 254 stores paths of 255 ids, the most an 8-bit length
        // describes; ρ = 255 would store 256 and fails before any round.
        let g = path(255);
        let super_ids: Vec<u64> = (0..255).collect();
        let err = distributed_weak_reachability(&g, &super_ids, WReachConfig::measuring(255))
            .unwrap_err();
        assert!(matches!(
            err,
            ModelViolation::RadiusOutOfRange {
                requested: 255,
                supported: 254,
                ..
            }
        ));
        let result =
            distributed_weak_reachability(&g, &super_ids, WReachConfig::measuring(254)).unwrap();
        let longest = result.info[254].paths.get(0).unwrap();
        assert_eq!(longest.len(), 255);
        assert!(longest
            .iter()
            .map(|&id| u64::from(id))
            .eq(super_ids[..255].iter().copied()));
        // A context at reach radius 255 elects its order but cannot run
        // Lemma 7.
        let ctx = crate::DistContext::elect(&g, crate::DistContextConfig::new(255)).unwrap();
        assert!(matches!(
            ctx.wreach(),
            Err(ModelViolation::RadiusOutOfRange { requested: 255, .. })
        ));
    }
}
