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
//! and one id arena; a [`PathSetMessage`] is one vector of `[len, id…]` runs.
//! The Lemma 7 node here, the Theorem 9 election and the Theorem 10 path
//! flood read messages through [`PathSetMessage::paths`]. The first two
//! queue their broadcasts in a reused crate-private `PathOutbox`, so they
//! accept and forward paths without allocating a vector per path. The wire
//! format charges 8 bits for a path's length, so a path has at most 255 ids
//! and [`distributed_weak_reachability`] rejects `ρ > 254`.

use bedom_distsim::{
    Engine, ExecutionStrategy, IdAssignment, Inbox, MessageSize, Model, ModelViolation, Network,
    NodeAlgorithm, NodeContext, Outgoing, RunPolicy, RunStats,
};
use bedom_graph::cast::u32_from_usize;
use bedom_graph::Graph;

/// The largest reach radius whose paths (`ρ + 1` ids) fit the 8-bit path
/// length of the wire format.
const MAX_RHO: u32 = 254;

/// The path a `(offset, len)` span marks in `ids`.
fn span_of(ids: &[u64], (offset, len): (u32, u32)) -> &[u64] {
    &ids[offset as usize..][..len as usize]
}

/// A sorted flat map from start super-id to its stored routing path.
///
/// The store holds at most `|WReach_ρ[w]| ≤ c(ρ)` entries (a class constant)
/// in three allocations: the sorted starts, one `(offset, len)` span per
/// start, and one arena holding every path's ids. Lookups are binary searches
/// over the starts. The protocol replaces a path only by one that is no
/// longer (shorter paths win), so a replacement overwrites its span in place
/// and a new start appends to the arena; a shorter replacement leaves dead
/// words behind. Equality therefore compares the `(start, path)` sequences,
/// never the arena.
#[derive(Clone, Debug, Default)]
pub struct PathStore {
    keys: Vec<u64>,
    spans: Vec<(u32, u32)>,
    ids: Vec<u64>,
}

impl PartialEq for PathStore {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for PathStore {}

impl PathStore {
    /// An empty store.
    pub fn new() -> Self {
        PathStore::default()
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
    pub fn get(&self, start: u64) -> Option<&[u64]> {
        let i = self.keys.binary_search(&start).ok()?;
        Some(self.path_at(i))
    }

    /// The path of the `i`-th smallest start.
    fn path_at(&self, i: usize) -> &[u64] {
        span_of(&self.ids, self.spans[i])
    }

    /// Stores `path` for `start`, replacing any previous entry.
    pub fn insert(&mut self, start: u64, path: &[u64]) {
        self.store(self.keys.binary_search(&start), start, path, None);
    }

    /// Stores `path ++ tail` for `start` at `slot`, the result of searching
    /// the starts for `start`. A path no longer than the one it replaces
    /// overwrites it in place; anything else appends to the arena.
    fn store(&mut self, slot: Result<usize, usize>, start: u64, path: &[u64], tail: Option<u64>) {
        let len = path.len() + usize::from(tail.is_some());
        let span = match slot {
            Ok(i) if len <= self.spans[i].1 as usize => {
                let offset = self.spans[i].0 as usize;
                self.ids[offset..][..path.len()].copy_from_slice(path);
                if let Some(last) = tail {
                    self.ids[offset + path.len()] = last;
                }
                (self.spans[i].0, u32_from_usize(len))
            }
            _ => {
                let offset = u32_from_usize(self.ids.len());
                self.ids.extend_from_slice(path);
                self.ids.extend(tail);
                (offset, u32_from_usize(len))
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
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[u64])> + '_ {
        self.keys
            .iter()
            .zip(&self.spans)
            .map(|(&start, &span)| (start, span_of(&self.ids, span)))
    }

    /// The stored start super-ids, in increasing order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
    }

    /// The stored paths, in increasing start super-id order.
    pub fn values(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(|i| self.path_at(i))
    }

    /// Bits a [`PathSetMessage`] broadcasting every stored path would occupy
    /// under the flat encoding the engine's bandwidth accounting charges
    /// (16-bit message length prefix, 8-bit per-path length prefix,
    /// `id_bits` per super-id). This ties the per-node store to the wire
    /// format: what a vertex *can* announce about its weak-reachability
    /// knowledge costs exactly `encoded_bits`, and any actual
    /// [`PathSetMessage`] carries a subset of it — the audit hook behind the
    /// bandwidth regression in `tests/model_compliance.rs`.
    pub fn encoded_bits(&self, id_bits: usize) -> usize {
        16 + self
            .spans
            .iter()
            .map(|&(_, len)| 8 + len as usize * id_bits)
            .sum::<usize>()
    }
}

/// A set of routing paths, the broadcast payload of the protocol and of the
/// Theorem 9 and 10 phases that route along its paths.
///
/// Each path is a sequence of super-ids from its start vertex to the sender,
/// held as one `[len, id…]` run of a single word vector. For bandwidth
/// accounting every super-id is charged at `id_bits` bits (super-ids are
/// bounded by `O(n log n)`, i.e. `O(log n)` bits), plus 16 bits for the
/// message and 8 bits per path for the lengths.
#[derive(Clone, Debug, Default)]
pub struct PathSetMessage {
    words: Vec<u64>,
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

    /// Appends `path`.
    pub(crate) fn push(&mut self, path: &[u64]) {
        self.words.push(path.len() as u64);
        self.words.extend_from_slice(path);
        self.count += 1;
    }

    /// The paths, in the order they were sent.
    pub fn paths(&self) -> impl Iterator<Item = &[u64]> + '_ {
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

/// A node's reused queue of outgoing paths: their ids back to back plus one
/// span per path. [`PathOutbox::broadcast`] turns a round's queue into one
/// [`PathSetMessage`] in lexicographic path order, the deterministic
/// broadcast order of every path protocol.
#[derive(Debug, Default)]
pub(crate) struct PathOutbox {
    ids: Vec<u64>,
    spans: Vec<(u32, u32)>,
}

impl PathOutbox {
    /// Queues `path ++ tail`.
    pub(crate) fn push(&mut self, path: &[u64], tail: Option<u64>) {
        let offset = u32_from_usize(self.ids.len());
        self.ids.extend_from_slice(path);
        self.ids.extend(tail);
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
            message.push(span_of(ids, span));
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
    pub sid: u64,
    /// For every known start `v` (with `sid(v) < sid(self)`): the stored path
    /// from `v`'s super-id to this vertex's super-id. The entry for the vertex
    /// itself (`sid → [sid]`) is included, mirroring `v ∈ WReach_ρ[v]`.
    pub paths: PathStore,
}

impl WReachInfo {
    /// Super-ids of `WReach_ρ[w]` (including `w` itself), sorted.
    pub fn wreach_sids(&self) -> Vec<u64> {
        self.paths.keys().collect()
    }

    /// The `L`-minimum super-id reachable by a stored path of at most
    /// `max_len` edges — used by Theorem 9 to elect `min WReach_r[w]` from an
    /// order computed for a larger radius. Starts are sorted, so this is the
    /// first short-enough one.
    pub fn min_reachable_within(&self, max_len: usize) -> u64 {
        self.paths
            .iter()
            .find(|(_, path)| path.len().saturating_sub(1) <= max_len)
            .map_or(self.sid, |(sid, _)| sid)
    }
}

/// Node state of the parallel restricted-BFS protocol (paper's Algorithm 4).
#[derive(Debug)]
pub struct WReachNode {
    sid: u64,
    rho: u32,
    id_bits: usize,
    paths: PathStore,
    outbox: PathOutbox,
}

impl WReachNode {
    /// Creates the initial state for a vertex with super-id `sid`, reach
    /// radius `rho`, charging `id_bits` bits per transmitted super-id.
    pub fn new(sid: u64, rho: u32, id_bits: usize) -> Self {
        WReachNode {
            sid,
            rho,
            id_bits,
            paths: PathStore::new(),
            outbox: PathOutbox::default(),
        }
    }

    /// Offers the extension `path ++ [self.sid]` as a candidate; stores and
    /// queues it for broadcast if it is new or better than the stored one.
    /// Both copies are written straight from the borrowed incoming path.
    fn offer(&mut self, path: &[u64]) {
        let start = path[0];
        // Only smaller starts, and never a path through this vertex.
        if start >= self.sid || path.contains(&self.sid) {
            return;
        }
        let slot = self.paths.keys.binary_search(&start);
        if let Ok(i) = slot {
            if !extension_is_better(path, self.sid, self.paths.path_at(i)) {
                return;
            }
        }
        // Re-broadcast only paths that can still be usefully extended.
        if path.len() < self.rho as usize {
            self.outbox.push(path, Some(self.sid));
        }
        self.paths.store(slot, start, path, Some(self.sid));
    }
}

/// Whether the candidate `path ++ [last]` beats `existing` under the
/// protocol's preference (shorter first, then lexicographically smaller),
/// decided without materialising the candidate.
fn extension_is_better(path: &[u64], last: u64, existing: &[u64]) -> bool {
    let candidate_len = path.len() + 1;
    if candidate_len != existing.len() {
        return candidate_len < existing.len();
    }
    match path.cmp(&existing[..path.len()]) {
        std::cmp::Ordering::Less => true,
        std::cmp::Ordering::Greater => false,
        std::cmp::Ordering::Equal => last < existing[path.len()],
    }
}

impl NodeAlgorithm for WReachNode {
    type Message = PathSetMessage;
    type Output = WReachInfo;

    fn init(&mut self, _ctx: &NodeContext) -> Outgoing<PathSetMessage> {
        self.paths.insert(self.sid, &[self.sid]);
        self.outbox.push(&[self.sid], None);
        self.outbox.broadcast(self.id_bits)
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
        for message in inbox {
            for path in message.payload.paths() {
                // Extending a longer path would exceed the reach radius.
                if path.len() <= self.rho as usize {
                    self.offer(path);
                }
            }
        }
        self.outbox.broadcast(self.id_bits)
    }

    fn output(&self, _ctx: &NodeContext) -> WReachInfo {
        WReachInfo {
            sid: self.sid,
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
/// describes at most 255.
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
    let n = graph.num_vertices();
    // Super-ids fit in O(log n) bits: they are bounded by (phases+1)·n.
    let id_bits = bedom_distsim::log2_ceil(n.max(2).pow(2)) + 8;
    let model = match config.bandwidth_logs {
        Some(k) => Model::congest_bc_scaled(k),
        None => Model::Local,
    };
    let mut network = Network::new(graph, model, IdAssignment::Natural, |v, _ctx| {
        WReachNode::new(super_ids[v as usize], config.rho, id_bits)
    });
    network.set_strategy(config.strategy);
    Engine::new(&mut network).run(RunPolicy::fixed(config.rho as usize))?;
    let stats = network.stats().clone();
    // Move each vertex's path store out instead of cloning it.
    let info: Vec<WReachInfo> = network
        .into_nodes()
        .into_iter()
        .map(|node| WReachInfo {
            sid: node.sid,
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
            let my_sid = super_ids[w as usize];
            for &u in graph.neighbors(w) {
                let u_sid = super_ids[u as usize];
                if u_sid < my_sid && info[w as usize].paths.get(u_sid).is_none() {
                    return Err(ModelViolation::PathMissing {
                        vertex: my_sid,
                        neighbor: u_sid,
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
                assert_eq!(*path.first().unwrap(), start_sid);
                assert_eq!(*path.last().unwrap(), super_ids[w as usize]);
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
    fn extension_comparison_matches_materialised_comparison() {
        // The allocation-free comparison must agree with "build the candidate
        // and compare Vecs" on every shape: shorter, longer, lexicographic
        // splits in the shared prefix and in the appended last element.
        let cases: &[(&[u64], u64, &[u64])] = &[
            (&[1], 9, &[1, 9]),
            (&[1], 9, &[1, 9, 4]),
            (&[1, 2], 9, &[1, 9]),
            (&[1, 2], 9, &[1, 3, 9]),
            (&[1, 4], 9, &[1, 3, 9]),
            (&[1, 3], 7, &[1, 3, 9]),
            (&[1, 3], 9, &[1, 3, 7]),
            (&[1, 3], 9, &[1, 3, 9]),
            (&[2], 5, &[2, 5, 7, 8]),
        ];
        for &(path, last, existing) in cases {
            let mut materialised = path.to_vec();
            materialised.push(last);
            let expected = materialised.len() < existing.len()
                || (materialised.len() == existing.len() && materialised.as_slice() < existing);
            assert_eq!(
                extension_is_better(path, last, existing),
                expected,
                "path {path:?} ++ [{last}] vs {existing:?}"
            );
        }
    }

    #[test]
    fn path_store_behaves_like_a_sorted_map() {
        let mut store = PathStore::new();
        assert!(store.is_empty());
        assert_eq!(store.get(3), None);
        store.insert(5, &[5]);
        store.insert(2, &[2, 5]);
        store.insert(9, &[9, 2]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.keys().collect::<Vec<_>>(), vec![2, 5, 9]);
        assert_eq!(store.get(2), Some(&[2, 5][..]));
        // Replacement keeps the store sorted and deduplicated, in place when
        // the new path is no longer and by appending when it is longer.
        store.insert(2, &[2]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(2), Some(&[2][..]));
        store.insert(5, &[5, 7, 5]);
        assert_eq!(store.get(5), Some(&[5, 7, 5][..]));
        let collected: Vec<(u64, &[u64])> = store.iter().collect();
        assert_eq!(collected[0], (2, &[2][..]));
        assert_eq!(collected[2], (9, &[9, 2][..]));
        assert_eq!(
            store.values().collect::<Vec<_>>(),
            vec![&[2][..], &[5, 7, 5], &[9, 2]]
        );
    }

    #[test]
    fn path_stores_with_equal_content_are_equal_whatever_their_history() {
        // An in-place replacement leaves dead words in the arena, so equal
        // stores may differ in layout; equality must see only the content.
        let mut replaced = PathStore::new();
        replaced.insert(4, &[4, 8, 6, 9]);
        replaced.insert(1, &[1, 3, 9]);
        replaced.insert(4, &[4, 9]);
        let mut direct = PathStore::new();
        direct.insert(1, &[1, 3, 9]);
        direct.insert(4, &[4, 9]);
        assert_eq!(replaced, direct);
        direct.insert(1, &[1, 2, 9]);
        assert_ne!(replaced, direct);
    }

    #[test]
    fn message_size_accounting() {
        let mut m = PathSetMessage::with_capacity(10, 2, 4);
        m.push(&[1, 2, 3]);
        m.push(&[4]);
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
        outbox.push(&[3, 5], Some(9));
        outbox.push(&[1], None);
        outbox.push(&[3], Some(9));
        outbox.push(&[1, 4], None);
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
        let mut store = PathStore::new();
        store.insert(7, &[7]);
        store.insert(2, &[2, 9, 7]);
        store.insert(4, &[4, 7]);
        let id_bits = 13;
        let mut message = PathSetMessage::with_capacity(id_bits, 0, 0);
        for path in store.values() {
            message.push(path);
        }
        assert_eq!(message.size_bits(), store.encoded_bits(id_bits));
        assert_eq!(PathStore::new().encoded_bits(id_bits), 16);
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
        assert_eq!(longest, &super_ids[..255]);
        // A context at reach radius 255 elects its order but cannot run
        // Lemma 7.
        let ctx = crate::DistContext::elect(&g, crate::DistContextConfig::new(255)).unwrap();
        assert!(matches!(
            ctx.wreach(),
            Err(ModelViolation::RadiusOutOfRange { requested: 255, .. })
        ));
    }
}
