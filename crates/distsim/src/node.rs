//! The per-vertex algorithm interface.
//!
//! A distributed algorithm is a state machine replicated at every vertex. In
//! each synchronous round it receives the messages its neighbours sent in the
//! previous round and decides what to send next (Section 2 of the paper:
//! "In each round, each vertex may send a (different) message to each of its
//! neighbors … and receives all messages from its neighbors. After sending
//! and receiving messages, every client may perform arbitrary finite
//! computations.").
//!
//! Message delivery is zero-copy: the engine never clones payloads. A vertex
//! reads its inbox through [`Inbox`], a flat view into the delivery arena that
//! resolves each received message to a *reference* into the sender's outbox
//! (see the `engine` module for the delivery machinery).

use crate::fault::DeliveryFilter;
use crate::message::MessageSize;

/// Static, locally known information of a vertex.
///
/// Per the paper's model every vertex knows its own unique `O(log n)`-bit
/// identifier, the order `n` of the graph, and (after one implicit round) the
/// identifiers of its neighbours.
#[derive(Clone, Debug)]
pub struct NodeContext {
    /// This vertex's unique network identifier.
    pub id: u64,
    /// Number of vertices of the network graph, known to all vertices.
    pub n: usize,
    /// Identifiers of the neighbours, sorted increasingly.
    pub neighbor_ids: Vec<u64>,
}

impl NodeContext {
    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }

    /// Whether `id` is a neighbour of this vertex.
    pub fn is_neighbor(&self, id: u64) -> bool {
        self.neighbor_ids.binary_search(&id).is_ok()
    }
}

/// What a vertex sends at the end of a round.
#[derive(Clone, Debug)]
pub enum Outgoing<M> {
    /// Send nothing this round.
    Silent,
    /// Broadcast the same message to every neighbour (the only option besides
    /// silence in CONGEST_BC).
    Broadcast(M),
    /// Send individual messages to selected neighbours, addressed by their
    /// network identifier. Only valid in LOCAL and CONGEST.
    Unicast(Vec<(u64, M)>),
}

impl<M> Outgoing<M> {
    /// Whether nothing is sent.
    pub fn is_silent(&self) -> bool {
        matches!(self, Outgoing::Silent)
    }
}

/// One delivery record in the flat inbox arena: which sender produced the
/// message and where inside its outbox the payload lives. Payloads are
/// resolved lazily by [`Inbox`], so a broadcast to `d` neighbours stores `d`
/// 16-byte packets instead of `d` payload clones.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Packet {
    /// Network id of the sender (delivery order key).
    pub from: u64,
    /// Storage slot of the sender in the network (not its graph vertex).
    pub sender: u32,
    /// Index into the sender's unicast list (unused for broadcasts).
    pub unicast_idx: u32,
}

/// A message received from a neighbour. The payload borrows from the sender's
/// outbox — receiving is free; clone only what you keep.
#[derive(Debug)]
pub struct Incoming<'a, M> {
    /// Network identifier of the sender.
    pub from: u64,
    /// The payload, borrowed from the sender's outbox.
    pub payload: &'a M,
}

// Manual impls: `Incoming` only holds a reference, so it is Copy for any `M`.
impl<M> Clone for Incoming<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Incoming<'_, M> {}

/// How an [`Inbox`] locates its messages.
///
/// `Packets` is the general form: a slice of the engine's delivery arena
/// (covers unicast and mixed rounds). `Broadcasts` is the fast path for
/// rounds in which every sender broadcast or stayed silent — the normal case
/// in CONGEST_BC — where the receiver's pre-sorted neighbour list *is* the
/// delivery structure and no arena needs building at all.
#[derive(Clone, Copy, Debug)]
pub(crate) enum InboxSource<'a> {
    /// Packets from the delivery arena. Fault filtering (if any) happened at
    /// arena-build time, so the packets are exactly the surviving deliveries.
    Packets(&'a [Packet]),
    /// The storage slots of the receiver's neighbours (sorted by network
    /// id); silent senders are skipped during iteration. The second slice
    /// maps slot → network id. The filter, when present, additionally
    /// suppresses deliveries the installed [`crate::FaultPlan`] kills this
    /// round.
    Broadcasts(&'a [u32], &'a [u64], Option<DeliveryFilter<'a>>),
}

/// A vertex's inbox for one round: a flat, allocation-free view over the
/// engine's delivery structures. Iterate it to obtain [`Incoming`] messages
/// in deterministic order (increasing sender id, then sender send-order).
#[derive(Debug)]
pub struct Inbox<'a, M> {
    pub(crate) source: InboxSource<'a>,
    pub(crate) outboxes: &'a [Outgoing<M>],
}

// Manual impls: `Inbox` only holds references, so it is Copy for any `M`.
impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// An inbox with no messages (used for round 0 and in tests).
    pub fn empty() -> Inbox<'static, M> {
        Inbox {
            source: InboxSource::Packets(&[]),
            outboxes: &[],
        }
    }

    /// Number of messages received this round. Constant-time on arena-backed
    /// inboxes; on the broadcast fast path it counts the non-silent
    /// neighbours (`O(degree)`).
    pub fn len(&self) -> usize {
        match self.source {
            InboxSource::Packets(packets) => packets.len(),
            InboxSource::Broadcasts(neighbors, _, filter) => neighbors
                .iter()
                .filter(|&&u| {
                    !self.outboxes[u as usize].is_silent()
                        && filter.is_none_or(|f| f.delivers_from(u))
                })
                .count(),
        }
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        match self.source {
            InboxSource::Packets(packets) => packets.is_empty(),
            InboxSource::Broadcasts(neighbors, _, filter) => neighbors.iter().all(|&u| {
                self.outboxes[u as usize].is_silent() || filter.is_some_and(|f| !f.delivers_from(u))
            }),
        }
    }

    /// Iterates the received messages in deterministic order.
    pub fn iter(&self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: *self,
            next: 0,
        }
    }
}

impl<'a, M> IntoIterator for Inbox<'a, M> {
    type Item = Incoming<'a, M>;
    type IntoIter = InboxIter<'a, M>;

    fn into_iter(self) -> InboxIter<'a, M> {
        InboxIter {
            inbox: self,
            next: 0,
        }
    }
}

/// Iterator over an [`Inbox`].
#[derive(Debug)]
pub struct InboxIter<'a, M> {
    inbox: Inbox<'a, M>,
    next: usize,
}

impl<M> Clone for InboxIter<'_, M> {
    fn clone(&self) -> Self {
        InboxIter {
            inbox: self.inbox,
            next: self.next,
        }
    }
}

impl<'a, M> Iterator for InboxIter<'a, M> {
    type Item = Incoming<'a, M>;

    fn next(&mut self) -> Option<Incoming<'a, M>> {
        match self.inbox.source {
            InboxSource::Packets(packets) => {
                let packet = packets.get(self.next)?;
                self.next += 1;
                let payload = match &self.inbox.outboxes[packet.sender as usize] {
                    Outgoing::Broadcast(m) => m,
                    Outgoing::Unicast(messages) => &messages[packet.unicast_idx as usize].1,
                    Outgoing::Silent => {
                        unreachable!("delivery arena refers to a silent sender")
                    }
                };
                Some(Incoming {
                    from: packet.from,
                    payload,
                })
            }
            InboxSource::Broadcasts(neighbors, ids, filter) => loop {
                let &u = neighbors.get(self.next)?;
                self.next += 1;
                if let Some(filter) = filter {
                    if !filter.delivers_from(u) {
                        continue;
                    }
                }
                match &self.inbox.outboxes[u as usize] {
                    Outgoing::Silent => continue,
                    Outgoing::Broadcast(m) => {
                        return Some(Incoming {
                            from: ids[u as usize],
                            payload: m,
                        });
                    }
                    Outgoing::Unicast(_) => {
                        unreachable!("broadcast fast path used in a round with unicasts")
                    }
                }
            },
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self.inbox.source {
            InboxSource::Packets(packets) => {
                let remaining = packets.len() - self.next;
                (remaining, Some(remaining))
            }
            InboxSource::Broadcasts(neighbors, _, _) => (0, Some(neighbors.len() - self.next)),
        }
    }
}

/// A distributed algorithm, instantiated once per vertex.
///
/// The executor drives all instances in lockstep:
/// 1. round 0: [`NodeAlgorithm::init`] is called with no inbox;
/// 2. round `t ≥ 1`: [`NodeAlgorithm::round`] is called with the messages sent
///    in round `t − 1`;
/// 3. after the final round, [`NodeAlgorithm::output`] extracts the vertex's
///    local output (e.g. "am I in the dominating set?").
pub trait NodeAlgorithm: Send {
    /// Message payload exchanged between vertices. `Sync` because inboxes
    /// borrow payloads from other vertices' outboxes during a parallel round.
    type Message: MessageSize + Send + Sync;
    /// Per-vertex output produced at termination.
    type Output: Send;

    /// Called once before the first communication round.
    fn init(&mut self, ctx: &NodeContext) -> Outgoing<Self::Message>;

    /// Called once per communication round with all messages received from
    /// neighbours (sent by them in the previous round). `round` starts at 1.
    fn round(
        &mut self,
        ctx: &NodeContext,
        round: usize,
        inbox: Inbox<'_, Self::Message>,
    ) -> Outgoing<Self::Message>;

    /// Extracts the vertex's output once the executor stops.
    fn output(&self, ctx: &NodeContext) -> Self::Output;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_helpers() {
        let ctx = NodeContext {
            id: 10,
            n: 100,
            neighbor_ids: vec![2, 5, 11],
        };
        assert_eq!(ctx.degree(), 3);
        assert!(ctx.is_neighbor(5));
        assert!(!ctx.is_neighbor(7));
    }

    #[test]
    fn outgoing_silence() {
        let s: Outgoing<u32> = Outgoing::Silent;
        assert!(s.is_silent());
        assert!(!Outgoing::Broadcast(3u32).is_silent());
        assert!(!Outgoing::Unicast(vec![(1, 2u32)]).is_silent());
    }

    #[test]
    fn inbox_resolves_broadcasts_and_unicasts() {
        let outboxes: Vec<Outgoing<u32>> = vec![
            Outgoing::Broadcast(70),
            Outgoing::Silent,
            Outgoing::Unicast(vec![(9, 41), (3, 42)]),
        ];
        let packets = vec![
            Packet {
                from: 0,
                sender: 0,
                unicast_idx: 0,
            },
            Packet {
                from: 2,
                sender: 2,
                unicast_idx: 1,
            },
        ];
        let inbox = Inbox {
            source: InboxSource::Packets(&packets),
            outboxes: &outboxes,
        };
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let received: Vec<(u64, u32)> = inbox.iter().map(|m| (m.from, *m.payload)).collect();
        assert_eq!(received, vec![(0, 70), (2, 42)]);
        assert_eq!(inbox.iter().count(), 2);
    }

    #[test]
    fn inbox_broadcast_fast_path_skips_silent_senders() {
        let outboxes: Vec<Outgoing<u32>> = vec![
            Outgoing::Broadcast(70),
            Outgoing::Silent,
            Outgoing::Broadcast(72),
        ];
        let ids = vec![10u64, 11, 12];
        let neighbors = vec![0u32, 1, 2];
        let inbox = Inbox {
            source: InboxSource::Broadcasts(&neighbors, &ids, None),
            outboxes: &outboxes,
        };
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let received: Vec<(u64, u32)> = inbox.iter().map(|m| (m.from, *m.payload)).collect();
        assert_eq!(received, vec![(10, 70), (12, 72)]);
    }

    #[test]
    fn inbox_broadcast_fast_path_honours_delivery_filter() {
        use crate::fault::FaultPlan;
        let outboxes: Vec<Outgoing<u32>> = vec![
            Outgoing::Broadcast(70),
            Outgoing::Broadcast(71),
            Outgoing::Broadcast(72),
        ];
        let ids = vec![10u64, 11, 12];
        let neighbors = vec![0u32, 1, 2];
        let plan = FaultPlan::seeded(0).crash(1, 1, 2);
        let filter = DeliveryFilter {
            plan: &plan,
            round: 1,
            receiver: 3,
            vertex_at: &[0, 1, 2, 3],
        };
        let inbox = Inbox {
            source: InboxSource::Broadcasts(&neighbors, &ids, Some(filter)),
            outboxes: &outboxes,
        };
        assert_eq!(inbox.len(), 2);
        assert!(!inbox.is_empty());
        let received: Vec<(u64, u32)> = inbox.iter().map(|m| (m.from, *m.payload)).collect();
        assert_eq!(received, vec![(10, 70), (12, 72)], "vertex 1 is crashed");
    }

    #[test]
    fn empty_inbox() {
        let inbox = Inbox::<u64>::empty();
        assert!(inbox.is_empty());
        assert_eq!(inbox.iter().count(), 0);
    }
}
