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
//! The engine runs the broadcast models: at the end of a round a vertex
//! either stays silent or broadcasts one message to all its neighbours
//! ([`Outgoing`]). A protocol that addresses a message to one neighbour
//! broadcasts it with the address in a header, as the Theorem 9 token
//! routing does.
//!
//! Message delivery is zero-copy: the engine never clones payloads. A vertex
//! reads its inbox through [`Inbox`], a view over its id-sorted neighbour
//! list that resolves each received message to a *reference* into the
//! sender's outbox (see the `network` module for the delivery machinery).

use crate::fault::DeliveryFilter;
use crate::message::MessageSize;

/// Static, locally known information of a vertex.
///
/// Per the paper's model every vertex knows its own unique `O(log n)`-bit
/// identifier, the order `n` of the graph, and (after one implicit round) the
/// identifiers of its neighbours.
///
/// A borrowed `Copy` view: the network keeps every vertex's neighbour ids in
/// one id-sorted array and builds each call's context over its slice, so a
/// context costs no allocation. Copy out what you keep.
#[derive(Clone, Copy, Debug)]
pub struct NodeContext<'a> {
    /// This vertex's unique network identifier.
    pub id: u64,
    /// Number of vertices of the network graph, known to all vertices.
    pub n: usize,
    /// Identifiers of the neighbours, sorted increasingly.
    pub neighbor_ids: &'a [u64],
}

impl NodeContext<'_> {
    /// Degree of this vertex.
    pub fn degree(&self) -> usize {
        self.neighbor_ids.len()
    }
}

/// What a vertex sends at the end of a round: nothing, or one message to
/// every neighbour (the only two options in CONGEST_BC).
#[derive(Clone, Debug)]
pub enum Outgoing<M> {
    /// Send nothing this round.
    Silent,
    /// Broadcast the same message to every neighbour.
    Broadcast(M),
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

/// A vertex's inbox for one round: an allocation-free view over the
/// receiver's neighbour list. Iterate it to obtain [`Incoming`] messages in
/// deterministic order (increasing sender id); silent senders, and senders
/// whose broadcast the installed [`crate::FaultPlan`] drops, are skipped.
#[derive(Debug)]
pub struct Inbox<'a, M> {
    /// The storage slots of the receiver's neighbours, sorted by network id.
    pub(crate) neighbors: &'a [u32],
    /// Network id of every slot.
    pub(crate) ids: &'a [u64],
    /// The deliveries the fault plan allows this round, if one is active.
    pub(crate) filter: Option<DeliveryFilter<'a>>,
    /// Every slot's outbox.
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
            neighbors: &[],
            ids: &[],
            filter: None,
            outboxes: &[],
        }
    }

    /// The payload the neighbour in slot `u` delivers this round, if any.
    fn payload_from(&self, u: u32) -> Option<&'a M> {
        let outboxes = self.outboxes;
        match &outboxes[u as usize] {
            Outgoing::Broadcast(m) if self.filter.is_none_or(|f| f.delivers_from(u)) => Some(m),
            _ => None,
        }
    }

    /// Number of messages received this round (`O(degree)`: it counts the
    /// neighbours that deliver).
    pub fn len(&self) -> usize {
        self.neighbors
            .iter()
            .filter(|&&u| self.payload_from(u).is_some())
            .count()
    }

    /// Whether nothing was received.
    pub fn is_empty(&self) -> bool {
        self.neighbors
            .iter()
            .all(|&u| self.payload_from(u).is_none())
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
        let inbox = self.inbox;
        loop {
            let &u = inbox.neighbors.get(self.next)?;
            self.next += 1;
            if let Some(payload) = inbox.payload_from(u) {
                return Some(Incoming {
                    from: inbox.ids[u as usize],
                    payload,
                });
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.inbox.neighbors.len() - self.next))
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
            neighbor_ids: &[2, 5, 11],
        };
        assert_eq!(ctx.degree(), 3);
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
            neighbors: &neighbors,
            ids: &ids,
            filter: None,
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
            neighbors: &neighbors,
            ids: &ids,
            filter: Some(filter),
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
