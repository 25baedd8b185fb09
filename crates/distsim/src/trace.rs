//! Execution statistics collected by the synchronous executor.
//!
//! These are the raw measurements behind experiments F1 (round counts) and F2
//! (message sizes / forwarded-message counts): the paper's Theorem 9 bounds
//! the number of rounds by `O(r² log n)` and Lemma 7 bounds every vertex's
//! per-round broadcast by `O(c(2r)²·r·log n)` bits, and the executor records
//! exactly those quantities.

/// Statistics of a single communication round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index (1-based; round 0 is local initialisation and sends the
    /// first messages but is not itself a communication round).
    pub round: usize,
    /// Number of vertices that sent anything (a broadcast counts once).
    pub senders: usize,
    /// Number of point-to-point deliveries (a broadcast to `d` neighbours
    /// counts `d`).
    pub deliveries: usize,
    /// Total bits put on the wire this round (a broadcast's payload is counted
    /// once per sending vertex, as in the CONGEST_BC accounting).
    pub bits_sent: usize,
    /// Largest single wire frame in bits this round (payloads that model a
    /// framing layer report per-frame maxima via
    /// [`crate::MessageSize::max_frame_bits`]; unframed payloads count as one
    /// frame, so this is the largest whole message for them).
    pub max_message_bits: usize,
    /// Deliveries suppressed by the installed [`crate::FaultPlan`] this round
    /// (dropped messages, link outages, crashed endpoints). The sender still
    /// pays the wire cost — `bits_sent` counts what was *offered* — but the
    /// message never reaches its receiver and is not in `deliveries`.
    pub dropped_deliveries: usize,
    /// Vertices down for this round under the installed fault plan's crash
    /// windows (they neither sent, received, nor transitioned).
    pub crashed: usize,
}

/// Aggregate statistics of a full execution.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of communication rounds executed.
    pub rounds: usize,
    /// Sum of per-round sender counts.
    pub total_sends: usize,
    /// Sum of per-round delivery counts.
    pub total_deliveries: usize,
    /// Total bits sent over the whole execution.
    pub total_bits: usize,
    /// Largest single wire frame observed, in bits (the largest whole
    /// message for unframed payloads — see [`RoundStats::max_message_bits`]).
    pub max_message_bits: usize,
    /// Largest number of bits any single vertex sent in any single round.
    pub max_vertex_round_bits: usize,
    /// Total deliveries suppressed by fault injection (see
    /// [`RoundStats::dropped_deliveries`]). Zero on a fault-free run.
    pub dropped_deliveries: usize,
    /// Total vertex-rounds lost to crash windows (a vertex down for `k`
    /// rounds contributes `k`). Zero on a fault-free run.
    pub crashed_vertex_rounds: usize,
    /// Per-round breakdown.
    pub per_round: Vec<RoundStats>,
}

impl RunStats {
    /// Records one finished round.
    pub fn push_round(&mut self, round: RoundStats) {
        self.rounds += 1;
        self.total_sends += round.senders;
        self.total_deliveries += round.deliveries;
        self.total_bits += round.bits_sent;
        self.max_message_bits = self.max_message_bits.max(round.max_message_bits);
        self.dropped_deliveries += round.dropped_deliveries;
        self.crashed_vertex_rounds += round.crashed;
        self.per_round.push(round);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation() {
        let mut stats = RunStats::default();
        stats.push_round(RoundStats {
            round: 1,
            senders: 10,
            deliveries: 30,
            bits_sent: 100,
            max_message_bits: 12,
            ..RoundStats::default()
        });
        stats.push_round(RoundStats {
            round: 2,
            senders: 5,
            deliveries: 15,
            bits_sent: 60,
            max_message_bits: 20,
            ..RoundStats::default()
        });
        assert_eq!(stats.rounds, 2);
        assert_eq!(stats.total_sends, 15);
        assert_eq!(stats.total_deliveries, 45);
        assert_eq!(stats.total_bits, 160);
        assert_eq!(stats.max_message_bits, 20);
        assert_eq!(stats.dropped_deliveries, 0);
        assert_eq!(stats.crashed_vertex_rounds, 0);
    }

    #[test]
    fn fault_counters_accumulate() {
        let mut stats = RunStats::default();
        stats.push_round(RoundStats {
            round: 1,
            deliveries: 8,
            dropped_deliveries: 2,
            crashed: 1,
            ..RoundStats::default()
        });
        stats.push_round(RoundStats {
            round: 2,
            deliveries: 10,
            dropped_deliveries: 3,
            crashed: 1,
            ..RoundStats::default()
        });
        assert_eq!(stats.dropped_deliveries, 5);
        assert_eq!(stats.crashed_vertex_rounds, 2);
        assert_eq!(stats.total_deliveries, 18);
    }

    #[test]
    fn empty_stats() {
        let stats = RunStats::default();
        assert_eq!(stats.rounds, 0);
    }
}
