//! Distributed computing models: LOCAL and CONGEST_BC.
//!
//! The paper (Section 2, "Distributed system model") considers synchronous,
//! reliable message passing on the network graph:
//!
//! * **LOCAL** — per-neighbour messages of arbitrary size;
//! * **CONGEST** — per-neighbour messages of `O(log n)` bits;
//! * **CONGEST_BC** — every vertex *broadcasts* one message of `O(log n)` bits
//!   to all its neighbours.
//!
//! The simulator implements LOCAL and CONGEST_BC. Its engine is
//! broadcast-only: a vertex either stays silent or broadcasts one message
//! per round ([`crate::Outgoing`]), so the broadcast restriction holds by
//! type. A protocol that addresses a message to one neighbour broadcasts it
//! with the address in a header, as the Theorem 9 token routing does, and
//! every other receiver drops it after reading the header. LOCAL runs on
//! the same broadcasts without a size limit, which loses nothing: one
//! broadcast can carry every per-neighbour message with its address.
//!
//! The bandwidth is checked at run time: a message that exceeds it produces
//! a [`ModelViolation`] instead of silently "working". It is expressed as a
//! multiple of `⌈log₂ n⌉` because that is how the paper states every bound
//! (e.g. Lemma 7's messages of size `O(c(2r)²·r·log n)`).

/// Number of bits needed to write an identifier in `0..n` (at least 1).
pub fn id_bits(n: usize) -> usize {
    log2_ceil(n)
}

/// `⌈log₂ n⌉` with a minimum of 1; the unit in which bandwidths are expressed.
pub fn log2_ceil(n: usize) -> usize {
    if n <= 2 {
        1
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// The communication model an execution runs under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Model {
    /// Arbitrary message sizes.
    Local,
    /// One broadcast message per vertex per round of at most
    /// `bandwidth_logs · ⌈log₂ n⌉` bits.
    CongestBc {
        /// Bandwidth in units of `⌈log₂ n⌉` bits.
        bandwidth_logs: usize,
    },
}

impl Model {
    /// The classical broadcast CONGEST model with messages of one id-width.
    pub fn congest_bc() -> Model {
        Model::CongestBc { bandwidth_logs: 1 }
    }

    /// CONGEST_BC with a bandwidth of `k · ⌈log₂ n⌉` bits, the form in which
    /// the paper's algorithms state their message sizes (the constant `k`
    /// depends on the class constant `c(r)` and on `r`, not on `n`).
    pub fn congest_bc_scaled(bandwidth_logs: usize) -> Model {
        Model::CongestBc { bandwidth_logs }
    }

    /// Maximum number of bits a single message may carry on a graph of order
    /// `n`, or `None` if unbounded (LOCAL).
    pub fn max_message_bits(&self, n: usize) -> Option<usize> {
        match *self {
            Model::Local => None,
            Model::CongestBc { bandwidth_logs } => Some(bandwidth_logs.max(1) * log2_ceil(n)),
        }
    }

    /// Short display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Model::Local => "LOCAL",
            Model::CongestBc { .. } => "CONGEST_BC",
        }
    }
}

/// A violation of the communication model detected by the executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ModelViolation {
    /// A message exceeded the model's bandwidth.
    MessageTooLarge {
        /// Offending vertex (network id).
        vertex: u64,
        /// Round in which the violation occurred.
        round: usize,
        /// Size of the offending message in bits.
        bits: usize,
        /// Maximum allowed size in bits.
        limit: usize,
    },
    /// A radius-`requested` query was issued against state prepared only up
    /// to radius `supported` (a context's weak-reachability index, a phase's
    /// protocol run, …). Answering it would silently read truncated balls as
    /// if they were exact, so the query fails loudly instead.
    RadiusOutOfRange {
        /// The radius the caller asked for.
        requested: u32,
        /// The largest radius the queried state supports.
        supported: u32,
        /// What was queried (for the error message).
        what: &'static str,
    },
    /// An identifier exceeds the width a protocol holds identifiers in (a
    /// 32-bit super-id store, …). Narrowing it would silently alias two
    /// vertices, so the protocol refuses before any round instead.
    IdOutOfRange {
        /// The identifier the caller supplied.
        id: u64,
        /// The largest identifier the protocol supports.
        supported: u64,
        /// What rejected it (for the error message).
        what: &'static str,
    },
    /// A radius-`requested` query was issued against a protocol or phase
    /// that only operates at radii ≥ `minimum` (e.g. the degenerate `r = 0`
    /// domination problem, whose answer is the full vertex set and needs no
    /// protocol). The complement of [`ModelViolation::RadiusOutOfRange`]:
    /// too *small* instead of too large.
    RadiusUnsupported {
        /// The radius the caller asked for.
        requested: u32,
        /// The smallest radius the queried protocol supports.
        minimum: u32,
        /// What was queried (for the error message).
        what: &'static str,
    },
    /// A vertex finished a knowledge-flood phase with less information than
    /// its locally checkable invariants require — lost messages (drops,
    /// outages, crashes) left it with incomplete distance-r knowledge, and
    /// deciding on it would risk a silently wrong output.
    IncompleteKnowledge {
        /// The vertex with the knowledge gap (network id).
        vertex: u64,
        /// The round at which the gap was detected.
        round: usize,
        /// Units of knowledge (summaries, records, announcements) required.
        expected: usize,
        /// Units actually received.
        received: usize,
    },
    /// Election token routing lost tokens in transit: the set of vertices
    /// that completed a token route does not match the set of elected
    /// dominators, so the "every vertex has a dominator in range" argument
    /// no longer holds.
    TokenLost {
        /// The round by which routing should have completed.
        round: usize,
        /// Dominators the election elected.
        expected: usize,
        /// Dominators actually reachable through completed token routes.
        received: usize,
    },
    /// A path-exchange protocol is missing a path that must unconditionally
    /// be present (e.g. the length-1 weak-reachability path of a direct
    /// neighbour, established by the very first exchange round).
    PathMissing {
        /// The vertex missing the path (order position / protocol id).
        vertex: u64,
        /// The neighbour whose path is absent (order position / protocol id).
        neighbor: u64,
        /// The round by which the path should have arrived.
        round: usize,
    },
}

impl std::fmt::Display for ModelViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelViolation::MessageTooLarge {
                vertex,
                round,
                bits,
                limit,
            } => write!(
                f,
                "vertex {vertex} sent a {bits}-bit message, exceeding the {limit}-bit limit (round {round})"
            ),
            ModelViolation::RadiusOutOfRange {
                requested,
                supported,
                what,
            } => write!(
                f,
                "radius-{requested} query on {what} prepared only up to radius {supported}"
            ),
            ModelViolation::IdOutOfRange { id, supported, what } => write!(
                f,
                "id {id} given to {what} exceeds the largest supported id {supported}"
            ),
            ModelViolation::RadiusUnsupported {
                requested,
                minimum,
                what,
            } => write!(
                f,
                "radius-{requested} query on {what}, which only supports radii >= {minimum}"
            ),
            ModelViolation::IncompleteKnowledge {
                vertex,
                round,
                expected,
                received,
            } => write!(
                f,
                "vertex {vertex} ended round {round} with {received}/{expected} of its required knowledge — messages were lost"
            ),
            ModelViolation::TokenLost {
                round,
                expected,
                received,
            } => write!(
                f,
                "election token routing lost tokens: {received}/{expected} dominators reachable after round {round}"
            ),
            ModelViolation::PathMissing {
                vertex,
                neighbor,
                round,
            } => write!(
                f,
                "vertex {vertex} is missing the unconditional path of neighbour {neighbor} after round {round}"
            ),
        }
    }
}

impl std::error::Error for ModelViolation {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(4), 2);
        assert_eq!(log2_ceil(5), 3);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn model_bandwidths() {
        assert_eq!(Model::Local.max_message_bits(1000), None);
        assert_eq!(Model::congest_bc().max_message_bits(1024), Some(10));
        assert_eq!(Model::congest_bc_scaled(5).max_message_bits(1024), Some(50));
        // Bandwidth multiplier 0 is clamped to 1.
        assert_eq!(
            Model::CongestBc { bandwidth_logs: 0 }.max_message_bits(16),
            Some(4)
        );
    }

    #[test]
    fn violation_display_mentions_vertex_and_round() {
        let v = ModelViolation::MessageTooLarge {
            vertex: 7,
            round: 3,
            bits: 100,
            limit: 10,
        };
        let text = v.to_string();
        assert!(text.contains('7') && text.contains('3') && text.contains("100"));
    }

    #[test]
    fn radius_violation_displays_name_both_boundaries() {
        let too_big = ModelViolation::RadiusOutOfRange {
            requested: 5,
            supported: 2,
            what: "a test index",
        };
        assert!(too_big.to_string().contains("radius-5"));
        assert!(too_big.to_string().contains("up to radius 2"));
        let too_small = ModelViolation::RadiusUnsupported {
            requested: 0,
            minimum: 1,
            what: "a test protocol",
        };
        assert!(too_small.to_string().contains("radius-0"));
        assert!(too_small.to_string().contains(">= 1"));
        assert!(too_small.to_string().contains("a test protocol"));
    }

    #[test]
    fn id_violation_displays_the_id_and_its_limit() {
        let too_wide = ModelViolation::IdOutOfRange {
            id: 1 << 32,
            supported: u64::from(u32::MAX),
            what: "a test store",
        };
        let text = too_wide.to_string();
        assert!(text.contains("id 4294967296 given to a test store"));
        assert!(text.contains("largest supported id 4294967295"));
    }

    #[test]
    fn degradation_violations_display_their_coordinates() {
        let gap = ModelViolation::IncompleteKnowledge {
            vertex: 12,
            round: 3,
            expected: 5,
            received: 4,
        };
        assert!(gap.to_string().contains("vertex 12"));
        assert!(gap.to_string().contains("4/5"));
        let lost = ModelViolation::TokenLost {
            round: 4,
            expected: 9,
            received: 7,
        };
        assert!(lost.to_string().contains("7/9"));
        let path = ModelViolation::PathMissing {
            vertex: 3,
            neighbor: 1,
            round: 1,
        };
        assert!(path.to_string().contains("neighbour 1"));
    }

    #[test]
    fn model_names() {
        assert_eq!(Model::Local.name(), "LOCAL");
        assert_eq!(Model::congest_bc().name(), "CONGEST_BC");
    }
}
