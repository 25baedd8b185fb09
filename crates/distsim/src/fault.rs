//! Deterministic fault injection for the superstep engine.
//!
//! Real deployments of the paper's protocols do not run on the reliable
//! synchronous network of Section 2: messages drop, links flap, nodes crash
//! and come back. A [`FaultPlan`] injects exactly those failures into a
//! [`crate::Network`] — per-round message drops, per-edge link outages and
//! per-vertex crash/restore windows — while keeping every run reproducible.
//!
//! ## Determinism by construction
//!
//! Every stochastic decision ("does the message `u → w` of round `t`
//! arrive?") is a **pure function** of the plan's seed and the decision's
//! coordinates: a fresh [`DetRng`] is derived per query and consumed for a
//! single draw. The plan carries no mutable state, so the answers do not
//! depend on query order — sequential and parallel executions of a faulty
//! run are bit-identical for the same reason fault-free ones are, and the
//! recovery supervisor may re-ask any question during a replay and get the
//! same answer.
//!
//! ## Fault semantics
//!
//! Faults are indexed by the **delivering round**: a message sent at the end
//! of round `t − 1` is subject to the faults of round `t`, the round in which
//! it would be received. Round 0 (local initialisation) is never faulted.
//!
//! * **Drops** are directional: the message `u → w` may be lost while
//!   `w → u` arrives (a broadcast is a bundle of per-edge deliveries, each
//!   dropped independently).
//! * **Link outages** are symmetric: an edge that is out delivers nothing in
//!   either direction for that round.
//! * **Crashes** are explicit windows `[from_round, until_round)` per graph
//!   vertex: a crashed vertex sends nothing (messages it queued are lost),
//!   receives nothing, and does not transition — its state freezes until the
//!   restore round, which is exactly what [`crate::run_with_recovery`]
//!   assumes.

use bedom_rng::DetRng;

/// SplitMix64 finaliser — a cheap, well-mixed hash for deriving per-decision
/// seeds from the decision's coordinates.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A crash/restore window: the vertex is down for rounds
/// `from_round <= t < until_round`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashWindow {
    /// The crashed graph vertex.
    pub vertex: u32,
    /// First round the vertex is down (inclusive).
    pub from_round: usize,
    /// First round the vertex is back up (exclusive end of the window).
    pub until_round: usize,
}

/// A seeded, immutable schedule of faults. Build one with
/// [`FaultPlan::seeded`] plus the builder knobs, install it with
/// [`crate::Network::set_fault_plan`]. See the module docs for semantics.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    drop_probability: f64,
    outage_probability: f64,
    /// Stochastic faults apply only to rounds in `[first_round, until_round)`.
    first_round: usize,
    until_round: usize,
    crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults scheduled yet.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_probability: 0.0,
            outage_probability: 0.0,
            first_round: 1,
            until_round: usize::MAX,
            crashes: Vec::new(),
        }
    }

    /// Drops each individual delivery (one edge direction, one round)
    /// independently with probability `p`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn drop_messages(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        self.drop_probability = p;
        self
    }

    /// Takes each undirected edge out for a whole round independently with
    /// probability `p` (no delivery in either direction).
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1`.
    pub fn link_outages(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "outage probability {p} not in [0, 1]"
        );
        self.outage_probability = p;
        self
    }

    /// Restricts the stochastic faults (drops and outages) to rounds
    /// `from <= t < until`. Crash windows carry their own rounds and are not
    /// affected. Defaults to every communication round.
    pub fn during(mut self, from: usize, until: usize) -> Self {
        assert!(
            from >= 1,
            "round 0 is local initialisation and cannot be faulted"
        );
        assert!(from < until, "empty fault window [{from}, {until})");
        self.first_round = from;
        self.until_round = until;
        self
    }

    /// Crashes graph vertex `vertex` for rounds `from_round <= t < until_round`.
    ///
    /// # Panics
    /// Panics if the window is empty or starts before round 1.
    pub fn crash(mut self, vertex: u32, from_round: usize, until_round: usize) -> Self {
        assert!(
            from_round >= 1,
            "round 0 is local initialisation and cannot be faulted"
        );
        assert!(
            from_round < until_round,
            "empty crash window [{from_round}, {until_round}) for vertex {vertex}"
        );
        self.crashes.push(CrashWindow {
            vertex,
            from_round,
            until_round,
        });
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled crash windows.
    pub fn crashes(&self) -> &[CrashWindow] {
        &self.crashes
    }

    /// Whether any fault can occur in `round` — the network's cheap gate for
    /// skipping all fault bookkeeping in unaffected rounds.
    pub fn active_at(&self, round: usize) -> bool {
        if round == 0 {
            return false;
        }
        let stochastic = (self.drop_probability > 0.0 || self.outage_probability > 0.0)
            && round >= self.first_round
            && round < self.until_round;
        stochastic
            || self
                .crashes
                .iter()
                .any(|c| c.from_round <= round && round < c.until_round)
    }

    /// Whether graph vertex `v` is down in `round`.
    pub fn is_crashed(&self, round: usize, v: u32) -> bool {
        self.crashes
            .iter()
            .any(|c| c.vertex == v && c.from_round <= round && round < c.until_round)
    }

    /// Whether the delivery `from → to` (graph vertices) of `round` arrives:
    /// both endpoints up, the link in service, and the individual message not
    /// dropped. Pure in the plan — any caller may ask in any order.
    pub fn delivers(&self, round: usize, from: u32, to: u32) -> bool {
        if self.is_crashed(round, from) || self.is_crashed(round, to) {
            return false;
        }
        if round < self.first_round || round >= self.until_round {
            return true;
        }
        if self.outage_probability > 0.0 {
            let (a, b) = if from <= to { (from, to) } else { (to, from) };
            if self.decide(
                0x07,
                round as u64,
                u64::from(a),
                u64::from(b),
                self.outage_probability,
            ) {
                return false;
            }
        }
        if self.drop_probability > 0.0
            && self.decide(
                0xd0,
                round as u64,
                u64::from(from),
                u64::from(to),
                self.drop_probability,
            )
        {
            return false;
        }
        true
    }

    /// One stateless Bernoulli draw keyed by `(salt, a, b, c)`.
    fn decide(&self, salt: u64, a: u64, b: u64, c: u64, p: f64) -> bool {
        let key = mix(self.seed ^ mix(salt))
            .wrapping_add(mix(a.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
            .wrapping_add(mix(b ^ 0xc2b2_ae3d_27d4_eb4f))
            .wrapping_add(mix(c.wrapping_mul(0x1656_67b1_9e37_79f9)));
        DetRng::seed_from_u64(key).gen_f64() < p
    }
}

/// The per-receiver delivery predicate an [`crate::node::Inbox`] carries
/// under an active fault plan: the inbox skips, as it is read, every
/// neighbour's broadcast this says is lost. Senders arrive as the network's
/// storage slots and are mapped back to graph vertices, which is what the
/// plan is keyed by.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliveryFilter<'a> {
    pub(crate) plan: &'a FaultPlan,
    pub(crate) round: usize,
    /// The receiving graph vertex.
    pub(crate) receiver: u32,
    /// The graph vertex stored in each network slot.
    pub(crate) vertex_at: &'a [u32],
}

impl DeliveryFilter<'_> {
    /// Whether the broadcast of the vertex in slot `sender` reaches the
    /// receiver.
    pub(crate) fn delivers_from(&self, sender: u32) -> bool {
        let from = self.vertex_at[sender as usize];
        self.plan.delivers(self.round, from, self.receiver)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_by_default() {
        let plan = FaultPlan::seeded(7);
        for round in 1..10 {
            assert!(!plan.active_at(round));
            assert!(plan.delivers(round, 0, 1));
            assert!(plan.delivers(round, 1, 0));
        }
    }

    #[test]
    fn decisions_are_pure_and_query_order_independent() {
        let plan = FaultPlan::seeded(0xfa01)
            .drop_messages(0.5)
            .link_outages(0.1);
        let forward: Vec<bool> = (1..50).map(|t| plan.delivers(t, 3, 9)).collect();
        let backward: Vec<bool> = (1..50).rev().map(|t| plan.delivers(t, 3, 9)).collect();
        let mut backward = backward;
        backward.reverse();
        assert_eq!(forward, backward);
        // An identically-built plan answers identically.
        let twin = FaultPlan::seeded(0xfa01)
            .drop_messages(0.5)
            .link_outages(0.1);
        let again: Vec<bool> = (1..50).map(|t| twin.delivers(t, 3, 9)).collect();
        assert_eq!(forward, again);
    }

    #[test]
    fn drop_rate_is_roughly_honoured() {
        let plan = FaultPlan::seeded(42).drop_messages(0.3);
        let mut dropped = 0usize;
        let total = 10_000;
        for i in 0..total {
            if !plan.delivers(1 + (i / 100), (i % 100) as u32, ((i + 1) % 100) as u32) {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / total as f64;
        assert!((rate - 0.3).abs() < 0.03, "observed drop rate {rate}");
    }

    #[test]
    fn drops_are_directional_outages_are_symmetric() {
        let drops = FaultPlan::seeded(11).drop_messages(0.5);
        let mut asymmetric = false;
        for t in 1..200 {
            if drops.delivers(t, 2, 5) != drops.delivers(t, 5, 2) {
                asymmetric = true;
                break;
            }
        }
        assert!(asymmetric, "directional drops should disagree somewhere");

        let outages = FaultPlan::seeded(11).link_outages(0.5);
        for t in 1..200 {
            assert_eq!(
                outages.delivers(t, 2, 5),
                outages.delivers(t, 5, 2),
                "outages must be symmetric (round {t})"
            );
        }
    }

    #[test]
    fn crash_windows_are_half_open_and_silence_both_directions() {
        let plan = FaultPlan::seeded(0).crash(4, 3, 6);
        assert!(!plan.is_crashed(2, 4));
        assert!(plan.is_crashed(3, 4));
        assert!(plan.is_crashed(5, 4));
        assert!(!plan.is_crashed(6, 4));
        assert!(!plan.is_crashed(3, 5), "only the named vertex crashes");
        assert!(plan.delivers(2, 4, 0) && plan.delivers(2, 0, 4));
        assert!(!plan.delivers(3, 4, 0), "a crashed sender delivers nothing");
        assert!(
            !plan.delivers(3, 0, 4),
            "a crashed receiver receives nothing"
        );
        assert!(plan.delivers(6, 4, 0) && plan.delivers(6, 0, 4));
        assert_eq!(plan.crashes().len(), 1);
    }

    #[test]
    fn active_at_gates_rounds() {
        let plan = FaultPlan::seeded(1)
            .drop_messages(0.2)
            .during(4, 7)
            .crash(0, 9, 10);
        assert!(!plan.active_at(0));
        assert!(!plan.active_at(3));
        assert!(plan.active_at(4) && plan.active_at(6));
        assert!(!plan.active_at(7));
        assert!(plan.active_at(9), "crash windows activate their rounds");
        assert!(!plan.active_at(10));
    }

    #[test]
    fn during_limits_stochastic_faults_only() {
        let plan = FaultPlan::seeded(3).drop_messages(1.0).during(2, 3);
        assert!(plan.delivers(1, 0, 1));
        assert!(!plan.delivers(2, 0, 1));
        assert!(plan.delivers(3, 0, 1));
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn invalid_probability_is_rejected() {
        let _ = FaultPlan::seeded(0).drop_messages(1.5);
    }

    #[test]
    #[should_panic(expected = "empty crash window")]
    fn empty_crash_window_is_rejected() {
        let _ = FaultPlan::seeded(0).crash(1, 5, 5);
    }
}
