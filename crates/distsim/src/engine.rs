//! The recovery supervisor: checkpoint-and-retry around a fixed-length run.
//!
//! Every protocol in the workspace runs the number of rounds its theorem
//! fixes through [`Network::run`]. [`run_with_recovery`] is the self-healing
//! form of that call: it steps the network itself, snapshots it at every
//! [`RecoveryPolicy::checkpoint_every`]-th global round, checks the
//! protocol's invariants after each attempt, and on a [`ModelViolation`]
//! restores a checkpoint and replays with the fault plan cleared. The
//! checkpoints live in memory, in the network's storage order, and never
//! leave the supervisor.

use crate::model::ModelViolation;
use crate::network::{Network, NetworkSnapshot};
use crate::node::NodeAlgorithm;

/// Checkpoint-and-retry parameters for [`run_with_recovery`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Snapshot the network at every global round divisible by
    /// `checkpoint_every`.
    pub checkpoint_every: usize,
    /// How many restore-and-replay attempts to spend before giving up.
    pub max_retries: usize,
}

impl RecoveryPolicy {
    /// A policy checkpointing every `checkpoint_every` rounds with
    /// `max_retries` replay attempts.
    ///
    /// # Panics
    /// Panics if `checkpoint_every == 0`.
    pub fn new(checkpoint_every: usize, max_retries: usize) -> Self {
        assert!(
            checkpoint_every > 0,
            "checkpoint interval must be at least 1 round"
        );
        RecoveryPolicy {
            checkpoint_every,
            max_retries,
        }
    }
}

/// What [`run_with_recovery`] did to finish the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The violations detected and recovered from, in detection order.
    pub violations: Vec<ModelViolation>,
    /// Retry attempts consumed (0 on a clean run).
    pub retries: usize,
    /// The global round each retry restored to, in retry order. Strictly
    /// decreasing: a checkpoint that failed to recover is never retried.
    pub restored_rounds: Vec<usize>,
    /// Communication rounds discarded by restores and re-executed.
    pub replayed_rounds: usize,
}

/// [`run_with_recovery`] spent its whole retry budget without producing a
/// run that passes the protocol check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryExhausted {
    /// Attempts made (initial run plus retries).
    pub attempts: usize,
    /// The violations that failed every attempt before the last, in
    /// detection order.
    pub earlier: Vec<ModelViolation>,
    /// The violation that failed the last attempt.
    pub last: ModelViolation,
}

impl std::fmt::Display for RecoveryExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "recovery budget exhausted after {} attempt(s); violations in order:",
            self.attempts
        )?;
        for (i, violation) in self.earlier.iter().chain([&self.last]).enumerate() {
            writeln!(f, "  {}: {violation}", i + 1)?;
        }
        Ok(())
    }
}

impl std::error::Error for RecoveryExhausted {}

/// Runs `network` for `rounds` communication rounds under a
/// checkpoint-and-retry supervisor: the self-healing counterpart of
/// [`Network::run`].
///
/// The supervisor takes a genesis snapshot right after initialisation and a
/// checkpoint at every global round divisible by
/// [`RecoveryPolicy::checkpoint_every`]. When the run aborts with a
/// [`ModelViolation`] — from the executor's model enforcement or from the
/// caller's protocol-level `check`, which runs once after every attempt that
/// reaches the target round — it restores the most recent checkpoint,
/// **clears the installed fault plan** (crash-restore semantics: the fault
/// condition is assumed repaired for the replay), and re-runs the remaining
/// window.
///
/// Checkpoints are consumed strictly backwards: a checkpoint whose replay
/// failed again is discarded along with everything taken after it, so a
/// snapshot corrupted by an earlier fault cannot be retried forever — the
/// walk-back bottoms out at the genesis snapshot, whose replay is the
/// fault-free run. Combined with deterministic replay this yields the
/// recovery guarantee: **a recovered run's outputs are bit-identical to the
/// fault-free run's** (asserted by `tests/determinism.rs` and certified
/// against the conformance oracle).
///
/// `rounds` counts the rounds the protocol still needs from here: replays
/// do not consume extra budget, because after a restore the supervisor
/// re-runs exactly what is missing to reach the same target round.
pub fn run_with_recovery<A, F>(
    network: &mut Network<'_, A>,
    rounds: usize,
    recovery: RecoveryPolicy,
    check: F,
) -> Result<RecoveryReport, RecoveryExhausted>
where
    A: NodeAlgorithm + Clone,
    A::Message: Clone,
    F: Fn(&Network<'_, A>) -> Result<(), ModelViolation>,
{
    if let Err(violation) = network.init() {
        return Err(RecoveryExhausted {
            attempts: 1,
            earlier: Vec::new(),
            last: violation,
        });
    }
    let target_rounds = network.stats().rounds + rounds;
    let genesis = network.snapshot();
    // The checkpoints taken after genesis, in round order.
    let mut checkpoints: Vec<NetworkSnapshot<A>> = Vec::new();
    let mut violations: Vec<ModelViolation> = Vec::new();
    let mut restored_rounds: Vec<usize> = Vec::new();
    let mut replayed_rounds = 0usize;
    // Rounds at or past this bound are tainted by the last failed replay.
    let mut rollback_bound = usize::MAX;
    let mut retries = 0usize;

    loop {
        // Checkpoints are banked as they are taken: on failure the restore
        // point may well be one of this attempt's.
        let attempt = advance(
            network,
            target_rounds,
            recovery.checkpoint_every,
            &mut checkpoints,
        )
        .and_then(|()| check(network));
        let Err(violation) = attempt else {
            return Ok(RecoveryReport {
                violations,
                retries,
                restored_rounds,
                replayed_rounds,
            });
        };
        if retries >= recovery.max_retries {
            return Err(RecoveryExhausted {
                attempts: retries + 1,
                earlier: violations,
                last: violation,
            });
        }
        violations.push(violation);
        retries += 1;
        // Strictly-backward walk: drop every checkpoint taken at or after
        // the previous restore point (they descend from a state that
        // already failed to recover). Genesis is kept apart and never
        // dropped.
        while checkpoints
            .last()
            .is_some_and(|s| s.rounds() >= rollback_bound)
        {
            checkpoints.pop();
        }
        let snapshot = checkpoints.last().unwrap_or(&genesis);
        rollback_bound = snapshot.rounds();
        restored_rounds.push(snapshot.rounds());
        replayed_rounds += network.stats().rounds - snapshot.rounds();
        network.restore(snapshot);
        // Crash-restore semantics: replay with the fault repaired.
        network.clear_fault_plan();
    }
}

/// Steps `network` up to global round `target`, pushing a snapshot onto
/// `checkpoints` after every round divisible by `every`.
fn advance<A>(
    network: &mut Network<'_, A>,
    target: usize,
    every: usize,
    checkpoints: &mut Vec<NetworkSnapshot<A>>,
) -> Result<(), ModelViolation>
where
    A: NodeAlgorithm + Clone,
    A::Message: Clone,
{
    while network.stats().rounds < target {
        if network.step()?.round.is_multiple_of(every) {
            checkpoints.push(network.snapshot());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::ids::IdAssignment;
    use crate::model::Model;
    use crate::node::{Inbox, NodeContext, Outgoing};
    use bedom_graph::generators::star;

    /// Chatter with receipt counting: every vertex always broadcasts, so the
    /// protocol-level invariant "each round delivers exactly `degree`
    /// messages" is checkable after the run — the test harness for typed
    /// degradation and recovery.
    #[derive(Clone)]
    struct CountingChatter {
        total: u64,
        received: Vec<usize>,
    }

    impl NodeAlgorithm for CountingChatter {
        type Message = u64;
        type Output = u64;

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            self.total = ctx.id + 1;
            Outgoing::Broadcast(self.total)
        }

        fn round(&mut self, _: &NodeContext, _: usize, inbox: Inbox<'_, u64>) -> Outgoing<u64> {
            self.received.push(inbox.len());
            self.total += inbox.iter().map(|m| *m.payload).sum::<u64>();
            Outgoing::Broadcast(self.total)
        }

        fn output(&self, _: &NodeContext) -> u64 {
            self.total
        }
    }

    fn counting_net(g: &bedom_graph::Graph) -> Network<'_, CountingChatter> {
        Network::new(g, Model::Local, IdAssignment::Shuffled(5), |_, _| {
            CountingChatter {
                total: 0,
                received: Vec::new(),
            }
        })
    }

    fn full_delivery_check(
        g: &bedom_graph::Graph,
    ) -> impl Fn(&Network<'_, CountingChatter>) -> Result<(), crate::ModelViolation> + '_ {
        |net| {
            for v in g.vertices() {
                let expected = g.degree(v);
                for (i, &received) in net.node(v).received.iter().enumerate() {
                    if received != expected {
                        return Err(crate::ModelViolation::IncompleteKnowledge {
                            vertex: net.id_of(v),
                            round: i + 1,
                            expected,
                            received,
                        });
                    }
                }
            }
            Ok(())
        }
    }

    /// The fault-free run of `rounds` rounds that every recovery must match.
    fn fault_free_outputs(g: &bedom_graph::Graph, rounds: usize) -> Vec<u64> {
        let mut reference = counting_net(g);
        reference.run(rounds).unwrap();
        reference.outputs()
    }

    #[test]
    fn recovery_on_a_clean_run_is_a_plain_run() {
        let g = star(7);
        let rounds = 9;
        let mut net = counting_net(&g);
        let report = run_with_recovery(
            &mut net,
            rounds,
            RecoveryPolicy::new(3, 2),
            full_delivery_check(&g),
        )
        .unwrap();
        assert_eq!(report.retries, 0);
        assert!(report.violations.is_empty());
        assert_eq!(net.stats().rounds, rounds);
        assert_eq!(net.outputs(), fault_free_outputs(&g, rounds));
    }

    #[test]
    fn recovery_walks_checkpoints_back_to_a_clean_one_and_matches_fault_free() {
        let g = star(9);
        let rounds = 12;

        // Rounds 1–4 are clean, rounds 5+ drop everything: checkpoints at 4
        // are sound, the ones at 8 and 12 hold corrupted state. The
        // supervisor must discard the corrupt ones (each replay re-detects
        // the old gaps) and resume from round 4.
        let mut net = counting_net(&g);
        net.set_fault_plan(
            FaultPlan::seeded(1)
                .drop_messages(1.0)
                .during(5, rounds + 1),
        );
        let report = run_with_recovery(
            &mut net,
            rounds,
            RecoveryPolicy::new(4, 8),
            full_delivery_check(&g),
        )
        .unwrap();
        assert_eq!(report.restored_rounds, vec![12, 8, 4]);
        assert_eq!(report.retries, 3);
        assert_eq!(report.violations.len(), 3);
        // (12−12) + (12−8) + (12−4) rounds re-executed across the restores.
        assert_eq!(report.replayed_rounds, 12);
        assert_eq!(
            net.outputs(),
            fault_free_outputs(&g, rounds),
            "recovered ≠ fault-free"
        );
        assert_eq!(net.stats().rounds, rounds);
        assert!(net.fault_plan().is_none(), "recovery clears the fault plan");
    }

    #[test]
    fn recovery_walk_ends_at_the_genesis_snapshot() {
        let g = star(9);
        let rounds = 8;

        // Every round drops everything, so every checkpoint (4 and 8) holds
        // corrupted state and only the genesis snapshot replays cleanly.
        let mut net = counting_net(&g);
        net.set_fault_plan(FaultPlan::seeded(3).drop_messages(1.0));
        let report = run_with_recovery(
            &mut net,
            rounds,
            RecoveryPolicy::new(4, 8),
            full_delivery_check(&g),
        )
        .unwrap();
        assert_eq!(report.restored_rounds, vec![8, 4, 0]);
        assert_eq!(report.retries, 3);
        // (8−8) + (8−4) + (8−0) rounds re-executed across the restores.
        assert_eq!(report.replayed_rounds, 12);
        assert_eq!(
            net.outputs(),
            fault_free_outputs(&g, rounds),
            "recovered ≠ fault-free"
        );
        assert_eq!(net.stats().rounds, rounds);
        assert_eq!(net.stats().dropped_deliveries, 0, "the replay is clean");
    }

    #[test]
    fn recovery_budget_exhaustion_reports_every_violation() {
        let g = star(5);
        let mut net = counting_net(&g);
        net.set_fault_plan(FaultPlan::seeded(2).drop_messages(1.0));
        let err = run_with_recovery(
            &mut net,
            6,
            RecoveryPolicy::new(3, 1),
            full_delivery_check(&g),
        )
        .unwrap_err();
        assert_eq!(err.attempts, 2);
        assert_eq!(err.earlier.len(), 1);
        let text = err.to_string();
        assert!(text.contains("exhausted after 2 attempt(s)"), "{text}");
        assert!(text.contains("\n  2: "), "{text}");
        assert!(text.contains("required knowledge"), "{text}");
    }
}
