//! The superstep engine: the one loop that drives every round-synchronous
//! protocol in the workspace.
//!
//! All of the paper's CONGEST_BC algorithms — and the follow-up protocols the
//! ROADMAP targets — share the same shape: initialise every vertex, then
//! repeat "deliver, transition, observe" until a round budget is exhausted or
//! the network goes quiet. This module packages that shape once:
//!
//! * [`Engine::run`] is the single entry point. Consumers configure a
//!   [`Network`], pick a [`RunPolicy`], optionally attach [`RoundObserver`]s,
//!   and get back a [`RunOutcome`] saying how many rounds ran and why the
//!   execution stopped.
//! * [`ExecutionStrategy`] (re-exported from `bedom-par`) decides whether
//!   rounds are evaluated sequentially or across threads. It is a value
//!   threaded into one shared code path, not a second implementation —
//!   sequential and parallel runs are bit-identical by construction.
//! * [`RoundObserver`]s are the hook API for traces, convergence detection
//!   and experiment instrumentation: after every round each observer sees the
//!   [`RoundStats`] of that round and may request early termination. Built-in
//!   observers: [`RoundLog`] (collect per-round statistics) and [`EarlyStop`]
//!   (predicate-based termination).
//!
//! ## Observer lifecycle
//!
//! Observers are attached per `run` call and borrowed mutably for its
//! duration, so they can accumulate state the caller inspects afterwards.
//! For every executed communication round the engine calls
//! `on_round(round, &stats)` on each observer *in attachment order*, after
//! the round's messages have been delivered and every vertex has transitioned.
//! `round` is the global 1-based round index of the underlying network (it
//! keeps counting across multiple `run` calls on the same network). If any
//! observer returns [`RoundControl::Stop`], remaining rounds are skipped and
//! the outcome reports [`StopReason::Observer`].
//!
//! ## Delivery buffers
//!
//! The engine's per-round cost model is documented on [`Network`]: every
//! outbox is silent or one broadcast, each inbox reads its receiver's
//! id-sorted neighbour list straight off the senders' outboxes (payloads
//! delivered by reference, outboxes double-buffered), so a round performs no
//! engine-side heap allocation.

use crate::model::ModelViolation;
use crate::network::{Network, NetworkSnapshot};
use crate::node::NodeAlgorithm;
use crate::trace::RoundStats;

pub use bedom_par::ExecutionStrategy;

/// When an execution stops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunPolicy {
    /// Hard budget on the number of communication rounds this `run` executes.
    pub max_rounds: usize,
    /// Stop (before stepping) once no vertex has anything to send. The quiet
    /// round's pending silence is not an executed round.
    pub stop_when_quiet: bool,
}

impl RunPolicy {
    /// Execute exactly `rounds` communication rounds.
    pub fn fixed(rounds: usize) -> Self {
        RunPolicy {
            max_rounds: rounds,
            stop_when_quiet: false,
        }
    }

    /// Execute until the network goes quiet, but at most `max_rounds` rounds.
    pub fn until_quiet(max_rounds: usize) -> Self {
        RunPolicy {
            max_rounds,
            stop_when_quiet: true,
        }
    }
}

/// An observer's verdict after a round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoundControl {
    /// Keep going.
    Continue,
    /// Terminate the execution after this round.
    Stop,
}

/// Hook invoked after every executed communication round.
///
/// Implementations can record traces, detect convergence, or abort long runs;
/// see the module docs for the exact lifecycle.
pub trait RoundObserver {
    /// Called once per executed round with that round's statistics. `round`
    /// is the network's global 1-based round index.
    fn on_round(&mut self, round: usize, stats: &RoundStats) -> RoundControl;

    /// Called exactly once when the `run` call finishes (round budget
    /// exhausted, network quiet, or an observer stopped it) — including runs
    /// that execute **zero** rounds, e.g. [`RunPolicy::until_quiet`] on an
    /// already-quiet network. Not called when the run aborts with a
    /// [`ModelViolation`]. Default: no-op.
    fn on_finish(&mut self, _outcome: &RunOutcome) {}
}

/// Observer with access to the network itself — the hook API for checkpoints
/// and any instrumentation that needs node state rather than statistics.
/// Lifecycle mirrors [`RoundObserver`] (state observers fire after the plain
/// round observers of the same round).
pub trait StateObserver<A: NodeAlgorithm> {
    /// Called once per executed round with the post-round network state.
    fn on_round(
        &mut self,
        round: usize,
        network: &Network<'_, A>,
        stats: &RoundStats,
    ) -> RoundControl;

    /// Called exactly once when the `run` call finishes (also for zero-round
    /// runs; not called on a [`ModelViolation`] abort). Default: no-op.
    fn on_finish(&mut self, _network: &Network<'_, A>, _outcome: &RunOutcome) {}
}

/// Built-in observer: records every round's [`RoundStats`].
#[derive(Debug, Default)]
pub struct RoundLog {
    /// The observed rounds, in execution order.
    pub per_round: Vec<RoundStats>,
}

impl RoundLog {
    /// An empty log.
    pub fn new() -> Self {
        RoundLog::default()
    }
}

impl RoundObserver for RoundLog {
    fn on_round(&mut self, _round: usize, stats: &RoundStats) -> RoundControl {
        self.per_round.push(*stats);
        RoundControl::Continue
    }
}

/// Built-in observer: stops the run as soon as `predicate(round, stats)`
/// returns true — the "early-termination predicate" form of convergence
/// detection.
pub struct EarlyStop<F: FnMut(usize, &RoundStats) -> bool> {
    predicate: F,
    /// The round at which the predicate fired, if it did.
    pub fired_at: Option<usize>,
}

impl<F: FnMut(usize, &RoundStats) -> bool> std::fmt::Debug for EarlyStop<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EarlyStop")
            .field("fired_at", &self.fired_at)
            .finish_non_exhaustive()
    }
}

impl<F: FnMut(usize, &RoundStats) -> bool> EarlyStop<F> {
    /// Stops when `predicate` holds.
    pub fn when(predicate: F) -> Self {
        EarlyStop {
            predicate,
            fired_at: None,
        }
    }
}

impl<F: FnMut(usize, &RoundStats) -> bool> RoundObserver for EarlyStop<F> {
    fn on_round(&mut self, round: usize, stats: &RoundStats) -> RoundControl {
        if (self.predicate)(round, stats) {
            self.fired_at = Some(round);
            RoundControl::Stop
        } else {
            RoundControl::Continue
        }
    }
}

/// Why an execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The policy's round budget was exhausted.
    RoundLimit,
    /// The network went quiet under [`RunPolicy::until_quiet`].
    Quiet,
    /// An observer returned [`RoundControl::Stop`].
    Observer,
}

/// Result of one [`Engine::run`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Communication rounds executed by this call.
    pub rounds: usize,
    /// Why the execution stopped.
    pub reason: StopReason,
}

/// Built-in [`StateObserver`]: captures a [`NetworkSnapshot`] every `k`
/// rounds (at global rounds `k, 2k, 3k, …`). Restoring the latest snapshot
/// into an identically-constructed network and re-running the remaining
/// rounds reproduces the uninterrupted run bit for bit — the checkpoint /
/// restore mechanism for long executions.
pub struct SnapshotObserver<A: NodeAlgorithm> {
    every: usize,
    snapshots: Vec<NetworkSnapshot<A>>,
}

impl<A: NodeAlgorithm> std::fmt::Debug for SnapshotObserver<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotObserver")
            .field("every", &self.every)
            .field("snapshots", &self.snapshots.len())
            .finish()
    }
}

impl<A: NodeAlgorithm> SnapshotObserver<A> {
    /// Captures a snapshot every `k` global rounds.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn every(k: usize) -> Self {
        assert!(k > 0, "snapshot interval must be at least 1 round");
        SnapshotObserver {
            every: k,
            snapshots: Vec::new(),
        }
    }

    /// All captured snapshots, in round order.
    pub fn snapshots(&self) -> &[NetworkSnapshot<A>] {
        &self.snapshots
    }

    /// The most recent snapshot, if any was taken.
    pub fn latest(&self) -> Option<&NetworkSnapshot<A>> {
        self.snapshots.last()
    }

    /// Consumes the observer, returning the most recent snapshot.
    pub fn into_latest(mut self) -> Option<NetworkSnapshot<A>> {
        self.snapshots.pop()
    }

    /// Consumes the observer, returning every captured snapshot in round
    /// order.
    pub fn into_snapshots(self) -> Vec<NetworkSnapshot<A>> {
        self.snapshots
    }
}

impl<A> StateObserver<A> for SnapshotObserver<A>
where
    A: NodeAlgorithm + Clone,
    A::Message: Clone,
{
    fn on_round(
        &mut self,
        round: usize,
        network: &Network<'_, A>,
        _stats: &RoundStats,
    ) -> RoundControl {
        if round.is_multiple_of(self.every) {
            self.snapshots.push(network.snapshot());
        }
        RoundControl::Continue
    }
}

/// Checkpoint-and-retry parameters for [`run_with_recovery`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Snapshot the network every `checkpoint_every` global rounds (via
    /// [`SnapshotObserver::every`]).
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
    /// The final (successful) attempt's outcome.
    pub outcome: RunOutcome,
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

/// Runs `network` to completion under a checkpoint-and-retry supervisor:
/// the self-healing counterpart of [`Engine::run`].
///
/// The supervisor snapshots every [`RecoveryPolicy::checkpoint_every`] rounds
/// (plus a genesis snapshot right after initialisation). When the run aborts
/// with a [`ModelViolation`] — from the executor's model enforcement or from
/// the caller's protocol-level `check`, which runs once after every
/// successful attempt — it restores the most recent checkpoint, **clears the
/// installed fault plan** (crash-restore semantics: the fault condition is
/// assumed repaired for the replay), and re-runs the remaining window.
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
/// `policy.max_rounds` counts the rounds the protocol still needs from here
/// (replays do not consume extra budget: after a restore the supervisor
/// re-runs exactly what is missing to reach the same target round).
pub fn run_with_recovery<A, F>(
    network: &mut Network<'_, A>,
    policy: RunPolicy,
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
    let initial_rounds = network.stats().rounds;
    let target_rounds = initial_rounds + policy.max_rounds;
    let mut checkpoints = vec![network.snapshot()];
    let mut violations: Vec<ModelViolation> = Vec::new();
    let mut restored_rounds: Vec<usize> = Vec::new();
    let mut replayed_rounds = 0usize;
    // Rounds at or past this bound are tainted by the last failed replay.
    let mut rollback_bound = usize::MAX;
    let mut retries = 0usize;

    loop {
        let attempt_policy = RunPolicy {
            max_rounds: target_rounds - network.stats().rounds,
            stop_when_quiet: policy.stop_when_quiet,
        };
        let mut observer = SnapshotObserver::every(recovery.checkpoint_every);
        let result = Engine::new(network)
            .observe_state(&mut observer)
            .run(attempt_policy)
            .and_then(|outcome| check(network).map(|()| outcome));
        // Bank the attempt's checkpoints either way: on failure the restore
        // point may well be one of them.
        checkpoints.extend(observer.into_snapshots());
        match result {
            Ok(outcome) => {
                return Ok(RecoveryReport {
                    violations,
                    retries,
                    restored_rounds,
                    replayed_rounds,
                    outcome,
                });
            }
            Err(violation) => {
                if retries >= recovery.max_retries {
                    return Err(RecoveryExhausted {
                        attempts: retries + 1,
                        earlier: violations,
                        last: violation,
                    });
                }
                violations.push(violation);
                retries += 1;
                // Strictly-backward walk: drop every checkpoint taken at or
                // after the previous restore point (they descend from a
                // state that already failed to recover). Genesis survives.
                while checkpoints.len() > 1
                    && checkpoints
                        .last()
                        .is_some_and(|s| s.rounds() >= rollback_bound)
                {
                    checkpoints.pop();
                }
                let snapshot = checkpoints.last().expect("genesis checkpoint remains");
                rollback_bound = snapshot.rounds();
                restored_rounds.push(snapshot.rounds());
                replayed_rounds += network.stats().rounds - snapshot.rounds();
                network.restore(snapshot);
                // Crash-restore semantics: replay with the fault repaired.
                network.clear_fault_plan();
            }
        }
    }
}

/// The superstep driver: borrows a configured [`Network`] plus any observers
/// and executes rounds under a [`RunPolicy`].
pub struct Engine<'e, 'g, A: NodeAlgorithm> {
    network: &'e mut Network<'g, A>,
    observers: Vec<&'e mut dyn RoundObserver>,
    state_observers: Vec<&'e mut dyn StateObserver<A>>,
}

impl<A: NodeAlgorithm> std::fmt::Debug for Engine<'_, '_, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("network", &self.network)
            .field("observers", &self.observers.len())
            .field("state_observers", &self.state_observers.len())
            .finish()
    }
}

impl<'e, 'g, A: NodeAlgorithm> Engine<'e, 'g, A> {
    /// An engine over `network` with no observers.
    pub fn new(network: &'e mut Network<'g, A>) -> Self {
        Engine {
            network,
            observers: Vec::new(),
            state_observers: Vec::new(),
        }
    }

    /// Attaches an observer (builder style; observers fire in attachment
    /// order).
    pub fn observe(mut self, observer: &'e mut dyn RoundObserver) -> Self {
        self.observers.push(observer);
        self
    }

    /// Attaches a [`StateObserver`] (fires after the plain observers of each
    /// round, in attachment order).
    pub fn observe_state(mut self, observer: &'e mut dyn StateObserver<A>) -> Self {
        self.state_observers.push(observer);
        self
    }

    /// Runs the execution: an implicit [`Network::init`] (round 0) if the
    /// network is fresh, then communication rounds per `policy`. On success
    /// every attached observer's `on_finish` hook fires exactly once — also
    /// for zero-round runs (e.g. [`RunPolicy::until_quiet`] on an already
    /// quiet network).
    ///
    /// Multiple `run` calls on the same network compose: the round counter
    /// and statistics continue where the previous call stopped.
    pub fn run(mut self, policy: RunPolicy) -> Result<RunOutcome, ModelViolation> {
        let outcome = self.run_rounds(policy)?;
        for observer in self.observers.iter_mut() {
            observer.on_finish(&outcome);
        }
        for observer in self.state_observers.iter_mut() {
            observer.on_finish(self.network, &outcome);
        }
        Ok(outcome)
    }

    fn run_rounds(&mut self, policy: RunPolicy) -> Result<RunOutcome, ModelViolation> {
        self.network.init()?;
        let mut executed = 0;
        loop {
            if executed >= policy.max_rounds {
                return Ok(RunOutcome {
                    rounds: executed,
                    reason: StopReason::RoundLimit,
                });
            }
            if policy.stop_when_quiet && self.network.is_quiet() {
                return Ok(RunOutcome {
                    rounds: executed,
                    reason: StopReason::Quiet,
                });
            }
            let stats = self.network.step()?;
            executed += 1;
            let mut stop = false;
            for observer in self.observers.iter_mut() {
                stop |= observer.on_round(stats.round, &stats) == RoundControl::Stop;
            }
            for observer in self.state_observers.iter_mut() {
                stop |= observer.on_round(stats.round, self.network, &stats) == RoundControl::Stop;
            }
            if stop {
                return Ok(RunOutcome {
                    rounds: executed,
                    reason: StopReason::Observer,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::IdAssignment;
    use crate::model::Model;
    use crate::node::{Inbox, NodeContext, Outgoing};
    use bedom_graph::generators::{path, star};

    /// Broadcasts forever — only an observer or the budget can stop it.
    struct Chatterbox;

    impl NodeAlgorithm for Chatterbox {
        type Message = u64;
        type Output = ();

        fn init(&mut self, ctx: &NodeContext) -> Outgoing<u64> {
            Outgoing::Broadcast(ctx.id)
        }

        fn round(&mut self, ctx: &NodeContext, _: usize, _: Inbox<'_, u64>) -> Outgoing<u64> {
            Outgoing::Broadcast(ctx.id)
        }

        fn output(&self, _: &NodeContext) {}
    }

    fn chatter_net(g: &bedom_graph::Graph) -> Network<'_, Chatterbox> {
        Network::new(
            g,
            Model::congest_bc_scaled(64),
            IdAssignment::Natural,
            |_, _| Chatterbox,
        )
    }

    #[test]
    fn fixed_policy_exhausts_the_budget() {
        let g = path(6);
        let mut net = chatter_net(&g);
        let outcome = Engine::new(&mut net).run(RunPolicy::fixed(7)).unwrap();
        assert_eq!(outcome.rounds, 7);
        assert_eq!(outcome.reason, StopReason::RoundLimit);
        assert_eq!(net.stats().rounds, 7);
    }

    #[test]
    fn round_log_observer_sees_every_round() {
        let g = star(5);
        let mut net = chatter_net(&g);
        let mut log = RoundLog::new();
        Engine::new(&mut net)
            .observe(&mut log)
            .run(RunPolicy::fixed(4))
            .unwrap();
        assert_eq!(log.per_round.len(), 4);
        assert_eq!(
            log.per_round.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // Every round all 5 vertices broadcast.
        assert!(log.per_round.iter().all(|r| r.senders == 5));
    }

    #[test]
    fn early_stop_observer_terminates_the_run() {
        let g = path(12);
        let mut net = chatter_net(&g);
        let mut stop = EarlyStop::when(|round, _stats| round >= 3);
        let outcome = Engine::new(&mut net)
            .observe(&mut stop)
            .run(RunPolicy::fixed(100))
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Observer);
        assert_eq!(outcome.rounds, 3);
        assert_eq!(stop.fired_at, Some(3));
        assert_eq!(net.stats().rounds, 3);
    }

    #[test]
    fn multiple_runs_compose_and_keep_global_round_numbers() {
        let g = path(8);
        let mut net = chatter_net(&g);
        Engine::new(&mut net).run(RunPolicy::fixed(2)).unwrap();
        let mut log = RoundLog::new();
        Engine::new(&mut net)
            .observe(&mut log)
            .run(RunPolicy::fixed(3))
            .unwrap();
        assert_eq!(net.stats().rounds, 5);
        assert_eq!(
            log.per_round.iter().map(|r| r.round).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
    }

    #[test]
    fn observers_fire_in_attachment_order() {
        use std::cell::RefCell;
        struct Tagger<'a> {
            tag: u8,
            sink: &'a RefCell<Vec<u8>>,
        }
        impl RoundObserver for Tagger<'_> {
            fn on_round(&mut self, _: usize, _: &RoundStats) -> RoundControl {
                self.sink.borrow_mut().push(self.tag);
                RoundControl::Continue
            }
        }
        let order = RefCell::new(Vec::new());
        let g = path(4);
        let mut net = chatter_net(&g);
        let mut a = Tagger {
            tag: 1,
            sink: &order,
        };
        let mut b = Tagger {
            tag: 2,
            sink: &order,
        };
        Engine::new(&mut net)
            .observe(&mut a)
            .observe(&mut b)
            .run(RunPolicy::fixed(2))
            .unwrap();
        assert_eq!(*order.borrow(), vec![1, 2, 1, 2]);
    }

    #[test]
    fn until_quiet_on_an_immediately_quiet_network() {
        struct Mute;
        impl NodeAlgorithm for Mute {
            type Message = ();
            type Output = ();
            fn init(&mut self, _: &NodeContext) -> Outgoing<()> {
                Outgoing::Silent
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, ()>) -> Outgoing<()> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) {}
        }
        let g = path(5);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| Mute);
        let outcome = Engine::new(&mut net)
            .run(RunPolicy::until_quiet(50))
            .unwrap();
        assert_eq!(outcome.rounds, 0);
        assert_eq!(outcome.reason, StopReason::Quiet);
    }

    /// Observer counting its lifecycle calls, for the finalisation contract.
    #[derive(Default)]
    struct LifecycleProbe {
        rounds_seen: usize,
        finishes: usize,
        last_outcome: Option<RunOutcome>,
    }

    impl RoundObserver for LifecycleProbe {
        fn on_round(&mut self, _: usize, _: &RoundStats) -> RoundControl {
            self.rounds_seen += 1;
            RoundControl::Continue
        }

        fn on_finish(&mut self, outcome: &RunOutcome) {
            self.finishes += 1;
            self.last_outcome = Some(*outcome);
        }
    }

    #[test]
    fn until_quiet_on_quiet_network_reports_zero_rounds_and_finalizes_once() {
        struct Mute;
        impl NodeAlgorithm for Mute {
            type Message = ();
            type Output = ();
            fn init(&mut self, _: &NodeContext) -> Outgoing<()> {
                Outgoing::Silent
            }
            fn round(&mut self, _: &NodeContext, _: usize, _: Inbox<'_, ()>) -> Outgoing<()> {
                Outgoing::Silent
            }
            fn output(&self, _: &NodeContext) {}
        }
        let g = path(4);
        let mut net = Network::new(&g, Model::congest_bc(), IdAssignment::Natural, |_, _| Mute);
        let mut probe = LifecycleProbe::default();
        let outcome = Engine::new(&mut net)
            .observe(&mut probe)
            .run(RunPolicy::until_quiet(50))
            .unwrap();
        assert_eq!(outcome.rounds, 0, "already-quiet run must execute nothing");
        assert_eq!(outcome.reason, StopReason::Quiet);
        assert_eq!(probe.rounds_seen, 0);
        assert_eq!(probe.finishes, 1, "finalisation must fire exactly once");
        assert_eq!(probe.last_outcome, Some(outcome));
    }

    #[test]
    fn finalization_fires_once_per_run_for_every_stop_reason() {
        // Round limit.
        let g = path(5);
        let mut net = chatter_net(&g);
        let mut probe = LifecycleProbe::default();
        Engine::new(&mut net)
            .observe(&mut probe)
            .run(RunPolicy::fixed(3))
            .unwrap();
        assert_eq!((probe.rounds_seen, probe.finishes), (3, 1));

        // Observer stop: every observer still gets exactly one finish call.
        let mut net = chatter_net(&g);
        let mut probe = LifecycleProbe::default();
        let mut stop = EarlyStop::when(|round, _| round >= 2);
        let outcome = Engine::new(&mut net)
            .observe(&mut probe)
            .observe(&mut stop)
            .run(RunPolicy::fixed(100))
            .unwrap();
        assert_eq!(outcome.reason, StopReason::Observer);
        assert_eq!(probe.finishes, 1);
        assert_eq!(probe.last_outcome, Some(outcome));
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

    fn accumulator_net(g: &bedom_graph::Graph) -> Network<'_, Accumulator> {
        Network::new(g, Model::Local, IdAssignment::Shuffled(11), |_, _| {
            Accumulator { total: 0 }
        })
    }

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

    #[test]
    fn recovery_on_a_clean_run_is_a_plain_run() {
        let g = star(7);
        let rounds = 9;
        let mut reference = counting_net(&g);
        Engine::new(&mut reference)
            .run(RunPolicy::fixed(rounds))
            .unwrap();

        let mut net = counting_net(&g);
        let report = run_with_recovery(
            &mut net,
            RunPolicy::fixed(rounds),
            RecoveryPolicy::new(3, 2),
            full_delivery_check(&g),
        )
        .unwrap();
        assert_eq!(report.retries, 0);
        assert!(report.violations.is_empty());
        assert_eq!(report.outcome.rounds, rounds);
        assert_eq!(net.outputs(), reference.outputs());
    }

    #[test]
    fn recovery_walks_checkpoints_back_to_a_clean_one_and_matches_fault_free() {
        use crate::fault::FaultPlan;
        let g = star(9);
        let rounds = 12;

        let mut reference = counting_net(&g);
        Engine::new(&mut reference)
            .run(RunPolicy::fixed(rounds))
            .unwrap();

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
            RunPolicy::fixed(rounds),
            RecoveryPolicy::new(4, 8),
            full_delivery_check(&g),
        )
        .unwrap();
        assert_eq!(report.restored_rounds, vec![12, 8, 4]);
        assert_eq!(report.retries, 3);
        assert_eq!(report.violations.len(), 3);
        // (12−12) + (12−8) + (12−4) rounds re-executed across the restores.
        assert_eq!(report.replayed_rounds, 12);
        assert_eq!(net.outputs(), reference.outputs(), "recovered ≠ fault-free");
        assert_eq!(net.stats().rounds, rounds);
        assert!(net.fault_plan().is_none(), "recovery clears the fault plan");
    }

    #[test]
    fn recovery_budget_exhaustion_reports_every_violation() {
        use crate::fault::FaultPlan;
        let g = star(5);
        let mut net = counting_net(&g);
        net.set_fault_plan(FaultPlan::seeded(2).drop_messages(1.0));
        let err = run_with_recovery(
            &mut net,
            RunPolicy::fixed(6),
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

    #[test]
    fn resumed_run_from_snapshot_is_bit_identical() {
        let g = star(9);
        let total_rounds = 10;

        // Uninterrupted reference run.
        let mut reference = accumulator_net(&g);
        let mut reference_log = RoundLog::new();
        Engine::new(&mut reference)
            .observe(&mut reference_log)
            .run(RunPolicy::fixed(total_rounds))
            .unwrap();

        // Checkpointed run: snapshot every 3 rounds, stop after 7 (so the
        // latest snapshot sits at round 6), then resume in a *fresh* network.
        let mut first = accumulator_net(&g);
        let mut snapshots = SnapshotObserver::every(3);
        Engine::new(&mut first)
            .observe_state(&mut snapshots)
            .run(RunPolicy::fixed(7))
            .unwrap();
        assert_eq!(
            snapshots
                .snapshots()
                .iter()
                .map(NetworkSnapshot::rounds)
                .collect::<Vec<_>>(),
            vec![3, 6]
        );
        let snapshot = snapshots.into_latest().unwrap();
        assert_eq!(snapshot.num_vertices(), 9);

        let mut resumed = accumulator_net(&g);
        resumed.restore(&snapshot);
        assert_eq!(resumed.stats().rounds, 6);
        let mut resumed_log = RoundLog::new();
        Engine::new(&mut resumed)
            .observe(&mut resumed_log)
            .run(RunPolicy::fixed(total_rounds - 6))
            .unwrap();

        // Outputs, full statistics and the observer stream of the resumed
        // tail must match the uninterrupted run exactly.
        assert_eq!(resumed.outputs(), reference.outputs());
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(resumed_log.per_round, reference_log.per_round[6..]);
    }
}
