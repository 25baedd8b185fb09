//! # bedom-par
//!
//! A tiny deterministic fork-join layer used everywhere the bedom workspace
//! evaluates an embarrassingly parallel loop: the superstep engine of
//! `bedom-distsim`, the ball computations of `bedom-wcol` and the closed
//! neighbourhoods of `bedom-graph`.
//!
//! The crate exists so that there is exactly **one** execution path per loop:
//! callers write `strategy.map_collect(n, f)` (or one of the other
//! combinators) and the [`ExecutionStrategy`] value decides whether the body
//! runs on the current thread or on `std::thread::scope` workers. Results are
//! always released by index, so sequential and parallel execution are
//! bit-identical by construction — a property the determinism test suite
//! asserts end to end.
//!
//! Every combinator is an adapter over one scheduling core. On one thread
//! it is a plain loop. Otherwise `threads_for(n)` workers, each holding one
//! scratch, claim work items off one shared queue: contiguous index ranges
//! (`map_collect`, `chunk_collect_with`), single indices
//! (`queue_stream_with`) or pairs of `chunks_mut` slices (`zip_apply`).
//! Claims are dynamic, so where items outnumber workers (the shards of a
//! multi-graph scenario batch) one heavy item never holds up the ones
//! queued behind it. The calling thread releases results strictly in item
//! order, so the claim order never leaks into the output, and after the
//! joins it re-raises a worker's panic with its payload.
//!
//! [`ExecutionStrategy::Pooled`] is `Parallel` with a seeded schedule; the
//! determinism suite runs it to flush out any output that depends on which
//! worker finished first.

use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::{mpsc, Mutex};

#[cfg(debug_assertions)]
pub mod sanitizer;

/// How an embarrassingly parallel loop is executed.
///
/// All variants produce bit-identical results; `Parallel` merely spreads
/// the loop over OS threads — at least two, even on a single-core machine
/// (see [`ExecutionStrategy::threads_for`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExecutionStrategy {
    /// Run the loop body on the calling thread.
    Sequential,
    /// Spread the loop's work items over one worker per available core.
    Parallel,
    /// Decide per loop: parallel only when the loop is large enough
    /// (`n > 4096`) to amortise thread handoff, sequential otherwise. The
    /// right default for configs built before the instance size is known.
    Auto,
    /// `Parallel` with a seeded schedule: each worker yields a seed-derived
    /// number of times before it starts, and the scheduling core joins the
    /// workers in a seed-shuffled order (still *releasing* results by
    /// index). Output must be bit-identical to `Sequential` for any seed —
    /// a divergence means a combinator's result depends on scheduling,
    /// which is exactly the bug class the determinism suite runs this mode
    /// to flush out.
    Pooled(u64),
}

/// The environment variable [`ExecutionStrategy::perturbed_from_env`] reads.
const PERTURB_SEED_VAR: &str = "BEDOM_PERTURB_SEED";

impl ExecutionStrategy {
    /// [`ExecutionStrategy::Pooled`] seeded from the `BEDOM_PERTURB_SEED`
    /// environment variable, or `None` when it is unset. The determinism
    /// suite uses this to re-run its cross-strategy assertions under a
    /// seeded schedule without a dedicated binary.
    ///
    /// # Panics
    /// Panics, naming the variable and its value, when the variable is set
    /// to anything but a decimal `u64`: a seed that silently failed to
    /// parse would turn the perturbed run into an unperturbed one.
    pub fn perturbed_from_env() -> Option<ExecutionStrategy> {
        perturbed_from(std::env::var_os(PERTURB_SEED_VAR).as_deref())
    }

    /// The perturbation seed, if this strategy carries one.
    fn perturb_seed(self) -> Option<u64> {
        match self {
            ExecutionStrategy::Pooled(seed) => Some(seed),
            _ => None,
        }
    }

    /// Seed-derived busy-yield executed by worker `worker` before it claims
    /// its first item; a no-op for unperturbed strategies.
    fn stagger(self, worker: usize) {
        if let Some(seed) = self.perturb_seed() {
            let yields = splitmix64(seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)) % 8;
            for _ in 0..yields {
                std::thread::yield_now();
            }
        }
    }

    /// The strategy for loops running *inside* one unit of work of this
    /// strategy (e.g. the superstep engine inside one shard of a sharded
    /// batch run). Always [`ExecutionStrategy::Sequential`]: a parallel outer
    /// fan-out that also forked per shard would oversubscribe the machine
    /// with `threads²` workers, and pinning the nested level makes batch
    /// reports identical across outer strategies *by construction* rather
    /// than by the (asserted, but subtler) cross-strategy determinism of the
    /// nested loop itself.
    pub fn nested(self) -> ExecutionStrategy {
        ExecutionStrategy::Sequential
    }

    /// Number of worker threads this strategy will use for a loop of `n`
    /// elements (at most one per element). `Parallel` always uses at least
    /// two workers when `n ≥ 2`, even on a single-core machine: parallel
    /// means the fork-join path actually runs, so it is exercised (and its
    /// determinism asserted) everywhere instead of silently degrading to the
    /// sequential loop on small hosts. `Auto` only goes wide when both the
    /// loop and the machine make it worthwhile.
    pub fn threads_for(self, n: usize) -> usize {
        match self {
            ExecutionStrategy::Sequential => 1,
            ExecutionStrategy::Parallel | ExecutionStrategy::Pooled(_) => {
                available_threads().max(2).min(n.max(1))
            }
            ExecutionStrategy::Auto => {
                if n > 4096 {
                    available_threads().min(n)
                } else {
                    1
                }
            }
        }
    }

    /// `(0..n).map(f).collect()`, possibly evaluated in parallel chunks.
    ///
    /// `f` runs exactly once per index; results are placed by index, so the
    /// output is independent of the strategy.
    pub fn map_collect<T, F>(self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_collect_with(n, || (), |(), i| f(i))
    }

    /// `(0..n).map(f).collect()` with a **worker-local scratch**: every worker
    /// thread builds one scratch value via `init` and reuses it for all the
    /// indices it processes, so a loop of `n` BFS sweeps allocates `O(threads)`
    /// scratch buffers instead of `O(n)`. The sequential path builds exactly
    /// one scratch. Results are placed by index; as long as `f`'s result for
    /// an index does not depend on residual scratch state (the scratch must be
    /// reset by `f` itself, e.g. by bumping an epoch), the output is
    /// bit-identical across strategies.
    pub fn map_collect_with<S, T, I, F>(self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let mut out = Vec::new();
        self.schedule(
            n,
            self.chunks(n),
            init,
            |scratch, range| range.map(|i| f(scratch, i)).collect::<Vec<T>>(),
            // The first chunk becomes the output, so a one-chunk loop
            // returns its vector without a copy.
            |_, part| {
                if out.is_empty() {
                    out = part;
                } else {
                    out.extend(part);
                }
            },
        );
        out
    }

    /// Splits `0..n` into one contiguous chunk per worker thread and calls
    /// `f(&mut scratch, chunk_range)` once per chunk, each worker reusing a
    /// single scratch built by `init`. Returns the per-chunk results with
    /// ranges in ascending order; `Sequential` produces exactly one chunk
    /// `0..n`. This is the primitive behind flat (CSR) builders: each chunk
    /// appends per-index records to its own buffers and the caller
    /// concatenates, which is strategy-independent as long as the per-index
    /// records do not depend on the chunk boundaries.
    pub fn chunk_collect_with<S, T, I, F>(self, n: usize, init: I, f: F) -> Vec<T>
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, Range<usize>) -> T + Sync,
    {
        let mut parts = Vec::new();
        self.schedule(n, self.chunks(n), init, f, |_, part| parts.push(part));
        parts
    }

    /// Runs `f` for every index through the **work queue** one index at a
    /// time: each worker (one scratch each, built by `init`) claims the next
    /// unclaimed index, so imbalanced per-index costs spread across the pool
    /// instead of serialising behind a chunk boundary. Each result is handed
    /// to `consume(i, result)` on the **calling thread** and can be folded
    /// away immediately — the combinator behind every scenario batch, where
    /// a million-element batch must never hold a million results at once.
    ///
    /// `consume` is invoked **strictly in index order** (a reorder buffer
    /// holds out-of-order completions, so its worst-case footprint is the
    /// pool's completion skew, not `n`), which makes any fold — even an
    /// order-sensitive one — strategy-independent by construction, as long
    /// as `f`'s result for an index does not depend on residual scratch
    /// state. If `f` panics, `consume` still sees every index below the
    /// panicking one, then the panic is re-raised after the joins.
    pub fn queue_stream_with<S, T, I, F, C>(self, n: usize, init: I, f: F, consume: C)
    where
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize) -> T + Sync,
        C: FnMut(usize, T),
    {
        self.schedule(n, 0..n, init, f, consume);
    }

    /// Calls `f(i, &mut a[i], &mut b[i])` for every index, possibly in
    /// parallel chunks. This is the allocation-free primitive behind the
    /// superstep engine's round evaluation: `a` holds the mutable per-vertex
    /// state machines and `b` the pre-allocated output slots.
    ///
    /// Panics if the slices have different lengths.
    pub fn zip_apply<A, B, F>(self, a: &mut [A], b: &mut [B], f: F)
    where
        A: Send,
        B: Send,
        F: Fn(usize, &mut A, &mut B) + Sync,
    {
        assert_eq!(a.len(), b.len(), "zip_apply requires equal-length slices");
        let n = a.len();
        let len = self.chunk_len(n);
        let pairs = a.chunks_mut(len).zip(b.chunks_mut(len)).enumerate();
        self.schedule(
            n,
            pairs,
            || (),
            |(), (k, (xs, ys))| {
                let first = k * len;
                for (i, (x, y)) in xs.iter_mut().zip(ys).enumerate() {
                    f(first + i, x, y);
                }
            },
            |_, ()| {},
        );
    }

    /// The length of the chunks the range combinators cut `0..n` into: one
    /// chunk per worker (at least 1, so `n = 0` is one empty chunk).
    fn chunk_len(self, n: usize) -> usize {
        n.div_ceil(self.threads_for(n)).max(1)
    }

    /// `0..n` cut into ascending `chunk_len(n)`-long ranges (`0..0` alone
    /// when `n = 0`).
    fn chunks(self, n: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Send {
        let len = self.chunk_len(n);
        (0..n.div_ceil(len).max(1)).map(move |k| k * len..n.min(k * len + len))
    }

    /// The one scheduling core behind every combinator: calls
    /// `consume(k, f(&mut scratch, item))` for the `k`-th item of `items`,
    /// on the calling thread and strictly in item order.
    ///
    /// The thread count is [`threads_for`](Self::threads_for) of the `n`
    /// elements the items cover (so `Auto`'s size gate sees the loop, not
    /// its chunk count), capped at the item count. One thread runs a plain
    /// loop over one scratch. More threads each build one scratch and claim
    /// items off one shared queue until it runs dry; a reorder buffer holds
    /// results that arrive ahead of their turn. Every scratch is held under
    /// the debug [`sanitizer::ScratchGuard`]. If `f` panics, `consume` still
    /// sees every item below the panicking one, the workers are joined (in
    /// the seed-shuffled order under `Pooled`), and then the panic is
    /// re-raised with its payload.
    fn schedule<W, S, T, I, F, C>(self, n: usize, items: W, init: I, f: F, mut consume: C)
    where
        W: ExactSizeIterator + Send,
        T: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, W::Item) -> T + Sync,
        C: FnMut(usize, T),
    {
        let len = items.len();
        let threads = self.threads_for(n).min(len);
        if threads <= 1 {
            let mut scratch = init();
            #[cfg(debug_assertions)]
            let _guard = sanitizer::ScratchGuard::acquire(&scratch);
            for (k, item) in items.enumerate() {
                consume(k, f(&mut scratch, item));
            }
            return;
        }
        // Handing the items out under a lock lets a worker keep a claimed
        // `&mut` slice after the guard drops, so no `unsafe` is needed.
        let queue = Mutex::new(items.enumerate());
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            let mut handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let (queue, init, f, tx) = (&queue, &init, &f, tx.clone());
                    Some(scope.spawn(move || {
                        self.stagger(worker);
                        let mut scratch = init();
                        #[cfg(debug_assertions)]
                        let _guard = sanitizer::ScratchGuard::acquire(&scratch);
                        // A poisoned queue means a worker panicked while
                        // claiming: stop, and let the joins re-raise it.
                        while let Some((k, item)) = queue.lock().ok().and_then(|mut q| q.next()) {
                            if tx.send((k, f(&mut scratch, item))).is_err() {
                                break;
                            }
                        }
                    }))
                })
                .collect();
            drop(tx);
            // The channel closes once every worker has finished or died.
            let mut pending = BTreeMap::new();
            let mut released = 0;
            for (k, value) in rx {
                pending.insert(k, value);
                while let Some(value) = pending.remove(&released) {
                    consume(released, value);
                    released += 1;
                }
            }
            // Join every worker (in the seed's order) before re-raising the
            // first panic met, so none is left unjoined.
            let mut panic = None;
            for worker in join_permutation(self.perturb_seed(), threads) {
                if let Some(Err(payload)) = handles[worker].take().map(|h| h.join()) {
                    panic.get_or_insert(payload);
                }
            }
            if let Some(payload) = panic {
                std::panic::resume_unwind(payload);
            }
            assert_eq!(released, len, "bedom-par: the work queue lost a result");
        });
    }
}

/// Number of hardware threads the parallel strategy can use.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// SplitMix64 step — the crate stays dependency-free, so the schedule
/// perturbation derives its yield counts and join shuffle from this inline
/// mixer instead of pulling in `bedom-rng` (which sits *above* this crate).
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which worker handles are joined: identity without a seed,
/// a seeded Fisher–Yates shuffle with one.
fn join_permutation(seed: Option<u64>, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    if let Some(seed) = seed {
        let mut state = seed ^ 0xA076_1D64_78BD_642F;
        for i in (1..len).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
    }
    order
}

/// Parses a `BEDOM_PERTURB_SEED` value: unset is `None`, a decimal `u64`
/// (surrounding whitespace allowed) is a [`ExecutionStrategy::Pooled`]
/// seed, and anything else panics — see
/// [`ExecutionStrategy::perturbed_from_env`].
fn perturbed_from(raw: Option<&std::ffi::OsStr>) -> Option<ExecutionStrategy> {
    let raw = raw?;
    match raw
        .to_str()
        .and_then(|seed| seed.trim().parse::<u64>().ok())
    {
        Some(seed) => Some(ExecutionStrategy::Pooled(seed)),
        None => panic!("{PERTURB_SEED_VAR} must be a decimal u64 seed, got {raw:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategies_agree_on_map_collect() {
        let f = |i: usize| i * i + 1;
        for n in [0usize, 1, 7, 1000, 4099] {
            let seq = ExecutionStrategy::Sequential.map_collect(n, f);
            let par = ExecutionStrategy::Parallel.map_collect(n, f);
            let auto = ExecutionStrategy::Auto.map_collect(n, f);
            assert_eq!(seq, par);
            assert_eq!(seq, auto);
            assert_eq!(seq.len(), n);
        }
    }

    #[test]
    fn strategies_agree_on_map_collect_with() {
        // The scratch is a reusable buffer; the per-index result must not
        // depend on residual state, which the closure guarantees by clearing.
        let f = |scratch: &mut Vec<usize>, i: usize| {
            scratch.clear();
            scratch.extend(0..i % 7);
            scratch.iter().sum::<usize>() + i
        };
        for n in [0usize, 1, 13, 1000, 4099] {
            let seq = ExecutionStrategy::Sequential.map_collect_with(n, Vec::new, f);
            let par = ExecutionStrategy::Parallel.map_collect_with(n, Vec::new, f);
            assert_eq!(seq, par);
            assert_eq!(seq.len(), n);
        }
    }

    #[test]
    fn chunk_collect_with_covers_every_index_once() {
        for strategy in [ExecutionStrategy::Sequential, ExecutionStrategy::Parallel] {
            for n in [0usize, 1, 9, 4099] {
                let chunks = strategy.chunk_collect_with(n, || (), |(), range| range);
                let mut expected_start = 0;
                for range in &chunks {
                    assert_eq!(range.start, expected_start, "{strategy:?}, n = {n}");
                    expected_start = range.end;
                }
                assert_eq!(expected_start, n, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn map_collect_with_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let n = 5000;
        let out = ExecutionStrategy::Parallel.map_collect_with(
            n,
            || builds.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(out.len(), n);
        assert!(builds.load(Ordering::Relaxed) <= ExecutionStrategy::Parallel.threads_for(n));
    }

    #[test]
    fn strategies_agree_on_zip_apply() {
        for n in [0usize, 1, 5, 997] {
            let run = |strategy: ExecutionStrategy| {
                let mut state: Vec<u64> = (0..n as u64).collect();
                let mut out = vec![0u64; n];
                strategy.zip_apply(&mut state, &mut out, |i, s, o| {
                    *s += 1;
                    *o = *s * 10 + i as u64;
                });
                (state, out)
            };
            assert_eq!(
                run(ExecutionStrategy::Sequential),
                run(ExecutionStrategy::Parallel)
            );
        }
    }

    #[test]
    fn nested_loops_are_always_sequential() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Auto,
            ExecutionStrategy::Pooled(7),
        ] {
            assert_eq!(strategy.nested(), ExecutionStrategy::Sequential);
        }
    }

    /// `queue_stream_with` folded into a `Vec`, checking that `consume`
    /// sees every index once, in ascending order.
    fn queue_collect<S, T: Send>(
        strategy: ExecutionStrategy,
        n: usize,
        init: impl Fn() -> S + Sync,
        f: impl Fn(&mut S, usize) -> T + Sync,
    ) -> Vec<T> {
        let mut out = Vec::with_capacity(n);
        strategy.queue_stream_with(n, init, f, |i, value| {
            assert_eq!(i, out.len(), "{strategy:?}: index {i} out of order");
            out.push(value);
        });
        out
    }

    #[test]
    fn queue_stream_with_agrees_with_sequential_for_every_strategy_and_seed() {
        // Imbalanced per-index cost (quadratic in i % 97) so dynamic claims
        // genuinely interleave across workers.
        let f = |scratch: &mut Vec<u64>, i: usize| {
            scratch.clear();
            scratch.extend((0..(i % 97) as u64).map(|x| x * x));
            scratch.iter().sum::<u64>() + i as u64
        };
        for n in [0usize, 1, 2, 13, 1000, 4099] {
            let seq = queue_collect(ExecutionStrategy::Sequential, n, Vec::new, f);
            assert_eq!(seq.len(), n);
            for strategy in [
                ExecutionStrategy::Parallel,
                ExecutionStrategy::Auto,
                ExecutionStrategy::Pooled(0),
                ExecutionStrategy::Pooled(0xDEAD_BEEF),
                ExecutionStrategy::Pooled(42),
            ] {
                let got = queue_collect(strategy, n, Vec::new, f);
                assert_eq!(seq, got, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn queue_stream_with_runs_each_index_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Pooled(3),
            ExecutionStrategy::Parallel,
        ] {
            let n = 4099;
            let calls = AtomicUsize::new(0);
            let out = queue_collect(
                strategy,
                n,
                || (),
                |(), i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i
                },
            );
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "{strategy:?}");
            assert_eq!(calls.load(Ordering::Relaxed), n, "{strategy:?}");
        }
    }

    #[test]
    fn queue_stream_with_builds_one_scratch_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let n = 5000;
        let strategy = ExecutionStrategy::Pooled(1);
        let out = queue_collect(
            strategy,
            n,
            || builds.fetch_add(1, Ordering::Relaxed),
            |_, i| i,
        );
        assert_eq!(out.len(), n);
        assert!(builds.load(Ordering::Relaxed) <= strategy.threads_for(n));
    }

    #[test]
    fn queue_stream_with_consumes_in_index_order_under_every_strategy() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Parallel,
            ExecutionStrategy::Pooled(0),
            ExecutionStrategy::Pooled(99),
            ExecutionStrategy::Pooled(5),
        ] {
            for n in [0usize, 1, 7, 1000] {
                let mut seen = Vec::new();
                strategy.queue_stream_with(
                    n,
                    || (),
                    |(), i| i * 3 + 1,
                    |i, value| seen.push((i, value)),
                );
                let expected: Vec<(usize, usize)> = (0..n).map(|i| (i, i * 3 + 1)).collect();
                assert_eq!(seen, expected, "{strategy:?}, n = {n}");
            }
        }
    }

    #[test]
    fn queue_worker_panics_propagate_after_every_lower_index() {
        for strategy in [
            ExecutionStrategy::Sequential,
            ExecutionStrategy::Pooled(0),
            ExecutionStrategy::Parallel,
        ] {
            let mut consumed = Vec::new();
            let streamed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                strategy.queue_stream_with(
                    5000,
                    || (),
                    |(), i| {
                        assert!(i != 2500, "stream boom at {i}");
                        i
                    },
                    |i, _| consumed.push(i),
                );
            }));
            let payload = streamed.expect_err("the panic must propagate");
            let message = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some("stream boom at 2500"), "{strategy:?}");
            assert_eq!(consumed, (0..2500).collect::<Vec<_>>(), "{strategy:?}");
        }
    }

    #[test]
    fn pooled_agrees_with_sequential_on_every_combinator() {
        let n = 4099;
        for seed in [0u64, 1, 0xfeed, 0xDEAD_BEEF, u64::MAX] {
            let pooled = ExecutionStrategy::Pooled(seed);
            assert!(pooled.threads_for(n) >= 2);

            let seq_map = ExecutionStrategy::Sequential.map_collect(n, |i| i * 31 + 7);
            assert_eq!(seq_map, pooled.map_collect(n, |i| i * 31 + 7));

            let with = |strategy: ExecutionStrategy| {
                strategy.map_collect_with(n, Vec::new, |scratch: &mut Vec<usize>, i| {
                    scratch.clear();
                    scratch.extend(0..i % 5);
                    scratch.iter().sum::<usize>() + i
                })
            };
            assert_eq!(with(ExecutionStrategy::Sequential), with(pooled));

            let zip = |strategy: ExecutionStrategy| {
                let mut state: Vec<usize> = (0..n).collect();
                let mut out = vec![0usize; n];
                strategy.zip_apply(&mut state, &mut out, |i, s, o| {
                    *s ^= 0x5555;
                    *o = *s + i;
                });
                (state, out)
            };
            assert_eq!(zip(ExecutionStrategy::Sequential), zip(pooled));

            let chunks = pooled.chunk_collect_with(n, || (), |(), range| range);
            let mut expected_start = 0;
            for range in &chunks {
                assert_eq!(range.start, expected_start, "seed {seed}");
                expected_start = range.end;
            }
            assert_eq!(expected_start, n, "seed {seed}");
        }
    }

    #[test]
    fn perturb_seed_parse_accepts_decimal_and_rejects_everything_else() {
        use std::ffi::OsStr;
        assert_eq!(perturbed_from(None), None);
        assert_eq!(
            perturbed_from(Some(OsStr::new("20260808"))),
            Some(ExecutionStrategy::Pooled(20_260_808))
        );
        assert_eq!(
            perturbed_from(Some(OsStr::new(" 7\n"))),
            Some(ExecutionStrategy::Pooled(7))
        );
        for bad in ["0xfeed", "", "-1", "18446744073709551616", "seed"] {
            let parsed = std::panic::catch_unwind(|| perturbed_from(Some(OsStr::new(bad))));
            let payload = parsed.expect_err(bad);
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(
                message.contains("BEDOM_PERTURB_SEED") && message.contains(&format!("{bad:?}")),
                "{bad:?}: {message}"
            );
        }
    }

    #[test]
    fn join_permutation_is_a_permutation() {
        for len in [0usize, 1, 2, 13] {
            for seed in [None, Some(0u64), Some(42)] {
                let mut order = join_permutation(seed, len);
                order.sort_unstable();
                assert_eq!(order, (0..len).collect::<Vec<_>>());
            }
        }
        assert_eq!(join_permutation(None, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn worker_panics_propagate_with_their_payload() {
        fn message(run: impl FnOnce()) -> Option<String> {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
            let payload = result.expect_err("the panic must propagate");
            payload.downcast_ref::<String>().cloned()
        }
        let boom = |i: usize| assert!(i != 2500, "boom at {i}");
        for strategy in [ExecutionStrategy::Parallel, ExecutionStrategy::Pooled(7)] {
            for (name, got) in [
                (
                    "map_collect",
                    message(|| drop(strategy.map_collect(5000, boom))),
                ),
                (
                    "map_collect_with",
                    message(|| drop(strategy.map_collect_with(5000, || (), |(), i| boom(i)))),
                ),
                (
                    "chunk_collect_with",
                    message(|| {
                        drop(strategy.chunk_collect_with(
                            5000,
                            || (),
                            |(), range| range.for_each(boom),
                        ))
                    }),
                ),
                (
                    "zip_apply",
                    message(|| {
                        strategy.zip_apply(&mut [0u8; 5000], &mut [0u8; 5000], |i, _, _| boom(i))
                    }),
                ),
            ] {
                assert_eq!(got.as_deref(), Some("boom at 2500"), "{name}, {strategy:?}");
            }
        }
    }

    #[test]
    fn flags_and_threads() {
        assert_eq!(ExecutionStrategy::Sequential.threads_for(100), 1);
        assert!(ExecutionStrategy::Parallel.threads_for(100) >= 1);
        assert_eq!(ExecutionStrategy::Parallel.threads_for(1), 1);
        assert_eq!(ExecutionStrategy::Auto.threads_for(10), 1);
        assert_eq!(
            ExecutionStrategy::Auto.threads_for(10_000),
            available_threads()
        );
        assert!(available_threads() >= 1);
    }
}
