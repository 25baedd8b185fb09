//! Debug-build shadow tracker for the scratch-reusing scheduling core.
//!
//! The one scheduling core behind every combinator of this crate hands each
//! worker thread one scratch value (built by the caller's `init`) and
//! promises it is never shared: two workers holding the same scratch
//! concurrently would race, and — worse for this project — could make
//! results depend on the schedule. The type system already enforces this
//! for the core's own scratches (each worker calls `init()` itself), but
//! the invariant is subtle enough that refactors have tried to hoist the
//! `init()` out of the spawn. This module turns that mistake into an
//! immediate panic in debug builds instead of a silent data race.
//!
//! Every worker registers the address of its scratch in a process-global
//! table for as long as it claims work items ([`ScratchGuard`]);
//! registering an address some other live worker already holds panics.
//! Zero-sized scratches are exempt: all `&()` may legally share an address,
//! so tracking them would produce false positives. The whole module is
//! compiled only under `debug_assertions` and costs two hash-map operations
//! per *worker* (not per item or element), so the release kernels are
//! untouched.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::thread::ThreadId;

/// Addresses of live scratches, keyed to the worker thread holding them.
static HELD: OnceLock<Mutex<HashMap<usize, ThreadId>>> = OnceLock::new();

fn held() -> &'static Mutex<HashMap<usize, ThreadId>> {
    HELD.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock() -> std::sync::MutexGuard<'static, HashMap<usize, ThreadId>> {
    // A panic raised by `acquire` poisons the mutex; the table itself is
    // still consistent, so recover the guard rather than cascade panics.
    match held().lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// RAII registration of one worker's exclusive hold on its scratch value.
///
/// Construct with [`ScratchGuard::acquire`] right after `init()` and keep it
/// alive until the worker stops claiming items; dropping it releases the
/// address.
#[derive(Debug)]
pub struct ScratchGuard {
    key: Option<usize>,
}

impl ScratchGuard {
    /// Registers `scratch` as exclusively held by the current thread.
    ///
    /// # Panics
    /// Panics if any live worker (including this thread) already holds a
    /// scratch at the same address — i.e. the scratch is aliased.
    pub fn acquire<S>(scratch: &S) -> ScratchGuard {
        if std::mem::size_of::<S>() == 0 {
            // Zero-sized scratches all share addresses; nothing to race on.
            return ScratchGuard { key: None };
        }
        let key = scratch as *const S as usize;
        let me = std::thread::current().id();
        let mut map = lock();
        if let Some(prev) = map.insert(key, me) {
            // Restore the original owner so *their* guard's release stays
            // balanced, then report the aliasing.
            map.insert(key, prev);
            drop(map);
            panic!(
                "bedom-par sanitizer: scratch at {key:#x} is already held by \
                 worker {prev:?} while {me:?} tried to acquire it — a \
                 scratch value is being shared between workers"
            );
        }
        ScratchGuard { key: Some(key) }
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        if let Some(key) = self.key {
            lock().remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reacquiring_after_release_is_fine() {
        let value = 17u64;
        for _ in 0..3 {
            let guard = ScratchGuard::acquire(&value);
            drop(guard);
        }
    }

    #[test]
    fn zero_sized_scratches_are_exempt() {
        let a = ();
        let b = ();
        let _ga = ScratchGuard::acquire(&a);
        let _gb = ScratchGuard::acquire(&b);
    }

    #[test]
    fn distinct_addresses_can_be_held_concurrently() {
        let a = 1u64;
        let b = 2u64;
        let _ga = ScratchGuard::acquire(&a);
        let _gb = ScratchGuard::acquire(&b);
    }

    #[test]
    fn detects_a_scratch_shared_across_threads() {
        use std::sync::mpsc;
        let value = 42u64;
        std::thread::scope(|scope| {
            let (acquired_tx, acquired_rx) = mpsc::channel();
            let (done_tx, done_rx) = mpsc::channel::<()>();
            let value_ref = &value;
            scope.spawn(move || {
                let _guard = ScratchGuard::acquire(value_ref);
                let _ = acquired_tx.send(());
                // Hold the guard until the main thread has tried to alias.
                let _ = done_rx.recv();
            });
            let _ = acquired_rx.recv();
            let result = std::panic::catch_unwind(|| {
                let _second = ScratchGuard::acquire(value_ref);
            });
            assert!(result.is_err(), "aliased acquire must panic");
            let _ = done_tx.send(());
        });
    }
}
