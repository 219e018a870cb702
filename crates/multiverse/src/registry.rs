//! Per-thread announcement slots read by the background thread (§4.3).
//!
//! Each registered worker owns one [`ThreadSlot`]: the payload of its
//! handle's [`Registration`](tm_api::Registration) in the runtime's
//! [`Registry`]. At the start of every transaction attempt the worker
//! announces its local mode counter and what kind of attempt it is running;
//! the background thread scans these slots to decide when all stragglers of
//! an old mode have drained and the next mode transition is safe, to
//! collect commit-timestamp deltas for the unversioning heuristic, and to
//! decide (via the sticky bits) when to leave Mode U.
//!
//! The scans ([`any_stale_worker`], [`any_sticky_mode_u`],
//! [`average_commit_ts_delta`]) fold over the registry's live entries. A
//! slot counts exactly as long as its handle lives: the handle's drop frees
//! its entry, which the scans skip, so a dropped handle's sticky bit and
//! last delta stop counting at once, and the next holder of the tid starts
//! from a fresh slot.

use tm_api::sync::{fence, AtomicBool, AtomicU64, Ordering};
use tm_api::{CachePadded, Registry};

/// Sentinel announced when a thread has no active transaction attempt.
pub const INACTIVE: u64 = u64::MAX;
/// Sentinel for "no commit-timestamp delta announced yet".
pub const NO_DELTA: u64 = u64::MAX;

/// One worker thread's announcement slot.
#[derive(Debug)]
pub struct ThreadSlot {
    /// Local mode counter of the running attempt, or [`INACTIVE`].
    local_mode_counter: CachePadded<AtomicU64>,
    /// Whether the running attempt may write (declared [`tm_api::TxKind`]).
    is_update: AtomicBool,
    /// Whether the running attempt is on the versioned code path.
    is_versioned: AtomicBool,
    /// The thread's sticky Mode-U flag (§4.3).
    sticky_mode_u: AtomicBool,
    /// Latest commit-timestamp delta announced by a versioned commit, or
    /// [`NO_DELTA`].
    commit_ts_delta: AtomicU64,
}

impl Default for ThreadSlot {
    fn default() -> Self {
        Self {
            local_mode_counter: CachePadded::new(AtomicU64::new(INACTIVE)),
            is_update: AtomicBool::new(false),
            is_versioned: AtomicBool::new(false),
            sticky_mode_u: AtomicBool::new(false),
            commit_ts_delta: AtomicU64::new(NO_DELTA),
        }
    }
}

impl ThreadSlot {
    /// Announce the start of an attempt.
    ///
    /// Safety of the relaxation (was `SeqCst`): the `Release` store makes the
    /// kind/versioned flags visible together with the counter. The store→load
    /// ordering against the worker's confirming counter re-read — the only
    /// reason this store used to be `SeqCst` — is provided by the explicit
    /// `SeqCst` fence `MultiverseTx::begin` issues right after calling this.
    #[inline]
    pub fn announce(&self, local_mode_counter: u64, is_update: bool, is_versioned: bool) {
        self.is_update.store(is_update, Ordering::Relaxed);
        self.is_versioned.store(is_versioned, Ordering::Relaxed);
        self.local_mode_counter
            .store(local_mode_counter, Ordering::Release);
    }

    /// Announce the end of an attempt.
    ///
    /// Safety of the relaxation (was `SeqCst`): this store is on the
    /// commit/abort hot path. Writes to the same atomic are totally ordered
    /// (modification order), so the scan can never see this INACTIVE store
    /// *instead of* a later `announce`; seeing it *late* merely keeps the
    /// slot looking active, which delays a mode transition — always safe.
    #[inline]
    pub fn clear_active(&self) {
        self.local_mode_counter.store(INACTIVE, Ordering::Release);
    }

    /// The announced local mode counter ([`INACTIVE`] when idle).
    ///
    /// `Acquire` is sufficient for the background thread's scans: the
    /// store→load ordering of the drain protocol comes from the `SeqCst`
    /// fences in [`any_stale_worker`] (scan side) and
    /// `MultiverseTx::begin` (worker side), not from this load.
    #[inline]
    pub fn local_mode_counter(&self) -> u64 {
        self.local_mode_counter.load(Ordering::Acquire)
    }

    /// Whether the announced attempt is an updater.
    #[inline]
    pub fn is_update(&self) -> bool {
        self.is_update.load(Ordering::Relaxed)
    }

    /// Whether the announced attempt runs the versioned code path.
    #[inline]
    pub fn is_versioned(&self) -> bool {
        self.is_versioned.load(Ordering::Relaxed)
    }

    /// Set or clear the sticky Mode-U flag.
    #[inline]
    pub fn set_sticky_mode_u(&self, value: bool) {
        self.sticky_mode_u.store(value, Ordering::Release);
    }

    /// Read the sticky Mode-U flag.
    #[inline]
    pub fn sticky_mode_u(&self) -> bool {
        self.sticky_mode_u.load(Ordering::Acquire)
    }

    /// Announce the commit-timestamp delta of a versioned commit (§4.4).
    #[inline]
    pub fn announce_commit_ts_delta(&self, delta: u64) {
        self.commit_ts_delta.store(delta, Ordering::Relaxed);
    }

    /// The last announced commit-timestamp delta, if any.
    #[inline]
    pub fn commit_ts_delta(&self) -> Option<u64> {
        match self.commit_ts_delta.load(Ordering::Relaxed) {
            NO_DELTA => None,
            d => Some(d),
        }
    }
}

/// True if some *active* attempt matching `filter` is still running with a
/// local mode counter strictly below `target_counter`. Used by the
/// background thread's `waitForWorkers` loops.
pub fn any_stale_worker(
    registry: &Registry<ThreadSlot>,
    target_counter: u64,
    filter: impl Fn(&ThreadSlot) -> bool,
) -> bool {
    // Pair with the SeqCst fence in `MultiverseTx::begin`: the caller
    // advanced (or re-read) the global mode counter before this scan, and
    // this fence orders that access before the slot loads below. Together
    // the two fences guarantee that a worker which did not observe the new
    // counter value during its announce-and-confirm handshake is visible to
    // this scan as still announcing the old counter — the invariant the
    // drain loops rely on. This path runs only in the background thread, so
    // the fence costs nothing on the hot path.
    fence(Ordering::SeqCst);
    registry.fold(false, |stale, s| {
        stale || {
            let c = s.local_mode_counter();
            c != INACTIVE && c < target_counter && filter(s)
        }
    })
}

/// True if any live thread has its sticky Mode-U flag set.
pub fn any_sticky_mode_u(registry: &Registry<ThreadSlot>) -> bool {
    registry.fold(false, |sticky, s| sticky || s.sticky_mode_u())
}

/// Average of the live threads' announced commit-timestamp deltas, if any.
pub fn average_commit_ts_delta(registry: &Registry<ThreadSlot>) -> Option<u64> {
    let (sum, n) = registry.fold((0u64, 0u64), |(sum, n), s| match s.commit_ts_delta() {
        Some(d) => (sum + d, n + 1),
        None => (sum, n),
    });
    (n > 0).then(|| sum / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn announce_and_clear() {
        let slot = ThreadSlot::default();
        assert_eq!(slot.local_mode_counter(), INACTIVE);
        slot.announce(4, true, false);
        assert_eq!(slot.local_mode_counter(), 4);
        assert!(slot.is_update());
        assert!(!slot.is_versioned());
        slot.clear_active();
        assert_eq!(slot.local_mode_counter(), INACTIVE);
    }

    fn registry() -> Arc<Registry<ThreadSlot>> {
        Arc::default()
    }

    #[test]
    fn stale_worker_detection_respects_filters() {
        let reg = registry();
        let a = reg.register();
        let b = reg.register();
        a.payload().announce(1, true, false); // stale updater (counter 1 < 2)
        b.payload().announce(2, false, true); // up-to-date versioned reader
        assert!(any_stale_worker(&reg, 2, |s| s.is_update()));
        assert!(!any_stale_worker(&reg, 2, |s| s.is_versioned()));
        a.payload().clear_active();
        assert!(!any_stale_worker(&reg, 2, |_| true));
    }

    #[test]
    fn idle_threads_never_block_transitions() {
        let reg = registry();
        let _idle = reg.register();
        assert!(!any_stale_worker(&reg, 100, |_| true));
    }

    #[test]
    fn sticky_flags_aggregate() {
        let reg = registry();
        let a = reg.register();
        let b = reg.register();
        assert!(!any_sticky_mode_u(&reg));
        b.payload().set_sticky_mode_u(true);
        assert!(any_sticky_mode_u(&reg));
        b.payload().set_sticky_mode_u(false);
        a.payload().set_sticky_mode_u(false);
        assert!(!any_sticky_mode_u(&reg));
    }

    #[test]
    fn delta_average() {
        let reg = registry();
        let a = reg.register();
        let b = reg.register();
        assert_eq!(average_commit_ts_delta(&reg), None);
        a.payload().announce_commit_ts_delta(10);
        b.payload().announce_commit_ts_delta(20);
        assert_eq!(average_commit_ts_delta(&reg), Some(15));
        assert_eq!(a.payload().commit_ts_delta(), Some(10));
    }

    #[test]
    fn dropped_slots_stop_counting() {
        let reg = registry();
        let live = reg.register();
        live.payload().announce_commit_ts_delta(10);
        for _ in 0..100 {
            let dead = reg.register();
            dead.payload().set_sticky_mode_u(true);
            dead.payload().announce_commit_ts_delta(1_000);
            assert!(any_sticky_mode_u(&reg));
        }
        // Each slot stopped counting when its handle dropped, before it
        // could pin Mode U or skew the average.
        assert!(!any_sticky_mode_u(&reg));
        assert_eq!(average_commit_ts_delta(&reg), Some(10));
        assert_eq!(reg.fold(0, |n, _| n + 1), 1);
    }

    #[test]
    fn a_dropped_handle_takes_its_sticky_bit_and_delta_along() {
        let reg = registry();
        let a = reg.register();
        a.payload().set_sticky_mode_u(true);
        a.payload().announce_commit_ts_delta(7);
        drop(a);
        assert!(!any_sticky_mode_u(&reg));
        assert_eq!(average_commit_ts_delta(&reg), None);
    }
}
