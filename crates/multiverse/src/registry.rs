//! Per-thread announcement slots read by the background thread (§4.3).
//!
//! Each registered worker owns one [`ThreadSlot`]. At the start of every
//! transaction attempt the worker announces its local mode counter and what
//! kind of attempt it is running; the background thread scans these slots to
//! decide when all stragglers of an old mode have drained and the next mode
//! transition is safe, to collect commit-timestamp deltas for the
//! unversioning heuristic, and to decide (via the sticky bits) when to leave
//! Mode U.
//!
//! A slot lives as long as its handle: when the handle drops it withdraws
//! its sticky bit and delta ([`ThreadSlot::withdraw`]), and the registry
//! forgets every slot it alone still references, so neither a dead
//! handle's state nor its slot outlives it.

use std::sync::Arc;
use tm_api::sync::{fence, AtomicBool, AtomicU64, Mutex, MutexGuard, Ordering};
use tm_api::CachePadded;

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
    /// fences in [`WorkerRegistry::any_stale_worker`] (scan side) and
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

    /// Withdraw the runtime-wide state this slot announces, for a handle
    /// that is going away: its sticky bit (which would otherwise pin Mode
    /// U) and its last delta (which would otherwise keep feeding the
    /// unversioning sample window). `sticky` is the handle's own mirror of
    /// its sticky bit, so a handle that never set it stores nothing.
    pub fn withdraw(&self, sticky: bool) {
        if sticky {
            self.set_sticky_mode_u(false);
        }
        self.commit_ts_delta.store(NO_DELTA, Ordering::Relaxed);
    }
}

/// Registry of every worker thread's announcement slot.
#[derive(Debug, Default)]
pub struct WorkerRegistry {
    slots: Mutex<Vec<Arc<ThreadSlot>>>,
}

impl WorkerRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new worker and return its slot.
    pub fn register(&self) -> Arc<ThreadSlot> {
        let slot = Arc::new(ThreadSlot::default());
        self.live().push(Arc::clone(&slot));
        slot
    }

    /// The slot list with dead slots pruned. A slot is dead once its
    /// handle has dropped, i.e. when the registry holds the only reference;
    /// nothing can revive it (the registry hands out a slot's reference
    /// only from `register`), so pruning it is final. Pruning on every
    /// register and scan bounds the list by the number of live handles.
    fn live(&self) -> MutexGuard<'_, Vec<Arc<ThreadSlot>>> {
        let mut slots = self.slots.lock().unwrap();
        slots.retain(|s| Arc::strong_count(s) > 1);
        slots
    }

    /// Number of live registered workers.
    pub fn len(&self) -> usize {
        self.live().len()
    }

    /// Whether no live worker is registered.
    pub fn is_empty(&self) -> bool {
        self.live().is_empty()
    }

    /// True if some *active* attempt matching `filter` is still running with
    /// a local mode counter strictly below `target_counter`. Used by the
    /// background thread's `waitForWorkers` loops.
    pub fn any_stale_worker(
        &self,
        target_counter: u64,
        filter: impl Fn(&ThreadSlot) -> bool,
    ) -> bool {
        // Pair with the SeqCst fence in `MultiverseTx::begin`: the caller
        // advanced (or re-read) the global mode counter before this scan, and
        // this fence orders that access before the slot loads below. Together
        // the two fences guarantee that a worker which did not observe the
        // new counter value during its announce-and-confirm handshake is
        // visible to this scan as still announcing the old counter — the
        // invariant the drain loops rely on. This path runs only in the
        // background thread, so the fence costs nothing on the hot path.
        fence(Ordering::SeqCst);
        self.live().iter().any(|s| {
            let c = s.local_mode_counter();
            c != INACTIVE && c < target_counter && filter(s)
        })
    }

    /// True if any thread currently has its sticky Mode-U flag set.
    pub fn any_sticky_mode_u(&self) -> bool {
        self.live().iter().any(|s| s.sticky_mode_u())
    }

    /// Average of all announced commit-timestamp deltas, if any.
    pub fn average_commit_ts_delta(&self) -> Option<u64> {
        let slots = self.live();
        let deltas: Vec<u64> = slots.iter().filter_map(|s| s.commit_ts_delta()).collect();
        if deltas.is_empty() {
            None
        } else {
            Some(deltas.iter().sum::<u64>() / deltas.len() as u64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn stale_worker_detection_respects_filters() {
        let reg = WorkerRegistry::new();
        let a = reg.register();
        let b = reg.register();
        a.announce(1, true, false); // stale updater (counter 1 < 2)
        b.announce(2, false, true); // up-to-date versioned reader
        assert!(reg.any_stale_worker(2, |s| s.is_update()));
        assert!(!reg.any_stale_worker(2, |s| s.is_versioned()));
        a.clear_active();
        assert!(!reg.any_stale_worker(2, |_| true));
    }

    #[test]
    fn idle_threads_never_block_transitions() {
        let reg = WorkerRegistry::new();
        let _idle = reg.register();
        assert!(!reg.any_stale_worker(100, |_| true));
    }

    #[test]
    fn sticky_flags_aggregate() {
        let reg = WorkerRegistry::new();
        let a = reg.register();
        let b = reg.register();
        assert!(!reg.any_sticky_mode_u());
        b.set_sticky_mode_u(true);
        assert!(reg.any_sticky_mode_u());
        b.set_sticky_mode_u(false);
        a.set_sticky_mode_u(false);
        assert!(!reg.any_sticky_mode_u());
    }

    #[test]
    fn delta_average() {
        let reg = WorkerRegistry::new();
        let a = reg.register();
        let b = reg.register();
        assert_eq!(reg.average_commit_ts_delta(), None);
        a.announce_commit_ts_delta(10);
        b.announce_commit_ts_delta(20);
        assert_eq!(reg.average_commit_ts_delta(), Some(15));
        assert_eq!(a.commit_ts_delta(), Some(10));
    }

    #[test]
    fn registry_len() {
        let reg = WorkerRegistry::new();
        assert!(reg.is_empty());
        let _a = reg.register();
        let _b = reg.register();
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn dead_slots_are_pruned_and_stop_counting() {
        let reg = WorkerRegistry::new();
        let live = reg.register();
        live.announce_commit_ts_delta(10);
        for _ in 0..100 {
            let dead = reg.register();
            dead.set_sticky_mode_u(true);
            dead.announce_commit_ts_delta(1_000);
        }
        // Each dropped slot went at the next register; the last one goes
        // at the next scan, before it can pin Mode U or skew the average.
        assert!(!reg.any_sticky_mode_u());
        assert_eq!(reg.average_commit_ts_delta(), Some(10));
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn withdraw_clears_sticky_and_delta() {
        let reg = WorkerRegistry::new();
        let a = reg.register();
        a.set_sticky_mode_u(true);
        a.announce_commit_ts_delta(7);
        a.withdraw(true);
        assert!(!reg.any_sticky_mode_u());
        assert_eq!(reg.average_commit_ts_delta(), None);
    }
}
