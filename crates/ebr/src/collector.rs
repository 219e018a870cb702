//! The global side of the reclamation scheme: the epoch counter, the
//! participant registry and the orphan garbage list.

use crate::retired::Retired;
use std::sync::Arc;
use tm_api::sync::{AtomicU64, AtomicUsize, Mutex, Ordering};
use tm_api::CachePadded;

/// A participant slot: the pinned/unpinned state of one thread.
///
/// Encoding of `state`: `0` means "not pinned"; otherwise the value is
/// `epoch << 1 | 1`.
#[derive(Debug, Default)]
pub(crate) struct Participant {
    state: CachePadded<AtomicU64>,
    /// Set when the owning `LocalHandle` is dropped; the next `try_advance`
    /// scan that reaches the slot drops it from the registry.
    retired_slot: CachePadded<AtomicU64>,
}

impl Participant {
    #[inline]
    pub(crate) fn pin_at(&self, epoch: u64) {
        self.state.store((epoch << 1) | 1, Ordering::SeqCst);
    }

    #[inline]
    pub(crate) fn unpin(&self) {
        self.state.store(0, Ordering::Release);
    }

    /// `SeqCst`: the advance scan's slot loads must be totally ordered
    /// against pin stores so that a pin whose revalidation succeeded is
    /// guaranteed visible to every later scan (see `LocalHandle::pin`).
    /// Scan-side only — this never runs on the transaction hot path.
    #[inline]
    fn pinned_epoch(&self) -> Option<u64> {
        let s = self.state.load(Ordering::SeqCst);
        if s & 1 == 1 {
            Some(s >> 1)
        } else {
            None
        }
    }

    #[inline]
    fn is_retired(&self) -> bool {
        self.retired_slot.load(Ordering::Acquire) != 0
    }

    #[inline]
    pub(crate) fn mark_retired(&self) {
        self.retired_slot.store(1, Ordering::Release);
    }
}

/// Shared state of the epoch-based reclamation scheme.
#[derive(Debug, Default)]
pub struct Collector {
    epoch: CachePadded<AtomicU64>,
    participants: Mutex<Vec<Arc<Participant>>>,
    /// Garbage from threads that unregistered before their bags drained.
    orphans: Mutex<Vec<Retired>>,
    /// Bytes retired but not yet reclaimed (for the memory-usage figures).
    pending_bytes: AtomicUsize,
    /// Total number of reclamations performed (for tests / introspection).
    reclaimed: AtomicUsize,
}

/// Garbage retired at epoch `e` may be reclaimed once the global epoch
/// reaches `e + GRACE`.
pub(crate) const GRACE: u64 = 2;

impl Collector {
    /// Create a collector with the epoch at 1.
    pub fn new() -> Self {
        Self {
            epoch: CachePadded::new(AtomicU64::new(1)),
            participants: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            pending_bytes: AtomicUsize::new(0),
            reclaimed: AtomicUsize::new(0),
        }
    }

    /// Current global epoch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Current global epoch with a `SeqCst` load — used by the pin
    /// handshake's revalidation step, which needs the load totally ordered
    /// against the pin store and the advance CAS (see `LocalHandle::pin`).
    #[inline]
    pub(crate) fn epoch_seqcst(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Bytes retired and not yet reclaimed.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes.load(Ordering::Relaxed)
    }

    /// Number of allocations reclaimed so far.
    pub fn reclaimed_count(&self) -> usize {
        self.reclaimed.load(Ordering::Relaxed)
    }

    pub(crate) fn note_retired(&self, bytes: usize) {
        self.pending_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn note_reclaimed(&self, bytes: usize) {
        self.pending_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.reclaimed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn register(&self) -> Arc<Participant> {
        let p = Arc::new(Participant::default());
        self.participants.lock().unwrap().push(Arc::clone(&p));
        p
    }

    /// Try to advance the global epoch. Succeeds only if every pinned
    /// participant is pinned at the current epoch. Returns the (possibly
    /// unchanged) global epoch afterwards.
    ///
    /// The same scan drops retired participants, so the registry holds
    /// only live handles however many come and go. As before, the scan
    /// reads no slot past the first lagging pin; retired slots behind it
    /// leave on a later scan.
    pub fn try_advance(&self) -> u64 {
        let cur = self.epoch.load(Ordering::SeqCst);
        let mut lagging = false;
        self.participants.lock().unwrap().retain(|p| {
            if lagging {
                return true;
            }
            if p.is_retired() {
                return false;
            }
            lagging = p.pinned_epoch().is_some_and(|e| e != cur);
            true
        });
        if lagging {
            return cur;
        }
        // Every pinned thread has observed `cur`; it is safe to advance.
        let _ = self
            .epoch
            .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst);
        self.epoch.load(Ordering::SeqCst)
    }

    /// Adopt garbage from a thread that is unregistering.
    pub(crate) fn adopt_orphans(&self, garbage: Vec<Retired>) {
        if garbage.is_empty() {
            return;
        }
        self.orphans.lock().unwrap().extend(garbage);
    }

    /// Reclaim orphaned garbage that is past its grace period. In place
    /// (`swap_remove`) so periodic calls allocate nothing.
    pub fn collect_orphans(&self) {
        let cur = self.epoch();
        let mut orphans = self.orphans.lock().unwrap();
        let mut i = 0;
        while i < orphans.len() {
            if orphans[i].epoch() + GRACE <= cur {
                let r = orphans.swap_remove(i);
                let bytes = r.bytes();
                // Safety: grace period elapsed, no pinned thread can reach it.
                unsafe { r.reclaim() };
                self.note_reclaimed(bytes);
            } else {
                i += 1;
            }
        }
    }

    /// Number of orphaned items waiting for a grace period.
    pub fn orphan_count(&self) -> usize {
        self.orphans.lock().unwrap().len()
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // At this point no participant can be pinned (all LocalHandles hold an
        // Arc to the collector), so everything left is safe to free.
        let mut orphans = self.orphans.lock().unwrap();
        for r in orphans.drain(..) {
            let bytes = r.bytes();
            unsafe { r.reclaim() };
            self.note_reclaimed(bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_starts_at_one_and_advances_when_unpinned() {
        let c = Collector::new();
        assert_eq!(c.epoch(), 1);
        assert_eq!(c.try_advance(), 2);
        assert_eq!(c.try_advance(), 3);
    }

    #[test]
    fn pinned_participant_blocks_advance() {
        let c = Collector::new();
        let p = c.register();
        p.pin_at(c.epoch());
        let before = c.epoch();
        // Move the participant one epoch behind by advancing once first.
        assert_eq!(c.try_advance(), before + 1);
        // Now the participant is pinned at an old epoch: advancing must fail.
        assert_eq!(c.try_advance(), before + 1);
        p.unpin();
        assert_eq!(c.try_advance(), before + 2);
    }

    #[test]
    fn retired_participant_does_not_block() {
        let c = Collector::new();
        let p = c.register();
        p.pin_at(0); // stale pin
        p.mark_retired();
        let e = c.epoch();
        assert_eq!(c.try_advance(), e + 1);
    }

    #[test]
    fn dropped_handles_leave_the_registry() {
        let c = std::sync::Arc::new(Collector::new());
        let live = crate::LocalHandle::new(std::sync::Arc::clone(&c));
        for _ in 0..1000 {
            drop(crate::LocalHandle::new(std::sync::Arc::clone(&c)));
        }
        c.try_advance();
        let registered = c.participants.lock().unwrap().len();
        assert_eq!(
            registered, 1,
            "retired participants must leave the registry"
        );
        drop(live);
    }

    #[test]
    fn orphans_reclaimed_after_grace() {
        let c = Collector::new();
        let p = Box::into_raw(Box::new(5u64)) as *mut u8;
        let e = c.epoch();
        c.note_retired(8);
        c.adopt_orphans(vec![Retired::new(p, crate::boxed_dtor::<u64>(), 8, e)]);
        assert_eq!(c.orphan_count(), 1);
        c.collect_orphans();
        assert_eq!(c.orphan_count(), 1, "grace period not yet elapsed");
        c.try_advance();
        c.try_advance();
        c.collect_orphans();
        assert_eq!(c.orphan_count(), 0);
        assert_eq!(c.reclaimed_count(), 1);
        assert_eq!(c.pending_bytes(), 0);
    }

    #[test]
    fn drop_reclaims_everything() {
        let c = Collector::new();
        let p = Box::into_raw(Box::new(5u64)) as *mut u8;
        c.note_retired(8);
        c.adopt_orphans(vec![Retired::new(p, crate::boxed_dtor::<u64>(), 8, 100)]);
        drop(c); // must not leak (checked under Miri/ASan-style review)
    }
}
