//! The registration table: one entry per tid, held by at most one live TM
//! handle at a time.
//!
//! Every runtime owns one [`Registry`]. [`Registry::register`] gives a
//! handle its [`Registration`], which owns three things at once: the
//! handle's tid, its [`ThreadStats`] row, and a per-TM payload `P` (`()` for
//! the baselines; Multiverse's per-thread announcement slot). Entry `i` of
//! the table belongs to tid `i + 1`:
//!
//! * `register` takes the lowest free index, so tids lie in
//!   `1..=MAX_TID - 1`. Tid 0 is never handed out (DCTL's irrevocability
//!   token reads 0 as "free"), and `MAX_TID` stays reserved for
//!   Multiverse's background thread. A tid is held by at most one live
//!   handle, so a stripe lock's owner tid names exactly one transaction.
//!   With every tid held, `register` panics naming the live count.
//! * The one `Drop` of a `Registration` frees its index. From then on the
//!   scans ([`Registry::fold`]) skip the entry, so nothing the handle
//!   announced outlives it. The next holder of the tid gets the payload
//!   reset to `P::default()` and keeps counting on the same stats row, so
//!   a snapshot keeps every dropped handle's counts without a fold. The
//!   handoff goes through the table lock, so the row keeps one writer at
//!   a time.
//!
//! Entries live as long as the registry and are reused, never freed, so a
//! handle's drop frees no memory; a simulated execution's address-keyed
//! interning then sees the same entry addresses on every replay. The table
//! sits behind the `sync` facade's mutex: registration and drop are
//! lifecycle events, and snapshots and Multiverse's background scans are
//! off the transaction hot path.

use crate::stats::{process_stats, ThreadStats, TmStatsSnapshot};
use crate::sync::{Mutex, MutexGuard};
use crate::vlock::MAX_TID;
use std::mem::ManuallyDrop;
use std::sync::{Arc, PoisonError};

/// Number of tids a registry can hand out (`1..=MAX_TID - 1`).
const CAPACITY: usize = MAX_TID as usize - 1;

/// One runtime's table of registrations (see the module docs).
#[derive(Debug, Default)]
pub struct Registry<P = ()> {
    /// Slot `i` is tid `i + 1`'s entry.
    table: Mutex<Vec<Slot<P>>>,
}

#[derive(Debug)]
struct Slot<P> {
    entry: Arc<Entry<P>>,
    /// Whether a live [`Registration`] holds this tid.
    live: bool,
}

#[derive(Debug)]
struct Entry<P> {
    tid: u64,
    stats: ThreadStats,
    payload: P,
}

/// A live handle's claim on its registry entry: the tid, the stats row and
/// the payload. Dropping it frees the tid.
#[derive(Debug)]
pub struct Registration<P = ()> {
    /// Released in `drop` before the tid is freed (see there).
    entry: ManuallyDrop<Arc<Entry<P>>>,
    registry: Arc<Registry<P>>,
}

impl<P: Default> Registry<P> {
    /// Register a new handle under the lowest free tid, with a fresh
    /// payload. Panics if every tid is held by a live handle.
    pub fn register(self: &Arc<Self>) -> Registration<P> {
        let mut t = self.table();
        let idx = t.iter().position(|s| !s.live).unwrap_or(t.len());
        if idx == CAPACITY {
            panic!("cannot register a TM handle: {CAPACITY} live handles hold every tid");
        }
        if idx == t.len() {
            t.push(Slot {
                entry: Arc::new(Entry {
                    tid: idx as u64 + 1,
                    stats: ThreadStats::default(),
                    payload: P::default(),
                }),
                live: true,
            });
        } else {
            let slot = &mut t[idx];
            // The last holder released its reference before freeing the
            // tid, so the table's is the only one.
            Arc::get_mut(&mut slot.entry)
                .expect("a free entry is unshared")
                .payload = P::default();
            slot.live = true;
        }
        Registration {
            entry: ManuallyDrop::new(Arc::clone(&t[idx].entry)),
            registry: Arc::clone(self),
        }
    }
}

impl<P> Registry<P> {
    /// The locked table. Every update leaves it valid, so a panic under the
    /// lock (a torn-down simulated run unwinding out of a scan) must not
    /// make a later `Registration::drop` panic too.
    fn table(&self) -> MutexGuard<'_, Vec<Slot<P>>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fold `f` over the payload of every live registration, in tid order,
    /// under the table lock.
    pub fn fold<A>(&self, init: A, f: impl FnMut(A, &P) -> A) -> A {
        let t = self.table();
        t.iter()
            .filter(|s| s.live)
            .map(|s| &s.entry.payload)
            .fold(init, f)
    }

    /// Aggregate a snapshot across every handle ever registered, plus the
    /// process-wide rows and the derived `*_allocs` rows.
    pub fn snapshot(&self) -> TmStatsSnapshot {
        let t = self.table();
        let mut total = TmStatsSnapshot::default();
        for s in t.iter() {
            total.merge(&s.entry.stats.snapshot());
        }
        drop(t);
        process_stats().fold_into(&mut total);
        // Every arena allocation is exactly one hit or one miss.
        total.pool_allocs = total.pool_hits + total.pool_misses;
        total.pool_class_allocs = total.pool_class_hits + total.pool_class_misses;
        total
    }
}

impl<P> Registration<P> {
    /// The handle's tid, unique among live handles, in `1..=MAX_TID - 1`.
    pub fn tid(&self) -> u64 {
        self.entry.tid
    }

    /// The handle's stats row (the owning handle is its only writer).
    pub fn stats(&self) -> &ThreadStats {
        &self.entry.stats
    }

    /// The handle's per-TM payload.
    pub fn payload(&self) -> &P {
        &self.entry.payload
    }
}

impl<P> Drop for Registration<P> {
    fn drop(&mut self) {
        let mut t = self.registry.table();
        let idx = self.entry.tid as usize - 1;
        // SAFETY: `entry` is taken once, here, and not touched again.
        // Dropping it before the tid is freed means the next holder of the
        // tid finds the entry unshared and can reset its payload.
        drop(unsafe { ManuallyDrop::take(&mut self.entry) });
        t[idx].live = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_aggregates_all_handles() {
        let reg = Arc::<Registry>::default();
        let t1 = reg.register();
        let t2 = reg.register();
        t1.stats().commits.add(3);
        t2.stats().commits.add(4);
        t2.stats().gave_up.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.commits, 7);
        assert_eq!(snap.gave_up, 1);
    }

    #[test]
    fn tids_are_handed_out_lowest_free_first_from_one() {
        let reg = Arc::<Registry>::default();
        let handles: Vec<_> = (0..4).map(|_| reg.register()).collect();
        let tids: Vec<u64> = handles.iter().map(Registration::tid).collect();
        assert_eq!(tids, [1, 2, 3, 4], "tid 0 is never handed out");
        let [a, b, c, d] = <[_; 4]>::try_from(handles).unwrap();
        drop((b, d));
        assert_eq!(
            reg.register().tid(),
            2,
            "the lowest freed tid is handed out again"
        );
        let e = reg.register();
        assert_eq!(e.tid(), 2, "a dropped handle's tid is handed out again");
        assert_eq!(reg.register().tid(), 4);
        assert_eq!((a.tid(), c.tid()), (1, 3), "live tids stay put");
    }

    #[test]
    fn live_tids_are_never_handed_out_again() {
        let reg = Arc::<Registry>::default();
        let live: Vec<_> = (0..8).map(|_| reg.register()).collect();
        let mut seen = std::collections::HashSet::new();
        for h in &live {
            assert!((1..MAX_TID).contains(&h.tid()));
            assert!(seen.insert(h.tid()), "tid {} handed out twice", h.tid());
        }
        // Far more than a tid counter's wrap period of registrations.
        for _ in 0..2 * MAX_TID {
            let fresh = reg.register();
            assert!((1..MAX_TID).contains(&fresh.tid()));
            assert!(
                !seen.contains(&fresh.tid()),
                "live tid {} handed out again",
                fresh.tid()
            );
        }
    }

    #[test]
    fn snapshot_keeps_the_counts_of_dropped_handles() {
        let reg = Arc::<Registry>::default();
        let live = reg.register();
        live.stats().commits.inc();
        for _ in 0..1000 {
            reg.register().stats().commits.add(2);
            let len = reg.table().len();
            assert!(len <= 2, "the table grew to {len} entries");
        }
        assert_eq!(reg.snapshot().commits, 1 + 2 * 1000);
        live.stats().commits.inc();
        assert_eq!(reg.snapshot().commits, 2 + 2 * 1000, "live handle kept");
    }

    #[test]
    fn dropped_payloads_leave_the_fold_and_reused_ones_start_fresh() {
        let reg = Arc::<Registry<std::sync::atomic::AtomicU64>>::default();
        let sum = |reg: &Registry<std::sync::atomic::AtomicU64>| {
            reg.fold(0, |acc, p| {
                acc + p.load(std::sync::atomic::Ordering::Relaxed)
            })
        };
        let a = reg.register();
        a.payload().store(10, std::sync::atomic::Ordering::Relaxed);
        for _ in 0..100 {
            let dead = reg.register();
            dead.payload()
                .store(1_000, std::sync::atomic::Ordering::Relaxed);
            assert_eq!(sum(&reg), 1_010);
        }
        assert_eq!(sum(&reg), 10, "dropped payloads stop counting");
        let b = reg.register();
        assert_eq!((b.tid(), sum(&reg)), (2, 10), "tid 2's payload is reset");
    }

    #[test]
    fn registering_past_the_last_tid_panics_naming_the_live_count() {
        let reg = Arc::<Registry>::default();
        let live: Vec<_> = (0..CAPACITY).map(|_| reg.register()).collect();
        assert_eq!(live.last().map(Registration::tid), Some(MAX_TID - 1));
        let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| reg.register()));
        let msg = *full
            .expect_err("a full table must panic")
            .downcast::<String>()
            .unwrap();
        assert!(msg.contains("16382 live handles"), "{msg}");
        drop(live);
        assert_eq!(
            reg.register().tid(),
            1,
            "the table is usable after the panic"
        );
    }

    #[test]
    fn concurrent_handles_from_many_threads() {
        let reg = Arc::<Registry>::default();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let h = reg.register();
                    for _ in 0..1000 {
                        h.stats().starts.inc();
                        h.stats().commits.inc();
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.starts, 4000);
        assert_eq!(snap.commits, 4000);
    }
}
