//! Deferred Clock Transactional Locking (DCTL), Ramalhete & Correia,
//! PPoPP 2024 ("Scaling Up Transactions with Slower Clocks").
//!
//! DCTL is the unversioned STM whose performance Multiverse explicitly aims
//! to match on its unversioned path (paper §1, §3). Its ingredients:
//!
//! * *encounter-time* locking with in-place writes and an undo log,
//! * per-read validation of the stripe's versioned lock against the
//!   transaction's read clock (strictly-less-than rule),
//! * a **deferred clock**: the global clock is only incremented when a
//!   transaction aborts, which removes the commit-time clock contention of
//!   TL2/TinySTM,
//! * a **starvation-free irrevocable mode**: after a configurable number of
//!   consecutive aborts a transaction becomes irrevocable — it acquires a
//!   global token (only one irrevocable transaction at a time) and claims the
//!   stripe locks of the addresses it *reads* as well, so it can no longer be
//!   aborted by concurrent writers. The paper's evaluation (§5, "DCTL
//!   Starvation Freedom") attributes DCTL's huge variance to exactly this
//!   path, which this implementation reproduces.

use ebr::{Collector, LocalHandle, TxMem};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::backoff::SpinWait;
use tm_api::traits::Dtor;
use tm_api::txset::{LockedStripes, StripeReadSet, UndoLog};
use tm_api::{
    Abort, CachePadded, GlobalClock, Handle, LockTable, Protocol, StatsRegistry, ThreadStats,
    TmRuntime, TmStatsSnapshot, Transaction, TxKind, TxWord, DEFAULT_STRIPES,
};

/// Configuration of a [`DctlRuntime`].
#[derive(Debug, Clone)]
pub struct DctlConfig {
    /// Number of lock stripes.
    pub stripes: usize,
    /// Consecutive aborts of one operation before it escalates to the
    /// irrevocable path. The paper's evaluation uses 100.
    pub irrevocable_after: u64,
}

impl Default for DctlConfig {
    fn default() -> Self {
        Self {
            stripes: DEFAULT_STRIPES,
            irrevocable_after: 100,
        }
    }
}

/// Shared state of the DCTL STM.
#[derive(Debug)]
pub struct DctlRuntime {
    clock: GlobalClock,
    locks: LockTable,
    stats: StatsRegistry,
    ebr: Arc<Collector>,
    next_tid: AtomicU64,
    /// Owner tid of the single irrevocable slot, 0 when free.
    irrevocable_owner: CachePadded<AtomicU64>,
    config: DctlConfig,
}

impl DctlRuntime {
    /// Create a DCTL runtime with the given configuration.
    pub fn new(config: DctlConfig) -> Self {
        Self {
            clock: GlobalClock::new(),
            locks: LockTable::new(config.stripes),
            stats: StatsRegistry::new(),
            ebr: Arc::new(Collector::new()),
            next_tid: AtomicU64::new(1),
            irrevocable_owner: CachePadded::new(AtomicU64::new(0)),
            config,
        }
    }

    /// Create a DCTL runtime with the paper's default parameters.
    pub fn with_defaults() -> Self {
        Self::new(DctlConfig::default())
    }

    fn acquire_irrevocable(&self, tid: u64) {
        let mut spin = SpinWait::new();
        while self
            .irrevocable_owner
            .compare_exchange(0, tid, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            spin.spin();
        }
    }

    fn release_irrevocable(&self, tid: u64) {
        let _ =
            self.irrevocable_owner
                .compare_exchange(tid, 0, Ordering::AcqRel, Ordering::Acquire);
    }
}

/// DCTL transaction descriptor.
pub struct DctlTx {
    rt: Arc<DctlRuntime>,
    tid: u64,
    stats: Arc<ThreadStats>,
    ebr: LocalHandle,
    mem: TxMem,
    rv: u64,
    read_set: StripeReadSet,
    undo: UndoLog,
    locked: LockedStripes,
    reads: u64,
    irrevocable: bool,
}

impl DctlTx {
    /// Acquire `idx` for this transaction, spinning until the current holder
    /// releases it. Only used on the irrevocable path.
    fn lock_stripe_blocking(&mut self, idx: usize) {
        if self.locked.contains(idx) {
            return;
        }
        let mut spin = SpinWait::new();
        loop {
            match self.rt.locks.lock_at(idx).try_lock(self.tid, false) {
                Ok(_prev) => {
                    self.locked.push(idx);
                    return;
                }
                Err(st) if st.locked && st.tid == self.tid => {
                    return;
                }
                Err(_) => spin.spin(),
            }
        }
    }
}

impl Transaction for DctlTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.reads += 1;
        self.stats.reads.inc();
        let idx = self.rt.locks.index_of(word.addr());
        if self.irrevocable {
            // Irrevocable transactions claim locks on reads so that they can
            // never be invalidated (and can therefore never abort).
            self.lock_stripe_blocking(idx);
            let val = word.tm_load();
            tm_api::record::on_read(word.addr(), val);
            return Ok(val);
        }
        let val = word.tm_load();
        fence(Ordering::Acquire);
        let st = self.rt.locks.lock_at(idx).load();
        if !st.validate(self.rv, self.tid) {
            return Err(Abort);
        }
        self.read_set.push(idx);
        tm_api::record::on_read(word.addr(), val);
        Ok(val)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.stats.writes.inc();
        let idx = self.rt.locks.index_of(word.addr());
        let lock = self.rt.locks.lock_at(idx);
        let st = lock.load();
        let owned = st.locked && st.tid == self.tid;
        if !owned {
            if self.irrevocable {
                self.lock_stripe_blocking(idx);
            } else {
                if !st.validate(self.rv, self.tid) {
                    return Err(Abort);
                }
                match lock.try_lock(self.tid, false) {
                    Ok(prev) => {
                        if prev.version >= self.rv {
                            // Someone committed to this stripe after we read
                            // the clock; keep the strictly-less-than rule.
                            lock.unlock_restore(prev);
                            return Err(Abort);
                        }
                        self.locked.push(idx);
                    }
                    Err(_) => return Err(Abort),
                }
            }
        }
        self.undo.push(word, word.tm_load());
        word.tm_store(value);
        tm_api::record::on_write(word.addr(), value);
        Ok(())
    }

    fn defer_alloc(&mut self, ptr: *mut u8, dtor: Dtor) {
        self.mem.record_alloc(ptr, dtor, 0);
    }

    fn defer_retire(&mut self, ptr: *mut u8, dtor: Dtor) {
        self.mem.record_retire(ptr, dtor, 0);
    }

    fn read_count(&self) -> u64 {
        self.reads
    }
}

impl Protocol for DctlTx {
    /// Past `irrevocable_after` attempts, the attempt first takes the single
    /// irrevocability token; `commit` and `abort` give it back.
    fn begin(&mut self, _kind: TxKind, attempt: u64) {
        self.irrevocable = attempt >= self.rt.config.irrevocable_after;
        if self.irrevocable {
            self.rt.acquire_irrevocable(self.tid);
        }
        self.stats.starts.inc();
        self.ebr.pin();
        self.read_set.clear();
        self.undo.clear();
        debug_assert!(self.locked.is_empty());
        self.reads = 0;
        self.rv = self.rt.clock.read();
    }

    fn try_commit(&mut self) -> TxResult<()> {
        // A transaction that claimed no stripe locks (read-only, or an
        // updater that never wrote) has nothing to validate or release:
        // per-read validation already guarantees its consistency. Note that
        // *irrevocable* read-only transactions do hold locks (they lock on
        // read) and must fall through to the release below.
        if self.locked.is_empty() {
            return Ok(());
        }
        if !self.irrevocable {
            for &idx in &self.read_set {
                let st = self.rt.locks.lock_at(idx).load();
                if !st.validate(self.rv, self.tid) {
                    return Err(Abort);
                }
            }
        }
        let commit_clock = self.rt.clock.read();
        self.locked.release_all(&self.rt.locks, commit_clock);
        Ok(())
    }

    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.undo.clear();
        self.read_set.clear();
        self.ebr.unpin();
        if self.irrevocable {
            self.rt.release_irrevocable(self.tid);
            self.stats.irrevocable_commits.inc();
        }
    }

    fn abort(&mut self) {
        self.undo.rollback();
        self.mem.on_abort();
        // Deferred clock: the clock only advances on aborts, ensuring retries
        // observe a fresher read clock (Listing 1 of the Multiverse paper,
        // which inherits this from DCTL).
        let next_clock = self.rt.clock.increment();
        self.locked.release_all(&self.rt.locks, next_clock);
        self.read_set.clear();
        self.ebr.unpin();
        if self.irrevocable {
            // Only explicit user aborts can get here; the token must still be
            // released.
            self.rt.release_irrevocable(self.tid);
        }
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }
}

impl TmRuntime for DctlRuntime {
    type Handle = Handle<DctlTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        let tid = (self.next_tid.fetch_add(1, Ordering::Relaxed)) & tm_api::MAX_TID;
        Handle::new(DctlTx {
            rt: Arc::clone(self),
            tid,
            stats: self.stats.register(),
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            rv: 0,
            read_set: StripeReadSet::new(),
            undo: UndoLog::default(),
            locked: LockedStripes::default(),
            reads: 0,
            irrevocable: false,
        })
    }

    fn name(&self) -> &'static str {
        "DCTL"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{TVar, TmHandle};

    fn runtime() -> Arc<DctlRuntime> {
        Arc::new(DctlRuntime::new(DctlConfig {
            stripes: 1 << 12,
            irrevocable_after: 100,
        }))
    }

    #[test]
    fn basic_read_write() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(2u64);
        let doubled = h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&x, v * 2)?;
            tx.read_var(&x)
        });
        assert_eq!(doubled, 4);
        assert_eq!(x.load_direct(), 4);
    }

    #[test]
    fn encounter_time_writes_are_in_place_and_rolled_back() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(1u64);
        let out = h.txn_budget(TxKind::ReadWrite, 1, |tx| {
            tx.write_var(&x, 42)?;
            // Encounter-time locking writes in place immediately.
            assert_eq!(x.load_direct(), 42);
            Err::<(), _>(Abort)
        });
        assert!(!out.is_committed());
        assert_eq!(x.load_direct(), 1, "undo log restored the old value");
    }

    #[test]
    fn clock_only_advances_on_aborts() {
        let rt = runtime();
        let mut h = rt.register();
        // Commits to *distinct* locations never touch the clock.
        let vars: Vec<TVar<u64>> = (0..10).map(|_| TVar::new(0)).collect();
        let before = rt.clock.read();
        for (i, v) in vars.iter().enumerate() {
            h.txn(TxKind::ReadWrite, |tx| tx.write_var(v, i as u64));
        }
        assert_eq!(
            rt.clock.read(),
            before,
            "deferred clock: commits do not move the clock"
        );
        // An abort advances it by exactly one.
        let _ = h.txn_budget(TxKind::ReadWrite, 1, |tx| {
            tx.write_var(&vars[0], 1)?;
            Err::<(), _>(Abort)
        });
        assert_eq!(rt.clock.read(), before + 1, "aborts advance the clock");
    }

    #[test]
    fn concurrent_counter_increments() {
        let rt = runtime();
        let counter = Arc::new(TVar::new(0u64));
        let threads = 4;
        let per = 2000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let rt = Arc::clone(&rt);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut h = rt.register();
                    for _ in 0..per {
                        h.txn(TxKind::ReadWrite, |tx| {
                            let v = tx.read_var(&*counter)?;
                            tx.write_var(&*counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load_direct(), threads * per);
    }

    #[test]
    fn irrevocable_path_commits_under_forced_conflicts() {
        // Force a tiny irrevocable threshold so the path is exercised. The
        // original formulation of this test relied on 4 racing incrementers
        // producing two *consecutive* aborts of one operation, which is
        // timing-dependent and flaky on fast machines; instead we manufacture
        // the conflict deterministically by holding the counter's stripe lock
        // until the victim has aborted past the threshold.
        let rt = Arc::new(DctlRuntime::new(DctlConfig {
            stripes: 1 << 8,
            irrevocable_after: 2,
        }));
        let counter = Arc::new(TVar::new(0u64));
        let idx = rt.locks.index_of(counter.word().addr());
        // Hold the stripe with a foreign tid so every optimistic attempt of
        // the victim fails validation.
        rt.locks
            .lock_at(idx)
            .try_lock(tm_api::MAX_TID - 1, false)
            .expect("stripe lock is free at test start");
        std::thread::scope(|s| {
            let rt2 = Arc::clone(&rt);
            let counter2 = Arc::clone(&counter);
            s.spawn(move || {
                let mut h = rt2.register();
                // Aborts twice (threshold), escalates to the irrevocable path,
                // then spins on the stripe lock until the holder releases it.
                h.txn(TxKind::ReadWrite, |tx| {
                    let v = tx.read_var(&*counter2)?;
                    tx.write_var(&*counter2, v + 1)
                });
            });
            // Wait until the victim has burned its optimistic attempts, then
            // release the stripe so the irrevocable attempt can proceed.
            while rt.stats().aborts < 2 {
                std::thread::yield_now();
            }
            rt.locks.lock_at(idx).unlock_with_version(0);
        });
        assert_eq!(counter.load_direct(), 1);
        assert_eq!(rt.stats().irrevocable_commits, 1);
    }

    #[test]
    fn two_variable_invariant_preserved() {
        // x + y must stay constant under concurrent transfers.
        let rt = runtime();
        let x = Arc::new(TVar::new(500u64));
        let y = Arc::new(TVar::new(500u64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rt = Arc::clone(&rt);
                let x = Arc::clone(&x);
                let y = Arc::clone(&y);
                s.spawn(move || {
                    let mut h = rt.register();
                    for i in 0..1000u64 {
                        let amount = (t + i) % 7;
                        h.txn(TxKind::ReadWrite, |tx| {
                            let a = tx.read_var(&*x)?;
                            let b = tx.read_var(&*y)?;
                            if a >= amount {
                                tx.write_var(&*x, a - amount)?;
                                tx.write_var(&*y, b + amount)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            // Concurrent read-only observers must always see the invariant.
            let rt2 = Arc::clone(&rt);
            let x2 = Arc::clone(&x);
            let y2 = Arc::clone(&y);
            s.spawn(move || {
                let mut h = rt2.register();
                for _ in 0..2000 {
                    let (a, b) = h.txn(TxKind::ReadOnly, |tx| {
                        Ok((tx.read_var(&*x2)?, tx.read_var(&*y2)?))
                    });
                    assert_eq!(a + b, 1000, "snapshot must preserve the invariant");
                }
            });
        });
        assert_eq!(x.load_direct() + y.load_direct(), 1000);
    }
}
