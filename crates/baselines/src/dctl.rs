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
//!
//! The unversioned protocol itself — validated reads, encounter-time stripe
//! locks and commit-time read-set validation — is [`tm_api::DctlCore`],
//! the same core Multiverse's unversioned path runs on. `DctlTx` is that
//! core plus the irrevocable path and DCTL's own commit and abort (the
//! `increment`-on-abort clock and the no-locks commit shortcut; see the
//! core's module docs for how the two TMs differ).

use ebr::{Collector, LocalHandle, TxMem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::backoff::SpinWait;
use tm_api::traits::Dtor;
use tm_api::{
    CachePadded, DctlCore, GlobalClock, Handle, LockTable, Protocol, Registration, Registry,
    ThreadStats, TmRuntime, TmStatsSnapshot, Transaction, TxKind, TxWord, DEFAULT_STRIPES,
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
    registry: Arc<Registry>,
    ebr: Arc<Collector>,
    /// Owner tid of the single irrevocable slot, 0 when free. 0 is never a
    /// live handle's tid (the registry hands out `1..=MAX_TID - 1`), so a
    /// nonzero value always names the one handle holding the token.
    irrevocable_owner: CachePadded<AtomicU64>,
    config: DctlConfig,
}

impl DctlRuntime {
    /// Create a DCTL runtime with the given configuration.
    pub fn new(config: DctlConfig) -> Self {
        Self {
            clock: GlobalClock::new(),
            locks: LockTable::new(config.stripes),
            registry: Arc::default(),
            ebr: Arc::new(Collector::new()),
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
    reg: Registration,
    ebr: LocalHandle,
    mem: TxMem,
    core: DctlCore,
    irrevocable: bool,
}

impl DctlTx {
    /// Acquire `idx` for this transaction, spinning until the current holder
    /// releases it. Only used on the irrevocable path.
    fn lock_stripe_blocking(&mut self, idx: usize) {
        if self.core.locked.contains(idx) {
            return;
        }
        let mut spin = SpinWait::new();
        loop {
            match self.rt.locks.lock_at(idx).try_lock(self.core.tid, false) {
                Ok(_prev) => {
                    self.core.locked.push(idx);
                    return;
                }
                Err(st) if st.locked && st.tid == self.core.tid => {
                    return;
                }
                Err(_) => spin.spin(),
            }
        }
    }
}

impl Transaction for DctlTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.core.reads += 1;
        self.reg.stats().reads.inc();
        let idx = self.rt.locks.index_of(word.addr());
        let val = if self.irrevocable {
            // Irrevocable transactions claim locks on reads so that they can
            // never be invalidated (and can therefore never abort).
            self.lock_stripe_blocking(idx);
            word.tm_load()
        } else {
            self.core.read(&self.rt.locks, word, idx)?
        };
        tm_api::record::on_read(word.addr(), val);
        Ok(val)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.reg.stats().writes.inc();
        let idx = self.rt.locks.index_of(word.addr());
        if self.irrevocable {
            self.lock_stripe_blocking(idx);
        } else {
            self.core.lock_for_write(&self.rt.locks, idx)?;
        }
        self.core.undo.push(word, word.tm_load());
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
        self.core.reads
    }
}

impl Protocol for DctlTx {
    /// Past `irrevocable_after` attempts, the attempt first takes the single
    /// irrevocability token; `commit` and `abort` give it back.
    fn begin(&mut self, _kind: TxKind, attempt: u64) {
        self.irrevocable = attempt >= self.rt.config.irrevocable_after;
        if self.irrevocable {
            self.rt.acquire_irrevocable(self.core.tid);
        }
        self.reg.stats().starts.inc();
        self.ebr.pin();
        self.core.reset();
        self.core.rv = self.rt.clock.read();
    }

    fn try_commit(&mut self) -> TxResult<()> {
        // A transaction that claimed no stripe locks (read-only, or an
        // updater that never wrote) has nothing to validate or release:
        // per-read validation already guarantees its consistency. Note that
        // *irrevocable* read-only transactions do hold locks (they lock on
        // read) and must fall through to the release below.
        if self.core.locked.is_empty() {
            return Ok(());
        }
        if !self.irrevocable {
            self.core.validate_reads(&self.rt.locks)?;
        }
        let commit_clock = self.rt.clock.read();
        self.core.locked.release_all(&self.rt.locks, commit_clock);
        Ok(())
    }

    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.core.undo.clear();
        self.core.read_set.clear();
        self.ebr.unpin();
        if self.irrevocable {
            self.rt.release_irrevocable(self.core.tid);
            self.reg.stats().irrevocable_commits.inc();
        }
    }

    fn abort(&mut self) {
        self.core.undo.rollback();
        self.mem.on_abort();
        // Deferred clock: the clock only advances on aborts, ensuring retries
        // observe a fresher read clock (Listing 1 of the Multiverse paper,
        // which inherits this from DCTL).
        let next_clock = self.rt.clock.increment();
        self.core.locked.release_all(&self.rt.locks, next_clock);
        self.core.read_set.clear();
        self.ebr.unpin();
        if self.irrevocable {
            // Only explicit user aborts can get here; the token must still be
            // released.
            self.rt.release_irrevocable(self.core.tid);
        }
    }

    fn stats(&self) -> &ThreadStats {
        self.reg.stats()
    }
}

impl TmRuntime for DctlRuntime {
    type Handle = Handle<DctlTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        let reg = self.registry.register();
        Handle::new(DctlTx {
            rt: Arc::clone(self),
            core: DctlCore::new(reg.tid()),
            reg,
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            irrevocable: false,
        })
    }

    fn name(&self) -> &'static str {
        "DCTL"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{Abort, TVar, TmHandle};

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
