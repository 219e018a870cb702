//! Transactional Locking II (TL2), Dice, Shalev & Shavit, DISC 2006.
//!
//! TL2 is the canonical opaque, word-based, unversioned STM:
//!
//! * a global version clock incremented by writers at commit (we use the
//!   GV4 variant the paper's evaluation configures: a failed CAS on the clock
//!   adopts the winner's value instead of retrying),
//! * per-stripe versioned locks,
//! * *commit-time* locking with *buffered* (redo-log) writes,
//! * per-read validation of the stripe version against the transaction's
//!   read clock, plus commit-time revalidation of the read set for updaters.
//!
//! Read-only transactions validate as they go and need no commit-time work —
//! the property that makes the §4.5 reclamation race possible, which is why
//! every transaction attempt here is pinned in EBR.

use ebr::{Collector, LocalHandle, TxMem};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::traits::Dtor;
use tm_api::txset::InlineVec;
use tm_api::txset::{LockedStripes, RedoLog, StripeReadSet};
use tm_api::vlock::LockState;
use tm_api::{
    Abort, GlobalClock, Handle, LockTable, Protocol, StatsRegistry, ThreadStats, TmRuntime,
    TmStatsSnapshot, Transaction, TxKind, TxWord, DEFAULT_STRIPES,
};

/// Configuration of a [`Tl2Runtime`].
#[derive(Debug, Clone)]
pub struct Tl2Config {
    /// Number of lock stripes.
    pub stripes: usize,
}

impl Default for Tl2Config {
    fn default() -> Self {
        Self {
            stripes: DEFAULT_STRIPES,
        }
    }
}

/// Shared state of the TL2 STM.
#[derive(Debug)]
pub struct Tl2Runtime {
    clock: GlobalClock,
    locks: LockTable,
    stats: StatsRegistry,
    ebr: Arc<Collector>,
    next_tid: AtomicU64,
}

impl Tl2Runtime {
    /// Create a TL2 runtime with the given configuration.
    pub fn new(config: Tl2Config) -> Self {
        Self {
            clock: GlobalClock::new(),
            locks: LockTable::new(config.stripes),
            stats: StatsRegistry::new(),
            ebr: Arc::new(Collector::new()),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Create a TL2 runtime with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(Tl2Config::default())
    }
}

/// TL2 transaction descriptor (owned by the per-thread handle).
pub struct Tl2Tx {
    rt: Arc<Tl2Runtime>,
    tid: u64,
    stats: Arc<ThreadStats>,
    ebr: LocalHandle,
    mem: TxMem,
    read_set: StripeReadSet,
    redo: RedoLog,
    rv: u64,
    reads: u64,
}

fn release_acquired(rt: &Tl2Runtime, acquired: &[(usize, LockState)]) {
    for &(idx, prev) in acquired {
        rt.locks.lock_at(idx).unlock_restore(prev);
    }
}

impl Protocol for Tl2Tx {
    fn begin(&mut self, _kind: TxKind, _attempt: u64) {
        self.stats.starts.inc();
        self.ebr.pin();
        self.read_set.clear();
        self.redo.clear();
        self.reads = 0;
        self.rv = self.rt.clock.read();
    }

    /// Commit-time protocol for updating transactions. Returns `Err(Abort)`
    /// if the transaction must retry.
    fn try_commit(&mut self) -> TxResult<()> {
        if self.redo.is_empty() {
            return Ok(());
        }
        // Phase 1: acquire the write-set locks. The commit-local lists use
        // the same inline storage as the per-attempt logs, so commits of
        // small transactions allocate nothing.
        let mut acquired: InlineVec<(usize, LockState), 32> = InlineVec::new();
        let mut held = LockedStripes::default();
        for entry in self.redo.entries() {
            // Safety: words in the redo log stay alive while this attempt is
            // pinned in EBR.
            let addr = unsafe { (*entry.word).addr() };
            let idx = self.rt.locks.index_of(addr);
            if held.contains(idx) {
                continue; // stripe already locked by this commit (collision)
            }
            match self.rt.locks.lock_at(idx).try_lock(self.tid, false) {
                Ok(prev) => {
                    // TL2 also requires the stripe version to be older than
                    // the read clock (the write may have been preceded by a
                    // read of the same stripe that is not in the read set).
                    if prev.version > self.rv {
                        self.rt.locks.lock_at(idx).unlock_restore(prev);
                        release_acquired(&self.rt, acquired.as_slice());
                        return Err(Abort);
                    }
                    acquired.push((idx, prev));
                    held.push(idx);
                }
                Err(_) => {
                    release_acquired(&self.rt, acquired.as_slice());
                    return Err(Abort);
                }
            }
        }
        // Phase 2: obtain the write version.
        let tick = self.rt.clock.fetch_commit_gv4(self.rv);
        let wv = tick.value;
        // Phase 3: validate the read set. It is skippable only when this
        // commit itself moved the clock from `rv` to `rv + 1`, so no other
        // writer committed since we started. An adopted `rv + 1` (GV4's
        // failed CAS) proves nothing: the thread that advanced the clock
        // is committing concurrently and may have written our read set.
        if !(tick.advanced && wv == self.rv + 1) {
            for &idx in &self.read_set {
                let st = self.rt.locks.lock_at(idx).load();
                let mine = st.locked && st.tid == self.tid;
                let ok = mine || (!st.locked && st.version <= self.rv);
                if !ok {
                    release_acquired(&self.rt, acquired.as_slice());
                    return Err(Abort);
                }
            }
        }
        // Phase 4: write back the redo log and release with the new version.
        self.redo.write_back();
        for &(idx, _) in &acquired {
            self.rt.locks.lock_at(idx).unlock_with_version(wv);
        }
        Ok(())
    }

    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.read_set.clear();
        self.redo.clear();
        self.ebr.unpin();
    }

    fn abort(&mut self) {
        self.mem.on_abort();
        self.read_set.clear();
        self.redo.clear();
        self.ebr.unpin();
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }
}

impl Transaction for Tl2Tx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.reads += 1;
        self.stats.reads.inc();
        if let Some(v) = self.redo.lookup(word) {
            tm_api::record::on_read(word.addr(), v);
            return Ok(v);
        }
        let idx = self.rt.locks.index_of(word.addr());
        let lock = self.rt.locks.lock_at(idx);
        let raw1 = lock.load_raw();
        let st1 = LockState::decode(raw1);
        if st1.locked {
            return Err(Abort);
        }
        let val = word.tm_load();
        fence(Ordering::Acquire);
        let raw2 = lock.load_raw();
        if raw1 != raw2 || st1.version > self.rv {
            return Err(Abort);
        }
        self.read_set.push(idx);
        tm_api::record::on_read(word.addr(), val);
        Ok(val)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.stats.writes.inc();
        self.redo.insert(word, value);
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

impl TmRuntime for Tl2Runtime {
    type Handle = Handle<Tl2Tx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        let tid = self.next_tid.fetch_add(1, Ordering::Relaxed) & tm_api::MAX_TID;
        Handle::new(Tl2Tx {
            rt: Arc::clone(self),
            tid,
            stats: self.stats.register(),
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            read_set: StripeReadSet::new(),
            redo: RedoLog::default(),
            rv: 0,
            reads: 0,
        })
    }

    fn name(&self) -> &'static str {
        "TL2"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{TVar, TmHandle};

    fn runtime() -> Arc<Tl2Runtime> {
        Arc::new(Tl2Runtime::new(Tl2Config { stripes: 1 << 12 }))
    }

    #[test]
    fn read_write_commit_visible_after() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(7u64);
        let y = TVar::new(0u64);
        h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&y, v * 2)
        });
        assert_eq!(y.load_direct(), 14);
        assert_eq!(rt.stats().update_commits, 1);
    }

    #[test]
    fn buffered_writes_are_not_visible_before_commit() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(1u64);
        h.txn(TxKind::ReadWrite, |tx| {
            tx.write_var(&x, 99)?;
            // The in-memory value is untouched until commit (buffered writes).
            assert_eq!(x.load_direct(), 1);
            // ...but the transaction reads its own write.
            assert_eq!(tx.read_var(&x)?, 99);
            Ok(())
        });
        assert_eq!(x.load_direct(), 99);
    }

    #[test]
    fn read_only_transactions_commit_without_clock_advance() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(3u64);
        let before = rt.clock.read();
        let v = h.txn(TxKind::ReadOnly, |tx| tx.read_var(&x));
        assert_eq!(v, 3);
        assert_eq!(rt.clock.read(), before);
        assert_eq!(rt.stats().ro_commits, 1);
    }

    #[test]
    fn explicit_abort_discards_buffered_writes() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(5u64);
        let out = h.txn_budget(TxKind::ReadWrite, 2, |tx| {
            tx.write_var(&x, 50)?;
            Err::<(), _>(Abort)
        });
        assert!(!out.is_committed());
        assert_eq!(x.load_direct(), 5);
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
        assert!(rt.stats().commits >= threads * per);
    }

    #[test]
    fn disjoint_writers_do_not_conflict() {
        let rt = runtime();
        let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..64).map(|_| TVar::new(0)).collect());
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = Arc::clone(&rt);
                let vars = Arc::clone(&vars);
                s.spawn(move || {
                    let mut h = rt.register();
                    for i in 0..1000u64 {
                        let slot = &vars[(t * 16) + (i as usize % 16)];
                        h.txn(TxKind::ReadWrite, |tx| {
                            let v = tx.read_var(slot)?;
                            tx.write_var(slot, v + 1)
                        });
                    }
                });
            }
        });
        let total: u64 = vars.iter().map(|v| v.load_direct()).sum();
        assert_eq!(total, 4 * 1000);
    }
}
