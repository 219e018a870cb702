//! A TinySTM-style STM (Felber, Fetzer & Riegel, PPoPP 2008).
//!
//! Like DCTL this is a word-based, encounter-time-locking, undo-log STM with
//! per-stripe versioned locks; unlike DCTL it advances the global clock at
//! every writer commit and supports *snapshot extension*: when a read observes
//! a version newer than the read clock, the transaction revalidates its read
//! set and, if nothing it read has changed, extends its snapshot to the
//! current clock instead of aborting.

use ebr::{Collector, LocalHandle, TxMem};
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::traits::Dtor;
use tm_api::txset::InlineVec;
use tm_api::txset::{StripeReadSet, UndoLog};
use tm_api::vlock::LockState;
use tm_api::{
    Abort, GlobalClock, Handle, LockTable, Protocol, StatsRegistry, ThreadStats, TmRuntime,
    TmStatsSnapshot, Transaction, TxKind, TxWord, DEFAULT_STRIPES,
};

/// Configuration of a [`TinyStmRuntime`].
#[derive(Debug, Clone)]
pub struct TinyStmConfig {
    /// Number of lock stripes.
    pub stripes: usize,
}

impl Default for TinyStmConfig {
    fn default() -> Self {
        Self {
            stripes: DEFAULT_STRIPES,
        }
    }
}

/// Shared state of the TinySTM-style runtime.
#[derive(Debug)]
pub struct TinyStmRuntime {
    clock: GlobalClock,
    locks: LockTable,
    stats: StatsRegistry,
    ebr: Arc<Collector>,
    next_tid: AtomicU64,
}

impl TinyStmRuntime {
    /// Create a runtime with the given configuration.
    pub fn new(config: TinyStmConfig) -> Self {
        Self {
            clock: GlobalClock::new(),
            locks: LockTable::new(config.stripes),
            stats: StatsRegistry::new(),
            ebr: Arc::new(Collector::new()),
            next_tid: AtomicU64::new(1),
        }
    }

    /// Create a runtime with default configuration.
    pub fn with_defaults() -> Self {
        Self::new(TinyStmConfig::default())
    }
}

/// TinySTM transaction descriptor.
pub struct TinyStmTx {
    rt: Arc<TinyStmRuntime>,
    tid: u64,
    stats: Arc<ThreadStats>,
    ebr: LocalHandle,
    mem: TxMem,
    rv: u64,
    read_set: StripeReadSet,
    undo: UndoLog,
    /// Stripes locked by this transaction along with their pre-lock state, so
    /// aborts can restore the original version (values are also restored, so
    /// no version bump is necessary).
    locked: InlineVec<(usize, LockState), 32>,
    reads: u64,
}

impl TinyStmTx {
    /// Check every read stripe is ours, or free and stamped at or below the
    /// read clock (TinySTM's non-strict rule).
    fn validate_reads(&self) -> TxResult<()> {
        for &idx in &self.read_set {
            let st = self.rt.locks.lock_at(idx).load();
            let mine = st.locked && st.tid == self.tid;
            if !(mine || (!st.locked && st.version <= self.rv)) {
                return Err(Abort);
            }
        }
        Ok(())
    }

    /// Revalidate the read set against the *original* read clock and, if
    /// everything is unchanged, extend the snapshot to the current clock.
    fn try_extend(&mut self) -> TxResult<()> {
        let new_rv = self.rt.clock.read();
        self.validate_reads()?;
        self.rv = new_rv;
        Ok(())
    }
}

impl Protocol for TinyStmTx {
    fn begin(&mut self, _kind: TxKind, _attempt: u64) {
        self.stats.starts.inc();
        self.ebr.pin();
        self.read_set.clear();
        self.undo.clear();
        debug_assert!(self.locked.is_empty());
        self.reads = 0;
        self.rv = self.rt.clock.read();
    }

    fn try_commit(&mut self) -> TxResult<()> {
        if self.locked.is_empty() {
            return Ok(());
        }
        let wv = self.rt.clock.increment();
        if wv > self.rv + 1 {
            self.validate_reads()?;
        }
        for &(idx, _) in &self.locked {
            self.rt.locks.lock_at(idx).unlock_with_version(wv);
        }
        self.locked.clear();
        Ok(())
    }

    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.undo.clear();
        self.read_set.clear();
        self.ebr.unpin();
    }

    fn abort(&mut self) {
        self.undo.rollback();
        self.mem.on_abort();
        // Values were restored, so restoring the pre-lock versions is
        // consistent and avoids spurious invalidations of concurrent readers.
        for &(idx, prev) in self.locked.as_slice() {
            self.rt.locks.lock_at(idx).unlock_restore(prev);
        }
        self.locked.clear();
        self.read_set.clear();
        self.ebr.unpin();
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }
}

impl Transaction for TinyStmTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.reads += 1;
        self.stats.reads.inc();
        let idx = self.rt.locks.index_of(word.addr());
        loop {
            let val = word.tm_load();
            fence(Ordering::Acquire);
            let st = self.rt.locks.lock_at(idx).load();
            if st.locked {
                if st.tid == self.tid {
                    self.read_set.push(idx);
                    tm_api::record::on_read(word.addr(), val);
                    return Ok(val);
                }
                return Err(Abort);
            }
            if st.version <= self.rv {
                self.read_set.push(idx);
                tm_api::record::on_read(word.addr(), val);
                return Ok(val);
            }
            // The stripe is newer than our snapshot: try to extend it and
            // retry the read rather than aborting.
            self.try_extend()?;
        }
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.stats.writes.inc();
        let idx = self.rt.locks.index_of(word.addr());
        let st = self.rt.locks.lock_at(idx).load();
        let owned = st.locked && st.tid == self.tid;
        if !owned {
            if st.locked {
                return Err(Abort);
            }
            if st.version > self.rv {
                // Attempt a snapshot extension before giving up.
                self.try_extend()?;
            }
            match self.rt.locks.lock_at(idx).try_lock(self.tid, false) {
                Ok(prev) => {
                    if prev.version > self.rv {
                        self.rt.locks.lock_at(idx).unlock_restore(prev);
                        return Err(Abort);
                    }
                    self.locked.push((idx, prev));
                }
                Err(_) => return Err(Abort),
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

impl TmRuntime for TinyStmRuntime {
    type Handle = Handle<TinyStmTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        let tid = (self.next_tid.fetch_add(1, Ordering::Relaxed)) & tm_api::MAX_TID;
        Handle::new(TinyStmTx {
            rt: Arc::clone(self),
            tid,
            stats: self.stats.register(),
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            rv: 0,
            read_set: StripeReadSet::new(),
            undo: UndoLog::default(),
            locked: InlineVec::new(),
            reads: 0,
        })
    }

    fn name(&self) -> &'static str {
        "TinySTM"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{TVar, TmHandle};

    fn runtime() -> Arc<TinyStmRuntime> {
        Arc::new(TinyStmRuntime::new(TinyStmConfig { stripes: 1 << 12 }))
    }

    #[test]
    fn read_write_commit() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(10u64);
        h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&x, v + 1)
        });
        assert_eq!(x.load_direct(), 11);
    }

    #[test]
    fn commit_advances_clock() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(0u64);
        let before = rt.clock.read();
        h.txn(TxKind::ReadWrite, |tx| tx.write_var(&x, 5));
        assert!(rt.clock.read() > before);
    }

    #[test]
    fn snapshot_extension_allows_reading_fresh_data() {
        let rt = runtime();
        let mut h1 = rt.register();
        let mut h2 = rt.register();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        // h1 starts a transaction and reads `a`, then h2 commits a write to
        // `b`, advancing the clock past h1's read clock. Without extension,
        // h1's subsequent read of `b` would abort; with extension it succeeds
        // because nothing h1 read has changed.
        let got = h1.txn(TxKind::ReadOnly, |tx| {
            let va = tx.read_var(&a)?;
            // Only interfere on the first attempt.
            if va == 1 && b.load_direct() == 2 {
                h2.txn(TxKind::ReadWrite, |tx2| tx2.write_var(&b, 20));
            }
            let vb = tx.read_var(&b)?;
            Ok((va, vb))
        });
        assert_eq!(got.0, 1);
        assert!(got.1 == 20 || got.1 == 2);
        assert_eq!(rt.stats().aborts, 0, "extension should avoid the abort");
    }

    #[test]
    fn abort_restores_values_and_versions() {
        let rt = runtime();
        let mut h = rt.register();
        let x = TVar::new(3u64);
        let idx = rt.locks.index_of(x.word().addr());
        let version_before = rt.locks.lock_at(idx).load().version;
        let out = h.txn_budget(TxKind::ReadWrite, 1, |tx| {
            tx.write_var(&x, 33)?;
            Err::<(), _>(Abort)
        });
        assert!(!out.is_committed());
        assert_eq!(x.load_direct(), 3);
        assert_eq!(
            rt.locks.lock_at(idx).load().version,
            version_before,
            "aborts restore the original stripe version"
        );
    }

    #[test]
    fn concurrent_counter_increments() {
        let rt = runtime();
        let counter = Arc::new(TVar::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut h = rt.register();
                    for _ in 0..2000 {
                        h.txn(TxKind::ReadWrite, |tx| {
                            let v = tx.read_var(&*counter)?;
                            tx.write_var(&*counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load_direct(), 8000);
    }
}
