//! A single-global-lock "TM".
//!
//! Not one of the paper's comparison points: this runtime exists so the test
//! suite has a trivially correct, serial oracle with the same interface as
//! the real STMs. Transactions take one global mutex for their whole
//! duration, so every history is serial by construction.

use ebr::{Collector, LocalHandle, TxMem};
use parking_lot::Mutex;
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::traits::Dtor;
use tm_api::txset::UndoLog;
use tm_api::{
    Handle, Protocol, Registration, Registry, ThreadStats, TmRuntime, TmStatsSnapshot, Transaction,
    TxKind, TxWord,
};

/// Shared state of the global-lock TM.
#[derive(Debug)]
pub struct GlockRuntime {
    mutex: Mutex<()>,
    registry: Arc<Registry>,
    ebr: Arc<Collector>,
}

impl Default for GlockRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl GlockRuntime {
    /// Create a new global-lock runtime.
    pub fn new() -> Self {
        Self {
            mutex: Mutex::new(()),
            registry: Arc::default(),
            ebr: Arc::new(Collector::new()),
        }
    }
}

/// Transaction descriptor of the global-lock TM.
pub struct GlockTx {
    rt: Arc<GlockRuntime>,
    reg: Registration,
    ebr: LocalHandle,
    mem: TxMem,
    undo: UndoLog,
    reads: u64,
}

impl GlockTx {
    fn release(&mut self) {
        // Safety: `begin` forgot the guard, so the mutex is held by us.
        unsafe { self.rt.mutex.force_unlock() };
        self.ebr.unpin();
    }
}

impl Protocol for GlockTx {
    fn begin(&mut self, _kind: TxKind, _attempt: u64) {
        self.reg.stats().starts.inc();
        self.ebr.pin();
        // Safety of the raw lock/unlock pairing: `Handle` follows every
        // `begin` with exactly one `commit` or `abort`, and both release.
        std::mem::forget(self.rt.mutex.lock());
        self.reads = 0;
    }

    fn commit(&mut self) {
        self.undo.clear();
        self.mem.on_commit(&mut self.ebr);
        self.release();
    }

    fn abort(&mut self) {
        self.undo.rollback();
        self.mem.on_abort();
        self.release();
    }

    fn stats(&self) -> &ThreadStats {
        self.reg.stats()
    }
}

impl Transaction for GlockTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.reads += 1;
        self.reg.stats().reads.inc();
        let val = word.tm_load();
        tm_api::record::on_read(word.addr(), val);
        Ok(val)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.reg.stats().writes.inc();
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

impl TmRuntime for GlockRuntime {
    type Handle = Handle<GlockTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        Handle::new(GlockTx {
            rt: Arc::clone(self),
            reg: self.registry.register(),
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            undo: UndoLog::default(),
            reads: 0,
        })
    }

    fn name(&self) -> &'static str {
        "GlobalLock"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{TVar, TmHandle, TxOutcome};

    #[test]
    fn simple_read_write_commit() {
        let rt = Arc::new(GlockRuntime::new());
        let mut h = rt.register();
        let x = TVar::new(1u64);
        let got = h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&x, v + 10)?;
            tx.read_var(&x)
        });
        assert_eq!(got, 11);
        assert_eq!(x.load_direct(), 11);
        assert_eq!(rt.stats().commits, 1);
    }

    #[test]
    fn explicit_abort_rolls_back_and_gives_up() {
        let rt = Arc::new(GlockRuntime::new());
        let mut h = rt.register();
        let x = TVar::new(5u64);
        let out = h.txn_budget(TxKind::ReadWrite, 3, |tx| {
            tx.write_var(&x, 99)?;
            Err::<(), _>(tm_api::Abort)
        });
        assert_eq!(out, TxOutcome::GaveUp);
        assert_eq!(x.load_direct(), 5, "writes rolled back on abort");
        assert_eq!(rt.stats().aborts, 3);
        assert_eq!(rt.stats().gave_up, 1);
    }

    #[test]
    fn concurrent_increments_are_atomic() {
        let rt = Arc::new(GlockRuntime::new());
        let counter = Arc::new(TVar::new(0u64));
        let threads = 4;
        let per = 1000;
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
}
