//! NOrec (Dalessandro, Spear & Scott, PPoPP 2010).
//!
//! NOrec dispenses with per-address ownership records entirely: a single
//! global sequence lock orders writer commits, reads are validated *by value*
//! whenever the sequence number changes, and writes are buffered until commit.
//! It has very low per-access overhead and excellent performance at low
//! thread counts, but writer commits serialize on the global lock and long
//! transactions revalidate their whole read set every time any writer
//! commits — the behaviour the paper's long-range-query experiments expose.

use ebr::{Collector, LocalHandle, TxMem};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::backoff::SpinWait;
use tm_api::traits::Dtor;
use tm_api::txset::{RedoLog, ValueReadSet};
use tm_api::{
    Abort, CachePadded, Handle, Protocol, Registration, Registry, ThreadStats, TmRuntime,
    TmStatsSnapshot, Transaction, TxKind, TxWord,
};

/// Shared state of the NOrec STM: just the global sequence lock.
#[derive(Debug)]
pub struct NorecRuntime {
    seqlock: CachePadded<AtomicU64>,
    registry: Arc<Registry>,
    ebr: Arc<Collector>,
}

impl Default for NorecRuntime {
    fn default() -> Self {
        Self::new()
    }
}

impl NorecRuntime {
    /// Create a NOrec runtime.
    pub fn new() -> Self {
        Self {
            seqlock: CachePadded::new(AtomicU64::new(0)),
            registry: Arc::default(),
            ebr: Arc::new(Collector::new()),
        }
    }

    /// Create a NOrec runtime (alias kept for symmetry with the other TMs).
    pub fn with_defaults() -> Self {
        Self::new()
    }

    /// Spin until the sequence lock is even (no writer in its write-back
    /// phase) and return its value.
    fn wait_even(&self) -> u64 {
        let mut spin = SpinWait::new();
        loop {
            let s = self.seqlock.load(Ordering::Acquire);
            if s & 1 == 0 {
                return s;
            }
            spin.spin();
        }
    }
}

/// NOrec transaction descriptor.
pub struct NorecTx {
    rt: Arc<NorecRuntime>,
    reg: Registration,
    ebr: LocalHandle,
    mem: TxMem,
    rv: u64,
    reads_values: ValueReadSet,
    redo: RedoLog,
    reads: u64,
}

impl NorecTx {
    /// Value-based validation: wait for a quiescent (even) sequence number,
    /// re-read every recorded location, and return the new snapshot number.
    fn validate(&mut self) -> TxResult<u64> {
        loop {
            let t = self.rt.wait_even();
            if !self.reads_values.still_valid() {
                return Err(Abort);
            }
            if self.rt.seqlock.load(Ordering::Acquire) == t {
                return Ok(t);
            }
        }
    }
}

impl Protocol for NorecTx {
    fn begin(&mut self, _kind: TxKind, _attempt: u64) {
        self.reg.stats().starts.inc();
        self.ebr.pin();
        self.reads_values.clear();
        self.redo.clear();
        self.reads = 0;
        self.rv = self.rt.wait_even();
    }

    fn try_commit(&mut self) -> TxResult<()> {
        if self.redo.is_empty() {
            return Ok(());
        }
        // Become the exclusive writer: CAS the sequence lock from our
        // (validated) snapshot to odd.
        loop {
            match self.rt.seqlock.compare_exchange(
                self.rv,
                self.rv + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(_) => {
                    self.rv = self.validate()?;
                }
            }
        }
        self.redo.write_back();
        self.rt.seqlock.store(self.rv + 2, Ordering::Release);
        Ok(())
    }

    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.reads_values.clear();
        self.redo.clear();
        self.ebr.unpin();
    }

    fn abort(&mut self) {
        self.mem.on_abort();
        self.reads_values.clear();
        self.redo.clear();
        self.ebr.unpin();
    }

    fn stats(&self) -> &ThreadStats {
        self.reg.stats()
    }
}

impl Transaction for NorecTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.reads += 1;
        self.reg.stats().reads.inc();
        if let Some(v) = self.redo.lookup(word) {
            tm_api::record::on_read(word.addr(), v);
            return Ok(v);
        }
        let mut val = word.tm_load();
        while self.rt.seqlock.load(Ordering::Acquire) != self.rv {
            self.rv = self.validate()?;
            val = word.tm_load();
        }
        self.reads_values.push(word, val);
        tm_api::record::on_read(word.addr(), val);
        Ok(val)
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.reg.stats().writes.inc();
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

impl TmRuntime for NorecRuntime {
    type Handle = Handle<NorecTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        Handle::new(NorecTx {
            rt: Arc::clone(self),
            reg: self.registry.register(),
            ebr: LocalHandle::new(Arc::clone(&self.ebr)),
            mem: TxMem::new(),
            rv: 0,
            reads_values: ValueReadSet::default(),
            redo: RedoLog::default(),
            reads: 0,
        })
    }

    fn name(&self) -> &'static str {
        "NOrec"
    }

    fn stats(&self) -> TmStatsSnapshot {
        self.registry.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_api::{TVar, TmHandle};

    #[test]
    fn read_write_commit() {
        let rt = Arc::new(NorecRuntime::new());
        let mut h = rt.register();
        let x = TVar::new(1u64);
        h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&x, v + 1)
        });
        assert_eq!(x.load_direct(), 2);
    }

    #[test]
    fn sequence_lock_is_even_after_commits() {
        let rt = Arc::new(NorecRuntime::new());
        let mut h = rt.register();
        let x = TVar::new(0u64);
        for i in 0..5u64 {
            h.txn(TxKind::ReadWrite, |tx| tx.write_var(&x, i));
        }
        assert_eq!(rt.seqlock.load(Ordering::Acquire) % 2, 0);
        assert_eq!(rt.seqlock.load(Ordering::Acquire), 10);
    }

    #[test]
    fn buffered_writes_invisible_until_commit() {
        let rt = Arc::new(NorecRuntime::new());
        let mut h = rt.register();
        let x = TVar::new(7u64);
        h.txn(TxKind::ReadWrite, |tx| {
            tx.write_var(&x, 70)?;
            assert_eq!(x.load_direct(), 7);
            assert_eq!(tx.read_var(&x)?, 70);
            Ok(())
        });
        assert_eq!(x.load_direct(), 70);
    }

    #[test]
    fn value_based_validation_tolerates_silent_rewrites() {
        // A concurrent writer that writes the *same* value does not abort a
        // NOrec reader (value-based validation) — a behavioural difference
        // from the lock-based TMs worth pinning down in a test.
        let rt = Arc::new(NorecRuntime::new());
        let mut h1 = rt.register();
        let mut h2 = rt.register();
        let a = TVar::new(1u64);
        let b = TVar::new(2u64);
        let out = h1.txn(TxKind::ReadOnly, |tx| {
            let va = tx.read_var(&a)?;
            if b.load_direct() == 2 {
                // Writes a == 1 again (same value) and bumps the clock.
                h2.txn(TxKind::ReadWrite, |tx2| tx2.write_var(&a, 1));
            }
            let vb = tx.read_var(&b)?;
            Ok((va, vb))
        });
        assert_eq!(out, (1, 2));
        assert_eq!(rt.stats().aborts, 0);
    }

    #[test]
    fn concurrent_counter_increments() {
        let rt = Arc::new(NorecRuntime::new());
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

    #[test]
    fn invariant_preserved_under_concurrent_transfers() {
        let rt = Arc::new(NorecRuntime::new());
        let x = Arc::new(TVar::new(100u64));
        let y = Arc::new(TVar::new(100u64));
        std::thread::scope(|s| {
            for _ in 0..3 {
                let rt = Arc::clone(&rt);
                let x = Arc::clone(&x);
                let y = Arc::clone(&y);
                s.spawn(move || {
                    let mut h = rt.register();
                    for i in 0..1000u64 {
                        h.txn(TxKind::ReadWrite, |tx| {
                            let a = tx.read_var(&*x)?;
                            let b = tx.read_var(&*y)?;
                            let amt = i % 5;
                            if a >= amt {
                                tx.write_var(&*x, a - amt)?;
                                tx.write_var(&*y, b + amt)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
            let rt2 = Arc::clone(&rt);
            let x2 = Arc::clone(&x);
            let y2 = Arc::clone(&y);
            s.spawn(move || {
                let mut h = rt2.register();
                for _ in 0..2000 {
                    let (a, b) = h.txn(TxKind::ReadOnly, |tx| {
                        Ok((tx.read_var(&*x2)?, tx.read_var(&*y2)?))
                    });
                    assert_eq!(a + b, 200);
                }
            });
        });
        assert_eq!(x.load_direct() + y.load_direct(), 200);
    }
}
