//! The traits every TM in this repository implements, and the one retry loop
//! they all share.
//!
//! * [`TmRuntime`] — the shared, `Arc`-able runtime: global clock, lock
//!   table, background threads, statistics.
//! * [`TmHandle`] — a per-thread handle obtained from
//!   [`TmRuntime::register`]; owns the thread-local transaction descriptor
//!   and runs the retry loop.
//! * [`Transaction`] — the view of an in-flight transaction attempt passed to
//!   the user closure; provides transactional reads/writes and deferred
//!   allocation / reclamation hooks.
//! * [`Protocol`] — what a TM's descriptor adds to [`Transaction`]: the
//!   per-attempt begin / commit / abort hooks.
//! * [`Handle`] — the only [`TmHandle`] implementation. Every TM's
//!   `TmRuntime::Handle` is `Handle<ItsTx>`, so the retry loop, the budget,
//!   the backoff and the commit/abort counters exist exactly once.
//!
//! ## The `Protocol` contract
//!
//! [`Handle::txn_budget`](TmHandle::txn_budget) runs each attempt as:
//!
//! 1. budget check: once `max_attempts` attempts have run, count `gave_up`
//!    and return [`TxOutcome::GaveUp`];
//! 2. `record::on_begin`, then [`Protocol::begin`]`(kind, attempt)`, with
//!    `attempt` counting from 0 within one `txn_budget` call (so `0` marks a
//!    new operation);
//! 3. the body, then [`Protocol::try_commit`] if the body returned `Ok`;
//! 4. on success: `record::on_commit`, [`Protocol::commit`], then the
//!    `commits` and `ro_commits`/`update_commits` counters and a backoff
//!    reset;
//! 5. on failure of the body or of `try_commit`: [`Protocol::abort`],
//!    `record::on_abort`, the `aborts` counter and a backoff wait.
//!
//! After `commit` or `abort` returns, the descriptor must hold nothing the
//! attempt acquired: no stripe lock, global lock or irrevocability token,
//! and no EBR pin. Exactly one of the two follows every `begin`.
//!
//! `Handle` owns `gave_up`, `commits`, `aborts`, `ro_commits` and
//! `update_commits`. Everything else — `starts` (counted in `begin`),
//! `reads`, `writes` and every TM-specific counter — belongs to the
//! protocol.
//!
//! Transactional data structures (crate `txstructs`) and the benchmark
//! harness (crate `harness`) are generic over these traits, so the same
//! (a,b)-tree code runs unmodified on Multiverse, TL2, DCTL, NOrec, TinySTM
//! and the global-lock oracle.

use crate::abort::TxResult;
use crate::backoff::Backoff;
use crate::stats::{ThreadStats, TmStatsSnapshot};
use crate::txword::{TVar, TxWord, Word64};
use std::sync::Arc;

/// Whether a transaction intends to write.
///
/// The intent is declared when the transaction starts (data-structure
/// operations know whether they may update), which the TMs use for the
/// read-only fast paths (no commit-time revalidation, versioned-path
/// eligibility in Multiverse) and which the Multiverse background thread uses
/// when draining workers during mode transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// The transaction performs no transactional writes.
    ///
    /// A write inside a `ReadOnly` transaction is a caller bug. Multiverse
    /// refuses it with a panic before taking any lock: its Mode-U drain does
    /// not wait for read-only workers, so such a write could escape
    /// versioning. Every other backend commits the write as if the
    /// transaction were `ReadWrite`.
    ReadOnly,
    /// The transaction may perform transactional writes.
    ReadWrite,
}

/// Result of running a transaction with a bounded attempt budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome<R> {
    /// The transaction committed and produced a value.
    Committed(R),
    /// The attempt budget was exhausted; the transaction has no effect.
    GaveUp,
}

impl<R> TxOutcome<R> {
    /// Unwrap a committed value, panicking on [`TxOutcome::GaveUp`].
    pub fn unwrap(self) -> R {
        match self {
            TxOutcome::Committed(r) => r,
            TxOutcome::GaveUp => panic!("transaction gave up"),
        }
    }

    /// `true` if the transaction committed.
    pub fn is_committed(&self) -> bool {
        matches!(self, TxOutcome::Committed(_))
    }

    /// Convert to an `Option`, discarding the give-up case.
    pub fn committed(self) -> Option<R> {
        match self {
            TxOutcome::Committed(r) => Some(r),
            TxOutcome::GaveUp => None,
        }
    }
}

/// Destructor invoked when deferred memory is finally reclaimed.
pub type Dtor = unsafe fn(*mut u8);

/// One in-flight transaction attempt.
pub trait Transaction {
    /// Transactionally read a word.
    fn read(&mut self, word: &TxWord) -> TxResult<u64>;

    /// Transactionally write a word.
    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()>;

    /// Record a heap allocation made by this transaction. If the transaction
    /// aborts, `dtor(ptr)` is called immediately (the allocation never became
    /// visible); if it commits, nothing happens (the structure now owns it).
    fn defer_alloc(&mut self, ptr: *mut u8, dtor: Dtor);

    /// Record a node unlinked by this transaction. If the transaction
    /// commits, the node is retired through epoch-based reclamation and
    /// `dtor(ptr)` runs after a grace period; if it aborts, the retire is
    /// revoked (the node is still reachable).
    fn defer_retire(&mut self, ptr: *mut u8, dtor: Dtor);

    /// Whether this attempt runs on a versioned (snapshot) code path.
    fn is_versioned(&self) -> bool {
        false
    }

    /// Number of transactional reads performed so far in this attempt.
    fn read_count(&self) -> u64;

    /// Typed read helper.
    #[inline(always)]
    fn read_var<T: Word64>(&mut self, var: &TVar<T>) -> TxResult<T>
    where
        Self: Sized,
    {
        Ok(T::from_word(self.read(var.word())?))
    }

    /// Typed write helper.
    #[inline(always)]
    fn write_var<T: Word64>(&mut self, var: &TVar<T>, value: T) -> TxResult<()>
    where
        Self: Sized,
    {
        self.write(var.word(), value.to_word())
    }
}

/// A per-thread TM handle. Not `Send`-shared: each worker thread registers
/// its own handle via [`TmRuntime::register`].
pub trait TmHandle {
    /// The transaction-descriptor type handed to user closures. It is owned
    /// by the handle and reused across attempts (logs are cleared, not
    /// reallocated).
    type Tx: Transaction;

    /// Run `body` as a transaction of the given kind, retrying on abort at
    /// most `max_attempts` times.
    ///
    /// The closure may be invoked many times; it must not have side effects
    /// outside of transactional operations and the deferred alloc/retire
    /// hooks.
    fn txn_budget<R>(
        &mut self,
        kind: TxKind,
        max_attempts: u64,
        body: impl FnMut(&mut Self::Tx) -> TxResult<R>,
    ) -> TxOutcome<R>;

    /// Run `body` as a transaction, retrying until it commits.
    fn txn<R>(&mut self, kind: TxKind, body: impl FnMut(&mut Self::Tx) -> TxResult<R>) -> R {
        match self.txn_budget(kind, u64::MAX, body) {
            TxOutcome::Committed(r) => r,
            // With an effectively unbounded budget the only way to get here
            // would be a TM bug; fail loudly.
            TxOutcome::GaveUp => unreachable!("unbounded transaction gave up"),
        }
    }
}

/// The per-attempt hooks of a TM's transaction descriptor, driven by
/// [`Handle`]. See the [module docs](self) for the call order and what each
/// hook must leave released.
pub trait Protocol: Transaction {
    /// Start attempt `attempt` (0 for the first attempt of an operation) of
    /// a transaction of the given kind: count `starts`, pin, and take the
    /// snapshot.
    fn begin(&mut self, kind: TxKind, attempt: u64);

    /// Validate and publish the attempt after its body succeeded. `Err`
    /// aborts the attempt; `Ok` means it is linearized.
    fn try_commit(&mut self) -> TxResult<()> {
        Ok(())
    }

    /// Finish a committed attempt: hand off deferred memory, release what
    /// `try_commit` did not, unpin.
    fn commit(&mut self);

    /// Roll back a failed attempt and release everything it acquired.
    fn abort(&mut self);

    /// The calling thread's statistics.
    fn stats(&self) -> &ThreadStats;
}

/// The per-thread handle of every TM: a transaction descriptor plus the
/// backoff state of the one retry loop.
pub struct Handle<T> {
    tx: T,
    backoff: Backoff,
}

impl<T> Handle<T> {
    /// Wrap a freshly registered descriptor.
    pub fn new(tx: T) -> Self {
        Self {
            tx,
            backoff: Backoff::new(),
        }
    }
}

impl<T: Protocol> TmHandle for Handle<T> {
    type Tx = T;

    fn txn_budget<R>(
        &mut self,
        kind: TxKind,
        max_attempts: u64,
        mut body: impl FnMut(&mut T) -> TxResult<R>,
    ) -> TxOutcome<R> {
        for attempt in 0..max_attempts {
            crate::record::on_begin(kind);
            self.tx.begin(kind, attempt);
            match body(&mut self.tx).and_then(|r| self.tx.try_commit().map(|()| r)) {
                Ok(r) => {
                    crate::record::on_commit();
                    self.tx.commit();
                    let stats = self.tx.stats();
                    stats.commits.inc();
                    if kind == TxKind::ReadOnly {
                        stats.ro_commits.inc();
                    } else {
                        stats.update_commits.inc();
                    }
                    self.backoff.reset();
                    return TxOutcome::Committed(r);
                }
                Err(_) => {
                    self.tx.abort();
                    crate::record::on_abort();
                    self.tx.stats().aborts.inc();
                    self.backoff.abort_and_wait();
                }
            }
        }
        self.tx.stats().gave_up.inc();
        TxOutcome::GaveUp
    }
}

/// A shared TM runtime.
pub trait TmRuntime: Send + Sync + 'static {
    /// The per-thread handle type.
    type Handle: TmHandle;

    /// Register the calling thread and return its handle.
    fn register(self: &Arc<Self>) -> Self::Handle;

    /// Human-readable algorithm name ("Multiverse", "TL2", ...).
    fn name(&self) -> &'static str;

    /// Aggregate statistics across all threads registered so far.
    fn stats(&self) -> TmStatsSnapshot;

    /// Approximate bytes of TM metadata currently allocated on behalf of
    /// multiversioning (version lists, VLT nodes). Zero for unversioned TMs.
    fn versioning_bytes(&self) -> usize {
        0
    }

    /// Stop background threads (if any). Called once when a benchmark trial
    /// or test finishes; transactions must not be started afterwards.
    fn shutdown(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_outcome_helpers() {
        let c: TxOutcome<u32> = TxOutcome::Committed(3);
        assert!(c.is_committed());
        assert_eq!(c.committed(), Some(3));
        assert_eq!(TxOutcome::Committed(3).unwrap(), 3);
        let g: TxOutcome<u32> = TxOutcome::GaveUp;
        assert!(!g.is_committed());
        assert_eq!(g.committed(), None);
    }

    #[test]
    #[should_panic(expected = "transaction gave up")]
    fn unwrap_gave_up_panics() {
        let g: TxOutcome<u32> = TxOutcome::GaveUp;
        g.unwrap();
    }

    #[test]
    fn txkind_equality() {
        assert_eq!(TxKind::ReadOnly, TxKind::ReadOnly);
        assert_ne!(TxKind::ReadOnly, TxKind::ReadWrite);
    }

    /// One hook invocation seen by [`FakeTx`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Call {
        Begin(TxKind, u64),
        TryCommit,
        Commit,
        Abort,
    }

    /// A protocol with no TM behind it: it logs the calls `Handle` makes, counts
    /// `starts` as the contract asks, and fails `try_commit` on request.
    #[derive(Default)]
    struct FakeTx {
        calls: Vec<Call>,
        stats: ThreadStats,
        fail_commits: u64,
    }

    impl Transaction for FakeTx {
        fn read(&mut self, word: &TxWord) -> TxResult<u64> {
            Ok(word.load_direct())
        }
        fn write(&mut self, _word: &TxWord, _value: u64) -> TxResult<()> {
            Ok(())
        }
        fn defer_alloc(&mut self, _ptr: *mut u8, _dtor: Dtor) {}
        fn defer_retire(&mut self, _ptr: *mut u8, _dtor: Dtor) {}
        fn read_count(&self) -> u64 {
            0
        }
    }

    impl Protocol for FakeTx {
        fn begin(&mut self, kind: TxKind, attempt: u64) {
            self.stats.starts.inc();
            self.calls.push(Call::Begin(kind, attempt));
        }
        fn try_commit(&mut self) -> TxResult<()> {
            self.calls.push(Call::TryCommit);
            if self.fail_commits > 0 {
                self.fail_commits -= 1;
                return Err(crate::Abort);
            }
            Ok(())
        }
        fn commit(&mut self) {
            self.calls.push(Call::Commit);
        }
        fn abort(&mut self) {
            self.calls.push(Call::Abort);
        }
        fn stats(&self) -> &ThreadStats {
            &self.stats
        }
    }

    fn fake() -> Handle<FakeTx> {
        Handle::new(FakeTx::default())
    }

    #[test]
    fn attempts_are_numbered_in_order_and_hooks_run_in_contract_order() {
        use Call::*;
        let mut h = fake();
        // The body aborts twice, then try_commit fails once, then it commits.
        h.tx.fail_commits = 1;
        let mut runs = 0;
        let out = h.txn_budget(TxKind::ReadWrite, 10, |_| {
            runs += 1;
            if runs <= 2 {
                Err(crate::Abort)
            } else {
                Ok(runs)
            }
        });
        assert_eq!(out, TxOutcome::Committed(4));
        let rw = TxKind::ReadWrite;
        assert_eq!(
            h.tx.calls,
            [
                Begin(rw, 0),
                Abort,
                Begin(rw, 1),
                Abort,
                Begin(rw, 2),
                TryCommit,
                Abort,
                Begin(rw, 3),
                TryCommit,
                Commit
            ]
        );
        // The next operation numbers its attempts from 0 again.
        h.tx.calls.clear();
        h.txn(TxKind::ReadOnly, |_| Ok(()));
        assert_eq!(h.tx.calls, [Begin(TxKind::ReadOnly, 0), TryCommit, Commit]);
    }

    #[test]
    fn zero_budget_gives_up_without_beginning() {
        let mut h = fake();
        let out = h.txn_budget(TxKind::ReadWrite, 0, |_| Ok(()));
        assert_eq!(out, TxOutcome::GaveUp);
        assert!(h.tx.calls.is_empty());
        let s = h.tx.stats.snapshot();
        assert_eq!((s.gave_up, s.starts, s.aborts), (1, 0, 0));
    }

    #[test]
    fn exhausted_budget_counts_one_give_up_and_every_abort() {
        let mut h = fake();
        let out = h.txn_budget(TxKind::ReadWrite, 3, |_| Err::<(), _>(crate::Abort));
        assert_eq!(out, TxOutcome::GaveUp);
        let s = h.tx.stats.snapshot();
        assert_eq!((s.starts, s.aborts, s.gave_up, s.commits), (3, 3, 1, 0));
        let begins: Vec<u64> =
            h.tx.calls
                .iter()
                .filter_map(|c| match c {
                    Call::Begin(_, a) => Some(*a),
                    _ => None,
                })
                .collect();
        assert_eq!(begins, [0, 1, 2]);
    }

    #[test]
    fn commits_are_counted_by_kind() {
        let mut h = fake();
        h.txn(TxKind::ReadOnly, |_| Ok(()));
        h.txn(TxKind::ReadWrite, |_| Ok(()));
        h.txn(TxKind::ReadWrite, |_| Ok(()));
        let s = h.tx.stats.snapshot();
        assert_eq!((s.commits, s.ro_commits, s.update_commits), (3, 1, 2));
        assert_eq!(s.aborts, 0);
    }

    #[test]
    fn a_commit_resets_the_backoff() {
        let mut h = fake();
        let _ = h.txn_budget(TxKind::ReadWrite, 2, |_| Err::<(), _>(crate::Abort));
        assert_eq!(h.backoff.consecutive_aborts(), 2);
        h.txn(TxKind::ReadWrite, |_| Ok(()));
        assert_eq!(h.backoff.consecutive_aborts(), 0);
    }
}
