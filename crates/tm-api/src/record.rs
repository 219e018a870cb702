//! # record — per-transaction history recording (feature `record`)
//!
//! The offline opacity/serializability checker (`harness::checker`) needs a
//! faithful log of what every transaction attempt *observed*: begin, each
//! read (address and returned value), each write (address and value to take
//! effect at commit), and the final commit or abort. Every TM in the
//! repository calls the hook functions in this module from its read/write
//! paths; begin/commit/abort are recorded by the shared retry loop
//! ([`crate::Handle`]).
//!
//! ## Cost model
//!
//! * **Feature disabled (default):** this module is replaced by empty
//!   `#[inline(always)]` stubs. No recording code exists in the binary; the
//!   hot paths are byte-for-byte what they were before the hooks were added.
//!   `ENABLED` is `false`, which `crates/tm-api/tests/txset_alloc.rs` pins.
//! * **Feature enabled, recording inactive:** one relaxed atomic load and an
//!   untaken branch per hook. No allocation, no stores.
//! * **Recording active:** events are pushed to a **per-thread**
//!   [`InlineVec`](crate::InlineVec)-backed buffer — no locks and no
//!   shared-memory writes on the event path (the checker orders
//!   transactions by data dependencies, so events need no global
//!   timestamps). Buffers are drained into the global collector when the
//!   recording session finishes (`RecordingGuard::finish`, for the calling
//!   thread), when a worker calls [`flush_thread`], or when a recording
//!   thread exits (TLS drop), i.e. post-run — never on the transaction path.
//!
//! ## Sessions
//!
//! `start` acquires a process-wide session lock, so concurrent tests that
//! both record serialize instead of interleaving garbage. Transactions run by
//! *unrelated* threads of the same process during an active session do get
//! recorded (the active flag is global); the checker filters events down to
//! the addresses of the scenario under test, so foreign attempts reduce to
//! empty attempts and are dropped.

#[cfg(feature = "record")]
pub use enabled::*;

#[cfg(not(feature = "record"))]
pub use disabled::*;

/// The real recorder.
#[cfg(feature = "record")]
mod enabled {
    use crate::traits::TxKind;
    use crate::txset::InlineVec;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, MutexGuard};

    /// `true` iff the `record` feature is compiled in.
    pub const ENABLED: bool = true;

    /// One recorded transaction event.
    ///
    /// Events carry no global timestamps: the checker orders transactions by
    /// data dependencies alone (real-time recency is deliberately unchecked
    /// under the deferred clock — see `harness::checker`), and omitting a
    /// shared stamp counter keeps the event path free of cross-thread
    /// writes.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Event {
        /// An attempt started.
        Begin { kind: TxKind },
        /// A transactional read returned `value` for the word at `addr`.
        Read { addr: usize, value: u64 },
        /// A transactional write of `value` to the word at `addr` was
        /// accepted (it takes effect if the attempt commits).
        Write { addr: usize, value: u64 },
        /// The attempt committed.
        Commit,
        /// The attempt aborted (conflict or explicit); its writes rolled
        /// back / were discarded.
        Abort,
    }

    /// The events recorded by one thread during one recording session, in
    /// program order.
    #[derive(Debug)]
    pub struct ThreadLog {
        /// Dense label of the recording thread (assignment order, not an OS
        /// tid).
        pub thread: u64,
        /// The thread's events in the order they happened on that thread.
        pub events: Vec<Event>,
    }

    /// Inline capacity of the per-thread event buffer. Most scenario threads
    /// spill (histories are long); the spill buffer is reused for the whole
    /// thread lifetime, so steady-state pushes never allocate either way.
    const BUF_INLINE: usize = 256;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static RUN_ID: AtomicU64 = AtomicU64::new(0);
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
    static COLLECTOR: Mutex<Vec<(u64, ThreadLog)>> = Mutex::new(Vec::new());
    static SESSION: Mutex<()> = Mutex::new(());

    struct LocalBuf {
        run: u64,
        thread: u64,
        events: InlineVec<Event, BUF_INLINE>,
    }

    impl LocalBuf {
        fn flush(&mut self) {
            if self.events.is_empty() {
                return;
            }
            let log = ThreadLog {
                thread: self.thread,
                events: self.events.as_slice().to_vec(),
            };
            self.events.clear();
            lock_ignore_poison(&COLLECTOR).push((self.run, log));
        }
    }

    impl Drop for LocalBuf {
        fn drop(&mut self) {
            self.flush();
        }
    }

    thread_local! {
        static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
            run: 0,
            thread: NEXT_THREAD.fetch_add(1, Ordering::Relaxed),
            events: InlineVec::new(),
        });
    }

    /// A panicking test may poison these mutexes; the data is still sound
    /// (plain Vec pushes), so recover instead of cascading the panic.
    fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether a recording session is currently active.
    #[inline(always)]
    pub fn is_active() -> bool {
        ACTIVE.load(Ordering::Relaxed)
    }

    #[inline(never)]
    fn push(ev: Event) {
        let run = RUN_ID.load(Ordering::Relaxed);
        LOCAL.with(|b| {
            let mut b = b.borrow_mut();
            if b.run != run {
                // Events left from an earlier session that was finished
                // before this thread flushed are stale; drop them.
                b.events.clear();
                b.run = run;
            }
            b.events.push(ev);
        });
    }

    /// Record the start of a transaction attempt. Call before the attempt
    /// takes its snapshot (read clock, seqlock, ...).
    #[inline(always)]
    pub fn on_begin(kind: TxKind) {
        if is_active() {
            push(Event::Begin { kind });
        }
    }

    /// Record a successful transactional read.
    #[inline(always)]
    pub fn on_read(addr: usize, value: u64) {
        if is_active() {
            push(Event::Read { addr, value });
        }
    }

    /// Record an accepted transactional write.
    #[inline(always)]
    pub fn on_write(addr: usize, value: u64) {
        if is_active() {
            push(Event::Write { addr, value });
        }
    }

    /// Record a successful commit. Call after the commit's linearization
    /// point (i.e. once `try_commit` has succeeded).
    #[inline(always)]
    pub fn on_commit() {
        if is_active() {
            push(Event::Commit);
        }
    }

    /// Record an aborted attempt (after rollback).
    #[inline(always)]
    pub fn on_abort() {
        if is_active() {
            push(Event::Abort);
        }
    }

    /// Drain the calling thread's buffer into the collector.
    ///
    /// Worker threads must call this when their recorded work is done.
    /// The TLS-drop flush alone is not enough for `std::thread::scope`
    /// workers: the scope unblocks when the worker *closure* returns, while
    /// TLS destructors run afterwards during thread shutdown — so a
    /// drop-flush can race past the session's `finish()` and lose the whole
    /// thread log.
    pub fn flush_thread() {
        LOCAL.with(|b| b.borrow_mut().flush());
    }

    /// An active recording session. Ends (and yields the recorded logs) via
    /// [`finish`](Self::finish); dropping it without finishing discards the
    /// session.
    pub struct RecordingGuard {
        _session: MutexGuard<'static, ()>,
    }

    /// Start a recording session. Blocks while another session is active
    /// (sessions are process-wide).
    pub fn start() -> RecordingGuard {
        let session = lock_ignore_poison(&SESSION);
        lock_ignore_poison(&COLLECTOR).clear();
        RUN_ID.fetch_add(1, Ordering::SeqCst);
        ACTIVE.store(true, Ordering::SeqCst);
        RecordingGuard { _session: session }
    }

    impl RecordingGuard {
        /// Stop recording and return every thread's events.
        ///
        /// Worker threads must have called [`flush_thread`] (or fully
        /// exited, which flushes via TLS drop — note the scoped-thread
        /// caveat on [`flush_thread`]) before this; the calling thread is
        /// flushed here. A thread that is still mid-transaction contributes
        /// whatever it flushes by its next session boundary — scenario
        /// drivers flush and join their workers first, so scenario events
        /// are complete.
        pub fn finish(self) -> Vec<ThreadLog> {
            ACTIVE.store(false, Ordering::SeqCst);
            let run = RUN_ID.load(Ordering::SeqCst);
            LOCAL.with(|b| b.borrow_mut().flush());
            let mut collector = lock_ignore_poison(&COLLECTOR);
            collector
                .drain(..)
                .filter(|(r, _)| *r == run)
                .map(|(_, log)| log)
                .collect()
        }
    }

    impl Drop for RecordingGuard {
        fn drop(&mut self) {
            ACTIVE.store(false, Ordering::SeqCst);
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn records_a_simple_attempt_and_clears_between_sessions() {
            let guard = start();
            on_begin(TxKind::ReadWrite);
            on_read(0x1000, 7);
            on_write(0x1000, 8);
            on_commit();
            let logs = guard.finish();
            let mine: Vec<&Event> = logs
                .iter()
                .flat_map(|l| l.events.iter())
                .filter(|e| {
                    matches!(
                        e,
                        Event::Read { addr: 0x1000, .. } | Event::Write { addr: 0x1000, .. }
                    ) || matches!(e, Event::Begin { .. } | Event::Commit | Event::Abort)
                })
                .collect();
            assert!(mine.iter().any(|e| matches!(
                e,
                Event::Read {
                    addr: 0x1000,
                    value: 7
                }
            )));
            assert!(mine.iter().any(|e| matches!(
                e,
                Event::Write {
                    addr: 0x1000,
                    value: 8
                }
            )));

            // A second session must not resurface the first session's events.
            let guard = start();
            on_begin(TxKind::ReadOnly);
            on_abort();
            let logs = guard.finish();
            let events: Vec<&Event> = logs.iter().flat_map(|l| l.events.iter()).collect();
            assert!(!events
                .iter()
                .any(|e| matches!(e, Event::Read { addr: 0x1000, .. })));
        }

        #[test]
        fn inactive_hooks_record_nothing() {
            // No assertion on the global active flag here: sibling tests run
            // their own sessions concurrently, so the flag may legitimately
            // be set by another thread. What must hold is that events pushed
            // outside *this* test's session never surface in it — the run-id
            // filter guarantees that even if the hooks below land while some
            // other session is active.
            on_begin(TxKind::ReadWrite);
            on_read(0xdead, 1);
            on_commit();
            let guard = start();
            let logs = guard.finish();
            assert!(
                logs.iter().all(|l| !l
                    .events
                    .iter()
                    .any(|e| matches!(e, Event::Read { addr: 0xdead, .. }))),
                "events recorded outside a session must not appear"
            );
        }
    }
}

/// Zero-cost stand-in when the `record` feature is off: every hook is an
/// empty `#[inline(always)]` function, so no recording code reaches any hot
/// path. `start`/`finish` intentionally do not exist in this configuration —
/// code that drives a recording session must be gated on the feature.
#[cfg(not(feature = "record"))]
mod disabled {
    use crate::traits::TxKind;

    /// `false`: the `record` feature is not compiled in.
    pub const ENABLED: bool = false;

    /// Always `false` without the `record` feature.
    #[inline(always)]
    pub fn is_active() -> bool {
        false
    }

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn on_begin(_kind: TxKind) {}

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn on_read(_addr: usize, _value: u64) {}

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn on_write(_addr: usize, _value: u64) {}

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn on_commit() {}

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn on_abort() {}

    /// No-op without the `record` feature.
    #[inline(always)]
    pub fn flush_thread() {}
}
