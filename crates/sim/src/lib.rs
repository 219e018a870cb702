//! Deterministic schedule exploration for shared-memory protocols.
//!
//! This crate provides a loom/shuttle-style controlled-concurrency runtime:
//! simulated threads are real OS threads gated so exactly one runs at a
//! time, parked at *yield points* placed before every instrumented atomic
//! load/store/RMW, fence, lock operation, and spin-wait iteration. A
//! scheduler chooses which pending operation executes next; the sequence of
//! choices is a *schedule*, identified by a compact replayable token.
//!
//! Three strategies walk the schedule space (see [`explore`](mod@explore)):
//! exhaustive DFS with dynamic partial-order reduction (vector-clock race
//! detection decides which reorderings are worth exploring — causally
//! ordered or non-conflicting accesses never multiply the search),
//! seeded random sampling, and single-schedule token replay.
//!
//! Instrumentation contract: code under test calls the `on_*` hooks before
//! each shared-memory operation (the `tm_api::sync` facade does this when
//! its `sim` feature is on). Outside a controlled execution every hook is a
//! cheap thread-local check that does nothing, so instrumented builds still
//! run normal tests; non-instrumented builds do not link this crate at all.
//!
//! Scope: execution is serialized, so the explored behaviours are exactly
//! the sequentially-consistent interleavings. Weak-memory reorderings are
//! out of scope; `Ordering` arguments pass through unchanged.

mod exec;
pub mod explore;
pub mod thread;
pub mod token;
pub mod vv;

pub use exec::{Abort, Access, Mode, RunNode, HOOKED_OPS};
pub use explore::{explore, ExploreConfig, ExploreStats, ScheduleOutcome, Strategy};

use exec::RawAccess;

/// True when the calling thread is a simulated thread inside a controlled
/// execution (instrumented operations will be scheduled).
#[inline]
pub fn active() -> bool {
    exec::with_current(|_, _| ()).is_some()
}

/// Yield point before an atomic load of the cell at `addr`.
#[inline]
pub fn on_load(addr: usize) {
    exec::hook(RawAccess::Load(addr));
}

/// Yield point before an atomic store to the cell at `addr`.
#[inline]
pub fn on_store(addr: usize) {
    exec::hook(RawAccess::Store(addr));
}

/// Yield point before an atomic read-modify-write (CAS, fetch-add, lock
/// acquire/release) on the cell at `addr`.
#[inline]
pub fn on_rmw(addr: usize) {
    exec::hook(RawAccess::Rmw(addr));
}

/// Yield point before a memory fence.
#[inline]
pub fn on_fence() {
    exec::hook(RawAccess::Fence);
}

/// Spin-wait yield: marks the thread as unable to progress so the
/// scheduler hands the turn to a non-yielded thread. Bounded exploration
/// of spin/backoff loops relies on every spin iteration calling this.
#[inline]
pub fn on_spin() {
    exec::hook(RawAccess::Spin);
}

/// Map a raw address to its deterministic per-execution id (first-touch
/// interning). Identity outside a controlled execution. Hash-consumers
/// whose result depends on addresses (stripe tables, filters) use this so
/// replays are stable across processes despite ASLR.
#[inline]
pub fn map_addr(addr: usize) -> usize {
    exec::with_current(|e, _| e.map_addr(addr)).unwrap_or(addr)
}
