//! # tm-api — common software transactional memory building blocks
//!
//! This crate contains the pieces shared by the Multiverse STM
//! (crate [`multiverse`]) and the baseline STMs it is evaluated against
//! (crate `baselines`): transactional words, the global clock, versioned
//! locks and the striped lock table, the per-stripe bloom-filter table,
//! per-thread statistics, exponential/linear backoff, and — most importantly —
//! the traits every TM implements ([`TmRuntime`], [`Transaction`],
//! [`Protocol`]) and the retry loop they share ([`Handle`], the one
//! [`TmHandle`]).
//!
//! The design goals mirror the paper:
//!
//! * **No change to the program's memory layout.** The only transactional
//!   storage type is [`TxWord`], a `#[repr(transparent)]` wrapper around an
//!   `AtomicU64`, so a transactional field occupies exactly the 8 bytes the
//!   plain field would occupy. Locks, version lists and bloom filters live in
//!   separate, parallel hash tables keyed by the *address* of the word.
//! * **Closure-based transactions.** The C++ implementation uses
//!   `setjmp`/`longjmp` to abort; in Rust every transactional operation
//!   returns `Result<_, Abort>` and the retry loop ([`Handle`], behind
//!   [`TmHandle::txn`]) catches it. `?` propagation gives the same "abort anywhere"
//!   ergonomics without non-local control flow.
//! * **One retry loop.** Every TM's per-thread handle is [`Handle<T>`]
//!   over its transaction descriptor `T`, which implements [`Protocol`]
//!   (`begin` / `try_commit` / `commit` / `abort`). The loop, the attempt
//!   budget, the backoff and the `gave_up` / `commits` / `aborts` /
//!   `ro_commits` / `update_commits` counters live only in `Handle`; the
//!   hook order and what each hook must release are the contract in
//!   [`traits`].
//!
//! [`multiverse`]: ../multiverse/index.html

pub mod abort;
pub mod backoff;
pub mod bloom;
pub mod clock;
pub mod dctl;
pub mod fxhash;
pub mod locktable;
pub mod padded;
pub mod record;
pub mod stats;
pub mod sync;
pub mod traits;
pub mod txset;
pub mod txword;
pub mod vlock;

pub use abort::{Abort, TxResult};
pub use backoff::Backoff;
pub use bloom::BloomTable;
pub use clock::{ClockCache, GlobalClock};
pub use dctl::DctlCore;
pub use locktable::{LockTable, StripeIndex};
pub use padded::CachePadded;
pub use stats::{StatsRegistry, ThreadStats, TmStatsSnapshot};
pub use traits::{Handle, Protocol, TmHandle, TmRuntime, Transaction, TxKind, TxOutcome};
pub use txset::{
    InlineVec, LockedStripes, RedoEntry, RedoLog, StripeReadSet, UndoEntry, UndoLog, ValueReadSet,
    WriteMap,
};
pub use txword::{TVar, TxPtr, TxWord, Word64};
pub use vlock::{LockState, VersionedLock, MAX_TID, MAX_VERSION};

/// Default number of stripes (locks / version-list buckets / bloom filters).
///
/// The paper uses parallel tables of identical size so that one mapping
/// function serves the lock table, the version-list table and the bloom
/// filter table (§3.1.1). 2^20 stripes * 8 bytes = 8 MiB per table.
pub const DEFAULT_STRIPES: usize = 1 << 20;

/// Map a transactional address to a stripe index.
///
/// Addresses of [`TxWord`]s are 8-byte aligned, so the low 3 bits carry no
/// information; we drop them and mix with a Fibonacci-hashing multiplier so
/// that words that are adjacent in memory land in different stripes.
#[inline(always)]
pub fn stripe_of(addr: usize, mask: usize) -> usize {
    // Inside a simulated execution, hash the deterministic first-touch id of
    // the address instead of the address itself (shifted so the id survives
    // the alignment-bit drop below): stripe assignment — and therefore lock
    // contention and conflict orders — then replays identically across
    // processes despite ASLR. Outside a simulated execution this is the
    // identity function (and compiles out entirely without the feature).
    #[cfg(feature = "sim")]
    let addr = sim::map_addr(addr) << 3;
    let h = (addr >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Use the high bits: the low bits of a multiplicative hash are weaker.
    ((h >> 20) ^ h) & mask
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_of_is_within_mask() {
        let mask = DEFAULT_STRIPES - 1;
        for addr in (0..4096usize).map(|i| 0x1000 + i * 8) {
            assert!(stripe_of(addr, mask) <= mask);
        }
    }

    #[test]
    fn stripe_of_spreads_adjacent_words() {
        let mask = 1023;
        let a = stripe_of(0x1000, mask);
        let b = stripe_of(0x1008, mask);
        let c = stripe_of(0x1010, mask);
        // Not a strong statistical test, just a sanity check that adjacent
        // words do not trivially collide.
        assert!(!(a == b && b == c));
    }
}
