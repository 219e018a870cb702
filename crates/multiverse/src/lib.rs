//! # multiverse — an opaque STM with dynamic multiversioning
//!
//! This crate is a from-scratch Rust implementation of **Multiverse**
//! (Coccimiglio, Brown & Ravi, PPoPP 2026): a word-based, opaque software
//! transactional memory that combines a DCTL-style unversioned fast path with
//! on-demand, word-granularity multiversioning so that long-running read-only
//! transactions (range queries, snapshots, analytics scans) can commit even
//! under a continuous stream of conflicting updates.
//!
//! ## How it works (paper §3–§4)
//!
//! * **Transactions start unversioned.** Reads and encounter-time writes are
//!   validated against per-stripe versioned locks and a global clock that is
//!   only incremented on aborts (the deferred clock of DCTL).
//! * **Read-only transactions that keep aborting become *versioned*.** A
//!   versioned transaction reads from per-address *version lists* instead of
//!   the live word, so concurrent updates no longer invalidate it.
//! * **Addresses are versioned dynamically.** An address starts unversioned;
//!   it gains a version list (stored in the Version List Table, found through
//!   a per-stripe bloom filter) only when the workload needs it, and a
//!   background thread unversions whole VLT buckets again once their versions
//!   are old enough.
//! * **Two stable TM modes adapt who does the versioning work.** In *Mode Q*
//!   versioned readers version the addresses they touch; in *Mode U* every
//!   updating transaction versions every address it writes, so versioned
//!   readers can treat the whole heap as versioned. Two transient modes
//!   (QtoU, UtoQ) drain stragglers so the Mode-U invariant ("every written
//!   address is versioned") is never violated.
//!
//! ## Using it
//!
//! ```
//! use std::sync::Arc;
//! use multiverse::{MultiverseConfig, MultiverseRuntime};
//! use tm_api::{TmRuntime, TmHandle, Transaction, TxKind, TVar};
//!
//! let tm = MultiverseRuntime::start(MultiverseConfig::small());
//! let mut handle = tm.register();
//! let balance = TVar::new(100u64);
//! handle.txn(TxKind::ReadWrite, |tx| {
//!     let b = tx.read_var(&balance)?;
//!     tx.write_var(&balance, b + 1)
//! });
//! assert_eq!(balance.load_direct(), 101);
//! tm.shutdown();
//! ```

pub mod arena;
#[cfg(feature = "sim")]
#[doc(hidden)]
pub mod broken;
pub mod config;
pub mod modes;
pub mod registry;
pub mod runtime;
pub mod txn;
pub mod version;
pub mod vlt;

pub use config::{ForcedMode, MultiverseConfig};
pub use modes::Mode;
pub use runtime::MultiverseRuntime;
pub use txn::MultiverseTx;
