//! # baselines — the opaque STMs Multiverse is evaluated against
//!
//! The paper compares Multiverse with four published, opacity-guaranteeing,
//! *unversioned* STMs (§5, §6). None of those implementations is usable here
//! directly (they are C/C++/author-specific), so this crate re-implements each
//! algorithm from its published description on top of the shared primitives
//! in [`tm_api`]:
//!
//! * [`tl2`] — Transactional Locking II: commit-time locking, buffered
//!   (redo-log) writes, GV4-style global clock.
//! * [`dctl`] — Deferred Clock Transactional Locking: encounter-time locking,
//!   undo-log writes, a global clock that is only incremented on aborts, and
//!   an irrevocable starvation-free fallback path. Its unversioned protocol
//!   is [`tm_api::DctlCore`], shared with Multiverse's unversioned path.
//! * [`norec`] — NOrec: no ownership records; a single global sequence lock
//!   with value-based validation.
//! * [`tinystm`] — a TinySTM-style encounter-time-locking STM with
//!   commit-time clock increments and snapshot extension.
//! * [`glock`] — a single global mutex "TM" used by the test suite as a
//!   sequential oracle (not part of the paper's evaluation).
//!
//! Each baseline is a [`tm_api::TmRuntime`] plus a transaction descriptor
//! that implements [`tm_api::Transaction`] and [`tm_api::Protocol`] (the
//! per-attempt `begin` / `try_commit` / `commit` / `abort` hooks). Its
//! per-thread handle is [`tm_api::Handle`] over that descriptor, the same
//! retry loop Multiverse runs, so the transactional data structures and the
//! benchmark harness treat them interchangeably with Multiverse. Their
//! per-attempt bookkeeping (read sets, undo/redo logs, locked-stripe lists)
//! comes straight from [`tm_api::txset`] — the shared allocation-free
//! hot-path primitive layer — so Multiverse and every baseline run on the
//! same structures.

pub mod dctl;
pub mod glock;
pub mod norec;
pub mod tinystm;
pub mod tl2;

pub use dctl::{DctlConfig, DctlRuntime};
pub use glock::GlockRuntime;
pub use norec::NorecRuntime;
pub use tinystm::{TinyStmConfig, TinyStmRuntime};
pub use tl2::{Tl2Config, Tl2Runtime};
