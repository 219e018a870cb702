//! Hidden demo switches that reintroduce two historical protocol bugs.
//!
//! These exist so the exploration harness (`harness explore --broken ...`)
//! can prove the schedule search plus the history checker catch real,
//! already-fixed bugs *deterministically* — every exhaustively explored
//! 2-thread schedule set must flag them, with no seed luck involved.
//!
//! The switches are process-global plain `std` atomics on purpose: they are
//! harness configuration, not protocol state, and must not generate yield
//! points or show up in the explored schedule space.
//!
//! * [`set_traverse_le`] — re-flips the version-list traversal acceptance to
//!   `commit_ts <= read_clock` (the PR 1 bug). A reader whose read clock
//!   equals an in-flight writer's commit timestamp can then observe the
//!   writer's value before the writer is durably ordered, producing a
//!   non-linearizable history.
//! * [`set_supersede_no_gate`] — disables the clock gate in
//!   `flush_superseded` (the PR 2 bug), retiring superseded nodes whose
//!   commit timestamp is still at the current clock, *and* makes a
//!   versioned attempt take its read clock by a plain load instead of its
//!   own `GlobalClock::increment`. The two protections must be reverted
//!   together: with an owned read clock, a reader walks past a committed
//!   version only if that commit read the clock after the reader pinned,
//!   so EBR's grace period alone keeps the older node alive. With a loaded
//!   read clock, a late reader that starts after the commit and its
//!   reclamation, at the same quiescent clock, walks past the at-clock
//!   version into the reclaimed (poisoned) node.
//!
//! Only compiled with the `sim` feature; release builds carry no trace of
//! these switches.

use std::sync::atomic::{AtomicBool, Ordering};

static TRAVERSE_LE: AtomicBool = AtomicBool::new(false);
static SUPERSEDE_NO_GATE: AtomicBool = AtomicBool::new(false);

/// Is the broken `<=` traverse acceptance enabled?
#[inline]
pub fn traverse_le() -> bool {
    TRAVERSE_LE.load(Ordering::Relaxed)
}

/// Is the supersede-gate demo on (no clock gate, loaded read clocks)?
#[inline]
pub fn supersede_no_gate() -> bool {
    SUPERSEDE_NO_GATE.load(Ordering::Relaxed)
}

/// Enable/disable the broken `<=` traverse acceptance (PR 1 bug).
pub fn set_traverse_le(on: bool) {
    TRAVERSE_LE.store(on, Ordering::Relaxed);
}

/// Enable/disable the supersede-gate demo (PR 2 bug, plus loaded read
/// clocks).
pub fn set_supersede_no_gate(on: bool) {
    SUPERSEDE_NO_GATE.store(on, Ordering::Relaxed);
}
