//! Bounded linear backoff used between transaction attempts.
//!
//! The paper uses "the same linear backoff as in \[30\]" (the persistent-TM
//! implementation of Ramalhete et al.) for both Multiverse and DCTL: after the
//! `k`-th consecutive abort a thread spins for `k * STEP` iterations, capped.
//! We expose the same policy for every TM so that comparisons are apples to
//! apples.

use std::hint;

/// Number of spin iterations added per consecutive abort.
const STEP: u32 = 128;
/// Cap on the number of spin iterations of a single backoff.
const MAX_SPINS: u32 = 64 * 1024;

/// Linear backoff helper. One instance lives in each TM handle and is reset
/// whenever a transaction commits.
#[derive(Debug, Default, Clone)]
pub struct Backoff {
    consecutive_aborts: u32,
}

impl Backoff {
    /// Create a backoff helper with no recorded aborts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a successful commit: the next abort starts from a cold backoff.
    #[inline]
    pub fn reset(&mut self) {
        self.consecutive_aborts = 0;
    }

    /// Record an abort and spin for a duration linear in the number of
    /// consecutive aborts observed so far.
    ///
    /// The **first** consecutive abort retries immediately (zero spins).
    /// Under the deferred clock of DCTL/Multiverse the first abort after a
    /// commit is usually structural, not contention: the committed write set
    /// is stamped *at* the current clock, so the next transaction's first
    /// attempt fails strict `< read-clock` validation, advances the clock in
    /// `rollback`, and is then guaranteed a fresher read clock. Spinning
    /// before that retry only adds latency (it dominated the single-thread
    /// `counter_rmw` figure). Genuine contention shows up as a *second*
    /// consecutive abort, from which point the linear policy applies
    /// unchanged.
    #[inline]
    pub fn abort_and_wait(&mut self) {
        self.consecutive_aborts = self.consecutive_aborts.saturating_add(1);
        // Under the simulated scheduler a backoff *duration* is meaningless
        // (time does not pass while parked); what matters is telling the
        // scheduler this thread wants others to progress. One spin yield
        // does that, and keeps bounded exploration free of livelock.
        #[cfg(feature = "sim")]
        if sim::active() {
            sim::on_spin();
            return;
        }
        let spins = ((self.consecutive_aborts - 1).saturating_mul(STEP)).min(MAX_SPINS);
        for _ in 0..spins {
            hint::spin_loop();
        }
    }

    /// Number of consecutive aborts recorded since the last reset.
    #[inline]
    pub fn consecutive_aborts(&self) -> u32 {
        self.consecutive_aborts
    }
}

/// Spin-wait helper used while waiting for a lock flagged as
/// "versioning in progress" or for a TBD version to resolve. Spins a few
/// times, then yields to the OS so that single-core machines make progress.
#[derive(Debug, Default)]
pub struct SpinWait {
    spins: u32,
}

impl SpinWait {
    /// Create a fresh spin-wait helper.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spin once; yields the thread after 64 consecutive spins. Under the
    /// simulated scheduler every iteration is an explicit yield point, so
    /// wait loops built on `SpinWait` cannot starve bounded exploration.
    #[inline]
    pub fn spin(&mut self) {
        self.spins = self.spins.wrapping_add(1);
        #[cfg(feature = "sim")]
        if sim::active() {
            sim::on_spin();
            return;
        }
        if self.spins.is_multiple_of(64) {
            std::thread::yield_now();
        } else {
            hint::spin_loop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_counts_and_resets() {
        let mut b = Backoff::new();
        assert_eq!(b.consecutive_aborts(), 0);
        b.abort_and_wait();
        b.abort_and_wait();
        assert_eq!(b.consecutive_aborts(), 2);
        b.reset();
        assert_eq!(b.consecutive_aborts(), 0);
    }

    #[test]
    fn backoff_saturates() {
        let mut b = Backoff::new();
        b.consecutive_aborts = u32::MAX - 1;
        b.abort_and_wait();
        b.abort_and_wait();
        assert_eq!(b.consecutive_aborts(), u32::MAX);
    }

    #[test]
    fn spinwait_many_spins_terminate() {
        let mut s = SpinWait::new();
        for _ in 0..1000 {
            s.spin();
        }
    }
}
