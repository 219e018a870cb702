//! The DCTL core: the unversioned protocol of Deferred Clock Transactional
//! Locking (Ramalhete & Correia, PPoPP 2024), run by both the DCTL baseline
//! and Multiverse's unversioned path, which is DCTL plus versioning hooks
//! (paper §3).
//!
//! [`DctlCore`] holds the per-attempt state and the three protocol steps: a
//! read validated against the read clock `rv` (strictly-below rule), the
//! encounter-time write lock, and commit-time read-set validation. Each TM
//! keeps its undo push and in-place store (Multiverse appends a version
//! between them), its commit and abort, and DCTL its irrevocable mode.
//! Three differences between the TMs stay there on purpose:
//!
//! 1. on abort DCTL ticks the clock with `GlobalClock::increment`,
//!    Multiverse with the coalescing `GlobalClock::tick`;
//! 2. DCTL's `try_commit` returns at once when it holds no locks;
//!    Multiverse's update commit always validates its read set;
//! 3. only Multiverse sets a stripe's flag bit (while it versions or
//!    unversions an address), so only it ever waits in `load_wait_no_flag`.
//!    On a DCTL stripe that call is the single `Acquire` load `load` is.

use crate::abort::{Abort, TxResult};
use crate::locktable::LockTable;
use crate::sync::{fence, Ordering};
use crate::txset::{LockedStripes, StripeReadSet, UndoLog};
use crate::txword::TxWord;

/// The per-attempt state of an unversioned DCTL transaction.
#[derive(Default)]
pub struct DctlCore {
    /// Owner id stamped into the stripe locks this transaction takes.
    pub tid: u64,
    /// The attempt's read clock.
    pub rv: u64,
    /// Transactional reads in the attempt, on any path.
    pub reads: u64,
    /// Stripes read on the validated path, checked again at commit.
    pub read_set: StripeReadSet,
    /// Pre-write values of the in-place writes, newest last.
    pub undo: UndoLog,
    /// Stripes whose locks this attempt holds.
    pub locked: LockedStripes,
}

impl DctlCore {
    /// A core for a transaction with owner id `tid`.
    pub fn new(tid: u64) -> Self {
        Self {
            tid,
            ..Self::default()
        }
    }

    /// Clear the per-attempt state at `begin`; the caller then sets `rv`.
    #[inline]
    pub fn reset(&mut self) {
        self.read_set.clear();
        self.undo.clear();
        debug_assert!(self.locked.is_empty());
        self.reads = 0;
    }

    /// Read `word`, whose stripe is `idx`, and add the stripe to the read
    /// set. Aborts unless the stripe is held by this transaction or is free
    /// and stamped below `rv`.
    #[inline]
    pub fn read(&mut self, locks: &LockTable, word: &TxWord, idx: usize) -> TxResult<u64> {
        let val = word.tm_load();
        fence(Ordering::Acquire);
        let st = locks.lock_at(idx).load_wait_no_flag();
        if !st.validate(self.rv, self.tid) {
            return Err(Abort);
        }
        self.read_set.push(idx);
        Ok(val)
    }

    /// Take stripe `idx` for an in-place write, unless this transaction
    /// holds it already. A stripe held by another, or stamped at or after
    /// `rv`, aborts the attempt and is left at its old version.
    #[inline]
    pub fn lock_for_write(&mut self, locks: &LockTable, idx: usize) -> TxResult<()> {
        let lock = locks.lock_at(idx);
        let st = lock.load_wait_no_flag();
        if st.locked && st.tid == self.tid {
            return Ok(());
        }
        if !st.validate(self.rv, self.tid) {
            return Err(Abort);
        }
        match lock.try_lock(self.tid, false) {
            Ok(prev) if prev.version < self.rv => {
                self.locked.push(idx);
                Ok(())
            }
            Ok(prev) => {
                // Someone committed to this stripe after our read clock;
                // keep the strictly-less-than rule.
                lock.unlock_restore(prev);
                Err(Abort)
            }
            Err(_) => Err(Abort),
        }
    }

    /// Check every stripe of the read set again under the read rule.
    #[inline]
    pub fn validate_reads(&self, locks: &LockTable) -> TxResult<()> {
        for &idx in &self.read_set {
            if !locks.lock_at(idx).load().validate(self.rv, self.tid) {
                return Err(Abort);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txword::TVar;

    const TID: u64 = 5;
    const OTHER: u64 = 9;

    /// A lock table, a word in it, and a core with read clock 10.
    fn setup() -> (LockTable, TVar<u64>, usize, DctlCore) {
        let locks = LockTable::new(1 << 8);
        let var = TVar::new(7u64);
        let idx = locks.index_of(var.word().addr());
        let mut core = DctlCore::new(TID);
        core.rv = 10;
        (locks, var, idx, core)
    }

    /// Stamp stripe `idx` at `version` through a foreign lock/release.
    fn stamp(locks: &LockTable, idx: usize, version: u64) {
        locks.lock_at(idx).try_lock(OTHER, false).unwrap();
        locks.lock_at(idx).unlock_with_version(version);
    }

    #[test]
    fn read_below_rv_succeeds_and_joins_the_read_set() {
        let (locks, var, idx, mut core) = setup();
        stamp(&locks, idx, 9);
        assert_eq!(core.read(&locks, var.word(), idx), Ok(7));
        assert_eq!(core.read_set.as_slice(), &[idx]);
    }

    #[test]
    fn read_of_a_stripe_stamped_at_rv_aborts() {
        let (locks, var, idx, mut core) = setup();
        stamp(&locks, idx, 10);
        assert_eq!(core.read(&locks, var.word(), idx), Err(Abort));
        assert!(core.read_set.is_empty());
    }

    #[test]
    fn read_of_an_owned_stripe_succeeds() {
        let (locks, var, idx, mut core) = setup();
        stamp(&locks, idx, 20);
        locks.lock_at(idx).try_lock(TID, false).unwrap();
        assert_eq!(core.read(&locks, var.word(), idx), Ok(7));
    }

    #[test]
    fn read_of_a_foreign_locked_stripe_aborts() {
        let (locks, var, idx, mut core) = setup();
        locks.lock_at(idx).try_lock(OTHER, false).unwrap();
        assert_eq!(core.read(&locks, var.word(), idx), Err(Abort));
    }

    #[test]
    fn write_lock_on_a_stripe_stamped_at_or_after_rv_aborts_and_keeps_the_old_version() {
        for version in [10, 11] {
            let (locks, _var, idx, mut core) = setup();
            stamp(&locks, idx, version);
            assert_eq!(core.lock_for_write(&locks, idx), Err(Abort));
            let st = locks.lock_at(idx).load();
            assert!(!st.locked, "the lock is handed back");
            assert_eq!(st.version, version, "not bumped");
            assert!(core.locked.is_empty());
        }
    }

    #[test]
    fn write_lock_on_a_foreign_locked_stripe_aborts() {
        let (locks, _var, idx, mut core) = setup();
        locks.lock_at(idx).try_lock(OTHER, false).unwrap();
        assert_eq!(core.lock_for_write(&locks, idx), Err(Abort));
        assert_eq!(locks.lock_at(idx).load().tid, OTHER);
        assert!(core.locked.is_empty());
    }

    #[test]
    fn second_write_lock_on_an_owned_stripe_pushes_it_once() {
        let (locks, _var, idx, mut core) = setup();
        stamp(&locks, idx, 3);
        assert_eq!(core.lock_for_write(&locks, idx), Ok(()));
        assert_eq!(core.lock_for_write(&locks, idx), Ok(()));
        let st = locks.lock_at(idx).load();
        assert!(st.locked && st.tid == TID && st.version == 3);
        assert_eq!(core.locked.as_slice(), &[idx]);
        core.locked.release_all(&locks, 4);
    }

    #[test]
    fn validate_reads_fails_after_a_foreign_release_at_rv() {
        let (locks, var, idx, mut core) = setup();
        core.read(&locks, var.word(), idx).unwrap();
        assert_eq!(core.validate_reads(&locks), Ok(()));
        stamp(&locks, idx, core.rv);
        assert_eq!(core.validate_reads(&locks), Err(Abort));
    }

    #[test]
    fn reset_clears_the_attempt() {
        let (locks, var, idx, mut core) = setup();
        core.reads = 3;
        core.read(&locks, var.word(), idx).unwrap();
        core.undo.push(var.word(), 7);
        core.reset();
        assert_eq!(core.reads, 0);
        assert!(core.read_set.is_empty() && core.undo.is_empty());
        assert_eq!(core.tid, TID);
    }
}
