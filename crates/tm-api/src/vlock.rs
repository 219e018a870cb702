//! Versioned locks.
//!
//! Every stripe of transactional addresses is protected by one versioned lock
//! (paper §3, Listing 2). A lock word packs, into a single `u64`:
//!
//! ```text
//!   bit 63        : locked
//!   bit 62        : flag   ("held solely for (un)versioning in progress")
//!   bits 48..=61  : owner thread id (14 bits, only meaningful while locked)
//!   bits  0..=47  : version (the global-clock value of the last release)
//! ```
//!
//! Keeping the version in the word even while it is locked is what allows the
//! encounter-time-locking TMs (DCTL, TinySTM, Multiverse) to release an
//! *aborted* write set back to a fresh version without ever having lost the
//! pre-lock version.

use crate::sync::{AtomicU64, Ordering};

const LOCKED_BIT: u64 = 1 << 63;
const FLAG_BIT: u64 = 1 << 62;
const TID_SHIFT: u32 = 48;
const TID_BITS: u32 = 14;
/// Maximum representable owner thread id.
pub const MAX_TID: u64 = (1 << TID_BITS) - 1;
/// Maximum representable version (48 bits of logical clock).
pub const MAX_VERSION: u64 = (1 << TID_SHIFT) - 1;

/// A decoded snapshot of a versioned lock word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockState {
    /// Whether the lock is currently held.
    pub locked: bool,
    /// Whether the holder only claimed the lock to (un)version the stripe.
    pub flag: bool,
    /// Owner thread id; only meaningful when `locked` is true.
    pub tid: u64,
    /// Version stamped by the last release (or carried through a lock).
    pub version: u64,
}

impl LockState {
    /// Decode a raw lock word.
    #[inline(always)]
    pub fn decode(raw: u64) -> Self {
        Self {
            locked: raw & LOCKED_BIT != 0,
            flag: raw & FLAG_BIT != 0,
            tid: (raw >> TID_SHIFT) & MAX_TID,
            version: raw & MAX_VERSION,
        }
    }

    /// Encode this state back into a raw lock word.
    #[inline(always)]
    pub fn encode(&self) -> u64 {
        let mut raw = self.version & MAX_VERSION;
        raw |= (self.tid & MAX_TID) << TID_SHIFT;
        if self.locked {
            raw |= LOCKED_BIT;
        }
        if self.flag {
            raw |= FLAG_BIT;
        }
        raw
    }

    /// `validateLock` from Listing 2 of the paper: a lock state is valid for a
    /// transaction with read clock `read_clock` and thread id `tid` iff the
    /// transaction itself owns the lock, or the lock is free and its version
    /// is older than the read clock.
    #[inline(always)]
    pub fn validate(&self, read_clock: u64, tid: u64) -> bool {
        if self.locked && self.tid == tid {
            return true;
        }
        if self.locked {
            return false;
        }
        self.version < read_clock
    }
}

/// An unlocked lock word with the given version.
#[inline(always)]
pub fn unlocked_word(version: u64) -> u64 {
    version & MAX_VERSION
}

/// A single versioned lock.
#[derive(Debug)]
pub struct VersionedLock {
    raw: AtomicU64,
}

impl Default for VersionedLock {
    fn default() -> Self {
        Self::new(0)
    }
}

impl VersionedLock {
    /// Create an unlocked lock carrying `version`.
    pub fn new(version: u64) -> Self {
        Self {
            raw: AtomicU64::new(unlocked_word(version)),
        }
    }

    /// Load and decode the lock state.
    #[inline(always)]
    pub fn load(&self) -> LockState {
        LockState::decode(self.raw.load(Ordering::Acquire))
    }

    /// Load the raw lock word (used for "re-read until unchanged" patterns).
    #[inline(always)]
    pub fn load_raw(&self) -> u64 {
        self.raw.load(Ordering::Acquire)
    }

    /// Try to acquire the lock for thread `tid`, carrying over the version
    /// currently stored. Fails if the lock is held or its version is not
    /// `expected_version`. Returns the previously stored state on success.
    #[inline]
    pub fn try_lock(&self, tid: u64, flag: bool) -> Result<LockState, LockState> {
        let cur_raw = self.raw.load(Ordering::Acquire);
        let cur = LockState::decode(cur_raw);
        if cur.locked {
            return Err(cur);
        }
        let new = LockState {
            locked: true,
            flag,
            tid,
            version: cur.version,
        };
        match self
            .raw
            .compare_exchange(cur_raw, new.encode(), Ordering::AcqRel, Ordering::Acquire)
        {
            Ok(_) => Ok(cur),
            Err(other) => Err(LockState::decode(other)),
        }
    }

    /// Release the lock, stamping `new_version` and clearing the flag.
    ///
    /// The caller must be the current owner.
    #[inline(always)]
    pub fn unlock_with_version(&self, new_version: u64) {
        debug_assert!(new_version <= MAX_VERSION);
        self.raw
            .store(unlocked_word(new_version), Ordering::Release);
    }

    /// Restore the lock to an unlocked state with the version it carried when
    /// it was acquired (used when an acquisition has to be undone without a
    /// version bump, e.g. after versioning an address on the read-only path).
    #[inline(always)]
    pub fn unlock_restore(&self, state_at_acquire: LockState) {
        self.raw
            .store(unlocked_word(state_at_acquire.version), Ordering::Release);
    }

    /// Spin until the flag bit is clear, then return the decoded state.
    ///
    /// This is the "reread lock until flag is false" step performed by both
    /// reads and writes in the paper (Listings 3 and 4): while some other
    /// transaction holds the lock *only to version the address*, we wait
    /// rather than abort, because versioning completes quickly and does not
    /// change the data.
    #[inline]
    pub fn load_wait_no_flag(&self) -> LockState {
        let mut spin = crate::backoff::SpinWait::new();
        loop {
            let st = self.load();
            if !st.flag {
                return st;
            }
            spin.spin();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for &locked in &[false, true] {
            for &flag in &[false, true] {
                for &tid in &[0u64, 1, 7, MAX_TID] {
                    for &version in &[0u64, 1, 12345, MAX_VERSION] {
                        let st = LockState {
                            locked,
                            flag,
                            tid,
                            version,
                        };
                        assert_eq!(LockState::decode(st.encode()), st);
                    }
                }
            }
        }
    }

    #[test]
    fn validate_semantics() {
        // Unlocked, old version: valid.
        let st = LockState {
            locked: false,
            flag: false,
            tid: 0,
            version: 5,
        };
        assert!(st.validate(6, 1));
        // Unlocked, version == read clock: invalid (strictly-less-than rule).
        assert!(!st.validate(5, 1));
        // Locked by someone else: invalid regardless of version.
        let locked = LockState {
            locked: true,
            flag: false,
            tid: 3,
            version: 1,
        };
        assert!(!locked.validate(100, 1));
        // Locked by me: valid.
        assert!(locked.validate(100, 3));
    }

    #[test]
    fn lock_unlock_cycle() {
        let l = VersionedLock::new(10);
        let prev = l.try_lock(2, false).expect("lock should succeed");
        assert_eq!(prev.version, 10);
        let st = l.load();
        assert!(st.locked);
        assert_eq!(st.tid, 2);
        assert_eq!(st.version, 10);
        // Second acquisition fails.
        assert!(l.try_lock(3, false).is_err());
        l.unlock_with_version(42);
        let st = l.load();
        assert!(!st.locked);
        assert_eq!(st.version, 42);
    }

    #[test]
    fn unlock_restore_keeps_old_version() {
        let l = VersionedLock::new(7);
        let prev = l.try_lock(1, true).unwrap();
        assert!(l.load().flag);
        l.unlock_restore(prev);
        let st = l.load();
        assert!(!st.locked && !st.flag);
        assert_eq!(st.version, 7);
    }

    #[test]
    fn wait_no_flag_returns_immediately_when_clear() {
        let l = VersionedLock::new(3);
        let st = l.load_wait_no_flag();
        assert_eq!(st.version, 3);
        assert!(!st.flag);
    }

    #[test]
    fn flag_clears_while_other_thread_waits() {
        use std::sync::Arc;
        let l = Arc::new(VersionedLock::new(0));
        l.try_lock(1, true).unwrap();
        let l2 = Arc::clone(&l);
        let waiter = std::thread::spawn(move || {
            let st = l2.load_wait_no_flag();
            assert!(!st.flag);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        l.unlock_with_version(1);
        waiter.join().unwrap();
    }
}
