//! The striped lock table.
//!
//! Transactional addresses are mapped to entries of a fixed-size table of
//! [`VersionedLock`]s. Multiverse keeps the lock table, the version-list
//! table and the bloom-filter table the *same size* so that a single mapping
//! function (and therefore a single hash computation per access) serves all
//! three, and so that "an address' lock also protects its version list"
//! (paper §3.1.1).

use crate::stripe_of;
use crate::vlock::VersionedLock;

/// Index of a stripe in the parallel tables.
pub type StripeIndex = usize;

/// A power-of-two-sized table of versioned locks.
#[derive(Debug)]
pub struct LockTable {
    locks: Box<[VersionedLock]>,
    mask: usize,
}

impl LockTable {
    /// Create a lock table with `stripes` entries (rounded up to a power of
    /// two, minimum 2).
    pub fn new(stripes: usize) -> Self {
        let stripes = stripes.next_power_of_two().max(2);
        let locks: Vec<VersionedLock> = (0..stripes).map(|_| VersionedLock::default()).collect();
        Self {
            locks: locks.into_boxed_slice(),
            mask: stripes - 1,
        }
    }

    /// Number of stripes.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.locks.len()
    }

    /// Whether the table is empty (never true in practice; for completeness).
    #[inline(always)]
    pub fn is_empty(&self) -> bool {
        self.locks.is_empty()
    }

    /// The index mask (`len() - 1`).
    #[inline(always)]
    pub fn mask(&self) -> usize {
        self.mask
    }

    /// Map an address to its stripe index.
    #[inline(always)]
    pub fn index_of(&self, addr: usize) -> StripeIndex {
        stripe_of(addr, self.mask)
    }

    /// The lock at stripe `idx`.
    #[inline(always)]
    pub fn lock_at(&self, idx: StripeIndex) -> &VersionedLock {
        &self.locks[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_up_to_power_of_two() {
        assert_eq!(LockTable::new(1000).len(), 1024);
        assert_eq!(LockTable::new(1024).len(), 1024);
        assert_eq!(LockTable::new(0).len(), 2);
    }

    #[test]
    fn same_address_same_lock() {
        let t = LockTable::new(1 << 10);
        let a = 0xdeadbeef0usize & !7;
        assert_eq!(t.index_of(a), t.index_of(a));
        assert!(std::ptr::eq(
            t.lock_at(t.index_of(a)),
            t.lock_at(t.index_of(a))
        ));
    }

    #[test]
    fn index_in_range() {
        let t = LockTable::new(1 << 8);
        for i in 0..10_000usize {
            let idx = t.index_of(0x10_0000 + i * 8);
            assert!(idx < t.len());
        }
    }

    #[test]
    fn distributes_over_many_stripes() {
        let t = LockTable::new(1 << 10);
        let mut used = std::collections::HashSet::new();
        for i in 0..4096usize {
            used.insert(t.index_of(0x5000_0000 + i * 8));
        }
        // With 4096 addresses over 1024 stripes we expect to touch most stripes.
        assert!(used.len() > 512, "only {} stripes used", used.len());
    }
}
