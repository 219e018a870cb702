//! The Version List Table (VLT), paper §3.1 and Figure 2.
//!
//! The VLT is a hash table of the same size as the lock table; bucket `i`
//! holds the version lists of every *versioned* address that maps to stripe
//! `i`. A bucket is a singly linked list of [`VltNode`]s, each carrying the
//! address it tracks and that address's [`VersionList`]. Mutating a bucket
//! (inserting a node when an address becomes versioned, draining it when the
//! background thread unversions the bucket) requires holding stripe `i`'s
//! lock; readers traverse buckets without locks and rely on epoch-based
//! reclamation for safety.
//!
//! Bucket nodes live in the epoch-recycled arena (`crate::arena`); a drained
//! bucket chain is retired as a *single* EBR entry and recycled wholesale.
//!
//! # Occupancy bitmap
//!
//! Beside the buckets the table keeps one bit per bucket (32 KB at the
//! default `1 << 18` stripes), so the background unversioning pass visits
//! only non-empty buckets instead of sweeping the whole table. The
//! invariant: **whenever no stripe lock is held, bit `i` is set exactly when
//! bucket `i` is non-empty.** It holds because both bit transitions happen
//! under stripe `i`'s lock, in the same critical section as the bucket
//! change they mirror: [`Vlt::insert`] sets the bit when it fills an empty
//! bucket, and [`Vlt::take_bucket`] clears it when it drains a non-empty
//! one. The stripe lock serialises the two per bucket, and RMWs on other
//! bits of a shared word commute, so the final bit always matches the
//! final bucket state.
//!
//! Readers of the bitmap take no lock and may see a bit that is momentarily
//! out of step with its bucket. That affects liveness only, never safety:
//! the unversioning pass re-checks the bucket itself (unlocked
//! `bucket_is_empty`, then the stripe `try_lock` in `unversion_bucket`), so
//! a stale set bit costs one wasted probe, and a bit set just after the
//! pass read its word leaves the bucket for the next pass.
//! Only the rare empty→non-empty insert pays the extra RMW; inserts into an
//! occupied bucket and every lookup touch the bitmap not at all.

use crate::arena;
use crate::version::{VersionList, VersionNode};
use tm_api::sync::{AtomicPtr, AtomicU64, Ordering};

/// Buckets per occupancy word.
const WORD_BITS: usize = u64::BITS as usize;

/// The occupancy word holding bucket `idx`'s bit, and the bit's mask.
#[inline]
fn bit_of(idx: usize) -> (usize, u64) {
    (idx / WORD_BITS, 1u64 << (idx % WORD_BITS))
}

/// One entry of a VLT bucket: the version list of a single address.
///
/// `repr(C)` with `next` first: a recycled slot's free-list link reuses the
/// first word, so the pointer field (dead in a free node) absorbs it while
/// the debug poison in `addr` stays intact.
#[derive(Debug)]
#[repr(C)]
pub struct VltNode {
    /// Next node in the same bucket.
    pub next: AtomicPtr<VltNode>,
    /// The transactional address whose versions this node tracks.
    pub addr: usize,
    /// The address's version list.
    pub vlist: VersionList,
}

impl VltNode {
    /// Build a node *value* around an initialised, unpublished initial
    /// version (used by the arena's in-place init).
    pub(crate) fn new_value(addr: usize, initial: *mut VersionNode) -> Self {
        Self {
            next: AtomicPtr::new(std::ptr::null_mut()),
            addr,
            vlist: VersionList::from_head(initial),
        }
    }

    /// Acquire an initialised bucket node for `addr` whose version list
    /// starts with the initial version (`timestamp`, `data`). Cold path:
    /// tests and diagnostics; the transaction hot path allocates through its
    /// pool handle.
    #[cfg(test)]
    pub(crate) fn acquire(addr: usize, timestamp: u64, data: u64) -> *mut Self {
        arena::acquire_vlt_node(addr, timestamp, data)
    }

    /// Return an exclusively owned bucket node (and its version-list head)
    /// to the arena (teardown/tests).
    ///
    /// # Safety
    /// `p` must be an arena node no other thread can still reach, released
    /// exactly once.
    pub(crate) unsafe fn release(p: *mut Self) {
        // Safety: forwarded contract.
        unsafe { arena::release_vlt_node(p) }
    }
}

/// The Version List Table.
#[derive(Debug)]
pub struct Vlt {
    buckets: Box<[AtomicPtr<VltNode>]>,
    /// One bit per bucket: set exactly when the bucket is non-empty (see
    /// the module docs for the invariant and why it holds).
    occupied: Box<[AtomicU64]>,
}

impl Vlt {
    /// Create a VLT with `stripes` buckets (must equal the lock-table size).
    pub fn new(stripes: usize) -> Self {
        let stripes = stripes.next_power_of_two().max(2);
        let buckets: Vec<AtomicPtr<VltNode>> = (0..stripes)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect();
        let occupied: Vec<AtomicU64> = (0..stripes.div_ceil(WORD_BITS))
            .map(|_| AtomicU64::new(0))
            .collect();
        Self {
            buckets: buckets.into_boxed_slice(),
            occupied: occupied.into_boxed_slice(),
        }
    }

    /// Number of buckets.
    #[inline]
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether the table has no buckets (never in practice).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Find the version list tracking `addr` in bucket `idx`, if any.
    ///
    /// Lock-free: safe because nodes are only unlinked under the stripe lock
    /// and reclaimed through EBR, and the caller is pinned.
    #[inline]
    pub fn find(&self, idx: usize, addr: usize) -> Option<&VersionList> {
        let mut cur = self.buckets[idx].load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: see above.
            let node = unsafe { &*cur };
            debug_assert_ne!(
                node.addr,
                arena::POISON_ADDR,
                "reader reached a recycled VLT node"
            );
            if node.addr == addr {
                return Some(&node.vlist);
            }
            cur = node.next.load(Ordering::Acquire);
        }
        None
    }

    /// Insert `node` at the front of bucket `idx`, setting the bucket's
    /// occupancy bit if the bucket was empty.
    ///
    /// # Safety
    /// `node` must be a valid, exclusively owned `VltNode` (not yet
    /// published), the caller must hold the stripe lock for `idx`, and the
    /// node's address must not already be present in the bucket.
    #[inline]
    pub unsafe fn insert(&self, idx: usize, node: *mut VltNode) {
        let head = self.buckets[idx].load(Ordering::Acquire);
        // Safety: we own `node` until it is published below.
        unsafe { &*node }.next.store(head, Ordering::Relaxed);
        self.buckets[idx].store(node, Ordering::Release);
        if head.is_null() {
            let (word, bit) = bit_of(idx);
            self.occupied[word].fetch_or(bit, Ordering::Relaxed);
        }
    }

    /// Detach bucket `idx` and return its chain head (used by unversioning),
    /// clearing the bucket's occupancy bit. Caller must hold the stripe
    /// lock; the returned chain must be retired through EBR (as one entry —
    /// see `arena::recycle_vlt_chain`).
    #[inline]
    pub fn take_bucket(&self, idx: usize) -> *mut VltNode {
        let chain = self.buckets[idx].swap(std::ptr::null_mut(), Ordering::AcqRel);
        if !chain.is_null() {
            let (word, bit) = bit_of(idx);
            self.occupied[word].fetch_and(!bit, Ordering::Relaxed);
        }
        chain
    }

    /// The indices of the buckets whose occupancy bit is set, in ascending
    /// order. Each bitmap word is loaded once, when the iteration reaches
    /// it, so a pass over an empty table costs one load per 64 buckets.
    /// Unlocked: a bucket may fill or drain while the iteration runs (see
    /// the module docs), so callers re-check the bucket itself.
    pub fn iter_occupied(&self) -> impl Iterator<Item = usize> + '_ {
        self.occupied.iter().enumerate().flat_map(|(w, word)| {
            let mut bits = word.load(Ordering::Relaxed);
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(w * WORD_BITS + b)
            })
        })
    }

    /// Number of buckets whose occupancy bit is set (diagnostics/tests;
    /// exact at quiescence).
    pub fn occupied_buckets(&self) -> usize {
        self.occupied
            .iter()
            .map(|w| w.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Whether bucket `idx` currently tracks any address.
    #[inline]
    pub fn bucket_is_empty(&self, idx: usize) -> bool {
        self.buckets[idx].load(Ordering::Acquire).is_null()
    }

    /// The newest committed timestamp across every version list in bucket
    /// `idx` (`None` if the bucket is empty or holds no committed versions).
    /// Used by the unversioning heuristic (§4.4).
    pub fn newest_timestamp_in_bucket(&self, idx: usize) -> Option<u64> {
        let mut newest = None;
        let mut cur = self.buckets[idx].load(Ordering::Acquire);
        while !cur.is_null() {
            // Safety: see `find`.
            let node = unsafe { &*cur };
            if let Some(ts) = node.vlist.newest_committed_timestamp() {
                newest = Some(newest.map_or(ts, |n: u64| n.max(ts)));
            }
            cur = node.next.load(Ordering::Acquire);
        }
        newest
    }

    /// Number of addresses tracked in bucket `idx` (diagnostics/tests).
    pub fn bucket_len(&self, idx: usize) -> usize {
        let mut n = 0;
        let mut cur = self.buckets[idx].load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            cur = unsafe { &*cur }.next.load(Ordering::Acquire);
        }
        n
    }
}

impl Drop for Vlt {
    fn drop(&mut self) {
        // Runtime teardown: release any bucket chains that were never
        // unversioned back into the arena (node plus version-list head;
        // non-head versions were already retired when superseded). At
        // teardown the occupancy invariant is exact, so only buckets with a
        // set bit can hold a chain.
        for idx in self.iter_occupied() {
            let mut cur = self.buckets[idx].load(Ordering::Relaxed);
            while !cur.is_null() {
                let next = unsafe { &*cur }.next.load(Ordering::Relaxed);
                // Safety: teardown — no other thread can reach the chain.
                unsafe { VltNode::release(cur) };
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn find_in_empty_bucket_is_none() {
        let vlt = Vlt::new(8);
        assert!(vlt.find(0, 0x1000).is_none());
        assert!(vlt.bucket_is_empty(0));
        assert_eq!(vlt.len(), 8);
    }

    #[test]
    fn insert_then_find() {
        let vlt = Vlt::new(8);
        let node = VltNode::acquire(0x1000, 3, 42);
        unsafe { vlt.insert(2, node) };
        let found = vlt.find(2, 0x1000).expect("address should be versioned");
        assert_eq!(found.traverse(5), Ok(42));
        assert!(vlt.find(2, 0x2000).is_none(), "other addresses unaffected");
        assert_eq!(vlt.bucket_len(2), 1);
    }

    #[test]
    fn multiple_addresses_share_a_bucket() {
        let vlt = Vlt::new(4);
        unsafe { vlt.insert(1, VltNode::acquire(0x1000, 1, 10)) };
        unsafe { vlt.insert(1, VltNode::acquire(0x2000, 2, 20)) };
        unsafe { vlt.insert(1, VltNode::acquire(0x3000, 3, 30)) };
        assert_eq!(vlt.bucket_len(1), 3);
        assert_eq!(vlt.find(1, 0x1000).unwrap().traverse(9), Ok(10));
        assert_eq!(vlt.find(1, 0x2000).unwrap().traverse(9), Ok(20));
        assert_eq!(vlt.find(1, 0x3000).unwrap().traverse(9), Ok(30));
    }

    #[test]
    fn newest_timestamp_in_bucket_tracks_all_lists() {
        let vlt = Vlt::new(4);
        unsafe { vlt.insert(0, VltNode::acquire(0x1000, 5, 1)) };
        unsafe { vlt.insert(0, VltNode::acquire(0x2000, 9, 2)) };
        assert_eq!(vlt.newest_timestamp_in_bucket(0), Some(9));
        assert_eq!(vlt.newest_timestamp_in_bucket(1), None);
    }

    #[test]
    fn take_bucket_detaches_chain() {
        let vlt = Vlt::new(4);
        unsafe { vlt.insert(3, VltNode::acquire(0x1000, 1, 1)) };
        unsafe { vlt.insert(3, VltNode::acquire(0x2000, 2, 2)) };
        assert_eq!(vlt.iter_occupied().collect::<Vec<_>>(), vec![3]);
        let head = vlt.take_bucket(3);
        assert!(vlt.bucket_is_empty(3));
        assert!(!head.is_null());
        assert_eq!(vlt.occupied_buckets(), 0);
        assert!(
            vlt.take_bucket(3).is_null(),
            "an empty take returns nothing"
        );
        assert_eq!(release_chain(head), 2);
    }

    /// Release a detached chain (the runtime retires it through EBR).
    fn release_chain(mut cur: *mut VltNode) -> usize {
        let mut n = 0;
        while !cur.is_null() {
            let next = unsafe { &*cur }.next.load(Ordering::Relaxed);
            unsafe { VltNode::release(cur) };
            cur = next;
            n += 1;
        }
        n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random insert / take sequences over a table spanning several
        /// bitmap words: after every step a bucket's bit is set exactly
        /// when the bucket is non-empty (`HashSet` oracle of occupied
        /// buckets), and the set-bit walk yields exactly the oracle.
        #[test]
        fn occupancy_bit_tracks_bucket_emptiness(
            ops in prop::collection::vec((any::<bool>(), 0usize..200), 1..300),
        ) {
            let vlt = Vlt::new(256);
            let mut oracle: HashSet<usize> = HashSet::new();
            let mut next_addr = 0x1000usize;
            for (is_insert, idx) in ops {
                if is_insert {
                    next_addr += 8;
                    unsafe { vlt.insert(idx, VltNode::acquire(next_addr, 1, 0)) };
                    oracle.insert(idx);
                } else {
                    let taken = release_chain(vlt.take_bucket(idx));
                    prop_assert_eq!(taken > 0, oracle.remove(&idx));
                }
                let mut expect: Vec<usize> = oracle.iter().copied().collect();
                expect.sort_unstable();
                prop_assert_eq!(vlt.iter_occupied().collect::<Vec<_>>(), expect);
                prop_assert_eq!(vlt.occupied_buckets(), oracle.len());
                for i in 0..vlt.len() {
                    prop_assert_eq!(vlt.bucket_is_empty(i), !oracle.contains(&i));
                }
            }
        }
    }
}
