//! Version nodes and version lists (paper §3.1, §4.1).
//!
//! A versioned address is associated with a singly linked *version list*,
//! newest first. Each node carries a timestamp (a global-clock value), the
//! data, and a *to-be-determined* (TBD) flag: a version added by an in-flight
//! update transaction is published immediately (so that the writer can keep
//! the list and the live word in sync) but marked TBD until the writer
//! commits (timestamp becomes the commit clock) or aborts (timestamp becomes
//! the *deleted* sentinel and the node is unlinked). Versioned readers that
//! encounter a relevant TBD head wait for it to resolve; deleted versions are
//! skipped.
//!
//! Nodes live in the epoch-recycled arena (`crate::arena`), not on the plain
//! heap: steady-state versioned transactions allocate nothing. See the arena
//! module docs for the recycling safety argument.

use crate::arena;
use tm_api::abort::TxResult;
use tm_api::sync::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use tm_api::Abort;

/// Timestamp sentinel for a version that belongs to an aborted transaction.
pub const DELETED_TS: u64 = u64::MAX;

/// A single version of one transactional word.
///
/// `repr(C)` with `older` first: a recycled slot's free-list link reuses the
/// first word, so the pointer field (dead in a free node) absorbs it while
/// the debug poison in `timestamp` stays intact.
#[derive(Debug)]
#[repr(C)]
pub struct VersionNode {
    /// Next-older version (null for the oldest retained version).
    pub older: AtomicPtr<VersionNode>,
    /// Global-clock timestamp from which this version is valid, or
    /// [`DELETED_TS`].
    pub timestamp: AtomicU64,
    /// The data of this version.
    pub data: AtomicU64,
    /// True while the owning transaction has not yet committed or aborted.
    pub tbd: AtomicBool,
}

impl VersionNode {
    /// Build a node *value* (used by the arena's in-place init).
    pub(crate) fn new_value(older: *mut VersionNode, timestamp: u64, data: u64, tbd: bool) -> Self {
        Self {
            older: AtomicPtr::new(older),
            timestamp: AtomicU64::new(timestamp),
            data: AtomicU64::new(data),
            tbd: AtomicBool::new(tbd),
        }
    }

    /// Acquire an initialised node from the arena (cold path: constructors
    /// and tests; the transaction hot path goes through its pool handle).
    pub fn acquire(older: *mut VersionNode, timestamp: u64, data: u64, tbd: bool) -> *mut Self {
        arena::acquire_version_node(older, timestamp, data, tbd)
    }

    /// Return an exclusively owned node to the arena (teardown/tests).
    ///
    /// # Safety
    /// `p` must be an arena node no other thread can still reach, released
    /// exactly once.
    pub(crate) unsafe fn release(p: *mut Self) {
        // Safety: forwarded contract.
        unsafe { arena::release_version_node(p) }
    }

    /// Resolve a TBD version to a committed version at `commit_ts`
    /// (Listing 1, `versionedWriteSet.unsetTBDs`).
    #[inline]
    pub fn resolve_committed(&self, commit_ts: u64) {
        self.timestamp.store(commit_ts, Ordering::Relaxed);
        self.tbd.store(false, Ordering::Release);
    }

    /// Resolve a TBD version as deleted (the owning transaction aborted).
    #[inline]
    pub fn resolve_deleted(&self) {
        self.timestamp.store(DELETED_TS, Ordering::Relaxed);
        self.tbd.store(false, Ordering::Release);
    }
}

/// The version list of one address: a lock-protected (for writers), newest-
/// first linked list of [`VersionNode`]s that readers traverse without locks.
#[derive(Debug)]
pub struct VersionList {
    head: AtomicPtr<VersionNode>,
}

impl VersionList {
    /// Create a version list whose initial version is (`timestamp`, `data`).
    ///
    /// Per §3.1.1, the initial version's data is the *last consistent value*
    /// of the address (its current value, because the creator holds the
    /// stripe lock) and its timestamp is the earliest safely usable one.
    pub fn with_initial(timestamp: u64, data: u64) -> Self {
        Self {
            head: AtomicPtr::new(VersionNode::acquire(
                std::ptr::null_mut(),
                timestamp,
                data,
                false,
            )),
        }
    }

    /// Create a list around an already-initialised, unpublished head node
    /// (the arena's in-place VLT-node init).
    pub(crate) fn from_head(head: *mut VersionNode) -> Self {
        Self {
            head: AtomicPtr::new(head),
        }
    }

    /// Current head pointer (newest version, possibly TBD).
    #[inline]
    pub fn head(&self) -> *mut VersionNode {
        self.head.load(Ordering::Acquire)
    }

    /// Publish `node` as the new head. Caller must hold the stripe lock.
    #[inline]
    pub fn push_head(&self, node: *mut VersionNode) {
        self.head.store(node, Ordering::Release);
    }

    /// Restore the head to `older` (rollback of an aborted TBD version).
    /// Caller must hold the stripe lock.
    #[inline]
    pub fn restore_head(&self, older: *mut VersionNode) {
        self.head.store(older, Ordering::Release);
    }

    /// `traverse` from Listing 2: find the newest version with
    /// `timestamp < read_clock`, waiting for a relevant TBD head to resolve,
    /// skipping deleted versions, and aborting if no suitable version exists.
    ///
    /// The acceptance rule is **strictly less than** the read clock, matching
    /// `LockState::validate` on the unversioned path. With the deferred
    /// clock a writer's commit timestamp can *equal* a concurrent reader's
    /// read clock (commits do not advance the clock), so accepting
    /// `timestamp == read_clock` here while raw reads reject stripes stamped
    /// at the read clock would let one snapshot mix pre-commit raw reads
    /// with at-clock versioned reads — an opacity violation observed as rare
    /// inconsistent sums in the bank-invariant tests.
    ///
    /// Every version that is not accepted is walked past, a committed one
    /// stamped exactly at the read clock included. That is sound because a
    /// versioned attempt *owns* its read clock: `MultiverseTx::begin` takes
    /// it from its own `GlobalClock::increment`, so a commit stamped
    /// `>= read_clock` read the clock after the reader began and had not
    /// completed when it began. Serializing the reader before such a commit
    /// is legitimate, and a write that completed before the reader began —
    /// the caller's own included — is stamped below the read clock and
    /// accepted. TBD versions are walked past for the same reason: an
    /// in-flight writer has not completed.
    ///
    /// The strict rule also shapes reclamation: a reader walks *past* a
    /// committed version stamped `T` only if its read clock is `<= T`, that
    /// is, only if it pinned before the commit stamped `T` and hence before
    /// the superseded version was retired. Superseded versions are moreover
    /// retired only once the global clock exceeds the superseding commit
    /// timestamp (see `arena` docs and `MultiverseTx::flush_superseded`).
    pub fn traverse(&self, read_clock: u64) -> TxResult<u64> {
        // Phase 1: wait while the head is a TBD version that could be
        // relevant to us. A TBD version resolves to a commit timestamp at
        // least as large as its provisional timestamp, so under the strict
        // rule it can only become relevant if the provisional timestamp is
        // strictly below our read clock.
        let mut spin = tm_api::backoff::SpinWait::new();
        let mut node_ptr;
        loop {
            node_ptr = self.head.load(Ordering::Acquire);
            if node_ptr.is_null() {
                return Err(Abort);
            }
            // Safety: version nodes are only reclaimed through EBR and the
            // calling transaction is pinned.
            let node = unsafe { &*node_ptr };
            let tbd = node.tbd.load(Ordering::Acquire);
            let ts = node.timestamp.load(Ordering::Acquire);
            debug_assert_ne!(
                ts,
                arena::POISON_TS,
                "reader reached a recycled version node"
            );
            if tbd && ts < read_clock {
                spin.spin();
                continue;
            }
            break;
        }
        // Phase 2: walk towards older versions until one is suitable.
        let mut cur = node_ptr;
        while !cur.is_null() {
            // Safety: as above.
            let node = unsafe { &*cur };
            let tbd = node.tbd.load(Ordering::Acquire);
            let ts = node.timestamp.load(Ordering::Acquire);
            debug_assert_ne!(
                ts,
                arena::POISON_TS,
                "reader reached a recycled version node"
            );
            // Reintroduced PR 1 bug (exploration demo): accept a version
            // stamped exactly at the read clock. See `crate::broken`.
            #[cfg(feature = "sim")]
            let suitable = ts < read_clock || (ts == read_clock && crate::broken::traverse_le());
            #[cfg(not(feature = "sim"))]
            let suitable = ts < read_clock;
            if !tbd && ts != DELETED_TS && suitable {
                return Ok(node.data.load(Ordering::Acquire));
            }
            cur = node.older.load(Ordering::Acquire);
        }
        Err(Abort)
    }

    /// Newest committed timestamp in this list (ignores TBD and deleted
    /// versions). Used by the background thread's unversioning heuristic.
    pub fn newest_committed_timestamp(&self) -> Option<u64> {
        let mut cur = self.head();
        while !cur.is_null() {
            // Safety: see `traverse`.
            let node = unsafe { &*cur };
            let tbd = node.tbd.load(Ordering::Acquire);
            let ts = node.timestamp.load(Ordering::Acquire);
            debug_assert_ne!(ts, arena::POISON_TS, "scan reached a recycled version node");
            if !tbd && ts != DELETED_TS {
                return Some(ts);
            }
            cur = node.older.load(Ordering::Acquire);
        }
        None
    }

    /// Detach the head node (used when unversioning a bucket: the caller
    /// holds the stripe lock and retires the returned node through EBR).
    ///
    /// Only the head needs explicit retirement: every *non-head* node was
    /// already retired — or queued for clock-gated retirement by the
    /// transaction that superseded it — at the moment it was replaced
    /// ("immediately after an update transaction adds a new version to a
    /// version list, the previous version is retired", §4.5), so retiring
    /// the whole chain here would double-free.
    pub fn detach_head(&self) -> *mut VersionNode {
        self.head.swap(std::ptr::null_mut(), Ordering::AcqRel)
    }

    /// Number of versions currently linked (test/diagnostic helper).
    pub fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head();
        while !cur.is_null() {
            n += 1;
            cur = unsafe { &*cur }.older.load(Ordering::Acquire);
        }
        n
    }

    /// Whether the list holds no versions.
    pub fn is_empty(&self) -> bool {
        self.head().is_null()
    }
}

impl Drop for VersionList {
    fn drop(&mut self) {
        // Only the head can still be owned by the list: every superseded
        // version was retired (and recycled) through EBR when it was
        // replaced (§4.5), and aborted versions were unlinked and retired on
        // rollback. Releasing the whole chain here would therefore
        // double-free; releasing only the head is exact.
        let head = self.head.load(Ordering::Relaxed);
        if !head.is_null() {
            // Safety: teardown — the list owns its head exclusively.
            unsafe { VersionNode::release(head) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_version_is_returned_for_late_readers() {
        let list = VersionList::with_initial(5, 42);
        assert_eq!(list.traverse(10), Ok(42));
        assert_eq!(list.traverse(6), Ok(42));
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn reader_older_than_every_version_aborts() {
        let list = VersionList::with_initial(5, 42);
        assert_eq!(list.traverse(4), Err(Abort));
        // The acceptance rule is strict: a version stamped exactly at the
        // read clock is not visible (it matches `validate`'s `< read_clock`).
        assert_eq!(list.traverse(5), Err(Abort));
    }

    #[test]
    fn traversal_picks_newest_suitable_version() {
        let list = VersionList::with_initial(2, 10);
        let v2 = VersionNode::acquire(list.head(), 6, 20, false);
        list.push_head(v2);
        let v3 = VersionNode::acquire(list.head(), 9, 30, false);
        list.push_head(v3);
        assert_eq!(list.len(), 3);
        assert_eq!(list.traverse(10), Ok(30));
        assert_eq!(list.traverse(8), Ok(20));
        assert_eq!(list.traverse(7), Ok(20));
        // Strict rule: ts 6 is not < 6, so a committed at-clock tie is
        // walked past to the older version (the reader owns its clock, so
        // that commit began after it).
        assert_eq!(list.traverse(6), Ok(10), "committed tie is walked past");
        assert_eq!(list.traverse(3), Ok(10));
        assert_eq!(list.traverse(2), Err(Abort));
    }

    #[test]
    fn committed_tie_tbd_and_future_versions_are_walked_past() {
        let list = VersionList::with_initial(2, 10);
        // A committed version strictly above the read clock is walked past
        // (its commit observed a clock the reader's snapshot predates)...
        let future = VersionNode::acquire(list.head(), 8, 99, false);
        list.push_head(future);
        assert_eq!(list.traverse(5), Ok(10));
        // ...and so is an in-flight TBD version provisionally stamped *at*
        // the read clock (the writer has not completed).
        let pending = VersionNode::acquire(list.head(), 5, 77, true);
        list.push_head(pending);
        assert_eq!(list.traverse(5), Ok(10));
        // Once that version commits at the reader's clock it is still
        // walked past: the commit read the clock after the reader took it.
        unsafe { &*pending }.resolve_committed(5);
        assert_eq!(list.traverse(5), Ok(10));
        assert_eq!(list.traverse(6), Ok(77));
    }

    #[test]
    fn deleted_versions_are_skipped() {
        let list = VersionList::with_initial(2, 10);
        let dead = VersionNode::acquire(list.head(), 7, 99, false);
        list.push_head(dead);
        unsafe { &*dead }.resolve_deleted();
        assert_eq!(list.traverse(10), Ok(10), "deleted version skipped");
    }

    #[test]
    fn tbd_head_in_the_future_is_skipped_without_waiting() {
        let list = VersionList::with_initial(2, 10);
        let pending = VersionNode::acquire(list.head(), 8, 99, true);
        list.push_head(pending);
        // A reader with read clock 5 does not care about a TBD version whose
        // provisional timestamp is 8 — it must not block.
        assert_eq!(list.traverse(5), Ok(10));
    }

    #[test]
    fn tbd_head_blocks_relevant_reader_until_resolution() {
        use std::sync::Arc;
        let list = Arc::new(VersionList::with_initial(2, 10));
        let pending = VersionNode::acquire(list.head(), 4, 99, true);
        list.push_head(pending);
        let reader_list = Arc::clone(&list);
        let reader = std::thread::spawn(move || reader_list.traverse(6));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            !reader.is_finished(),
            "reader must wait on a relevant TBD head"
        );
        unsafe { &*pending }.resolve_committed(5);
        assert_eq!(reader.join().unwrap(), Ok(99));
    }

    #[test]
    fn newest_committed_timestamp_ignores_tbd_and_deleted() {
        let list = VersionList::with_initial(3, 1);
        assert_eq!(list.newest_committed_timestamp(), Some(3));
        let committed = VersionNode::acquire(list.head(), 7, 2, false);
        list.push_head(committed);
        let pending = VersionNode::acquire(list.head(), 9, 3, true);
        list.push_head(pending);
        assert_eq!(list.newest_committed_timestamp(), Some(7));
        unsafe { &*pending }.resolve_deleted();
        assert_eq!(list.newest_committed_timestamp(), Some(7));
    }

    #[test]
    fn detach_head_empties_the_list() {
        let list = VersionList::with_initial(1, 1);
        let old_head = list.head();
        let second = VersionNode::acquire(old_head, 2, 2, false);
        list.push_head(second);
        let detached = list.detach_head();
        assert_eq!(detached, second);
        assert!(list.is_empty());
        // Release manually in this test (the runtime retires through EBR):
        // the detached head plus the node it superseded.
        unsafe {
            VersionNode::release(detached);
            VersionNode::release(old_head);
        }
    }

    #[test]
    fn rollback_restores_previous_head() {
        let list = VersionList::with_initial(2, 10);
        let old_head = list.head();
        let pending = VersionNode::acquire(old_head, 4, 99, true);
        list.push_head(pending);
        // Abort path: mark deleted, unlink, (retire elsewhere).
        unsafe { &*pending }.resolve_deleted();
        list.restore_head(old_head);
        assert_eq!(list.traverse(10), Ok(10));
        unsafe { VersionNode::release(pending) };
    }

    #[test]
    fn recycled_slots_are_fully_reinitialised() {
        // Churn one list through many acquire/release cycles: recycled slots
        // must come back fully re-initialised (never poisoned, never stale),
        // which the traverse asserts verify on every step.
        let list = VersionList::with_initial(1, 0);
        for i in 0..256u64 {
            let old = list.head();
            // The new head does not link to `old`: this test releases `old`
            // immediately, so keeping it reachable would be a use-after-free.
            let n = VersionNode::acquire(std::ptr::null_mut(), 2 + i, i, false);
            list.push_head(n);
            // Manually recycle the superseded node as the runtime would
            // after its grace period.
            unsafe { VersionNode::release(old) };
            // The (recycled) head must carry exactly the fresh values.
            assert_eq!(list.traverse(u64::MAX - 1), Ok(i));
            assert_eq!(list.len(), 1);
        }
    }
}
