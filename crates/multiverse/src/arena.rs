//! The shared version-node arena: epoch-recycled pool memory for
//! [`VersionNode`]s and [`VltNode`]s.
//!
//! Every versioned write publishes a version node and every first-versioning
//! of an address publishes a VLT bucket node. In the seed implementation each
//! of those was a `Box` allocation, and every retirement ended in a `free` —
//! profiling showed the versioned hot path dominated by allocator traffic.
//! This module routes all version-list memory through one process-wide
//! [`NodePool`] of 64-byte, cache-line-aligned slots (both node types fit in
//! one line, so version/unversion churn recycles slots *between* the two
//! types). Steady-state versioned transactions allocate nothing.
//!
//! ## Safety argument: why recycled nodes can never be confused with live ones
//!
//! 1. **Retire-before-recycle.** A slot only re-enters the pool through one
//!    of the EBR destructors below (`recycle_version_node`,
//!    `recycle_vlt_chain`) or from an owner that never published it (abort
//!    rollback retires through EBR too; only teardown releases directly).
//!    EBR runs a destructor strictly after a grace period: no thread that
//!    was pinned when the node was retired is still pinned. Reusing the slot
//!    is therefore exactly as safe as freeing it.
//! 2. **Unreachability at retire time.** Multiverse retires a node only when
//!    no *newly pinned* reader can reach it: an unversioned bucket chain was
//!    detached from the VLT under the stripe lock; an aborted TBD version was
//!    unlinked under the stripe lock; and a *superseded* version (still
//!    linked below the new head!) is retired only once the global clock has
//!    advanced past the superseding commit timestamp `T` — see
//!    `MultiverseTx::flush_superseded`. Under the strict `< read-clock`
//!    acceptance rule, a reader dereferences past a committed version stamped
//!    `T` only if its read clock is `<= T`. The clock-gate composes with the
//!    EBR pin handshake (`ebr::LocalHandle::pin`: `SeqCst` pin store, then a
//!    `SeqCst` *revalidation* load of the epoch, re-announcing until stable;
//!    the advance scan reads slots with `SeqCst`): a validated pin at epoch
//!    `E` is visible to every later advance scan, so the epoch can never
//!    move two steps past `E` while the reader stays pinned — reclaim is
//!    blocked. Conversely, a reader that pinned at an already-advanced
//!    epoch read that epoch from the advance CAS, which synchronizes-with
//!    it, and the retiring thread's `clock > T` check happens-before that
//!    CAS — so the reader's own clock read yields `rv > T`, it accepts the
//!    superseding version, and never walks past it into the recycled node.
//! 3. **Init-before-publish.** A slot popped from the pool is fully
//!    re-initialised (`ptr::write` of the whole node, plain stores) while it
//!    is exclusively owned, and only then published — under the stripe lock,
//!    with a `Release` store
//!    ([`VersionList::push_head`](crate::version::VersionList::push_head),
//!    `Vlt::insert`).
//!    Readers reach the node through an `Acquire` load of that pointer, so
//!    they observe the fresh timestamp/TBD/data fields, never stale ones.
//!    This is the same ordering `Box::new` publication relied on.
//! 4. **No pointer CAS on node fields.** Recycling introduces an ABA hazard
//!    only for lock-free CAS on pointers into recycled memory. All version
//!    list and VLT mutation happens under stripe locks with plain stores;
//!    readers only load. (The pool's own free stack is CAS-push/
//!    swap-detach, which is ABA-immune — see `ebr::pool`.)
//!
//! In debug builds, recycled nodes are **poisoned** (timestamp/address set to
//! [`POISON_TS`]/`POISON_ADDR`) right before they re-enter the pool, and the
//! read paths `debug_assert` they never observe a poisoned field — turning
//! any reuse-before-grace bug into a deterministic assertion instead of a
//! silent stale read.

use crate::version::VersionNode;
use crate::vlt::VltNode;
use ebr::pool::{NodePool, PoolHandle};
use std::sync::atomic::Ordering;
use tm_api::stats::process_stats;

/// Size of one pooled slot. Both node types fit in a single cache line; the
/// Fig. 9 memory accounting counts this (the real footprint), not
/// `size_of::<Node>()`.
pub const NODE_SLOT_BYTES: usize = 64;

/// Timestamp written into a version node when it is recycled (debug builds).
/// Distinct from every reachable timestamp: real timestamps come from the
/// global clock (starts at 2, 48-bit max) or are `DELETED_TS` (`u64::MAX`).
pub const POISON_TS: u64 = 0xF5F5_F5F5_F5F5_F5F5;

/// Address written into a VLT node when it is recycled (debug builds).
pub const POISON_ADDR: usize = 0xF5F5_F5F5_F5F5_F5F5_u64 as usize;

/// The process-wide node pool backing every Multiverse runtime (both
/// version-node types fit one 64-byte slot; the transactional structures'
/// size-classed arena lives in `txstructs::node` on the same machinery).
///
/// Being a `static` keeps the EBR destructors context-free (`unsafe
/// fn(*mut u8)`) and makes the pool outlive any orphaned garbage a dropped
/// collector may still hold. The trade-off is that pool-level metrics
/// ([`total_pool_bytes`], the `pool_recycled` row) are process-wide; the
/// figure runners execute one TM at a time, so the numbers stay attributable.
static NODE_ARENA: NodePool = NodePool::new(NODE_SLOT_BYTES);

const _: () = {
    assert!(std::mem::size_of::<VersionNode>() <= NODE_SLOT_BYTES);
    assert!(std::mem::align_of::<VersionNode>() <= ebr::pool::CACHE_LINE);
    assert!(std::mem::size_of::<VltNode>() <= NODE_SLOT_BYTES);
    assert!(std::mem::align_of::<VltNode>() <= ebr::pool::CACHE_LINE);
};

/// A per-descriptor allocation handle onto the shared pool.
pub(crate) fn pool_handle() -> PoolHandle {
    PoolHandle::new(&NODE_ARENA)
}

/// Total bytes the pool holds (live + EBR-pending + free), process-wide.
pub fn total_pool_bytes() -> usize {
    NODE_ARENA.total_bytes()
}

/// Initialise a pooled slot as a [`VersionNode`].
///
/// # Safety
/// `p` must be an exclusively owned slot from the arena pool (or otherwise
/// valid for a `VersionNode` write). Publication must happen after this call
/// with `Release` ordering (init-before-publish, safety point 3).
#[inline]
pub(crate) unsafe fn init_version_node(
    p: *mut VersionNode,
    older: *mut VersionNode,
    timestamp: u64,
    data: u64,
    tbd: bool,
) {
    // Safety: exclusive ownership per the contract.
    unsafe { p.write(VersionNode::new_value(older, timestamp, data, tbd)) };
}

/// Initialise a pooled slot as a [`VltNode`] whose version list starts at
/// `initial` (an already-initialised, unpublished version node).
///
/// # Safety
/// As for [`init_version_node`]; `initial` must be exclusively owned.
#[inline]
pub(crate) unsafe fn init_vlt_node(p: *mut VltNode, addr: usize, initial: *mut VersionNode) {
    // Safety: exclusive ownership per the contract.
    unsafe { p.write(VltNode::new_value(addr, initial)) };
}

/// Cold-path acquisition of an initialised version node (list constructors,
/// tests). Hot paths allocate through the descriptor's [`PoolHandle`].
pub(crate) fn acquire_version_node(
    older: *mut VersionNode,
    timestamp: u64,
    data: u64,
    tbd: bool,
) -> *mut VersionNode {
    let p = NODE_ARENA.alloc_cold() as *mut VersionNode;
    // Safety: fresh exclusive slot of sufficient size/alignment.
    unsafe { init_version_node(p, older, timestamp, data, tbd) };
    p
}

/// Cold-path acquisition of an initialised VLT node (tests); allocates the
/// node and its initial version.
#[cfg(test)]
pub(crate) fn acquire_vlt_node(addr: usize, timestamp: u64, data: u64) -> *mut VltNode {
    let initial = acquire_version_node(std::ptr::null_mut(), timestamp, data, false);
    let p = NODE_ARENA.alloc_cold() as *mut VltNode;
    // Safety: fresh exclusive slot.
    unsafe { init_vlt_node(p, addr, initial) };
    p
}

#[inline]
fn poison_version(p: *mut VersionNode) {
    #[cfg(debug_assertions)]
    // Safety (debug only): the node is past its grace period / exclusively
    // owned; poisoning through the atomic fields is a plain store.
    unsafe {
        (*p).timestamp.store(POISON_TS, Ordering::Relaxed);
        (*p).tbd.store(false, Ordering::Relaxed);
    }
    #[cfg(not(debug_assertions))]
    let _ = p;
}

#[inline]
fn poison_vlt(p: *mut VltNode) {
    #[cfg(debug_assertions)]
    // Safety (debug only): as in `poison_version`.
    unsafe {
        (*p).addr = POISON_ADDR;
    }
    #[cfg(not(debug_assertions))]
    let _ = p;
}

/// Release a version node straight into the pool (teardown/tests — **not**
/// for nodes other threads might still read; those go through EBR).
///
/// # Safety
/// `p` must be an exclusively owned arena slot, released exactly once.
pub(crate) unsafe fn release_version_node(p: *mut VersionNode) {
    poison_version(p);
    // Safety: forwarded contract.
    unsafe { NODE_ARENA.push(p as *mut u8) };
}

/// Release a VLT node and (if present) its version-list head into the pool
/// (teardown/tests). Non-head versions were already retired/released when
/// superseded.
///
/// # Safety
/// As for [`release_version_node`].
pub(crate) unsafe fn release_vlt_node(p: *mut VltNode) {
    // Safety: exclusive ownership per the contract.
    let head = unsafe { &(*p).vlist }.detach_head();
    if !head.is_null() {
        // Safety: the list owned its head exclusively.
        unsafe { release_version_node(head) };
    }
    poison_vlt(p);
    // Safety: forwarded contract.
    unsafe { NODE_ARENA.push(p as *mut u8) };
}

/// EBR destructor recycling a single retired [`VersionNode`] into the pool.
///
/// # Safety
/// Standard retire-destructor contract: called once, after the grace period,
/// on a pointer originally produced by this arena.
pub(crate) unsafe fn recycle_version_node(p: *mut u8) {
    poison_version(p as *mut VersionNode);
    process_stats().pool_recycled.add_shared(1);
    // Safety: grace period elapsed (destructor contract).
    unsafe { NODE_ARENA.push(p) };
}

/// EBR destructor recycling a whole detached VLT bucket chain — the nodes
/// linked through `VltNode::next` *and* each node's version-list head — as
/// one retirement. Batching the chain into a single EBR entry is what keeps
/// `unversion_bucket` from paying one retire per node.
///
/// # Safety
/// As for [`recycle_version_node`]; `p` must be the head of a detached
/// `VltNode` chain.
pub(crate) unsafe fn recycle_vlt_chain(p: *mut u8) {
    let mut cur = p as *mut VltNode;
    let mut n = 0u64;
    while !cur.is_null() {
        // Safety: the chain is exclusively owned once the grace period has
        // elapsed; read `next` before the pool push overwrites the link word.
        let next = unsafe { &*cur }.next.load(Ordering::Relaxed);
        let head = unsafe { &(*cur).vlist }.detach_head();
        if !head.is_null() {
            poison_version(head);
            // Safety: the head was owned by this (detached) list.
            unsafe { NODE_ARENA.push(head as *mut u8) };
            n += 1;
        }
        poison_vlt(cur);
        // Safety: as above.
        unsafe { NODE_ARENA.push(cur as *mut u8) };
        n += 1;
        cur = next;
    }
    process_stats().pool_recycled.add_shared(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::DELETED_TS;

    #[test]
    fn node_types_fit_one_slot() {
        assert!(std::mem::size_of::<VersionNode>() <= NODE_SLOT_BYTES);
        assert!(std::mem::size_of::<VltNode>() <= NODE_SLOT_BYTES);
        assert_ne!(POISON_TS, DELETED_TS);
    }

    #[test]
    fn acquire_release_version_node_roundtrip() {
        let p = acquire_version_node(std::ptr::null_mut(), 7, 42, false);
        let node = unsafe { &*p };
        assert_eq!(node.timestamp.load(Ordering::Relaxed), 7);
        assert_eq!(node.data.load(Ordering::Relaxed), 42);
        assert!(!node.tbd.load(Ordering::Relaxed));
        unsafe { release_version_node(p) };
        // The slot comes back re-initialised, not poisoned.
        let q = acquire_version_node(std::ptr::null_mut(), 9, 1, true);
        let node = unsafe { &*q };
        assert_eq!(node.timestamp.load(Ordering::Relaxed), 9);
        assert!(node.tbd.load(Ordering::Relaxed));
        unsafe { release_version_node(q) };
    }

    #[test]
    fn recycle_chain_returns_every_slot() {
        let before = process_stats().pool_recycled.get();
        let a = acquire_vlt_node(0x1000, 1, 10);
        let b = acquire_vlt_node(0x2000, 2, 20);
        unsafe { &*a }.next.store(b, Ordering::Relaxed);
        unsafe { recycle_vlt_chain(a as *mut u8) };
        // 2 VLT nodes + 2 version-list heads.
        assert_eq!(process_stats().pool_recycled.get() - before, 4);
    }
}
