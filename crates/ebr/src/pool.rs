//! Epoch-recycled node pools: fixed-size, cache-line-aligned slots whose
//! "free" path feeds per-core-group free lists instead of the system
//! allocator.
//!
//! The Multiverse hot path publishes a version node on every versioned write
//! and a VLT bucket node on every first-versioning of an address. With plain
//! `Box` allocation each of those is a `malloc`, and each retirement through
//! EBR ends in a `free` — the dominant cost of the versioned write path. A
//! [`NodePool`] removes both ends of that churn:
//!
//! * slots are allocated from the system allocator in slabs (cache-line
//!   aligned, one slot per line so neighbouring nodes never false-share) and
//!   are never returned to it while the process lives;
//! * freeing a slot pushes it onto an intrusive free list; allocating pops
//!   one. At steady state the versioned hot path performs **zero** heap
//!   allocations;
//! * EBR retirement composes naturally: a retire whose destructor pushes the
//!   node into the pool *recycles after the grace period* — the node becomes
//!   reusable exactly when it becomes unreachable, with the same safety
//!   argument as freeing it (see the reclamation notes below).
//!
//! Two pool shapes are exported. [`NodePool`] is a single fixed-size arena
//! (the Multiverse version-node arena is one, with 64-byte slots).
//! [`ClassedPool`] generalises it into a small family of **size classes** —
//! one `NodePool` per graduated slot size, sharing the refill/spill
//! machinery and the reclamation argument below unchanged — so callers with
//! heterogeneous node types (the transactional data structures: 24-byte list
//! nodes up to 408-byte (a,b)-tree nodes) get the same allocation-free
//! steady state from one arena.
//!
//! ## Structure: one free stack, per-thread caches
//!
//! A [`NodePool`] is a global (usually `static`) object holding one
//! cache-padded intrusive Treiber stack of free slots, linked through each
//! slot's first word. Hot-path users allocate through a per-thread
//! [`PoolHandle`]: a small array of slots plus a private reserve chain, so
//! the common case is a pointer pop with no shared-memory traffic at all.
//! A dry handle detaches the whole stack as its reserve; only when the
//! stack is empty does it grow a fresh `SLAB_SLOTS`-slot slab from the
//! system allocator. A full cache spills its coldest half as **one** chain
//! push (one CAS per `SPILL_BATCH` slots). Context-free frees
//! ([`NodePool::push`], used by EBR recycle destructors) push one slot.
//!
//! ## ABA safety
//!
//! The classic Treiber-stack ABA hazard exists only for a *pop* implemented
//! as a CAS of `head -> head.next` (the observed `next` may be stale by the
//! time the CAS succeeds). This pool never does that: the only shared
//! operations are CAS-*push* (immune: the pushed chain's links are written
//! before the CAS and nobody else can touch them) and *detach-all* via
//! `swap` (immune: no dependency on a previously read link). Refills are
//! detach-all + keep-the-rest-privately.
//!
//! ## Reclamation safety (why recycling is as safe as freeing)
//!
//! A slot enters the free stack either from an owner that never published
//! it, or through an EBR retire destructor. EBR runs the destructor only
//! after a full grace period, i.e. when no thread pinned before the
//! retirement is still pinned — exactly the condition under which `free()`
//! would have been sound. Re-initialising the slot and re-publishing it is
//! therefore indistinguishable, to every correctly pinned reader, from a
//! fresh allocation. Whether an unreachable slot waits on the shared stack
//! or in some handle's cache is invisible to readers — the grace period has
//! already severed every path to it. The one structural caveat: *lock-free
//! readers must not CAS on pointers into pooled nodes* (a recycled node
//! could make such a CAS succeed spuriously — ABA). The Multiverse lists
//! satisfy this by design: all list mutation happens under stripe locks
//! with plain stores, readers only load.

use std::alloc::{alloc, handle_alloc_error, Layout};
use std::ptr;
use tm_api::sync::{AtomicPtr, AtomicUsize, Ordering};
use tm_api::CachePadded;

/// Slot alignment: one slot per cache line.
pub const CACHE_LINE: usize = 64;

/// Slots obtained from the system allocator in one growth step (one `alloc`
/// call serves the next [`SLAB_SLOTS`] pool misses).
const SLAB_SLOTS: usize = 8;

/// Slots returned to the free stack in one chain push when the local cache
/// spills.
const SPILL_BATCH: usize = LOCAL_CACHE / 2;

/// Where a [`PoolHandle::alloc`] slot came from, for the caller's hit/miss
/// statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotSource {
    /// Recycled memory from the handle's cache, reserve or the free stack.
    Hit,
    /// Fresh memory: the slot came from a newly grown slab.
    Miss,
}

/// A pool of fixed-size, cache-line-aligned memory slots with one intrusive
/// free stack. Const-constructible so it can live in a `static`.
#[derive(Debug)]
pub struct NodePool {
    /// Fixed slot size in bytes (multiple of [`CACHE_LINE`]).
    slot_bytes: usize,
    /// Head of the free stack (link in each slot's first word).
    head: CachePadded<AtomicPtr<u8>>,
    /// Slots ever requested from the system allocator (never decremented:
    /// pool memory is not returned to the OS while the process lives).
    total_slots: AtomicUsize,
}

impl NodePool {
    /// Create an empty pool of `slot_bytes`-sized slots.
    ///
    /// `slot_bytes` must be a non-zero multiple of [`CACHE_LINE`]; violating
    /// this in a `static` initialiser fails at compile time.
    pub const fn new(slot_bytes: usize) -> Self {
        assert!(
            slot_bytes != 0 && slot_bytes.is_multiple_of(CACHE_LINE),
            "NodePool slot size must be a non-zero multiple of the cache line"
        );
        Self {
            slot_bytes,
            head: CachePadded::new(AtomicPtr::new(ptr::null_mut())),
            total_slots: AtomicUsize::new(0),
        }
    }

    /// Size of one slot in bytes.
    #[inline]
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// Total bytes ever obtained from the system allocator — live nodes,
    /// EBR-pending nodes and pooled-but-free slots together. This is the
    /// honest process-level footprint of the pool.
    pub fn total_bytes(&self) -> usize {
        self.total_slots.load(Ordering::Relaxed) * self.slot_bytes
    }

    /// Count the slots currently sitting on the free stack.
    ///
    /// Diagnostic for tests ("no slot was lost").
    ///
    /// # Safety
    /// The pool must be quiescent: no concurrent alloc/free/push may run
    /// while the walk reads the chain (a popped slot's link word is
    /// overwritten by its new owner).
    pub unsafe fn free_slot_count(&self) -> usize {
        let mut count = 0;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            count += 1;
            // Safety: quiescence per the contract — the chain is stable.
            cur = unsafe { *(cur as *mut *mut u8) };
        }
        count
    }

    fn layout(&self, slots: usize) -> Layout {
        // Safety of unwrap: slot_bytes is a non-zero multiple of CACHE_LINE
        // (checked in `new`), so the layout is always valid.
        Layout::from_size_align(self.slot_bytes * slots, CACHE_LINE).expect("valid pool layout")
    }

    /// One fresh slot straight from the system allocator, touching **no**
    /// pool state — the deterministic-execution path (see the `sim` notes on
    /// [`NodePool::push`]). The slot is never returned to the allocator.
    #[cfg(feature = "sim")]
    fn alloc_unpooled(&self) -> *mut u8 {
        let layout = self.layout(1);
        // Safety: layout has non-zero size.
        let p = unsafe { alloc(layout) };
        if p.is_null() {
            handle_alloc_error(layout);
        }
        p
    }

    /// Obtain one fresh slot from the system allocator (cold-path miss).
    fn grow_one(&self) -> *mut u8 {
        let layout = self.layout(1);
        // Safety: layout has non-zero size.
        let p = unsafe { alloc(layout) };
        if p.is_null() {
            handle_alloc_error(layout);
        }
        self.total_slots.fetch_add(1, Ordering::Relaxed);
        p
    }

    /// Grow a slab of [`SLAB_SLOTS`] slots with one system allocation and
    /// return it as a null-terminated chain (linked through first words).
    /// Slab memory is never returned to the allocator, so carving it into
    /// independently recycled slots is sound.
    fn grow_slab(&self) -> *mut u8 {
        let layout = self.layout(SLAB_SLOTS);
        // Safety: layout has non-zero size.
        let base = unsafe { alloc(layout) };
        if base.is_null() {
            handle_alloc_error(layout);
        }
        for i in 0..SLAB_SLOTS - 1 {
            // Safety: the slab is exclusively owned; every slot starts on a
            // cache line inside the allocation.
            unsafe {
                let slot = base.add(i * self.slot_bytes);
                (slot as *mut *mut u8).write(base.add((i + 1) * self.slot_bytes));
            }
        }
        // Safety: as above.
        unsafe {
            let last = base.add((SLAB_SLOTS - 1) * self.slot_bytes);
            (last as *mut *mut u8).write(ptr::null_mut());
        }
        self.total_slots.fetch_add(SLAB_SLOTS, Ordering::Relaxed);
        base
    }

    /// Push one free slot onto the free stack.
    ///
    /// This is the context-free entry point EBR recycle destructors use.
    ///
    /// # Safety
    /// `node` must be a slot obtained from this pool (same size class), must
    /// not be pushed twice, and no other thread may still dereference it
    /// (for EBR-retired nodes: the grace period must have elapsed — which is
    /// guaranteed when called from a retire destructor).
    pub unsafe fn push(&self, node: *mut u8) {
        // Under a controlled execution the pool is bypassed entirely: the
        // free stack is process-global state that persists *across*
        // explored schedules, so recycling through it makes a replayed
        // schedule take different hit/miss paths (different instrumented
        // access sequences) than its original run. Every sim allocation is
        // fresh and every free leaks — each schedule then starts from
        // identical allocator-visible state, and debug poison stamped into
        // retired nodes survives for the use-after-reclaim demos.
        #[cfg(feature = "sim")]
        if sim::active() {
            let _ = node;
            return;
        }
        // Safety: forwarded contract.
        unsafe { self.push_chain(node, node) };
    }

    /// Push an already-linked chain of free slots (linked through each
    /// slot's first word; `tail`'s link will be overwritten) in one CAS.
    ///
    /// # Safety
    /// As for [`Self::push`], for every node of the chain; `tail` must be
    /// reachable from `head` through the first-word links.
    unsafe fn push_chain(&self, head: *mut u8, tail: *mut u8) {
        debug_assert!(!head.is_null() && !tail.is_null());
        let mut cur = self.head.load(Ordering::Relaxed);
        loop {
            // Safety: the chain is private until the CAS publishes it.
            unsafe { (tail as *mut *mut u8).write(cur) };
            match self
                .head
                .compare_exchange_weak(cur, head, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(h) => cur = h,
            }
        }
    }

    /// Detach the entire free stack (ABA-free `swap`). Returns the chain
    /// head (possibly null); links are readable after the `Acquire`.
    fn detach(&self) -> *mut u8 {
        self.head.swap(ptr::null_mut(), Ordering::Acquire)
    }

    /// Pop a single slot, falling back to the system allocator.
    ///
    /// Cold-path variant used by constructors that run outside a transaction
    /// (tests, list teardown re-init). It detaches the stack, takes one
    /// slot, and pushes the remainder back (an `O(remainder)` walk to find
    /// the tail) — correct but deliberately not for hot paths, which go
    /// through a [`PoolHandle`].
    pub fn alloc_cold(&self) -> *mut u8 {
        // Deterministic-execution bypass; see [`Self::push`].
        #[cfg(feature = "sim")]
        if sim::active() {
            return self.alloc_unpooled();
        }
        let head = self.detach();
        if head.is_null() {
            return self.grow_one();
        }
        // Safety: detached chain is private to us; links were published by
        // the Release pushes we Acquire-read.
        let rest = unsafe { *(head as *mut *mut u8) };
        if !rest.is_null() {
            // Safety: as above, the chain is private, and rest..=tail is
            // then a valid private chain of this pool.
            unsafe { self.push_chain(rest, chain_tail(rest)) };
        }
        head
    }
}

/// Walk a private free chain (linked through first words) to its last node.
///
/// # Safety
/// `head` must be non-null and the chain must be exclusively owned (no
/// concurrent pops can be rewriting the link words) and null-terminated.
unsafe fn chain_tail(head: *mut u8) -> *mut u8 {
    let mut tail = head;
    loop {
        // Safety: exclusive ownership per the contract.
        let next = unsafe { *(tail as *mut *mut u8) };
        if next.is_null() {
            return tail;
        }
        tail = next;
    }
}

// The pool only stores exclusively-owned free slots; moving/sharing the pool
// itself across threads is safe.
unsafe impl Send for NodePool {}
unsafe impl Sync for NodePool {}

/// Inline capacity of a [`PoolHandle`]'s local slot array.
const LOCAL_CACHE: usize = 32;

/// A per-thread allocation handle onto a [`NodePool`].
///
/// Owns a small array of free slots plus a private reserve chain detached
/// wholesale from the free stack, so steady-state `alloc`/`free` touch no
/// shared memory; refills and spills run against the stack in batches. Not
/// `Send`: it belongs to the descriptor of one thread.
#[derive(Debug)]
pub struct PoolHandle {
    pool: &'static NodePool,
    cache: [*mut u8; LOCAL_CACHE],
    len: usize,
    /// Private chain detached from the free stack (linked via first words).
    reserve: *mut u8,
    /// Remainder of the most recently grown slab: fresh, never-recycled
    /// slots (served as misses).
    fresh: *mut u8,
}

impl PoolHandle {
    /// Create a handle with an empty local cache.
    pub fn new(pool: &'static NodePool) -> Self {
        Self {
            pool,
            cache: [ptr::null_mut(); LOCAL_CACHE],
            len: 0,
            reserve: ptr::null_mut(),
            fresh: ptr::null_mut(),
        }
    }

    /// The pool this handle allocates from.
    pub fn pool(&self) -> &'static NodePool {
        self.pool
    }

    /// Allocate one slot, reporting where it came from (for the caller's
    /// hit/miss statistics).
    #[inline]
    pub fn alloc(&mut self) -> (*mut u8, SlotSource) {
        // Deterministic-execution bypass; see [`NodePool::push`].
        #[cfg(feature = "sim")]
        if sim::active() {
            return (self.pool.alloc_unpooled(), SlotSource::Miss);
        }
        if self.len > 0 {
            self.len -= 1;
            return (self.cache[self.len], SlotSource::Hit);
        }
        if !self.reserve.is_null() {
            let p = self.reserve;
            // Safety: the reserve chain is private to this handle.
            self.reserve = unsafe { *(p as *mut *mut u8) };
            return (p, SlotSource::Hit);
        }
        if !self.fresh.is_null() {
            let p = self.fresh;
            // Safety: the fresh chain is private to this handle.
            self.fresh = unsafe { *(p as *mut *mut u8) };
            return (p, SlotSource::Miss);
        }
        self.alloc_slow()
    }

    /// Refill path: the whole free stack, else a fresh slab.
    #[cold]
    fn alloc_slow(&mut self) -> (*mut u8, SlotSource) {
        // Adopt the whole stack as our private reserve (no per-node CAS); a
        // transient concentration of free slots in one handle flows back
        // through the batched spills.
        let head = self.pool.detach();
        if !head.is_null() {
            // Safety: detached chain is private to us.
            self.reserve = unsafe { *(head as *mut *mut u8) };
            return (head, SlotSource::Hit);
        }
        let head = self.pool.grow_slab();
        // Safety: the freshly grown slab chain is private to us.
        self.fresh = unsafe { *(head as *mut *mut u8) };
        (head, SlotSource::Miss)
    }

    /// Return one slot to the pool.
    ///
    /// # Safety
    /// As for [`NodePool::push`].
    #[inline]
    pub unsafe fn free(&mut self, node: *mut u8) {
        // Deterministic-execution bypass; see [`NodePool::push`].
        #[cfg(feature = "sim")]
        if sim::active() {
            let _ = node;
            return;
        }
        if self.len == LOCAL_CACHE {
            // Safety: the spilled slots are exclusively owned cache entries.
            unsafe { self.spill() };
        }
        self.cache[self.len] = node;
        self.len += 1;
    }

    /// Return the coldest half of the local cache to the free stack as one
    /// chain (a single CAS per [`SPILL_BATCH`] slots).
    ///
    /// # Safety
    /// Cache entries satisfy the [`NodePool::push`] contract by construction.
    #[cold]
    unsafe fn spill(&mut self) {
        debug_assert_eq!(self.len, LOCAL_CACHE);
        for i in 0..SPILL_BATCH - 1 {
            // Safety: cache slots are exclusively owned until pushed.
            unsafe { (self.cache[i] as *mut *mut u8).write(self.cache[i + 1]) };
        }
        // Safety: cache[0..SPILL_BATCH] is now a valid private chain.
        unsafe {
            self.pool
                .push_chain(self.cache[0], self.cache[SPILL_BATCH - 1])
        };
        self.cache.copy_within(SPILL_BATCH..LOCAL_CACHE, 0);
        self.len = LOCAL_CACHE - SPILL_BATCH;
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        if self.len > 0 {
            for i in 0..self.len - 1 {
                // Safety: cache slots are exclusively owned; link them into
                // one chain for a single push.
                unsafe { (self.cache[i] as *mut *mut u8).write(self.cache[i + 1]) };
            }
            // Safety: cache[0..len] is a valid private chain.
            unsafe {
                self.pool
                    .push_chain(self.cache[0], self.cache[self.len - 1])
            };
        }
        for chain in [self.reserve, self.fresh] {
            if chain.is_null() {
                continue;
            }
            // Safety: the chain is exclusively owned and null-terminated.
            unsafe { self.pool.push_chain(chain, chain_tail(chain)) };
        }
    }
}

// ---------------------------------------------------------------------------
// Size classes
// ---------------------------------------------------------------------------

/// A family of [`NodePool`]s with graduated slot sizes ("size classes").
///
/// One arena serving heterogeneous fixed-size nodes: an allocation of `b`
/// bytes is served from the smallest class whose slot size is `>= b`
/// ([`class_for_size`]), and a free slot only ever re-enters the free stack
/// of **its own class** (the class is part of every alloc/free call, so
/// slots can never bleed between classes). Each class is a full
/// [`NodePool`] — batched refill/spill, slab growth — and the reclamation
/// safety argument of the module docs applies per class, unchanged: which
/// class's free stack holds an unreachable slot is invisible to readers.
///
/// Const-constructible so it can live in a `static`.
#[derive(Debug)]
pub struct ClassedPool<const N: usize> {
    pools: [NodePool; N],
}

impl<const N: usize> ClassedPool<N> {
    /// Create a pool family with the given slot sizes.
    ///
    /// `sizes` must be strictly ascending non-zero multiples of
    /// [`CACHE_LINE`]; violating this in a `static` initialiser fails at
    /// compile time.
    pub const fn new(sizes: [usize; N]) -> Self {
        assert!(N > 0, "a ClassedPool needs at least one class");
        let mut pools = [const { NodePool::new(CACHE_LINE) }; N];
        let mut i = 0;
        while i < N {
            assert!(
                i == 0 || sizes[i] > sizes[i - 1],
                "size classes must be strictly ascending"
            );
            pools[i] = NodePool::new(sizes[i]);
            i += 1;
        }
        Self { pools }
    }

    /// The underlying [`NodePool`] of one class (hot-path users wrap it in a
    /// [`PoolHandle`]; see [`ClassedHandle`]).
    pub fn pool(&self, class: usize) -> &NodePool {
        &self.pools[class]
    }

    /// Total bytes ever obtained from the system allocator, all classes.
    pub fn total_bytes(&self) -> usize {
        self.pools.iter().map(NodePool::total_bytes).sum()
    }

    /// Push one free slot of class `class` onto that class's free stack (the
    /// context-free entry point for EBR recycle destructors).
    ///
    /// # Safety
    /// As for [`NodePool::push`]; additionally `node` must have been
    /// allocated from class `class` of **this** pool family — returning a
    /// slot to a different class would corrupt both classes' slot sizing.
    pub unsafe fn push(&self, class: usize, node: *mut u8) {
        // Safety: forwarded contract.
        unsafe { self.pools[class].push(node) };
    }
}

/// Select the smallest class in `sizes` (ascending) holding `bytes` bytes.
///
/// `const` so a monomorphised caller's per-type class is computed at compile
/// time; panics (at compile time, in const contexts) when `bytes` exceeds
/// the largest class.
pub const fn class_for_size<const N: usize>(sizes: [usize; N], bytes: usize) -> usize {
    let mut i = 0;
    while i < N {
        if sizes[i] >= bytes {
            return i;
        }
        i += 1;
    }
    panic!("allocation exceeds the largest size class");
}

/// A per-thread allocation handle onto a [`ClassedPool`]: one lazily created
/// [`PoolHandle`] per size class.
///
/// Classes a thread never allocates from cost nothing (no local cache).
/// Not `Send`, like [`PoolHandle`].
#[derive(Debug)]
pub struct ClassedHandle<const N: usize> {
    pool: &'static ClassedPool<N>,
    handles: [Option<PoolHandle>; N],
}

impl<const N: usize> ClassedHandle<N> {
    /// Create a handle with no per-class state yet.
    pub fn new(pool: &'static ClassedPool<N>) -> Self {
        Self {
            pool,
            handles: [const { None }; N],
        }
    }

    /// The pool family this handle allocates from.
    pub fn pool(&self) -> &'static ClassedPool<N> {
        self.pool
    }

    #[inline]
    fn handle(&mut self, class: usize) -> &mut PoolHandle {
        self.handles[class].get_or_insert_with(|| PoolHandle::new(self.pool.pool(class)))
    }

    /// Allocate one slot of class `class`, reporting where it came from.
    #[inline]
    pub fn alloc(&mut self, class: usize) -> (*mut u8, SlotSource) {
        self.handle(class).alloc()
    }

    /// Return one slot to its class.
    ///
    /// # Safety
    /// As for [`ClassedPool::push`].
    #[inline]
    pub unsafe fn free(&mut self, class: usize, node: *mut u8) {
        // Safety: forwarded contract.
        unsafe { self.handle(class).free(node) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    static POOL: NodePool = NodePool::new(CACHE_LINE);

    #[test]
    fn alloc_free_recycles_memory() {
        let mut h = PoolHandle::new(&POOL);
        let (a, _) = h.alloc();
        unsafe { h.free(a) };
        let (b, src) = h.alloc();
        assert_eq!(a, b, "local cache must return the freed slot");
        assert_eq!(src, SlotSource::Hit);
        unsafe { h.free(b) };
    }

    #[test]
    fn cold_pop_takes_from_the_free_lists() {
        static P: NodePool = NodePool::new(CACHE_LINE);
        let a = P.alloc_cold();
        let b = P.alloc_cold();
        assert_ne!(a, b);
        unsafe {
            P.push(a);
            P.push(b);
        }
        let grown = P.total_bytes();
        let c = P.alloc_cold();
        let d = P.alloc_cold();
        assert_eq!(
            [c, d].iter().collect::<HashSet<_>>(),
            [a, b].iter().collect::<HashSet<_>>(),
            "cold pops must serve the previously freed slots"
        );
        assert_eq!(P.total_bytes(), grown, "no growth while the pool has slots");
        unsafe {
            P.push(c);
            P.push(d);
        }
    }

    #[test]
    fn slots_are_cache_line_aligned_and_sized() {
        static P: NodePool = NodePool::new(2 * CACHE_LINE);
        assert_eq!(P.slot_bytes(), 128);
        let p = P.alloc_cold();
        assert_eq!(p as usize % CACHE_LINE, 0);
        assert_eq!(P.total_bytes(), 128, "alloc_cold grows one slot at a time");
        unsafe { P.push(p) };
    }

    #[test]
    fn handle_growth_is_slab_batched() {
        static P: NodePool = NodePool::new(CACHE_LINE);
        let mut h = PoolHandle::new(&P);
        let (a, src) = h.alloc();
        assert_eq!(src, SlotSource::Miss);
        assert_eq!(P.total_bytes(), SLAB_SLOTS * CACHE_LINE);
        // The rest of the slab serves subsequent allocations as misses
        // (fresh memory) without another system allocation.
        let mut got = vec![a];
        for _ in 1..SLAB_SLOTS {
            let (p, src) = h.alloc();
            assert_eq!(src, SlotSource::Miss, "slab remainder is fresh memory");
            got.push(p);
        }
        assert_eq!(P.total_bytes(), SLAB_SLOTS * CACHE_LINE);
        assert_eq!(got.iter().collect::<HashSet<_>>().len(), SLAB_SLOTS);
        for p in got {
            unsafe { h.free(p) };
        }
    }

    #[test]
    fn spill_batches_return_slots_that_refills_serve() {
        static P: NodePool = NodePool::new(CACHE_LINE);
        let mut h = PoolHandle::new(&P);
        let slots: Vec<*mut u8> = (0..3 * LOCAL_CACHE).map(|_| h.alloc().0).collect();
        let universe: HashSet<*mut u8> = slots.iter().copied().collect();
        assert_eq!(universe.len(), slots.len(), "no slot may be double-served");
        for p in slots {
            unsafe { h.free(p) };
        }
        let grown = P.total_bytes();
        let mut again = HashSet::new();
        for _ in 0..3 * LOCAL_CACHE {
            let (p, src) = h.alloc();
            assert_eq!(src, SlotSource::Hit, "round-trip must recycle");
            again.insert(p);
        }
        assert_eq!(again, universe, "spill/refill must round-trip the slots");
        assert_eq!(P.total_bytes(), grown);
        for p in again {
            unsafe { h.free(p) };
        }
    }

    #[test]
    fn concurrent_churn_never_double_serves() {
        // Threads allocate, stamp, verify and free slots concurrently. If the
        // free stack ever handed the same slot to two owners at once, the
        // stamp check fails.
        static P: NodePool = NodePool::new(CACHE_LINE);
        let stop = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let stop = Arc::clone(&stop);
            threads.push(std::thread::spawn(move || {
                let mut h = PoolHandle::new(&P);
                let mut held: Vec<*mut u8> = Vec::new();
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    i += 1;
                    let (p, _) = h.alloc();
                    let stamp = (t << 32) | (i & 0xffff_ffff);
                    unsafe { (p as *mut u64).add(1).write(stamp) };
                    held.push(p);
                    if held.len() >= 8 {
                        for q in held.drain(..) {
                            let seen = unsafe { (q as *mut u64).add(1).read() };
                            assert_eq!(seen >> 32, t, "slot served to two threads at once");
                            unsafe { h.free(q) };
                        }
                    }
                }
                for q in held {
                    unsafe { h.free(q) };
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        for th in threads {
            th.join().unwrap();
        }
    }

    #[test]
    fn classed_pool_selects_the_smallest_fitting_class() {
        assert_eq!(class_for_size([64, 128, 256], 1), 0);
        assert_eq!(class_for_size([64, 128, 256], 24), 0);
        assert_eq!(class_for_size([64, 128, 256], 64), 0);
        assert_eq!(class_for_size([64, 128, 256], 65), 1);
        assert_eq!(class_for_size([64, 128, 256], 128), 1);
        assert_eq!(class_for_size([64, 128, 256], 200), 2);
        assert_eq!(class_for_size([64, 128, 256], 256), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds the largest size class")]
    fn classed_pool_rejects_oversized_allocations() {
        class_for_size([64, 128], std::hint::black_box(129));
    }

    #[test]
    fn classed_handle_round_trips_slots_per_class() {
        static P: ClassedPool<3> = ClassedPool::new([64, 128, 256]);
        let mut h = ClassedHandle::new(&P);
        let mut per_class: Vec<Vec<*mut u8>> = vec![Vec::new(); 3];
        for (class, slots) in per_class.iter_mut().enumerate() {
            for _ in 0..4 {
                let (p, _) = h.alloc(class);
                assert_eq!(p as usize % CACHE_LINE, 0);
                slots.push(p);
            }
        }
        // No slot is ever shared between classes.
        let all: HashSet<*mut u8> = per_class.iter().flatten().copied().collect();
        assert_eq!(all.len(), 12);
        for (class, slots) in per_class.iter_mut().enumerate() {
            for p in slots.drain(..) {
                unsafe { h.free(class, p) };
            }
        }
        // Freed slots come back from the same class they entered.
        for class in 0..3 {
            let (p, src) = h.alloc(class);
            assert_eq!(src, SlotSource::Hit);
            let bytes_before = P.pool(class).total_bytes();
            unsafe { h.free(class, p) };
            assert_eq!(P.pool(class).total_bytes(), bytes_before);
        }
    }

    #[test]
    fn classed_pool_total_bytes_sums_the_classes() {
        static P: ClassedPool<2> = ClassedPool::new([64, 192]);
        let a = P.pool(0).alloc_cold();
        let b = P.pool(1).alloc_cold();
        assert_eq!(P.total_bytes(), 64 + 192);
        unsafe {
            P.push(0, a);
            P.push(1, b);
        }
    }

    #[test]
    fn handle_drop_returns_everything_to_the_pool() {
        static P: NodePool = NodePool::new(CACHE_LINE);
        let mut ptrs = HashSet::new();
        {
            let mut h = PoolHandle::new(&P);
            for _ in 0..10 {
                ptrs.insert(h.alloc().0);
            }
            for &p in &ptrs {
                unsafe { h.free(p) };
            }
        }
        let total = P.total_bytes() / CACHE_LINE;
        // Every grown slot — the 10 served ones and the unconsumed slab
        // remainder — must be on the free list after the drop.
        assert_eq!(unsafe { P.free_slot_count() }, total);
        let before = P.total_bytes();
        let mut h2 = PoolHandle::new(&P);
        let mut got = HashSet::new();
        for _ in 0..total {
            let (p, src) = h2.alloc();
            assert_eq!(src, SlotSource::Hit, "drop must have returned the slots");
            got.insert(p);
        }
        assert!(got.is_superset(&ptrs));
        assert_eq!(P.total_bytes(), before);
        for p in got {
            unsafe { h2.free(p) };
        }
    }
}
