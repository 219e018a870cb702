//! The TM-safe node allocation layer: size-classed, epoch-recycled pool
//! memory whose only construction path TM-writes every transactionally-read
//! field of a fresh node — the `TxNodeAlloc`/[`TxNodeInit`] API.
//!
//! ## Why construction is constrained
//!
//! The allocator reuses addresses freed *through the TM*: a removed node is
//! retired via [`retire_node`], recycled into the pool after its EBR grace
//! period, and handed out again. At that address, the TM's per-address
//! metadata — stripe timestamps and (on Multiverse) version lists — still
//! carries the **previous node generation's** values. A multiversioned
//! reader whose read clock predates the reuse is entitled to traverse to
//! that address and must see the *old* generation's fields; a reader whose
//! clock postdates it must see the new ones. Both are only possible when the
//! new generation's fields are written **through the TM inside the
//! allocating transaction**: the TM writes stamp the stripes and supersede
//! the stale version entries, filing each generation under its own commit
//! timestamp. Raw constructor stores instead leak the previous generation's
//! values to versioned readers — ghost/missing keys, and for pointer fields
//! a dangling traversal into freed memory (both reproduced by
//! `harness check --scenario struct-churn` against the pre-port code; see
//! TESTING.md).
//!
//! This bug class was found by audit twice (PR 4: `TxList`/`TxAbTree`).
//! This layer makes the audit structural: [`alloc_node`] is the only way to
//! obtain a fresh node word, and it returns only after the node type's
//! [`TxNodeInit::write_fields`] has TM-written every field the type's
//! operations may transactionally read before first TM-writing it. A node
//! type declares that field set once, next to its definition, instead of
//! every call site re-proving it.
//!
//! ## Memory
//!
//! Nodes live in `STRUCT_POOL`, a process-wide size-classed
//! [`ebr::pool::ClassedPool`] (the same epoch-recycled arena machinery that
//! backs Multiverse's version nodes): steady-state structure churn performs
//! **zero** heap allocations (pinned by
//! `crates/txstructs/tests/struct_alloc.rs`). Allocation goes through a
//! per-thread [`ebr::pool::ClassedHandle`]. Aborted transactions return
//! never-published slots to the pool immediately; committed removals retire
//! slots through EBR and recycle them after the grace period, with the
//! reclamation safety argument of `ebr::pool` / `multiverse::arena`
//! unchanged. Pool traffic is counted into the process-wide `pool_class_*`
//! rows of [`tm_api::stats::process_stats`]; the allocation rows are
//! flushed in batches off the hot path.

use ebr::pool::{class_for_size, ClassedHandle, ClassedPool, SlotSource, CACHE_LINE};
use std::cell::RefCell;
use tm_api::{stats::process_stats, Transaction, TxResult};

/// Number of size classes of the structure-node arena.
pub const CLASS_COUNT: usize = 4;

/// Slot sizes of the structure-node arena. 64 bytes holds every list /
/// tree / hashmap node except the (a,b)-tree's 408-byte fan-out-16 node
/// (class 3); the middle classes keep future node types from rounding a
/// hundred-byte node up to half a kilobyte.
pub const CLASS_SIZES: [usize; CLASS_COUNT] = [64, 128, 256, 512];

/// The process-wide size-classed arena backing every transactional
/// structure. A `static`, like the Multiverse version-node arena, so the
/// EBR recycle destructors stay context-free and the pool outlives any
/// orphaned garbage; metrics are process-wide and stay attributable because
/// the figure runners execute one TM at a time.
static STRUCT_POOL: ClassedPool<CLASS_COUNT> = ClassedPool::new(CLASS_SIZES);

/// Total bytes the structure-node arena holds (live + EBR-pending + free),
/// process-wide, all classes.
pub fn pool_total_bytes() -> usize {
    STRUCT_POOL.total_bytes()
}

/// Per-class (slot size, total bytes) breakdown of the arena.
pub fn pool_class_bytes() -> [(usize, usize); CLASS_COUNT] {
    let mut out = [(0, 0); CLASS_COUNT];
    for (i, slot) in out.iter_mut().enumerate() {
        *slot = (CLASS_SIZES[i], STRUCT_POOL.pool(i).total_bytes());
    }
    out
}

/// The size class serving `T` (compile-time constant per type).
const fn class_of<T>() -> usize {
    class_for_size(CLASS_SIZES, std::mem::size_of::<T>())
}

/// Batched stat flushing: local hit/miss counts are pushed into the
/// process-wide `pool_class_*` rows every this many events (and on thread
/// exit), keeping locked RMWs off the per-operation path.
const STAT_FLUSH_EVERY: u64 = 64;

/// Per-thread allocation state: the classed pool handle plus locally
/// batched statistics.
struct NodeCache {
    handle: ClassedHandle<CLASS_COUNT>,
    hits: u64,
    misses: u64,
    pending: u64,
}

impl NodeCache {
    fn new() -> Self {
        Self {
            handle: ClassedHandle::new(&STRUCT_POOL),
            hits: 0,
            misses: 0,
            pending: 0,
        }
    }

    fn flush(&mut self) {
        let p = process_stats();
        if self.hits != 0 {
            p.pool_class_hits.add_shared(self.hits);
        }
        if self.misses != 0 {
            p.pool_class_misses.add_shared(self.misses);
        }
        self.hits = 0;
        self.misses = 0;
        self.pending = 0;
    }

    #[inline]
    fn note(&mut self, src: SlotSource) {
        match src {
            SlotSource::Hit => self.hits += 1,
            SlotSource::Miss => self.misses += 1,
        }
        self.pending += 1;
        if self.pending >= STAT_FLUSH_EVERY {
            self.flush();
        }
    }
}

impl Drop for NodeCache {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static NODE_CACHE: RefCell<NodeCache> = RefCell::new(NodeCache::new());
}

/// Deterministic node-address reuse for schedule exploration.
///
/// Under `sim` the epoch pools bypass themselves (`ebr::pool`): every
/// allocation is fresh and every free leaks, so each explored schedule
/// starts from identical allocator-visible state. That kills the very
/// behaviour the ghost-key bug class needs — **address reuse** — so the
/// structure scenarios opt into this layer instead: freed struct nodes go
/// onto a per-class LIFO stack (plain `std` sync — harness machinery, no
/// yield points) and `alloc_node` pops from it first. Execution under sim
/// is serialized, so push/pop order is a pure function of the schedule;
/// the scenario resets the stacks at the start of every model run, making
/// reuse exactly as deterministic as the schedule itself. Debug poison is
/// still stamped on capture, so stale traversals into a dead (not yet
/// reused) node keep tripping.
#[cfg(feature = "sim")]
mod sim_reuse {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    static ENABLED: AtomicBool = AtomicBool::new(false);
    static FREE: Mutex<[Vec<usize>; super::CLASS_COUNT]> =
        Mutex::new([const { Vec::new() }; super::CLASS_COUNT]);

    fn lock() -> std::sync::MutexGuard<'static, [Vec<usize>; super::CLASS_COUNT]> {
        match FREE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Capture a freed slot for deterministic reuse. Returns false when the
    /// layer is disabled or no sim execution is active (caller falls back
    /// to the pool).
    pub(super) fn capture(class: usize, p: *mut u8) -> bool {
        if !ENABLED.load(Ordering::Relaxed) || !sim::active() {
            return false;
        }
        lock()[class].push(p as usize);
        true
    }

    /// Pop the most recently freed slot of `class`, if any.
    pub(super) fn pop(class: usize) -> Option<*mut u8> {
        if !ENABLED.load(Ordering::Relaxed) || !sim::active() {
            return None;
        }
        lock()[class].pop().map(|a| a as *mut u8)
    }

    pub(super) fn set_enabled(on: bool) {
        ENABLED.store(on, Ordering::Relaxed);
    }

    pub(super) fn reset() {
        for v in lock().iter_mut() {
            v.clear();
        }
    }
}

/// Enable/disable deterministic sim-mode node reuse (exploration scenarios
/// only; no effect outside an active sim execution).
#[cfg(feature = "sim")]
pub fn sim_node_reuse(on: bool) {
    sim_reuse::set_enabled(on);
}

/// Clear the sim reuse stacks. Call at the start of every explored model
/// run so each schedule sees an identical (empty) reuse state.
#[cfg(feature = "sim")]
pub fn sim_node_reuse_reset() {
    sim_reuse::reset();
}

/// The raw-store `Transaction` shim behind `broken::raw_init`: re-creates
/// the PR 4 bug by letting `write_fields` bypass the TM entirely. Reads and
/// writes go straight to the word; nothing is logged, stamped, or
/// versioned — exactly what `TxNodeInit` exists to make unrepresentable.
#[cfg(feature = "sim")]
struct RawInitTx;

#[cfg(feature = "sim")]
impl Transaction for RawInitTx {
    fn read(&mut self, word: &tm_api::TxWord) -> TxResult<u64> {
        Ok(word.load_direct())
    }

    fn write(&mut self, word: &tm_api::TxWord, value: u64) -> TxResult<()> {
        word.store_direct(value);
        Ok(())
    }

    fn defer_alloc(&mut self, _ptr: *mut u8, _dtor: tm_api::traits::Dtor) {}

    fn defer_retire(&mut self, _ptr: *mut u8, _dtor: tm_api::traits::Dtor) {}

    fn read_count(&self) -> u64 {
        0
    }
}

/// A pooled transactional node type.
///
/// Implementing this trait is the *audit point* for the ROADMAP invariant
/// ("structure-node memory must be (re)initialised through the TM"): the
/// implementation, not the call sites, is what guarantees a reused address
/// can never leak a previous node generation to versioned readers.
///
/// # Safety
///
/// An implementation promises:
///
/// * the type has no drop glue (`!needs_drop`) — pool recycling never runs
///   destructors — and fits its arena class (both also checked at compile
///   time in [`alloc_node`]);
/// * [`Self::write_fields`] TM-writes **every field that any operation on
///   the structure may transactionally read before first TM-writing it**.
///   Fields excluded from `write_fields` must be unreachable-until-written
///   by construction (e.g. `AbNode` key/value/child slots at indices `>=
///   count`, with `count` itself TM-written to 0 here: a reader of this
///   node generation bounds every slot access by a `count` it read
///   transactionally, and every slot write precedes the `count` write that
///   exposes it — within one transaction or across committed ones).
pub unsafe trait TxNodeInit: Sized + 'static {
    /// Plain-data initial values for the TM-written fields.
    type Init;

    /// A vacant node: every word zero / [`NULL`]. Seats the atomics in a
    /// freshly popped (possibly address-reused) slot while it is still
    /// exclusively owned; these raw stores are never trusted by readers —
    /// the TM writes from [`Self::write_fields`] are what readers observe.
    fn vacant() -> Self;

    /// TM-write the node's transactionally-read fields (see the trait-level
    /// contract) inside the allocating transaction.
    fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()>;
}

/// Allocate and TM-initialise a fresh `N` inside transaction `tx`.
///
/// Returns the node's address encoded as a `u64` word, ready to be TM-written
/// into a transactional pointer field. The slot comes from the size-classed
/// arena (possibly reusing a TM-freed address); by the time the word is
/// returned, every transactionally-read field has been TM-written per
/// [`TxNodeInit::write_fields`] — there is no way to obtain a fresh node
/// word without that happening. If the transaction aborts, the
/// never-published slot returns to the pool immediately.
pub fn alloc_node<N: TxNodeInit, X: Transaction>(tx: &mut X, init: N::Init) -> TxResult<u64> {
    const {
        assert!(
            std::mem::size_of::<N>() <= CLASS_SIZES[CLASS_COUNT - 1],
            "node type exceeds the largest size class"
        );
        assert!(
            std::mem::align_of::<N>() <= CACHE_LINE,
            "node type over-aligned for the arena"
        );
        assert!(
            !std::mem::needs_drop::<N>(),
            "pooled node types must not have drop glue"
        );
    }
    let fresh = || {
        NODE_CACHE.with(|c| {
            let mut c = c.borrow_mut();
            let (p, src) = c.handle.alloc(class_of::<N>());
            c.note(src);
            p
        })
    };
    #[cfg(feature = "sim")]
    let p = sim_reuse::pop(class_of::<N>()).unwrap_or_else(fresh);
    #[cfg(not(feature = "sim"))]
    let p = fresh();
    // Safety: the slot is exclusively owned, cache-line aligned and at least
    // size_of::<N>() bytes (compile-time asserts above).
    unsafe { (p as *mut N).write(N::vacant()) };
    tx.defer_alloc(p, release_dtor::<N>());
    // Safety: just written; exclusively owned until the commit publishes it.
    let node = unsafe { &*(p as *const N) };
    #[cfg(feature = "sim")]
    if crate::broken::raw_init() {
        // Reintroduced PR 4 bug (exploration demo): initialise the fields
        // with raw stores instead of TM writes. See `crate::broken`.
        node.write_fields(&mut RawInitTx, &init)?;
        return Ok(p as usize as u64);
    }
    node.write_fields(tx, &init)?;
    Ok(p as usize as u64)
}

/// Retire the node at `word` when transaction `tx` commits: the slot is
/// handed to EBR and recycled into its size class after the grace period.
/// If the transaction aborts, the retire is revoked (the `pool_class_retires`
/// stat is per *deferred* retire, so it still counts the revoked attempt —
/// see its doc in `tm_api::stats`).
pub fn retire_node<N: TxNodeInit, X: Transaction>(tx: &mut X, word: u64) {
    debug_assert_ne!(word, 0, "retiring a null pointer");
    tx.defer_retire(word as usize as *mut u8, recycle_dtor::<N>());
    // Published immediately (not batched like the alloc counters): every
    // recycle is preceded in real time by its retire's defer, so immediate
    // publication keeps `recycled <= retires` true in every snapshot — a
    // batched retire count could transiently lag the directly-published
    // recycle count. One relaxed RMW per removal is off the read hot path.
    process_stats().pool_class_retires.add_shared(1);
}

/// Debug poison: fill a dead slot with a recognisable pattern so any
/// use-after-retire read trips on nonsense values instead of plausible
/// stale ones. The first word is overwritten by the free-list link anyway.
#[inline]
fn poison_slot<N>(p: *mut u8) {
    #[cfg(debug_assertions)]
    // Safety: the slot is exclusively owned (post-grace or never published).
    unsafe {
        std::ptr::write_bytes(p, 0xF5, std::mem::size_of::<N>());
    }
    #[cfg(not(debug_assertions))]
    let _ = p;
}

/// Abort-path destructor: the never-published slot goes straight back to
/// its class (no grace period needed, not counted as an EBR recycle).
fn release_dtor<N: TxNodeInit>() -> unsafe fn(*mut u8) {
    unsafe fn release<N: TxNodeInit>(p: *mut u8) {
        poison_slot::<N>(p);
        #[cfg(feature = "sim")]
        if sim_reuse::capture(class_of::<N>(), p) {
            return;
        }
        // Safety: the slot was allocated from this class and never
        // published (the TM rolled the publishing writes back).
        unsafe { STRUCT_POOL.push(class_of::<N>(), p) };
    }
    release::<N>
}

/// Commit-path EBR destructor: runs after the grace period, recycles the
/// slot into its class.
fn recycle_dtor<N: TxNodeInit>() -> unsafe fn(*mut u8) {
    unsafe fn recycle<N: TxNodeInit>(p: *mut u8) {
        poison_slot::<N>(p);
        process_stats().pool_class_recycled.add_shared(1);
        #[cfg(feature = "sim")]
        if sim_reuse::capture(class_of::<N>(), p) {
            return;
        }
        // Safety: grace period elapsed (retire-destructor contract).
        unsafe { STRUCT_POOL.push(class_of::<N>(), p) };
    }
    recycle::<N>
}

/// Allocate a **vacant** node eagerly, outside any transaction (structure
/// construction only — the list sentinel). The caller must not expose any
/// field of the node to transactional readers whose value matters before it
/// is TM-written; the sentinel qualifies because its key/value are never
/// interpreted and its `next` starts at the vacant [`NULL`].
pub fn alloc_node_eager<N: TxNodeInit>() -> u64 {
    let p = STRUCT_POOL.pool(class_of::<N>()).alloc_cold();
    // Safety: fresh exclusive slot of sufficient size/alignment.
    unsafe { (p as *mut N).write(N::vacant()) };
    p as usize as u64
}

/// Return a node to the pool eagerly (structure teardown only — never for
/// nodes that may still be reachable by concurrent transactions).
///
/// # Safety
/// `word` must be a node of type `N` produced by this layer's allocation
/// functions that no other thread can reach anymore, released exactly once.
pub unsafe fn free_node_eager<N: TxNodeInit>(word: u64) {
    if word == NULL {
        return;
    }
    let p = word as usize as *mut u8;
    poison_slot::<N>(p);
    // Safety: forwarded contract.
    unsafe { STRUCT_POOL.push(class_of::<N>(), p) };
}

/// Null transactional pointer.
pub const NULL: u64 = 0;

/// Dereference a node pointer read from a transactional field.
///
/// # Safety
/// `word` must be a non-null pointer to a live `T` produced by this layer's
/// allocation functions, read within a transaction that is still pinned
/// (which is guaranteed for pointers obtained from `tx.read(..)` during the
/// current attempt).
#[inline(always)]
pub unsafe fn deref<'a, T>(word: u64) -> &'a T {
    debug_assert_ne!(word, 0, "dereferencing a null transactional pointer");
    unsafe { &*(word as usize as *const T) }
}

/// Read helper: `Ok(None)` for null, `Ok(Some(&T))` otherwise.
///
/// # Safety
/// Same contract as [`deref()`].
#[inline(always)]
pub unsafe fn deref_opt<'a, T>(word: u64) -> Option<&'a T> {
    if word == NULL {
        None
    } else {
        Some(unsafe { deref::<T>(word) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::GlockRuntime;
    use std::sync::Arc;
    use tm_api::{TVar, TmHandle, TmRuntime, TxKind};

    struct TestNode {
        a: TVar<u64>,
        b: TVar<u64>,
    }

    unsafe impl TxNodeInit for TestNode {
        type Init = (u64, u64);

        fn vacant() -> Self {
            Self {
                a: TVar::new(0),
                b: TVar::new(0),
            }
        }

        fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()> {
            tx.write_var(&self.a, init.0)?;
            tx.write_var(&self.b, init.1)
        }
    }

    #[test]
    fn alloc_node_tm_initialises_and_commit_publishes() {
        let rt = Arc::new(GlockRuntime::new());
        let mut h = rt.register();
        let word = h.txn(TxKind::ReadWrite, |tx| {
            alloc_node::<TestNode, _>(tx, (7, 9))
        });
        let node = unsafe { deref::<TestNode>(word) };
        assert_eq!(node.a.load_direct(), 7);
        assert_eq!(node.b.load_direct(), 9);
        let mut h2 = rt.register();
        h2.txn(TxKind::ReadWrite, |tx| {
            retire_node::<TestNode, _>(tx, word);
            Ok(())
        });
    }

    /// Sized for class 2 (256 B), which no other test in this binary
    /// touches — class-level accounting below is deterministic even with
    /// tests running concurrently against the shared static pool.
    struct BigNode {
        words: [TVar<u64>; 20],
    }

    unsafe impl TxNodeInit for BigNode {
        type Init = ();

        fn vacant() -> Self {
            Self {
                words: std::array::from_fn(|_| TVar::new(0)),
            }
        }

        fn write_fields<X: Transaction>(&self, tx: &mut X, _init: &Self::Init) -> TxResult<()> {
            tx.write_var(&self.words[0], 1)
        }
    }

    #[test]
    fn aborted_alloc_returns_the_slot_to_the_pool() {
        assert_eq!(class_of::<BigNode>(), 2);
        let rt = Arc::new(GlockRuntime::new());
        let mut h = rt.register();
        let out = h.txn_budget(TxKind::ReadWrite, 1, |tx| {
            alloc_node::<BigNode, _>(tx, ())?;
            Err::<(), _>(tm_api::Abort)
        });
        assert!(!out.is_committed());
        // The aborted transaction's slot was pushed back onto class 2's
        // free stack (the rest of its slab sits in the thread-local
        // handle's private fresh chain, which `alloc_cold` cannot see), so
        // the eager alloc below must serve that very slot without growing
        // the class — a leaked abort slot would force `grow_one` here.
        let grown = pool_class_bytes()[2].1;
        let w = alloc_node_eager::<BigNode>();
        assert_eq!(
            pool_class_bytes()[2].1,
            grown,
            "eager alloc must reuse the abort-released slot, not grow class 2"
        );
        unsafe { free_node_eager::<BigNode>(w) };
    }

    #[test]
    fn eager_roundtrip_is_vacant() {
        let w = alloc_node_eager::<TestNode>();
        assert_ne!(w, NULL);
        let node = unsafe { deref::<TestNode>(w) };
        assert_eq!(node.a.load_direct(), 0);
        assert_eq!(node.b.load_direct(), 0);
        unsafe { free_node_eager::<TestNode>(w) };
    }

    #[test]
    fn deref_opt_null_is_none() {
        assert!(unsafe { deref_opt::<u64>(NULL) }.is_none());
    }

    #[test]
    fn class_selection_is_by_type_size() {
        assert_eq!(class_of::<TestNode>(), 0);
        assert_eq!(class_of::<[u64; 16]>(), 1);
        assert_eq!(class_of::<[u64; 51]>(), 3);
    }
}
