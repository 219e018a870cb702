//! Property tests for the node pool: arbitrary alloc/free interleavings
//! (exercising the batched spill/refill paths) round-trip slots without
//! duplication or loss, with a `HashSet` of slot addresses as the oracle.
//! The size-classed pool family gets the same treatment plus a
//! cross-class-bleed oracle: once an address belongs to a class, only that
//! class may ever serve it again.
//!
//! Pools are `Box::leak`ed per case: `PoolHandle` requires a `'static` pool
//! (as the real arena is), and pool memory is never returned to the OS by
//! design, so leaking matches production semantics.

use ebr::pool::{ClassedHandle, ClassedPool, NodePool, PoolHandle, CACHE_LINE};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn leaked_pool() -> &'static NodePool {
    Box::leak(Box::new(NodePool::new(CACHE_LINE)))
}

/// Size classes mirroring the `txstructs::node` arena's spread.
const CLASS_SIZES: [usize; 3] = [64, 128, 256];

fn leaked_classed_pool() -> &'static ClassedPool<3> {
    Box::leak(Box::new(ClassedPool::new(CLASS_SIZES)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary alloc/free interleavings across several handles of one
    /// pool: no slot is ever handed to two owners at once (HashSet
    /// oracle over slot addresses), and once everything is freed, every slot
    /// the pool ever grew is back on the free stack (no loss, no
    /// duplication through the batched spill/refill paths).
    #[test]
    fn spill_refill_round_trips_slots_without_duplication(
        nhandles in 1usize..=3,
        ops in prop::collection::vec((any::<bool>(), 0usize..3, 0usize..1024), 1..400),
    ) {
        let pool = leaked_pool();
        let mut handles: Vec<PoolHandle> =
            (0..nhandles).map(|_| PoolHandle::new(pool)).collect();
        let mut held: Vec<*mut u8> = Vec::new();
        let mut out: HashSet<usize> = HashSet::new(); // oracle: slots handed out
        for (is_alloc, h, pick) in ops {
            let h = h % nhandles;
            if is_alloc || held.is_empty() {
                let (p, _) = handles[h].alloc();
                prop_assert!(out.insert(p as usize), "slot {:p} double-served", p);
                held.push(p);
            } else {
                // Free through a (possibly) different handle than allocated,
                // exercising spills.
                let p = held.swap_remove(pick % held.len());
                out.remove(&(p as usize));
                // Safety: `p` was handed out exactly once and is freed once.
                unsafe { handles[h].free(p) };
            }
        }
        for p in held {
            // Safety: as above.
            unsafe { handles[0].free(p) };
        }
        drop(handles);
        // Conservation: every grown slot sits on the free stack. A lost slot
        // makes the count short; a duplicated one makes it long (it is
        // counted once per stack position).
        let total = pool.total_bytes() / pool.slot_bytes();
        // Safety: no concurrent pool users — the walk is quiescent.
        prop_assert_eq!(unsafe { pool.free_slot_count() }, total);
    }

    /// Random alloc/free interleavings across the size classes of one
    /// [`ClassedPool`], through several handles: no slot is ever handed to
    /// two owners at once (HashSet-of-addresses oracle), no address is ever
    /// served by a different class than the one that grew it (cross-class
    /// bleed oracle), and once everything is freed, every class conserves
    /// its slots on its own free stack.
    #[test]
    fn classed_alloc_free_round_trips_without_cross_class_bleed(
        nhandles in 1usize..=3,
        ops in prop::collection::vec(
            (any::<bool>(), 0usize..3, 0usize..3, 0usize..1024), 1..300),
    ) {
        let pool = leaked_classed_pool();
        let mut handles: Vec<ClassedHandle<3>> =
            (0..nhandles).map(|_| ClassedHandle::new(pool)).collect();
        let mut held: Vec<(usize, *mut u8)> = Vec::new();
        let mut out: HashSet<usize> = HashSet::new(); // slots currently handed out
        let mut owner: HashMap<usize, usize> = HashMap::new(); // addr -> class, forever
        for (is_alloc, h, class, pick) in ops {
            let h = h % nhandles;
            if is_alloc || held.is_empty() {
                let (p, _) = handles[h].alloc(class);
                prop_assert!(out.insert(p as usize), "slot {:p} double-served", p);
                match owner.get(&(p as usize)) {
                    // An address must stay with the class that grew it.
                    Some(&c0) => prop_assert_eq!(
                        c0, class, "slot {:p} bled between classes", p),
                    None => { owner.insert(p as usize, class); }
                }
                held.push((class, p));
            } else {
                // Free through a (possibly) different handle than allocated,
                // exercising per-class spills.
                let (c, p) = held.swap_remove(pick % held.len());
                out.remove(&(p as usize));
                // Safety: `p` was handed out exactly once and is freed once,
                // to the class it came from.
                unsafe { handles[h].free(c, p) };
            }
        }
        for (c, p) in held {
            // Safety: as above.
            unsafe { handles[0].free(c, p) };
        }
        drop(handles);
        // Per-class slot conservation: each class's grown slots all sit on
        // that class's free stack — short means lost, long means duplicated
        // or adopted from another class.
        for class in 0..CLASS_SIZES.len() {
            let p = pool.pool(class);
            let total = p.total_bytes() / p.slot_bytes();
            // Safety: no concurrent pool users — the walk is quiescent.
            prop_assert_eq!(unsafe { p.free_slot_count() }, total,
                "class {} slot conservation", class);
        }
    }
}
