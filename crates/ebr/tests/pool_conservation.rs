//! Stress test for the node pool: 4-thread alloc/retire churn, checking the
//! accounting invariants end to end:
//!
//! * every allocation is classified as exactly one hit or miss
//!   (`allocs == hits + misses`),
//! * nothing is recycled that was not first retired
//!   (`recycled <= retires`, with equality once the collector drains),
//! * no slot is lost: after the churn quiesces, every slot ever grown is
//!   back on the free stack.
//!
//! Slots are stamped with their owner while held, so a free list handing one
//! slot to two owners at once fails deterministically.

use ebr::pool::{NodePool, PoolHandle, SlotSource, CACHE_LINE};
use ebr::{Collector, LocalHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static POOL: NodePool = NodePool::new(CACHE_LINE);

static RECYCLES: AtomicU64 = AtomicU64::new(0);

/// EBR destructor recycling a retired slot into the pool, as the Multiverse
/// arena does.
unsafe fn recycle_slot(p: *mut u8) {
    RECYCLES.fetch_add(1, Ordering::Relaxed);
    // Safety: destructor contract — the grace period has elapsed.
    unsafe { POOL.push(p) };
}

#[derive(Default)]
struct Counts {
    allocs: u64,
    hits: u64,
    misses: u64,
    retires: u64,
}

fn classify(counts: &mut Counts, src: SlotSource) {
    counts.allocs += 1;
    match src {
        SlotSource::Hit => counts.hits += 1,
        SlotSource::Miss => counts.misses += 1,
    }
}

#[test]
fn churn_conserves_slots() {
    const THREADS: u64 = 4;
    const ITERS: u64 = 20_000;

    let collector = Arc::new(Collector::new());
    let mut totals = Counts::default();

    std::thread::scope(|s| {
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let collector = Arc::clone(&collector);
            joins.push(s.spawn(move || {
                let mut pool = PoolHandle::new(&POOL);
                let mut ebr = LocalHandle::new(collector);
                let mut counts = Counts::default();
                let mut held: Vec<*mut u8> = Vec::new();
                let mut x = t + 1; // xorshift state
                for i in 0..ITERS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let (p, src) = pool.alloc();
                    classify(&mut counts, src);
                    let stamp = (t << 48) | i;
                    // Safety: we exclusively own the slot; the stamp lives
                    // past the link word.
                    unsafe { (p as *mut u64).add(1).write(stamp) };
                    held.push(p);
                    if held.len() >= 12 {
                        // Drain most of the batch: verify ownership stamps,
                        // then free some slots directly and retire the rest
                        // through EBR (pin to mimic a transaction attempt).
                        ebr.pin();
                        while held.len() > 2 {
                            let q = held.swap_remove((x as usize) % held.len());
                            let seen = unsafe { (q as *mut u64).add(1).read() };
                            assert_eq!(seen >> 48, t, "slot served to two owners at once");
                            if x % 3 == 0 {
                                ebr.retire(q, recycle_slot, CACHE_LINE);
                                counts.retires += 1;
                            } else {
                                // Safety: exclusively owned, freed once.
                                unsafe { pool.free(q) };
                            }
                        }
                        ebr.unpin();
                    }
                }
                for q in held {
                    // Safety: exclusively owned, freed once.
                    unsafe { pool.free(q) };
                }
                counts
            }));
        }
        for j in joins {
            let c = j.join().unwrap();
            totals.allocs += c.allocs;
            totals.hits += c.hits;
            totals.misses += c.misses;
            totals.retires += c.retires;
        }
    });

    // Every allocation is exactly one hit or miss; recycling never outruns
    // retirement.
    assert_eq!(
        totals.allocs,
        totals.hits + totals.misses,
        "every allocation must be either a pool hit or a pool miss"
    );
    assert!(
        totals.retires > 0,
        "churn must have retired slots through EBR"
    );
    assert!(
        RECYCLES.load(Ordering::Relaxed) <= totals.retires,
        "recycles ({}) cannot outnumber retirements ({})",
        RECYCLES.load(Ordering::Relaxed),
        totals.retires
    );

    // Drain the collector: worker handles orphaned their garbage on drop;
    // advancing the epoch runs every pending recycle destructor.
    for _ in 0..64 {
        collector.try_advance();
        collector.collect_orphans();
        if collector.pending_bytes() == 0 {
            break;
        }
    }
    assert_eq!(collector.pending_bytes(), 0, "collector failed to drain");
    assert_eq!(
        RECYCLES.load(Ordering::Relaxed),
        totals.retires,
        "after the drain every retired slot must have been recycled"
    );

    // No slot lost: the pool is quiescent (threads joined, garbage drained),
    // so every slot ever grown must be back on the free stack.
    let total_slots = POOL.total_bytes() / POOL.slot_bytes();
    // Safety: the pool is quiescent here.
    let free = unsafe { POOL.free_slot_count() };
    assert_eq!(
        free, total_slots,
        "slots were lost (or duplicated) in the churn"
    );
}
