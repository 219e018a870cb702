//! The §4.5 memory-reclamation race, reproduced as a test.
//!
//! A long read-only traversal of a linked list runs concurrently with
//! transactions that unlink (and logically free) the nodes it is about to
//! visit. In TL2/DCTL as published, the unlinked nodes could be freed while
//! the reader still holds pointers to them — a use-after-free. In this
//! repository every TM routes frees through epoch-based reclamation with
//! transaction-aware (revocable) retirement, so the scenario must be safe on
//! *all* of them, and the reader must still observe consistent data.

use baselines::{DctlRuntime, NorecRuntime, TinyStmRuntime, Tl2Runtime};
use multiverse::{MultiverseConfig, MultiverseRuntime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::TmRuntime;
use txstructs::{TxList, TxSet};

const LIST_SIZE: u64 = 400;
/// Scans each reader runs at least, and at most while it waits for the
/// mutator to complete a round inside its window.
const MIN_SCANS: usize = 300;
const MAX_SCANS: usize = 100_000;

fn reclamation_race<R: TmRuntime>(tm: Arc<R>) {
    let list = TxList::new();
    {
        let mut h = tm.register();
        for k in 0..LIST_SIZE {
            // Value encodes the key so the reader can check consistency.
            assert!(list.insert(&mut h, k, k * 7));
        }
    }
    // Completed mutator rounds. The mutator stops only once every reader has
    // been joined, so it runs across all of their scans.
    let rounds = AtomicU64::new(0);
    let readers_done = AtomicBool::new(false);
    let windows = std::thread::scope(|s| {
        // Mutator: repeatedly remove a block of keys (unlinking + retiring
        // their nodes) and re-insert them.
        s.spawn(|| {
            let mut h = tm.register();
            let mut round = 0u64;
            while !readers_done.load(Ordering::Acquire) {
                let base = (round * 37) % (LIST_SIZE / 2) + LIST_SIZE / 2;
                for k in base..(base + 20).min(LIST_SIZE) {
                    list.remove(&mut h, k);
                }
                for k in base..(base + 20).min(LIST_SIZE) {
                    list.insert(&mut h, k, k * 7);
                }
                round += 1;
                rounds.store(round, Ordering::Release);
            }
        });
        // Readers: full traversals. Without safe reclamation these would
        // dereference freed nodes; with it they must terminate and observe
        // only keys with their matching values. Each returns the mutator's
        // round counter before its first scan and after its last. On two
        // CPUs shared with sibling tests, 300 scans can fit in one time
        // slice with the mutator descheduled, so a reader keeps scanning
        // until a whole round (the one after the round in flight at its
        // first scan) has completed, up to a cap.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut h = tm.register();
                    let before = rounds.load(Ordering::Acquire);
                    for scan in 1..=MAX_SCANS {
                        let n = list.size_query(&mut h);
                        assert!(n <= LIST_SIZE as usize);
                        let in_range = list.range_query(&mut h, 0, LIST_SIZE);
                        assert!(in_range <= LIST_SIZE as usize);
                        if scan >= MIN_SCANS && rounds.load(Ordering::Acquire) >= before + 2 {
                            break;
                        }
                    }
                    (before, rounds.load(Ordering::Acquire))
                })
            })
            .collect();
        // Join before stopping the mutator, so a panicking reader still
        // stops it (otherwise the scope would never finish).
        let joined: Vec<_> = readers.into_iter().map(|r| r.join()).collect();
        readers_done.store(true, Ordering::Release);
        joined
            .into_iter()
            .map(|r| r.expect("reader panicked"))
            .collect::<Vec<_>>()
    });
    // The race happened: a whole round of unlinks and retires ran while
    // every reader was scanning.
    for (before, after) in windows {
        assert!(
            after >= before + 2,
            "no whole mutator round ran during a reader's scans ({before} -> {after})"
        );
    }
    // The permanently-present first half must have survived untouched.
    let mut h = tm.register();
    for k in 0..LIST_SIZE / 2 {
        assert!(list.contains(&mut h, k), "stable key {k} lost");
    }
    tm.shutdown();
}

#[test]
fn reclamation_race_multiverse() {
    reclamation_race(MultiverseRuntime::start(MultiverseConfig::small()));
}

#[test]
fn reclamation_race_dctl() {
    reclamation_race(Arc::new(DctlRuntime::with_defaults()));
}

#[test]
fn reclamation_race_tl2() {
    reclamation_race(Arc::new(Tl2Runtime::with_defaults()));
}

#[test]
fn reclamation_race_norec() {
    reclamation_race(Arc::new(NorecRuntime::new()));
}

#[test]
fn reclamation_race_tinystm() {
    reclamation_race(Arc::new(TinyStmRuntime::with_defaults()));
}
