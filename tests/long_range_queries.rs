//! The headline behaviour of the paper, as an integration test: long range
//! queries over an (a,b)-tree keep committing while dedicated updater threads
//! continuously modify the keys they cover, and Multiverse serves them from
//! the versioned code path (engaging Mode U when it pays off).
//!
//! The tests assert counts, never throughput over a wall-clock window: the
//! harness runs this binary's tests in parallel, so any timing-shaped
//! comparison would depend on what its siblings happen to be doing.

use baselines::Tl2Runtime;
use multiverse::{Mode, MultiverseConfig, MultiverseRuntime};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use tm_api::{Abort, TmHandle, TmRuntime, TxKind};
use txstructs::{TxAbTree, TxSet};

/// Range queries per backend.
const RQS: u64 = 12;
/// Updater commits that must land before each range query starts, so the
/// queries always run against live dedicated updaters.
const UPDATES_PER_RQ: u64 = 50;
/// Prefilled keys: the even keys below `2 * PREFILL`.
const PREFILL: u64 = 4_000;
/// Each range query spans 400 prefilled keys (10 % of the prefill).
const RQ_SPAN: u64 = 2 * 400;

/// What one backend's range-query phase did, read from counters.
#[derive(Debug, Default)]
struct RqPhase {
    /// Range queries that committed.
    committed: u64,
    /// Range queries that exhausted their attempt budget.
    gave_up: u64,
    /// Attempts across all range queries (body invocations).
    attempts: u64,
    /// Updater commits that landed while the phase ran.
    updates: u64,
}

/// Run `RQS` range queries, each given at most `max_attempts` attempts,
/// against two dedicated updaters that insert and remove keys across the
/// whole key range until the queries are done.
fn rq_phase<R: TmRuntime>(tm: &Arc<R>, max_attempts: u64) -> RqPhase {
    let tree = TxAbTree::new();
    {
        let mut h = tm.register();
        for k in 0..PREFILL {
            tree.insert(&mut h, 2 * k, k);
        }
    }
    let stop = &AtomicBool::new(false);
    let updates = &AtomicU64::new(0);
    let tree = &tree;
    let mut phase = RqPhase::default();
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let tm = Arc::clone(tm);
            s.spawn(move || {
                let mut h = tm.register();
                let mut x = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % (2 * PREFILL);
                    if x % 2 == 0 {
                        tree.insert(&mut h, k, x);
                    } else {
                        tree.remove(&mut h, k);
                    }
                    updates.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let mut h = tm.register();
        for i in 0..RQS {
            while updates.load(Ordering::Relaxed) < (i + 1) * UPDATES_PER_RQ {
                std::thread::yield_now();
            }
            let lo = (i * 613) % (2 * PREFILL - RQ_SPAN);
            let out = h.txn_budget(TxKind::ReadOnly, max_attempts, |tx| {
                phase.attempts += 1;
                tree.range_query_tx(tx, lo, lo + RQ_SPAN)
            });
            if out.is_committed() {
                phase.committed += 1;
            } else {
                phase.gave_up += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    phase.updates = updates.load(Ordering::Relaxed);
    phase
}

#[test]
fn range_queries_commit_under_dedicated_updaters_on_multiverse() {
    let tm = MultiverseRuntime::start(MultiverseConfig::paper_defaults());
    let mv = rq_phase(&tm, u64::MAX);
    assert_eq!(
        mv.committed, RQS,
        "every Multiverse range query must commit: {mv:?}"
    );
    assert!(mv.updates >= RQS * UPDATES_PER_RQ, "{mv:?}");
    tm.shutdown();
}

#[test]
fn versioned_path_and_mode_u_engage_for_repeatedly_aborted_scans() {
    // Aggressive heuristics so the versioned pipeline is exercised
    // deterministically even when the host is heavily loaded: with K1 = 0
    // every read-only transaction runs on the versioned path from its first
    // attempt.
    let mut cfg = MultiverseConfig::small();
    cfg.k1_versioned_after = 0;
    cfg.k3_versioned_mode_u_after = 3;
    let tm = MultiverseRuntime::start(cfg);
    let tree = Arc::new(TxAbTree::new());
    {
        let mut h = tm.register();
        for k in 0..2_000u64 {
            tree.insert(&mut h, k, k);
        }
    }
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Two continuous updaters.
        for t in 0..2u64 {
            let tm = Arc::clone(&tm);
            let tree = Arc::clone(&tree);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut h = tm.register();
                let mut x = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % 2_000;
                    if x % 2 == 0 {
                        tree.insert(&mut h, k, x);
                    } else {
                        tree.remove(&mut h, k);
                    }
                }
            });
        }
        // The scanner: full-tree range queries, back to back.
        let tm2 = Arc::clone(&tm);
        let tree2 = Arc::clone(&tree);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut h = tm2.register();
            for _ in 0..40 {
                let n = tree2.range_query(&mut h, 0, u64::MAX);
                assert!(n <= 2_000);
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });
    let stats = tm.stats();
    assert!(
        stats.versioned_commits > 0,
        "long scans should have committed on the versioned path: {stats}"
    );
    assert!(
        stats.addresses_versioned > 0,
        "versioning should have been engaged: {stats}"
    );
    tm.shutdown();
}

/// Sets its flag when dropped, so a panicking thread still releases the
/// threads waiting on it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn mode_machine_returns_to_q_after_demand_disappears() {
    /// Scans allowed for the stepper to observe Mode U.
    const MAX_SCANS: u64 = 2_000;
    /// Background steps allowed, once only small transactions run, for the
    /// TM to be back in Mode Q.
    const MAX_STEPS: usize = 100;
    let mut cfg = MultiverseConfig::small();
    cfg.k1_versioned_after = 1;
    cfg.k3_versioned_mode_u_after = 2;
    cfg.s_small_txns = 2;
    cfg.bg_thread = false;
    let k3 = cfg.k3_versioned_mode_u_after;
    let tm = MultiverseRuntime::start(cfg);
    let tree = &TxAbTree::new();
    // The scanner's handle lives on this thread for both phases, so its
    // sticky bit must be cleared by small commits, not by a dropped handle.
    let mut scanner = tm.register();
    for k in 0..1_000u64 {
        tree.insert(&mut scanner, k, k);
    }

    // Phase 1: full-tree scans against a live updater. Each scan loses its
    // first K3 + 1 attempts (forced here, so the outcome does not depend on
    // how the threads interleave), which makes the K3 rule initiate the move
    // to Mode U and set the scanner's sticky bit. A stepper thread does the
    // background work until the scans stop.
    let stop = &AtomicBool::new(false);
    let saw_mode_u = &AtomicBool::new(false);
    let mut scans = 0u64;
    std::thread::scope(|s| {
        let tm1 = Arc::clone(&tm);
        s.spawn(move || {
            let mut h = tm1.register();
            let mut x = 1u64;
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                tree.insert(&mut h, x % 1_000, x);
            }
        });
        let tm2 = Arc::clone(&tm);
        s.spawn(move || {
            let mut ebr = tm2.bg_ebr_handle();
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                tm2.bg_step(&mut ebr, &mut samples);
                if tm2.current_mode() == Mode::U {
                    saw_mode_u.store(true, Ordering::Relaxed);
                }
                std::thread::yield_now();
            }
        });
        let _stop = SetOnDrop(stop);
        while !saw_mode_u.load(Ordering::Relaxed) && scans < MAX_SCANS {
            let mut attempt = 0;
            let n = scanner.txn(TxKind::ReadOnly, |tx| {
                attempt += 1;
                let n = tree.range_query_tx(tx, 0, u64::MAX)?;
                if attempt <= k3 + 1 {
                    Err(Abort)
                } else {
                    Ok(n)
                }
            });
            assert_eq!(n, 1_000);
            scans += 1;
        }
    });
    assert!(
        saw_mode_u.load(Ordering::Relaxed),
        "phase 1 must put the TM in Mode U within {MAX_SCANS} scans (mode {:?})",
        tm.current_mode()
    );
    assert!(tm.stats().versioned_commits >= scans, "{}", tm.stats());

    // Phase 2: only small transactions. They clear the scanner's sticky bit,
    // and the background work must bring the TM back to Mode Q.
    let mut ebr = tm.bg_ebr_handle();
    let mut samples = Vec::new();
    let mut steps = 0;
    while tm.current_mode() != Mode::Q && steps < MAX_STEPS {
        for k in 0..5u64 {
            tree.contains(&mut scanner, k);
            tree.insert(&mut scanner, k, k);
        }
        tm.bg_step(&mut ebr, &mut samples);
        steps += 1;
    }
    assert_eq!(
        tm.current_mode(),
        Mode::Q,
        "the TM should return to Mode Q within {MAX_STEPS} steps once no thread wants Mode U"
    );
    tm.shutdown();
}

#[test]
fn unversioned_baseline_starves_on_the_same_workload() {
    // Sanity check of the evaluation methodology on the workload Multiverse
    // handles. Each backend gets the same query count; Multiverse must
    // commit every query, while TL2 gets a bounded attempt budget per query
    // and its attempt and give-up counts are read, not raced against a
    // clock. TL2 may still commit every query at this small scale, so the
    // robust claim is that Multiverse is not worse; how much better it is
    // belongs to the benchmark (`multiverse.rq_vs_dctl_ratio`), which has
    // noise bounds.
    const TL2_MAX_ATTEMPTS: u64 = 200;
    let mv_tm = MultiverseRuntime::start(MultiverseConfig::paper_defaults());
    let mv = rq_phase(&mv_tm, u64::MAX);
    mv_tm.shutdown();
    let tl2_tm = Arc::new(Tl2Runtime::with_defaults());
    let tl2 = rq_phase(&tl2_tm, TL2_MAX_ATTEMPTS);
    eprintln!("multiverse {mv:?}\ntl2 {tl2:?}");

    assert_eq!(mv.committed, RQS, "{mv:?}");
    assert_eq!(mv.gave_up, 0, "{mv:?}");
    // TL2's counters account for every query and attempt...
    assert_eq!(tl2.committed + tl2.gave_up, RQS, "{tl2:?}");
    assert_eq!(tl2_tm.stats().gave_up, tl2.gave_up, "{tl2:?}");
    assert!(tl2.attempts >= RQS, "{tl2:?}");
    assert!(tl2.attempts <= RQS * TL2_MAX_ATTEMPTS, "{tl2:?}");
    // ...and whatever TL2 managed, Multiverse commits no fewer queries.
    assert!(mv.committed >= tl2.committed);
    for phase in [&mv, &tl2] {
        assert!(phase.updates >= RQS * UPDATES_PER_RQ, "{phase:?}");
    }
}
