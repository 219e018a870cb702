//! Stress test for arena recycling under version/unversion churn.
//!
//! Multiple threads drive the whole node life cycle concurrently:
//!
//! * versioned read-only transactions (`k1 = 0`) create version lists on
//!   demand (`versionThenRead`),
//! * updaters append versions (superseding — and eventually recycling — the
//!   previous ones through the clock-gated supersede queue),
//! * a stepper thread drives the background work (`bg_step`) and unversions
//!   buckets aggressively (threshold 1), retiring whole VLT chains as
//!   single EBR entries,
//! * recycled slots immediately feed new versioning.
//!
//! Unversioning runs only in Mode Q, and the scanner's long scans put the
//! TM in Mode U. So the scanner follows them with small read-only commits;
//! the first `s_small_txns` clear its sticky bit. The stepper keeps
//! stepping — with the updaters and the small reads still running — until
//! the TM is back in Mode Q and has unversioned buckets. Both premises are
//! asserted, so a run that never reached unversioning fails instead of
//! passing vacuously.
//!
//! Reuse-before-grace would surface in three independent ways: the debug
//! poison asserts in `VersionList::traverse` / `Vlt::find` (this test builds
//! with `debug_assertions`), torn values breaking the transfer invariant
//! checked inside every read-only scan, or crashes from walking a recycled
//! link word. A clean run across many unversion cycles is the evidence.

use multiverse::{Mode, MultiverseConfig, MultiverseRuntime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tm_api::{TVar, TmHandle, TmRuntime, Transaction, TxKind};

/// Background steps allowed, once the scanner is done, for the TM to reach
/// Mode Q and unversion a bucket.
const MAX_STEPS_AFTER_SCANS: usize = 20_000;

/// Sets its flag when dropped, so a panicking thread still releases the
/// threads waiting on it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

#[test]
fn version_unversion_churn_recycles_safely() {
    const ACCOUNTS: usize = 128;
    const INITIAL: u64 = 1_000;
    let cfg = MultiverseConfig {
        // Every read-only transaction runs versioned: constant list creation.
        k1_versioned_after: 0,
        // Unversion as fast as the heuristic allows: constant teardown.
        min_unversion_threshold: 1,
        l_delta_samples: 1,
        p_prefix_fraction: 1.0,
        // Background work runs on the stepper thread below.
        bg_thread: false,
        // Few stripes => crowded buckets => multi-node chains get recycled.
        stripes: 64,
        ..MultiverseConfig::small()
    };
    let small_txns = cfg.s_small_txns;
    let rt = MultiverseRuntime::start(cfg);
    let accounts: Arc<Vec<TVar<u64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());
    let expected = (ACCOUNTS as u64) * INITIAL;
    let stop = &AtomicBool::new(false);
    let scans_done = &AtomicBool::new(false);
    let mut reached_q_after: Option<usize> = None;

    std::thread::scope(|s| {
        // Updaters: transfers keep the total invariant and continuously
        // supersede versions.
        for t in 0..2u64 {
            let rt = Arc::clone(&rt);
            let accounts = Arc::clone(&accounts);
            s.spawn(move || {
                let mut h = rt.register();
                let mut x = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize) % ACCOUNTS;
                    let to = ((x >> 20) as usize) % ACCOUNTS;
                    let amt = x % 7;
                    h.txn(TxKind::ReadWrite, |tx| {
                        let a = tx.read_var(&accounts[from])?;
                        let b = tx.read_var(&accounts[to])?;
                        if from != to && a >= amt {
                            tx.write_var(&accounts[from], a - amt)?;
                            tx.write_var(&accounts[to], b + amt)?;
                        }
                        Ok(())
                    });
                }
            });
        }
        // Versioned scanner: create version lists and verify snapshots.
        let rt_obs = Arc::clone(&rt);
        let accounts_obs = Arc::clone(&accounts);
        s.spawn(move || {
            let _done = SetOnDrop(scans_done);
            let mut h = rt_obs.register();
            for _ in 0..400 {
                let sum = h.txn(TxKind::ReadOnly, |tx| {
                    let mut sum = 0u64;
                    for a in accounts_obs.iter() {
                        sum += tx.read_var(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, expected, "snapshot must preserve the total balance");
            }
            // Small commits: the first `small_txns` clear the sticky bit
            // the long scans set. The rest keep versioning single accounts
            // and keep a live handle announcing the delta the unversioning
            // heuristic samples, until the stepper is done.
            for i in 0.. {
                if i == small_txns {
                    scans_done.store(true, Ordering::Relaxed);
                }
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let a = &accounts_obs[i as usize % ACCOUNTS];
                h.txn(TxKind::ReadOnly, |tx| tx.read_var(a));
            }
        });
        // Stepper: the background thread's work, until the TM has left
        // Mode U and unversioned, or the step budget runs out.
        let rt_bg = Arc::clone(&rt);
        let reached = &mut reached_q_after;
        s.spawn(move || {
            let _stop = SetOnDrop(stop);
            let mut ebr = rt_bg.bg_ebr_handle();
            let mut samples = Vec::new();
            let mut after = 0;
            while after < MAX_STEPS_AFTER_SCANS {
                rt_bg.bg_step(&mut ebr, &mut samples);
                if scans_done.load(Ordering::Relaxed) {
                    if rt_bg.current_mode() == Mode::Q && rt_bg.unversioned_bucket_count() > 0 {
                        *reached = Some(after);
                        break;
                    }
                    after += 1;
                }
                std::thread::sleep(Duration::from_micros(20));
            }
        });
    });

    assert!(
        reached_q_after.is_some(),
        "within {MAX_STEPS_AFTER_SCANS} steps after the scans the TM must be back in \
         Mode Q and have unversioned buckets (mode {:?}, {} unversioned)",
        rt.current_mode(),
        rt.stats().buckets_unversioned
    );

    let final_sum: u64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(final_sum, expected);

    let stats = rt.stats();
    assert!(
        stats.addresses_versioned > 0,
        "churn must have versioned addresses"
    );
    assert!(
        stats.buckets_unversioned > 0,
        "churn must have unversioned buckets (bg teardown ran)"
    );
    assert!(
        stats.pool_recycled > 0,
        "unversioned chains must have been recycled into the arena"
    );
    // Pool accounting invariants (ISSUE 3): every arena slot handed out is
    // classified as exactly one of hit/miss, and nothing can be recycled
    // that was not first retired (worker supersede/rollback retires plus the
    // background thread's chain retires, all counted in `pool_retires`).
    //
    // NOTE: `pool_recycled` is sourced from the process-wide arena counter,
    // while `pool_retires` is per-runtime — the inequality below is only
    // meaningful because this test binary hosts exactly one runtime. Keep
    // this file single-test (or switch to counter deltas) if that changes.
    assert_eq!(
        stats.pool_allocs,
        stats.pool_hits + stats.pool_misses,
        "every allocation must be either a pool hit or a pool miss"
    );
    assert!(stats.pool_retires > 0, "churn must have retired nodes");
    assert!(
        stats.pool_recycled <= stats.pool_retires,
        "recycles ({}) cannot outnumber retirements ({})",
        stats.pool_recycled,
        stats.pool_retires
    );
    rt.shutdown();
}
