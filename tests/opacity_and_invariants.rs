//! Cross-TM integration tests: every TM in the repository must preserve
//! transactional invariants under concurrency (the observable face of
//! opacity), and read-only transactions must always see consistent
//! snapshots — including the long, many-address reads Multiverse targets.
//!
//! Backend dispatch goes through the harness checker registry
//! (`harness::with_backend` + `BackendVisitor`), so adding a TM to
//! `TmKind::all()` automatically adds it to the invariant suite instead of
//! requiring another hand-written constructor per test. The deeper,
//! history-based validation of the same invariants lives in
//! `crates/harness/tests/check_scenarios.rs` and the `harness check` CLI
//! (see TESTING.md).

use harness::{with_backend, BackendVisitor, RuntimeScale, TmKind};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use tm_api::{Abort, TVar, TmHandle, TmRuntime, Transaction, TxKind, TxOutcome};

const ACCOUNTS: usize = 256;
const INITIAL: u64 = 100;

/// Concurrent transfers plus full-sum observers: the sum must never change.
fn bank_invariant<R: TmRuntime>(tm: Arc<R>) {
    let accounts: Arc<Vec<TVar<u64>>> =
        Arc::new((0..ACCOUNTS).map(|_| TVar::new(INITIAL)).collect());
    let expected = (ACCOUNTS as u64) * INITIAL;
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..3u64 {
            let tm = Arc::clone(&tm);
            let accounts = Arc::clone(&accounts);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut h = tm.register();
                let mut x = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let from = (x as usize) % ACCOUNTS;
                    let to = ((x >> 20) as usize) % ACCOUNTS;
                    let amt = x % 10;
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
        // Observer: the long read-only transaction over every account.
        let tm_obs = Arc::clone(&tm);
        let accounts_obs = Arc::clone(&accounts);
        let stop_obs = Arc::clone(&stop);
        s.spawn(move || {
            let mut h = tm_obs.register();
            for _ in 0..200 {
                let sum = h.txn(TxKind::ReadOnly, |tx| {
                    let mut sum = 0u64;
                    for a in accounts_obs.iter() {
                        sum += tx.read_var(a)?;
                    }
                    Ok(sum)
                });
                assert_eq!(sum, expected, "snapshot must preserve the total balance");
            }
            stop_obs.store(true, Ordering::Relaxed);
        });
    });
    let final_sum: u64 = accounts.iter().map(|a| a.load_direct()).sum();
    assert_eq!(final_sum, expected);
    tm.shutdown();
}

/// Two variables moving in lock-step: any transaction (even one that later
/// aborts) must never observe them out of sync. This is the classic
/// "zombie transaction" opacity probe: x and y always satisfy y == 2*x.
fn lockstep_probe<R: TmRuntime>(tm: Arc<R>) {
    let x = Arc::new(TVar::new(1u64));
    let y = Arc::new(TVar::new(2u64));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let tm = Arc::clone(&tm);
            let x = Arc::clone(&x);
            let y = Arc::clone(&y);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut h = tm.register();
                let mut v = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    h.txn(TxKind::ReadWrite, |tx| {
                        tx.write_var(&*x, v)?;
                        tx.write_var(&*y, v * 2)
                    });
                }
            });
        }
        let tm2 = Arc::clone(&tm);
        let x2 = Arc::clone(&x);
        let y2 = Arc::clone(&y);
        let stop2 = Arc::clone(&stop);
        s.spawn(move || {
            let mut h = tm2.register();
            for _ in 0..20_000 {
                // The assertion runs *inside* the transaction body: even
                // attempts that will eventually abort must see consistent
                // state, otherwise this panics.
                h.txn(TxKind::ReadOnly, |tx| {
                    let a = tx.read_var(&*x2)?;
                    let b = tx.read_var(&*y2)?;
                    assert_eq!(b, a * 2, "zombie read observed inconsistent state");
                    Ok(())
                });
            }
            stop2.store(true, Ordering::Relaxed);
        });
    });
    tm.shutdown();
}

/// Run the bank invariant against a backend by registry name.
struct BankVisitor;
impl BackendVisitor for BankVisitor {
    type Out = ();
    fn visit<R: TmRuntime>(self, rt: Arc<R>) {
        bank_invariant(rt);
    }
}

/// The stats a backend's runtime moved by, as `(starts, aborts, gave_up,
/// commits)`.
type Deltas = (u64, u64, u64, u64);

/// The retry loop's contract, which every backend shares: an operation
/// whose body writes and then aborts, on a budget of 3, begins 3 times,
/// aborts 3 times, gives up once, and leaves the write rolled back.
fn explicit_abort_contract<R: TmRuntime>(tm: Arc<R>) -> Deltas {
    let x = TVar::new(7u64);
    let before = tm.stats();
    let out = tm.register().txn_budget(TxKind::ReadWrite, 3, |tx| {
        tx.write_var(&x, 8)?;
        Err::<(), _>(Abort)
    });
    let after = tm.stats();
    tm.shutdown();
    assert_eq!(out, TxOutcome::GaveUp);
    assert_eq!(x.load_direct(), 7, "the aborted write must be rolled back");
    (
        after.starts - before.starts,
        after.aborts - before.aborts,
        after.gave_up - before.gave_up,
        after.commits - before.commits,
    )
}

/// Run the explicit-abort contract against a backend by registry name.
struct ExplicitAbortVisitor;
impl BackendVisitor for ExplicitAbortVisitor {
    type Out = Deltas;
    fn visit<R: TmRuntime>(self, rt: Arc<R>) -> Deltas {
        explicit_abort_contract(rt)
    }
}

/// A write inside a `TxKind::ReadOnly` transaction, then a `ReadWrite`
/// writer of the same word on a second handle. Multiverse (`refuses`)
/// panics before taking any lock and leaves the word unchanged; every other
/// backend commits the write. Either way no stripe lock outlives the first
/// handle, so the later writer commits within its 1000-attempt budget.
fn read_only_write_rule<R: TmRuntime>(tm: Arc<R>, refuses: bool) {
    let name = tm.name();
    let x = TVar::new(7u64);
    let first = std::panic::catch_unwind(AssertUnwindSafe(|| {
        tm.register()
            .txn_budget(TxKind::ReadOnly, 1000, |tx| tx.write_var(&x, 8))
    }));
    if refuses {
        assert!(first.is_err(), "{name}: a ReadOnly write must panic");
        assert_eq!(
            x.load_direct(),
            7,
            "{name}: the refused write must not land"
        );
    } else {
        assert_eq!(first.ok(), Some(TxOutcome::Committed(())), "{name}");
        assert_eq!(x.load_direct(), 8, "{name}: the ReadOnly write commits");
    }
    let later = tm
        .register()
        .txn_budget(TxKind::ReadWrite, 1000, |tx| tx.write_var(&x, 9));
    assert_eq!(later, TxOutcome::Committed(()), "{name}: later writer");
    assert_eq!(x.load_direct(), 9, "{name}");
    tm.shutdown();
}

/// Run the ReadOnly-write rule against a backend by registry name.
struct ReadOnlyWriteVisitor {
    refuses: bool,
}
impl BackendVisitor for ReadOnlyWriteVisitor {
    type Out = ();
    fn visit<R: TmRuntime>(self, rt: Arc<R>) {
        read_only_write_rule(rt, self.refuses);
    }
}

/// Handle A writes `x` and parks inside its transaction, holding `x`'s
/// stripe lock, while `MAX_TID + 1` fresh handles each try once to write
/// `x` and are then dropped. None may commit: A's lock names A's tid, and
/// no live handle may share it. A tid counter that wraps within
/// `MAX_TID + 1` registrations hands one of them A's tid, and that handle
/// then commits through A's lock; A's abort would roll its write back.
fn live_tids_are_never_shared<R: TmRuntime>(tm: Arc<R>) {
    let name = tm.name();
    let x = TVar::new(0u64);
    let out = tm.register().txn_budget(TxKind::ReadWrite, 1, |tx| {
        tx.write_var(&x, 1)?;
        for i in 0..=tm_api::MAX_TID {
            let fresh = tm
                .register()
                .txn_budget(TxKind::ReadWrite, 1, |tx| tx.write_var(&x, 2));
            assert_eq!(
                fresh,
                TxOutcome::GaveUp,
                "{name}: fresh handle {i} committed through a live handle's lock"
            );
        }
        Err::<(), _>(Abort)
    });
    assert_eq!(out, TxOutcome::GaveUp);
    assert_eq!(x.load_direct(), 0, "{name}: A's abort rolls its write back");
    tm.shutdown();
}

/// Run the tid-uniqueness probe against a backend by registry name.
struct LiveTidVisitor;
impl BackendVisitor for LiveTidVisitor {
    type Out = ();
    fn visit<R: TmRuntime>(self, rt: Arc<R>) {
        live_tids_are_never_shared(rt);
    }
}

/// Run the lockstep probe against a backend by registry name.
struct LockstepVisitor;
impl BackendVisitor for LockstepVisitor {
    type Out = ();
    fn visit<R: TmRuntime>(self, rt: Arc<R>) {
        lockstep_probe(rt);
    }
}

fn run_bank(tm: TmKind) {
    with_backend(tm, RuntimeScale::Test, BankVisitor);
}

fn run_lockstep(tm: TmKind) {
    with_backend(tm, RuntimeScale::Test, LockstepVisitor);
}

#[test]
fn bank_invariant_multiverse() {
    run_bank(TmKind::Multiverse);
}

#[test]
fn bank_invariant_multiverse_mode_q_only() {
    run_bank(TmKind::MultiverseModeQ);
}

#[test]
fn bank_invariant_multiverse_mode_u_only() {
    run_bank(TmKind::MultiverseModeU);
}

#[test]
fn bank_invariant_dctl() {
    run_bank(TmKind::Dctl);
}

#[test]
fn bank_invariant_tl2() {
    run_bank(TmKind::Tl2);
}

#[test]
fn bank_invariant_norec() {
    run_bank(TmKind::Norec);
}

#[test]
fn bank_invariant_tinystm() {
    run_bank(TmKind::TinyStm);
}

#[test]
fn bank_invariant_glock_oracle() {
    run_bank(TmKind::Glock);
}

#[test]
fn lockstep_probe_multiverse() {
    run_lockstep(TmKind::Multiverse);
}

#[test]
fn lockstep_probe_dctl() {
    run_lockstep(TmKind::Dctl);
}

#[test]
fn lockstep_probe_tl2() {
    run_lockstep(TmKind::Tl2);
}

#[test]
fn lockstep_probe_norec() {
    run_lockstep(TmKind::Norec);
}

#[test]
fn lockstep_probe_tinystm() {
    run_lockstep(TmKind::TinyStm);
}

#[test]
fn explicit_aborts_follow_one_contract_on_every_backend() {
    for tm in TmKind::all() {
        let deltas = with_backend(tm, RuntimeScale::Test, ExplicitAbortVisitor);
        assert_eq!(
            deltas,
            (3, 3, 1, 0),
            "{}: (starts, aborts, gave_up, commits)",
            tm.name()
        );
    }
}

#[test]
fn read_only_writes_follow_one_rule_on_every_backend() {
    for tm in TmKind::all() {
        let refuses = matches!(
            tm,
            TmKind::Multiverse | TmKind::MultiverseModeQ | TmKind::MultiverseModeU
        );
        with_backend(tm, RuntimeScale::Test, ReadOnlyWriteVisitor { refuses });
    }
}

/// The encounter-time backends, whose stripe locks name their owner's tid.
/// Glock is left out (its global lock would block the nested handle), and
/// so are TL2 and NOrec, which lock only at commit: a parked body holds
/// nothing there.
#[test]
fn live_handles_never_share_a_tid() {
    for tm in [
        TmKind::Multiverse,
        TmKind::MultiverseModeQ,
        TmKind::MultiverseModeU,
        TmKind::Dctl,
        TmKind::TinyStm,
    ] {
        with_backend(tm, RuntimeScale::Test, LiveTidVisitor);
    }
}

/// Stress rerun across **all** backends (previously Multiverse Mode-U only).
/// `STRESS_RERUNS` scales the repetition count: the default keeps `cargo
/// test` quick; CI's gated seed sweep sets it to 40 to reproduce the
/// repetition level that exposed the PR 1 opacity bug.
#[test]
fn bank_invariant_stress_rerun_all_backends() {
    let reruns: usize = std::env::var("STRESS_RERUNS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    for round in 0..reruns {
        for tm in TmKind::all() {
            eprintln!("stress round {round}: {}", tm.name());
            run_bank(tm);
        }
    }
}
