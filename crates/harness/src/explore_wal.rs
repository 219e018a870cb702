//! # explore_wal — schedule exploration of the WAL durability pipeline
//! (features `sim` + `crashpoint`).
//!
//! The crash harness ([`crate::crash`]) injects faults at named sites but
//! takes whatever thread interleaving the OS happens to produce. This
//! module composes the two fault dimensions: the WAL session's cross-thread
//! pipeline state lives on the instrumented `tm_api::sync` facade and its
//! group-commit loop runs *manually* ([`wal::WalConfig::manual_bg`]) on a
//! simulated thread, so the `sim` scheduler enumerates interleavings of
//!
//! * the commit tap (sequence fetch + per-thread buffer push, called while
//!   the committing transaction still holds its stripe locks),
//! * the group-commit merge (drain, gap hold-back, append, fsync, rotate),
//! * the checkpoint writer (Mode-V snapshot, tmp-file write, rename,
//!   rotation request, crash hand-off).
//!
//! Each scenario then optionally crashes at one named [`Site`] *per
//! explored schedule*, recovers the directory, and judges the result with
//! [`checker::check_recovery`] plus the live-history opacity check —
//! so an interleaving-dependent durability bug (a record fsynced out of
//! serialization order, a checkpoint image missing a pre-cut commit, a
//! rotation losing the tail) shows up as an enumerable, replayable
//! schedule rather than a flaky stress failure.
//!
//! | scenario                    | crash site per schedule        |
//! |-----------------------------|--------------------------------|
//! | `wal-commit`                | none (clean finish + recovery) |
//! | `wal-crash-append`          | first segment append           |
//! | `wal-crash-fsync`           | first segment fsync            |
//! | `wal-crash-checkpoint-write`| checkpoint tmp-file write      |
//! | `wal-crash-rotate`          | post-checkpoint segment open   |
//!
//! The model is fixed and small: two worker threads each commit one
//! two-variable RMW transaction (two WAL records racing through the tap)
//! while the model's root thread — itself a scheduled simulated thread —
//! drives the group-commit loop step by step and writes a mid-run
//! checkpoint from a versioned snapshot. Violations carry the schedule's
//! replay token, same as the protocol and structure scenarios.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::checker;
use crate::crash::{temp_wal_dir, CrashRun, RecoverOpts};
use crate::explore::{canonicalize_logs, rmw, sim_config, violation_lines, ExploreModel, ModelRun};
use multiverse::{MultiverseConfig, MultiverseRuntime};
use tm_api::{TVar, TmHandle, TmRuntime, TxKind};
use wal::crashpoint::{Plan, Site};

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// A WAL exploration scenario: the fixed commit/group-commit/checkpoint
/// model, either finishing cleanly or crashing at one named site on every
/// explored schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalScenario {
    /// No injected fault: every schedule must finish, recover to the full
    /// durable state and pass both checkers.
    Commit,
    /// Crash at this site (first hit) on every schedule, then recover.
    Crash(Site),
}

impl WalScenario {
    /// Every WAL scenario: the clean one plus one crash per injection site.
    pub fn all() -> Vec<WalScenario> {
        let mut out = vec![WalScenario::Commit];
        out.extend(Site::ALL.iter().map(|&s| WalScenario::Crash(s)));
        out
    }

    /// Stable scenario name (`wal-commit`, `wal-crash-<site>`).
    pub fn name(self) -> &'static str {
        match self {
            WalScenario::Commit => "wal-commit",
            WalScenario::Crash(Site::Append) => "wal-crash-append",
            WalScenario::Crash(Site::Fsync) => "wal-crash-fsync",
            WalScenario::Crash(Site::CheckpointWrite) => "wal-crash-checkpoint-write",
            WalScenario::Crash(Site::Rotate) => "wal-crash-rotate",
        }
    }

    /// Parse a scenario name as printed by [`Self::name`].
    pub fn parse(s: &str) -> Option<WalScenario> {
        WalScenario::all().into_iter().find(|w| w.name() == s)
    }

    /// Simulated thread count (two workers plus the scheduled root thread
    /// driving group commit and the checkpoint).
    pub fn threads(self) -> usize {
        3
    }
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// Torn-tail seed for injected crashes: fixed, so a schedule's recovery
/// outcome is a pure function of its interleaving.
const TORN_SEED: u64 = 7;

/// Distinguishes each explored schedule's scratch WAL directory. Plain
/// `std` atomic on purpose: allocating the directory name must not add a
/// yield point to the schedule space.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// Run the WAL model once inside a controlled execution: workload + manual
/// group commit + checkpoint (+ the scenario's injected crash), then
/// recovery and both checkers on this schedule's outcome. The run's history
/// is the live one (for digests and replay identity); its violations are
/// every finding either checker raised against the schedule's recovery.
fn run_wal_model(scen: WalScenario) -> ModelRun {
    let dir = temp_wal_dir(&format!("sim-{}", DIR_SEQ.fetch_add(1, Ordering::Relaxed)));
    // The checkpoint snapshot must be a versioned read-only attempt (its
    // read clock is the exact cut); no forced mode — the durability path
    // composes with whatever mode the runtime infers.
    let cfg = MultiverseConfig {
        k1_versioned_after: 0,
        ..sim_config()
    };
    let rt = MultiverseRuntime::start(cfg);
    let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..2).map(|_| TVar::new(0)).collect());
    let initial = vec![0u64; vars.len()];
    let addrs: Vec<usize> = vars.iter().map(|v| v.word().addr()).collect();

    let mut wal_cfg = wal::WalConfig::new(&dir);
    wal_cfg.manual_bg = true;
    let mut handle = wal::start(wal_cfg).expect("wal session starts");
    if let WalScenario::Crash(site) = scen {
        wal::crashpoint::arm(Plan::CrashAt {
            site,
            skip: 0,
            torn_seed: TORN_SEED,
        });
    }

    let guard = tm_api::record::start();
    let (rt_a, vs) = (Arc::clone(&rt), Arc::clone(&vars));
    let w1 = sim::thread::spawn(move || {
        let mut h = rt_a.register();
        h.txn(TxKind::ReadWrite, |tx| {
            vs.iter().try_for_each(|v| rmw(tx, v))
        });
        tm_api::record::flush_thread();
    });
    let (rt_b, vs) = (Arc::clone(&rt), Arc::clone(&vars));
    let w2 = sim::thread::spawn(move || {
        let mut h = rt_b.register();
        h.txn(TxKind::ReadWrite, |tx| {
            vs.iter().try_for_each(|v| rmw(tx, v))
        });
        tm_api::record::flush_thread();
    });

    // The root thread is itself scheduled: these steps interleave with the
    // workers' commit taps. One drain before the checkpoint, one after it
    // (serving the rotation request or executing a handed-over crash).
    handle.bg_step();
    crate::crash::write_checkpoint(&rt, &mut handle, &vars);
    handle.bg_step();
    w1.join().unwrap();
    w2.join().unwrap();
    // Deterministic tail: workers are joined, every fetched seq has been
    // pushed; this step plus finish()'s final one cover the whole run.
    handle.bg_step();

    tm_api::record::flush_thread();
    let logs = canonicalize_logs(guard.finish());
    let finish = handle.finish();
    wal::crashpoint::disarm();
    let final_mem: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();
    rt.shutdown();

    let run = CrashRun {
        label: scen.name().to_string(),
        logs,
        addrs,
        initial,
        final_mem,
        finish,
    };
    let floor = run.durable_floor();
    let verdict = crate::crash::recover_and_check(&run, &dir, &RecoverOpts::default(), &floor);
    let _ = std::fs::remove_dir_all(&dir);

    let mut violations = violation_lines(&verdict.recovery);
    violations.extend(violation_lines(&verdict.live));
    let history = checker::from_record::history_from_logs(
        "multiverse",
        scen.name(),
        run.logs,
        &run.addrs,
        run.initial,
        run.final_mem,
    );
    ModelRun {
        history,
        violations,
    }
}

impl ExploreModel for WalScenario {
    const FEATURES: &'static str = "sim,crashpoint";

    fn name(self) -> &'static str {
        WalScenario::name(self)
    }

    fn run(self) -> ModelRun {
        run_wal_model(self)
    }
}
