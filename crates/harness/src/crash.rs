//! # crash — the crash-injection scenario family (feature `crashpoint`).
//!
//! Runs a recorded RMW workload on the Multiverse STM with the commit-path
//! WAL active, kills the durability pipeline at a named injection site
//! ([`Site`]), recovers the on-disk image, and feeds the recovered state to
//! [`crate::checker::check_recovery`]: the image must equal a **committed
//! prefix** of the recorded history — no committed transaction covered by an
//! fsync may be lost, and no uncommitted or unfsynced write may appear.
//!
//! The flow of one cell of the sweep matrix:
//!
//! 1. [`execute`] starts a Multiverse runtime and a WAL session in a fresh
//!    directory, arms the crash plan, and drives worker threads through
//!    seeded two-variable RMW transactions (the same [`bump`] value
//!    discipline every checker scenario uses). Mid-run the main thread takes
//!    a Mode-V snapshot (`snapshot_clock` + a full read) — racing thread 0,
//!    which never parks — and writes it as a checkpoint, while the other
//!    workers hold their second halves back until it lands
//!    ([`CheckpointCtl`]), so recovery always exercises checkpoint *plus* a
//!    non-empty WAL-suffix replay, not raw replay or a checkpoint that
//!    swallowed the whole run.
//! 2. [`recover_and_check`] recovers the directory, overlays the recovered
//!    addresses onto the initial state, and runs both checkers: recovery
//!    against the recorded history (with the WAL's post-fsync records as
//!    the durability floor) and the ordinary opacity/serializability check
//!    against the *live* final memory — the crash must not have corrupted
//!    the still-running STM either.
//!
//! The corruption helpers ([`corrupt_last_record_value`],
//! [`append_gap_frame`]) damage the directory *between* those two steps the
//! way real incidents do (silent media corruption, a resurrected unfsynced
//! suffix). Sound recovery degrades cleanly; the deliberately broken
//! [`RecoverOpts`] modes replay the damage, and the point of this module is
//! that the checker then **fails** — see `harness crash --broken-*` and
//! `tests/crash_recovery.rs`.

use crate::checker::{self, Report};
use crate::scenario::{bump, payload, thread_rng_for};
use multiverse::{MultiverseConfig, MultiverseRuntime};
use rand::Rng;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use tm_api::record::ThreadLog;
use tm_api::{TVar, TmHandle, TmRuntime, Transaction, TxKind};

pub use wal::crashpoint::{Plan, Site};
pub use wal::{RecoverOpts, Recovered, WalFinish};

/// Serializes [`execute`] calls: the crashpoint plan and the WAL session are
/// process-global, so arming a plan for one run while another run's final
/// flush is still draining would cross-fire.
static EXEC: Mutex<()> = Mutex::new(());

/// One fully specified crash-scenario run.
#[derive(Debug, Clone)]
pub struct CrashSpec {
    /// Seed for the per-thread schedules (and, by convention, torn tails).
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// Transactional variables.
    pub vars: usize,
    /// Committed update transactions per thread.
    pub ops_per_thread: usize,
    /// The fault plan to arm, if any (`None` = clean baseline run).
    pub plan: Option<Plan>,
}

impl CrashSpec {
    /// CI-friendly sizing; no fault armed.
    pub fn smoke(seed: u64) -> Self {
        Self {
            seed,
            threads: 3,
            vars: 24,
            ops_per_thread: 250,
            plan: None,
        }
    }

    /// The same spec with `plan` armed.
    pub fn with_plan(mut self, plan: Plan) -> Self {
        self.plan = Some(plan);
        self
    }

    fn label(&self) -> String {
        match self.plan {
            Some(Plan::CrashAt { site, skip, .. }) => {
                format!(
                    "crash(seed={}, site={}, skip={skip})",
                    self.seed,
                    site.name()
                )
            }
            Some(Plan::IoErrors { site, count }) => {
                format!(
                    "crash(seed={}, io-errors={}x{count})",
                    self.seed,
                    site.name()
                )
            }
            None => format!("crash(seed={}, baseline)", self.seed),
        }
    }
}

/// Everything [`execute`] captured about one run: the recorded history, the
/// address map, the live final memory, and the WAL's final accounting.
#[derive(Debug)]
pub struct CrashRun {
    /// Display label of the spec that produced this run.
    pub label: String,
    /// Per-thread recorded event logs.
    pub logs: Vec<ThreadLog>,
    /// `TxWord` address of each variable, by index.
    pub addrs: Vec<usize>,
    /// Initial value of each variable.
    pub initial: Vec<u64>,
    /// Live in-memory value of each variable after the run (the STM keeps
    /// running even when the durability pipeline crashes).
    pub final_mem: Vec<u64>,
    /// The WAL session's final accounting, including the post-fsync record
    /// shadow that anchors the durability floor.
    pub finish: WalFinish,
}

impl CrashRun {
    fn var_of(&self) -> HashMap<u64, usize> {
        self.addrs
            .iter()
            .enumerate()
            .map(|(i, &a)| (a as u64, i))
            .collect()
    }

    /// The WAL's post-fsync ground truth as `(var, value)` pairs — every
    /// write the session fsynced, mapped to variable indices. Recovery's cut
    /// may not sit below any of these.
    pub fn durable_floor(&self) -> Vec<(usize, u64)> {
        let var_of = self.var_of();
        let mut out = Vec::new();
        for record in &self.finish.durable_records {
            for &(addr, value) in &record.writes {
                if let Some(&var) = var_of.get(&addr) {
                    out.push((var, value));
                }
            }
        }
        out
    }

    /// The recorded logs, copied (recovery and live checks each consume a
    /// history, and `ThreadLog` itself is not `Clone`).
    fn clone_logs(&self) -> Vec<ThreadLog> {
        self.logs
            .iter()
            .map(|l| ThreadLog {
                thread: l.thread,
                events: l.events.clone(),
            })
            .collect()
    }
}

/// Cross-thread choreography around the mid-run checkpoint. Threads other
/// than 0 park at their halfway point until the checkpoint has been written,
/// which guarantees a deterministic suffix of commits *after* the checkpoint
/// cut (their commit clocks are read after the snapshot's, so replay must
/// pick them up — the corruption tests rely on the last record being in the
/// replayed suffix, not inside the checkpoint image). Thread 0 never parks,
/// so the Mode-V snapshot still races a live updater.
struct CheckpointCtl {
    parked: AtomicUsize,
    checkpoint_done: AtomicBool,
}

/// One worker: seeded two-variable RMW increments in address order, every
/// write a [`bump`] so the checker can reconstruct version chains by value.
fn run_worker(
    rt: &Arc<MultiverseRuntime>,
    vars: &[TVar<u64>],
    spec: &CrashSpec,
    ctl: &CheckpointCtl,
    thread: usize,
) {
    let mut h = rt.register();
    let mut rng = thread_rng_for(spec.seed, thread);
    let n = vars.len();
    for op in 0..spec.ops_per_thread {
        if thread != 0 && op == spec.ops_per_thread / 2 {
            ctl.parked.fetch_add(1, Ordering::AcqRel);
            while !ctl.checkpoint_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
        }
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        if b == a {
            b = (a + 1) % n;
        }
        let (a, b) = (a.min(b), a.max(b));
        h.txn(TxKind::ReadWrite, |tx| {
            let va = tx.read_var(&vars[a])?;
            let vb = tx.read_var(&vars[b])?;
            tx.write_var(&vars[a], bump(va, payload(va) + 1))?;
            tx.write_var(&vars[b], bump(vb, payload(vb) + 1))
        });
    }
    tm_api::record::flush_thread();
}

/// Run one crash scenario: workload + WAL + armed plan + mid-run checkpoint.
/// Returns the recorded run; the WAL directory `dir` is left behind for
/// recovery (and for the corruption helpers).
pub fn execute(spec: &CrashSpec, dir: &Path) -> CrashRun {
    let _exec = EXEC.lock().unwrap_or_else(|e| e.into_inner());

    let mut cfg = MultiverseConfig::small();
    // The checkpoint snapshot must be a versioned read-only attempt (its
    // read clock is the exact checkpoint cut); put every read-only attempt
    // on the versioned path instead of waiting for the K1 heuristic.
    cfg.k1_versioned_after = 0;
    let rt = MultiverseRuntime::start(cfg);

    let vars: Vec<TVar<u64>> = (0..spec.vars).map(|i| TVar::new(i as u64)).collect();
    let initial: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();
    let addrs: Vec<usize> = vars.iter().map(|v| v.word().addr()).collect();

    let mut wal_cfg = wal::WalConfig::new(dir);
    wal_cfg.flush_interval = Duration::from_micros(200);
    let mut handle = wal::start(wal_cfg).expect("wal session starts");
    if let Some(plan) = spec.plan {
        wal::crashpoint::arm(plan);
    }

    assert!(
        spec.threads >= 2,
        "crash scenario needs a parked worker set"
    );
    let ctl = CheckpointCtl {
        parked: AtomicUsize::new(0),
        checkpoint_done: AtomicBool::new(false),
    };
    let guard = tm_api::record::start();
    std::thread::scope(|s| {
        for t in 0..spec.threads {
            let rt = &rt;
            let vars = &vars;
            let ctl = &ctl;
            s.spawn(move || run_worker(rt, vars, spec, ctl, t));
        }
        // Checkpoint mid-run, once every parking worker sits at its halfway
        // barrier (thread 0 keeps committing throughout): a Mode-V snapshot
        // read of the whole array at one read clock.
        while ctl.parked.load(Ordering::Acquire) < spec.threads - 1 {
            std::hint::spin_loop();
        }
        write_checkpoint(&rt, &mut handle, &vars);
        ctl.checkpoint_done.store(true, Ordering::Release);
    });
    // Workers are joined, so every fetched seq has been pushed; finish()'s
    // final flush covers the whole run (unless the plan crashed it first).
    let logs = guard.finish();
    let finish = handle.finish();
    wal::crashpoint::disarm();

    let final_mem: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();
    rt.shutdown();

    CrashRun {
        label: spec.label(),
        logs,
        addrs,
        initial,
        final_mem,
        finish,
    }
}

/// Write a checkpoint of `vars` from a Mode-V snapshot: one versioned
/// read-only transaction reads the whole array at its read clock, which is
/// the checkpoint's exact cut.
pub(crate) fn write_checkpoint(
    rt: &Arc<MultiverseRuntime>,
    handle: &mut wal::WalHandle,
    vars: &[TVar<u64>],
) {
    let mut h = rt.register();
    let (rv, image) = h.txn(TxKind::ReadOnly, |tx| {
        debug_assert!(tx.is_versioned_attempt());
        let rv = tx.snapshot_clock();
        let mut image = Vec::with_capacity(vars.len());
        for v in vars {
            image.push((v.word().addr() as u64, tx.read_var(v)?));
        }
        Ok((rv, image))
    });
    let _ = handle.checkpoint(rv, &image);
}

/// Both checkers' verdicts on one recovery of a [`CrashRun`]'s directory.
#[derive(Debug)]
pub struct RecoveryVerdict {
    /// What `wal::recover` reconstructed.
    pub recovered: Recovered,
    /// The recovered image overlaid on the initial state, by variable.
    pub recovered_mem: Vec<u64>,
    /// `check_recovery` against the recorded history and the durable floor.
    pub recovery: Report,
    /// `check_history` against the live final memory (the run itself must
    /// stay opaque/serializable, crash or not).
    pub live: Report,
}

impl RecoveryVerdict {
    /// No violation from either checker.
    pub fn is_clean(&self) -> bool {
        self.recovery.is_clean() && self.live.is_clean()
    }
}

/// Recover `dir` under `opts` and judge the result against `run`'s recorded
/// history. `durable` is the durability floor to enforce — normally
/// [`CrashRun::durable_floor`]; pass `&[]` when the test has externally
/// damaged fsynced bytes (media corruption is outside the WAL's fault model,
/// so the floor would legitimately trip and mask the violation under test).
pub fn recover_and_check(
    run: &CrashRun,
    dir: &Path,
    opts: &RecoverOpts,
    durable: &[(usize, u64)],
) -> RecoveryVerdict {
    let recovered = wal::recover(dir, opts).expect("recovery reads the log directory");
    let var_of = run.var_of();
    let mut recovered_mem = run.initial.clone();
    for (&addr, &value) in &recovered.values {
        if let Some(&var) = var_of.get(&addr) {
            recovered_mem[var] = value;
        }
    }

    let recovery_history = checker::from_record::history_from_logs(
        "multiverse",
        &format!("{} [recovered]", run.label),
        run.clone_logs(),
        &run.addrs,
        run.initial.clone(),
        recovered_mem.clone(),
    );
    let recovery = checker::check_recovery(&recovery_history, durable);

    let live_history = checker::from_record::history_from_logs(
        "multiverse",
        &run.label,
        run.clone_logs(),
        &run.addrs,
        run.initial.clone(),
        run.final_mem.clone(),
    );
    let live = checker::check_history(&live_history);

    RecoveryVerdict {
        recovered,
        recovered_mem,
        recovery,
        live,
    }
}

/// Execute `spec` and check sound recovery with the full durability floor —
/// the positive cell of the sweep matrix.
pub fn run_sound(spec: &CrashSpec, dir: &Path) -> (CrashRun, RecoveryVerdict) {
    let run = execute(spec, dir);
    let floor = run.durable_floor();
    let verdict = recover_and_check(&run, dir, &RecoverOpts::default(), &floor);
    (run, verdict)
}

/// A fresh scratch directory for one run's WAL (removed if it already
/// exists, created by `wal::start`). Callers delete it when done.
pub fn temp_wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mv-crash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------------
// Directory corruption, the way real incidents do it
// ---------------------------------------------------------------------------

/// Byte offset ranges of each accepted frame in `bytes`, in stream order.
fn frame_offsets(bytes: &[u8], count: usize) -> Vec<usize> {
    let mut starts = Vec::with_capacity(count);
    let mut at = 0usize;
    for _ in 0..count {
        starts.push(at);
        let len =
            u32::from_le_bytes(bytes[at..at + 4].try_into().expect("accepted frame")) as usize;
        at += wal::frame::FRAME_HEADER_BYTES + len;
    }
    starts
}

/// Flip one byte of the *value* field of the last record in the newest
/// non-empty segment — silent media corruption of an already-fsynced frame.
/// Sound recovery truncates there; checksum-blind recovery resurrects a
/// value no transaction ever wrote. Returns `false` if no record exists.
pub fn corrupt_last_record_value(dir: &Path) -> bool {
    let segments = wal::session::segment_paths(dir).expect("wal dir is listable");
    for (_, path) in segments.iter().rev() {
        let mut bytes = std::fs::read(path).expect("segment is readable");
        let decoded = wal::frame::decode_stream(&bytes, &wal::DecodeOpts::default());
        let Some(last) = decoded.records.last() else {
            continue;
        };
        assert!(!last.writes.is_empty(), "logged records carry writes");
        let start = *frame_offsets(&bytes, decoded.records.len())
            .last()
            .expect("at least one frame");
        // Payload layout: kind(1) seq(8) ts(8) n(4), then n x (addr, value).
        let value_off =
            start + wal::frame::FRAME_HEADER_BYTES + 21 + 16 * (last.writes.len() - 1) + 8;
        bytes[value_off] ^= 0x01;
        std::fs::write(path, bytes).expect("segment is writable");
        return true;
    }
    false
}

/// Chain position well past anything a run produces, so the fabricated value
/// below can never collide with a committed write.
const GHOST_POS: u64 = 0x7fff_ffff;

/// Append a structurally valid, correctly checksummed frame *past a sequence
/// gap* to the newest segment: the shape of a resurrected never-fsynced
/// suffix. Its record writes a value no transaction produced to `addr`.
/// Sound recovery's contiguity walk stops at the gap; gap-blind replay
/// applies the ghost.
pub fn append_gap_frame(dir: &Path, addr: u64, gap: u64) {
    let segments = wal::session::segment_paths(dir).expect("wal dir is listable");
    let mut max_seq = 0u64;
    for (_, path) in &segments {
        let bytes = std::fs::read(path).expect("segment is readable");
        let decoded = wal::frame::decode_stream(&bytes, &wal::DecodeOpts::default());
        if let Some(last) = decoded.records.last() {
            max_seq = max_seq.max(last.seq);
        }
    }
    let record = wal::Record {
        seq: max_seq + 2 + gap,
        commit_ts: u64::MAX,
        writes: vec![(addr, (GHOST_POS << 32) | 0xdead)],
    };
    let (_, path) = segments.last().expect("a segment exists");
    let mut bytes = std::fs::read(path).expect("segment is readable");
    wal::frame::encode_record(&record, &mut bytes);
    std::fs::write(path, bytes).expect("segment is writable");
}
