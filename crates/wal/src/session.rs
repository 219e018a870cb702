//! WAL sessions: per-thread commit logging and the group-commit thread.
//!
//! A session owns a log directory for its lifetime. Committing transactions
//! call [`log_commit`] *while still holding their stripe locks*: the global
//! sequence number fetched there is therefore ordered exactly as the lock
//! hand-off serializes conflicting commits, so replaying records in `seq`
//! order is a valid serialization even though deferred-clock commit
//! timestamps can tie. The hot path only pushes into a per-thread buffer —
//! it never touches the file system.
//!
//! A background group-commit thread drains the buffers on a short interval,
//! **holds back** anything past a sequence gap (a record can miss a drain
//! between its seq fetch and its buffer push), writes the contiguous run,
//! and fsyncs in one batch. On-disk sequence numbers are therefore strictly
//! contiguous `1..=durable_seq`, which is what makes "no committed
//! transaction lost past an fsync" checkable: recovery's contiguity walk
//! can only stop early at a torn tail, never at an innocent reordering gap.
//!
//! Transient IO errors are retried with exponential backoff up to a bound;
//! exhaustion marks the session *failed* (logging stops, the application
//! keeps running). Injected crashes (feature `crashpoint`) truncate the
//! segment to its synced length plus a deterministic torn prefix of the
//! unsynced bytes, modelling what a real power cut leaves behind.
//!
//! Callers must join their worker threads before [`WalHandle::finish`]: a
//! worker that has fetched a seq but not yet pushed it would otherwise hold
//! back the final flush of everything behind it.
//!
//! ## Deterministic exploration (`tm_api::sync`)
//!
//! The cross-thread pipeline state — the global sequence counter, the
//! per-thread pending buffers and their registry, and the handle ↔
//! group-commit channel (`BgShared`) — lives on the [`tm_api::sync`]
//! facade: plain `std::sync` in normal builds, scheduler-instrumented
//! yield points when the workspace is built with tm-api's `sim` feature.
//! Combined with [`WalConfig::manual_bg`] (the group-commit loop driven by
//! explicit [`WalHandle::bg_step`] calls instead of an OS thread), the
//! schedule explorer can enumerate interleavings of commit-tap pushes,
//! group-commit drains and the checkpoint writer. Session *lifecycle*
//! flags (`ACTIVE`/`CRASHED`/`FAILED`/`RUN_ID`) stay on plain `std`
//! atomics on purpose: they gate whether the tap runs at all, so making
//! them yield points would perturb every non-WAL exploration's schedule
//! space for no coverage (they only change at deterministic session
//! boundaries).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;
use tm_api::sync as tmsync;

use crate::crashpoint::{self, Action, Site};
use crate::frame::{encode_record, Record};

/// Configuration for one WAL session.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Directory holding `log-*.wal` segments and `ckpt-*.ck` checkpoints.
    pub dir: PathBuf,
    /// Group-commit drain interval. Latency knob, not a correctness knob.
    pub flush_interval: Duration,
    /// Retries per IO operation before the session is marked failed.
    pub io_max_retries: u32,
    /// Initial retry backoff; doubles per attempt.
    pub io_backoff: Duration,
    /// Drive the group-commit loop manually through [`WalHandle::bg_step`]
    /// instead of an OS thread. Used by the schedule explorer, where the
    /// driver must be a simulated thread the scheduler can interleave.
    pub manual_bg: bool,
}

impl WalConfig {
    /// Defaults tuned for tests: sub-millisecond flush, fast bounded retry.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            flush_interval: Duration::from_micros(500),
            io_max_retries: 4,
            io_backoff: Duration::from_micros(50),
            manual_bg: false,
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static CRASHED: AtomicBool = AtomicBool::new(false);
static FAILED: AtomicBool = AtomicBool::new(false);
static RUN_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_SEQ: tmsync::AtomicU64 = tmsync::AtomicU64::new(1);
/// Serializes whole sessions; held by the [`WalHandle`].
static SESSION: Mutex<()> = Mutex::new(());
/// Registry of every thread's pending buffer for the current run.
static BUFFERS: tmsync::Mutex<Vec<Arc<ThreadBuf>>> = tmsync::Mutex::new(Vec::new());

struct ThreadBuf {
    run: u64,
    pending: tmsync::Mutex<Vec<Record>>,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<ThreadBuf>>> = const { RefCell::new(None) };
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Same policy for state on the instrumented facade. (With tm-api's `sim`
/// feature off these are the same types; with it on the instrumented lock
/// is a yield point the explorer schedules around.)
fn lock_sync<T>(m: &tmsync::Mutex<T>) -> tmsync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// True while a session is logging (started, not crashed, not failed).
/// The commit-path tap checks this before extracting its write set.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
        && !CRASHED.load(Ordering::Relaxed)
        && !FAILED.load(Ordering::Relaxed)
}

/// Append one committed transaction's write set to this thread's log buffer.
///
/// MUST be called while the committing transaction still holds its stripe
/// locks — the seq fetched here is what makes replay order a valid
/// serialization. Never blocks on IO.
pub fn log_commit(writes: &[(u64, u64)], commit_ts: u64) {
    if !is_active() {
        return;
    }
    let run = RUN_ID.load(Ordering::Acquire);
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    let record = Record {
        seq,
        commit_ts,
        writes: writes.to_vec(),
    };
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.as_ref().map(|b| b.run != run).unwrap_or(true) {
            let buf = Arc::new(ThreadBuf {
                run,
                pending: tmsync::Mutex::new(Vec::new()),
            });
            lock_sync(&BUFFERS).push(Arc::clone(&buf));
            *slot = Some(buf);
        }
        let buf = slot.as_ref().expect("buffer installed above");
        lock_sync(&buf.pending).push(record);
    });
}

/// Why an IO operation on the durability path stopped.
enum WalIoError {
    /// Real or injected transient error that outlived the retry budget.
    Io(io::Error),
    /// An injected crash fired at this site.
    Crash { torn_seed: u64 },
}

/// Run `op` under the retry policy, consulting the `site` injection point
/// before every attempt. Transient failures back off exponentially.
fn with_retry<T>(
    cfg: &WalConfig,
    retries: &mut u64,
    site: Site,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, WalIoError> {
    let mut backoff = cfg.io_backoff;
    let mut attempts = 0u32;
    loop {
        let injected = match crashpoint::check(site) {
            Action::Continue => None,
            Action::IoError => Some(io::Error::other("injected transient IO error")),
            Action::Crash { torn_seed } => return Err(WalIoError::Crash { torn_seed }),
        };
        let err = match injected {
            Some(e) => e,
            None => match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            },
        };
        if attempts >= cfg.io_max_retries {
            return Err(WalIoError::Io(err));
        }
        attempts += 1;
        *retries += 1;
        std::thread::sleep(backoff);
        backoff = backoff.saturating_mul(2);
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Segment file name for 1-based index `n`.
pub fn segment_name(n: u64) -> String {
    format!("log-{n:06}.wal")
}

/// Checkpoint file name for read clock `rv`.
pub fn checkpoint_name(rv: u64) -> String {
    format!("ckpt-{rv:020}.ck")
}

/// Shared state between the handle and the group-commit thread.
struct BgShared {
    shutdown: tmsync::AtomicBool,
    rotate_requested: tmsync::AtomicBool,
    /// A crash injected on the *checkpoint caller's* thread is carried here
    /// for the group-commit thread to execute (it owns the segment file).
    crash_requested: tmsync::Mutex<Option<u64>>,
}

/// Final accounting carried out of the group-commit thread.
struct BgExit {
    durable_seq: u64,
    appends: u64,
    fsyncs: u64,
    bytes: u64,
    io_retries: u64,
    /// Post-fsync shadow of every durable record, for the harness's
    /// durability-floor check.
    #[cfg(feature = "crashpoint")]
    durable_records: Vec<Record>,
}

struct BgThread {
    cfg: WalConfig,
    shared: Arc<BgShared>,
    run: u64,
    file: File,
    segment: u64,
    /// File length in bytes (everything written).
    written_len: u64,
    /// Prefix of `written_len` known durable (covered by a successful fsync).
    synced_len: u64,
    /// Records drained but held back behind a sequence gap.
    stash: BTreeMap<u64, Record>,
    next_seq_to_write: u64,
    /// Last contiguous seq covered by a successful fsync.
    durable_seq: u64,
    last_written_seq: u64,
    appends: u64,
    fsyncs: u64,
    bytes: u64,
    io_retries: u64,
    /// Latched once the pipeline stops (crash or failure); further steps
    /// are no-ops so a manual driver can keep calling [`Self::step_once`].
    stopped: bool,
    #[cfg(feature = "crashpoint")]
    pending_durable: Vec<Record>,
    #[cfg(feature = "crashpoint")]
    durable_records: Vec<Record>,
}

impl BgThread {
    fn exit(self) -> BgExit {
        BgExit {
            durable_seq: self.durable_seq,
            appends: self.appends,
            fsyncs: self.fsyncs,
            bytes: self.bytes,
            io_retries: self.io_retries,
            #[cfg(feature = "crashpoint")]
            durable_records: self.durable_records,
        }
    }

    /// Simulate the crash: keep the synced prefix plus a deterministic torn
    /// prefix of the unsynced bytes, then stop the pipeline.
    fn crash(&mut self, torn_seed: u64) {
        let unsynced = self.written_len - self.synced_len;
        let torn = if unsynced == 0 {
            0
        } else {
            splitmix64(torn_seed) % (unsynced + 1)
        };
        let keep = self.synced_len + torn;
        // Best-effort: the simulated power cut must not itself fail the test
        // run, and recovery tolerates whatever length survives.
        let _ = self.file.set_len(keep);
        let _ = self.file.sync_all();
        CRASHED.store(true, Ordering::Release);
    }

    fn drain_buffers(&mut self) {
        let bufs = lock_sync(&BUFFERS);
        for buf in bufs.iter().filter(|b| b.run == self.run) {
            let taken = std::mem::take(&mut *lock_sync(&buf.pending));
            for r in taken {
                self.stash.insert(r.seq, r);
            }
        }
    }

    /// Write and fsync the contiguous run at the head of the stash.
    /// `Ok(())` means "pipeline still healthy"; errors are terminal.
    fn flush_round(&mut self) -> Result<(), WalIoError> {
        self.drain_buffers();
        let mut batch = Vec::new();
        let mut encoded = Vec::new();
        while let Some(r) = self.stash.remove(&self.next_seq_to_write) {
            self.next_seq_to_write += 1;
            encode_record(&r, &mut encoded);
            batch.push(r);
        }
        if !batch.is_empty() {
            with_retry(&self.cfg, &mut self.io_retries, Site::Append, || {
                self.file.write_all(&encoded)
            })?;
            self.written_len += encoded.len() as u64;
            self.last_written_seq = batch.last().expect("nonempty batch").seq;
            self.appends += batch.len() as u64;
            self.bytes += encoded.len() as u64;
            let wal = tm_api::stats::wal_counters();
            wal.appends.add(batch.len() as u64);
            wal.bytes.add(encoded.len() as u64);
            #[cfg(feature = "crashpoint")]
            self.pending_durable.extend(batch);
        }
        if self.written_len > self.synced_len {
            with_retry(&self.cfg, &mut self.io_retries, Site::Fsync, || {
                self.file.sync_data()
            })?;
            self.synced_len = self.written_len;
            self.durable_seq = self.last_written_seq;
            self.fsyncs += 1;
            tm_api::stats::wal_counters().fsyncs.inc();
            #[cfg(feature = "crashpoint")]
            self.durable_records.append(&mut self.pending_durable);
        }
        Ok(())
    }

    /// Open the next segment after a checkpoint sealed the current one.
    fn rotate(&mut self) -> Result<(), WalIoError> {
        let next = self.segment + 1;
        let path = self.cfg.dir.join(segment_name(next));
        let file = with_retry(&self.cfg, &mut self.io_retries, Site::Rotate, || {
            OpenOptions::new().create_new(true).write(true).open(&path)
        })?;
        self.file = file;
        self.segment = next;
        self.written_len = 0;
        self.synced_len = 0;
        Ok(())
    }

    /// One group-commit iteration: execute a pending crash request,
    /// otherwise drain + flush + fsync and serve any rotation request.
    /// Returns `false` once the pipeline has stopped (crash or exhausted
    /// retry budget); every later call is a no-op returning `false`.
    fn step_once(&mut self) -> bool {
        if self.stopped {
            return false;
        }
        let crash = lock_sync(&self.shared.crash_requested).take();
        if let Some(torn_seed) = crash {
            self.crash(torn_seed);
            self.stopped = true;
            return false;
        }
        let step = self.flush_round().and_then(|()| {
            if self.shared.rotate_requested.swap(false, Ordering::AcqRel) {
                self.rotate()
            } else {
                Ok(())
            }
        });
        match step {
            Ok(()) => true,
            Err(WalIoError::Crash { torn_seed }) => {
                self.crash(torn_seed);
                self.stopped = true;
                false
            }
            Err(WalIoError::Io(_)) => {
                // Retry budget exhausted: stop logging, let the
                // application keep running in volatile mode.
                FAILED.store(true, Ordering::Release);
                self.stopped = true;
                false
            }
        }
    }

    fn run(mut self) -> BgExit {
        loop {
            // Read shutdown *before* the step: the final flush then runs
            // after shutdown was set, so every record pushed before
            // finish() has been covered.
            let shutting_down = self.shared.shutdown.load(Ordering::Acquire);
            if !self.step_once() || shutting_down {
                return self.exit();
            }
            std::thread::sleep(self.cfg.flush_interval);
        }
    }
}

/// Final accounting for a finished session.
#[derive(Debug)]
pub struct WalFinish {
    /// An injected crash stopped the pipeline.
    pub crashed: bool,
    /// The retry budget was exhausted on a real or injected IO error.
    pub failed: bool,
    /// Last sequence number covered by a successful fsync.
    pub durable_seq: u64,
    /// Records written to segment files.
    pub appends: u64,
    /// Successful `sync_data` calls on segment files.
    pub fsyncs: u64,
    /// Encoded bytes written to segment files.
    pub bytes: u64,
    /// IO attempts that were retried.
    pub io_retries: u64,
    /// Checkpoints successfully written.
    pub checkpoints: u64,
    /// Every record the session fsynced, in seq order — the ground truth
    /// for the harness's durability-floor check.
    #[cfg(feature = "crashpoint")]
    pub durable_records: Vec<Record>,
}

/// A live WAL session. Dropping without [`WalHandle::finish`] aborts the
/// group-commit thread without a final flush — always call `finish`.
pub struct WalHandle {
    _session: MutexGuard<'static, ()>,
    shared: Arc<BgShared>,
    bg: Option<JoinHandle<BgExit>>,
    /// The group-commit state itself when `manual_bg` is set: the caller
    /// drives it through [`WalHandle::bg_step`] instead of an OS thread.
    manual: Option<Box<BgThread>>,
    cfg: WalConfig,
    checkpoints: u64,
    checkpoint_retries: u64,
}

/// Start a session logging into `cfg.dir` (created if missing). Only one
/// session exists at a time process-wide; a second `start` blocks until the
/// first handle finishes.
pub fn start(cfg: WalConfig) -> io::Result<WalHandle> {
    let session = lock_ignore_poison(&SESSION);
    std::fs::create_dir_all(&cfg.dir)?;
    let run = RUN_ID.fetch_add(1, Ordering::AcqRel) + 1;
    CRASHED.store(false, Ordering::Release);
    FAILED.store(false, Ordering::Release);
    NEXT_SEQ.store(1, Ordering::Release);
    lock_sync(&BUFFERS).clear();

    let first = cfg.dir.join(segment_name(1));
    let file = OpenOptions::new()
        .create_new(true)
        .write(true)
        .open(&first)?;
    let shared = Arc::new(BgShared {
        shutdown: tmsync::AtomicBool::new(false),
        rotate_requested: tmsync::AtomicBool::new(false),
        crash_requested: tmsync::Mutex::new(None),
    });
    let bg = BgThread {
        cfg: cfg.clone(),
        shared: Arc::clone(&shared),
        run,
        file,
        segment: 1,
        written_len: 0,
        synced_len: 0,
        stash: BTreeMap::new(),
        next_seq_to_write: 1,
        durable_seq: 0,
        last_written_seq: 0,
        appends: 0,
        fsyncs: 0,
        bytes: 0,
        io_retries: 0,
        stopped: false,
        #[cfg(feature = "crashpoint")]
        pending_durable: Vec::new(),
        #[cfg(feature = "crashpoint")]
        durable_records: Vec::new(),
    };
    let (bg_join, manual) = if cfg.manual_bg {
        (None, Some(Box::new(bg)))
    } else {
        let handle = std::thread::Builder::new()
            .name("wal-group-commit".into())
            .spawn(move || bg.run())?;
        (Some(handle), None)
    };
    ACTIVE.store(true, Ordering::Release);
    Ok(WalHandle {
        _session: session,
        shared,
        bg: bg_join,
        manual,
        cfg,
        checkpoints: 0,
        checkpoint_retries: 0,
    })
}

impl WalHandle {
    /// Write a checkpoint image captured at read clock `rv` and request a
    /// segment rotation behind it. Returns `Ok(false)` if the session has
    /// already crashed or failed (nothing written), `Ok(true)` on success.
    ///
    /// `entries` must be the `(addr, value)` image a Mode-V snapshot reader
    /// observed at `rv`: exactly the committed writes with `commit_ts < rv`.
    pub fn checkpoint(&mut self, rv: u64, entries: &[(u64, u64)]) -> io::Result<bool> {
        if CRASHED.load(Ordering::Acquire) || FAILED.load(Ordering::Acquire) {
            return Ok(false);
        }
        let bytes = crate::checkpoint::encode_checkpoint(rv, entries);
        let final_path = self.cfg.dir.join(checkpoint_name(rv));
        let tmp_path = final_path.with_extension("ck.tmp");
        let write_tmp = with_retry(
            &self.cfg,
            &mut self.checkpoint_retries,
            Site::CheckpointWrite,
            || {
                let mut f = File::create(&tmp_path)?;
                f.write_all(&bytes)?;
                f.sync_all()
            },
        );
        match write_tmp {
            Ok(()) => {}
            Err(WalIoError::Crash { torn_seed }) => {
                // The group-commit thread owns the segment file; hand the
                // crash over for it to execute.
                *lock_sync(&self.shared.crash_requested) = Some(torn_seed);
                let _ = std::fs::remove_file(&tmp_path);
                return Ok(false);
            }
            Err(WalIoError::Io(e)) => {
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        }
        std::fs::rename(&tmp_path, &final_path)?;
        if let Ok(dir) = File::open(&self.cfg.dir) {
            // Durable rename; best-effort where directory fsync is a no-op.
            let _ = dir.sync_all();
        }
        self.checkpoints += 1;
        tm_api::stats::wal_counters().checkpoints.inc();
        self.shared.rotate_requested.store(true, Ordering::Release);
        Ok(true)
    }

    /// Ask the group-commit thread to simulate a crash now, as if the plan
    /// had fired. Used by the harness for caller-side injection sites.
    #[cfg(feature = "crashpoint")]
    pub fn request_crash(&self, torn_seed: u64) {
        *lock_sync(&self.shared.crash_requested) = Some(torn_seed);
    }

    /// Manual-mode only: run one group-commit iteration (drain, flush,
    /// fsync, rotate, or execute a pending crash request). A no-op once
    /// the pipeline has stopped. Panics if the session was not started
    /// with [`WalConfig::manual_bg`].
    pub fn bg_step(&mut self) {
        self.manual
            .as_mut()
            .expect("bg_step requires WalConfig::manual_bg")
            .step_once();
    }

    /// Stop logging, flush and fsync everything pushed so far (unless the
    /// session crashed/failed earlier), and return the final accounting.
    pub fn finish(mut self) -> WalFinish {
        ACTIVE.store(false, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        let exit = if let Some(mut bg) = self.manual.take() {
            // Same contract as the threaded loop: one final step after
            // shutdown covers every record pushed before finish().
            bg.step_once();
            bg.exit()
        } else {
            self.bg
                .take()
                .expect("finish called once")
                .join()
                .expect("wal group-commit thread panicked")
        };
        WalFinish {
            crashed: CRASHED.load(Ordering::Acquire),
            failed: FAILED.load(Ordering::Acquire),
            durable_seq: exit.durable_seq,
            appends: exit.appends,
            fsyncs: exit.fsyncs,
            bytes: exit.bytes,
            io_retries: exit.io_retries + self.checkpoint_retries,
            checkpoints: self.checkpoints,
            #[cfg(feature = "crashpoint")]
            durable_records: exit.durable_records,
        }
    }
}

impl Drop for WalHandle {
    fn drop(&mut self) {
        ACTIVE.store(false, Ordering::Release);
        self.shared.shutdown.store(true, Ordering::Release);
        if let Some(bg) = self.bg.take() {
            let _ = bg.join();
        }
    }
}

/// List existing checkpoint paths in `dir`, newest (highest rv) first.
pub fn checkpoint_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    scan_dir(dir, "ckpt-", ".ck", true)
}

/// List existing segment paths in `dir`, oldest (lowest index) first.
pub fn segment_paths(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    scan_dir(dir, "log-", ".wal", false)
}

fn scan_dir(
    dir: &Path,
    prefix: &str,
    suffix: &str,
    newest_first: bool,
) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(middle) = name
            .strip_prefix(prefix)
            .and_then(|rest| rest.strip_suffix(suffix))
        else {
            continue;
        };
        let Ok(n) = middle.parse::<u64>() else {
            continue;
        };
        out.push((n, entry.path()));
    }
    out.sort_by_key(|&(n, _)| n);
    if newest_first {
        out.reverse();
    }
    Ok(out)
}
