//! # explore — exhaustive, replayable schedule exploration of the TM
//! protocol (feature `sim`).
//!
//! This module connects three layers:
//!
//! 1. the `sim` crate's controlled scheduler (DPOR enumeration, seeded
//!    sampling, token replay),
//! 2. the instrumented `tm_api::sync` facade that Multiverse, the EBR layer
//!    and the TM metadata structures are built on when the `sim` feature is
//!    on, and
//! 3. the PR 3 history checker ([`crate::checker`]): every explored
//!    schedule records its transaction history and is validated for opacity
//!    and serializability.
//!
//! Each *exploration scenario* is a small, fixed 2–3-thread program over a
//! fresh Multiverse runtime with the background thread disabled
//! (`bg_thread: false`) — background work runs as explicit
//! [`MultiverseRuntime::bg_step`] calls from a simulated thread, so mode
//! transitions, unversioning and EBR advancement are ordinary reorderable
//! steps of the schedule space. A violation in any schedule reports the
//! schedule's replay token; `harness explore --replay <token>` re-executes
//! exactly that interleaving.
//!
//! ## Scenario families
//!
//! | name          | protocol surface                                        |
//! |---------------|---------------------------------------------------------|
//! | `traverse`    | versioned readers traversing version lists against a    |
//! |               | concurrently committing updater (the strict `<`         |
//! |               | read-clock acceptance rule)                             |
//! | `supersede`   | clock-gated retirement of superseded version nodes,     |
//! |               | EBR grace periods, arena recycling                      |
//! | `mode-switch` | the announce-and-confirm handshake in `begin()` against |
//! |               | the mode machine driven via `bg_step`                   |
//! | `commit`      | unversioned encounter-time locking, validation, undo    |
//! |               | and the deferred clock under write-write conflict       |
//!
//! ## Structure scenarios
//!
//! The second family lifts exploration from raw `TVar`s to the
//! transactional data structures of `txstructs`: fixed 3-thread
//! insert/remove/contains workloads over one structure each, sized so the
//! explored schedules cross the structure's interesting internal
//! transitions (an (a,b)-tree root split, an AVL rotation, an external-BST
//! internal-node create/collapse, a hashmap bucket relink through a reused
//! node address).
//!
//! | name      | structure             | crossed transition                |
//! |-----------|-----------------------|-----------------------------------|
//! | `abtree`  | [`txstructs::TxAbTree`]  | root split of a full leaf      |
//! | `avl`     | [`txstructs::TxAvlTree`] | rebalancing rotation           |
//! | `extbst`  | [`txstructs::TxExtBst`]  | internal-node create/collapse  |
//! | `hashmap` | [`txstructs::TxHashMap`] | bucket relink over EBR-reused  |
//! |           |                          | node memory                    |
//!
//! Every structure operation is paired, *in the same transaction*, with an
//! update of a per-key presence variable, and cross-checked against it (the
//! PR 3/4 `StructAudit` discipline): a structure answer that disagrees with
//! the atomically-maintained presence word is reported as a violation of
//! that schedule, alongside the opacity/serializability checking of the
//! presence history itself.
//!
//! ## Broken-mode demos
//!
//! [`BrokenDemo`] re-enables three historical bugs behind hidden switches
//! (`multiverse::broken`, `txstructs::broken`): the `<=` traverse
//! acceptance, the disabled supersede clock gate (with loaded rather than
//! owned versioned read clocks), and raw (non-TM) node
//! initialisation in `alloc_node` — the PR 4 ghost-key bug, where a reused
//! node address keeps the previous node generation's version lists and a
//! multiversioned reader traverses into the old generation's keys.
//! Exhaustive 2-thread exploration must flag each — deterministically, in
//! every run — which is asserted by the `explore_scenarios` test and CI.
//! The supersede demo's teeth come from the arena's poisoned recycled
//! timestamps, so it must run in a build with debug assertions (the default
//! for `cargo test` / `cargo run`).

use crate::checker::{self, History, Report, Violation};
use crate::scenario::{bump, payload};
use multiverse::{ForcedMode, MultiverseConfig, MultiverseRuntime};
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex, MutexGuard};
use tm_api::abort::TxResult;
use tm_api::record::ThreadLog;
use tm_api::{TVar, TmHandle, TmRuntime, Transaction, TxKind};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxSet};

pub use sim::{ExploreConfig, ExploreStats, Strategy};

// ---------------------------------------------------------------------------
// Specs
// ---------------------------------------------------------------------------

named_enum! {
    /// An exploration scenario family (see the module docs): the four
    /// TM-protocol scenarios, then the four structure scenarios.
    pub enum ExploreScenario {
        /// Versioned read path vs a committing updater.
        Traverse => "traverse",
        /// Supersede-time retirement, EBR grace, arena recycling.
        Supersede => "supersede",
        /// Mode machine vs the begin() announce-and-confirm handshake.
        ModeSwitch => "mode-switch",
        /// Unversioned commit path under write-write conflict.
        Commit => "commit",
        /// (a,b)-tree workload crossing a root split.
        AbTree => "abtree",
        /// AVL workload crossing a rebalancing rotation.
        Avl => "avl",
        /// External-BST workload crossing internal-node create/collapse.
        ExtBst => "extbst",
        /// Hashmap workload relinking a bucket through reused node memory.
        HashMap => "hashmap",
    }
}

impl ExploreScenario {
    /// Whether this scenario drives a `txstructs` structure (and therefore
    /// needs the deterministic node-reuse stack).
    pub fn is_structure(self) -> bool {
        matches!(
            self,
            ExploreScenario::AbTree
                | ExploreScenario::Avl
                | ExploreScenario::ExtBst
                | ExploreScenario::HashMap
        )
    }

    /// Number of simulated threads the scenario's model runs (the main
    /// thread plus its spawned workers).
    pub fn threads(self) -> usize {
        3
    }
}

named_enum! {
    /// A reintroduced historical bug, enabled for one exploration.
    pub enum BrokenDemo {
        /// Accept versions stamped exactly at the read clock (`<=`).
        TraverseLe => "traverse-le",
        /// Retire superseded nodes without waiting for the clock gate, and
        /// load versioned read clocks instead of owning them.
        SupersedeGate => "supersede-gate",
        /// Initialise structure nodes with raw stores instead of TM writes,
        /// so a reused address leaks the previous node generation's version
        /// lists to multiversioned readers (ghost keys).
        StructRawInit => "struct-raw-init",
    }
}

impl BrokenDemo {
    /// The scenario this demo's bug is reachable from.
    pub fn scenario(self) -> ExploreScenario {
        match self {
            BrokenDemo::TraverseLe => ExploreScenario::Traverse,
            BrokenDemo::SupersedeGate => ExploreScenario::Supersede,
            // The hashmap scenario is the one whose prefix frees a node and
            // whose workers re-allocate it while a versioned reader
            // traverses its bucket.
            BrokenDemo::StructRawInit => ExploreScenario::HashMap,
        }
    }
}

/// A scenario the explorer can run: a fixed program executed once per
/// explored schedule ([`ExploreScenario`] here, the WAL scenarios in
/// `explore_wal`).
pub trait ExploreModel: Copy + Send + Sync + 'static {
    /// The `harness` features a repro command line needs.
    const FEATURES: &'static str;

    /// Stable scenario name.
    fn name(self) -> &'static str;

    /// Run the model once inside a controlled execution.
    fn run(self) -> ModelRun;
}

/// What one model run produced: the canonical recorded history (its digest
/// is the schedule's replay identity) and every violation raised against
/// it — checker findings, structure-audit mismatches, recovery verdicts.
pub struct ModelRun {
    pub(crate) history: History,
    pub(crate) violations: Vec<String>,
}

/// One exploration request.
#[derive(Debug, Clone)]
pub struct ExploreSpec<S = ExploreScenario> {
    /// The scenario to explore.
    pub scenario: S,
    /// Exhaustive DFS, seeded sampling, or single-token replay.
    pub strategy: Strategy,
    /// Maximum preemptive context switches per schedule.
    pub preemption_bound: u32,
    /// Reintroduced bug to enable for this exploration.
    pub broken: Option<BrokenDemo>,
    /// Stop at the first violating schedule (the CLI default).
    pub stop_on_violation: bool,
}

impl<S> ExploreSpec<S> {
    /// Exhaustive exploration of a scenario with the given preemption bound.
    pub fn exhaustive(scenario: S, preemption_bound: u32) -> Self {
        Self {
            scenario,
            strategy: Strategy::Exhaustive,
            preemption_bound,
            broken: None,
            stop_on_violation: true,
        }
    }
}

/// The first violating schedule of an exploration.
#[derive(Debug, Clone)]
pub struct ExploreViolation {
    /// 0-based index in exploration order.
    pub schedule_index: u64,
    /// Token that replays the schedule.
    pub token: String,
    /// Canonical digest of the schedule's recorded history (replaying the
    /// token must reproduce it).
    pub history_digest: u64,
    /// Human-readable violation lines (checker violations, or the panic /
    /// livelock that aborted the schedule).
    pub details: Vec<String>,
}

/// Aggregate result of one exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Broken demo enabled, if any.
    pub broken: Option<&'static str>,
    /// Scheduler statistics (schedule count, completeness, races).
    pub stats: ExploreStats,
    /// Schedules whose history passed the checker.
    pub clean_schedules: u64,
    /// Schedules with at least one violation (checker or abort).
    pub violating_schedules: u64,
    /// The first violation, with its replay token.
    pub first_violation: Option<ExploreViolation>,
}

impl ExploreReport {
    /// `true` if no explored schedule violated anything.
    pub fn is_clean(&self) -> bool {
        self.violating_schedules == 0
    }
}

// ---------------------------------------------------------------------------
// Canonical histories
// ---------------------------------------------------------------------------

/// Canonical digest of a recorded history: FNV-1a over every attempt's
/// thread-relative identity, operations and outcome, plus the initial and
/// final memory. Two runs of the same schedule must produce equal digests —
/// this is what "a violation replays from its token to the same history"
/// means operationally.
pub fn history_digest(h: &History) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x1000_0000_01b3;
    let mut d = OFFSET;
    let mut fold = |x: u64| {
        d ^= x;
        d = d.wrapping_mul(PRIME);
    };
    for v in h.initial.iter().chain(h.final_mem.iter()) {
        fold(*v);
    }
    for a in &h.attempts {
        fold(a.thread);
        fold(match a.outcome {
            checker::Outcome::Committed => 1,
            checker::Outcome::Aborted => 2,
        });
        for op in &a.ops {
            match *op {
                checker::Op::Read { var, value } => {
                    fold(3);
                    fold(var as u64);
                    fold(value);
                }
                checker::Op::Write { var, value } => {
                    fold(4);
                    fold(var as u64);
                    fold(value);
                }
            }
        }
    }
    d
}

/// Canonicalize raw thread logs: group by recording-thread label, order
/// groups by label (labels are handed out in registration order, which the
/// scheduler makes deterministic), and renumber them densely so histories
/// compare equal across processes.
pub(crate) fn canonicalize_logs(mut logs: Vec<ThreadLog>) -> Vec<ThreadLog> {
    logs.sort_by_key(|l| l.thread);
    let mut out: Vec<ThreadLog> = Vec::new();
    for log in logs {
        match out.last_mut() {
            Some(last) if last.thread == log.thread => last.events.extend(log.events),
            _ => out.push(log),
        }
    }
    for (i, log) in out.iter_mut().enumerate() {
        log.thread = i as u64;
    }
    out
}

// ---------------------------------------------------------------------------
// Scenario models
// ---------------------------------------------------------------------------

/// Base configuration for exploration runtimes: no background thread (its
/// work runs via `bg_step`), and the unversioning heuristic disabled (the
/// sample window never fills) so `bg_step` stays cheap and scenario-local.
pub(crate) fn sim_config() -> MultiverseConfig {
    MultiverseConfig {
        bg_thread: false,
        l_delta_samples: 1 << 20,
        min_unversion_threshold: u64::MAX,
        ..MultiverseConfig::small()
    }
}

/// Forced Mode Q with versioned read-only transactions from the first
/// attempt (k1 = 0): every read-only traversal walks version lists. The
/// `traverse`, `supersede` and structure scenarios run on it — in the last,
/// that is the path the raw-init demo corrupts.
fn versioned_mode_q_config() -> MultiverseConfig {
    MultiverseConfig {
        forced_mode: Some(ForcedMode::ModeQ),
        k1_versioned_after: 0,
        ..sim_config()
    }
}

/// RMW a variable under the checker's discipline: read, then write a value
/// with a bumped sequence number and an incremented payload.
pub(crate) fn rmw<T: Transaction>(tx: &mut T, var: &TVar<u64>) -> TxResult<()> {
    let v = tx.read_var(var)?;
    tx.write_var(var, bump(v, payload(v) + 1))
}

/// Read every variable in one read-only transaction (pre-versions the
/// addresses when the handle's attempt runs on the versioned path).
fn read_all<T: Transaction>(tx: &mut T, vars: &[TVar<u64>]) -> TxResult<()> {
    for v in vars {
        tx.read_var(v)?;
    }
    Ok(())
}

type ModelParts = (Arc<MultiverseRuntime>, Arc<Vec<TVar<u64>>>);

/// `traverse`: a versioned reader (k1 = 0, forced Mode Q) walks the version
/// lists of two variables while an updater commits a write to both in one
/// transaction. With the strict `<` rule every interleaving yields a
/// consistent snapshot; the `traverse-le` demo makes the torn old/new
/// mixture reachable.
fn model_traverse() -> ModelParts {
    let rt = MultiverseRuntime::start(versioned_mode_q_config());
    let vars = Arc::new(vec![TVar::new(0u64), TVar::new(0u64)]);
    // Pre-version both addresses from the main thread (deterministic
    // prefix: no other thread is running yet).
    rt.register()
        .txn(TxKind::ReadOnly, |tx| read_all(tx, &vars));
    let (rt_w, vars_w) = (Arc::clone(&rt), Arc::clone(&vars));
    let w = sim::thread::spawn(move || {
        let mut h = rt_w.register();
        let _ = h.txn_budget(TxKind::ReadWrite, 6, |tx| {
            rmw(tx, &vars_w[0])?;
            rmw(tx, &vars_w[1])
        });
    });
    let (rt_r, vars_r) = (Arc::clone(&rt), Arc::clone(&vars));
    let r = sim::thread::spawn(move || {
        let mut h = rt_r.register();
        let _ = h.txn_budget(TxKind::ReadOnly, 6, |tx| read_all(tx, &vars_r));
    });
    w.join().unwrap();
    r.join().unwrap();
    (rt, vars)
}

/// `supersede`: an updater supersedes a versioned variable twice, drops its
/// handle (orphaning its retirement bags) and drives `bg_step` so EBR can
/// advance and reclaim; a versioned reader traverses concurrently. With the
/// clock gate intact the superseded nodes stay queued until the clock
/// passes their commit stamp, and a reader that walks past that stamp owns
/// a read clock taken before the commit, so every schedule is clean. The
/// `supersede-gate` demo retires them immediately and loads the reader's
/// read clock, so schedules where the reader starts after reclamation, at
/// the same quiescent clock, walk into a recycled (poisoned) node.
fn model_supersede() -> ModelParts {
    let rt = MultiverseRuntime::start(versioned_mode_q_config());
    let vars = Arc::new(vec![TVar::new(0u64)]);
    rt.register()
        .txn(TxKind::ReadOnly, |tx| read_all(tx, &vars));
    let (rt_w, vars_w) = (Arc::clone(&rt), Arc::clone(&vars));
    let w = sim::thread::spawn(move || {
        {
            let mut h = rt_w.register();
            let _ = h.txn_budget(TxKind::ReadWrite, 6, |tx| rmw(tx, &vars_w[0]));
            let _ = h.txn_budget(TxKind::ReadWrite, 6, |tx| rmw(tx, &vars_w[0]));
            // Handle drop orphans the thread's retirement bags.
        }
        let mut ebr = rt_w.bg_ebr_handle();
        let mut samples = Vec::new();
        for _ in 0..4 {
            rt_w.bg_step(&mut ebr, &mut samples);
        }
    });
    let (rt_r, vars_r) = (Arc::clone(&rt), Arc::clone(&vars));
    let r = sim::thread::spawn(move || {
        let mut h = rt_r.register();
        let _ = h.txn_budget(TxKind::ReadOnly, 6, |tx| read_all(tx, &vars_r));
    });
    w.join().unwrap();
    r.join().unwrap();
    (rt, vars)
}

/// `mode-switch`: full dynamic modes. An updater commits while a versioned
/// reader runs and a `bg_step` drives the mode machine between the reader's
/// transactions — exploring the begin() announce-and-confirm handshake
/// against mode-counter advances.
fn model_mode_switch() -> ModelParts {
    let cfg = MultiverseConfig {
        forced_mode: None,
        k1_versioned_after: 0,
        k2_mode_u_after: 1,
        k3_versioned_mode_u_after: 1,
        s_small_txns: 1,
        ..sim_config()
    };
    let rt = MultiverseRuntime::start(cfg);
    let vars = Arc::new(vec![TVar::new(0u64), TVar::new(0u64)]);
    let (rt_w, vars_w) = (Arc::clone(&rt), Arc::clone(&vars));
    let w = sim::thread::spawn(move || {
        let mut h = rt_w.register();
        let _ = h.txn_budget(TxKind::ReadWrite, 6, |tx| {
            rmw(tx, &vars_w[0])?;
            rmw(tx, &vars_w[1])
        });
        let _ = h.txn_budget(TxKind::ReadWrite, 6, |tx| rmw(tx, &vars_w[0]));
    });
    let (rt_r, vars_r) = (Arc::clone(&rt), Arc::clone(&vars));
    let r = sim::thread::spawn(move || {
        {
            let mut h = rt_r.register();
            let _ = h.txn_budget(TxKind::ReadOnly, 6, |tx| read_all(tx, &vars_r));
        }
        let mut ebr = rt_r.bg_ebr_handle();
        let mut samples = Vec::new();
        rt_r.bg_step(&mut ebr, &mut samples);
        {
            let mut h = rt_r.register();
            let _ = h.txn_budget(TxKind::ReadOnly, 6, |tx| read_all(tx, &vars_r));
        }
    });
    w.join().unwrap();
    r.join().unwrap();
    (rt, vars)
}

/// `commit`: two unversioned updaters RMW the same two variables (same
/// acquisition order — encounter-time locking aborts on conflict rather
/// than blocking). Exercises stripe locks, validation, undo and the
/// deferred clock's abort-time increment.
fn model_commit() -> ModelParts {
    let cfg = MultiverseConfig {
        forced_mode: Some(ForcedMode::ModeQ),
        k1_versioned_after: 100,
        ..sim_config()
    };
    let rt = MultiverseRuntime::start(cfg);
    let vars = Arc::new(vec![TVar::new(0u64), TVar::new(0u64)]);
    let spawn_updater = |order: [usize; 2]| {
        let (rt_t, vars_t) = (Arc::clone(&rt), Arc::clone(&vars));
        sim::thread::spawn(move || {
            let mut h = rt_t.register();
            let _ = h.txn_budget(TxKind::ReadWrite, 8, |tx| {
                rmw(tx, &vars_t[order[0]])?;
                rmw(tx, &vars_t[order[1]])
            });
        })
    };
    let a = spawn_updater([0, 1]);
    let b = spawn_updater([0, 1]);
    a.join().unwrap();
    b.join().unwrap();
    (rt, vars)
}

// ---------------------------------------------------------------------------
// Structure scenario models
// ---------------------------------------------------------------------------

/// Attempt budget for structure-scenario transactions: with two workers and
/// encounter-time locking a conflicting attempt aborts and retries; the
/// budget is generous enough that give-ups are rare (and a give-up is a
/// no-op, so the presence cross-check stays sound either way).
const STRUCT_TX_BUDGET: u64 = 8;

/// One step of a structure scenario's script.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Insert the key and flip its presence payload to 1, in one transaction.
    Insert(u64),
    /// Remove the key and flip its presence payload to 0, in one transaction.
    Remove(u64),
    /// Read-only `contains`, cross-checked against the presence payload the
    /// same transaction observed.
    Contains(u64),
    /// Drop the script's handle (orphaning its retirement bags) and drive
    /// `bg_step` four times, so EBR hands the retired nodes' memory to the
    /// deterministic reuse stack.
    Flush,
}

/// Shared state of one structure scenario run: the structure, its fixed key
/// universe, one presence variable per key, and the audit log.
///
/// Every structure operation runs in one transaction together with a read
/// (and, when it mutates, a write) of the key's presence variable; the
/// operation's answer is cross-checked against the presence payload the
/// same transaction observed. Because the pair is atomic, *any* mismatch is
/// a structure-level consistency violation, not a benign race.
///
/// The audit log is a plain `std` mutex on purpose: pushes must not create
/// yield points (threads never contend — the simulated scheduler runs one
/// at a time), so auditing does not perturb the schedule space.
struct StructCtx<S> {
    name: &'static str,
    set: S,
    keys: Vec<u64>,
    presence: Arc<Vec<TVar<u64>>>,
    audit: std::sync::Mutex<Vec<String>>,
}

impl<S: TxSet> StructCtx<S> {
    fn pvar(&self, key: u64) -> &TVar<u64> {
        let i = self
            .keys
            .iter()
            .position(|&k| k == key)
            .unwrap_or_else(|| panic!("key {key} not in the scenario's key universe"));
        &self.presence[i]
    }

    fn note(&self, line: String) {
        self.audit
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(line);
    }

    /// Insert (`insert == true`) or remove `key` and flip its presence
    /// payload in the same transaction; the answer must match the payload
    /// read there.
    fn toggle<H: TmHandle>(&self, h: &mut H, key: u64, insert: bool) {
        let pv = self.pvar(key);
        let out = h.txn_budget(TxKind::ReadWrite, STRUCT_TX_BUDGET, |tx| {
            let did = if insert {
                self.set.insert_tx(tx, key, key)?
            } else {
                self.set.remove_tx(tx, key)?
            };
            let p = tx.read_var(pv)?;
            if did {
                tx.write_var(pv, bump(p, u64::from(insert)))?;
            }
            Ok((did, p))
        });
        if let Some((did, p)) = out.committed() {
            if did != (payload(p) == u64::from(!insert)) {
                self.note(format!(
                    "{}: {}({key}) returned {did} but the atomically-read \
                     presence payload was {}",
                    self.name,
                    if insert { "insert" } else { "remove" },
                    payload(p)
                ));
            }
        }
    }

    fn contains<H: TmHandle>(&self, h: &mut H, key: u64, label: &str) {
        let pv = self.pvar(key);
        let out = h.txn_budget(TxKind::ReadOnly, STRUCT_TX_BUDGET, |tx| {
            Ok((self.set.contains_tx(tx, key)?, tx.read_var(pv)?))
        });
        if let Some((c, p)) = out.committed() {
            if c != (payload(p) == 1) {
                self.note(format!(
                    "{}: {label}({key}) saw {c} but the atomically-read \
                     presence payload was {}",
                    self.name,
                    payload(p)
                ));
            }
        }
    }

    /// Run `script` on the calling (simulated) thread. The handle is
    /// registered at the first operation and dropped at a `Flush` and at the
    /// end of the script.
    fn run(&self, rt: &Arc<MultiverseRuntime>, script: &[Step]) {
        let mut handle = None;
        for &step in script {
            let key = match step {
                Step::Insert(key) | Step::Remove(key) | Step::Contains(key) => key,
                Step::Flush => {
                    handle = None;
                    let mut ebr = rt.bg_ebr_handle();
                    let mut samples = Vec::new();
                    for _ in 0..4 {
                        rt.bg_step(&mut ebr, &mut samples);
                    }
                    continue;
                }
            };
            let h = handle.get_or_insert_with(|| rt.register());
            match step {
                Step::Contains(_) => self.contains(h, key, "contains"),
                _ => self.toggle(h, key, matches!(step, Step::Insert(_))),
            }
        }
    }
}

/// The generic structure model: the main thread runs `prefix`, two workers
/// run their scripts concurrently, then the main thread audits every key of
/// the universe with a fresh read clock (a versioned reader on the forced
/// Mode Q path, so ghost keys left in stale version lists are visible).
fn model_struct<S: TxSet>(
    scen: ExploreScenario,
    set: S,
    keys: Vec<u64>,
    prefix: &[Step],
    workers: [&'static [Step]; 2],
) -> (ModelParts, Vec<String>) {
    let rt = MultiverseRuntime::start(versioned_mode_q_config());
    let presence = Arc::new(keys.iter().map(|_| TVar::new(0u64)).collect::<Vec<_>>());
    let ctx = Arc::new(StructCtx {
        name: scen.name(),
        set,
        keys,
        presence: Arc::clone(&presence),
        audit: std::sync::Mutex::new(Vec::new()),
    });
    ctx.run(&rt, prefix);
    let threads: Vec<_> = workers
        .into_iter()
        .map(|script| {
            let (rt, cx) = (Arc::clone(&rt), Arc::clone(&ctx));
            sim::thread::spawn(move || cx.run(&rt, script))
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    {
        let mut h = rt.register();
        for &key in &ctx.keys {
            ctx.contains(&mut h, key, "final-audit contains");
        }
    }
    let audit = std::mem::take(&mut *ctx.audit.lock().unwrap_or_else(|e| e.into_inner()));
    ((rt, presence), audit)
}

/// The structure scenarios as a table: constructor, key universe, prefix
/// script, and the two workers' scripts.
///
/// * `abtree`: the prefix fills the root leaf to capacity (`MAX_KEYS` =
///   16), so one worker's insert of the 17th key crosses the root split
///   while the other removes and looks up keys moved by that split.
/// * `avl`: ascending prefill (1, 2) leaves a right-leaning chain; one
///   worker's insert of 3 crosses the rebalancing rotation at the root
///   while the other removes the old root's key.
/// * `extbst`: the leaf-oriented BST creates an internal node on insert
///   into a non-empty subtree (15) and collapses one on remove (10); the
///   two workers cross both transitions concurrently.
/// * `hashmap`: two buckets; keys 1, 3 and 7 collide (the mixer sends them
///   to the same bucket), key 2 lands in the other. The prefix builds the
///   chain, *versioned-pre-reads* it (creating version-list entries for the
///   chain's words), removes key 1 and flushes EBR until the removed node's
///   memory reaches the deterministic reuse stack. One worker then inserts
///   the colliding key 7 — re-allocating exactly that node — while the
///   other runs versioned lookups through the relinked bucket. With
///   `TxNodeInit` intact the allocating transaction's TM writes supersede
///   the stale version lists and every schedule is clean; the
///   `struct-raw-init` demo initialises the node with raw stores, so
///   versioned readers traverse into the previous generation's key (a ghost
///   of removed key 1) — flagged by the presence audit.
fn run_struct_model(scen: ExploreScenario) -> (ModelParts, Vec<String>) {
    use Step::{Contains, Flush, Insert, Remove};
    const FULL: u64 = txstructs::abtree::MAX_KEYS as u64;
    match scen {
        ExploreScenario::AbTree => model_struct(
            scen,
            TxAbTree::new(),
            (0..=FULL).collect(),
            &(0..FULL).map(Insert).collect::<Vec<_>>(),
            [&[Insert(FULL), Contains(3)], &[Remove(3), Contains(FULL)]],
        ),
        ExploreScenario::Avl => model_struct(
            scen,
            TxAvlTree::new(),
            vec![1, 2, 3],
            &[Insert(1), Insert(2)],
            [&[Insert(3), Contains(1)], &[Remove(1), Contains(3)]],
        ),
        ExploreScenario::ExtBst => model_struct(
            scen,
            TxExtBst::new(),
            vec![10, 15, 20],
            &[Insert(10), Insert(20)],
            [&[Insert(15), Contains(20)], &[Remove(10), Contains(15)]],
        ),
        ExploreScenario::HashMap => model_struct(
            scen,
            TxHashMap::new(2),
            vec![1, 2, 3, 7],
            &[
                Insert(1),
                Insert(2),
                Insert(3),
                Contains(1),
                Contains(2),
                Contains(3),
                Remove(1),
                Flush,
            ],
            [&[Insert(7), Contains(3)], &[Contains(1), Contains(7)]],
        ),
        _ => unreachable!("{} is a protocol scenario", scen.name()),
    }
}

// ---------------------------------------------------------------------------
// Model driver
// ---------------------------------------------------------------------------

/// Run one scenario to completion inside a controlled execution: its
/// canonical recorded history, checked, plus the structure-audit findings.
fn run_model(scen: ExploreScenario) -> ModelRun {
    // Fresh, deterministic node-reuse state for every explored schedule.
    txstructs::node::sim_node_reuse_reset();
    txstructs::node::sim_node_reuse(scen.is_structure());
    let guard = tm_api::record::start();
    let ((rt, vars), audit) = match scen {
        ExploreScenario::Traverse => (model_traverse(), Vec::new()),
        ExploreScenario::Supersede => (model_supersede(), Vec::new()),
        ExploreScenario::ModeSwitch => (model_mode_switch(), Vec::new()),
        ExploreScenario::Commit => (model_commit(), Vec::new()),
        _ => run_struct_model(scen),
    };
    tm_api::record::flush_thread();
    let logs = canonicalize_logs(guard.finish());
    let final_mem: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();
    let addrs: Vec<usize> = vars.iter().map(|v| v.word().addr()).collect();
    let initial = vec![0u64; vars.len()];
    rt.shutdown();
    let history = checker::from_record::history_from_logs(
        "multiverse",
        scen.name(),
        logs,
        &addrs,
        initial,
        final_mem,
    );
    let mut violations = violation_lines(&checker::check_history(&history));
    violations.extend(
        audit
            .into_iter()
            .map(|detail| Violation::StructAudit { detail }.to_string()),
    );
    ModelRun {
        history,
        violations,
    }
}

impl ExploreModel for ExploreScenario {
    const FEATURES: &'static str = "sim";

    fn name(self) -> &'static str {
        ExploreScenario::name(self)
    }

    fn run(self) -> ModelRun {
        run_model(self)
    }
}

// ---------------------------------------------------------------------------
// The exploration driver
// ---------------------------------------------------------------------------

/// Explorations are process-exclusive: the broken-demo switches, the
/// recording session, and the WAL session and crashpoint plan of the WAL
/// scenarios are global, so concurrent explorations (parallel tests) must
/// serialize.
static EXPLORE_LOCK: Mutex<()> = Mutex::new(());

/// Clears the broken-demo switches on scope exit, panics included.
struct BrokenGuard {
    _lock: MutexGuard<'static, ()>,
}

impl BrokenGuard {
    fn set(broken: Option<BrokenDemo>) -> Self {
        let lock = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        multiverse::broken::set_traverse_le(broken == Some(BrokenDemo::TraverseLe));
        multiverse::broken::set_supersede_no_gate(broken == Some(BrokenDemo::SupersedeGate));
        txstructs::broken::set_raw_init(broken == Some(BrokenDemo::StructRawInit));
        BrokenGuard { _lock: lock }
    }
}

impl Drop for BrokenGuard {
    fn drop(&mut self) {
        multiverse::broken::set_traverse_le(false);
        multiverse::broken::set_supersede_no_gate(false);
        txstructs::broken::set_raw_init(false);
        txstructs::node::sim_node_reuse(false);
    }
}

/// Format a checker report's violations for the exploration output.
pub(crate) fn violation_lines(report: &Report) -> Vec<String> {
    report.violations.iter().map(|v| v.to_string()).collect()
}

/// Restores the default panic hook on scope exit.
struct PanicHookGuard;

impl Drop for PanicHookGuard {
    fn drop(&mut self) {
        let _ = std::panic::take_hook();
    }
}

/// Silence panic output from simulated threads for the guard's lifetime.
///
/// Model panics are an *expected* outcome on broken-demo schedules (the
/// debug poison assertions are the detection mechanism), and a per-schedule
/// backtrace for each would drown the report — which still carries the
/// message through `Abort::Panic`. Panics on non-sim threads (the explorer
/// itself, the test harness) keep the default output.
fn silence_sim_panics() -> PanicHookGuard {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let on_sim_thread = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("sim-"));
        if !on_sim_thread {
            prev(info);
        }
    }));
    PanicHookGuard
}

/// Run one exploration: every explored schedule runs the scenario's model,
/// and a schedule is violating if its run raised any violation or aborted
/// (panic, livelock, deadlock, stale token).
pub fn run_explore<S: ExploreModel>(spec: &ExploreSpec<S>) -> ExploreReport {
    let _guard = BrokenGuard::set(spec.broken);
    let _hook = silence_sim_panics();
    let cfg = ExploreConfig {
        preemption_bound: spec.preemption_bound,
        ..ExploreConfig::default()
    };
    let scen = spec.scenario;
    let stop = spec.stop_on_violation;
    let mut clean = 0u64;
    let mut violating = 0u64;
    let mut first: Option<ExploreViolation> = None;
    let stats = sim::explore(
        &cfg,
        spec.strategy.clone(),
        move || scen.run(),
        |outcome| {
            let (details, digest) = match outcome.result {
                Ok(run) => (run.violations, history_digest(&run.history)),
                Err(abort) => (vec![format!("schedule aborted: {abort:?}")], 0),
            };
            if details.is_empty() {
                clean += 1;
                return ControlFlow::Continue(());
            }
            violating += 1;
            first.get_or_insert(ExploreViolation {
                schedule_index: outcome.index,
                token: outcome.token,
                history_digest: digest,
                details,
            });
            if stop {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        },
    );
    ExploreReport {
        scenario: scen.name(),
        broken: spec.broken.map(BrokenDemo::name),
        stats,
        clean_schedules: clean,
        violating_schedules: violating,
        first_violation: first,
    }
}

/// The stable command line that reproduces a violation found by
/// [`run_explore`]: every violation prints one of these and the run exits
/// nonzero.
pub fn repro_command<S: ExploreModel>(spec: &ExploreSpec<S>, token: &str) -> String {
    let mut cmd = format!(
        "cargo run -p harness --features {} --bin harness -- explore --scenario {}",
        S::FEATURES,
        spec.scenario.name()
    );
    if let Some(b) = spec.broken {
        cmd.push_str(&format!(" --broken {}", b.name()));
    }
    cmd.push_str(&format!(" --replay {token}"));
    cmd
}
