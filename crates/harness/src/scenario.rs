//! # scenario — deterministic workload generator for the history checker
//! (feature `record`).
//!
//! Each scenario family drives a TM through a seeded, reproducible mix of
//! transactions while `tm_api::record` captures the history, then hands the
//! history to [`crate::checker`]. The same `(scenario, seed)` pair produces
//! the same per-thread operation sequences on every backend, so one command
//! compares all TMs on identical schedules (`harness check --backend all`).
//!
//! ## The checker contract
//!
//! Every generated write follows the checker's RMW discipline (module docs
//! of [`crate::checker`]):
//!
//! * a transaction reads an address before writing it, and
//! * the written value embeds a per-address **sequence number in the upper
//!   32 bits** ([`bump`]), so no value ever repeats on one address and the
//!   checker can reconstruct version chains by value. The lower 32 bits are
//!   the scenario's payload (a counter, a bank balance, ...), free to go up
//!   or down.
//!
//! ## Families
//!
//! | name          | shape                                                    |
//! |---------------|----------------------------------------------------------|
//! | `counter`     | few hot counters, heavy RMW contention + snapshot reads  |
//! | `zipf-mix`    | Zipfian (θ=0.9) multi-var updates and reads              |
//! | `read-mostly` | 90% window scans, 10% single-var updates                 |
//! | `long-scan`   | bank transfers + full-array read-only scans (the paper's |
//! |               | long-range-query shape; exercises the versioned path)    |
//! | `hot-write`   | every transaction RMWs 2–3 vars of a tiny hot set        |
//! | `struct-churn`| all five paper structures (`TxList`, `TxAbTree`,         |
//! |               | `TxAvlTree`, `TxExtBst`, `TxHashMap`) under audit        |
//! |               | (see below): insert/remove/contains/range churn          |
//!
//! ## `struct-churn`: checking structure-level histories
//!
//! The transactional structures allocate and retire nodes, so their internal
//! reads and writes live at unstable addresses with repeating (pointer)
//! values — outside the checker's by-value chain model. The scenario brings
//! them in scope with **presence audit variables**: each key of each
//! structure owns a tracked [`TVar`] whose payload is 1 iff the key is in
//! the structure, updated *in the same transaction* as the structure
//! operation (via the `*_tx` composable ops). Every committed operation's
//! result is then cross-checked against the presence payload it observed —
//! a disagreement means the structure traversal and the audit read did not
//! see one snapshot and is reported as [`Violation::StructAudit`] — while
//! the presence variables themselves follow the RMW discipline, so the
//! ordinary opacity/serializability checks run over histories whose
//! attempts *are* structure operations (list/tree traversals on the
//! versioned path, node alloc/retire through the arena, range scans against
//! concurrent toggles).

use crate::checker::{self, Report, Violation};
use crate::registry::{with_backend, BackendVisitor, RuntimeScale, TmKind};
use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tm_api::abort::TxResult;
use tm_api::{TVar, TmHandle, TmRuntime, Transaction, TxKind};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxList, TxSet};

named_enum! {
    /// The scenario families.
    pub enum ScenarioKind {
        /// Contended counters: increments + consistent multi-counter reads.
        Counter => "counter",
        /// Zipfian mixed reads/updates over a medium array.
        ZipfMix => "zipf-mix",
        /// Read-dominated window scans with occasional updates.
        ReadMostly => "read-mostly",
        /// Long full-array scans against bank-style transfers.
        LongScan => "long-scan",
        /// Write-heavy contention on a tiny hot set.
        HotWrite => "hot-write",
        /// All five paper structures (`TxList`, `TxAbTree`, `TxAvlTree`,
        /// `TxExtBst`, `TxHashMap`) under insert/remove/contains/range churn
        /// with in-transaction presence auditing (see the module docs).
        StructChurn => "struct-churn",
    }
}

/// A fully specified scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// The family.
    pub kind: ScenarioKind,
    /// Number of transactional variables.
    pub vars: usize,
    /// Worker threads.
    pub threads: usize,
    /// Operations (transactions) per thread.
    pub ops_per_thread: usize,
    /// Seed for the per-thread schedules.
    pub seed: u64,
}

impl ScenarioSpec {
    /// CI-friendly sizing: seconds per backend across all families.
    pub fn smoke(kind: ScenarioKind, seed: u64) -> Self {
        let (vars, threads, ops) = match kind {
            ScenarioKind::Counter => (4, 3, 400),
            ScenarioKind::ZipfMix => (48, 3, 300),
            ScenarioKind::ReadMostly => (48, 3, 300),
            ScenarioKind::LongScan => (64, 3, 120),
            ScenarioKind::HotWrite => (6, 3, 300),
            // vars = presence variables: one fifth per structure (must stay
            // a multiple of 10 — even key counts; see `initial_value`).
            ScenarioKind::StructChurn => (40, 3, 250),
        };
        Self {
            kind,
            vars,
            threads,
            ops_per_thread: ops,
            seed,
        }
    }

    /// Full sizing for local runs and the gated CI sweep.
    pub fn full(kind: ScenarioKind, seed: u64) -> Self {
        let (vars, threads, ops) = match kind {
            ScenarioKind::Counter => (4, 4, 1200),
            ScenarioKind::ZipfMix => (96, 4, 900),
            ScenarioKind::ReadMostly => (96, 4, 900),
            ScenarioKind::LongScan => (128, 4, 350),
            ScenarioKind::HotWrite => (8, 4, 900),
            ScenarioKind::StructChurn => (80, 4, 600),
        };
        Self {
            kind,
            vars,
            threads,
            ops_per_thread: ops,
            seed,
        }
    }

    fn label(&self) -> String {
        format!("{}(seed={})", self.kind.name(), self.seed)
    }
}

// ---------------------------------------------------------------------------
// Value encoding (see module docs)
// ---------------------------------------------------------------------------

/// Payload (lower 32 bits) of a variable's value.
#[inline]
pub fn payload(value: u64) -> u64 {
    value & 0xffff_ffff
}

/// Next value for an address currently holding `old`: sequence number
/// incremented, payload replaced. Guarantees the written value differs from
/// every earlier value of the address.
#[inline]
pub fn bump(old: u64, new_payload: u64) -> u64 {
    debug_assert!(new_payload <= 0xffff_ffff, "payload overflow");
    ((old >> 32) + 1) << 32 | new_payload
}

/// Initial value of variable `i`: sequence 0, scenario-defined payload.
fn initial_value(kind: ScenarioKind, i: usize) -> u64 {
    match kind {
        ScenarioKind::Counter | ScenarioKind::ZipfMix | ScenarioKind::HotWrite => 0,
        // Bank balances / scan payloads start high enough that transfers
        // rarely bottom out.
        ScenarioKind::ReadMostly | ScenarioKind::LongScan => 1_000,
        // Presence payload of the prefilled structures: every even key is
        // inserted. The var count is a multiple of 10 (five structures with
        // even per-structure key counts), so `i % 2` equals the key index's
        // parity in every structure's region.
        ScenarioKind::StructChurn => u64::from(i.is_multiple_of(2)),
    }
}

// ---------------------------------------------------------------------------
// The per-thread schedules
// ---------------------------------------------------------------------------

/// The seeded RNG of worker `thread`: every scenario family (and the crash
/// sweep) derives its per-thread op stream from this.
pub(crate) fn thread_rng_for(seed: u64, thread: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Cross-thread coordination for scenarios with dedicated updaters: the
/// updaters keep running their seeded op stream until every scanner thread
/// has finished, so long transactions race against live writers for their
/// whole duration (the shape the `==` read-clock bug needs to surface).
struct ScenarioCtl {
    stop: AtomicBool,
    scanners_left: AtomicUsize,
    transfers_done: AtomicUsize,
    /// Live updater threads. Decremented on updater exit — including panic
    /// unwinds, via a drop guard — so scanners waiting for transfer progress
    /// can bail out instead of spinning forever when a (deliberately broken)
    /// build kills a writer mid-run.
    updaters_alive: AtomicUsize,
    /// Structure/audit contradictions observed in *committed* transactions
    /// (`struct-churn` only) — reported as [`Violation::StructAudit`]. Off
    /// the transaction path: pushed only after a mismatching commit.
    audit: Mutex<Vec<String>>,
}

impl ScenarioCtl {
    fn push_audit(&self, detail: String) {
        self.audit.lock().unwrap().push(detail);
    }
}

/// Decrements `updaters_alive` when an updater leaves `run_worker`, whether
/// normally or by unwinding out of a panicking transaction.
struct UpdaterGuard<'a>(&'a ScenarioCtl);

impl Drop for UpdaterGuard<'_> {
    fn drop(&mut self) {
        self.0.updaters_alive.fetch_sub(1, Ordering::AcqRel);
    }
}

/// In [`ScenarioKind::LongScan`], threads below this index are dedicated
/// updaters.
const LONG_SCAN_UPDATERS: usize = 2;

/// A scanner does not start scan `k` until `REQ_PER_SCAN * k` transfers have
/// committed, so scans never outrun cold-starting updaters.
const LONG_SCAN_TRANSFER_REQ_PER_SCAN: usize = 8;

/// Hard cap on transfers per updater (bounds the history the checker must
/// close over even if the stop flag is slow to arrive).
const LONG_SCAN_UPDATER_CAP: usize = 40;

/// Spin iterations an updater burns *inside* each transfer transaction,
/// after its writes and before commit. This throttles updater throughput by
/// slowing the transaction itself, which (a) spreads commits continuously
/// across the scan window instead of bursting between scans — a paced-burst
/// updater commits everything while the scanner sits in its progress wait,
/// leaving every scan to run against a quiescent array — and (b) widens the
/// published-but-unresolved (TBD) window that the `==` read-clock bug needs
/// to produce a torn snapshot. Without this, the checker demonstrably could
/// not catch the reintroduced PR 1 bug.
const LONG_SCAN_IN_TXN_SPIN: usize = 600;

/// Number of structures [`ScenarioKind::StructChurn`] drives (one region of
/// presence variables each).
const STRUCT_COUNT: usize = 5;

/// Display names of the driven structures, in region order.
const STRUCT_NAMES: [&str; STRUCT_COUNT] = ["list", "abtree", "avl", "extbst", "hashmap"];

/// Bucket count of the scenario hashmap: small enough that bucket lists
/// collide and churn like the other structures' node chains.
const STRUCT_CHURN_BUCKETS: usize = 8;

/// One `struct-churn` structure operation.
#[derive(Clone, Copy)]
enum StructOp {
    Insert(u64),
    Remove(u64),
    Contains(u64),
    Range(u64, u64),
}

impl StructOp {
    /// Run this operation on `set` within `tx`. The answer is a count: the
    /// range query's, or 1/0 for the point operations' `true`/`false`.
    fn apply<S: TxSet, X: Transaction>(self, set: &S, tx: &mut X) -> TxResult<usize> {
        Ok(match self {
            StructOp::Insert(key) => usize::from(set.insert_tx(tx, key, key)?),
            StructOp::Remove(key) => usize::from(set.remove_tx(tx, key)?),
            StructOp::Contains(key) => usize::from(set.contains_tx(tx, key)?),
            StructOp::Range(lo, hi) => set.range_query_tx(tx, lo, hi)?,
        })
    }
}

/// The data structures (and key mapping) driven by [`ScenarioKind::StructChurn`]:
/// all five of the paper's transactional structures.
///
/// Keys `0..keys` map to structure keys `1..=keys` (avoiding the list
/// sentinel's 0). The presence variable of structure `s`'s key `k` is
/// `vars[s * keys + k]`, with regions ordered as [`STRUCT_NAMES`].
struct StructChurnCtx {
    list: TxList,
    tree: TxAbTree,
    avl: TxAvlTree,
    bst: TxExtBst,
    map: TxHashMap,
    keys: usize,
}

impl StructChurnCtx {
    fn new(vars: usize) -> Self {
        assert!(
            vars.is_multiple_of(2 * STRUCT_COUNT),
            "struct-churn needs a multiple-of-10 var count (five even key regions)"
        );
        Self {
            list: TxList::new(),
            tree: TxAbTree::new(),
            avl: TxAvlTree::new(),
            bst: TxExtBst::new(),
            map: TxHashMap::new(STRUCT_CHURN_BUCKETS),
            keys: vars / STRUCT_COUNT,
        }
    }

    fn key_of(k: usize) -> u64 {
        k as u64 + 1
    }

    /// Run `op` on structure `s` within transaction `tx`.
    fn op_tx<X: Transaction>(&self, s: usize, tx: &mut X, op: StructOp) -> TxResult<usize> {
        match s {
            0 => op.apply(&self.list, tx),
            1 => op.apply(&self.tree, tx),
            2 => op.apply(&self.avl, tx),
            3 => op.apply(&self.bst, tx),
            _ => op.apply(&self.map, tx),
        }
    }

    /// Insert every even key into every structure (matching the presence
    /// variables' initial payloads). Runs before the recording session.
    fn prefill<H: TmHandle>(&self, h: &mut H) {
        for s in 0..STRUCT_COUNT {
            for k in (0..self.keys).step_by(2) {
                let key = Self::key_of(k);
                let op = StructOp::Insert(key);
                assert_eq!(h.txn(TxKind::ReadWrite, |tx| self.op_tx(s, tx, op)), 1);
            }
        }
    }

    /// Post-run sweep: every structure's membership must match the presence
    /// payloads (runs after the recording session, before shutdown).
    fn final_audit<H: TmHandle>(&self, h: &mut H, vars: &[TVar<u64>], audit: &mut Vec<String>) {
        for s in 0..STRUCT_COUNT {
            for k in 0..self.keys {
                let key = Self::key_of(k);
                let op = StructOp::Contains(key);
                let present = h.txn(TxKind::ReadOnly, |tx| self.op_tx(s, tx, op)) == 1;
                let tracked = payload(vars[s * self.keys + k].load_direct()) == 1;
                if present != tracked {
                    audit.push(format!(
                        "final state: {} key {key} present={present} but \
                         presence var says {tracked}",
                        STRUCT_NAMES[s]
                    ));
                }
            }
        }
    }
}

/// One `struct-churn` worker: seeded insert/remove/contains/range operations
/// across all five structures, each paired in-transaction with its presence
/// variables; committed results are cross-checked against the presence
/// payloads observed in the same snapshot.
fn run_struct_churn_worker<R: TmRuntime>(
    rt: &Arc<R>,
    vars: &[TVar<u64>],
    spec: &ScenarioSpec,
    ctl: &ScenarioCtl,
    sc: &StructChurnCtx,
    thread: usize,
) {
    let mut h = rt.register();
    let mut rng = thread_rng_for(spec.seed, thread);
    let kk = sc.keys;
    for op in 0..spec.ops_per_thread {
        let s = rng.gen_range(0..STRUCT_COUNT);
        let structure = STRUCT_NAMES[s];
        let base = s * kk;
        let k = rng.gen_range(0..kk);
        let key = StructChurnCtx::key_of(k);
        match rng.gen_range(0..4u32) {
            // Toggle: insert or remove, updating the presence var in the
            // same transaction (RMW: the var is read before it is written).
            0 | 1 => {
                let insert = rng.gen_bool(0.5);
                let var = &vars[base + k];
                let toggle = if insert {
                    StructOp::Insert(key)
                } else {
                    StructOp::Remove(key)
                };
                let (changed, before) = h.txn(TxKind::ReadWrite, |tx| {
                    let changed = sc.op_tx(s, tx, toggle)? == 1;
                    let p = tx.read_var(var)?;
                    if changed {
                        tx.write_var(var, bump(p, u64::from(insert)))?;
                    }
                    Ok((changed, payload(p)))
                });
                // The key was present before the op iff a remove succeeded
                // or an insert found it; the presence payload read in the
                // same transaction must agree.
                let present_before = if insert { !changed } else { changed };
                if (before == 1) != present_before {
                    ctl.push_audit(format!(
                        "thread {thread} op {op}: {structure} {} of key {key} \
                         (changed={changed}) saw presence payload {before}",
                        if insert { "insert" } else { "remove" },
                    ));
                }
            }
            // Contains vs. the key's presence var, one snapshot.
            2 => {
                let var = &vars[base + k];
                let (found, p) = h.txn(TxKind::ReadOnly, |tx| {
                    let found = sc.op_tx(s, tx, StructOp::Contains(key))? == 1;
                    Ok((found, payload(tx.read_var(var)?)))
                });
                if found != (p == 1) {
                    ctl.push_audit(format!(
                        "thread {thread} op {op}: {structure} contains({key})={found} \
                         but presence payload is {p}"
                    ));
                }
            }
            // Range query vs. the presence vars of the whole window, one
            // snapshot — the structure-level analogue of `long-scan`.
            _ => {
                let lo = rng.gen_range(0..kk);
                let hi = rng.gen_range(lo..kk);
                let (got, expect) = h.txn(TxKind::ReadOnly, |tx| {
                    let range =
                        StructOp::Range(StructChurnCtx::key_of(lo), StructChurnCtx::key_of(hi));
                    let got = sc.op_tx(s, tx, range)?;
                    let mut expect = 0usize;
                    for j in lo..=hi {
                        if payload(tx.read_var(&vars[base + j])?) == 1 {
                            expect += 1;
                        }
                    }
                    Ok((got, expect))
                });
                if got != expect {
                    ctl.push_audit(format!(
                        "thread {thread} op {op}: {structure} range [{lo},{hi}] counted {got} \
                         keys but the presence vars say {expect}"
                    ));
                }
            }
        }
    }
    tm_api::record::flush_thread();
}

fn run_worker<R: TmRuntime>(
    rt: &Arc<R>,
    vars: &[TVar<u64>],
    spec: &ScenarioSpec,
    ctl: &ScenarioCtl,
    structs: &Option<StructChurnCtx>,
    thread: usize,
) {
    if spec.kind == ScenarioKind::StructChurn {
        let sc = structs
            .as_ref()
            .expect("struct-churn context built in visit");
        run_struct_churn_worker(rt, vars, spec, ctl, sc, thread);
        return;
    }
    let mut h = rt.register();
    let mut rng = thread_rng_for(spec.seed, thread);
    let zipf = Zipf::new(vars.len() as u64, 0.9);
    let n = vars.len();
    if spec.kind == ScenarioKind::LongScan {
        if thread < LONG_SCAN_UPDATERS {
            // Dedicated updater: bank-style transfers until the scanners
            // are done, paced to scanner progress so writers stay live for
            // the whole scan phase.
            let _guard = UpdaterGuard(ctl);
            let cap = spec.ops_per_thread * LONG_SCAN_UPDATER_CAP;
            let mut done = 0usize;
            while !ctl.stop.load(Ordering::Relaxed) && done < cap {
                let from = rng.gen_range(0..n);
                let mut to = rng.gen_range(0..n);
                if to == from {
                    to = (from + 1) % n;
                }
                let amt = rng.gen_range(1..8u64);
                transfer(&mut h, &vars[from], &vars[to], amt, LONG_SCAN_IN_TXN_SPIN);
                ctl.transfers_done.fetch_add(1, Ordering::Relaxed);
                done += 1;
            }
        } else {
            // Scanner: full-array read-only transactions — the paper's
            // long-range-query shape, pushed onto the versioned path.
            for k in 0..spec.ops_per_thread {
                let req = LONG_SCAN_TRANSFER_REQ_PER_SCAN * k;
                while ctl.transfers_done.load(Ordering::Relaxed) < req {
                    if ctl.updaters_alive.load(Ordering::Acquire) == 0 {
                        // Every updater is gone (finished its cap or
                        // panicked); waiting for more transfers would hang.
                        break;
                    }
                    std::hint::spin_loop();
                }
                scan(&mut h, vars, 0, n);
            }
            if ctl.scanners_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                ctl.stop.store(true, Ordering::Release);
            }
        }
        tm_api::record::flush_thread();
        return;
    }
    for _ in 0..spec.ops_per_thread {
        match spec.kind {
            ScenarioKind::Counter => {
                if rng.gen_range(0..10) < 7 {
                    let i = rng.gen_range(0..n);
                    increment(&mut h, &vars[i], 1);
                } else {
                    scan(&mut h, vars, 0, n);
                }
            }
            ScenarioKind::ZipfMix => {
                if rng.gen_bool(0.5) {
                    let a = zipf.sample(&mut rng) as usize;
                    let mut b = zipf.sample(&mut rng) as usize;
                    if b == a {
                        b = (a + 1) % n;
                    }
                    increment_pair(&mut h, &vars[a.min(b)], &vars[a.max(b)]);
                } else {
                    let reads: Vec<usize> =
                        (0..6).map(|_| zipf.sample(&mut rng) as usize).collect();
                    read_some(&mut h, vars, &reads);
                }
            }
            ScenarioKind::ReadMostly => {
                if rng.gen_range(0..10) == 0 {
                    let i = rng.gen_range(0..n);
                    increment(&mut h, &vars[i], rng.gen_range(1..4));
                } else {
                    let start = rng.gen_range(0..n);
                    scan(&mut h, vars, start, 16.min(n));
                }
            }
            ScenarioKind::LongScan | ScenarioKind::StructChurn => unreachable!("handled above"),
            ScenarioKind::HotWrite => {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                if b == a {
                    b = (a + 1) % n;
                }
                increment_pair(&mut h, &vars[a.min(b)], &vars[a.max(b)]);
            }
        }
    }
    // Hand this worker's events to the collector before the closure returns:
    // scoped threads unblock the scope when the closure ends, so the
    // TLS-drop flush alone could race past the session's `finish()`.
    tm_api::record::flush_thread();
}

/// RMW-increment one variable's payload by `delta`.
fn increment<H: TmHandle>(h: &mut H, var: &TVar<u64>, delta: u64) {
    h.txn(TxKind::ReadWrite, |tx| {
        let v = tx.read_var(var)?;
        tx.write_var(var, bump(v, payload(v) + delta))
    });
}

/// RMW-increment two variables in one transaction (in address order, which
/// is fixed by the caller passing `a < b` positions).
fn increment_pair<H: TmHandle>(h: &mut H, a: &TVar<u64>, b: &TVar<u64>) {
    h.txn(TxKind::ReadWrite, |tx| {
        let va = tx.read_var(a)?;
        let vb = tx.read_var(b)?;
        tx.write_var(a, bump(va, payload(va) + 1))?;
        tx.write_var(b, bump(vb, payload(vb) + 1))
    });
}

/// Bank-style transfer preserving the payload sum. Skips the writes (but
/// keeps the reads) when the source balance is too low, so every write stays
/// a paired RMW. `in_txn_spin` iterations are burned between the writes and
/// the commit (see [`LONG_SCAN_IN_TXN_SPIN`]).
fn transfer<H: TmHandle>(
    h: &mut H,
    from: &TVar<u64>,
    to: &TVar<u64>,
    amt: u64,
    in_txn_spin: usize,
) {
    h.txn(TxKind::ReadWrite, |tx| {
        let f = tx.read_var(from)?;
        let t = tx.read_var(to)?;
        if payload(f) >= amt {
            tx.write_var(from, bump(f, payload(f) - amt))?;
            tx.write_var(to, bump(t, payload(t) + amt))?;
        }
        for _ in 0..in_txn_spin {
            std::hint::spin_loop();
        }
        Ok(())
    });
}

/// Read-only wrap-around window scan of `len` variables starting at `start`.
fn scan<H: TmHandle>(h: &mut H, vars: &[TVar<u64>], start: usize, len: usize) {
    h.txn(TxKind::ReadOnly, |tx| {
        let mut acc = 0u64;
        for k in 0..len {
            let v = tx.read_var(&vars[(start + k) % vars.len()])?;
            acc = acc.wrapping_add(payload(v));
        }
        Ok(acc)
    });
}

/// Read-only read of an explicit set of variables.
fn read_some<H: TmHandle>(h: &mut H, vars: &[TVar<u64>], idxs: &[usize]) {
    h.txn(TxKind::ReadOnly, |tx| {
        let mut acc = 0u64;
        for &i in idxs {
            acc = acc.wrapping_add(tx.read_var(&vars[i])?);
        }
        Ok(acc)
    });
}

// ---------------------------------------------------------------------------
// Driving a backend through a scenario
// ---------------------------------------------------------------------------

struct ScenarioVisitor<'a> {
    spec: &'a ScenarioSpec,
    backend: &'static str,
}

impl BackendVisitor for ScenarioVisitor<'_> {
    type Out = Report;

    fn visit<R: TmRuntime>(self, rt: Arc<R>) -> Report {
        let spec = self.spec;
        let vars: Vec<TVar<u64>> = (0..spec.vars)
            .map(|i| TVar::new(initial_value(spec.kind, i)))
            .collect();
        let initial: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();

        // `struct-churn` drives real data structures alongside the tracked
        // vars; prefill them (unrecorded) to match the presence payloads.
        let structs = (spec.kind == ScenarioKind::StructChurn).then(|| {
            let sc = StructChurnCtx::new(spec.vars);
            sc.prefill(&mut rt.register());
            sc
        });

        let ctl = ScenarioCtl {
            stop: AtomicBool::new(false),
            scanners_left: AtomicUsize::new(spec.threads.saturating_sub(LONG_SCAN_UPDATERS)),
            transfers_done: AtomicUsize::new(0),
            updaters_alive: AtomicUsize::new(LONG_SCAN_UPDATERS.min(spec.threads)),
            audit: Mutex::new(Vec::new()),
        };
        let guard = tm_api::record::start();
        std::thread::scope(|s| {
            for t in 0..spec.threads {
                let rt = &rt;
                let vars = &vars;
                let ctl = &ctl;
                let structs = &structs;
                s.spawn(move || run_worker(rt, vars, spec, ctl, structs, t));
            }
        });
        // Workers are joined (scope ended), so their thread-local buffers
        // have flushed; the history is complete.
        let logs = guard.finish();

        let mut audit = ctl.audit.into_inner().unwrap();
        if let Some(sc) = &structs {
            sc.final_audit(&mut rt.register(), &vars, &mut audit);
        }
        rt.shutdown();

        let final_mem: Vec<u64> = vars.iter().map(|v| v.load_direct()).collect();
        let addrs: Vec<usize> = vars.iter().map(|v| v.word().addr()).collect();
        let history = checker::from_record::history_from_logs(
            self.backend,
            &spec.label(),
            logs,
            &addrs,
            initial,
            final_mem,
        );
        let mut report = checker::check_history(&history);
        report.violations.extend(
            audit
                .into_iter()
                .map(|detail| Violation::StructAudit { detail }),
        );
        report
    }
}

/// Run one backend through one scenario with recording enabled and check
/// the resulting history. Returns the checker's report.
pub fn run_and_check(tm: TmKind, spec: &ScenarioSpec) -> Report {
    with_backend(
        tm,
        RuntimeScale::Test,
        ScenarioVisitor {
            spec,
            backend: tm.name(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_encoding_bumps_sequence_and_keeps_payload() {
        let v0 = 1_000u64;
        let v1 = bump(v0, 990);
        let v2 = bump(v1, 1_005);
        assert_eq!(payload(v1), 990);
        assert_eq!(payload(v2), 1_005);
        assert_eq!(v1 >> 32, 1);
        assert_eq!(v2 >> 32, 2);
        assert_ne!(v1, v2);
    }
}
