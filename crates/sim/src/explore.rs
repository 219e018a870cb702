//! Schedule exploration driver: exhaustive DFS with DPOR backtracking,
//! seeded random sampling, and token replay.
//!
//! The DFS is replay-based: each schedule is a fresh execution driven by a
//! script (the chosen thread per decision node for a path prefix) and the
//! deterministic default policy beyond it. Backtrack requests produced by
//! the scheduler's vector-clock race detection (see the `exec` module) grow
//! the set of alternatives to try at earlier nodes; exploration is complete
//! when no node has an untried requested alternative. Race-free models
//! therefore explore exactly one schedule, and only causally-concurrent
//! conflicting accesses multiply the schedule count.

use crate::exec::{Abort, Access, Exec, Mode, RunConfig, RunRecord};
use crate::token;
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// Exploration knobs shared by all strategies.
#[derive(Clone, Debug)]
pub struct ExploreConfig {
    /// Maximum preemptive context switches per schedule. `u32::MAX` means
    /// unbounded (full DPOR exploration). The DFS bound is approximate:
    /// spin-yield hand-offs count against it when computed from the path.
    pub preemption_bound: u32,
    /// Full all-threads-yielded spin rounds before a run aborts as livelock.
    pub livelock_limit: u64,
    /// Safety cap on explored schedules for the exhaustive strategy.
    pub max_schedules: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        Self {
            preemption_bound: u32::MAX,
            livelock_limit: 100_000,
            max_schedules: 1_000_000,
        }
    }
}

/// How to walk the schedule space.
#[derive(Clone, Debug)]
pub enum Strategy {
    /// DPOR depth-first enumeration until no requested alternative remains.
    Exhaustive,
    /// `schedules` independent runs with seeded uniform choices.
    Sample { seed: u64, schedules: u64 },
    /// Re-execute one schedule from its token.
    Replay { token: String },
}

/// Result of one explored schedule.
pub struct ScheduleOutcome<T> {
    /// 0-based index in exploration order.
    pub index: u64,
    /// Token that replays this schedule.
    pub token: String,
    /// Digest of the visible-access linearization (schedule identity).
    pub digest: u64,
    /// Decision nodes in the run.
    pub nodes: usize,
    /// The model's return value, or why the run failed.
    pub result: Result<T, Abort>,
}

/// Aggregate statistics for an exploration.
#[derive(Clone, Debug, Default)]
pub struct ExploreStats {
    /// Schedules executed.
    pub schedules: u64,
    /// True when the exhaustive strategy drained every requested
    /// alternative (the space is covered up to the preemption bound).
    pub complete: bool,
    /// True when the visitor stopped the exploration early.
    pub stopped_early: bool,
    /// Largest decision-node count seen in a single schedule.
    pub max_nodes: usize,
    /// DPOR backtrack requests raised by races (after dedup).
    pub race_requests: u64,
    /// Requested alternatives pruned by sleep sets: the candidate's first
    /// step commutes with everything executed since an already-explored
    /// sibling branch covered it, so replaying it here would only permute
    /// independent steps of a schedule already seen.
    pub sleep_skips: u64,
}

/// One DFS path node with its exploration bookkeeping.
struct PNode {
    candidates: Vec<usize>,
    /// Pending access per candidate (parallel to `candidates`).
    pendings: Vec<Access>,
    chosen: usize,
    tried: BTreeSet<usize>,
    todo: BTreeSet<usize>,
}

impl PNode {
    fn pending_of(&self, t: usize) -> Option<Access> {
        self.candidates
            .iter()
            .position(|&c| c == t)
            .map(|i| self.pendings[i])
    }
}

/// The sleep set at entry of node `upto`, implied by the current path
/// (Flanagan–Godefroid). A thread sleeps when an already-explored sibling
/// branch at some ancestor covers every trace in which it is scheduled
/// next; it wakes at the first executed access its pending step does not
/// commute with. Entry sleep depends only on ancestors of `upto` — all of
/// whose `tried`/`chosen` are frozen while `upto` is on the path — so the
/// value is stable for the node's lifetime and can be recomputed on demand.
fn entry_sleep(path: &[PNode], upto: usize) -> BTreeSet<usize> {
    let mut sleep = BTreeSet::new();
    for n in path.iter().take(upto) {
        let Some(exec) = n.pending_of(n.chosen) else {
            // Scripted replay guarantees chosen is a candidate.
            continue;
        };
        // Siblings explored at this node before the current choice are now
        // asleep for the subtree; the chosen thread itself always wakes.
        let mut eff = sleep;
        for &t in &n.tried {
            eff.insert(t);
        }
        eff.remove(&n.chosen);
        sleep = eff
            .into_iter()
            .filter(|&u| match n.pending_of(u) {
                // Still asleep only if its pending step commutes with the
                // executed one. An asleep thread is unscheduled, so its
                // pending access is unchanged; if it is somehow not a
                // candidate here, drop it (conservative).
                Some(p) => !p.dependent(exec),
                None => false,
            })
            .collect();
    }
    sleep
}

fn run_one<T, F>(rc: RunConfig, model: &Arc<F>) -> (RunRecord, Option<T>)
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
{
    let ex = Arc::new(Exec::new(rc));
    let slot: Arc<Mutex<Option<T>>> = Arc::new(Mutex::new(None));
    let ex2 = Arc::clone(&ex);
    let slot2 = Arc::clone(&slot);
    let m = Arc::clone(model);
    let main = std::thread::Builder::new()
        .name("sim-main".into())
        .spawn(move || {
            crate::exec::set_current(Some((Arc::clone(&ex2), 0)));
            let r = catch_unwind(AssertUnwindSafe(|| m()));
            let msg = r
                .as_ref()
                .err()
                .map(|p| crate::thread::panic_message(p.as_ref()));
            if let Ok(v) = r {
                match slot2.lock() {
                    Ok(mut g) => *g = Some(v),
                    Err(p) => *p.into_inner() = Some(v),
                }
            }
            crate::exec::set_current(None);
            ex2.finish(0, msg);
        })
        .expect("failed to spawn sim main thread");
    ex.wait_done();
    let _ = main.join();
    let rec = ex.take_outcome();
    let val = match slot.lock() {
        Ok(mut g) => g.take(),
        Err(p) => p.into_inner().take(),
    };
    (rec, val)
}

fn outcome_result<T>(rec: &RunRecord, val: Option<T>) -> Result<T, Abort> {
    match (&rec.abort, val) {
        (Some(a), _) => Err(a.clone()),
        (None, Some(v)) => Ok(v),
        (None, None) => Err(Abort::Panic("model produced no result".into())),
    }
}

/// Preemptions implied by replaying `path[..=upto]` with `choice` at `upto`.
/// Conservative: yield hand-offs are counted as preemptions.
fn path_preemptions(path: &[PNode], upto: usize, choice: usize) -> u32 {
    let mut prev = 0usize; // main thread starts active
    let mut count = 0u32;
    for (j, n) in path.iter().enumerate().take(upto + 1) {
        let c = if j == upto { choice } else { n.chosen };
        if c != prev && n.candidates.contains(&prev) {
            count += 1;
        }
        prev = c;
    }
    count
}

/// Run `model` under the chosen strategy, passing every schedule's outcome
/// to `visit`. Return `ControlFlow::Break(())` from `visit` to stop (e.g.
/// on the first violation).
pub fn explore<T, F, G>(
    cfg: &ExploreConfig,
    strategy: Strategy,
    model: F,
    mut visit: G,
) -> ExploreStats
where
    F: Fn() -> T + Send + Sync + 'static,
    T: Send + 'static,
    G: FnMut(ScheduleOutcome<T>) -> ControlFlow<()>,
{
    let model = Arc::new(model);
    let mut stats = ExploreStats::default();
    match strategy {
        Strategy::Replay { token } => {
            let (bound, script) = match token::decode(&token) {
                Ok(t) => t,
                Err(e) => {
                    stats.schedules = 1;
                    let _ = visit(ScheduleOutcome {
                        index: 0,
                        token,
                        digest: 0,
                        nodes: 0,
                        result: Err(Abort::StaleToken(e)),
                    });
                    return stats;
                }
            };
            let rc = RunConfig {
                script,
                mode: Mode::Dfs,
                preemption_bound: bound,
                livelock_limit: cfg.livelock_limit,
            };
            let (rec, val) = run_one(rc, &model);
            stats.schedules = 1;
            stats.max_nodes = rec.nodes.len();
            let result = outcome_result(&rec, val);
            let _ = visit(ScheduleOutcome {
                index: 0,
                token,
                digest: rec.digest,
                nodes: rec.nodes.len(),
                result,
            });
            stats
        }
        Strategy::Sample { seed, schedules } => {
            for k in 0..schedules {
                let rc = RunConfig {
                    script: Vec::new(),
                    mode: Mode::Sample(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9))),
                    preemption_bound: cfg.preemption_bound,
                    livelock_limit: cfg.livelock_limit,
                };
                let (rec, val) = run_one(rc, &model);
                stats.schedules += 1;
                stats.max_nodes = stats.max_nodes.max(rec.nodes.len());
                let choices: Vec<usize> = rec.nodes.iter().map(|n| n.chosen).collect();
                let result = outcome_result(&rec, val);
                let flow = visit(ScheduleOutcome {
                    index: k,
                    token: token::encode(cfg.preemption_bound, &choices),
                    digest: rec.digest,
                    nodes: rec.nodes.len(),
                    result,
                });
                if flow.is_break() {
                    stats.stopped_early = true;
                    break;
                }
            }
            stats
        }
        Strategy::Exhaustive => {
            let mut path: Vec<PNode> = Vec::new();
            loop {
                let script: Vec<usize> = path.iter().map(|n| n.chosen).collect();
                let rc = RunConfig {
                    script: script.clone(),
                    mode: Mode::Dfs,
                    preemption_bound: u32::MAX,
                    livelock_limit: cfg.livelock_limit,
                };
                let (rec, val) = run_one(rc, &model);
                stats.schedules += 1;
                stats.max_nodes = stats.max_nodes.max(rec.nodes.len());
                // Merge this run's nodes into the path. The scripted prefix
                // must replay identically — that determinism is what makes
                // tokens meaningful.
                for (i, rn) in rec.nodes.iter().enumerate() {
                    if i < path.len() {
                        assert_eq!(
                            (&path[i].candidates, &path[i].pendings, path[i].chosen),
                            (&rn.candidates, &rn.pendings, rn.chosen),
                            "nondeterministic replay at node {i}: instrument the \
                             diverging synchronization site or remove the \
                             uncontrolled input"
                        );
                    } else {
                        path.push(PNode {
                            candidates: rn.candidates.clone(),
                            pendings: rn.pendings.clone(),
                            chosen: rn.chosen,
                            tried: BTreeSet::from([rn.chosen]),
                            todo: BTreeSet::new(),
                        });
                    }
                }
                for (idx, adds) in &rec.backtracks {
                    for &t in adds {
                        if *idx < path.len()
                            && !path[*idx].tried.contains(&t)
                            && path[*idx].todo.insert(t)
                        {
                            stats.race_requests += 1;
                        }
                    }
                }
                let result = outcome_result(&rec, val);
                let flow = visit(ScheduleOutcome {
                    index: stats.schedules - 1,
                    token: token::encode(cfg.preemption_bound, &script),
                    digest: rec.digest,
                    nodes: rec.nodes.len(),
                    result,
                });
                if flow.is_break() {
                    stats.stopped_early = true;
                    break;
                }
                if stats.schedules >= cfg.max_schedules {
                    break;
                }
                // Backtrack: deepest node with an untried requested
                // alternative that stays within the preemption bound and is
                // not asleep (sleep-set pruning: an asleep alternative only
                // permutes independent steps of an explored schedule).
                let mut advanced = false;
                'select: for i in (0..path.len()).rev() {
                    let mut sleep: Option<BTreeSet<usize>> = None;
                    while let Some(&t) = path[i].todo.iter().next() {
                        path[i].todo.remove(&t);
                        if cfg.preemption_bound != u32::MAX
                            && path_preemptions(&path, i, t) > cfg.preemption_bound
                        {
                            continue;
                        }
                        let sleep = sleep.get_or_insert_with(|| entry_sleep(&path, i));
                        if sleep.contains(&t) {
                            // Entry sleep is fixed for the node's lifetime,
                            // so a re-requested `t` would be skipped again:
                            // mark it tried to drop future requests.
                            stats.sleep_skips += 1;
                            path[i].tried.insert(t);
                            continue;
                        }
                        path[i].tried.insert(t);
                        path[i].chosen = t;
                        path.truncate(i + 1);
                        advanced = true;
                        break 'select;
                    }
                }
                if !advanced {
                    stats.complete = true;
                    break;
                }
            }
            stats
        }
    }
}
