//! The in-process workloads: `point-mix`, `zipf-update`,
//! `scan-under-updates` and `mode-shift`, all on one `TxAbTree` prefilled
//! with the 100 000 even keys of `0..200 000`, two load threads.

use crate::gen::{shuffled, stream, streams, Zipf};
use crate::stats::ratio;
use crate::trace::{self, SpanBuf};
use crate::Measured;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};
use tm_api::{TmHandle, TmRuntime, TmStatsSnapshot, TxKind};
use txstructs::{TxAbTree, TxSet};

pub const KEY_RANGE: u64 = 200_000;
pub const PREFILL: u64 = KEY_RANGE / 2;
/// The updater moves keys inside one block, so a block's population — and
/// with it the answer to every block-aligned range query — never changes.
pub const BLOCK: u64 = 1_000;
pub const BLOCKS: u64 = KEY_RANGE / BLOCK;
pub const SPAN_BLOCKS: u64 = 40;
pub const THREADS: usize = 2;
/// Attempts after which an operation counts as given up (failed).
const BUDGET: u64 = 1 << 24;
/// Operations per timed batch: one clock read per 64 operations.
const BATCH: u64 = 64;
/// One point operation in this many is timed on its own (and, in the
/// traced pass, gets a span).
const SAMPLE_EVERY: u64 = 64;

/// `MultiverseConfig::paper_defaults()` on the table size every workload
/// uses.
pub fn mv_config() -> multiverse::MultiverseConfig {
    multiverse::MultiverseConfig {
        stripes: 1 << 18,
        ..multiverse::MultiverseConfig::paper_defaults()
    }
}

pub struct TreeSys<R: TmRuntime> {
    pub rt: Arc<R>,
    pub tree: TxAbTree,
}

/// Prefill with the even keys, in the seed's order.
pub fn setup<R: TmRuntime>(rt: Arc<R>, seed: u64) -> TreeSys<R> {
    let tree = TxAbTree::new();
    let mut h = rt.register();
    for k in shuffled((0..KEY_RANGE).step_by(2).collect(), seed) {
        tree.insert(&mut h, k, k);
    }
    TreeSys { rt, tree }
}

pub struct Mix {
    pub contains_pct: u64,
    pub insert_pct: u64,
    pub zipf: Option<Zipf>,
}

impl Mix {
    pub fn point_mix() -> Mix {
        Mix {
            contains_pct: 90,
            insert_pct: 5,
            zipf: None,
        }
    }

    pub fn zipf_update() -> Mix {
        Mix {
            contains_pct: 50,
            insert_pct: 25,
            zipf: Some(Zipf::new(KEY_RANGE, 0.9)),
        }
    }
}

pub enum Until {
    /// Run until `end`; batches that start before `warm_end` are not timed.
    Time { warm_end: Instant, end: Instant },
    /// Run `ops` operations; give up at `cap` and report the rest undone.
    Ops { ops: u64, cap: Instant },
}

#[derive(Default)]
pub struct PointOut {
    /// Operations in timed batches, and the wall time those batches took.
    pub ops: u64,
    pub wall_ns: u64,
    /// Every operation issued, warm-up included.
    pub issued: u64,
    pub failed: u64,
    pub undone: u64,
    /// Successful inserts minus successful removes, warm-up included.
    pub net: i64,
    /// Latency of the sampled operations of the timed batches.
    pub op_ns: Vec<f64>,
}

/// One load thread's closed loop of point operations.
pub fn point_phase<H: TmHandle>(
    tree: &TxAbTree,
    h: &mut H,
    rng: &mut StdRng,
    mix: &Mix,
    until: Until,
    mut trace: Option<(&mut SpanBuf, u64)>,
) -> PointOut {
    let mut out = PointOut::default();
    let (warm_end, end, mut left) = match until {
        Until::Time { warm_end, end } => (warm_end, end, u64::MAX),
        Until::Ops { ops, cap } => (Instant::now(), cap, ops),
    };
    let counted = left != u64::MAX;
    let mut t0 = Instant::now();
    while left > 0 {
        let n = BATCH.min(left);
        let timed = t0 >= warm_end;
        for _ in 0..n {
            let key = match &mix.zipf {
                Some(z) => z.sample(rng),
                None => rng.gen_range(0..KEY_RANGE),
            };
            let roll = rng.gen_range(0..100u64);
            out.issued += 1;
            let sampled = out.issued.is_multiple_of(SAMPLE_EVERY).then(Instant::now);
            let (name, done) = if roll < mix.contains_pct {
                let r = h.txn_budget(TxKind::ReadOnly, BUDGET, |tx| tree.contains_tx(tx, key));
                ("txstructs.contains", r.is_committed())
            } else if roll < mix.contains_pct + mix.insert_pct {
                let r = h.txn_budget(TxKind::ReadWrite, BUDGET, |tx| tree.insert_tx(tx, key, key));
                out.net += i64::from(r.committed() == Some(true));
                ("txstructs.insert", r.is_committed())
            } else {
                let r = h.txn_budget(TxKind::ReadWrite, BUDGET, |tx| tree.remove_tx(tx, key));
                out.net -= i64::from(r.committed() == Some(true));
                ("txstructs.remove", r.is_committed())
            };
            out.failed += u64::from(!done);
            if let Some(start) = sampled {
                let end = Instant::now();
                if timed {
                    out.op_ns.push((end - start).as_nanos() as f64);
                }
                if let Some((buf, parent)) = &mut trace {
                    let id = buf.open();
                    buf.close(id, *parent, name, out.issued, start, end);
                }
            }
        }
        let t1 = Instant::now();
        if timed {
            out.ops += n;
            out.wall_ns += (t1 - t0).as_nanos() as u64;
        }
        if counted {
            left -= n;
        }
        if t1 >= end {
            break;
        }
        t0 = t1;
    }
    out.undone = if counted { left } else { 0 };
    out
}

/// What the scanner and the updater of one range-query phase share.
pub struct ScanShared {
    stop: AtomicBool,
    /// Keys present per block, published by the updater before the first
    /// range query.
    pops: OnceLock<Vec<u64>>,
    ready: Barrier,
}

impl ScanShared {
    pub fn new() -> ScanShared {
        ScanShared {
            stop: AtomicBool::new(false),
            pops: OnceLock::new(),
            ready: Barrier::new(2),
        }
    }
}

#[derive(Default)]
pub struct UpdaterOut {
    pub moves: u64,
    pub failed: u64,
}

/// The dedicated updater: atomic moves of one key inside one block
/// (`remove_tx(k)` + `insert_tx(k')` in one transaction) until the scanner
/// is done. It is the only writer, so it keeps an exact model of the key
/// set and every move it issues must succeed.
pub fn updater<H: TmHandle>(
    tree: &TxAbTree,
    h: &mut H,
    rng: &mut StdRng,
    shared: &ScanShared,
) -> UpdaterOut {
    let mut present = vec![false; KEY_RANGE as usize];
    h.txn(TxKind::ReadOnly, |tx| {
        present.fill(false);
        tree.scan_tx(tx, 0, KEY_RANGE - 1, &mut |k, _| present[k as usize] = true)
    });
    let pops = present
        .chunks(BLOCK as usize)
        .map(|b| b.iter().filter(|&&p| p).count() as u64)
        .collect();
    shared.pops.set(pops).expect("one updater per phase");
    shared.ready.wait();
    let mut out = UpdaterOut::default();
    while !shared.stop.load(Ordering::Relaxed) {
        let base = rng.gen_range(0..BLOCKS) * BLOCK;
        let mut pick = |want: bool| {
            (0..64)
                .map(|_| base + rng.gen_range(0..BLOCK))
                .find(|&k| present[k as usize] == want)
        };
        let (Some(from), Some(to)) = (pick(true), pick(false)) else {
            continue;
        };
        let moved = h.txn_budget(TxKind::ReadWrite, BUDGET, |tx| {
            Ok(tree.remove_tx(tx, from)? && tree.insert_tx(tx, to, to)?)
        });
        if moved.committed() == Some(true) {
            out.moves += 1;
            present[from as usize] = false;
            present[to as usize] = true;
        } else {
            out.failed += 1;
        }
    }
    out
}

#[derive(Default)]
pub struct ScannerOut {
    pub rq_ns: Vec<f64>,
    pub wall_ns: u64,
    pub failed: u64,
    pub undone: u64,
    /// Transaction-body invocations, counted here, over all range queries.
    pub attempts: u64,
    /// Range queries that found the TM in Mode U when they started.
    pub mode_u: u64,
    pub keys_per_rq: f64,
}

/// The scanner: `n` back-to-back block-aligned range queries, each timed,
/// each checked against the span's constant population.
#[allow(clippy::too_many_arguments)]
pub fn scanner<H: TmHandle>(
    tree: &TxAbTree,
    h: &mut H,
    rng: &mut StdRng,
    shared: &ScanShared,
    n: u64,
    cap: Duration,
    in_mode_u: &dyn Fn() -> bool,
    mut trace: Option<(&mut SpanBuf, u64)>,
) -> ScannerOut {
    shared.ready.wait();
    let pops = shared.pops.get().expect("published before the barrier");
    let mut out = ScannerOut::default();
    let mut keys = 0u64;
    let start = Instant::now();
    for i in 0..n {
        if start.elapsed() > cap {
            out.undone = n - i;
            break;
        }
        let first = rng.gen_range(0..=BLOCKS - SPAN_BLOCKS);
        let (lo, hi) = (first * BLOCK, (first + SPAN_BLOCKS) * BLOCK - 1);
        let expected: u64 = pops[first as usize..(first + SPAN_BLOCKS) as usize]
            .iter()
            .sum();
        out.mode_u += u64::from(in_mode_u());
        let t0 = Instant::now();
        let got = h.txn_budget(TxKind::ReadOnly, BUDGET, |tx| {
            out.attempts += 1;
            tree.range_query_tx(tx, lo, hi)
        });
        let t1 = Instant::now();
        out.rq_ns.push((t1 - t0).as_nanos() as f64);
        if let Some((buf, parent)) = &mut trace {
            let id = buf.open();
            buf.close(id, *parent, "txstructs.range_query", i + 1, t0, t1);
        }
        out.failed += u64::from(got.committed() != Some(expected as usize));
        keys += expected;
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.keys_per_rq = ratio(keys as f64, out.rq_ns.len() as f64);
    shared.stop.store(true, Ordering::Relaxed);
    out
}

/// Counter deltas of one run as per-layer metrics.
pub fn tm_layer(
    before: &TmStatsSnapshot,
    after: &TmStatsSnapshot,
    ops: u64,
) -> Vec<(&'static str, f64)> {
    let d = |f: fn(&TmStatsSnapshot) -> u64| f(after).saturating_sub(f(before)) as f64;
    vec![
        (
            "multiverse.aborts_per_commit",
            ratio(d(|s| s.aborts), d(|s| s.commits)),
        ),
        ("multiverse.gave_up", d(|s| s.gave_up)),
        (
            "tm-api.clock_tick_retries_per_tick",
            ratio(d(|s| s.clock_tick_retries), d(|s| s.clock_ticks)),
        ),
        (
            "ebr.pool_hit_ratio",
            ratio(d(|s| s.pool_hits), d(|s| s.pool_allocs)),
        ),
        ("ebr.pool_steals", d(|s| s.pool_steals)),
        (
            "ebr.recycled_per_retire",
            ratio(d(|s| s.pool_recycled), d(|s| s.pool_retires)),
        ),
        (
            "txstructs.pool_class_hit_ratio",
            ratio(d(|s| s.pool_class_hits), d(|s| s.pool_class_allocs)),
        ),
        ("txstructs.pool_class_steals", d(|s| s.pool_class_steals)),
        ("txstructs.reads_per_op", ratio(d(|s| s.reads), ops as f64)),
        (
            "multiverse.addresses_versioned",
            d(|s| s.addresses_versioned),
        ),
        ("multiverse.mode_transitions", d(|s| s.mode_transitions)),
        (
            "multiverse.buckets_unversioned",
            d(|s| s.buckets_unversioned),
        ),
        (
            "multiverse.mode_u_commit_share",
            ratio(d(|s| s.mode_u_commits), d(|s| s.commits)),
        ),
    ]
}

/// The conservation check: the tree holds the prefill plus every
/// successful insert minus every successful remove.
fn check_size<R: TmRuntime>(sys: &TreeSys<R>, net: i64, m: &mut Measured) {
    let size = sys.tree.size_query(&mut sys.rt.register()) as i64;
    let expected = PREFILL as i64 + net;
    if size != expected {
        m.failed += size.abs_diff(expected);
        m.checks.push(format!(
            "conservation: tree holds {size} keys, expected {expected}"
        ));
    }
}

fn fold_point(outs: &[PointOut], m: &mut Measured) {
    for o in outs {
        m.attempted += o.issued + o.undone;
        m.failed += o.failed + o.undone;
        m.ops_per_s += ratio(o.ops as f64, o.wall_ns as f64 / 1e9);
        m.lat_ns.extend_from_slice(&o.op_ns);
        if o.undone > 0 {
            m.checks.push(format!(
                "safety cap fired with {} operations undone",
                o.undone
            ));
        }
    }
}

/// `point-mix` and `zipf-update`: two threads, `warm` then `timed`.
pub fn run_point<R: TmRuntime>(
    sys: &TreeSys<R>,
    mix: &Mix,
    seed: u64,
    warm: Duration,
    timed: Duration,
    trace: Option<Instant>,
) -> Measured {
    let before = sys.rt.stats();
    let started = Instant::now();
    let go = Barrier::new(THREADS);
    let results: Vec<(PointOut, Option<SpanBuf>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let go = &go;
                s.spawn(move || {
                    let mut h = sys.rt.register();
                    let mut rng = stream(seed, streams::worker(0, t));
                    let mut buf = trace.map(|origin| SpanBuf::new(origin, t));
                    go.wait();
                    let now = Instant::now();
                    let until = Until::Time {
                        warm_end: now + warm,
                        end: now + warm + timed,
                    };
                    let out = point_phase(
                        &sys.tree,
                        &mut h,
                        &mut rng,
                        mix,
                        until,
                        buf.as_mut().map(|b| (b, trace::ROOT)),
                    );
                    (out, buf)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let after = sys.rt.stats();
    let (outs, bufs): (Vec<_>, Vec<_>) = results.into_iter().unzip();
    let mut m = Measured::default();
    fold_point(&outs, &mut m);
    m.layer = tm_layer(&before, &after, outs.iter().map(|o| o.issued).sum());
    check_size(sys, outs.iter().map(|o| o.net).sum(), &mut m);
    m.spans = trace::collect("phase.point", trace, started, bufs.into_iter().flatten());
    m
}

/// `scan-under-updates`: one scanner, one updater.
pub fn run_scan<R: TmRuntime>(
    sys: &TreeSys<R>,
    seed: u64,
    rqs: u64,
    cap: Duration,
    in_mode_u: &(dyn Fn() -> bool + Sync),
    trace: Option<Instant>,
) -> Measured {
    let before = sys.rt.stats();
    let started = Instant::now();
    let shared = ScanShared::new();
    let (scan, buf, upd) = std::thread::scope(|s| {
        let shared = &shared;
        let scanner_thread = s.spawn(move || {
            let mut h = sys.rt.register();
            let mut rng = stream(seed, streams::SCANNER);
            let mut buf = trace.map(|origin| SpanBuf::new(origin, 0));
            let out = scanner(
                &sys.tree,
                &mut h,
                &mut rng,
                shared,
                rqs,
                cap,
                in_mode_u,
                buf.as_mut().map(|b| (b, trace::ROOT)),
            );
            (out, buf)
        });
        let updater_thread = s.spawn(move || {
            let mut h = sys.rt.register();
            updater(
                &sys.tree,
                &mut h,
                &mut stream(seed, streams::UPDATER),
                shared,
            )
        });
        let (scan, buf) = scanner_thread.join().expect("scanner thread");
        (scan, buf, updater_thread.join().expect("updater thread"))
    });
    let after = sys.rt.stats();
    let mut m = Measured::default();
    fold_scan(&scan, &upd, &mut m);
    m.ops_per_s = ratio(scan.rq_ns.len() as f64, scan.wall_ns as f64 / 1e9);
    m.layer = tm_layer(&before, &after, m.attempted);
    m.layer.extend(scan_layer(sys, &scan, &upd));
    let versioned = after
        .versioned_commits
        .saturating_sub(before.versioned_commits);
    m.layer.extend([
        (
            "multiverse.versioned_commit_share",
            ratio(versioned as f64, scan.rq_ns.len() as f64),
        ),
        (
            "txstructs.scan_versioned_ns_per_key",
            ratio(crate::stats::median(scan.rq_ns.clone()), scan.keys_per_rq),
        ),
    ]);
    m.lat_ns = scan.rq_ns;
    check_size(sys, 0, &mut m);
    m.spans = trace::collect("phase.scan", trace, started, buf);
    m
}

/// Per-layer metrics of one range-query phase.
fn scan_layer<R: TmRuntime>(
    sys: &TreeSys<R>,
    scan: &ScannerOut,
    upd: &UpdaterOut,
) -> [(&'static str, f64); 4] {
    let rqs = scan.rq_ns.len() as f64;
    [
        (
            "update_ops_per_s",
            ratio(upd.moves as f64, scan.wall_ns as f64 / 1e9),
        ),
        (
            "multiverse.attempts_per_rq",
            ratio(scan.attempts as f64, rqs),
        ),
        ("multiverse.mode_u_share", ratio(scan.mode_u as f64, rqs)),
        (
            "multiverse.versioning_mb_end",
            sys.rt.versioning_bytes() as f64 / 1e6,
        ),
    ]
}

fn fold_scan(scan: &ScannerOut, upd: &UpdaterOut, m: &mut Measured) {
    m.attempted += scan.rq_ns.len() as u64 + scan.undone + upd.moves + upd.failed;
    m.failed += scan.failed + scan.undone + upd.failed;
    if scan.failed > 0 {
        m.checks.push(format!(
            "{} range queries returned a wrong count",
            scan.failed
        ));
    }
    if scan.undone > 0 {
        m.checks.push(format!(
            "safety cap fired with {} range queries undone",
            scan.undone
        ));
    }
    if upd.failed > 0 {
        m.checks.push(format!(
            "{} updater moves gave up or found the wrong keys",
            upd.failed
        ));
    }
}

pub struct ModeShiftSize {
    pub before_ops: u64,
    pub rqs: u64,
    pub after_ops: u64,
    /// Safety cap of each phase.
    pub cap: Duration,
}

/// `mode-shift`: point-mix, then range queries under the updater, then
/// point-mix again, on the same two threads and handles (the sticky
/// Mode-U flags are per handle). The reported unit of work is an
/// operation of the last phase.
pub fn run_mode_shift(
    sys: &TreeSys<multiverse::MultiverseRuntime>,
    seed: u64,
    size: &ModeShiftSize,
    trace: Option<Instant>,
) -> Measured {
    let mix = Mix::point_mix();
    let before = sys.rt.stats();
    let started = Instant::now();
    let shared = ScanShared::new();
    let go = Barrier::new(THREADS);
    let in_mode_u = || sys.rt.current_mode() == multiverse::Mode::U;
    type ThreadOut = (
        PointOut,
        PointOut,
        Option<ScannerOut>,
        Option<UpdaterOut>,
        Option<SpanBuf>,
    );
    let results: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS as u64)
            .map(|t| {
                let (go, shared, mix, in_mode_u) = (&go, &shared, &mix, &in_mode_u);
                s.spawn(move || {
                    let mut h = sys.rt.register();
                    let mut buf = trace.map(|origin| SpanBuf::new(origin, t));
                    let point = |phase: u64, ops: u64, buf: &mut Option<SpanBuf>, h: &mut _| {
                        go.wait();
                        let until = Until::Ops {
                            ops,
                            cap: Instant::now() + size.cap,
                        };
                        let mut rng = stream(seed, streams::worker(phase, t));
                        point_phase(
                            &sys.tree,
                            h,
                            &mut rng,
                            mix,
                            until,
                            buf.as_mut().map(|b| (b, trace::ROOT)),
                        )
                    };
                    let first = point(0, size.before_ops, &mut buf, &mut h);
                    go.wait();
                    let (mut scan, mut upd) = (None, None);
                    if t == 0 {
                        scan = Some(scanner(
                            &sys.tree,
                            &mut h,
                            &mut stream(seed, streams::SCANNER),
                            shared,
                            size.rqs,
                            size.cap,
                            in_mode_u,
                            buf.as_mut().map(|b| (b, trace::ROOT)),
                        ));
                    } else {
                        upd = Some(updater(
                            &sys.tree,
                            &mut h,
                            &mut stream(seed, streams::UPDATER),
                            shared,
                        ));
                    }
                    let last = point(1, size.after_ops, &mut buf, &mut h);
                    (first, last, scan, upd, buf)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread"))
            .collect()
    });
    let after = sys.rt.stats();
    let mut m = Measured::default();
    let mut firsts = Vec::new();
    let mut lasts = Vec::new();
    let mut bufs = Vec::new();
    let (mut scan, mut upd) = (ScannerOut::default(), UpdaterOut::default());
    for (first, last, s, u, buf) in results {
        firsts.push(first);
        lasts.push(last);
        scan = s.unwrap_or(scan);
        upd = u.unwrap_or(upd);
        bufs.extend(buf);
    }
    let mut first_phase = Measured::default();
    fold_point(&firsts, &mut first_phase);
    fold_point(&lasts, &mut m);
    fold_scan(&scan, &upd, &mut m);
    m.attempted += first_phase.attempted;
    m.failed += first_phase.failed;
    m.checks.append(&mut first_phase.checks);
    m.layer = tm_layer(&before, &after, m.attempted);
    m.layer.extend([
        ("multiverse.before_ops_per_s", first_phase.ops_per_s),
        (
            "multiverse.after_over_before",
            ratio(m.ops_per_s, first_phase.ops_per_s),
        ),
        ("multiverse.mode_at_end", f64::from(u8::from(in_mode_u()))),
    ]);
    m.layer.extend(scan_layer(sys, &scan, &upd));
    let net = firsts.iter().chain(&lasts).map(|o| o.net).sum();
    check_size(sys, net, &mut m);
    m.spans = trace::collect("phase.mode_shift", trace, started, bufs);
    m
}
