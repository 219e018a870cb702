//! Perf-trajectory runner, the workspace's one micro-bench path: measures
//! the `txset` hot-path primitives, the Multiverse substrates below the TM
//! (`substrate/*`: stripe lock/unlock, bloom add+contains, clock read and
//! increment, a depth-8 version-list traversal, ebr pin/unpin), per-TM
//! micro-op batches, the structures and the store front door, and writes
//! the medians to `BENCH_txset.json`, so future PRs can track the hot-path
//! perf curve with one command:
//!
//! ```text
//! cargo run --release -p bench --bin bench_trajectory [-- <output-path>] \
//!     [--sweep 1,2,4,8,16] [--check <tolerance> [--baseline <path>]]
//! ```
//!
//! `--check` compares the fresh numbers against a committed baseline
//! (default `BENCH_txset.json`, read before anything is measured, so the
//! output may overwrite it) and prints per-entry deltas, flagging
//! regressions beyond `tolerance` (a fraction, e.g. `0.30` = 30%). The check
//! is **warn-only**: it never fails the process — micro-benchmarks on shared
//! CI runners are too noisy to gate on, but the deltas belong in the job log.
//!
//! `--sweep` sets the thread counts for the multi-thread scaling entries
//! (default `1,2,4`): each multi-thread workload runs once per count and
//! lands in the output as `<name>@t<N>`, so the committed baseline carries a
//! `threads → ns/op` curve per workload and `--check` diffs curves
//! point-wise with no extra machinery.

use baselines::{DctlRuntime, NorecRuntime, TinyStmRuntime, Tl2Runtime};
use harness::Zipf;
use multiverse::version::{VersionList, VersionNode};
use multiverse::{MultiverseConfig, MultiverseRuntime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use tm_api::txset::{StripeReadSet, WriteMap, READ_SET_INLINE};
use tm_api::{
    BloomTable, GlobalClock, LockTable, TVar, TmHandle, TmRuntime, Transaction, TxKind, TxWord,
};
use txstructs::{TxAbTree, TxList, TxSet};

/// Median ns/op across `threads` concurrent workers: per sample, every
/// worker runs `iters_per_sample` iterations between two barriers and the
/// wall time of the batch is divided by the total operation count — an
/// inverse-throughput metric, so cross-thread contention (shared clock,
/// stripe locks, the pool's free stack) shows up directly. The first batch is warm-up.
fn measure_mt<M, F>(threads: usize, samples: usize, iters_per_sample: u64, make_worker: M) -> f64
where
    M: Fn(usize) -> F + Sync,
    F: FnMut(),
{
    // `threads == 0` would divide by zero below and leave the coordinator
    // stuck on a Barrier no worker ever reaches.
    assert!(threads >= 1, "measure_mt needs at least one worker");
    let start = std::sync::Barrier::new(threads + 1);
    let done = std::sync::Barrier::new(threads + 1);
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (start, done, make_worker) = (&start, &done, &make_worker);
            s.spawn(move || {
                let mut f = make_worker(t);
                for _ in 0..samples + 1 {
                    start.wait();
                    for _ in 0..iters_per_sample {
                        f();
                    }
                    done.wait();
                }
            });
        }
        for sample in 0..samples + 1 {
            start.wait();
            let t0 = Instant::now();
            done.wait();
            let ns = t0.elapsed().as_nanos() as f64 / (iters_per_sample * threads as u64) as f64;
            if sample > 0 {
                times.push(ns);
            }
        }
    });
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// Median ns/iter of `f` over `samples` batches of `iters_per_sample`.
fn measure<F: FnMut()>(samples: usize, iters_per_sample: u64, mut f: F) -> f64 {
    // Warm-up batch.
    for _ in 0..iters_per_sample {
        f();
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters_per_sample as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn txset_measurements(out: &mut Vec<(String, f64)>) {
    const WRITES: usize = 8;
    const READS: usize = 64;
    let words: Vec<TxWord> = (0..READS).map(|i| TxWord::new(i as u64)).collect();

    let mut map = WriteMap::new();
    out.push((
        "txset/read_after_write/write_map".into(),
        measure(21, 20_000, || {
            for (i, w) in words.iter().take(WRITES).enumerate() {
                map.insert(w, i as u64);
            }
            let mut sum = 0u64;
            for w in &words {
                sum = sum.wrapping_add(map.lookup(w).unwrap_or(1));
            }
            map.clear();
            black_box(sum);
        }),
    ));

    let mut rs = StripeReadSet::new();
    out.push((
        "txset/read_set/tm_shaped_read_loop".into(),
        measure(21, 20_000, || {
            let mut sum = 0u64;
            for (i, w) in words.iter().take(READ_SET_INLINE).enumerate() {
                let val = w.tm_load();
                std::sync::atomic::fence(std::sync::atomic::Ordering::Acquire);
                rs.push(i);
                sum = sum.wrapping_add(val);
            }
            rs.clear();
            black_box(sum);
        }),
    ));

    let mut map = WriteMap::new();
    out.push((
        "txset/clear_after_64_writes/write_map".into(),
        measure(21, 20_000, || {
            for (i, w) in words.iter().enumerate() {
                map.insert(w, i as u64);
            }
            map.clear();
        }),
    ));

    // Read-mostly shape: the transaction wrote nothing, so every read
    // probes the redo log and misses, answered from the 64-bit filter.
    let map = WriteMap::new();
    out.push((
        "txset/negative_lookup/write_map_filter_miss".into(),
        measure(21, 20_000, || {
            let mut misses = 0u64;
            for w in &words {
                if map.lookup(black_box(w)).is_none() {
                    misses += 1;
                }
            }
            black_box(misses);
        }),
    ));
}

/// The substrates under every Multiverse transaction, one shape each.
fn substrate_measurements(out: &mut Vec<(String, f64)>) {
    let locks = LockTable::new(1 << 16);
    let mut addr = 0usize;
    out.push((
        "substrate/lock_table/lock_unlock".into(),
        measure(21, 20_000, || {
            addr = addr.wrapping_add(64);
            let idx = locks.index_of(addr);
            if let Ok(prev) = locks.lock_at(idx).try_lock(1, false) {
                locks.lock_at(idx).unlock_restore(prev);
            }
        }),
    ));

    let bloom = BloomTable::new(1 << 16);
    let mut addr = 0usize;
    out.push((
        "substrate/bloom/add_and_contains".into(),
        measure(21, 20_000, || {
            addr = addr.wrapping_add(8);
            bloom.try_add(addr & 0xFFFF, addr);
            black_box(bloom.contains(addr & 0xFFFF, addr));
        }),
    ));

    let clock = GlobalClock::new();
    out.push((
        "substrate/clock/read".into(),
        measure(21, 20_000, || {
            black_box(clock.read());
        }),
    ));
    out.push((
        "substrate/clock/increment".into(),
        measure(21, 20_000, || {
            black_box(clock.increment());
        }),
    ));

    // A list with 8 committed versions; the reader's clock selects the
    // oldest one, so every traversal walks the full depth. The newer
    // versions are stamped strictly above the clock: a committed version
    // stamped at it aborts the traversal.
    let list = VersionList::with_initial(1, 0);
    for ts in 3..10u64 {
        list.push_head(VersionNode::acquire(list.head(), ts, ts, false));
    }
    out.push((
        "substrate/version_list/traverse_depth_8".into(),
        measure(21, 20_000, || {
            black_box(list.traverse(2).expect("version 1 is older than clock 2"));
        }),
    ));

    let (_collector, mut h) = ebr::new_collector_and_handle();
    out.push((
        "substrate/ebr/pin_unpin".into(),
        measure(21, 20_000, || {
            h.pin();
            h.unpin();
        }),
    ));
}

fn tm_measurements<R: TmRuntime>(name: &str, rt: Arc<R>, out: &mut Vec<(String, f64)>) {
    const WORDS: usize = 64;
    let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
    let mut h = rt.register();

    out.push((
        format!("stm/{name}/read_only_8_words"),
        measure(11, 20_000, || {
            let sum = h.txn(TxKind::ReadOnly, |tx| {
                let mut sum = 0u64;
                for v in vars.iter().take(8) {
                    sum = sum.wrapping_add(tx.read_var(v)?);
                }
                Ok(sum)
            });
            black_box(sum);
        }),
    ));

    let mut i = 0u64;
    out.push((
        format!("stm/{name}/update_2_words"),
        measure(11, 20_000, || {
            i += 1;
            h.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&vars[(i as usize) % WORDS], i)?;
                tx.write_var(&vars[(i as usize + 7) % WORDS], i)
            });
        }),
    ));

    out.push((
        format!("stm/{name}/counter_rmw"),
        measure(11, 20_000, || {
            h.txn(TxKind::ReadWrite, |tx| {
                let v = tx.read_var(&vars[0])?;
                tx.write_var(&vars[0], v + 1)
            });
        }),
    ));

    drop(h);
    rt.shutdown();
}

/// The versioned hot path: forced Mode U makes every updating transaction
/// publish a version node per written word (plus a VLT node on the first
/// write), which is exactly the path the epoch-recycled arena serves. At
/// steady state the loop below runs allocation-free out of the pool.
fn versioned_measurements(out: &mut Vec<(String, f64)>) {
    const WORDS: usize = 64;
    let rt = MultiverseRuntime::start(MultiverseConfig::small_mode_u_only());
    let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
    let mut h = rt.register();

    let mut i = 0u64;
    out.push((
        "stm/multiverse/versioned_update_2_words".into(),
        measure(11, 20_000, || {
            i += 1;
            h.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&vars[(i as usize) % WORDS], i)?;
                tx.write_var(&vars[(i as usize + 7) % WORDS], i)
            });
        }),
    ));
    drop(h);
    rt.shutdown();

    // Versioning churn: versioned readers create version lists on demand
    // (k1 = 0 puts every read-only transaction on the versioned path) while
    // an aggressive unversioning threshold makes the background thread tear
    // them down again — version/VLT nodes cycle continuously through the
    // pool, and the mode machinery sees both directions of the transition.
    let rt = MultiverseRuntime::start(MultiverseConfig {
        k1_versioned_after: 0,
        min_unversion_threshold: 1,
        l_delta_samples: 1,
        p_prefix_fraction: 1.0,
        ..MultiverseConfig::small()
    });
    let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
    let mut h = rt.register();
    let mut i = 0u64;
    out.push((
        "stm/multiverse/version_churn_mixed".into(),
        measure(11, 5_000, || {
            i += 1;
            let sum = h.txn(TxKind::ReadOnly, |tx| {
                let mut sum = 0u64;
                for v in vars.iter().skip((i as usize) % 8).take(8) {
                    sum = sum.wrapping_add(tx.read_var(v)?);
                }
                Ok(sum)
            });
            black_box(sum);
            h.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&vars[(i as usize) % WORDS], i)?;
                tx.write_var(&vars[(i as usize + 31) % WORDS], i)
            });
        }),
    ));
    drop(h);
    rt.shutdown();
}

/// The multi-thread scaling curves: each workload runs once per thread count
/// in `sweep`, landing in the output as `<name>@t<N>` so the baseline diff
/// compares whole curves point-wise. Three contention profiles:
///
/// * `version_churn_mixed` — the mixed versioned churn above with the
///   runtime shared: version/VLT slots flow continuously between the
///   threads' pool handles through the pool's shared free stack.
/// * `zipf_update` — read-modify-write on Zipf(θ=0.9)-skewed keys: the hot
///   head keys collide, so this curve is abort-heavy and prices the commit
///   clock's abort-path tick under contention.
/// * `partitioned_update` — each thread updates only its own key range, so
///   there are no data conflicts at all: any scaling loss left is shared
///   infrastructure (clock line, pool, stripe tables), the floor the
///   placement work targets.
fn sweep_measurements(sweep: &[usize], out: &mut Vec<(String, f64)>) {
    const WORDS: usize = 64;
    const ZIPF_KEYS: u64 = 256;

    for &threads in sweep {
        let rt = MultiverseRuntime::start(MultiverseConfig {
            k1_versioned_after: 0,
            min_unversion_threshold: 1,
            l_delta_samples: 1,
            p_prefix_fraction: 1.0,
            ..MultiverseConfig::small()
        });
        let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
        out.push((
            format!("stm/multiverse/version_churn_mixed@t{threads}"),
            measure_mt(threads, 7, 3_000, |t| {
                let mut h = rt.register();
                let vars = &vars;
                let mut i = (t as u64).wrapping_mul(0x9E37_79B9) + 1;
                move || {
                    i += 1;
                    let sum = h.txn(TxKind::ReadOnly, |tx| {
                        let mut sum = 0u64;
                        for v in vars.iter().skip((i as usize) % 8).take(8) {
                            sum = sum.wrapping_add(tx.read_var(v)?);
                        }
                        Ok(sum)
                    });
                    black_box(sum);
                    h.txn(TxKind::ReadWrite, |tx| {
                        tx.write_var(&vars[(i as usize) % WORDS], i)?;
                        tx.write_var(&vars[(i as usize + 31) % WORDS], i)
                    });
                }
            }),
        ));
        rt.shutdown();

        let rt = MultiverseRuntime::start(MultiverseConfig::small());
        let vars: Vec<TVar<u64>> = (0..ZIPF_KEYS).map(TVar::new).collect();
        out.push((
            format!("stm/multiverse/zipf_update@t{threads}"),
            measure_mt(threads, 7, 3_000, |t| {
                let mut h = rt.register();
                let vars = &vars;
                let zipf = Zipf::new(ZIPF_KEYS, 0.9);
                let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ t as u64);
                move || {
                    let k = zipf.sample(&mut rng) as usize;
                    h.txn(TxKind::ReadWrite, |tx| {
                        let v = tx.read_var(&vars[k])?;
                        tx.write_var(&vars[k], v.wrapping_add(1))
                    });
                }
            }),
        ));
        rt.shutdown();

        let rt = MultiverseRuntime::start(MultiverseConfig::small());
        let vars: Vec<TVar<u64>> = (0..WORDS * threads).map(|i| TVar::new(i as u64)).collect();
        out.push((
            format!("stm/multiverse/partitioned_update@t{threads}"),
            measure_mt(threads, 7, 5_000, |t| {
                let mut h = rt.register();
                let mine = &vars[t * WORDS..(t + 1) * WORDS];
                let mut i = 0u64;
                move || {
                    i += 1;
                    h.txn(TxKind::ReadWrite, |tx| {
                        tx.write_var(&mine[(i as usize) % WORDS], i)?;
                        tx.write_var(&mine[(i as usize + 7) % WORDS], i)
                    });
                }
            }),
        ));
        rt.shutdown();
    }
}

/// The durability tax, priced as a back-to-back pair on the same workload
/// shape: `wal_off` runs with the commit tap compiled in but no active
/// session (the tap is one relaxed load), `wal_group_commit` runs against a
/// live WAL session so every commit appends its write set to the thread
/// buffer while the group-commit thread drains and fsyncs in the background.
/// The hot path never waits on IO, so the on/off gap is the append cost —
/// not disk latency. Each entry is its own baseline in BENCH_txset.json.
fn wal_measurements(out: &mut Vec<(String, f64)>) {
    const WORDS: usize = 64;

    let rt = MultiverseRuntime::start(MultiverseConfig::small());
    let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
    let mut h = rt.register();
    let mut i = 0u64;
    out.push((
        "stm/multiverse/wal_off_update_2_words".into(),
        measure(11, 20_000, || {
            i += 1;
            h.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&vars[(i as usize) % WORDS], i)?;
                tx.write_var(&vars[(i as usize + 7) % WORDS], i)
            });
        }),
    ));
    drop(h);
    rt.shutdown();

    let dir = std::env::temp_dir().join(format!("mv-bench-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rt = MultiverseRuntime::start(MultiverseConfig::small());
    let vars: Vec<TVar<u64>> = (0..WORDS).map(|i| TVar::new(i as u64)).collect();
    let handle = wal::start(wal::WalConfig::new(&dir)).expect("start wal session");
    let mut h = rt.register();
    let mut i = 0u64;
    out.push((
        "stm/multiverse/wal_group_commit_update_2_words".into(),
        measure(11, 20_000, || {
            i += 1;
            h.txn(TxKind::ReadWrite, |tx| {
                tx.write_var(&vars[(i as usize) % WORDS], i)?;
                tx.write_var(&vars[(i as usize + 7) % WORDS], i)
            });
        }),
    ));
    drop(h);
    let finish = handle.finish();
    assert!(
        !finish.crashed && !finish.failed,
        "bench WAL session ended dirty"
    );
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Structure-node churn on the pooled structures: every insert allocates a
/// node from the size-classed arena and every remove retires one through
/// EBR, so these entries track the whole
/// alloc → TM-init → publish → retire → recycle round trip on the TM the
/// paper evaluates (plus its version-node arena).
fn structure_measurements(out: &mut Vec<(String, f64)>) {
    const KEYS: u64 = 64;
    let rt = MultiverseRuntime::start(MultiverseConfig::small());
    let mut h = rt.register();

    // Sliding-window insert/remove on the sorted list: one node allocated
    // and one retired per iteration, traversals a few nodes long.
    let list = TxList::new();
    for k in 0..KEYS / 2 {
        list.insert(&mut h, k * 2 + 1, k);
    }
    let mut i = 0u64;
    out.push((
        "structs/multiverse/list_insert_remove".into(),
        measure(11, 5_000, || {
            i += 1;
            let k = i % KEYS;
            black_box(list.insert(&mut h, k + 1, k));
            black_box(list.remove(&mut h, ((i + KEYS / 2) % KEYS) + 1));
        }),
    ));
    drop(list);

    // Mixed (a,b)-tree workload: point updates against occasional splits
    // (fresh 512-byte-class nodes) plus read-only lookups and range scans.
    let tree = TxAbTree::new();
    for k in 0..KEYS {
        tree.insert(&mut h, k + 1, k);
    }
    let mut j = 0u64;
    out.push((
        "structs/multiverse/abtree_mixed".into(),
        measure(11, 5_000, || {
            j += 1;
            let k = j % KEYS;
            match j % 4 {
                0 => {
                    black_box(tree.insert(&mut h, k + 1, k));
                }
                1 => {
                    black_box(tree.remove(&mut h, ((j + KEYS / 2) % KEYS) + 1));
                }
                2 => {
                    black_box(tree.contains(&mut h, k + 1));
                }
                _ => {
                    black_box(tree.range_query(&mut h, k + 1, (k + 16).min(KEYS) + 1));
                }
            }
        }),
    ));
    drop(tree);

    let stats = rt.stats();
    println!(
        "structs pool_class: allocs={} hits={} misses={} retires={} recycled={} ({} bytes pooled)",
        stats.pool_class_allocs,
        stats.pool_class_hits,
        stats.pool_class_misses,
        stats.pool_class_retires,
        stats.pool_class_recycled,
        txstructs::node::pool_total_bytes(),
    );
    drop(h);
    rt.shutdown();
}

/// The store front door, priced over real loopback TCP: a blocking get
/// round trip (protocol encode → server decode → one read-only commit →
/// response) and the pipelined path, where a window of single-op puts is
/// in flight at once so the server coalesces them into shared commits —
/// the per-op number is the amortized cost the OLTP driver actually pays.
fn server_measurements(out: &mut Vec<(String, f64)>) {
    const KEYS: u64 = 64;
    const WINDOW: usize = 16;
    let served = harness::serve(
        harness::TmKind::Multiverse,
        harness::RuntimeScale::Test,
        &store::StoreSpec {
            spaces: vec![store::SpaceKind::AbTree],
            audit_keys: 0,
            hash_buckets: 1024,
        },
        store::ServerConfig::default(),
    )
    .expect("store server starts");
    let mut c = store::Client::connect(served.addr()).expect("client connects");
    for k in 0..KEYS {
        c.put(0, k, k).expect("prefill");
    }

    let mut i = 0u64;
    out.push((
        "server/multiverse/get_roundtrip".into(),
        measure(11, 2_000, || {
            i += 1;
            black_box(c.get(0, i % KEYS).expect("get round trip"));
        }),
    ));

    let mut j = 0u64;
    let per_window = measure(11, 200, || {
        let mut ids = [0u64; WINDOW];
        for slot in ids.iter_mut() {
            j += 1;
            *slot = c
                .send(vec![store::kv::Op::Put {
                    space: 0,
                    key: j % KEYS,
                    val: j,
                }])
                .expect("pipelined send");
        }
        for id in ids {
            let resp = c.recv().expect("pipelined recv");
            assert_eq!(resp.id(), id, "responses arrive in request order");
        }
    });
    out.push((
        "server/multiverse/pipelined_put_per_op".into(),
        per_window / WINDOW as f64,
    ));

    drop(c);
    let report = served.finish();
    let p = tm_api::stats::process_stats();
    println!(
        "server counters: connections={} requests={} batches={} protocol_errors={} \
         (process-wide {}/{}/{}/{})",
        report.connections,
        report.requests,
        report.batches,
        report.protocol_errors,
        p.store_connections.get(),
        p.store_requests.get(),
        p.store_batches.get(),
        p.store_protocol_errors.get(),
    );
}

/// Parse the committed baseline: lines of the form `"name": 123.45[,]`.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line.split_once("\": ") else {
            continue;
        };
        let name = name.trim_start_matches('"');
        if name == "unit" {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            out.push((name.to_string(), v));
        }
    }
    out
}

/// Warn-only regression check against the baseline entries: prints the
/// per-entry table and returns each known entry's delta (a fraction).
fn check_against_baseline(
    results: &[(String, f64)],
    baseline: &[(String, f64)],
    baseline_path: &str,
    tolerance: f64,
) -> Vec<(String, f64)> {
    println!(
        "\n--check vs {baseline_path} (tolerance {:.0}%)",
        tolerance * 100.0
    );
    println!(
        "{:<50} {:>10} {:>10} {:>9}",
        "entry", "base", "now", "delta"
    );
    let mut deltas = Vec::new();
    for (name, now) in results {
        let Some((_, base)) = baseline.iter().find(|(n, _)| n == name) else {
            println!("{name:<50} {:>10} {now:>10.1} {:>9}", "-", "new");
            continue;
        };
        let delta = (now - base) / base;
        let flag = if delta > tolerance {
            "  WARN: regression"
        } else {
            ""
        };
        println!(
            "{name:<50} {base:>10.1} {now:>10.1} {:>+8.1}%{flag}",
            delta * 100.0
        );
        deltas.push((name.clone(), delta));
    }
    let regressions = deltas.iter().filter(|(_, d)| *d > tolerance).count();
    if regressions == 0 {
        println!("--check: no entry regressed beyond the tolerance");
    } else {
        println!("--check: {regressions} entr{} regressed beyond the tolerance (warn-only, not failing the job)",
                 if regressions == 1 { "y" } else { "ies" });
    }
    deltas
}

const USAGE: &str =
    "usage: bench_trajectory [out.json] [--sweep 1,2,4] [--check <tolerance>] [--baseline <path>]";

/// Parse a `--sweep` thread-count list: comma-separated, each in 1..=1024,
/// de-duplicated but order-preserving (the curve is written in list order).
fn parse_sweep(raw: &str) -> Result<Vec<usize>, String> {
    let mut sweep = Vec::new();
    for part in raw.split(',') {
        let part = part.trim();
        let n: usize = part
            .parse()
            .map_err(|_| format!("--sweep entry `{part}` is not a thread count"))?;
        if n == 0 || n > 1024 {
            return Err(format!("--sweep entry `{part}` must be in 1..=1024"));
        }
        if !sweep.contains(&n) {
            sweep.push(n);
        }
    }
    if sweep.is_empty() {
        return Err("--sweep requires at least one thread count".into());
    }
    Ok(sweep)
}

/// Parsed command line. Every malformed input is a usage-style `Err` (no
/// `.expect` panics): a typo'd flag or a missing/garbage flag argument
/// silently becoming the output path would disable the regression check
/// with exit code 0.
#[derive(Debug, PartialEq)]
struct Args {
    out_path: String,
    check_tolerance: Option<f64>,
    baseline_path: String,
    sweep: Vec<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        out_path: "BENCH_txset.json".to_string(),
        check_tolerance: None,
        baseline_path: "BENCH_txset.json".to_string(),
        sweep: vec![1, 2, 4],
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--sweep" => {
                let raw = it
                    .next()
                    .ok_or("--sweep requires a comma-separated thread-count list, e.g. 1,2,4")?;
                parsed.sweep = parse_sweep(raw)?;
            }
            "--check" => {
                let raw = it
                    .next()
                    .ok_or("--check requires a fractional tolerance, e.g. 0.30")?;
                let tol: f64 = raw
                    .parse()
                    .map_err(|_| format!("--check tolerance `{raw}` is not a number"))?;
                if !tol.is_finite() || tol < 0.0 {
                    return Err(format!(
                        "--check tolerance must be a non-negative fraction, got `{raw}`"
                    ));
                }
                parsed.check_tolerance = Some(tol);
            }
            "--baseline" => {
                parsed.baseline_path = it.next().ok_or("--baseline requires a path")?.clone();
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}"));
            }
            other => parsed.out_path = other.to_string(),
        }
    }
    Ok(parsed)
}

/// Every entry, in output order.
fn measure_all(sweep: &[usize]) -> Vec<(String, f64)> {
    let mut results: Vec<(String, f64)> = Vec::new();
    txset_measurements(&mut results);
    tm_measurements(
        "multiverse",
        MultiverseRuntime::start(MultiverseConfig::small()),
        &mut results,
    );
    versioned_measurements(&mut results);
    sweep_measurements(sweep, &mut results);
    wal_measurements(&mut results);
    structure_measurements(&mut results);
    server_measurements(&mut results);
    tm_measurements("dctl", Arc::new(DctlRuntime::with_defaults()), &mut results);
    tm_measurements("tl2", Arc::new(Tl2Runtime::with_defaults()), &mut results);
    tm_measurements("norec", Arc::new(NorecRuntime::new()), &mut results);
    tm_measurements(
        "tinystm",
        Arc::new(TinyStmRuntime::with_defaults()),
        &mut results,
    );
    substrate_measurements(&mut results);
    results
}

/// Measure with `measure_all`, write the medians to `args.out_path` and,
/// under `--check`, return each known entry's delta against the baseline.
/// The baseline is read before anything is measured or written, because
/// the output path may be the baseline itself.
fn run(
    args: &Args,
    measure_all: impl FnOnce(&[usize]) -> Vec<(String, f64)>,
) -> Vec<(String, f64)> {
    let baseline = args
        .check_tolerance
        .map(|_| std::fs::read_to_string(&args.baseline_path).map(|t| parse_baseline(&t)));

    let results = measure_all(&args.sweep);
    for (name, ns) in &results {
        println!("{name:<50} {ns:>10.1} ns/iter");
    }

    let mut json = String::from("{\n  \"unit\": \"ns_per_iter\",\n  \"results\": {\n");
    for (i, (name, ns)) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!("    \"{name}\": {ns:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&args.out_path, json).expect("write benchmark output file");
    println!("\nwrote {}", args.out_path);

    match (args.check_tolerance, baseline) {
        (Some(tol), Some(Ok(baseline))) => {
            check_against_baseline(&results, &baseline, &args.baseline_path, tol)
        }
        (_, Some(Err(e))) => {
            println!(
                "--check: cannot read baseline {}: {e} (skipping)",
                args.baseline_path
            );
            Vec::new()
        }
        _ => Vec::new(),
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_trajectory: {e}");
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    run(&args, measure_all);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_and_positional_output_path() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.out_path, "BENCH_txset.json");
        assert_eq!(a.check_tolerance, None);
        let a = parse_args(&strings(&["other.json"])).unwrap();
        assert_eq!(a.out_path, "other.json");
    }

    #[test]
    fn check_and_baseline_parse() {
        let a = parse_args(&strings(&["--check", "0.30", "--baseline", "base.json"])).unwrap();
        assert_eq!(a.check_tolerance, Some(0.30));
        assert_eq!(a.baseline_path, "base.json");
    }

    #[test]
    fn malformed_flags_are_errors_not_panics() {
        assert!(parse_args(&strings(&["--check"])).is_err());
        assert!(parse_args(&strings(&["--check", "fast"])).is_err());
        assert!(parse_args(&strings(&["--check", "-0.5"])).is_err());
        assert!(parse_args(&strings(&["--check", "inf"])).is_err());
        assert!(parse_args(&strings(&["--baseline"])).is_err());
        assert!(parse_args(&strings(&["--chekc", "0.3"])).is_err());
    }

    #[test]
    fn check_in_place_compares_against_the_old_baseline() {
        // Regression: with the output path equal to the baseline, the fresh
        // results used to be written first and then compared with
        // themselves (+0.0% everywhere).
        let dir = std::env::temp_dir().join(format!("bench-trajectory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_txset.json").display().to_string();
        std::fs::write(
            &path,
            "{\n  \"unit\": \"ns_per_iter\",\n  \"results\": {\n    \"a\": 100.00,\n    \"b\": 40.00\n  }\n}\n",
        )
        .unwrap();
        let args = parse_args(&strings(&[&path, "--check", "0.30", "--baseline", &path])).unwrap();
        let deltas = run(&args, |_| {
            vec![("a".into(), 150.0), ("b".into(), 30.0), ("c".into(), 1.0)]
        });
        assert_eq!(
            deltas,
            vec![("a".to_string(), 0.5), ("b".to_string(), -0.25)]
        );
        let written = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            parse_baseline(&written),
            vec![
                ("a".to_string(), 150.0),
                ("b".to_string(), 30.0),
                ("c".to_string(), 1.0)
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_parses_dedups_and_validates() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a.sweep, vec![1, 2, 4]);
        let a = parse_args(&strings(&["--sweep", "1,2,4,8,16"])).unwrap();
        assert_eq!(a.sweep, vec![1, 2, 4, 8, 16]);
        let a = parse_args(&strings(&["--sweep", "4, 2,4"])).unwrap();
        assert_eq!(a.sweep, vec![4, 2]);
        assert!(parse_args(&strings(&["--sweep"])).is_err());
        assert!(parse_args(&strings(&["--sweep", ""])).is_err());
        assert!(parse_args(&strings(&["--sweep", "0"])).is_err());
        assert!(parse_args(&strings(&["--sweep", "2000"])).is_err());
        assert!(parse_args(&strings(&["--sweep", "two"])).is_err());
    }
}
