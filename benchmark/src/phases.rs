//! Single-thread isolated phases of the traced pass: each layer's public
//! functions timed alone, as the median over batches of calls.

use crate::gen::{stream, streams};
use crate::kv::{frame_payload, value_of};
use crate::tree::{mv_config, TreeSys, BLOCK, KEY_RANGE, SPAN_BLOCKS};
use baselines::DctlRuntime;
use multiverse::{ForcedMode, MultiverseConfig, MultiverseRuntime};
use rand::Rng;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use store::proto::{decode_request, decode_response, encode_request, encode_response};
use store::{Op, OpResult, Request, Response, Store, StoreSpec};
use tm_api::{TVar, TmHandle, TmRuntime, Transaction, TxKind};
use txstructs::TxSet;

type Metrics = Vec<(&'static str, f64)>;

/// Median ns per call of `f` over `samples` batches of `iters` calls,
/// after one warm-up batch.
pub fn measure(samples: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut batch = || {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        t.elapsed().as_nanos() as f64 / iters as f64
    };
    batch();
    crate::stats::median((0..samples).map(|_| batch()).collect())
}

const WORDS: usize = 64;

fn read_only<H: TmHandle>(h: &mut H, vars: &[TVar<u64>], n: usize) -> f64 {
    measure(11, 20_000, || {
        let sum = h.txn(TxKind::ReadOnly, |tx| {
            let mut sum = 0u64;
            for v in &vars[..n] {
                sum = sum.wrapping_add(tx.read_var(v)?);
            }
            Ok(sum)
        });
        black_box(sum);
    })
}

fn update_2<H: TmHandle>(h: &mut H, vars: &[TVar<u64>]) -> f64 {
    let mut i = 0usize;
    measure(11, 20_000, || {
        i += 1;
        h.txn(TxKind::ReadWrite, |tx| {
            tx.write_var(&vars[i % WORDS], i as u64)?;
            tx.write_var(&vars[(i + 7) % WORDS], i as u64)
        });
    })
}

fn words() -> Vec<TVar<u64>> {
    (0..WORDS).map(|i| TVar::new(i as u64)).collect()
}

/// Raw `TVar` transactions through `TmHandle::txn`: Multiverse pinned to
/// Mode Q, DCTL, and Multiverse pinned to Mode U with `k1 = 0` (every
/// read-only transaction versioned).
pub fn tm_phases() -> Metrics {
    let mut out = Metrics::new();
    let pinned = |mode, k1| {
        MultiverseRuntime::start(MultiverseConfig {
            forced_mode: Some(mode),
            k1_versioned_after: k1,
            ..mv_config()
        })
    };

    let rt = pinned(ForcedMode::ModeQ, mv_config().k1_versioned_after);
    let (vars, mut h) = (words(), rt.register());
    out.push((
        "multiverse.begin_commit_empty_ns",
        measure(11, 20_000, || h.txn(TxKind::ReadOnly, |_| Ok(()))),
    ));
    let ro8 = read_only(&mut h, &vars, 8);
    let ro64 = read_only(&mut h, &vars, WORDS);
    out.push(("multiverse.ro8_q_ns", ro8));
    out.push(("multiverse.read_q_ns", (ro64 - ro8) / (WORDS - 8) as f64));
    out.push(("multiverse.upd2_q_ns", update_2(&mut h, &vars)));
    drop(h);
    rt.shutdown();

    let rt = Arc::new(DctlRuntime::with_defaults());
    let (vars, mut h) = (words(), rt.register());
    out.push(("baselines.dctl_ro8_ns", read_only(&mut h, &vars, 8)));
    out.push(("baselines.dctl_upd2_ns", update_2(&mut h, &vars)));
    drop(h);
    rt.shutdown();

    let rt = pinned(ForcedMode::ModeU, 0);
    let (vars, mut h) = (words(), rt.register());
    // Writers version what they write in Mode U: after this every word
    // has a version list for the versioned reads below to walk.
    out.push(("multiverse.upd2_u_ns", update_2(&mut h, &vars)));
    let ro8 = read_only(&mut h, &vars, 8);
    let ro64 = read_only(&mut h, &vars, WORDS);
    out.push(("multiverse.ro8_u_ns", ro8));
    out.push((
        "multiverse.read_versioned_ns",
        (ro64 - ro8) / (WORDS - 8) as f64,
    ));
    drop(h);
    rt.shutdown();
    out
}

/// Structure operations on the prefilled tree, Mode Q, nothing else
/// running.
pub fn struct_phases(sys: &TreeSys<MultiverseRuntime>, seed: u64) -> Metrics {
    let mut h = sys.rt.register();
    let mut rng = stream(seed, streams::PHASES);
    let get = measure(11, 20_000, || {
        black_box(sys.tree.contains(&mut h, rng.gen_range(0..KEY_RANGE)));
    });
    // Odd keys are absent from the prefill: each pair inserts and removes.
    let pair = measure(11, 10_000, || {
        let key = rng.gen_range(0..KEY_RANGE) | 1;
        black_box(sys.tree.insert(&mut h, key, key) && sys.tree.remove(&mut h, key));
    });
    let mut keys = 0usize;
    let scan = measure(5, 4, || {
        let lo = rng.gen_range(0..=KEY_RANGE / BLOCK - SPAN_BLOCKS) * BLOCK;
        keys = sys
            .tree
            .range_query(&mut h, lo, lo + SPAN_BLOCKS * BLOCK - 1);
    });
    vec![
        ("txstructs.get_ns", get),
        ("txstructs.insert_remove_ns", pair / 2.0),
        ("txstructs.scan_quiet_ns_per_key", scan / keys.max(1) as f64),
    ]
}

fn put_get(n: u64, first_key: u64) -> Vec<Op> {
    (0..n)
        .flat_map(|i| {
            let (space, key) = (0, first_key + i);
            [
                Op::Put {
                    space,
                    key,
                    val: value_of(key),
                },
                Op::Get { space, key },
            ]
        })
        .collect()
}

/// Encode and decode of a 1-op and a 16-op request and response; decode
/// includes the frame check (`peek_frame`), as on the server.
pub fn proto_phases() -> Metrics {
    let mut out = Metrics::new();
    let request = |ops| Request { id: 7, ops };
    let response = |results| Response::Ok { id: 7, results };
    let sixteen: Vec<OpResult> = (0..8)
        .flat_map(|i| [OpResult::Did(true), OpResult::Value(Some(i))])
        .collect();
    let cases = [
        (
            request(vec![Op::Get {
                space: 0,
                key: 12_345,
            }]),
            response(vec![OpResult::Value(Some(value_of(12_345)))]),
            [
                "store.proto.encode_req1_ns",
                "store.proto.decode_req1_ns",
                "store.proto.encode_resp1_ns",
                "store.proto.decode_resp1_ns",
            ],
        ),
        (
            request(put_get(8, 1 << 40)),
            response(sixteen),
            [
                "store.proto.encode_req16_ns",
                "store.proto.decode_req16_ns",
                "store.proto.encode_resp16_ns",
                "store.proto.decode_resp16_ns",
            ],
        ),
    ];
    for (req, resp, names) in &cases {
        let mut wire = Vec::with_capacity(1024);
        out.push((
            names[0],
            measure(11, 20_000, || {
                wire.clear();
                encode_request(black_box(req), &mut wire);
            }),
        ));
        if names[0] == "store.proto.encode_req1_ns" {
            out.push(("store.proto.req1_frame_bytes", wire.len() as f64));
        }
        out.push((
            names[1],
            measure(11, 20_000, || {
                black_box(frame_payload(black_box(&wire)).and_then(decode_request));
            }),
        ));
        out.push((
            names[2],
            measure(11, 20_000, || {
                wire.clear();
                encode_response(black_box(resp), &mut wire);
            }),
        ));
        out.push((
            names[3],
            measure(11, 20_000, || {
                black_box(frame_payload(black_box(&wire)).and_then(decode_response));
            }),
        ));
    }
    out
}

/// `Store::validate` / `Store::execute` in process, no socket. Puts insert
/// keys never used before, like the pipelined traffic.
pub fn kv_phases(seed: u64) -> Metrics {
    let rt = MultiverseRuntime::start(mv_config());
    let mut h = rt.register();
    let store = Store::new(&StoreSpec::default());
    crate::kv::prefill(&store, &mut h, seed);
    let mut rng = stream(seed, streams::PHASES);
    let get = [Op::Get {
        space: 0,
        key: 12_344,
    }];
    let validate = measure(11, 20_000, || {
        black_box(store.validate(black_box(&get)).is_ok());
    });
    let execute_get = measure(11, 20_000, || {
        let key = rng.gen_range(0..KEY_RANGE);
        black_box(store.execute(&mut h, &[Op::Get { space: 0, key }]));
    });
    let mut fresh = 1u64 << 40;
    let execute_put = measure(11, 10_000, || {
        fresh += 1;
        black_box(store.execute(&mut h, &put_get(1, fresh)[..1]));
    });
    let batch = measure(11, 2_000, || {
        let reqs: Vec<(u64, Vec<Op>)> = (0..8)
            .map(|i| {
                fresh += 1;
                (i, put_get(1, fresh))
            })
            .collect();
        black_box(store.execute_batch(&mut h, &reqs));
    });
    drop(h);
    rt.shutdown();
    vec![
        ("store.kv.validate_ns", validate),
        ("store.kv.execute_get_ns", execute_get),
        ("store.kv.execute_put_ns", execute_put),
        ("store.kv.execute_batch16_ns_per_op", batch / 16.0),
    ]
}

/// The loopback floor: one request-sized write and one response-sized
/// read against the benchmark's own echo thread — the syscalls and the
/// one wake-up no server design can avoid.
pub fn loopback_floor_us(frame_bytes: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut frame = vec![0u8; frame_bytes];
        while stream.read_exact(&mut frame).is_ok() {
            stream.write_all(&frame)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut frame = vec![0u8; frame_bytes];
    let mut io_error = None;
    let ns = measure(11, 2_000, || {
        let round = stream
            .write_all(&frame)
            .and_then(|()| stream.read_exact(&mut frame));
        io_error = round.err().or(io_error.take());
    });
    drop(stream);
    echo.join().expect("echo thread")?;
    io_error.map_or(Ok(ns / 1e3), Err)
}

/// The commit tap: `upd2` with a live WAL session minus `upd2` without
/// one, and how long closing the session (final flush) takes.
pub fn wal_phases(out_dir: &Path) -> std::io::Result<Metrics> {
    let rt = MultiverseRuntime::start(MultiverseConfig {
        forced_mode: Some(ForcedMode::ModeQ),
        ..mv_config()
    });
    let (vars, mut h) = (words(), rt.register());
    let off = update_2(&mut h, &vars);
    let dir = out_dir.join(format!("wal-tap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    let session = wal::start(wal::WalConfig::new(&dir))?;
    let on = update_2(&mut h, &vars);
    drop(h);
    let t = Instant::now();
    let finish = session.finish();
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if finish.crashed || finish.failed {
        return Err(std::io::Error::other(
            "the WAL session ended crashed or failed",
        ));
    }
    Ok(vec![("wal.tap_ns", on - off), ("wal.finish_ms", finish_ms)])
}
