//! The loopback KV workloads: `kv-blocking`, `kv-pipelined` and
//! `kv-durable`. A `store::Server` on Multiverse serves one `AbTree`
//! space, prefilled like the in-process tree; closed-loop windowed clients
//! (at most two connections) time every request from send to receive and
//! check every response.

use crate::gen::{shuffled, stream, streams};
use crate::stats::{quantile, ratio};
use crate::trace::{self, SpanBuf};
use crate::tree::{mv_config, KEY_RANGE};
use crate::Measured;
use multiverse::MultiverseRuntime;
use rand::{Rng, RngCore};
use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use store::proto::{
    decode_request, decode_response, encode_request, encode_response, peek_frame, FrameStatus,
};
use store::{
    Client, Op, OpResult, Request, Response, Server, ServerConfig, SpaceKind, Store, StoreSpec,
};
use tm_api::{TmHandle, TmRuntime};

/// Keys below this are covered by the store's presence audit when the WAL
/// is on; one pipelined request in 16 goes there.
const AUDIT_KEYS: u64 = 1024;
/// In the traced pass, one request in this many gets spans and a replay.
const SAMPLE_EVERY: u64 = 64;

#[derive(Clone, Copy, PartialEq)]
pub enum Traffic {
    /// 90 % `Get` / 10 % `Put`, one op per request, keys of `0..200 000`.
    GetPut,
    /// `[Put k, Get k]`: 15 in 16 on a key never used before, 1 in 16 on
    /// a key below `AUDIT_KEYS`.
    PutThenGet,
}

pub struct KvCfg {
    pub workers: usize,
    pub conns: usize,
    pub window: usize,
    pub requests_per_conn: u64,
    pub traffic: Traffic,
    pub wal: bool,
    pub cap: Duration,
    /// How long both CPUs spin before the traffic starts (see `condition`).
    pub condition: Duration,
}

pub struct KvSys {
    rt: Arc<MultiverseRuntime>,
    server: Server,
    clients: Vec<Client>,
    wal_dir: Option<PathBuf>,
}

pub fn value_of(key: u64) -> u64 {
    key ^ 0x5bd1_e995
}

fn empty_store(audit_keys: u64) -> Store {
    Store::new(&StoreSpec {
        spaces: vec![SpaceKind::AbTree],
        audit_keys,
        ..StoreSpec::default()
    })
}

/// Whether the prefill holds `key`: the even keys, except the audited
/// range, which starts empty so that every write to it happens under the
/// WAL session and the recovered log must account for all of it.
fn prefilled(key: u64) -> bool {
    (AUDIT_KEYS..KEY_RANGE).contains(&key) && key.is_multiple_of(2)
}

/// Load the prefill through `Store::execute`, 256 puts per transaction, in
/// a seed-shuffled order.
pub fn prefill<H: TmHandle>(store: &Store, h: &mut H, seed: u64) {
    let keys = shuffled((0..KEY_RANGE).filter(|&k| prefilled(k)).collect(), seed);
    for chunk in keys.chunks(256) {
        let ops: Vec<Op> = chunk
            .iter()
            .map(|&key| Op::Put {
                space: 0,
                key,
                val: value_of(key),
            })
            .collect();
        store.execute(h, &ops);
    }
}

/// Runtime start, prefill, server start (with its WAL session) and
/// connect: what `setup_s` times.
pub fn setup(cfg: &KvCfg, seed: u64, out_dir: &Path) -> io::Result<KvSys> {
    let rt = MultiverseRuntime::start(mv_config());
    let wal_dir = cfg
        .wal
        .then(|| out_dir.join(format!("wal-{}", std::process::id())));
    if let Some(dir) = &wal_dir {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
    }
    let store = empty_store(if cfg.wal { AUDIT_KEYS } else { 0 });
    prefill(&store, &mut rt.register(), seed);
    let server = Server::start(
        &rt,
        Arc::new(store),
        ServerConfig {
            workers: cfg.workers,
            wal: wal_dir.as_ref().map(wal::WalConfig::new),
            ..ServerConfig::default()
        },
    )?;
    let clients = (0..cfg.conns)
        .map(|_| Client::connect(server.local_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    Ok(KvSys {
        rt,
        server,
        clients,
        wal_dir,
    })
}

pub fn teardown(sys: KvSys) {
    drop(sys.clients);
    sys.server.shutdown();
    sys.rt.shutdown();
    if let Some(dir) = sys.wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What a request's response must be.
enum Expect {
    Get(Option<u64>),
    Put(bool),
    PutThenGet(bool, u64),
}

impl Expect {
    fn holds(&self, results: &[OpResult]) -> bool {
        match (self, results) {
            (Expect::Get(v), [OpResult::Value(got)]) => got == v,
            (Expect::Put(new), [OpResult::Did(did)]) => did == new,
            (Expect::PutThenGet(new, val), [OpResult::Did(did), OpResult::Value(got)]) => {
                did == new && *got == Some(*val)
            }
            _ => false,
        }
    }
}

/// One connection's request stream. The connection is the only writer of
/// the keys it uses, so it knows the answer to every request it sends.
struct Generator {
    rng: rand::rngs::StdRng,
    traffic: Traffic,
    conn: u64,
    present: Vec<bool>,
    sent: u64,
    puts: u64,
}

impl Generator {
    fn new(traffic: Traffic, conn: u64, seed: u64) -> Generator {
        let tracked = match traffic {
            Traffic::GetPut => KEY_RANGE,
            Traffic::PutThenGet => AUDIT_KEYS,
        };
        Generator {
            rng: stream(seed, streams::worker(0, conn)),
            traffic,
            conn,
            present: (0..tracked).map(prefilled).collect(),
            sent: 0,
            puts: 0,
        }
    }

    fn next(&mut self) -> (Vec<Op>, Expect) {
        self.sent += 1;
        let space = 0;
        match self.traffic {
            Traffic::GetPut => {
                let key = self.rng.gen_range(0..KEY_RANGE);
                if self.rng.gen_range(0..10) > 0 {
                    let val = self.present[key as usize].then(|| value_of(key));
                    (vec![Op::Get { space, key }], Expect::Get(val))
                } else {
                    self.puts += 1;
                    let new = !std::mem::replace(&mut self.present[key as usize], true);
                    let val = value_of(key);
                    (vec![Op::Put { space, key, val }], Expect::Put(new))
                }
            }
            Traffic::PutThenGet => {
                self.puts += 1;
                // The low bit keeps the two connections' keys disjoint.
                let (key, new) = if self.sent.is_multiple_of(16) {
                    let key = (self.rng.gen_range(0..AUDIT_KEYS / 2) << 1) | self.conn;
                    (
                        key,
                        !std::mem::replace(&mut self.present[key as usize], true),
                    )
                } else {
                    (
                        (1 << 62) | (self.rng.next_u64() >> 3 << 1) | self.conn,
                        true,
                    )
                };
                let val = value_of(key);
                (
                    vec![Op::Put { space, key, val }, Op::Get { space, key }],
                    Expect::PutThenGet(new, val),
                )
            }
        }
    }
}

/// The client process's own copy of the store, on its own runtime: sampled
/// requests are replayed through it layer by layer.
struct Shadow {
    rt: Arc<MultiverseRuntime>,
    store: Store,
}

/// The payload of the one whole frame in `wire`, checked as the server
/// checks it.
pub fn frame_payload(wire: &[u8]) -> Option<&[u8]> {
    match peek_frame(wire) {
        FrameStatus::Ready { start, end } => Some(&wire[start..end]),
        _ => None,
    }
}

/// Replay one request through the layers a server request crosses, one
/// child span per layer, all carrying the request's id.
fn replay<H: TmHandle>(
    buf: &mut SpanBuf,
    parent: u64,
    id: u64,
    ops: Vec<Op>,
    shadow: &Shadow,
    h: &mut H,
) {
    let request = Request { id, ops };
    let mut wire = Vec::with_capacity(64);
    buf.span(parent, "store.proto.encode_request", id, || {
        encode_request(&request, &mut wire)
    });
    let decoded = buf.span(parent, "store.proto.decode_request", id, || {
        frame_payload(&wire).and_then(decode_request)
    });
    let Some(decoded) = decoded else { return };
    if buf
        .span(parent, "store.kv.validate", id, || {
            shadow.store.validate(&decoded.ops)
        })
        .is_err()
    {
        return;
    }
    let results = buf.span(parent, "store.kv.execute", id, || {
        shadow.store.execute(h, &decoded.ops)
    });
    let response = Response::Ok { id, results };
    wire.clear();
    buf.span(parent, "store.proto.encode_response", id, || {
        encode_response(&response, &mut wire)
    });
    buf.span(parent, "store.proto.decode_response", id, || {
        frame_payload(&wire).and_then(decode_response)
    });
}

#[derive(Default)]
struct ClientOut {
    lat_ns: Vec<f64>,
    wall_ns: u64,
    failed: u64,
    undone: u64,
    puts: u64,
    error: Option<String>,
    buf: Option<SpanBuf>,
}

struct InFlight {
    id: u64,
    sent_at: Instant,
    expect: Expect,
    /// Traced pass only: the ops to replay.
    sampled: Option<Vec<Op>>,
}

fn client_loop(
    client: &mut Client,
    conn: u64,
    cfg: &KvCfg,
    seed: u64,
    trace: Option<(Instant, &Shadow)>,
) -> ClientOut {
    let mut gen = Generator::new(cfg.traffic, conn, seed);
    let mut out = ClientOut::default();
    let mut buf = trace.map(|(origin, _)| SpanBuf::new(origin, conn));
    let mut shadow_handle = trace.map(|(_, shadow)| shadow.rt.register());
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(cfg.window);
    let total = cfg.requests_per_conn;
    let start = Instant::now();
    let result: io::Result<()> = (|| {
        while gen.sent < total || !inflight.is_empty() {
            while gen.sent < total && inflight.len() < cfg.window {
                if start.elapsed() > cfg.cap {
                    out.undone = total - gen.sent;
                    gen.sent = total;
                    break;
                }
                let (ops, expect) = gen.next();
                let sampled =
                    (buf.is_some() && gen.sent.is_multiple_of(SAMPLE_EVERY)).then(|| ops.clone());
                let sent_at = Instant::now();
                let id = client.send(ops)?;
                inflight.push_back(InFlight {
                    id,
                    sent_at,
                    expect,
                    sampled,
                });
            }
            let Some(head) = inflight.pop_front() else {
                break;
            };
            let response = client.recv()?;
            let received_at = Instant::now();
            out.lat_ns
                .push((received_at - head.sent_at).as_nanos() as f64);
            // Responses must arrive in request order, with the right answer.
            let ok = match &response {
                Response::Ok { id, results } => *id == head.id && head.expect.holds(results),
                Response::Err { .. } => false,
            };
            out.failed += u64::from(!ok);
            if let (Some(ops), Some(buf), Some((_, shadow)), Some(h)) =
                (head.sampled, &mut buf, trace, &mut shadow_handle)
            {
                let call = buf.open();
                buf.close(
                    call,
                    trace::ROOT,
                    "store.client.call",
                    head.id,
                    head.sent_at,
                    received_at,
                );
                replay(buf, call, head.id, ops, shadow, h);
            }
        }
        Ok(())
    })();
    out.wall_ns = start.elapsed().as_nanos() as u64;
    if let Err(e) = result {
        out.undone += total - out.lat_ns.len() as u64 - out.undone;
        out.error = Some(e.to_string());
    }
    out.puts = gen.puts;
    out.buf = buf;
    out
}

/// Spin on both CPUs for `dur`. On this VM the latency of a loopback
/// wake-up depends on what the CPUs did in the seconds before (the same
/// blocking request has a median of 13 us after ten idle seconds and 78 us
/// after two busy ones), so every KV measurement starts from the same
/// state: the one a machine under load is in.
pub fn condition(dur: Duration) {
    let end = Instant::now() + dur;
    std::thread::scope(|s| {
        for _ in 0..crate::tree::THREADS {
            s.spawn(|| {
                while Instant::now() < end {
                    std::hint::spin_loop();
                }
            });
        }
    });
}

/// Run the traffic, shut the server down gracefully, check the outputs
/// and (with the WAL on) recover the log and compare it with memory.
pub fn run(sys: KvSys, cfg: &KvCfg, seed: u64, trace: Option<Instant>) -> Measured {
    let KvSys {
        rt,
        server,
        clients,
        wal_dir,
    } = sys;
    let shadow = trace.map(|_| {
        let rt = MultiverseRuntime::start(mv_config());
        let store = empty_store(0);
        prefill(&store, &mut rt.register(), seed);
        Shadow { rt, store }
    });
    condition(cfg.condition);
    let started = Instant::now();
    let go = Barrier::new(clients.len());
    let outs: Vec<ClientOut> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                let (go, shadow) = (&go, shadow.as_ref());
                s.spawn(move || {
                    go.wait();
                    client_loop(&mut client, conn as u64, cfg, seed, trace.zip(shadow))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut m = Measured::default();
    let (mut puts, mut bufs) = (0, Vec::new());
    for out in outs {
        m.attempted += cfg.requests_per_conn;
        m.failed += out.failed + out.undone;
        m.ops_per_s += ratio(out.lat_ns.len() as f64, out.wall_ns as f64 / 1e9);
        puts += out.puts;
        if out.failed > 0 {
            m.checks
                .push(format!("{} responses out of order or wrong", out.failed));
        }
        if out.undone > 0 {
            m.checks.push(format!(
                "{} requests undone ({})",
                out.undone,
                out.error.as_deref().unwrap_or("safety cap")
            ));
        }
        m.lat_ns.extend(out.lat_ns);
        bufs.extend(out.buf);
    }
    m.spans = trace::collect("phase.kv", trace, started, bufs);
    if let Some(shadow) = shadow {
        shadow.rt.shutdown();
    }

    let store = Arc::clone(server.store());
    let t = Instant::now();
    let report = server.shutdown();
    let shutdown_ms = t.elapsed().as_secs_f64() * 1e3;
    if report.protocol_errors != 0 {
        m.checks
            .push(format!("{} protocol errors", report.protocol_errors));
    }
    let audit_failures = store.audit_failures();
    if !audit_failures.is_empty() {
        m.checks.push(format!(
            "{} audit failures, first: {}",
            audit_failures.len(),
            audit_failures[0]
        ));
    }
    let mut sorted = m.lat_ns.clone();
    m.layer = vec![
        (
            "store.server.req_p999_us",
            quantile(&mut sorted, 0.999) / 1e3,
        ),
        (
            "store.server.requests_per_batch",
            ratio(report.requests as f64, report.batches as f64),
        ),
        (
            "store.server.protocol_errors",
            report.protocol_errors as f64,
        ),
        ("store.server.shutdown_ms", shutdown_ms),
    ];
    if let (Some(dir), Some(finish)) = (&wal_dir, &report.wal) {
        if finish.crashed || finish.failed {
            m.checks
                .push("the WAL session ended crashed or failed".to_string());
        }
        let t = Instant::now();
        match wal::recover(dir, &wal::RecoverOpts::default()) {
            Ok(recovered) => {
                let recover_ms = t.elapsed().as_secs_f64() * 1e3;
                if recovered.truncated_records != 0 {
                    m.checks.push(format!(
                        "recovery truncated {} records",
                        recovered.truncated_records
                    ));
                }
                let lost = store
                    .audit_addrs()
                    .iter()
                    .zip(store.audit_values_direct())
                    .filter(|(addr, live)| {
                        recovered.values.get(&(**addr as u64)).copied().unwrap_or(0) != *live
                    })
                    .count();
                if lost != 0 {
                    m.checks.push(format!(
                        "{lost} audit words differ between memory and the recovered log"
                    ));
                }
                m.layer.extend([
                    ("wal.recover_ms", recover_ms),
                    ("wal.recovered_records", recovered.applied_records as f64),
                ]);
            }
            Err(e) => m.checks.push(format!("recovery failed: {e}")),
        }
        m.layer.extend([
            (
                "wal.appends_per_fsync",
                ratio(finish.appends as f64, finish.fsyncs as f64),
            ),
            (
                "wal.bytes_per_update_op",
                ratio(finish.bytes as f64, puts as f64),
            ),
            ("wal.fsyncs", finish.fsyncs as f64),
        ]);
        let _ = std::fs::remove_dir_all(dir);
    }
    rt.shutdown();
    m
}
