//! The std-only network server: a `TcpListener` accept loop, per-connection
//! reader threads, and a fixed worker pool that owns the TM handles.
//!
//! ## Threading model
//!
//! * **Accept thread** — accepts connections and spawns one reader thread
//!   per connection (I/O only, no TM work).
//! * **Reader threads** — decode pipelined frames from their socket,
//!   validate requests, coalesce consecutive small requests into one *job*
//!   of at most [`ServerConfig::batch_max_ops`] ops, submit jobs to the
//!   worker queue, and write the responses back in request order. Torn or
//!   corrupt frames get a best-effort error response and a clean close —
//!   never a panic; client disconnects just end the reader.
//! * **Worker pool** — exactly [`ServerConfig::workers`] threads, each of
//!   which registers **one** TM handle at startup and keeps it for life.
//!   This pins each handle (and its `PoolHandle`/`ClassedHandle` arena
//!   affinity) to one OS thread, the ownership discipline the node arenas
//!   assume. Worker `i` is also pinned to CPU `i % available_parallelism()`
//!   before it registers (best-effort: a worker whose pin the kernel
//!   refuses floats). The pin is kept because it measures as a win: with
//!   only the pin removed, `mvbench` kv-blocking `ops_per_s` was lower in 6
//!   of 6 interleaved pairs on a 2-CPU VM (seeds 1–6, `--seconds 10`;
//!   median 35.6 k → 31.6 k, −11 %; `lat_p50_us` median 28.4 → 29.8 µs).
//!   Every job executes as one transaction — that is how pipelined small
//!   requests batch into a single commit.
//!
//! ## Graceful shutdown
//!
//! [`Server::shutdown`] stops the accept loop, shuts the read side of every
//! connection (readers finish their current burst — in-flight transactions
//! drain and their responses are still written), joins the readers, then
//! stops and joins the workers, and finally closes the WAL session with a
//! final flush. A committed-and-fsynced write can therefore never be lost
//! by a graceful shutdown.

use crate::affinity;
use crate::kv::{Op, OpResult, Store};
use crate::proto::{
    decode_request, encode_response, peek_frame, FrameStatus, Response, FRAME_HEADER_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tm_api::{stats::process_stats, TmRuntime};

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; use port 0 to pick an ephemeral port.
    pub addr: String,
    /// Worker-pool size (TM handles / concurrent transactions).
    pub workers: usize,
    /// Coalescing cap: consecutive pipelined requests are batched into one
    /// commit until their combined op count would exceed this.
    pub batch_max_ops: usize,
    /// Open a WAL session for the server's lifetime (logs every commit when
    /// the runtime is built with its WAL tap).
    pub wal: Option<wal::WalConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            batch_max_ops: 64,
            wal: None,
        }
    }
}

/// Final accounting returned by [`Server::shutdown`].
#[derive(Debug)]
pub struct ShutdownReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Requests decoded.
    pub requests: u64,
    /// Commit batches executed.
    pub batches: u64,
    /// Malformed frames / undecodable or invalid requests rejected.
    pub protocol_errors: u64,
    /// WAL session accounting, when the server owned one.
    pub wal: Option<wal::WalFinish>,
}

/// One unit of worker work: a batch of validated requests executed as a
/// single transaction.
struct Job {
    reqs: Vec<(u64, Vec<Op>)>,
    reply: mpsc::Sender<Vec<Vec<OpResult>>>,
}

/// The worker queue. `stopping` shares the jobs' mutex, so `shutdown`'s
/// `notify_all` cannot fall between a worker's check and its wait.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    stopping: bool,
}

struct Shared {
    store: Arc<Store>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    stop_accepting: AtomicBool,
    /// Clones of every *live* accepted stream, keyed by connection id, for
    /// shutdown to unblock readers. A reader erases its own entry on exit,
    /// so closed connections do not pin duplicated fds for the server's
    /// lifetime.
    conns: Mutex<HashMap<u64, TcpStream>>,
    /// Reader-thread handles, keyed by connection id. Finished readers are
    /// reaped by the accept loop (see `finished`); the rest are joined at
    /// shutdown.
    readers: Mutex<HashMap<u64, JoinHandle<()>>>,
    /// Ids of reader threads that have exited and can be reaped.
    finished: Mutex<Vec<u64>>,
    connections: AtomicU64,
    requests: AtomicU64,
    batches: AtomicU64,
    protocol_errors: AtomicU64,
}

impl Shared {
    fn submit(&self, reqs: Vec<(u64, Vec<Op>)>) -> Vec<Vec<OpResult>> {
        let (tx, rx) = mpsc::channel();
        self.queue
            .lock()
            .unwrap()
            .jobs
            .push_back(Job { reqs, reply: tx });
        self.queue_cv.notify_one();
        // Workers outlive readers (shutdown joins readers first), so the
        // reply always arrives; a recv error means the job was dropped.
        rx.recv().unwrap_or_default()
    }
}

/// A running store server. See the module docs.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    wal: Option<wal::WalHandle>,
}

impl Server {
    /// Bind, start the worker pool and accept loop, and (optionally) open
    /// the WAL session. The server serves `store` on behalf of `rt`.
    pub fn start<R: TmRuntime>(
        rt: &Arc<R>,
        store: Arc<Store>,
        cfg: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(cfg.workers >= 1, "server needs at least one worker");
        assert!(cfg.batch_max_ops >= 1, "batch_max_ops must be >= 1");
        let wal = match &cfg.wal {
            Some(wal_cfg) => Some(wal::start(wal_cfg.clone())?),
            None => None,
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            store,
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            stop_accepting: AtomicBool::new(false),
            conns: Mutex::new(HashMap::new()),
            readers: Mutex::new(HashMap::new()),
            finished: Mutex::new(Vec::new()),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        });
        // Best-effort worker pins; see the module docs.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = (0..cfg.workers)
            .map(|i| {
                let rt = Arc::clone(rt);
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("store-worker-{i}"))
                    .spawn(move || {
                        affinity::pin_to_cpu(i % cores);
                        worker_loop(&rt, &shared)
                    })
                    .expect("spawn worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            let batch_max_ops = cfg.batch_max_ops;
            std::thread::Builder::new()
                .name("store-accept".to_string())
                .spawn(move || accept_loop(listener, &shared, batch_max_ops))
                .expect("spawn accept loop")
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            workers,
            wal,
        })
    }

    /// The bound address (use after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The store being served.
    pub fn store(&self) -> &Arc<Store> {
        &self.shared.store
    }

    /// Gracefully stop the server (see the module docs for the drain
    /// order) and return the final accounting.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Stop readers: shutting the read side makes a blocked read return
        // 0 while letting in-flight responses still be written.
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            let _ = conn.shutdown(Shutdown::Read);
        }
        let readers = std::mem::take(&mut *self.shared.readers.lock().unwrap());
        for (_, r) in readers {
            let _ = r.join();
        }
        // All jobs are submitted; let the workers drain the queue and exit.
        self.shared.queue.lock().unwrap().stopping = true;
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Every logged commit is in; close the session with a final flush.
        let wal = self.wal.take().map(wal::WalHandle::finish);
        ShutdownReport {
            connections: self.shared.connections.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            wal,
        }
    }
}

fn worker_loop<R: TmRuntime>(rt: &Arc<R>, shared: &Shared) {
    let mut h = rt.register();
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break Some(job);
                }
                if q.stopping {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let Some(job) = job else { break };
        let results = shared.store.execute_batch(&mut h, &job.reqs);
        shared.batches.fetch_add(1, Ordering::Relaxed);
        process_stats().store_batches.add_shared(1);
        // A dropped receiver (reader died mid-reply) is fine: the commit
        // already happened; the response is simply undeliverable.
        let _ = job.reply.send(results);
    }
}

/// Join (and forget) the reader threads that have announced their exit, so
/// a long-running server does not accumulate one JoinHandle per connection
/// it ever served. Their `conns` entries were already erased by the readers
/// themselves.
fn reap_finished(shared: &Shared) {
    let ids = std::mem::take(&mut *shared.finished.lock().unwrap());
    if ids.is_empty() {
        return;
    }
    let mut readers = shared.readers.lock().unwrap();
    for id in ids {
        if let Some(h) = readers.remove(&id) {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>, batch_max_ops: usize) {
    let mut next_conn_id: u64 = 0;
    loop {
        reap_finished(shared);
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop_accepting.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept error (EMFILE, say) must not become
                // a busy spin; back off before retrying.
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.stop_accepting.load(Ordering::SeqCst) {
            return;
        }
        // Without a registered clone, shutdown could not shut this reader's
        // read side and would block forever joining it — drop the
        // connection rather than serve it unstoppably.
        let Ok(clone) = stream.try_clone() else {
            continue;
        };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        process_stats().store_connections.add_shared(1);
        // Without this, Nagle holds each small response until the previous
        // one is ACKed, and a pipelining client (which only reads) delays
        // those ACKs — tens of milliseconds per batch on loopback.
        stream.set_nodelay(true).ok();
        let id = next_conn_id;
        next_conn_id += 1;
        shared.conns.lock().unwrap().insert(id, clone);
        let shared_for_reader = Arc::clone(shared);
        let reader = std::thread::Builder::new()
            .name("store-conn".to_string())
            .spawn(move || {
                connection_loop(stream, &shared_for_reader, batch_max_ops);
                shared_for_reader.conns.lock().unwrap().remove(&id);
                shared_for_reader.finished.lock().unwrap().push(id);
            })
            .expect("spawn connection reader");
        shared.readers.lock().unwrap().insert(id, reader);
    }
}

/// Send `resp` on `stream`, ignoring write failures (the peer may be gone).
fn send_response(stream: &mut TcpStream, resp: &Response) {
    let mut out = Vec::with_capacity(64);
    encode_response(resp, &mut out);
    let _ = stream.write_all(&out);
}

fn connection_loop(mut stream: TcpStream, shared: &Shared, batch_max_ops: usize) {
    let mut buf: Vec<u8> = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut pos = 0usize; // consumed prefix of `buf`
    'conn: loop {
        let n = match stream.read(&mut chunk) {
            Ok(0) => break 'conn, // clean disconnect
            Ok(n) => n,
            Err(_) => break 'conn, // reset mid-read: just drop the conn
        };
        buf.extend_from_slice(&chunk[..n]);
        // Decode every whole frame in the burst.
        let mut batch: Vec<(u64, Vec<Op>)> = Vec::new();
        let mut batch_ops = 0usize;
        loop {
            match peek_frame(&buf[pos..]) {
                FrameStatus::NeedMore => break,
                FrameStatus::Corrupt => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    process_stats().store_protocol_errors.add_shared(1);
                    flush_batch(&mut stream, shared, &mut batch);
                    send_response(
                        &mut stream,
                        &Response::Err {
                            id: 0,
                            msg: "corrupt frame".to_string(),
                        },
                    );
                    break 'conn;
                }
                FrameStatus::Ready { start, end } => {
                    let payload = &buf[pos + start..pos + end];
                    let decoded = decode_request(payload);
                    pos += end;
                    let Some(req) = decoded else {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        process_stats().store_protocol_errors.add_shared(1);
                        flush_batch(&mut stream, shared, &mut batch);
                        send_response(
                            &mut stream,
                            &Response::Err {
                                id: 0,
                                msg: "malformed request".to_string(),
                            },
                        );
                        break 'conn;
                    };
                    shared.requests.fetch_add(1, Ordering::Relaxed);
                    process_stats().store_requests.add_shared(1);
                    if let Err(msg) = shared.store.validate(&req.ops) {
                        // Reject in order: answer everything batched so far
                        // first, then this request's error.
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        process_stats().store_protocol_errors.add_shared(1);
                        flush_batch(&mut stream, shared, &mut batch);
                        batch_ops = 0;
                        send_response(&mut stream, &Response::Err { id: req.id, msg });
                        continue;
                    }
                    if batch_ops + req.ops.len() > batch_max_ops && !batch.is_empty() {
                        flush_batch(&mut stream, shared, &mut batch);
                        batch_ops = 0;
                    }
                    batch_ops += req.ops.len();
                    batch.push((req.id, req.ops));
                }
            }
        }
        // Execute what this burst produced (pipelined requests coalesce
        // into one commit per `batch_max_ops` window).
        flush_batch(&mut stream, shared, &mut batch);
        // Drop the consumed prefix once it dominates the buffer.
        if pos > 0 && (pos >= buf.len() || pos > 64 * 1024) {
            buf.drain(..pos);
            pos = 0;
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Execute `batch` as one transaction and write the responses in order.
fn flush_batch(stream: &mut TcpStream, shared: &Shared, batch: &mut Vec<(u64, Vec<Op>)>) {
    if batch.is_empty() {
        return;
    }
    let reqs = std::mem::take(batch);
    let ids: Vec<u64> = reqs.iter().map(|(id, _)| *id).collect();
    let results = shared.submit(reqs);
    let mut out = Vec::with_capacity(64 * ids.len() + FRAME_HEADER_BYTES);
    for (id, results) in ids.into_iter().zip(results) {
        encode_response(&Response::Ok { id, results }, &mut out);
    }
    let _ = stream.write_all(&out);
}
