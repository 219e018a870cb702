//! Per-thread transaction statistics.
//!
//! Every TM handle owns an `Arc<ThreadStats>` registered with the runtime's
//! [`StatsRegistry`]. Counters are updated with relaxed atomics from a single
//! writer (the owning thread) and aggregated on demand by the benchmark
//! harness, mirroring how the paper reports commits, aborts and the behaviour
//! of the DCTL irrevocable path.

use crate::padded::CachePadded;
use crate::sync::{AtomicU64, Mutex, Ordering};
use std::sync::Arc;

macro_rules! stat_counters {
    (
        $($(#[$doc:meta])* $name:ident),* $(,)? ;
        process_wide: $($(#[$pdoc:meta])* $pname:ident),* $(,)?
    ) => {
        /// Per-thread statistic counters (single writer, many readers).
        /// Process-wide counters have no per-thread storage — they exist
        /// only in [`TmStatsSnapshot`], filled at snapshot time.
        #[derive(Debug, Default)]
        pub struct ThreadStats {
            $( $(#[$doc])* pub $name: CachePaddedCounter, )*
        }

        /// A plain snapshot of the counters, aggregated across threads
        /// (plus the process-wide counters, folded in by
        /// [`StatsRegistry::snapshot`]).
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
        pub struct TmStatsSnapshot {
            $( $(#[$doc])* pub $name: u64, )*
            $( $(#[$pdoc])* pub $pname: u64, )*
        }

        impl ThreadStats {
            /// Read a consistent-enough snapshot of this thread's counters
            /// (process-wide fields are zero here; the registry fills them).
            pub fn snapshot(&self) -> TmStatsSnapshot {
                TmStatsSnapshot {
                    $( $name: self.$name.get(), )*
                    $( $pname: 0, )*
                }
            }
        }

        impl TmStatsSnapshot {
            /// Accumulate another snapshot into this one.
            pub fn merge(&mut self, other: &TmStatsSnapshot) {
                $( self.$name += other.$name; )*
                $( self.$pname += other.$pname; )*
            }
        }

        impl std::fmt::Display for TmStatsSnapshot {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                $( write!(f, "{}={} ", stringify!($name), self.$name)?; )*
                $( write!(f, "{}={} ", stringify!($pname), self.$pname)?; )*
                Ok(())
            }
        }
    };
}

/// A relaxed atomic counter padded to its own cache line pair.
///
/// **Single-writer contract:** `inc`/`add` are implemented as a relaxed
/// load + store rather than an atomic RMW, because every counter has exactly
/// one writer (the owning thread; see the module docs). A plain store is
/// several times cheaper than a locked `fetch_add` and these run multiple
/// times per transaction attempt. Concurrent *readers* (snapshot aggregation)
/// remain safe; a second concurrent writer would lose increments.
#[derive(Debug, Default)]
pub struct CachePaddedCounter(CachePadded<AtomicU64>);

impl CachePaddedCounter {
    /// A zeroed counter, usable in `static` initializers.
    pub const fn new() -> Self {
        Self(CachePadded::new(AtomicU64::new(0)))
    }

    /// Increment by one (single writer; see the type docs).
    #[inline(always)]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n` (single writer; see the type docs).
    #[inline(always)]
    pub fn add(&self, n: u64) {
        let v = self.0.load(Ordering::Relaxed);
        self.0.store(v.wrapping_add(n), Ordering::Relaxed);
    }

    /// Current value.
    #[inline(always)]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

stat_counters! {
    /// Transaction attempts started (each retry counts).
    starts,
    /// Committed transactions.
    commits,
    /// Aborted transaction attempts.
    aborts,
    /// Committed read-only transactions.
    ro_commits,
    /// Committed updating transactions.
    update_commits,
    /// Committed transactions that ran on the versioned code path.
    versioned_commits,
    /// Aborted attempts of versioned transactions.
    versioned_aborts,
    /// Committed transactions whose local mode was Mode U.
    mode_u_commits,
    /// Transactional reads performed.
    reads,
    /// Transactional writes performed.
    writes,
    /// Transactions that exhausted their attempt budget and gave up.
    gave_up,
    /// Commits performed on DCTL's irrevocable (starvation-free) path.
    irrevocable_commits,
    /// Addresses switched from unversioned to versioned.
    addresses_versioned,
    /// VLT buckets unversioned by the background thread.
    buckets_unversioned,
    /// Global TM mode transitions observed/performed.
    mode_transitions,
    /// Version/VLT node allocations served from the recycled node pool.
    pool_hits,
    /// Version/VLT node allocations that had to grow the node pool.
    pool_misses,
    /// Nodes recycled into the pool after their EBR grace period.
    pool_recycled,
    /// Commit-clock advances attempted by this thread (the deferred-clock
    /// abort path and the supersede-queue force tick). Coalesced ticks —
    /// where another thread had already advanced the clock past the
    /// observed value, so no write was needed — are included; compare with
    /// `clock_tick_retries` for the contention picture.
    clock_ticks,
    /// CAS retries inside `GlobalClock::tick` — each one is a clock-line
    /// collision with another advancing thread. Sampled by nature (the
    /// coalescing fast path returns without a CAS at all), so treat as a
    /// contention signal, not an exact collision count.
    clock_tick_retries,
    /// Version/VLT node slots handed out by the arena. Derived (hits +
    /// misses) in the runtime's snapshot rather than counted on the hot
    /// path; pinned by `crates/multiverse/tests/pool_churn.rs`.
    pool_allocs,
    /// Version/VLT node slots handed to EBR for eventual recycling.
    pool_retires,
    ;
    // Process-wide counters: snapshot-only fields, no per-thread storage
    // (filled by `StatsRegistry::snapshot` from `struct_pool_counters`).
    process_wide:
    /// Always 0: the version-node pool has one free stack, so there is no
    /// sibling to steal from. Kept because `mvbench` reports it.
    pool_steals,
    /// Structure-node allocations served by the size-classed arena
    /// (`txstructs::node`), all classes. Derived as hits + misses at
    /// snapshot time — see the doc on [`StructPoolCounters`].
    pool_class_allocs,
    /// Structure-node allocations served from recycled size-class slots.
    pool_class_hits,
    /// Structure-node allocations that grew a size-class slab.
    pool_class_misses,
    /// Always 0: each size class has one free stack, so there is no
    /// sibling to steal from. Kept because `mvbench` reports it.
    pool_class_steals,
    /// Structure-node retires *deferred* by transaction attempts. Counted at
    /// defer time, so an aborted attempt's revoked retires are included —
    /// this can exceed the slots actually handed to EBR under abort-heavy
    /// workloads (unlike the version pool's `pool_retires`, which counts at
    /// EBR handoff); `pool_class_recycled <= pool_class_retires` still holds.
    pool_class_retires,
    /// Structure-node slots recycled into their size class after the EBR
    /// grace period.
    pool_class_recycled,
    /// WAL records written to segment files by the group-commit thread.
    wal_appends,
    /// Successful batched fsyncs of WAL segment files.
    wal_fsyncs,
    /// Encoded WAL bytes written to segment files.
    wal_bytes,
    /// Snapshot checkpoints successfully written.
    checkpoint_count,
    /// Invalid WAL frames truncated or skipped during recovery.
    recovery_truncated_records,
    /// Client connections accepted by the store server.
    store_connections,
    /// Protocol requests decoded by the store server (each a batch of ops).
    store_requests,
    /// Commit batches executed by store workers (pipelined requests
    /// coalesced into one transaction each count once).
    store_batches,
    /// Malformed/torn client frames and undecodable requests rejected.
    store_protocol_errors,
}

/// Process-wide counters of the size-classed structure-node arena.
///
/// The arena (`txstructs::node`) is a `static` shared by every runtime in
/// the process — exactly like the Multiverse version-node arena — so its
/// counters cannot live in any one runtime's per-thread [`ThreadStats`].
/// They live here, below every TM crate, and [`StatsRegistry::snapshot`]
/// folds them into each snapshot's `pool_class_*` fields. The figure
/// runners execute one TM at a time, so the numbers stay attributable.
///
/// The allocation counters (hits/misses) are batched: the allocator
/// accumulates them in its thread-local cache and flushes in batches (plus
/// once on thread exit), keeping locked RMWs off the per-operation path.
/// Retires and recycles are published immediately — a retire's defer always
/// precedes its recycle in real time, so immediate publication keeps
/// `recycled <= retires` true in every snapshot.
#[derive(Debug, Default)]
pub struct StructPoolCounters {
    /// Allocations served from recycled slots.
    pub hits: AtomicU64,
    /// Allocations served from fresh slab memory.
    pub misses: AtomicU64,
    /// Retires deferred by transaction attempts (counted at defer time;
    /// includes retires later revoked by an abort — see the
    /// `pool_class_retires` counter doc).
    pub retires: AtomicU64,
    /// Slots recycled into their class after the grace period.
    pub recycled: AtomicU64,
}

static STRUCT_POOL_COUNTERS: StructPoolCounters = StructPoolCounters {
    hits: AtomicU64::new(0),
    misses: AtomicU64::new(0),
    retires: AtomicU64::new(0),
    recycled: AtomicU64::new(0),
};

/// The process-wide structure-node arena counters (written by
/// `txstructs::node`, folded into every [`StatsRegistry::snapshot`]).
pub fn struct_pool_counters() -> &'static StructPoolCounters {
    &STRUCT_POOL_COUNTERS
}

/// Process-wide counters of the WAL durability pipeline.
///
/// Like [`StructPoolCounters`], these live below every TM crate because the
/// WAL session is process-wide state, not per-runtime. Each counter keeps
/// the single-writer load+store discipline of [`CachePaddedCounter`]:
/// `appends`/`fsyncs`/`bytes` are written only by the group-commit thread,
/// `checkpoints` only by the checkpoint caller (sessions are serialized, so
/// there is exactly one at a time), and `recovery_truncated` only by the
/// recovery caller (which runs after the crashed session is torn down).
#[derive(Debug, Default)]
pub struct WalCounters {
    /// Records written to segment files (group-commit thread).
    pub appends: CachePaddedCounter,
    /// Successful batched fsyncs of segment files (group-commit thread).
    pub fsyncs: CachePaddedCounter,
    /// Encoded bytes written to segment files (group-commit thread).
    pub bytes: CachePaddedCounter,
    /// Checkpoints successfully written (checkpoint caller).
    pub checkpoints: CachePaddedCounter,
    /// Invalid frames truncated or skipped during recovery (recovery caller).
    pub recovery_truncated: CachePaddedCounter,
}

static WAL_COUNTERS: WalCounters = WalCounters {
    appends: CachePaddedCounter::new(),
    fsyncs: CachePaddedCounter::new(),
    bytes: CachePaddedCounter::new(),
    checkpoints: CachePaddedCounter::new(),
    recovery_truncated: CachePaddedCounter::new(),
};

/// The process-wide WAL counters (written by the `wal` crate, folded into
/// every [`StatsRegistry::snapshot`]).
pub fn wal_counters() -> &'static WalCounters {
    &WAL_COUNTERS
}

/// Process-wide counters of the store network front door.
///
/// Like [`StructPoolCounters`], these live below every TM crate: a store
/// server multiplexes many connection threads onto one runtime, so the
/// counters are multi-writer and use atomic RMWs (`fetch_add`), not the
/// single-writer [`CachePaddedCounter`] discipline. They sit on the
/// per-request path, not the per-transactional-op hot path, so the locked
/// RMW cost is acceptable.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// Client connections accepted.
    pub connections: AtomicU64,
    /// Protocol requests decoded (each a batch of ops).
    pub requests: AtomicU64,
    /// Commit batches executed by workers.
    pub batches: AtomicU64,
    /// Malformed/torn frames and undecodable requests rejected.
    pub protocol_errors: AtomicU64,
}

static STORE_COUNTERS: StoreCounters = StoreCounters {
    connections: AtomicU64::new(0),
    requests: AtomicU64::new(0),
    batches: AtomicU64::new(0),
    protocol_errors: AtomicU64::new(0),
};

/// The process-wide store front-door counters (written by the `store`
/// crate, folded into every [`StatsRegistry::snapshot`]).
pub fn store_counters() -> &'static StoreCounters {
    &STORE_COUNTERS
}

/// Registry of all per-thread statistics for one TM runtime instance.
#[derive(Debug, Default)]
pub struct StatsRegistry {
    threads: Mutex<Vec<Arc<ThreadStats>>>,
}

impl StatsRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new thread and return its stats handle.
    pub fn register(&self) -> Arc<ThreadStats> {
        let stats = Arc::new(ThreadStats::default());
        self.threads.lock().unwrap().push(Arc::clone(&stats));
        stats
    }

    /// Aggregate a snapshot across every thread ever registered, folding in
    /// the process-wide structure-node arena counters (see
    /// [`StructPoolCounters`]).
    pub fn snapshot(&self) -> TmStatsSnapshot {
        let mut total = TmStatsSnapshot::default();
        for t in self.threads.lock().unwrap().iter() {
            total.merge(&t.snapshot());
        }
        let sp = struct_pool_counters();
        total.pool_class_hits += sp.hits.load(Ordering::Relaxed);
        total.pool_class_misses += sp.misses.load(Ordering::Relaxed);
        total.pool_class_retires += sp.retires.load(Ordering::Relaxed);
        total.pool_class_recycled += sp.recycled.load(Ordering::Relaxed);
        total.pool_class_allocs = total.pool_class_hits + total.pool_class_misses;
        let wal = wal_counters();
        total.wal_appends += wal.appends.get();
        total.wal_fsyncs += wal.fsyncs.get();
        total.wal_bytes += wal.bytes.get();
        total.checkpoint_count += wal.checkpoints.get();
        total.recovery_truncated_records += wal.recovery_truncated.get();
        let store = store_counters();
        total.store_connections += store.connections.load(Ordering::Relaxed);
        total.store_requests += store.requests.load(Ordering::Relaxed);
        total.store_batches += store.batches.load(Ordering::Relaxed);
        total.store_protocol_errors += store.protocol_errors.load(Ordering::Relaxed);
        total
    }
}

impl TmStatsSnapshot {
    /// Abort ratio: aborts / starts (0 when no transaction ever started).
    pub fn abort_ratio(&self) -> f64 {
        if self.starts == 0 {
            0.0
        } else {
            self.aborts as f64 / self.starts as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_increment() {
        let s = ThreadStats::default();
        s.commits.inc();
        s.commits.add(4);
        s.aborts.inc();
        let snap = s.snapshot();
        assert_eq!(snap.commits, 5);
        assert_eq!(snap.aborts, 1);
        assert_eq!(snap.reads, 0);
    }

    #[test]
    fn merge_accumulates() {
        let a = ThreadStats::default();
        let b = ThreadStats::default();
        a.reads.add(10);
        b.reads.add(5);
        b.writes.add(2);
        let mut total = a.snapshot();
        total.merge(&b.snapshot());
        assert_eq!(total.reads, 15);
        assert_eq!(total.writes, 2);
    }

    #[test]
    fn registry_aggregates_all_threads() {
        let reg = StatsRegistry::new();
        let t1 = reg.register();
        let t2 = reg.register();
        t1.commits.add(3);
        t2.commits.add(4);
        t2.gave_up.inc();
        let snap = reg.snapshot();
        assert_eq!(snap.commits, 7);
        assert_eq!(snap.gave_up, 1);
    }

    #[test]
    fn abort_ratio() {
        let mut s = TmStatsSnapshot::default();
        assert_eq!(s.abort_ratio(), 0.0);
        s.starts = 10;
        s.aborts = 5;
        assert!((s.abort_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_counter_names() {
        let s = TmStatsSnapshot {
            commits: 7,
            ..Default::default()
        };
        let rendered = s.to_string();
        assert!(rendered.contains("commits=7"));
        assert!(rendered.contains("aborts=0"));
    }

    #[test]
    fn struct_pool_counters_fold_into_every_snapshot() {
        let reg = StatsRegistry::new();
        let before = reg.snapshot();
        let sp = struct_pool_counters();
        sp.hits.fetch_add(5, Ordering::Relaxed);
        sp.misses.fetch_add(2, Ordering::Relaxed);
        sp.retires.fetch_add(3, Ordering::Relaxed);
        sp.recycled.fetch_add(1, Ordering::Relaxed);
        let after = reg.snapshot();
        assert_eq!(after.pool_class_hits - before.pool_class_hits, 5);
        assert_eq!(after.pool_class_misses - before.pool_class_misses, 2);
        assert_eq!(after.pool_class_retires - before.pool_class_retires, 3);
        assert_eq!(after.pool_class_recycled - before.pool_class_recycled, 1);
        assert_eq!(
            after.pool_class_allocs,
            after.pool_class_hits + after.pool_class_misses,
            "allocs is derived as hits + misses"
        );
    }

    #[test]
    fn wal_counters_fold_into_every_snapshot() {
        let reg = StatsRegistry::new();
        let before = reg.snapshot();
        let wal = wal_counters();
        wal.appends.add(4);
        wal.fsyncs.inc();
        wal.bytes.add(256);
        wal.checkpoints.inc();
        wal.recovery_truncated.add(2);
        let after = reg.snapshot();
        assert_eq!(after.wal_appends - before.wal_appends, 4);
        assert_eq!(after.wal_fsyncs - before.wal_fsyncs, 1);
        assert_eq!(after.wal_bytes - before.wal_bytes, 256);
        assert_eq!(after.checkpoint_count - before.checkpoint_count, 1);
        assert_eq!(
            after.recovery_truncated_records - before.recovery_truncated_records,
            2
        );
    }

    #[test]
    fn store_counters_fold_into_every_snapshot() {
        let reg = StatsRegistry::new();
        let before = reg.snapshot();
        let sc = store_counters();
        sc.connections.fetch_add(3, Ordering::Relaxed);
        sc.requests.fetch_add(12, Ordering::Relaxed);
        sc.batches.fetch_add(5, Ordering::Relaxed);
        sc.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let after = reg.snapshot();
        assert_eq!(after.store_connections - before.store_connections, 3);
        assert_eq!(after.store_requests - before.store_requests, 12);
        assert_eq!(after.store_batches - before.store_batches, 5);
        assert_eq!(
            after.store_protocol_errors - before.store_protocol_errors,
            1
        );
    }

    #[test]
    fn concurrent_updates_from_many_threads() {
        let reg = Arc::new(StatsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let s = reg.register();
                    for _ in 0..1000 {
                        s.starts.inc();
                        s.commits.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.starts, 4000);
        assert_eq!(snap.commits, 4000);
    }
}
