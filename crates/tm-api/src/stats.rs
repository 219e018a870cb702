//! Transaction and subsystem statistics: one counter table.
//!
//! Every counter is a row of the `stat_counters!` table below and a field of
//! [`TmStatsSnapshot`]. The table has two lists:
//!
//! * **Per-thread rows** live in [`ThreadStats`]. Each TM handle's
//!   [`Registration`](crate::registry::Registration) owns one row in its
//!   runtime's [`Registry`](crate::registry::Registry); the owning thread is
//!   the row's only writer. A row outlives its handle: the next holder of
//!   the tid keeps counting on it, so snapshots keep dropped handles'
//!   counts.
//! * **Process-wide rows** live in the one [`ProcessStats`] `static`
//!   ([`process_stats`]): state every runtime shares (the node arenas, the
//!   WAL session, the store server). [`Registry::snapshot`] folds them into
//!   every snapshot and derives the `*_allocs` rows (hits + misses); the
//!   Multiverse runtime adds its own `buckets_unversioned` count.
//!
//! A row with one writer at a time uses [`CachePaddedCounter::add`]/`inc` (a
//! relaxed load + store): every per-thread row, and the WAL rows (written by
//! the group-commit thread, the checkpoint caller or the recovery caller of
//! the one live session). A row that several threads write concurrently uses
//! [`CachePaddedCounter::add_shared`] (a relaxed `fetch_add`): the arenas'
//! hit/miss/retire/recycle rows and the store rows.
//!
//! [`Registry::snapshot`]: crate::registry::Registry::snapshot

use crate::padded::CachePadded;
use crate::sync::{AtomicU64, Ordering};

macro_rules! stat_counters {
    (
        $($(#[$doc:meta])* $name:ident),* $(,)? ;
        process_wide: $($(#[$pdoc:meta])* $pname:ident),* $(,)?
    ) => {
        /// Per-thread statistic counters (single writer, many readers).
        #[derive(Debug, Default)]
        pub struct ThreadStats {
            $( $(#[$doc])* pub $name: CachePaddedCounter, )*
        }

        /// Process-wide statistic counters ([`process_stats`]).
        #[derive(Debug)]
        pub struct ProcessStats {
            $( $(#[$pdoc])* pub $pname: CachePaddedCounter, )*
        }

        static PROCESS_STATS: ProcessStats = ProcessStats {
            $( $pname: CachePaddedCounter::new(), )*
        };

        /// A plain snapshot of every row: per-thread rows summed across
        /// threads, process-wide rows folded in by
        /// [`Registry::snapshot`](crate::registry::Registry::snapshot).
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

        impl ProcessStats {
            /// Add every process-wide row into `snap`.
            pub(crate) fn fold_into(&self, snap: &mut TmStatsSnapshot) {
                $( snap.$pname += self.$pname.get(); )*
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
/// load + store rather than an atomic RMW, because a per-thread row has
/// exactly one writer (the owning thread; see the module docs). A plain
/// store is several times cheaper than a locked `fetch_add` and these run
/// multiple times per transaction attempt. Concurrent *readers* (snapshot
/// aggregation) remain safe; a second concurrent writer would lose
/// increments. Rows with several writers use [`Self::add_shared`].
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

    /// Increment by `n` from any thread: a relaxed `fetch_add`, for rows
    /// with several concurrent writers.
    #[inline(always)]
    pub fn add_shared(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
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
    /// Global TM mode transitions (Multiverse's `stats` reports the
    /// runtime's count of all four; a worker counts only its Q→QtoU CAS).
    mode_transitions,
    /// Version/VLT node allocations served from the recycled node pool.
    pool_hits,
    /// Version/VLT node allocations that had to grow the node pool.
    pool_misses,
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
    /// Version/VLT node slots handed to EBR for eventual recycling.
    pool_retires,
    ;
    process_wide:
    /// VLT buckets unversioned by the background thread.
    buckets_unversioned,
    /// Version/VLT nodes recycled into the arena after their grace period.
    pool_recycled,
    /// Version/VLT node slots handed out by the arena (derived: hits +
    /// misses; pinned by `crates/multiverse/tests/pool_churn.rs`).
    pool_allocs,
    /// Always 0: the version-node pool has one free stack, so there is no
    /// sibling to steal from. Kept because `mvbench` reports it.
    pool_steals,
    /// Structure-node allocations served by the size-classed arena
    /// (`txstructs::node`), all classes (derived: hits + misses).
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
    /// WAL records written to segment files (group-commit thread).
    wal_appends,
    /// Successful batched fsyncs of WAL segment files (group-commit thread).
    wal_fsyncs,
    /// Encoded WAL bytes written to segment files (group-commit thread).
    wal_bytes,
    /// Snapshot checkpoints successfully written (checkpoint caller).
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

/// The process-wide counters (see the module docs).
pub fn process_stats() -> &'static ProcessStats {
    &PROCESS_STATS
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
    use crate::registry::Registry;

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
    fn process_rows_fold_into_every_snapshot() {
        let reg = std::sync::Arc::<Registry>::default();
        let before = reg.snapshot();
        let p = process_stats();
        p.buckets_unversioned.add_shared(6);
        p.pool_recycled.add_shared(7);
        p.pool_class_hits.add_shared(5);
        p.pool_class_misses.add_shared(2);
        p.pool_class_retires.add_shared(3);
        p.pool_class_recycled.add_shared(1);
        p.wal_appends.add(4);
        p.wal_fsyncs.inc();
        p.wal_bytes.add(256);
        p.checkpoint_count.inc();
        p.recovery_truncated_records.add(2);
        p.store_connections.add_shared(3);
        p.store_requests.add_shared(12);
        p.store_batches.add_shared(5);
        p.store_protocol_errors.add_shared(1);
        let t = reg.register();
        t.stats().pool_hits.add(8);
        t.stats().pool_misses.add(1);
        let after = reg.snapshot();
        let delta = |row: fn(&TmStatsSnapshot) -> u64| row(&after) - row(&before);
        assert_eq!(delta(|s| s.buckets_unversioned), 6);
        assert_eq!(delta(|s| s.pool_recycled), 7);
        assert_eq!(delta(|s| s.pool_class_hits), 5);
        assert_eq!(delta(|s| s.pool_class_misses), 2);
        assert_eq!(delta(|s| s.pool_class_retires), 3);
        assert_eq!(delta(|s| s.pool_class_recycled), 1);
        assert_eq!(delta(|s| s.wal_appends), 4);
        assert_eq!(delta(|s| s.wal_fsyncs), 1);
        assert_eq!(delta(|s| s.wal_bytes), 256);
        assert_eq!(delta(|s| s.checkpoint_count), 1);
        assert_eq!(delta(|s| s.recovery_truncated_records), 2);
        assert_eq!(delta(|s| s.store_connections), 3);
        assert_eq!(delta(|s| s.store_requests), 12);
        assert_eq!(delta(|s| s.store_batches), 5);
        assert_eq!(delta(|s| s.store_protocol_errors), 1);
        // Derived rows: hits + misses.
        assert_eq!(after.pool_allocs, 9);
        assert_eq!(
            after.pool_class_allocs,
            after.pool_class_hits + after.pool_class_misses
        );
        assert_eq!((after.pool_steals, after.pool_class_steals), (0, 0));
    }

    #[test]
    fn shared_counter_keeps_every_concurrent_increment() {
        let c = CachePaddedCounter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.add_shared(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
    }
}
