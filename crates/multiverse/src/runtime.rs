//! The shared Multiverse runtime and the background thread that performs
//! mode transitions and unversioning (paper §3.3, §4.3, §4.4, Listing 6).
//! The per-thread handle is `tm_api::Handle<MultiverseTx>`.

use crate::arena;
use crate::config::{ForcedMode, MultiverseConfig};
use crate::modes::Mode;
use crate::registry::{any_stale_worker, any_sticky_mode_u, average_commit_ts_delta, ThreadSlot};
use crate::txn::MultiverseTx;
use crate::vlt::Vlt;
use ebr::{Collector, LocalHandle};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;
use tm_api::sync::{AtomicBool, AtomicI64, AtomicU64, Mutex, Ordering};
use tm_api::{
    BloomTable, CachePadded, GlobalClock, Handle, LockTable, Registry, TmRuntime, TmStatsSnapshot,
};

/// Sentinel: the first observed Mode-U timestamp is not currently valid.
const FIRST_OBS_INVALID: u64 = u64::MAX;
/// Thread id used by the background thread when claiming stripe locks.
const BG_TID: u64 = tm_api::MAX_TID;

/// Shared state of the Multiverse STM.
#[derive(Debug)]
pub struct MultiverseRuntime {
    pub(crate) cfg: MultiverseConfig,
    pub(crate) clock: GlobalClock,
    pub(crate) locks: LockTable,
    pub(crate) vlt: Vlt,
    pub(crate) bloom: BloomTable,
    /// Every live handle's tid, stats row and announcement slot.
    pub(crate) registry: Arc<Registry<ThreadSlot>>,
    pub(crate) ebr: Arc<Collector>,
    global_mode_counter: CachePadded<AtomicU64>,
    first_obs_mode_u_ts: CachePadded<AtomicU64>,
    min_mode_u_read_count: CachePadded<AtomicU64>,
    version_bytes: AtomicI64,
    stop_bg: AtomicBool,
    bg_join: Mutex<Option<JoinHandle<()>>>,
    /// Buckets unversioned by the background thread (diagnostic counter).
    buckets_unversioned: AtomicU64,
    /// Arena slots retired to EBR by the background thread's unversioning
    /// (workers count their own retires in their `ThreadStats`).
    bg_pool_retires: AtomicU64,
    /// Mode transitions performed (workers' CAS plus background thread).
    mode_transitions: AtomicU64,
}

impl MultiverseRuntime {
    /// Create the runtime **and start its background thread**.
    pub fn start(cfg: MultiverseConfig) -> Arc<Self> {
        let forced = cfg.forced_mode;
        let clock = GlobalClock::new();
        let initial_counter = match forced {
            Some(ForcedMode::ModeU) => 2, // Mode U
            _ => 0,                       // Mode Q
        };
        let initial_first_obs = match forced {
            Some(ForcedMode::ModeU) => clock.read(),
            _ => FIRST_OBS_INVALID,
        };
        let stripes = cfg.stripes;
        let rt = Arc::new(Self {
            clock,
            locks: LockTable::new(stripes),
            vlt: Vlt::new(stripes),
            bloom: BloomTable::new(stripes),
            registry: Arc::default(),
            ebr: Arc::new(Collector::new()),
            global_mode_counter: CachePadded::new(AtomicU64::new(initial_counter)),
            first_obs_mode_u_ts: CachePadded::new(AtomicU64::new(initial_first_obs)),
            min_mode_u_read_count: CachePadded::new(AtomicU64::new(u64::MAX)),
            version_bytes: AtomicI64::new(0),
            stop_bg: AtomicBool::new(false),
            bg_join: Mutex::new(None),
            buckets_unversioned: AtomicU64::new(0),
            bg_pool_retires: AtomicU64::new(0),
            mode_transitions: AtomicU64::new(0),
            cfg,
        });
        if rt.cfg.bg_thread {
            let weak = Arc::downgrade(&rt);
            let join = std::thread::Builder::new()
                .name("multiverse-bg".into())
                .spawn(move || background_loop(weak))
                .expect("failed to spawn the Multiverse background thread");
            *rt.bg_join.lock().unwrap() = Some(join);
        }
        rt
    }

    /// Create a runtime with the paper's default parameters.
    pub fn with_defaults() -> Arc<Self> {
        Self::start(MultiverseConfig::default())
    }

    /// Stop and join the background thread. Idempotent.
    pub fn shutdown_background(&self) {
        self.stop_bg.store(true, Ordering::Release);
        if let Some(join) = self.bg_join.lock().unwrap().take() {
            let _ = join.join();
        }
    }

    // ---- mode machinery -------------------------------------------------

    /// The current global mode counter.
    ///
    /// Safety of the relaxation (was `SeqCst`): this load sits on the hot
    /// path — every transaction attempt reads the counter at least twice in
    /// `begin()`. The protocol only needs (a) that a worker adopting counter
    /// value `c` also sees all state published before the transition to `c`
    /// (give by `Acquire` pairing with the `SeqCst` CAS that advanced the
    /// counter), and (b) store→load ordering between a worker's slot
    /// announcement and its confirming re-read of the counter — which is
    /// supplied by an explicit `SeqCst` fence in `MultiverseTx::begin`, not
    /// by this load. See `begin()` and `registry::any_stale_worker`.
    #[inline]
    pub fn mode_counter(&self) -> u64 {
        self.global_mode_counter.load(Ordering::Acquire)
    }

    /// The current global mode.
    #[inline]
    pub fn current_mode(&self) -> Mode {
        Mode::from_counter(self.mode_counter())
    }

    /// Worker-side Mode Q → Mode QtoU transition: CAS the counter from the
    /// value the worker observed (which must decode to Mode Q).
    pub(crate) fn try_initiate_qtou(&self, observed_counter: u64) -> bool {
        if self.cfg.forced_mode.is_some() {
            return false;
        }
        if Mode::from_counter(observed_counter) != Mode::Q {
            return false;
        }
        let ok = self
            .global_mode_counter
            .compare_exchange(
                observed_counter,
                observed_counter + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if ok {
            self.mode_transitions.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Background-thread transition to the next mode in the fixed order.
    fn advance_mode(&self, from_counter: u64) -> bool {
        let ok = self
            .global_mode_counter
            .compare_exchange(
                from_counter,
                from_counter + 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok();
        if ok {
            self.mode_transitions.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// Total global mode transitions performed so far.
    pub fn mode_transition_count(&self) -> u64 {
        self.mode_transitions.load(Ordering::Relaxed)
    }

    /// Number of VLT buckets unversioned by the background thread.
    pub fn unversioned_bucket_count(&self) -> u64 {
        self.buckets_unversioned.load(Ordering::Relaxed)
    }

    /// The first observed Mode-U timestamp, if currently valid (§4.2).
    #[inline]
    pub(crate) fn first_obs_mode_u_ts(&self) -> Option<u64> {
        match self.first_obs_mode_u_ts.load(Ordering::Acquire) {
            FIRST_OBS_INVALID => None,
            ts => Some(ts),
        }
    }

    /// Global minimum read count among versioned transactions that committed
    /// in Mode U (§4.2); `u64::MAX` until one commits.
    #[inline]
    pub(crate) fn min_mode_u_read_count(&self) -> u64 {
        self.min_mode_u_read_count.load(Ordering::Relaxed)
    }

    pub(crate) fn update_min_mode_u_read_count(&self, reads: u64) {
        self.min_mode_u_read_count
            .fetch_min(reads, Ordering::Relaxed);
    }

    // ---- memory accounting ----------------------------------------------

    pub(crate) fn add_version_bytes(&self, bytes: usize) {
        self.version_bytes
            .fetch_add(bytes as i64, Ordering::Relaxed);
    }

    pub(crate) fn sub_version_bytes(&self, bytes: usize) {
        self.version_bytes
            .fetch_sub(bytes as i64, Ordering::Relaxed);
    }

    /// Bytes of versioning metadata (VLT nodes + version nodes): live nodes,
    /// garbage awaiting a grace period, **and pooled-but-free arena slots**.
    ///
    /// All version metadata lives in the process-wide node arena, whose
    /// slots are never returned to the OS — so the honest footprint (what
    /// Fig. 9 should report) is the arena total, not just the live bytes.
    /// The `max` keeps the figure monotone with the live+pending view if
    /// several runtimes share the process (unit tests); figure runs execute
    /// one TM at a time, where the arena total is exact.
    pub fn version_metadata_bytes(&self) -> usize {
        let live = self.version_bytes.load(Ordering::Relaxed).max(0) as usize;
        (live + self.ebr.pending_bytes()).max(arena::total_pool_bytes())
    }

    /// Run one iteration of the background thread's work synchronously on
    /// the calling thread: a mode-machine step, an unversioning pass (when
    /// in Mode Q), and an EBR advance/collect.
    ///
    /// This is the deterministic substitute for the background thread when
    /// the runtime was started with `bg_thread: false` — schedule
    /// exploration calls it from a simulated thread so mode transitions and
    /// unversioning become explicit, reorderable steps instead of
    /// wall-clock-timed surprises. `samples` carries the commit-timestamp
    /// delta window across calls (the background thread's loop state).
    /// A fresh EBR handle on this runtime's collector, for driving
    /// [`Self::bg_step`] from a caller-owned thread.
    pub fn bg_ebr_handle(&self) -> LocalHandle {
        LocalHandle::new(Arc::clone(&self.ebr))
    }

    pub fn bg_step(&self, ebr: &mut LocalHandle, samples: &mut Vec<u64>) {
        if self.cfg.forced_mode.is_none() {
            run_mode_machine(self);
        }
        if self.current_mode() == Mode::Q && self.cfg.forced_mode != Some(ForcedMode::ModeU) {
            run_unversioning(self, ebr, samples);
        }
        self.ebr.try_advance();
        self.ebr.collect_orphans();
        ebr.collect();
    }
}

impl Drop for MultiverseRuntime {
    fn drop(&mut self) {
        // The background thread holds only a Weak reference, so reaching this
        // point means it can no longer upgrade; make sure it exits and joins.
        // It upgrades for the length of each `bg_step`, so the last `Arc` can
        // drop on the background thread itself: that thread is already on
        // its way out, and joining it from itself would fail.
        self.stop_bg.store(true, Ordering::Release);
        if let Some(join) = self.bg_join.lock().unwrap().take() {
            if join.thread().id() != std::thread::current().id() {
                let _ = join.join();
            }
        }
    }
}

impl TmRuntime for MultiverseRuntime {
    type Handle = Handle<MultiverseTx>;

    fn register(self: &Arc<Self>) -> Self::Handle {
        Handle::new(MultiverseTx::new(Arc::clone(self)))
    }

    fn name(&self) -> &'static str {
        match self.cfg.forced_mode {
            None => "Multiverse",
            Some(ForcedMode::ModeQ) => "Multiverse-ModeQ",
            Some(ForcedMode::ModeU) => "Multiverse-ModeU",
        }
    }

    fn stats(&self) -> TmStatsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.buckets_unversioned += self.unversioned_bucket_count();
        snap.pool_retires += self.bg_pool_retires.load(Ordering::Relaxed);
        // The workers count only their Q->QtoU CASes; the runtime counts
        // every transition, the background thread's three included.
        snap.mode_transitions = self.mode_transition_count();
        snap
    }

    fn versioning_bytes(&self) -> usize {
        self.version_metadata_bytes()
    }

    fn shutdown(&self) {
        self.shutdown_background();
    }
}

// ---------------------------------------------------------------------------
// The background thread (Listing 6)
// ---------------------------------------------------------------------------

fn background_loop(weak: Weak<MultiverseRuntime>) {
    let mut ebr_handle: Option<LocalHandle> = None;
    let mut delta_samples: Vec<u64> = Vec::new();
    loop {
        let Some(rt) = weak.upgrade() else { return };
        if rt.stop_bg.load(Ordering::Acquire) {
            return;
        }
        let sleep = Duration::from_micros(rt.cfg.bg_sleep_us.max(1));
        if ebr_handle.is_none() {
            ebr_handle = Some(LocalHandle::new(Arc::clone(&rt.ebr)));
        }
        let ebr = ebr_handle.as_mut().expect("ebr handle initialized above");

        rt.bg_step(ebr, &mut delta_samples);

        drop(rt);
        std::thread::sleep(sleep);
    }
}

/// One step of the mode state machine (Figure 5). The background thread owns
/// every transition except Q → QtoU, which workers initiate.
fn run_mode_machine(rt: &MultiverseRuntime) {
    let counter = rt.mode_counter();
    match Mode::from_counter(counter) {
        Mode::Q => {
            // Nothing to do: workers CAS the counter to enter QtoU.
        }
        Mode::QtoU => {
            // Wait for updaters that still run with local Mode Q (they do not
            // version their writes) to drain, then enter Mode U.
            if !any_stale_worker(&rt.registry, counter, |s| s.is_update())
                && rt.advance_mode(counter)
            {
                // Record the first observed Mode-U timestamp used by the
                // earliest-safe-timestamp optimization (§4.2).
                rt.first_obs_mode_u_ts
                    .store(rt.clock.read(), Ordering::Release);
            }
        }
        Mode::U => {
            // Stay in Mode U while any thread still wants it (sticky bits).
            if !any_sticky_mode_u(&rt.registry) {
                rt.advance_mode(counter);
            }
        }
        Mode::UtoQ => {
            // Wait for versioned readers that still run with local Mode U to
            // drain, then invalidate the Mode-U timestamp and return to Q.
            if !any_stale_worker(&rt.registry, counter, |s| s.is_versioned()) {
                rt.first_obs_mode_u_ts
                    .store(FIRST_OBS_INVALID, Ordering::Release);
                rt.advance_mode(counter);
            }
        }
    }
}

/// One unversioning pass (§4.4): compute the threshold from the commit-
/// timestamp deltas and unversion every bucket whose newest version is older
/// than the threshold.
///
/// The pass visits only the buckets whose VLT occupancy bit is set, so its
/// cost follows the number of versioned buckets, not the table size: once
/// every bucket is unversioned a pass is one load per 64 buckets. The bit is
/// a hint, read without the stripe lock, so each visit keeps the unlocked
/// `bucket_is_empty` re-check and `unversion_bucket` keeps its `try_lock`. A
/// bucket whose bit is set after the pass read its word waits for the next
/// pass; that delays unversioning (liveness) and can never unversion a
/// bucket wrongly (see the `vlt` module docs).
fn run_unversioning(rt: &MultiverseRuntime, ebr: &mut LocalHandle, samples: &mut Vec<u64>) {
    if let Some(avg) = average_commit_ts_delta(&rt.registry) {
        samples.push(avg);
        let l = rt.cfg.l_delta_samples.max(1);
        if samples.len() > l {
            let excess = samples.len() - l;
            samples.drain(..excess);
        }
    }
    let l = rt.cfg.l_delta_samples.max(1);
    if samples.len() < l {
        return;
    }
    let mut sorted = samples.clone();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let prefix_len = rt.cfg.prefix_len().min(sorted.len());
    let prefix_avg = sorted[..prefix_len].iter().sum::<u64>() / prefix_len as u64;
    let threshold = prefix_avg.max(rt.cfg.min_unversion_threshold);

    let now = rt.clock.read();
    ebr.pin();
    for idx in rt.vlt.iter_occupied() {
        if rt.current_mode() != Mode::Q {
            break;
        }
        if rt.vlt.bucket_is_empty(idx) {
            continue;
        }
        let Some(latest) = rt.vlt.newest_timestamp_in_bucket(idx) else {
            continue;
        };
        if now.saturating_sub(latest) < threshold {
            continue;
        }
        unversion_bucket(rt, ebr, idx);
    }
    ebr.unpin();
}

/// Unversion one VLT bucket: claim the stripe lock (with the versioning
/// flag so readers wait instead of aborting), detach the bucket, reset the
/// bloom filter and retire the whole chain as **one** EBR entry whose
/// destructor recycles every node (and each version-list head) into the
/// arena — batched retirement instead of one entry per node.
///
/// `take_bucket` clears the bucket's occupancy bit inside this critical
/// section, just as `Vlt::insert` sets it inside the inserting writer's or
/// reader's, so the bit and the bucket change together under the stripe
/// lock. If the lock is busy the bucket and its bit stay as they are, and a
/// later pass retries it.
///
/// The version-list heads are detached at *reclaim* time (inside the
/// destructor, after the grace period), so readers that found the bucket
/// just before it was unlinked traverse fully intact lists.
fn unversion_bucket(rt: &MultiverseRuntime, ebr: &mut LocalHandle, idx: usize) {
    let lock = rt.locks.lock_at(idx);
    let Ok(prev) = lock.try_lock(BG_TID, true) else {
        // A worker holds the stripe; skip this bucket for now.
        return;
    };
    let chain = rt.vlt.take_bucket(idx);
    rt.bloom.reset(idx);
    lock.unlock_restore(prev);
    if chain.is_null() {
        return;
    }

    // Count slots for the memory accounting (one per node, one per still-
    // linked version-list head; older versions were retired when they were
    // superseded, §4.5). The walk only reads — the chain stays intact for
    // concurrent readers until the grace period elapses.
    let mut slots = 0usize;
    let mut cur = chain;
    while !cur.is_null() {
        // Safety: the chain is detached; nodes stay alive until reclaimed.
        let node = unsafe { &*cur };
        slots += 1;
        if !node.vlist.head().is_null() {
            slots += 1;
        }
        cur = node.next.load(Ordering::Acquire);
    }
    let bytes = slots * arena::NODE_SLOT_BYTES;
    ebr.retire(chain as *mut u8, arena::recycle_vlt_chain, bytes);
    rt.sub_version_bytes(bytes);
    rt.bg_pool_retires
        .fetch_add(slots as u64, Ordering::Relaxed);
    rt.buckets_unversioned.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MultiverseConfig;
    use std::collections::HashSet;
    use tm_api::{TVar, TmHandle, Transaction, TxKind, TxOutcome};

    fn small_rt() -> Arc<MultiverseRuntime> {
        MultiverseRuntime::start(MultiverseConfig::small())
    }

    #[test]
    fn starts_in_mode_q_and_shuts_down() {
        let rt = small_rt();
        assert_eq!(rt.current_mode(), Mode::Q);
        assert_eq!(rt.name(), "Multiverse");
        rt.shutdown();
    }

    #[test]
    fn forced_mode_u_starts_in_mode_u() {
        let rt = MultiverseRuntime::start(MultiverseConfig::small_mode_u_only());
        assert_eq!(rt.current_mode(), Mode::U);
        assert_eq!(rt.name(), "Multiverse-ModeU");
        assert!(rt.first_obs_mode_u_ts().is_some());
        rt.shutdown();
    }

    #[test]
    fn basic_read_write_commit() {
        let rt = small_rt();
        let mut h = rt.register();
        let x = TVar::new(5u64);
        let v = h.txn(TxKind::ReadWrite, |tx| {
            let v = tx.read_var(&x)?;
            tx.write_var(&x, v + 1)?;
            tx.read_var(&x)
        });
        assert_eq!(v, 6);
        assert_eq!(x.load_direct(), 6);
        assert_eq!(rt.stats().update_commits, 1);
        rt.shutdown();
    }

    #[test]
    fn read_only_transactions_do_not_advance_the_clock() {
        let rt = small_rt();
        let mut h = rt.register();
        let x = TVar::new(5u64);
        let before = rt.clock.read();
        for _ in 0..10 {
            let v = h.txn(TxKind::ReadOnly, |tx| tx.read_var(&x));
            assert_eq!(v, 5);
        }
        assert_eq!(rt.clock.read(), before);
        rt.shutdown();
    }

    #[test]
    fn explicit_abort_rolls_back_everything() {
        let rt = small_rt();
        let mut h = rt.register();
        let x = TVar::new(1u64);
        let out = h.txn_budget(TxKind::ReadWrite, 2, |tx| {
            tx.write_var(&x, 100)?;
            Err::<(), _>(tm_api::Abort)
        });
        assert!(!out.is_committed());
        assert_eq!(x.load_direct(), 1);
        assert_eq!(rt.stats().gave_up, 1);
        rt.shutdown();
    }

    #[test]
    fn worker_cas_moves_q_to_qtou_and_bg_completes_the_cycle() {
        let small = MultiverseConfig::small();
        let rt = stepped_rt(small.stripes, small.k3_versioned_mode_u_after);
        assert_eq!(rt.current_mode(), Mode::Q);
        assert!(rt.try_initiate_qtou(rt.mode_counter()));
        // No stale workers exist, so background steps drive the TM through
        // QtoU -> U; with no sticky flags it then returns to Q via UtoQ.
        let seen = std::cell::RefCell::new(vec![rt.current_mode()]);
        let back_in_q = step_until(&rt, 100, |rt| {
            let mode = rt.current_mode();
            let mut seen = seen.borrow_mut();
            if seen.last() != Some(&mode) {
                seen.push(mode);
            }
            mode == Mode::Q
        });
        assert!(back_in_q, "no return to Mode Q within 100 steps");
        assert_eq!(
            seen.into_inner(),
            [Mode::QtoU, Mode::U, Mode::UtoQ, Mode::Q]
        );
        assert_eq!(rt.mode_counter(), 4);
        assert_eq!(rt.stats().mode_transitions, 4, "every transition counted");
    }

    #[test]
    fn concurrent_counter_increments() {
        let rt = small_rt();
        let counter = Arc::new(TVar::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = Arc::clone(&rt);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    let mut h = rt.register();
                    for _ in 0..2000 {
                        h.txn(TxKind::ReadWrite, |tx| {
                            let v = tx.read_var(&*counter)?;
                            tx.write_var(&*counter, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(counter.load_direct(), 8000);
        rt.shutdown();
    }

    #[test]
    fn long_reader_commits_against_continuous_updates() {
        // The headline behaviour: a read-only transaction over many addresses
        // eventually commits (via the versioned path) even though updaters
        // continuously modify the addresses it reads.
        let rt = small_rt();
        let vars: Arc<Vec<TVar<u64>>> = Arc::new((0..256).map(|i| TVar::new(i as u64)).collect());
        let stop = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let rt = Arc::clone(&rt);
                let vars = Arc::clone(&vars);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut h = rt.register();
                    let mut i = t;
                    while !stop.load(Ordering::Relaxed) {
                        let slot = (i as usize * 17) % vars.len();
                        h.txn(TxKind::ReadWrite, |tx| {
                            let v = tx.read_var(&vars[slot])?;
                            tx.write_var(&vars[slot], v + 1000)
                        });
                        i += 1;
                    }
                });
            }
            let rt2 = Arc::clone(&rt);
            let vars2 = Arc::clone(&vars);
            let stop2 = Arc::clone(&stop);
            s.spawn(move || {
                let mut h = rt2.register();
                for _ in 0..20 {
                    // Each scan must observe a consistent snapshot: values are
                    // initial + k*1000, so the sum modulo 1000 must equal the
                    // initial sum modulo 1000.
                    let sum = h.txn(TxKind::ReadOnly, |tx| {
                        let mut sum = 0u64;
                        for v in vars2.iter() {
                            sum += tx.read_var(v)? % 1000;
                        }
                        Ok(sum)
                    });
                    assert_eq!(sum, (0..256u64).sum::<u64>());
                }
                stop2.store(true, Ordering::Relaxed);
            });
        });
        let stats = rt.stats();
        assert!(stats.commits > 0);
        rt.shutdown();
    }

    /// A runtime whose background work is driven by [`step_until`], with
    /// every read-only transaction versioned (K1 = 0) and unversioning
    /// allowed one clock tick after the last versioned commit.
    fn stepped_rt(stripes: usize, k3: u64) -> Arc<MultiverseRuntime> {
        MultiverseRuntime::start(MultiverseConfig {
            stripes,
            k1_versioned_after: 0,
            k3_versioned_mode_u_after: k3,
            l_delta_samples: 1,
            min_unversion_threshold: 1,
            bg_thread: false,
            ..MultiverseConfig::small()
        })
    }

    /// Run `bg_step` until `done` holds, at most `max` times; returns
    /// whether `done` was reached.
    fn step_until(
        rt: &MultiverseRuntime,
        max: usize,
        done: impl Fn(&MultiverseRuntime) -> bool,
    ) -> bool {
        let mut ebr = rt.bg_ebr_handle();
        let mut samples = Vec::new();
        for _ in 0..max {
            if done(rt) {
                return true;
            }
            rt.bg_step(&mut ebr, &mut samples);
        }
        done(rt)
    }

    /// Read every variable in one read-only transaction.
    fn read_all(h: &mut Handle<MultiverseTx>, vars: &[TVar<u64>]) -> u64 {
        h.txn(TxKind::ReadOnly, |tx| {
            let mut sum = 0;
            for v in vars {
                sum += tx.read_var(v)?;
            }
            Ok(sum)
        })
    }

    #[test]
    fn unversioning_visits_only_versioned_buckets() {
        let rt = stepped_rt(1 << 18, MultiverseConfig::small().k3_versioned_mode_u_after);
        let vars: Vec<TVar<u64>> = (0..8u64).map(TVar::new).collect();
        let used: HashSet<usize> = vars
            .iter()
            .map(|v| rt.locks.index_of(v.word().addr()))
            .collect();
        let mut h = rt.register();
        // Versioned in Mode Q: every address read gets a version list.
        assert_eq!(read_all(&mut h, &vars), 28);
        assert_eq!(rt.current_mode(), Mode::Q);
        assert_eq!(rt.vlt.occupied_buckets(), used.len());
        // Age the initial versions past the threshold.
        rt.clock.tick(rt.clock.read());
        rt.clock.tick(rt.clock.read());

        assert!(
            step_until(&rt, 100, |rt| rt.vlt.occupied_buckets() == 0),
            "the versioned buckets were not unversioned within 100 steps"
        );
        assert_eq!(rt.unversioned_bucket_count(), used.len() as u64);
        // Nothing is versioned any more, so a pass over the 1 << 18
        // buckets visits none of them.
        assert_eq!(rt.vlt.iter_occupied().count(), 0);
        step_until(&rt, 1, |_| false);
        assert_eq!(rt.unversioned_bucket_count(), used.len() as u64);
    }

    #[test]
    fn dropping_a_sticky_handle_releases_mode_u() {
        let rt = stepped_rt(MultiverseConfig::small().stripes, 0);
        let vars: Vec<TVar<u64>> = (0..8u64).map(TVar::new).collect();
        let mut sticky = rt.register();
        // The first attempt versions every address and then aborts; with
        // K3 = 0 that abort starts the move to Mode U and sets the handle's
        // sticky bit. The retry commits.
        let mut first = true;
        sticky.txn(TxKind::ReadOnly, |tx| {
            for v in &vars {
                tx.read_var(v)?;
            }
            if std::mem::take(&mut first) {
                Err(tm_api::Abort)
            } else {
                Ok(())
            }
        });
        assert!(step_until(&rt, 100, |rt| rt.current_mode() == Mode::U));
        // A second, short-lived reader announces the delta the
        // unversioning heuristic samples once the TM is back in Mode Q.
        let mut h = rt.register();
        assert_eq!(read_all(&mut h, &vars[..1]), 0);
        assert!(
            !step_until(&rt, 20, |rt| rt.current_mode() != Mode::U),
            "the live sticky handle must hold Mode U"
        );

        drop(sticky);
        rt.clock.tick(rt.clock.read());
        rt.clock.tick(rt.clock.read());
        assert!(
            step_until(&rt, 100, |rt| rt.current_mode() == Mode::Q
                && rt.unversioned_bucket_count() > 0),
            "a dropped sticky handle kept the TM in {:?} with {} buckets unversioned",
            rt.current_mode(),
            rt.unversioned_bucket_count()
        );
        let live = rt.registry.fold(0, |n, _| n + 1);
        assert_eq!(live, 1, "the dropped handle's slot left the registry");
    }

    #[test]
    fn mode_u_read_only_retry_runs_versioned() {
        // K1 = 100, and no transaction has committed in Mode U yet, so only
        // the Mode-U rule can put attempt 1 on the versioned path.
        let rt = MultiverseRuntime::start(MultiverseConfig {
            k1_versioned_after: 100,
            bg_thread: false,
            ..MultiverseConfig::small()
        });
        assert!(rt.try_initiate_qtou(rt.mode_counter()));
        assert!(step_until(&rt, 100, |rt| rt.current_mode() == Mode::U));
        let x = TVar::new(7u64);
        let mut h = rt.register();
        let mut paths = Vec::new();
        let v = h.txn(TxKind::ReadOnly, |tx| {
            let v = tx.read_var(&x)?;
            paths.push(tx.is_versioned());
            if paths.len() == 1 {
                Err(tm_api::Abort)
            } else {
                Ok(v)
            }
        });
        assert_eq!(v, 7);
        assert_eq!(paths, [false, true], "attempt 1 after a Mode-U abort");
        let stats = rt.stats();
        assert_eq!((stats.versioned_commits, stats.mode_u_commits), (1, 1));
    }

    #[test]
    fn versioned_reader_walks_past_a_commit_at_its_read_clock() {
        let small = MultiverseConfig::small();
        let rt = stepped_rt(small.stripes, small.k3_versioned_mode_u_after);
        let vars = [TVar::new(1u64), TVar::new(10u64)];
        let mut reader = rt.register();
        let mut writer = rt.register();
        // Version both addresses (K1 = 0: every read-only attempt is
        // versioned).
        assert_eq!(read_all(&mut reader, &vars), 11);
        let versioned_aborts = rt.stats().versioned_aborts;
        let mut attempts = 0;
        let pair = reader.txn(TxKind::ReadOnly, |tx| {
            attempts += 1;
            let a = tx.read_var(&vars[0])?;
            if attempts == 1 {
                // Commit new `x` and `y` between the reader's two reads.
                // Commits do not advance the deferred clock, so this one is
                // stamped exactly the reader's read clock.
                let clock = rt.clock.read();
                assert_eq!(clock, tx.snapshot_clock());
                writer.txn(TxKind::ReadWrite, |w| {
                    w.write_var(&vars[0], 2)?;
                    w.write_var(&vars[1], 20)
                });
                assert_eq!(rt.clock.read(), clock, "the clock stayed quiescent");
            }
            let b = tx.read_var(&vars[1])?;
            Ok((a, b))
        });
        assert_eq!(pair, (1, 10), "the reader serializes before the commit");
        assert_eq!(attempts, 1);
        assert_eq!(rt.stats().versioned_aborts, versioned_aborts);
        assert_eq!(read_all(&mut reader, &vars), 22);
    }

    #[test]
    fn versioned_reader_sees_its_handles_own_committed_write() {
        let small = MultiverseConfig::small();
        let rt = stepped_rt(small.stripes, small.k3_versioned_mode_u_after);
        let vars = [TVar::new(5u64)];
        let mut h = rt.register();
        assert_eq!(read_all(&mut h, &vars), 5);
        h.txn(TxKind::ReadWrite, |tx| tx.write_var(&vars[0], 6));
        let mut attempts = 0;
        let v = h.txn(TxKind::ReadOnly, |tx| {
            attempts += 1;
            assert!(tx.is_versioned());
            tx.read_var(&vars[0])
        });
        assert_eq!((v, attempts), (6, 1), "own write seen on attempt 0");
    }

    #[test]
    fn dropping_the_last_arc_on_the_background_thread_does_not_join_itself() {
        let rt = MultiverseRuntime::start(MultiverseConfig {
            bg_thread: false,
            ..MultiverseConfig::small()
        });
        let (arc_tx, arc_rx) = std::sync::mpsc::channel::<Arc<MultiverseRuntime>>();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let bg = std::thread::spawn(move || {
            let rt = arc_rx.recv().unwrap();
            let dropped = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| drop(rt)));
            done_tx.send(dropped.is_ok()).unwrap();
        });
        // The spawned thread stands in for the background thread: its own
        // handle is the one the runtime's drop finds in `bg_join`.
        *rt.bg_join.lock().unwrap() = Some(bg);
        arc_tx.send(rt).unwrap();
        assert!(
            done_rx.recv().unwrap(),
            "dropping the runtime on its background thread panicked"
        );
    }

    #[test]
    fn versioned_path_engages_after_k1_attempts() {
        let rt = MultiverseRuntime::start(MultiverseConfig {
            k1_versioned_after: 2,
            ..MultiverseConfig::small()
        });
        let mut h = rt.register();
        let x = TVar::new(0u64);
        let mut saw_versioned = false;
        // Force aborts by returning Err until the attempt becomes versioned.
        let out = h.txn_budget(TxKind::ReadOnly, 10, |tx| {
            let _ = tx.read_var(&x)?;
            if tx.is_versioned() {
                Ok(true)
            } else {
                Err(tm_api::Abort)
            }
        });
        if let TxOutcome::Committed(v) = out {
            saw_versioned = v;
        }
        assert!(
            saw_versioned,
            "transaction should switch to the versioned path"
        );
        assert!(rt.stats().versioned_commits >= 1);
        rt.shutdown();
    }
}
