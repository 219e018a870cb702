//! The Multiverse transaction descriptor: unversioned and versioned code
//! paths, Mode Q / Mode U read protocols, commit and abort (paper §4.1–§4.3,
//! Listings 1–5).
//!
//! The unversioned path is DCTL's: validated reads, encounter-time stripe
//! locks and commit-time read-set validation are calls into
//! [`tm_api::DctlCore`], the same core the DCTL baseline runs on.
//! Versioning stays here as hooks around it: the version-list write between
//! the undo push and the in-place store, the versioned-write records
//! (`vwrites`) resolved at commit and unlinked on abort, and the WAL tap,
//! which reads the core's undo log. The core's module docs name the three
//! places where the two TMs still differ.

use crate::arena;
use crate::config::ForcedMode;
use crate::modes::Mode;
use crate::registry::ThreadSlot;
use crate::runtime::MultiverseRuntime;
use crate::version::{VersionList, VersionNode};
use crate::vlt::VltNode;
use ebr::pool::{PoolHandle, SlotSource};
use ebr::{LocalHandle, TxMem};
use std::sync::Arc;
use tm_api::abort::TxResult;
use tm_api::backoff::SpinWait;
use tm_api::clock::{ClockCache, Tick};
use tm_api::sync::{fence, Ordering};
use tm_api::traits::Dtor;
use tm_api::txset::InlineVec;
use tm_api::vlock::LockState;
use tm_api::{Abort, DctlCore, Protocol, ThreadStats, Transaction, TxKind, TxWord};

/// Sentinel for "no initial versioned timestamp recorded yet".
pub(crate) const INVALID_TS: u64 = u64::MAX;

/// Record of a version added to a version list by the running transaction,
/// kept so commit can clear the TBD marks and abort can unlink the version.
/// `Copy` so it can live in an [`InlineVec`].
#[derive(Clone, Copy)]
struct VersionedWrite {
    vlist: *const VersionList,
    node: *mut VersionNode,
    older: *mut VersionNode,
}

/// Inline capacity of the versioned-write record list: versioned writes only
/// happen outside Mode Q, and write sets are small in the paper's workloads.
const VWRITE_INLINE: usize = 16;

/// A superseded version node awaiting clock-gated retirement: the node and
/// the commit timestamp of the commit that superseded it.
#[derive(Clone, Copy)]
struct Superseded {
    node: *mut VersionNode,
    commit_ts: u64,
}

/// Inline capacity of the superseded-node queue.
const SUPERSEDE_INLINE: usize = 32;

/// Queue length beyond which `flush_superseded` bumps the clock itself so
/// the queue stays bounded even in abort-free (clock-quiescent) workloads.
const SUPERSEDE_FORCE_AT: usize = 96;

/// The Multiverse transaction descriptor. One per registered thread, reused
/// across attempts and operations.
pub struct MultiverseTx {
    pub(crate) rt: Arc<MultiverseRuntime>,
    pub(crate) slot: Arc<ThreadSlot>,
    pub(crate) stats: Arc<ThreadStats>,
    pub(crate) ebr: LocalHandle,
    mem: TxMem,
    /// Per-thread handle onto the shared version-node arena.
    pool: PoolHandle,
    /// Committed-but-superseded version nodes awaiting clock-gated
    /// retirement (see [`Self::flush_superseded`]).
    superseded: InlineVec<Superseded, SUPERSEDE_INLINE>,
    /// Per-thread lower bound on the global clock, refreshed by the real
    /// reads in [`Self::begin`] / [`Self::try_commit`]. Only stale-low-safe
    /// consumers (the supersede gate pre-check, the commit-ts-delta
    /// heuristic) recall it — never read-clock or commit-timestamp
    /// acquisition, which stay real clock operations (see `tm_api::clock`).
    clock_cache: ClockCache,

    // ---- per-attempt state ----
    /// The unversioned DCTL protocol state: tid, read clock, read count,
    /// read set, undo log and held stripes.
    core: DctlCore,
    kind: TxKind,
    local_mode_counter: u64,
    local_mode: Mode,
    versioned: bool,
    vwrites: InlineVec<VersionedWrite, VWRITE_INLINE>,

    // ---- per-operation state (persists across the retries of one txn) ----
    /// Index of the running attempt within its operation (0 = first).
    attempts: u64,
    initial_versioned_ts: u64,
    last_attempt_reads: u64,

    // ---- per-thread heuristic state ----
    sticky_mode_u: bool,
    pending_small_threshold: bool,
    small_txn_threshold: u64,
    consec_small: u64,
}

impl MultiverseTx {
    pub(crate) fn new(
        rt: Arc<MultiverseRuntime>,
        tid: u64,
        slot: Arc<ThreadSlot>,
        stats: Arc<ThreadStats>,
        ebr: LocalHandle,
    ) -> Self {
        Self {
            rt,
            slot,
            stats,
            ebr,
            mem: TxMem::new(),
            pool: arena::pool_handle(),
            superseded: InlineVec::new(),
            clock_cache: ClockCache::new(),
            core: DctlCore::new(tid),
            kind: TxKind::ReadOnly,
            local_mode_counter: 0,
            local_mode: Mode::Q,
            versioned: false,
            vwrites: InlineVec::new(),
            attempts: 0,
            initial_versioned_ts: INVALID_TS,
            last_attempt_reads: 0,
            sticky_mode_u: false,
            pending_small_threshold: false,
            small_txn_threshold: 0,
            consec_small: 0,
        }
    }

    /// Whether the current attempt runs on the versioned path.
    pub fn is_versioned_attempt(&self) -> bool {
        self.versioned
    }

    /// The local mode of the current attempt.
    pub fn local_mode(&self) -> Mode {
        self.local_mode
    }

    /// The read clock of the current attempt. A versioned read-only attempt
    /// observes exactly the committed writes with `commit_ts <` this value
    /// (TBD versions below it are spun out before acceptance), which is what
    /// makes it the checkpoint cut for the WAL's snapshot writer.
    pub fn snapshot_clock(&self) -> u64 {
        self.core.rv
    }

    // ------------------------------------------------------------------
    // Read paths
    // ------------------------------------------------------------------

    /// `modeQ_versionedRead` (Listing 4): read through the version list,
    /// versioning the address on demand if necessary.
    fn mode_q_versioned_read(&mut self, word: &TxWord, idx: usize) -> TxResult<u64> {
        let addr = word.addr();
        if self.rt.bloom.try_add(idx, addr) {
            // The filter says the address may already be versioned.
            if let Some(vlist) = self.rt.vlt.find(idx, addr) {
                return vlist.traverse(self.core.rv);
            }
        }
        self.version_then_read(word, idx)
    }

    /// `versionThenRead` (Listing 4): claim the stripe lock with the
    /// "versioning in progress" flag, create the version list, and return the
    /// current value.
    fn version_then_read(&mut self, word: &TxWord, idx: usize) -> TxResult<u64> {
        let addr = word.addr();
        let prev: LockState = {
            let lock = self.rt.locks.lock_at(idx);
            let mut spin = SpinWait::new();
            loop {
                match lock.try_lock(self.core.tid, true) {
                    Ok(prev) => break prev,
                    Err(_) => spin.spin(),
                }
            }
        };
        // Re-check: someone may have versioned the address while we waited.
        if let Some(vlist) = self.rt.vlt.find(idx, addr) {
            let vlist: *const VersionList = vlist;
            self.rt.locks.lock_at(idx).unlock_restore(prev);
            // Safety: version lists are reclaimed through EBR; we are pinned.
            return unsafe { &*vlist }.traverse(self.core.rv);
        }
        let data = word.tm_load();
        // Earliest safe timestamp: the first observed Mode-U timestamp if the
        // TM concurrently entered Mode U, otherwise the lock version (§4.1,
        // §4.2 optimization).
        let ts = self.rt.first_obs_mode_u_ts().unwrap_or(prev.version);
        let node = self.alloc_vlt_node(addr, ts, data);
        // Safety: `node` is freshly initialised (exclusively owned) and we
        // hold the stripe lock for `idx`; the re-check above proved the
        // address is not yet present.
        unsafe { self.rt.vlt.insert(idx, node) };
        self.rt.bloom.try_add(idx, addr);
        self.stats.addresses_versioned.inc();
        self.rt.locks.lock_at(idx).unlock_restore(prev);
        if !prev.validate(self.core.rv, self.core.tid) {
            // The address changed after our read clock; the (now-created)
            // version list stays, but this transaction must abort.
            return Err(Abort);
        }
        Ok(data)
    }

    /// `modeU_versionedRead` (Listing 5): in Mode U every written address is
    /// versioned, so an unversioned address cannot have changed since the TM
    /// entered Mode U — but the check and the data read are not atomic, so a
    /// careful retry protocol distinguishes lock-table collisions from real
    /// concurrent writers.
    fn mode_u_versioned_read(&mut self, word: &TxWord, idx: usize) -> TxResult<u64> {
        let addr = word.addr();
        let mut did_retry = false;
        let mut last_ver = 0u64;
        let mut last_val = 0u64;
        loop {
            if self.rt.bloom.contains(idx, addr) {
                if let Some(vlist) = self.rt.vlt.find(idx, addr) {
                    return vlist.traverse(self.core.rv);
                }
            }
            // The address is not versioned.
            let val = word.tm_load();
            fence(Ordering::Acquire);
            let st = self.rt.locks.lock_at(idx).load();
            let first_obs = self.rt.first_obs_mode_u_ts();
            let valid_ver =
                st.version < self.core.rv || first_obs.is_some_and(|ts| ts < self.core.rv);
            if did_retry {
                let ver_changed = st.version != last_ver;
                let val_changed = val != last_val;
                if valid_ver && ver_changed {
                    // Lock activity was a stripe collision: the address itself
                    // is still unversioned, hence unwritten since Mode U began.
                    return Ok(last_val);
                }
                if st.locked && valid_ver && !ver_changed && !val_changed {
                    // The holder has not (yet) written this address; our first
                    // read preceded any such write.
                    return Ok(last_val);
                }
                if !st.locked && valid_ver {
                    return Ok(last_val);
                }
                return Err(Abort);
            }
            if st.locked {
                // Re-check whether the holder versioned the address, then
                // re-read the data and the lock.
                last_ver = st.version;
                last_val = val;
                did_retry = true;
                continue;
            }
            if st.version < self.core.rv {
                // The stripe has been quiescent since before our read clock:
                // any committed write to this address would have stamped the
                // stripe at or above our read clock, so `val` is stable.
                return Ok(val);
            }
            // Unlocked but stamped at/after our read clock: either a
            // same-stripe collision or this very address was written and
            // versioned by a commit our VLT lookup above raced ahead of. The
            // `Acquire` lock load synchronizes with that commit's release, so
            // looping once more makes its VLT insert visible to the next
            // lookup; the retry arms above then separate collision (accept)
            // from same-address write (version-list read or abort). Accepting
            // `val` here directly on the first-observed-Mode-U-timestamp
            // criterion alone — as this path originally did — is unsound: it
            // can return a value written after the read clock.
            last_ver = st.version;
            last_val = val;
            did_retry = true;
            continue;
        }
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Allocate an arena slot through the per-thread pool handle, tracking
    /// hit/miss statistics.
    #[inline]
    fn alloc_slot(&mut self) -> *mut u8 {
        let (p, src) = self.pool.alloc();
        // `pool_allocs` is derived as hits + misses in the stats snapshot;
        // no third counter bump on this hot path.
        match src {
            SlotSource::Hit => self.stats.pool_hits.inc(),
            SlotSource::Miss => self.stats.pool_misses.inc(),
        }
        p
    }

    /// Allocate and initialise a VLT bucket node plus its initial version
    /// from the arena (in place of the old `VltNode::boxed`). The node is
    /// exclusively owned until the caller publishes it under the stripe
    /// lock.
    fn alloc_vlt_node(&mut self, addr: usize, ts: u64, data: u64) -> *mut VltNode {
        let initial = self.alloc_slot() as *mut VersionNode;
        let node = self.alloc_slot() as *mut VltNode;
        // Safety: both slots are freshly popped, exclusively owned, and
        // slot-sized for either node type; init-before-publish is upheld by
        // the caller (publication under the stripe lock, Release store).
        unsafe {
            arena::init_version_node(initial, std::ptr::null_mut(), ts, data, false);
            arena::init_vlt_node(node, addr, initial);
        }
        self.rt.add_version_bytes(2 * arena::NODE_SLOT_BYTES);
        node
    }

    /// Append a (TBD) version carrying `value` to `vlist`
    /// (`tryWriteToVersionList` / the shared tail of `TMWrite`, Listing 3).
    /// Caller holds the stripe lock.
    fn append_version(&mut self, vlist: *const VersionList, value: u64) {
        // Safety: the list is protected by the stripe lock we hold and
        // reclaimed only through EBR.
        let list = unsafe { &*vlist };
        let head = list.head();
        if !head.is_null() && unsafe { &*head }.tbd.load(Ordering::Acquire) {
            // We already added a TBD version for this address in this
            // transaction (only the lock holder can have a pending version);
            // just update its data.
            unsafe { &*head }.data.store(value, Ordering::Release);
            return;
        }
        let node = self.alloc_slot() as *mut VersionNode;
        // Safety: fresh exclusive slot; published right below under the
        // stripe lock (Release store in `push_head`).
        unsafe { arena::init_version_node(node, head, self.core.rv, value, true) };
        list.push_head(node);
        self.rt.add_version_bytes(arena::NODE_SLOT_BYTES);
        // `eventualFree` of the superseded head happens in `try_commit`,
        // which queues it for clock-gated retirement; an abort instead
        // unlinks and retires the *new* node and leaves `head` live.
        self.vwrites.push(VersionedWrite {
            vlist,
            node,
            older: head,
        });
    }

    /// Advance the global clock past `observed` via the coalescing
    /// [`GlobalClock::tick`](tm_api::clock::GlobalClock::tick), recording
    /// contention stats and teaching the per-thread cache the result.
    #[inline]
    fn tick_clock(&mut self, observed: u64) -> Tick {
        let tick = self.rt.clock.tick(observed);
        self.stats.clock_ticks.inc();
        if tick.retries != 0 {
            self.stats.clock_tick_retries.add(tick.retries as u64);
        }
        self.clock_cache.note(tick.value);
        tick
    }

    /// Hand every version node superseded by a *committed* write of this
    /// thread to EBR — but only once the global clock has advanced past the
    /// superseding commit timestamp.
    ///
    /// Why the clock gate: under the strict `< read-clock` acceptance rule a
    /// reader skips a committed version stamped `T` whenever its read clock
    /// is `<= T` and walks on to the *older* node. A versioned attempt owns
    /// its read clock (its own `increment` in `begin`), so such a
    /// reader advanced the clock — after pinning — before the commit stamped
    /// `T` read it, and EBR's grace period already covers it. The gate is a
    /// second protection on top of that: once the clock exceeds `T`, every
    /// new reader's read clock is ordered after the advance (the EBR
    /// pin/epoch handshake supplies the happens-before edge — see the
    /// `arena` module docs), so it accepts the superseding version and never
    /// walks past it; the grace period covers everyone older. With owned
    /// read clocks the explorer does not flag a gate-only revert; the gate
    /// stays until its memory cost is measured. The queue is bounded: if it
    /// grows past
    /// [`SUPERSEDE_FORCE_AT`] while the clock is quiescent, we bump the
    /// clock ourselves (always safe — the clock is monotonic and a spurious
    /// tick only freshens future read clocks, exactly like the tick every
    /// abort already performs).
    fn flush_superseded(&mut self) {
        if self.superseded.is_empty() {
            return;
        }
        // Reintroduced PR 2 bug (exploration demo): skip the clock gate and
        // retire superseded nodes immediately, the seed behaviour that lets
        // late same-clock readers walk into reclaimed nodes. See
        // `crate::broken`.
        #[cfg(feature = "sim")]
        let gate_disabled = crate::broken::supersede_no_gate();
        #[cfg(not(feature = "sim"))]
        let gate_disabled = false;
        // Entries are queued in nondecreasing commit-timestamp order, so the
        // whole queue is flushable iff the newest entry is.
        let newest = self.superseded.as_slice()[self.superseded.len() - 1].commit_ts;
        // The gate pre-check recalls the per-thread clock lower bound instead
        // of loading the shared line: a stale-low value can only delay
        // retirement (conservative), and begin/commit refresh the cache every
        // attempt, so the delay is at most one operation.
        if !gate_disabled && newest >= self.clock_cache.recall() {
            if self.superseded.len() < SUPERSEDE_FORCE_AT {
                return;
            }
            // After the tick the clock strictly exceeds `newest`, so the
            // whole queue is flushable below.
            self.tick_clock(newest);
        }
        for &s in self.superseded.as_slice() {
            self.ebr.retire(
                s.node as *mut u8,
                arena::recycle_version_node,
                arena::NODE_SLOT_BYTES,
            );
            self.stats.pool_retires.inc();
            self.rt.sub_version_bytes(arena::NODE_SLOT_BYTES);
        }
        self.superseded.clear();
    }

    /// Mode-Q writer behaviour: only maintain version lists that already
    /// exist.
    fn try_write_to_version_list(&mut self, word: &TxWord, idx: usize, value: u64) {
        let addr = word.addr();
        if !self.rt.bloom.contains(idx, addr) {
            return;
        }
        let Some(vlist) = self.rt.vlt.find(idx, addr) else {
            return;
        };
        let vlist: *const VersionList = vlist;
        self.append_version(vlist, value);
    }

    /// Writer behaviour in Modes QtoU / U / UtoQ: version the address first
    /// if necessary, then append the new version.
    fn write_versioning_forced(&mut self, word: &TxWord, idx: usize, old: u64, value: u64) {
        let addr = word.addr();
        let vlist: *const VersionList = match self.rt.vlt.find(idx, addr) {
            Some(v) => v,
            None => {
                // First write to this address since the TM left Mode Q: create
                // its version list. The initial version holds the value the
                // address had before this write, valid since the first
                // observed Mode-U timestamp (or the lock version if that is
                // not available yet).
                let lock_version = self.rt.locks.lock_at(idx).load().version;
                let ts = self.rt.first_obs_mode_u_ts().unwrap_or(lock_version);
                let node = self.alloc_vlt_node(addr, ts, old);
                // Safety: `node` is freshly initialised (exclusively owned),
                // this writer holds the stripe lock for `idx`, and the `find`
                // above proved the address is not yet present.
                unsafe { self.rt.vlt.insert(idx, node) };
                self.rt.bloom.try_add(idx, addr);
                self.stats.addresses_versioned.inc();
                // Safety: we just created and published the node under the
                // stripe lock; it is reclaimed only through EBR.
                unsafe { &(*node).vlist }
            }
        };
        self.append_version(vlist, value);
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Hand this commit's write set to the WAL session, if one is active.
    /// Must run between the commit-clock read and `release_all` (see the
    /// call site in `try_commit`). With no active session this is a single
    /// relaxed load.
    #[cfg(feature = "wal")]
    fn wal_log_commit(&self, commit_clock: u64) {
        if !wal::is_active() || self.core.undo.is_empty() {
            return;
        }
        // The undo log records every write call; collapse it to the write
        // *set*. The first occurrence of each word wins the slot, and the
        // logged value is the word's current (final, still-locked) value,
        // so later writes to the same word are captured regardless.
        let entries = self.core.undo.entries();
        let mut writes: Vec<(u64, u64)> = Vec::with_capacity(entries.len());
        for e in entries {
            // Safety: the word stays alive under this attempt's EBR pin and
            // is exclusively locked by this transaction until release_all.
            let addr = unsafe { (*e.word).addr() } as u64;
            if writes.iter().any(|&(a, _)| a == addr) {
                continue;
            }
            let value = unsafe { (*e.word).tm_load() };
            writes.push((addr, value));
        }
        wal::log_commit(&writes, commit_clock);
    }

    fn on_read_only_commit(&mut self) {
        if self.versioned {
            self.stats.versioned_commits.inc();
            // The cached lower bound is enough here: the delta only feeds the
            // unversioning heuristic, and understating it by a few ticks just
            // makes that heuristic marginally more conservative — not worth a
            // shared clock load on every read-only commit.
            let delta = self
                .clock_cache
                .recall()
                .saturating_sub(self.initial_versioned_ts.min(self.core.rv));
            self.slot.announce_commit_ts_delta(delta);
            if self.local_mode == Mode::U {
                self.stats.mode_u_commits.inc();
                self.rt.update_min_mode_u_read_count(self.core.reads);
            }
        }
        self.note_commit_heuristics();
    }

    /// Sticky-bit bookkeeping shared by all commits (§4.3): after a thread
    /// attempts the Mode-QtoU CAS it stays "sticky" until it commits S
    /// consecutive small transactions.
    fn note_commit_heuristics(&mut self) {
        if !self.sticky_mode_u {
            return;
        }
        let s = self.rt.cfg.s_small_txns.max(1);
        if self.pending_small_threshold {
            // First commit after the CAS attempt defines what "small" means
            // for this thread: 1/S of that transaction's size.
            self.small_txn_threshold = (self.core.reads / s).max(1);
            self.pending_small_threshold = false;
            self.consec_small = 0;
            return;
        }
        let small = !self.versioned || self.core.reads <= self.small_txn_threshold;
        if small {
            self.consec_small += 1;
            if self.consec_small >= s {
                self.sticky_mode_u = false;
                self.slot.set_sticky_mode_u(false);
            }
        } else {
            self.consec_small = 0;
        }
    }

    /// §4.3: after K2 attempts a read-only transaction whose read count is at
    /// least the global minimum Mode-U read count attempts the Mode-QtoU CAS;
    /// a versioned transaction always attempts it after K3 attempts. Either
    /// way the thread sets its sticky Mode-U bit.
    fn consider_mode_u_transition(&mut self) {
        if self.rt.cfg.forced_mode.is_some() {
            return;
        }
        if self.local_mode != Mode::Q {
            return;
        }
        let cfg = &self.rt.cfg;
        let min_reads = self.rt.min_mode_u_read_count();
        let by_k2 = self.attempts >= cfg.k2_mode_u_after && self.core.reads >= min_reads;
        let by_k3 = self.versioned && self.attempts >= cfg.k3_versioned_mode_u_after;
        if !(by_k2 || by_k3) {
            return;
        }
        let initiated = self.rt.try_initiate_qtou(self.local_mode_counter);
        if initiated {
            self.stats.mode_transitions.inc();
        }
        self.sticky_mode_u = true;
        self.slot.set_sticky_mode_u(true);
        self.pending_small_threshold = true;
        self.consec_small = 0;
    }
}

impl Protocol for MultiverseTx {
    /// `beginTxn` (Listing 1): record the local mode, the read clock, decide
    /// whether this attempt runs on the versioned path, and announce the
    /// attempt to the background thread. Attempt 0 starts a new operation
    /// and resets the per-operation heuristic state.
    fn begin(&mut self, kind: TxKind, attempt: u64) {
        self.attempts = attempt;
        if attempt == 0 {
            // A new operation: forget the previous one's heuristic state.
            self.initial_versioned_ts = INVALID_TS;
            self.last_attempt_reads = 0;
        }
        self.kind = kind;
        self.stats.starts.inc();
        self.ebr.pin();
        self.core.reset();
        self.vwrites.clear();

        // Decide the code path for this attempt: read-only transactions switch
        // to the versioned path after K1 failed attempts, or earlier if their
        // previous attempt already read at least as much as the smallest
        // transaction known to have committed in Mode U (§4.1, §4.2), or if
        // the attempt that just aborted ran in local Mode U, where every
        // address written since the transition already has a version.
        // `local_mode` still holds that attempt's mode here.
        let cfg = &self.rt.cfg;
        let min_mode_u_reads = self.rt.min_mode_u_read_count();
        self.versioned = kind == TxKind::ReadOnly
            && (self.attempts >= cfg.k1_versioned_after
                || (self.attempts >= 1
                    && (self.local_mode == Mode::U
                        || self.last_attempt_reads >= min_mode_u_reads)));

        // Announce-and-confirm the local mode counter: store the observed
        // counter, then re-read it; if it moved we adopt the newer value, so
        // the background thread can never observe us running at a mode more
        // than one step behind the counter it published before scanning.
        loop {
            let c1 = self.rt.mode_counter();
            self.slot
                .announce(c1, kind == TxKind::ReadWrite, self.versioned);
            // Safety: this fence supplies the store→load ordering the
            // announce-and-confirm handshake needs now that the counter load
            // is only `Acquire` (plain `Release`-store then `Acquire`-load
            // may be reordered). The fence orders the slot announcement
            // before the confirming counter read; the background thread's
            // scan (`any_stale_worker`) issues the matching `SeqCst` fence
            // after its counter CAS and before reading the slots, so either
            // we observe the advanced counter here (and re-announce) or the
            // scan observes our announcement (and waits for us to drain).
            fence(Ordering::SeqCst);
            let c2 = self.rt.mode_counter();
            if c1 == c2 {
                self.local_mode_counter = c1;
                break;
            }
        }
        self.local_mode = Mode::from_counter(self.local_mode_counter);
        // The read clock MUST come from the shared clock (never a recall): a
        // cached rv would admit this attempt at a timestamp the supersede
        // gate may already have retired behind (see `crate::arena`, safety
        // point 2). A versioned attempt owns its read clock: it advances the
        // clock itself, so every commit stamped `>= rv` read the clock after
        // this attempt began and `VersionList::traverse` may serialize this
        // reader before it. The supersede-gate demo reverts this to a load.
        #[cfg(feature = "sim")]
        let owned_rv = self.versioned && !crate::broken::supersede_no_gate();
        #[cfg(not(feature = "sim"))]
        let owned_rv = self.versioned;
        self.core.rv = if owned_rv {
            let rv = self.rt.clock.increment();
            self.clock_cache.note(rv);
            rv
        } else {
            self.clock_cache.refresh(&self.rt.clock)
        };
        if self.versioned && self.initial_versioned_ts == INVALID_TS {
            // First attempt on the versioned path: remember the initial
            // versioned timestamp for the commit-timestamp-delta heuristic.
            self.initial_versioned_ts = self.core.rv;
        }
    }

    /// `tryCommit` (Listing 1). Returns `Err(Abort)` when validation fails.
    fn try_commit(&mut self) -> TxResult<()> {
        if self.kind == TxKind::ReadOnly {
            self.on_read_only_commit();
            return Ok(());
        }
        // Updating transaction: revalidate the read set.
        self.core.validate_reads(&self.rt.locks)?;
        // The commit timestamp MUST be a real load (refresh, not recall): a
        // stale value would stamp this commit behind read clocks that have
        // already validated against newer state.
        let commit_clock = self.clock_cache.refresh(&self.rt.clock);
        // Log the write set while the stripe locks are still held: the WAL
        // sequence number fetched inside is then ordered exactly as the lock
        // hand-off serializes conflicting commits, so log replay order is a
        // valid serialization even when deferred-clock commit timestamps tie.
        #[cfg(feature = "wal")]
        self.wal_log_commit(commit_clock);
        // Resolve the TBD versions before releasing any lock so versioned
        // readers can never observe a committed write without its version,
        // and queue each superseded head for clock-gated retirement
        // (`eventualFree`, §4.5 — see `flush_superseded` for the gate).
        for i in 0..self.vwrites.len() {
            let vw = self.vwrites.as_slice()[i];
            // Safety: nodes we created; still protected by the stripe lock.
            unsafe { &*vw.node }.resolve_committed(commit_clock);
            if !vw.older.is_null() {
                self.superseded.push(Superseded {
                    node: vw.older,
                    commit_ts: commit_clock,
                });
            }
        }
        self.core.locked.release_all(&self.rt.locks, commit_clock);
        self.note_commit_heuristics();
        Ok(())
    }

    /// Post-commit cleanup (memory management, announcements). The
    /// per-attempt logs are *not* cleared here: `begin` clears them at the
    /// start of the next attempt, so the commit path stays minimal.
    fn commit(&mut self) {
        self.mem.on_commit(&mut self.ebr);
        self.flush_superseded();
        self.slot.clear_active();
        self.ebr.unpin();
    }

    /// `abort` (Listing 1): roll back in-place writes and versioned writes,
    /// revoke retires, release locks at a fresh clock value, and run the
    /// mode-switch heuristics.
    fn abort(&mut self) {
        // 1. Roll back the in-place writes (newest first).
        self.core.undo.rollback();
        // 2. Roll back versioned writes: mark deleted, unlink, retire. The
        //    unlinked node is unreachable for newly pinned readers, so plain
        //    grace-period retirement suffices (no clock gate needed); the
        //    retire destructor recycles the slot into the arena.
        for i in 0..self.vwrites.len() {
            let vw = self.vwrites.as_slice()[i];
            // Safety: we created the node and still hold the stripe lock.
            unsafe {
                (*vw.node).resolve_deleted();
                (*vw.vlist).restore_head(vw.older);
            }
            self.ebr.retire(
                vw.node as *mut u8,
                arena::recycle_version_node,
                arena::NODE_SLOT_BYTES,
            );
            self.stats.pool_retires.inc();
            self.rt.sub_version_bytes(arena::NODE_SLOT_BYTES);
        }
        self.vwrites.clear();
        // 3. Revoke retires and free buffered allocations.
        self.mem.on_abort();
        // 4. Advance the clock past this attempt's read clock (the deferred
        //    clock advances on aborts) and release the write-set locks at the
        //    ticked value. The coalescing tick keeps the guarantee the old
        //    unconditional increment provided — the retry's `begin` observes
        //    a read clock strictly above `rv`, so a reader conflicting with
        //    an already-committed write cannot spin on the same read clock —
        //    but an abort storm performs at most one successful CAS per clock
        //    value instead of one fetch_add per abort. Releasing locks at an
        //    adopted (shared) clock value is fine: deferred-clock commits
        //    already release at non-unique values.
        let tick = self.tick_clock(self.core.rv);
        if !self.core.locked.is_empty() {
            self.core.locked.release_all(&self.rt.locks, tick.value);
        }
        // The clock now strictly exceeds `rv`, which is >= every queued
        // commit timestamp (each was stamped by an earlier operation, before
        // the `begin` that read `rv`), so the supersede queue drains here.
        self.flush_superseded();
        // 5. Heuristics: consider initiating the Mode Q -> QtoU transition.
        if self.kind == TxKind::ReadOnly {
            self.consider_mode_u_transition();
        }
        if self.versioned {
            self.stats.versioned_aborts.inc();
        }
        self.last_attempt_reads = self.core.reads;
        self.core.read_set.clear();
        self.slot.clear_active();
        self.ebr.unpin();
    }

    fn stats(&self) -> &ThreadStats {
        &self.stats
    }
}

impl Drop for MultiverseTx {
    fn drop(&mut self) {
        // Hand any still-queued superseded nodes to EBR before the embedded
        // `LocalHandle` drops (which orphans its garbage onto the
        // collector). A forced clock tick makes the queue flushable.
        if !self.superseded.is_empty() {
            let newest = self.superseded.as_slice()[self.superseded.len() - 1].commit_ts;
            self.tick_clock(newest);
            self.flush_superseded();
        }
        // A dropped handle must not keep the TM in Mode U or keep feeding
        // the unversioning heuristic; the registry prunes the slot itself
        // once this handle's reference is gone.
        self.slot.withdraw(self.sticky_mode_u);
    }
}

impl Transaction for MultiverseTx {
    fn read(&mut self, word: &TxWord) -> TxResult<u64> {
        self.core.reads += 1;
        self.stats.reads.inc();
        let idx = self.rt.locks.index_of(word.addr());
        let result = if self.versioned {
            // Versioned readers use the Mode-U protocol only while their
            // local mode is Mode U; in QtoU and UtoQ they behave as in Mode Q
            // (Table 1).
            if self.local_mode == Mode::U || self.rt.cfg.forced_mode == Some(ForcedMode::ModeU) {
                self.mode_u_versioned_read(word, idx)
            } else {
                self.mode_q_versioned_read(word, idx)
            }
        } else {
            self.core.read(&self.rt.locks, word, idx)
        };
        if let Ok(v) = result {
            tm_api::record::on_read(word.addr(), v);
        }
        result
    }

    fn write(&mut self, word: &TxWord, value: u64) -> TxResult<()> {
        self.stats.writes.inc();
        // Refused before any lock: the QtoU -> U drain waits only for update
        // slots, so a ReadOnly writer's write could escape versioning.
        assert!(
            self.kind == TxKind::ReadWrite,
            "Multiverse: a write inside a TxKind::ReadOnly transaction"
        );
        let idx = self.rt.locks.index_of(word.addr());
        self.core.lock_for_write(&self.rt.locks, idx)?;
        let old = word.tm_load();
        self.core.undo.push(word, old);
        if self.local_mode.writers_version() {
            self.write_versioning_forced(word, idx, old, value);
        } else {
            self.try_write_to_version_list(word, idx, value);
        }
        word.tm_store(value);
        tm_api::record::on_write(word.addr(), value);
        Ok(())
    }

    fn defer_alloc(&mut self, ptr: *mut u8, dtor: Dtor) {
        self.mem.record_alloc(ptr, dtor, 0);
    }

    fn defer_retire(&mut self, ptr: *mut u8, dtor: Dtor) {
        self.mem.record_retire(ptr, dtor, 0);
    }

    fn is_versioned(&self) -> bool {
        self.versioned
    }

    fn read_count(&self) -> u64 {
        self.core.reads
    }
}
