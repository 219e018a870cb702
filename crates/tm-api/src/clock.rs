//! The global transactional clock.
//!
//! All lock-based TMs in this repository (TL2, TinySTM, DCTL and Multiverse)
//! order transactions with a single global logical clock. The *policy* for
//! advancing the clock differs per algorithm:
//!
//! * TL2 / TinySTM increment it at every writer commit,
//! * DCTL and Multiverse use the *deferred* clock of Ramalhete & Correia:
//!   the clock is only incremented when a transaction aborts (Listing 1 of the
//!   paper, `abort()` line `nextClock = gClock.increment()`), which drastically
//!   reduces coherence traffic on the clock line for commit-heavy workloads.
//!
//! The clock itself is just a cache-padded `AtomicU64` (the padding spans
//! two cache lines so the adjacent-line prefetcher cannot couple it to a
//! neighbouring field; see [`CachePadded`]); the policy lives in the
//! individual TMs.
//!
//! ## Contention relief
//!
//! At high core counts the deferred clock's abort path is the next shared
//! write after the arenas: an abort storm turns into N threads
//! `fetch_add`ing one line. Two tools keep that line quiet:
//!
//! * [`GlobalClock::tick`] — a *coalescing* advance. The aborting thread
//!   passes the clock value its attempt observed; if the clock has already
//!   moved past it (some other abort advanced it first), the current value
//!   is adopted **without writing**. An abort storm then performs at most
//!   one successful CAS per clock value instead of one locked RMW per
//!   abort.
//! * [`ClockCache`] — a per-thread cache of the last value its owner
//!   observed, for consumers where a stale-**low** value is conservative
//!   (e.g. the supersede-queue gate, which holds nodes *longer* when the
//!   cached value lags). **Never** use it for read-clock (`rv`) or
//!   commit-timestamp acquisition: a reader admitted at a stale read clock
//!   could walk version lists whose superseded nodes were already retired
//!   past the real clock (see the safety argument in `multiverse::arena`).

use crate::padded::CachePadded;
use crate::sync::{AtomicU64, Ordering};

/// Initial clock value.
///
/// We start at 2 so that `0` and `1` stay available as sentinels (the
/// version-list code uses `0` for "never written" and Multiverse uses
/// `u64::MAX` family values for deleted / invalid timestamps).
pub const INITIAL_CLOCK: u64 = 2;

/// A shared monotonically increasing logical clock.
#[derive(Debug)]
pub struct GlobalClock {
    value: CachePadded<AtomicU64>,
}

impl Default for GlobalClock {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalClock {
    /// Create a clock starting at [`INITIAL_CLOCK`].
    pub fn new() -> Self {
        Self {
            value: CachePadded::new(AtomicU64::new(INITIAL_CLOCK)),
        }
    }

    /// Read the current clock value. Used to obtain read clocks and commit
    /// clocks.
    #[inline(always)]
    pub fn read(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Atomically increment the clock and return the *new* value.
    #[inline(always)]
    pub fn increment(&self) -> u64 {
        self.value.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Coalescing advance for the deferred-clock abort path: ensure the
    /// clock is strictly above `observed` (a value previously read from
    /// *this* clock), writing only when no other thread already advanced it
    /// past that point.
    ///
    /// Behaviour with `observed <= current`: if the clock already exceeds
    /// `observed`, the current value is adopted with **no write** — for the
    /// caller this is indistinguishable from having ticked (some abort did
    /// advance the clock past its observation), and the clock line stays in
    /// shared state. Otherwise one CAS advances `current` by one. Either
    /// way the returned [`Tick::value`] is `> observed`.
    ///
    /// The CAS retry count is returned as a contention signal
    /// (`clock_tick_retries` in the TM stats): every retry is a collision
    /// with another advancing thread on the clock line.
    #[inline]
    pub fn tick(&self, observed: u64) -> Tick {
        let mut retries = 0u32;
        let mut cur = self.value.load(Ordering::Acquire);
        loop {
            if cur > observed {
                return Tick {
                    value: cur,
                    advanced: false,
                    retries,
                };
            }
            match self.value.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) if cur >= observed => {
                    return Tick {
                        value: cur + 1,
                        advanced: true,
                        retries,
                    };
                }
                // `observed` came from a reading of this clock that is
                // somehow ahead of `cur` (callers passing foreign values);
                // keep advancing until the postcondition holds.
                Ok(_) => cur += 1,
                Err(seen) => {
                    retries += 1;
                    cur = seen;
                }
            }
        }
    }

    /// TL2 GV4-style commit timestamp acquisition: try to advance the clock by
    /// one with a CAS; if another thread advanced it concurrently, adopt that
    /// thread's value instead of retrying. [`Tick::value`] is the commit
    /// timestamp to use; [`Tick::advanced`] is `false` when it was adopted,
    /// in which case another writer may have committed at the same value.
    #[inline]
    pub fn fetch_commit_gv4(&self, read_clock: u64) -> Tick {
        let cur = self.value.load(Ordering::Acquire);
        let (value, advanced, retries) =
            match self
                .value
                .compare_exchange(cur, cur + 1, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => (cur + 1, true, 0),
                // Someone else advanced the clock. GV4: if it moved past our
                // read clock we can simply reuse the observed value.
                Err(observed) if observed > read_clock => (observed, false, 1),
                Err(_) => (self.increment(), true, 1),
            };
        Tick {
            value,
            advanced,
            retries,
        }
    }
}

/// Outcome of a coalescing [`GlobalClock::tick`] or of
/// [`GlobalClock::fetch_commit_gv4`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tick {
    /// The clock value after the call; always strictly greater than the
    /// `observed` value passed in.
    pub value: u64,
    /// Whether this call wrote the clock. `false` means another thread's
    /// advance was adopted instead (the coalesced fast path).
    pub advanced: bool,
    /// CAS retries taken — each one a clock-line collision with another
    /// advancing thread.
    pub retries: u32,
}

/// A single-owner cache of the last [`GlobalClock`] value its owner
/// observed, so conservative consumers can consult the clock without
/// touching the shared line on every query.
///
/// The cached value is always `<=` the real clock (the clock is monotone),
/// so it is sound exactly for consumers where a stale-**low** answer fails
/// safe — e.g. the supersede-queue gate (`newest >= clock` holds nodes
/// back; a lagging cache holds them *longer*) or heuristics. It is **never**
/// sound for read-clock (`rv`) or commit-timestamp acquisition; see the
/// module docs.
///
/// Not `Sync`: one owner, embedded in a per-thread descriptor.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClockCache {
    last: u64,
}

impl ClockCache {
    /// An empty cache (recalls 0 until the first refresh/note).
    pub const fn new() -> Self {
        Self { last: 0 }
    }

    /// Perform a real clock read, remember it, and return it.
    #[inline]
    pub fn refresh(&mut self, clock: &GlobalClock) -> u64 {
        self.last = clock.read();
        self.last
    }

    /// Fold in a clock value the owner obtained elsewhere (a commit
    /// timestamp, a [`Tick::value`]) without touching the shared line.
    #[inline]
    pub fn note(&mut self, value: u64) {
        if value > self.last {
            self.last = value;
        }
    }

    /// The most recent value observed through this cache — a lower bound on
    /// the real clock, with no shared-memory traffic.
    #[inline]
    pub fn recall(&self) -> u64 {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_at_initial_and_increments() {
        let c = GlobalClock::new();
        assert_eq!(c.read(), INITIAL_CLOCK);
        assert_eq!(c.increment(), INITIAL_CLOCK + 1);
        assert_eq!(c.read(), INITIAL_CLOCK + 1);
    }

    #[test]
    fn gv4_returns_monotonic_values() {
        let c = GlobalClock::new();
        let rv = c.read();
        let t1 = c.fetch_commit_gv4(rv);
        let t2 = c.fetch_commit_gv4(rv);
        // Uncontended: each call moves the clock itself.
        assert_eq!((t1.value, t1.advanced), (rv + 1, true));
        assert!(t2.value > t1.value && t2.advanced);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let c = Arc::new(GlobalClock::new());
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.increment();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.read(), INITIAL_CLOCK + threads * per_thread);
    }

    #[test]
    fn tick_advances_only_past_the_observation() {
        let c = GlobalClock::new();
        let v = c.read();
        // Clock already past the observation: adopt, don't write.
        let t = c.tick(v - 1);
        assert_eq!(
            t,
            Tick {
                value: v,
                advanced: false,
                retries: 0
            }
        );
        assert_eq!(c.read(), v, "coalesced tick must not move the clock");
        // Clock at the observation: one advance.
        let t = c.tick(v);
        assert_eq!(
            t,
            Tick {
                value: v + 1,
                advanced: true,
                retries: 0
            }
        );
        assert_eq!(c.read(), v + 1);
        // Repeating the same observation coalesces.
        let t = c.tick(v);
        assert!(!t.advanced);
        assert_eq!(t.value, v + 1);
        assert_eq!(c.read(), v + 1);
    }

    #[test]
    fn tick_recovers_even_from_a_foreign_observation() {
        // Defensive postcondition: even if `observed` is ahead of the
        // current value (no in-tree caller does this), the clock still ends
        // strictly above it.
        let c = GlobalClock::new();
        let t = c.tick(INITIAL_CLOCK + 5);
        assert!(t.value > INITIAL_CLOCK + 5);
        assert_eq!(c.read(), t.value);
    }

    #[test]
    fn concurrent_ticks_are_monotone_and_advances_unique() {
        // 8 threads race coalescing ticks. Required: per-thread tick values
        // strictly exceed their observations (monotone progress), every
        // *advanced* value is unique process-wide (each successful CAS
        // consumes one distinct clock transition), and the final clock value
        // equals the initial value plus the total number of advances
        // (coalesced ticks write nothing).
        let c = Arc::new(GlobalClock::new());
        let threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut advanced = Vec::new();
                    let mut last = 0u64;
                    for _ in 0..per_thread {
                        let observed = c.read();
                        let t = c.tick(observed);
                        assert!(t.value > observed, "tick must pass its observation");
                        assert!(t.value >= last, "per-thread tick values must be monotone");
                        last = t.value;
                        if t.advanced {
                            advanced.push(t.value);
                        }
                    }
                    advanced
                })
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let total = all.len() as u64;
        assert!(total > 0, "at least one tick must have advanced the clock");
        let unique: std::collections::HashSet<u64> = all.into_iter().collect();
        assert_eq!(
            unique.len() as u64,
            total,
            "two ticks claimed the same clock advance"
        );
        assert_eq!(
            c.read(),
            INITIAL_CLOCK + total,
            "clock moved by exactly the number of successful advances"
        );
    }

    #[test]
    fn clock_cache_is_a_lower_bound() {
        let c = GlobalClock::new();
        let mut cache = ClockCache::new();
        assert_eq!(cache.recall(), 0);
        assert_eq!(cache.refresh(&c), INITIAL_CLOCK);
        c.increment();
        // Stale-low until the next refresh/note — by design.
        assert_eq!(cache.recall(), INITIAL_CLOCK);
        assert!(cache.recall() <= c.read());
        cache.note(c.read());
        assert_eq!(cache.recall(), INITIAL_CLOCK + 1);
        // `note` never regresses the cache.
        cache.note(1);
        assert_eq!(cache.recall(), INITIAL_CLOCK + 1);
    }

    #[test]
    fn concurrent_gv4_is_monotone_per_thread() {
        let c = Arc::new(GlobalClock::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut last = 0;
                    let mut advanced = Vec::new();
                    for _ in 0..5_000 {
                        let rv = c.read();
                        let t = c.fetch_commit_gv4(rv);
                        assert!(t.value >= last, "commit timestamps must not go backwards");
                        assert!(t.value > rv, "commit ts must exceed the read clock");
                        if t.advanced {
                            advanced.push(t.value);
                        }
                        last = t.value;
                    }
                    advanced
                })
            })
            .collect();
        // A value reported as `advanced` was written by that call alone:
        // TL2's skip of read-set validation at `wv == rv + 1` relies on it.
        let mut seen = std::collections::HashSet::new();
        for h in handles {
            for v in h.join().unwrap() {
                assert!(seen.insert(v), "two calls both advanced the clock to {v}");
            }
        }
    }
}
