//! The trial driver: prefill, spawn worker + dedicated updater threads, run
//! for a fixed duration, aggregate throughput / abort / memory / energy-proxy
//! metrics.

use crate::measure::{max_rss_kb, EnergyProbe};
use crate::workload::{OpGenerator, OpKind, WorkloadSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tm_api::{TmRuntime, TmStatsSnapshot};
use txstructs::TxSet;

/// Parameters of one timed trial.
#[derive(Debug, Clone)]
pub struct TrialConfig {
    /// Number of measured worker threads.
    pub threads: usize,
    /// Length of the measurement period in seconds.
    pub seconds: f64,
    /// Base RNG seed (each thread derives its own).
    pub seed: u64,
}

impl Default for TrialConfig {
    fn default() -> Self {
        Self {
            threads: 2,
            seconds: 1.0,
            seed: 42,
        }
    }
}

/// Metrics of one trial.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// TM algorithm name.
    pub tm: &'static str,
    /// Data structure name.
    pub structure: &'static str,
    /// Measured worker threads.
    pub threads: usize,
    /// Dedicated updater threads (not counted in `ops`).
    pub updaters: usize,
    /// Committed operations by the measured workers.
    pub ops: u64,
    /// Committed range/size queries (subset of `ops`).
    pub range_queries: u64,
    /// Wall-clock seconds of the measurement period.
    pub wall_seconds: f64,
    /// Operations per second (workers only, as in the paper).
    pub throughput: f64,
    /// Aggregate TM statistics after the trial.
    pub stats: TmStatsSnapshot,
    /// CPU seconds consumed during the trial.
    pub cpu_seconds: f64,
    /// Ops per CPU-second.
    pub ops_per_cpu_second: f64,
    /// Max resident set size of the process at the end of the trial (KiB).
    pub max_rss_kb: u64,
    /// Bytes of versioning metadata held by the TM at the end of the trial.
    pub versioning_bytes: usize,
}

/// Prefill `set` with `spec.prefill` evenly spaced keys using a few threads.
pub fn prefill<R, S>(tm: &Arc<R>, set: &Arc<S>, spec: &WorkloadSpec)
where
    R: TmRuntime,
    S: TxSet,
{
    let prefill = spec.prefill;
    if prefill == 0 {
        return;
    }
    let stride = (spec.key_range / prefill).max(1);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .clamp(1, 8);
    std::thread::scope(|s| {
        for t in 0..threads as u64 {
            let tm = Arc::clone(tm);
            let set = Arc::clone(set);
            s.spawn(move || {
                let mut h = tm.register();
                let mut i = t;
                while i < prefill {
                    set.insert(&mut h, i * stride, i);
                    i += threads as u64;
                }
            });
        }
    });
}

/// Execute one operation drawn from `gen` against `set`.
///
/// Returns `true` when the executed operation was a range/size query.
pub fn run_one_op<H, S>(set: &S, h: &mut H, gen: &OpGenerator, rng: &mut StdRng) -> bool
where
    H: tm_api::TmHandle,
    S: TxSet,
{
    match gen.op(rng) {
        OpKind::Search => {
            set.contains(h, gen.key(rng));
            false
        }
        OpKind::Insert => {
            set.insert(h, gen.key(rng), rng.gen());
            false
        }
        OpKind::Delete => {
            set.remove(h, gen.key(rng));
            false
        }
        OpKind::RangeQuery => {
            let (lo, hi) = gen.range(rng);
            if hi == u64::MAX && lo == 0 {
                set.size_query(h);
            } else {
                set.range_query(h, lo, hi);
            }
            true
        }
    }
}

/// Run one timed trial of `spec` on `set` over `tm`.
pub fn run_trial<R, S>(
    tm: &Arc<R>,
    set: &Arc<S>,
    spec: &WorkloadSpec,
    trial: &TrialConfig,
) -> TrialResult
where
    R: TmRuntime,
    S: TxSet,
{
    // Backstop for callers that bypass `BenchArgs` validation: zero workers
    // would divide by zero in the per-thread accounting below.
    assert!(trial.threads >= 1, "run_trial needs at least one thread");
    prefill(tm, set, spec);

    let stop = Arc::new(AtomicBool::new(false));
    let total_ops = Arc::new(AtomicU64::new(0));
    let total_rqs = Arc::new(AtomicU64::new(0));
    let probe = EnergyProbe::start();
    let wall_start = std::time::Instant::now();

    std::thread::scope(|s| {
        // Measured worker threads.
        for t in 0..trial.threads {
            let tm = Arc::clone(tm);
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let total_ops = Arc::clone(&total_ops);
            let total_rqs = Arc::clone(&total_rqs);
            let spec = spec.clone();
            let seed = trial.seed;
            s.spawn(move || {
                let mut h = tm.register();
                let gen = OpGenerator::new(&spec);
                let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
                let mut ops = 0u64;
                let mut rqs = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if run_one_op(set.as_ref(), &mut h, &gen, &mut rng) {
                        rqs += 1;
                    }
                    ops += 1;
                }
                total_ops.fetch_add(ops, Ordering::Relaxed);
                total_rqs.fetch_add(rqs, Ordering::Relaxed);
            });
        }
        // Dedicated updater threads: 50/50 insert/delete, never read-only,
        // never counted (paper §5 "Experimental Setup").
        for u in 0..spec.dedicated_updaters {
            let tm = Arc::clone(tm);
            let set = Arc::clone(set);
            let stop = Arc::clone(&stop);
            let spec = spec.clone();
            let seed = trial.seed;
            s.spawn(move || {
                let mut h = tm.register();
                let gen = OpGenerator::new(&spec);
                let mut rng =
                    StdRng::seed_from_u64(seed ^ 0xDEAD_BEEF ^ (u as u64).wrapping_mul(31));
                while !stop.load(Ordering::Relaxed) {
                    let key = gen.key(&mut rng);
                    if rng.gen_bool(0.5) {
                        set.insert(&mut h, key, key);
                    } else {
                        set.remove(&mut h, key);
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs_f64(trial.seconds));
        stop.store(true, Ordering::Relaxed);
    });

    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let energy = probe.finish();
    let ops = total_ops.load(Ordering::Relaxed);
    let rqs = total_rqs.load(Ordering::Relaxed);
    let throughput = ops as f64 / wall_seconds.max(1e-9);
    let cpu = energy.cpu_seconds.max(1e-9);
    TrialResult {
        tm: tm.name(),
        structure: set.name(),
        threads: trial.threads,
        updaters: spec.dedicated_updaters,
        ops,
        range_queries: rqs,
        wall_seconds,
        throughput,
        stats: tm.stats(),
        cpu_seconds: energy.cpu_seconds,
        ops_per_cpu_second: ops as f64 / cpu,
        max_rss_kb: max_rss_kb(),
        versioning_bytes: tm.versioning_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDist, WorkloadMix};
    use baselines::DctlRuntime;
    use multiverse::{MultiverseConfig, MultiverseRuntime};
    use txstructs::TxAbTree;

    fn tiny_spec(updaters: usize, rq_pct: f64) -> WorkloadSpec {
        WorkloadSpec {
            key_range: 2_000,
            prefill: 1_000,
            mix: WorkloadMix::new(90.0 - rq_pct, rq_pct, 5.0, 5.0),
            rq_size: 100,
            dist: KeyDist::Uniform,
            dedicated_updaters: updaters,
        }
    }

    #[test]
    fn trial_on_dctl_produces_throughput() {
        let tm = Arc::new(DctlRuntime::with_defaults());
        let set = Arc::new(TxAbTree::new());
        let spec = tiny_spec(0, 0.0);
        let r = run_trial(
            &tm,
            &set,
            &spec,
            &TrialConfig {
                threads: 2,
                seconds: 0.2,
                seed: 1,
            },
        );
        assert!(r.ops > 0);
        assert!(r.throughput > 0.0);
        assert_eq!(r.tm, "DCTL");
        assert_eq!(r.structure, "abtree");
        assert!(r.max_rss_kb > 0);
    }

    #[test]
    fn trial_on_multiverse_with_updaters_and_rqs() {
        let tm = MultiverseRuntime::start(MultiverseConfig::small());
        let set = Arc::new(TxAbTree::new());
        let spec = tiny_spec(1, 1.0);
        let r = run_trial(
            &tm,
            &set,
            &spec,
            &TrialConfig {
                threads: 2,
                seconds: 0.3,
                seed: 2,
            },
        );
        assert!(r.ops > 0);
        assert!(r.range_queries > 0, "the 1% RQ mix should produce RQs");
        assert_eq!(r.updaters, 1);
        tm.shutdown();
    }

    #[test]
    fn prefill_inserts_expected_number_of_keys() {
        let tm = Arc::new(DctlRuntime::with_defaults());
        let set = Arc::new(TxAbTree::new());
        let spec = tiny_spec(0, 0.0);
        prefill(&tm, &set, &spec);
        let mut h = tm.register();
        assert_eq!(set.size_query(&mut h), spec.prefill as usize);
    }
}
