//! Name-based dispatch over the TMs and data structures, so the figures
//! can iterate `for tm in TmKind::paper_set()` without generics
//! leaking into their `main`s.

use crate::driver::{run_trial, TrialConfig, TrialResult};
use crate::timevarying::{run_time_varying, Interval, TimeVaryingResult};
use crate::workload::WorkloadSpec;
use baselines::{DctlRuntime, GlockRuntime, NorecRuntime, TinyStmRuntime, Tl2Runtime};
use multiverse::{ForcedMode, MultiverseConfig, MultiverseRuntime};
use std::sync::Arc;
use tm_api::TmRuntime;
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxList, TxSet};

named_enum! {
    /// The TM algorithms the harness can run.
    pub enum TmKind {
        /// Multiverse with dynamic mode switching (the paper's system).
        Multiverse => "multiverse",
        /// Multiverse restricted to Mode Q (Figure 8 ablation).
        MultiverseModeQ => "multiverse-modeq",
        /// Multiverse restricted to Mode U (Figure 8 ablation).
        MultiverseModeU => "multiverse-modeu",
        /// DCTL (deferred clock, encounter-time locking, irrevocable fallback).
        Dctl => "dctl",
        /// TL2 (commit-time locking, buffered writes).
        Tl2 => "tl2",
        /// NOrec (global sequence lock, value validation).
        Norec => "norec",
        /// TinySTM-style (encounter-time locking, commit-time clock).
        TinyStm => "tinystm",
        /// Single global lock (test oracle; not part of the paper's evaluation).
        Glock => "glock",
    }
}

impl TmKind {
    /// The five TMs compared in the paper's figures.
    pub fn paper_set() -> Vec<TmKind> {
        vec![
            TmKind::Multiverse,
            TmKind::Dctl,
            TmKind::Tl2,
            TmKind::Norec,
            TmKind::TinyStm,
        ]
    }

    /// The Figure 8 set: Multiverse plus its forced-mode ablations plus DCTL.
    pub fn fig8_set() -> Vec<TmKind> {
        vec![
            TmKind::Multiverse,
            TmKind::MultiverseModeQ,
            TmKind::MultiverseModeU,
            TmKind::Dctl,
            TmKind::Tl2,
        ]
    }

    /// Apply the forced mode this kind implies (no-op for the dynamic TM
    /// and the non-Multiverse kinds). The single source of the
    /// kind → forced-mode mapping, shared by every dispatch path.
    fn apply_forced_mode(self, cfg: &mut MultiverseConfig) {
        match self {
            TmKind::MultiverseModeQ => cfg.forced_mode = Some(ForcedMode::ModeQ),
            TmKind::MultiverseModeU => cfg.forced_mode = Some(ForcedMode::ModeU),
            _ => {}
        }
    }

    fn multiverse_config(self, stripes: usize) -> MultiverseConfig {
        let mut cfg = MultiverseConfig::paper_defaults();
        cfg.stripes = stripes;
        self.apply_forced_mode(&mut cfg);
        cfg
    }
}

named_enum! {
    /// The data structures of the evaluation.
    pub enum StructKind {
        /// (a,b)-tree with a=4, b=16 (main-paper figures).
        AbTree => "abtree",
        /// Internal AVL tree (appendix).
        Avl => "avl",
        /// External BST (appendix).
        ExtBst => "extbst",
        /// Hashmap with size queries (appendix).
        HashMap => "hashmap",
        /// Sorted linked list (§4.5 example).
        List => "list",
    }
}

/// Stripe-table size used by the benchmark runtimes; smaller than the paper's
/// 2^20 default so that many back-to-back trials stay memory friendly, large
/// enough that stripe collisions are negligible for scaled-down prefills.
const BENCH_STRIPES: usize = 1 << 18;

/// Stripe-table size for test-scale runtimes ([`RuntimeScale::Test`]).
const TEST_STRIPES: usize = 1 << 12;

/// How a [`with_backend`] runtime is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuntimeScale {
    /// Paper-shaped parameters with a bench-sized stripe table.
    Bench,
    /// Small tables and aggressive Multiverse heuristics
    /// ([`MultiverseConfig::small`]) so tests exercise the versioned path
    /// and the mode machinery quickly.
    Test,
}

/// A generic computation over a TM runtime. The registry cannot hand out
/// `dyn TmRuntime` (the trait has an associated handle type), so callers
/// that want "run this for backend X by name" implement this visitor and let
/// [`with_backend`] pick the concrete runtime type.
pub trait BackendVisitor {
    /// Result of the computation.
    type Out;
    /// Run against a freshly started runtime. The visitor is responsible
    /// for calling [`TmRuntime::shutdown`] when it is done.
    fn visit<R: TmRuntime>(self, rt: Arc<R>) -> Self::Out;
}

/// Start a runtime for `tm` at the given scale and run `visitor` on it.
pub fn with_backend<V: BackendVisitor>(tm: TmKind, scale: RuntimeScale, visitor: V) -> V::Out {
    let stripes = match scale {
        RuntimeScale::Bench => BENCH_STRIPES,
        RuntimeScale::Test => TEST_STRIPES,
    };
    match tm {
        TmKind::Multiverse | TmKind::MultiverseModeQ | TmKind::MultiverseModeU => {
            let cfg = match scale {
                RuntimeScale::Bench => tm.multiverse_config(stripes),
                RuntimeScale::Test => {
                    let mut cfg = MultiverseConfig::small();
                    // Put every read-only attempt on the versioned path:
                    // the correctness harness exists to exercise the
                    // delicate version-list machinery, not to wait for the
                    // K1 heuristic to engage it.
                    cfg.k1_versioned_after = 0;
                    tm.apply_forced_mode(&mut cfg);
                    cfg
                }
            };
            visitor.visit(MultiverseRuntime::start(cfg))
        }
        TmKind::Dctl => visitor.visit(Arc::new(DctlRuntime::new(baselines::DctlConfig {
            stripes,
            ..Default::default()
        }))),
        TmKind::Tl2 => visitor.visit(Arc::new(Tl2Runtime::new(baselines::Tl2Config { stripes }))),
        TmKind::Norec => visitor.visit(Arc::new(NorecRuntime::new())),
        TmKind::TinyStm => visitor.visit(Arc::new(TinyStmRuntime::new(baselines::TinyStmConfig {
            stripes,
        }))),
        TmKind::Glock => visitor.visit(Arc::new(GlockRuntime::new())),
    }
}

struct TrialVisitor<'a, S: TxSet> {
    set: S,
    spec: &'a WorkloadSpec,
    trial: &'a TrialConfig,
}

impl<S: TxSet> BackendVisitor for TrialVisitor<'_, S> {
    type Out = TrialResult;
    fn visit<R: TmRuntime>(self, rt: Arc<R>) -> TrialResult {
        let result = run_trial(&rt, &Arc::new(self.set), self.spec, self.trial);
        rt.shutdown();
        result
    }
}

fn with_tm_struct<S: TxSet>(
    tm: TmKind,
    set: S,
    spec: &WorkloadSpec,
    trial: &TrialConfig,
) -> TrialResult {
    with_backend(tm, RuntimeScale::Bench, TrialVisitor { set, spec, trial })
}

/// Run one trial of `spec` with the named TM and structure.
pub fn run_workload(
    tm: TmKind,
    structure: StructKind,
    spec: &WorkloadSpec,
    trial: &TrialConfig,
) -> TrialResult {
    match structure {
        StructKind::AbTree => with_tm_struct(tm, TxAbTree::new(), spec, trial),
        StructKind::Avl => with_tm_struct(tm, TxAvlTree::new(), spec, trial),
        StructKind::ExtBst => with_tm_struct(tm, TxExtBst::new(), spec, trial),
        StructKind::HashMap => {
            // The paper uses 1M buckets for a 100k prefill (10x); keep the
            // same ratio at smaller scales.
            let buckets = (spec.prefill as usize * 10).max(1024);
            with_tm_struct(tm, TxHashMap::new(buckets), spec, trial)
        }
        StructKind::List => with_tm_struct(tm, TxList::new(), spec, trial),
    }
}

struct TimeVaryingVisitor<'a> {
    intervals: &'a [Interval],
    threads: usize,
    sample_ms: u64,
    seed: u64,
}

impl BackendVisitor for TimeVaryingVisitor<'_> {
    type Out = TimeVaryingResult;
    fn visit<R: TmRuntime>(self, rt: Arc<R>) -> TimeVaryingResult {
        let tree = Arc::new(TxAbTree::new());
        let r = run_time_varying(
            &rt,
            &tree,
            self.intervals,
            self.threads,
            self.sample_ms,
            self.seed,
        );
        rt.shutdown();
        r
    }
}

/// Run the Figure 8 style time-varying trial on the (a,b)-tree with the named
/// TM.
///
/// Note: since the dispatch moved onto [`with_backend`], the lock-based
/// baselines use the same `BENCH_STRIPES` (2^18) table as [`run_workload`]
/// here — previously this path built them with the paper's 2^20 default.
/// This is deliberate (one bench configuration everywhere); at the scaled-
/// down prefills the harness runs, stripe collisions stay negligible either
/// way.
pub fn run_time_varying_abtree(
    tm: TmKind,
    intervals: &[Interval],
    threads: usize,
    sample_ms: u64,
    seed: u64,
) -> TimeVaryingResult {
    with_backend(
        tm,
        RuntimeScale::Bench,
        TimeVaryingVisitor {
            intervals,
            threads,
            sample_ms,
            seed,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDist, WorkloadMix};

    #[test]
    fn paper_set_has_five_tms_and_fig8_has_ablations() {
        assert_eq!(TmKind::paper_set().len(), 5);
        assert!(TmKind::fig8_set().contains(&TmKind::MultiverseModeQ));
        assert!(TmKind::fig8_set().contains(&TmKind::MultiverseModeU));
    }

    #[test]
    fn dispatch_runs_every_tm_on_a_tiny_workload() {
        let spec = WorkloadSpec {
            key_range: 512,
            prefill: 256,
            mix: WorkloadMix::new(90.0, 0.0, 5.0, 5.0),
            rq_size: 16,
            dist: KeyDist::Uniform,
            dedicated_updaters: 0,
        };
        let trial = TrialConfig {
            threads: 2,
            seconds: 0.05,
            seed: 3,
        };
        for tm in TmKind::all() {
            let r = run_workload(tm, StructKind::AbTree, &spec, &trial);
            assert!(r.ops > 0, "{:?} performed no operations", tm);
        }
    }

    #[test]
    fn dispatch_runs_every_structure_on_dctl() {
        let spec = WorkloadSpec {
            key_range: 512,
            prefill: 128,
            mix: WorkloadMix::new(88.0, 2.0, 5.0, 5.0),
            rq_size: 32,
            dist: KeyDist::Uniform,
            dedicated_updaters: 0,
        };
        let trial = TrialConfig {
            threads: 2,
            seconds: 0.05,
            seed: 4,
        };
        for st in StructKind::all() {
            let r = run_workload(TmKind::Dctl, st, &spec, &trial);
            assert!(r.ops > 0, "{:?} performed no operations", st);
            assert_eq!(
                r.structure,
                st.name()
                    .replace("extbst", "external-bst")
                    .replace("avl", "avl-tree")
                    .replace("list", "linked-list")
            );
        }
    }
}
