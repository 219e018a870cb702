//! The paper's figures (§5: Figs. 1, 3/4, 6–9, 11–13) and Table 1, one
//! [`Figure`] each, behind the `figures` binary. Most are sweeps: TMs ×
//! thread counts × workloads, printed as the series the paper's plots show
//! (one row per point), optionally as CSV. Figs. 3/4, 7 and 8 and the modes
//! table have runners of their own.

use crate::cli::BenchArgs;
use crate::driver::{TrialConfig, TrialResult};
use crate::registry::{run_time_varying_abtree, run_workload, StructKind, TmKind};
use crate::timevarying::Interval;
use crate::workload::{KeyDist, WorkloadMix, WorkloadSpec};
use multiverse::{Mode, MultiverseConfig, MultiverseRuntime, MultiverseTx};
use std::sync::atomic::{AtomicBool, Ordering};
use tm_api::{Handle, Protocol, TVar, TmHandle, TmRuntime, Transaction, TxKind};

named_enum! {
    /// The experiments of the paper's evaluation, in its order.
    pub enum Figure {
        /// Fig. 1, the teaser: (a,b)-tree, 0.01% range queries, dedicated
        /// updaters.
        Fig1 => "fig1",
        /// Figs. 3/4: reads needed to commit one range query under updates,
        /// Mode Q vs Mode U.
        Fig3_4 => "fig3-4",
        /// Fig. 6 (and 14/16/19 on other hosts): the (a,b)-tree grid.
        Fig6 => "fig6",
        /// Fig. 7: range queries without dedicated updaters look healthy.
        Fig7 => "fig7",
        /// Fig. 8: throughput over time for a time-varying workload.
        Fig8 => "fig8",
        /// Fig. 9: maximum memory on fig6's uniform, 0-updater row.
        Fig9 => "fig9",
        /// Fig. 11 (and 15/17/20): the internal AVL tree grid.
        Fig11 => "fig11",
        /// Fig. 12 (and 18/21): the external BST grid.
        Fig12 => "fig12",
        /// Fig. 13: the hashmap with atomic size queries.
        Fig13 => "fig13",
        /// Table 1: what each TM mode does.
        Modes => "modes",
    }
}

impl Figure {
    /// Run the figure at `args` and print its rows.
    pub fn run(self, args: &BenchArgs) {
        match self {
            Figure::Fig3_4 => access_counts(self.scale(args), args.csv),
            Figure::Fig7 => flawed_workload(self.scale(args), args),
            Figure::Fig8 => time_varying(self.scale(args), args),
            Figure::Modes => modes_table(),
            _ => {
                let (banner, fig) = self.sweep(args).expect("the other figures are sweeps");
                print_scale_banner(banner, self.scale(args), fig.seconds);
                print_results(&fig, &run_sweep(&fig), args.csv);
                if self == Figure::Fig9 && !args.csv {
                    println!(
                        "note: compare the maxRSS(KB) and version-bytes columns; the paper's \
                         Figure 9 plots max resident memory."
                    );
                }
            }
        }
    }

    /// A usage error if `args` gives a flag more values than this figure
    /// takes: fig7 runs one TM at one thread count, fig8 one thread count.
    pub fn check_args(self, args: &BenchArgs) -> Result<(), String> {
        let one = |flag: &str, given: usize| match given {
            0 | 1 => Ok(()),
            n => Err(format!("{}: {flag} takes one value, got {n}", self.name())),
        };
        match self {
            Figure::Fig7 => {
                one("--threads", args.threads.len())?;
                one("--tms", args.tms.as_ref().map_or(0, Vec::len))
            }
            Figure::Fig8 => one("--threads", args.threads.len()),
            _ => Ok(()),
        }
    }

    /// The workload scale: `--scale`, or the figure's laptop-sized default.
    fn scale(self, args: &BenchArgs) -> f64 {
        args.scale_or(match self {
            Figure::Fig3_4 => 1.0,
            Figure::Fig7 => 0.01,
            Figure::Fig13 => 0.05,
            _ => 0.02,
        })
    }

    /// The sweep behind fig1, fig6, fig9 and fig11–13 with `args` applied,
    /// and the figure's name in its scale banner; `None` for the others.
    pub fn sweep(self, args: &BenchArgs) -> Option<(&'static str, FigureSpec)> {
        use KeyDist::Uniform;
        let scale = self.scale(args);
        let n = args.updaters_or(4);
        let (no_rq, rq_0_1, rq_0_01) = (
            WorkloadMix::no_rq_90_5_5(),
            WorkloadMix::rq_899_01_5_5(),
            WorkloadMix::rq_8999_001_5_5(),
        );
        let tree_mixes = [
            ("90% search, 0% RQ, 5% ins, 5% del", no_rq),
            ("89.9% search, 0.1% RQ, 5% ins, 5% del", rq_0_1),
            ("89.99% search, 0.01% RQ, 5% ins, 5% del", rq_0_01),
        ];
        let (banner, title, structure, workloads, seed) = match self {
            Figure::Fig1 => (
                "Figure 1",
                "(a,b)-tree teaser: 0.01% RQs with dedicated updaters",
                StructKind::AbTree,
                tree_grid(
                    scale,
                    Uniform,
                    &[n],
                    &[("89.99% search / 0.01% RQ / 5% ins / 5% del", rq_0_01)],
                ),
                1,
            ),
            Figure::Fig6 => (
                "Figure 6",
                "(a,b)-tree workload grid (also figs 14/16/19 on other hosts)",
                StructKind::AbTree,
                [Uniform, KeyDist::Zipfian(0.9)]
                    .into_iter()
                    .flat_map(|dist| {
                        tree_grid(scale, dist, &[0, n], &[tree_mixes[0], tree_mixes[2]])
                    })
                    .collect(),
                6,
            ),
            Figure::Fig9 => (
                "Figure 9",
                "maximum memory usage ((a,b)-tree, row one of fig6)",
                StructKind::AbTree,
                tree_grid(
                    scale,
                    Uniform,
                    &[0],
                    &[
                        ("90% search / 0% RQ", no_rq),
                        ("89.99% search / 0.01% RQ", rq_0_01),
                    ],
                ),
                9,
            ),
            Figure::Fig11 => (
                "Figure 11 (AVL)",
                "internal AVL tree (also figs 15/17/20)",
                StructKind::Avl,
                tree_grid(scale, Uniform, &[0, n], &tree_mixes),
                11,
            ),
            Figure::Fig12 => (
                "Figure 12 (external BST)",
                "external BST (also figs 18/21)",
                StructKind::ExtBst,
                tree_grid(scale, Uniform, &[0, n], &tree_mixes),
                12,
            ),
            // The paper always runs at least one dedicated updater here,
            // because hashmap updates are so cheap.
            Figure::Fig13 => (
                "Figure 13 (hashmap)",
                "hashmap with atomic size queries",
                StructKind::HashMap,
                [1, n.max(1)]
                    .into_iter()
                    .flat_map(|ups| {
                        [
                            ("90% search, 0% SQ", no_rq),
                            ("89.99% search, 0.01% SQ", rq_0_01),
                        ]
                        .map(|(label, mix)| {
                            (
                                format!("{ups} updaters, {label}, 5% ins, 5% del"),
                                WorkloadSpec::paper_hashmap(scale, mix, ups),
                            )
                        })
                    })
                    .collect(),
                13,
            ),
            Figure::Fig3_4 | Figure::Fig7 | Figure::Fig8 | Figure::Modes => return None,
        };
        let fig = FigureSpec {
            id: self.name(),
            title: title.into(),
            tms: args.tms.clone().unwrap_or_else(TmKind::paper_set),
            structure,
            workloads,
            threads: match &args.threads[..] {
                [] => default_thread_sweep(),
                given => given.to_vec(),
            },
            seconds: args.seconds_or(2.0),
            seed,
        };
        Some((banner, fig))
    }
}

/// A tree grid at the paper's setup scaled by `scale`: each count of
/// dedicated updaters × each labelled mix.
fn tree_grid(
    scale: f64,
    dist: KeyDist,
    updaters: &[usize],
    mixes: &[(&str, WorkloadMix)],
) -> Vec<(String, WorkloadSpec)> {
    let dist_name = match dist {
        KeyDist::Uniform => "uniform",
        KeyDist::Zipfian(_) => "zipf-0.9",
    };
    let mut out = Vec::new();
    for &ups in updaters {
        for &(label, mix) in mixes {
            out.push((
                format!("{dist_name}, {ups} updaters, {label}"),
                WorkloadSpec::paper_tree(scale, mix, dist, ups),
            ));
        }
    }
    out
}

/// Print a short banner describing how a figure run was scaled relative to
/// the paper's setup.
fn print_scale_banner(figure: &str, scale: f64, seconds: f64) {
    println!(
        "# {figure}: scale={scale} (1.0 = paper's 1M-key prefill), {seconds}s per trial \
         (paper: 20s x 5 trials); shapes, not absolute numbers, are the comparison target."
    );
}

/// Figs. 3 and 4: the example executions motivating Mode U.
///
/// A versioned range query over `n` addresses races with a continuous
/// stream of updates. In Mode Q the reader must itself version each address
/// and is aborted by the updater over and over — O(n²) accesses to commit
/// one query (Fig. 3). In Mode U the updaters version every address they
/// write, so the query commits without aborting — O(n) accesses (Fig. 4).
/// Printed per mode: the query thread's own transactional reads per
/// *committed* range query over `n` words while one updater writes them.
fn access_counts(scale: f64, csv: bool) {
    // Clamped like `WorkloadSpec::paper_tree`'s prefill: the updater
    // indexes modulo `n`.
    let n = ((scale * 2048.0) as usize).max(64);
    let queries = 20u64;
    if csv {
        println!("figure,mode,n,queries,avg_reads_per_rq,aborts,versioned_commits");
    } else {
        println!(
            "== fig3/fig4 — accesses needed to commit an n-address range query under updates =="
        );
    }
    // Fig. 3: Mode Q — the reader versions addresses itself and keeps
    // getting aborted, so it performs far more than n reads per commit.
    // Going versioned immediately isolates the effect.
    let mut q = MultiverseConfig::small_mode_q_only();
    q.k1_versioned_after = 1;
    // Fig. 4: Mode U — updaters version for the reader; ~n reads per commit.
    let u = MultiverseConfig::small_mode_u_only();
    for (label, cfg) in [("Mode Q only (fig 3)", q), ("Mode U only (fig 4)", u)] {
        let rt = MultiverseRuntime::start(cfg);
        let vars: Vec<TVar<u64>> = (0..n).map(|i| TVar::new(i as u64)).collect();
        let stop = AtomicBool::new(false);
        let reads_per_query: Vec<u64> = std::thread::scope(|s| {
            // The dedicated updater: writes one address after another.
            s.spawn(|| {
                let mut h = rt.register();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let slot = i % vars.len();
                    h.txn(TxKind::ReadWrite, |tx| {
                        let v = tx.read_var(&vars[slot])?;
                        tx.write_var(&vars[slot], v + 1)
                    });
                    i += 1;
                }
            });
            // The range-query thread. The runtime's read counter also
            // counts the updater's reads, so it reads its own thread's
            // counter, in an empty transaction before and after each query.
            let own_reads = |h: &mut Handle<MultiverseTx>| {
                h.txn(TxKind::ReadOnly, |tx| Ok(tx.stats().reads.get()))
            };
            let mut h = rt.register();
            let per_query = (0..queries)
                .map(|_| {
                    let before = own_reads(&mut h);
                    h.txn(TxKind::ReadOnly, |tx| {
                        let mut sum = 0u64;
                        for v in &vars {
                            sum = sum.wrapping_add(tx.read_var(v)?);
                        }
                        Ok(sum)
                    });
                    own_reads(&mut h) - before
                })
                .collect();
            stop.store(true, Ordering::Relaxed);
            per_query
        });
        let stats = rt.stats();
        let avg = reads_per_query.iter().sum::<u64>() as f64 / queries as f64;
        if csv {
            println!(
                "fig3_4,{label},{n},{queries},{:.1},{},{}",
                avg, stats.aborts, stats.versioned_commits
            );
        } else {
            println!(
                "{label:<22} n={n:<6} avg reads per committed RQ: {avg:>10.1} (ideal n = {n}) \
                 aborts={} versioned commits={}",
                stats.aborts, stats.versioned_commits
            );
        }
        rt.shutdown();
    }
}

/// Fig. 7: why a mixed workload *without* dedicated updaters can make a TM
/// with no real range-query support look healthy.
///
/// With every thread drawing 10% range queries, a thread whose range query
/// keeps aborting simply waits until the other threads also roll range
/// queries, at which point there are no updates left and everything
/// commits. Dedicated updater threads (whose throughput is not counted)
/// remove that escape hatch. This runs an unversioned baseline (TL2 by
/// default) both ways and reports how many range queries committed.
fn flawed_workload(scale: f64, args: &BenchArgs) {
    let threads = args.threads.first().copied().unwrap_or(4);
    let prefill = ((1_000_000.0 * scale) as u64).max(64);
    let mk = |updaters: usize| WorkloadSpec {
        key_range: prefill * 2,
        prefill,
        mix: WorkloadMix::new(80.0, 10.0, 5.0, 5.0),
        rq_size: (prefill / 10).max(8),
        dist: KeyDist::Uniform,
        dedicated_updaters: updaters,
    };
    let trial = TrialConfig {
        threads,
        seconds: args.seconds_or(2.0),
        seed: 7,
    };
    let tm = args
        .tms
        .as_ref()
        .and_then(|t| t.first().copied())
        .unwrap_or(TmKind::Tl2);
    if args.csv {
        println!("figure,setup,tm,threads,ops,range_queries,throughput");
    } else {
        println!("== fig7 — flawed (no dedicated updaters) vs sound (dedicated updaters) RQ workloads ==");
    }
    for (setup, updaters) in [
        ("all-threads-mixed (flawed)", 0usize),
        ("with dedicated updaters", args.updaters_or(2)),
    ] {
        let r = run_workload(tm, StructKind::AbTree, &mk(updaters), &trial);
        if args.csv {
            println!(
                "fig7,{setup},{},{},{},{},{:.1}",
                r.tm, r.threads, r.ops, r.range_queries, r.throughput
            );
        } else {
            println!(
                "{setup:<32} tm={:<8} committed ops={:>10} committed RQs={:>8} ops/sec={:>12.0}",
                r.tm, r.ops, r.range_queries, r.throughput
            );
        }
    }
    if !args.csv {
        println!(
            "note: without dedicated updaters the baseline still commits range queries because all \
             threads eventually execute RQs simultaneously; with dedicated updaters its RQ rate collapses."
        );
    }
}

/// Fig. 8: throughput over time for a time-varying workload.
///
/// Four intervals: intervals 1 and 3 have no range queries and no dedicated
/// updaters; intervals 2 and 4 add 0.01% range queries of 10% of the
/// prefill and the dedicated updaters. Series: Multiverse, its
/// Mode-Q-only and Mode-U-only ablations, and the baseline TMs. Throughput
/// is sampled every 200 ms.
fn time_varying(scale: f64, args: &BenchArgs) {
    let interval_seconds = args.seconds_or(2.0);
    let threads = args.threads.first().copied().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    });
    print_scale_banner("Figure 8", scale, interval_seconds);
    let quiet = WorkloadSpec::paper_tree(scale, WorkloadMix::fig8_no_rq(), KeyDist::Uniform, 0);
    let mut rq = WorkloadSpec::paper_tree(
        scale,
        WorkloadMix::fig8_rq(),
        KeyDist::Uniform,
        args.updaters_or(4),
    );
    // Figure 8 uses a larger RQ: 10% of the prefill instead of 1%.
    rq.rq_size = (rq.prefill / 10).max(16);
    let intervals = [quiet.clone(), rq.clone(), quiet, rq].map(|spec| Interval {
        seconds: interval_seconds,
        spec,
    });
    if args.csv {
        println!("figure,tm,elapsed_seconds,ops_per_second");
    } else {
        println!("== fig8 — throughput over time, {threads} worker threads ==");
    }
    for tm in args.tms.clone().unwrap_or_else(TmKind::fig8_set) {
        let r = run_time_varying_abtree(tm, &intervals, threads, 200, 8);
        if args.csv {
            for (t, ops) in &r.samples {
                println!("fig8,{},{:.2},{:.1}", r.tm, t, ops);
            }
        } else {
            println!(
                "\n-- {} (total committed worker ops: {}) --",
                r.tm, r.total_ops
            );
            println!("{:>8}  {:>14}", "time(s)", "ops/sec");
            for (t, ops) in &r.samples {
                println!("{:>8.2}  {:>14.0}", t, ops);
            }
        }
    }
}

/// Table 1: the behaviour of unversioned transactions, versioned
/// transactions and the background thread in each TM mode, printed from
/// the same predicates the runtime uses.
fn modes_table() {
    println!("== Table 1 — differences between TM modes ==\n");
    println!(
        "{:<10} {:<40} {:<40} {:<26}",
        "Mode", "Unversioned (writers)", "Versioned (readers)", "Background thread"
    );
    for mode in [Mode::Q, Mode::QtoU, Mode::U, Mode::UtoQ] {
        let writers = if mode.writers_version() {
            "writes forced to version"
        } else {
            "writes add versions iff address already versioned"
        };
        let readers = match mode {
            Mode::U => "reads assume all addresses are versioned",
            Mode::UtoQ => "versioned txns forced back to Mode Q behaviour",
            _ => "reads version addresses on demand",
        };
        let bg = if mode.unversioning_enabled() {
            "unversioning enabled"
        } else {
            "unversioning disabled"
        };
        println!(
            "{:<10} {:<40} {:<40} {:<26}",
            mode.name(),
            writers,
            readers,
            bg
        );
    }
}

/// A declarative description of one figure reproduction.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure identifier ("fig1", "fig6", ...).
    pub id: &'static str,
    /// Human-readable title printed above the results.
    pub title: String,
    /// TMs to compare (the series of the plot).
    pub tms: Vec<TmKind>,
    /// Data structure under test.
    pub structure: StructKind,
    /// Workloads (sub-plots), each with a label.
    pub workloads: Vec<(String, WorkloadSpec)>,
    /// Thread counts (the x axis).
    pub threads: Vec<usize>,
    /// Seconds per trial.
    pub seconds: f64,
    /// Base RNG seed.
    pub seed: u64,
}

/// One measured point of a figure.
#[derive(Debug, Clone)]
pub struct FigurePoint {
    /// The workload label (sub-plot).
    pub workload: String,
    /// The trial metrics.
    pub result: TrialResult,
}

/// Run every (workload × TM × thread-count) combination of `fig`.
pub fn run_sweep(fig: &FigureSpec) -> Vec<FigurePoint> {
    let mut out = Vec::new();
    for (label, spec) in &fig.workloads {
        for &tm in &fig.tms {
            for &threads in &fig.threads {
                let trial = TrialConfig {
                    threads,
                    seconds: fig.seconds,
                    seed: fig.seed,
                };
                eprintln!(
                    "[{}] workload='{}' tm={} threads={} ...",
                    fig.id,
                    label,
                    tm.name(),
                    threads
                );
                let result = run_workload(tm, fig.structure, spec, &trial);
                out.push(FigurePoint {
                    workload: label.clone(),
                    result,
                });
            }
        }
    }
    out
}

/// Print the results of a sweep, mirroring the series/rows of the paper's
/// figure. With `csv` the output is machine-readable.
pub fn print_results(fig: &FigureSpec, points: &[FigurePoint], csv: bool) {
    if csv {
        println!(
            "figure,workload,structure,tm,threads,updaters,ops,range_queries,throughput_ops_per_s,\
             abort_ratio,gave_up,ops_per_cpu_second,max_rss_kb,versioning_bytes"
        );
        for p in points {
            let r = &p.result;
            println!(
                "{},{},{},{},{},{},{},{},{:.1},{:.4},{},{:.1},{},{}",
                fig.id,
                p.workload,
                r.structure,
                r.tm,
                r.threads,
                r.updaters,
                r.ops,
                r.range_queries,
                r.throughput,
                r.stats.abort_ratio(),
                r.stats.gave_up,
                r.ops_per_cpu_second,
                r.max_rss_kb,
                r.versioning_bytes
            );
        }
        return;
    }
    println!("== {} — {} ==", fig.id, fig.title);
    println!("structure: {}", fig.structure.name());
    let mut last_workload = String::new();
    for p in points {
        if p.workload != last_workload {
            println!("\n-- workload: {} --", p.workload);
            println!(
                "{:<22} {:>7} {:>14} {:>10} {:>10} {:>14} {:>12} {:>14}",
                "tm",
                "threads",
                "ops/sec",
                "rq/sec",
                "abort%",
                "ops/cpu-sec",
                "maxRSS(KB)",
                "version-bytes"
            );
            last_workload = p.workload.clone();
        }
        let r = &p.result;
        println!(
            "{:<22} {:>7} {:>14.0} {:>10.1} {:>10.2} {:>14.0} {:>12} {:>14}",
            r.tm,
            r.threads,
            r.throughput,
            r.range_queries as f64 / r.wall_seconds.max(1e-9),
            100.0 * r.stats.abort_ratio(),
            r.ops_per_cpu_second,
            r.max_rss_kb,
            r.versioning_bytes
        );
    }
    println!();
}

/// Default thread sweep: powers of two up to the host's parallelism.
pub fn default_thread_sweep() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut v = vec![1usize];
    let mut t = 2;
    while t < max {
        v.push(t);
        t *= 2;
    }
    if *v.last().unwrap() != max {
        v.push(max);
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{KeyDist, WorkloadMix};

    #[test]
    fn default_sweep_is_sorted_and_capped() {
        let sweep = default_thread_sweep();
        assert_eq!(sweep[0], 1);
        assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        let max = std::thread::available_parallelism().unwrap().get();
        assert_eq!(*sweep.last().unwrap(), max);
    }

    #[test]
    fn every_sweep_row_has_its_structure_and_workloads() {
        let args = BenchArgs {
            scale: Some(0.01),
            updaters: Some(16),
            ..BenchArgs::default()
        };
        let mut rows = Vec::new();
        for figure in Figure::all() {
            let Some((_, fig)) = figure.sweep(&args) else {
                continue;
            };
            for (label, spec) in &fig.workloads {
                let ups = format!("{} updaters", spec.dedicated_updaters);
                assert!(label.split(", ").any(|part| part == ups), "{label}");
                let prefill = match fig.structure {
                    StructKind::HashMap => 1_000,
                    _ => 10_000,
                };
                assert_eq!(spec.prefill, prefill, "{label}");
            }
            let ups = |i: usize| fig.workloads[i].1.dedicated_updaters;
            let last = fig.workloads.len() - 1;
            rows.push((fig.id, fig.structure, last + 1, ups(0), ups(last)));
        }
        use StructKind::*;
        assert_eq!(
            rows,
            vec![
                ("fig1", AbTree, 1, 16, 16),
                ("fig6", AbTree, 8, 0, 16),
                ("fig9", AbTree, 2, 0, 0),
                ("fig11", Avl, 6, 0, 16),
                ("fig12", ExtBst, 6, 0, 16),
                ("fig13", HashMap, 4, 1, 16),
            ]
        );
    }

    #[test]
    fn tiny_sweep_runs_and_prints() {
        let fig = FigureSpec {
            id: "test",
            title: "tiny smoke sweep".into(),
            tms: vec![TmKind::Dctl, TmKind::Multiverse],
            structure: StructKind::AbTree,
            workloads: vec![(
                "90/0/5/5".into(),
                WorkloadSpec {
                    key_range: 512,
                    prefill: 256,
                    mix: WorkloadMix::no_rq_90_5_5(),
                    rq_size: 16,
                    dist: KeyDist::Uniform,
                    dedicated_updaters: 0,
                },
            )],
            threads: vec![1, 2],
            seconds: 0.05,
            seed: 11,
        };
        let points = run_sweep(&fig);
        assert_eq!(points.len(), 4);
        print_results(&fig, &points, false);
        print_results(&fig, &points, true);
    }
}
