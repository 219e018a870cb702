//! `mvbench` — the repository's one benchmark.
//!
//! ```text
//! mvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!         one workload in this process; the last line of standard output
//!         is the result as one JSON object (what BENCHMARK.json's command
//!         runs)
//! mvbench run    [--seed <n>] [--smoke]   every workload, untraced, each in
//!                                         a fresh subprocess
//! mvbench trace  [--seed <n>] [--smoke]   the traced pass: per-layer
//!                                         metrics, out/trace-*.jsonl,
//!                                         out/budget.txt
//! mvbench repeat --sets <k> [--seed <n>] [--smoke]
//!                                         k untraced sets, compared pair
//!                                         by pair against the bounds
//! mvbench manifest                        print BENCHMARK.json
//! ```
//!
//! See `benchmark/README.md` for why each workload exists and which layer
//! metric should move which end-to-end metric.

mod gen;
mod kv;
mod phases;
mod spec;
mod stats;
mod trace;
mod tree;

use baselines::DctlRuntime;
use multiverse::MultiverseRuntime;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tm_api::TmRuntime;

/// What one run of one workload produced.
#[derive(Default)]
pub struct Measured {
    pub attempted: u64,
    /// Gave up, IO error, wrong result, or left undone by a safety cap.
    pub failed: u64,
    /// Units of work (set operations, range queries, requests) per second.
    pub ops_per_s: f64,
    /// Latency of each unit of work.
    pub lat_ns: Vec<f64>,
    pub layer: Vec<(&'static str, f64)>,
    /// Output checks that failed; empty means correct.
    pub checks: Vec<String>,
    pub spans: Vec<trace::Span>,
    /// CPU seconds (user + system, all threads) the run took.
    pub cpu_s: f64,
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Median seconds of `reps` set-ups; the last system built is kept for the
/// measurement, the others are torn down.
fn timed_setup<S>(reps: usize, setup: impl Fn() -> S, teardown: impl Fn(S)) -> (f64, S) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(sys) = last.take() {
            teardown(sys);
        }
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(times), last.expect("reps >= 1"))
}

/// Sizes of one run, scaled from `--seconds` (10 is the committed size).
struct Size {
    seconds: f64,
}

impl Size {
    fn dur(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    fn count(&self, per_second: f64) -> u64 {
        (self.seconds * per_second).ceil().max(1.0) as u64
    }
}

/// Set-ups per untraced run; `setup_s` is their median. The traced pass
/// does not report `setup_s` and sets up once.
const SETUP_REPS: usize = 5;

/// Run the measured part and record the CPU time it alone took: set-up is
/// not the workload's.
fn with_cpu(run: impl FnOnce() -> Measured) -> Measured {
    let before = process_usage().cpu_s;
    let mut m = run();
    m.cpu_s = process_usage().cpu_s - before;
    m
}

/// One workload, traced or not. `setup_s` comes back beside the result.
fn run_workload(
    name: &str,
    seed: u64,
    size: &Size,
    setup_reps: usize,
    trace: Option<Instant>,
) -> std::io::Result<(f64, Measured)> {
    let tree_setup = |rt: fn() -> Arc<MultiverseRuntime>| {
        timed_setup(
            setup_reps,
            || tree::setup(rt(), seed),
            |sys| sys.rt.shutdown(),
        )
    };
    let multiverse = || MultiverseRuntime::start(tree::mv_config());
    Ok(match name {
        "point-mix" | "zipf-update" => {
            let mix = mix_of(name);
            let (setup_s, sys) = tree_setup(multiverse);
            let m =
                with_cpu(|| tree::run_point(&sys, &mix, seed, size.dur(0.1), size.dur(1.0), trace));
            sys.rt.shutdown();
            (setup_s, m)
        }
        "scan-under-updates" => {
            let (setup_s, sys) = tree_setup(multiverse);
            let in_mode_u = || sys.rt.current_mode() == multiverse::Mode::U;
            let (rqs, cap) = (size.count(100.0), size.dur(6.0));
            let m = with_cpu(|| tree::run_scan(&sys, seed, rqs, cap, &in_mode_u, trace));
            sys.rt.shutdown();
            (setup_s, m)
        }
        "mode-shift" => {
            let (setup_s, sys) = tree_setup(multiverse);
            let shape = tree::ModeShiftSize {
                before_ops: size.count(400_000.0),
                rqs: size.count(15.0),
                after_ops: size.count(800_000.0),
                cap: size.dur(3.0),
            };
            let m = with_cpu(|| tree::run_mode_shift(&sys, seed, &shape, trace));
            sys.rt.shutdown();
            (setup_s, m)
        }
        "kv-blocking" | "kv-pipelined" | "kv-durable" => {
            let cfg = kv_cfg(name, size);
            let dir = out_dir();
            let (setup_s, sys) = timed_setup(
                setup_reps,
                || kv::setup(&cfg, seed, &dir),
                |sys| {
                    if let Ok(sys) = sys {
                        kv::teardown(sys)
                    }
                },
            );
            let sys = sys?;
            let m = with_cpu(|| kv::run(sys, &cfg, seed, trace));
            (setup_s, m)
        }
        other => return Err(std::io::Error::other(format!("unknown workload {other}"))),
    })
}

fn kv_cfg(name: &str, size: &Size) -> kv::KvCfg {
    let blocking = name == "kv-blocking";
    kv::KvCfg {
        workers: if blocking { 1 } else { 2 },
        conns: if blocking { 1 } else { 2 },
        window: if blocking { 1 } else { 16 },
        requests_per_conn: size.count(if name == "kv-pipelined" {
            40_000.0
        } else {
            20_000.0
        }),
        traffic: if blocking {
            kv::Traffic::GetPut
        } else {
            kv::Traffic::PutThenGet
        },
        wal: name == "kv-durable",
        cap: size.dur(3.0),
        condition: size.dur(0.2),
    }
}

/// The same load on the reference the workload is compared with — DCTL
/// for the in-process workloads, the server without the WAL for
/// `kv-durable` — as per-layer metrics relative to `rate`, the workload's
/// own untraced `ops_per_s`; and the operations that failed on the way.
fn reference_layer(
    name: &str,
    seed: u64,
    size: &Size,
    rate: f64,
) -> std::io::Result<(Vec<(&'static str, f64)>, u64)> {
    let dctl = || tree::setup(Arc::new(DctlRuntime::with_defaults()), seed);
    Ok(match name {
        "point-mix" | "zipf-update" => {
            let m = tree::run_point(
                &dctl(),
                &mix_of(name),
                seed,
                size.dur(0.1),
                size.dur(1.0),
                None,
            );
            let layer = vec![
                ("baselines.dctl_ops_per_s", m.ops_per_s),
                ("multiverse.vs_dctl_ratio", stats::ratio(rate, m.ops_per_s)),
            ];
            (layer, m.failed)
        }
        "scan-under-updates" => {
            // DCTL's scanner may starve: the cap ends the run, and queries
            // left undone are the result, not a failure.
            let (rqs, cap) = (size.count(100.0), size.dur(0.8));
            let m = tree::run_scan(&dctl(), seed, rqs, cap, &|| false, None);
            let layer = vec![
                ("baselines.dctl_rq_per_s", m.ops_per_s),
                (
                    "multiverse.rq_vs_dctl_ratio",
                    stats::ratio(rate, m.ops_per_s),
                ),
            ];
            (layer, 0)
        }
        "kv-durable" => {
            let cfg = kv::KvCfg {
                wal: false,
                ..kv_cfg(name, size)
            };
            let m = kv::run(kv::setup(&cfg, seed, &out_dir())?, &cfg, seed, None);
            let cost = 100.0 * (1.0 - stats::ratio(rate, m.ops_per_s));
            (vec![("wal.durable_cost_pct", cost)], m.failed)
        }
        _ => (Vec::new(), 0),
    })
}

fn mix_of(name: &str) -> tree::Mix {
    if name == "point-mix" {
        tree::Mix::point_mix()
    } else {
        tree::Mix::zipf_update()
    }
}

struct ProcessUsage {
    cpu_s: f64,
    peak_rss_mb: f64,
}

/// CPU time (user + system, all threads) and peak resident set of this
/// process, from `/proc/self`.
fn process_usage() -> ProcessUsage {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, in clock ticks (100 per second on Linux).
    let ticks: f64 = stat
        .rsplit(')')
        .next()
        .map(|rest| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse::<f64>().ok())
                .sum()
        })
        .unwrap_or(0.0);
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let peak_kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0);
    ProcessUsage {
        cpu_s: ticks / 100.0,
        peak_rss_mb: peak_kb / 1024.0,
    }
}

struct Environment {
    nproc: usize,
    lines: Vec<String>,
}

/// The environment record printed with every output.
fn environment() -> Environment {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let wal = wal::WalConfig::new("");
    let mut lines = vec![
        format!("env nproc {nproc}"),
        format!("env rustc {}", tool("rustc", &["--version"])),
        format!("env git_commit {}", tool("git", &["rev-parse", "HEAD"])),
        format!("env cpu {cpu}"),
        format!(
            "env wal_flush_policy group commit every {} us, fsync per batch, {} IO retries",
            wal.flush_interval.as_micros(),
            wal.io_max_retries
        ),
        format!("env load_threads {} (closed loop)", tree::THREADS),
    ];
    if nproc < tree::THREADS {
        lines.push(format!(
            "env oversubscribed: {} load threads on {nproc} CPU; every metric below measures the scheduler",
            tree::THREADS
        ));
    }
    Environment { nproc, lines }
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"))
}

/// Print the result: one `metric` line per value, the failed checks, and
/// the JSON object the driver reads as the last line.
fn report(attempted: u64, failed: u64, checks: &[String], metrics: &[(&str, f64)]) -> ExitCode {
    for (name, value) in metrics {
        println!("metric {name} {value} {}", unit_of(name));
    }
    for check in checks {
        println!("check FAILED {check}");
    }
    let finite = metrics.iter().all(|(_, v)| v.is_finite());
    let correct = checks.is_empty() && failed == 0 && finite;
    println!("ops attempted {attempted} failed {failed} correct {correct}");
    let body = metrics
        .iter()
        .map(|(name, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        attempted.max(1)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--trace 0`: the end-to-end metrics of one workload.
fn untraced(name: &str, seed: u64, size: &Size) -> std::io::Result<ExitCode> {
    let (setup_s, mut m) = run_workload(name, seed, size, SETUP_REPS, None)?;
    println!(
        "samples {} (latency of each {})",
        m.lat_ns.len(),
        unit_of_work(name)
    );
    let metrics = [
        ("ops_per_s", m.ops_per_s),
        ("lat_p50_us", stats::quantile(&mut m.lat_ns, 0.5) / 1e3),
        ("lat_p95_us", stats::quantile(&mut m.lat_ns, 0.95) / 1e3),
        ("setup_s", setup_s),
    ];
    Ok(report(m.attempted, m.failed, &m.checks, &metrics))
}

fn unit_of_work(name: &str) -> &'static str {
    match name {
        "point-mix" | "zipf-update" => "operation, one in 64 sampled",
        "scan-under-updates" => "range query",
        "mode-shift" => "operation of the last phase, one in 64 sampled",
        _ => "request, send to receive",
    }
}

/// `--trace 1`: the per-layer metrics of one workload. An untraced run of
/// the same size comes first (the traced run's cost is the difference),
/// then the traced run, the reference, and the isolated phases of the
/// layers the workload loads.
fn traced(name: &str, seed: u64, size: &Size) -> std::io::Result<ExitCode> {
    let third = Size {
        seconds: size.seconds / 3.0,
    };
    let (_, mut plain) = run_workload(name, seed, &third, 1, None)?;
    let (_, mut m) = run_workload(name, seed, &third, 1, Some(Instant::now()))?;
    let mut layer = std::mem::take(&mut m.layer);
    let (attempted, mut failed) = (plain.attempted + m.attempted, plain.failed + m.failed);
    let mut checks = std::mem::take(&mut plain.checks);
    checks.append(&mut m.checks);

    let (reference, reference_failed) = reference_layer(name, seed, &third, plain.ops_per_s)?;
    layer.extend(reference);
    failed += reference_failed;

    let dir = out_dir();
    let p50_us = stats::quantile(&mut plain.lat_ns, 0.5) / 1e3;
    layer.push(("lat_p99_us", stats::quantile(&mut plain.lat_ns, 0.99) / 1e3));
    if name.starts_with("kv-") {
        layer.extend(phases::proto_phases());
        layer.extend(phases::kv_phases(seed));
        kv::condition(size.dur(0.2));
        let frame_bytes = value(&layer, "store.proto.req1_frame_bytes") as usize;
        let floor_us = phases::loopback_floor_us(frame_bytes)?;
        layer.push(("store.server.loopback_floor_us", floor_us));
        if name == "kv-blocking" {
            // Only a window of one makes a request's latency the sum of
            // the layers it crosses; under a window it mostly queues.
            let rows = budget_rows(&layer);
            let explained: f64 = rows.iter().map(|(_, ns)| ns / 1e3).sum();
            layer.push(("store.server.unexplained_us", p50_us - explained));
            write_budget(&dir.join("budget.txt"), &rows, p50_us)?;
        }
        if name == "kv-durable" {
            layer.extend(phases::wal_phases(&dir)?);
        }
    } else {
        layer.extend(phases::tm_phases());
        let sys = tree::setup(MultiverseRuntime::start(tree::mv_config()), seed);
        layer.extend(phases::struct_phases(&sys, seed));
        sys.rt.shutdown();
    }

    trace::write_jsonl(&dir.join(format!("trace-{name}.jsonl")), name, &m.spans)?;
    println!("spans {} written to out/trace-{name}.jsonl", m.spans.len());
    for s in trace::summarize(&m.spans) {
        println!(
            "span {} count {} median_ns {:.0} median_self_ns {:.0}",
            s.name, s.count, s.median_ns, s.median_self_ns
        );
    }
    layer.extend([
        ("process.peak_rss_mb", process_usage().peak_rss_mb),
        (
            "process.cpu_s_per_mop",
            stats::ratio(m.cpu_s, m.attempted as f64 / 1e6),
        ),
        (
            "process.trace_overhead_pct",
            100.0 * (1.0 - stats::ratio(m.ops_per_s, plain.ops_per_s)),
        ),
    ]);
    // A metric produced but not declared is a bug in the benchmark.
    for (name, _) in &layer {
        unit_of(name);
    }
    // Every declared per-layer metric is reported; one the workload does
    // not exercise reads 0.
    let metrics: Vec<(&str, f64)> = spec::PER_LAYER
        .iter()
        .map(|decl| (decl.name, value(&layer, decl.name)))
        .collect();
    Ok(report(attempted, failed, &checks, &metrics))
}

/// The latest value of per-layer metric `name`, 0 if none was measured.
fn value(layer: &[(&'static str, f64)], name: &str) -> f64 {
    layer
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v)
}

/// The layers one blocking request crosses, in nanoseconds: the loopback
/// floor, the four codec calls and the KV dispatch.
fn budget_rows(layer: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let ns = |name| value(layer, name);
    vec![
        (
            "loopback write + read (syscalls, two wake-ups)",
            ns("store.server.loopback_floor_us") * 1e3,
        ),
        (
            "store.proto encode request",
            ns("store.proto.encode_req1_ns"),
        ),
        (
            "store.proto decode request",
            ns("store.proto.decode_req1_ns"),
        ),
        (
            "store.proto encode response",
            ns("store.proto.encode_resp1_ns"),
        ),
        (
            "store.proto decode response",
            ns("store.proto.decode_resp1_ns"),
        ),
        ("store.kv validate", ns("store.kv.validate_ns")),
        (
            "store.kv execute (structure op + TM; 90% get, 10% put)",
            0.9 * ns("store.kv.execute_get_ns") + 0.1 * ns("store.kv.execute_put_ns"),
        ),
    ]
}

/// The `kv-blocking` latency budget: layer, ns, share of the untraced
/// median request, and the remainder no measured layer explains.
fn write_budget(path: &Path, rows: &[(&'static str, f64)], p50_us: f64) -> std::io::Result<()> {
    let p50_ns = p50_us * 1e3;
    let mut text =
        format!("kv-blocking latency budget: median request {p50_us:.2} us (untraced run)\n");
    text.push_str(&format!("{:<60} {:>10} {:>8}\n", "layer", "ns", "% p50"));
    let mut explained = 0.0;
    for (label, ns) in rows {
        explained += ns;
        text.push_str(&format!(
            "{label:<60} {ns:>10.0} {:>7.1}%\n",
            100.0 * ns / p50_ns
        ));
    }
    let rest = p50_ns - explained;
    text.push_str(&format!(
        "{:<60} {rest:>10.0} {:>7.1}%\n",
        "unexplained (reader <-> worker handoff: two more wake-ups)",
        100.0 * rest / p50_ns
    ));
    text.push_str(&format!(
        "{:<60} {:>10.0} {:>7.1}%\n",
        "sum",
        explained + rest,
        100.0
    ));
    std::fs::create_dir_all(path.parent().expect("budget path has a directory"))?;
    std::fs::write(path, &text)?;
    print!("{text}");
    Ok(())
}

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sets: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        sets: 2,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => out.trace = value("0 or 1")? == "1",
            "--sets" => {
                out.sets = value("a number")?
                    .parse()
                    .map_err(|e| format!("--sets: {e}"))?
            }
            "--smoke" => out.seconds = spec::RUN_SECONDS as f64 / 20.0,
            "run" | "trace" | "repeat" | "manifest" if out.command.is_none() => {
                out.command = Some(arg.clone())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds.is_finite() && out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".to_string());
    }
    if out.sets == 0 {
        return Err("--sets must be at least 1".to_string());
    }
    Ok(out)
}

/// One workload in a fresh subprocess (so peak memory and arena state do
/// not leak between workloads); its `metric` lines, parsed.
fn child(name: &str, args: &Args, traced: bool) -> Result<Vec<(String, f64, String)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name, "--seed", &args.seed.to_string()])
        .args([
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    for line in text
        .lines()
        .filter(|l| l.starts_with("check ") || l.starts_with("ops ") || l.starts_with("samples "))
    {
        println!("  {line}");
    }
    if !output.status.success() {
        return Err(format!(
            "{name} failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.strip_prefix("metric ")?.split_whitespace();
            Some((
                f.next()?.to_string(),
                f.next()?.parse().ok()?,
                f.next()?.to_string(),
            ))
        })
        .collect())
}

type Set = Vec<(&'static str, Vec<(String, f64, String)>)>;

/// Every workload once, printed metric by metric.
fn run_set(args: &Args, traced: bool) -> Result<Set, String> {
    let mut set = Set::new();
    for w in &spec::WORKLOADS {
        let t = Instant::now();
        println!("workload {} ({})", w.name, w.why);
        let metrics = child(w.name, args, traced)?;
        for (name, value, unit) in &metrics {
            if !traced || *value != 0.0 {
                println!("  {name:<44} {value:>16.4} {unit}");
            }
        }
        println!("  took {:.1} s", t.elapsed().as_secs_f64());
        set.push((w.name, metrics));
    }
    Ok(set)
}

/// `repeat`: k sets; every (workload, end-to-end metric) pair of values
/// must agree within the metric's bound.
fn repeat(args: &Args) -> Result<bool, String> {
    let sets: Vec<Set> = (0..args.sets)
        .map(|_| run_set(args, false))
        .collect::<Result<_, _>>()?;
    println!(
        "\n{:<20} {:<12} {:>7} {:>7}  values",
        "workload", "metric", "spread", "bound"
    );
    let mut agree = true;
    for (wi, w) in spec::WORKLOADS.iter().enumerate() {
        for decl in &spec::END_TO_END {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|set| {
                    set[wi]
                        .1
                        .iter()
                        .find(|(n, _, _)| n == decl.name)
                        .map(|(_, v, _)| *v)
                })
                .collect();
            let (min, max) = values
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let spread = stats::ratio(max - min, stats::median(values.clone()));
            let within = spread <= decl.bound;
            agree &= within;
            let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            println!(
                "{:<20} {:<12} {spread:>7.3} {:>7.2}  {}{}",
                w.name,
                decl.name,
                decl.bound,
                shown.join(" "),
                if within { "" } else { "  BEYOND BOUND" }
            );
        }
    }
    Ok(agree)
}

fn main() -> ExitCode {
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mvbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.command.as_deref() == Some("manifest") {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let env = environment();
    for line in &env.lines {
        println!("{line}");
    }
    println!("env seed {} seconds {}", args.seed, args.seconds);
    if env.nproc < tree::THREADS {
        eprintln!(
            "mvbench: {} CPU for {} load threads: results are oversubscribed",
            env.nproc,
            tree::THREADS
        );
    }
    let size = Size {
        seconds: args.seconds,
    };
    let outcome = match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) if args.trace => {
            traced(name, args.seed, &size).map_err(|e| e.to_string())
        }
        (None, Some(name)) => untraced(name, args.seed, &size).map_err(|e| e.to_string()),
        (Some("run"), _) => run_set(&args, false).map(|_| ExitCode::SUCCESS),
        (Some("trace"), _) => run_set(&args, true).map(|_| ExitCode::SUCCESS),
        (Some("repeat"), _) => repeat(&args).map(|agree| {
            if agree {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }),
        _ => Err("give --workload <name>, or one of: run, trace, repeat, manifest".to_string()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("mvbench: {e}");
        ExitCode::FAILURE
    })
}
