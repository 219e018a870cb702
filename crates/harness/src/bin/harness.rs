//! `harness` — the checker tooling behind one binary:
//!
//! ```text
//! cargo run --release -p harness --features record --bin harness -- check \
//!     --backend all --scenario all --seed 1 [--seeds N] [--smoke|--full]
//! cargo run -p harness --features sim --bin harness -- explore \
//!     --scenario all [--exhaustive | --sample N] [--broken DEMO --expect-violation]
//! cargo run --release -p harness --features crashpoint --bin harness -- crash \
//!     [--seed N] [--seeds N] [--skips 0,3,11] [--broken-no-validate|--broken-replay-gap]
//! ```
//!
//! `check` runs scenario families x backends through the opacity /
//! serializability checker, `explore` enumerates schedules of the
//! exploration scenarios and checks each one (printing a replay token and a
//! repro line on a violation), `crash` sweeps the WAL's crash sites and
//! requires every recovery to be a committed prefix. Each exits non-zero
//! iff something was violated (`explore --expect-violation` and the
//! `crash --broken-*` demos invert that: they pass only if the checker
//! flags the bug). Every flag is documented on `harness::cli`'s
//! `CheckArgs` / `ExploreArgs` / `CrashArgs` and printed by `--help`; see
//! TESTING.md for the models behind them and the repro recipes.

use harness::cli::{parse_command, CheckArgs, Command};
use harness::scenario::{run_and_check, ScenarioSpec};
use std::fmt::Display;
use std::process::ExitCode;

fn main() -> ExitCode {
    match parse_command(std::env::args().skip(1)) {
        Ok(Command::Check(args)) => check(&args),
        #[cfg(feature = "sim")]
        Ok(Command::Explore(args)) => explore::run(&args),
        #[cfg(feature = "crashpoint")]
        Ok(Command::Crash(args)) => crash::run(&args),
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}

/// Print up to eight violation lines, then how many more there were.
fn print_capped<T: Display>(lines: &[T]) {
    for line in lines.iter().take(8) {
        println!("    {line}");
    }
    if lines.len() > 8 {
        println!("    ... {} more", lines.len() - 8);
    }
}

fn check(args: &CheckArgs) -> ExitCode {
    let mut total_runs = 0usize;
    let mut dirty_runs = 0usize;
    for seed in args.seed..args.seed + args.seeds.max(1) {
        for &scenario in &args.scenarios {
            let spec = if args.full {
                ScenarioSpec::full(scenario, seed)
            } else {
                ScenarioSpec::smoke(scenario, seed)
            };
            for &tm in &args.backends {
                let report = run_and_check(tm, &spec);
                total_runs += 1;
                let verdict = if report.is_clean() { "ok" } else { "VIOLATION" };
                println!(
                    "check {:<18} {:<22} attempts={:<6} committed={:<6} aborted={:<5} reads={:<7} {}",
                    report.backend,
                    report.scenario,
                    report.stats.attempts,
                    report.stats.committed,
                    report.stats.aborted,
                    report.stats.reads_checked,
                    verdict
                );
                if !report.is_clean() {
                    dirty_runs += 1;
                    print_capped(&report.violations);
                    if dirty_runs == 1 {
                        // One command line pinning the failing
                        // configuration (backend, scenario, seed, sizing).
                        // The OS interleaving is not controlled here — for
                        // a deterministic replay of a specific schedule use
                        // `harness explore` (feature `sim`).
                        println!(
                            "    repro: cargo run --release -p harness --features record \
                             --bin harness -- check --backend {} --scenario {} --seed {} {}",
                            tm.name(),
                            scenario.name(),
                            seed,
                            if args.full { "--full" } else { "--smoke" }
                        );
                    }
                }
            }
        }
    }
    if dirty_runs > 0 {
        eprintln!("{dirty_runs}/{total_runs} runs had opacity/serializability violations");
        return ExitCode::FAILURE;
    }
    println!("{total_runs} runs clean: no opacity/serializability violations");
    ExitCode::SUCCESS
}

#[cfg(feature = "sim")]
mod explore {
    use harness::cli::ExploreArgs;
    use harness::explore::{
        repro_command, run_explore, ExploreModel, ExploreReport, ExploreScenario,
    };
    use std::process::ExitCode;

    /// `--list`: one line per scenario — name, family, simulated thread count.
    fn list() {
        let rows = ExploreScenario::all().into_iter().map(|s| {
            let family = if s.is_structure() {
                "structure"
            } else {
                "protocol"
            };
            (s.name(), family, s.threads())
        });
        #[cfg(feature = "crashpoint")]
        let rows = rows.chain(
            harness::explore_wal::WalScenario::all()
                .into_iter()
                .map(|w| (w.name(), "wal", w.threads())),
        );
        for (name, family, threads) in rows {
            println!("{name:<26} family={family:<9} threads={threads}");
        }
    }

    fn print_report(report: &ExploreReport, repro: impl Fn(&str) -> String) {
        println!(
            "explore {:<26} broken={:<14} schedules={:<7} clean={:<7} violating={:<4} complete={} max_nodes={} races={} sleep_skips={}",
            report.scenario,
            report.broken.unwrap_or("-"),
            report.stats.schedules,
            report.clean_schedules,
            report.violating_schedules,
            report.stats.complete,
            report.stats.max_nodes,
            report.stats.race_requests,
            report.stats.sleep_skips,
        );
        if let Some(v) = &report.first_violation {
            println!(
                "  first violation: schedule {} token {} history-digest {:#018x}",
                v.schedule_index, v.token, v.history_digest
            );
            super::print_capped(&v.details);
            println!("  repro: {}", repro(&v.token));
        }
    }

    /// Explore one scenario and print its report; `true` if it was clean.
    fn explore_one<S: ExploreModel>(args: &ExploreArgs, scenario: S) -> bool {
        let spec = args.spec(scenario);
        let report = run_explore(&spec);
        print_report(&report, |token| repro_command(&spec, token));
        report.is_clean()
    }

    pub fn run(args: &ExploreArgs) -> ExitCode {
        if args.list {
            list();
            return ExitCode::SUCCESS;
        }
        let mut outcomes = Vec::new();
        for &s in &args.scenarios {
            outcomes.push(explore_one(args, s));
        }
        #[cfg(feature = "crashpoint")]
        for &s in &args.wal_scenarios {
            outcomes.push(explore_one(args, s));
        }
        let total = outcomes.len();
        let violating = outcomes.iter().filter(|&&clean| !clean).count();
        if args.expect_violation {
            if violating == total {
                println!("{violating}/{total} explorations flagged the expected violation");
                return ExitCode::SUCCESS;
            }
            eprintln!(
                "expected every exploration to find a violation; only {violating}/{total} did"
            );
            return ExitCode::FAILURE;
        }
        if violating > 0 {
            eprintln!("{violating}/{total} explorations found schedule violations");
            return ExitCode::FAILURE;
        }
        println!("{total} explorations clean: every explored schedule passed the checker");
        ExitCode::SUCCESS
    }
}

#[cfg(feature = "crashpoint")]
mod crash {
    use super::print_capped;
    use harness::cli::{CrashArgs, CrashBroken};
    use harness::crash::{
        append_gap_frame, corrupt_last_record_value, execute, recover_and_check, run_sound,
        temp_wal_dir, CrashSpec, Plan, RecoverOpts, Site,
    };
    use std::process::ExitCode;

    pub fn run(args: &CrashArgs) -> ExitCode {
        match args.broken {
            None => sound_sweep(args),
            Some(mode) => broken_demo(args.seed, mode),
        }
    }

    /// The positive sweep: every cell must recover a committed prefix.
    fn sound_sweep(args: &CrashArgs) -> ExitCode {
        let mut total = 0usize;
        let mut dirty = 0usize;
        for seed in args.seed..args.seed + args.seeds.max(1) {
            // (site, skip) cells, plus one baseline with no fault armed.
            let mut cells: Vec<Option<(Site, u32)>> = vec![None];
            for &site in &args.sites {
                for &skip in &args.skips {
                    cells.push(Some((site, skip)));
                }
            }
            for cell in cells {
                let tag = match cell {
                    Some((site, skip)) => format!("{seed}-{}-{skip}", site.name()),
                    None => format!("{seed}-baseline"),
                };
                let dir = temp_wal_dir(&tag);
                let mut spec = CrashSpec::smoke(seed);
                if let Some((site, skip)) = cell {
                    spec = spec.with_plan(Plan::CrashAt {
                        site,
                        skip,
                        torn_seed: seed ^ ((skip as u64) << 8),
                    });
                }
                let (run, verdict) = run_sound(&spec, &dir);
                total += 1;
                let ok = verdict.is_clean();
                println!(
                    "crash {:<44} crashed={:<5} durable_seq={:<6} recovered_seq={:<6} \
                     ckpt_rv={:<8} truncated={:<3} {}",
                    run.label,
                    run.finish.crashed,
                    run.finish.durable_seq,
                    verdict.recovered.durable_seq,
                    verdict.recovered.checkpoint_rv,
                    verdict.recovered.truncated_records,
                    if ok { "ok" } else { "VIOLATION" }
                );
                if !ok {
                    dirty += 1;
                    print_capped(&verdict.recovery.violations);
                    print_capped(&verdict.live.violations);
                }
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
        if dirty > 0 {
            eprintln!("{dirty}/{total} crash-recovery runs violated the committed-prefix contract");
            return ExitCode::FAILURE;
        }
        println!("{total} crash-recovery runs clean: recovery always equals a committed prefix");
        ExitCode::SUCCESS
    }

    /// A broken-mode demo passes iff sound recovery is clean AND the broken
    /// recovery is flagged — the checker must be able to see this bug class.
    fn broken_demo(seed: u64, mode: CrashBroken) -> ExitCode {
        let dir = temp_wal_dir(&format!("{seed}-broken"));
        let spec = CrashSpec::smoke(seed);
        let run = execute(&spec, &dir);

        let (what, sound, broken) = match mode {
            CrashBroken::NoValidate => {
                assert!(corrupt_last_record_value(&dir), "a record to corrupt");
                // Externally corrupted fsynced bytes legitimately trip the
                // durability floor even in sound mode; drop the floor so the
                // verdicts isolate the checksum question.
                let sound = recover_and_check(&run, &dir, &RecoverOpts::default(), &[]);
                let opts = RecoverOpts {
                    validate_checksums: false,
                    ..RecoverOpts::default()
                };
                let broken = recover_and_check(&run, &dir, &opts, &[]);
                ("checksum validation skipped", sound, broken)
            }
            CrashBroken::ReplayGap => {
                append_gap_frame(&dir, run.addrs[0] as u64, 3);
                let floor = run.durable_floor();
                let sound = recover_and_check(&run, &dir, &RecoverOpts::default(), &floor);
                let opts = RecoverOpts {
                    stop_at_gap: false,
                    ..RecoverOpts::default()
                };
                let broken = recover_and_check(&run, &dir, &opts, &floor);
                ("sequence-gap stop skipped", sound, broken)
            }
        };
        let _ = std::fs::remove_dir_all(&dir);

        println!(
            "crash {} [{what}]: sound={}, broken={} ({} violations)",
            run.label,
            if sound.is_clean() {
                "clean"
            } else {
                "VIOLATION"
            },
            if broken.is_clean() {
                "clean (BUG: checker missed it)"
            } else {
                "flagged"
            },
            broken.recovery.violations.len()
        );
        print_capped(&broken.recovery.violations);
        if sound.is_clean() && !broken.is_clean() {
            println!("checker correctly rejects the unsound recovery mode");
            return ExitCode::SUCCESS;
        }
        eprintln!("broken-mode demo failed: the checker must flag exactly the unsound recovery");
        ExitCode::FAILURE
    }
}
