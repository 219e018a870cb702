//! A tiny dependency-free command-line parser: the `figures` binary's
//! [`BenchArgs`] and (feature `record`) the `harness` binary's subcommands,
//! both over one flag reader.
//!
//! `figures` flags:
//!
//! ```text
//! --figure fig1,fig6       figures to run, or `all` (names: `figures --help`)
//! --threads 1,2,4,8        thread counts to sweep
//! --seconds 5              seconds per trial
//! --scale 0.1              workload scale factor (1.0 = paper-sized, 1M keys)
//! --updaters 16            dedicated updater threads (figure-specific default otherwise)
//! --tms multiverse,dctl    subset of TMs to run
//! --csv                    machine-readable output
//! ```
//!
//! The subcommands' flags are documented on `CheckArgs`, `ExploreArgs` and
//! `CrashArgs`, and `harness --help` prints them.

use crate::figures::Figure;
use crate::registry::TmKind;
use std::fmt::Display;
use std::str::FromStr;

#[cfg(feature = "sim")]
use crate::explore::{BrokenDemo, ExploreScenario, ExploreSpec, Strategy};
#[cfg(all(feature = "sim", feature = "crashpoint"))]
use crate::explore_wal::WalScenario;
#[cfg(feature = "record")]
use crate::scenario::ScenarioKind;
#[cfg(feature = "crashpoint")]
use wal::crashpoint::Site;

/// The argument list, consumed one flag (and its values) at a time.
struct Flags<I> {
    args: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value following `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value(flag)?;
        v.trim().parse().map_err(|e| format!("{flag} '{v}': {e}"))
    }

    /// The comma list following `flag`, each item parsed.
    fn list<T: FromStr>(&mut self, flag: &str) -> Result<Vec<T>, String>
    where
        T::Err: Display,
    {
        let v = self.value(flag)?;
        v.split(',')
            .map(|s| s.trim().parse().map_err(|e| format!("{flag} '{v}': {e}")))
            .collect()
    }

    /// `all`, or a comma list of names, following `flag`.
    fn names<T>(
        &mut self,
        flag: &str,
        all: impl FnOnce() -> Vec<T>,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Vec<T>, String> {
        let v = self.value(flag)?;
        if v == "all" {
            return Ok(all());
        }
        v.split(',')
            .map(|s| parse(s.trim()).ok_or_else(|| format!("{flag}: unknown name '{s}'")))
            .collect()
    }
}

/// Walk `args` flag by flag. `on_flag` consumes the flag's values and
/// returns `Ok(false)` for a flag it does not know, which is an error.
fn read_flags<I, F>(args: I, mut on_flag: F) -> Result<(), String>
where
    I: IntoIterator<Item = String>,
    F: FnMut(&str, &mut Flags<I::IntoIter>) -> Result<bool, String>,
{
    let mut flags = Flags {
        args: args.into_iter(),
    };
    while let Some(flag) = flags.args.next() {
        if !on_flag(&flag, &mut flags)? {
            return Err(format!("unknown argument '{flag}'"));
        }
    }
    Ok(())
}

/// `x` if it is finite and positive: a trial length or a scale factor.
fn positive(flag: &str, x: f64) -> Result<f64, String> {
    if x.is_finite() && x > 0.0 {
        Ok(x)
    } else {
        Err(format!("{flag} must be a positive finite number, got {x}"))
    }
}

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Figures to run, in order.
    pub figures: Vec<Figure>,
    /// Thread counts to sweep (empty = figure default).
    pub threads: Vec<usize>,
    /// Seconds per trial.
    pub seconds: Option<f64>,
    /// Workload scale factor (fraction of the paper's 1M-key prefill).
    pub scale: Option<f64>,
    /// Dedicated updater override.
    pub updaters: Option<usize>,
    /// TM subset.
    pub tms: Option<Vec<TmKind>>,
    /// Emit CSV instead of a text table.
    pub csv: bool,
}

impl BenchArgs {
    /// Parse the given argument list (without the program name).
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = BenchArgs::default();
        read_flags(args, |flag, f| {
            match flag {
                "--figure" => out.figures = f.names(flag, Figure::all, Figure::parse)?,
                "--threads" => {
                    out.threads = f.list(flag)?;
                    // A zero thread count reaches the trial driver as a
                    // division by zero and a Barrier no worker ever joins;
                    // reject it here with a usable message instead.
                    if out.threads.contains(&0) {
                        return Err("--threads counts must be >= 1".to_string());
                    }
                }
                // A non-positive or non-finite length panics the trial
                // driver after the whole prefill, and a bad scale silently
                // shrinks the prefill: reject both here.
                "--seconds" => out.seconds = Some(positive(flag, f.parse(flag)?)?),
                "--scale" => out.scale = Some(positive(flag, f.parse(flag)?)?),
                "--updaters" => out.updaters = Some(f.parse(flag)?),
                "--tms" => out.tms = Some(f.names(flag, TmKind::all, TmKind::parse)?),
                "--csv" => out.csv = true,
                "--help" | "-h" => return Err(Self::usage()),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        for figure in &out.figures {
            figure.check_args(&out)?;
        }
        Ok(out)
    }

    /// The `figures` usage line, with every figure name.
    pub fn usage() -> String {
        let names: Vec<_> = Figure::all().into_iter().map(Figure::name).collect();
        format!(
            "usage: figures --figure all|{} [--threads 1,2,4] [--seconds N] [--scale F] \
             [--updaters N] [--tms multiverse,dctl,...] [--csv]",
            names.join(",")
        )
    }

    /// Parse from the process arguments, printing an error and exiting on
    /// failure.
    pub fn from_env() -> Self {
        match Self::parse_from(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The workload scale factor (default keeps a laptop run in seconds).
    pub fn scale_or(&self, default: f64) -> f64 {
        self.scale.unwrap_or(default)
    }

    /// Seconds per trial with a figure-specific default.
    pub fn seconds_or(&self, default: f64) -> f64 {
        self.seconds.unwrap_or(default)
    }

    /// Dedicated updaters with a figure-specific default.
    pub fn updaters_or(&self, default: usize) -> usize {
        self.updaters.unwrap_or(default)
    }
}

// ---------------------------------------------------------------------------
// The `harness` binary's subcommands
// ---------------------------------------------------------------------------

/// Usage of the `harness` binary.
#[cfg(feature = "record")]
const USAGE: &str = "\
usage: harness check [--backend all|tm,...] [--scenario all|name,...] [--seed N] [--seeds N]
                     [--smoke|--full]
       harness explore [--scenario all|name,...] [--exhaustive | --sample N] [--seed S]
                       [--preemptions K] [--broken traverse-le|supersede-gate|struct-raw-init]
                       [--replay TOKEN] [--expect-violation] [--keep-going] [--list]
       harness crash [--seed N] [--seeds N] [--site all|append,fsync,checkpoint-write,rotate]
                     [--skips 0,3,11] [--broken-no-validate|--broken-replay-gap]";

/// A `harness` subcommand with its parsed flags.
#[cfg(feature = "record")]
#[derive(Debug)]
pub enum Command {
    /// `harness check`: scenario families x backends through the checker.
    Check(CheckArgs),
    /// `harness explore`: schedule exploration (feature `sim`).
    #[cfg(feature = "sim")]
    Explore(ExploreArgs),
    /// `harness crash`: the crash-injection sweep (feature `crashpoint`).
    #[cfg(feature = "crashpoint")]
    Crash(CrashArgs),
}

/// Flags of `harness check`.
#[cfg(feature = "record")]
#[derive(Debug, PartialEq, Eq)]
pub struct CheckArgs {
    /// Backends to run (`--backend`, default all).
    pub backends: Vec<TmKind>,
    /// Scenario families to run (`--scenario`, default all).
    pub scenarios: Vec<ScenarioKind>,
    /// First seed (`--seed`, default 1).
    pub seed: u64,
    /// Consecutive seeds to sweep (`--seeds`, default 1).
    pub seeds: u64,
    /// Full sizing (`--full`) instead of CI sizing (`--smoke`, default).
    pub full: bool,
}

/// Flags of `harness explore`.
#[cfg(feature = "sim")]
#[derive(Debug)]
pub struct ExploreArgs {
    /// Protocol and structure scenarios to explore.
    pub scenarios: Vec<ExploreScenario>,
    /// WAL scenarios to explore (dropped from `all` under `--broken`).
    #[cfg(feature = "crashpoint")]
    pub wal_scenarios: Vec<WalScenario>,
    /// Exhaustive (default), `--sample N` or `--replay TOKEN`.
    pub strategy: Strategy,
    /// Preemptive context switches per schedule (default 2).
    pub preemptions: u32,
    /// Reintroduced-bug demo to enable.
    pub broken: Option<BrokenDemo>,
    /// Succeed iff every exploration finds a violation.
    pub expect_violation: bool,
    /// Explore every schedule even after a violation.
    pub keep_going: bool,
    /// Print the scenarios instead of exploring them.
    pub list: bool,
}

#[cfg(feature = "sim")]
impl ExploreArgs {
    /// The exploration request for one selected scenario.
    pub fn spec<S>(&self, scenario: S) -> ExploreSpec<S> {
        ExploreSpec {
            scenario,
            strategy: self.strategy.clone(),
            preemption_bound: self.preemptions,
            broken: self.broken,
            stop_on_violation: !self.keep_going,
        }
    }
}

/// A broken recovery mode of `harness crash`.
#[cfg(feature = "crashpoint")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashBroken {
    /// `--broken-no-validate`: recover without checksum validation.
    NoValidate,
    /// `--broken-replay-gap`: recover without the contiguity stop.
    ReplayGap,
}

/// Flags of `harness crash`.
#[cfg(feature = "crashpoint")]
#[derive(Debug)]
pub struct CrashArgs {
    /// First seed (`--seed`, default 1).
    pub seed: u64,
    /// Consecutive seeds to sweep (`--seeds`, default 1).
    pub seeds: u64,
    /// Crash sites (`--site`, default all).
    pub sites: Vec<Site>,
    /// Site hits to skip before crashing (`--skips`, default 0,3,11).
    pub skips: Vec<u32>,
    /// A broken recovery mode to prove the checker flags.
    pub broken: Option<CrashBroken>,
}

/// Parse `harness <subcommand> [flags]` (without the program name).
#[cfg(feature = "record")]
pub fn parse_command<I: IntoIterator<Item = String>>(args: I) -> Result<Command, String> {
    let mut args = args.into_iter();
    let sub = args.next().ok_or(USAGE)?;
    // Every error (`--help` inside a subcommand included) ends with the usage.
    let command = match sub.as_str() {
        "check" => parse_check(args).map(Command::Check),
        #[cfg(feature = "sim")]
        "explore" => parse_explore(args).map(Command::Explore),
        #[cfg(not(feature = "sim"))]
        "explore" => Err(missing_feature("explore", "sim")),
        #[cfg(feature = "crashpoint")]
        "crash" => parse_crash(args).map(Command::Crash),
        #[cfg(not(feature = "crashpoint"))]
        "crash" => Err(missing_feature("crash", "crashpoint")),
        "-h" | "--help" => return Err(USAGE.to_string()),
        other => Err(format!("unknown subcommand '{other}'")),
    };
    command.map_err(|e| format!("{e}\n{USAGE}"))
}

/// The usage error of a subcommand this build left out.
#[cfg(all(feature = "record", not(all(feature = "sim", feature = "crashpoint"))))]
fn missing_feature(sub: &str, feature: &str) -> String {
    format!(
        "`harness {sub}` needs feature `{feature}`: \
         cargo run -p harness --features {feature} --bin harness -- {sub} ..."
    )
}

#[cfg(feature = "record")]
fn parse_check(args: impl Iterator<Item = String>) -> Result<CheckArgs, String> {
    let mut a = CheckArgs {
        backends: TmKind::all(),
        scenarios: ScenarioKind::all(),
        seed: 1,
        seeds: 1,
        full: false,
    };
    read_flags(args, |flag, f| {
        match flag {
            "--backend" | "--backends" => a.backends = f.names(flag, TmKind::all, TmKind::parse)?,
            "--scenario" | "--scenarios" => {
                a.scenarios = f.names(flag, ScenarioKind::all, ScenarioKind::parse)?
            }
            "--seed" => a.seed = f.parse(flag)?,
            "--seeds" => a.seeds = f.parse(flag)?,
            "--smoke" => a.full = false,
            "--full" => a.full = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(a)
}

#[cfg(feature = "sim")]
fn parse_explore(args: impl Iterator<Item = String>) -> Result<ExploreArgs, String> {
    let mut a = ExploreArgs {
        scenarios: ExploreScenario::all(),
        #[cfg(feature = "crashpoint")]
        wal_scenarios: WalScenario::all(),
        strategy: Strategy::Exhaustive,
        preemptions: 2,
        broken: None,
        expect_violation: false,
        keep_going: false,
        list: false,
    };
    let (mut sample, mut seed, mut replay) = (None, 1u64, None);
    read_flags(args, |flag, f| {
        match flag {
            "--scenario" | "--scenarios" => {
                let v = f.value(flag)?;
                if v != "all" {
                    a.scenarios.clear();
                    #[cfg(feature = "crashpoint")]
                    a.wal_scenarios.clear();
                    for s in v.split(',').map(str::trim) {
                        if let Some(p) = ExploreScenario::parse(s) {
                            a.scenarios.push(p);
                            continue;
                        }
                        #[cfg(feature = "crashpoint")]
                        if let Some(w) = WalScenario::parse(s) {
                            a.wal_scenarios.push(w);
                            continue;
                        }
                        return Err(format!("{flag}: unknown scenario '{s}'"));
                    }
                }
            }
            "--exhaustive" => sample = None,
            "--sample" => sample = Some(f.parse(flag)?),
            "--seed" => seed = f.parse(flag)?,
            "--preemptions" => a.preemptions = f.parse(flag)?,
            "--broken" => {
                let v = f.value(flag)?;
                a.broken =
                    Some(BrokenDemo::parse(&v).ok_or_else(|| format!("unknown demo '{v}'"))?);
            }
            "--replay" => replay = Some(f.value(flag)?),
            "--expect-violation" => a.expect_violation = true,
            "--keep-going" => a.keep_going = true,
            "--list" => a.list = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    // The WAL scenarios have no broken modes; a `--broken` run is about a
    // specific reintroduced bug, so they drop out there.
    #[cfg(feature = "crashpoint")]
    if a.broken.is_some() {
        a.wal_scenarios.clear();
    }
    #[cfg(feature = "crashpoint")]
    let selected = a.scenarios.len() + a.wal_scenarios.len();
    #[cfg(not(feature = "crashpoint"))]
    let selected = a.scenarios.len();
    if selected == 0 {
        return Err("no scenarios selected".to_string());
    }
    if let Some(token) = replay {
        if selected != 1 {
            return Err("--replay needs exactly one --scenario".to_string());
        }
        a.strategy = Strategy::Replay { token };
    } else if let Some(schedules) = sample {
        a.strategy = Strategy::Sample { seed, schedules };
    }
    Ok(a)
}

#[cfg(feature = "crashpoint")]
fn parse_crash(args: impl Iterator<Item = String>) -> Result<CrashArgs, String> {
    let mut a = CrashArgs {
        seed: 1,
        seeds: 1,
        sites: Site::ALL.to_vec(),
        skips: vec![0, 3, 11],
        broken: None,
    };
    read_flags(args, |flag, f| {
        match flag {
            "--seed" => a.seed = f.parse(flag)?,
            "--seeds" => a.seeds = f.parse(flag)?,
            "--site" | "--sites" => a.sites = f.names(flag, || Site::ALL.to_vec(), Site::parse)?,
            "--skips" => a.skips = f.list(flag)?,
            "--broken-no-validate" => a.broken = Some(CrashBroken::NoValidate),
            "--broken-replay-gap" => a.broken = Some(CrashBroken::ReplayGap),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok(a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    fn parse(list: &[&str]) -> Result<BenchArgs, String> {
        BenchArgs::parse_from(args(list))
    }

    #[test]
    fn parses_all_flags() {
        let a = parse(&[
            "--threads",
            "1,2,4",
            "--seconds",
            "2.5",
            "--scale",
            "0.1",
            "--updaters",
            "8",
            "--tms",
            "multiverse,dctl",
            "--csv",
        ])
        .unwrap();
        assert_eq!(a.threads, vec![1, 2, 4]);
        assert_eq!(a.seconds, Some(2.5));
        assert_eq!(a.scale, Some(0.1));
        assert_eq!(a.updaters, Some(8));
        assert_eq!(a.tms, Some(vec![TmKind::Multiverse, TmKind::Dctl]));
        assert!(a.csv);
    }

    #[test]
    fn figure_takes_all_or_names_and_rejects_dropped_values() {
        assert_eq!(parse(&["--figure", "all"]).unwrap().figures, Figure::all());
        let a = parse(&["--figure", "fig3-4,MODES", "--threads", "1,2"]).unwrap();
        assert_eq!(a.figures, vec![Figure::Fig3_4, Figure::Modes]);
        assert!(parse(&["--figure", "fig2"]).is_err());
        // fig7 and fig8 run one thread count and fig7 one TM: a longer
        // list is an error naming the figure, not silently truncated.
        for bad in [
            &["--figure", "fig7", "--threads", "1,2"][..],
            &["--figure", "fig8", "--threads", "1,2"],
            &["--figure", "all", "--threads", "1,2"],
            &["--figure", "fig7", "--tms", "tl2,dctl"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(
                err.starts_with("fig7:") || err.starts_with("fig8:"),
                "{err}"
            );
        }
        assert!(parse(&["--figure", "fig8", "--tms", "tl2,dctl"]).is_ok());
        assert!(BenchArgs::usage().contains("fig3-4"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]).unwrap();
        assert!(a.threads.is_empty());
        assert_eq!(a.seconds_or(5.0), 5.0);
        assert_eq!(a.scale_or(0.02), 0.02);
        assert_eq!(a.updaters_or(16), 16);
        assert!(!a.csv);
    }

    #[test]
    fn rejects_unknown_args_and_tms() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--tms", "nosuchtm"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn rejects_zero_and_empty_thread_counts() {
        // Regression: `--threads 0` used to reach the trial driver and die
        // as a division by zero / stuck start barrier.
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "1,0,4"]).is_err());
        assert!(parse(&["--threads", ""]).is_err());
        assert!(parse(&["--threads", ","]).is_err());
        assert_eq!(parse(&["--threads", "1"]).unwrap().threads, vec![1]);
    }

    #[test]
    fn rejects_non_positive_or_non_finite_seconds_and_scale() {
        // Regression: `--seconds -1`, `nan` and `inf` used to panic the trial
        // driver after the whole prefill, and a bad `--scale` silently
        // shrank the prefill to 64 keys.
        for flag in ["--seconds", "--scale"] {
            for bad in ["-1", "0", "-0.5", "nan", "NaN", "inf", "-inf", "x"] {
                assert!(parse(&[flag, bad]).is_err(), "{flag} {bad} accepted");
            }
            assert!(parse(&[flag]).is_err(), "{flag} without a value accepted");
        }
        assert_eq!(parse(&["--seconds", "0.5"]).unwrap().seconds, Some(0.5));
        assert_eq!(parse(&["--scale", "1e-3"]).unwrap().scale, Some(1e-3));
    }

    #[cfg(feature = "record")]
    fn command(list: &[&str]) -> Result<Command, String> {
        parse_command(args(list))
    }

    #[cfg(feature = "record")]
    fn check(list: &[&str]) -> Result<CheckArgs, String> {
        match command(list)? {
            Command::Check(a) => Ok(a),
            #[allow(unreachable_patterns)]
            other => panic!("not a check command: {other:?}"),
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn rejects_unknown_subcommands_and_flags() {
        assert!(command(&[]).is_err());
        assert!(command(&["bogus"]).is_err());
        assert!(command(&["check", "--bogus"]).is_err());
        assert!(command(&["check", "--backend", "nosuchtm"]).is_err());
        assert!(command(&["check", "--scenario", "counter,nope"]).is_err());
    }

    #[cfg(feature = "record")]
    #[test]
    fn rejects_missing_values() {
        for flag in ["--backend", "--scenario", "--seed", "--seeds"] {
            let err = command(&["check", flag]).unwrap_err();
            assert!(err.contains("needs a value"), "{flag}: {err}");
        }
    }

    #[cfg(feature = "record")]
    #[test]
    fn check_parses_all_and_comma_lists() {
        let d = check(&["check"]).unwrap();
        assert_eq!(
            (d.backends.len(), d.scenarios.len(), d.seed, d.seeds),
            (8, 6, 1, 1)
        );
        assert!(!d.full);
        let all = check(&["check", "--backend", "all", "--scenario", "all"]).unwrap();
        assert_eq!(all, d);
        let a = check(&[
            "check",
            "--backend",
            "dctl,TL2",
            "--scenario",
            "counter,struct-churn",
            "--seed",
            "3",
            "--seeds",
            "2",
            "--full",
        ])
        .unwrap();
        assert_eq!(a.backends, vec![TmKind::Dctl, TmKind::Tl2]);
        assert_eq!(
            a.scenarios,
            vec![ScenarioKind::Counter, ScenarioKind::StructChurn]
        );
        assert_eq!((a.seed, a.seeds, a.full), (3, 2, true));
    }

    #[cfg(all(feature = "record", not(feature = "sim")))]
    #[test]
    fn explore_without_sim_names_the_feature() {
        let err = command(&["explore"]).unwrap_err();
        assert!(err.contains("`sim`"), "{err}");
    }

    #[cfg(all(feature = "record", not(feature = "crashpoint")))]
    #[test]
    fn crash_without_crashpoint_names_the_feature() {
        let err = command(&["crash"]).unwrap_err();
        assert!(err.contains("`crashpoint`"), "{err}");
    }

    #[cfg(feature = "sim")]
    fn explore(list: &[&str]) -> Result<ExploreArgs, String> {
        let mut full = vec!["explore"];
        full.extend_from_slice(list);
        match command(&full)? {
            Command::Explore(a) => Ok(a),
            #[allow(unreachable_patterns)]
            other => panic!("not an explore command: {other:?}"),
        }
    }

    #[cfg(feature = "sim")]
    #[test]
    fn explore_parses_lists_strategies_and_demos() {
        let d = explore(&[]).unwrap();
        assert_eq!(d.scenarios, ExploreScenario::all());
        assert!(matches!(d.strategy, Strategy::Exhaustive));
        assert_eq!((d.preemptions, d.broken), (2, None));
        let a = explore(&[
            "--scenario",
            "traverse,hashmap",
            "--sample",
            "16",
            "--seed",
            "7",
            "--preemptions",
            "3",
            "--broken",
            "struct-raw-init",
            "--keep-going",
        ])
        .unwrap();
        assert_eq!(
            a.scenarios,
            vec![ExploreScenario::Traverse, ExploreScenario::HashMap]
        );
        assert!(matches!(
            a.strategy,
            Strategy::Sample {
                seed: 7,
                schedules: 16
            }
        ));
        assert_eq!(a.broken, Some(BrokenDemo::StructRawInit));
        let spec = a.spec(ExploreScenario::HashMap);
        assert_eq!(spec.preemption_bound, 3);
        assert!(!spec.stop_on_violation);
        assert!(explore(&["--scenario", "nope"]).is_err());
        assert!(explore(&["--broken", "nope"]).is_err());
        assert!(explore(&["--sample"]).is_err());
    }

    #[cfg(feature = "sim")]
    #[test]
    fn explore_replay_needs_exactly_one_scenario() {
        assert!(explore(&["--replay", "00"]).is_err());
        assert!(explore(&["--scenario", "traverse,commit", "--replay", "00"]).is_err());
        let a = explore(&["--scenario", "traverse", "--replay", "00"]).unwrap();
        assert!(matches!(a.strategy, Strategy::Replay { ref token } if token == "00"));
    }

    #[cfg(feature = "crashpoint")]
    #[test]
    fn crash_parses_sites_skips_and_demos() {
        let Command::Crash(d) = command(&["crash"]).unwrap() else {
            panic!("not a crash command")
        };
        assert_eq!(
            (d.sites.len(), d.skips.clone(), d.broken),
            (4, vec![0, 3, 11], None)
        );
        let Command::Crash(a) = command(&[
            "crash",
            "--site",
            "append,fsync",
            "--skips",
            "0,3",
            "--broken-replay-gap",
        ])
        .unwrap() else {
            panic!("not a crash command")
        };
        assert_eq!(a.sites, vec![Site::Append, Site::Fsync]);
        assert_eq!(a.skips, vec![0, 3]);
        assert_eq!(a.broken, Some(CrashBroken::ReplayGap));
        assert!(command(&["crash", "--skips", ""]).is_err());
        assert!(command(&["crash", "--skips", "1,x"]).is_err());
        assert!(command(&["crash", "--site", "nope"]).is_err());
    }
}
