//! Runs every workload at 1/20 size and checks that what the benchmark
//! prints is what `BENCHMARK.json` declares.

use std::collections::BTreeSet;
use std::process::Command;
use std::sync::Mutex;

/// The tests that run workloads take turns: two at once on two CPUs would
/// trip the workloads' safety caps.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const MVBENCH: &str = env!("CARGO_BIN_EXE_mvbench");

fn manifest_on_disk() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// Values of `key` in the array `section` of the (fixed-layout) manifest.
fn field(manifest: &str, section: &str, key: &str) -> Vec<String> {
    let start = manifest
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &manifest[start..];
    let body = &body[..body.find("\n  ]").expect("section closed")];
    let pattern = format!("\"{key}\": \"");
    body.match_indices(&pattern)
        .map(|(at, _)| {
            let rest = &body[at + pattern.len()..];
            rest[..rest.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(MVBENCH)
        .args(args)
        .output()
        .expect("mvbench runs");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "mvbench {args:?} failed ({}):\n{text}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    text
}

/// `(name, unit)` of every metric in a result line, in order.
fn result_metrics(stdout: &str) -> Vec<(String, String)> {
    let line = stdout.lines().last().expect("a result line");
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "unexpected result line: {line}"
    );
    let metrics = &line[line.find("\"metrics\": {").expect("metrics object") + 12..];
    metrics
        .split("}, ")
        .map(|entry| {
            let name = entry.split('"').nth(1).expect("metric name").to_string();
            let unit = entry.rsplit('"').nth(1).expect("metric unit").to_string();
            assert!(
                entry.contains("{\"value\": "),
                "metric without a value: {entry}"
            );
            (name, unit)
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn manifest_matches_the_benchmark() {
    let manifest = manifest_on_disk();
    assert_eq!(
        manifest,
        stdout_of(&["manifest"]),
        "BENCHMARK.json drifted from `mvbench manifest`"
    );

    let workloads = field(&manifest, "workloads", "name");
    let end_to_end = field(&manifest, "end_to_end", "name");
    let per_layer = field(&manifest, "per_layer", "name");
    assert!((2..=8).contains(&workloads.len()));
    assert!((1..=16).contains(&end_to_end.len()));
    assert!((1..=128).contains(&per_layer.len()));
    assert!(end_to_end.contains(&"setup_s".to_string()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(all.iter().all(|n| well_formed(n)), "a name is malformed");
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );
    assert!(field(&manifest, "workloads", "why")
        .iter()
        .all(|why| why.len() <= 200 && !why.contains('\n')));
    for section in ["end_to_end", "per_layer"] {
        for unit in field(&manifest, section, "unit") {
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }
}

#[test]
fn every_workload_reports_every_declared_metric_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let manifest = manifest_on_disk();
    let declared = |section: &str| -> Vec<(String, String)> {
        field(&manifest, section, "name")
            .into_iter()
            .zip(field(&manifest, section, "unit"))
            .collect()
    };
    for workload in field(&manifest, "workloads", "name") {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = stdout_of(&[
                "--workload",
                &workload,
                "--seed",
                "7",
                "--seconds",
                "0.5",
                "--trace",
                trace,
            ]);
            assert_eq!(
                result_metrics(&out),
                declared(section),
                "{workload} --trace {trace}"
            );
            for env in [
                "env nproc",
                "env rustc",
                "env git_commit",
                "env cpu",
                "env wal_flush_policy",
            ] {
                assert!(out.contains(env), "{workload}: no `{env}` line");
            }
        }
    }
}

#[test]
fn run_smoke_covers_every_workload_once() {
    let _turn = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let out = stdout_of(&["run", "--smoke", "--seed", "7"]);
    let manifest = manifest_on_disk();
    for workload in field(&manifest, "workloads", "name") {
        let header = format!("workload {workload} (");
        assert_eq!(
            out.matches(&header).count(),
            1,
            "{workload} in `run --smoke`"
        );
    }
    let rows = out
        .lines()
        .filter(|l| l.trim_start().starts_with("ops_per_s "))
        .count();
    assert_eq!(rows, field(&manifest, "workloads", "name").len());
}
