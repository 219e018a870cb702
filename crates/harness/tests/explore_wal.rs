//! Schedule exploration of the WAL durability pipeline (features `sim` +
//! `crashpoint`).
//!
//! The sim scheduler enumerates interleavings of the commit tap, the
//! manually-driven group-commit loop and the checkpoint writer; each crash
//! scenario injects a crash at one named site on *every* explored schedule
//! and recovery must come back clean — the schedule × crash-site matrix,
//! each cell judged by `check_recovery` (durable prefix + floor) plus the
//! live opacity checker.
//!
//! Smoke scale is preemption bound 1 (~100 schedules, ~2 s per scenario in
//! a debug build). The bound-2 space (~1700 schedules per scenario) runs in
//! CI's long-checks sweep through `harness explore`.

use harness::explore::{run_explore, ExploreSpec};
use harness::explore_wal::WalScenario;
use wal::crashpoint::Site;

/// Smoke bound: every group-commit/checkpoint/commit-tap ordering with one
/// preemptive switch, against every crash site.
const BOUND: u32 = 1;

/// Bound-1 exhaustive schedule counts, pinned. A drift means the pipeline's
/// yield-point structure changed — deliberate WAL/scenario changes update
/// the pin, anything else is a determinism bug. (The checkpoint-write and
/// rotate cells are smaller: their injected fault stops the pipeline before
/// some late yield points exist.)
// Pins re-measured when handle registration moved onto one tid-indexed
// registry: `register` takes one lock instead of a tid counter's fetch_add
// plus two registry locks, and a handle's drop takes that lock — a
// different instrumented-op sequence around each model thread's handle.
const PINS: &[(WalScenario, u64)] = &[
    (WalScenario::Commit, 95),
    (WalScenario::Crash(Site::Append), 95),
    (WalScenario::Crash(Site::Fsync), 95),
    (WalScenario::Crash(Site::CheckpointWrite), 90),
    (WalScenario::Crash(Site::Rotate), 90),
];

#[test]
fn every_schedule_of_every_crash_site_recovers_clean() {
    for &(scenario, pinned) in PINS {
        let report = run_explore(&ExploreSpec::exhaustive(scenario, BOUND));
        assert!(
            report.stats.complete,
            "{} did not drain its schedule space (schedules={})",
            report.scenario, report.stats.schedules
        );
        assert!(
            report.is_clean(),
            "{}: schedule {:?} failed recovery",
            report.scenario,
            report.first_violation
        );
        assert_eq!(
            report.stats.schedules, pinned,
            "{}: bound-1 schedule count drifted from its pin",
            report.scenario
        );
    }
}

#[test]
fn wal_exploration_is_run_to_run_deterministic() {
    let spec = ExploreSpec::exhaustive(WalScenario::Crash(Site::CheckpointWrite), BOUND);
    let a = run_explore(&spec);
    let b = run_explore(&spec);
    assert_eq!(a.stats.schedules, b.stats.schedules);
    assert_eq!(a.clean_schedules, b.clean_schedules);
    assert_eq!(a.stats.sleep_skips, b.stats.sleep_skips);
}

#[test]
fn wal_scenario_names_round_trip() {
    for s in WalScenario::all() {
        assert_eq!(WalScenario::parse(s.name()), Some(s));
        assert_eq!(s.threads(), 3);
    }
    assert_eq!(WalScenario::parse("wal-nope"), None);
}
