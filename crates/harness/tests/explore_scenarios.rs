//! End-to-end schedule-exploration tests (feature `sim`).
//!
//! These are the teeth of the exploration harness:
//!
//! * exhaustive 2-thread exploration of every scenario — protocol and
//!   structure families — completes and is clean with the protocol intact;
//! * bound-2 schedule counts are pinned, and pinned *strictly below* the
//!   pre-sleep-set counts (the sleep-set DPOR reduction must not regress);
//! * every reintroduced-bug demo is flagged by exhaustive exploration —
//!   deterministically (two runs agree on the first violating schedule);
//! * a violation's token replays to the same violating history (digest
//!   equality).
//!
//! The `supersede-gate` demo relies on the arena's poisoned recycled
//! timestamps, i.e. on debug assertions being compiled in — which they are
//! for `cargo test`.

use harness::explore::{
    history_digest, run_explore, BrokenDemo, ExploreScenario, ExploreSpec, Strategy,
};

/// Preemption bound used throughout: enough to reach both demo bugs, small
/// enough that exhaustive DPOR stays CI-sized.
const BOUND: u32 = 2;

fn exhaustive(scenario: ExploreScenario, broken: Option<BrokenDemo>) -> ExploreSpec {
    ExploreSpec {
        scenario,
        strategy: Strategy::Exhaustive,
        preemption_bound: BOUND,
        broken,
        stop_on_violation: broken.is_none(),
    }
}

#[test]
fn exhaustive_exploration_is_clean_with_protocol_intact() {
    for scenario in ExploreScenario::all() {
        let report = run_explore(&exhaustive(scenario, None));
        assert!(
            report.is_clean(),
            "scenario {} found a violation in the unbroken protocol: {:?}",
            report.scenario,
            report.first_violation
        );
        assert!(
            report.stats.complete,
            "scenario {} did not drain its schedule space (schedules={})",
            report.scenario, report.stats.schedules
        );
        assert!(report.stats.schedules >= 1);
    }
}

/// Bound-2 exhaustive schedule counts, pinned.
///
/// The third column is the measured count of the same scenario *before*
/// sleep-set DPOR (the PR 7 explorer, with only the in-run race
/// suppression); asserting `pinned < before` is the regression teeth for
/// the sleep sets: they must strictly reduce the explored space on every
/// scenario while the clean/complete assertions above prove no violation
/// is lost. A change to these counts means the schedule space changed —
/// deliberate protocol/scenario changes update the pin, anything else is
/// a determinism bug.
#[test]
fn sleep_sets_strictly_reduce_pinned_schedule_counts() {
    // Both columns re-measured when handle registration moved onto one
    // tid-indexed registry: `register` takes one lock instead of a tid
    // counter's fetch_add plus two registry locks, and a handle's drop
    // takes that lock instead of storing to its announcement slot — a
    // different instrumented-op sequence, hence a different (still clean,
    // still complete) schedule space. The before-sleep-set column is the
    // same explorer with the sleep-set check switched off.
    const PINS: &[(ExploreScenario, u64, u64)] = &[
        (ExploreScenario::Traverse, 199, 397),
        (ExploreScenario::Supersede, 60, 69),
        (ExploreScenario::ModeSwitch, 133, 142),
        (ExploreScenario::Commit, 73, 106),
    ];
    for &(scenario, pinned, before_sleep_sets) in PINS {
        let report = run_explore(&exhaustive(scenario, None));
        assert!(report.stats.complete, "{} did not drain", report.scenario);
        assert_eq!(
            report.stats.schedules, pinned,
            "{}: bound-2 schedule count drifted from its pin",
            report.scenario
        );
        assert!(
            pinned < before_sleep_sets,
            "{}: sleep sets no longer strictly reduce ({} >= {})",
            report.scenario,
            pinned,
            before_sleep_sets
        );
        assert!(
            report.stats.sleep_skips > 0,
            "{}: exploration drained without a single sleep-set skip",
            report.scenario
        );
    }
}

/// The structure scenarios' bound-2 counts, pinned for the same reason
/// (no pre-sleep-set column: they were born after the sleep sets).
/// Re-measured with the protocol pins above when registration moved onto
/// one registry lock.
#[test]
fn structure_scenarios_have_pinned_schedule_counts() {
    const PINS: &[(ExploreScenario, u64)] = &[
        (ExploreScenario::AbTree, 32),
        (ExploreScenario::Avl, 31),
        (ExploreScenario::ExtBst, 32),
        (ExploreScenario::HashMap, 429),
    ];
    for &(scenario, pinned) in PINS {
        let report = run_explore(&exhaustive(scenario, None));
        assert!(report.stats.complete, "{} did not drain", report.scenario);
        assert!(
            report.is_clean(),
            "{}: {:?}",
            report.scenario,
            report.first_violation
        );
        assert_eq!(
            report.stats.schedules, pinned,
            "{}: bound-2 schedule count drifted from its pin",
            report.scenario
        );
    }
}

#[test]
fn broken_struct_raw_init_is_flagged_deterministically() {
    let spec = exhaustive(ExploreScenario::HashMap, Some(BrokenDemo::StructRawInit));
    let a = run_explore(&spec);
    let b = run_explore(&spec);
    for (name, report) in [("first", &a), ("second", &b)] {
        assert!(
            !report.is_clean(),
            "{name} exhaustive run missed the raw-init ghost key (schedules={}, complete={})",
            report.stats.schedules,
            report.stats.complete
        );
    }
    let (va, vb) = (a.first_violation.unwrap(), b.first_violation.unwrap());
    assert_eq!(va.token, vb.token, "detection depended on run-to-run state");
    assert_eq!(va.history_digest, vb.history_digest);
    // The signature of the PR 4 bug: the removed key is still visible
    // through the reused node's stale version list.
    assert!(
        va.details
            .iter()
            .any(|d| d.contains("contains(1) saw true")),
        "expected a ghost of removed key 1, got: {:?}",
        va.details
    );
}

#[test]
fn broken_traverse_le_is_flagged_deterministically() {
    let spec = exhaustive(ExploreScenario::Traverse, Some(BrokenDemo::TraverseLe));
    let a = run_explore(&spec);
    let b = run_explore(&spec);
    for (name, report) in [("first", &a), ("second", &b)] {
        assert!(
            !report.is_clean(),
            "{name} exhaustive run missed the traverse-le bug (schedules={}, complete={})",
            report.stats.schedules,
            report.stats.complete
        );
    }
    let (va, vb) = (a.first_violation.unwrap(), b.first_violation.unwrap());
    assert_eq!(va.token, vb.token, "detection depended on run-to-run state");
    assert_eq!(va.history_digest, vb.history_digest);
}

#[test]
fn broken_supersede_gate_is_flagged_deterministically() {
    let spec = exhaustive(ExploreScenario::Supersede, Some(BrokenDemo::SupersedeGate));
    let a = run_explore(&spec);
    let b = run_explore(&spec);
    for (name, report) in [("first", &a), ("second", &b)] {
        assert!(
            !report.is_clean(),
            "{name} exhaustive run missed the supersede-gate bug (schedules={}, complete={})",
            report.stats.schedules,
            report.stats.complete
        );
    }
    let (va, vb) = (a.first_violation.unwrap(), b.first_violation.unwrap());
    assert_eq!(va.token, vb.token, "detection depended on run-to-run state");
}

#[test]
fn violations_replay_from_their_token_to_the_same_history() {
    let spec = exhaustive(ExploreScenario::Traverse, Some(BrokenDemo::TraverseLe));
    let found = run_explore(&spec);
    let v = found
        .first_violation
        .expect("exhaustive traverse-le exploration must find a violation");
    let replay = run_explore(&ExploreSpec {
        scenario: ExploreScenario::Traverse,
        strategy: Strategy::Replay {
            token: v.token.clone(),
        },
        preemption_bound: BOUND,
        broken: Some(BrokenDemo::TraverseLe),
        stop_on_violation: true,
    });
    assert_eq!(replay.stats.schedules, 1);
    let rv = replay
        .first_violation
        .expect("replaying a violating token must reproduce the violation");
    assert_eq!(rv.history_digest, v.history_digest, "replay diverged");
    assert_eq!(rv.details, v.details);
}

/// A token printed by an earlier build of the explorer (the first violating
/// schedule of exhaustive bound-2 `traverse` under `traverse-le`) and the
/// history digest it produced. The token format is stable: it must keep
/// replaying to the same violating history. The token was re-recorded when
/// handle registration went through one registry lock (a different
/// instrumented-op sequence); the digest did not change.
#[test]
fn recorded_token_still_replays_to_its_history() {
    const TOKEN: &str = "0102730000000000000000000000000000000000000000000000000000000000000000\
                         0000000000000000000000000000000000000000000000000000000000000000000000\
                         0000000000000000000000000001010102020202020202020202020202020202020202\
                         02020202020202020202020201";
    const DIGEST: u64 = 0x801f_7616_d723_91b2;
    let replay = run_explore(&ExploreSpec {
        scenario: ExploreScenario::Traverse,
        strategy: Strategy::Replay {
            token: TOKEN.to_string(),
        },
        preemption_bound: BOUND,
        broken: Some(BrokenDemo::TraverseLe),
        stop_on_violation: true,
    });
    assert_eq!(replay.stats.schedules, 1);
    let v = replay
        .first_violation
        .expect("the recorded token must still reproduce its violation");
    assert_eq!(v.token, TOKEN);
    assert_eq!(
        v.history_digest, DIGEST,
        "replay diverged from the recorded history"
    );
}

#[test]
fn sampled_exploration_is_clean_and_seed_deterministic() {
    let spec = ExploreSpec {
        scenario: ExploreScenario::Commit,
        strategy: Strategy::Sample {
            seed: 7,
            schedules: 16,
        },
        preemption_bound: u32::MAX,
        broken: None,
        stop_on_violation: true,
    };
    let a = run_explore(&spec);
    let b = run_explore(&spec);
    assert!(
        a.is_clean(),
        "sampled commit scenario found: {:?}",
        a.first_violation
    );
    assert_eq!(a.stats.schedules, 16);
    assert_eq!(b.clean_schedules, a.clean_schedules);
}

#[test]
fn history_digest_is_value_sensitive() {
    use harness::checker::{Attempt, History, Op, Outcome};
    let mk = |value| History {
        backend: "t".into(),
        scenario: "t".into(),
        initial: vec![0],
        final_mem: vec![value],
        attempts: vec![Attempt {
            thread: 0,
            ops: vec![Op::Read { var: 0, value: 0 }, Op::Write { var: 0, value }],
            outcome: Outcome::Committed,
        }],
    };
    assert_ne!(history_digest(&mk(1)), history_digest(&mk(2)));
}
