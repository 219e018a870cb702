//! End-to-end session tests with default features: log, checkpoint,
//! finish, recover. Crash/IO injection lives in `crash_injection.rs`
//! behind the `crashpoint` feature.

use std::path::PathBuf;
use std::time::Duration;

use wal::frame::{encode_record, Record};
use wal::{recover, RecoverOpts, WalConfig};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wal-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn fast_config(dir: &PathBuf) -> WalConfig {
    let mut cfg = WalConfig::new(dir);
    cfg.flush_interval = Duration::from_micros(200);
    cfg
}

#[test]
fn multithreaded_session_recovers_every_commit() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 200;
    let dir = temp_dir("mt");
    let handle = wal::start(fast_config(&dir)).unwrap();
    assert!(wal::is_active());

    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    let addr = t * 10_000 + i;
                    wal::log_commit(&[(addr, addr * 3 + 1)], i + 1);
                }
            });
        }
    });
    let finish = handle.finish();
    assert!(!finish.crashed && !finish.failed);
    assert_eq!(finish.appends, THREADS * PER_THREAD);
    assert_eq!(finish.durable_seq, THREADS * PER_THREAD);
    assert!(finish.fsyncs >= 1);
    assert!(finish.bytes > 0);

    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.durable_seq, THREADS * PER_THREAD);
    assert_eq!(rec.truncated_records, 0);
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let addr = t * 10_000 + i;
            assert_eq!(rec.values.get(&addr), Some(&(addr * 3 + 1)));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_order_is_seq_order_for_conflicting_writes() {
    let dir = temp_dir("order");
    let handle = wal::start(fast_config(&dir)).unwrap();
    for i in 1..=500u64 {
        // All commits hit the same address; commit timestamps tie on
        // purpose (the deferred clock allows it) — seq must disambiguate.
        wal::log_commit(&[(7, i)], 1);
    }
    let finish = handle.finish();
    assert_eq!(finish.durable_seq, 500);

    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.values.get(&7), Some(&500));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_cut_and_wal_suffix_replay_agree() {
    let dir = temp_dir("ckpt");
    let mut handle = wal::start(fast_config(&dir)).unwrap();
    wal::log_commit(&[(1, 10)], 5);
    wal::log_commit(&[(2, 20)], 8);
    // The image at rv = 9 holds exactly the commits with ts < 9.
    assert!(handle.checkpoint(9, &[(1, 10), (2, 20)]).unwrap());
    wal::log_commit(&[(1, 11)], 9);
    wal::log_commit(&[(3, 30)], 12);
    let finish = handle.finish();
    assert!(!finish.crashed && !finish.failed);
    assert_eq!(finish.checkpoints, 1);
    assert_eq!(finish.durable_seq, 4);

    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.checkpoint_rv, 9);
    // ts >= rv records replay over the image; ts < rv records are already
    // inside it and must NOT be re-applied (seq 1's value would clobber
    // nothing here, but the cut rule is what keeps it that way in general).
    assert_eq!(rec.applied_records, 2);
    assert_eq!(rec.values.get(&1), Some(&11));
    assert_eq!(rec.values.get(&2), Some(&20));
    assert_eq!(rec.values.get(&3), Some(&30));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_of_empty_dir_is_empty() {
    let dir = temp_dir("empty");
    std::fs::create_dir_all(&dir).unwrap();
    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.checkpoint_rv, 0);
    assert!(rec.values.is_empty());
    assert_eq!(rec.durable_seq, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_segment_tail_truncates_at_last_valid_record() {
    let dir = temp_dir("torn");
    std::fs::create_dir_all(&dir).unwrap();
    let mut bytes = Vec::new();
    for seq in 1..=3u64 {
        encode_record(
            &Record {
                seq,
                commit_ts: seq,
                writes: vec![(seq * 8, seq * 100)],
            },
            &mut bytes,
        );
    }
    let full = bytes.len();
    encode_record(
        &Record {
            seq: 4,
            commit_ts: 4,
            writes: vec![(32, 400)],
        },
        &mut bytes,
    );
    // Simulate a torn tail: the 4th record is half-written.
    let cut = full + (bytes.len() - full) / 2;
    std::fs::write(dir.join("log-000001.wal"), &bytes[..cut]).unwrap();

    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.durable_seq, 3);
    assert_eq!(rec.truncated_records, 1);
    assert_eq!(rec.values.get(&8), Some(&100));
    assert_eq!(rec.values.get(&24), Some(&300));
    assert_eq!(rec.values.get(&32), None, "torn record must not apply");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damaged_newest_checkpoint_falls_back_to_older() {
    let dir = temp_dir("ckpt-fallback");
    std::fs::create_dir_all(&dir).unwrap();
    let good = wal::checkpoint::encode_checkpoint(5, &[(1, 100)]);
    std::fs::write(dir.join(wal::session::checkpoint_name(5)), &good).unwrap();
    let mut bad = wal::checkpoint::encode_checkpoint(9, &[(1, 999)]);
    let len = bad.len();
    bad[len - 3] ^= 0x10;
    std::fs::write(dir.join(wal::session::checkpoint_name(9)), &bad).unwrap();

    let rec = recover(&dir, &RecoverOpts::default()).unwrap();
    assert_eq!(rec.checkpoint_rv, 5, "newest is damaged, older must win");
    assert_eq!(rec.values.get(&1), Some(&100));
    assert_eq!(rec.truncated_records, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_rows_flow_into_stats_snapshot() {
    let dir = temp_dir("stats");
    let reg = tm_api::Registry::<()>::default();
    let handle = wal::start(fast_config(&dir)).unwrap();
    // Sessions are process-serialized, so between start and finish the only
    // writer of the append/fsync/byte counters is this session's group-commit
    // thread — the deltas below are exact, not lower bounds.
    let before = reg.snapshot();
    for i in 1..=50u64 {
        wal::log_commit(&[(i, i)], i);
    }
    let finish = handle.finish();
    let after = reg.snapshot();
    assert_eq!(after.wal_appends - before.wal_appends, finish.appends);
    assert_eq!(after.wal_bytes - before.wal_bytes, finish.bytes);
    assert!(after.wal_fsyncs > before.wal_fsyncs);
    let _ = std::fs::remove_dir_all(&dir);
}
