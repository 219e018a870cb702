//! Model-checked tests for the KV-oriented composable operations
//! (`get_tx` / `scan_tx`) added for the store front door: every structure
//! must agree with a `BTreeMap` model on values, not just presence.
//!
//! Duplicate-insert semantics: `insert_tx` of a present key returns `false`
//! and keeps the existing value, so the model only records a binding when the
//! structure reports an actual insert.

use baselines::GlockRuntime;
use multiverse::{MultiverseConfig, MultiverseRuntime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use tm_api::{TmHandle, TmRuntime, TxKind};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxList, TxSet};

fn check_kv_against_model<S: TxSet, R: TmRuntime>(set: &S, runtime: &Arc<R>, ops: usize) {
    let mut h = runtime.register();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = StdRng::seed_from_u64(7);
    let key_range = 160u64;
    let mut scratch: Vec<(u64, u64)> = Vec::new();
    for i in 0..ops {
        let key = rng.gen_range(0..key_range);
        match rng.gen_range(0..10) {
            0..=3 => {
                let val = rng.gen_range(0..1_000_000u64);
                let expected = !model.contains_key(&key);
                let got = h.txn(TxKind::ReadWrite, |tx| set.insert_tx(tx, key, val));
                assert_eq!(got, expected, "insert({key}) mismatch at op {i}");
                if got {
                    model.insert(key, val);
                }
            }
            4..=5 => {
                let expected = model.remove(&key).is_some();
                let got = h.txn(TxKind::ReadWrite, |tx| set.remove_tx(tx, key));
                assert_eq!(got, expected, "remove({key}) mismatch at op {i}");
            }
            6..=8 => {
                let expected = model.get(&key).copied();
                let got = h.txn(TxKind::ReadOnly, |tx| set.get_tx(tx, key));
                assert_eq!(got, expected, "get({key}) mismatch at op {i}");
            }
            _ => {
                let lo = rng.gen_range(0..key_range);
                let hi = (lo + rng.gen_range(0..60u64)).min(key_range);
                let expected: Vec<(u64, u64)> =
                    model.range(lo..=hi).map(|(k, v)| (*k, *v)).collect();
                let n = h.txn(TxKind::ReadOnly, |tx| {
                    scratch.clear();
                    set.scan_tx(tx, lo, hi, &mut |k, v| scratch.push((k, v)))
                });
                scratch.sort_unstable();
                assert_eq!(
                    n,
                    expected.len(),
                    "scan({lo},{hi}) count mismatch at op {i}"
                );
                assert_eq!(
                    scratch, expected,
                    "scan({lo},{hi}) contents mismatch at op {i}"
                );
            }
        }
    }
}

fn run_all<R: TmRuntime>(runtime: Arc<R>) {
    check_kv_against_model(&TxAbTree::new(), &runtime, 1500);
    check_kv_against_model(&TxAvlTree::new(), &runtime, 1500);
    check_kv_against_model(&TxExtBst::new(), &runtime, 1500);
    check_kv_against_model(&TxHashMap::new(64), &runtime, 1500);
    check_kv_against_model(&TxList::new(), &runtime, 900);
}

#[test]
fn kv_ops_match_model_on_glock() {
    run_all(Arc::new(GlockRuntime::new()));
}

#[test]
fn kv_ops_match_model_on_multiverse() {
    let rt = MultiverseRuntime::start(MultiverseConfig::small());
    run_all(Arc::clone(&rt));
    rt.shutdown();
}
