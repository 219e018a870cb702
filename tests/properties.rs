//! Property-based tests (proptest) over the core substrates and the
//! transactional data structures.

use baselines::GlockRuntime;
use multiverse::version::{VersionList, VersionNode};
use multiverse::{MultiverseConfig, MultiverseRuntime};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;
use tm_api::vlock::LockState;
use tm_api::{BloomTable, TmRuntime, MAX_TID, MAX_VERSION};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lock words survive an encode/decode round trip for every field value.
    #[test]
    fn lock_word_roundtrip(locked in any::<bool>(), flag in any::<bool>(),
                           tid in 0..=MAX_TID, version in 0..=MAX_VERSION) {
        let st = LockState { locked, flag, tid, version };
        prop_assert_eq!(LockState::decode(st.encode()), st);
    }

    /// The per-stripe bloom filters never report a false negative.
    #[test]
    fn bloom_has_no_false_negatives(addrs in prop::collection::vec(0usize..1_000_000, 1..64)) {
        let table = BloomTable::new(8);
        for &a in &addrs {
            table.try_add(3, a * 8);
        }
        for &a in &addrs {
            prop_assert!(table.contains(3, a * 8));
        }
    }

    /// A version-list traversal returns the newest version whose timestamp
    /// is strictly below the reader's clock — unless a committed version
    /// sits exactly *at* the reader's clock, which is ambiguous under the
    /// deferred clock (its commit may predate the reader's begin) and must
    /// abort so the retry's fresher clock can disambiguate.
    #[test]
    fn version_list_traversal_picks_newest_suitable(
        // Strictly increasing timestamps starting at 1.
        increments in prop::collection::vec(1u64..5, 1..20),
        read_offset in 0u64..100,
    ) {
        let mut ts = 1u64;
        let list = VersionList::with_initial(ts, ts);
        let mut history = vec![ts];
        for inc in increments {
            ts += inc;
            list.push_head(VersionNode::acquire(list.head(), ts, ts, false));
            history.push(ts);
        }
        let read_clock = read_offset.min(ts + 5);
        // Strict acceptance: a version is visible only when its timestamp is
        // strictly below the reader's clock (matches LockState::validate).
        // A committed version stamped exactly at the read clock is walked
        // past like any later one: versioned readers own their read clock,
        // so such a commit began after the reader did.
        let expected = history.iter().copied().filter(|&t| t < read_clock).max();
        match expected {
            Some(e) => prop_assert_eq!(list.traverse(read_clock), Ok(e)),
            None => prop_assert!(list.traverse(read_clock).is_err()),
        }
    }

    /// Each tree structure behaves like a `BTreeMap` under arbitrary
    /// single-threaded operation sequences on the global-lock oracle.
    #[test]
    fn abtree_matches_model(ops in prop::collection::vec((0u8..4, 0u64..200), 1..200)) {
        check_structure_against_model(TxAbTree::new(), &ops);
    }

    #[test]
    fn avl_matches_model(ops in prop::collection::vec((0u8..4, 0u64..200), 1..200)) {
        check_structure_against_model(TxAvlTree::new(), &ops);
    }

    #[test]
    fn extbst_matches_model(ops in prop::collection::vec((0u8..4, 0u64..200), 1..200)) {
        check_structure_against_model(TxExtBst::new(), &ops);
    }

    /// The same sequences also hold on Multiverse itself (single-threaded, so
    /// this is exercising the unversioned fast path plus the bookkeeping).
    #[test]
    fn abtree_matches_model_on_multiverse(ops in prop::collection::vec((0u8..4, 0u64..100), 1..100)) {
        let tm = MultiverseRuntime::start(MultiverseConfig::small());
        let mut h = tm.register();
        let set = TxAbTree::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for &(op, key) in ops.iter() {
            apply_op(&set, &mut h, &mut model, op, key);
        }
        prop_assert_eq!(set.size_query(&mut h), model.len());
        drop(h);
        tm.shutdown();
    }
}

fn apply_op<S: TxSet, H: tm_api::TmHandle>(
    set: &S,
    h: &mut H,
    model: &mut BTreeMap<u64, u64>,
    op: u8,
    key: u64,
) {
    match op {
        0 => {
            let expected = model.insert(key, key).is_none();
            assert_eq!(set.insert(h, key, key), expected, "insert({key})");
        }
        1 => {
            let expected = model.remove(&key).is_some();
            assert_eq!(set.remove(h, key), expected, "remove({key})");
        }
        2 => {
            assert_eq!(
                set.contains(h, key),
                model.contains_key(&key),
                "contains({key})"
            );
        }
        _ => {
            let hi = key.saturating_add(50);
            let expected = model.range(key..=hi).count();
            assert_eq!(set.range_query(h, key, hi), expected, "range({key},{hi})");
        }
    }
}

fn check_structure_against_model<S: TxSet>(set: S, ops: &[(u8, u64)]) {
    let rt = Arc::new(GlockRuntime::new());
    let mut h = rt.register();
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for &(op, key) in ops {
        apply_op(&set, &mut h, &mut model, op, key);
    }
    assert_eq!(set.size_query(&mut h), model.len());
}
