//! Differential property tests: every transactional structure against a
//! `BTreeMap` oracle, on every backend in the registry.
//!
//! Each generated case is one sequence of point, range and *composed*
//! operations over a small key domain. The composed operations run two
//! structure calls in a single transaction through the `*_tx` variants (a
//! remove+insert "move", and a contains+range read pair) — the oracle
//! applies the same step atomically, so a backend whose transaction
//! boundaries leak (a move half-applied, a read pair spanning a commit)
//! diverges from the oracle even when every individual operation is
//! correct. The sequence runs against all five structures on all eight
//! registered TMs, single-threaded: this is the sequential-semantics
//! oracle that anchors the concurrent exploration and audit tests.

use std::collections::BTreeMap;
use std::sync::Arc;

use harness::registry::{with_backend, BackendVisitor, RuntimeScale, TmKind};
use proptest::prelude::*;
use tm_api::{TmHandle, TmRuntime, TxKind};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxList, TxSet};

/// Key domain: small enough that inserts, removes and range endpoints
/// collide often (the interesting paths), large enough to cross the
/// structures' internal transitions (an (a,b)-tree root split needs 17).
const KEYS: u64 = 24;

/// Run one op sequence against `set`, checking every result against the
/// oracle, then audit the final state key by key.
fn drive<S: TxSet, H: TmHandle>(set: &S, h: &mut H, ops: &[(u8, u64, u64)], ctx: &str) {
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, &(kind, a, b)) in ops.iter().enumerate() {
        match kind {
            0 => {
                let did = set.insert(h, a, b);
                let exp = !oracle.contains_key(&a);
                if exp {
                    oracle.insert(a, b);
                }
                assert_eq!(did, exp, "{ctx} op {i}: insert({a})");
            }
            1 => {
                let did = set.remove(h, a);
                assert_eq!(
                    did,
                    oracle.remove(&a).is_some(),
                    "{ctx} op {i}: remove({a})"
                );
            }
            2 => {
                let got = set.contains(h, a);
                assert_eq!(got, oracle.contains_key(&a), "{ctx} op {i}: contains({a})");
            }
            3 => {
                let (lo, hi) = (a.min(b), a.max(b));
                let got = set.range_query(h, lo, hi);
                let exp = oracle.range(lo..=hi).count();
                assert_eq!(got, exp, "{ctx} op {i}: range({lo}, {hi})");
            }
            4 => {
                // Composed update: move key `a` to key `b` in ONE
                // transaction through the `*_tx` variants.
                let (did_r, did_i) = h.txn(TxKind::ReadWrite, |tx| {
                    let r = set.remove_tx(tx, a)?;
                    let ins = set.insert_tx(tx, b, b)?;
                    Ok((r, ins))
                });
                let exp_r = oracle.remove(&a).is_some();
                let exp_i = !oracle.contains_key(&b);
                if exp_i {
                    oracle.insert(b, b);
                }
                assert_eq!(
                    (did_r, did_i),
                    (exp_r, exp_i),
                    "{ctx} op {i}: move({a} -> {b})"
                );
            }
            _ => {
                // Composed read: a point lookup and a range count in ONE
                // read-only transaction.
                let (lo, hi) = (a.min(b), a.max(b));
                let (got_c, got_n) = h.txn(TxKind::ReadOnly, |tx| {
                    let c = set.contains_tx(tx, a)?;
                    let n = set.range_query_tx(tx, lo, hi)?;
                    Ok((c, n))
                });
                let exp_c = oracle.contains_key(&a);
                let exp_n = oracle.range(lo..=hi).count();
                assert_eq!(
                    (got_c, got_n),
                    (exp_c, exp_n),
                    "{ctx} op {i}: read-pair({a}, [{lo},{hi}])"
                );
            }
        }
    }
    assert_eq!(set.size_query(h), oracle.len(), "{ctx}: final size");
    for k in 0..KEYS {
        assert_eq!(
            set.contains(h, k),
            oracle.contains_key(&k),
            "{ctx}: final contains({k})"
        );
    }
}

struct DiffVisitor<'a> {
    ops: &'a [(u8, u64, u64)],
    tm: TmKind,
}

impl BackendVisitor for DiffVisitor<'_> {
    type Out = ();

    fn visit<R: TmRuntime>(self, rt: Arc<R>) {
        let mut h = rt.register();
        let tm = self.tm.name();
        drive(&TxAbTree::new(), &mut h, self.ops, &format!("{tm}/abtree"));
        drive(&TxAvlTree::new(), &mut h, self.ops, &format!("{tm}/avl"));
        drive(&TxExtBst::new(), &mut h, self.ops, &format!("{tm}/extbst"));
        drive(
            &TxHashMap::new(8),
            &mut h,
            self.ops,
            &format!("{tm}/hashmap"),
        );
        drive(&TxList::new(), &mut h, self.ops, &format!("{tm}/list"));
        drop(h);
        rt.shutdown();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn structures_agree_with_oracle_on_every_backend(
        ops in prop::collection::vec((0u8..6, 0u64..KEYS, 0u64..KEYS), 1..48),
    ) {
        for tm in TmKind::all() {
            with_backend(tm, RuntimeScale::Test, DiffVisitor { ops: &ops, tm });
        }
    }
}
