//! # txstructs — transactional data structures
//!
//! The data structures used in the paper's evaluation, written **once**
//! against the generic TM traits of [`tm_api`], so the identical code runs on
//! Multiverse, TL2, DCTL, NOrec, TinySTM and the global-lock oracle:
//!
//! * [`abtree::TxAbTree`] — the (a,b)-tree of the main-paper figures
//!   (a = 4, b = 16).
//! * [`avl::TxAvlTree`] — an internal AVL tree (Appendix A).
//! * [`extbst::TxExtBst`] — a leaf-oriented (external) binary search tree
//!   (Appendix A).
//! * [`hashmap::TxHashMap`] — a fixed-bucket hashmap whose long-running
//!   operation is an atomic *size query* rather than a range query
//!   (Appendix A).
//! * [`list::TxList`] — a sorted singly linked list, used by the §4.5
//!   memory-reclamation-race reproduction and as the simplest example.
//!
//! [`TxSet`] is the one interface every structure implements and every
//! caller drives: transaction-composable `*_tx` operations plus
//! one-transaction wrappers over them (point operations, range and size
//! queries).
//!
//! Nodes store every mutable field in a [`tm_api::TVar`], keep the memory
//! layout of the equivalent non-transactional node, and live in the
//! [`node`] layer's size-classed, epoch-recycled arena: allocation and
//! unlinking route through the transaction's deferred alloc/retire hooks
//! (aborts roll allocations back, commits retire unlinked nodes through
//! epoch-based reclamation into the pool), and the only way to construct a
//! fresh node ([`node::alloc_node`] + [`node::TxNodeInit`]) TM-writes every
//! transactionally-read field inside the allocating transaction — the
//! ROADMAP node-reinitialisation invariant, by construction.

pub mod abtree;
pub mod avl;
#[cfg(feature = "sim")]
pub mod broken;
pub mod extbst;
pub mod hashmap;
pub mod list;
pub mod node;

pub use abtree::TxAbTree;
pub use avl::TxAvlTree;
pub use extbst::TxExtBst;
pub use hashmap::TxHashMap;
pub use list::TxList;

use tm_api::{TmHandle, Transaction, TxKind, TxResult};

/// The set interface of the paper's structures (§5, Appendix A).
///
/// Keys and values are `u64`. The `*_tx` operations run inside a
/// caller-supplied transaction, so a structure operation can share one
/// atomic step with other transactional reads and writes (the checker
/// harness pairs them with audit variables, the store composes them into
/// multi-op batches). The remaining methods are one-operation transactions
/// over them: point operations return whether they changed / found
/// anything, the two long-running operations the number of keys observed.
pub trait TxSet: Send + Sync + 'static {
    /// Human-readable structure name used in benchmark output.
    fn name(&self) -> &'static str;

    /// Insert `key -> val` within `tx`; `Ok(false)` if already present.
    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool>;

    /// Remove `key` within `tx`; `Ok(false)` if absent.
    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool>;

    /// Whether `key` is present, within `tx`.
    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool>;

    /// The value stored under `key`, within `tx`.
    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>>;

    /// Visit every `(key, value)` pair with `lo <= key <= hi` within `tx`
    /// (visit order is structure-specific); returns the pair count.
    fn scan_tx<X: Transaction, F: FnMut(u64, u64)>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut F,
    ) -> TxResult<usize>;

    /// Count the keys in `[lo, hi]` within `tx`.
    fn range_query_tx<X: Transaction>(&self, tx: &mut X, lo: u64, hi: u64) -> TxResult<usize>;

    /// Insert `key -> val`; returns `false` if the key was already present.
    fn insert<H: TmHandle>(&self, h: &mut H, key: u64, val: u64) -> bool {
        h.txn(TxKind::ReadWrite, |tx| self.insert_tx(tx, key, val))
    }

    /// Remove `key`; returns `false` if the key was absent.
    fn remove<H: TmHandle>(&self, h: &mut H, key: u64) -> bool {
        h.txn(TxKind::ReadWrite, |tx| self.remove_tx(tx, key))
    }

    /// Whether `key` is present.
    fn contains<H: TmHandle>(&self, h: &mut H, key: u64) -> bool {
        h.txn(TxKind::ReadOnly, |tx| self.contains_tx(tx, key))
    }

    /// The value stored under `key`.
    fn get<H: TmHandle>(&self, h: &mut H, key: u64) -> Option<u64> {
        h.txn(TxKind::ReadOnly, |tx| self.get_tx(tx, key))
    }

    /// Count the keys in `[lo, hi]` in one atomic read-only transaction.
    fn range_query<H: TmHandle>(&self, h: &mut H, lo: u64, hi: u64) -> usize {
        h.txn(TxKind::ReadOnly, |tx| self.range_query_tx(tx, lo, hi))
    }

    /// Count every key in the structure in one atomic read-only transaction.
    fn size_query<H: TmHandle>(&self, h: &mut H) -> usize {
        self.range_query(h, 0, u64::MAX)
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for the per-structure unit tests: run the same
    //! randomized workload against a `BTreeSet` model on both the global-lock
    //! oracle and Multiverse.

    use super::*;
    use baselines::GlockRuntime;
    use multiverse::{MultiverseConfig, MultiverseRuntime};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::Arc;
    use tm_api::TmRuntime;

    /// Run a randomized single-threaded workload against a model.
    pub(crate) fn check_against_model<S, R, F>(make_set: F, runtime: Arc<R>, ops: usize)
    where
        S: TxSet,
        R: TmRuntime,
        F: FnOnce() -> S,
    {
        let set = make_set();
        let mut h = runtime.register();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(42);
        let key_range = 200u64;
        for i in 0..ops {
            let key = rng.gen_range(0..key_range);
            match rng.gen_range(0..10) {
                0..=3 => {
                    let expected = model.insert(key, key * 10).is_none();
                    let got = set.insert(&mut h, key, key * 10);
                    assert_eq!(got, expected, "insert({key}) mismatch at op {i}");
                }
                4..=6 => {
                    let expected = model.remove(&key).is_some();
                    let got = set.remove(&mut h, key);
                    assert_eq!(got, expected, "remove({key}) mismatch at op {i}");
                }
                7..=8 => {
                    let expected = model.contains_key(&key);
                    let got = set.contains(&mut h, key);
                    assert_eq!(got, expected, "contains({key}) mismatch at op {i}");
                }
                _ => {
                    let lo = rng.gen_range(0..key_range);
                    let hi = (lo + rng.gen_range(0..50u64)).min(key_range);
                    let expected = model.range(lo..=hi).count();
                    let got = set.range_query(&mut h, lo, hi);
                    assert_eq!(got, expected, "range_query({lo},{hi}) mismatch at op {i}");
                }
            }
        }
        assert_eq!(set.size_query(&mut h), model.len(), "final size mismatch");
    }

    pub(crate) fn glock() -> Arc<GlockRuntime> {
        Arc::new(GlockRuntime::new())
    }

    pub(crate) fn multiverse_small() -> Arc<MultiverseRuntime> {
        MultiverseRuntime::start(MultiverseConfig::small())
    }

    /// Run a concurrent mixed workload and check global invariants: no lost
    /// updates (every successful insert minus every successful remove equals
    /// the final size) and range queries always observe consistent snapshots.
    pub(crate) fn concurrent_smoke<S, R, F>(make_set: F, runtime: Arc<R>)
    where
        S: TxSet,
        R: TmRuntime + 'static,
        F: FnOnce() -> S,
    {
        use std::sync::atomic::{AtomicI64, Ordering};
        let set = Arc::new(make_set());
        let net_inserts = Arc::new(AtomicI64::new(0));
        let threads = 4;
        let ops_per_thread = 600;
        std::thread::scope(|s| {
            for t in 0..threads {
                let set = Arc::clone(&set);
                let runtime = Arc::clone(&runtime);
                let net = Arc::clone(&net_inserts);
                s.spawn(move || {
                    let mut h = runtime.register();
                    let mut rng = StdRng::seed_from_u64(1000 + t as u64);
                    for _ in 0..ops_per_thread {
                        let key = rng.gen_range(0..500u64);
                        match rng.gen_range(0..10) {
                            0..=4 => {
                                if set.insert(&mut h, key, key) {
                                    net.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            5..=8 => {
                                if set.remove(&mut h, key) {
                                    net.fetch_sub(1, Ordering::Relaxed);
                                }
                            }
                            _ => {
                                let _ = set.range_query(&mut h, 100, 400);
                            }
                        }
                    }
                });
            }
        });
        let mut h = runtime.register();
        let final_size = set.size_query(&mut h);
        assert_eq!(
            final_size as i64,
            net_inserts.load(std::sync::atomic::Ordering::Relaxed),
            "net successful inserts must equal final size"
        );
    }
}
