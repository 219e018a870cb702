//! The keyed multi-map / KV layer: named spaces over the transactional
//! structures, with multi-op atomic batches and an optional presence audit.
//!
//! A [`Store`] owns a fixed set of *spaces*; each space is one structure
//! instance ([`SpaceKind`] selects which). Operations address `(space,
//! key)`. A request is a list of [`Op`]s executed as **one** transaction
//! through the structures' composable `*_tx` operations, so a multi-op
//! batch (including cross-space batches) is atomic on every backend.
//!
//! ## The presence audit
//!
//! When [`StoreSpec::audit_keys`] is non-zero, every space additionally
//! owns one plain `TVar<u64>` per key below that bound whose payload (low
//! 32 bits) is 1 iff the key is present, updated *in the same transaction*
//! as the structure operation with the read-modify-write value discipline
//! the history checker understands (upper 32 bits carry a per-address
//! sequence number, so every committed write has a distinct value). This
//! gives the harness two hooks:
//!
//! * the recorded history over the audit addresses can be checked for
//!   opacity/serializability by the PR 3 checker, and
//! * each committed operation's result is cross-checked against the audit
//!   payload observed in the same transaction (a serial oracle); any
//!   disagreement is recorded in [`Store::audit_failures`].

use std::sync::Mutex;
use tm_api::{TVar, TmHandle, Transaction, TxKind, TxResult};
use txstructs::{TxAbTree, TxAvlTree, TxExtBst, TxHashMap, TxList, TxSet};

/// Maximum operations per request (also enforced by the protocol decoder).
pub const MAX_OPS_PER_REQUEST: usize = 4096;
/// Hard cap on entries one scan returns (keeps response frames bounded).
pub const MAX_SCAN_ENTRIES: usize = 32_768;

/// Audit payload meaning "key present".
const PRESENT: u64 = 1;

/// Effective entry cap of a scan with the given `limit` (0 = unlimited up
/// to [`MAX_SCAN_ENTRIES`]).
#[inline]
pub fn scan_cap(limit: u32) -> usize {
    if limit == 0 {
        MAX_SCAN_ENTRIES
    } else {
        (limit as usize).min(MAX_SCAN_ENTRIES)
    }
}

/// Low 32 bits of an audit value: the presence payload.
#[inline]
pub fn payload(v: u64) -> u64 {
    v & 0xffff_ffff
}

/// Next audit value after `old` with presence `p`: bumps the per-address
/// sequence in the upper 32 bits so committed writes have distinct values.
#[inline]
pub fn bump(old: u64, p: u64) -> u64 {
    (((old >> 32) + 1) << 32) | payload(p)
}

/// Which structure backs a space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpaceKind {
    /// The (a,b)-tree of the paper's main evaluation.
    AbTree,
    /// Internal AVL tree.
    Avl,
    /// Leaf-oriented (external) BST.
    ExtBst,
    /// Fixed-bucket hashmap (scans are full scans).
    HashMap,
    /// Sorted singly linked list.
    List,
}

impl SpaceKind {
    /// Parse a space kind by CLI name.
    pub fn parse(s: &str) -> Option<SpaceKind> {
        Some(match s {
            "abtree" => SpaceKind::AbTree,
            "avl" => SpaceKind::Avl,
            "extbst" => SpaceKind::ExtBst,
            "hashmap" => SpaceKind::HashMap,
            "list" => SpaceKind::List,
            _ => return None,
        })
    }

    /// CLI name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            SpaceKind::AbTree => "abtree",
            SpaceKind::Avl => "avl",
            SpaceKind::ExtBst => "extbst",
            SpaceKind::HashMap => "hashmap",
            SpaceKind::List => "list",
        }
    }
}

/// One operation addressing `(space, key)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Point lookup; answers [`OpResult::Value`].
    Get {
        /// Space index.
        space: u8,
        /// Key.
        key: u64,
    },
    /// Insert `key -> val` (keeps the old value if present); answers
    /// [`OpResult::Did`] = was-new.
    Put {
        /// Space index.
        space: u8,
        /// Key.
        key: u64,
        /// Value.
        val: u64,
    },
    /// Remove `key`; answers [`OpResult::Did`] = was-present.
    Del {
        /// Space index.
        space: u8,
        /// Key.
        key: u64,
    },
    /// Range scan of `[lo, hi]`, at most `limit` entries (0 = unlimited up
    /// to [`MAX_SCAN_ENTRIES`]); answers [`OpResult::Entries`] sorted by key.
    Scan {
        /// Space index.
        space: u8,
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
        /// Entry cap (0 = unlimited up to [`MAX_SCAN_ENTRIES`]).
        limit: u32,
    },
}

impl Op {
    /// Whether the op may write.
    pub fn is_update(&self) -> bool {
        matches!(self, Op::Put { .. } | Op::Del { .. })
    }

    /// The space the op addresses.
    pub fn space(&self) -> u8 {
        match *self {
            Op::Get { space, .. }
            | Op::Put { space, .. }
            | Op::Del { space, .. }
            | Op::Scan { space, .. } => space,
        }
    }
}

/// Result of one [`Op`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResult {
    /// Get: the value, if the key was present.
    Value(Option<u64>),
    /// Put: was-new. Del: was-present.
    Did(bool),
    /// Scan: `(key, value)` entries sorted by key.
    Entries(Vec<(u64, u64)>),
}

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreSpec {
    /// The spaces, in index order.
    pub spaces: Vec<SpaceKind>,
    /// Presence-audit bound: keys `< audit_keys` get an audit `TVar` per
    /// space (0 disables the audit).
    pub audit_keys: u64,
    /// Bucket count for [`SpaceKind::HashMap`] spaces.
    pub hash_buckets: usize,
}

impl Default for StoreSpec {
    fn default() -> Self {
        Self {
            spaces: vec![SpaceKind::AbTree],
            audit_keys: 0,
            hash_buckets: 1024,
        }
    }
}

enum SpaceImpl {
    AbTree(TxAbTree),
    Avl(TxAvlTree),
    ExtBst(TxExtBst),
    HashMap(TxHashMap),
    List(TxList),
}

impl SpaceImpl {
    fn new(kind: SpaceKind, hash_buckets: usize) -> SpaceImpl {
        match kind {
            SpaceKind::AbTree => SpaceImpl::AbTree(TxAbTree::new()),
            SpaceKind::Avl => SpaceImpl::Avl(TxAvlTree::new()),
            SpaceKind::ExtBst => SpaceImpl::ExtBst(TxExtBst::new()),
            SpaceKind::HashMap => SpaceImpl::HashMap(TxHashMap::new(hash_buckets)),
            SpaceKind::List => SpaceImpl::List(TxList::new()),
        }
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        match self {
            SpaceImpl::AbTree(s) => s.get_tx(tx, key),
            SpaceImpl::Avl(s) => s.get_tx(tx, key),
            SpaceImpl::ExtBst(s) => s.get_tx(tx, key),
            SpaceImpl::HashMap(s) => s.get_tx(tx, key),
            SpaceImpl::List(s) => s.get_tx(tx, key),
        }
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        match self {
            SpaceImpl::AbTree(s) => s.insert_tx(tx, key, val),
            SpaceImpl::Avl(s) => s.insert_tx(tx, key, val),
            SpaceImpl::ExtBst(s) => s.insert_tx(tx, key, val),
            SpaceImpl::HashMap(s) => s.insert_tx(tx, key, val),
            SpaceImpl::List(s) => s.insert_tx(tx, key, val),
        }
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        match self {
            SpaceImpl::AbTree(s) => s.remove_tx(tx, key),
            SpaceImpl::Avl(s) => s.remove_tx(tx, key),
            SpaceImpl::ExtBst(s) => s.remove_tx(tx, key),
            SpaceImpl::HashMap(s) => s.remove_tx(tx, key),
            SpaceImpl::List(s) => s.remove_tx(tx, key),
        }
    }

    fn scan_tx<X: Transaction>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut dyn FnMut(u64, u64),
    ) -> TxResult<usize> {
        match self {
            SpaceImpl::AbTree(s) => s.scan_tx(tx, lo, hi, &mut |k, v| visit(k, v)),
            SpaceImpl::Avl(s) => s.scan_tx(tx, lo, hi, &mut |k, v| visit(k, v)),
            SpaceImpl::ExtBst(s) => s.scan_tx(tx, lo, hi, &mut |k, v| visit(k, v)),
            SpaceImpl::HashMap(s) => s.scan_tx(tx, lo, hi, &mut |k, v| visit(k, v)),
            SpaceImpl::List(s) => s.scan_tx(tx, lo, hi, &mut |k, v| visit(k, v)),
        }
    }
}

struct Space {
    kind: SpaceKind,
    imp: SpaceImpl,
    /// One presence-audit var per key `< audit_keys` (empty = no audit).
    audit: Vec<TVar<u64>>,
}

impl Space {
    #[inline]
    fn audit_var(&self, key: u64) -> Option<&TVar<u64>> {
        self.audit.get(usize::try_from(key).ok()?)
    }
}

/// What the audit expects a committed op's result to be, captured from the
/// audit vars read in the same transaction.
enum AuditCheck {
    /// Get: whether the key should be present.
    Present(bool),
    /// Put: whether the key should have been new.
    WasNew(bool),
    /// Del: whether the key should have been present.
    WasPresent(bool),
    /// Scan (window inside the audit range): the expected key sequence.
    Keys(Vec<u64>),
}

impl AuditCheck {
    fn mismatch(&self, got: &OpResult) -> Option<String> {
        match (self, got) {
            (AuditCheck::Present(p), OpResult::Value(v)) if v.is_some() == *p => None,
            (AuditCheck::WasNew(n), OpResult::Did(d)) if d == n => None,
            (AuditCheck::WasPresent(p), OpResult::Did(d)) if d == p => None,
            (AuditCheck::Keys(ks), OpResult::Entries(es))
                if es.iter().map(|(k, _)| *k).eq(ks.iter().copied()) =>
            {
                None
            }
            (AuditCheck::Present(p), r) => Some(format!("expected present={p}, got {r:?}")),
            (AuditCheck::WasNew(n), r) => Some(format!("expected was-new={n}, got {r:?}")),
            (AuditCheck::WasPresent(p), r) => Some(format!("expected was-present={p}, got {r:?}")),
            (AuditCheck::Keys(ks), r) => Some(format!("expected keys {ks:?}, got {r:?}")),
        }
    }
}

/// The keyed multi-map / KV store: named spaces over the transactional
/// structures. See the module docs.
pub struct Store {
    spaces: Vec<Space>,
    audit_keys: u64,
    audit_failures: Mutex<Vec<String>>,
}

impl Store {
    /// Build a store per `spec`. Panics if `spec.spaces` is empty or holds
    /// more than 256 spaces (the protocol addresses spaces with a `u8`).
    pub fn new(spec: &StoreSpec) -> Store {
        assert!(
            !spec.spaces.is_empty() && spec.spaces.len() <= 256,
            "a store needs 1..=256 spaces"
        );
        let spaces = spec
            .spaces
            .iter()
            .map(|&kind| Space {
                kind,
                imp: SpaceImpl::new(kind, spec.hash_buckets),
                audit: (0..spec.audit_keys).map(|_| TVar::new(0)).collect(),
            })
            .collect();
        Store {
            spaces,
            audit_keys: spec.audit_keys,
            audit_failures: Mutex::new(Vec::new()),
        }
    }

    /// Number of spaces.
    pub fn space_count(&self) -> usize {
        self.spaces.len()
    }

    /// The kind of space `i`.
    pub fn space_kind(&self, i: usize) -> SpaceKind {
        self.spaces[i].kind
    }

    /// The presence-audit key bound (0 = audit disabled).
    pub fn audit_keys(&self) -> u64 {
        self.audit_keys
    }

    /// Check a request's ops against this store before executing them.
    pub fn validate(&self, ops: &[Op]) -> Result<(), String> {
        if ops.is_empty() {
            return Err("empty request".to_string());
        }
        if ops.len() > MAX_OPS_PER_REQUEST {
            return Err(format!(
                "request has {} ops (max {MAX_OPS_PER_REQUEST})",
                ops.len()
            ));
        }
        for op in ops {
            if op.space() as usize >= self.spaces.len() {
                return Err(format!(
                    "space {} out of range (store has {})",
                    op.space(),
                    self.spaces.len()
                ));
            }
            if let Op::Scan { lo, hi, .. } = *op {
                if lo > hi {
                    return Err(format!("scan bounds inverted ({lo} > {hi})"));
                }
            }
        }
        // The Ok response must fit one frame; scans dominate the bound via
        // their entry caps, so a batch of maximal scans is rejected here
        // rather than panicking the encoder after the commit.
        let worst = crate::proto::worst_response_bytes(ops);
        if worst > crate::proto::MAX_FRAME_PAYLOAD {
            return Err(format!(
                "worst-case response ({worst} bytes) exceeds the frame cap \
                 ({} bytes); lower scan limits or split the request",
                crate::proto::MAX_FRAME_PAYLOAD
            ));
        }
        Ok(())
    }

    /// Execute one request's ops as a single transaction. The ops must have
    /// passed [`Store::validate`].
    pub fn execute<H: TmHandle>(&self, h: &mut H, ops: &[Op]) -> Vec<OpResult> {
        let id_ops = [(0u64, ops)];
        self.execute_batch_ref(h, &id_ops).pop().unwrap()
    }

    /// Execute a *batch* of requests as **one** transaction (one commit):
    /// the server's pipelining path coalesces small requests this way.
    /// Returns per-request results in order. All ops must have passed
    /// [`Store::validate`].
    pub fn execute_batch<H: TmHandle>(
        &self,
        h: &mut H,
        reqs: &[(u64, Vec<Op>)],
    ) -> Vec<Vec<OpResult>> {
        let refs: Vec<(u64, &[Op])> = reqs.iter().map(|(id, ops)| (*id, ops.as_slice())).collect();
        self.execute_batch_ref(h, &refs)
    }

    fn execute_batch_ref<H: TmHandle>(
        &self,
        h: &mut H,
        reqs: &[(u64, &[Op])],
    ) -> Vec<Vec<OpResult>> {
        let kind = if reqs.iter().any(|(_, ops)| ops.iter().any(Op::is_update)) {
            TxKind::ReadWrite
        } else {
            TxKind::ReadOnly
        };
        let mut results: Vec<Vec<OpResult>> = Vec::new();
        let mut audits: Vec<(usize, usize, AuditCheck)> = Vec::new();
        h.txn(kind, |tx| {
            // The closure reruns on abort: rebuild from scratch each attempt.
            results.clear();
            audits.clear();
            for (ri, (_, ops)) in reqs.iter().enumerate() {
                let mut out = Vec::with_capacity(ops.len());
                for (oi, op) in ops.iter().enumerate() {
                    out.push(self.run_op(tx, op, ri, oi, &mut audits)?);
                }
                results.push(out);
            }
            Ok(())
        });
        // The transaction committed: its results must agree with the audit
        // payloads observed atomically alongside the structure ops.
        for (ri, oi, check) in audits.drain(..) {
            if let Some(msg) = check.mismatch(&results[ri][oi]) {
                let (id, ops) = &reqs[ri];
                self.audit_failures
                    .lock()
                    .unwrap()
                    .push(format!("request {id} op {oi} ({:?}): {msg}", ops[oi]));
            }
        }
        results
    }

    fn run_op<X: Transaction>(
        &self,
        tx: &mut X,
        op: &Op,
        ri: usize,
        oi: usize,
        audits: &mut Vec<(usize, usize, AuditCheck)>,
    ) -> TxResult<OpResult> {
        match *op {
            Op::Get { space, key } => {
                let sp = &self.spaces[space as usize];
                let got = sp.imp.get_tx(tx, key)?;
                if let Some(var) = sp.audit_var(key) {
                    let expect = payload(tx.read_var(var)?) == PRESENT;
                    audits.push((ri, oi, AuditCheck::Present(expect)));
                }
                Ok(OpResult::Value(got))
            }
            Op::Put { space, key, val } => {
                let sp = &self.spaces[space as usize];
                let inserted = sp.imp.insert_tx(tx, key, val)?;
                if let Some(var) = sp.audit_var(key) {
                    let old = tx.read_var(var)?;
                    tx.write_var(var, bump(old, PRESENT))?;
                    audits.push((ri, oi, AuditCheck::WasNew(payload(old) != PRESENT)));
                }
                Ok(OpResult::Did(inserted))
            }
            Op::Del { space, key } => {
                let sp = &self.spaces[space as usize];
                let removed = sp.imp.remove_tx(tx, key)?;
                if let Some(var) = sp.audit_var(key) {
                    let old = tx.read_var(var)?;
                    tx.write_var(var, bump(old, 0))?;
                    audits.push((ri, oi, AuditCheck::WasPresent(payload(old) == PRESENT)));
                }
                Ok(OpResult::Did(removed))
            }
            Op::Scan {
                space,
                lo,
                hi,
                limit,
            } => {
                let sp = &self.spaces[space as usize];
                let mut entries: Vec<(u64, u64)> = Vec::new();
                sp.imp
                    .scan_tx(tx, lo, hi, &mut |k, v| entries.push((k, v)))?;
                entries.sort_unstable();
                let cap = scan_cap(limit);
                entries.truncate(cap);
                // Audit only windows that lie fully inside the audit range,
                // where the expected key set is exactly the present ones.
                if !sp.audit.is_empty() && hi < sp.audit.len() as u64 {
                    let mut expected = Vec::new();
                    for k in lo..=hi {
                        if payload(tx.read_var(&sp.audit[k as usize])?) == PRESENT {
                            expected.push(k);
                        }
                    }
                    expected.truncate(cap);
                    audits.push((ri, oi, AuditCheck::Keys(expected)));
                }
                Ok(OpResult::Entries(entries))
            }
        }
    }

    /// Audit-variable addresses, space-major (`space * audit_keys + key`),
    /// for building checker histories. Empty when the audit is disabled.
    pub fn audit_addrs(&self) -> Vec<usize> {
        self.spaces
            .iter()
            .flat_map(|sp| sp.audit.iter().map(|v| v.word().addr()))
            .collect()
    }

    /// Current audit values, same order as [`Store::audit_addrs`]. Only
    /// meaningful when no transactions are in flight.
    pub fn audit_values_direct(&self) -> Vec<u64> {
        self.spaces
            .iter()
            .flat_map(|sp| sp.audit.iter().map(|v| v.load_direct()))
            .collect()
    }

    /// Drain the audit mismatches recorded so far.
    pub fn audit_failures(&self) -> Vec<String> {
        std::mem::take(&mut self.audit_failures.lock().unwrap())
    }

    /// Quiescent sweep: for every audited key, check the structure's
    /// membership against the audit payload in one transaction per key.
    /// Returns the disagreements.
    pub fn final_audit<H: TmHandle>(&self, h: &mut H) -> Vec<String> {
        let mut fails = Vec::new();
        for (si, sp) in self.spaces.iter().enumerate() {
            for (key, var) in sp.audit.iter().enumerate() {
                let (present, expect) = h.txn(TxKind::ReadOnly, |tx| {
                    let got = sp.imp.get_tx(tx, key as u64)?;
                    let e = payload(tx.read_var(var)?) == PRESENT;
                    Ok((got.is_some(), e))
                });
                if present != expect {
                    fails.push(format!(
                        "space {si} key {key}: structure present={present}, audit={expect}"
                    ));
                }
            }
        }
        fails
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::GlockRuntime;
    use std::sync::Arc;
    use tm_api::TmRuntime;

    fn store(audit: u64) -> (Store, impl TmHandle) {
        let rt = Arc::new(GlockRuntime::new());
        let h = rt.register();
        let spec = StoreSpec {
            spaces: vec![SpaceKind::AbTree, SpaceKind::HashMap],
            audit_keys: audit,
            hash_buckets: 16,
        };
        (Store::new(&spec), h)
    }

    #[test]
    fn batch_is_atomic_and_results_line_up() {
        let (st, mut h) = store(0);
        let r = st.execute(
            &mut h,
            &[
                Op::Put {
                    space: 0,
                    key: 5,
                    val: 50,
                },
                Op::Put {
                    space: 1,
                    key: 5,
                    val: 55,
                },
                Op::Get { space: 0, key: 5 },
                Op::Del { space: 0, key: 5 },
                Op::Get { space: 0, key: 5 },
                Op::Get { space: 1, key: 5 },
            ],
        );
        assert_eq!(
            r,
            vec![
                OpResult::Did(true),
                OpResult::Did(true),
                OpResult::Value(Some(50)),
                OpResult::Did(true),
                OpResult::Value(None),
                OpResult::Value(Some(55)),
            ]
        );
    }

    #[test]
    fn scan_is_sorted_and_limited() {
        let (st, mut h) = store(0);
        for k in [9u64, 3, 7, 1, 5] {
            st.execute(
                &mut h,
                &[Op::Put {
                    space: 0,
                    key: k,
                    val: k * 10,
                }],
            );
        }
        let r = st.execute(
            &mut h,
            &[Op::Scan {
                space: 0,
                lo: 2,
                hi: 8,
                limit: 2,
            }],
        );
        assert_eq!(r, vec![OpResult::Entries(vec![(3, 30), (5, 50)])]);
    }

    #[test]
    fn validate_rejects_bad_requests() {
        let (st, _h) = store(0);
        assert!(st.validate(&[]).is_err());
        assert!(st.validate(&[Op::Get { space: 9, key: 0 }]).is_err());
        assert!(st
            .validate(&[Op::Scan {
                space: 0,
                lo: 5,
                hi: 1,
                limit: 0
            }])
            .is_err());
        assert!(st.validate(&[Op::Get { space: 1, key: 0 }]).is_ok());
        // Response-size bound: one maximal scan fits a frame, two do not.
        let full = Op::Scan {
            space: 0,
            lo: 0,
            hi: u64::MAX,
            limit: 0,
        };
        assert!(st.validate(std::slice::from_ref(&full)).is_ok());
        assert!(st.validate(&[full.clone(), full]).is_err());
    }

    #[test]
    fn audit_tracks_presence_and_sweep_is_clean() {
        let (st, mut h) = store(8);
        st.execute(
            &mut h,
            &[
                Op::Put {
                    space: 0,
                    key: 3,
                    val: 30,
                },
                Op::Put {
                    space: 0,
                    key: 3,
                    val: 31,
                },
                Op::Del { space: 0, key: 3 },
                Op::Put {
                    space: 1,
                    key: 4,
                    val: 40,
                },
                Op::Scan {
                    space: 1,
                    lo: 0,
                    hi: 7,
                    limit: 0,
                },
            ],
        );
        assert!(st.audit_failures().is_empty());
        assert!(st.final_audit(&mut h).is_empty());
        // Audit values reflect presence: space 1 key 4 present.
        let vals = st.audit_values_direct();
        assert_eq!(payload(vals[8 + 4]), 1);
        assert_eq!(payload(vals[3]), 0);
    }

    #[test]
    fn execute_batch_coalesces_requests_into_one_commit() {
        let (st, mut h) = store(4);
        let reqs = vec![
            (
                1u64,
                vec![Op::Put {
                    space: 0,
                    key: 1,
                    val: 10,
                }],
            ),
            (2u64, vec![Op::Get { space: 0, key: 1 }]),
            (3u64, vec![Op::Del { space: 0, key: 1 }]),
        ];
        let out = st.execute_batch(&mut h, &reqs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], vec![OpResult::Did(true)]);
        assert_eq!(out[1], vec![OpResult::Value(Some(10))]);
        assert_eq!(out[2], vec![OpResult::Did(true)]);
        assert!(st.audit_failures().is_empty());
    }
}
