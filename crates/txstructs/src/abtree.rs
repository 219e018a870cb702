//! The (a,b)-tree used throughout the paper's main evaluation (a = 4,
//! b = 16): a leaf-oriented B-tree whose leaves hold up to `b` key/value
//! pairs and whose internal nodes hold up to `b` separator keys.
//!
//! Inserts use *preemptive splitting*: any full node encountered on the way
//! down is split before descending into it, so an insert never has to walk
//! back up the tree. Deletes are *relaxed*: the key is removed from its leaf
//! but underfull leaves are not eagerly merged (only an empty root collapses),
//! which keeps the transactional footprint of deletes small; with the
//! paper's balanced insert/delete workloads the tree stays densely populated.
//! This relaxation affects only the constant factors of tree height, not
//! correctness, and is documented in DESIGN.md.

use crate::node::{alloc_node, deref, free_node_eager, retire_node, TxNodeInit, NULL};
use crate::TxSet;
use std::array;
use tm_api::{TVar, Transaction, TxResult};

/// Maximum number of keys per node (the paper's `b`).
pub const MAX_KEYS: usize = 16;
/// Minimum fan-out targeted by splits (the paper's `a`).
pub const MIN_DEGREE: usize = 4;

/// A node of the (a,b)-tree.
pub struct AbNode {
    /// Whether this node is a leaf.
    pub is_leaf: TVar<bool>,
    /// Leaf: number of keys. Internal: number of separator keys
    /// (the node has `count + 1` children).
    pub count: TVar<u64>,
    /// Keys (leaf: element keys; internal: separators).
    pub keys: [TVar<u64>; MAX_KEYS],
    /// Leaf only: the values associated with `keys`.
    pub vals: [TVar<u64>; MAX_KEYS],
    /// Internal only: child pointers (`count + 1` of them).
    pub children: [TVar<u64>; MAX_KEYS + 1],
}

/// Initial values of a fresh [`AbNode`]: only its kind. A fresh node starts
/// with `count` 0; keys/values/children are populated by the allocating
/// transaction's subsequent TM writes (leaf fill, split move loops).
pub struct AbNodeInit {
    /// Whether the fresh node is a leaf.
    pub is_leaf: bool,
}

// Safety: no drop glue. The fields reachable before being TM-written are
// `is_leaf` (read first by every traversal), `count`, and — because an
// internal node with `count` separators has `count + 1` children —
// `children[0]` of an internal node even at count 0; all three are
// TM-written here. Every other key/value/child slot access of this node
// generation is bounded by a transactionally read `count`, and a slot is
// always TM-written before the `count` write that exposes it (leaf inserts
// write keys/vals[pos] before count; splits write the moved key/child slots
// before the right sibling's count; the parent's shift loop writes
// keys[i]/children[i + 1] before its count grows) — so slots at key indices
// `>= count` / child indices `> count` are unreachable until TM-written,
// satisfying the [`TxNodeInit`] contract without 50 writes per fresh node.
unsafe impl TxNodeInit for AbNode {
    type Init = AbNodeInit;

    fn vacant() -> Self {
        Self {
            is_leaf: TVar::new(false),
            count: TVar::new(0),
            keys: array::from_fn(|_| TVar::new(0)),
            vals: array::from_fn(|_| TVar::new(0)),
            children: array::from_fn(|_| TVar::new(NULL)),
        }
    }

    fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()> {
        tx.write_var(&self.is_leaf, init.is_leaf)?;
        tx.write_var(&self.count, 0)?;
        if !init.is_leaf {
            tx.write_var(&self.children[0], NULL)?;
        }
        Ok(())
    }
}

/// The transactional (a,b)-tree.
pub struct TxAbTree {
    root: TVar<u64>,
}

impl Default for TxAbTree {
    fn default() -> Self {
        Self::new()
    }
}

impl TxAbTree {
    /// Create an empty tree.
    pub fn new() -> Self {
        Self {
            root: TVar::new(NULL),
        }
    }

    /// Index of the child to descend into for `key` in internal node `node`.
    fn child_index<X: Transaction>(tx: &mut X, node: &AbNode, key: u64) -> TxResult<usize> {
        let count = tx.read_var(&node.count)? as usize;
        for i in 0..count {
            if key < tx.read_var(&node.keys[i])? {
                return Ok(i);
            }
        }
        Ok(count)
    }

    /// Whether the node is full (cannot accept another key / child).
    fn is_full<X: Transaction>(tx: &mut X, node: &AbNode) -> TxResult<bool> {
        Ok(tx.read_var(&node.count)? as usize >= MAX_KEYS)
    }

    /// Split the full child at `child_idx` of internal node `parent`
    /// (which must have room for one more separator).
    fn split_child<X: Transaction>(
        tx: &mut X,
        parent: &AbNode,
        child_idx: usize,
        child_word: u64,
    ) -> TxResult<()> {
        let child = unsafe { deref::<AbNode>(child_word) };
        let child_is_leaf = tx.read_var(&child.is_leaf)?;
        let child_count = tx.read_var(&child.count)? as usize;
        debug_assert_eq!(child_count, MAX_KEYS);
        let mid = child_count / 2;

        // Build the right sibling. `alloc_node` TM-writes is_leaf and
        // count=0 inside this transaction (node-layer invariant); the moved
        // slots below are TM-written before the count write that exposes
        // them.
        let right_word = alloc_node::<AbNode, _>(
            tx,
            AbNodeInit {
                is_leaf: child_is_leaf,
            },
        )?;
        let right = unsafe { deref::<AbNode>(right_word) };

        let separator;
        if child_is_leaf {
            // Right leaf takes keys[mid..]; the separator is its first key
            // (leaf-oriented: keys >= separator live to the right).
            separator = tx.read_var(&child.keys[mid])?;
            let moved = child_count - mid;
            for i in 0..moved {
                let k = tx.read_var(&child.keys[mid + i])?;
                let v = tx.read_var(&child.vals[mid + i])?;
                tx.write_var(&right.keys[i], k)?;
                tx.write_var(&right.vals[i], v)?;
            }
            tx.write_var(&right.count, moved as u64)?;
            tx.write_var(&child.count, mid as u64)?;
        } else {
            // Internal split: keys[mid] moves up; right takes keys[mid+1..]
            // and children[mid+1..].
            separator = tx.read_var(&child.keys[mid])?;
            let moved_keys = child_count - mid - 1;
            for i in 0..moved_keys {
                let k = tx.read_var(&child.keys[mid + 1 + i])?;
                tx.write_var(&right.keys[i], k)?;
            }
            for i in 0..=moved_keys {
                let c = tx.read_var(&child.children[mid + 1 + i])?;
                tx.write_var(&right.children[i], c)?;
            }
            tx.write_var(&right.count, moved_keys as u64)?;
            tx.write_var(&child.count, mid as u64)?;
        }

        // Insert the separator and the new child into the parent.
        let pcount = tx.read_var(&parent.count)? as usize;
        debug_assert!(pcount < MAX_KEYS);
        let mut i = pcount;
        while i > child_idx {
            let k = tx.read_var(&parent.keys[i - 1])?;
            tx.write_var(&parent.keys[i], k)?;
            let c = tx.read_var(&parent.children[i])?;
            tx.write_var(&parent.children[i + 1], c)?;
            i -= 1;
        }
        tx.write_var(&parent.keys[child_idx], separator)?;
        tx.write_var(&parent.children[child_idx + 1], right_word)?;
        tx.write_var(&parent.count, (pcount + 1) as u64)?;
        Ok(())
    }
}

impl TxSet for TxAbTree {
    fn name(&self) -> &'static str {
        "abtree"
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        let mut root_word = tx.read_var(&self.root)?;
        if root_word == NULL {
            let leaf_word = alloc_node::<AbNode, _>(tx, AbNodeInit { is_leaf: true })?;
            let leaf = unsafe { deref::<AbNode>(leaf_word) };
            tx.write_var(&leaf.keys[0], key)?;
            tx.write_var(&leaf.vals[0], val)?;
            tx.write_var(&leaf.count, 1)?;
            tx.write_var(&self.root, leaf_word)?;
            return Ok(true);
        }
        // Preemptive split of a full root.
        {
            let root = unsafe { deref::<AbNode>(root_word) };
            if Self::is_full(tx, root)? {
                let new_root_word = alloc_node::<AbNode, _>(tx, AbNodeInit { is_leaf: false })?;
                let new_root = unsafe { deref::<AbNode>(new_root_word) };
                tx.write_var(&new_root.children[0], root_word)?;
                Self::split_child(tx, new_root, 0, root_word)?;
                tx.write_var(&self.root, new_root_word)?;
                root_word = new_root_word;
            }
        }
        // Descend, splitting any full child before entering it.
        let mut cur_word = root_word;
        loop {
            let cur = unsafe { deref::<AbNode>(cur_word) };
            if tx.read_var(&cur.is_leaf)? {
                break;
            }
            let mut idx = Self::child_index(tx, cur, key)?;
            let mut child_word = tx.read_var(&cur.children[idx])?;
            let child = unsafe { deref::<AbNode>(child_word) };
            if Self::is_full(tx, child)? {
                Self::split_child(tx, cur, idx, child_word)?;
                idx = Self::child_index(tx, cur, key)?;
                child_word = tx.read_var(&cur.children[idx])?;
            }
            cur_word = child_word;
        }
        // Insert into the (non-full) leaf.
        let leaf = unsafe { deref::<AbNode>(cur_word) };
        let count = tx.read_var(&leaf.count)? as usize;
        let mut pos = count;
        for i in 0..count {
            let k = tx.read_var(&leaf.keys[i])?;
            if k == key {
                return Ok(false);
            }
            if k > key && pos == count {
                pos = i;
            }
        }
        let mut i = count;
        while i > pos {
            let k = tx.read_var(&leaf.keys[i - 1])?;
            let v = tx.read_var(&leaf.vals[i - 1])?;
            tx.write_var(&leaf.keys[i], k)?;
            tx.write_var(&leaf.vals[i], v)?;
            i -= 1;
        }
        tx.write_var(&leaf.keys[pos], key)?;
        tx.write_var(&leaf.vals[pos], val)?;
        tx.write_var(&leaf.count, (count + 1) as u64)?;
        Ok(true)
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let root_word = tx.read_var(&self.root)?;
        if root_word == NULL {
            return Ok(false);
        }
        // Descend to the leaf responsible for `key`.
        let mut cur_word = root_word;
        loop {
            let cur = unsafe { deref::<AbNode>(cur_word) };
            if tx.read_var(&cur.is_leaf)? {
                break;
            }
            let idx = Self::child_index(tx, cur, key)?;
            cur_word = tx.read_var(&cur.children[idx])?;
        }
        let leaf = unsafe { deref::<AbNode>(cur_word) };
        let count = tx.read_var(&leaf.count)? as usize;
        let mut pos = None;
        for i in 0..count {
            if tx.read_var(&leaf.keys[i])? == key {
                pos = Some(i);
                break;
            }
        }
        let Some(pos) = pos else {
            return Ok(false);
        };
        for i in pos..count - 1 {
            let k = tx.read_var(&leaf.keys[i + 1])?;
            let v = tx.read_var(&leaf.vals[i + 1])?;
            tx.write_var(&leaf.keys[i], k)?;
            tx.write_var(&leaf.vals[i], v)?;
        }
        tx.write_var(&leaf.count, (count - 1) as u64)?;
        // Relaxed rebalancing: only collapse an empty leaf root.
        if count == 1 && cur_word == root_word {
            tx.write_var(&self.root, NULL)?;
            retire_node::<AbNode, _>(tx, cur_word);
        }
        Ok(true)
    }

    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let mut cur_word = tx.read_var(&self.root)?;
        if cur_word == NULL {
            return Ok(false);
        }
        loop {
            let cur = unsafe { deref::<AbNode>(cur_word) };
            if tx.read_var(&cur.is_leaf)? {
                let count = tx.read_var(&cur.count)? as usize;
                for i in 0..count {
                    if tx.read_var(&cur.keys[i])? == key {
                        return Ok(true);
                    }
                }
                return Ok(false);
            }
            let idx = Self::child_index(tx, cur, key)?;
            cur_word = tx.read_var(&cur.children[idx])?;
        }
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let mut cur_word = tx.read_var(&self.root)?;
        if cur_word == NULL {
            return Ok(None);
        }
        loop {
            let cur = unsafe { deref::<AbNode>(cur_word) };
            if tx.read_var(&cur.is_leaf)? {
                let count = tx.read_var(&cur.count)? as usize;
                for i in 0..count {
                    if tx.read_var(&cur.keys[i])? == key {
                        return Ok(Some(tx.read_var(&cur.vals[i])?));
                    }
                }
                return Ok(None);
            }
            let idx = Self::child_index(tx, cur, key)?;
            cur_word = tx.read_var(&cur.children[idx])?;
        }
    }

    fn scan_tx<X: Transaction, F: FnMut(u64, u64)>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut F,
    ) -> TxResult<usize> {
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            return Ok(0);
        }
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AbNode>(word) };
            let n = tx.read_var(&node.count)? as usize;
            if tx.read_var(&node.is_leaf)? {
                for i in 0..n {
                    let k = tx.read_var(&node.keys[i])?;
                    if k >= lo && k <= hi {
                        visit(k, tx.read_var(&node.vals[i])?);
                        count += 1;
                    }
                }
                continue;
            }
            // Child i covers [keys[i-1], keys[i]) (with open ends).
            for i in 0..=n {
                let lower_ok = i == 0 || tx.read_var(&node.keys[i - 1])? <= hi;
                let upper_ok = i == n || tx.read_var(&node.keys[i])? > lo;
                if lower_ok && upper_ok {
                    let child = tx.read_var(&node.children[i])?;
                    if child != NULL {
                        stack.push(child);
                    }
                }
            }
        }
        Ok(count)
    }

    fn range_query_tx<X: Transaction>(&self, tx: &mut X, lo: u64, hi: u64) -> TxResult<usize> {
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            return Ok(0);
        }
        let mut count = 0usize;
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AbNode>(word) };
            let n = tx.read_var(&node.count)? as usize;
            if tx.read_var(&node.is_leaf)? {
                for i in 0..n {
                    let k = tx.read_var(&node.keys[i])?;
                    if k >= lo && k <= hi {
                        count += 1;
                    }
                }
                continue;
            }
            // Child i covers [keys[i-1], keys[i]) (with open ends).
            for i in 0..=n {
                let lower_ok = i == 0 || tx.read_var(&node.keys[i - 1])? <= hi;
                let upper_ok = i == n || tx.read_var(&node.keys[i])? > lo;
                if lower_ok && upper_ok {
                    let child = tx.read_var(&node.children[i])?;
                    if child != NULL {
                        stack.push(child);
                    }
                }
            }
        }
        Ok(count)
    }
}

impl Drop for TxAbTree {
    fn drop(&mut self) {
        let root = self.root.load_direct();
        if root == NULL {
            return;
        }
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AbNode>(word) };
            if !node.is_leaf.load_direct() {
                let count = node.count.load_direct() as usize;
                for i in 0..=count {
                    let c = node.children[i].load_direct();
                    if c != NULL {
                        stack.push(c);
                    }
                }
            }
            unsafe { free_node_eager::<AbNode>(word) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;
    use tm_api::TmRuntime;

    #[test]
    fn model_check_on_global_lock() {
        testutil::check_against_model::<TxAbTree, _, _>(TxAbTree::new, testutil::glock(), 4000);
    }

    #[test]
    fn model_check_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::check_against_model::<TxAbTree, _, _>(
            TxAbTree::new,
            std::sync::Arc::clone(&rt),
            4000,
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_smoke_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::concurrent_smoke::<TxAbTree, _, _>(TxAbTree::new, std::sync::Arc::clone(&rt));
        rt.shutdown();
    }

    #[test]
    fn splits_preserve_all_keys() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAbTree::new();
        let n = 5000u64;
        for k in 0..n {
            assert!(t.insert(&mut h, k, k * 2), "insert {k}");
        }
        assert_eq!(t.size_query(&mut h), n as usize);
        for k in 0..n {
            assert!(t.contains(&mut h, k), "missing key {k} after splits");
        }
        assert!(!t.contains(&mut h, n + 1));
    }

    #[test]
    fn reverse_and_random_insert_orders() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAbTree::new();
        for k in (0..1000u64).rev() {
            assert!(t.insert(&mut h, k, k));
        }
        for k in 0..1000u64 {
            assert!(t.contains(&mut h, k));
        }
        assert_eq!(t.range_query(&mut h, 100, 199), 100);
    }

    #[test]
    fn delete_then_range_query() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAbTree::new();
        for k in 0..500u64 {
            t.insert(&mut h, k, k);
        }
        for k in (0..500u64).step_by(2) {
            assert!(t.remove(&mut h, k));
        }
        assert_eq!(t.size_query(&mut h), 250);
        assert_eq!(t.range_query(&mut h, 0, 99), 50);
        assert!(!t.remove(&mut h, 0), "already removed");
    }

    #[test]
    fn empty_root_collapses_and_tree_is_reusable() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAbTree::new();
        assert!(t.insert(&mut h, 1, 1));
        assert!(t.remove(&mut h, 1));
        assert_eq!(t.size_query(&mut h), 0);
        assert!(t.insert(&mut h, 2, 2));
        assert!(t.contains(&mut h, 2));
    }
}
