//! An internal AVL tree (Appendix A of the paper).
//!
//! Keys live in every node; inserts and removes rebalance with single and
//! double rotations driven by per-node heights. All pointer and height
//! updates are transactional, so the rebalancing writes are exactly the
//! conflict footprint an STM-backed AVL tree has in the paper's evaluation.

use crate::node::{alloc_node, deref, free_node_eager, retire_node, TxNodeInit, NULL};
use crate::TxSet;
use tm_api::{TVar, TmHandle, Transaction, TxKind, TxResult};

/// A node of the internal AVL tree.
pub struct AvlNode {
    /// The key (mutated only when a removed node is replaced by its
    /// in-order successor).
    pub key: TVar<u64>,
    /// The value.
    pub val: TVar<u64>,
    /// Left child pointer or [`NULL`].
    pub left: TVar<u64>,
    /// Right child pointer or [`NULL`].
    pub right: TVar<u64>,
    /// Height of the subtree rooted here (leaf = 1).
    pub height: TVar<u64>,
}

/// Initial values of a fresh [`AvlNode`]. Fresh AVL nodes are always leaves
/// (children [`NULL`], height 1), so only key/value vary.
pub struct AvlNodeInit {
    /// The key.
    pub key: u64,
    /// The value.
    pub val: u64,
}

// Safety: no drop glue; contains/range/rebalance transactionally read all
// five fields, and all five are TM-written here (children to NULL, height
// to 1 — a fresh node is a leaf).
unsafe impl TxNodeInit for AvlNode {
    type Init = AvlNodeInit;

    fn vacant() -> Self {
        Self {
            key: TVar::new(0),
            val: TVar::new(0),
            left: TVar::new(NULL),
            right: TVar::new(NULL),
            height: TVar::new(0),
        }
    }

    fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()> {
        tx.write_var(&self.key, init.key)?;
        tx.write_var(&self.val, init.val)?;
        tx.write_var(&self.left, NULL)?;
        tx.write_var(&self.right, NULL)?;
        tx.write_var(&self.height, 1)
    }
}

/// A transactional internal AVL tree.
pub struct TxAvlTree {
    root: TVar<u64>,
}

impl Default for TxAvlTree {
    fn default() -> Self {
        Self::new()
    }
}

fn height_of<X: Transaction>(tx: &mut X, word: u64) -> TxResult<u64> {
    if word == NULL {
        return Ok(0);
    }
    let node = unsafe { deref::<AvlNode>(word) };
    tx.read_var(&node.height)
}

fn update_height<X: Transaction>(tx: &mut X, word: u64) -> TxResult<()> {
    let node = unsafe { deref::<AvlNode>(word) };
    let left = tx.read_var(&node.left)?;
    let right = tx.read_var(&node.right)?;
    let l = height_of(tx, left)?;
    let r = height_of(tx, right)?;
    let new_h = l.max(r) + 1;
    if tx.read_var(&node.height)? != new_h {
        tx.write_var(&node.height, new_h)?;
    }
    Ok(())
}

/// Balance factor as left height minus right height.
fn balance_of<X: Transaction>(tx: &mut X, word: u64) -> TxResult<i64> {
    let node = unsafe { deref::<AvlNode>(word) };
    let left = tx.read_var(&node.left)?;
    let right = tx.read_var(&node.right)?;
    let l = height_of(tx, left)? as i64;
    let r = height_of(tx, right)? as i64;
    Ok(l - r)
}

/// Rotate the subtree rooted at `word` right; returns the new subtree root.
fn rotate_right<X: Transaction>(tx: &mut X, word: u64) -> TxResult<u64> {
    let node = unsafe { deref::<AvlNode>(word) };
    let l = tx.read_var(&node.left)?;
    let l_node = unsafe { deref::<AvlNode>(l) };
    let lr = tx.read_var(&l_node.right)?;
    tx.write_var(&node.left, lr)?;
    tx.write_var(&l_node.right, word)?;
    update_height(tx, word)?;
    update_height(tx, l)?;
    Ok(l)
}

/// Rotate the subtree rooted at `word` left; returns the new subtree root.
fn rotate_left<X: Transaction>(tx: &mut X, word: u64) -> TxResult<u64> {
    let node = unsafe { deref::<AvlNode>(word) };
    let r = tx.read_var(&node.right)?;
    let r_node = unsafe { deref::<AvlNode>(r) };
    let rl = tx.read_var(&r_node.left)?;
    tx.write_var(&node.right, rl)?;
    tx.write_var(&r_node.left, word)?;
    update_height(tx, word)?;
    update_height(tx, r)?;
    Ok(r)
}

/// Rebalance the subtree rooted at `word`; returns the new subtree root.
fn rebalance<X: Transaction>(tx: &mut X, word: u64) -> TxResult<u64> {
    update_height(tx, word)?;
    let balance = balance_of(tx, word)?;
    let node = unsafe { deref::<AvlNode>(word) };
    if balance > 1 {
        let l = tx.read_var(&node.left)?;
        if balance_of(tx, l)? < 0 {
            let new_l = rotate_left(tx, l)?;
            tx.write_var(&node.left, new_l)?;
        }
        return rotate_right(tx, word);
    }
    if balance < -1 {
        let r = tx.read_var(&node.right)?;
        if balance_of(tx, r)? > 0 {
            let new_r = rotate_right(tx, r)?;
            tx.write_var(&node.right, new_r)?;
        }
        return rotate_left(tx, word);
    }
    Ok(word)
}

fn insert_rec<X: Transaction>(tx: &mut X, word: u64, key: u64, val: u64) -> TxResult<(u64, bool)> {
    if word == NULL {
        // `alloc_node` TM-writes every field inside this transaction; the
        // pre-port raw-store init here was the ghost-key / dangling-pointer
        // bug `struct-churn` flags (see the node module docs).
        return Ok((
            alloc_node::<AvlNode, _>(tx, AvlNodeInit { key, val })?,
            true,
        ));
    }
    let node = unsafe { deref::<AvlNode>(word) };
    let k = tx.read_var(&node.key)?;
    if key == k {
        return Ok((word, false));
    }
    let inserted = if key < k {
        let l = tx.read_var(&node.left)?;
        let (new_l, ins) = insert_rec(tx, l, key, val)?;
        if new_l != l {
            tx.write_var(&node.left, new_l)?;
        }
        ins
    } else {
        let r = tx.read_var(&node.right)?;
        let (new_r, ins) = insert_rec(tx, r, key, val)?;
        if new_r != r {
            tx.write_var(&node.right, new_r)?;
        }
        ins
    };
    if !inserted {
        return Ok((word, false));
    }
    Ok((rebalance(tx, word)?, true))
}

/// Remove the minimum node of the subtree rooted at `word`.
/// Returns `(new_subtree_root, min_key, min_val, min_node_word)`.
fn remove_min_rec<X: Transaction>(tx: &mut X, word: u64) -> TxResult<(u64, u64, u64, u64)> {
    let node = unsafe { deref::<AvlNode>(word) };
    let l = tx.read_var(&node.left)?;
    if l == NULL {
        let key = tx.read_var(&node.key)?;
        let val = tx.read_var(&node.val)?;
        let right = tx.read_var(&node.right)?;
        return Ok((right, key, val, word));
    }
    let (new_l, k, v, removed) = remove_min_rec(tx, l)?;
    if new_l != l {
        tx.write_var(&node.left, new_l)?;
    }
    Ok((rebalance(tx, word)?, k, v, removed))
}

fn remove_rec<X: Transaction>(tx: &mut X, word: u64, key: u64) -> TxResult<(u64, bool)> {
    if word == NULL {
        return Ok((NULL, false));
    }
    let node = unsafe { deref::<AvlNode>(word) };
    let k = tx.read_var(&node.key)?;
    if key < k {
        let l = tx.read_var(&node.left)?;
        let (new_l, removed) = remove_rec(tx, l, key)?;
        if !removed {
            return Ok((word, false));
        }
        if new_l != l {
            tx.write_var(&node.left, new_l)?;
        }
        return Ok((rebalance(tx, word)?, true));
    }
    if key > k {
        let r = tx.read_var(&node.right)?;
        let (new_r, removed) = remove_rec(tx, r, key)?;
        if !removed {
            return Ok((word, false));
        }
        if new_r != r {
            tx.write_var(&node.right, new_r)?;
        }
        return Ok((rebalance(tx, word)?, true));
    }
    // Found the node to remove.
    let l = tx.read_var(&node.left)?;
    let r = tx.read_var(&node.right)?;
    if l == NULL || r == NULL {
        retire_node::<AvlNode, _>(tx, word);
        let replacement = if l == NULL { r } else { l };
        return Ok((replacement, true));
    }
    // Two children: replace this node's key/value with its in-order
    // successor's, then remove the successor node from the right subtree.
    let (new_r, succ_key, succ_val, succ_node) = remove_min_rec(tx, r)?;
    tx.write_var(&node.key, succ_key)?;
    tx.write_var(&node.val, succ_val)?;
    if new_r != r {
        tx.write_var(&node.right, new_r)?;
    }
    retire_node::<AvlNode, _>(tx, succ_node);
    Ok((rebalance(tx, word)?, true))
}

impl TxAvlTree {
    /// Create an empty AVL tree.
    pub fn new() -> Self {
        Self {
            root: TVar::new(NULL),
        }
    }

    /// Height of the whole tree (test/diagnostic helper).
    pub fn height<H: TmHandle>(&self, h: &mut H) -> u64 {
        h.txn(TxKind::ReadOnly, |tx| {
            let root = tx.read_var(&self.root)?;
            height_of(tx, root)
        })
    }
}

impl TxSet for TxAvlTree {
    fn name(&self) -> &'static str {
        "avl-tree"
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        let root = tx.read_var(&self.root)?;
        let (new_root, inserted) = insert_rec(tx, root, key, val)?;
        if inserted && new_root != root {
            tx.write_var(&self.root, new_root)?;
        }
        Ok(inserted)
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let root = tx.read_var(&self.root)?;
        let (new_root, removed) = remove_rec(tx, root, key)?;
        if removed && new_root != root {
            tx.write_var(&self.root, new_root)?;
        }
        Ok(removed)
    }

    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let mut cur = tx.read_var(&self.root)?;
        while cur != NULL {
            let node = unsafe { deref::<AvlNode>(cur) };
            let k = tx.read_var(&node.key)?;
            if k == key {
                return Ok(true);
            }
            cur = if key < k {
                tx.read_var(&node.left)?
            } else {
                tx.read_var(&node.right)?
            };
        }
        Ok(false)
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read_var(&self.root)?;
        while cur != NULL {
            let node = unsafe { deref::<AvlNode>(cur) };
            let k = tx.read_var(&node.key)?;
            if k == key {
                return Ok(Some(tx.read_var(&node.val)?));
            }
            cur = if key < k {
                tx.read_var(&node.left)?
            } else {
                tx.read_var(&node.right)?
            };
        }
        Ok(None)
    }

    fn scan_tx<X: Transaction, F: FnMut(u64, u64)>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut F,
    ) -> TxResult<usize> {
        let mut count = 0usize;
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            return Ok(0);
        }
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AvlNode>(word) };
            let k = tx.read_var(&node.key)?;
            if k >= lo && k <= hi {
                visit(k, tx.read_var(&node.val)?);
                count += 1;
            }
            let l = tx.read_var(&node.left)?;
            let r = tx.read_var(&node.right)?;
            if l != NULL && lo < k {
                stack.push(l);
            }
            if r != NULL && hi > k {
                stack.push(r);
            }
        }
        Ok(count)
    }

    fn range_query_tx<X: Transaction>(&self, tx: &mut X, lo: u64, hi: u64) -> TxResult<usize> {
        let mut count = 0usize;
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            return Ok(0);
        }
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AvlNode>(word) };
            let k = tx.read_var(&node.key)?;
            if k >= lo && k <= hi {
                count += 1;
            }
            let l = tx.read_var(&node.left)?;
            let r = tx.read_var(&node.right)?;
            if l != NULL && lo < k {
                stack.push(l);
            }
            if r != NULL && hi > k {
                stack.push(r);
            }
        }
        Ok(count)
    }

    fn size_query<H: TmHandle>(&self, h: &mut H) -> usize {
        h.txn(TxKind::ReadOnly, |tx| {
            let mut count = 0usize;
            let root = tx.read_var(&self.root)?;
            if root == NULL {
                return Ok(0);
            }
            let mut stack = vec![root];
            while let Some(word) = stack.pop() {
                count += 1;
                let node = unsafe { deref::<AvlNode>(word) };
                let l = tx.read_var(&node.left)?;
                let r = tx.read_var(&node.right)?;
                if l != NULL {
                    stack.push(l);
                }
                if r != NULL {
                    stack.push(r);
                }
            }
            Ok(count)
        })
    }
}

impl Drop for TxAvlTree {
    fn drop(&mut self) {
        let root = self.root.load_direct();
        if root == NULL {
            return;
        }
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<AvlNode>(word) };
            let l = node.left.load_direct();
            let r = node.right.load_direct();
            if l != NULL {
                stack.push(l);
            }
            if r != NULL {
                stack.push(r);
            }
            unsafe { free_node_eager::<AvlNode>(word) };
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
        testutil::check_against_model::<TxAvlTree, _, _>(TxAvlTree::new, testutil::glock(), 4000);
    }

    #[test]
    fn model_check_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::check_against_model::<TxAvlTree, _, _>(
            TxAvlTree::new,
            std::sync::Arc::clone(&rt),
            4000,
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_smoke_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::concurrent_smoke::<TxAvlTree, _, _>(TxAvlTree::new, std::sync::Arc::clone(&rt));
        rt.shutdown();
    }

    #[test]
    fn stays_balanced_under_sequential_inserts() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAvlTree::new();
        let n = 1024u64;
        for k in 0..n {
            assert!(t.insert(&mut h, k, k));
        }
        let height = t.height(&mut h);
        // An AVL tree with 1024 keys has height at most 1.44*log2(n)+2 ~ 16.
        assert!(height <= 16, "AVL height {height} too large for {n} keys");
        assert_eq!(t.size_query(&mut h), n as usize);
        for k in 0..n {
            assert!(t.contains(&mut h, k));
        }
    }

    #[test]
    fn removal_with_two_children_uses_successor() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAvlTree::new();
        for k in [50u64, 30, 70, 20, 40, 60, 80] {
            assert!(t.insert(&mut h, k, k * 10));
        }
        assert!(t.remove(&mut h, 50));
        assert!(!t.contains(&mut h, 50));
        for k in [30u64, 70, 20, 40, 60, 80] {
            assert!(
                t.contains(&mut h, k),
                "key {k} lost after removing the root"
            );
        }
        assert_eq!(t.size_query(&mut h), 6);
    }

    #[test]
    fn range_query_matches_model_after_deletes() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxAvlTree::new();
        for k in 0..100u64 {
            t.insert(&mut h, k, k);
        }
        for k in (0..100u64).step_by(3) {
            t.remove(&mut h, k);
        }
        let expected = (0..100u64)
            .filter(|k| k % 3 != 0 && (20..=60).contains(k))
            .count();
        assert_eq!(t.range_query(&mut h, 20, 60), expected);
    }
}
