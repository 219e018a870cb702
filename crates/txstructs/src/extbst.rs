//! A leaf-oriented (external) binary search tree (Appendix A of the paper).
//!
//! Internal nodes are pure routers: keys live only in leaves. An insert
//! replaces a leaf by a router with two leaves; a remove splices out a leaf
//! and its parent router. This is the classic external BST used throughout
//! the concurrent-data-structure literature, here synchronized entirely by
//! the TM.

use crate::node::{alloc_node, deref, free_node_eager, retire_node, TxNodeInit, NULL};
use crate::TxSet;
use tm_api::{TVar, Transaction, TxResult};

/// A node of the external BST. A node is a leaf iff its `left` child is
/// [`NULL`] (external BST internal nodes always have two children).
pub struct BstNode {
    /// Leaf: the element key. Internal: the routing key (keys `< key` are in
    /// the left subtree, keys `>= key` in the right).
    pub key: TVar<u64>,
    /// Leaf: the element value. Internal: unused.
    pub val: TVar<u64>,
    /// Left child pointer, or [`NULL`] for a leaf.
    pub left: TVar<u64>,
    /// Right child pointer, or [`NULL`] for a leaf.
    pub right: TVar<u64>,
}

/// Initial values of a fresh [`BstNode`].
pub struct BstNodeInit {
    /// The element key (leaf) or routing key (router).
    pub key: u64,
    /// The element value (0 for routers, whose value is never read).
    pub val: u64,
    /// Left child word ([`NULL`] for a leaf).
    pub left: u64,
    /// Right child word ([`NULL`] for a leaf).
    pub right: u64,
}

impl BstNodeInit {
    fn leaf(key: u64, val: u64) -> Self {
        Self {
            key,
            val,
            left: NULL,
            right: NULL,
        }
    }

    fn router(key: u64, left: u64, right: u64) -> Self {
        Self {
            key,
            val: 0,
            left,
            right,
        }
    }
}

// Safety: no drop glue; traversals transactionally read key/left/right and
// point lookups read a leaf's val — all four fields are TM-written here.
unsafe impl TxNodeInit for BstNode {
    type Init = BstNodeInit;

    fn vacant() -> Self {
        Self {
            key: TVar::new(0),
            val: TVar::new(0),
            left: TVar::new(NULL),
            right: TVar::new(NULL),
        }
    }

    fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()> {
        tx.write_var(&self.key, init.key)?;
        tx.write_var(&self.val, init.val)?;
        tx.write_var(&self.left, init.left)?;
        tx.write_var(&self.right, init.right)
    }
}

/// A transactional external binary search tree.
pub struct TxExtBst {
    root: TVar<u64>,
}

impl Default for TxExtBst {
    fn default() -> Self {
        Self::new()
    }
}

impl TxExtBst {
    /// Create an empty tree.
    pub fn new() -> Self {
        Self {
            root: TVar::new(NULL),
        }
    }

    /// Whether the node at `word` is a leaf.
    fn is_leaf<X: Transaction>(tx: &mut X, word: u64) -> TxResult<bool> {
        let node = unsafe { deref::<BstNode>(word) };
        Ok(tx.read_var(&node.left)? == NULL)
    }
}

impl TxSet for TxExtBst {
    fn name(&self) -> &'static str {
        "external-bst"
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            let leaf = alloc_node::<BstNode, _>(tx, BstNodeInit::leaf(key, val))?;
            tx.write_var(&self.root, leaf)?;
            return Ok(true);
        }
        // Descend to the leaf, remembering the field that points at it.
        let mut parent_field: &TVar<u64> = &self.root;
        let mut cur = root;
        while !Self::is_leaf(tx, cur)? {
            let node = unsafe { deref::<BstNode>(cur) };
            let k = tx.read_var(&node.key)?;
            parent_field = if key < k { &node.left } else { &node.right };
            cur = tx.read_var(parent_field)?;
        }
        let leaf = unsafe { deref::<BstNode>(cur) };
        let leaf_key = tx.read_var(&leaf.key)?;
        if leaf_key == key {
            return Ok(false);
        }
        // Both fresh nodes are TM-initialised by `alloc_node` inside this
        // transaction; the pre-port raw-store init here was the ghost-key /
        // dangling-pointer bug `struct-churn` flags (node module docs).
        let fresh = alloc_node::<BstNode, _>(tx, BstNodeInit::leaf(key, val))?;
        // The router key is the larger of the two leaf keys; smaller keys
        // route left.
        let router = if key < leaf_key {
            BstNodeInit::router(leaf_key, fresh, cur)
        } else {
            BstNodeInit::router(key, cur, fresh)
        };
        let router = alloc_node::<BstNode, _>(tx, router)?;
        tx.write_var(parent_field, router)?;
        Ok(true)
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let root = tx.read_var(&self.root)?;
        if root == NULL {
            return Ok(false);
        }
        if Self::is_leaf(tx, root)? {
            let leaf = unsafe { deref::<BstNode>(root) };
            if tx.read_var(&leaf.key)? != key {
                return Ok(false);
            }
            tx.write_var(&self.root, NULL)?;
            retire_node::<BstNode, _>(tx, root);
            return Ok(true);
        }
        // Descend tracking the grandparent field (which points at the
        // parent router) so the sibling can be spliced in its place.
        let mut gparent_field: &TVar<u64> = &self.root;
        let mut parent = root;
        loop {
            let parent_node = unsafe { deref::<BstNode>(parent) };
            let pk = tx.read_var(&parent_node.key)?;
            let (child_field, sibling_field) = if key < pk {
                (&parent_node.left, &parent_node.right)
            } else {
                (&parent_node.right, &parent_node.left)
            };
            let child = tx.read_var(child_field)?;
            if Self::is_leaf(tx, child)? {
                let leaf = unsafe { deref::<BstNode>(child) };
                if tx.read_var(&leaf.key)? != key {
                    return Ok(false);
                }
                let sibling = tx.read_var(sibling_field)?;
                tx.write_var(gparent_field, sibling)?;
                retire_node::<BstNode, _>(tx, parent);
                retire_node::<BstNode, _>(tx, child);
                return Ok(true);
            }
            gparent_field = child_field;
            parent = child;
        }
    }

    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let mut cur = tx.read_var(&self.root)?;
        if cur == NULL {
            return Ok(false);
        }
        while !Self::is_leaf(tx, cur)? {
            let node = unsafe { deref::<BstNode>(cur) };
            let k = tx.read_var(&node.key)?;
            cur = if key < k {
                tx.read_var(&node.left)?
            } else {
                tx.read_var(&node.right)?
            };
        }
        let leaf = unsafe { deref::<BstNode>(cur) };
        Ok(tx.read_var(&leaf.key)? == key)
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let mut cur = tx.read_var(&self.root)?;
        if cur == NULL {
            return Ok(None);
        }
        while !Self::is_leaf(tx, cur)? {
            let node = unsafe { deref::<BstNode>(cur) };
            let k = tx.read_var(&node.key)?;
            cur = if key < k {
                tx.read_var(&node.left)?
            } else {
                tx.read_var(&node.right)?
            };
        }
        let leaf = unsafe { deref::<BstNode>(cur) };
        if tx.read_var(&leaf.key)? == key {
            Ok(Some(tx.read_var(&leaf.val)?))
        } else {
            Ok(None)
        }
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
            let node = unsafe { deref::<BstNode>(word) };
            let left = tx.read_var(&node.left)?;
            let k = tx.read_var(&node.key)?;
            if left == NULL {
                if k >= lo && k <= hi {
                    visit(k, tx.read_var(&node.val)?);
                    count += 1;
                }
                continue;
            }
            let right = tx.read_var(&node.right)?;
            // Left subtree holds keys < k, right subtree keys >= k.
            if lo < k {
                stack.push(left);
            }
            if hi >= k {
                stack.push(right);
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
            let node = unsafe { deref::<BstNode>(word) };
            let left = tx.read_var(&node.left)?;
            let k = tx.read_var(&node.key)?;
            if left == NULL {
                if k >= lo && k <= hi {
                    count += 1;
                }
                continue;
            }
            let right = tx.read_var(&node.right)?;
            // Left subtree holds keys < k, right subtree keys >= k.
            if lo < k {
                stack.push(left);
            }
            if hi >= k {
                stack.push(right);
            }
        }
        Ok(count)
    }
}

impl Drop for TxExtBst {
    fn drop(&mut self) {
        // Quiescent teardown with an explicit stack (the tree is not
        // guaranteed to be balanced).
        let root = self.root.load_direct();
        if root == NULL {
            return;
        }
        let mut stack = vec![root];
        while let Some(word) = stack.pop() {
            let node = unsafe { deref::<BstNode>(word) };
            let left = node.left.load_direct();
            let right = node.right.load_direct();
            if left != NULL {
                stack.push(left);
            }
            if right != NULL {
                stack.push(right);
            }
            unsafe { free_node_eager::<BstNode>(word) };
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
        testutil::check_against_model::<TxExtBst, _, _>(TxExtBst::new, testutil::glock(), 4000);
    }

    #[test]
    fn model_check_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::check_against_model::<TxExtBst, _, _>(
            TxExtBst::new,
            std::sync::Arc::clone(&rt),
            4000,
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_smoke_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::concurrent_smoke::<TxExtBst, _, _>(TxExtBst::new, std::sync::Arc::clone(&rt));
        rt.shutdown();
    }

    #[test]
    fn remove_root_and_reinsert() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxExtBst::new();
        assert!(t.insert(&mut h, 10, 1));
        assert!(t.remove(&mut h, 10));
        assert!(!t.contains(&mut h, 10));
        assert!(t.insert(&mut h, 10, 2));
        assert!(t.contains(&mut h, 10));
        assert_eq!(t.size_query(&mut h), 1);
    }

    #[test]
    fn range_query_counts_inclusive_bounds() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let t = TxExtBst::new();
        for k in [5u64, 1, 9, 3, 7] {
            assert!(t.insert(&mut h, k, k));
        }
        assert_eq!(t.range_query(&mut h, 3, 7), 3);
        assert_eq!(t.range_query(&mut h, 0, 0), 0);
        assert_eq!(t.range_query(&mut h, 9, 9), 1);
        assert_eq!(t.size_query(&mut h), 5);
    }
}
