//! A sorted singly linked list (set of `u64` keys with values).
//!
//! The simplest transactional structure in the repository; it is the subject
//! of the §4.5 memory-reclamation example (a long read-only traversal racing
//! with a transaction that unlinks — and would otherwise free — the second
//! half of the list) and doubles as the bucket list of the hashmap.

use crate::node::{
    alloc_node, alloc_node_eager, deref, free_node_eager, retire_node, TxNodeInit, NULL,
};
use crate::TxSet;
use tm_api::{TVar, TmHandle, Transaction, TxKind, TxResult};

/// A node of the sorted list.
pub struct ListNode {
    /// The key (immutable after insertion, but read transactionally so that
    /// concurrent traversals validate it).
    pub key: TVar<u64>,
    /// The value associated with the key.
    pub val: TVar<u64>,
    /// Pointer (as a word) to the next node, or [`NULL`].
    pub next: TVar<u64>,
}

/// Initial values of a fresh [`ListNode`].
pub struct ListNodeInit {
    /// The key.
    pub key: u64,
    /// The value.
    pub val: u64,
    /// The successor pointer word.
    pub next: u64,
}

// Safety: no drop glue; all three fields are transactionally read by every
// traversal, and all three are TM-written here.
unsafe impl TxNodeInit for ListNode {
    type Init = ListNodeInit;

    fn vacant() -> Self {
        Self {
            key: TVar::new(0),
            val: TVar::new(0),
            next: TVar::new(NULL),
        }
    }

    fn write_fields<X: Transaction>(&self, tx: &mut X, init: &Self::Init) -> TxResult<()> {
        tx.write_var(&self.key, init.key)?;
        tx.write_var(&self.val, init.val)?;
        tx.write_var(&self.next, init.next)
    }
}

/// A sorted singly linked list with a sentinel head.
pub struct TxList {
    /// Pointer to the sentinel node (never changes after construction).
    head: u64,
}

impl Default for TxList {
    fn default() -> Self {
        Self::new()
    }
}

impl TxList {
    /// Create an empty list. The sentinel is the one eagerly (vacantly)
    /// allocated node: its key/value are never interpreted and its `next`
    /// starts at the vacant [`NULL`].
    pub fn new() -> Self {
        Self {
            head: alloc_node_eager::<ListNode>(),
        }
    }

    /// The sentinel node.
    fn sentinel(&self) -> &ListNode {
        // Safety: the sentinel lives until `self` is dropped.
        unsafe { deref::<ListNode>(self.head) }
    }

    /// Find the insertion point for `key`: returns `(prev_ptr, cur_ptr)` with
    /// `prev.key < key <= cur.key` (cur may be [`NULL`]).
    fn locate<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<(u64, u64)> {
        let mut prev = self.head;
        let mut cur = tx.read_var(&self.sentinel().next)?;
        while cur != NULL {
            // Safety: `cur` was read transactionally within this pinned attempt.
            let node = unsafe { deref::<ListNode>(cur) };
            let k = tx.read_var(&node.key)?;
            if k >= key {
                break;
            }
            prev = cur;
            cur = tx.read_var(&node.next)?;
        }
        Ok((prev, cur))
    }
}

impl TxSet for TxList {
    fn name(&self) -> &'static str {
        "linked-list"
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let (_, cur) = self.locate(tx, key)?;
        if cur == NULL {
            return Ok(None);
        }
        let node = unsafe { deref::<ListNode>(cur) };
        if tx.read_var(&node.key)? == key {
            Ok(Some(tx.read_var(&node.val)?))
        } else {
            Ok(None)
        }
    }

    /// Visits in key-ascending order.
    fn scan_tx<X: Transaction, F: FnMut(u64, u64)>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut F,
    ) -> TxResult<usize> {
        let mut count = 0usize;
        let mut cur = tx.read_var(&self.sentinel().next)?;
        while cur != NULL {
            let node = unsafe { deref::<ListNode>(cur) };
            let k = tx.read_var(&node.key)?;
            if k > hi {
                break;
            }
            if k >= lo {
                visit(k, tx.read_var(&node.val)?);
                count += 1;
            }
            cur = tx.read_var(&node.next)?;
        }
        Ok(count)
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        let (prev, cur) = self.locate(tx, key)?;
        if cur != NULL {
            let node = unsafe { deref::<ListNode>(cur) };
            if tx.read_var(&node.key)? == key {
                return Ok(false);
            }
        }
        // `alloc_node` TM-writes key/val/next inside this transaction (the
        // node-layer invariant: a reused address's stripes and version lists
        // are superseded before the node becomes reachable).
        let fresh = alloc_node::<ListNode, _>(
            tx,
            ListNodeInit {
                key,
                val,
                next: cur,
            },
        )?;
        let prev_node = unsafe { deref::<ListNode>(prev) };
        tx.write_var(&prev_node.next, fresh)?;
        Ok(true)
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let (prev, cur) = self.locate(tx, key)?;
        if cur == NULL {
            return Ok(false);
        }
        let node = unsafe { deref::<ListNode>(cur) };
        if tx.read_var(&node.key)? != key {
            return Ok(false);
        }
        let next = tx.read_var(&node.next)?;
        let prev_node = unsafe { deref::<ListNode>(prev) };
        tx.write_var(&prev_node.next, next)?;
        retire_node::<ListNode, _>(tx, cur);
        Ok(true)
    }

    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let (_, cur) = self.locate(tx, key)?;
        if cur == NULL {
            return Ok(false);
        }
        let node = unsafe { deref::<ListNode>(cur) };
        Ok(tx.read_var(&node.key)? == key)
    }

    fn range_query_tx<X: Transaction>(&self, tx: &mut X, lo: u64, hi: u64) -> TxResult<usize> {
        let mut count = 0usize;
        let mut cur = tx.read_var(&self.sentinel().next)?;
        while cur != NULL {
            let node = unsafe { deref::<ListNode>(cur) };
            let k = tx.read_var(&node.key)?;
            if k > hi {
                break;
            }
            if k >= lo {
                count += 1;
            }
            cur = tx.read_var(&node.next)?;
        }
        Ok(count)
    }

    fn size_query<H: TmHandle>(&self, h: &mut H) -> usize {
        h.txn(TxKind::ReadOnly, |tx| {
            let mut count = 0usize;
            let mut cur = tx.read_var(&self.sentinel().next)?;
            while cur != NULL {
                let node = unsafe { deref::<ListNode>(cur) };
                count += 1;
                cur = tx.read_var(&node.next)?;
            }
            Ok(count)
        })
    }
}

impl Drop for TxList {
    fn drop(&mut self) {
        // Quiescent teardown: return every node including the sentinel to
        // the pool.
        let mut cur = self.head;
        while cur != NULL {
            // Safety: teardown is single-threaded; nodes were allocated by us.
            let next = unsafe { deref::<ListNode>(cur) }.next.load_direct();
            unsafe { free_node_eager::<ListNode>(cur) };
            cur = next;
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
        testutil::check_against_model::<TxList, _, _>(TxList::new, testutil::glock(), 3000);
    }

    #[test]
    fn model_check_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::check_against_model::<TxList, _, _>(
            TxList::new,
            std::sync::Arc::clone(&rt),
            3000,
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_smoke_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::concurrent_smoke::<TxList, _, _>(TxList::new, std::sync::Arc::clone(&rt));
        rt.shutdown();
    }

    #[test]
    fn get_returns_values() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let list = TxList::new();
        assert!(list.insert(&mut h, 5, 50));
        assert!(list.insert(&mut h, 3, 30));
        assert_eq!(list.get(&mut h, 5), Some(50));
        assert_eq!(list.get(&mut h, 3), Some(30));
        assert_eq!(list.get(&mut h, 4), None);
        assert!(list.remove(&mut h, 5));
        assert_eq!(list.get(&mut h, 5), None);
    }

    #[test]
    fn keeps_sorted_order_for_range_queries() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let list = TxList::new();
        for k in [9u64, 1, 7, 3, 5] {
            assert!(list.insert(&mut h, k, k));
        }
        assert_eq!(list.range_query(&mut h, 2, 8), 3); // 3, 5, 7
        assert_eq!(list.range_query(&mut h, 0, 100), 5);
        assert_eq!(list.size_query(&mut h), 5);
    }

    #[test]
    fn empty_list_behaviour() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let list = TxList::new();
        assert!(!list.contains(&mut h, 1));
        assert!(!list.remove(&mut h, 1));
        assert_eq!(list.size_query(&mut h), 0);
        assert_eq!(list.range_query(&mut h, 0, u64::MAX), 0);
    }
}
