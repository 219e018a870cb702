//! A fixed-bucket transactional hashmap (Appendix A of the paper).
//!
//! The paper's hashmap has a fixed array of 1 million buckets, each a linked
//! list, prefilled with 100k keys; because the hash is not order-preserving,
//! the long-running operation is an atomic **size query** (SQ) that counts
//! every key, instead of a range query.

use crate::node::{alloc_node, deref, free_node_eager, retire_node, TxNodeInit, NULL};
use crate::TxSet;
use tm_api::{TVar, TmHandle, Transaction, TxKind, TxResult};

/// A node of a bucket list.
pub struct MapNode {
    /// The key.
    pub key: TVar<u64>,
    /// The value.
    pub val: TVar<u64>,
    /// Pointer (as a word) to the next node in the bucket, or [`NULL`].
    pub next: TVar<u64>,
}

/// Initial values of a fresh [`MapNode`].
pub struct MapNodeInit {
    /// The key.
    pub key: u64,
    /// The value.
    pub val: u64,
    /// The successor pointer word (the previous bucket head).
    pub next: u64,
}

// Safety: no drop glue; every bucket traversal transactionally reads all
// three fields, and all three are TM-written here.
unsafe impl TxNodeInit for MapNode {
    type Init = MapNodeInit;

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

/// A transactional hashmap with a fixed number of buckets.
pub struct TxHashMap {
    buckets: Box<[TVar<u64>]>,
}

#[inline(always)]
fn mix(key: u64) -> u64 {
    // splitmix64-style finalizer: good avalanche for sequential keys.
    let mut x = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl TxHashMap {
    /// Create a hashmap with `buckets` buckets (the paper uses 1 million).
    pub fn new(buckets: usize) -> Self {
        let buckets: Vec<TVar<u64>> = (0..buckets.max(1)).map(|_| TVar::new(NULL)).collect();
        Self {
            buckets: buckets.into_boxed_slice(),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    #[inline(always)]
    fn bucket_of(&self, key: u64) -> &TVar<u64> {
        let idx = (mix(key) as usize) % self.buckets.len();
        &self.buckets[idx]
    }

    /// Locate `key` in its bucket: returns `(prev_ptr_or_null, cur_ptr_or_null)`
    /// where `prev == NULL` means `cur` is the bucket head.
    fn locate<X: Transaction>(
        &self,
        tx: &mut X,
        bucket: &TVar<u64>,
        key: u64,
    ) -> TxResult<(u64, u64)> {
        let mut prev = NULL;
        let mut cur = tx.read_var(bucket)?;
        while cur != NULL {
            // Safety: read transactionally within the pinned attempt.
            let node = unsafe { deref::<MapNode>(cur) };
            if tx.read_var(&node.key)? == key {
                return Ok((prev, cur));
            }
            prev = cur;
            cur = tx.read_var(&node.next)?;
        }
        Ok((prev, NULL))
    }
}

impl TxSet for TxHashMap {
    fn name(&self) -> &'static str {
        "hashmap"
    }

    fn get_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<Option<u64>> {
        let bucket = self.bucket_of(key);
        let (_, cur) = self.locate(tx, bucket, key)?;
        if cur == NULL {
            return Ok(None);
        }
        let node = unsafe { deref::<MapNode>(cur) };
        Ok(Some(tx.read_var(&node.val)?))
    }

    /// A full scan: the hash is not order-preserving.
    fn scan_tx<X: Transaction, F: FnMut(u64, u64)>(
        &self,
        tx: &mut X,
        lo: u64,
        hi: u64,
        visit: &mut F,
    ) -> TxResult<usize> {
        let mut count = 0usize;
        for bucket in self.buckets.iter() {
            let mut cur = tx.read_var(bucket)?;
            while cur != NULL {
                let node = unsafe { deref::<MapNode>(cur) };
                let k = tx.read_var(&node.key)?;
                if k >= lo && k <= hi {
                    visit(k, tx.read_var(&node.val)?);
                    count += 1;
                }
                cur = tx.read_var(&node.next)?;
            }
        }
        Ok(count)
    }

    fn insert_tx<X: Transaction>(&self, tx: &mut X, key: u64, val: u64) -> TxResult<bool> {
        let bucket = self.bucket_of(key);
        let (_, found) = self.locate(tx, bucket, key)?;
        if found != NULL {
            return Ok(false);
        }
        let head = tx.read_var(bucket)?;
        // `alloc_node` TM-writes key/val/next inside this transaction (the
        // node-layer invariant — a reused address must never leak the
        // previous node generation to versioned readers).
        let fresh = alloc_node::<MapNode, _>(
            tx,
            MapNodeInit {
                key,
                val,
                next: head,
            },
        )?;
        tx.write_var(bucket, fresh)?;
        Ok(true)
    }

    fn remove_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let bucket = self.bucket_of(key);
        let (prev, cur) = self.locate(tx, bucket, key)?;
        if cur == NULL {
            return Ok(false);
        }
        let node = unsafe { deref::<MapNode>(cur) };
        let next = tx.read_var(&node.next)?;
        if prev == NULL {
            tx.write_var(bucket, next)?;
        } else {
            let prev_node = unsafe { deref::<MapNode>(prev) };
            tx.write_var(&prev_node.next, next)?;
        }
        retire_node::<MapNode, _>(tx, cur);
        Ok(true)
    }

    fn contains_tx<X: Transaction>(&self, tx: &mut X, key: u64) -> TxResult<bool> {
        let bucket = self.bucket_of(key);
        let (_, cur) = self.locate(tx, bucket, key)?;
        Ok(cur != NULL)
    }

    /// Range queries are not meaningful without an order-preserving hash
    /// (paper, Appendix A); this counts the keys in `[lo, hi]` with a full
    /// scan, which has the same "one huge read-only transaction" footprint as
    /// the size query the paper substitutes.
    fn range_query_tx<X: Transaction>(&self, tx: &mut X, lo: u64, hi: u64) -> TxResult<usize> {
        let mut count = 0usize;
        for bucket in self.buckets.iter() {
            let mut cur = tx.read_var(bucket)?;
            while cur != NULL {
                let node = unsafe { deref::<MapNode>(cur) };
                let k = tx.read_var(&node.key)?;
                if k >= lo && k <= hi {
                    count += 1;
                }
                cur = tx.read_var(&node.next)?;
            }
        }
        Ok(count)
    }

    fn size_query<H: TmHandle>(&self, h: &mut H) -> usize {
        h.txn(TxKind::ReadOnly, |tx| {
            let mut count = 0usize;
            for bucket in self.buckets.iter() {
                let mut cur = tx.read_var(bucket)?;
                while cur != NULL {
                    let node = unsafe { deref::<MapNode>(cur) };
                    count += 1;
                    cur = tx.read_var(&node.next)?;
                }
            }
            Ok(count)
        })
    }
}

impl Drop for TxHashMap {
    fn drop(&mut self) {
        for bucket in self.buckets.iter() {
            let mut cur = bucket.load_direct();
            while cur != NULL {
                // Safety: quiescent teardown.
                let next = unsafe { deref::<MapNode>(cur) }.next.load_direct();
                unsafe { free_node_eager::<MapNode>(cur) };
                cur = next;
            }
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
        testutil::check_against_model::<TxHashMap, _, _>(
            || TxHashMap::new(64),
            testutil::glock(),
            3000,
        );
    }

    #[test]
    fn model_check_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::check_against_model::<TxHashMap, _, _>(
            || TxHashMap::new(64),
            std::sync::Arc::clone(&rt),
            3000,
        );
        rt.shutdown();
    }

    #[test]
    fn concurrent_smoke_on_multiverse() {
        let rt = testutil::multiverse_small();
        testutil::concurrent_smoke::<TxHashMap, _, _>(
            || TxHashMap::new(128),
            std::sync::Arc::clone(&rt),
        );
        rt.shutdown();
    }

    #[test]
    fn collisions_within_one_bucket_are_handled() {
        // A single bucket forces every key into the same list.
        let rt = testutil::glock();
        let mut h = rt.register();
        let map = TxHashMap::new(1);
        for k in 0..50u64 {
            assert!(map.insert(&mut h, k, k * 2));
        }
        assert_eq!(map.size_query(&mut h), 50);
        for k in 0..50u64 {
            assert_eq!(map.get(&mut h, k), Some(k * 2));
        }
        for k in (0..50u64).step_by(2) {
            assert!(map.remove(&mut h, k));
        }
        assert_eq!(map.size_query(&mut h), 25);
        assert!(!map.contains(&mut h, 0));
        assert!(map.contains(&mut h, 1));
    }

    #[test]
    fn duplicate_insert_rejected() {
        let rt = testutil::glock();
        let mut h = rt.register();
        let map = TxHashMap::new(16);
        assert!(map.insert(&mut h, 7, 1));
        assert!(!map.insert(&mut h, 7, 2));
        assert_eq!(map.get(&mut h, 7), Some(1));
    }
}
