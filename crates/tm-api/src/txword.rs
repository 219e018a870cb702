//! Transactional storage: [`TxWord`], the typed view [`TVar`], and pointer
//! helpers.
//!
//! The paper's "gold standard" requirement (§1) is that adopting the TM must
//! not change a program's memory layout — only variable *types* are replaced
//! by analogous transactional types. [`TxWord`] is `#[repr(transparent)]`
//! around an `AtomicU64`, i.e. it is exactly one 64-bit word, so a struct
//! whose fields become `TxWord`s has the same size, alignment and field
//! offsets as before. All per-address TM metadata (locks, version lists,
//! bloom filters) lives in separate parallel tables keyed by the word's
//! address.
//!
//! In C++ the TM reads shared data with plain loads and relies on
//! post-validation; in Rust that would be an illegal data race, so the word is
//! an atomic and accesses use `Acquire`/`Release` orderings, which compile to
//! plain loads/stores on x86-64 and therefore preserve the cache behaviour
//! the paper cares about.

use crate::sync::{AtomicU64, Ordering};
use std::marker::PhantomData;

/// A single transactional 64-bit word.
///
/// This is the only type the TMs know how to read and write transactionally.
/// Higher-level typed access goes through [`TVar`].
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct TxWord(AtomicU64);

impl TxWord {
    /// Create a word holding `value`.
    pub const fn new(value: u64) -> Self {
        Self(AtomicU64::new(value))
    }

    /// The address used to map this word to its lock / version-list / bloom
    /// stripe.
    #[inline(always)]
    pub fn addr(&self) -> usize {
        self as *const _ as usize
    }

    /// Non-transactional load. Only safe to use (in the logical sense —
    /// it never causes UB) when no concurrent transactions are writing, e.g.
    /// during initialization or quiescent verification.
    #[inline(always)]
    pub fn load_direct(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Non-transactional store; see [`Self::load_direct`] for the caveats.
    #[inline(always)]
    pub fn store_direct(&self, value: u64) {
        self.0.store(value, Ordering::Release)
    }

    /// Acquire-load used by TM read paths.
    #[inline(always)]
    pub fn tm_load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Release-store used by TM write and rollback paths (the caller holds the
    /// word's stripe lock).
    #[inline(always)]
    pub fn tm_store(&self, value: u64) {
        self.0.store(value, Ordering::Release)
    }
}

/// Types that can be stored in a single transactional word.
pub trait Word64: Copy {
    /// Encode the value into a `u64`.
    fn to_word(self) -> u64;
    /// Decode the value from a `u64`.
    fn from_word(w: u64) -> Self;
}

impl Word64 for u64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w
    }
}

impl Word64 for i64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as i64
    }
}

impl Word64 for usize {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

impl Word64 for u32 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as u32
    }
}

impl Word64 for bool {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

impl Word64 for f64 {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self.to_bits()
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        f64::from_bits(w)
    }
}

impl<T> Word64 for *mut T {
    #[inline(always)]
    fn to_word(self) -> u64 {
        self as usize as u64
    }
    #[inline(always)]
    fn from_word(w: u64) -> Self {
        w as usize as *mut T
    }
}

/// A typed view over a [`TxWord`].
///
/// `TVar<T>` is also `#[repr(transparent)]`, so replacing a `u64`/pointer
/// field with a `TVar` of the analogous type keeps the memory layout intact.
#[repr(transparent)]
#[derive(Debug, Default)]
pub struct TVar<T: Word64> {
    word: TxWord,
    _marker: PhantomData<T>,
}

impl<T: Word64> TVar<T> {
    /// Create a transactional variable holding `value`.
    pub fn new(value: T) -> Self {
        Self {
            word: TxWord::new(value.to_word()),
            _marker: PhantomData,
        }
    }

    /// The underlying transactional word.
    #[inline(always)]
    pub fn word(&self) -> &TxWord {
        &self.word
    }

    /// Non-transactional typed load (initialization / quiescent inspection).
    #[inline(always)]
    pub fn load_direct(&self) -> T {
        T::from_word(self.word.load_direct())
    }

    /// Non-transactional typed store (initialization only).
    #[inline(always)]
    pub fn store_direct(&self, value: T) {
        self.word.store_direct(value.to_word())
    }
}

/// A transactional pointer to `T`.
pub type TxPtr<T> = TVar<*mut T>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txword_is_one_word() {
        assert_eq!(std::mem::size_of::<TxWord>(), 8);
        assert_eq!(std::mem::align_of::<TxWord>(), 8);
        assert_eq!(std::mem::size_of::<TVar<u64>>(), 8);
        assert_eq!(std::mem::size_of::<TxPtr<u64>>(), 8);
    }

    #[test]
    fn layout_is_preserved_for_structs() {
        struct Plain {
            _a: u64,
            _b: u64,
            _c: *mut u8,
        }
        struct Transactional {
            _a: TVar<u64>,
            _b: TVar<u64>,
            _c: TxPtr<u8>,
        }
        assert_eq!(
            std::mem::size_of::<Plain>(),
            std::mem::size_of::<Transactional>()
        );
    }

    #[test]
    fn direct_roundtrip() {
        let w = TxWord::new(5);
        assert_eq!(w.load_direct(), 5);
        w.store_direct(9);
        assert_eq!(w.load_direct(), 9);
    }

    #[test]
    fn word64_roundtrips() {
        assert_eq!(u64::from_word(42u64.to_word()), 42);
        assert_eq!(i64::from_word((-42i64).to_word()), -42);
        assert_eq!(usize::from_word(7usize.to_word()), 7);
        assert_eq!(u32::from_word(7u32.to_word()), 7);
        assert!(bool::from_word(true.to_word()));
        assert!(!bool::from_word(false.to_word()));
        assert_eq!(f64::from_word(3.25f64.to_word()), 3.25);
        let mut x = 5u64;
        let p: *mut u64 = &mut x;
        assert_eq!(<*mut u64 as Word64>::from_word(p.to_word()), p);
    }

    #[test]
    fn tvar_typed_access() {
        let v = TVar::new(-7i64);
        assert_eq!(v.load_direct(), -7);
        v.store_direct(9);
        assert_eq!(v.load_direct(), 9);
        assert_eq!(v.word().load_direct(), 9);
    }

    #[test]
    fn addr_is_stable_and_aligned() {
        let w = TxWord::new(0);
        assert_eq!(w.addr() % 8, 0);
        assert_eq!(w.addr(), w.addr());
    }
}
