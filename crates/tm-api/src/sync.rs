//! Synchronization facade: `std::sync` when the `sim` feature is off,
//! scheduler-instrumented drop-ins when it is on.
//!
//! Every shared-memory synchronization primitive in the TM goes through this
//! module instead of `std::sync` directly. With `sim` off (the default) the
//! types here *are* the std types — plain `pub use` re-exports, pinned by a
//! `TypeId` test — so release builds contain no scheduler code at all. With
//! `sim` on, each type is a `#[repr(transparent)]` wrapper that announces the
//! operation to the `sim` scheduler (a *yield point*) before performing it,
//! which is what lets `sim::explore` enumerate interleavings of the protocol.
//!
//! The wrappers preserve layout (`TxWord` stays exactly 8 bytes) and pass
//! `Ordering` arguments through unchanged: the simulated executions are
//! sequentially consistent by construction, so orderings only matter for the
//! real (non-sim) build. Blocking `Mutex::lock` becomes a
//! `try_lock`/spin-yield loop so the scheduler observes lock contention as
//! spin retries rather than an opaque OS block.

#[cfg(not(feature = "sim"))]
mod imp {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicI64, AtomicPtr, AtomicU64, AtomicUsize, Ordering,
    };
    pub use std::sync::{Mutex, MutexGuard};
}

#[cfg(feature = "sim")]
mod imp {
    pub use std::sync::atomic::Ordering;
    use std::sync::atomic::{self as std_atomic};
    use std::sync::{LockResult, PoisonError, TryLockError};

    /// Fence yield point; the real fence still executes.
    #[inline]
    pub fn fence(order: Ordering) {
        sim::on_fence();
        std_atomic::fence(order);
    }

    macro_rules! instrumented_atomic {
        ($name:ident, $std:ident, $t:ty; $($extra:tt)*) => {
            /// Scheduler-instrumented drop-in for the std atomic of the same
            /// name: every operation is a sim yield point.
            #[repr(transparent)]
            #[derive(Debug, Default)]
            pub struct $name(std_atomic::$std);

            impl $name {
                pub const fn new(v: $t) -> Self {
                    Self(std_atomic::$std::new(v))
                }
                #[inline]
                fn a(&self) -> usize {
                    self as *const Self as usize
                }
                #[inline]
                pub fn load(&self, order: Ordering) -> $t {
                    sim::on_load(self.a());
                    self.0.load(order)
                }
                #[inline]
                pub fn store(&self, val: $t, order: Ordering) {
                    sim::on_store(self.a());
                    self.0.store(val, order)
                }
                #[inline]
                pub fn swap(&self, val: $t, order: Ordering) -> $t {
                    sim::on_rmw(self.a());
                    self.0.swap(val, order)
                }
                #[inline]
                pub fn compare_exchange(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    sim::on_rmw(self.a());
                    self.0.compare_exchange(current, new, success, failure)
                }
                #[inline]
                pub fn compare_exchange_weak(
                    &self,
                    current: $t,
                    new: $t,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$t, $t> {
                    sim::on_rmw(self.a());
                    // The serialized simulated execution has no spurious
                    // failures, so weak and strong CAS coincide.
                    self.0.compare_exchange(current, new, success, failure)
                }
                #[inline]
                pub fn into_inner(self) -> $t {
                    self.0.into_inner()
                }
                #[inline]
                pub fn get_mut(&mut self) -> &mut $t {
                    self.0.get_mut()
                }
                $($extra)*
            }
        };
    }

    macro_rules! instrumented_fetch_ops {
        ($t:ty) => {
            #[inline]
            pub fn fetch_add(&self, val: $t, order: Ordering) -> $t {
                sim::on_rmw(self.a());
                self.0.fetch_add(val, order)
            }
            #[inline]
            pub fn fetch_sub(&self, val: $t, order: Ordering) -> $t {
                sim::on_rmw(self.a());
                self.0.fetch_sub(val, order)
            }
            #[inline]
            pub fn fetch_or(&self, val: $t, order: Ordering) -> $t {
                sim::on_rmw(self.a());
                self.0.fetch_or(val, order)
            }
            #[inline]
            pub fn fetch_and(&self, val: $t, order: Ordering) -> $t {
                sim::on_rmw(self.a());
                self.0.fetch_and(val, order)
            }
            #[inline]
            pub fn fetch_min(&self, val: $t, order: Ordering) -> $t {
                sim::on_rmw(self.a());
                self.0.fetch_min(val, order)
            }
        };
    }

    instrumented_atomic!(AtomicU64, AtomicU64, u64; instrumented_fetch_ops!(u64););
    instrumented_atomic!(AtomicUsize, AtomicUsize, usize; instrumented_fetch_ops!(usize););
    instrumented_atomic!(AtomicI64, AtomicI64, i64; instrumented_fetch_ops!(i64););
    instrumented_atomic!(AtomicBool, AtomicBool, bool;
        #[inline]
        pub fn fetch_or(&self, val: bool, order: Ordering) -> bool {
            sim::on_rmw(self.a());
            self.0.fetch_or(val, order)
        }
        #[inline]
        pub fn fetch_and(&self, val: bool, order: Ordering) -> bool {
            sim::on_rmw(self.a());
            self.0.fetch_and(val, order)
        }
    );

    /// Scheduler-instrumented drop-in for `std::sync::atomic::AtomicPtr`.
    #[repr(transparent)]
    pub struct AtomicPtr<T>(std_atomic::AtomicPtr<T>);

    impl<T> AtomicPtr<T> {
        pub const fn new(p: *mut T) -> Self {
            Self(std_atomic::AtomicPtr::new(p))
        }
        #[inline]
        fn a(&self) -> usize {
            self as *const Self as usize
        }
        #[inline]
        pub fn load(&self, order: Ordering) -> *mut T {
            sim::on_load(self.a());
            self.0.load(order)
        }
        #[inline]
        pub fn store(&self, p: *mut T, order: Ordering) {
            sim::on_store(self.a());
            self.0.store(p, order)
        }
        #[inline]
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            sim::on_rmw(self.a());
            self.0.swap(p, order)
        }
        #[inline]
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            sim::on_rmw(self.a());
            self.0.compare_exchange(current, new, success, failure)
        }
        #[inline]
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            sim::on_rmw(self.a());
            self.0.compare_exchange(current, new, success, failure)
        }
        #[inline]
        pub fn into_inner(self) -> *mut T {
            self.0.into_inner()
        }
        #[inline]
        pub fn get_mut(&mut self) -> &mut *mut T {
            self.0.get_mut()
        }
    }

    impl<T> Default for AtomicPtr<T> {
        fn default() -> Self {
            Self(std_atomic::AtomicPtr::default())
        }
    }

    impl<T> std::fmt::Debug for AtomicPtr<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            self.0.fmt(f)
        }
    }

    /// Scheduler-instrumented mutex. Blocking `lock` is a try-lock/spin-yield
    /// loop: under the simulated scheduler only one thread runs at a time, so
    /// a failed `try_lock` means another simulated thread holds the lock and
    /// yielding lets the scheduler run it to release.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

    pub struct MutexGuard<'a, T: ?Sized + 'a> {
        addr: usize,
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        pub const fn new(t: T) -> Self {
            Self(std::sync::Mutex::new(t))
        }
        pub fn into_inner(self) -> LockResult<T> {
            self.0.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            let addr = self as *const Self as *const () as usize;
            loop {
                sim::on_rmw(addr);
                match self.0.try_lock() {
                    Ok(g) => {
                        return Ok(MutexGuard {
                            addr,
                            inner: Some(g),
                        })
                    }
                    Err(TryLockError::Poisoned(pe)) => {
                        return Err(PoisonError::new(MutexGuard {
                            addr,
                            inner: Some(pe.into_inner()),
                        }))
                    }
                    Err(TryLockError::WouldBlock) => sim::on_spin(),
                }
            }
        }
        pub fn get_mut(&mut self) -> LockResult<&mut T> {
            self.0.get_mut()
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().unwrap()
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().unwrap()
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // The release is a visible write to the lock word: announce it
            // before the std guard actually unlocks.
            sim::on_store(self.addr);
            drop(self.inner.take());
        }
    }
}

pub use imp::*;

#[cfg(all(test, not(feature = "sim")))]
mod tests {
    use std::any::TypeId;

    /// Pin the zero-overhead contract: with `sim` off, the facade types ARE
    /// the std types (re-exports, not wrappers), so no scheduler code can
    /// exist in default builds.
    #[test]
    fn facade_is_std_passthrough_without_sim() {
        assert_eq!(
            TypeId::of::<super::AtomicU64>(),
            TypeId::of::<std::sync::atomic::AtomicU64>()
        );
        assert_eq!(
            TypeId::of::<super::AtomicUsize>(),
            TypeId::of::<std::sync::atomic::AtomicUsize>()
        );
        assert_eq!(
            TypeId::of::<super::AtomicI64>(),
            TypeId::of::<std::sync::atomic::AtomicI64>()
        );
        assert_eq!(
            TypeId::of::<super::AtomicBool>(),
            TypeId::of::<std::sync::atomic::AtomicBool>()
        );
        assert_eq!(
            TypeId::of::<super::AtomicPtr<u8>>(),
            TypeId::of::<std::sync::atomic::AtomicPtr<u8>>()
        );
        assert_eq!(
            TypeId::of::<super::Mutex<u64>>(),
            TypeId::of::<std::sync::Mutex<u64>>()
        );
        let f: fn(std::sync::atomic::Ordering) = super::fence;
        let _ = f;
    }
}

#[cfg(all(test, feature = "sim"))]
mod sim_tests {
    use super::*;

    /// The instrumented wrappers keep the layout contract TxWord relies on.
    #[test]
    fn wrappers_preserve_layout() {
        assert_eq!(std::mem::size_of::<AtomicU64>(), 8);
        assert_eq!(std::mem::align_of::<AtomicU64>(), 8);
        assert_eq!(std::mem::size_of::<AtomicPtr<u8>>(), 8);
    }

    /// Outside a controlled execution the hooks are inert: the wrappers
    /// behave exactly like the std types.
    #[test]
    fn wrappers_work_outside_sim_execution() {
        let a = AtomicU64::new(1);
        assert_eq!(a.fetch_add(2, Ordering::SeqCst), 1);
        assert_eq!(a.load(Ordering::SeqCst), 3);
        let m = Mutex::new(5u64);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 6);
        fence(Ordering::SeqCst);
    }
}
