//! The [`Abort`] control-flow token.
//!
//! Every transactional operation returns `Result<T, Abort>`. Returning
//! `Err(Abort)` from the transaction closure makes the retry loop in
//! [`crate::Handle`] roll back the attempt and retry it (possibly after backoff, possibly on a
//! different code path — e.g. the versioned path in Multiverse).

use std::fmt;

/// Zero-sized token signalling that the current transaction attempt must be
/// rolled back and retried.
///
/// `Abort` deliberately carries no payload, so that propagating an abort
/// through deep data-structure code stays free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Abort;

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("transaction aborted")
    }
}

impl std::error::Error for Abort {}

/// Convenience alias used throughout the transactional code paths.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abort_is_zero_sized() {
        assert_eq!(std::mem::size_of::<Abort>(), 0);
        // Result<u64, Abort> should be exactly as large as needed for the value
        // plus a discriminant word at most.
        assert!(std::mem::size_of::<TxResult<u64>>() <= 16);
    }

    #[test]
    fn abort_formats() {
        assert_eq!(Abort.to_string(), "transaction aborted");
        let _ = format!("{Abort:?}");
    }

    #[test]
    fn question_mark_propagates() {
        fn inner() -> TxResult<u64> {
            Err(Abort)
        }
        fn outer() -> TxResult<u64> {
            let v = inner()?;
            Ok(v + 1)
        }
        assert_eq!(outer(), Err(Abort));
    }
}
