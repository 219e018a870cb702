//! Vector clocks ("version vectors") indexed by simulated thread id.
//!
//! The scheduler maintains one clock per thread and per shared object. A
//! step's clock captures everything that happens-before it: program order,
//! spawn/join edges, lock hand-offs, and same-object conflicting accesses
//! (the trace's own order). Two steps with incomparable clocks are
//! *concurrent* — only those are candidate race reversals for the DPOR
//! backtracking in [`crate::explore()`].

/// A grow-on-demand vector clock. Missing components are zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VersionVec {
    v: Vec<u32>,
}

impl VersionVec {
    /// The empty (all-zero) clock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Component for thread `t`.
    pub fn get(&self, t: usize) -> u32 {
        self.v.get(t).copied().unwrap_or(0)
    }

    /// Advance thread `t`'s own component by one.
    pub fn inc(&mut self, t: usize) {
        if self.v.len() <= t {
            self.v.resize(t + 1, 0);
        }
        self.v[t] += 1;
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VersionVec) {
        if self.v.len() < other.v.len() {
            self.v.resize(other.v.len(), 0);
        }
        for (i, &o) in other.v.iter().enumerate() {
            if self.v[i] < o {
                self.v[i] = o;
            }
        }
    }

    /// Pointwise `self <= other`: everything up to `self` also
    /// happens-before whatever carries `other`.
    pub fn le(&self, other: &VersionVec) -> bool {
        self.v.iter().enumerate().all(|(i, &s)| s <= other.get(i))
    }

    /// Neither clock is below the other: the steps carrying them are
    /// causally unordered.
    pub fn concurrent_with(&self, other: &VersionVec) -> bool {
        !self.le(other) && !other.le(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_pointwise_max_and_le_is_partial_order() {
        let mut a = VersionVec::new();
        let mut b = VersionVec::new();
        a.inc(0);
        a.inc(0);
        b.inc(1);
        assert!(!a.le(&b));
        assert!(!b.le(&a));
        assert!(a.concurrent_with(&b));

        let mut j = a.clone();
        j.join(&b);
        assert!(a.le(&j));
        assert!(b.le(&j));
        assert_eq!(j.get(0), 2);
        assert_eq!(j.get(1), 1);
        assert!(!j.concurrent_with(&a));
    }

    #[test]
    fn missing_components_read_as_zero() {
        let mut a = VersionVec::new();
        a.inc(3);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.get(3), 1);
        assert_eq!(a.get(17), 0);
        assert!(VersionVec::new().le(&a));
    }
}
