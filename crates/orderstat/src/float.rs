//! A totally ordered `f64` wrapper for real-valued attribute weights.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Neg, Sub};

/// An `f64` ordered by [`f64::total_cmp`], so it can key sorted
/// structures. The paper's weight functions map domain values to reals;
/// `TotalF64` is how those reals flow through the selection algorithms.
///
/// Equality is that order's: a NaN equals itself (bit for bit), and
/// `-0.0` differs from `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TotalF64(pub f64);

impl PartialEq for TotalF64 {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for TotalF64 {}

impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl Add for TotalF64 {
    type Output = TotalF64;
    fn add(self, rhs: TotalF64) -> TotalF64 {
        TotalF64(self.0 + rhs.0)
    }
}

impl Sub for TotalF64 {
    type Output = TotalF64;
    fn sub(self, rhs: TotalF64) -> TotalF64 {
        TotalF64(self.0 - rhs.0)
    }
}

impl Neg for TotalF64 {
    type Output = TotalF64;
    fn neg(self) -> TotalF64 {
        TotalF64(-self.0)
    }
}

impl Sum for TotalF64 {
    fn sum<I: Iterator<Item = TotalF64>>(iter: I) -> TotalF64 {
        TotalF64(iter.map(|w| w.0).sum())
    }
}

impl From<f64> for TotalF64 {
    fn from(v: f64) -> Self {
        TotalF64(v)
    }
}

impl From<i64> for TotalF64 {
    fn from(v: i64) -> Self {
        TotalF64(v as f64)
    }
}

impl fmt::Display for TotalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_sorts() {
        let mut v = [TotalF64(3.0), TotalF64(-1.5), TotalF64(0.0)];
        v.sort();
        assert_eq!(v, [TotalF64(-1.5), TotalF64(0.0), TotalF64(3.0)]);
    }

    #[test]
    fn arithmetic() {
        assert_eq!(TotalF64(1.5) + TotalF64(2.5), TotalF64(4.0));
        assert_eq!(TotalF64(1.5) - TotalF64(2.5), TotalF64(-1.0));
        assert_eq!(-TotalF64(2.0), TotalF64(-2.0));
        let s: TotalF64 = [TotalF64(1.0), TotalF64(2.0)].into_iter().sum();
        assert_eq!(s, TotalF64(3.0));
    }

    #[test]
    fn negative_zero_is_consistent() {
        // total_cmp puts -0.0 before 0.0; both directions must agree.
        assert!(TotalF64(-0.0) < TotalF64(0.0));
        assert!(TotalF64(0.0) > TotalF64(-0.0));
        // Equality agrees with the order.
        assert_ne!(TotalF64(-0.0), TotalF64(0.0));
        assert_eq!(TotalF64(f64::NAN), TotalF64(f64::NAN));
    }
}
