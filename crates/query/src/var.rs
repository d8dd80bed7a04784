//! Query variables and variable sets.
//!
//! Queries have constantly many variables in the paper's complexity model,
//! so variable sets are represented as a 128-bit bitset: subset tests,
//! unions, and intersections — the inner loops of every hypergraph
//! algorithm here — are single machine operations.

use std::fmt;

/// A query variable, an index into the query's variable-name table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

impl VarId {
    /// The index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Maximum number of distinct variables in one query.
pub(crate) const MAX_VARS: u32 = 128;

/// A set of query variables (bitset over [`VarId`]s).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarSet(u128);

impl VarSet {
    /// The empty set.
    pub const EMPTY: VarSet = VarSet(0);

    /// A singleton set.
    pub(crate) fn singleton(v: VarId) -> VarSet {
        VarSet::EMPTY.with(v)
    }

    /// `self ∪ {v}`.
    #[must_use]
    pub fn with(self, v: VarId) -> VarSet {
        assert!(
            v.0 < MAX_VARS,
            "queries are limited to {MAX_VARS} variables"
        );
        VarSet(self.0 | (1u128 << v.0))
    }

    /// `self ∖ {v}`.
    #[must_use]
    pub fn without(self, v: VarId) -> VarSet {
        VarSet(self.0 & !(1u128 << v.0))
    }

    /// Membership test.
    pub fn contains(self, v: VarId) -> bool {
        v.0 < MAX_VARS && (self.0 >> v.0) & 1 == 1
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: VarSet) -> VarSet {
        VarSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub(crate) fn intersect(self, other: VarSet) -> VarSet {
        VarSet(self.0 & other.0)
    }

    /// Set difference `self ∖ other`.
    #[must_use]
    pub fn minus(self, other: VarSet) -> VarSet {
        VarSet(self.0 & !other.0)
    }

    /// `self ⊆ other`.
    pub fn is_subset(self, other: VarSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// `self ∩ other ≠ ∅`.
    pub(crate) fn intersects(self, other: VarSet) -> bool {
        self.0 & other.0 != 0
    }

    /// Emptiness test.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Cardinality.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterate members in ascending [`VarId`] order.
    pub fn iter(self) -> impl Iterator<Item = VarId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let v = bits.trailing_zeros();
                bits &= bits - 1;
                Some(VarId(v))
            }
        })
    }
}

impl FromIterator<VarId> for VarSet {
    fn from_iter<I: IntoIterator<Item = VarId>>(iter: I) -> Self {
        iter.into_iter().fold(VarSet::EMPTY, VarSet::with)
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "v{}", v.0)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> VarSet {
        ids.iter().map(|&i| VarId(i)).collect()
    }

    #[test]
    fn basic_ops() {
        let a = set(&[0, 2, 5]);
        assert!(a.contains(VarId(2)));
        assert!(!a.contains(VarId(1)));
        assert_eq!(a.len(), 3);
        assert_eq!(a.without(VarId(2)), set(&[0, 5]));
    }

    #[test]
    fn union_intersect_minus() {
        let a = set(&[0, 1, 2]);
        let b = set(&[1, 2, 3]);
        assert_eq!(a.union(b), set(&[0, 1, 2, 3]));
        assert_eq!(a.intersect(b), set(&[1, 2]));
        assert_eq!(a.minus(b), set(&[0]));
    }

    #[test]
    fn subset_tests() {
        assert!(set(&[1]).is_subset(set(&[0, 1])));
        assert!(!set(&[2]).is_subset(set(&[0, 1])));
        assert!(VarSet::EMPTY.is_subset(VarSet::EMPTY));
        assert!(set(&[1]).intersects(set(&[1, 2])));
        assert!(!set(&[0]).intersects(set(&[1, 2])));
    }

    #[test]
    fn iter_ascending() {
        let ids: Vec<u32> = set(&[5, 0, 2]).iter().map(|v| v.0).collect();
        assert_eq!(ids, vec![0, 2, 5]);
    }

    #[test]
    fn high_bit_boundary() {
        let v = VarId(127);
        let s = VarSet::singleton(v);
        assert!(s.contains(v));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn over_limit_panics() {
        let _ = VarSet::singleton(VarId(128));
    }
}
