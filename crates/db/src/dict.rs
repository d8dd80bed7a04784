//! Order-preserving value dictionaries.
//!
//! The direct-access structures of the paper spend their whole life
//! comparing domain values: every layer descent is a binary search and
//! every bucket boundary is a comparison. Comparing [`Value`]s walks an
//! enum (and, for strings and pairs, pointers); comparing `u32`s is one
//! instruction. Since the active domain is static once a structure is
//! built, we intern it up front: a [`Dictionary`] assigns each distinct
//! value a dense `u32` code such that **code order equals value order**.
//! Downstream, relations become columnar `u32` arrays
//! ([`crate::EncodedRelation`]) and the access structures never touch a
//! [`Value`] again until an answer tuple is emitted.

use crate::tuple::Tuple;
use crate::value::Value;
use std::collections::HashMap;

/// An order-preserving interner for a static set of [`Value`]s.
///
/// Codes are dense (`0..len`) and **monotone**: for values `a`, `b`
/// interned as `ca`, `cb`, `a < b ⇔ ca < cb`. This is what lets the
/// access structures replace every value comparison by an integer
/// comparison without changing any order-sensitive result.
///
/// ```
/// use rda_db::{Database, Value};
///
/// let snap = Database::new().with_i64_rows("R", 1, vec![vec![30], vec![10], vec![20]]).freeze();
/// let dict = snap.dict();
/// assert_eq!(dict.len(), 3);
/// assert_eq!(dict.code(&Value::int(10)), Some(0));
/// assert_eq!(dict.code(&Value::int(30)), Some(2));
/// assert_eq!(dict.value(1), &Value::int(20));
/// // Values outside the interned set still get a consistent bound.
/// assert_eq!(dict.lower_bound(&Value::int(15)), (1, false));
/// assert_eq!(dict.lower_bound(&Value::int(20)), (1, true));
/// assert_eq!(dict.lower_bound(&Value::int(99)), (3, false));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    /// Interned values, ascending; the code of `values[i]` is `i`.
    values: Vec<Value>,
    /// Reverse map for O(1) encoding.
    codes: HashMap<Value, u32>,
}

impl Dictionary {
    /// Intern the distinct values of `iter`. O(m log m).
    ///
    /// # Panics
    /// Panics if the number of distinct values exceeds `u32::MAX`
    /// (the paper's `n` is a tuple count; domains that large do not fit
    /// in memory long before the code space runs out).
    pub(crate) fn from_values(iter: impl IntoIterator<Item = Value>) -> Self {
        let mut values: Vec<Value> = iter.into_iter().collect();
        values.sort_unstable();
        values.dedup();
        assert!(
            values.len() <= u32::MAX as usize,
            "active domain exceeds the u32 code space"
        );
        let codes = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary { values, codes }
    }

    /// Rebuild a dictionary from values already sorted ascending and
    /// distinct — the [`crate::persist`] open path, which validates the
    /// order before calling (skipping the O(m log m) re-sort).
    pub(crate) fn from_sorted(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        assert!(
            values.len() <= u32::MAX as usize,
            "active domain exceeds the u32 code space"
        );
        let codes = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.clone(), i as u32))
            .collect();
        Dictionary { values, codes }
    }

    /// Intern every value appearing in `rels`.
    pub(crate) fn from_relations<'a>(rels: impl IntoIterator<Item = &'a crate::Relation>) -> Self {
        Self::from_values(
            rels.into_iter()
                .flat_map(|r| r.tuples().iter().flat_map(|t| t.iter().cloned())),
        )
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when nothing is interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The code of `v`, or `None` when `v` was not interned. O(1),
    /// allocation-free.
    pub fn code(&self, v: &Value) -> Option<u32> {
        self.codes.get(v).copied()
    }

    /// The value behind `code`.
    ///
    /// # Panics
    /// Panics if `code` was never assigned.
    pub fn value(&self, code: u32) -> &Value {
        &self.values[code as usize]
    }

    /// The first code whose value is `≥ v`, and whether it equals `v`
    /// exactly. Returns `(len, false)` when every interned value is
    /// `< v`. O(log m), allocation-free.
    ///
    /// Because codes are monotone, an interned code `e` satisfies
    /// `value(e) < v` iff `e < lower_bound(v).0` — the bridge that lets
    /// rank queries for *arbitrary* (possibly non-interned) tuples run
    /// entirely in code space.
    pub fn lower_bound(&self, v: &Value) -> (u32, bool) {
        let idx = self.values.partition_point(|x| x < v);
        let exact = idx < self.values.len() && &self.values[idx] == v;
        (idx as u32, exact)
    }

    /// Encode a tuple component-wise into `out` (cleared first).
    /// Returns `false` (leaving `out` in an unspecified state) when some
    /// component is not interned. Allocation-free once `out` has
    /// capacity for the tuple's arity.
    pub fn encode_tuple_into(&self, t: &Tuple, out: &mut Vec<u32>) -> bool {
        out.clear();
        for v in t.iter() {
            match self.code(v) {
                Some(c) => out.push(c),
                None => return false,
            }
        }
        true
    }

    /// Extend this dictionary with `extra` values, keeping codes dense
    /// and order-preserving, and report how the old code space fared —
    /// the dictionary half of
    /// [`Snapshot::freeze_delta`](crate::Snapshot::freeze_delta).
    ///
    /// Three outcomes, from cheapest to dearest:
    ///
    /// * [`DictDelta::Unchanged`] — every value was already interned;
    ///   the old dictionary serves the new generation as-is.
    /// * [`DictDelta::Extended`] — every new value sorts **after** every
    ///   interned one, so fresh codes are appended at the top of the
    ///   code space and *existing codes are untouched*: encodings made
    ///   under the old dictionary remain valid verbatim.
    /// * [`DictDelta::Rebased`] — some new value lands between interned
    ///   ones. Codes are re-assigned densely; the returned `remap`
    ///   (`remap[old_code] = new_code`, strictly monotone) lets old
    ///   encodings be upgraded by a pure integer gather
    ///   ([`crate::EncodedRelation::remapped`]) — never by re-encoding.
    ///
    /// Cost: O(|extra| log |extra| + m) — no re-sort of the old values
    /// (they are merged, already ordered), no re-hash of any relation
    /// cell and, on every arm, no re-hash of an old value: the code map
    /// is copied as laid out (a rebase moves its codes through the
    /// remap in place) and only `extra` is hashed into it.
    ///
    /// # Panics
    /// Panics if the union would exceed the `u32` code space.
    pub(crate) fn extend(&self, extra: impl IntoIterator<Item = Value>) -> DictDelta {
        let mut add: Vec<Value> = extra
            .into_iter()
            .filter(|v| self.code(v).is_none())
            .collect();
        add.sort_unstable();
        add.dedup();
        if add.is_empty() {
            return DictDelta::Unchanged;
        }
        assert!(
            self.values.len() + add.len() <= u32::MAX as usize,
            "active domain exceeds the u32 code space"
        );
        if self.values.last().is_none_or(|last| *last < add[0]) {
            // Monotone append: old codes stay stable.
            let mut values = self.values.clone();
            let mut codes = self.codes.clone();
            for v in add {
                codes.insert(v.clone(), values.len() as u32);
                values.push(v);
            }
            return DictDelta::Extended(Dictionary { values, codes });
        }
        // Interior values: merge the two sorted runs and record where
        // each old code moved and where each new value landed.
        let mut values: Vec<Value> = Vec::with_capacity(self.values.len() + add.len());
        let mut remap: Vec<u32> = Vec::with_capacity(self.values.len());
        let mut added: Vec<u32> = Vec::with_capacity(add.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.values.len() || j < add.len() {
            let take_old = j >= add.len() || (i < self.values.len() && self.values[i] < add[j]);
            if take_old {
                remap.push(values.len() as u32);
                values.push(self.values[i].clone());
                i += 1;
            } else {
                added.push(values.len() as u32);
                values.push(add[j].clone());
                j += 1;
            }
        }
        // The old map keeps its layout: every old code moves through
        // the remap in place, and only the new values are hashed.
        let mut codes = self.codes.clone();
        for c in codes.values_mut() {
            *c = remap[*c as usize];
        }
        codes.extend(add.into_iter().zip(added));
        DictDelta::Rebased {
            dict: Dictionary { values, codes },
            remap,
        }
    }
}

/// Outcome of [`Dictionary::extend`]: what a monotone domain extension
/// did to the existing code space.
#[derive(Debug, Clone)]
pub(crate) enum DictDelta {
    /// No new values; keep using the old dictionary.
    Unchanged,
    /// New codes appended at the top; existing codes are stable, so
    /// encodings made under the old dictionary remain valid.
    Extended(Dictionary),
    /// Codes were re-assigned. `remap[old_code] = new_code` is strictly
    /// monotone, so old encodings upgrade by a gather that preserves
    /// row order, sortedness and distinctness.
    Rebased {
        /// The rebased dictionary.
        dict: Dictionary,
        /// Old code → new code, strictly increasing.
        remap: Vec<u32>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict() -> Dictionary {
        Dictionary::from_values([
            Value::int(5),
            Value::int(1),
            Value::str("a"),
            Value::int(5), // duplicate
        ])
    }

    #[test]
    fn codes_are_dense_and_order_preserving() {
        let d = dict();
        assert_eq!(d.len(), 3);
        // Ints precede strings (Value's total order).
        assert_eq!(d.code(&Value::int(1)), Some(0));
        assert_eq!(d.code(&Value::int(5)), Some(1));
        assert_eq!(d.code(&Value::str("a")), Some(2));
        assert_eq!(d.code(&Value::int(7)), None);
        for c in 0..3u32 {
            assert_eq!(d.code(d.value(c)), Some(c));
        }
    }

    #[test]
    fn lower_bound_brackets_missing_values() {
        let d = dict();
        assert_eq!(d.lower_bound(&Value::int(0)), (0, false));
        assert_eq!(d.lower_bound(&Value::int(1)), (0, true));
        assert_eq!(d.lower_bound(&Value::int(3)), (1, false));
        assert_eq!(d.lower_bound(&Value::str("z")), (3, false));
    }

    #[test]
    fn encode_tuple_into_reports_unknown_values() {
        let d = dict();
        let mut buf = Vec::new();
        assert!(d.encode_tuple_into(&crate::tup![5, 1], &mut buf));
        assert_eq!(buf, vec![1, 0]);
        assert!(!d.encode_tuple_into(&crate::tup![5, 99], &mut buf));
    }

    #[test]
    fn extend_with_known_values_is_unchanged() {
        let d = dict();
        assert!(matches!(
            d.extend([Value::int(1), Value::int(5), Value::int(5)]),
            DictDelta::Unchanged
        ));
    }

    #[test]
    fn extend_appends_when_values_sort_last() {
        let d = dict(); // {1, 5, "a"}
        let DictDelta::Extended(e) = d.extend([Value::str("z"), Value::str("m")]) else {
            panic!("values past the top must append");
        };
        // Old codes stable, new codes dense above them, order preserved.
        for c in 0..3u32 {
            assert_eq!(e.value(c), d.value(c));
        }
        assert_eq!(e.code(&Value::str("m")), Some(3));
        assert_eq!(e.code(&Value::str("z")), Some(4));
        assert_eq!(e.len(), 5);
        // The empty dictionary extends by append too.
        assert!(matches!(
            Dictionary::default().extend([Value::int(3)]),
            DictDelta::Extended(_)
        ));
    }

    #[test]
    fn extend_rebases_interior_values_with_monotone_remap() {
        let d = dict(); // {1, 5, "a"}
        let DictDelta::Rebased { dict: r, remap } =
            d.extend([Value::int(3), Value::int(9), Value::int(3)])
        else {
            panic!("interior values must rebase");
        };
        // New order: 1, 3, 5, 9, "a".
        assert_eq!(r.len(), 5);
        assert_eq!(r.code(&Value::int(3)), Some(1));
        assert_eq!(r.code(&Value::int(9)), Some(3));
        assert_eq!(remap, vec![0, 2, 4]);
        // The remap is exactly "where did my value go".
        for (old, &new) in remap.iter().enumerate() {
            assert_eq!(r.value(new), d.value(old as u32));
        }
        assert!(remap.windows(2).all(|w| w[0] < w[1]), "strictly monotone");
    }

    #[test]
    fn from_relations_unions_all_columns() {
        let r = crate::Relation::from_tuples("R", 2, vec![crate::tup![1, 5], crate::tup![6, 2]]);
        let d = Dictionary::from_relations([&r]);
        assert_eq!(d.len(), 4);
        assert_eq!(d.code(&Value::int(6)), Some(3));
    }
}
