//! Relations: named sets of tuples plus the relational operators the
//! value-level preprocessing uses (projection, filtering, semijoin,
//! join, sorting). All operators are linear or quasilinear in the number
//! of tuples, matching the paper's complexity accounting.

use crate::tuple::Tuple;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A named relation with fixed arity and set semantics.
///
/// Set semantics are maintained lazily: constructors accept duplicates and
/// [`Relation::normalize`] (sort + dedup) restores canonical form. All
/// consumers in `rda-core` normalize before building access structures.
///
/// Row order carries no meaning. [`Relation::insert`] appends, but
/// [`Database::delete_from`](crate::Database::delete_from) moves the
/// last row into each hole it leaves, so after a delete the order of
/// the rows is unspecified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Relation {
    name: String,
    arity: usize,
    tuples: Vec<Tuple>,
}

impl Relation {
    /// An empty relation with the given name and arity.
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation {
            name: name.into(),
            arity,
            tuples: Vec::new(),
        }
    }

    /// Build from tuples, checking arity.
    ///
    /// # Panics
    /// Panics if a tuple's arity differs from `arity`.
    pub fn from_tuples(name: impl Into<String>, arity: usize, tuples: Vec<Tuple>) -> Self {
        let name = name.into();
        for t in &tuples {
            assert_eq!(
                t.arity(),
                arity,
                "tuple {t} has arity {} but relation {name} expects {arity}",
                t.arity()
            );
        }
        Relation {
            name,
            arity,
            tuples,
        }
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples currently stored (duplicates included until
    /// [`Relation::normalize`] runs).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// `true` if no tuples are stored.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The tuples as a slice.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Add one tuple.
    ///
    /// # Panics
    /// Panics on arity mismatch.
    pub fn insert(&mut self, t: Tuple) {
        assert_eq!(
            t.arity(),
            self.arity,
            "arity mismatch inserting into {}",
            self.name
        );
        self.tuples.push(t);
    }

    /// Remove every occurrence of `t`, returning how many were removed.
    pub fn remove(&mut self, t: &Tuple) -> u64 {
        let before = self.tuples.len();
        self.tuples.retain(|x| x != t);
        (before - self.tuples.len()) as u64
    }

    /// Remove the row at position `i`, moving the last row into its
    /// place: O(1), and the order of the rows changes.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub(crate) fn swap_remove(&mut self, i: usize) -> Tuple {
        self.tuples.swap_remove(i)
    }

    /// Sort lexicographically and remove duplicates (set semantics).
    pub fn normalize(&mut self) {
        self.tuples.sort_unstable();
        self.tuples.dedup();
    }

    /// `true` when the tuples are already sorted and duplicate-free —
    /// i.e. [`Relation::normalize`] would be a no-op.
    pub(crate) fn is_normalized(&self) -> bool {
        self.tuples.windows(2).all(|w| w[0] < w[1])
    }

    /// Rename this relation.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Projection π onto `positions` (deduplicated).
    pub fn project(&self, name: impl Into<String>, positions: &[usize]) -> Relation {
        let mut out = Relation {
            name: name.into(),
            arity: positions.len(),
            tuples: self.tuples.iter().map(|t| t.project(positions)).collect(),
        };
        out.normalize();
        out
    }

    /// Keep only tuples satisfying `pred`.
    pub fn retain(&mut self, mut pred: impl FnMut(&Tuple) -> bool) {
        self.tuples.retain(|t| pred(t));
    }

    /// Semijoin ⋉: keep tuples of `self` whose projection onto
    /// `self_keys` appears in `other` projected onto `other_keys`.
    ///
    /// # Panics
    /// Panics if the two key lists have different lengths.
    pub fn semijoin(&mut self, self_keys: &[usize], other: &Relation, other_keys: &[usize]) {
        assert_eq!(
            self_keys.len(),
            other_keys.len(),
            "semijoin key length mismatch"
        );
        let keys: HashSet<Tuple> = other.tuples.iter().map(|t| t.project(other_keys)).collect();
        self.tuples.retain(|t| keys.contains(&t.project(self_keys)));
    }

    /// Natural join on explicit key positions. Output schema is
    /// `self`'s attributes followed by `other`'s non-key attributes.
    pub fn join(
        &self,
        name: impl Into<String>,
        self_keys: &[usize],
        other: &Relation,
        other_keys: &[usize],
    ) -> Relation {
        assert_eq!(
            self_keys.len(),
            other_keys.len(),
            "join key length mismatch"
        );
        let other_rest: Vec<usize> = (0..other.arity)
            .filter(|p| !other_keys.contains(p))
            .collect();
        let mut index: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
        for t in &other.tuples {
            index.entry(t.project(other_keys)).or_default().push(t);
        }
        let mut tuples = Vec::new();
        for t in &self.tuples {
            if let Some(matches) = index.get(&t.project(self_keys)) {
                for m in matches {
                    tuples.push(t.concat(&m.project(&other_rest)));
                }
            }
        }
        Relation {
            name: name.into(),
            arity: self.arity + other_rest.len(),
            tuples,
        }
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} (arity {}, {} tuples):",
            self.name,
            self.arity,
            self.tuples.len()
        )?;
        for t in &self.tuples {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tup;

    fn r() -> Relation {
        Relation::from_tuples("R", 2, vec![tup![1, 5], tup![1, 2], tup![6, 2], tup![1, 2]])
    }

    #[test]
    fn normalize_sorts_and_dedups() {
        let mut rel = r();
        rel.normalize();
        assert_eq!(rel.tuples(), &[tup![1, 2], tup![1, 5], tup![6, 2]]);
    }

    #[test]
    fn project_dedups() {
        let p = r().project("P", &[0]);
        assert_eq!(p.tuples(), &[tup![1], tup![6]]);
        assert_eq!(p.arity(), 1);
    }

    #[test]
    fn semijoin_keeps_matching() {
        let mut rel = r();
        let s = Relation::from_tuples("S", 2, vec![tup![5, 3], tup![5, 4]]);
        // keep R tuples whose y (pos 1) occurs as S's first column
        rel.semijoin(&[1], &s, &[0]);
        assert_eq!(rel.tuples(), &[tup![1, 5]]);
    }

    #[test]
    fn join_is_natural_join() {
        let rel = Relation::from_tuples("R", 2, vec![tup![1, 5], tup![1, 2]]);
        let s = Relation::from_tuples("S", 2, vec![tup![5, 3], tup![2, 9], tup![5, 4]]);
        let mut j = rel.join("J", &[1], &s, &[0]);
        j.normalize();
        assert_eq!(j.tuples(), &[tup![1, 2, 9], tup![1, 5, 3], tup![1, 5, 4]]);
    }

    #[test]
    fn join_empty_keys_is_cartesian_product() {
        let rel = Relation::from_tuples("R", 1, vec![tup![1], tup![2]]);
        let s = Relation::from_tuples("S", 1, vec![tup![8], tup![9]]);
        let mut j = rel.join("J", &[], &s, &[]);
        j.normalize();
        assert_eq!(j.len(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_checked_on_insert() {
        let mut rel = Relation::new("R", 2);
        rel.insert(tup![1]);
    }
}
