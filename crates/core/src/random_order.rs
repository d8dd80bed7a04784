//! Random-order enumeration and quantile utilities on top of direct
//! access (Section 1 and Section 2.5's applications; Carmeli et
//! al. \[15\]).
//!
//! A direct-access structure turns the answer set into a virtual sorted
//! array, which immediately yields:
//!
//! * **uniform random-order enumeration** ([`RandomOrderEnumerator`],
//!   over any [`DirectAccess`] plan or structure): a lazily materialized
//!   Fisher–Yates permutation over indices gives a provably uniform
//!   random permutation of the answers with one access of delay and
//!   O(emitted) memory — sampling *without replacement*
//!   (`examples/random_permutation.rs`);
//! * **quantiles** ([`Quantiles`]): the φ-quantile is one access;
//! * **range counting/reporting** between two (possibly non-answer)
//!   tuples via the rank machinery of Remark 3.

use crate::lexda::LexDirectAccess;
use crate::plan::DirectAccess;
use rand::Rng;
use rda_db::Tuple;
use std::collections::HashMap;

/// Uniform random-order enumeration without replacement, over the
/// answers of any [`DirectAccess`] backend.
///
/// Keeps a sparse Fisher–Yates state: only the O(#emitted) swapped
/// positions are stored, so streaming a short prefix of a huge answer
/// set stays cheap — the property that makes prefixes statistically
/// valid samples.
pub struct RandomOrderEnumerator<'a, D: DirectAccess + ?Sized, R: Rng> {
    da: &'a D,
    rng: R,
    swaps: HashMap<u64, u64>,
    next: u64,
}

impl<'a, D: DirectAccess + ?Sized, R: Rng> RandomOrderEnumerator<'a, D, R> {
    /// Start a fresh uniform permutation over `da`'s answers.
    pub fn new(da: &'a D, rng: R) -> Self {
        RandomOrderEnumerator {
            da,
            rng,
            swaps: HashMap::new(),
            next: 0,
        }
    }

    /// Answers left to emit.
    pub(crate) fn remaining(&self) -> u64 {
        self.da.len() - self.next
    }

    fn slot(&self, i: u64) -> u64 {
        *self.swaps.get(&i).unwrap_or(&i)
    }
}

impl<D: DirectAccess + ?Sized, R: Rng> Iterator for RandomOrderEnumerator<'_, D, R> {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        let n = self.da.len();
        if self.next >= n {
            return None;
        }
        // Fisher–Yates step i: swap position i with uniform j in [i, n).
        let i = self.next;
        let j = self.rng.random_range(i..n);
        let vi = self.slot(i);
        let vj = self.slot(j);
        self.swaps.insert(j, vi);
        self.swaps.remove(&i);
        self.next += 1;
        Some(self.da.access(vj).expect("permutation index in range"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining() as usize;
        (r, Some(r))
    }
}

/// Quantile and range statistics over the virtual sorted answer array.
pub trait Quantiles {
    /// The φ-quantile answer, `0.0 ≤ phi ≤ 1.0` (`phi = 0.5` is the
    /// median). `None` when there are no answers.
    fn quantile(&self, phi: f64) -> Option<Tuple>;

    /// The median answer.
    fn median(&self) -> Option<Tuple> {
        self.quantile(0.5)
    }

    /// Number of answers `t` with `lo ≤ t < hi` in the structure's
    /// order. The bounds need not be answers themselves (Remark 3's
    /// rank machinery). `None` if a bound cannot be ranked (e.g. an
    /// FD-underdetermined tuple).
    fn range_count(&self, lo: &Tuple, hi: &Tuple) -> Option<u64>;

    /// The answers in `[lo, hi)`, in order.
    fn range(&self, lo: &Tuple, hi: &Tuple) -> Vec<Tuple>;
}

impl Quantiles for LexDirectAccess {
    fn quantile(&self, phi: f64) -> Option<Tuple> {
        if self.is_empty() {
            return None;
        }
        let phi = phi.clamp(0.0, 1.0);
        let k = ((self.len() - 1) as f64 * phi).round() as u64;
        self.access(k)
    }

    fn range_count(&self, lo: &Tuple, hi: &Tuple) -> Option<u64> {
        let lo_rank = self.rank_of_lower_bound(lo)?;
        let hi_rank = self.rank_of_lower_bound(hi)?;
        Some(hi_rank.saturating_sub(lo_rank))
    }

    fn range(&self, lo: &Tuple, hi: &Tuple) -> Vec<Tuple> {
        let (Some(lo_rank), Some(hi_rank)) =
            (self.rank_of_lower_bound(lo), self.rank_of_lower_bound(hi))
        else {
            return Vec::new();
        };
        self.access_range(lo_rank..hi_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rda_db::{tup, Database};
    use rda_query::parser::parse;
    use rda_query::FdSet;

    fn build() -> LexDirectAccess {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
        LexDirectAccess::build(&q, &db, &q.vars(&["x", "y", "z"]), &FdSet::empty()).unwrap()
    }

    #[test]
    fn permutation_is_complete_and_duplicate_free() {
        let da = build();
        let rng = rand::rngs::StdRng::seed_from_u64(5);
        let e = RandomOrderEnumerator::new(&da, rng);
        let mut got: Vec<Tuple> = e.collect();
        assert_eq!(got.len() as u64, da.len());
        got.sort();
        got.dedup();
        assert_eq!(got.len() as u64, da.len());
    }

    #[test]
    fn permutation_is_roughly_uniform() {
        // Over many trials, each answer appears first ~1/5 of the time.
        let da = build();
        let mut first_counts: HashMap<Tuple, u32> = HashMap::new();
        let trials = 4000;
        for seed in 0..trials {
            let rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut e = RandomOrderEnumerator::new(&da, rng);
            *first_counts.entry(e.next().unwrap()).or_insert(0) += 1;
        }
        assert_eq!(first_counts.len() as u64, da.len());
        for (t, c) in first_counts {
            let p = f64::from(c) / trials as f64;
            assert!(
                (p - 0.2).abs() < 0.05,
                "answer {t} appeared first with p={p}"
            );
        }
    }

    #[test]
    fn remaining_and_size_hint() {
        let da = build();
        let rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut e = RandomOrderEnumerator::new(&da, rng);
        assert_eq!(e.remaining(), 5);
        assert_eq!(e.size_hint(), (5, Some(5)));
        e.next();
        assert_eq!(e.remaining(), 4);
    }

    #[test]
    fn quantiles_hit_expected_indices() {
        let da = build();
        assert_eq!(da.quantile(0.0), da.access(0));
        assert_eq!(da.median(), da.access(2));
        assert_eq!(da.quantile(1.0), da.access(4));
        assert_eq!(da.quantile(2.0), da.access(4)); // clamped
    }

    #[test]
    fn range_counting_between_non_answers() {
        let da = build();
        // Figure 2b order: (1,2,5) (1,5,3) (1,5,4) (1,5,6) (6,2,5).
        assert_eq!(da.range_count(&tup![1, 5, 0], &tup![1, 5, 9]), Some(3));
        assert_eq!(da.range_count(&tup![0, 0, 0], &tup![9, 9, 9]), Some(5));
        assert_eq!(da.range_count(&tup![2, 0, 0], &tup![6, 0, 0]), Some(0));
        let r = da.range(&tup![1, 5, 0], &tup![1, 5, 9]);
        assert_eq!(r, vec![tup![1, 5, 3], tup![1, 5, 4], tup![1, 5, 6]]);
    }

    #[test]
    fn empty_structure_yields_nothing() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let da =
            LexDirectAccess::build(&q, &db, &q.vars(&["x", "y", "z"]), &FdSet::empty()).unwrap();
        assert_eq!(da.quantile(0.5), None);
        let rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(RandomOrderEnumerator::new(&da, rng).count(), 0);
    }
}
