//! Selection on unions of implicit sorted matrices (the role of
//! Frederickson & Johnson \[21\] in the paper's Theorem 7.9).
//!
//! A [`SortedMatrix`] represents all pairwise sums `rows[i] + cols[j]`
//! of two ascending weight vectors without materializing them: rows and
//! columns are non-decreasing, so "count cells ≤ λ" is a single
//! staircase walk in O(rows + cols). A [`MatrixUnion`] is a collection
//! of such matrices; selecting the k-th smallest cell across the union
//! is exactly the SUM-selection subproblem of Lemma 7.10 (one matrix per
//! join-key bucket).
//!
//! ## Substitution note (documented in DESIGN.md)
//!
//! Frederickson–Johnson 1984 achieves the bound deterministically with
//! an intricate pruning scheme. We use randomized pivoting instead: pick
//! a uniformly random candidate cell, count cells below it (staircase
//! walks), and halve the candidate set in expectation. With `N ≤ n²`
//! cells this gives expected `O(n log n)` total — the same bound as the
//! paper's usage, with the same "never materialize the matrix" access
//! pattern.

use rand::Rng;
use std::ops::Add;

/// An implicit sorted matrix: cell `(i, j)` has value
/// `rows[i] + cols[j]`.
#[derive(Debug, Clone)]
pub struct SortedMatrix<W> {
    rows: Vec<W>,
    cols: Vec<W>,
}

impl<W: Copy + Ord + Add<Output = W>> SortedMatrix<W> {
    /// Build from ascending row and column vectors.
    ///
    /// # Panics
    /// Panics (debug only) if a vector is not sorted.
    pub fn new(rows: Vec<W>, cols: Vec<W>) -> Self {
        debug_assert!(rows.windows(2).all(|w| w[0] <= w[1]), "rows must be sorted");
        debug_assert!(cols.windows(2).all(|w| w[0] <= w[1]), "cols must be sorted");
        SortedMatrix { rows, cols }
    }

    /// Number of cells.
    pub(crate) fn cell_count(&self) -> u64 {
        self.rows.len() as u64 * self.cols.len() as u64
    }

    /// Count cells with value ≤ `bound` (or < `bound` when
    /// `strict`): one staircase walk, O(rows + cols).
    fn count_below(&self, bound: W, strict: bool) -> u64 {
        let mut count = 0u64;
        let mut j = self.cols.len();
        for &r in &self.rows {
            // Shrink j until rows[i] + cols[j-1] fits the bound.
            while j > 0 && {
                let v = r + self.cols[j - 1];
                if strict {
                    v >= bound
                } else {
                    v > bound
                }
            } {
                j -= 1;
            }
            if j == 0 {
                break;
            }
            count += j as u64;
        }
        count
    }

    /// Per-row half-open column ranges `[a_i, b_i)` of cells with value
    /// in `(lo, hi]`; `None` bounds mean unbounded.
    fn row_ranges(&self, lo: Option<W>, hi: Option<W>) -> Vec<(usize, usize)> {
        let mut ranges = Vec::with_capacity(self.rows.len());
        // Staircases are monotone: as the row value grows, both
        // boundaries move left.
        let mut a = self.cols.len(); // first col with value > lo
        let mut b = self.cols.len(); // first col with value > hi
        let mut prev_inited = false;
        for &r in &self.rows {
            if !prev_inited {
                a = match lo {
                    None => 0,
                    Some(lo) => self.cols.partition_point(|&c| r + c <= lo),
                };
                b = match hi {
                    None => self.cols.len(),
                    Some(hi) => self.cols.partition_point(|&c| r + c <= hi),
                };
                prev_inited = true;
            } else {
                while a > 0 && lo.is_none_or(|lo| r + self.cols[a - 1] > lo) {
                    a -= 1;
                }
                while a < self.cols.len() && lo.is_some_and(|lo| r + self.cols[a] <= lo) {
                    a += 1;
                }
                while b > 0 && hi.is_some_and(|hi| r + self.cols[b - 1] > hi) {
                    b -= 1;
                }
                while b < self.cols.len() && hi.is_none_or(|hi| r + self.cols[b] <= hi) {
                    b += 1;
                }
            }
            ranges.push((a.min(b), b));
        }
        ranges
    }

    /// Value of cell `(i, j)`.
    fn cell(&self, i: usize, j: usize) -> W {
        self.rows[i] + self.cols[j]
    }
}

/// A union of implicit sorted matrices supporting k-th smallest
/// selection across all cells.
#[derive(Debug, Clone)]
pub struct MatrixUnion<W> {
    matrices: Vec<SortedMatrix<W>>,
}

/// When at most this many candidate cells remain, enumerate and sort.
const ENUMERATE_THRESHOLD: u64 = 1024;

impl<W: Copy + Ord + Add<Output = W>> MatrixUnion<W> {
    /// Build from matrices (empty ones are allowed and ignored).
    pub fn new(matrices: Vec<SortedMatrix<W>>) -> Self {
        MatrixUnion { matrices }
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        self.matrices.iter().map(SortedMatrix::cell_count).sum()
    }

    /// Count cells ≤ `bound` across the union.
    pub fn count_leq(&self, bound: W) -> u64 {
        self.matrices
            .iter()
            .map(|m| m.count_below(bound, false))
            .sum()
    }

    /// Count cells < `bound` across the union.
    pub fn count_lt(&self, bound: W) -> u64 {
        self.matrices
            .iter()
            .map(|m| m.count_below(bound, true))
            .sum()
    }

    /// The k-th smallest cell value (0-indexed) across the union, or
    /// `None` if `k ≥ cell_count()`. Expected `O((rows+cols) · log N)`.
    pub fn select(&self, k: u64) -> Option<W> {
        if k >= self.cell_count() {
            return None;
        }
        let mut rng = rand::rng();
        let mut lo: Option<W> = None; // count_leq(lo) ≤ k
        let mut hi: Option<W> = None; // count_leq(hi) > k (None = +∞)
        loop {
            let ranges: Vec<Vec<(usize, usize)>> =
                self.matrices.iter().map(|m| m.row_ranges(lo, hi)).collect();
            let candidates: u64 = ranges.iter().flatten().map(|&(a, b)| (b - a) as u64).sum();
            debug_assert!(candidates > 0, "the answer lies strictly above lo");
            if candidates <= ENUMERATE_THRESHOLD {
                let mut values: Vec<W> = Vec::with_capacity(candidates as usize);
                for (m, mr) in self.matrices.iter().zip(&ranges) {
                    for (i, &(a, b)) in mr.iter().enumerate() {
                        for j in a..b {
                            values.push(m.cell(i, j));
                        }
                    }
                }
                values.sort_unstable();
                let below = match lo {
                    None => 0,
                    Some(lo) => self.count_leq(lo),
                };
                return Some(values[(k - below) as usize]);
            }
            // Random pivot among candidate cells.
            let mut target = rng.random_range(0..candidates);
            let mut pivot: Option<W> = None;
            'outer: for (m, mr) in self.matrices.iter().zip(&ranges) {
                for (i, &(a, b)) in mr.iter().enumerate() {
                    let len = (b - a) as u64;
                    if target < len {
                        pivot = Some(m.cell(i, a + target as usize));
                        break 'outer;
                    }
                    target -= len;
                }
            }
            let p = pivot.expect("target < candidates");
            let c_leq = self.count_leq(p);
            if c_leq <= k {
                lo = Some(p);
            } else if self.count_lt(p) <= k {
                return Some(p); // rank k falls inside p's run of equals
            } else {
                hi = Some(p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::TotalF64;

    fn naive_union(mats: &[(&[i64], &[i64])]) -> Vec<i64> {
        let mut all = Vec::new();
        for (rows, cols) in mats {
            for &r in *rows {
                for &c in *cols {
                    all.push(r + c);
                }
            }
        }
        all.sort_unstable();
        all
    }

    fn union_of(mats: &[(&[i64], &[i64])]) -> MatrixUnion<i64> {
        MatrixUnion::new(
            mats.iter()
                .map(|(r, c)| SortedMatrix::new(r.to_vec(), c.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn single_matrix_all_ranks() {
        let mats: &[(&[i64], &[i64])] = &[(&[1, 3, 5], &[0, 10, 20, 30])];
        let u = union_of(mats);
        let expect = naive_union(mats);
        assert_eq!(u.cell_count(), 12);
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(u.select(k as u64), Some(e), "k={k}");
        }
        assert_eq!(u.select(12), None);
    }

    #[test]
    fn union_with_duplicates() {
        let mats: &[(&[i64], &[i64])] = &[(&[0, 0, 1], &[0, 1]), (&[2], &[0, 0, 0]), (&[-5], &[5])];
        let u = union_of(mats);
        let expect = naive_union(mats);
        for (k, &e) in expect.iter().enumerate() {
            assert_eq!(u.select(k as u64), Some(e), "k={k}");
        }
    }

    #[test]
    fn empty_matrices_are_ignored() {
        let mats: &[(&[i64], &[i64])] = &[(&[], &[1, 2]), (&[3], &[]), (&[1], &[1])];
        let u = union_of(mats);
        assert_eq!(u.cell_count(), 1);
        assert_eq!(u.select(0), Some(2));
    }

    #[test]
    fn count_leq_and_lt() {
        let u = union_of(&[(&[1, 2], &[10, 20])]);
        // cells: 11, 21, 12, 22
        assert_eq!(u.count_leq(11), 1);
        assert_eq!(u.count_lt(11), 0);
        assert_eq!(u.count_leq(21), 3);
        assert_eq!(u.count_lt(21), 2);
        assert_eq!(u.count_leq(100), 4);
    }

    #[test]
    fn float_weights() {
        let rows: Vec<TotalF64> = [0.5, 1.5].iter().map(|&v| TotalF64(v)).collect();
        let cols: Vec<TotalF64> = [-1.0, 0.0, 2.0].iter().map(|&v| TotalF64(v)).collect();
        let u = MatrixUnion::new(vec![SortedMatrix::new(rows, cols)]);
        // cells: -0.5, 0.5, 2.5, 0.5, 1.5, 3.5 sorted: -0.5, 0.5, 0.5, 1.5, 2.5, 3.5
        assert_eq!(u.select(0), Some(TotalF64(-0.5)));
        assert_eq!(u.select(2), Some(TotalF64(0.5)));
        assert_eq!(u.select(5), Some(TotalF64(3.5)));
    }

    #[test]
    fn large_random_cross_check() {
        let mut rng = rand::rng();
        for _ in 0..10 {
            let nm = 1 + rand::Rng::random_range(&mut rng, 0..4usize);
            let mut mats = Vec::new();
            for _ in 0..nm {
                let rl = rand::Rng::random_range(&mut rng, 1..40usize);
                let cl = rand::Rng::random_range(&mut rng, 1..40usize);
                let mut rows: Vec<i64> = (0..rl)
                    .map(|_| rand::Rng::random_range(&mut rng, -50..50))
                    .collect();
                let mut cols: Vec<i64> = (0..cl)
                    .map(|_| rand::Rng::random_range(&mut rng, -50..50))
                    .collect();
                rows.sort_unstable();
                cols.sort_unstable();
                mats.push(SortedMatrix::new(rows, cols));
            }
            let u = MatrixUnion::new(mats.clone());
            let mut all: Vec<i64> = Vec::new();
            for m in &mats {
                for i in 0..m.rows.len() {
                    for j in 0..m.cols.len() {
                        all.push(m.cell(i, j));
                    }
                }
            }
            all.sort_unstable();
            for probe in 0..20 {
                let k = (probe * all.len() / 20) as u64;
                assert_eq!(u.select(k), Some(all[k as usize]));
            }
            assert_eq!(u.select(all.len() as u64), None);
        }
    }

    #[test]
    fn forces_pivot_loop_beyond_threshold() {
        // 200 x 200 = 40_000 cells forces several pivot rounds.
        let rows: Vec<i64> = (0..200).map(|i| i * 3).collect();
        let cols: Vec<i64> = (0..200).map(|i| i * 7).collect();
        let u = MatrixUnion::new(vec![SortedMatrix::new(rows.clone(), cols.clone())]);
        let mut all: Vec<i64> = rows
            .iter()
            .flat_map(|r| cols.iter().map(move |c| r + c))
            .collect();
        all.sort_unstable();
        for k in [0usize, 1, 777, 20_000, 39_999] {
            assert_eq!(u.select(k as u64), Some(all[k]), "k={k}");
        }
    }
}
