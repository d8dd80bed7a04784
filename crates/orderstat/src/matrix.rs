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

    /// Count cells < `bound` and cells ≤ `bound` in one staircase walk
    /// with two fronts, O(rows + cols).
    fn count_split(&self, bound: W) -> (u64, u64) {
        let (mut lt, mut leq) = (0u64, 0u64);
        // First columns with value ≥ bound and > bound: both fronts
        // only move left as the row value grows, `jl` never right of
        // `je`.
        let (mut jl, mut je) = (self.cols.len(), self.cols.len());
        for &r in &self.rows {
            while je > 0 && r + self.cols[je - 1] > bound {
                je -= 1;
            }
            jl = jl.min(je);
            while jl > 0 && r + self.cols[jl - 1] >= bound {
                jl -= 1;
            }
            if je == 0 {
                break;
            }
            lt += jl as u64;
            leq += je as u64;
        }
        (lt, leq)
    }

    /// Write into `out` (one slot per row) the half-open column ranges
    /// `[a_i, b_i)` of the cells with value in `(lo, hi]`; `None` bounds
    /// mean unbounded. Staircases are monotone: as the row value grows,
    /// both boundaries move left, so this is one walk, O(rows + cols).
    fn row_ranges(&self, lo: Option<W>, hi: Option<W>, out: &mut [(usize, usize)]) {
        let mut a = self.cols.len(); // first col with value > lo
        let mut b = self.cols.len(); // first col with value > hi
        for (&r, range) in self.rows.iter().zip(out) {
            while a > 0 && lo.is_none_or(|lo| r + self.cols[a - 1] > lo) {
                a -= 1;
            }
            while b > 0 && hi.is_some_and(|hi| r + self.cols[b - 1] > hi) {
                b -= 1;
            }
            *range = (a.min(b), b);
        }
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

/// The buffers one selection reuses across its pivot rounds.
struct Scratch<W> {
    /// A column range per row of every matrix, matrix after matrix.
    ranges: Vec<(usize, usize)>,
    /// The candidate values of the last round.
    values: Vec<W>,
}

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
        self.count_split(bound).1
    }

    /// Count cells < `bound` across the union.
    pub fn count_lt(&self, bound: W) -> u64 {
        self.count_split(bound).0
    }

    /// The k-th smallest cell value (0-indexed) across the union, or
    /// `None` if `k ≥ cell_count()`. Expected `O((rows+cols) · log N)`.
    pub fn select(&self, k: u64) -> Option<W> {
        self.select_pair(k, k).map(|(w, _)| w)
    }

    /// The `first`-th and the `last`-th smallest cell values — the two
    /// ends of a window of ranks —, or `None` unless
    /// `first ≤ last < cell_count()`. One selection: the pivot rounds
    /// that do not separate the two ranks serve both.
    ///
    /// Two allocations whatever the number of pivot rounds: one flat
    /// buffer of column ranges, a slot per row of every matrix, matrix
    /// after matrix, refilled each round; and the candidate values of
    /// the last round.
    pub fn select_pair(&self, first: u64, last: u64) -> Option<(W, W)> {
        if first > last || last >= self.cell_count() {
            return None;
        }
        let mut scratch = Scratch {
            ranges: vec![(0, 0); self.matrices.iter().map(|m| m.rows.len()).sum()],
            values: Vec::with_capacity(ENUMERATE_THRESHOLD as usize),
        };
        let [a, b] = self.select_within([first, last], None, 0, None, &mut scratch);
        Some((a, b))
    }

    /// The cell values at ranks `ks` (ascending), all known to lie in
    /// `(lo, hi]` (`None`: unbounded), with `below` cells at or under
    /// `lo`: randomized pivot rounds narrow the bracket until at most
    /// [`ENUMERATE_THRESHOLD`] candidates remain, which are sorted. A
    /// pivot that separates the two ranks finishes each on its own side.
    fn select_within(
        &self,
        ks: [u64; 2],
        mut lo: Option<W>,
        mut below: u64,
        mut hi: Option<W>,
        scratch: &mut Scratch<W>,
    ) -> [W; 2] {
        let mut rng = rand::rng();
        loop {
            let ranges = &mut scratch.ranges;
            let mut at = 0;
            for m in &self.matrices {
                m.row_ranges(lo, hi, &mut ranges[at..at + m.rows.len()]);
                at += m.rows.len();
            }
            let candidates: u64 = ranges.iter().map(|&(a, b)| (b - a) as u64).sum();
            debug_assert!(candidates > 0, "the answer lies strictly above lo");
            if candidates <= ENUMERATE_THRESHOLD {
                let values = &mut scratch.values;
                values.clear();
                for (m, i, (a, b)) in self.spans(ranges) {
                    values.extend((a..b).map(|j| m.cell(i, j)));
                }
                values.sort_unstable();
                return ks.map(|k| values[(k - below) as usize]);
            }
            // Random pivot among candidate cells.
            let mut target = rng.random_range(0..candidates) as usize;
            let (m, i, a) = self
                .spans(ranges)
                .find_map(|(m, i, (a, b))| match target.checked_sub(b - a) {
                    Some(rest) => {
                        target = rest;
                        None
                    }
                    None => Some((m, i, a)),
                })
                .expect("target < candidates");
            let p = m.cell(i, a + target);
            let (lt, leq) = self.count_split(p);
            let [first, last] = ks;
            if leq <= first {
                (lo, below) = (Some(p), leq);
            } else if lt > last {
                hi = Some(p);
            } else if lt <= first && last < leq {
                return [p, p]; // both ranks fall inside p's run of equals
            } else {
                // p separates the ranks: each is p itself, or lies on
                // its own side of p.
                let first = if lt <= first {
                    p
                } else {
                    self.select_within([first; 2], lo, below, Some(p), scratch)[0]
                };
                let last = if last < leq {
                    p
                } else {
                    self.select_within([last; 2], Some(p), leq, hi, scratch)[0]
                };
                return [first, last];
            }
        }
    }

    /// Count cells < `bound` and ≤ `bound` across the union, one walk
    /// per matrix.
    fn count_split(&self, bound: W) -> (u64, u64) {
        let counts = self.matrices.iter().map(|m| m.count_split(bound));
        counts.fold((0, 0), |(lt, leq), (l, e)| (lt + l, leq + e))
    }

    /// The column range of every row of every matrix in `ranges` (laid
    /// out as [`MatrixUnion::select`] fills them), as (matrix, row,
    /// range).
    fn spans<'a>(
        &'a self,
        ranges: &'a [(usize, usize)],
    ) -> impl Iterator<Item = (&'a SortedMatrix<W>, usize, (usize, usize))> + 'a {
        let per_matrix = self.matrices.iter().scan(0, move |at, m| {
            let mine = &ranges[*at..*at + m.rows.len()];
            *at += m.rows.len();
            Some((m, mine))
        });
        per_matrix.flat_map(|(m, mine)| mine.iter().enumerate().map(move |(i, &r)| (m, i, r)))
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
    fn pairs_of_ranks_match_single_selections() {
        // 120 x 90 cells with long runs of equal values: pivots land
        // between, on and beside the two ranks.
        let rows: Vec<i64> = (0..120).map(|i| i / 7).collect();
        let cols: Vec<i64> = (0..90).map(|j| j / 5).collect();
        let u = MatrixUnion::new(vec![
            SortedMatrix::new(rows.clone(), cols.clone()),
            SortedMatrix::new(cols, rows),
        ]);
        let all = naive_union(&[
            (&u.matrices[0].rows, &u.matrices[0].cols),
            (&u.matrices[1].rows, &u.matrices[1].cols),
        ]);
        for (first, last) in [
            (0, 0),
            (0, 50),
            (5_000, 5_049),
            (3_000, 18_000),
            (21_599, 21_599),
        ] {
            assert_eq!(
                u.select_pair(first, last),
                Some((all[first as usize], all[last as usize])),
                "{first}..={last}"
            );
        }
        assert_eq!(u.select_pair(7, 6), None);
        assert_eq!(u.select_pair(0, all.len() as u64), None);
        for bound in [-1, 0, 3, 17, 40, 100] {
            let below =
                |keep: fn(i64, i64) -> bool| all.iter().filter(|&&v| keep(v, bound)).count();
            assert_eq!(u.count_lt(bound), below(|v, b| v < b) as u64, "{bound}");
            assert_eq!(u.count_leq(bound), below(|v, b| v <= b) as u64, "{bound}");
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
