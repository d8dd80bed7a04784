//! Selection on unions of implicit sorted matrices (the role of
//! Frederickson & Johnson \[21\] in the paper's Theorem 7.9).
//!
//! A [`MatrixUnion`] holds a vector of row weights and one of column
//! weights, both cut into the same buckets and ascending inside each.
//! A bucket stands for the matrix of all sums of one of its row weights
//! and one of its column weights, never materialized. The cells of a
//! row that lie between two ends form one run of columns, and both ends
//! of the run move left as the row weight grows, so one staircase walk
//! ([`MatrixUnion::staircase`], O(rows + cols)) finds every row's run:
//! counting cells, narrowing the candidates and listing them are all
//! that walk. Selecting the k-th smallest cell across the union is the
//! SUM-selection subproblem of Lemma 7.10 (one bucket per join key);
//! Lemma 7.8's single atom is a union whose one bucket has one column.
//!
//! ## Substitution note
//!
//! Frederickson–Johnson 1984 achieves the bound deterministically with
//! an intricate pruning scheme. We use randomized pivoting instead: pick
//! a random candidate cell, count cells below it (a staircase walk),
//! and halve the candidate set in expectation. With `N ≤ n²` cells this
//! gives expected `O(n log n)` total — the same bound as the paper's
//! usage, with the same "never materialize the matrix" access pattern.
//! The pivots come from a generator seeded by the ranks asked for, not
//! from the clock, so a selection does the same work on every run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Bound::{self, Excluded, Included, Unbounded};
use std::ops::{Add, Range, RangeBounds};

/// A union of implicit sorted matrices supporting k-th smallest
/// selection across all cells.
pub(crate) struct MatrixUnion<W> {
    /// The row weights and the column weights, each ascending inside a
    /// bucket.
    weights: [Vec<W>; 2],
    /// Per bucket: the range of its row weights and of its column
    /// weights.
    buckets: Vec<[Range<usize>; 2]>,
}

/// When at most this many candidate cells remain, enumerate and sort.
const ENUMERATE_THRESHOLD: u64 = 1024;

/// The buffers one selection reuses across its pivot rounds.
struct Scratch<W> {
    /// The run of candidate columns of every row.
    runs: Vec<Range<usize>>,
    /// The candidate values of the last round.
    values: Vec<W>,
    /// The pivots' generator, seeded by the ranks asked for.
    rng: StdRng,
}

impl<W: Copy + Ord + Add<Output = W>> MatrixUnion<W> {
    /// Build from the row and the column weights and, per bucket, the
    /// range of each.
    pub(crate) fn new(weights: [Vec<W>; 2], buckets: Vec<[Range<usize>; 2]>) -> Self {
        debug_assert!(
            (buckets.iter()).all(|b| (0..2).all(|s| weights[s][b[s].clone()].is_sorted())),
            "a bucket's weights ascend"
        );
        MatrixUnion { weights, buckets }
    }

    /// Total number of cells.
    pub(crate) fn cell_count(&self) -> u128 {
        let cells = |[rows, cols]: &[Range<usize>; 2]| rows.len() as u128 * cols.len() as u128;
        self.buckets.iter().map(cells).sum()
    }

    /// Value of the cell of row `i` and column `j`.
    pub(crate) fn cell(&self, i: usize, j: usize) -> W {
        self.weights[0][i] + self.weights[1][j]
    }

    /// Count cells < `bound` across the union.
    pub(crate) fn count_lt(&self, bound: W) -> u64 {
        self.count_split(bound).0
    }

    /// The k-th smallest cell value (0-indexed) across the union, or
    /// `None` if `k ≥ cell_count()`. Expected `O((rows+cols) · log N)`.
    pub(crate) fn select(&self, k: u64) -> Option<W> {
        self.select_pair(k, k).map(|(w, _)| w)
    }

    /// The `first`-th and the `last`-th smallest cell values — the two
    /// ends of a window of ranks —, or `None` unless
    /// `first ≤ last < cell_count()`. One selection: the pivot rounds
    /// that do not separate the two ranks serve both.
    ///
    /// Two allocations whatever the number of pivot rounds: one run
    /// per row, refilled each round, and the candidate values of the
    /// last round.
    pub(crate) fn select_pair(&self, first: u64, last: u64) -> Option<(W, W)> {
        if first > last || u128::from(last) >= self.cell_count() {
            return None;
        }
        let mut scratch = Scratch {
            runs: vec![0..0; self.weights[0].len()],
            values: Vec::with_capacity(ENUMERATE_THRESHOLD as usize),
            rng: StdRng::seed_from_u64(first.rotate_left(32) ^ last),
        };
        let [a, b] = self.select_within([first, last], Unbounded, 0, Unbounded, &mut scratch);
        Some((a, b))
    }

    /// The staircase: for each row `i` of each bucket, the run of the
    /// bucket's columns whose cells in row `i` lie between `lo` and
    /// `hi`, as `each(i, run, before)`, `before` the number of the
    /// bucket's columns left of the run. Both ends of the run move left
    /// as the row weight grows, so the walk is O(rows + cols). A
    /// bucket's walk stops at its first row whose run ends at the
    /// bucket's first column: so does every later row's.
    pub(crate) fn staircase(
        &self,
        lo: Bound<W>,
        hi: Bound<W>,
        mut each: impl FnMut(usize, Range<usize>, usize),
    ) {
        let [rows, cols] = &self.weights;
        for [rs, cs] in &self.buckets {
            let (mut start, mut end) = (cs.end, cs.end);
            for i in rs.clone() {
                let sum = |j: usize| rows[i] + cols[j];
                while end > cs.start && !(Unbounded, hi).contains(&sum(end - 1)) {
                    end -= 1;
                }
                start = start.min(end);
                while start > cs.start && (lo, Unbounded).contains(&sum(start - 1)) {
                    start -= 1;
                }
                if end == cs.start {
                    break;
                }
                each(i, start..end, start - cs.start);
            }
        }
    }

    /// The cell values at ranks `ks` (ascending), all known to lie
    /// between `lo` and `hi`, with `below` cells below `lo`: pivot
    /// rounds narrow the bracket until at most [`ENUMERATE_THRESHOLD`]
    /// candidates remain, which are sorted. A pivot that separates the
    /// two ranks finishes each on its own side.
    fn select_within(
        &self,
        ks: [u64; 2],
        mut lo: Bound<W>,
        mut below: u64,
        mut hi: Bound<W>,
        scratch: &mut Scratch<W>,
    ) -> [W; 2] {
        loop {
            let runs = &mut scratch.runs;
            runs.fill(0..0);
            self.staircase(lo, hi, |i, run, _| runs[i] = run);
            let candidates: u64 = runs.iter().map(|run| run.len() as u64).sum();
            debug_assert!(candidates > 0, "the answer lies strictly above lo");
            if candidates <= ENUMERATE_THRESHOLD {
                let values = &mut scratch.values;
                values.clear();
                for (i, run) in runs.iter().enumerate() {
                    values.extend(run.clone().map(|j| self.cell(i, j)));
                }
                values.sort_unstable();
                return ks.map(|k| values[(k - below) as usize]);
            }
            // A random pivot among the candidate cells.
            let mut target = scratch.rng.random_range(0..candidates) as usize;
            let (i, j) = (runs.iter().enumerate())
                .find_map(|(i, run)| match target.checked_sub(run.len()) {
                    Some(rest) => {
                        target = rest;
                        None
                    }
                    None => Some((i, run.start + target)),
                })
                .expect("target < candidates");
            let p = self.cell(i, j);
            let (lt, leq) = self.count_split(p);
            let [first, last] = ks;
            if leq <= first {
                (lo, below) = (Excluded(p), leq);
            } else if lt > last {
                hi = Included(p);
            } else if lt <= first && last < leq {
                return [p, p]; // both ranks fall inside p's run of equals
            } else {
                // p separates the ranks: each is p itself, or lies on
                // its own side of p.
                let first = if lt <= first {
                    p
                } else {
                    self.select_within([first; 2], lo, below, Included(p), scratch)[0]
                };
                let last = if last < leq {
                    p
                } else {
                    self.select_within([last; 2], Excluded(p), leq, hi, scratch)[0]
                };
                return [first, last];
            }
        }
    }

    /// Count cells < `bound` and ≤ `bound` across the union: per row,
    /// the columns before its run of cells equal to `bound`, and those
    /// up to the run's end.
    fn count_split(&self, bound: W) -> (u64, u64) {
        let (mut lt, mut leq) = (0, 0);
        self.staircase(Included(bound), Included(bound), |_, run, before| {
            lt += before as u64;
            leq += (before + run.len()) as u64;
        });
        (lt, leq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::float::TotalF64;
    use proptest::prelude::*;

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

    /// The union of one bucket per `[rows, cols]`, laid out in order.
    fn union_from<W: Copy + Ord + Add<Output = W>>(mats: Vec<[Vec<W>; 2]>) -> MatrixUnion<W> {
        let (mut rows, mut cols) = (Vec::new(), Vec::new());
        let place = |all: &mut Vec<W>, side: Vec<W>| {
            let start = all.len();
            all.extend(side);
            start..all.len()
        };
        let buckets = (mats.into_iter())
            .map(|[r, c]| [place(&mut rows, r), place(&mut cols, c)])
            .collect();
        MatrixUnion::new([rows, cols], buckets)
    }

    fn union_of(mats: &[(&[i64], &[i64])]) -> MatrixUnion<i64> {
        union_from(mats.iter().map(|(r, c)| [r.to_vec(), c.to_vec()]).collect())
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
        // cells: 11, 21, 12, 22; (cells < bound, cells ≤ bound)
        assert_eq!(u.count_split(11), (0, 1));
        assert_eq!(u.count_lt(11), 0);
        assert_eq!(u.count_split(21), (2, 3));
        assert_eq!(u.count_lt(21), 2);
        assert_eq!(u.count_split(100), (4, 4));
    }

    #[test]
    fn float_weights() {
        let rows: Vec<TotalF64> = [0.5, 1.5].iter().map(|&v| TotalF64(v)).collect();
        let cols: Vec<TotalF64> = [-1.0, 0.0, 2.0].iter().map(|&v| TotalF64(v)).collect();
        let u = union_from(vec![[rows, cols]]);
        // cells: -0.5, 0.5, 2.5, 0.5, 1.5, 3.5 sorted: -0.5, 0.5, 0.5, 1.5, 2.5, 3.5
        assert_eq!(u.select(0), Some(TotalF64(-0.5)));
        assert_eq!(u.select(2), Some(TotalF64(0.5)));
        assert_eq!(u.select(5), Some(TotalF64(3.5)));
    }

    #[test]
    fn large_random_cross_check() {
        let mut rng = StdRng::seed_from_u64(0x5eed_1a46e);
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
                mats.push([rows, cols]);
            }
            let mut all: Vec<i64> = Vec::new();
            for [rows, cols] in &mats {
                for r in rows {
                    for c in cols {
                        all.push(r + c);
                    }
                }
            }
            let u = union_from(mats);
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
        let all = naive_union(&[(&rows, &cols), (&cols, &rows)]);
        let u = union_from(vec![[rows.clone(), cols.clone()], [cols, rows]]);
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
            let (lt, leq) = (below(|v, b| v < b) as u64, below(|v, b| v <= b) as u64);
            assert_eq!(u.count_split(bound), (lt, leq), "{bound}");
            assert_eq!(u.count_lt(bound), lt, "{bound}");
        }
    }

    #[test]
    fn forces_pivot_loop_beyond_threshold() {
        // 200 x 200 = 40_000 cells forces several pivot rounds.
        let rows: Vec<i64> = (0..200).map(|i| i * 3).collect();
        let cols: Vec<i64> = (0..200).map(|i| i * 7).collect();
        let u = union_from(vec![[rows.clone(), cols.clone()]]);
        let mut all: Vec<i64> = rows
            .iter()
            .flat_map(|r| cols.iter().map(move |c| r + c))
            .collect();
        all.sort_unstable();
        for k in [0usize, 1, 777, 20_000, 39_999] {
            assert_eq!(u.select(k as u64), Some(all[k]), "k={k}");
        }
    }

    proptest! {
        #[test]
        fn matrix_union_select_matches_enumeration(
            specs in proptest::collection::vec(
                (proptest::collection::vec(-50i64..50, 1..12),
                 proptest::collection::vec(-50i64..50, 1..12)),
                1..4,
            ),
            k_frac in 0.0f64..1.0,
        ) {
            let mut cells: Vec<i64> = Vec::new();
            let mats: Vec<[Vec<i64>; 2]> = specs
                .into_iter()
                .map(|(mut rows, mut cols)| {
                    rows.sort_unstable();
                    cols.sort_unstable();
                    for &r in &rows {
                        for &c in &cols {
                            cells.push(r + c);
                        }
                    }
                    [rows, cols]
                })
                .collect();
            cells.sort_unstable();
            let u = union_from(mats);
            prop_assert_eq!(u.cell_count(), cells.len() as u128);
            let k = ((cells.len() - 1) as f64 * k_frac) as u64;
            prop_assert_eq!(u.select(k), Some(cells[k as usize]));
            prop_assert_eq!(u.select(cells.len() as u64), None);
        }

        #[test]
        fn matrix_counts_match_enumeration(
            rows in proptest::collection::vec(-20i64..20, 1..15),
            cols in proptest::collection::vec(-20i64..20, 1..15),
            bound in -45i64..45,
            width in -10i64..30,
        ) {
            let mut r = rows.clone();
            let mut c = cols.clone();
            r.sort_unstable();
            c.sort_unstable();
            let u = union_from(vec![[r.clone(), c.clone()]]);
            let leq = r.iter().flat_map(|&x| c.iter().map(move |&y| x + y)).filter(|&s| s <= bound).count() as u64;
            let lt = r.iter().flat_map(|&x| c.iter().map(move |&y| x + y)).filter(|&s| s < bound).count() as u64;
            prop_assert_eq!(u.count_split(bound), (lt, leq));
            prop_assert_eq!(u.count_lt(bound), lt);
            // Each row's run against the row's cells, for every kind of
            // end: `before` counts the cells below `lo` (those above
            // `hi` when fewer), the run ends at the last cell not above
            // `hi`, and a row the walk skips has no such cell.
            let ends = |b: i64| [Included(b), Excluded(b), Unbounded];
            for lo in ends(bound) {
                for hi in ends(bound + width) {
                    let mut runs = vec![None; r.len()];
                    u.staircase(lo, hi, |i, run, before| runs[i] = Some((run, before)));
                    for (i, got) in runs.into_iter().enumerate() {
                        let count = |keep: &dyn Fn(i64) -> bool| c.iter().filter(|&&y| keep(r[i] + y)).count();
                        let not_above = count(&|s| (Unbounded, hi).contains(&s));
                        let below = count(&|s| !(lo, Unbounded).contains(&s)).min(not_above);
                        let inside = count(&|s| (lo, hi).contains(&s));
                        match got {
                            Some((run, before)) => {
                                prop_assert_eq!((run.clone(), before), (below..not_above, below));
                                prop_assert_eq!(run.len(), inside);
                            }
                            None => prop_assert_eq!(not_above, 0),
                        }
                    }
                }
            }
        }
    }
}
