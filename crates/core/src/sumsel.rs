//! Selection by sum-of-weights orders (Section 7, Theorems 7.3/8.10).
//!
//! Tractable iff the (FD-extended) query is free-connex with at most two
//! free-maximal hyperedges. The algorithm, on the snapshot's
//! dictionary-encoded relations:
//!
//! 1. reduce to a full acyclic query over the free variables
//!    (Proposition 2.3, [`crate::snapprep`]);
//! 2. contract it maximally (Definition 7.5), replaying each step on the
//!    instance (Lemma 7.7): an absorbed atom semijoin-filters its
//!    absorber; an absorbed variable moves no data — it is a column that
//!    travels with its absorber, and a row's weight is the sum of the
//!    weights of the columns assigned to its atom, read from a dense
//!    `code → weight` table per column;
//! 3. one atom left (Lemma 7.8): expected-linear quickselect on row
//!    weights; two atoms left (Lemma 7.10): bucket both by the join key
//!    and select over a union of implicit sorted matrices (Theorem 7.9);
//! 4. decode the chosen rows into an answer.
//!
//! Steps 1–2, the row weights and the weight-sorted buckets do not
//! depend on the rank: preparing (behind
//! [`crate::SelectionSumHandle::new`]) computes them once and a
//! selection ([`crate::SelectionSumHandle::select_once`]) is steps 3–4
//! alone.
//!
//! The handle breaks the paper's arbitrary ties by tuple. Every read it
//! serves goes through one primitive, [`SumSelection::ranked_rows`]:
//! the answers whose pair weight lies in a closed weight interval,
//! ranked by (weight, head codes). An access at rank k selects the
//! k-th weight, counts the answers below it and ranks only the plateau
//! of p answers at that weight — ⟨1, n log n + p log p⟩, with p = 1 for
//! a unique weight — and a window spans the interval from its first
//! rank's weight to its last's.

use crate::budget::{BuildCost, PhaseClock};
use crate::error::BuildError;
use crate::snapprep::prepare_reduced;
use crate::weights::{weight_key, Weights};
use rda_db::{key_ids, radix_sort_rows, EncodedRelation, Snapshot, Tuple, Value};
use rda_orderstat::{select_nth_by, MatrixUnion, SortedMatrix, TotalF64};
use rda_query::classify::Problem;
use rda_query::{
    maximal_contraction, positions_of, shared_positions, ContractionStep, Cq, FdSet, VarId, VarSet,
};
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Rows of one relation as `(weight, row)`, ascending.
type WeightedRows = Vec<(TotalF64, u32)>;

/// An answer as its pair weight and its rows in the atoms left.
pub(crate) type RankedRow = (TotalF64, [u32; 2]);

/// The weight of the empty sum, as `Iterator::sum` starts it.
const EMPTY_SUM: TotalF64 = TotalF64(-0.0);

/// What is left of the query after the maximal contraction.
enum Shape {
    /// No atom: a Boolean head (one empty answer iff the join is not
    /// empty).
    Empty,
    /// One atom (Lemma 7.8): its row weights.
    Single(Vec<TotalF64>),
    /// Two atoms (Lemma 7.10): both sides sorted by (join-key bucket,
    /// weight), the row ranges of each bucket present on both sides,
    /// and one implicit sorted matrix per bucket.
    Pair {
        sides: [WeightedRows; 2],
        buckets: Vec<[Range<usize>; 2]>,
        union: MatrixUnion<TotalF64>,
    },
}

/// A query prepared for selection by the sum of its attribute weights
/// (Theorem 7.3 / 8.10). Ties on equal weight are broken arbitrarily:
/// the selected answer is guaranteed to have the k-th smallest answer
/// weight. The raw operation behind the engine's
/// [`crate::SelectionSumHandle`], which is the public route to it.
pub(crate) struct SumSelection {
    snap: Arc<Snapshot>,
    head: Vec<VarId>,
    weights: Weights,
    /// The atoms the contraction left (at most two), all their columns.
    rels: Vec<EncodedRelation>,
    /// Per head position: the atom of `rels` and the column it decodes
    /// from.
    out: Vec<(usize, usize)>,
    /// Per atom of `rels`: the variables its row weight sums, in the
    /// order it sums them, each with a head position holding its value.
    addends: Vec<Vec<(VarId, usize)>>,
    shape: Shape,
    total: u64,
    cost: BuildCost,
}

impl SumSelection {
    /// Everything that does not depend on the rank. Fails on the
    /// intractable side of the dichotomy, on an instance that does not
    /// fit the query or violates an FD, with
    /// [`BuildError::InvalidOrder`] when the weights include both +∞
    /// and −∞, and with [`BuildError::CountOverflow`] when the answer
    /// count does not fit in `u64`.
    pub(crate) fn prepare(
        q: &Cq,
        snap: &Arc<Snapshot>,
        weights: Weights,
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        let (_, red, mut cost) = prepare_reduced(q, snap, fds, &Problem::SelectionSum)?;
        // Selection searches sorted rows for pair sums, which must be
        // monotone along a row: with +∞ in one atom's partial sums and
        // −∞ in the other's, a row's sums run NaN, +∞, +∞.
        if weights.mixes_infinities() {
            return Err(BuildError::InvalidOrder(
                "SUM selection cannot rank weights that include both +inf and -inf".to_string(),
            ));
        }
        let mut clock = PhaseClock::start();
        let atoms = red.query.atoms();
        let index_of = |name: &str| {
            atoms
                .iter()
                .position(|a| a.relation == name)
                .expect("the contraction names atoms of the reduced query")
        };
        // Contract maximally, replaying on the instance. Absorbing a
        // variable never makes one atom contain another that it did not
        // contain before (the two variables occur in the same atoms), so
        // every absorbed atom is contained in its absorber over the full
        // columns.
        let contraction = maximal_contraction(&red.query);
        let mut all_rels = red.rels;
        for step in &contraction.steps {
            if let ContractionStep::AbsorbAtom { removed, into } = step {
                let (r, i) = (index_of(removed), index_of(into));
                let keys = positions_of(&atoms[i].terms, &atoms[r].terms);
                let all: Vec<usize> = (0..atoms[r].terms.len()).collect();
                // The absorbed atom leaves the query: move its rows out.
                let absorbed = std::mem::replace(&mut all_rels[r], EncodedRelation::new(0));
                if let Some(keep) = all_rels[i].semijoin_plan(&keys, &absorbed, &all) {
                    all_rels[i].retain_rows(&keep);
                }
            }
        }
        let kept: Vec<usize> = contraction
            .query
            .atoms()
            .iter()
            .map(|a| index_of(&a.relation))
            .collect();
        let rels: Vec<EncodedRelation> = kept
            .iter()
            .map(|&a| std::mem::replace(&mut all_rels[a], EncodedRelation::new(0)))
            .collect();

        // Row weights. Every head variable weighs in the first atom left
        // that holds it, once per head occurrence, as
        // `Weights::answer_weight` over the head counts it; promoted
        // variables are not in the head and weigh nothing. One dense
        // `code → weight` table per weighing column, alive while the
        // column is summed.
        let head = q.free().to_vec();
        let dict = snap.dict();
        let mut weighed = VarSet::EMPTY;
        let mut row_weights: Vec<Vec<TotalF64>> = Vec::with_capacity(rels.len());
        let mut addends = Vec::with_capacity(rels.len());
        for (&a, rel) in kept.iter().zip(&rels) {
            // From -0.0, as `Iterator::sum`: an all -0.0 answer weighs
            // -0.0 here too.
            let mut sums = vec![EMPTY_SUM; rel.len()];
            let mut adds = Vec::new();
            for (p, &v) in atoms[a].terms.iter().enumerate() {
                if weighed.contains(v) {
                    continue;
                }
                weighed = weighed.with(v);
                for h in (0..head.len()).filter(|&h| head[h] == v) {
                    weights.add_column(v, rel.col(p), dict, &mut sums);
                    adds.push((v, h));
                }
            }
            row_weights.push(sums);
            addends.push(adds);
        }
        let first_holder = |v: &VarId| {
            let at = |(side, &a): (usize, &usize)| Some((side, atoms[a].position_of(*v)?));
            kept.iter().enumerate().find_map(at)
        };
        let out = head
            .iter()
            .map(|v| first_holder(v).expect("every head variable is in an atom left"))
            .collect();

        let (shape, total) = match rels.as_slice() {
            [] => (Shape::Empty, u128::from(!red.known_empty)),
            [rel] => (Shape::Single(row_weights.remove(0)), rel.len() as u128),
            [a, b] => {
                let (ka, kb) = shared_positions(&atoms[kept[0]].terms, &atoms[kept[1]].terms);
                let ids = key_ids(a, &ka, b, &kb);
                pair_shape([
                    (&ids.probe[..], &row_weights[0][..]),
                    (&ids.build[..], &row_weights[1][..]),
                ])
            }
            _ => unreachable!("fmh ≤ 2 leaves at most two atoms"),
        };
        cost.sort_ns = clock.lap();
        cost.hold(&rels);
        Ok(SumSelection {
            snap: Arc::clone(snap),
            head,
            weights,
            rels,
            out,
            addends,
            shape,
            total: u64::try_from(total).map_err(|_| BuildError::CountOverflow)?,
            cost,
        })
    }

    /// Number of answers.
    pub(crate) fn len(&self) -> u64 {
        self.total
    }

    /// The head arity.
    pub(crate) fn arity(&self) -> usize {
        self.head.len()
    }

    /// What [`SumSelection::prepare`] paid: `prep`, `reduce`, the
    /// contraction, weighing and bucket sort as `sort`, and the rows and
    /// bytes it holds.
    pub(crate) fn cost(&self) -> &BuildCost {
        &self.cost
    }

    /// An answer with the k-th smallest weight, and that weight — or
    /// `None` ("out-of-bound") when `k ≥ len()`.
    pub(crate) fn select(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        if k >= self.total {
            return None;
        }
        // The chosen row of each atom left.
        let rows: [u32; 2] = match &self.shape {
            Shape::Empty => [0, 0],
            Shape::Single(weights) => {
                let mut items: WeightedRows = weights.iter().copied().zip(0..).collect();
                let nth = select_nth_by(&mut items, k as usize, Ord::cmp);
                [nth.expect("the rank is below the row count").1, 0]
            }
            Shape::Pair {
                sides: [a, b],
                buckets,
                union,
            } => {
                let lambda = union.select(k).expect("the rank is below the cell count");
                // Witness: one pair of rows summing to lambda. Compare
                // the sum itself (not `lambda - wa`) so floating-point
                // equality is exact — lambda is one of these very sums.
                buckets
                    .iter()
                    .find_map(|[ra, rb]| {
                        let bs = &b[rb.clone()];
                        a[ra.clone()].iter().find_map(|&(wa, row_a)| {
                            let i = bs.partition_point(|&(wb, _)| wa + wb < lambda);
                            (i < bs.len() && wa + bs[i].0 == lambda).then(|| [row_a, bs[i].1])
                        })
                    })
                    .expect("a selected weight always has a witness pair")
            }
        };
        Some(self.answer(rows))
    }

    /// The answer made of row `rows[i]` of the i-th atom left, and its
    /// weight: [`Weights::answer_weight`] of the decoded answer.
    pub(crate) fn answer(&self, rows: [u32; 2]) -> (TotalF64, Tuple) {
        let answer: Tuple = self.values(rows).collect();
        (
            self.weights.answer_weight(&self.head, answer.values()),
            answer,
        )
    }

    /// The values of the answer made of row `rows[i]` of the i-th atom
    /// left, in head order.
    pub(crate) fn values(&self, rows: [u32; 2]) -> impl Iterator<Item = Value> + '_ {
        let dict = self.snap.dict();
        self.codes(rows).map(|code| dict.value(code).clone())
    }

    /// The head codes of the answer made of `rows` — they order as its
    /// values do.
    fn codes(&self, rows: [u32; 2]) -> impl Iterator<Item = u32> + '_ {
        let code = move |&(side, p): &(usize, usize)| self.rels[side].code(rows[side] as usize, p);
        self.out.iter().map(code)
    }

    /// The handle's order: pair weight, then head codes.
    fn by_rank(&self, x: &RankedRow, y: &RankedRow) -> Ordering {
        x.0.cmp(&y.0)
            .then_with(|| self.codes(x.1).cmp(self.codes(y.1)))
    }

    /// The answers whose pair weight lies in `lo..=hi` (`None`:
    /// unbounded), ascending by (weight, head codes): the one array
    /// every read of the handle is served from.
    pub(crate) fn ranked_rows(&self, lo: Option<TotalF64>, hi: Option<TotalF64>) -> Vec<RankedRow> {
        let mut rows = self.rows_between(lo, hi);
        rows.sort_unstable_by(|x, y| self.by_rank(x, y));
        rows
    }

    /// The rows of the answer at rank `k` of (weight, head codes), or
    /// `None` when `k ≥ len()`. Two atoms: one selection, one count
    /// below its weight, and a quickselect by codes inside the plateau
    /// at that weight. One atom: a quickselect by (weight, codes) over
    /// the rows.
    pub(crate) fn rows_at(&self, k: u64) -> Option<[u32; 2]> {
        if k >= self.total {
            return None;
        }
        let (mut rows, at) = match &self.shape {
            Shape::Pair { union, .. } => {
                let w = union.select(k).expect("the rank is below the cell count");
                (self.rows_between(Some(w), Some(w)), k - union.count_lt(w))
            }
            Shape::Empty | Shape::Single(_) => (self.rows_between(None, None), k),
        };
        let nth = select_nth_by(&mut rows, at as usize, |x, y| self.by_rank(x, y));
        Some(nth.expect("the rank lies in its plateau").1)
    }

    /// The answers at the ranks in `ranks` (clamped to `len()`), in
    /// order: those weighing from the first rank's weight to the last
    /// rank's, ranked, less the ones below the first rank.
    pub(crate) fn ranked_window(&self, ranks: Range<u64>) -> Vec<RankedRow> {
        let (lo, hi) = crate::window::clamp_range(&ranks, self.total);
        if lo == hi {
            return Vec::new();
        }
        let (first, last) = self.weights_at(lo, hi - 1);
        let skip = (lo - self.count_lt(first)) as usize;
        let mut rows = self.ranked_rows(Some(first), Some(last));
        rows.truncate(skip + (hi - lo) as usize);
        rows.drain(..skip);
        rows
    }

    /// The rank of `answer`, or `None` when it is not an answer: the
    /// answers weighing less, plus its place in its plateau. Its weight
    /// is summed as the selection sums it — each atom's partial sum,
    /// then one addition — so a near-tie rounds as the plateau does.
    pub(crate) fn rank_of(&self, answer: &Tuple) -> Option<u64> {
        if answer.arity() != self.head.len() {
            return None;
        }
        let mut probe = Vec::with_capacity(answer.arity());
        if !self.snap.dict().encode_tuple_into(answer, &mut probe) {
            return None;
        }
        let side = |adds: &Vec<(VarId, usize)>| {
            let weigh = |&(v, h): &(VarId, usize)| self.weights.get(v, &answer[h]);
            adds.iter().map(weigh).fold(EMPTY_SUM, |sum, w| sum + w)
        };
        let w = self.addends.iter().map(side).reduce(|a, b| a + b);
        let w = w.unwrap_or(EMPTY_SUM);
        let (mut rank, mut found) = (self.count_lt(w), false);
        for (_, rows) in self.rows_between(Some(w), Some(w)) {
            match self.codes(rows).cmp(probe.iter().copied()) {
                Ordering::Less => rank += 1,
                Ordering::Equal => found = true,
                Ordering::Greater => {}
            }
        }
        found.then_some(rank)
    }

    /// The `first`-th and the `last`-th smallest answer weights,
    /// `first ≤ last < len()`, from one selection.
    fn weights_at(&self, first: u64, last: u64) -> (TotalF64, TotalF64) {
        match &self.shape {
            Shape::Empty => (EMPTY_SUM, EMPTY_SUM),
            Shape::Single(weights) => {
                // The quickselect leaves rank `first` in its place and
                // everything after it no lighter.
                let mut weights = weights.clone();
                let (first, last) = (first as usize, last as usize);
                let a = *select_nth_by(&mut weights, first, Ord::cmp).expect("first < len");
                let tail = &mut weights[first..];
                (
                    a,
                    *select_nth_by(tail, last - first, Ord::cmp).expect("last < len"),
                )
            }
            Shape::Pair { union, .. } => union.select_pair(first, last).expect("last < len"),
        }
    }

    /// The number of answers weighing less than `w`.
    fn count_lt(&self, w: TotalF64) -> u64 {
        match &self.shape {
            Shape::Empty => 0,
            Shape::Single(weights) => weights.iter().filter(|&&x| x < w).count() as u64,
            Shape::Pair { union, .. } => union.count_lt(w),
        }
    }

    /// The answers whose pair weight lies in `lo..=hi` (`None`:
    /// unbounded), in no particular order. Over two atoms, one
    /// staircase walk per join-key bucket: as the first side's weight
    /// grows, both ends of the second side's run inside the interval
    /// move left. O(n) plus one step per answer in the interval.
    fn rows_between(&self, lo: Option<TotalF64>, hi: Option<TotalF64>) -> Vec<RankedRow> {
        let inside = |w: TotalF64| lo.is_none_or(|lo| lo <= w) && hi.is_none_or(|hi| w <= hi);
        let mut found = Vec::new();
        match &self.shape {
            Shape::Empty => {
                if self.total > 0 && inside(EMPTY_SUM) {
                    found.push((EMPTY_SUM, [0, 0]));
                }
            }
            Shape::Single(weights) => {
                let rows = weights.iter().zip(0..).filter(|&(&w, _)| inside(w));
                found.extend(rows.map(|(&w, row)| (w, [row, 0])));
            }
            Shape::Pair {
                sides: [a, b],
                buckets,
                ..
            } => {
                for [ra, rb] in buckets {
                    let bs = &b[rb.clone()];
                    let (mut start, mut end) = (bs.len(), bs.len());
                    for &(wa, row_a) in &a[ra.clone()] {
                        while start > 0 && lo.is_none_or(|lo| wa + bs[start - 1].0 >= lo) {
                            start -= 1;
                        }
                        while end > start && hi.is_some_and(|hi| wa + bs[end - 1].0 > hi) {
                            end -= 1;
                        }
                        let run = bs[start..end].iter();
                        found.extend(run.map(|&(wb, row_b)| (wa + wb, [row_a, row_b])));
                    }
                }
            }
        }
        found
    }
}

/// Lemma 7.10's bucketing: sort each side's rows by (join-key id,
/// weight, row) — two stable radix passes, weight first —, pair up the
/// id runs present on both sides, and give each pair an implicit sorted
/// matrix. Also the number of cells — the answer count.
fn pair_shape(sides: [(&[u32], &[TotalF64]); 2]) -> (Shape, u128) {
    let [a, b] = sides.map(|(ids, weights)| {
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        radix_sort_rows(&mut order, |r| weight_key(weights[r as usize]));
        radix_sort_rows(&mut order, |r| u64::from(ids[r as usize]));
        let rows: Vec<(u32, TotalF64, u32)> = order
            .into_iter()
            .map(|r| (ids[r as usize], weights[r as usize], r))
            .collect();
        debug_assert!(rows.is_sorted(), "the order of a sort by (id, weight, row)");
        rows
    });
    let (mut buckets, mut matrices, mut total) = (Vec::new(), Vec::new(), 0u128);
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (ia, ib) = (a[i].0, b[j].0);
        let i_end = i + a[i..].partition_point(|x| x.0 == ia);
        let j_end = j + b[j..].partition_point(|x| x.0 == ib);
        if ia == ib {
            buckets.push([i..i_end, j..j_end]);
            matrices.push(SortedMatrix::new(
                a[i..i_end].iter().map(|x| x.1).collect(),
                b[j..j_end].iter().map(|x| x.1).collect(),
            ));
            total += ((i_end - i) as u128) * ((j_end - j) as u128);
        }
        if ia <= ib {
            i = i_end;
        }
        if ib <= ia {
            j = j_end;
        }
    }
    let strip = |rows: Vec<(u32, TotalF64, u32)>| rows.into_iter().map(|x| (x.1, x.2)).collect();
    let shape = Shape::Pair {
        sides: [strip(a), strip(b)],
        buckets,
        union: MatrixUnion::new(matrices),
    };
    (shape, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::Database;
    use rda_query::parser::parse;

    /// Prepare over a private snapshot of `db`, then select rank `k`.
    fn select_at(
        q: &Cq,
        db: &Database,
        w: &Weights,
        k: u64,
        fds: &FdSet,
    ) -> Result<Option<(TotalF64, Tuple)>, BuildError> {
        Ok(SumSelection::prepare(q, &db.clone().freeze(), w.clone(), fds)?.select(k))
    }

    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    /// Naive oracle: all answer weights of the Figure 2 2-path query.
    fn fig2_weights() -> Vec<f64> {
        // Answers (x,y,z): (1,2,5)=8, (1,5,3)=9, (1,5,4)=10, (1,5,6)=12, (6,2,5)=13.
        vec![8.0, 9.0, 10.0, 12.0, 13.0]
    }

    #[test]
    fn figure_2d_sum_selection() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        for (k, expect) in fig2_weights().into_iter().enumerate() {
            let (w, t) = select_at(
                &q,
                &fig2_db(),
                &Weights::identity(),
                k as u64,
                &FdSet::empty(),
            )
            .unwrap()
            .unwrap();
            assert_eq!(w, TotalF64(expect), "k={k}");
            // The witness really is an answer with that weight.
            let s: f64 = t.values().iter().map(|v| v.as_int().unwrap() as f64).sum();
            assert_eq!(s, expect);
        }
        let none = select_at(&q, &fig2_db(), &Weights::identity(), 5, &FdSet::empty()).unwrap();
        assert!(none.is_none());
    }

    #[test]
    fn figure_2d_order_note() {
        // Figure 2d: the 2nd/3rd answers both weigh 9 in the paper's
        // variant ((1,5,3) and (1,2,6)); our Figure 2a database yields
        // distinct weights, checked above. This test pins the median.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let (w, _) = select_at(&q, &fig2_db(), &Weights::identity(), 2, &FdSet::empty())
            .unwrap()
            .unwrap();
        assert_eq!(w, TotalF64(10.0));
    }

    #[test]
    fn cartesian_product_two_atoms() {
        let q = parse("Q(a, b) :- R(a), S(b)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 1, vec![vec![1], vec![10]])
            .with_i64_rows("S", 1, vec![vec![2], vec![20]]);
        // Weights: 3, 12, 21, 30.
        let expect = [3.0, 12.0, 21.0, 30.0];
        for (k, e) in expect.iter().enumerate() {
            let (w, _) = select_at(&q, &db, &Weights::identity(), k as u64, &FdSet::empty())
                .unwrap()
                .unwrap();
            assert_eq!(w, TotalF64(*e), "k={k}");
        }
    }

    #[test]
    fn single_atom_after_contraction() {
        // Q(x, y) :- R(x, u, y): u is absorbed (existential, same atoms
        // as x), leaving one atom.
        let q = parse("Q(x, y) :- R(x, u, y)").unwrap();
        let db = Database::new().with_i64_rows(
            "R",
            3,
            vec![vec![1, 0, 5], vec![2, 0, 1], vec![0, 0, 2]],
        );
        // Answers (x, y): weights 6, 3, 2.
        let got: Vec<f64> = (0..3)
            .map(|k| {
                select_at(&q, &db, &Weights::identity(), k, &FdSet::empty())
                    .unwrap()
                    .unwrap()
                    .0
                     .0
            })
            .collect();
        assert_eq!(got, vec![2.0, 3.0, 6.0]);
    }

    #[test]
    fn projected_three_path_is_tractable() {
        // Example 7.4: Q'3(x,y,z) :- R(x,y), S(y,z), T(z,u).
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, u)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![3, 4]])
            .with_i64_rows("S", 2, vec![vec![2, 5], vec![4, 6]])
            .with_i64_rows("T", 2, vec![vec![5, 0], vec![6, 0]]);
        // Answers: (1,2,5)=8, (3,4,6)=13.
        let (w0, _) = select_at(&q, &db, &Weights::identity(), 0, &FdSet::empty())
            .unwrap()
            .unwrap();
        let (w1, _) = select_at(&q, &db, &Weights::identity(), 1, &FdSet::empty())
            .unwrap()
            .unwrap();
        assert_eq!((w0, w1), (TotalF64(8.0), TotalF64(13.0)));
    }

    #[test]
    fn full_three_path_is_rejected() {
        let q = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2]])
            .with_i64_rows("S", 2, vec![vec![2, 3]])
            .with_i64_rows("T", 2, vec![vec![3, 4]]);
        let r = select_at(&q, &db, &Weights::identity(), 0, &FdSet::empty());
        assert!(matches!(r, Err(BuildError::NotTractable(_))));
    }

    #[test]
    fn explicit_weights_override_values() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        // Zero weights: every answer weighs 0; still returns valid answers.
        let (w, t) = select_at(&q, &fig2_db(), &Weights::zero(), 3, &FdSet::empty())
            .unwrap()
            .unwrap();
        assert_eq!(w, TotalF64(0.0));
        assert_eq!(t.arity(), 3);
    }

    #[test]
    fn empty_join() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let r = select_at(&q, &db, &Weights::identity(), 0, &FdSet::empty()).unwrap();
        assert!(r.is_none());
    }
}
