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
//! 3. two atoms left (Lemma 7.10): bucket both by the join key and
//!    select over a union of implicit sorted matrices (Theorem 7.9).
//!    One atom left (Lemma 7.8) is a pair with a unit side — one row
//!    weighing the empty sum, so a pair weighs its row — and no atom
//!    left pairs two unit sides;
//! 4. decode the chosen rows into an answer.
//!
//! Steps 1–2, the row weights and the weight-sorted buckets do not
//! depend on the rank: [`SelectionSumHandle::new`] computes them once
//! and a selection ([`SelectionSumHandle::select_once`]) is steps 3–4
//! alone. The handle is the engine's `SelectionSum` backend, and
//! implements [`DirectAccess`] here.
//!
//! The handle breaks the paper's arbitrary ties by tuple. Every read it
//! serves starts from one primitive, `rows_between`: the answers whose
//! pair weight lies in a closed weight interval. An access at rank k
//! selects the k-th weight, counts the answers below it and ranks only
//! the plateau of p answers at that weight by head codes —
//! ⟨1, n log n + p log p⟩, with p = 1 for a unique weight — and a
//! window ranks the interval from its first rank's weight to its
//! last's.

use crate::budget::{BuildCost, PhaseClock};
use crate::error::BuildError;
use crate::float::TotalF64;
use crate::matrix::MatrixUnion;
use crate::plan::DirectAccess;
use crate::snapprep::prepare_reduced;
use crate::weights::{weight_key, Weights};
use crate::window::WindowBuf;
use rda_db::{key_ids, radix_sort_rows, EncodedRelation, Snapshot, Tuple, Value};
use rda_query::classify::Problem;
use rda_query::{
    maximal_contraction, positions_of, shared_positions, ContractionStep, Cq, FdSet, VarId, VarSet,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Bound::Included;
use std::ops::Range;
use std::sync::Arc;

/// An answer as its pair weight and its rows in the atoms left.
type RankedRow = (TotalF64, [u32; 2]);

/// The weight of the empty sum, as `Iterator::sum` starts it.
const EMPTY_SUM: TotalF64 = TotalF64(-0.0);

/// Selection-backed handle for sum-of-weights orders (Theorem 7.3 /
/// 8.10): ⟨1, n log n + p log p⟩ per access, where p is the number of
/// answers that share the rank's weight (p = 1 for a unique weight).
///
/// Construction prepares the instance once, in the snapshot's code
/// space: reduction, contraction, row weights and the weight-sorted
/// join-key buckets, whose sizes give `len()`. An access is then only
/// the selection over them, and cannot fail.
///
/// The selection algorithm only pins answers down by weight (ties are
/// broken arbitrarily, and the same representative can come back for
/// every rank of an equal-weight plateau; that is
/// [`SelectionSumHandle::select_once`]), so the handle defines its
/// order as **(weight, then tuple)**, the weight summed as the
/// selection sums it (each atom's partial sum, then one addition). An
/// access selects the rank's weight, counts the answers below it and
/// ranks only the plateau at that weight; a window ranks the answers
/// from its first rank's weight to its last's; inverted access counts
/// the answers below the answer's weight and its place in its plateau.
/// Nothing is cached between calls.
pub struct SelectionSumHandle {
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
    /// Per side, the atom's row behind each of `union`'s row (side 0)
    /// and column (side 1) weights; a unit side's row is never read.
    rows: [Vec<u32>; 2],
    /// The pair weights: one bucket per join key present on both
    /// sides, each side's weights ascending inside it.
    union: MatrixUnion<TotalF64>,
    total: u64,
    cost: BuildCost,
}

impl SelectionSumHandle {
    /// Prepare `q` over the snapshot's encoded relations for selection
    /// by `weights`. Fails on the intractable side of the dichotomy, on
    /// an instance that does not fit the query or violates an FD, with
    /// [`BuildError::InvalidOrder`] when the weights include both +∞
    /// and −∞, and with [`BuildError::CountOverflow`] when the answer
    /// count does not fit in `u64`.
    pub fn new(
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
                let absorbed =
                    std::mem::replace(&mut all_rels[r], Cow::Owned(EncodedRelation::new(0)));
                if let Some(keep) = all_rels[i].semijoin_plan(&keys, &absorbed, &all) {
                    all_rels[i].to_mut().retain_rows(&keep);
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
            .map(|&a| {
                std::mem::replace(&mut all_rels[a], Cow::Owned(EncodedRelation::new(0)))
                    .into_owned()
            })
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

        // Lemma 7.10 pairs the two atoms left by join key. A lone atom
        // pairs with a unit side, one row weighing the empty sum (`w +
        // -0.0` is `w`), and no atom pairs two (rowless when the join is
        // empty): all the rows of such a pair share one bucket.
        debug_assert!(rels.len() <= 2, "fmh ≤ 2 leaves at most two atoms");
        row_weights.resize(2, vec![EMPTY_SUM; usize::from(!red.known_empty)]);
        let ids = match rels.as_slice() {
            [a, b] => {
                let (ka, kb) = shared_positions(&atoms[kept[0]].terms, &atoms[kept[1]].terms);
                let ids = key_ids(a, &ka, b, &kb);
                [ids.probe, ids.build]
            }
            _ => [0, 1].map(|s| Cow::Owned(vec![0; row_weights[s].len()])),
        };
        let (rows, union) = pair_union([0, 1].map(|s| (&ids[s][..], &row_weights[s][..])));
        let total = union.cell_count();
        cost.sort_ns = clock.lap();
        cost.hold(&rels);
        Ok(SelectionSumHandle {
            snap: Arc::clone(snap),
            head,
            weights,
            rels,
            out,
            addends,
            rows,
            union,
            total: u64::try_from(total).map_err(|_| BuildError::CountOverflow)?,
            cost,
        })
    }

    /// Run exactly one weighted selection (Theorem 7.3) for rank `k` —
    /// the raw ⟨1, n log n⟩ operation: an answer with the k-th smallest
    /// weight, and that weight, ties broken arbitrarily. `None` means
    /// out-of-bound.
    pub fn select_once(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        let lambda = self.union.select(k)?;
        // Witness: the first row with a cell equal to lambda. The walk
        // compares the sums themselves (not `lambda - wa`), so
        // floating-point equality is exact — lambda is one of them.
        let mut witness = None;
        self.union
            .staircase(Included(lambda), Included(lambda), |i, run, _| {
                if !run.is_empty() {
                    witness.get_or_insert([i, run.start]);
                }
            });
        let [i, j] = witness.expect("a selected weight always has a witness pair");
        Some(self.answer([self.rows[0][i], self.rows[1][j]]))
    }

    /// What construction paid — `prep`, `reduce`, the contraction,
    /// weighing and bucket sort as `sort` — and the rows and bytes of
    /// the contracted instance it holds.
    pub fn build_cost(&self) -> &BuildCost {
        &self.cost
    }

    /// The answer at index `k` together with its weight.
    pub fn access_weighted(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        self.rows_at(k).map(|rows| self.answer(rows))
    }

    /// The answer made of row `rows[i]` of the i-th atom left, and its
    /// weight: [`Weights::answer_weight`] of the decoded answer.
    fn answer(&self, rows: [u32; 2]) -> (TotalF64, Tuple) {
        let answer: Tuple = self.values(rows).collect();
        (
            self.weights.answer_weight(&self.head, answer.values()),
            answer,
        )
    }

    /// The values of the answer made of row `rows[i]` of the i-th atom
    /// left, in head order.
    fn values(&self, rows: [u32; 2]) -> impl Iterator<Item = Value> + '_ {
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

    /// The rows of the answer at rank `k` of (weight, head codes), or
    /// `None` when `k ≥ len()`: one selection, one count below its
    /// weight, and a linear-time selection by codes inside the plateau
    /// at that weight.
    fn rows_at(&self, k: u64) -> Option<[u32; 2]> {
        let w = self.union.select(k)?;
        let at = (k - self.union.count_lt(w)) as usize;
        let mut rows = self.rows_between(w, w);
        let (_, nth, _) = rows.select_nth_unstable_by(at, |x, y| self.by_rank(x, y));
        Some(nth.1)
    }

    /// The answers whose pair weight lies in `lo..=hi`, in no
    /// particular order: the runs of one staircase walk. O(n) plus one
    /// step per answer in the interval.
    fn rows_between(&self, lo: TotalF64, hi: TotalF64) -> Vec<RankedRow> {
        let (mut found, [a, b]) = (Vec::new(), &self.rows);
        self.union
            .staircase(Included(lo), Included(hi), |i, run, _| {
                found.extend(run.map(|j| (self.union.cell(i, j), [a[i], b[j]])));
            });
        found
    }
}

impl DirectAccess for SelectionSumHandle {
    /// Number of answers, counted at construction.
    fn len(&self) -> u64 {
        self.total
    }

    /// The answer at index `k` of (weight, tuple): one selection, one
    /// count below its weight, and a linear-time selection inside its
    /// plateau.
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        out.clear();
        let Some(rows) = self.rows_at(k) else {
            return false;
        };
        // Exactly the head arity: the owned `DirectAccess::access`
        // turns a fresh buffer into its tuple without reallocating.
        out.reserve_exact(self.head.len());
        out.extend(self.values(rows));
        true
    }

    /// The rank of `answer`, or `None` when it is not an answer: the
    /// answers weighing less, plus its place in its plateau. Its weight
    /// is summed as the selection sums it — each atom's partial sum,
    /// then one addition — so a near-tie rounds as the plateau does.
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
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
        let (mut rank, mut found) = (self.union.count_lt(w), false);
        for (_, rows) in self.rows_between(w, w) {
            match self.codes(rows).cmp(probe.iter().copied()) {
                Ordering::Less => rank += 1,
                Ordering::Equal => found = true,
                Ordering::Greater => {}
            }
        }
        found.then_some(rank)
    }

    /// The answers at the ranks in `range` (clamped to `len()`), in
    /// order: one selection of the first and the last rank's weights,
    /// then the answers weighing between them, ranked, less the ones
    /// below the first rank.
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.begin(self.head.len());
        let (lo, hi) = crate::window::clamp_range(&range, self.total);
        if lo == hi {
            return 0;
        }
        let (first, last) = self.union.select_pair(lo, hi - 1).expect("hi ≤ len()");
        let skip = (lo - self.union.count_lt(first)) as usize;
        let mut rows = self.rows_between(first, last);
        rows.sort_unstable_by(|x, y| self.by_rank(x, y));
        for &(_, rows) in rows.iter().skip(skip).take((hi - lo) as usize) {
            out.push_with(|vals| vals.extend(self.values(rows)));
        }
        out.len() as u64
    }
}

/// Lemma 7.10's bucketing: sort each side's rows by (join-key id,
/// weight, row) — two stable radix passes, weight first —, keep the id
/// runs present on both sides, one bucket each, and lay their weights
/// out as the union's. Also each weight's row.
fn pair_union(sides: [(&[u32], &[TotalF64]); 2]) -> ([Vec<u32>; 2], MatrixUnion<TotalF64>) {
    let mut rows = sides.map(|(ids, weights)| {
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        radix_sort_rows(&mut order, |r| weight_key(weights[r as usize]));
        radix_sort_rows(&mut order, |r| u64::from(ids[r as usize]));
        order
    });
    // The id at `at` on side `s`, and the end of its run.
    let run = |s: usize, at: usize| {
        let (ids, order) = (sides[s].0, &rows[s]);
        let id = ids[order[at] as usize];
        (
            id,
            at + order[at..].partition_point(|&r| ids[r as usize] == id),
        )
    };
    let (mut buckets, mut at) = (Vec::new(), [0, 0]);
    while at[0] < rows[0].len() && at[1] < rows[1].len() {
        let [(ia, ea), (ib, eb)] = [0, 1].map(|s| run(s, at[s]));
        if ia == ib {
            buckets.push([at[0]..ea, at[1]..eb]);
        }
        if ia <= ib {
            at[0] = ea;
        }
        if ib <= ia {
            at[1] = eb;
        }
    }
    // Keep only the buckets' rows, moved down in place.
    for (s, order) in rows.iter_mut().enumerate() {
        let mut kept = 0;
        for bucket in &mut buckets {
            order.copy_within(bucket[s].clone(), kept);
            bucket[s] = kept..kept + bucket[s].len();
            kept = bucket[s].end;
        }
        order.truncate(kept);
    }
    let weights = [0, 1].map(|s| rows[s].iter().map(|&r| sides[s].1[r as usize]).collect());
    (rows, MatrixUnion::new(weights, buckets))
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
        Ok(SelectionSumHandle::new(q, &db.clone().freeze(), w.clone(), fds)?.select_once(k))
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

    #[test]
    fn single_atom_plateaus_rank_by_weight_then_codes() {
        // One atom whose weights x + y form plateaus of 1 to 6 equal
        // weights, rows inserted out of order: every selection by weight
        // alone lands inside or at the edge of a plateau.
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let cells = (0..36).map(|i| (i * 13) % 36);
        let db = Database::new().with_i64_rows("R", 2, cells.map(|c| vec![c / 6, c % 6]));
        let handle =
            SelectionSumHandle::new(&q, &db.freeze(), Weights::identity(), &FdSet::empty())
                .unwrap();
        assert_eq!(handle.rels.len(), 1, "one atom is left");
        // The handle's order: a full sort by (weight, codes).
        let mut sorted: Vec<(i64, [i64; 2])> = (0..6)
            .flat_map(|x| (0..6).map(move |y| (x + y, [x, y])))
            .collect();
        sorted.sort_unstable();
        let tuple =
            |[x, y]: [i64; 2]| -> Tuple { [Value::int(x), Value::int(y)].into_iter().collect() };
        let expect: Vec<(TotalF64, Tuple)> = sorted
            .iter()
            .map(|&(w, xy)| (TotalF64(w as f64), tuple(xy)))
            .collect();
        assert_eq!(handle.len(), 36);
        for (k, want) in expect.iter().enumerate() {
            let (w, t) = handle.select_once(k as u64).unwrap();
            assert_eq!(w, want.0, "select_once({k})");
            let sum: i64 = t.values().iter().map(|v| v.as_int().unwrap()).sum();
            assert_eq!(TotalF64(sum as f64), w, "select_once({k}) witness");
            assert_eq!(
                handle.access_weighted(k as u64).as_ref(),
                Some(want),
                "access_weighted({k})"
            );
        }
        assert!(handle.select_once(36).is_none());
        assert!(handle.access_weighted(36).is_none());
        // Every window, those that start and end inside plateaus
        // included: both ends' weights come from one `select_pair`.
        let mut out = WindowBuf::new();
        for a in 0..36 {
            for b in a + 1..=37 {
                handle.access_range_into(a..b, &mut out);
                let want: Vec<Tuple> = expect[a as usize..b.min(36) as usize]
                    .iter()
                    .map(|(_, t)| t.clone())
                    .collect();
                assert_eq!(out.to_tuples(), want, "window {a}..{b}");
            }
        }
    }
}
