//! Direct access by sum-of-weights orders (Section 5, Theorems 5.1/8.9).
//!
//! The dichotomy's tractable side is narrow: the (FD-extended) query
//! must be acyclic with one atom containing all free variables
//! (equivalently `αfree(Q⁺) ≤ 1`, Lemma 5.4). Then a semijoin reduction
//! plus one sort materializes the answer array (Lemma 5.9) and accesses
//! are O(1) — everything else is 3SUM-hard (Lemmas 5.7/5.8).
//!
//! # Layout
//!
//! The sorted answer array is stored columnar and dictionary-encoded
//! (one `u32` column per head position, in weight order), with the
//! weights in a parallel array. Inverted access binary-searches a
//! tuple-sorted permutation of the rows, comparing codes column-wise —
//! O(log n), no tuple hashing, no heap allocation (the pre-arena layout
//! kept a `HashMap<Tuple, u64>` shadow copy of every answer).

use crate::budget::{BudgetMeter, BuildBudget, BuildCost, PhaseClock};
use crate::engine::OrderSpec;
use crate::error::BuildError;
use crate::fault;
use crate::plan::DirectAccess;
use crate::snapprep::{
    join_atoms, normalize_encoded, prepare_instance, project_view, reduce_atoms,
};
use crate::weights::{weight_key, Weights};
use crate::window::WindowBuf;
use rda_db::{radix_sort_rows, Database, EncodedRelation, Snapshot, Tuple, Value};
use rda_orderstat::TotalF64;
use rda_query::classify::Problem;
use rda_query::{positions_of, Cq, FdSet, VarId};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

thread_local! {
    /// Reusable probe-encoding buffer; keeps `inverted_access`
    /// allocation-free and the structure `Sync`.
    static PROBE: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// A materialized, weight-sorted answer array with O(1) direct access
/// and O(log n) allocation-free inverted access (Theorem 5.1 / 8.9
/// positive side).
///
/// Ties on weight are broken by the answer tuple itself, making the
/// order deterministic. The same array, joined from every atom and
/// sorted by weight or lexicographically (ties again by the tuple),
/// serves the [`Policy::Materialize`](crate::Policy) fallback.
#[derive(Debug, Clone)]
pub struct SumDirectAccess {
    /// The shared snapshot the structure was built over; its dictionary
    /// decodes the answer columns.
    snap: Arc<Snapshot>,
    /// Number of answers.
    len: usize,
    /// One code column per head position; row `k` is answer `k` in
    /// the array's order.
    cols: Vec<Vec<u32>>,
    /// Answer weights, parallel to the rows; empty when lexicographic.
    weights: Vec<TotalF64>,
    /// Row indices sorted by the encoded tuple — the binary-search
    /// index behind [`SumDirectAccess::inverted_access`].
    by_tuple: Vec<u32>,
    /// What the build paid, per phase (see [`BuildCost`]).
    cost: BuildCost,
}

/// What the shared tail of [`SumDirectAccess`]'s builds sorts by.
enum ArrayOrder<'a> {
    /// Ascending (weight, tuple) under these weights.
    Sum(&'a Weights),
    /// These head variables lexicographically, ties by the tuple.
    Lex(&'a [VarId]),
}

impl SumDirectAccess {
    /// Build for `q` over a frozen [`Snapshot`] with attribute weights
    /// `w`, under unary FDs `fds`. The whole build runs in the
    /// snapshot's code space — no relation is re-encoded or cloned.
    /// The structure pins its snapshot: later
    /// [`Snapshot::freeze_delta`] generations never disturb it.
    /// Fails with [`BuildError::NotTractable`] exactly on the paper's
    /// intractable side.
    pub fn build_on(
        q: &Cq,
        snap: &Arc<Snapshot>,
        w: &Weights,
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        Self::build_on_budgeted(q, snap, w, fds, BuildBudget::UNLIMITED)
    }

    /// [`SumDirectAccess::build_on`] under a [`BuildBudget`]: the
    /// answer-proportional columns are charged in one step once the
    /// projected answer count is known — before the weight, permutation,
    /// and column arrays are allocated — aborting hostile builds with
    /// [`BuildError::BudgetExceeded`].
    pub(crate) fn build_on_budgeted(
        q: &Cq,
        snap: &Arc<Snapshot>,
        w: &Weights,
        fds: &FdSet,
        budget: BuildBudget,
    ) -> Result<Self, BuildError> {
        fault::trip(fault::SITE_SUMDA_BUILD)
            .map_err(|f| BuildError::FaultInjected { site: f.site })?;
        Self::build_inner(q, snap, w, fds, budget)
    }

    /// The build pipeline behind [`SumDirectAccess::build_on_budgeted`]
    /// (no fault trip — the caller trips [`fault::SITE_SUMDA_BUILD`]
    /// exactly once).
    fn build_inner(
        q: &Cq,
        snap: &Arc<Snapshot>,
        w: &Weights,
        fds: &FdSet,
        budget: BuildBudget,
    ) -> Result<Self, BuildError> {
        let mut clock = PhaseClock::start();
        let mut cost = BuildCost::default();
        let (ext, mut rels) = prepare_instance(q, snap, fds, &Problem::DirectAccessSum)?;
        let qp = ext.query;
        cost.prep_ns = clock.lap();

        reduce_atoms(&qp, &mut rels);
        cost.reduce_ns = clock.lap();

        // Project the covering atom onto the *original* head (weights
        // range over the original free variables; promoted variables are
        // determined and weightless — Lemma 8.5): the distinct answers
        // in tuple order, the atom's own rows when the head is all of it;
        // projecting onto an empty head leaves one row or none.
        let free_plus = qp.free_set();
        let cover = qp
            .atoms()
            .iter()
            .position(|a| free_plus.is_subset(a.var_set()))
            .expect("classification guarantees a covering atom");
        let positions = positions_of(&qp.atoms()[cover].terms, q.free());
        let answers = project_view(&mut rels[cover], &positions, true);
        cost.layers_ns = clock.lap();
        let (order, mut meter) = (ArrayOrder::Sum(w), budget.meter());
        Self::sorted(snap, &answers, q.free(), order, &mut meter, clock, cost)
    }

    /// The [`Policy::Materialize`](crate::Policy) fallback, for any query
    /// and order: join every atom in code space ([`join_atoms`]), project
    /// onto the head and sort, all under `budget`. FDs play no part.
    pub(crate) fn materialize(
        q: &Cq,
        snap: &Arc<Snapshot>,
        order: &OrderSpec,
        budget: BuildBudget,
    ) -> Result<Self, BuildError> {
        let mut clock = PhaseClock::start();
        let mut cost = BuildCost::default();
        let mut meter = budget.meter();
        let (nq, rels) = normalize_encoded(q, snap)?;
        cost.prep_ns = clock.lap();
        let (vars, joined) = join_atoms(&nq, rels, &mut meter)?;
        cost.reduce_ns = clock.lap();
        let answers = joined.project(&positions_of(&vars, q.free()));
        cost.layers_ns = clock.lap();
        let order = match order {
            OrderSpec::Sum(w) => ArrayOrder::Sum(w),
            OrderSpec::Lex(lex) => ArrayOrder::Lex(lex),
        };
        Self::sorted(snap, &answers, q.free(), order, &mut meter, clock, cost)
    }

    /// Both builds' tail: sort `answers` (distinct, over `head`, in tuple
    /// order) by `order` into columns beside the tuple-sorted index,
    /// charged to `meter` in one step before any of them is allocated.
    fn sorted(
        snap: &Arc<Snapshot>,
        answers: &EncodedRelation,
        head: &[VarId],
        order: ArrayOrder<'_>,
        meter: &mut BudgetMeter,
        mut clock: PhaseClock,
        mut cost: BuildCost,
    ) -> Result<Self, BuildError> {
        let len = answers.len();
        // Per answer: a weight (16B, SUM only), two permutation slots, a
        // code per head position.
        let weight_bytes = 16 * u64::from(matches!(order, ArrayOrder::Sum(_)));
        let bytes = len as u64 * (weight_bytes + 8 + 4 * head.len() as u64);
        meter.charge(bytes, len as u64)?;
        let mut perm: Vec<u32> = (0..len as u32).collect();
        let weights: Vec<TotalF64> = match order {
            // Weigh each answer through one dense `code → weight` table
            // per head column, as `sumsel` does: summing from -0.0, left to
            // right, is `Iterator::sum`, bit for bit. A stable radix sort
            // on order-preserving bits keeps ties in tuple order.
            ArrayOrder::Sum(w) => {
                let mut row_weights = vec![TotalF64(-0.0); len];
                for (p, &v) in head.iter().enumerate() {
                    w.add_column(v, answers.col(p), snap.dict(), &mut row_weights);
                }
                radix_sort_rows(&mut perm, |r| weight_key(row_weights[r as usize]));
                perm.iter().map(|&r| row_weights[r as usize]).collect()
            }
            // The order is `lex`, ties by the tuple (as
            // `MaterializedAccess::by_lex` breaks them): one stable pass
            // per position, last first. The rows arrive in tuple order, so
            // the order's tail that ascends in storage order needs no
            // pass — and a prefix of the head none at all.
            ArrayOrder::Lex(lex) => {
                let lead = positions_of(head, lex);
                let rest = (0..head.len()).filter(|p| !lead.contains(p));
                let order: Vec<usize> = lead.iter().copied().chain(rest).collect();
                let tail = 1 + order.windows(2).rev().take_while(|w| w[0] < w[1]).count();
                for &p in order[..order.len().saturating_sub(tail)].iter().rev() {
                    let col = answers.col(p);
                    radix_sort_rows(&mut perm, |r| u64::from(col[r as usize]));
                }
                Vec::new()
            }
        };
        cost.sort_ns = clock.lap();

        let cols: Vec<Vec<u32>> = (0..head.len())
            .map(|p| perm.iter().map(|&r| answers.code(r as usize, p)).collect())
            .collect();
        // Row j in tuple order sits at position inverse_perm[j] of the
        // sorted order — exactly the tuple-sorted index.
        let mut by_tuple: Vec<u32> = vec![0; len];
        for (k, &r) in perm.iter().enumerate() {
            by_tuple[r as usize] = k as u32;
        }
        cost.dp_ns = clock.lap();
        cost.arena_entries = len as u64;
        cost.arena_bytes =
            (4 * (1 + head.len()) * len + std::mem::size_of_val(&weights[..])) as u64;
        Ok(SumDirectAccess {
            snap: Arc::clone(snap),
            len,
            cols,
            weights,
            by_tuple,
            cost,
        })
    }

    /// What this structure's build paid: nanoseconds per phase, answer
    /// rows and bytes. Recorded at build time; reading it costs nothing.
    pub fn build_cost(&self) -> &BuildCost {
        &self.cost
    }

    /// Convenience for one-shot builds from a value-level [`Database`]:
    /// clones and freezes `db` into a private snapshot, then builds.
    /// Serving workloads should freeze once ([`Database::freeze`]) and
    /// call [`SumDirectAccess::build_on`].
    pub fn build(q: &Cq, db: &Database, w: &Weights, fds: &FdSet) -> Result<Self, BuildError> {
        Self::build_on(q, &db.clone().freeze(), w, fds)
    }

    /// The snapshot the structure was built over.
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snap
    }

    /// The answer at index `k` together with its weight; `None` out of
    /// bounds and on a lexicographic array, which keeps no weights.
    pub fn access_weighted(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        let w = *self.weights.get(k as usize)?;
        self.access(k).map(|t| (w, t))
    }
}

impl DirectAccess for SumDirectAccess {
    /// Number of answers.
    fn len(&self) -> u64 {
        self.len as u64
    }

    /// Write the answer at index `k` in ascending weight order into
    /// `out` (reusing its capacity) and report whether `k` was in
    /// bounds. O(1), and **zero** heap allocations once `out` has grown
    /// to the head arity.
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        out.clear();
        if k >= self.len as u64 {
            return false;
        }
        // Exactly the head arity: the owned `DirectAccess::access`
        // turns a fresh buffer into its tuple without reallocating.
        out.reserve_exact(self.cols.len());
        let dict = self.snap.dict();
        out.extend(self.cols.iter().map(|c| dict.value(c[k as usize]).clone()));
        true
    }

    /// The rank of `answer` in the weight order, or `None` when it is
    /// not an answer. O(log n), allocation-free: the probe is encoded
    /// through the dictionary (a miss proves non-membership) and
    /// binary-searched against the tuple-sorted row index.
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        if answer.arity() != self.cols.len() {
            return None;
        }
        PROBE.with(|p| {
            let mut probe = p.borrow_mut();
            if !self.snap.dict().encode_tuple_into(answer, &mut probe) {
                return None;
            }
            self.by_tuple
                .binary_search_by(|&row| {
                    self.cols
                        .iter()
                        .zip(probe.iter())
                        .map(|(c, &pc)| c[row as usize].cmp(&pc))
                        .find(|o| o.is_ne())
                        .unwrap_or(Ordering::Equal)
                })
                .ok()
                .map(|j| self.by_tuple[j] as u64)
        })
    }

    /// Windowed access: write the answers at ranks `range` (clamped to
    /// `len()`) into `out` in order, returning how many were written.
    /// A straight columnar scan: O(1) per tuple, and **zero** heap
    /// allocations once `out` has grown to the window's size.
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.begin(self.cols.len());
        let (lo, hi) = crate::window::clamp_range(&range, self.len as u64);
        let dict = self.snap.dict();
        for k in lo as usize..hi as usize {
            out.push_with(|vals| vals.extend(self.cols.iter().map(|c| dict.value(c[k]).clone())));
        }
        hi - lo
    }

    /// Batched access: fill `out` with the answers at the given ranks
    /// (input order, out-of-range ranks skipped) and return how many
    /// rows were written. A columnar
    /// gather — O(1) per rank in any order, so no sorting pass is
    /// needed; **zero** heap allocations once `out` has grown.
    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        out.begin(self.cols.len());
        let dict = self.snap.dict();
        let mut n = 0;
        for &k in ranks {
            if (k as usize) < self.len {
                out.push_with(|vals| {
                    vals.extend(self.cols.iter().map(|c| dict.value(c[k as usize]).clone()))
                });
                n += 1;
            }
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::tup;
    use rda_query::parser::parse;

    #[test]
    fn single_atom_query_sorts_by_weight() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![3, 1], vec![1, 1], vec![2, 5]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        // Weights: (3,1)=4, (1,1)=2, (2,5)=7.
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![1, 1], tup![3, 1], tup![2, 5]]);
        assert_eq!(da.access_weighted(2).unwrap().0, TotalF64(7.0));
        assert_eq!(da.access(3), None);
    }

    #[test]
    fn covering_atom_with_semijoin_filtering() {
        // SUM x + y with z projected away (Example 1.1: tractable).
        let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows(
                "R",
                2,
                vec![vec![1, 5], vec![1, 2], vec![6, 2], vec![9, 99]],
            )
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        // (9,99) is dangling. Weights: (1,5)=6, (1,2)=3, (6,2)=8.
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![1, 2], tup![1, 5], tup![6, 2]]);
    }

    #[test]
    fn inverted_access_round_trips_and_rejects() {
        let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        for k in 0..da.len() {
            let t = da.access(k).unwrap();
            assert_eq!(da.inverted_access(&t), Some(k), "k={k}");
        }
        // Not an answer (dangling / absent / wrong arity).
        assert_eq!(da.inverted_access(&tup![9, 99]), None);
        assert_eq!(da.inverted_access(&tup![0, 0]), None);
        assert_eq!(da.inverted_access(&tup![1, 2, 3]), None);
    }

    #[test]
    fn access_into_matches_access() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![3, 1], vec![1, 1], vec![2, 5]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        let mut buf = Vec::new();
        for k in 0..da.len() {
            assert!(da.access_into(k, &mut buf));
            assert_eq!(Tuple::new(buf.clone()), da.access(k).unwrap());
        }
        assert!(!da.access_into(da.len(), &mut buf));
    }

    #[test]
    fn two_path_full_is_rejected() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let r = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty());
        assert!(matches!(r, Err(BuildError::NotTractable(_))));
    }

    #[test]
    fn fd_extension_unlocks_sum_access() {
        // Example 8.3: Q(x,z) :- R(x,y), S(y,z) with S: y → z; R extends
        // to cover {x, z}.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20], vec![5, 10]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![20, 3]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &fds).unwrap();
        // Answers (x, z): (1,7)=8, (2,3)=5, (5,7)=12.
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![2, 3], tup![1, 7], tup![5, 7]]);
    }

    #[test]
    fn ties_break_deterministically() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![2, 1], vec![1, 2], vec![0, 3]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
        // All weights are 3; ties break by tuple order.
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, vec![tup![0, 3], tup![1, 2], tup![2, 1]]);
    }

    #[test]
    fn radix_order_is_the_comparison_order() {
        // Every kind of f64 `total_cmp` distinguishes, on x; on y a few
        // more and a long run of default (zero) weights, so whole
        // blocks of answers tie.
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let (x, y) = (q.var("x").unwrap(), q.var("y").unwrap());
        let tiny = f64::from_bits(1); // the least subnormal
        let x_weights = [
            -0.0,
            0.0,
            -1.5,
            2.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            tiny,
            -tiny,
            f64::MIN_POSITIVE / 4.0,
            1e300,
            -1e300,
            f64::MAX,
        ];
        let mut w = Weights::zero();
        for (i, &wx) in x_weights.iter().enumerate() {
            w.set(x, i as i64, wx);
        }
        for (j, wy) in [-0.0, 0.0, -3.0, tiny, 1e300].into_iter().enumerate() {
            w.set(y, j as i64, wy);
        }
        let rows: Vec<Vec<i64>> = (0..x_weights.len() as i64)
            .flat_map(|i| (0..40).map(move |j| vec![i, j]))
            .collect();
        let db = Database::new().with_i64_rows("R", 2, rows);
        let da = SumDirectAccess::build(&q, &db, &w, &FdSet::empty()).unwrap();

        // The model: answers in tuple order, weighed value by value,
        // compared as (weight, tuple).
        let mut model: Vec<(TotalF64, Tuple)> = (0..x_weights.len() as i64)
            .flat_map(|i| (0..40).map(move |j| tup![i, j]))
            .map(|t| (w.answer_weight(&[x, y], t.values()), t))
            .collect();
        model.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        assert_eq!(da.len(), model.len() as u64);
        for (k, (weight, t)) in model.iter().enumerate() {
            let (got_w, got_t) = da.access_weighted(k as u64).unwrap();
            assert_eq!(&got_t, t, "rank {k}");
            assert_eq!(got_w.0.to_bits(), weight.0.to_bits(), "rank {k}");
        }
    }

    #[test]
    fn boolean_query() {
        let q = parse("Q() :- R(x, y)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
        let da = SumDirectAccess::build(&q, &db, &Weights::zero(), &FdSet::empty()).unwrap();
        assert_eq!(da.len(), 1);
        assert_eq!(da.inverted_access(&Tuple::new(vec![])), Some(0));
        let empty = Database::new().with_i64_rows("R", 2, vec![]);
        let da = SumDirectAccess::build(&q, &empty, &Weights::zero(), &FdSet::empty()).unwrap();
        assert_eq!(da.len(), 0);
        assert_eq!(da.inverted_access(&Tuple::new(vec![])), None);
    }
}
