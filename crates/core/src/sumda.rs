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

use crate::budget::{BuildBudget, BuildCost, PhaseClock};
use crate::error::BuildError;
use crate::fault;
use crate::plan::DirectAccess;
use crate::snapprep::{prepare_instance, reduce_atoms};
use crate::weights::Weights;
use crate::window::WindowBuf;
use rda_db::{radix_sort_rows, Database, Snapshot, Tuple, Value};
use rda_orderstat::TotalF64;
use rda_query::classify::Problem;
use rda_query::{positions_of, Cq, FdSet};
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
/// order deterministic.
#[derive(Debug, Clone)]
pub struct SumDirectAccess {
    /// The shared snapshot the structure was built over; its dictionary
    /// decodes the answer columns.
    snap: Arc<Snapshot>,
    /// Number of answers.
    len: usize,
    /// One code column per head position; row `k` is answer `k` in
    /// ascending (weight, tuple) order.
    cols: Vec<Vec<u32>>,
    /// Answer weights, parallel to the rows.
    weights: Vec<TotalF64>,
    /// Row indices sorted by the encoded tuple — the binary-search
    /// index behind [`SumDirectAccess::inverted_access`].
    by_tuple: Vec<u32>,
    /// What the build paid, per phase (see [`BuildCost`]).
    cost: BuildCost,
}

/// `w`'s bits mapped so that unsigned integer order is
/// [`f64::total_cmp`]'s order: negative weights (sign bit set) have
/// every bit flipped, the others only the sign bit.
fn total_order_bits(w: TotalF64) -> u64 {
    let b = w.0.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | 1 << 63
    }
}

/// Bytes a finished structure of `len` answers over `arity` head
/// positions holds: one weight, one tuple-index slot and `arity` codes
/// per answer.
fn answer_bytes(len: usize, arity: usize) -> u64 {
    len as u64 * (std::mem::size_of::<TotalF64>() as u64 + 4 + 4 * arity as u64)
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

        // Boolean queries: one empty answer iff the join is non-empty.
        let out_vars = q.free().to_vec();
        if out_vars.is_empty() {
            let empty = rels.iter().any(|r| r.is_empty());
            cost.arena_entries = u64::from(!empty);
            cost.arena_bytes = answer_bytes(usize::from(!empty), 0);
            return Ok(SumDirectAccess {
                snap: Arc::clone(snap),
                len: usize::from(!empty),
                cols: Vec::new(),
                weights: if empty {
                    Vec::new()
                } else {
                    vec![TotalF64(0.0)]
                },
                by_tuple: if empty { Vec::new() } else { vec![0] },
                cost,
            });
        }

        // Project the covering atom onto the *original* head (weights
        // range over the original free variables; promoted variables are
        // determined and weightless — Lemma 8.5). `project` sorts and
        // deduplicates, so the rows are the distinct answers in tuple
        // order.
        let free_plus = qp.free_set();
        let cover = qp
            .atoms()
            .iter()
            .position(|a| free_plus.is_subset(a.var_set()))
            .expect("classification guarantees a covering atom");
        let answers = rels[cover].project(&positions_of(&qp.atoms()[cover].terms, &out_vars));
        cost.layers_ns = clock.lap();

        // Weigh each answer through one dense `code → weight` table per
        // head column, as `sumsel` does. Summing the columns left to
        // right from -0.0 is exactly `Iterator::sum` over an answer's
        // weights, so every weight keeps its bits. Then order the rows
        // by a stable radix sort over the order-preserving image of each
        // weight: ties keep row order, and rows already ascend in tuple
        // order, so this is exactly the (weight, tuple) order.
        let dict = snap.dict();
        let len = answers.len();
        // The entire remaining build is Θ(len): per answer, one weight
        // (16B), two permutation slots (8B), one column code per head
        // position (4B each). Charge it all here, before the first big
        // allocation.
        budget.meter().charge(
            len as u64 * (16 + 8 + 4 * out_vars.len() as u64),
            len as u64,
        )?;
        let mut row_weights = vec![TotalF64(-0.0); len];
        for (p, &v) in out_vars.iter().enumerate() {
            w.add_column(v, answers.col(p), dict, &mut row_weights);
        }
        let mut perm: Vec<u32> = (0..len as u32).collect();
        radix_sort_rows(&mut perm, |r| total_order_bits(row_weights[r as usize]));
        cost.sort_ns = clock.lap();

        let cols: Vec<Vec<u32>> = (0..out_vars.len())
            .map(|p| perm.iter().map(|&r| answers.code(r as usize, p)).collect())
            .collect();
        let weights: Vec<TotalF64> = perm.iter().map(|&r| row_weights[r as usize]).collect();
        // Row j in tuple order sits at position inverse_perm[j] of the
        // weight order — exactly the tuple-sorted index.
        let mut by_tuple: Vec<u32> = vec![0; len];
        for (k, &r) in perm.iter().enumerate() {
            by_tuple[r as usize] = k as u32;
        }
        cost.dp_ns = clock.lap();
        cost.arena_entries = len as u64;
        cost.arena_bytes = answer_bytes(len, out_vars.len());
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

    /// Number of answers.
    pub(crate) fn len(&self) -> u64 {
        self.len as u64
    }

    /// Write the answer at index `k` in ascending weight order into
    /// `out` (reusing its capacity) and report whether `k` was in
    /// bounds. O(1), and **zero** heap allocations once `out` has grown
    /// to the head arity.
    pub(crate) fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
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

    /// The answer at index `k` together with its weight.
    pub fn access_weighted(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        self.access(k).map(|t| (self.weights[k as usize], t))
    }

    /// The rank of `answer` in the weight order, or `None` when it is
    /// not an answer. O(log n), allocation-free: the probe is encoded
    /// through the dictionary (a miss proves non-membership) and
    /// binary-searched against the tuple-sorted row index.
    pub(crate) fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
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
    pub(crate) fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
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
    pub fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
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
