//! The uniform access layer behind [`crate::Engine`]: the
//! [`DirectAccess`] trait, the [`RankedAnswers`] handle, and the
//! [`Explain`] report.
//!
//! The paper's dichotomies sort every (query, order) pair into one of
//! three regimes — native direct access, selection-only, or provably
//! hard. Each regime historically had its own entry point with its own
//! signature; this module gives them one shape:
//!
//! * [`DirectAccess`] — a backend implements `len`, `access_into` and
//!   `inverted_access` (and overrides the window and batch kernels
//!   `access_range_into` / `access_batch_into` when it can beat a loop
//!   of accesses); every owned form — `access`, `access_range`,
//!   `access_batch`, `top_k`, `page`, `iter` — is written once, here,
//!   over those five. Implemented by [`LexDirectAccess`],
//!   [`SumDirectAccess`], the [`MaterializedAccess`] baseline, and the
//!   selection and any-k handles;
//! * [`RankedAnswers`] — the engine's routed backend, one enum over all
//!   strategies including the selection-backed handles;
//! * [`Explain`] — why the router chose what it chose: the verdict, the
//!   structural witness (e.g. a disruptive trio), and the backend with
//!   its ⟨preprocessing, access⟩ guarantee.
//!
//! Every backend serves single accesses, whole windows, and lazy
//! streams through the same trait:
//!
//! ```
//! use rda_core::{DirectAccess, Engine, OrderSpec, Policy};
//! use rda_db::Database;
//! use rda_query::{parser::parse, FdSet};
//!
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
//! let plan = Engine::new(db.freeze())
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y", "z"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!(plan.access(2), plan.page(2, 1).pop());       // one rank …
//! assert_eq!(plan.top_k(3), plan.access_range(0..3));      // … or a window
//! assert_eq!(plan.stream().count() as u64, plan.len());    // … or a stream
//! ```

use crate::budget::BuildCost;
use crate::error::BuildError;
use crate::lexsel::LexSelection;
use crate::sumsel::SumSelection;
use crate::weights::Weights;
use crate::window::{clamp_range, RankedStream, WindowBuf};
use crate::{LexDirectAccess, SumDirectAccess};
use rda_baseline::{MaterializedAccess, RankedEnumerator};
use rda_db::{Snapshot, Tuple, Value};
use rda_orderstat::TotalF64;
use rda_query::classify::{Reason, Verdict};
use rda_query::{Cq, FdSet, VarId};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex, OnceLock};

/// Position-indexed ranked access to a query's answers, with one owned
/// return convention for every backend.
///
/// Implementors expose the answers of a conjunctive query as a sorted,
/// random-access array without necessarily materializing it. Cost per
/// operation varies by backend — see [`Backend::guarantee`].
///
/// A backend implements three methods — [`len`](DirectAccess::len),
/// [`access_into`](DirectAccess::access_into) and
/// [`inverted_access`](DirectAccess::inverted_access) — and may
/// override the two kernels
/// [`access_range_into`](DirectAccess::access_range_into) and
/// [`access_batch_into`](DirectAccess::access_batch_into), whose
/// defaults loop `access_into`. Everything else is provided over those
/// five and overridden only where laziness is the contract (the any-k
/// handle's `is_empty` / `iter`).
pub trait DirectAccess {
    /// Number of answers (`|Q(I)|`).
    ///
    /// The ranked-enumeration fallback pays for the first call (it
    /// drains the stream) and caches the result; every other backend,
    /// the selection handles included, knows its count from
    /// construction.
    fn len(&self) -> u64;

    /// Write the answer at index `k` of the sorted answer array into
    /// `out` (head order, reusing its capacity) and return `true`, or
    /// clear `out` and return `false` when `k ≥ len()`
    /// ("out-of-bound"). The native direct-access structures serve this
    /// with **zero** heap allocations once `out` has grown to the head
    /// arity.
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool;

    /// The index of `answer` in the sorted answer array, or `None` when
    /// it is not an answer ("not-an-answer") — including tuples whose
    /// arity does not match the query head.
    fn inverted_access(&self, answer: &Tuple) -> Option<u64>;

    /// The window kernel: fill `out` with the answers at the ranks in
    /// `range` (clamped to the answer count), in order, reusing its
    /// storage, and return how many rows were written.
    ///
    /// The default walks rank by rank; the native direct-access
    /// structures override it to pay their O(log n) rank bracketing
    /// once per window instead of once per tuple, and refill an
    /// already-grown buffer with **zero** heap allocations.
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.clear();
        let mut row = Vec::new();
        for k in range {
            if !self.access_into(k, &mut row) {
                break;
            }
            out.push_row(&row);
        }
        out.len() as u64
    }

    /// The batch kernel: fill `out` with the answers at the given ranks
    /// — unsorted, duplicated, and out-of-range ranks welcome — in
    /// **input order**, with out-of-range ranks skipped, and return how
    /// many rows were written.
    ///
    /// The default pays one full access per rank; the lexicographic
    /// arena overrides it to share one descent across a batch whose
    /// ranks already ascend (see
    /// [`LexDirectAccess::access_batch_into`]). On the native
    /// structures a refill of an already-grown buffer performs **zero**
    /// heap allocations.
    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        out.clear();
        let mut row = Vec::new();
        for &k in ranks {
            if self.access_into(k, &mut row) {
                out.push_row(&row);
            }
        }
        out.len() as u64
    }

    /// `true` when the query has no answers.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The answer at index `k` of the sorted answer array, or `None`
    /// when `k ≥ len()` — [`DirectAccess::access_into`] as an owned
    /// tuple (its one heap allocation on the native structures).
    fn access(&self, k: u64) -> Option<Tuple> {
        let mut row = Vec::new();
        self.access_into(k, &mut row).then(|| Tuple::new(row))
    }

    /// The answers at the ranks in `range` (clamped to the answer
    /// count), in order — one window, equivalent to the sequence of
    /// `access(k)` results for `k` in `range`.
    fn access_range(&self, range: Range<u64>) -> Vec<Tuple> {
        let mut out = WindowBuf::new();
        self.access_range_into(range, &mut out);
        out.to_tuples()
    }

    /// The answers at the given ranks, in input order, out-of-range
    /// ranks skipped. Equivalent to
    /// `ranks.iter().filter_map(|&k| self.access(k))`.
    fn access_batch(&self, ranks: &[u64]) -> Vec<Tuple> {
        let mut out = WindowBuf::new();
        self.access_batch_into(ranks, &mut out);
        out.to_tuples()
    }

    /// The `k` first answers (fewer when the query has fewer).
    fn top_k(&self, k: u64) -> Vec<Tuple> {
        self.access_range(0..k)
    }

    /// Allocation-free [`DirectAccess::top_k`].
    fn top_k_into(&self, k: u64, out: &mut WindowBuf) -> u64 {
        self.access_range_into(0..k, out)
    }

    /// Page `offset..offset + len` of the answers (clamped) — the
    /// pagination shape of [`DirectAccess::access_range`].
    fn page(&self, offset: u64, len: u64) -> Vec<Tuple> {
        self.access_range(offset..offset.saturating_add(len))
    }

    /// Allocation-free [`DirectAccess::page`].
    fn page_into(&self, offset: u64, len: u64, out: &mut WindowBuf) -> u64 {
        self.access_range_into(offset..offset.saturating_add(len), out)
    }

    /// Iterate all answers in order: a [`RankedStream`] over the window
    /// kernel, so the native structures pay one rank bracketing per
    /// batch, not per tuple.
    fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        Box::new(RankedStream::new(self, 0))
    }
}

/// `access_into` for a backend that holds (or just computed) the answer
/// as a tuple: copy it into `out`, sized exactly so the provided
/// [`DirectAccess::access`] turns the buffer into a tuple without a
/// second allocation.
fn copy_into(answer: Option<&Tuple>, out: &mut Vec<Value>) -> bool {
    out.clear();
    let Some(t) = answer else { return false };
    out.reserve_exact(t.arity());
    out.extend_from_slice(t.values());
    true
}

/// Forward the trait's required methods and both kernels to the
/// inherent methods of a native structure.
macro_rules! forward_native {
    ($ty:ty) => {
        impl DirectAccess for $ty {
            fn len(&self) -> u64 {
                <$ty>::len(self)
            }
            fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
                <$ty>::access_into(self, k, out)
            }
            fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
                <$ty>::inverted_access(self, answer)
            }
            fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
                <$ty>::access_range_into(self, range, out)
            }
            fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
                <$ty>::access_batch_into(self, ranks, out)
            }
        }
    };
}

forward_native!(LexDirectAccess);
forward_native!(SumDirectAccess);

impl DirectAccess for MaterializedAccess {
    fn len(&self) -> u64 {
        MaterializedAccess::len(self)
    }
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        copy_into(self.answers().get(k as usize), out)
    }
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        MaterializedAccess::inverted_access(self, answer)
    }
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.clear();
        let (lo, hi) = clamp_range(&range, self.len());
        for t in &self.answers()[lo as usize..hi as usize] {
            out.push_tuple(t);
        }
        hi - lo
    }
}

/// Selection-backed handle for lexicographic orders (Theorem 6.1):
/// O(n) per access, answers ordered by the same completed internal
/// order the selection algorithm uses.
///
/// Construction does everything that does not depend on the rank —
/// validation, classification, FD check and extension, the reduction to
/// a full query in the snapshot's code space, one counting pass for
/// `len()` — and holds the reduced instance; an access is then only the
/// selection rounds of Lemma 6.6, and cannot fail.
pub struct SelectionLexHandle {
    sel: LexSelection,
}

impl SelectionLexHandle {
    /// Prepare `q` over the snapshot's encoded relations for selection
    /// by `lex`. Instance-level errors (missing relation, arity
    /// mismatch, FD violation) and an answer count above `u64::MAX`
    /// ([`BuildError::CountOverflow`]) surface here.
    pub fn new(
        q: &Cq,
        snap: &Arc<Snapshot>,
        lex: Vec<VarId>,
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        let sel = LexSelection::prepare(q, snap, &lex, fds)?;
        Ok(SelectionLexHandle { sel })
    }

    /// Run exactly one selection (Theorem 6.1) for rank `k` — the raw
    /// ⟨1, n⟩ operation, with no caching. `None` means out-of-bound.
    pub fn select_once(&self, k: u64) -> Option<Tuple> {
        self.sel.select(k)
    }

    /// What construction paid and how much the handle holds (rows and
    /// bytes of the reduced instance).
    pub fn build_cost(&self) -> &BuildCost {
        self.sel.cost()
    }
}

impl DirectAccess for SelectionLexHandle {
    fn len(&self) -> u64 {
        self.sel.len()
    }

    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        copy_into(self.sel.select(k).as_ref(), out)
    }

    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        if answer.arity() != self.sel.arity() {
            return None; // wrong arity is never an answer
        }
        // Head positions realizing the completed internal order —
        // `None` when the head restriction is unsound (an FD-promoted
        // variable precedes its determiner in the completion tail; see
        // `lexsel::comparator_positions`): scan ranks then.
        let Some(positions) = &self.sel.cmp_positions else {
            return (0..self.len()).find(|&k| self.access(k).as_ref() == Some(answer));
        };
        // The completed order is total on answers, so binary search with
        // O(log n) selection calls finds the only candidate rank.
        let by_order = |t: Tuple| {
            let on_positions = positions.iter().map(|&p| t[p].cmp(&answer[p]));
            on_positions.fold(Ordering::Equal, Ordering::then)
        };
        let pos = first_rank(0..self.len(), |k| {
            by_order(self.access(k).expect("k < len")).is_ge()
        });
        (self.access(pos).as_ref() == Some(answer)).then_some(pos)
    }
}

/// Selection-backed handle for sum-of-weights orders (Theorem 7.3):
/// O(n log n) per access.
///
/// Construction prepares the instance once, in the snapshot's code
/// space: reduction, contraction, row weights
/// and the weight-sorted join-key buckets, whose sizes give `len()`.
/// An access is then only the selection over them, and cannot fail.
///
/// The underlying selection algorithm only pins answers down by weight
/// (ties are broken arbitrarily, and the same representative can come
/// back for every rank of an equal-weight plateau), so this handle
/// defines its order as **(weight, then tuple)**: ranks whose weight is
/// unique are served straight from selection, while ranks inside a tie
/// plateau are served from a lazily materialized tie-break index — every
/// answer's rows, sorted in code space — built on first contact with a
/// tie. Workloads with distinct weights never pay for that index.
pub struct SelectionSumHandle {
    /// Boxed: the prepared instance is several times the size of any
    /// other [`RankedAnswers`] variant.
    sel: Box<SumSelection>,
    tie_index: OnceLock<Vec<[u32; 2]>>,
}

impl SelectionSumHandle {
    /// Prepare `q` over the snapshot's encoded relations for selection
    /// by `weights`. Instance-level errors surface here.
    pub fn new(
        q: &Cq,
        snap: &Arc<Snapshot>,
        weights: Weights,
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        Ok(SelectionSumHandle {
            sel: Box::new(SumSelection::prepare(q, snap, weights, fds)?),
            tie_index: OnceLock::new(),
        })
    }

    /// Run exactly one weighted selection (Theorem 7.3) for rank `k` —
    /// the raw ⟨1, n log n⟩ operation: ties broken arbitrarily, no tie
    /// index, no caching. `None` means out-of-bound.
    pub fn select_once(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        self.sel.select(k)
    }

    /// What construction paid and how much the handle holds (rows and
    /// bytes of the contracted instance).
    pub fn build_cost(&self) -> &BuildCost {
        self.sel.cost()
    }

    /// `true` when rank `k` (with weight `w`) shares its weight with a
    /// neighboring rank — two selections.
    fn is_tied(&self, k: u64, w: TotalF64) -> bool {
        (k > 0 && self.sel.select(k - 1).map(|(p, _)| p) == Some(w))
            || self.sel.select(k + 1).map(|(n, _)| n) == Some(w)
    }

    /// The (weight, tuple)-sorted array serving tie plateaus; built
    /// once, on the first access that hits a tie.
    fn tie_index(&self) -> &[[u32; 2]] {
        self.tie_index.get_or_init(|| self.sel.ranked_rows())
    }

    /// `true` once a tie forced the lazily materialized tie-break index
    /// into existence — the materialization meter for laziness tests:
    /// windowed scans over distinct-weight workloads must never flip it.
    pub fn tie_index_built(&self) -> bool {
        self.tie_index.get().is_some()
    }

    /// The answer at index `k` together with its weight.
    pub fn access_weighted(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        // Once the tie index exists it is strictly cheaper than
        // selection — serve everything from it.
        if let Some(idx) = self.tie_index.get() {
            return idx.get(k as usize).map(|&rows| self.sel.answer(rows));
        }
        let (w, mut t) = self.sel.select(k)?;
        if self.is_tied(k, w) {
            t = self.sel.answer(self.tie_index()[k as usize]).1;
        }
        Some((w, t))
    }
}

impl DirectAccess for SelectionSumHandle {
    fn len(&self) -> u64 {
        self.sel.len()
    }

    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        copy_into(self.access_weighted(k).as_ref().map(|(_, t)| t), out)
    }

    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        let w = self.sel.weight_of(answer)?; // wrong arity is never an answer
        let at = |k| self.access_weighted(k).expect("k < len");
        // The first rank at the answer's weight: a unique weight pins
        // the rank; a plateau ascends by tuple, so search on inside it.
        let weight_at = |k| match self.tie_index.get() {
            Some(_) => at(k).0,
            None => self.sel.select(k).expect("k < len").0,
        };
        let lo = first_rank(0..self.len(), |k| weight_at(k) >= w);
        let (wl, tl) = self.access_weighted(lo)?;
        if wl != w || tl > *answer {
            return None;
        }
        if tl == *answer {
            return Some(lo);
        }
        // `lo` holds a smaller tuple of the same weight. Alone at its
        // weight (no tie index yet), it was the only candidate;
        // otherwise search on through its plateau.
        self.tie_index.get()?;
        let hi = first_rank(lo..self.len(), |k| at(k).0 > w);
        let pos = first_rank(lo..hi, |k| at(k).1 >= *answer);
        (pos < hi && at(pos).1 == *answer).then_some(pos)
    }

    fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        // A full scan by repeated selection would cost ~3 selections per
        // rank; the tie index serves the identical (weight, tuple) order
        // in one O(|out| log |out|) build and O(1) per element.
        let rows = self.tie_index().iter();
        Box::new(rows.map(|&rows| self.sel.answer(rows).1))
    }
}

/// The first rank in `ranks` at which `reached` holds, or `ranks.end`
/// — `reached` must be monotone over the ranks.
fn first_rank(ranks: Range<u64>, reached: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (ranks.start, ranks.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Fallback handle over the any-k ranked enumerator (Tziavelis et al.):
/// `access(k)` materializes the answer stream up to `k` and caches it,
/// so sequential scans pay logarithmic delay per step while random
/// access costs Θ(k log n) on first touch.
///
/// The enumerator state sits behind a [`Mutex`], so a shared plan stays
/// usable from many threads — concurrent accesses serialize on the
/// stream (it is inherently sequential) but serve cached prefixes
/// without re-enumerating.
pub struct RankedEnumHandle {
    state: Mutex<EnumState>,
}

struct EnumState {
    enumerator: RankedEnumerator,
    cache: Vec<Tuple>,
    exhausted: bool,
}

impl EnumState {
    /// Extend the cached prefix to `target` answers (or exhaustion).
    fn fill_to(&mut self, target: u64) {
        if self.exhausted {
            return;
        }
        while (self.cache.len() as u64) < target {
            match self.enumerator.next() {
                Some((_, t)) => self.cache.push(t),
                None => {
                    self.exhausted = true;
                    break;
                }
            }
        }
    }
}

impl RankedEnumHandle {
    pub(crate) fn new(enumerator: RankedEnumerator) -> Self {
        RankedEnumHandle {
            state: Mutex::new(EnumState {
                enumerator,
                cache: Vec::new(),
                exhausted: false,
            }),
        }
    }

    fn state(&self) -> std::sync::MutexGuard<'_, EnumState> {
        self.state.lock().expect("enumerator state not poisoned")
    }

    /// How many answers the underlying enumerator has produced so far —
    /// the laziness meter: streaming a prefix must keep this close to
    /// the prefix length, never the full answer count.
    pub fn cached_prefix_len(&self) -> u64 {
        self.state().cache.len() as u64
    }
}

impl DirectAccess for RankedEnumHandle {
    fn len(&self) -> u64 {
        let mut s = self.state();
        s.fill_to(u64::MAX);
        s.cache.len() as u64
    }

    fn is_empty(&self) -> bool {
        // The default would drain the whole stream via len(); popping
        // one answer settles emptiness in O(log n).
        let mut s = self.state();
        s.fill_to(1);
        s.cache.is_empty()
    }

    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        let mut s = self.state();
        s.fill_to(k.saturating_add(1));
        copy_into(s.cache.get(k as usize), out)
    }

    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        // The stream is only ordered by weight; without the weight of
        // `answer` we scan — Θ(len) on first call, cached afterwards.
        let mut s = self.state();
        s.fill_to(u64::MAX);
        s.cache.iter().position(|t| t == answer).map(|i| i as u64)
    }

    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        // One lock and one fill for the whole window; filling only to
        // `range.end` (never via len()) keeps the pay-as-you-go
        // guarantee.
        out.clear();
        let mut s = self.state();
        s.fill_to(range.end);
        let (lo, hi) = clamp_range(&range, s.cache.len() as u64);
        for t in &s.cache[lo as usize..hi as usize] {
            out.push_tuple(t);
        }
        hi - lo
    }

    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        // One lock and one fill (to the largest requested rank) for the
        // whole batch, instead of a lock round trip per rank.
        out.clear();
        let mut s = self.state();
        if let Some(&max) = ranks.iter().max() {
            s.fill_to(max.saturating_add(1));
        }
        for t in ranks.iter().filter_map(|&k| s.cache.get(k as usize)) {
            out.push_tuple(t);
        }
        out.len() as u64
    }

    fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        // Not via len(): a partial consumer (`iter().take(5)`) must not
        // drain the whole stream up front.
        Box::new((0u64..).map_while(|k| self.access(k)))
    }
}

/// The engine's routed backend: every strategy behind one enum, all
/// implementing [`DirectAccess`]. Since the snapshot refactor every
/// variant owns (or `Arc`-shares) its data, so a routed backend is
/// `Send + Sync + 'static` — one plan can serve many client threads.
pub enum RankedAnswers {
    /// Native lexicographic direct access (⟨n log n, log n⟩).
    Lex(LexDirectAccess),
    /// Native sum-of-weights direct access (⟨n log n, 1⟩).
    Sum(SumDirectAccess),
    /// Lexicographic selection over a prepared instance (⟨1, n⟩ per
    /// access).
    SelectionLex(SelectionLexHandle),
    /// Sum-of-weights selection over a prepared instance (⟨1, n log n⟩
    /// per access).
    SelectionSum(SelectionSumHandle),
    /// Materialize-and-sort fallback (Θ(|out| log |out|) preprocessing,
    /// O(1) access).
    Materialized(MaterializedAccess),
    /// Ranked-enumeration fallback (any-k; Θ(k log n) to first reach
    /// index `k`, cached).
    RankedEnum(RankedEnumHandle),
}

// The concurrency contract of the serving core: a prepared plan is
// shareable across client threads as-is.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<RankedAnswers>();
    assert_send_sync::<AccessPlan>();
};

macro_rules! dispatch {
    ($self:ident, $inner:ident => $e:expr) => {
        match $self {
            RankedAnswers::Lex($inner) => $e,
            RankedAnswers::Sum($inner) => $e,
            RankedAnswers::SelectionLex($inner) => $e,
            RankedAnswers::SelectionSum($inner) => $e,
            RankedAnswers::Materialized($inner) => $e,
            RankedAnswers::RankedEnum($inner) => $e,
        }
    };
}

impl DirectAccess for RankedAnswers {
    fn len(&self) -> u64 {
        dispatch!(self, b => b.len())
    }
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        dispatch!(self, b => b.access_into(k, out))
    }
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        dispatch!(self, b => b.inverted_access(answer))
    }
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        dispatch!(self, b => b.access_range_into(range, out))
    }
    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        dispatch!(self, b => b.access_batch_into(ranks, out))
    }
    // is_empty and iter are forwarded (not provided) so the lazy
    // overrides — the ranked-enum handle's — survive the facade.
    fn is_empty(&self) -> bool {
        dispatch!(self, b => DirectAccess::is_empty(b))
    }
    fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        dispatch!(self, b => DirectAccess::iter(b))
    }
}

impl fmt::Debug for RankedAnswers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RankedAnswers::{}", self.backend())
    }
}

impl RankedAnswers {
    /// A lazy, batch-fetching ranked iterator over all answers (see
    /// [`RankedStream`]): any-k-style enumeration with nothing
    /// materialized beyond one batch.
    pub fn stream(&self) -> RankedStream<'_> {
        self.stream_from(0)
    }

    /// [`RankedAnswers::stream`] starting at rank `start` — resume a
    /// paginated scan exactly where the previous page ended.
    pub fn stream_from(&self, start: u64) -> RankedStream<'_> {
        RankedStream::new(self, start)
    }

    /// Which backend the router chose.
    pub fn backend(&self) -> Backend {
        match self {
            RankedAnswers::Lex(_) => Backend::LexDirectAccess,
            RankedAnswers::Sum(_) => Backend::SumDirectAccess,
            RankedAnswers::SelectionLex(_) => Backend::SelectionLex,
            RankedAnswers::SelectionSum(_) => Backend::SelectionSum,
            RankedAnswers::Materialized(_) => Backend::Materialized,
            RankedAnswers::RankedEnum(_) => Backend::RankedEnum,
        }
    }
}

/// The strategies [`crate::Engine`] routes between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// [`LexDirectAccess`] — the paper's layered-join-tree structure.
    LexDirectAccess,
    /// [`SumDirectAccess`] — the paper's covered-free-variables case.
    SumDirectAccess,
    /// Per-access lexicographic selection (Theorem 6.1).
    SelectionLex,
    /// Per-access sum selection (Theorem 7.3).
    SelectionSum,
    /// Materialize-and-sort baseline.
    Materialized,
    /// Any-k ranked enumeration baseline.
    RankedEnum,
}

impl Backend {
    /// The ⟨preprocessing, per-access⟩ cost guarantee.
    pub fn guarantee(self) -> &'static str {
        match self {
            Backend::LexDirectAccess => "<n log n, log n>",
            Backend::SumDirectAccess => "<n log n, 1>",
            Backend::SelectionLex => "<1, n>",
            Backend::SelectionSum => "<1, n log n>",
            Backend::Materialized => "<|out| log |out|, 1>",
            Backend::RankedEnum => "<n log n, k log n amortized>",
        }
    }

    /// `true` for the paper's native direct-access structures.
    pub fn is_native_direct_access(self) -> bool {
        matches!(self, Backend::LexDirectAccess | Backend::SumDirectAccess)
    }

    /// `true` for the explicit fallbacks outside the tractable regions.
    pub fn is_fallback(self) -> bool {
        matches!(self, Backend::Materialized | Backend::RankedEnum)
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Backend::LexDirectAccess => "lex-direct-access",
            Backend::SumDirectAccess => "sum-direct-access",
            Backend::SelectionLex => "selection-lex",
            Backend::SelectionSum => "selection-sum",
            Backend::Materialized => "materialized",
            Backend::RankedEnum => "ranked-enum",
        };
        write!(f, "{name}")
    }
}

/// Render `reason` with the query's variable names (the classifier
/// reports raw [`VarId`]s).
pub(crate) fn describe_reason(q: &Cq, reason: &Reason) -> String {
    let names = |vs: &[VarId]| -> String {
        vs.iter()
            .map(|&v| q.var_name(v))
            .collect::<Vec<_>>()
            .join(", ")
    };
    match reason {
        Reason::DisruptiveTrio(a, b, c) => {
            format!("disruptive trio ({})", names(&[*a, *b, *c]))
        }
        Reason::NotFreeConnex { free_path: Some(p) } => {
            format!("not free-connex: free path ({})", names(p))
        }
        Reason::NotLConnex { l_path: Some(p) } => {
            format!("not L-connex for the prefix: L-path ({})", names(p))
        }
        other => other.to_string(),
    }
}

/// The router's report: what was asked, what the dichotomy said, which
/// structural witness certifies it, and which backend now serves the
/// answers.
#[derive(Debug, Clone)]
pub struct Explain {
    pub(crate) problem_desc: String,
    pub(crate) verdict: Verdict,
    pub(crate) selection_verdict: Option<Verdict>,
    pub(crate) witness: Option<String>,
    pub(crate) backend: Backend,
    pub(crate) build: Option<BuildCost>,
}

impl Explain {
    /// The dichotomy's verdict on *direct access* for this order.
    pub fn verdict(&self) -> &Verdict {
        &self.verdict
    }

    /// The structural witness for a non-tractable verdict (disruptive
    /// trio, free path, L-path, αfree, fmh), with variable names.
    pub fn witness(&self) -> Option<&str> {
        self.witness.as_deref()
    }

    /// The backend the router chose.
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// What building the structure behind this plan paid — nanoseconds
    /// per phase, entries and bytes held: the arenas of the native
    /// direct-access backends, the prepared (reduced) instance of the
    /// selection handles. `None` for the fallbacks.
    pub fn build_cost(&self) -> Option<&BuildCost> {
        self.build.as_ref()
    }
}

/// A prepared, ready-to-serve ranked view of a query's answers: the
/// routed [`RankedAnswers`] backend plus the [`Explain`] report saying
/// why that backend was chosen.
///
/// Every backend owns or `Arc`-shares what it serves from (the
/// snapshot, its arenas, a selection handle's reduced instance), so a
/// plan outlives the engine that prepared it. It implements
/// [`DirectAccess`] by delegation, so most callers never need to look
/// inside.
pub struct AccessPlan {
    answers: RankedAnswers,
    explain: Explain,
    /// The [`Snapshot::generation`] this plan was prepared over.
    generation: u64,
    /// Set when the plan serves a window or a batch, taken by the
    /// engine's plan cache: recency for plans paged without a prepare.
    served: AtomicBool,
}

impl fmt::Debug for AccessPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AccessPlan")
            .field("backend", &self.explain.backend)
            .field("verdict", &self.explain.verdict)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl AccessPlan {
    pub(crate) fn new(answers: RankedAnswers, explain: Explain) -> Self {
        AccessPlan {
            answers,
            explain,
            generation: 0,
            served: AtomicBool::new(false),
        }
    }

    fn mark_served(&self) {
        // Load first: a plan paged by many threads stays read-shared.
        if !self.served.load(AtomicOrdering::Relaxed) {
            self.served.store(true, AtomicOrdering::Relaxed);
        }
    }

    /// Whether the plan served rows since the last call.
    pub(crate) fn take_served(&self) -> bool {
        self.served.load(AtomicOrdering::Relaxed)
            && self.served.swap(false, AtomicOrdering::Relaxed)
    }

    /// Stamp the snapshot generation this plan was prepared over (done
    /// once, by the routing layer).
    pub(crate) fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// The snapshot generation this plan serves: every answer it
    /// returns reflects exactly that generation's data, however many
    /// [`crate::Engine::advance`] calls happen around it. A plan
    /// carried forward across generations keeps its original number —
    /// its relations provably did not change, so the generations are
    /// indistinguishable through it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The routed backend handle.
    pub fn answers(&self) -> &RankedAnswers {
        &self.answers
    }

    /// The routing report: verdict, witness, and chosen backend.
    pub fn explain(&self) -> &Explain {
        &self.explain
    }

    /// Which backend serves this plan (shorthand for
    /// `explain().backend()`).
    pub fn backend(&self) -> Backend {
        self.explain.backend
    }

    /// The window of answers at the ranks in `range`, as a reusable
    /// batch buffer — [`DirectAccess::access_range`]'s rows without the
    /// per-tuple `Tuple` allocations. See [`AccessPlan::window_into`]
    /// to reuse a caller-owned buffer across pages.
    pub fn window(&self, range: Range<u64>) -> WindowBuf {
        let mut out = WindowBuf::new();
        self.answers.access_range_into(range, &mut out);
        out
    }

    /// Fill `out` with the window of answers at the ranks in `range`
    /// (clamped), returning how many rows were written. On the native
    /// direct-access backends this pays the rank bracketing once per
    /// window and performs **zero** heap allocations once `out` has
    /// grown to the window's size.
    pub fn window_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        DirectAccess::access_range_into(self, range, out)
    }

    /// Fill `out` with the answers at `ranks` (any order, duplicates
    /// allowed, out-of-range ranks skipped), in request order,
    /// returning how many were in range. On the lex arena backend an
    /// ascending batch costs **one** rank descent plus O(k) local
    /// cursor advances (see [`DirectAccess::access_batch_into`]).
    pub fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        DirectAccess::access_batch_into(self, ranks, out)
    }

    /// A lazy, batch-fetching ranked iterator over the plan's answers —
    /// ranked enumeration in the any-k style: answers arrive in order,
    /// the next-batch cursor lives in the stream, and nothing is
    /// materialized beyond one batch (see [`RankedStream`]).
    pub fn stream(&self) -> RankedStream<'_> {
        self.answers.stream()
    }

    /// [`AccessPlan::stream`] starting at rank `start` — resume a
    /// paginated scan exactly where the previous page ended.
    pub fn stream_from(&self, start: u64) -> RankedStream<'_> {
        self.answers.stream_from(start)
    }
}

impl DirectAccess for AccessPlan {
    fn len(&self) -> u64 {
        self.answers.len()
    }
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        self.answers.access_into(k, out)
    }
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        self.answers.inverted_access(answer)
    }
    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        self.mark_served();
        self.answers.access_range_into(range, out)
    }
    fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        self.mark_served();
        self.answers.access_batch_into(ranks, out)
    }
    fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }
    fn iter(&self) -> Box<dyn Iterator<Item = Tuple> + '_> {
        self.answers.iter()
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "problem:  {}", self.problem_desc)?;
        match &self.verdict {
            Verdict::Tractable { bound } => {
                write!(f, "\nverdict:  tractable direct access in {bound}")?
            }
            Verdict::Intractable { assumptions, .. } => write!(
                f,
                "\nverdict:  direct access intractable (assuming {})",
                assumptions.join(" + ")
            )?,
            Verdict::OpenSelfJoin { .. } => write!(
                f,
                "\nverdict:  criterion fails; hardness open (query has self-joins)"
            )?,
        }
        if let Some(w) = &self.witness {
            write!(f, "\nwitness:  {w}")?;
        }
        if let Some(sv) = &self.selection_verdict {
            match sv {
                Verdict::Tractable { bound } => write!(f, "\nselection: tractable in {bound}")?,
                v => write!(
                    f,
                    "\nselection: not tractable ({})",
                    v.reason().map(|r| r.to_string()).unwrap_or_default()
                )?,
            }
        }
        write!(
            f,
            "\nbackend:  {} {}",
            self.backend,
            self.backend.guarantee()
        )?;
        if let Some(b) = &self.build {
            write!(f, "\nbuild:    {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::{tup, Database};
    use rda_query::parser::parse;

    fn fig2_snap() -> Arc<Snapshot> {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
            .freeze()
    }

    /// When no sound head-restricted comparator exists (an FD corner —
    /// see `lexsel::comparator_positions`), inverted access must still
    /// be correct through the linear fallback.
    #[test]
    fn selection_lex_handle_fallback_without_comparator() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let snap = fig2_snap();
        let mut handle =
            SelectionLexHandle::new(&q, &snap, q.vars(&["x", "z", "y"]), &FdSet::empty()).unwrap();
        assert!(
            handle.sel.cmp_positions.is_some(),
            "parse-built queries are sound"
        );
        handle.sel.cmp_positions = None; // force the fallback path
        for k in 0..handle.len() {
            let t = handle.access(k).unwrap();
            assert_eq!(handle.inverted_access(&t), Some(k), "k={k}");
        }
        assert_eq!(handle.inverted_access(&tup![0, 0, 0]), None);
    }

    /// The ranked-enum handle stays lazy under partial consumption.
    #[test]
    fn ranked_enum_iter_is_lazy() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let db =
            Database::new().with_i64_rows("R", 2, (0..100).map(|i| vec![i, i]).collect::<Vec<_>>());
        let e = RankedEnumerator::new(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64));
        let h = RankedEnumHandle::new(e);
        let first3: Vec<Tuple> = h.iter().take(3).collect();
        assert_eq!(first3.len(), 3);
        assert!(
            h.cached_prefix_len() < 100,
            "iter().take(3) must not drain the stream (cached {})",
            h.cached_prefix_len()
        );
        assert!(!h.is_empty());
        assert!(h.cached_prefix_len() < 100, "is_empty must stay lazy");
        assert_eq!(h.access_range(2..5).len(), 3);
        let mut buf = WindowBuf::new();
        assert_eq!(h.access_range_into(2..5, &mut buf), 3);
        assert_eq!(buf.to_tuples(), h.access_range(2..5));
        assert!(h.cached_prefix_len() < 100, "windows must stay lazy");
        assert_eq!(h.len(), 100); // len() is the one that drains
    }
}
