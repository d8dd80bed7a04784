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
//!   `access_batch`, `iter` — is written once, here, over those five.
//!   Implemented by [`LexDirectAccess`], [`SumDirectAccess`] (which
//!   also serves the materialized fallback) and the two selection
//!   handles;
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
//! assert_eq!(plan.access(2), plan.access_range(2..3).pop()); // one rank …
//! assert_eq!(plan.access_range(0..9).len() as u64, plan.len()); // … or a window
//! assert_eq!(plan.iter().nth(2), plan.access(2));            // … or a stream
//! ```

use crate::budget::BuildCost;
use crate::error::BuildError;
use crate::lexsel::LexSelection;
use crate::sumsel::SumSelection;
use crate::weights::Weights;
use crate::window::{RankedStream, WindowBuf};
use crate::{LexDirectAccess, SumDirectAccess};
use rda_db::{Snapshot, Tuple, Value};
use rda_orderstat::TotalF64;
use rda_query::classify::{Reason, Verdict};
use rda_query::{Cq, FdSet, VarId};
use std::cmp::Ordering;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;

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
/// five.
pub trait DirectAccess {
    /// Number of answers (`|Q(I)|`). Every backend, the selection
    /// handles included, knows its count from construction.
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

    /// [`DirectAccess::access_range_into`] over the `k` first ranks.
    /// Kept for the benchmark's first-page calls; new code names the
    /// range.
    fn top_k_into(&self, k: u64, out: &mut WindowBuf) -> u64 {
        self.access_range_into(0..k, out)
    }

    /// Iterate all answers in order: a [`RankedStream`] over the window
    /// kernel, so the native structures pay one rank bracketing per
    /// batch, not per tuple. `iter().skip(k)` starts at rank `k` with
    /// one window fetch.
    fn iter(&self) -> RankedStream<'_, Self>
    where
        Self: Sized,
    {
        RankedStream::new(self)
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
/// ⟨1, n log n + p log p⟩ per access, where p is the number of answers
/// that share the rank's weight (p = 1 for a unique weight).
///
/// Construction prepares the instance once, in the snapshot's code
/// space: reduction, contraction, row weights
/// and the weight-sorted join-key buckets, whose sizes give `len()`.
/// An access is then only the selection over them, and cannot fail.
///
/// The underlying selection algorithm only pins answers down by weight
/// (ties are broken arbitrarily, and the same representative can come
/// back for every rank of an equal-weight plateau), so this handle
/// defines its order as **(weight, then tuple)**, the weight summed as
/// the selection sums it (each atom's partial sum, then one addition).
/// An access selects the rank's weight, counts the answers below it and
/// ranks only the plateau at that weight; a window ranks the answers
/// from its first rank's weight to its last's; inverted access counts
/// the answers below the answer's weight and its place in its plateau.
/// Nothing is cached between calls.
pub struct SelectionSumHandle {
    /// Boxed: the prepared instance is several times the size of any
    /// other [`RankedAnswers`] variant.
    sel: Box<SumSelection>,
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
        })
    }

    /// Run exactly one weighted selection (Theorem 7.3) for rank `k` —
    /// the raw ⟨1, n log n⟩ operation: ties broken arbitrarily.
    /// `None` means out-of-bound.
    pub fn select_once(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        self.sel.select(k)
    }

    /// What construction paid and how much the handle holds (rows and
    /// bytes of the contracted instance).
    pub fn build_cost(&self) -> &BuildCost {
        self.sel.cost()
    }

    /// The answer at index `k` together with its weight.
    pub fn access_weighted(&self, k: u64) -> Option<(TotalF64, Tuple)> {
        self.sel.rows_at(k).map(|rows| self.sel.answer(rows))
    }
}

impl DirectAccess for SelectionSumHandle {
    fn len(&self) -> u64 {
        self.sel.len()
    }

    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        out.clear();
        let Some(rows) = self.sel.rows_at(k) else {
            return false;
        };
        // Sized exactly, as `copy_into` sizes it.
        out.reserve_exact(self.sel.arity());
        out.extend(self.sel.values(rows));
        true
    }

    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        self.sel.rank_of(answer)
    }

    fn access_range_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        out.begin(self.sel.arity());
        for (_, rows) in self.sel.ranked_window(range) {
            out.push_with(|vals| vals.extend(self.sel.values(rows)));
        }
        out.len() as u64
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
    /// Sum-of-weights selection over a prepared instance
    /// (⟨1, n log n + p log p⟩ per access, p the answers tied at the
    /// rank's weight).
    SelectionSum(SelectionSumHandle),
    /// Materialize-and-sort fallback (Θ(|out| log |out|) preprocessing,
    /// O(1) access): the same answer array as [`RankedAnswers::Sum`],
    /// joined from every atom and sorted by either kind of order.
    Materialized(SumDirectAccess),
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
}

impl fmt::Debug for RankedAnswers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RankedAnswers::{}", self.backend())
    }
}

impl RankedAnswers {
    /// Which backend the router chose.
    pub fn backend(&self) -> Backend {
        match self {
            RankedAnswers::Lex(_) => Backend::LexDirectAccess,
            RankedAnswers::Sum(_) => Backend::SumDirectAccess,
            RankedAnswers::SelectionLex(_) => Backend::SelectionLex,
            RankedAnswers::SelectionSum(_) => Backend::SelectionSum,
            RankedAnswers::Materialized(_) => Backend::Materialized,
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
    /// Materialize-and-sort: every atom joined in code space, the
    /// answers sorted into a [`SumDirectAccess`] array.
    Materialized,
}

impl Backend {
    /// The ⟨preprocessing, per-access⟩ cost guarantee.
    pub fn guarantee(self) -> &'static str {
        match self {
            Backend::LexDirectAccess => "<n log n, log n>",
            Backend::SumDirectAccess => "<n log n, 1>",
            Backend::SelectionLex => "<1, n>",
            Backend::SelectionSum => "<1, n log n + p log p>",
            Backend::Materialized => "<|out| log |out|, 1>",
        }
    }

    /// `true` for the paper's native direct-access structures.
    pub fn is_native_direct_access(self) -> bool {
        matches!(self, Backend::LexDirectAccess | Backend::SumDirectAccess)
    }

    /// `true` for the explicit fallbacks outside the tractable regions.
    pub fn is_fallback(self) -> bool {
        self == Backend::Materialized
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
    pub(crate) build: BuildCost,
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
    /// selection handles, the answer array of the fallback.
    pub fn build_cost(&self) -> &BuildCost {
        &self.build
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

    // The three inherent methods below restate `explain().backend()`
    // and the trait's window and batch kernels. They stay while the
    // benchmark calls them by these names (ROADMAP item 3a).

    /// `explain().backend()`.
    pub fn backend(&self) -> Backend {
        self.explain.backend
    }

    /// [`DirectAccess::access_range_into`].
    pub fn window_into(&self, range: Range<u64>, out: &mut WindowBuf) -> u64 {
        DirectAccess::access_range_into(self, range, out)
    }

    /// [`DirectAccess::access_batch_into`].
    pub fn access_batch_into(&self, ranks: &[u64], out: &mut WindowBuf) -> u64 {
        DirectAccess::access_batch_into(self, ranks, out)
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
        write!(f, "\nbuild:    {}", self.build)
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
}
