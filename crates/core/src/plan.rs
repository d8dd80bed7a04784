//! The router's types behind [`crate::Engine`]: the [`DirectAccess`]
//! trait, the [`RankedAnswers`] enum with its [`Backend`] tag, the
//! [`Explain`] report and the [`AccessPlan`] that pairs them.
//!
//! The paper's dichotomies sort every (query, order) pair into one of
//! three regimes — native direct access, selection-only, or provably
//! hard. This module gives them one shape; the backends themselves
//! live elsewhere, each one type in its own module with its
//! `impl DirectAccess` beside it:
//!
//! * [`DirectAccess`] — a backend implements `len`, `access_into` and
//!   `inverted_access` (and overrides the window and batch kernels
//!   `access_range_into` / `access_batch_into` when it can beat a loop
//!   of accesses); every owned form — `access`, `access_range`,
//!   `access_batch`, `iter` — is written once, here, over those five.
//!   Implemented by [`LexDirectAccess`] (`lexda`), [`SumDirectAccess`]
//!   (`sumda`, which also serves the materialized fallback),
//!   [`SelectionLexHandle`] (`lexsel`) and [`SelectionSumHandle`]
//!   (`sumsel`);
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
use crate::window::{RankedStream, WindowBuf};
use crate::{LexDirectAccess, SelectionLexHandle, SelectionSumHandle, SumDirectAccess};
use rda_db::{Tuple, Value};
use rda_query::classify::{Reason, Verdict};
use rda_query::{Cq, VarId};
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};

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
    use rda_db::{tup, Database, Snapshot};
    use rda_query::parser::parse;
    use rda_query::FdSet;
    use std::sync::Arc;

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
            handle.cmp_positions.is_some(),
            "parse-built queries are sound"
        );
        handle.cmp_positions = None; // force the fallback path
        for k in 0..handle.len() {
            let t = handle.access(k).unwrap();
            assert_eq!(handle.inverted_access(&t), Some(k), "k={k}");
        }
        assert_eq!(handle.inverted_access(&tup![0, 0, 0]), None);
    }
}
