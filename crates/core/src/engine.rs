//! The stateful serving core: a [`Snapshot`]-backed engine that
//! classifies (query, order) pairs against the paper's dichotomies,
//! routes them to the best available backend, and memoizes the built
//! plans in a bounded cache shared by every client thread.
//!
//! ```
//! use rda_core::{Engine, OrderSpec, Policy, DirectAccess};
//! use rda_db::Database;
//! use rda_query::{parser::parse, FdSet};
//!
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
//!
//! // Freeze once: the database is dictionary-encoded exactly once and
//! // shared by every plan the engine prepares.
//! let engine = Engine::new(db.freeze());
//!
//! // A tractable order routes to native direct access …
//! let plan = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "y", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert_eq!(plan.len(), 5);
//! let median = plan.access(plan.len() / 2).unwrap();
//! assert_eq!(plan.inverted_access(&median), Some(2));
//!
//! // … and repeating the same request is a cache hit: the identical
//! // Arc comes back, nothing is rebuilt.
//! let again = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "y", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&plan, &again));
//!
//! // A trio-blocked order still gets ranked answers, via selection.
//! let plan = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "z", "y"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert!(plan.explain().to_string().contains("disruptive trio"));
//! assert!(plan.access(0).is_some());
//! ```

use crate::budget::BuildBudget;
use crate::error::BuildError;
use crate::plan::{describe_reason, AccessPlan, Explain, RankedAnswers};
use crate::snapprep::check_query;
use crate::weights::Weights;
use crate::{LexDirectAccess, SelectionLexHandle, SelectionSumHandle, SumDirectAccess};
use rda_db::{recover, Database, Snapshot, SnapshotStore};
use rda_query::classify::{classify, Problem, Verdict};
use rda_query::{Cq, FdSet, VarId};
use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// Fault site: entry of [`Engine::prepare_pinned`].
pub const SITE_ENGINE_PREPARE: &str = "engine::prepare";

/// The order a prepared plan ranks answers by.
#[derive(Debug, Clone)]
pub enum OrderSpec {
    /// A (possibly partial) lexicographic order over head variables.
    Lex(Vec<VarId>),
    /// Ascending sum of per-attribute weights.
    Sum(Weights),
}

impl OrderSpec {
    /// A lexicographic order from variable names.
    ///
    /// # Panics
    /// Panics if a name is not a variable of `q` (mirrors [`Cq::vars`]).
    pub fn lex(q: &Cq, names: &[&str]) -> Self {
        OrderSpec::Lex(q.vars(names))
    }

    /// A sum order under the given attribute weights.
    pub fn sum(weights: Weights) -> Self {
        OrderSpec::Sum(weights)
    }

    /// A sum order where integer values weigh themselves (Figure 2d).
    pub fn sum_by_value() -> Self {
        OrderSpec::Sum(Weights::identity())
    }
}

/// What [`Engine::prepare`] may do when the dichotomy puts the order
/// outside both the direct-access and the selection tractable regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Policy {
    /// Refuse: return [`PlanError::Intractable`] carrying the verdict
    /// and witness. The predictable-latency choice.
    #[default]
    Reject,
    /// Materialize and sort the full answer set (Θ(|out|) memory) —
    /// always possible, including for cyclic queries.
    Materialize,
}

/// Why [`Engine::prepare`] could not produce a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanError {
    /// Neither direct access nor selection is available for the order
    /// (provably hard for self-join-free queries, open otherwise) and
    /// the policy was [`Policy::Reject`].
    Intractable {
        /// The direct-access verdict (carries the structural reason).
        verdict: Verdict,
        /// The witness rendered with variable names, when one exists.
        witness: Option<String>,
    },
    /// Instance-level failure while building the chosen backend.
    Build(BuildError),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Intractable { verdict, witness } => {
                match verdict {
                    Verdict::OpenSelfJoin { .. } => write!(
                        f,
                        "query/order combination fails the tractability criterion \
                         (hardness open: the query has self-joins)"
                    )?,
                    _ => write!(f, "query/order combination is intractable")?,
                }
                if let Some(w) = witness {
                    write!(f, " ({w})")?;
                }
                if let Verdict::Intractable { assumptions, .. } = verdict {
                    write!(f, " assuming {}", assumptions.join(" + "))?;
                }
                write!(f, "; pass Policy::Materialize to fall back")
            }
            PlanError::Build(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<BuildError> for PlanError {
    fn from(e: BuildError) -> Self {
        PlanError::Build(e)
    }
}

impl PlanError {
    /// The classification verdict, when the failure was a dichotomy
    /// rejection (either directly or inside a build error).
    pub fn verdict(&self) -> Option<&Verdict> {
        match self {
            PlanError::Intractable { verdict, .. } => Some(verdict),
            PlanError::Build(BuildError::NotTractable(v)) => Some(v),
            _ => None,
        }
    }
}

/// The cache key of a prepared plan: the [`canonical_request_key`] of
/// the request plus the identity of the snapshot the plan serves, so a
/// key can never match across data versions. Two requests with equal
/// keys are served by the same `Arc<AccessPlan>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PlanKey {
    /// [`Snapshot::uid`] of the generation the plan was keyed under —
    /// strictly finer than the generation number (unique across
    /// lineages), re-keyed by [`Engine::advance`] when a plan is
    /// carried forward.
    snapshot_uid: u64,
    canonical: String,
}

/// Append `tok` to `out` unambiguously: `"{len}:{tok};"`. The length
/// prefix delimits, so adjacent tokens can never be re-segmented.
fn push_token(out: &mut String, tok: &str) {
    let _ = write!(out, "{}:{tok};", tok.len());
}

/// The canonical, snapshot-independent rendering of a prepare request:
/// name-based encodings of the query, the order, the FDs, and the
/// fallback policy. Two requests have equal keys **iff** the engine's
/// plan cache would serve them the same plan (over one snapshot) — this
/// string is the data-independent half of the cache key, and the
/// identity a service layer should embed in a resumable cursor.
///
/// Every name (relation names are arbitrary user strings) is encoded
/// **length-prefixed**, so the rendering is injective: no choice of
/// names containing `(`, `,`, or any other delimiter can make two
/// structurally different requests collide on one key.
pub fn canonical_request_key(q: &Cq, order: &OrderSpec, fds: &FdSet, policy: Policy) -> String {
    let mut out = String::new();
    push_token(&mut out, q.name());
    let _ = write!(out, "[{}](", q.free().len());
    for &v in q.free() {
        push_token(&mut out, q.var_name(v));
    }
    out.push_str("):-");
    for atom in q.atoms() {
        push_token(&mut out, &atom.relation);
        let _ = write!(out, "[{}](", atom.terms.len());
        for &t in &atom.terms {
            push_token(&mut out, q.var_name(t));
        }
        out.push(')');
    }
    match order {
        OrderSpec::Lex(vs) => {
            out.push_str("|lex<");
            for name in q.names_of(vs) {
                push_token(&mut out, name);
            }
            out.push('>');
        }
        OrderSpec::Sum(w) => {
            let _ = write!(out, "|sum{{{}}}", w.fingerprint(q));
        }
    }
    let mut fd_strings: Vec<String> = fds
        .iter()
        .map(|fd| {
            let mut s = String::new();
            push_token(&mut s, &fd.relation);
            push_token(&mut s, q.var_name(fd.lhs));
            push_token(&mut s, q.var_name(fd.rhs));
            s
        })
        .collect();
    fd_strings.sort_unstable();
    out.push('|');
    out.push_str(&fd_strings.concat());
    let _ = write!(out, "|{policy:?}");
    out
}

fn plan_key(snapshot_uid: u64, q: &Cq, order: &OrderSpec, fds: &FdSet, policy: Policy) -> PlanKey {
    PlanKey {
        snapshot_uid,
        canonical: canonical_request_key(q, order, fds, policy),
    }
}

/// What a cached plan depends on: each relation the query references,
/// with its content [`Snapshot::relation_version`] in `snap` — `None`
/// when a referenced relation is absent from the snapshot. A plan built
/// over `snap` can be carried into a later generation of the *same
/// lineage* iff every dependency reports the same version there; a
/// service layer embedding these versions in a resumable cursor can
/// decide, after any number of [`Engine::advance`] calls, whether the
/// cursor's ranked answer sequence is provably unchanged.
pub fn plan_dependencies(q: &Cq, snap: &Snapshot) -> Option<Vec<(String, u64)>> {
    let mut names: Vec<&str> = q.atoms().iter().map(|a| a.relation.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    names
        .into_iter()
        .map(|n| snap.relation_version(n).map(|v| (n.to_string(), v)))
        .collect()
}

/// The bounded plan cache: LRU over [`PlanKey`]s.
struct PlanCache {
    map: HashMap<PlanKey, CacheEntry>,
    capacity: usize,
    clock: u64,
}

struct CacheEntry {
    plan: Arc<AccessPlan>,
    last_used: u64,
    /// Relation → content version in the build snapshot; `None` when
    /// the dependency set could not be established (never carried).
    deps: Option<Vec<(String, u64)>>,
}

impl PlanCache {
    fn get(&mut self, key: &PlanKey) -> Option<Arc<AccessPlan>> {
        self.clock += 1;
        let clock = self.clock;
        self.map.get_mut(key).map(|e| {
            e.last_used = clock;
            Arc::clone(&e.plan)
        })
    }

    /// Insert `plan` under `key` unless another thread won the race, in
    /// which case the incumbent is returned (so equal keys always yield
    /// pointer-equal plans). Evicts the least-recently-used entry when
    /// over capacity.
    fn insert_or_get(
        &mut self,
        key: PlanKey,
        plan: Arc<AccessPlan>,
        deps: Option<Vec<(String, u64)>>,
    ) -> Arc<AccessPlan> {
        if self.capacity == 0 {
            return plan;
        }
        if let Some(existing) = self.get(&key) {
            return existing;
        }
        self.clock += 1;
        self.map.insert(
            key,
            CacheEntry {
                plan: Arc::clone(&plan),
                last_used: self.clock,
                deps,
            },
        );
        while self.map.len() > self.capacity {
            // A plan that served rows since the last eviction without a
            // `get` (a session pages from the plans it pinned) counts as
            // used at the `get` that just missed.
            let missed = self.clock - 1;
            for e in self.map.values_mut() {
                if e.plan.take_served() {
                    e.last_used = e.last_used.max(missed);
                }
            }
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
                .expect("cache is non-empty");
            self.map.remove(&oldest);
        }
        plan
    }
}

/// The snapshot-backed, classify-and-route serving core: one stateful
/// front door for every ranked-access strategy in this crate.
///
/// An engine owns an [`Arc<Snapshot>`] — a database dictionary-encoded
/// **once** by [`Database::freeze`] — and a bounded plan cache.
/// [`Engine::prepare`] runs the decision procedures of
/// [`mod@rda_query::classify`] and picks, in order of preference:
///
/// 1. **native direct access** ([`LexDirectAccess`] /
///    [`SumDirectAccess`]) when the order is on the tractable side of
///    Theorem 4.1 / 5.1 (8.21 / 8.9 under FDs) — built straight from
///    the snapshot's code space, no re-encoding;
/// 2. a **selection-backed handle** when only selection is tractable
///    (Theorem 6.1 / 7.3) — the rank-independent part of a selection
///    prepared once in code space, linear-time accesses;
/// 3. the **explicit fallback** named by [`Policy`] otherwise.
///
/// Prepared plans are memoized: an equal (query, order, FDs, policy)
/// request returns the *same* [`Arc<AccessPlan>`], so concurrent
/// clients share both the encoded data and the built structures. The
/// engine is `Sync` — share it behind an `Arc` and call
/// [`Engine::prepare`] from as many threads as you like.
///
/// ## Serving live data
///
/// The engine is **generation-aware**: the plan cache is keyed by the
/// snapshot's identity, and [`Engine::advance`] swaps the served
/// snapshot atomically. When the database changes, freeze the delta
/// ([`Snapshot::freeze_delta`], or the [`Engine::advance_delta`]
/// convenience) and advance: in-flight readers keep their old-
/// generation plans (each plan pins its own snapshot), new
/// [`Engine::prepare`] calls see only the new generation, and cached
/// plans whose relations provably did not change are **carried
/// forward** — re-keyed into the new generation without rebuilding a
/// thing.
pub struct Engine {
    // Every lock here is taken through `rda_db::recover`, which takes a
    // poisoned guard back and counts it: every shared slot is either
    // swapped atomically (the `Arc<Snapshot>` slot) or re-validated on
    // read (the plan cache is keyed by snapshot uid and checked against
    // it), so a panic while a lock was held cannot leave state a later
    // reader could misinterpret — recovering the guard is strictly
    // better than propagating the poison to every future caller.
    snapshot: RwLock<Arc<Snapshot>>,
    /// The served snapshot's uid, stored under `snapshot`'s write lock
    /// and read without it ([`Engine::snapshot_uid`]).
    snapshot_uid: AtomicU64,
    cache: Mutex<PlanCache>,
    build_budget: RwLock<BuildBudget>,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        f.debug_struct("Engine")
            .field("snapshot_tuples", &snap.size())
            .field("generation", &snap.generation())
            .field("cached_plans", &self.plan_cache_len())
            .finish()
    }
}

impl Engine {
    /// Default bound on the number of memoized plans.
    pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

    /// An engine serving the given snapshot, with the default plan-cache
    /// capacity.
    pub fn new(snapshot: Arc<Snapshot>) -> Self {
        Self::with_plan_cache_capacity(snapshot, Self::DEFAULT_PLAN_CACHE_CAPACITY)
    }

    /// An engine with an explicit plan-cache bound. Capacity `0`
    /// disables memoization (every `prepare` builds afresh).
    pub fn with_plan_cache_capacity(snapshot: Arc<Snapshot>, capacity: usize) -> Self {
        Engine {
            snapshot_uid: AtomicU64::new(snapshot.uid()),
            snapshot: RwLock::new(snapshot),
            cache: Mutex::new(PlanCache {
                map: HashMap::new(),
                capacity,
                clock: 0,
            }),
            build_budget: RwLock::new(BuildBudget::UNLIMITED),
        }
    }

    /// Cold-start an engine from a persisted snapshot store directory
    /// (see [`rda_db::SnapshotStore`]): open the base file zero-copy,
    /// replay its delta chain to the newest generation, and serve the
    /// result — no relation is re-encoded, and the restored snapshot
    /// keeps its original uid and lineage, so cursor tokens issued
    /// before the restart resume cleanly against this engine when their
    /// dependencies are unchanged. A store that cannot be opened,
    /// verified or replayed is reported as the [`rda_db::PersistError`]
    /// it raised.
    pub fn open(dir: impl AsRef<std::path::Path>) -> Result<Self, rda_db::PersistError> {
        Ok(Self::new(SnapshotStore::open(dir)?.load()?))
    }

    /// The budget applied to subsequent structure builds (default:
    /// [`BuildBudget::UNLIMITED`]).
    pub(crate) fn build_budget(&self) -> BuildBudget {
        *recover(self.build_budget.read())
    }

    /// Cap what any single structure build may allocate: builds that
    /// cross the budget abort with
    /// [`BuildError::BudgetExceeded`]
    /// instead of exhausting process memory. Affects subsequent
    /// [`Engine::prepare`] calls; already-cached plans are untouched,
    /// and the budget is **not** part of the plan-cache key (a plan
    /// that finished under an old budget is evidence it fit, so serving
    /// it after a tightening is sound containment-wise).
    pub fn set_build_budget(&self, budget: BuildBudget) {
        *recover(self.build_budget.write()) = budget;
    }

    /// The snapshot this engine currently serves. New
    /// [`Engine::prepare`] calls are answered over exactly this
    /// generation until the next [`Engine::advance`].
    pub fn snapshot(&self) -> Arc<Snapshot> {
        let guard = recover(self.snapshot.read());
        Arc::clone(&guard)
    }

    /// The uid of the snapshot this engine currently serves, read
    /// without taking a lock or cloning the snapshot: what a caller
    /// holding a uid needs to tell whether it is still current.
    pub fn snapshot_uid(&self) -> u64 {
        self.snapshot_uid.load(Ordering::Acquire)
    }

    /// The generation of the currently served snapshot.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation()
    }

    /// Atomically switch the engine to a newer snapshot (normally one
    /// produced by [`Snapshot::freeze_delta`] from the current one).
    ///
    /// * New `prepare` calls see only `snapshot` from here on; an
    ///   old-generation plan is **never** served to them.
    /// * In-flight readers are undisturbed: every issued
    ///   `Arc<AccessPlan>` pins its own snapshot and keeps serving its
    ///   original generation.
    /// * Cached plans are re-keyed, not flushed: a plan whose
    ///   relations all report the *same content version* in `snapshot`
    ///   (and whose snapshot `snapshot` descends from) is carried into
    ///   the new generation as-is — structure reuse across versions.
    ///   Every other entry is invalidated.
    ///
    /// Returns how many plans were carried forward.
    pub fn advance(&self, snapshot: Arc<Snapshot>) -> usize {
        let mut cache = recover(self.cache.lock());
        let mut slot = recover(self.snapshot.write());
        if slot.uid() == snapshot.uid() {
            return 0; // advancing to the current snapshot is a no-op
        }
        let mut carried = 0;
        let old_map = std::mem::take(&mut cache.map);
        for (mut key, entry) in old_map {
            if key.snapshot_uid == snapshot.uid() {
                // A racer already keyed against the incoming snapshot.
                cache.map.insert(key, entry);
                continue;
            }
            let clean = snapshot.descends_from(key.snapshot_uid)
                && entry.deps.as_ref().is_some_and(|deps| {
                    deps.iter()
                        .all(|(name, ver)| snapshot.relation_version(name) == Some(*ver))
                });
            if clean {
                key.snapshot_uid = snapshot.uid();
                if let std::collections::hash_map::Entry::Vacant(v) = cache.map.entry(key) {
                    v.insert(entry);
                    carried += 1;
                }
            }
        }
        self.snapshot_uid.store(snapshot.uid(), Ordering::Release);
        *slot = snapshot;
        carried
    }

    /// Freeze the pending mutations of `db` against the currently
    /// served snapshot ([`Snapshot::freeze_delta`]) and
    /// [`Engine::advance`] to the result in one step. Returns the new
    /// snapshot.
    pub fn advance_delta(&self, db: &mut Database) -> Arc<Snapshot> {
        let next = self.snapshot().freeze_delta(db);
        self.advance(Arc::clone(&next));
        next
    }

    /// Number of plans currently memoized.
    pub fn plan_cache_len(&self) -> usize {
        recover(self.cache.lock()).map.len()
    }

    /// Drop every memoized plan (already-shared `Arc`s stay alive).
    pub fn clear_plan_cache(&self) {
        recover(self.cache.lock()).map.clear();
    }

    /// Classify `(q, order)` under `fds` and serve the best plan the
    /// `policy` allows over this engine's snapshot, memoized: repeating
    /// a request with an equal (query, order, FDs, policy) key returns
    /// the same `Arc` without rebuilding anything.
    ///
    /// Concurrent `prepare` calls for *different* keys build in
    /// parallel; two racing calls for the same key may both build, but
    /// all callers end up sharing one plan.
    pub fn prepare(
        &self,
        q: &Cq,
        order: OrderSpec,
        fds: &FdSet,
        policy: Policy,
    ) -> Result<Arc<AccessPlan>, PlanError> {
        self.prepare_pinned(q, order, fds, policy)
            .map(|(_, plan)| plan)
    }

    /// [`Engine::prepare`], also returning the snapshot the plan is
    /// consistent with: for every relation the plan reads, the plan
    /// serves exactly that snapshot's data.
    ///
    /// This is the race-free way to stamp version metadata (generation,
    /// per-relation content versions) next to a plan's answers: calling
    /// `prepare` and then [`Engine::snapshot`] separately can observe a
    /// concurrent [`Engine::advance`] in between, pairing a plan with a
    /// snapshot it was never built against.
    pub fn prepare_pinned(
        &self,
        q: &Cq,
        order: OrderSpec,
        fds: &FdSet,
        policy: Policy,
    ) -> Result<(Arc<Snapshot>, Arc<AccessPlan>), PlanError> {
        // Chaos hook: fires before any shared state is touched, so an
        // injected panic here proves the serve-side fence alone keeps
        // the engine usable. Disarmed, this is one atomic load.
        rda_db::trip(SITE_ENGINE_PREPARE)
            .map_err(|f| PlanError::Build(BuildError::FaultInjected { site: f.site }))?;
        // Pin the generation first: the whole prepare runs against one
        // snapshot, however many `advance` calls race it.
        let snap = self.snapshot();
        let key = plan_key(snap.uid(), q, &order, fds, policy);
        if let Some(plan) = recover(self.cache.lock()).get(&key) {
            // A hit under `snap`'s uid is consistent with `snap` even
            // if the plan was carried forward from an older
            // generation: carrying requires every dependency's content
            // version to be unchanged.
            return Ok((snap, plan));
        }
        // Build outside the lock so distinct keys don't serialize.
        let budget = self.build_budget();
        let plan = Arc::new(prepare_on(&snap, q, order, fds, policy, budget)?);
        let deps = plan_dependencies(q, &snap);
        // Cache only if the engine still serves the snapshot this plan
        // was built against: a plan that lost a race with `advance`
        // goes to the caller uncached rather than occupying (and
        // evicting live entries from) the bounded cache under a key no
        // future prepare can hit. Lock order (cache, then snapshot)
        // matches `advance`.
        let mut cache = recover(self.cache.lock());
        let current_uid = recover(self.snapshot.read()).uid();
        if key.snapshot_uid != current_uid {
            return Ok((snap, plan));
        }
        Ok((snap, cache.insert_or_get(key, plan, deps)))
    }

    /// [`Engine::prepare`] without memoization: always classify and
    /// build afresh, returning an owned plan. The snapshot (and its
    /// one-time encoding) is still shared.
    pub fn prepare_uncached(
        &self,
        q: &Cq,
        order: OrderSpec,
        fds: &FdSet,
        policy: Policy,
    ) -> Result<AccessPlan, PlanError> {
        prepare_on(&self.snapshot(), q, order, fds, policy, self.build_budget())
    }
}

/// The routing logic shared by every entry point: classify, then build
/// over the snapshot.
fn prepare_on(
    snap: &Arc<Snapshot>,
    q: &Cq,
    order: OrderSpec,
    fds: &FdSet,
    policy: Policy,
    budget: BuildBudget,
) -> Result<AccessPlan, PlanError> {
    check_query(q, fds)?;
    let materialize = |order: OrderSpec| {
        SumDirectAccess::materialize(q, snap, &order, budget).map(RankedAnswers::Materialized)
    };
    let plan = match order {
        OrderSpec::Lex(lex) => {
            crate::lexda::validate_lex(q, &lex)?;
            let problems = (
                Problem::DirectAccessLex(lex.clone()),
                Problem::SelectionLex(lex.clone()),
            );
            let desc = format!("direct access by LEX <{}>", q.names_of(&lex).join(", "));
            route(
                q,
                fds,
                problems,
                desc,
                policy,
                lex,
                Rungs {
                    native: |lex: Vec<VarId>| {
                        LexDirectAccess::build_on_budgeted(q, snap, &lex, fds, budget)
                            .map(RankedAnswers::Lex)
                    },
                    select: |lex| {
                        SelectionLexHandle::new(q, snap, lex, fds).map(RankedAnswers::SelectionLex)
                    },
                    fallback: |lex| materialize(OrderSpec::Lex(lex)),
                },
            )
        }
        OrderSpec::Sum(weights) => {
            let problems = (Problem::DirectAccessSum, Problem::SelectionSum);
            let desc = "direct access by SUM of attribute weights".to_string();
            route(
                q,
                fds,
                problems,
                desc,
                policy,
                weights,
                Rungs {
                    native: |w: Weights| {
                        SumDirectAccess::build_on_budgeted(q, snap, &w, fds, budget)
                            .map(RankedAnswers::Sum)
                    },
                    select: |w| {
                        SelectionSumHandle::new(q, snap, w, fds).map(RankedAnswers::SelectionSum)
                    },
                    fallback: |w| materialize(OrderSpec::Sum(w)),
                },
            )
        }
    }?;
    Ok(plan.with_generation(snap.generation()))
}

/// How one kind of order builds each rung of [`route`]'s ladder; each
/// closure takes the order (the lex variables or the weights) by value.
struct Rungs<N, S, F> {
    /// The native direct-access structure.
    native: N,
    /// The selection-backed handle.
    select: S,
    /// The fallback [`Policy::Materialize`] asks for.
    fallback: F,
}

/// The routing ladder every order climbs: native direct access when the
/// direct-access verdict (`problems.0`) is tractable, else the selection
/// handle when the selection verdict (`problems.1`) is, else the
/// fallback under [`Policy::Materialize`] — `Reject` fails with the
/// direct-access witness.
fn route<O, N, S, F>(
    q: &Cq,
    fds: &FdSet,
    problems: (Problem, Problem),
    problem_desc: String,
    policy: Policy,
    order: O,
    rungs: Rungs<N, S, F>,
) -> Result<AccessPlan, PlanError>
where
    N: FnOnce(O) -> Result<RankedAnswers, BuildError>,
    S: FnOnce(O) -> Result<RankedAnswers, BuildError>,
    F: FnOnce(O) -> Result<RankedAnswers, BuildError>,
{
    let verdict = classify(q, fds, &problems.0);
    let witness = verdict.reason().map(|r| describe_reason(q, r));
    let (answers, selection_verdict) = if verdict.is_tractable() {
        ((rungs.native)(order)?, None)
    } else {
        let selection_verdict = classify(q, fds, &problems.1);
        let answers = if selection_verdict.is_tractable() {
            (rungs.select)(order)?
        } else if policy == Policy::Reject {
            return Err(PlanError::Intractable { verdict, witness });
        } else {
            (rungs.fallback)(order)?
        };
        (answers, Some(selection_verdict))
    };
    let build = *match &answers {
        RankedAnswers::Lex(da) => da.build_cost(),
        RankedAnswers::Sum(da) | RankedAnswers::Materialized(da) => da.build_cost(),
        RankedAnswers::SelectionLex(h) => h.build_cost(),
        RankedAnswers::SelectionSum(h) => h.build_cost(),
    };
    let explain = Explain {
        problem_desc,
        verdict,
        selection_verdict,
        witness,
        backend: answers.backend(),
        build,
    };
    Ok(AccessPlan::new(answers, explain))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Backend, DirectAccess};
    use rda_db::tup;
    use rda_query::classify::Reason;
    use rda_query::parser::parse;

    fn fig2_engine() -> Engine {
        Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
                .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
                .freeze(),
        )
    }

    fn two_path() -> Cq {
        parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap()
    }

    #[test]
    fn tractable_lex_routes_to_native_direct_access() {
        let q = two_path();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "y", "z"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::LexDirectAccess);
        assert!(plan.explain().verdict().is_tractable());
        assert_eq!(plan.explain().witness(), None);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.access(2), Some(tup![1, 5, 4]));
    }

    #[test]
    fn trio_order_routes_to_selection_with_witness() {
        let q = two_path();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::SelectionLex);
        assert!(matches!(
            plan.explain().verdict().reason(),
            Some(Reason::DisruptiveTrio(..))
        ));
        let w = plan.explain().witness().unwrap();
        assert!(w.contains("disruptive trio"), "{w}");
        // Figure 2c's order: (1,5,3), (1,5,4), (1,2,5), (1,5,6), (6,2,5).
        assert_eq!(plan.access(0), Some(tup![1, 5, 3]));
        assert_eq!(plan.access(2), Some(tup![1, 2, 5]));
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.access(5), None);
    }

    #[test]
    fn selection_handle_round_trips_inverted_access() {
        let q = two_path();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        for k in 0..plan.len() {
            let t = plan.access(k).unwrap();
            assert_eq!(plan.inverted_access(&t), Some(k), "k={k}");
        }
        assert_eq!(plan.inverted_access(&tup![0, 0, 0]), None);
    }

    #[test]
    fn non_free_connex_projection_rejects_then_materializes() {
        let qp = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let engine = fig2_engine();
        let spec = || OrderSpec::lex(&qp, &["x", "z"]);
        let err = engine
            .prepare(&qp, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap_err();
        assert!(matches!(err, PlanError::Intractable { .. }));
        assert!(matches!(
            err.verdict().and_then(Verdict::reason),
            Some(Reason::NotFreeConnex { .. })
        ));
        let plan = engine
            .prepare(&qp, spec(), &FdSet::empty(), Policy::Materialize)
            .unwrap();
        assert_eq!(plan.backend(), Backend::Materialized);
        assert!(plan.backend().is_fallback());
        // Answers of Q(x,z): (1,3), (1,4), (1,5), (1,6), (6,5).
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.access(0), Some(tup![1, 3]));
        for k in 0..plan.len() {
            let t = plan.access(k).unwrap();
            assert_eq!(plan.inverted_access(&t), Some(k));
        }
    }

    #[test]
    fn sum_routes_to_native_when_one_atom_covers_free() {
        let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::SumDirectAccess);
        // Weights: (1,2)=3, (1,5)=6, (6,2)=8.
        assert_eq!(plan.access(0), Some(tup![1, 2]));
        assert_eq!(plan.inverted_access(&tup![6, 2]), Some(2));
    }

    #[test]
    fn sum_on_two_path_routes_to_selection() {
        let q = two_path();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::SelectionSum);
        assert!(matches!(
            plan.explain().verdict().reason(),
            Some(Reason::NoAtomCoversFree { alpha_free: 2 })
        ));
        // Figure 2d's weights: 8, 9, 10, 12, 13.
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.access(2), Some(tup![1, 5, 4]));
        for k in 0..plan.len() {
            let t = plan.access(k).unwrap();
            assert_eq!(plan.inverted_access(&t), Some(k), "k={k}");
        }
        assert_eq!(plan.inverted_access(&tup![9, 9, 9]), None);
    }

    #[test]
    fn sum_fallbacks_on_fmh3() {
        let q3 = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 2], vec![3, 4]])
                .with_i64_rows("S", 2, vec![vec![2, 5], vec![4, 6]])
                .with_i64_rows("T", 2, vec![vec![5, 7], vec![6, 8]])
                .freeze(),
        );
        let err = engine
            .prepare(
                &q3,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap_err();
        // The rejection carries the *direct-access* witness (no covering
        // atom); the selection side (fmh = 3) was also intractable.
        assert!(matches!(
            err.verdict().and_then(Verdict::reason),
            Some(Reason::NoAtomCoversFree { .. })
        ));
        let plan = engine
            .prepare(
                &q3,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Materialize,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::Materialized);
        // Answers: (1,2,5,7)=15 and (3,4,6,8)=21.
        assert_eq!(plan.access(0), Some(tup![1, 2, 5, 7]));
        assert_eq!(plan.access(1), Some(tup![3, 4, 6, 8]));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.inverted_access(&tup![3, 4, 6, 8]), Some(1));
    }

    /// {LEX, SUM} × {native region, selection-only region, neither} ×
    /// every policy: the backend or the error variant each cell routes to.
    #[test]
    fn routing_matrix() {
        use Backend::*;
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Routed {
            To(Backend),
            Intractable,
        }
        use Routed::{Intractable, To};
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 2], vec![3, 4]])
                .with_i64_rows("S", 2, vec![vec![2, 5], vec![4, 6]])
                .with_i64_rows("T", 2, vec![vec![5, 7], vec![6, 1]])
                .freeze(),
        );
        let two_path = "Q(x, y, z) :- R(x, y), S(y, z)";
        // `Some(vars)` is a LEX order, `None` SUM by value; the outcomes
        // are under Reject and Materialize.
        type Cell<'a> = (&'a str, Option<&'a [&'a str]>, [Routed; 2]);
        let cells: [Cell; 7] = [
            // LEX, native: no disruptive trio, free-connex.
            (two_path, Some(&["x", "y", "z"]), [To(LexDirectAccess); 2]),
            // LEX, selection only: the <x, z, y> trio.
            (two_path, Some(&["x", "z", "y"]), [To(SelectionLex); 2]),
            // LEX, neither: not free-connex.
            (
                "Q(x, z) :- R(x, y), S(y, z)",
                Some(&["x", "z"]),
                [Intractable, To(Materialized)],
            ),
            // SUM, native: one atom covers the free variables.
            (
                "Q(x, y) :- R(x, y), S(y, z)",
                None,
                [To(SumDirectAccess); 2],
            ),
            // SUM, selection only: fmh = 2.
            (two_path, None, [To(SelectionSum); 2]),
            // SUM, neither: fmh = 3 on a full acyclic query.
            (
                "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
                None,
                [Intractable, To(Materialized)],
            ),
            // SUM, neither, on a cyclic query.
            (
                "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
                None,
                [Intractable, To(Materialized)],
            ),
        ];
        for (text, lex, expect) in cells {
            let q = parse(text).unwrap();
            let policies = [Policy::Reject, Policy::Materialize];
            for (policy, want) in policies.into_iter().zip(expect) {
                let order =
                    lex.map_or_else(OrderSpec::sum_by_value, |vars| OrderSpec::lex(&q, vars));
                let got = match engine.prepare(&q, order, &FdSet::empty(), policy) {
                    Ok(plan) => To(plan.backend()),
                    Err(PlanError::Intractable { .. }) => Intractable,
                    Err(e) => panic!("{text} {lex:?} {policy:?}: {e}"),
                };
                assert_eq!(got, want, "{text} {lex:?} {policy:?}");
            }
        }
    }

    #[test]
    fn instance_errors_surface_at_prepare_time() {
        let q = two_path();
        let empty = Engine::new(Database::new().freeze());
        // Native route.
        let err = empty
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "y", "z"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Build(BuildError::MissingRelation(_))
        ));
        // Selection route probes eagerly.
        let err = empty
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            PlanError::Build(BuildError::MissingRelation(_))
        ));
    }

    #[test]
    fn explain_renders_verdict_witness_backend() {
        let q = two_path();
        let engine = fig2_engine();
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        let report = plan.explain().to_string();
        assert!(report.contains("LEX <x, z, y>"), "{report}");
        assert!(report.contains("intractable"), "{report}");
        assert!(report.contains("disruptive trio (x, z, y)"), "{report}");
        assert!(report.contains("selection-lex"), "{report}");
        assert!(report.contains("<1, n>"), "{report}");
    }

    #[test]
    fn empty_database_yields_empty_plans_everywhere() {
        let q = two_path();
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![])
                .with_i64_rows("S", 2, vec![])
                .freeze(),
        );
        for spec in [
            OrderSpec::lex(&q, &["x", "y", "z"]),
            OrderSpec::lex(&q, &["x", "z", "y"]),
            OrderSpec::sum_by_value(),
        ] {
            let plan = engine
                .prepare(&q, spec, &FdSet::empty(), Policy::Reject)
                .unwrap();
            assert_eq!(plan.len(), 0);
            assert!(plan.is_empty());
            assert_eq!(plan.access(0), None);
        }
    }

    #[test]
    fn fd_rescued_order_routes_native() {
        // Example 1.1: LEX <x,z,y> with FD R: x → y becomes tractable.
        let q = two_path();
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 2]])
                .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![2, 5]])
                .freeze(),
        );
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &fds,
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::LexDirectAccess);
        assert_eq!(plan.len(), 3);
    }

    #[test]
    fn cache_hits_are_pointer_equal_and_respect_the_key() {
        let q = two_path();
        let engine = fig2_engine();
        let spec = || OrderSpec::lex(&q, &["x", "y", "z"]);
        let a = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        let b = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one plan");
        assert_eq!(engine.plan_cache_len(), 1);
        // A different order is a different key.
        let c = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(engine.plan_cache_len(), 2);
        // Clearing drops memoization but not live plans.
        engine.clear_plan_cache();
        assert_eq!(engine.plan_cache_len(), 0);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn cache_eviction_respects_the_bound() {
        let q = two_path();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
        let engine = Engine::with_plan_cache_capacity(db.freeze(), 2);
        let orders = [vec!["x", "y", "z"], vec!["x", "y"], vec!["y"]];
        let first = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &orders[0]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        for names in &orders[1..] {
            engine
                .prepare(
                    &q,
                    OrderSpec::lex(&q, names),
                    &FdSet::empty(),
                    Policy::Reject,
                )
                .unwrap();
        }
        assert_eq!(engine.plan_cache_len(), 2, "bound respected");
        // The first (least recently used) plan was evicted: preparing it
        // again builds a fresh structure.
        let again = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &orders[0]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &again), "evicted plans rebuild");
    }

    #[test]
    fn a_plan_paged_without_a_prepare_is_not_the_one_evicted() {
        let q = two_path();
        let engine = Engine::with_plan_cache_capacity(fig2_engine().snapshot(), 2);
        let prepare = |names: &[&str]| {
            let order = OrderSpec::lex(&q, names);
            engine.prepare(&q, order, &FdSet::empty(), Policy::Reject)
        };
        let paged = prepare(&["x", "y", "z"]).unwrap();
        let idle = prepare(&["x", "y"]).unwrap();
        paged.access_range_into(0..2, &mut crate::WindowBuf::new());
        prepare(&["y"]).unwrap();
        assert!(Arc::ptr_eq(&paged, &prepare(&["x", "y", "z"]).unwrap()));
        assert!(!Arc::ptr_eq(&idle, &prepare(&["x", "y"]).unwrap()));
    }

    #[test]
    fn zero_capacity_disables_memoization() {
        let q = two_path();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let engine = Engine::with_plan_cache_capacity(db.freeze(), 0);
        let spec = || OrderSpec::lex(&q, &["x", "y", "z"]);
        let a = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        let b = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(engine.plan_cache_len(), 0);
    }

    #[test]
    fn a_poisoned_plan_cache_is_recovered_and_counted() {
        let q = two_path();
        let engine = fig2_engine();
        let spec = || OrderSpec::lex(&q, &["x", "y", "z"]);
        engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        std::thread::scope(|s| {
            let poisoner = s.spawn(|| {
                let _held = engine.cache.lock();
                panic!("poison the plan cache");
            });
            assert!(poisoner.join().is_err());
        });
        assert!(engine.cache.is_poisoned());
        let before = rda_db::poison_recoveries();
        assert_eq!(engine.plan_cache_len(), 1);
        let plan = engine.prepare(&q, spec(), &FdSet::empty(), Policy::Reject);
        assert_eq!(plan.unwrap().len(), 5);
        assert!(rda_db::poison_recoveries() > before);
    }

    #[test]
    fn differing_fds_and_policy_are_cache_misses() {
        let q = two_path();
        // R satisfies x → y in this instance.
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 2]])
                .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]])
                .freeze(),
        );
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        let spec = || OrderSpec::lex(&q, &["x", "z", "y"]);
        let without = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        let with = engine.prepare(&q, spec(), &fds, Policy::Reject).unwrap();
        assert!(!Arc::ptr_eq(&without, &with), "FDs are part of the key");
        assert_eq!(without.backend(), Backend::SelectionLex);
        assert_eq!(with.backend(), Backend::LexDirectAccess);
        // Policy is part of the key too (even when routing ignores it).
        let mat = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Materialize)
            .unwrap();
        assert!(!Arc::ptr_eq(&without, &mat));
        assert_eq!(mat.backend(), Backend::SelectionLex);
    }

    #[test]
    fn sum_weights_distinguish_cache_keys() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 5], vec![2, 3]])
                .freeze(),
        );
        let identity = engine
            .prepare(
                &q,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        let mut weights = Weights::identity();
        weights.set(q.var("x").unwrap(), 1, 100.0);
        let weighted = engine
            .prepare(
                &q,
                OrderSpec::sum(weights.clone()),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&identity, &weighted));
        assert_eq!(identity.access(0), Some(tup![2, 3]));
        assert_eq!(weighted.access(0), Some(tup![2, 3]));
        assert_eq!(weighted.access(1), Some(tup![1, 5]));
        // Equal weights hit.
        let weighted2 = engine
            .prepare(&q, OrderSpec::sum(weights), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(Arc::ptr_eq(&weighted, &weighted2));
    }

    #[test]
    fn advance_serves_only_the_new_generation() {
        let q = two_path();
        let mut db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
        let engine = Engine::new(db.clone().freeze());
        db.clear_mutation_log();
        let spec = || OrderSpec::lex(&q, &["x", "y", "z"]);
        let old = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert_eq!((old.len(), old.generation()), (5, 0));

        // Mutate R and advance: a new generation with one more answer.
        db.insert_into("R", tup![6, 5]);
        let next = engine.advance_delta(&mut db);
        assert_eq!(engine.generation(), 1);
        assert_eq!(next.generation(), 1);
        let new = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "dirty plans must rebuild");
        assert_eq!((new.len(), new.generation()), (8, 1));
        // The in-flight reader's plan still serves generation 0.
        assert_eq!(old.len(), 5);
        assert_eq!(old.access(0), Some(tup![1, 2, 5]));
    }

    #[test]
    fn clean_plans_carry_across_generations_dirty_ones_do_not() {
        let qr = parse("Q(x, y) :- R(x, y)").unwrap();
        let qs = parse("Q(x, y) :- S(x, y)").unwrap();
        let mut db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2]])
            .with_i64_rows("S", 2, vec![vec![3, 4]]);
        let engine = Engine::new(db.clone().freeze());
        db.clear_mutation_log();
        let prep = |q: &Cq| {
            engine
                .prepare(
                    q,
                    OrderSpec::lex(q, &["x", "y"]),
                    &FdSet::empty(),
                    Policy::Reject,
                )
                .unwrap()
        };
        let (r0, s0) = (prep(&qr), prep(&qs));
        db.insert_into("R", tup![5, 6]);
        let next = engine.snapshot().freeze_delta(&mut db);
        let carried = engine.advance(Arc::clone(&next));
        assert_eq!(carried, 1, "only the S plan is clean");
        let (r1, s1) = (prep(&qr), prep(&qs));
        assert!(Arc::ptr_eq(&s0, &s1), "clean-query plans carry forward");
        assert!(!Arc::ptr_eq(&r0, &r1), "dirty-query plans rebuild");
        assert_eq!(r1.len(), 2);
        // Advancing to the snapshot already served is a no-op.
        assert_eq!(engine.advance(next), 0);
        assert_eq!(engine.plan_cache_len(), 2);
    }

    #[test]
    fn snapshot_uid_tracks_the_served_snapshot() {
        let mut db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
        let engine = Engine::new(db.clone().freeze());
        db.clear_mutation_log();
        assert_eq!(engine.snapshot_uid(), engine.snapshot().uid());

        let dir = std::env::temp_dir().join(format!("rda-engine-uid-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        drop(SnapshotStore::create(&dir, &engine.snapshot()).unwrap());
        let opened = Engine::open(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(opened.snapshot_uid(), opened.snapshot().uid());
        assert_eq!(opened.snapshot_uid(), engine.snapshot_uid());

        db.insert_into("R", tup![3, 4]);
        let next = engine.advance_delta(&mut db);
        assert_eq!(engine.snapshot_uid(), next.uid());
        assert_eq!(engine.snapshot_uid(), engine.snapshot().uid());
        assert_eq!(engine.advance(next), 0, "a no-op advance");
        assert_eq!(engine.snapshot_uid(), engine.snapshot().uid());
    }

    #[test]
    fn advance_to_an_unrelated_snapshot_carries_nothing() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let engine = Engine::new(
            Database::new()
                .with_i64_rows("R", 2, vec![vec![1, 2]])
                .freeze(),
        );
        let spec = || OrderSpec::lex(&q, &["x", "y"]);
        let a = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        // A fresh freeze of different data: same generation number (0),
        // same relation versions (0) — but a different lineage, so the
        // cached plan must NOT be mistaken for current.
        let other = Database::new()
            .with_i64_rows("R", 2, vec![vec![7, 8], vec![9, 10]])
            .freeze();
        assert_eq!(engine.advance(other), 0);
        let b = engine
            .prepare(&q, spec(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.len(), 2);
        assert_eq!(a.len(), 1, "the old plan still serves its snapshot");
    }

    #[test]
    fn empty_delta_advance_carries_every_plan() {
        let q = two_path();
        let mut db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]]);
        let engine = Engine::new(db.clone().freeze());
        db.clear_mutation_log();
        let specs = [
            OrderSpec::lex(&q, &["x", "y", "z"]),
            OrderSpec::lex(&q, &["z", "y"]),
        ];
        let before: Vec<_> = specs
            .iter()
            .map(|s| {
                engine
                    .prepare(&q, s.clone(), &FdSet::empty(), Policy::Reject)
                    .unwrap()
            })
            .collect();
        let carried = engine.advance(engine.snapshot().freeze_delta(&mut db));
        assert_eq!(carried, 2);
        assert_eq!(engine.generation(), 1);
        for (spec, old) in specs.iter().zip(&before) {
            let again = engine
                .prepare(&q, spec.clone(), &FdSet::empty(), Policy::Reject)
                .unwrap();
            assert!(Arc::ptr_eq(old, &again));
        }
    }

    #[test]
    fn canonical_request_key_is_injective_on_structure() {
        let q = two_path();
        let fds = FdSet::empty();
        let k1 = canonical_request_key(
            &q,
            &OrderSpec::lex(&q, &["x", "y", "z"]),
            &fds,
            Policy::Reject,
        );
        let k2 = canonical_request_key(
            &q,
            &OrderSpec::lex(&q, &["x", "z", "y"]),
            &fds,
            Policy::Reject,
        );
        let k3 = canonical_request_key(
            &q,
            &OrderSpec::lex(&q, &["x", "y", "z"]),
            &fds,
            Policy::Materialize,
        );
        let k4 = canonical_request_key(&q, &OrderSpec::sum_by_value(), &fds, Policy::Reject);
        let with_fd = FdSet::parse(&q, &[("R", "x", "y")]);
        let k5 = canonical_request_key(
            &q,
            &OrderSpec::lex(&q, &["x", "y", "z"]),
            &with_fd,
            Policy::Reject,
        );
        let keys = [&k1, &k2, &k3, &k4, &k5];
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate() {
                assert_eq!(a == b, i == j, "keys {i} and {j}: {a} vs {b}");
            }
        }
        // Equal requests render equal keys.
        let again = canonical_request_key(
            &q,
            &OrderSpec::lex(&q, &["x", "y", "z"]),
            &fds,
            Policy::Reject,
        );
        assert_eq!(k1, again);
    }

    #[test]
    fn plan_dependencies_track_relation_versions() {
        let q = two_path();
        let mut db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let snap = db.clone().freeze();
        db.clear_mutation_log();
        let deps = plan_dependencies(&q, &snap).unwrap();
        assert_eq!(deps, vec![("R".to_string(), 0), ("S".to_string(), 0)]);
        // Dirty R: its version bumps in the next generation, S stays.
        db.insert_into("R", tup![7, 8]);
        let next = snap.freeze_delta(&mut db);
        let deps2 = plan_dependencies(&q, &next).unwrap();
        assert_eq!(deps2, vec![("R".to_string(), 1), ("S".to_string(), 0)]);
        // A query over a missing relation has no dependency set.
        let qm = parse("Q(x, y) :- T(x, y)").unwrap();
        assert_eq!(plan_dependencies(&qm, &snap), None);
    }
}
