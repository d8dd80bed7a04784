#![warn(missing_docs)]

//! # ranked-access
//!
//! Direct access to ranked answers of conjunctive queries — a Rust
//! implementation of Carmeli, Tziavelis, Gatterbauer, Kimelfeld,
//! Riedewald, *"Tractable Orders for Direct Access to Ranked Answers of
//! Conjunctive Queries"* (PODS 2021 / arXiv:2012.11965).
//!
//! ## Quickstart
//!
//! The serving lifecycle is **Database → Snapshot → Engine →
//! AccessPlan**: build a [`Database`](prelude::Database), freeze it
//! once into an immutable, dictionary-encoded
//! [`Snapshot`](prelude::Snapshot), wrap the snapshot in a stateful
//! [`Engine`](prelude::Engine), and [`prepare`](prelude::Engine::prepare)
//! plans. The engine runs the paper's dichotomies on each (query,
//! order) pair and routes it to the right algorithm — native direct
//! access when tractable, a selection-backed handle when only
//! selection is tractable, or an explicit fallback chosen by
//! [`Policy`](prelude::Policy). Whatever the route, the returned
//! [`AccessPlan`](prelude::AccessPlan) serves answers through the
//! uniform [`DirectAccess`](prelude::DirectAccess) trait, explains its
//! decision, and — being `Send + Sync` behind an `Arc` — serves any
//! number of client threads. Equal requests are memoized: the engine's
//! bounded plan cache hands every client the same prepared plan.
//!
//! ```
//! use ranked_access::prelude::*;
//!
//! // The paper's running example: Q(x, y, z) :- R(x, y), S(y, z).
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
//!
//! // Freeze once: the whole active domain is interned into one
//! // order-preserving dictionary and every relation is encoded into
//! // columnar form exactly once — shared by every plan below.
//! let engine = Engine::new(db.freeze());
//!
//! // Sorted by <x, y, z>: tractable, so the plan is O(log n) per access.
//! let plan = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "y", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert_eq!(plan.backend(), Backend::LexDirectAccess);
//! assert_eq!(plan.len(), 5);
//! let median = plan.access(plan.len() / 2).unwrap();   // O(log n)
//! assert_eq!(plan.inverted_access(&median), Some(2));   // O(log n)
//!
//! // Pagination is native: a window pays the rank bracketing once and
//! // walks the structure tuple by tuple, and `iter()` enumerates
//! // lazily in batches (nothing fully materialized).
//! assert_eq!(plan.access_range(0..2).len(), 2);
//! assert_eq!(plan.access_range(3..13), plan.access_range(3..5)); // clamped
//! let mut page = WindowBuf::new();                      // reusable, alloc-free refills
//! assert_eq!(plan.access_range_into(1..4, &mut page), 3);
//! assert_eq!(plan.iter().count(), 5);
//! assert_eq!(plan.iter().skip(3).next(), plan.access(3)); // resumes with one fetch
//!
//! // Preparing the same request again is a cache hit: the same
//! // Arc<AccessPlan> comes back, nothing is re-classified or rebuilt.
//! let again = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "y", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert!(std::sync::Arc::ptr_eq(&plan, &again));
//!
//! // <x, z, y> has a disruptive trio: direct access is provably hard,
//! // so the engine transparently serves ranked answers by per-access
//! // selection (Theorem 6.1) and can explain why.
//! let plan = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "z", "y"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert_eq!(plan.backend(), Backend::SelectionLex);
//! assert!(plan.explain().witness().unwrap().contains("disruptive trio"));
//! assert!(plan.access(0).is_some());
//!
//! // Sum-of-weights orders go through the same door.
//! let plan = engine.prepare(
//!     &q,
//!     OrderSpec::sum_by_value(),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! assert_eq!(plan.backend(), Backend::SelectionSum);
//!
//! // Outside both tractable regions the policy decides: Reject fails
//! // with the witness, Materialize falls back explicitly.
//! let qp = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
//! let err = engine.prepare(
//!     &qp,
//!     OrderSpec::lex(&qp, &["x", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap_err();
//! assert!(err.to_string().contains("intractable"));
//! let plan = engine.prepare(
//!     &qp,
//!     OrderSpec::lex(&qp, &["x", "z"]),
//!     &FdSet::empty(),
//!     Policy::Materialize,
//! ).unwrap();
//! assert_eq!(plan.backend(), Backend::Materialized);
//! assert_eq!(plan.len(), 5);
//!
//! // Plans are Send + Sync: clone the Arc into worker threads and
//! // hammer the same structure concurrently.
//! let shared = engine.prepare(
//!     &q,
//!     OrderSpec::lex(&q, &["x", "y", "z"]),
//!     &FdSet::empty(),
//!     Policy::Reject,
//! ).unwrap();
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         let plan = std::sync::Arc::clone(&shared);
//!         s.spawn(move || {
//!             for k in 0..plan.len() {
//!                 assert!(plan.access(k).is_some());
//!             }
//!         });
//!     }
//! });
//! ```
//!
//! ## Live data: delta freezes and generations
//!
//! Snapshots are versioned. Keep the [`Database`](prelude::Database) as
//! your mutable source of truth — [`insert_into`](prelude::Database::insert_into)
//! and [`delete_from`](prelude::Database::delete_from) record a
//! per-relation mutation log — and roll the served state forward
//! incrementally: [`Snapshot::freeze_delta`](prelude::Snapshot::freeze_delta)
//! merges the logged rows into the dirty relations' parent columns and
//! re-encodes **only what was replaced** (clean encodings are
//! `Arc`-shared into the next generation) and
//! [`Engine::advance`](prelude::Engine::advance) swaps the served
//! snapshot atomically, carrying cached plans whose relations did not
//! change and invalidating the rest.
//!
//! ```
//! use ranked_access::prelude::*;
//!
//! let q = parse("Q(x, y) :- R(x, y)").unwrap();
//! let mut db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
//! let engine = Engine::new(db.clone().freeze());       // generation 0
//! db.clear_mutation_log();                             // db matches gen 0
//! let plan = engine
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!((plan.len(), plan.generation()), (1, 0));
//!
//! db.insert_into("R", [Value::int(3), Value::int(4)].into_iter().collect());
//! engine.advance_delta(&mut db);                       // freeze delta + swap
//! let fresh = engine
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!((fresh.len(), fresh.generation()), (2, 1));
//! assert_eq!(plan.len(), 1); // in-flight readers keep their generation
//! ```
//!
//! For one-shot scripts, `Engine::new(db.freeze()).prepare_uncached(..)`
//! routes the same way without memoizing. The building blocks remain
//! public for direct use:
//! `LexDirectAccess::build_on`, `SumDirectAccess::build_on` (and their
//! freeze-internally `build` conveniences), plus the classification
//! procedures in [`mod@rda_query::classify`].
//!
//! ## Cold starts: persistent snapshots
//!
//! Generations can outlive the process. A
//! [`SnapshotStore`](prelude::SnapshotStore) persists the frozen base
//! plus one small file per delta, and
//! [`Engine::open`](prelude::Engine::open) cold-starts a serving
//! engine from the directory — zero-copy (the files are mmapped; no
//! value is re-interned, no relation re-encoded or decoded), with
//! every damage mode surfacing as a typed
//! [`PersistError`](prelude::PersistError) rather than a panic. The
//! restored snapshot keeps its uid, ancestry, and per-relation
//! versions, so cursor tokens minted before a restart resume after it.
//!
//! ```
//! use ranked_access::prelude::*;
//!
//! let mut db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
//! let base = db.clone().freeze();                      // generation 0
//! db.clear_mutation_log();
//!
//! let dir = std::env::temp_dir().join(format!("rda-doc-store-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let store = SnapshotStore::create(&dir, &base).unwrap();
//!
//! db.insert_into("R", [Value::int(3), Value::int(4)].into_iter().collect());
//! store.freeze_delta(&base, &mut db).unwrap();         // freeze + append delta
//!
//! // ... process restarts ...
//! let engine = Engine::open(&dir).unwrap();            // mmap + replay
//! assert_eq!(engine.snapshot().generation(), 1);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`rda_db`] | values, tuples, relations, databases, frozen dictionary-encoded snapshots, the checksummed on-disk snapshot format, the fault registry and poison recovery every crate above shares |
//! | [`rda_query`] | CQ AST/parser, hypergraphs, join trees, connexity, disruptive trios, layered join trees, contraction, FDs, classification |
//! | [`rda_core`] | the `Engine`/`AccessPlan` serving core plus the paper's access/selection algorithms and their order statistics |
//! | [`rda_baseline`] | the value-level oracles: materialize-and-sort, preprocessing on `Relation`s, the pre-arena `HashLexDirectAccess`, any-k ranked enumeration, decomposition rewrites |
//! | [`rda_serve`] | in-process request front door: sessions, opaque resumable cursors, backpressure |

pub use rda_baseline;
pub use rda_core;
pub use rda_db;
pub use rda_query;
pub use rda_serve;

/// The commonly used types and functions in one import.
pub mod prelude {
    pub use rda_core::{
        AccessPlan, Backend, BuildError, DirectAccess, Engine, LexDirectAccess, OrderSpec,
        PlanError, Policy, RankedAnswers, SelectionLexHandle, SelectionSumHandle, SumDirectAccess,
        TotalF64, Weights, WindowBuf,
    };
    pub use rda_db::{Database, PersistError, Relation, Snapshot, SnapshotStore, Tuple, Value};
    pub use rda_query::classify::{classify, Problem, Reason, Verdict};
    pub use rda_query::parser::parse;
    pub use rda_query::{Cq, CqBuilder, FdSet, VarId, VarSet};
}
