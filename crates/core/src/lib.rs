#![warn(missing_docs)]

//! # rda-core — ranked direct access and selection for conjunctive queries
//!
//! The algorithms of Carmeli, Tziavelis, Gatterbauer, Kimelfeld,
//! Riedewald, *"Tractable Orders for Direct Access to Ranked Answers of
//! Conjunctive Queries"* (PODS 2021):
//!
//! * [`LexDirectAccess`] — direct access by (partial) lexicographic
//!   orders in ⟨n log n, log n⟩ (Sections 3–4: layered join trees,
//!   Algorithm 1), with inverted access (Algorithm 2) and
//!   next-answer access (Remark 3);
//! * [`SelectionLexHandle`] — selection by lexicographic orders in ⟨1, n⟩
//!   for every free-connex CQ (Section 6, Lemmas 6.5/6.6);
//! * [`SumDirectAccess`] — direct access by sum-of-weights in
//!   ⟨n log n, 1⟩ when one atom covers the free variables (Section 5,
//!   Lemma 5.9);
//! * [`SelectionSumHandle`] — selection by sum-of-weights in ⟨1, n log n⟩
//!   when `fmh(Q) ≤ 2` (Section 7, Lemmas 7.8/7.10);
//! * all four transparently handle unary functional dependencies via
//!   the FD-(reordered-)extension (Section 8).
//!
//! Builders verify the paper's tractability criteria and return
//! [`BuildError::NotTractable`] with the structural witness otherwise;
//! see [`mod@rda_query::classify`] for the bare decision procedures.
//!
//! The access structures run on a dictionary-encoded columnar core:
//! the active domain is interned into order-preserving `u32` codes
//! ([`rda_db::Dictionary`]), layers are flat arenas with packed entries
//! and per-bucket rank directories, and the access hot paths perform no
//! heap allocation (see the `lexda`/`sumda` module docs). The crate
//! holds only that code-space pipeline. Its value-level oracle — the
//! pre-arena hash-bucketed lexicographic structure and the value-level
//! preprocessing it runs — lives in `rda_baseline`, beside the
//! materialize-and-sort and any-k fallbacks.
//!
//! ## The front door
//!
//! Since 0.3.0 the serving path is **snapshot-centric**: freeze a
//! database once ([`rda_db::Database::freeze`]) so it is
//! dictionary-encoded exactly once, and hand the resulting
//! [`Arc<Snapshot>`](rda_db::Snapshot) to a stateful [`Engine`].
//! [`Engine::prepare`] classifies a query/order pair, routes it to
//! native direct access (built straight from the snapshot's code
//! space), a selection-backed handle, or an explicit [`Policy`]
//! fallback, and memoizes the resulting
//! [`Arc<AccessPlan>`](AccessPlan) in a bounded plan cache keyed by
//! (query, order, FDs, policy). Plans are `Send + Sync`: one prepared
//! plan serves any number of client threads concurrently, answering
//! through the uniform [`DirectAccess`] trait and explaining its
//! routing via [`Explain`]. Since 0.4.0 the trait is
//! **pagination-native**: whole rank windows (`access_range`, `top_k`,
//! `page`, with allocation-free `*_into` variants over [`WindowBuf`])
//! pay the native structures' rank bracketing once per window, and
//! [`AccessPlan::stream`] enumerates lazily in batches ([`RankedStream`],
//! any-k style — see [`mod@window`]). A backend implements three
//! methods (`len`, `access_into`, `inverted_access`) and may override
//! the window and batch kernels; every owned form is provided by the
//! trait, once. Since 0.5.0 the pre-snapshot
//! shims (`Engine::prepare_stateless` and the PR-1 selection free
//! functions) are gone: the engine is the single entry point, and the
//! [`rda_serve`-style](engine::canonical_request_key) service hooks —
//! [`engine::canonical_request_key`], [`engine::plan_dependencies`],
//! and resumable [`AccessPlan::stream_batched`] cursors — let a request
//! front door encode plan identity and data versions into opaque
//! pagination tokens.

pub mod budget;
pub mod engine;
pub mod error;
pub mod fault;
pub mod lexda;
pub mod lexsel;
pub mod plan;
pub mod random_order;
mod rankdir;
pub mod snapprep;
pub mod sumda;
pub mod sumsel;
pub mod weights;
pub mod window;

pub use budget::{BudgetMeter, BuildBudget, BuildCost};
pub use engine::{canonical_request_key, plan_dependencies, Engine, OrderSpec, PlanError, Policy};
pub use error::BuildError;
pub use fault::{FaultAction, FaultGuard, FaultPlan, InjectedFault};
pub use lexda::LexDirectAccess;
pub use plan::{
    AccessPlan, Backend, DirectAccess, Explain, RankedAnswers, RankedEnumHandle,
    SelectionLexHandle, SelectionSumHandle,
};
pub use random_order::{Quantiles, RandomOrderEnumerator};
pub use sumda::SumDirectAccess;
pub use weights::Weights;
pub use window::{RankedStream, WindowBuf, DEFAULT_STREAM_BATCH};
