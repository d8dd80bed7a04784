#![warn(missing_docs, unreachable_pub)]

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
//! * [`SelectionSumHandle`] — selection by sum-of-weights when
//!   `fmh(Q) ≤ 2` (Section 7, Lemmas 7.8/7.10), ties ordered by tuple,
//!   in ⟨1, n log n + p log p⟩ with p the answers at the rank's weight;
//! * all four transparently handle unary functional dependencies via
//!   the FD-(reordered-)extension (Section 8).
//!
//! Each of the four is one type in one module (`lexda`, `lexsel`,
//! `sumda`, `sumsel`) that implements [`DirectAccess`] there, so the
//! engine serves a selection handle exactly as it serves a native
//! structure; [`RankedAnswers`] is the enum the router picks among them.
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
//! holds only that code-space pipeline, the materialize-and-sort
//! fallback included. Its value-level oracles — materialize-and-sort,
//! the pre-arena hash-bucketed lexicographic structure and the
//! value-level preprocessing it runs — live in `rda_baseline`, a
//! dev-dependency: the serving stack does not link them.
//!
//! ## The front door
//!
//! Freeze a database once ([`rda_db::Database::freeze`]) and hand the
//! [`Arc<Snapshot>`](rda_db::Snapshot) to an [`Engine`].
//! [`Engine::prepare`] classifies a query/order pair, routes it to
//! native direct access, a selection-backed handle, or the fallback a
//! [`Policy`] allows, and memoizes the [`Arc<AccessPlan>`](AccessPlan)
//! in a bounded plan cache keyed by (query, order, FDs, policy). A plan
//! is `Send + Sync`, answers through the [`DirectAccess`] trait —
//! three required methods (`len`, `access_into`, `inverted_access`)
//! plus window and batch kernels over a reusable [`WindowBuf`] — and
//! explains its routing via [`Explain`]. [`canonical_request_key`] and
//! [`plan_dependencies`] are the hooks a request front door
//! (`rda_serve`) encodes into resumable cursor tokens.

mod budget;
mod engine;
mod error;
mod float;
mod lexda;
mod lexsel;
mod matrix;
mod plan;
mod random_order;
mod rankdir;
mod snapprep;
mod sumda;
mod sumsel;
mod weights;
mod window;

pub use budget::{BuildBudget, BuildCost};
pub use engine::{
    canonical_request_key, plan_dependencies, Engine, OrderSpec, PlanError, Policy,
    SITE_ENGINE_PREPARE,
};
pub use error::BuildError;
pub use float::TotalF64;
pub use lexda::{LexDirectAccess, SITE_LEXDA_BUILD};
pub use lexsel::SelectionLexHandle;
pub use plan::{AccessPlan, Backend, DirectAccess, Explain, RankedAnswers};
pub use random_order::{Quantiles, RandomOrderEnumerator};
pub use sumda::{SumDirectAccess, SITE_SUMDA_BUILD};
pub use sumsel::SelectionSumHandle;
pub use weights::Weights;
pub use window::{RankedStream, WindowBuf};
