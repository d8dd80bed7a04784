//! Deterministic fault injection for the serving path.
//!
//! Re-exports the engine-side fault machinery of [`rda_core`]
//! (plans, actions, the global install/trip registry and its build
//! sites) and adds the serve-side site:
//!
//! | site | constant | where it fires | what it proves |
//! |------|----------|----------------|----------------|
//! | `serve::page` | [`SITE_SERVE_PAGE`] | entry of page execution, **inside** the request's panic fence | an in-flight page panic becomes a typed [`ServeError::Internal`](crate::ServeError::Internal) on the same session |
//!
//! A chaos run arms one seeded [`FaultPlan`] covering engine and
//! serve sites together and replays the exact same failure schedule
//! on any host. See `docs/TESTING.md` for the chaos strategy and
//! `tests/chaos.rs` for the acceptance scenarios.

pub use rda_core::{
    hits, install, trip, FaultAction, FaultGuard, FaultPlan, InjectedFault, SITE_ENGINE_PREPARE,
    SITE_LEXDA_BUILD, SITE_SUMDA_BUILD,
};

/// Fault site: entry of page execution (`page`, `stream_next`,
/// `page_batch`), within the request's panic fence — a scheduled panic
/// here simulates a bug in page execution and must surface as a typed
/// error with the execution slot released.
pub const SITE_SERVE_PAGE: &str = "serve::page";
