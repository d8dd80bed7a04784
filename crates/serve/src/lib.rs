#![warn(missing_docs, unreachable_pub)]

//! # rda_serve — the in-process serving layer
//!
//! Everything below the engine answers *"what is answer number k?"*;
//! this crate answers *"how do many concurrent clients ask that
//! safely?"*. It is an in-process request front door — an admission
//! fence on the caller's own thread, no network dependency — exposing
//! three calls against a shared [`rda_core::Engine`]:
//!
//! - [`Session::prepare`] registers a (query, order, FDs, policy)
//!   request, plans it through the engine's cache, and returns an
//!   **opaque resumable cursor** ([`Token`]) at rank 0;
//! - [`Session::page`] serves any window of the ranked sequence by
//!   explicit rank (direct access is random access — pages need not
//!   be read in order);
//! - [`Session::stream_next`] continues sequentially from the
//!   cursor's own position.
//!
//! ## Cursors survive writers
//!
//! The cursor token encodes the canonical request key, the snapshot
//! identity it was validated against, the next rank, and the
//! per-relation *content versions* the plan reads. When the engine
//! [`advance`](rda_core::Engine::advance)s underneath a client, the
//! next page re-validates: if the new snapshot descends from the
//! cursor's and every dependency version still matches, the ranked
//! sequence is provably unchanged and the cursor **resumes
//! transparently**; if any dependency moved, the call fails with
//! typed [`ServeError::CursorStale`] rather than silently skipping or
//! repeating answers. Damaged tokens of any kind decode to
//! [`ServeError::BadCursor`] — never a panic.
//!
//! ## Backpressure, not buffering
//!
//! Every request executes on its caller's thread, but only while it
//! holds one of [`ServerConfig::workers`] execution slots; at most
//! [`ServerConfig::queue_limit`] more wait behind them, each on its
//! own thread. When that **bounded** queue is full, new requests are
//! rejected immediately with [`ServeError::Overloaded`]; requests
//! that wait past their deadline are dropped with
//! [`ServeError::DeadlineExceeded`]. Load shedding is a typed,
//! client-visible outcome, not an OOM.
//!
//! ## Fault containment
//!
//! Every request body runs behind a **panic fence**: a panic in plan
//! build or page execution becomes a typed [`ServeError::Internal`]
//! on the session that asked, which stays usable; the execution slot
//! is released on every path out, unwinding included; and all locks
//! recover from poisoning instead of propagating it
//! ([`Server::stats`] counts the recoveries, the engine's included).
//! Hostile build costs are contained by [`rda_core::BuildBudget`].
//! Every failure reaches the caller as a typed [`ServeError`], and the
//! caller re-issues: one more call recovers from `Overloaded`,
//! `DeadlineExceeded` or `Internal`, and [`Session::repair`] turns a
//! stale cursor into one at the same rank of the fresh sequence.
//! Deterministic chaos schedules for all of it arm an
//! [`rda_db::FaultPlan`] over the engine's build and prepare sites and
//! this crate's [`SITE_SERVE_PAGE`].
//!
//! ```
//! use rda_serve::{Server, ServerConfig};
//! use rda_core::{Engine, OrderSpec, Policy};
//! use rda_db::Database;
//! use rda_query::{parser::parse, FdSet};
//! use std::sync::Arc;
//!
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
//! let engine = Arc::new(Engine::new(db.freeze()));
//! let server = Server::new(Arc::clone(&engine), ServerConfig::default());
//!
//! // Each client thread opens its own session (one reusable buffer).
//! let mut session = server.session();
//! let prepared = session
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y", "z"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!(prepared.len, 5);
//!
//! // Page through the whole sequence with the resumable cursor.
//! let mut token = prepared.token;
//! let mut seen = 0;
//! loop {
//!     let page = session.stream_next(&token, 2).unwrap();
//!     seen += page.rows;
//!     match page.next {
//!         Some(next) => token = next,
//!         None => break,
//!     }
//! }
//! assert_eq!(seen, 5);
//! ```

mod cursor;
mod error;
mod server;
mod sync;

pub use cursor::{Cursor, CursorError, Token};
pub use error::{ServeError, StaleReason};
pub use server::{
    PageOutcome, Prepared, Server, ServerConfig, Session, StatsSnapshot, SITE_SERVE_PAGE,
};
