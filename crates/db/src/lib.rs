#![warn(missing_docs, unreachable_pub)]

//! # rda-db — in-memory relational substrate
//!
//! The storage and relational-algebra layer underneath the direct-access
//! algorithms of Carmeli et al. (PODS 2021). The paper's complexity model
//! is the sequential RAM with databases measured by their total number of
//! tuples `n`; this crate provides exactly that: ordered domain values,
//! set-semantics relations, and the linear / quasilinear operators
//! (projection, filtering, semijoin, join, sorting) used by the
//! Yannakakis-style preprocessing phases.
//!
//! Nothing in this crate knows about queries; see `rda-query` for the
//! query/hypergraph layer and `rda-core` for the access structures.

mod database;
mod dict;
mod encoded;
mod parallel;
mod persist;
mod relation;
mod snapshot;
mod tuple;
mod value;

pub use database::{Database, MutationLog, RelationDelta};
pub use dict::Dictionary;
pub use encoded::{key_ids, radix_sort_rows, relation_encode_count, EncodedRelation, KeyIds};
pub use persist::{
    open_delta, open_snapshot, save_delta, save_snapshot, PersistError, SnapshotStore,
};
pub use relation::Relation;
pub use snapshot::Snapshot;
pub use tuple::Tuple;
pub use value::Value;
