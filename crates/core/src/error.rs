//! Errors reported by the access-structure builders.

use rda_query::classify::Verdict;
use rda_query::Fd;
use std::fmt;

/// Why an access structure could not be built.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The query/order combination is on the intractable side of the
    /// relevant dichotomy; the verdict carries the structural witness.
    NotTractable(Verdict),
    /// The database lacks a relation the query mentions.
    MissingRelation(String),
    /// A relation's arity differs from its atom's.
    ArityMismatch {
        /// Relation name.
        relation: String,
        /// Arity the atom expects.
        expected: usize,
        /// Arity the relation has.
        found: usize,
    },
    /// The database violates a declared functional dependency.
    FdViolated(Fd),
    /// The order cannot be served as asked: a lexicographic order names
    /// a non-free or repeated variable; functional dependencies are
    /// declared on a self-join query or name a variable outside their
    /// atom; or a SUM order routed to selection has weights that
    /// include both +∞ and −∞ (∞ − ∞ is a NaN whose sign depends on
    /// the order of addition, so the selection's pair sums would not
    /// be monotone).
    InvalidOrder(String),
    /// The answer count (or an intermediate layer weight) exceeds
    /// `u64::MAX`, so ranks cannot be represented. The counting DP
    /// computes with checked arithmetic and rejects at build time rather
    /// than serving silently wrong ranks from wrapped or saturated
    /// arithmetic.
    CountOverflow,
    /// The build crossed a [`BuildBudget`](crate::budget::BuildBudget)
    /// cap and was aborted before exhausting process memory. The
    /// partially-built structure is dropped; nothing is cached.
    BudgetExceeded {
        /// Which cap tripped: `"arena_bytes"` or `"dp_entries"`.
        resource: &'static str,
        /// The metered consumption at the point of abort.
        used: u64,
        /// The configured cap.
        limit: u64,
    },
    /// An armed [`FaultPlan`](rda_db::FaultPlan) injected a
    /// spurious failure at a build/prepare site (chaos testing only;
    /// never produced in production configurations).
    FaultInjected {
        /// The fault site that fired (e.g. `"lexda::build"`).
        site: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::NotTractable(v) => match v.reason() {
                Some(r) => write!(f, "intractable query/order combination: {r}"),
                None => write!(f, "intractable query/order combination"),
            },
            BuildError::MissingRelation(r) => write!(f, "relation {r} missing from database"),
            BuildError::ArityMismatch {
                relation,
                expected,
                found,
            } => {
                write!(
                    f,
                    "relation {relation} has arity {found}, atom expects {expected}"
                )
            }
            BuildError::FdViolated(fd) => write!(f, "database violates FD {fd}"),
            BuildError::InvalidOrder(msg) => write!(f, "invalid order: {msg}"),
            BuildError::CountOverflow => {
                write!(
                    f,
                    "answer count exceeds u64::MAX; ranks are unrepresentable"
                )
            }
            BuildError::BudgetExceeded {
                resource,
                used,
                limit,
            } => {
                write!(
                    f,
                    "build budget exceeded: {resource} used {used} > limit {limit}"
                )
            }
            BuildError::FaultInjected { site } => {
                write!(f, "injected build fault at {site}")
            }
        }
    }
}

impl std::error::Error for BuildError {}
