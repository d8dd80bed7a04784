//! Build budgets: bounded resource envelopes for structure builds.
//!
//! A hostile (or merely unlucky) query can ask the engine to build a
//! direct-access structure whose preprocessing output is enormous —
//! the layered-DP arenas of [`lexda`](crate::lexda) and the sorted
//! answer array of [`sumda`](crate::sumda) are both
//! `O(|answers|)`-sized, and the answer count can be polynomially
//! larger than the input; the materialized fallback's join steps can
//! be larger still. A [`BuildBudget`] caps what a single build
//! may allocate; the build kernels charge a [`BudgetMeter`] at their
//! allocation sites and abort with the typed
//! [`BuildError::BudgetExceeded`] instead of exhausting process
//! memory. The partially-built structure is dropped; nothing is
//! cached, and the engine's shared state is untouched.
//!
//! Budgets are a *containment* mechanism, not an exact accountant:
//! meters charge the dominant, answer-proportional allocations
//! (arena entries, rank directories, answer columns) and ignore
//! O(input) bookkeeping. The default budget is unlimited.

use crate::error::BuildError;

/// Resource caps for one structure build. `None` means unlimited.
///
/// Set process-wide on an [`Engine`](crate::Engine) via
/// [`Engine::set_build_budget`](crate::Engine::set_build_budget), or
/// per-build through the `*_budgeted` constructors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildBudget {
    /// Cap on bytes of answer-proportional arena/column storage.
    pub max_arena_bytes: Option<u64>,
    /// Cap on dynamic-programming entries (lexda arena entries, sumda
    /// answer rows).
    pub max_dp_entries: Option<u64>,
}

impl BuildBudget {
    /// The unlimited budget (both caps off).
    pub const UNLIMITED: BuildBudget = BuildBudget {
        max_arena_bytes: None,
        max_dp_entries: None,
    };

    /// A budget capping both bytes and entries.
    pub fn capped(max_arena_bytes: u64, max_dp_entries: u64) -> Self {
        BuildBudget {
            max_arena_bytes: Some(max_arena_bytes),
            max_dp_entries: Some(max_dp_entries),
        }
    }

    /// `true` when neither cap is set (charging can be skipped).
    pub(crate) fn is_unlimited(&self) -> bool {
        self.max_arena_bytes.is_none() && self.max_dp_entries.is_none()
    }

    /// Start metering one build against this budget.
    pub(crate) fn meter(&self) -> BudgetMeter {
        BudgetMeter {
            budget: *self,
            bytes: 0,
            entries: 0,
        }
    }
}

/// Running consumption of one build against a [`BuildBudget`].
#[derive(Debug, Clone)]
pub(crate) struct BudgetMeter {
    budget: BuildBudget,
    bytes: u64,
    entries: u64,
}

impl BudgetMeter {
    /// Charge `bytes` of arena storage and `entries` DP entries;
    /// errors with [`BuildError::BudgetExceeded`] on the first cap
    /// crossed.
    #[inline]
    pub(crate) fn charge(&mut self, bytes: u64, entries: u64) -> Result<(), BuildError> {
        if self.budget.is_unlimited() {
            return Ok(());
        }
        self.bytes = self.bytes.saturating_add(bytes);
        self.entries = self.entries.saturating_add(entries);
        if let Some(cap) = self.budget.max_dp_entries {
            if self.entries > cap {
                return Err(BuildError::BudgetExceeded {
                    resource: "dp_entries",
                    used: self.entries,
                    limit: cap,
                });
            }
        }
        if let Some(cap) = self.budget.max_arena_bytes {
            if self.bytes > cap {
                return Err(BuildError::BudgetExceeded {
                    resource: "arena_bytes",
                    used: self.bytes,
                    limit: cap,
                });
            }
        }
        Ok(())
    }
}

/// What one structure build actually paid — the measured side
/// of the ⟨preprocessing, access⟩ guarantee, reported through
/// [`Explain::build_cost`](crate::Explain::build_cost). Recorded once
/// at build time (a handful of clock reads per build); nothing on the
/// access path touches it.
///
/// The phases follow the pipeline of the lex build
/// ([`LexDirectAccess`](crate::LexDirectAccess)):
/// `prep` is normalization plus FD checks and extension, `reduce` the
/// free-connex-to-full reduction (one full reducer over the query's
/// join tree), `layers` one projection per layer, `sort` the bucket
/// sorts, `dp` the counting DP that fills the arenas. The
/// [`SumDirectAccess`](crate::SumDirectAccess) build maps onto the same rows: `reduce` is
/// the same full reducer, `layers` the covering-atom projection, `sort`
/// the weighing and weight sort, `dp` the answer-column materialization.
/// The materialized fallback (a `SumDirectAccess` too) maps its own
/// pipeline onto them: `prep` is normalization, `reduce` the full
/// reducer and the join, `layers` the head projection, `sort` the sort
/// by either order, `dp` the answer columns. A selection handle
/// reports its constructor: `prep` and `reduce` as above, then `dp` (the counting pass of a lex handle) or `sort`
/// (contraction, weighing and bucket sort of a sum handle); its entries
/// and bytes are the rows of the prepared instance it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildCost {
    /// Nanoseconds in normalization, FD checks and FD extension.
    pub prep_ns: u64,
    /// Nanoseconds in the full reduction of the (extended) query.
    pub reduce_ns: u64,
    /// Nanoseconds materializing the per-layer relations.
    pub layers_ns: u64,
    /// Nanoseconds sorting (buckets for lex, weights for sum).
    pub sort_ns: u64,
    /// Nanoseconds filling the final arenas / answer columns.
    pub dp_ns: u64,
    /// Entries in the finished structure (arena entries over all
    /// layers for lex, answer rows for sum).
    pub arena_entries: u64,
    /// Bytes of the finished structure's answer-proportional storage.
    pub arena_bytes: u64,
}

impl BuildCost {
    /// Nanoseconds over all five phases.
    pub fn total_ns(&self) -> u64 {
        self.prep_ns + self.reduce_ns + self.layers_ns + self.sort_ns + self.dp_ns
    }

    /// Record the encoded relations a structure keeps as its entries
    /// (rows) and bytes — what a selection handle holds instead of an
    /// arena.
    pub(crate) fn hold(&mut self, rels: &[rda_db::EncodedRelation]) {
        self.arena_entries = rels.iter().map(|r| r.len() as u64).sum();
        self.arena_bytes = rels.iter().map(|r| 4 * (r.len() * r.arity()) as u64).sum();
    }
}

impl std::fmt::Display for BuildCost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ms = |ns: u64| ns as f64 / 1e6;
        write!(
            f,
            "{:.3} ms (prep {:.3}, reduce {:.3}, layers {:.3}, sort {:.3}, dp {:.3}); \
             {} entries, {} bytes",
            ms(self.total_ns()),
            ms(self.prep_ns),
            ms(self.reduce_ns),
            ms(self.layers_ns),
            ms(self.sort_ns),
            ms(self.dp_ns),
            self.arena_entries,
            self.arena_bytes
        )
    }
}

/// Lap timer for the build phases: each [`PhaseClock::lap`] returns the
/// nanoseconds since the previous one.
pub(crate) struct PhaseClock(std::time::Instant);

impl PhaseClock {
    pub(crate) fn start() -> Self {
        PhaseClock(std::time::Instant::now())
    }

    pub(crate) fn lap(&mut self) -> u64 {
        let now = std::time::Instant::now();
        let ns = now.duration_since(self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut m = BuildBudget::UNLIMITED.meter();
        for _ in 0..1000 {
            m.charge(u64::MAX / 2, u64::MAX / 2).unwrap();
        }
        // Unlimited meters skip accounting entirely.
        assert_eq!(m.bytes, 0);
    }

    #[test]
    fn entry_cap_trips_first_crossing() {
        let mut m = BuildBudget::capped(1 << 30, 10).meter();
        m.charge(16, 8).unwrap();
        m.charge(16, 2).unwrap(); // exactly at the cap: fine
        let err = m.charge(16, 1).unwrap_err();
        match err {
            BuildError::BudgetExceeded {
                resource,
                used,
                limit,
            } => {
                assert_eq!(resource, "dp_entries");
                assert_eq!(used, 11);
                assert_eq!(limit, 10);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn byte_cap_trips_and_saturates() {
        let mut m = BuildBudget {
            max_arena_bytes: Some(100),
            max_dp_entries: None,
        }
        .meter();
        m.charge(100, 5).unwrap();
        assert!(m.charge(u64::MAX, 0).is_err(), "saturating add still trips");
    }
}
