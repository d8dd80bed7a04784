#![warn(missing_docs, unreachable_pub)]

//! # rda-baseline — comparison algorithms and the value-level oracle
//!
//! The strategies the paper's structures are measured against, and the
//! value-level pipeline they are checked against:
//!
//! * [`MaterializedAccess`] — compute and sort the full answer set by
//!   value-level hash joins (O(|out|) space, O(|out| log |out|) time,
//!   then O(1) access): the correctness oracle for the whole test
//!   suite, the engine's code-space materialize fallback included.
//! * [`RankedEnumerator`] — ranked enumeration by SUM over full acyclic CQs
//!   (a Lawler-style any-k algorithm in the spirit of \[41, 42, 44\]):
//!   logarithmic delay after quasilinear preprocessing, but reaching the
//!   k-th answer costs Θ(k log n) — direct access does it in O(log n)
//!   (Section 2.5's contrast).
//! * [`reductions`] — the paper's 3SUM reductions (Lemmas 5.6–5.8),
//!   executable: solving 3SUM through ordered access to CQ answers.
//! * [`normalize_instance`], [`reduce_to_full`], [`extend_instance`] —
//!   the preprocessing of the paper on [`rda_db::Relation`]s:
//!   normalization, the free-connex-to-full reduction (Proposition 2.3 /
//!   Lemma 3.10) and the FD-extension (Lemma 8.5). `rda_core` runs the
//!   same steps in code space; these are what its differential tests
//!   compare it with.
//! * [`HashLexDirectAccess`] — the pre-arena lexicographic structure
//!   over that pipeline, the oracle of `rda_core::LexDirectAccess`.
//! * [`rewrite_by_decomposition`] — cyclic queries rewritten through a tree
//!   decomposition into acyclic ones (the paper's "Applicability"
//!   paragraph).
//!
//! Like every oracle here, these panic on an instance that does not fit
//! the query (a missing relation, an arity mismatch, a violated FD)
//! rather than returning an error.

mod decompose;
mod fdtransform;
mod instance;
mod materialize;
mod ranked_enum;
pub mod reductions;
mod reference;

pub use decompose::{rewrite_by_decomposition, DecomposedInstance};
pub use fdtransform::extend_instance;
pub use instance::{normalize_instance, reduce_to_full, FullReduction};
pub use materialize::{all_answers, MaterializedAccess};
pub use ranked_enum::{ranked_prefix, RankedEnumerator};
pub use reference::HashLexDirectAccess;

/// The message of the panic `f` raises — how the tests check that an
/// oracle refuses a malformed instance.
///
/// # Panics
/// Panics if `f` returns normally.
#[cfg(test)]
fn panic_message(f: impl FnOnce()) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .expect_err("the oracle must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}
