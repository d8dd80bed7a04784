#![warn(missing_docs, unreachable_pub)]

//! # rda-orderstat — weighted selection for the benchmark's calibration
//!
//! This crate holds only [`weighted_select`]: weighted selection without
//! sorting (Johnson & Mizoguchi \[31\], the role it plays in Lemma 6.6).
//! No product code calls it. The LEX selection's histograms are dense
//! code tables already in value order, and the SUM selection's order
//! statistics live in `rda_core` beside it. Its one caller is the
//! benchmark harness, which times one call beside its host calibration
//! (`rdabench/src/harness.rs`); ROADMAP item 10 deletes the function,
//! and the crate with it, once item 3a moves that timing onto a kernel
//! of its own.

mod weighted;

pub use weighted::weighted_select;
