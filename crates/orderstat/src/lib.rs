#![warn(missing_docs, unreachable_pub)]

//! # rda-orderstat — selection algorithms
//!
//! The order-statistics substrate for the SUM/LEX selection results of
//! the paper (Sections 6 and 7):
//!
//! * [`select_nth_by`] — expected-linear-time selection on unordered
//!   slices (the role of Blum et al. \[10\] in Lemma 7.8);
//! * [`weighted_select`] — weighted selection without sorting (Johnson &
//!   Mizoguchi \[31\], used by the LEX selection algorithm of Lemma 6.6);
//! * [`MatrixUnion`] — selection on unions of implicit sorted matrices
//!   (the role of Frederickson & Johnson \[21\] in Theorem 7.9 /
//!   Lemma 7.10), including `X + Y` selection as the one-matrix case;
//! * [`TotalF64`] — a totally ordered `f64` for real-valued weights.

mod float;
mod matrix;
mod select;
mod weighted;

pub use float::TotalF64;
pub use matrix::{MatrixUnion, SortedMatrix};
pub use select::select_nth_by;
pub use weighted::weighted_select;
