#![warn(missing_docs)]

//! # rda-query — conjunctive queries and their structural theory
//!
//! Everything the paper (Carmeli et al., PODS 2021) needs to *reason about
//! queries*, independent of any database instance:
//!
//! * conjunctive query AST and a datalog-style parser ([`Cq`]);
//! * hypergraphs, join trees, and the GYO acyclicity test
//!   ([`hypergraph`], [`jointree`], [`gyo`]);
//! * S-connexity, S-paths, and ext-S-connex tree construction
//!   ([`connex`], Proposition 4.3);
//! * disruptive trios and layered join trees ([`trio`], [`layered`],
//!   Definitions 3.2 and 3.4, Lemma 3.9);
//! * completion of partial lexicographic orders ([`connex::complete_order`],
//!   Lemma 4.4);
//! * maximal contractions, `mh`/`fmh`, and independent free variables
//!   ([`contraction`], Definitions 5.2, 7.1, 7.5);
//! * unary functional dependencies and the FD-(reordered-)extension
//!   ([`fd`], Definitions 8.2 and 8.13);
//! * decision procedures for all of the paper's dichotomies
//!   ([`mod@classify`], Theorems 3.3, 4.1, 5.1, 6.1, 7.3, 8.9, 8.10, 8.21, 8.22);
//! * tree decompositions for cyclic queries ([`decompose`], the
//!   "Applicability" extension).

pub mod classify;
pub mod connex;
pub mod contraction;
pub mod decompose;
pub mod fd;
pub mod gyo;
pub mod hypergraph;
pub mod jointree;
pub mod layered;
pub mod parser;
pub mod query;
pub mod trio;
pub mod var;

pub use classify::{classify, Problem, Verdict};
pub use fd::{Fd, FdSet};
pub use query::{Atom, Cq};
pub use var::{VarId, VarSet};
