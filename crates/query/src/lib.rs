#![warn(missing_docs, unreachable_pub)]

//! # rda-query — conjunctive queries and their structural theory
//!
//! Everything the paper (Carmeli et al., PODS 2021) needs to *reason about
//! queries*, independent of any database instance:
//!
//! * conjunctive query AST and a datalog-style parser ([`Cq`],
//!   [`parser::parse`]);
//! * hypergraphs, join trees, and the GYO acyclicity test
//!   ([`Hypergraph`], [`JoinTree`], [`is_acyclic`]);
//! * S-connexity and ext-S-connex trees ([`ext_connex_tree`],
//!   Proposition 4.3), and completion of partial lexicographic orders
//!   ([`complete_order`], Lemma 4.4);
//! * disruptive trios and layered join trees
//!   ([`find_disruptive_trio`], [`layered_join_tree`], Definitions 3.2
//!   and 3.4, Lemma 3.9);
//! * maximal contractions, `mh`/`fmh`, and independent free variables
//!   ([`maximal_contraction`], Definitions 5.2, 7.1, 7.5);
//! * unary functional dependencies and the FD-(reordered-)extension
//!   ([`FdSet`], [`fd_extension`], Definitions 8.2 and 8.13);
//! * decision procedures for all of the paper's dichotomies
//!   ([`mod@classify`], Theorems 3.3, 4.1, 5.1, 6.1, 7.3, 8.9, 8.10, 8.21, 8.22);
//! * tree decompositions for cyclic queries ([`decompose()`], the
//!   "Applicability" extension).

pub mod classify;
mod connex;
mod contraction;
mod decompose;
mod fd;
mod gyo;
mod hypergraph;
mod jointree;
mod layered;
pub mod parser;
mod query;
mod trio;
mod var;

pub use classify::{classify, Problem, Reason, Verdict};
pub use connex::{
    complete_order, ext_connex_pair, ext_connex_tree, is_free_connex, is_s_connex, s_path_witness,
    ExtConnexTree,
};
pub use contraction::{alpha_free, fmh, maximal_contraction, mh, Contraction, ContractionStep};
pub use decompose::{decompose, Bag, TreeDecomposition};
pub use fd::{fd_extension, fd_reordered_order, ExtensionStep, Fd, FdExtension, FdSet};
pub use gyo::{is_acyclic, join_tree};
pub use hypergraph::Hypergraph;
pub use jointree::{JoinTree, Node, NodeSource};
pub use layered::{layered_join_tree, LayerNode, LayeredJoinTree};
pub use query::{positions_of, shared_positions, Atom, Cq, CqBuilder};
pub use trio::{find_disruptive_trio, is_reverse_elimination_order};
pub use var::{VarId, VarSet};
