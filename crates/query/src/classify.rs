//! Decision procedures for the paper's dichotomies.
//!
//! | Problem | No FDs | Unary FDs | Tractable iff |
//! |---|---|---|---|
//! | direct access by LEX | Thm 3.3 / 4.1 | Thm 8.21 | `Q⁺` free-connex, `L⁺`-connex, no disruptive trio w.r.t. `L⁺` |
//! | selection by LEX | Thm 6.1 | Thm 8.22 | `Q⁺` free-connex |
//! | direct access by SUM | Thm 5.1 | Thm 8.9 | `Q⁺` acyclic and one atom contains all free variables |
//! | selection by SUM | Thm 7.3 | Thm 8.10 | `Q⁺` free-connex and `fmh(Q⁺) ≤ 2` |
//!
//! The tractable sides hold for every CQ; the intractable sides are
//! proven for self-join-free CQs under fine-grained hypotheses, so for a
//! query *with* self-joins that fails the criterion we return
//! [`Verdict::OpenSelfJoin`] rather than claim hardness.

use crate::connex::{is_s_connex, s_path_witness};
use crate::contraction::{alpha_free, fmh};
use crate::fd::{fd_extension, fd_reordered_order, FdExtension, FdSet};
use crate::gyo;
use crate::query::Cq;
use crate::trio::find_disruptive_trio;
use crate::var::{VarId, VarSet};
use std::fmt;

/// The four ordered-evaluation problems the paper classifies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Problem {
    /// Direct access by a (possibly partial) lexicographic order.
    DirectAccessLex(Vec<VarId>),
    /// Selection by a (possibly partial) lexicographic order.
    SelectionLex(Vec<VarId>),
    /// Direct access by sum-of-weights orders.
    DirectAccessSum,
    /// Selection by sum-of-weights orders.
    SelectionSum,
}

/// Why a query/order combination falls on the intractable side.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    /// The (extended) query hypergraph is cyclic.
    Cyclic,
    /// Acyclic but not free-connex; carries an S-path witness for the
    /// free variables when one exists.
    NotFreeConnex {
        /// A free-path witness `(x, z₁…z_k, y)` when the hypergraph is
        /// acyclic (cyclic hypergraphs may have none).
        free_path: Option<Vec<VarId>>,
    },
    /// Free-connex but not L-connex for the requested prefix.
    NotLConnex {
        /// An L-path witness, when one exists.
        l_path: Option<Vec<VarId>>,
    },
    /// A disruptive trio `(v1, v2, v3)` w.r.t. the (reordered) order.
    DisruptiveTrio(VarId, VarId, VarId),
    /// SUM direct access: no single atom contains all free variables
    /// (equivalently `αfree(Q) ≥ 2`, Lemma 5.4).
    NoAtomCoversFree {
        /// The number of independent free variables (≥ 2 here).
        alpha_free: usize,
    },
    /// SUM selection: more than two free-maximal hyperedges.
    TooManyFreeMaximalHyperedges {
        /// The number of free-maximal hyperedges (> 2 here).
        fmh: usize,
    },
}

impl fmt::Display for Reason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reason::Cyclic => write!(f, "the query (extension) is cyclic"),
            Reason::NotFreeConnex { .. } => write!(f, "the query (extension) is not free-connex"),
            Reason::NotLConnex { .. } => write!(f, "the query is not L-connex for the prefix"),
            Reason::DisruptiveTrio(a, b, c) => {
                write!(f, "disruptive trio (v{}, v{}, v{})", a.0, b.0, c.0)
            }
            Reason::NoAtomCoversFree { alpha_free } => {
                write!(
                    f,
                    "no atom contains all free variables (αfree = {alpha_free})"
                )
            }
            Reason::TooManyFreeMaximalHyperedges { fmh } => {
                write!(f, "fmh = {fmh} > 2 free-maximal hyperedges")
            }
        }
    }
}

/// Outcome of classifying a problem instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Upper bound applies (for every CQ, self-joins included).
    Tractable {
        /// ⟨preprocessing, access⟩ guarantee, e.g. `"<n log n, log n>"`.
        bound: &'static str,
    },
    /// Lower bound applies (self-join-free CQs, under the hypotheses).
    Intractable {
        /// The fine-grained hypotheses the bound is conditioned on.
        assumptions: &'static [&'static str],
        /// Structural cause, with witness where available.
        reason: Reason,
    },
    /// The criterion fails but the query has self-joins, where the
    /// paper's hardness proofs do not apply.
    OpenSelfJoin {
        /// Structural cause that *would* imply hardness if self-join-free.
        reason: Reason,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Tractable`].
    pub fn is_tractable(&self) -> bool {
        matches!(self, Verdict::Tractable { .. })
    }

    /// The structural reason, if not tractable.
    pub fn reason(&self) -> Option<&Reason> {
        match self {
            Verdict::Tractable { .. } => None,
            Verdict::Intractable { reason, .. } | Verdict::OpenSelfJoin { reason } => Some(reason),
        }
    }
}

fn negative(q: &Cq, assumptions: &'static [&'static str], reason: Reason) -> Verdict {
    if q.is_self_join_free() {
        Verdict::Intractable {
            assumptions,
            reason,
        }
    } else {
        Verdict::OpenSelfJoin { reason }
    }
}

/// Structural facts about `Q⁺` shared by the four procedures.
struct Analysis {
    ext: FdExtension,
    acyclic: bool,
    free_connex: bool,
}

fn analyze(q: &Cq, fds: &FdSet) -> Analysis {
    let ext = fd_extension(q, fds);
    let h = ext.query.hypergraph();
    let acyclic = gyo::is_acyclic(&h);
    let free_connex = acyclic && gyo::is_acyclic(&h.with_edge(ext.query.free_set()));
    Analysis {
        ext,
        acyclic,
        free_connex,
    }
}

fn not_free_connex_reason(q_plus: &Cq, acyclic: bool) -> Reason {
    if !acyclic {
        Reason::Cyclic
    } else {
        Reason::NotFreeConnex {
            free_path: s_path_witness(&q_plus.hypergraph(), q_plus.free_set()),
        }
    }
}

/// Classify `q` (with unary FDs `fds`; pass [`FdSet::empty`] for none)
/// for `problem`. Implements Theorems 3.3, 4.1, 5.1, 6.1, 7.3 and their
/// FD generalizations 8.9, 8.10, 8.21, 8.22.
///
/// # Panics
/// Panics if a lexicographic order mentions non-free or repeated
/// variables, or if `q` has self-joins and `fds` is non-empty (see
/// [`fd_extension`]).
pub fn classify(q: &Cq, fds: &FdSet, problem: &Problem) -> Verdict {
    match problem {
        Problem::DirectAccessLex(l) => classify_da_lex(q, fds, l),
        Problem::SelectionLex(l) => classify_sel_lex(q, fds, l),
        Problem::DirectAccessSum => classify_da_sum(q, fds),
        Problem::SelectionSum => classify_sel_sum(q, fds),
    }
}

fn check_lex(q: &Cq, l: &[VarId]) {
    let lset: VarSet = l.iter().copied().collect();
    assert_eq!(
        lset.len(),
        l.len(),
        "lexicographic order repeats a variable"
    );
    assert!(
        lset.is_subset(q.free_set()),
        "lexicographic orders range over free variables only"
    );
}

fn classify_da_lex(q: &Cq, fds: &FdSet, l: &[VarId]) -> Verdict {
    check_lex(q, l);
    const ASSUME: &[&str] = &["sparseBMM", "Hyperclique"];
    let a = analyze(q, fds);
    if !a.free_connex {
        return negative(q, ASSUME, not_free_connex_reason(&a.ext.query, a.acyclic));
    }
    let l_plus = fd_reordered_order(&a.ext, l);
    let h = a.ext.query.hypergraph();
    if let Some((v1, v2, v3)) = find_disruptive_trio(&h, &l_plus) {
        return negative(q, ASSUME, Reason::DisruptiveTrio(v1, v2, v3));
    }
    let lset: VarSet = l_plus.iter().copied().collect();
    if !is_s_connex(&h, lset) {
        return negative(
            q,
            ASSUME,
            Reason::NotLConnex {
                l_path: s_path_witness(&h, lset),
            },
        );
    }
    Verdict::Tractable {
        bound: "<n log n, log n>",
    }
}

fn classify_sel_lex(q: &Cq, fds: &FdSet, l: &[VarId]) -> Verdict {
    check_lex(q, l);
    const ASSUME: &[&str] = &["SETH", "Hyperclique"];
    let a = analyze(q, fds);
    if !a.free_connex {
        return negative(q, ASSUME, not_free_connex_reason(&a.ext.query, a.acyclic));
    }
    Verdict::Tractable { bound: "<1, n>" }
}

fn classify_da_sum(q: &Cq, fds: &FdSet) -> Verdict {
    const ASSUME: &[&str] = &["3SUM", "Hyperclique"];
    let a = analyze(q, fds);
    if !a.acyclic {
        return negative(q, ASSUME, Reason::Cyclic);
    }
    let qp = &a.ext.query;
    let free = qp.free_set();
    if qp.atoms().iter().any(|atom| free.is_subset(atom.var_set())) {
        Verdict::Tractable {
            bound: "<n log n, 1>",
        }
    } else {
        negative(
            q,
            ASSUME,
            Reason::NoAtomCoversFree {
                alpha_free: alpha_free(qp),
            },
        )
    }
}

fn classify_sel_sum(q: &Cq, fds: &FdSet) -> Verdict {
    const ASSUME: &[&str] = &["3SUM", "Hyperclique", "SETH"];
    let a = analyze(q, fds);
    if !a.free_connex {
        return negative(q, ASSUME, not_free_connex_reason(&a.ext.query, a.acyclic));
    }
    let m = fmh(&a.ext.query);
    if m <= 2 {
        Verdict::Tractable {
            bound: "<1, n log n>",
        }
    } else {
        negative(q, ASSUME, Reason::TooManyFreeMaximalHyperedges { fmh: m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn da_lex(q: &Cq, l: &[&str]) -> Verdict {
        classify(q, &FdSet::empty(), &Problem::DirectAccessLex(q.vars(l)))
    }

    fn sel_lex(q: &Cq, l: &[&str]) -> Verdict {
        classify(q, &FdSet::empty(), &Problem::SelectionLex(q.vars(l)))
    }

    /// Example 1.1: every bullet of the running example.
    #[test]
    fn example_1_1_bullets() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        // LEX <x,y,z>: direct access tractable.
        assert!(da_lex(&q, &["x", "y", "z"]).is_tractable());
        // LEX <x,z,y>: DA intractable (disruptive trio), selection tractable.
        let v = da_lex(&q, &["x", "z", "y"]);
        assert!(matches!(v.reason(), Some(Reason::DisruptiveTrio(..))));
        assert!(sel_lex(&q, &["x", "z", "y"]).is_tractable());
        // LEX <x,z>: DA intractable (not L-connex), selection tractable.
        let v = da_lex(&q, &["x", "z"]);
        assert!(matches!(v.reason(), Some(Reason::NotLConnex { .. })));
        assert!(sel_lex(&q, &["x", "z"]).is_tractable());
        // LEX <x,z> with y projected away: selection intractable.
        let qp = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let v = sel_lex(&qp, &["x", "z"]);
        assert!(matches!(v.reason(), Some(Reason::NotFreeConnex { .. })));
        // FD R: y → x makes LEX <x,z,y> DA tractable.
        let fds = FdSet::parse(&q, &[("R", "y", "x")]);
        let v = classify(
            &q,
            &fds,
            &Problem::DirectAccessLex(q.vars(&["x", "z", "y"])),
        );
        assert!(v.is_tractable(), "{v:?}");
        // FD S: y → z also works.
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let v = classify(
            &q,
            &fds,
            &Problem::DirectAccessLex(q.vars(&["x", "z", "y"])),
        );
        assert!(v.is_tractable(), "{v:?}");
        // FD R: x → y: tractable via reordering (Example 8.14 intuition).
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        let v = classify(
            &q,
            &fds,
            &Problem::DirectAccessLex(q.vars(&["x", "z", "y"])),
        );
        assert!(v.is_tractable(), "{v:?}");
        // FD S: z → y does not help.
        let fds = FdSet::parse(&q, &[("S", "z", "y")]);
        let v = classify(
            &q,
            &fds,
            &Problem::DirectAccessLex(q.vars(&["x", "z", "y"])),
        );
        assert!(!v.is_tractable());
        // SUM: DA intractable (3SUM), selection tractable.
        let v = classify(&q, &FdSet::empty(), &Problem::DirectAccessSum);
        assert!(matches!(
            v.reason(),
            Some(Reason::NoAtomCoversFree { alpha_free: 2 })
        ));
        assert!(classify(&q, &FdSet::empty(), &Problem::SelectionSum).is_tractable());
        // SUM x + y with z projected away: DA tractable (R covers free).
        let qxy = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        assert!(classify(&qxy, &FdSet::empty(), &Problem::DirectAccessSum).is_tractable());
        // SUM x + z with y projected away: selection intractable.
        let v = classify(&qp, &FdSet::empty(), &Problem::SelectionSum);
        assert!(matches!(v.reason(), Some(Reason::NotFreeConnex { .. })));
    }

    #[test]
    fn cartesian_product_sum_hard_lex_easy() {
        // Section 1: every LEX order on the product is tractable, SUM
        // direct access is not.
        let q = parse("Q(p, a, c1, c2, d, n) :- Visits(p, a, c1), Cases(c2, d, n)").unwrap();
        assert!(da_lex(&q, &["n", "a", "p", "c1", "c2", "d"]).is_tractable());
        let v = classify(&q, &FdSet::empty(), &Problem::DirectAccessSum);
        assert!(!v.is_tractable());
    }

    #[test]
    fn visits_cases_orders() {
        // (#cases, age, …) has a disruptive trio; (#cases, city, age) is
        // tractable; (#cases, age) alone is not L-connex (Section 1).
        let q = parse("Q(p, a, c, d, n) :- Visits(p, a, c), Cases(c, d, n)").unwrap();
        let v = da_lex(&q, &["n", "a", "c", "d", "p"]);
        assert!(matches!(v.reason(), Some(Reason::DisruptiveTrio(..))));
        assert!(da_lex(&q, &["n", "c", "a"]).is_tractable());
        let v = da_lex(&q, &["n", "a"]);
        assert!(matches!(v.reason(), Some(Reason::NotLConnex { .. })));
    }

    #[test]
    fn example_7_4_sum_selection() {
        // 2-path: tractable; Q'3 (u projected): tractable; 3-path full:
        // intractable.
        let q2 = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        assert!(classify(&q2, &FdSet::empty(), &Problem::SelectionSum).is_tractable());
        let q3p = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, u)").unwrap();
        assert!(classify(&q3p, &FdSet::empty(), &Problem::SelectionSum).is_tractable());
        let q3 = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
        let v = classify(&q3, &FdSet::empty(), &Problem::SelectionSum);
        assert!(matches!(
            v.reason(),
            Some(Reason::TooManyFreeMaximalHyperedges { fmh: 3 })
        ));
    }

    #[test]
    fn cyclic_queries_are_hard_everywhere() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        for p in [
            Problem::DirectAccessLex(q.vars(&["x", "y", "z"])),
            Problem::SelectionLex(q.vars(&["x", "y", "z"])),
            Problem::DirectAccessSum,
            Problem::SelectionSum,
        ] {
            let v = classify(&q, &FdSet::empty(), &p);
            assert!(matches!(v.reason(), Some(Reason::Cyclic)), "{p:?}");
        }
    }

    #[test]
    fn self_join_negative_side_is_open() {
        let q = parse("Q(x, z) :- R(x, y), R(y, z)").unwrap();
        let v = classify(&q, &FdSet::empty(), &Problem::SelectionSum);
        assert!(matches!(v, Verdict::OpenSelfJoin { .. }));
    }

    #[test]
    fn boolean_query_is_tractable() {
        let q = parse("Q() :- R(x, y), S(y, z)").unwrap();
        assert!(classify(&q, &FdSet::empty(), &Problem::DirectAccessLex(vec![])).is_tractable());
        assert!(classify(&q, &FdSet::empty(), &Problem::DirectAccessSum).is_tractable());
        assert!(classify(&q, &FdSet::empty(), &Problem::SelectionSum).is_tractable());
    }

    #[test]
    fn example_8_19_stays_hard() {
        // Q(v1,v2) :- R(v1,v3), S(v3,v2) with S: v2 → v3 and L = <v1,v2>:
        // the reordered extension has a disruptive trio, so DA stays hard.
        let q = parse("Q(v1, v2) :- R(v1, v3), S(v3, v2)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "v2", "v3")]);
        let v = classify(&q, &fds, &Problem::DirectAccessLex(q.vars(&["v1", "v2"])));
        assert!(
            matches!(v.reason(), Some(Reason::DisruptiveTrio(..))),
            "{v:?}"
        );
        // But selection becomes tractable: Q⁺ is free-connex.
        let v = classify(&q, &fds, &Problem::SelectionLex(q.vars(&["v1", "v2"])));
        assert!(v.is_tractable(), "{v:?}");
    }
}
