//! Maximal contractions (Definition 7.5), `mh`/`fmh` (Definition 7.1),
//! and `αfree` (Definition 5.2) — the structural measures governing the
//! SUM dichotomies of Sections 5 and 7.

use crate::query::{Atom, Cq};
use crate::var::VarId;

/// One step of a contraction; `rda-core` replays these on the instance
/// (Lemma 7.7's reductions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContractionStep {
    /// Atom `removed` was absorbed by atom `into` (`var(removed) ⊆
    /// var(into)`); at the instance level, `into`'s relation is
    /// semijoin-filtered by `removed`'s.
    AbsorbAtom {
        /// Relation name of the absorbed atom.
        removed: String,
        /// Relation name of the absorbing atom.
        into: String,
    },
    /// Variable `removed` was absorbed by `into` (same atoms; not the
    /// case that `removed` is free while `into` is existential); at the
    /// instance level, `into`'s values become packed `(into, removed)`
    /// pairs carrying the summed weight.
    AbsorbVar {
        /// The absorbed variable (dropped from the query).
        removed: VarId,
        /// The absorbing variable (its values become packed pairs).
        into: VarId,
    },
}

/// The result of contracting a query to its fixpoint.
#[derive(Debug, Clone)]
pub struct Contraction {
    /// The maximally contracted query `Q_m`.
    pub query: Cq,
    /// The steps applied, in order.
    pub steps: Vec<ContractionStep>,
}

/// Number of maximal hyperedges `mh(Q)` (Definition 7.1).
pub fn mh(q: &Cq) -> usize {
    q.hypergraph().maximal_edge_count()
}

/// Number of free-maximal hyperedges `fmh(Q)` (Definition 7.1).
pub fn fmh(q: &Cq) -> usize {
    q.free_hypergraph().maximal_edge_count()
}

/// Maximum number of independent free variables `αfree(Q)`
/// (Definition 5.2).
pub fn alpha_free(q: &Cq) -> usize {
    q.hypergraph().max_independent_subset(q.free_set()).len()
}

/// Compute a maximal contraction of `q` (Definition 7.5): repeatedly
/// remove absorbed atoms and absorbed variables until no step applies.
///
/// Atom removal requires distinct relation names to be replayable on the
/// instance, so `q` must be self-join free.
///
/// # Panics
/// Panics if `q` has self-joins.
pub fn maximal_contraction(q: &Cq) -> Contraction {
    assert!(
        q.is_self_join_free(),
        "contraction replay requires a self-join-free CQ"
    );
    let mut current = q.clone();
    let mut steps = Vec::new();
    loop {
        if let Some(step) = absorb_one_atom(&mut current) {
            steps.push(step);
            continue;
        }
        if let Some(step) = absorb_one_variable(&mut current) {
            steps.push(step);
            continue;
        }
        break;
    }
    Contraction {
        query: current,
        steps,
    }
}

fn absorb_one_atom(q: &mut Cq) -> Option<ContractionStep> {
    let atoms = q.atoms();
    for i in 0..atoms.len() {
        for j in 0..atoms.len() {
            if i == j {
                continue;
            }
            if atoms[i].var_set().is_subset(atoms[j].var_set()) {
                let removed = atoms[i].relation.clone();
                let into = atoms[j].relation.clone();
                let new_atoms: Vec<Atom> = atoms
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i)
                    .map(|(_, a)| a.clone())
                    .collect();
                *q = q.rebuilt(q.free().to_vec(), new_atoms);
                return Some(ContractionStep::AbsorbAtom { removed, into });
            }
        }
    }
    None
}

fn absorb_one_variable(q: &mut Cq) -> Option<ContractionStep> {
    let all: Vec<VarId> = q.all_vars().iter().collect();
    let free = q.free_set();
    for &v in &all {
        for &u in &all {
            if v == u {
                continue;
            }
            // Same atoms?
            let same_atoms = q
                .atoms()
                .iter()
                .all(|a| a.var_set().contains(v) == a.var_set().contains(u));
            if !same_atoms {
                continue;
            }
            // Not allowed: v free while u existential.
            if free.contains(v) && !free.contains(u) {
                continue;
            }
            // Remove v: drop its positions from all atoms and the head.
            let new_atoms: Vec<Atom> = q
                .atoms()
                .iter()
                .map(|a| Atom {
                    relation: a.relation.clone(),
                    terms: a.terms.iter().copied().filter(|&t| t != v).collect(),
                })
                .collect();
            let new_free: Vec<VarId> = q.free().iter().copied().filter(|&f| f != v).collect();
            *q = q.rebuilt(new_free, new_atoms);
            return Some(ContractionStep::AbsorbVar {
                removed: v,
                into: u,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::CqBuilder;

    #[test]
    fn example_7_2_measures() {
        // Q(x,z,w) :- R(x,y), S(y,z), T(z,w), U(x): mh = 3, fmh = 2.
        let q = CqBuilder::new("Q")
            .head(&["x", "z", "w"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "w"])
            .atom("U", &["x"])
            .build();
        assert_eq!(mh(&q), 3);
        assert_eq!(fmh(&q), 2);
    }

    #[test]
    fn example_5_3_alpha() {
        // Q(x,y,z) :- R(x,y), S(y,z), T(z,u): αfree = 2.
        let q = CqBuilder::new("Q")
            .head(&["x", "y", "z"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "u"])
            .build();
        assert_eq!(alpha_free(&q), 2);
    }

    #[test]
    fn remark_4_alpha_le_fmh() {
        let queries = [
            "Q(x, y, z) :- R(x, y), S(y, z)",
            "Q(x, z) :- R(x, y), S(y, z)",
            "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
            "Q(a, b) :- R(a), S(b)",
            "Q(x) :- R(x, y), S(y)",
        ];
        for src in queries {
            let q = crate::parser::parse(src).unwrap();
            assert!(alpha_free(&q) <= fmh(&q), "Remark 4 fails for {src}");
        }
    }

    #[test]
    fn example_7_6_contraction() {
        // Q(x,y,z) :- R(x,u,y), S(y), T(y,z), U(x,u,y): contracts to two
        // atoms, with u absorbed by x.
        let q = CqBuilder::new("Q")
            .head(&["x", "y", "z"])
            .atom("R", &["x", "u", "y"])
            .atom("S", &["y"])
            .atom("T", &["y", "z"])
            .atom("U", &["x", "u", "y"])
            .build();
        let c = maximal_contraction(&q);
        assert_eq!(c.query.atoms().len(), 2);
        assert_eq!(mh(&q), 2);
        let x = q.var("x").unwrap();
        let u = q.var("u").unwrap();
        assert!(c
            .steps
            .iter()
            .any(|s| matches!(s, ContractionStep::AbsorbVar { removed, into } if *removed == u && *into == x)));
        // The contracted query keeps all head variables.
        assert_eq!(c.query.free().len(), 3);
    }

    #[test]
    fn contraction_never_drops_free_for_existential() {
        // Q(x) :- R(x, y): x free, y existential, same atoms. Only y may
        // be absorbed (into x), not the reverse.
        let q = CqBuilder::new("Q")
            .head(&["x"])
            .atom("R", &["x", "y"])
            .build();
        let c = maximal_contraction(&q);
        assert_eq!(c.query.free().len(), 1);
        assert_eq!(c.query.atoms()[0].terms.len(), 1);
        let y = q.var("y").unwrap();
        assert!(matches!(
            c.steps[0],
            ContractionStep::AbsorbVar { removed, .. } if removed == y
        ));
    }

    #[test]
    fn contraction_atom_count_equals_mh() {
        let q = crate::parser::parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
        let c = maximal_contraction(&q);
        assert_eq!(c.query.atoms().len(), mh(&q));
    }

    #[test]
    fn two_path_full_contracts_to_two_atoms() {
        let q = crate::parser::parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let c = maximal_contraction(&q);
        assert_eq!(c.query.atoms().len(), 2);
        assert!(c.steps.is_empty());
    }
}
