//! Value-level instance preparation: normalization and the
//! free-connex-to-full reduction (Proposition 2.3 / Lemma 3.10).
//!
//! The oracle twin of `rda_core::snapprep`, which runs the same steps in
//! a snapshot's code space for every build and selection. This form
//! re-reads and clones [`Relation`]s; the reference structure
//! ([`crate::HashLexDirectAccess`]), the decomposition rewrite and the
//! differential tests of the code-space pipeline run it.

use rda_db::{Database, Relation};
use rda_query::{ext_connex_tree, positions_of, Atom, Cq, VarId};

/// Normalize a query/database pair so downstream machinery can assume
/// distinct relation symbols (self-joins are materialized as copies), no
/// repeated variables within an atom (resolved by filtering), and
/// set-semantics relations matching atom arities. The query half is
/// [`Cq::normalized`].
///
/// # Panics
/// Panics if a relation `q` mentions is missing from `db` or has another
/// arity than its atom.
pub fn normalize_instance(q: &Cq, db: &Database) -> (Cq, Database) {
    let nq = q.normalized();
    let mut out = Database::new();
    for (atom, natom) in q.atoms().iter().zip(nq.atoms()) {
        let rel = db
            .get(&atom.relation)
            .unwrap_or_else(|| panic!("relation {} missing from database", atom.relation));
        assert_eq!(
            rel.arity(),
            atom.terms.len(),
            "arity mismatch on {}",
            atom.relation
        );
        // Repeated variables: keep tuples whose repeated positions agree,
        // then drop the duplicate columns (first occurrence of each
        // variable, matching the normalized atom's terms).
        let firsts = positions_of(&atom.terms, &atom.terms);
        let mut relation = if natom.terms.len() == atom.terms.len() {
            rel.clone().renamed(natom.relation.clone())
        } else {
            let mut filtered = rel.clone();
            filtered.retain(|t| firsts.iter().enumerate().all(|(p, &f)| t[p] == t[f]));
            filtered.project(
                natom.relation.clone(),
                &positions_of(&atom.terms, &natom.terms),
            )
        };
        relation.normalize();
        out.add(relation);
    }
    (nq, out)
}

/// Result of reducing a free-connex CQ to a full acyclic CQ over its
/// free variables (Proposition 2.3), with `Q'(I') = Q(I)`.
#[derive(Debug, Clone)]
pub struct FullReduction {
    /// The full CQ `Q'`; atoms are named `N0, N1, …` and its variables
    /// are exactly `free(Q)` (same [`VarId`]s as the input query).
    pub query: Cq,
    /// The database `I'` for `Q'`.
    pub db: Database,
    /// `true` when the semijoin reduction already proves `Q(I) = ∅`.
    pub known_empty: bool,
}

/// Proposition 2.3 / Lemma 3.10: reduce a free-connex `q` over `db` to a
/// full acyclic query over `free(q)` with the same answers, by running
/// the full reducer over the whole ext-connex tree (projections of
/// atoms). `q` and `db` must already be normalized
/// ([`normalize_instance`]).
///
/// Returns `None` if `q` is not free-connex.
pub fn reduce_to_full(q: &Cq, db: &Database) -> Option<FullReduction> {
    let ext = ext_connex_tree(&q.hypergraph(), q.free_set())?;

    // Materialize one relation per tree node by projecting its source
    // atom, then run the full reducer over the whole ext tree.
    let n = ext.tree.len();
    let mut node_vars: Vec<Vec<VarId>> = Vec::with_capacity(n);
    let mut rels: Vec<Relation> = Vec::with_capacity(n);
    for i in 0..n {
        let vars: Vec<VarId> = ext.tree.node(i).vars.iter().collect();
        let atom = &q.atoms()[ext.source_atom(i)];
        let rel = db
            .get(&atom.relation)
            .expect("normalized instance has all relations");
        rels.push(rel.project(format!("N{i}"), &positions_of(&atom.terms, &vars)));
        node_vars.push(vars);
    }
    ext.tree
        .full_reduce(&node_vars, &mut rels, Relation::semijoin);

    // Emptiness propagates through the full reducer: if any node relation
    // is empty, the join is empty and every relation has been emptied.
    let known_empty = rels.iter().any(Relation::is_empty);

    // Q' := the marked subtree's non-empty-variable nodes.
    let mut atoms = Vec::new();
    let mut out_db = Database::new();
    for &i in &ext.marked {
        if node_vars[i].is_empty() {
            continue;
        }
        atoms.push(Atom {
            relation: format!("N{i}"),
            terms: node_vars[i].clone(),
        });
        let mut rel = rels[i].clone();
        rel.normalize();
        out_db.add(rel);
    }
    Some(FullReduction {
        query: q.rebuilt(q.free().to_vec(), atoms),
        db: out_db,
        known_empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::{tup, Tuple};
    use rda_query::parser::parse;

    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    #[test]
    fn normalize_checks_missing_relation() {
        let q = parse("Q(x) :- T(x)").unwrap();
        let msg = crate::panic_message(|| drop(normalize_instance(&q, &fig2_db())));
        assert!(msg.contains("relation T missing"), "{msg}");
    }

    #[test]
    fn normalize_checks_arity() {
        let q = parse("Q(x) :- R(x)").unwrap();
        let msg = crate::panic_message(|| drop(normalize_instance(&q, &fig2_db())));
        assert!(msg.contains("arity mismatch on R"), "{msg}");
    }

    #[test]
    fn normalize_renames_self_joins() {
        let q = parse("Q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let (nq, ndb) = normalize_instance(&q, &fig2_db());
        assert!(nq.is_self_join_free());
        assert_eq!(nq.atoms()[1].relation, "R#2");
        assert_eq!(ndb.get("R#2").unwrap().len(), 3);
    }

    #[test]
    fn normalize_resolves_repeated_variables() {
        let q = parse("Q(x) :- R(x, x)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 1], vec![1, 2], vec![3, 3]]);
        let (nq, ndb) = normalize_instance(&q, &db);
        assert_eq!(nq.atoms()[0].terms.len(), 1);
        assert_eq!(ndb.get("R").unwrap().tuples(), &[tup![1], tup![3]]);
    }

    #[test]
    fn full_reduction_two_path_keeps_all_free_tuples() {
        // Full 2-path: Q' should reproduce exactly the joinable parts.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let (nq, ndb) = normalize_instance(&q, &fig2_db());
        let red = reduce_to_full(&nq, &ndb).unwrap();
        assert!(!red.known_empty);
        assert!(red.query.is_full());
        assert_eq!(red.query.free_set(), q.free_set());
        for atom in red.query.atoms() {
            assert!(!red.db.get(&atom.relation).unwrap().is_empty());
        }
    }

    #[test]
    fn projected_free_connex_query_reduces() {
        // Q(x) :- R(x, y), S(y): free-connex with projections.
        let q = parse("Q(x) :- R(x, y), S(y)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20], vec![3, 30]])
            .with_i64_rows("S", 1, vec![vec![10], vec![30]]);
        let (nq, ndb) = normalize_instance(&q, &db);
        let red = reduce_to_full(&nq, &ndb).unwrap();
        // The unique non-empty marked relation over {x} is {1, 3}.
        let all: Vec<Tuple> = red
            .db
            .relations()
            .flat_map(|r| r.tuples().iter().cloned())
            .collect();
        assert!(all.contains(&tup![1]));
        assert!(!all.contains(&tup![2]));
    }

    #[test]
    fn non_free_connex_returns_none() {
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let (nq, ndb) = normalize_instance(&q, &fig2_db());
        assert!(reduce_to_full(&nq, &ndb).is_none());
    }

    #[test]
    fn empty_join_detected() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let (nq, ndb) = normalize_instance(&q, &db);
        let red = reduce_to_full(&nq, &ndb).unwrap();
        assert!(red.known_empty);
        for atom in red.query.atoms() {
            assert!(red.db.get(&atom.relation).unwrap().is_empty());
        }
    }
}
