//! Cyclic queries via tree decompositions (the paper's "Applicability"
//! paragraph): materialize each decomposition bag as the join of its
//! covering atoms — a non-linear preprocessing step bounded by the
//! decomposition width — so the acyclic machinery runs on the rewritten
//! query. The rewrite keeps the head and the variable ids, so answers of
//! the rewritten query are answers of the original one, in the same
//! head order.

use crate::instance::normalize_instance;
use rda_db::{Database, Relation};
use rda_query::{decompose, positions_of, shared_positions, Atom, Cq, TreeDecomposition, VarId};

/// The result of rewriting a (possibly cyclic) query over an instance
/// into an acyclic query with one atom per decomposition bag.
#[derive(Debug, Clone)]
pub struct DecomposedInstance {
    /// The rewritten acyclic query (atoms `B0, B1, …`, same head and
    /// variable ids as the input).
    pub query: Cq,
    /// The database for [`DecomposedInstance::query`].
    pub db: Database,
    /// The decomposition used (width governs the materialization cost).
    pub decomposition: TreeDecomposition,
}

/// Rewrite `q` over `db` through a tree decomposition: each bag becomes
/// an atom whose relation is the join of the bag's covering atoms
/// projected onto the bag (cost O(nʷ) for width w). The rewritten query
/// is acyclic and has exactly the same answers.
///
/// Works for acyclic inputs too (width-1 bags), though it is only
/// *useful* when `q` is cyclic — acyclic queries should go straight to
/// the builders.
///
/// # Panics
/// Panics if `db` does not fit `q` (a missing relation or an arity
/// mismatch).
pub fn rewrite_by_decomposition(q: &Cq, db: &Database) -> DecomposedInstance {
    let (nq, ndb) = normalize_instance(q, db);
    let td = decompose(&nq);
    let rel_of = |ai: usize| {
        ndb.get(&nq.atoms()[ai].relation)
            .expect("normalized instance")
    };

    // Every atom must be *enforced* somewhere, not merely covered:
    // assign each atom to the first bag containing it and semijoin the
    // bag's relation with it below.
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); td.bags.len()];
    for (ai, atom) in nq.atoms().iter().enumerate() {
        let home = td
            .bags
            .iter()
            .position(|b| atom.var_set().is_subset(b.vars))
            .expect("tree decompositions cover every atom");
        assigned[home].push(ai);
    }

    let mut atoms: Vec<Atom> = Vec::with_capacity(td.bags.len());
    let mut out = Database::new();
    for (i, bag) in td.bags.iter().enumerate() {
        let bag_vars: Vec<VarId> = bag.vars.iter().collect();
        // Join the covering atoms left-deep on shared variables.
        let mut acc_vars: Vec<VarId> = Vec::new();
        let mut acc: Option<Relation> = None;
        for &ai in &bag.cover {
            let terms = &nq.atoms()[ai].terms;
            acc = Some(match acc {
                None => rel_of(ai).clone(),
                Some(left) => {
                    let (lk, rk) = shared_positions(&acc_vars, terms);
                    left.join(format!("B{i}"), &lk, rel_of(ai), &rk)
                }
            });
            for &t in terms {
                if !acc_vars.contains(&t) {
                    acc_vars.push(t);
                }
            }
        }
        let joined = acc.expect("bags have non-empty covers");
        let mut bag_rel = joined.project(format!("B{i}"), &positions_of(&acc_vars, &bag_vars));
        // Enforce the constraints of every atom living in this bag.
        for &ai in &assigned[i] {
            let terms = &nq.atoms()[ai].terms;
            let all: Vec<usize> = (0..terms.len()).collect();
            bag_rel.semijoin(&positions_of(&bag_vars, terms), rel_of(ai), &all);
        }
        out.add(bag_rel);
        atoms.push(Atom {
            relation: format!("B{i}"),
            terms: bag_vars,
        });
    }

    let query = nq.rebuilt(nq.free().to_vec(), atoms);
    debug_assert!(rda_query::is_acyclic(&query.hypergraph()));
    DecomposedInstance {
        query,
        db: out,
        decomposition: td,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{all_answers, HashLexDirectAccess};
    use rda_db::{tup, Tuple};
    use rda_query::classify::{classify, Problem};
    use rda_query::parser::parse;
    use rda_query::FdSet;

    fn triangle_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3], vec![5, 2], vec![9, 9]])
            .with_i64_rows("S", 2, vec![vec![2, 3], vec![3, 1], vec![9, 8]])
            .with_i64_rows("T", 2, vec![vec![3, 1], vec![1, 2], vec![3, 5]])
    }

    /// Is direct access by `lex` tractable for the query?
    fn tractable(q: &Cq, lex: &[VarId]) -> bool {
        classify(q, &FdSet::empty(), &Problem::DirectAccessLex(lex.to_vec())).is_tractable()
    }

    #[test]
    fn triangle_rewrite_preserves_answers() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let db = triangle_db();
        let dec = rewrite_by_decomposition(&q, &db);
        assert!(rda_query::is_acyclic(&dec.query.hypergraph()));
        let mut expect = all_answers(&q, &db);
        expect.sort();
        let mut got = all_answers(&dec.query, &dec.db);
        got.sort();
        assert_eq!(got, expect);
        assert_eq!(got, vec![tup![1, 2, 3], tup![2, 3, 1], tup![5, 2, 3]]);
    }

    #[test]
    fn triangle_direct_access_end_to_end() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let lex = q.vars(&["x", "y", "z"]);
        // The cyclic query is intractable as written …
        assert!(!tractable(&q, &lex));
        // … its rewrite is not.
        let dec = rewrite_by_decomposition(&q, &triangle_db());
        assert!(tractable(&dec.query, &lex));
        let da = HashLexDirectAccess::build(&dec.query, &dec.db, &lex, &FdSet::empty());
        let got: Vec<Tuple> = (0..da.len()).filter_map(|k| da.access(k)).collect();
        assert_eq!(got, vec![tup![1, 2, 3], tup![2, 3, 1], tup![5, 2, 3]]);
        for (k, t) in got.iter().enumerate() {
            assert_eq!(da.inverted_access(t), Some(k as u64));
        }
    }

    #[test]
    fn four_cycle_end_to_end() {
        let q = parse("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![3, 4]])
            .with_i64_rows("S", 2, vec![vec![2, 5], vec![4, 6]])
            .with_i64_rows("T", 2, vec![vec![5, 7], vec![6, 8]])
            .with_i64_rows("U", 2, vec![vec![7, 1], vec![8, 9]]);
        let dec = rewrite_by_decomposition(&q, &db);
        // Which complete orders survive depends on the decomposition's
        // bags (they decide the rewritten query's neighbor structure):
        // <a,b,c,d> has a disruptive trio in the width-2 rewrite …
        assert!(!tractable(&dec.query, &q.vars(&["a", "b", "c", "d"])));
        // … but the empty prefix (any-order direct access) always works.
        let da = HashLexDirectAccess::build(&dec.query, &dec.db, &[], &FdSet::empty());
        let got: Vec<Tuple> = (0..da.len()).filter_map(|k| da.access(k)).collect();
        assert_eq!(got, vec![tup![1, 2, 5, 7]]);
        assert_eq!(da.inverted_access(&got[0]), Some(0));
    }

    #[test]
    fn projections_still_need_free_connexity_after_rewrite() {
        // Rewriting cannot rescue a non-free-connex *projection*: bags
        // merge the cycle, but the head {x, z} of the 2-path stays hard
        // … unless the decomposition happens to cover it. The triangle
        // with head {x, z} becomes tractable because its single bag
        // covers everything.
        let q = parse("Q(x, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let db = triangle_db();
        let dec = rewrite_by_decomposition(&q, &db);
        let da =
            HashLexDirectAccess::build(&dec.query, &dec.db, &q.vars(&["x", "z"]), &FdSet::empty());
        let mut expect = all_answers(&q, &db);
        expect.sort();
        let got: Vec<Tuple> = (0..da.len()).filter_map(|k| da.access(k)).collect();
        assert_eq!(got, expect);
    }
}
