//! Cyclic-query support via tree decompositions (the paper's
//! "Applicability" paragraph): materialize each decomposition bag as the
//! join of its covering atoms — a non-linear preprocessing step bounded
//! by the decomposition width — and run the (acyclic) machinery on the
//! rewritten query.

use crate::error::BuildError;
use crate::instance::normalize_instance;
use rda_db::{Database, Relation, Tuple};
use rda_query::decompose::{decompose, TreeDecomposition};
use rda_query::query::{Atom, Cq};
use rda_query::VarId;
use std::collections::HashMap;

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
pub fn rewrite_by_decomposition(q: &Cq, db: &Database) -> Result<DecomposedInstance, BuildError> {
    let (nq, ndb) = normalize_instance(q, db)?;
    let td = decompose(&nq);

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
            let atom = &nq.atoms()[ai];
            let rel = ndb
                .get(&atom.relation)
                .expect("normalized instance")
                .clone();
            match acc {
                None => {
                    acc_vars = atom.terms.clone();
                    acc = Some(rel);
                }
                Some(left) => {
                    let shared: Vec<VarId> = atom
                        .terms
                        .iter()
                        .copied()
                        .filter(|v| acc_vars.contains(v))
                        .collect();
                    let lk: Vec<usize> = shared
                        .iter()
                        .map(|v| acc_vars.iter().position(|u| u == v).expect("shared"))
                        .collect();
                    let rk: Vec<usize> = shared
                        .iter()
                        .map(|v| atom.terms.iter().position(|u| u == v).expect("shared"))
                        .collect();
                    let joined = left.join(format!("B{i}"), &lk, &rel, &rk);
                    for &t in &atom.terms {
                        if !acc_vars.contains(&t) {
                            acc_vars.push(t);
                        }
                    }
                    acc = Some(joined);
                }
            }
        }
        let joined = acc.expect("bags have non-empty covers");
        // Project onto the bag variables (sorted order).
        let positions: Vec<usize> = bag_vars
            .iter()
            .map(|v| {
                acc_vars
                    .iter()
                    .position(|u| u == v)
                    .expect("cover covers bag")
            })
            .collect();
        let mut bag_rel = joined.project(format!("B{i}"), &positions);
        // Enforce the constraints of every atom living in this bag.
        for &ai in &assigned[i] {
            let atom = &nq.atoms()[ai];
            let keys: Vec<usize> = atom
                .terms
                .iter()
                .map(|v| {
                    bag_vars
                        .iter()
                        .position(|u| u == v)
                        .expect("atom inside bag")
                })
                .collect();
            let other_keys: Vec<usize> = (0..atom.terms.len()).collect();
            let rel = ndb.get(&atom.relation).expect("normalized instance");
            bag_rel.semijoin(&keys, rel, &other_keys);
        }
        out.add(bag_rel);
        atoms.push(Atom {
            relation: format!("B{i}"),
            terms: bag_vars,
        });
    }

    let names: Vec<String> = (0..nq.var_count())
        .map(|i| nq.var_name(VarId(i as u32)).to_string())
        .collect();
    let query = Cq::from_parts(nq.name().to_string(), nq.free().to_vec(), atoms, names);
    debug_assert!(rda_query::gyo::is_acyclic(&query.hypergraph()));
    Ok(DecomposedInstance {
        query,
        db: out,
        decomposition: td,
    })
}

/// A decomposition-aware convenience: rewrite if cyclic, then build a
/// [`crate::LexDirectAccess`]. The extra materialization cost is the
/// paper-sanctioned price for cyclicity; FDs are not combined with
/// decomposition here (the FD-extension usually removes the cycle on
/// its own when it applies — see Example 8.3's triangle).
pub fn lex_direct_access_decomposed(
    q: &Cq,
    db: &Database,
    lex: &[VarId],
) -> Result<(crate::LexDirectAccess, Option<TreeDecomposition>), BuildError> {
    if rda_query::gyo::is_acyclic(&q.hypergraph()) {
        let da = crate::LexDirectAccess::build(q, db, lex, &rda_query::FdSet::empty())?;
        return Ok((da, None));
    }
    let dec = rewrite_by_decomposition(q, db)?;
    let da = crate::LexDirectAccess::build(&dec.query, &dec.db, lex, &rda_query::FdSet::empty())?;
    Ok((da, Some(dec.decomposition)))
}

/// Map answers of the rewritten query back to the original head order.
/// (Identity: the rewrite keeps head and variable ids; provided for
/// symmetry and future-proofing.)
pub fn restore_answer(_: &DecomposedInstance, answer: Tuple) -> Tuple {
    answer
}

/// Count distinct value combinations per bag, for width diagnostics.
pub fn bag_sizes(dec: &DecomposedInstance) -> HashMap<usize, usize> {
    dec.decomposition
        .bags
        .iter()
        .enumerate()
        .map(|(i, _)| (i, dec.db.get(&format!("B{i}")).map_or(0, Relation::len)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectAccess;
    use rda_db::tup;
    use rda_query::parser::parse;

    fn triangle_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3], vec![5, 2], vec![9, 9]])
            .with_i64_rows("S", 2, vec![vec![2, 3], vec![3, 1], vec![9, 8]])
            .with_i64_rows("T", 2, vec![vec![3, 1], vec![1, 2], vec![3, 5]])
    }

    #[test]
    fn triangle_rewrite_preserves_answers() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let db = triangle_db();
        let dec = rewrite_by_decomposition(&q, &db).unwrap();
        assert!(rda_query::gyo::is_acyclic(&dec.query.hypergraph()));
        let mut expect = rda_baseline::all_answers(&q, &db);
        expect.sort();
        let mut got = rda_baseline::all_answers(&dec.query, &dec.db);
        got.sort();
        assert_eq!(got, expect);
        assert_eq!(got, vec![tup![1, 2, 3], tup![2, 3, 1], tup![5, 2, 3]]);
    }

    #[test]
    fn triangle_direct_access_end_to_end() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let db = triangle_db();
        let lex = q.vars(&["x", "y", "z"]);
        // The plain builder refuses the cyclic query …
        assert!(crate::LexDirectAccess::build(&q, &db, &lex, &rda_query::FdSet::empty()).is_err());
        // … the decomposition-aware one succeeds.
        let (da, td) = lex_direct_access_decomposed(&q, &db, &lex).unwrap();
        assert!(td.is_some());
        let got: Vec<Tuple> = da.iter().collect();
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
        // Which complete orders survive depends on the decomposition's
        // bags (they decide the rewritten query's neighbor structure):
        // <a,b,c,d> has a disruptive trio in the width-2 rewrite …
        let full = q.vars(&["a", "b", "c", "d"]);
        assert!(matches!(
            lex_direct_access_decomposed(&q, &db, &full),
            Err(BuildError::NotTractable(_))
        ));
        // … but the empty prefix (any-order direct access) always works.
        let (da, td) = lex_direct_access_decomposed(&q, &db, &[]).unwrap();
        assert!(td.is_some());
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], tup![1, 2, 5, 7]);
        assert_eq!(da.inverted_access(&got[0]), Some(0));
    }

    #[test]
    fn acyclic_passthrough_uses_no_decomposition() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let (da, td) = lex_direct_access_decomposed(&q, &db, &q.vars(&["x", "y", "z"])).unwrap();
        assert!(td.is_none());
        assert_eq!(da.len(), 1);
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
        let (da, _) = lex_direct_access_decomposed(&q, &db, &q.vars(&["x", "z"])).unwrap();
        let mut expect = rda_baseline::all_answers(&q, &db);
        expect.sort();
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn bag_sizes_reports_materialization_cost() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let dec = rewrite_by_decomposition(&q, &triangle_db()).unwrap();
        let sizes = bag_sizes(&dec);
        assert!(!sizes.is_empty());
        assert!(sizes.values().all(|&s| s <= 4 * 3)); // bounded by R ⋈ S
    }
}
