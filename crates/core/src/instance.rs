//! Instance preparation: normalization, Yannakakis full reduction, and
//! the free-connex-to-full reduction (Proposition 2.3 / Lemma 3.10).
//!
//! What the build paths use from here is representation-independent:
//! query normalization, the full reducer (generic over
//! [`SemijoinTarget`]) and position bookkeeping. The value-level
//! instance functions — [`normalize_instance`], [`reduce_to_full`] — are
//! oracle-side code, not a build path: [`crate::reference`],
//! [`crate::decompose`] and the differential tests of
//! [`crate::snapprep`] run them; builds and selections run the
//! code-space twins there.

use crate::error::BuildError;
use rda_db::{Database, EncodedRelation, Relation};
use rda_query::connex::{ext_connex_tree, ExtConnexTree};
use rda_query::jointree::JoinTree;
use rda_query::query::{Atom, Cq};
use rda_query::{VarId, VarSet};

/// Positions (within an atom's term list) of the given variables, in the
/// given order. The atom must contain each variable.
pub(crate) fn positions_of(terms: &[VarId], vars: &[VarId]) -> Vec<usize> {
    vars.iter()
        .map(|v| {
            terms
                .iter()
                .position(|t| t == v)
                .expect("variable must occur in atom")
        })
        .collect()
}

/// The columns holding the variables two atoms share, in each of them
/// (aligned, in `a`'s term order) — their join key.
pub(crate) fn shared_positions(a: &[VarId], b: &[VarId]) -> (Vec<usize>, Vec<usize>) {
    let shared: Vec<VarId> = a.iter().copied().filter(|v| b.contains(v)).collect();
    (positions_of(a, &shared), positions_of(b, &shared))
}

/// Sorted variable list of a set.
pub(crate) fn sorted_vars(set: VarSet) -> Vec<VarId> {
    set.iter().collect()
}

/// Check that `db` provides every relation `q` mentions, at the right
/// arity — the shared instance-level validation behind every builder
/// and fallback path.
pub(crate) fn validate_instance(q: &Cq, db: &Database) -> Result<(), BuildError> {
    for atom in q.atoms() {
        let rel = db
            .get(&atom.relation)
            .ok_or_else(|| BuildError::MissingRelation(atom.relation.clone()))?;
        if rel.arity() != atom.terms.len() {
            return Err(BuildError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: atom.terms.len(),
                found: rel.arity(),
            });
        }
    }
    Ok(())
}

/// Normalize a query/database pair so downstream machinery can assume:
/// distinct relation symbols (self-joins are materialized as copies),
/// no repeated variables within an atom (resolved by filtering), and
/// set-semantics relations matching atom arities.
pub(crate) fn normalize_instance(q: &Cq, db: &Database) -> Result<(Cq, Database), BuildError> {
    let (nq, rels) = normalize_relations(q, db)?;
    let mut out_db = Database::new();
    for rel in rels {
        out_db.add(rel);
    }
    Ok((nq, out_db))
}

/// [`normalize_instance`], but returning the normalized relations
/// positionally (one per atom of the normalized query, already renamed
/// to match it). Builders that walk atoms by index use this directly —
/// no database detour, no relation ownership hand-off.
pub(crate) fn normalize_relations(
    q: &Cq,
    db: &Database,
) -> Result<(Cq, Vec<Relation>), BuildError> {
    validate_instance(q, db)?;
    let nq = normalize_query(q);
    let mut out: Vec<Relation> = Vec::with_capacity(q.atoms().len());
    for (atom, natom) in q.atoms().iter().zip(nq.atoms()) {
        let rel = db.get(&atom.relation).expect("validated above");
        // Repeated variables: keep tuples whose repeated positions agree,
        // then drop the duplicate columns (first occurrence of each
        // variable, matching the normalized atom's terms).
        let keep_positions: Vec<usize> = natom
            .terms
            .iter()
            .map(|t| atom.terms.iter().position(|x| x == t).expect("present"))
            .collect();
        let mut relation = if keep_positions.len() == atom.terms.len() {
            rel.clone().renamed(natom.relation.clone())
        } else {
            let mut filtered = rel.clone();
            filtered.retain(|t| {
                atom.terms.iter().enumerate().all(|(p, tv)| {
                    let first = atom.terms.iter().position(|x| x == tv).expect("present");
                    t[p] == t[first]
                })
            });
            filtered.project(natom.relation.clone(), &keep_positions)
        };
        relation.normalize();
        out.push(relation);
    }
    Ok((nq, out))
}

/// The query half of [`normalize_instance`] — purely syntactic, so it
/// needs no database: self-join occurrences get fresh relation names
/// and repeated variables collapse to their first position.
pub(crate) fn normalize_query(q: &Cq) -> Cq {
    let mut atoms: Vec<Atom> = Vec::with_capacity(q.atoms().len());
    let mut used: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for atom in q.atoms() {
        // Self-join: later occurrences get fresh names (the paper's
        // linear-time reduction to a self-join-free form, Section 8).
        let occurrence = used.entry(atom.relation.clone()).or_insert(0);
        *occurrence += 1;
        let name = if *occurrence == 1 {
            atom.relation.clone()
        } else {
            format!("{}#{}", atom.relation, occurrence)
        };
        let mut terms: Vec<VarId> = Vec::new();
        for &t in &atom.terms {
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        atoms.push(Atom {
            relation: name,
            terms,
        });
    }
    let names: Vec<String> = (0..q.var_count())
        .map(|i| q.var_name(VarId(i as u32)).to_string())
        .collect();
    Cq::from_parts(q.name().to_string(), q.free().to_vec(), atoms, names)
}

/// Borrow `xs[target]` mutably and `xs[source]` immutably at once —
/// the disjoint split the semijoin passes need, with no cloning.
///
/// # Panics
/// Panics (in debug) if the indices coincide.
pub(crate) fn pair_mut<T>(xs: &mut [T], target: usize, source: usize) -> (&mut T, &T) {
    debug_assert_ne!(target, source, "pair_mut needs disjoint indices");
    if target < source {
        let (lo, hi) = xs.split_at_mut(source);
        (&mut lo[target], &hi[0])
    } else {
        let (lo, hi) = xs.split_at_mut(target);
        (&mut hi[0], &lo[source])
    }
}

/// The one operation the full reducer needs from a relation
/// representation — implemented by both the value-level [`Relation`]
/// and the copy-on-write code-level [`EncodedRelation`], so the
/// Yannakakis traversal exists exactly once.
pub(crate) trait SemijoinTarget {
    /// Keep tuples of `self` whose key (at `self_keys`) appears in
    /// `other` (at `other_keys`).
    fn semijoin_on(&mut self, self_keys: &[usize], other: &Self, other_keys: &[usize]);
}

impl SemijoinTarget for Relation {
    fn semijoin_on(&mut self, self_keys: &[usize], other: &Self, other_keys: &[usize]) {
        self.semijoin(self_keys, other, other_keys);
    }
}

/// Copy-on-write semijoin: a relation borrowed from a snapshot is only
/// cloned when the semijoin actually removes rows — a pass that keeps
/// everything (the common case on already-consistent data) costs no
/// copy.
impl SemijoinTarget for std::borrow::Cow<'_, EncodedRelation> {
    fn semijoin_on(&mut self, self_keys: &[usize], other: &Self, other_keys: &[usize]) {
        if let Some(keep) = self.semijoin_plan(self_keys, other.as_ref(), other_keys) {
            self.to_mut().retain_rows(&keep);
        }
    }
}

/// Yannakakis full reducer over a join tree whose node relations are
/// given positionally (`rels[i]` belongs to tree node `i`, with columns
/// ordered by `vars[i]`). After this, every tuple of every relation
/// participates in at least one tree-consistent combination.
pub(crate) fn full_reduce<R: SemijoinTarget>(tree: &JoinTree, vars: &[Vec<VarId>], rels: &mut [R]) {
    if tree.is_empty() {
        return;
    }
    let (parent, order) = tree.rooted_at(0);
    // Bottom-up: parent ⋉ child.
    for &i in order.iter().rev() {
        let p = parent[i];
        if p == usize::MAX {
            continue;
        }
        let (pk, ck) = shared_positions(&vars[p], &vars[i]);
        let (target, child) = pair_mut(rels, p, i);
        target.semijoin_on(&pk, child, &ck);
    }
    // Top-down: child ⋉ parent.
    for &i in &order {
        let p = parent[i];
        if p == usize::MAX {
            continue;
        }
        let (ck, pk) = shared_positions(&vars[i], &vars[p]);
        let (target, par) = pair_mut(rels, i, p);
        target.semijoin_on(&ck, par, &pk);
    }
}

/// Result of reducing a free-connex CQ to a full acyclic CQ over its
/// free variables (Proposition 2.3), with `Q'(I') = Q(I)`.
#[derive(Debug, Clone)]
pub(crate) struct FullReduction {
    /// The full CQ `Q'`; atoms are named `N0, N1, …` and its variables
    /// are exactly `free(Q)` (same [`VarId`]s as the input query).
    pub(crate) query: Cq,
    /// The database `I'` for `Q'`.
    pub(crate) db: Database,
    /// `true` when the semijoin reduction already proves `Q(I) = ∅`.
    pub(crate) known_empty: bool,
}

/// Proposition 2.3 / Lemma 3.10: reduce a free-connex `q` over `db` to a
/// full acyclic query over `free(q)` with the same answers. `q` and `db`
/// must already be normalized ([`normalize_instance`]).
///
/// Returns `None` if `q` is not free-connex.
pub(crate) fn reduce_to_full(q: &Cq, db: &Database) -> Option<FullReduction> {
    let free = q.free_set();
    let ext: ExtConnexTree = ext_connex_tree(&q.hypergraph(), free)?;

    // Materialize one relation per tree node by projecting its source
    // atom, then run the full reducer over the whole ext tree.
    let n = ext.tree.len();
    let mut node_vars: Vec<Vec<VarId>> = Vec::with_capacity(n);
    let mut rels: Vec<Relation> = Vec::with_capacity(n);
    for i in 0..n {
        let vars = sorted_vars(ext.tree.node(i).vars);
        let atom = &q.atoms()[ext.source_atom(i)];
        let rel = db
            .get(&atom.relation)
            .expect("normalized instance has all relations");
        let positions = positions_of(&atom.terms, &vars);
        rels.push(rel.project(format!("N{i}"), &positions));
        node_vars.push(vars);
    }
    full_reduce(&ext.tree, &node_vars, &mut rels);

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
    let names: Vec<String> = (0..q.var_count())
        .map(|i| q.var_name(VarId(i as u32)).to_string())
        .collect();
    let query = Cq::from_parts(q.name().to_string(), q.free().to_vec(), atoms, names);
    Some(FullReduction {
        query,
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
        assert!(matches!(
            normalize_instance(&q, &fig2_db()),
            Err(BuildError::MissingRelation(r)) if r == "T"
        ));
    }

    #[test]
    fn normalize_checks_arity() {
        let q = parse("Q(x) :- R(x)").unwrap();
        assert!(matches!(
            normalize_instance(&q, &fig2_db()),
            Err(BuildError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn normalize_renames_self_joins() {
        let q = parse("Q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let (nq, ndb) = normalize_instance(&q, &fig2_db()).unwrap();
        assert!(nq.is_self_join_free());
        assert_eq!(nq.atoms()[1].relation, "R#2");
        assert_eq!(ndb.get("R#2").unwrap().len(), 3);
    }

    #[test]
    fn normalize_resolves_repeated_variables() {
        let q = parse("Q(x) :- R(x, x)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 1], vec![1, 2], vec![3, 3]]);
        let (nq, ndb) = normalize_instance(&q, &db).unwrap();
        assert_eq!(nq.atoms()[0].terms.len(), 1);
        assert_eq!(ndb.get("R").unwrap().tuples(), &[tup![1], tup![3]]);
    }

    #[test]
    fn full_reduction_two_path_keeps_all_free_tuples() {
        // Full 2-path: Q' should reproduce exactly the joinable parts.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let (nq, ndb) = normalize_instance(&q, &fig2_db()).unwrap();
        let red = reduce_to_full(&nq, &ndb).unwrap();
        assert!(!red.known_empty);
        assert!(red.query.is_full());
        assert_eq!(red.query.free_set(), q.free_set());
        // Join of the reduced atoms must equal the original join (checked
        // in lexda tests via answer enumeration).
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
        let (nq, ndb) = normalize_instance(&q, &db).unwrap();
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
        let (nq, ndb) = normalize_instance(&q, &fig2_db()).unwrap();
        assert!(reduce_to_full(&nq, &ndb).is_none());
    }

    #[test]
    fn empty_join_detected() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]]);
        let (nq, ndb) = normalize_instance(&q, &db).unwrap();
        let red = reduce_to_full(&nq, &ndb).unwrap();
        assert!(red.known_empty);
        for atom in red.query.atoms() {
            assert!(red.db.get(&atom.relation).unwrap().is_empty());
        }
    }
}
