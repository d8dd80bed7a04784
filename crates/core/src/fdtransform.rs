//! Instance-level FD-extension (Section 8, Lemma 8.5's forward
//! reduction): transform a database satisfying unary FDs `Δ` into one
//! for the extended query `Q⁺` with the same answers (restricted to the
//! original free variables).
//!
//! Oracle-side code, not a build path: every build and selection runs
//! the code-space twins in [`crate::snapprep`]; this value-level form
//! is what [`crate::reference`] and the differential tests compare
//! them with.

use crate::error::BuildError;
use rda_db::{Database, Relation, Tuple, Value};
use rda_query::fd::{ExtensionStep, Fd, FdExtension, FdSet};
use rda_query::query::Cq;
use std::collections::HashMap;

/// Check that `db` satisfies every FD in `fds` (the paper's promise on
/// inputs). `q` must be normalized.
pub(crate) fn check_fds(q: &Cq, db: &Database, fds: &FdSet) -> Result<(), BuildError> {
    for fd in fds.iter() {
        let atom = q
            .atoms()
            .iter()
            .find(|a| a.relation == fd.relation)
            .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
        let rel = db
            .get(&fd.relation)
            .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
        let lp = atom.position_of(fd.lhs).expect("FD lhs occurs in atom");
        let rp = atom.position_of(fd.rhs).expect("FD rhs occurs in atom");
        let mut seen: HashMap<Value, Value> = HashMap::new();
        for t in rel.tuples() {
            match seen.entry(t[lp].clone()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(t[rp].clone());
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    if e.get() != &t[rp] {
                        return Err(BuildError::FdViolated(fd.clone()));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Replay the FD-extension steps on the instance: produce a database for
/// `Q⁺` such that `Q⁺(I⁺)` equals `Q(I)` extended with the uniquely
/// determined values of the promoted variables (Lemma 8.5). Tuples whose
/// determining value never occurs in the FD's relation are dangling and
/// are dropped.
///
/// `q` and `db` must be normalized and `db` must satisfy the FDs
/// ([`check_fds`]).
pub(crate) fn extend_instance(ext: &FdExtension, db: &Database) -> Result<Database, BuildError> {
    let mut out = db.clone();
    // Evolving schemas: relation name -> term list, starting from the
    // original atoms and growing exactly as fd_extension grew them.
    let mut schema: HashMap<String, Vec<rda_query::VarId>> = ext
        .original
        .atoms()
        .iter()
        .map(|a| (a.relation.clone(), a.terms.clone()))
        .collect();

    for step in &ext.steps {
        let ExtensionStep::ExtendAtom { atom, added, via } = step else {
            continue; // PromoteVar has no instance effect.
        };
        let lookup = build_lookup(&schema, &out, via)?;
        let terms = schema
            .get_mut(atom)
            .expect("extension step names a known atom");
        let lp = terms
            .iter()
            .position(|&t| t == via.lhs)
            .expect("target atom contains the FD's lhs");
        terms.push(*added);
        let rel = out
            .get(atom)
            .expect("normalized instance has all relations");
        let mut tuples: Vec<Tuple> = Vec::with_capacity(rel.len());
        for t in rel.tuples() {
            if let Some(rhs) = lookup.get(&t[lp]) {
                tuples.push(t.iter().cloned().chain([rhs.clone()]).collect());
            }
            // else: dangling tuple, dropped.
        }
        let mut new_rel = Relation::from_tuples(atom.clone(), rel.arity() + 1, tuples);
        new_rel.normalize();
        out.add(new_rel);
    }
    Ok(out)
}

/// Build the `lhs value → rhs value` map of an FD from its relation's
/// current contents.
fn build_lookup(
    schema: &HashMap<String, Vec<rda_query::VarId>>,
    db: &Database,
    fd: &Fd,
) -> Result<HashMap<Value, Value>, BuildError> {
    let terms = schema
        .get(&fd.relation)
        .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
    let lp = terms
        .iter()
        .position(|&t| t == fd.lhs)
        .expect("FD lhs in relation schema");
    let rp = terms
        .iter()
        .position(|&t| t == fd.rhs)
        .expect("FD rhs in relation schema");
    let rel = db
        .get(&fd.relation)
        .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
    let mut map = HashMap::with_capacity(rel.len());
    for t in rel.tuples() {
        if let Some(prev) = map.insert(t[lp].clone(), t[rp].clone()) {
            if prev != t[rp] {
                return Err(BuildError::FdViolated(fd.clone()));
            }
        }
    }
    Ok(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_query::fd::fd_extension;
    use rda_query::parser::parse;

    #[test]
    fn example_8_3_instance_transform() {
        // Q(x,z) :- R(x,y), S(y,z) with S: y → z. R gains a z column
        // looked up from S.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20], vec![3, 99]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![20, 8]]);
        check_fds(&q, &db, &fds).unwrap();
        let ext = fd_extension(&q, &fds);
        let out = extend_instance(&ext, &db).unwrap();
        let r = out.get("R").unwrap();
        assert_eq!(r.arity(), 3);
        // (3, 99) is dangling (99 not in S) and dropped.
        assert_eq!(r.len(), 2);
        assert!(r
            .tuples()
            .iter()
            .any(|t| t.values() == [1.into(), 10.into(), 7.into()]));
        assert!(r
            .tuples()
            .iter()
            .any(|t| t.values() == [2.into(), 20.into(), 8.into()]));
    }

    #[test]
    fn violation_detected() {
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![10, 8]]);
        assert!(matches!(
            check_fds(&q, &db, &fds),
            Err(BuildError::FdViolated(_))
        ));
    }

    #[test]
    fn chained_extensions_replay_in_order() {
        // Q(a) :- R(a, b), S(b, c) with R: a → b and S: b → c.
        // R first gains c via the (derived) chain.
        let q = parse("Q(a) :- R(a, b), S(b, c)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "b", "c")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20]])
            .with_i64_rows("S", 2, vec![vec![10, 100], vec![20, 200]]);
        let ext = fd_extension(&q, &fds);
        let out = extend_instance(&ext, &db).unwrap();
        let r = out.get("R").unwrap();
        assert_eq!(r.arity(), 3);
        assert!(r
            .tuples()
            .iter()
            .any(|t| t.values() == [1.into(), 10.into(), 100.into()]));
    }

    #[test]
    fn no_steps_is_identity() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
        let ext = fd_extension(&q, &FdSet::empty());
        assert_eq!(extend_instance(&ext, &db).unwrap(), db);
    }
}
