//! Value-level FD-extension (Section 8, Lemma 8.5's forward reduction):
//! transform a database satisfying unary FDs `Δ` into one for the
//! extended query `Q⁺` with the same answers (restricted to the original
//! free variables).
//!
//! The oracle twin of the FD steps of `rda_core::snapprep`, which every
//! build and selection runs in code space.

use rda_db::{Database, Relation, Tuple, Value};
use rda_query::{Cq, ExtensionStep, Fd, FdExtension, FdSet, VarId};
use std::collections::HashMap;

/// Check that `db` satisfies every FD in `fds` (the paper's promise on
/// inputs). `q` and `db` must be normalized.
///
/// # Panics
/// Panics if an FD names a relation `q` or `db` lacks, or if two tuples
/// violate an FD.
pub(crate) fn check_fds(q: &Cq, db: &Database, fds: &FdSet) {
    for fd in fds.iter() {
        let atom = q
            .atoms()
            .iter()
            .find(|a| a.relation == fd.relation)
            .unwrap_or_else(|| panic!("FD names relation {} outside the query", fd.relation));
        fd_lookup(&atom.terms, db, fd);
    }
}

/// Replay the FD-extension steps on the instance: produce a database for
/// `Q⁺` such that `Q⁺(I⁺)` equals `Q(I)` extended with the uniquely
/// determined values of the promoted variables (Lemma 8.5). Tuples whose
/// determining value never occurs in the FD's relation are dangling and
/// are dropped.
///
/// `db` must be normalized and satisfy the FDs (`check_fds`).
///
/// # Panics
/// Panics if a relation of the extension is missing from `db` or an FD
/// is violated.
pub fn extend_instance(ext: &FdExtension, db: &Database) -> Database {
    let mut out = db.clone();
    // Evolving schemas: relation name -> term list, starting from the
    // original atoms and growing exactly as fd_extension grew them.
    let mut schema: HashMap<String, Vec<VarId>> = ext
        .original
        .atoms()
        .iter()
        .map(|a| (a.relation.clone(), a.terms.clone()))
        .collect();

    for step in &ext.steps {
        let ExtensionStep::ExtendAtom { atom, added, via } = step else {
            continue; // PromoteVar has no instance effect.
        };
        let lookup = fd_lookup(&schema[&via.relation], &out, via);
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
        let tuples: Vec<Tuple> = rel
            .tuples()
            .iter()
            .filter_map(|t| {
                let rhs = lookup.get(&t[lp])?; // else: dangling, dropped
                Some(t.iter().cloned().chain([rhs.clone()]).collect())
            })
            .collect();
        let mut new_rel = Relation::from_tuples(atom.clone(), rel.arity() + 1, tuples);
        new_rel.normalize();
        out.add(new_rel);
    }
    out
}

/// The `lhs value → rhs value` map of `fd` over its relation's current
/// contents, whose columns hold `terms`.
///
/// # Panics
/// Panics if the relation is missing or two tuples violate `fd`.
pub(crate) fn fd_lookup(terms: &[VarId], db: &Database, fd: &Fd) -> HashMap<Value, Value> {
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
        .unwrap_or_else(|| panic!("relation {} missing from database", fd.relation));
    let mut map = HashMap::with_capacity(rel.len());
    for t in rel.tuples() {
        if let Some(prev) = map.insert(t[lp].clone(), t[rp].clone()) {
            assert!(prev == t[rp], "{} violates the FD {fd}", fd.relation);
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_query::fd_extension;
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
        check_fds(&q, &db, &fds);
        let ext = fd_extension(&q, &fds);
        let out = extend_instance(&ext, &db);
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
        let msg = crate::panic_message(|| check_fds(&q, &db, &fds));
        assert!(msg.contains("S violates the FD"), "{msg}");
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
        let out = extend_instance(&ext, &db);
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
        assert_eq!(extend_instance(&ext, &db), db);
    }
}
