//! Snapshot-side (code-space) instance preparation.
//!
//! The preparation every build and both selection algorithms run —
//! normalize, check FDs, FD-extend, reduce to full — on the columnar
//! `u32` relations a [`Snapshot`] encoded **once** at freeze time,
//! borrowing them through [`Cow`] so a step that changes nothing (the
//! common case: no repeated variables, no FDs, nothing dangling) costs
//! no copy at all. Its oracle is the value-level pipeline of
//! `rda_baseline` (`instance`, `fdtransform`), which re-reads and clones
//! [`rda_db::Relation`]s: because the snapshot's dictionary is
//! order-preserving, each step here produces exactly the relations the
//! value-level one does, just in code space — the differential tests
//! below check it.
//!
//! The contract is observable from the outside: relations are encoded
//! at freeze time and **never again**, however many structures are
//! built over the snapshot.
//!
//! ```
//! use rda_core::{DirectAccess, Engine, OrderSpec, Policy};
//! use rda_db::{relation_encode_count, Database};
//! use rda_query::{parser::parse, FdSet};
//!
//! let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
//! let db = Database::new()
//!     .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
//!     .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]]);
//! let engine = Engine::new(db.freeze()); // both relations encoded here …
//! let encoded_at_freeze = relation_encode_count();
//! let plan = engine
//!     .prepare(&q, OrderSpec::lex(&q, &["x", "y", "z"]), &FdSet::empty(), Policy::Reject)
//!     .unwrap();
//! assert_eq!(plan.len(), 3);
//! // … and the whole build pipeline re-encoded nothing.
//! assert_eq!(relation_encode_count(), encoded_at_freeze);
//! ```

use crate::budget::{BuildCost, PhaseClock};
use crate::error::BuildError;
use rda_db::{EncodedRelation, Snapshot};
use rda_query::classify::{classify, Problem, Verdict};
use rda_query::{
    ext_connex_tree, fd_extension, positions_of, Atom, Cq, ExtConnexTree, ExtensionStep, Fd,
    FdExtension, FdSet, VarId, VarSet,
};
use std::borrow::Cow;
use std::collections::HashMap;

/// A normalized atom's relation: borrowed from the snapshot when
/// normalization is the identity for it, owned when filtering or
/// extension produced new rows.
pub(crate) type EncRel<'a> = Cow<'a, EncodedRelation>;

/// Marks, in a dense FD table, a determinant code no row carries.
const NO_CODE: u32 = u32::MAX;

/// The length of a dense table indexed by the codes of `codes`: one
/// past the largest. Codes are dictionary ranks, so this stays at or
/// below the dictionary's length.
pub(crate) fn dense_len(codes: &[u32]) -> usize {
    codes.iter().max().map_or(0, |&m| m as usize + 1)
}

/// The FD `lhs → rhs` of `rel` (columns `lp`, `rp`) as a dense
/// code-indexed table: `table[code(u)] = code(v)` for every row
/// `(u, v)`, [`NO_CODE`] elsewhere. Codes are dense dictionary ranks,
/// so the table is no longer than the dictionary and a lookup is one
/// array read. Fails with [`BuildError::FdViolated`] when two rows
/// disagree on a determinant's image.
fn fd_table(rel: &EncodedRelation, lp: usize, rp: usize, fd: &Fd) -> Result<Vec<u32>, BuildError> {
    let (lhs, rhs) = (rel.col(lp), rel.col(rp));
    let mut table = vec![NO_CODE; dense_len(lhs)];
    for (&u, &v) in lhs.iter().zip(rhs) {
        let slot = &mut table[u as usize];
        if *slot != NO_CODE && *slot != v {
            return Err(BuildError::FdViolated(fd.clone()));
        }
        *slot = v;
    }
    Ok(table)
}

/// The image of determinant code `u` under a table of [`fd_table`].
fn fd_image(table: &[u32], u: u32) -> Option<u32> {
    table.get(u as usize).copied().filter(|&v| v != NO_CODE)
}

/// Code-keyed FD derivation for the FD `from → var`, under the
/// snapshot's shared dictionary: a dense table indexed by `from`'s
/// code. Probing is one array read, allocation- and hash-free.
#[derive(Debug, Clone)]
pub(crate) struct Derivation {
    pub(crate) var: VarId,
    pub(crate) from: VarId,
    table: Vec<u32>,
}

impl Derivation {
    /// The code of `var` implied by the code `from_code` of `from`, or
    /// `None` when no row carries that determinant.
    pub(crate) fn image(&self, from_code: u32) -> Option<u32> {
        fd_image(&self.table, from_code)
    }
}

/// The snapshot's encoded relation of every atom of `q`, in atom order —
/// the instance validation behind every build and every fallback: fails
/// with [`BuildError::MissingRelation`] or [`BuildError::ArityMismatch`]
/// when the snapshot does not fit the query.
pub(crate) fn encoded_atoms<'a>(
    q: &Cq,
    snap: &'a Snapshot,
) -> Result<Vec<&'a EncodedRelation>, BuildError> {
    q.atoms()
        .iter()
        .map(|atom| {
            let enc = snap
                .encoded(&atom.relation)
                .ok_or_else(|| BuildError::MissingRelation(atom.relation.clone()))?;
            if enc.arity() != atom.terms.len() {
                return Err(BuildError::ArityMismatch {
                    relation: atom.relation.clone(),
                    expected: atom.terms.len(),
                    found: enc.arity(),
                });
            }
            Ok(enc)
        })
        .collect()
}

/// Normalize in code space: validate the query against the snapshot
/// ([`encoded_atoms`]) and produce, per atom of [`Cq::normalized`], its
/// encoded relation. Self-join occurrences *borrow the same snapshot
/// relation*; atoms with repeated variables get a filtered, projected
/// copy.
pub(crate) fn normalize_encoded<'a>(
    q: &Cq,
    snap: &'a Snapshot,
) -> Result<(Cq, Vec<EncRel<'a>>), BuildError> {
    let nq = q.normalized();
    let encs = encoded_atoms(q, snap)?;
    let mut rels: Vec<EncRel<'a>> = Vec::with_capacity(q.atoms().len());
    for ((atom, natom), enc) in q.atoms().iter().zip(nq.atoms()).zip(encs) {
        if natom.terms.len() == atom.terms.len() {
            // No repeated variables; the snapshot's normalized encoding
            // is exactly the normalized relation.
            rels.push(Cow::Borrowed(enc));
            continue;
        }
        // Repeated variables: keep rows whose repeated positions agree
        // (first occurrence is the witness), drop duplicate columns.
        let keep_positions: Vec<usize> = natom
            .terms
            .iter()
            .map(|t| atom.terms.iter().position(|x| x == t).expect("present"))
            .collect();
        let firsts: Vec<usize> = atom
            .terms
            .iter()
            .map(|t| atom.terms.iter().position(|x| x == t).expect("present"))
            .collect();
        let mut out = EncodedRelation::new(keep_positions.len());
        let mut row_buf: Vec<u32> = Vec::with_capacity(keep_positions.len());
        for row in 0..enc.len() {
            if (0..atom.terms.len()).all(|p| enc.code(row, p) == enc.code(row, firsts[p])) {
                row_buf.clear();
                row_buf.extend(keep_positions.iter().map(|&p| enc.code(row, p)));
                out.push_row(&row_buf);
            }
        }
        out.normalize();
        rels.push(Cow::Owned(out));
    }
    Ok((nq, rels))
}

/// Verify every declared FD against the encoded relations. Code
/// equality is value equality, so the check is exact.
pub(crate) fn check_fds_encoded(
    nq: &Cq,
    rels: &[EncRel<'_>],
    fds: &FdSet,
) -> Result<(), BuildError> {
    for fd in fds.iter() {
        let (ai, atom) = nq
            .atoms()
            .iter()
            .enumerate()
            .find(|(_, a)| a.relation == fd.relation)
            .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
        let lp = atom.position_of(fd.lhs).expect("FD lhs occurs in atom");
        let rp = atom.position_of(fd.rhs).expect("FD rhs occurs in atom");
        fd_table(&rels[ai], lp, rp, fd)?;
    }
    Ok(())
}

/// Replay the FD-extension steps on the encoded relations (Lemma 8.5),
/// widening atoms by their implied columns and dropping dangling rows.
/// Atoms no step touches keep their borrowed snapshot relation.
pub(crate) fn extend_instance_encoded<'a>(
    ext: &FdExtension,
    nq: &Cq,
    mut rels: Vec<EncRel<'a>>,
) -> Result<Vec<EncRel<'a>>, BuildError> {
    let index_of: HashMap<&str, usize> = nq
        .atoms()
        .iter()
        .enumerate()
        .map(|(i, a)| (a.relation.as_str(), i))
        .collect();
    // Evolving schemas, growing exactly as fd_extension grew them.
    let mut schema: Vec<Vec<VarId>> = nq.atoms().iter().map(|a| a.terms.clone()).collect();

    for step in &ext.steps {
        let ExtensionStep::ExtendAtom { atom, added, via } = step else {
            continue; // PromoteVar has no instance effect.
        };
        // The `lhs code → rhs code` map of the FD, from its relation's
        // current contents.
        let vi = *index_of
            .get(via.relation.as_str())
            .ok_or_else(|| BuildError::MissingRelation(via.relation.clone()))?;
        let vlp = schema[vi]
            .iter()
            .position(|&t| t == via.lhs)
            .expect("FD lhs in relation schema");
        let vrp = schema[vi]
            .iter()
            .position(|&t| t == via.rhs)
            .expect("FD rhs in relation schema");
        let lookup = fd_table(&rels[vi], vlp, vrp, via)?;

        let ti = *index_of
            .get(atom.as_str())
            .expect("extension step names a known atom");
        let lp = schema[ti]
            .iter()
            .position(|&t| t == via.lhs)
            .expect("target atom contains the FD's lhs");
        schema[ti].push(*added);
        let src = &rels[ti];
        let mut out = EncodedRelation::new(src.arity() + 1);
        let mut row_buf: Vec<u32> = Vec::with_capacity(src.arity() + 1);
        for row in 0..src.len() {
            if let Some(rhs) = fd_image(&lookup, src.code(row, lp)) {
                row_buf.clear();
                row_buf.extend((0..src.arity()).map(|p| src.code(row, p)));
                row_buf.push(rhs);
                out.push_row(&row_buf);
            }
            // else: dangling row, dropped.
        }
        out.normalize();
        rels[ti] = Cow::Owned(out);
    }
    debug_assert!(
        ext.query
            .atoms()
            .iter()
            .zip(&schema)
            .all(|(a, s)| &a.terms == s),
        "replayed schemas match the extended query"
    );
    Ok(rels)
}

/// For every promoted variable, the code-keyed derivation of its value
/// from an earlier variable (needed by inverted access under FDs).
pub(crate) fn build_derivations_encoded(
    ext: &FdExtension,
    rels: &[EncRel<'_>],
) -> Result<Vec<Derivation>, BuildError> {
    let mut known: VarSet = ext.original.free_set();
    let mut out = Vec::new();
    for step in &ext.steps {
        let ExtensionStep::PromoteVar { var } = step else {
            continue;
        };
        let fd = ext
            .fds
            .iter()
            .find(|fd| fd.rhs == *var && known.contains(fd.lhs))
            .expect("promoted variables are implied by an earlier free variable");
        // The FD's relation already carries both columns in the extended
        // instance (schemas only grow).
        let (ai, atom) = ext
            .query
            .atoms()
            .iter()
            .enumerate()
            .find(|(_, a)| a.relation == fd.relation)
            .ok_or_else(|| BuildError::MissingRelation(fd.relation.clone()))?;
        let lp = atom.position_of(fd.lhs).expect("lhs in atom");
        let rp = atom.position_of(fd.rhs).expect("rhs in atom");
        out.push(Derivation {
            var: *var,
            from: fd.lhs,
            table: fd_table(&rels[ai], lp, rp, fd)?,
        });
        known = known.with(*var);
    }
    Ok(out)
}

/// Result of the code-space free-connex-to-full reduction: the full
/// query `Q'` with one encoded relation per atom, positionally aligned
/// with `query.atoms()`.
pub(crate) struct EncodedReduction {
    /// The full CQ `Q'` (atoms `N0, N1, …` over exactly `free(Q)`).
    pub(crate) query: Cq,
    /// One fully reduced encoded relation per atom of `query`.
    pub(crate) rels: Vec<EncodedRelation>,
    /// `true` when the semijoin reduction already proves `Q(I) = ∅`.
    pub(crate) known_empty: bool,
}

/// Yannakakis full reducer over the GYO join tree of the acyclic `q`'s
/// own atoms (`rels` positionally per atom), copy-on-write: a semijoin
/// pass that removes nothing leaves a borrowed snapshot relation
/// untouched. Afterwards every relation is the projection of the join
/// onto its atom — all of them empty when the join is.
pub(crate) fn reduce_atoms(q: &Cq, rels: &mut [EncRel<'_>]) {
    let tree = rda_query::join_tree(&q.hypergraph()).expect("classification guarantees acyclicity");
    let atom_vars: Vec<Vec<VarId>> = q.atoms().iter().map(|a| a.terms.clone()).collect();
    tree.full_reduce(&atom_vars, rels, |target, keys, source, source_keys| {
        // Copy-on-write: a borrowed relation is cloned only when the
        // semijoin actually removes rows.
        if let Some(keep) = target.semijoin_plan(keys, source, source_keys) {
            target.to_mut().retain_rows(&keep);
        }
    });
}

/// Proposition 2.3 / Lemma 3.10 in code space: reduce a free-connex `q`
/// (with encoded relations `rels`, positionally per atom) to a full
/// acyclic query over `free(q)` with the same answers. Returns `None` if
/// `q` is not free-connex.
/// One full reducer runs, over `q`'s own join tree; each marked ext-tree
/// node is then the projection of its reduced source atom — what
/// reducing the whole ext tree (projections of atoms) would give.
pub(crate) fn reduce_to_full_encoded(
    q: &Cq,
    mut rels: Vec<EncRel<'_>>,
) -> Option<EncodedReduction> {
    let ext: ExtConnexTree = ext_connex_tree(&q.hypergraph(), q.free_set())?;
    reduce_atoms(q, &mut rels);
    // Emptiness propagates through the full reducer.
    let known_empty = rels.iter().any(|r| r.is_empty());

    // Q' := the marked subtree's non-empty-variable nodes, each the
    // projection (sorted, deduplicated) of its reduced source atom.
    let mut atoms = Vec::new();
    let mut out_rels = Vec::new();
    for &i in &ext.marked {
        let vars: Vec<VarId> = ext.tree.node(i).vars.iter().collect();
        if vars.is_empty() {
            continue;
        }
        let src = ext.source_atom(i);
        out_rels.push(rels[src].project(&positions_of(&q.atoms()[src].terms, &vars)));
        atoms.push(Atom {
            relation: format!("N{i}"),
            terms: vars,
        });
    }
    Some(EncodedReduction {
        query: q.rebuilt(q.free().to_vec(), atoms),
        rels: out_rels,
        known_empty,
    })
}

/// The id of a probe row whose join key no build row carries.
const NO_KEY: u32 = u32::MAX;

/// Dense ids for the join keys of two relations: a row of `probe` and a
/// row of `build` get the same id exactly when they agree on the key
/// columns, and every id of `build` is below `len` — so anything keyed
/// by the join key is a flat table, whatever the key's width. A probe
/// row without a partner gets an id no build row has.
pub(crate) struct KeyIds<'a> {
    pub(crate) probe: Cow<'a, [u32]>,
    pub(crate) build: Cow<'a, [u32]>,
    pub(crate) len: usize,
}

/// [`KeyIds`] of `probe` and `build` over their key columns. A
/// one-column key is its own id (codes are dense dictionary ranks, so
/// `len` stays below the dictionary's length) and nothing is copied;
/// every further column is folded in by ranking `build`'s
/// `(id so far, code)` words — one sort of `u64`s per extra column,
/// whatever the width.
pub(crate) fn key_ids<'a>(
    probe: &'a EncodedRelation,
    probe_keys: &[usize],
    build: &'a EncodedRelation,
    build_keys: &[usize],
) -> KeyIds<'a> {
    let (Some((&p0, p_rest)), Some((&b0, b_rest))) =
        (probe_keys.split_first(), build_keys.split_first())
    else {
        // The empty key of a cross product: every row agrees.
        return KeyIds {
            probe: vec![0; probe.len()].into(),
            build: vec![0; build.len()].into(),
            len: 1,
        };
    };
    let mut ids = KeyIds {
        probe: Cow::Borrowed(probe.col(p0)),
        build: Cow::Borrowed(build.col(b0)),
        len: dense_len(build.col(b0)),
    };
    let word = |(&id, &code): (&u32, &u32)| u64::from(id) << 32 | u64::from(code);
    for (&p, &b) in p_rest.iter().zip(b_rest) {
        let words: Vec<u64> = ids.build.iter().zip(build.col(b)).map(word).collect();
        let mut distinct = words.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let rank = |w: u64| distinct.binary_search(&w).map_or(NO_KEY, |i| i as u32);
        ids = KeyIds {
            probe: ids
                .probe
                .iter()
                .zip(probe.col(p))
                .map(word)
                .map(rank)
                .collect(),
            build: words.iter().copied().map(rank).collect(),
            len: distinct.len(),
        };
    }
    ids
}

/// The instance prelude every build runs first: gate on the dichotomy
/// for `problem`, then normalize, check the FDs, and extend query and
/// instance by them — all in the snapshot's code space. Returns the
/// FD-extension (its `original` is the normalized query) and the
/// extended instance, positionally per atom of its `query`.
pub(crate) fn prepare_instance<'a>(
    q: &Cq,
    snap: &'a Snapshot,
    fds: &FdSet,
    problem: &Problem,
) -> Result<(FdExtension, Vec<EncRel<'a>>), BuildError> {
    if !fds.is_empty() && !q.is_self_join_free() {
        return Err(BuildError::InvalidOrder(
            "functional dependencies require a self-join-free query".to_string(),
        ));
    }
    match classify(q, fds, problem) {
        Verdict::Tractable { .. } => {}
        v => return Err(BuildError::NotTractable(v)),
    }
    let (nq, rels) = normalize_encoded(q, snap)?;
    check_fds_encoded(&nq, &rels, fds)?;
    let ext = fd_extension(&nq, fds);
    let rels = extend_instance_encoded(&ext, &nq, rels)?;
    Ok((ext, rels))
}

/// The preparation both selection algorithms share, none of it
/// depending on the rank asked for: [`prepare_instance`], then reduce
/// to a full acyclic query. Returns the FD-extension, the reduction,
/// and the `prep`/`reduce` phase times.
pub(crate) fn prepare_reduced(
    q: &Cq,
    snap: &Snapshot,
    fds: &FdSet,
    problem: &Problem,
) -> Result<(FdExtension, EncodedReduction, BuildCost), BuildError> {
    let mut clock = PhaseClock::start();
    let (ext, rels) = prepare_instance(q, snap, fds, problem)?;
    let mut cost = BuildCost {
        prep_ns: clock.lap(),
        ..BuildCost::default()
    };
    let red = reduce_to_full_encoded(&ext.query, rels)
        .expect("classification guarantees the extension is free-connex");
    cost.reduce_ns = clock.lap();
    Ok((ext, red, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::{tup, Database, Tuple};
    use rda_query::parser::parse;

    fn decoded(rel: &EncodedRelation, snap: &Snapshot) -> Vec<Tuple> {
        (0..rel.len())
            .map(|r| rel.decode_row(r, snap.dict()))
            .collect()
    }

    #[test]
    fn normalize_shares_self_join_relations() {
        let q = parse("Q(x, y, z) :- R(x, y), R(y, z)").unwrap();
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3]])
            .freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        assert!(nq.is_self_join_free());
        assert!(matches!(rels[0], Cow::Borrowed(_)));
        assert!(matches!(rels[1], Cow::Borrowed(_)));
        assert!(std::ptr::eq(rels[0].as_ref(), rels[1].as_ref()));
    }

    #[test]
    fn normalize_resolves_repeated_variables_in_code_space() {
        let q = parse("Q(x) :- R(x, x)").unwrap();
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 1], vec![1, 2], vec![3, 3]])
            .freeze();
        let (_, rels) = normalize_encoded(&q, &snap).unwrap();
        assert_eq!(decoded(&rels[0], &snap), vec![tup![1], tup![3]]);
    }

    #[test]
    fn normalize_validates_missing_and_arity() {
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2]])
            .freeze();
        let q = parse("Q(x) :- T(x)").unwrap();
        assert!(matches!(
            normalize_encoded(&q, &snap),
            Err(BuildError::MissingRelation(r)) if r == "T"
        ));
        let q = parse("Q(x) :- R(x)").unwrap();
        assert!(matches!(
            normalize_encoded(&q, &snap),
            Err(BuildError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn fd_check_and_extension_match_value_level() {
        // Example 8.3: Q(x,z) :- R(x,y), S(y,z) with S: y → z.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20], vec![3, 99]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![20, 8]])
            .freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        check_fds_encoded(&nq, &rels, &fds).unwrap();
        let ext = fd_extension(&nq, &fds);
        let rels = extend_instance_encoded(&ext, &nq, rels).unwrap();
        // R gains a z column; (3, 99) is dangling and dropped.
        assert_eq!(rels[0].arity(), 3);
        assert_eq!(
            decoded(&rels[0], &snap),
            vec![tup![1, 10, 7], tup![2, 20, 8]]
        );
        // S was not extended: still the borrowed snapshot relation.
        assert!(matches!(rels[1], Cow::Borrowed(_)));
        // No variable was promoted here (z was already free).
        assert!(build_derivations_encoded(&ext, &rels).unwrap().is_empty());
    }

    #[test]
    fn promoted_variables_get_code_keyed_derivations() {
        // Q(x, z) :- R(x, y), S(y, z) with R: x → y promotes y into
        // free(Q⁺); inverted access must derive y's code from x's.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![20, 8]])
            .freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        check_fds_encoded(&nq, &rels, &fds).unwrap();
        let ext = fd_extension(&nq, &fds);
        let rels = extend_instance_encoded(&ext, &nq, rels).unwrap();
        let ders = build_derivations_encoded(&ext, &rels).unwrap();
        let y = q.var("y").unwrap();
        let d = ders.iter().find(|d| d.var == y).expect("y is promoted");
        assert_eq!(d.from, q.var("x").unwrap());
        let dict = snap.dict();
        let (c1, c10) = (
            dict.code(&1.into()).unwrap(),
            dict.code(&10.into()).unwrap(),
        );
        assert_eq!(d.image(c1), Some(c10));
        assert_eq!(d.image(c10), None, "10 is no determinant");
        assert_eq!(d.image(u32::MAX - 1), None, "beyond the table");
    }

    #[test]
    fn fd_violation_detected_in_code_space() {
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![10, 8]])
            .freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        assert!(matches!(
            check_fds_encoded(&nq, &rels, &fds),
            Err(BuildError::FdViolated(_))
        ));
    }

    /// The code-space reduction (one full reducer over the atoms' own
    /// join tree) against the value-level oracle (the whole ext-connex
    /// tree reduced), row for row and on `known_empty`, across shapes.
    #[test]
    fn reduction_matches_value_level_reduction() {
        let rel = |db: Database, name: &str, rows: &[[i64; 2]]| {
            db.with_i64_rows(name, 2, rows.iter().map(|r| r.to_vec()).collect::<Vec<_>>())
        };
        let fig2 = || {
            let db = rel(Database::new(), "R", &[[1, 5], [1, 2], [6, 2], [9, 9]]);
            rel(db, "S", &[[5, 3], [5, 4], [5, 6], [2, 5]])
        };
        let star = rel(Database::new(), "R", &[[1, 10], [2, 20], [3, 30]]);
        let star = rel(star, "S", &[[1, 11], [2, 21], [4, 41]]);
        let star = rel(star, "T", &[[1, 12], [2, 22], [3, 32], [5, 51]]);
        let fd_path = rel(Database::new(), "R", &[[1, 10], [2, 20], [3, 99]]);
        let fd_path = rel(fd_path, "S", &[[10, 7], [20, 8]]);
        let repeated = rel(Database::new(), "R", &[[1, 1], [2, 2], [2, 3], [5, 5]]);
        let repeated = rel(repeated, "S", &[[1, 4], [2, 6], [9, 9]]);
        let dangling = rel(Database::new(), "R", &[[1, 100], [2, 200]]);
        let dangling = rel(dangling, "S", &[[5, 3], [6, 4]]);
        type Case<'a> = (&'a str, &'a [(&'a str, &'a str, &'a str)], Database, bool);
        let cases: Vec<Case> = vec![
            ("Q(x, y, z) :- R(x, y), S(y, z)", &[], fig2(), false),
            ("Q(a, b) :- R(a, b), S(b, c)", &[], fig2(), false),
            (
                "Q(x, y, z) :- R(x, y), S(y, w), T(z)",
                &[],
                fig2().with_i64_rows("T", 1, vec![vec![7], vec![8]]),
                false,
            ),
            (
                "Q(x, z) :- R(x, y), S(y, z)",
                &[("S", "y", "z")],
                fd_path,
                false,
            ),
            ("Q(x, y, z) :- R(x, y), R(y, z)", &[], fig2(), false),
            ("Q(x, y) :- R(x, x), S(x, y)", &[], repeated, false),
            (
                "Q(c, a, b, d) :- R(c, a), S(c, b), T(c, d)",
                &[],
                star,
                false,
            ),
            ("Q(x, y, z) :- R(x, y), S(y, z)", &[], dangling, true),
            ("Q() :- R(x, y), S(y, z)", &[], fig2(), false),
        ];
        for (text, fd_list, db, empty) in cases {
            let q = parse(text).unwrap();
            let fds = FdSet::parse(&q, fd_list);
            let snap = db.clone().freeze();
            let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
            check_fds_encoded(&nq, &rels, &fds).unwrap();
            let ext = fd_extension(&nq, &fds);
            let rels = extend_instance_encoded(&ext, &nq, rels).unwrap();
            let red = reduce_to_full_encoded(&ext.query, rels).unwrap();

            let (vq, vdb) = rda_baseline::normalize_instance(&q, &db);
            let vext = fd_extension(&vq, &fds);
            let vdb = rda_baseline::extend_instance(&vext, &vdb);
            let vred = rda_baseline::reduce_to_full(&vext.query, &vdb).unwrap();

            assert_eq!(red.known_empty, empty, "{text}");
            assert_eq!(vred.known_empty, empty, "{text}");
            assert!(red.query.is_full(), "{text}");
            assert_eq!(red.query.atoms(), vred.query.atoms(), "{text}");
            for (atom, enc) in red.query.atoms().iter().zip(&red.rels) {
                let mut expect: Vec<Tuple> = vred.db.get(&atom.relation).unwrap().tuples().to_vec();
                expect.sort();
                assert_eq!(
                    decoded(enc, &snap),
                    expect,
                    "{text}: atom {}",
                    atom.relation
                );
            }
        }
    }

    /// Join-key ids against their definition, for every key width from
    /// the empty key to six columns: equal ids iff equal keys, build
    /// ids below `len`, and a probe row without a partner matches none.
    #[test]
    fn key_ids_are_equal_exactly_on_equal_keys() {
        let rows = |seed: u32, n: u32| {
            let mut rel = EncodedRelation::new(6);
            for i in 0..n {
                let x = i.wrapping_mul(2654435761).wrapping_add(seed);
                // The last column reaches 9 on the probe side only.
                let last = if seed == 1 { x % 10 } else { x % 3 };
                rel.push_row(&[x % 3, (x >> 3) % 2, 7, (x >> 5) % 3, (x >> 7) % 2, last]);
            }
            rel
        };
        let (probe, build) = (rows(1, 40), rows(2, 25));
        for width in 0..=6 {
            let keys: Vec<usize> = (6 - width..6).collect();
            let ids = key_ids(&probe, &keys, &build, &keys);
            let key = |rel: &EncodedRelation, r: usize| -> Vec<u32> {
                keys.iter().map(|&p| rel.code(r, p)).collect()
            };
            assert!(ids.build.iter().all(|&id| (id as usize) < ids.len));
            for (r, &id) in ids.probe.iter().enumerate() {
                for (s, &other) in ids.build.iter().enumerate() {
                    let same = key(&probe, r) == key(&build, s);
                    assert_eq!(id == other, same, "width {width} rows {r}/{s}");
                }
            }
            for (r, &id) in ids.build.iter().enumerate() {
                for (s, &other) in ids.build.iter().enumerate() {
                    assert_eq!(id == other, key(&build, r) == key(&build, s));
                }
            }
        }
    }

    #[test]
    fn reduction_detects_emptiness_and_non_free_connex() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let snap = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 100]])
            .with_i64_rows("S", 2, vec![vec![5, 3]])
            .freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        assert!(reduce_to_full_encoded(&nq, rels).unwrap().known_empty);

        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        assert!(reduce_to_full_encoded(&nq, rels).is_none());
    }
}
