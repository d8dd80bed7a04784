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

use crate::budget::{BudgetMeter, BuildCost, PhaseClock};
use crate::error::BuildError;
use rda_db::{radix_sort_rows, EncodedRelation, Snapshot};
use rda_query::classify::{classify, Problem, Verdict};
use rda_query::{
    ext_connex_tree, fd_extension, positions_of, shared_positions, Atom, Cq, ExtConnexTree,
    ExtensionStep, Fd, FdExtension, FdSet, VarId, VarSet,
};
use std::borrow::Cow;
use std::collections::HashMap;

/// A normalized atom's relation: borrowed from the snapshot when
/// normalization is the identity for it, owned when filtering or
/// extension produced new rows.
pub(crate) type EncRel<'a> = Cow<'a, EncodedRelation>;

/// Marks, in a dense FD table, a determinant code no row carries.
const NONE: u32 = u32::MAX;

/// The length of a dense table indexed by the codes of `codes`: one
/// past the largest. Codes are dictionary ranks, so this stays at or
/// below the dictionary's length.
pub(crate) fn dense_len(codes: &[u32]) -> usize {
    codes.iter().max().map_or(0, |&m| m as usize + 1)
}

/// The FD `lhs → rhs` of `rel` (columns `lp`, `rp`) as a dense
/// code-indexed table of rows: `table[code(u)]` is the first row whose
/// determinant is `u`, [`NONE`] for a code no row carries. Codes are
/// dense dictionary ranks, so the table is no longer than the
/// dictionary and a lookup is one array read. Fails with
/// [`BuildError::FdViolated`] when two rows disagree on a determinant's
/// image.
fn fd_table(rel: &EncodedRelation, lp: usize, rp: usize, fd: &Fd) -> Result<Vec<u32>, BuildError> {
    let (lhs, rhs) = (rel.col(lp), rel.col(rp));
    let mut table = vec![NONE; dense_len(lhs)];
    for (r, (&u, &v)) in (0u32..).zip(lhs.iter().zip(rhs)) {
        let slot = &mut table[u as usize];
        if *slot == NONE {
            *slot = r;
        } else if rhs[*slot as usize] != v {
            return Err(BuildError::FdViolated(fd.clone()));
        }
    }
    Ok(table)
}

/// The entry for code `u` of a dense table of [`fd_table`] or of a
/// [`Derivation`], `None` where no row carries it.
fn fd_entry(table: &[u32], u: u32) -> Option<u32> {
    table.get(u as usize).copied().filter(|&v| v != NONE)
}

/// Whether `rel`'s rows ascend strictly over all its columns.
fn is_normalized(rel: &EncodedRelation) -> bool {
    let all: Vec<usize> = (0..rel.arity()).collect();
    (1..rel.len()).all(|r| rel.cmp_rows_on(r - 1, r, &all).is_lt())
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
        fd_entry(&self.table, from_code)
    }
}

/// Normalize in code space: validate the query against the snapshot
/// ([`BuildError::MissingRelation`], [`BuildError::ArityMismatch`]) and
/// produce, per atom of [`Cq::normalized`], its encoded relation.
/// Self-join occurrences *borrow the same snapshot relation*. An atom
/// with repeated variables keeps the rows that agree with each
/// variable's first occurrence, gathered onto the first occurrences:
/// [`Cq::normalized`] keeps those in order, so the kept rows stay
/// distinct and ascending, unsorted.
pub(crate) fn normalize_encoded<'a>(
    q: &Cq,
    snap: &'a Snapshot,
) -> Result<(Cq, Vec<EncRel<'a>>), BuildError> {
    let nq = q.normalized();
    let mut rels: Vec<EncRel<'a>> = Vec::with_capacity(q.atoms().len());
    for (atom, natom) in q.atoms().iter().zip(nq.atoms()) {
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
        if natom.terms.len() == atom.terms.len() {
            // No repeated variables; the snapshot's normalized encoding
            // is exactly the normalized relation.
            rels.push(Cow::Borrowed(enc));
            continue;
        }
        let firsts = positions_of(&atom.terms, &atom.terms);
        let repeats: Vec<(&[u32], &[u32])> = (0..firsts.len())
            .filter(|&p| firsts[p] != p)
            .map(|p| (enc.col(p), enc.col(firsts[p])))
            .collect();
        let keep: Vec<u32> = (0..enc.len() as u32)
            .filter(|&r| repeats.iter().all(|(c, f)| c[r as usize] == f[r as usize]))
            .collect();
        let onto = (0..firsts.len()).filter(|&p| firsts[p] == p);
        let out = enc.gather(&keep, onto);
        debug_assert!(is_normalized(&out), "kept rows on first occurrences ascend");
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

/// Replay the FD-extension steps on the encoded relations (Lemma 8.5).
/// A step keeps the rows whose determinant the FD's relation (`via`, as
/// it stands at that step) carries, each gathered beside the `via` row
/// [`fd_table`] names, read at the implied column; a dangling row is
/// dropped. Distinct ascending rows widened by a column stay so,
/// unsorted. Atoms no step touches keep their borrowed relation.
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
        // The `lhs code → row` table of the FD, from its relation's
        // current contents.
        let vi = *index_of
            .get(via.relation.as_str())
            .ok_or_else(|| BuildError::MissingRelation(via.relation.clone()))?;
        let vp = positions_of(&schema[vi], &[via.lhs, via.rhs]);
        let lookup = fd_table(&rels[vi], vp[0], vp[1], via)?;

        let ti = *index_of
            .get(atom.as_str())
            .expect("extension step names a known atom");
        let lp = positions_of(&schema[ti], &[via.lhs])[0];
        schema[ti].push(*added);
        let src = &rels[ti];
        let (keep, partners): (Vec<u32>, Vec<u32>) = (0u32..)
            .zip(src.col(lp))
            .filter_map(|(r, &u)| Some((r, fd_entry(&lookup, u)?)))
            .unzip();
        let out = src
            .gather(&keep, 0..src.arity())
            .beside(rels[vi].gather(&partners, [vp[1]]));
        debug_assert!(
            is_normalized(&out),
            "a column added to distinct ascending rows"
        );
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
        // Each determinant's row, read at `rhs` (`NONE` is past them all).
        let rows = fd_table(&rels[ai], lp, rp, fd)?.into_iter();
        let rhs = rels[ai].col(rp);
        let table = rows.map(|r| rhs.get(r as usize).map_or(NONE, |&v| v));
        out.push(Derivation {
            var: *var,
            from: fd.lhs,
            table: table.collect(),
        });
        known = known.with(*var);
    }
    Ok(out)
}

/// Result of the code-space free-connex-to-full reduction: the full
/// query `Q'` with one encoded relation per atom, positionally aligned
/// with `query.atoms()`.
pub(crate) struct EncodedReduction<'a> {
    /// The full CQ `Q'` (atoms `N0, N1, …` over exactly `free(Q)`).
    pub(crate) query: Cq,
    /// One fully reduced encoded relation per atom of `query`: still
    /// the snapshot's own when neither the reducer nor a projection
    /// changed it.
    pub(crate) rels: Vec<EncRel<'a>>,
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

/// The join of every atom of the normalized `nq` (`rels` as
/// [`normalize_encoded`] returns them) and the variables naming its
/// columns: the materialized fallback's input, cyclic queries included.
/// An acyclic query is fully reduced, then joined along its join tree;
/// a cyclic one joins in atom order, from the first atom's relation.
/// Each step matches rows through [`rda_db::key_ids`] into (probe row,
/// partner row) lists, charging its output to `meter` before they are
/// allocated, and gathers both sides.
pub(crate) fn join_atoms(
    nq: &Cq,
    mut rels: Vec<EncRel<'_>>,
    meter: &mut BudgetMeter,
) -> Result<(Vec<VarId>, EncodedRelation), BuildError> {
    let order: Vec<usize> = match rda_query::join_tree(&nq.hypergraph()) {
        Some(tree) => {
            reduce_atoms(nq, &mut rels);
            tree.rooted_at(0).1
        }
        None => (0..rels.len()).collect(),
    };
    let (&first, rest) = order.split_first().expect("a query has an atom");
    let mut vars: Vec<VarId> = nq.atoms()[first].terms.clone();
    let rows = rels[first].len() as u64;
    meter.charge(rows * 4 * vars.len() as u64, rows)?;
    let mut acc =
        std::mem::replace(&mut rels[first], Cow::Owned(EncodedRelation::new(0))).into_owned();
    for &i in rest {
        let (terms, rel) = (&nq.atoms()[i].terms, &*rels[i]);
        let (acc_keys, keys) = shared_positions(&vars, terms);
        let fresh: Vec<usize> = (0..terms.len()).filter(|p| !keys.contains(p)).collect();
        let ids = rda_db::key_ids(&acc, &acc_keys, rel, &keys);
        // The atom's rows grouped by key id: id `k`'s rows are
        // `by_id[start[k]..start[k + 1]]`.
        let mut by_id: Vec<u32> = (0..rel.len() as u32).collect();
        radix_sort_rows(&mut by_id, |s| u64::from(ids.build[s as usize]));
        let start: Vec<u32> = (0..=ids.len as u32)
            .map(|k| by_id.partition_point(|&s| ids.build[s as usize] < k) as u32)
            .collect();
        let partners = |id: u32| match start.get(id as usize + 1) {
            Some(&hi) => &by_id[start[id as usize] as usize..hi as usize],
            None => &[],
        };
        let rows: u64 = ids.probe.iter().map(|&id| partners(id).len() as u64).sum();
        let arity = vars.len() + fresh.len();
        meter.charge(rows * 4 * arity as u64, rows)?;
        let mut left = Vec::with_capacity(rows as usize);
        let mut right = Vec::with_capacity(rows as usize);
        for (r, &id) in (0u32..).zip(ids.probe.iter()) {
            for &s in partners(id) {
                left.push(r);
                right.push(s);
            }
        }
        acc = acc
            .gather(&left, 0..vars.len())
            .beside(rel.gather(&right, fresh.iter().copied()));
        vars.extend(fresh.iter().map(|&p| terms[p]));
    }
    Ok((vars, acc))
}

/// π onto `positions` of `rel`, a normalized relation:
/// [`EncodedRelation::project`], unless they are all its columns in
/// storage order. Then it is `rel` itself: a borrowed relation stays
/// borrowed, mapped columns included, and an owned one is moved out
/// when `last` (no later projection reads `rel`; an empty relation is
/// left in its place), copied otherwise.
pub(crate) fn project_view<'a>(
    rel: &mut EncRel<'a>,
    positions: &[usize],
    last: bool,
) -> EncRel<'a> {
    if !positions.iter().copied().eq(0..rel.arity()) {
        return Cow::Owned(rel.project(positions));
    }
    debug_assert!(is_normalized(rel), "a projected relation is normalized");
    match last {
        true => std::mem::replace(rel, Cow::Owned(EncodedRelation::new(0))),
        false => rel.clone(),
    }
}

/// Proposition 2.3 / Lemma 3.10 in code space: reduce a free-connex `q`
/// (with encoded relations `rels`, positionally per atom) to a full
/// acyclic query over `free(q)` with the same answers. Returns `None` if
/// `q` is not free-connex.
/// One full reducer runs, over `q`'s own join tree; each marked ext-tree
/// node is then the projection of its reduced source atom — what
/// reducing the whole ext tree (projections of atoms) would give — and
/// a node that is all of its atom is that atom's relation.
pub(crate) fn reduce_to_full_encoded<'a>(
    q: &Cq,
    mut rels: Vec<EncRel<'a>>,
) -> Option<EncodedReduction<'a>> {
    let ext: ExtConnexTree = ext_connex_tree(&q.hypergraph(), q.free_set())?;
    reduce_atoms(q, &mut rels);
    // Emptiness propagates through the full reducer.
    let known_empty = rels.iter().any(|r| r.is_empty());

    // Q' := the marked subtree's non-empty-variable nodes, each the
    // projection (sorted, deduplicated) of its reduced source atom.
    let mut atoms = Vec::new();
    let mut out_rels = Vec::new();
    for (k, &i) in ext.marked.iter().enumerate() {
        let vars: Vec<VarId> = ext.tree.node(i).vars.iter().collect();
        if vars.is_empty() {
            continue;
        }
        let src = ext.source_atom(i);
        // The atom's last node takes it whole rather than a copy.
        let last = ext.marked[k + 1..]
            .iter()
            .all(|&j| ext.source_atom(j) != src);
        let positions = positions_of(&q.atoms()[src].terms, &vars);
        out_rels.push(project_view(&mut rels[src], &positions, last));
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

/// The checks on the query alone, which every build and the engine's
/// routing run before anything classifies it. A query with no atoms is
/// refused ([`BuildError::NoAtoms`]), as the parser refuses an empty
/// body. FD reasoning (and so [`classify`] under FDs) assumes distinct
/// relation symbols, and an FD's variables in its relation's atom: a
/// self-join query with a non-empty `fds`, or an FD naming a variable
/// its atom lacks, is refused too.
pub(crate) fn check_query(q: &Cq, fds: &FdSet) -> Result<(), BuildError> {
    if q.atoms().is_empty() {
        return Err(BuildError::NoAtoms);
    }
    if !fds.is_empty() && !q.is_self_join_free() {
        return Err(BuildError::InvalidOrder(
            "functional dependencies require a self-join-free query".to_string(),
        ));
    }
    for fd in fds.iter() {
        let atom = q.atoms().iter().find(|a| a.relation == fd.relation);
        if atom.is_some_and(|a| !a.var_set().contains(fd.lhs) || !a.var_set().contains(fd.rhs)) {
            return Err(BuildError::InvalidOrder(format!(
                "FD {fd} names a variable its atom does not contain"
            )));
        }
    }
    Ok(())
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
    check_query(q, fds)?;
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
pub(crate) fn prepare_reduced<'a>(
    q: &Cq,
    snap: &'a Snapshot,
    fds: &FdSet,
    problem: &Problem,
) -> Result<(FdExtension, EncodedReduction<'a>, BuildCost), BuildError> {
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
    use rand::rngs::StdRng;
    use rand::Rng;
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

    /// Random rows: `n` of them, `arity` wide, each value below `dom`.
    fn random_rows(rng: &mut StdRng, arity: usize, n: usize, dom: i64) -> Vec<Vec<i64>> {
        (0..n)
            .map(|_| (0..arity).map(|_| rng.random_range(0..dom)).collect())
            .collect()
    }

    /// A random relation satisfying the FD `0 → 1`: most values below
    /// `dom` get one image, the rest none (their rows dangle).
    fn random_fd_rows(rng: &mut StdRng, dom: i64) -> Vec<Vec<i64>> {
        (0..dom)
            .filter_map(|u| {
                let image = rng.random_range(0..dom);
                (rng.random_range(0..4) > 0).then(|| vec![u, image])
            })
            .collect()
    }

    /// The prelude's relations before reduction — normalized and
    /// FD-extended in code space — against `rda_baseline`'s value-level
    /// `normalize_instance` / `extend_instance`, atom by atom and row by
    /// row (so also ascending and distinct), on random instances: a
    /// repeated variable at each position and twice, dangling rows, and
    /// an FD chain whose `via` relation an earlier step already
    /// extended. An FD violation fails typed in code space, on the
    /// check and on the extension, where the value level panics.
    /// `join_atoms` is checked against the value-level join of an
    /// acyclic query, a self-join and a triangle.
    #[test]
    fn prelude_and_join_match_value_level() {
        use rand::SeedableRng;

        type Case<'a> = (&'a str, &'a [(&'a str, &'a str, &'a str)]);
        let prelude: [Case; 7] = [
            ("Q(x, y) :- R(x, x, y)", &[]),
            ("Q(x, y) :- R(y, x, x)", &[]),
            ("Q(x, y) :- R(x, y, x)", &[]),
            ("Q(x) :- R(x, x, x)", &[]),
            ("Q(x, y, z) :- R(x, y, x), S(y, z)", &[]),
            ("Q(x, z) :- R(x, y), S(y, z)", &[("S", "y", "z")]),
            // T's FD comes first: S is extended by w through T, then R
            // by z through the already extended (and filtered) S.
            (
                "Q(x, w) :- R(x, y), S(y, z), T(z, w)",
                &[("T", "z", "w"), ("S", "y", "z")],
            ),
        ];
        let joins = [
            "Q(x, y, z, w) :- R(x, y), S(y, z), T(z, w)",
            "Q(x, y, z) :- R(x, y), R(y, z)",
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
        ];
        let mut chained = false;
        for seed in 0..24 {
            let mut rng = StdRng::seed_from_u64(seed);
            let dom = 3 + seed as i64 % 4;
            let (r3, r2) = (
                random_rows(&mut rng, 3, 24, dom),
                random_rows(&mut rng, 2, 12, dom),
            );
            let (s, t) = (random_fd_rows(&mut rng, dom), random_fd_rows(&mut rng, dom));
            let db = |r: &Vec<Vec<i64>>| {
                Database::new()
                    .with_i64_rows("R", r[0].len(), r.clone())
                    .with_i64_rows("S", 2, s.clone())
                    .with_i64_rows("T", 2, t.clone())
            };
            for (text, fd_list) in prelude {
                let q = parse(text).unwrap();
                let db = db(if q.atoms()[0].terms.len() == 3 {
                    &r3
                } else {
                    &r2
                });
                let snap = db.clone().freeze();
                let fds = FdSet::parse(&q, fd_list);
                let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
                check_fds_encoded(&nq, &rels, &fds).unwrap();
                let ext = fd_extension(&nq, &fds);
                let rels = extend_instance_encoded(&ext, &nq, rels).unwrap();

                let (vq, vdb) = rda_baseline::normalize_instance(&q, &db);
                assert_eq!(vq.atoms(), nq.atoms(), "{text}");
                let vdb = rda_baseline::extend_instance(&fd_extension(&vq, &fds), &vdb);
                for (atom, enc) in ext.query.atoms().iter().zip(&rels) {
                    let mut expect = vdb.get(&atom.relation).unwrap().tuples().to_vec();
                    expect.sort();
                    assert_eq!(enc.arity(), atom.terms.len(), "{text}, seed {seed}");
                    assert_eq!(
                        decoded(enc, &snap),
                        expect,
                        "{text}, seed {seed}: atom {}",
                        atom.relation
                    );
                }
                let mut extended = Vec::new();
                for step in &ext.steps {
                    if let ExtensionStep::ExtendAtom { atom, via, .. } = step {
                        chained |= extended.contains(&&via.relation);
                        extended.push(atom);
                    }
                }
            }

            for text in joins {
                let q = parse(text).unwrap();
                let db = db(&r2);
                let snap = db.clone().freeze();
                let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
                let mut meter = crate::BuildBudget::UNLIMITED.meter();
                let (vars, joined) = join_atoms(&nq, rels, &mut meter).unwrap();
                let head = positions_of(&vars, q.free());
                let mut got: Vec<Tuple> = decoded(&joined, &snap)
                    .iter()
                    .map(|t| t.project(&head))
                    .collect();
                got.sort();
                let mut expect = rda_baseline::all_answers(&q, &db);
                expect.sort();
                assert_eq!(got, expect, "{text}, seed {seed}");
            }
        }
        assert!(
            chained,
            "some FD step reads a relation an earlier one extended"
        );

        // S violates y → z: both code-space steps refuse it, typed.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![10, 8], vec![20, 9]]);
        let snap = db.clone().freeze();
        let (nq, rels) = normalize_encoded(&q, &snap).unwrap();
        assert!(matches!(
            check_fds_encoded(&nq, &rels, &fds),
            Err(BuildError::FdViolated(_))
        ));
        let ext = fd_extension(&nq, &fds);
        assert!(matches!(
            extend_instance_encoded(&ext, &nq, rels),
            Err(BuildError::FdViolated(_))
        ));
        let (vq, vdb) = rda_baseline::normalize_instance(&q, &db);
        let vext = fd_extension(&vq, &fds);
        let value_level = std::panic::catch_unwind(|| rda_baseline::extend_instance(&vext, &vdb));
        assert!(
            value_level.is_err(),
            "the value level panics on a violation"
        );
    }

    /// Join-key ids, as the join kernels here consume them, against
    /// their definition for every key width from the empty key to six
    /// columns: equal ids iff equal keys, build ids below `len`, and a
    /// probe row without a partner matches none.
    #[test]
    fn key_ids_are_equal_exactly_on_equal_keys() {
        let rows = |seed: u32, n: u32| -> Vec<Vec<i64>> {
            (0..n)
                .map(|i| {
                    let x = i.wrapping_mul(2654435761).wrapping_add(seed);
                    // The last column reaches 9 on the probe side only.
                    let last = if seed == 1 { x % 10 } else { x % 3 };
                    [x % 3, (x >> 3) % 2, 7, (x >> 5) % 3, (x >> 7) % 2, last]
                        .map(i64::from)
                        .to_vec()
                })
                .collect()
        };
        let snap = Database::new()
            .with_i64_rows("P", 6, rows(1, 40))
            .with_i64_rows("B", 6, rows(2, 25))
            .freeze();
        let (probe, build) = (snap.encoded("P").unwrap(), snap.encoded("B").unwrap());
        for width in 0..=6 {
            let keys: Vec<usize> = (6 - width..6).collect();
            let ids = rda_db::key_ids(probe, &keys, build, &keys);
            let key = |rel: &EncodedRelation, r: usize| -> Vec<u32> {
                keys.iter().map(|&p| rel.code(r, p)).collect()
            };
            assert!(ids.build.iter().all(|&id| (id as usize) < ids.len));
            for (r, &id) in ids.probe.iter().enumerate() {
                for (s, &other) in ids.build.iter().enumerate() {
                    let same = key(probe, r) == key(build, s);
                    assert_eq!(id == other, same, "width {width} rows {r}/{s}");
                }
            }
            for (r, &id) in ids.build.iter().enumerate() {
                for (s, &other) in ids.build.iter().enumerate() {
                    assert_eq!(id == other, key(build, r) == key(build, s));
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
