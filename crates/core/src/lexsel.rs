//! Selection by lexicographic orders (Section 6, Theorems 6.1/8.22).
//!
//! Tractable for *every* free-connex CQ — disruptive trios and
//! L-connexity do not matter when only one access is needed. The
//! algorithm (Lemma 6.6) assigns the order's variables one at a time:
//! it counts, for each value of the next variable, how many answers
//! agree with the assignment so far (Lemma 6.5's histogram, a counting
//! DP over a join tree), picks the value holding rank `k`, filters the
//! relations, and recurses. Each round is O(n) and there are constantly
//! many rounds, giving the paper's ⟨1, n⟩.
//!
//! Everything runs on the snapshot's dictionary-encoded relations.
//! [`SelectionLexHandle::new`] does what does not depend on `k` once —
//! validation, classification, FD check and extension, the reduction to
//! a full query ([`crate::snapprep`]), the join tree, one counting pass
//! for the answer count — and a selection
//! ([`SelectionLexHandle::select_once`]) is only the rounds. The handle
//! is the engine's `SelectionLex` backend, and implements
//! [`DirectAccess`] here.
//! Codes are dense order-preserving ranks, so a histogram is a dense
//! `code → count` table that comes out already in value order: the
//! value holding rank `k` is one prefix scan, no weighted selection and
//! no sort. [`rda_db::Value`]s are touched only to decode the answer.

use crate::budget::{BuildCost, PhaseClock};
use crate::error::BuildError;
use crate::plan::DirectAccess;
use crate::snapprep::{dense_len, prepare_reduced};
use rda_db::{key_ids, EncodedRelation, Snapshot, Tuple, Value};
use rda_query::classify::Problem;
use rda_query::{
    complete_order, fd_reordered_order, shared_positions, Cq, FdExtension, FdSet, Hypergraph,
    JoinTree, VarId, VarSet,
};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Lemma 6.5: for each code `c` of `var`, the number of answers of the
/// full acyclic query (`atom_vars[i]` over `rels[i]`, joined along
/// `tree`) that assign `c` to `var` — a dense `code → count` table, in
/// value order because codes are. Linear in the instance.
///
/// A bottom-up counting DP from the atom holding `var`: a row's weight
/// is the product, over the node's children, of the summed weight of
/// the child's rows agreeing with it, and each node's sums are a flat
/// table over the [`key_ids`] it shares with its parent. Counts are
/// `u128` and saturate: over a fully reduced instance a saturated count
/// can only grow towards the root, so it shows in the total.
fn histogram(
    tree: &JoinTree,
    atom_vars: &[Vec<VarId>],
    rels: &[Cow<'_, EncodedRelation>],
    var: VarId,
) -> Vec<u128> {
    let (root, var_pos) = atom_vars
        .iter()
        .enumerate()
        .find_map(|(i, vs)| Some((i, vs.iter().position(|&u| u == var)?)))
        .expect("every free variable occurs in some reduced atom");
    let (parent, order) = tree.rooted_at(root);
    let mut sums: Vec<Vec<u128>> = vec![Vec::new(); rels.len()];
    // Per node: each finished child with the ids of this node's rows
    // in the child's table.
    let mut children: Vec<Vec<(usize, Cow<'_, [u32]>)>> = vec![Vec::new(); rels.len()];
    for &i in order.iter().rev() {
        let rel = rels[i].as_ref();
        let (own, len) = if i == root {
            let codes = rel.col(var_pos);
            (Cow::Borrowed(codes), dense_len(codes))
        } else {
            let p = parent[i];
            let (parent_keys, keys) = shared_positions(&atom_vars[p], &atom_vars[i]);
            let ids = key_ids(rels[p].as_ref(), &parent_keys, rel, &keys);
            children[p].push((i, ids.probe));
            (ids.build, ids.len)
        };
        let mut table = vec![0u128; len];
        for (row, &id) in own.iter().enumerate() {
            let w = children[i].iter().fold(1u128, |w, (c, ids)| {
                w.saturating_mul(sums[*c].get(ids[row] as usize).copied().unwrap_or(0))
            });
            let slot = &mut table[id as usize];
            *slot = slot.saturating_add(w);
        }
        sums[i] = table;
    }
    std::mem::take(&mut sums[root])
}

/// Head positions realizing the completed internal `order` for
/// comparing answers, or `None` when the restriction to head variables
/// is not sound.
///
/// Restricting the completed order to the original head variables
/// induces the same total order on answers **iff** every promoted
/// (FD-implied) variable follows one of its determiners in the
/// completed order: then two answers that agree on everything before a
/// promoted variable agree on the promoted variable too, so answers
/// can never differ first at a skipped position. `fd_reordered_order`
/// guarantees this inside the requested prefix, but the completion
/// tail orders variables with no FD awareness, so out-of-prefix
/// promotions can violate it.
fn comparator_positions(ext: &FdExtension, order: &[VarId]) -> Option<Vec<usize>> {
    let head = ext.original.free();
    let original_free = ext.original.free_set();
    let mut seen = VarSet::EMPTY;
    for &v in order {
        // A promoted variable is sound only if some determiner of it
        // already occurred (induction: earlier agreement implies
        // agreement on `v`).
        let sound = original_free.contains(v)
            || ext
                .fds
                .iter()
                .any(|fd| fd.rhs == v && seen.contains(fd.lhs));
        if !sound {
            return None;
        }
        seen = seen.with(v);
    }
    let of_head = |v| head.iter().position(|f| f == v);
    Some(order.iter().filter_map(of_head).collect())
}

/// Complete the (FD-reordered) prefix over all of `free(Q⁺)`: the
/// Lemma 4.4 completion when a trio-free one exists (so results agree
/// with `LexDirectAccess`), otherwise the remaining variables in VarId
/// order (selection does not need trio-freeness).
fn complete_over_free(qp: &Cq, l_plus: &[VarId]) -> Vec<VarId> {
    complete_order(qp, l_plus).unwrap_or_else(|| {
        let mut o = l_plus.to_vec();
        let placed: VarSet = o.iter().copied().collect();
        o.extend(qp.free_set().minus(placed).iter());
        o
    })
}

/// Selection-backed handle for lexicographic orders (Theorem 6.1 /
/// 8.22): O(n) per access, answers ordered by the completed internal
/// order the selection uses — ties of a partial order broken by the
/// fixed completion.
///
/// Construction does everything that does not depend on the rank —
/// validation, classification, FD check and extension, the reduction to
/// a full query in the snapshot's code space, the join tree, one
/// counting pass for `len()` — and holds the fully reduced instance; an
/// access is then only the selection rounds of Lemma 6.6, and cannot
/// fail.
pub struct SelectionLexHandle {
    snap: Arc<Snapshot>,
    head: Vec<VarId>,
    /// The completed order over `free(Q⁺)`.
    order: Vec<VarId>,
    var_slots: usize,
    /// The reduced full query: variables and relation per atom.
    atom_vars: Vec<Vec<VarId>>,
    rels: Vec<EncodedRelation>,
    tree: JoinTree,
    total: u64,
    /// See [`comparator_positions`].
    pub(crate) cmp_positions: Option<Vec<usize>>,
    cost: BuildCost,
}

impl SelectionLexHandle {
    /// Prepare `q` over the snapshot's encoded relations for selection
    /// by `lex`. Fails on an invalid order, on the intractable side of
    /// the dichotomy, on an instance that does not fit the query
    /// (missing relation, arity mismatch) or violates an FD, and with
    /// [`BuildError::CountOverflow`] when the answer count does not fit
    /// in `u64`.
    pub fn new(
        q: &Cq,
        snap: &Arc<Snapshot>,
        lex: Vec<VarId>,
        fds: &FdSet,
    ) -> Result<Self, BuildError> {
        crate::lexda::validate_lex(q, &lex)?;
        let (ext, red, mut cost) =
            prepare_reduced(q, snap, fds, &Problem::SelectionLex(lex.clone()))?;
        let mut clock = PhaseClock::start();
        let order = complete_over_free(&ext.query, &fd_reordered_order(&ext, &lex));
        let atom_vars: Vec<Vec<VarId>> =
            red.query.atoms().iter().map(|a| a.terms.clone()).collect();
        let edges = red.query.atoms().iter().map(|a| a.var_set()).collect();
        let tree = rda_query::join_tree(&Hypergraph::new(edges)).expect("reduced query is acyclic");
        let total = match order.first() {
            // Boolean head: one (empty) answer iff the join is non-empty.
            None => u128::from(!red.known_empty),
            Some(&v) => histogram(&tree, &atom_vars, &red.rels, v)
                .iter()
                .fold(0, |n: u128, &c| n.saturating_add(c)),
        };
        cost.dp_ns = clock.lap();
        let rels: Vec<EncodedRelation> = red.rels.into_iter().map(Cow::into_owned).collect();
        cost.hold(&rels);
        Ok(SelectionLexHandle {
            snap: Arc::clone(snap),
            head: q.free().to_vec(),
            cmp_positions: comparator_positions(&ext, &order),
            order,
            var_slots: ext.query.var_count(),
            atom_vars,
            rels,
            tree,
            total: u64::try_from(total).map_err(|_| BuildError::CountOverflow)?,
            cost,
        })
    }

    /// Run exactly one selection (Theorem 6.1) for rank `k` — the raw
    /// ⟨1, n⟩ operation, with no caching. `None` means out-of-bound.
    pub fn select_once(&self, k: u64) -> Option<Tuple> {
        self.access(k)
    }

    /// What construction paid — `prep`, `reduce`, the counting pass as
    /// `dp` — and the rows and bytes of the reduced instance it holds.
    pub fn build_cost(&self) -> &BuildCost {
        &self.cost
    }
}

impl DirectAccess for SelectionLexHandle {
    /// Number of answers, counted at construction.
    fn len(&self) -> u64 {
        self.total
    }

    /// Lemma 6.6: the answer at index `k` of the completed order, from
    /// one histogram, one prefix scan and one filter per order
    /// variable. All scratch is per call.
    fn access_into(&self, k: u64, out: &mut Vec<Value>) -> bool {
        out.clear();
        if k >= self.total {
            return false;
        }
        let mut k = u128::from(k);
        let mut rels: Vec<Cow<'_, EncodedRelation>> = self.rels.iter().map(Cow::Borrowed).collect();
        let mut chosen = vec![0u32; self.var_slots];
        for &v in &self.order {
            let counts = histogram(&self.tree, &self.atom_vars, &rels, v);
            // The rank is below the histogram's total, so the scan ends.
            let mut code = 0;
            while k >= counts[code] {
                k -= counts[code];
                code += 1;
            }
            let code = code as u32;
            chosen[v.index()] = code;
            for (vars, rel) in self.atom_vars.iter().zip(rels.iter_mut()) {
                if let Some(p) = vars.iter().position(|&u| u == v) {
                    *rel = Cow::Owned(rel.filter_col_range(p, code, Some(code + 1)));
                }
            }
        }
        // Exactly the head arity: the owned `DirectAccess::access`
        // turns a fresh buffer into its tuple without reallocating.
        out.reserve_exact(self.head.len());
        let dict = self.snap.dict();
        out.extend(
            self.head
                .iter()
                .map(|v| dict.value(chosen[v.index()]).clone()),
        );
        true
    }

    /// The rank of `answer`: a binary search over ranks with O(log n)
    /// selections, or a scan of every rank when the completed order has
    /// no sound restriction to the head (see `comparator_positions`).
    fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        if answer.arity() != self.head.len() {
            return None; // wrong arity is never an answer
        }
        let Some(positions) = &self.cmp_positions else {
            return (0..self.total).find(|&k| self.access(k).as_ref() == Some(answer));
        };
        // The completed order is total on answers, so the binary search
        // finds the only candidate rank.
        let by_order = |t: Tuple| {
            let on_positions = positions.iter().map(|&p| t[p].cmp(&answer[p]));
            on_positions.fold(Ordering::Equal, Ordering::then)
        };
        let pos = first_rank(0..self.total, |k| {
            by_order(self.access(k).expect("k < len")).is_ge()
        });
        (self.access(pos).as_ref() == Some(answer)).then_some(pos)
    }
}

/// The first rank in `ranks` at which `reached` holds, or `ranks.end`
/// — `reached` must be monotone over the ranks.
fn first_rank(ranks: Range<u64>, reached: impl Fn(u64) -> bool) -> u64 {
    let (mut lo, mut hi) = (ranks.start, ranks.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::{tup, Database};
    use rda_query::parser::parse;

    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    fn prepare(q: &Cq, db: &Database, lex: &[&str], fds: &FdSet) -> SelectionLexHandle {
        SelectionLexHandle::new(q, &db.clone().freeze(), q.vars(lex), fds).unwrap()
    }

    fn sel(q: &Cq, db: &Database, lex: &[&str], k: u64) -> Option<Tuple> {
        prepare(q, db, lex, &FdSet::empty()).select_once(k)
    }

    #[test]
    fn figure_2b_all_ranks() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let expect = [
            tup![1, 2, 5],
            tup![1, 5, 3],
            tup![1, 5, 4],
            tup![1, 5, 6],
            tup![6, 2, 5],
        ];
        for (k, e) in expect.iter().enumerate() {
            assert_eq!(
                sel(&q, &fig2_db(), &["x", "y", "z"], k as u64).as_ref(),
                Some(e)
            );
        }
        assert_eq!(sel(&q, &fig2_db(), &["x", "y", "z"], 5), None);
    }

    #[test]
    fn figure_2c_trio_order_still_selectable() {
        // <x, z, y> has a disruptive trio — direct access is hard, but
        // selection works (Example 1.1). Expected order from Figure 2c.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        // Figure 2c lists answers by <x, z, y>:
        // (1,3,5) -> (x,y,z) = (1,5,3)
        // (1,4,5) -> (1,5,4)
        // (1,5,2) -> (1,2,5)
        // (1,6,5) -> (1,5,6)
        // (6,5,2) -> (6,2,5)
        let expect = [
            tup![1, 5, 3],
            tup![1, 5, 4],
            tup![1, 2, 5],
            tup![1, 5, 6],
            tup![6, 2, 5],
        ];
        for (k, e) in expect.iter().enumerate() {
            assert_eq!(
                sel(&q, &fig2_db(), &["x", "z", "y"], k as u64).as_ref(),
                Some(e),
                "k={k}"
            );
        }
    }

    #[test]
    fn partial_order_not_l_connex_still_selectable() {
        // <x, z> is not L-connex; selection remains tractable.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let first = sel(&q, &fig2_db(), &["x", "z"], 0).unwrap();
        assert_eq!((first[0].clone(), first[2].clone()), (1.into(), 3.into()));
    }

    #[test]
    fn median_of_projection_query() {
        let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        // Answers: (1,2), (1,5), (6,2).
        assert_eq!(sel(&q, &fig2_db(), &["x", "y"], 1), Some(tup![1, 5]));
    }

    #[test]
    fn non_free_connex_rejected() {
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let r = SelectionLexHandle::new(
            &q,
            &fig2_db().freeze(),
            q.vars(&["x", "z"]),
            &FdSet::empty(),
        );
        assert!(matches!(r, Err(BuildError::NotTractable(_))));
    }

    #[test]
    fn fd_unlocks_selection() {
        // Example 8.3: Q(x,z) :- R(x,y), S(y,z) with S: y → z becomes
        // free-connex.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 10], vec![2, 20], vec![2, 10]])
            .with_i64_rows("S", 2, vec![vec![10, 7], vec![20, 8]]);
        // Answers: (1,7), (2,8), (2,7); by <x,z>: (1,7), (2,7), (2,8).
        let sel = prepare(&q, &db, &["x", "z"], &fds);
        let got: Vec<Tuple> = (0..3).map(|k| sel.select_once(k).unwrap()).collect();
        assert_eq!(got, vec![tup![1, 7], tup![2, 7], tup![2, 8]]);
        assert_eq!((sel.len(), sel.select_once(3)), (3, None));
    }

    #[test]
    fn boolean_query_selection() {
        let q = parse("Q() :- R(x, y), S(y, z)").unwrap();
        assert_eq!(sel(&q, &fig2_db(), &[], 0), Some(Tuple::new(vec![])));
        assert_eq!(sel(&q, &fig2_db(), &[], 1), None);
    }
}
