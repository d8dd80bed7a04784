//! The pre-arena lexicographic access structure, kept as an oracle.
//!
//! This is the implementation `rda_core::LexDirectAccess` had before the
//! dictionary-encoded arena layout: per-layer `HashMap<Tuple, Bucket>`
//! with `(Value, weight, start)` entries, key tuples allocated and
//! hashed on every layer descent. It has one job, differential testing:
//! `tests/oracle.rs` checks the arena structure against it
//! answer-for-answer on randomized instances.
//!
//! It keeps the pre-arena behavior, including saturating (unchecked)
//! weight arithmetic, and runs the value-level preparation of
//! [`crate::instance`] and [`crate::fdtransform`] — built independently
//! of the arena's code-space pipeline, which is what makes the
//! differential tests meaningful.

use crate::fdtransform::{check_fds, extend_instance, fd_lookup};
use crate::instance::{normalize_instance, reduce_to_full};
use rda_db::{Database, Relation, Tuple, Value};
use rda_query::classify::{classify, Problem};
use rda_query::{
    complete_order, fd_extension, fd_reordered_order, layered_join_tree, positions_of, Cq,
    ExtensionStep, FdExtension, FdSet, JoinTree, NodeSource, VarId, VarSet,
};
use std::collections::HashMap;

/// How a promoted (FD-implied) variable's value is derived from an
/// already-known variable, for inverted access under FDs.
#[derive(Debug, Clone)]
struct Derivation {
    var: VarId,
    from: VarId,
    lookup: HashMap<Value, Value>,
}

/// For every promoted variable, how to derive its value from an earlier
/// variable, over the extended instance `idb`.
fn build_derivations(ext: &FdExtension, idb: &Database) -> Vec<Derivation> {
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
        let atom = ext
            .query
            .atoms()
            .iter()
            .find(|a| a.relation == fd.relation)
            .expect("FD names an atom");
        out.push(Derivation {
            var: *var,
            from: fd.lhs,
            lookup: fd_lookup(&atom.terms, idb, fd),
        });
        known = known.with(*var);
    }
    out
}

/// One sorted run of a layer relation: all tuples agreeing on the
/// preceding variables, ordered by the layer's own variable.
#[derive(Debug, Clone)]
struct Bucket {
    /// `(value, weight, start)` per tuple, ascending by value
    /// (Figure 4's `w` and `s` columns).
    entries: Vec<(Value, u64, u64)>,
    /// Sum of entry weights.
    total: u64,
}

impl Bucket {
    /// Index of the first entry with value ≥ `v`, and whether it equals `v`.
    fn lower_bound(&self, v: &Value) -> (usize, bool) {
        let idx = self.entries.partition_point(|(ev, _, _)| ev < v);
        let exact = idx < self.entries.len() && &self.entries[idx].0 == v;
        (idx, exact)
    }

    /// Total weight of entries with value strictly below index `idx`.
    fn start_at(&self, idx: usize) -> u64 {
        if idx < self.entries.len() {
            self.entries[idx].2
        } else {
            self.total
        }
    }
}

/// Per-layer access structure (hash-bucketed).
#[derive(Debug, Clone)]
struct Layer {
    /// The layer's variable `v_i`.
    var: VarId,
    /// Bucket-key variables (ascending), for building keys from a
    /// partial assignment.
    key_vars: Vec<VarId>,
    /// Child layers in the layered join tree.
    children: Vec<usize>,
    /// Buckets keyed by the projection onto `key_vars`.
    buckets: HashMap<Tuple, Bucket>,
}

/// The pre-arena `rda_core::LexDirectAccess`: same algorithms (1 and 2),
/// same preprocessing, hash-map bucket layout. See the module docs for
/// why it is kept.
#[derive(Debug, Clone)]
pub struct HashLexDirectAccess {
    out_vars: Vec<VarId>,
    order: Vec<VarId>,
    var_slots: usize,
    layers: Vec<Layer>,
    derivations: Vec<Derivation>,
    total: u64,
}

impl HashLexDirectAccess {
    /// Build the structure for `q` over `db`, ordered by the (partial)
    /// lexicographic order `lex`, under the FDs `fds`. Weight arithmetic
    /// saturates instead of reporting overflow.
    ///
    /// # Panics
    /// Panics if `lex` is not a list of distinct head variables, if FDs
    /// come with a self-join, if the order is not tractable for direct
    /// access (Theorems 4.1 / 8.21), or if `db` does not fit `q` or
    /// violates an FD.
    pub fn build(q: &Cq, db: &Database, lex: &[VarId], fds: &FdSet) -> Self {
        let distinct: VarSet = lex.iter().copied().collect();
        assert!(
            distinct.len() == lex.len() && distinct.is_subset(q.free_set()),
            "a lexicographic order lists distinct head variables"
        );
        assert!(
            fds.is_empty() || q.is_self_join_free(),
            "functional dependencies require a self-join-free query"
        );
        let verdict = classify(q, fds, &Problem::DirectAccessLex(lex.to_vec()));
        assert!(verdict.is_tractable(), "intractable order: {verdict:?}");

        let (nq, ndb) = normalize_instance(q, db);
        check_fds(&nq, &ndb, fds);
        let ext = fd_extension(&nq, fds);
        let idb = extend_instance(&ext, &ndb);
        let qp = ext.query.clone();
        let l_plus = fd_reordered_order(&ext, lex);
        let derivations = build_derivations(&ext, &idb);

        let red = reduce_to_full(&qp, &idb)
            .expect("classification guarantees the extension is free-connex");

        // Boolean (or fully-implied) case: no order variables at all.
        let order =
            complete_order(&qp, &l_plus).expect("classification guarantees a trio-free completion");
        if order.is_empty() {
            return HashLexDirectAccess {
                out_vars: q.free().to_vec(),
                order,
                var_slots: qp.var_count(),
                layers: Vec::new(),
                derivations,
                total: u64::from(!red.known_empty),
            };
        }

        // Layered join tree over the reduced full query.
        let edges: Vec<_> = red.query.atoms().iter().map(|a| a.var_set()).collect();
        let layered = layered_join_tree(&edges, &order)
            .expect("Lemma 3.10: the reduction preserves trio-freeness");

        // Materialize a relation per layer: project the defining edge,
        // then filter by every assigned edge.
        let f = order.len();
        let mut layer_rels: Vec<Relation> = Vec::with_capacity(f);
        let mut layer_vars: Vec<Vec<VarId>> = Vec::with_capacity(f);
        for (i, node) in layered.layers.iter().enumerate() {
            let vars: Vec<VarId> = node.vars.iter().collect();
            let def = &red.query.atoms()[node.defining_edge];
            let def_rel = red.db.get(&def.relation).expect("reduced relation exists");
            let mut rel = def_rel.project(format!("L{i}"), &positions_of(&def.terms, &vars));
            for &e in &node.assigned_edges {
                let atom = &red.query.atoms()[e];
                let e_vars: Vec<VarId> = atom.var_set().iter().collect();
                let self_keys = positions_of(&vars, &e_vars);
                let other = red.db.get(&atom.relation).expect("reduced relation exists");
                let other_keys = positions_of(&atom.terms, &e_vars);
                rel.semijoin(&self_keys, other, &other_keys);
            }
            layer_rels.push(rel);
            layer_vars.push(vars);
        }

        // Remove dangling tuples across the layered tree so every stored
        // tuple has positive weight (Figure 4's invariant).
        let mut jt = JoinTree::new();
        for node in &layered.layers {
            jt.add_node(node.vars, NodeSource::Synthetic(None));
        }
        for (i, node) in layered.layers.iter().enumerate() {
            if let Some(p) = node.parent {
                jt.add_edge(p, i);
            }
        }
        jt.full_reduce(&layer_vars, &mut layer_rels, Relation::semijoin);

        // Counting DP, deepest layer first (children have larger index).
        let mut layers: Vec<Option<Layer>> = (0..f).map(|_| None).collect();
        for i in (0..f).rev() {
            let vars = &layer_vars[i];
            let var = order[i];
            let value_pos = vars
                .iter()
                .position(|&v| v == var)
                .expect("layer var in node");
            let key_positions: Vec<usize> = (0..vars.len()).filter(|&p| p != value_pos).collect();
            let key_vars: Vec<VarId> = key_positions.iter().map(|&p| vars[p]).collect();
            let children = layered.children(i);
            // Running intersection: child keys lie in the parent node.
            let child_keys: Vec<(&Layer, Vec<usize>)> = children
                .iter()
                .map(|&c| {
                    let child = layers[c].as_ref().expect("children already built");
                    (child, positions_of(vars, &child.key_vars))
                })
                .collect();

            // Weight per tuple = product over children of the matching
            // bucket's total.
            let mut grouped: HashMap<Tuple, Vec<(Value, u64)>> = HashMap::new();
            for t in layer_rels[i].tuples() {
                let mut w: u64 = 1;
                for (child, keys) in &child_keys {
                    let bucket = child.buckets.get(&t.project(keys));
                    w = w.saturating_mul(bucket.map_or(0, |b| b.total));
                }
                if w == 0 {
                    continue;
                }
                grouped
                    .entry(t.project(&key_positions))
                    .or_default()
                    .push((t[value_pos].clone(), w));
            }
            let mut buckets = HashMap::with_capacity(grouped.len());
            for (key, mut vals) in grouped {
                vals.sort_by(|a, b| a.0.cmp(&b.0));
                let mut entries = Vec::with_capacity(vals.len());
                let mut start = 0u64;
                for (v, w) in vals {
                    entries.push((v, w, start));
                    start += w;
                }
                buckets.insert(
                    key,
                    Bucket {
                        entries,
                        total: start,
                    },
                );
            }
            layers[i] = Some(Layer {
                var,
                key_vars,
                children,
                buckets,
            });
        }
        let layers: Vec<Layer> = layers.into_iter().map(|l| l.expect("all built")).collect();
        let total = layers[0]
            .buckets
            .get(&Tuple::new(vec![]))
            .map_or(0, |b| b.total);

        HashLexDirectAccess {
            out_vars: q.free().to_vec(),
            order,
            var_slots: qp.var_count(),
            layers,
            derivations,
            total,
        }
    }

    /// Number of answers (`|Q(I)|`).
    pub fn len(&self) -> u64 {
        self.total
    }

    /// `true` when the query has no answers.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Algorithm 1 over the hash-bucketed layout.
    pub fn access(&self, k: u64) -> Option<Tuple> {
        if k >= self.total {
            return None;
        }
        let mut assignment: Vec<Option<Value>> = vec![None; self.var_slots];
        let mut k = k;
        let mut factor = self.total;
        let mut chosen: Vec<Option<&Bucket>> = vec![None; self.layers.len()];
        if let Some(layer) = self.layers.first() {
            chosen[0] = layer.buckets.get(&Tuple::new(vec![]));
        }
        for i in 0..self.layers.len() {
            let bucket = chosen[i].expect("positive-weight path");
            factor /= bucket.total;
            // Last entry with start·factor ≤ k.
            let idx = bucket.entries.partition_point(|(_, _, s)| *s * factor <= k) - 1;
            let (value, _, start) = &bucket.entries[idx];
            k -= start * factor;
            assignment[self.layers[i].var.index()] = Some(value.clone());
            self.descend(i, &mut chosen, &mut factor, &assignment);
        }
        Some(self.emit(&assignment))
    }

    /// Algorithm 2 over the hash-bucketed layout.
    pub fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        let target = self.target_values(answer)?;
        let (rank, exact) = self.rank_lower_bound(&target);
        exact.then_some(rank)
    }

    /// Remark 3 over the hash-bucketed layout.
    pub fn rank_of_lower_bound(&self, answer: &Tuple) -> Option<u64> {
        Some(self.rank_lower_bound(&self.target_values(answer)?).0)
    }

    fn target_values(&self, answer: &Tuple) -> Option<Vec<Value>> {
        if answer.arity() != self.out_vars.len() {
            return None;
        }
        let mut assignment: Vec<Option<Value>> = vec![None; self.var_slots];
        for (i, &v) in self.out_vars.iter().enumerate() {
            assignment[v.index()] = Some(answer[i].clone());
        }
        for d in &self.derivations {
            let from = assignment[d.from.index()].clone()?;
            assignment[d.var.index()] = Some(d.lookup.get(&from)?.clone());
        }
        self.order
            .iter()
            .map(|v| assignment[v.index()].clone())
            .collect()
    }

    fn rank_lower_bound(&self, target: &[Value]) -> (u64, bool) {
        debug_assert_eq!(target.len(), self.layers.len());
        let mut assignment: Vec<Option<Value>> = vec![None; self.var_slots];
        let mut rank = 0u64;
        let mut factor = self.total;
        let mut chosen: Vec<Option<&Bucket>> = vec![None; self.layers.len()];
        if let Some(layer) = self.layers.first() {
            chosen[0] = layer.buckets.get(&Tuple::new(vec![]));
        }
        if self.layers.is_empty() {
            return (0, self.total == 1);
        }
        for i in 0..self.layers.len() {
            let Some(bucket) = chosen[i] else {
                return (rank, false);
            };
            factor /= bucket.total;
            let (idx, exact) = bucket.lower_bound(&target[i]);
            rank += bucket.start_at(idx) * factor;
            if !exact {
                return (rank, false);
            }
            assignment[self.layers[i].var.index()] = Some(target[i].clone());
            self.descend(i, &mut chosen, &mut factor, &assignment);
        }
        (rank, true)
    }

    fn descend<'a>(
        &'a self,
        i: usize,
        chosen: &mut [Option<&'a Bucket>],
        factor: &mut u64,
        assignment: &[Option<Value>],
    ) {
        for &c in &self.layers[i].children {
            let key: Tuple = self.layers[c]
                .key_vars
                .iter()
                .map(|kv| {
                    assignment[kv.index()]
                        .clone()
                        .expect("child keys are assigned before the child layer")
                })
                .collect();
            let b = self.layers[c].buckets.get(&key);
            chosen[c] = b;
            *factor = factor.saturating_mul(b.map_or(0, |b| b.total));
        }
    }

    fn emit(&self, assignment: &[Option<Value>]) -> Tuple {
        self.out_vars
            .iter()
            .map(|v| {
                assignment[v.index()]
                    .clone()
                    .expect("all head variables assigned")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MaterializedAccess;
    use rda_db::tup;
    use rda_query::parser::parse;

    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    /// The reference structure agrees with materialize-and-sort on the
    /// running example — the differential check against the arena lives
    /// in tests/oracle.rs.
    #[test]
    fn agrees_with_materialized_on_figure_2() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let lex = q.vars(&["x", "y", "z"]);
        let db = fig2_db();
        let reference = HashLexDirectAccess::build(&q, &db, &lex, &FdSet::empty());
        let oracle = MaterializedAccess::by_lex(&q, &db, &lex);
        assert_eq!(reference.len(), oracle.len());
        for k in 0..reference.len() {
            let t = reference.access(k).unwrap();
            assert_eq!(Some(t.clone()), oracle.access(k));
            assert_eq!(reference.inverted_access(&t), Some(k));
        }
        // (1, 3, 0) sorts after (1, 2, 5) and before (1, 5, 3).
        assert_eq!(reference.rank_of_lower_bound(&tup![1, 3, 0]), Some(1));
    }

    #[test]
    fn refuses_an_intractable_order() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let lex = q.vars(&["x", "z", "y"]);
        let msg = crate::panic_message(|| {
            drop(HashLexDirectAccess::build(
                &q,
                &fig2_db(),
                &lex,
                &FdSet::empty(),
            ))
        });
        assert!(msg.contains("intractable order"), "{msg}");
    }
}
