//! Materialize-and-sort: the general-purpose baseline and test oracle.
//!
//! Evaluates any CQ (cyclic included) by left-deep hash joins over
//! values, projects onto the head, deduplicates, and sorts by the
//! requested order — independently of `rda_core`, whose materialize
//! fallback does the same in code space. Its Θ(|out|) cost is the
//! quantity the direct-access structures avoid.

use rda_db::{Database, Tuple, Value};
use rda_query::{Cq, VarId};
use std::collections::HashMap;

/// All answers of `q` over `db` (distinct head assignments), unordered.
///
/// # Panics
/// Panics if a relation is missing or an arity mismatches.
pub fn all_answers(q: &Cq, db: &Database) -> Vec<Tuple> {
    // Partial assignments over the query variables, extended atom by atom.
    let slots = q.var_count();
    let mut partials: Vec<Vec<Option<Value>>> = vec![vec![None; slots]];
    for atom in q.atoms() {
        let rel = db
            .get(&atom.relation)
            .unwrap_or_else(|| panic!("relation {} missing from database", atom.relation));
        assert_eq!(
            rel.arity(),
            atom.terms.len(),
            "arity mismatch on {}",
            atom.relation
        );
        // Index the relation by the positions bound in current partials —
        // all partials bind the same variable set, so compute it once.
        let bound: Vec<usize> = atom
            .terms
            .iter()
            .enumerate()
            .filter(|(_, v)| partials.first().is_some_and(|p| p[v.index()].is_some()))
            .map(|(i, _)| i)
            .collect();
        let mut index: HashMap<Tuple, Vec<&Tuple>> = HashMap::new();
        for t in rel.tuples() {
            index.entry(t.project(&bound)).or_default().push(t);
        }
        let mut next = Vec::new();
        for partial in &partials {
            let key: Tuple = bound
                .iter()
                .map(|&i| partial[atom.terms[i].index()].clone().expect("bound"))
                .collect();
            let Some(matches) = index.get(&key) else {
                continue;
            };
            'tuples: for t in matches {
                let mut extended = partial.clone();
                for (i, &v) in atom.terms.iter().enumerate() {
                    match &extended[v.index()] {
                        Some(existing) if existing != &t[i] => continue 'tuples,
                        _ => extended[v.index()] = Some(t[i].clone()),
                    }
                }
                next.push(extended);
            }
        }
        partials = next;
    }
    let mut answers: Vec<Tuple> = partials
        .iter()
        .map(|p| {
            q.free()
                .iter()
                .map(|v| p[v.index()].clone().expect("head bound"))
                .collect()
        })
        .collect();
    answers.sort_unstable();
    answers.dedup();
    answers
}

/// A fully materialized, sorted answer array: O(1) access after
/// Θ(|out| log |out|) construction.
pub struct MaterializedAccess {
    answers: Vec<Tuple>,
    weights: Vec<f64>,
    /// Answer → rank, for O(1) inverted access. Built lazily on the
    /// first `inverted_access` call: positional-only consumers (the
    /// benches, the 3SUM reductions) never pay the extra Θ(|out|)
    /// memory.
    rank: std::sync::OnceLock<HashMap<Tuple, u64>>,
}

impl MaterializedAccess {
    /// Materialize `q(db)` sorted by the (possibly partial) lexicographic
    /// order `lex` over head variables, ties broken by the full tuple.
    ///
    /// # Panics
    /// Panics if `lex` mentions a non-head variable.
    pub fn by_lex(q: &Cq, db: &Database, lex: &[VarId]) -> Self {
        let positions: Vec<usize> = lex
            .iter()
            .map(|v| {
                q.free()
                    .iter()
                    .position(|f| f == v)
                    .expect("lexicographic orders range over head variables")
            })
            .collect();
        let mut answers = all_answers(q, db);
        answers.sort_by(|a, b| {
            positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| o.is_ne())
                .unwrap_or_else(|| a.cmp(b))
        });
        MaterializedAccess {
            rank: std::sync::OnceLock::new(),
            answers,
            weights: Vec::new(),
        }
    }

    /// Materialize `q(db)` sorted by summed attribute weights computed
    /// by `weight_of(variable, value)`.
    pub fn by_sum(q: &Cq, db: &Database, weight_of: impl Fn(VarId, &Value) -> f64) -> Self {
        let answers = all_answers(q, db);
        let mut pairs: Vec<(f64, Tuple)> = answers
            .into_iter()
            .map(|t| {
                let w = q
                    .free()
                    .iter()
                    .zip(t.values())
                    .map(|(&v, val)| weight_of(v, val))
                    .sum();
                (w, t)
            })
            .collect();
        // Every NaN is one weight, above +∞ (the engine's SUM order):
        // which NaN a sum keeps is unspecified in Rust.
        let key = |w: f64| if w.is_nan() { f64::NAN } else { w };
        pairs.sort_by(|a, b| key(a.0).total_cmp(&key(b.0)).then_with(|| a.1.cmp(&b.1)));
        let (weights, answers): (Vec<f64>, Vec<Tuple>) = pairs.into_iter().unzip();
        MaterializedAccess {
            rank: std::sync::OnceLock::new(),
            answers,
            weights,
        }
    }

    /// Number of answers.
    pub fn len(&self) -> u64 {
        self.answers.len() as u64
    }

    /// `true` when there are no answers.
    pub fn is_empty(&self) -> bool {
        self.answers.is_empty()
    }

    /// The answer at index `k`, O(1).
    ///
    /// Returns an owned tuple — the uniform convention across every
    /// access backend (see `rda_core::DirectAccess`).
    pub fn access(&self, k: u64) -> Option<Tuple> {
        self.answers.get(k as usize).cloned()
    }

    /// The rank of `answer` in the materialized order, or `None` when it
    /// is not an answer. O(1) after the first call builds the index.
    pub fn inverted_access(&self, answer: &Tuple) -> Option<u64> {
        self.rank
            .get_or_init(|| {
                self.answers
                    .iter()
                    .enumerate()
                    .map(|(i, t)| (t.clone(), i as u64))
                    .collect()
            })
            .get(answer)
            .copied()
    }

    /// The weight of the answer at index `k` (SUM mode only).
    pub fn weight_at(&self, k: u64) -> Option<f64> {
        self.weights.get(k as usize).copied()
    }

    /// All answers in order.
    pub fn answers(&self) -> &[Tuple] {
        &self.answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_db::tup;
    use rda_query::parser::parse;

    fn fig2_db() -> Database {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
            .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]])
    }

    #[test]
    fn figure_2_answers() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let m = MaterializedAccess::by_lex(&q, &fig2_db(), &q.vars(&["x", "y", "z"]));
        assert_eq!(
            m.answers(),
            &[
                tup![1, 2, 5],
                tup![1, 5, 3],
                tup![1, 5, 4],
                tup![1, 5, 6],
                tup![6, 2, 5]
            ]
        );
    }

    #[test]
    fn figure_2c_order() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let m = MaterializedAccess::by_lex(&q, &fig2_db(), &q.vars(&["x", "z", "y"]));
        assert_eq!(
            m.answers(),
            &[
                tup![1, 5, 3],
                tup![1, 5, 4],
                tup![1, 2, 5],
                tup![1, 5, 6],
                tup![6, 2, 5]
            ]
        );
    }

    #[test]
    fn sum_ordering_matches_figure_2d() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let m =
            MaterializedAccess::by_sum(&q, &fig2_db(), |_, v| v.as_int().map_or(0.0, |i| i as f64));
        let weights: Vec<f64> = (0..m.len()).map(|k| m.weight_at(k).unwrap()).collect();
        assert_eq!(weights, vec![8.0, 9.0, 10.0, 12.0, 13.0]);
    }

    #[test]
    fn handles_projection_and_dedup() {
        let q = parse("Q(y) :- R(x, y), S(y, z)").unwrap();
        let answers = all_answers(&q, &fig2_db());
        assert_eq!(answers, vec![tup![2], tup![5]]);
    }

    #[test]
    fn handles_cyclic_queries() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let db = Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3]])
            .with_i64_rows("S", 2, vec![vec![2, 3], vec![3, 1]])
            .with_i64_rows("T", 2, vec![vec![3, 1], vec![1, 2]]);
        // Triangle 1-2-3 closes: (1,2,3). Also check 2-3-1: T needs (1,2) ✓.
        let answers = all_answers(&q, &db);
        assert_eq!(answers, vec![tup![1, 2, 3], tup![2, 3, 1]]);
    }

    #[test]
    fn handles_self_joins_and_repeated_vars() {
        let q = parse("Q(x) :- R(x, x)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 1], vec![1, 2]]);
        assert_eq!(all_answers(&q, &db), vec![tup![1]]);

        let q = parse("Q(x, z) :- R(x, y), R(y, z)").unwrap();
        let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3]]);
        assert_eq!(all_answers(&q, &db), vec![tup![1, 3]]);
    }

    #[test]
    fn boolean_query_yields_empty_tuple() {
        let q = parse("Q() :- R(x)").unwrap();
        let db = Database::new().with_i64_rows("R", 1, vec![vec![1]]);
        assert_eq!(all_answers(&q, &db), vec![Tuple::new(vec![])]);
        let empty = Database::new().with_i64_rows("R", 1, vec![]);
        assert_eq!(all_answers(&q, &empty), Vec::<Tuple>::new());
    }
}
