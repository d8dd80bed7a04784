//! Cross-crate correctness: every access structure is checked against
//! the materialize-and-sort oracle on randomized instances, across a
//! catalog of queries covering the tractability landscape.

#[allow(dead_code)]
mod common;

use common::{conforms, random_db};
use proptest::prelude::*;
use ranked_access::prelude::*;
use ranked_access::rda_baseline::{
    all_answers, HashLexDirectAccess, MaterializedAccess, RankedEnumerator,
};
use std::sync::Arc;

/// Queries with at least one tractable LEX order, with that order.
fn lex_catalog() -> Vec<(Cq, Vec<VarId>)> {
    let mut out = Vec::new();
    let add = |out: &mut Vec<(Cq, Vec<VarId>)>, src: &str, lex: &[&str]| {
        let q = parse(src).unwrap();
        let l = q.vars(lex);
        out.push((q, l));
    };
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["x", "y", "z"]);
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["y", "x", "z"]);
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["z", "y", "x"]);
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["y", "z", "x"]);
    // Partial orders.
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["y"]);
    add(&mut out, "Q(x, y, z) :- R(x, y), S(y, z)", &["z", "y"]);
    // Cartesian product, interleaved (Example 3.5).
    add(
        &mut out,
        "Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)",
        &["v1", "v2", "v3", "v4"],
    );
    // Q5/Q6 from Section 2.5 (unsupported by all prior structures).
    add(
        &mut out,
        "Q(v1, v2, v3, v4, v5) :- R1(v1, v3), R2(v3, v4), R3(v2, v5)",
        &["v1", "v2", "v3", "v4", "v5"],
    );
    add(
        &mut out,
        "Q(v1, v2, v3, v4, v5) :- R1(v1, v2, v4), R2(v2, v3, v5)",
        &["v1", "v2", "v3", "v4", "v5"],
    );
    // Projections (free-connex).
    add(&mut out, "Q(x, y) :- R(x, y), S(y, z)", &["y", "x"]);
    add(&mut out, "Q(x) :- R(x, y), S(y)", &["x"]);
    // Star join.
    add(
        &mut out,
        "Q(a, b, c) :- R(a, b), S(a, c), T(a)",
        &["a", "b", "c"],
    );
    // Self-join.
    add(&mut out, "Q(x, y, z) :- E(x, y), E(y, z)", &["x", "y", "z"]);
    // Wider atoms.
    add(
        &mut out,
        "Q(a, b, c, d) :- R(a, b, c), S(c, d)",
        &["c", "a", "b", "d"],
    );
    out
}

/// The oracle order matching `LexDirectAccess`'s internal completion:
/// compare answers on the structure's full internal order.
fn oracle_sorted(q: &Cq, db: &Database, order: &[VarId], internal: &[VarId]) -> Vec<Tuple> {
    let _ = order;
    let mut answers = all_answers(q, db);
    let positions: Vec<usize> = internal
        .iter()
        .filter_map(|v| q.free().iter().position(|f| f == v))
        .collect();
    answers.sort_by(|a, b| {
        positions
            .iter()
            .map(|&p| a[p].cmp(&b[p]))
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    answers
}

/// Run one block against the `LexDirectAccess` behind an
/// engine-prepared native lex plan.
macro_rules! native_lex {
    ($plan:expr, $da:ident => $body:block) => {
        match $plan.answers() {
            RankedAnswers::Lex($da) => $body,
            _ => panic!("expected the native lex backend, got {}", $plan.backend()),
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn lex_direct_access_matches_oracle(seed in 0u64..1_000_000, rows in 1usize..25, domain in 1i64..6) {
        for (q, lex) in lex_catalog() {
            let db = random_db(&q, rows, domain, seed);
            // Route through the engine: every catalog order is on the
            // tractable side, so it must pick the native structure.
            let plan = Engine::new(db.clone().freeze())
                .prepare(&q, OrderSpec::Lex(lex.clone()), &FdSet::empty(), Policy::Reject)
                .unwrap();
            native_lex!(plan, da => {
                let oracle = oracle_sorted(&q, &db, &lex, da.internal_order());
                prop_assert_eq!(da.len(), oracle.len() as u64, "count mismatch on {}", q);
                // Full equality on the internal order (a strict refinement
                // of the requested order).
                let got: Vec<Tuple> = da.iter().collect();
                prop_assert_eq!(&got, &oracle, "order mismatch on {}", q);
                // Inverted access round-trips; out-of-bound is rejected.
                for (k, t) in got.iter().enumerate() {
                    prop_assert_eq!(da.inverted_access(t), Some(k as u64));
                }
                prop_assert_eq!(da.access(da.len()), None);
            });
        }
    }

    /// The dictionary/arena structure against the pre-arena reference
    /// (`HashMap<Tuple, Bucket>` layout), answer for answer: `access`,
    /// `inverted_access`, and `rank_of_lower_bound` must agree on every
    /// rank, every answer, and random non-answer probes (including
    /// values outside the active domain, which only the arena has to
    /// bracket through its dictionary).
    #[test]
    fn lex_arena_matches_hash_reference(seed in 0u64..1_000_000, rows in 1usize..25, domain in 1i64..6) {
        for (q, lex) in lex_catalog() {
            let db = random_db(&q, rows, domain, seed);
            let arena = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap();
            let reference = HashLexDirectAccess::build(&q, &db, &lex, &FdSet::empty());
            prop_assert_eq!(arena.len(), reference.len(), "count on {}", q);
            let mut buf: Vec<Value> = Vec::new();
            for k in 0..arena.len() {
                let t = reference.access(k).unwrap();
                let got = arena.access(k);
                prop_assert_eq!(got.as_ref(), Some(&t), "access({}) on {}", k, q);
                prop_assert!(arena.access_into(k, &mut buf));
                prop_assert_eq!(&Tuple::new(buf.clone()), &t, "access_into({}) on {}", k, q);
                prop_assert_eq!(
                    arena.inverted_access(&t),
                    reference.inverted_access(&t),
                    "inverted on {}", q
                );
            }
            // Random probes, answers or not: identical ranks and
            // identical lower bounds.
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xa5a5);
            for _ in 0..16 {
                let probe: Tuple = (0..q.free().len())
                    .map(|_| Value::int(rng.random_range(-1..domain + 1)))
                    .collect();
                prop_assert_eq!(
                    arena.inverted_access(&probe),
                    reference.inverted_access(&probe),
                    "inverted probe {} on {}", &probe, q
                );
                prop_assert_eq!(
                    arena.rank_of_lower_bound(&probe),
                    reference.rank_of_lower_bound(&probe),
                    "lower bound {} on {}", &probe, q
                );
            }
        }
    }

    /// Arena vs reference under functional dependencies: the arena's
    /// code-keyed derivation chain (inverted access for FD-promoted
    /// variables) against the reference's value-keyed one — on answers,
    /// non-answers, and probes whose determinant lies outside the
    /// active domain.
    #[test]
    fn lex_arena_matches_hash_reference_under_fds(seed in 0u64..1_000_000, rows in 1usize..40, domain in 2i64..12) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cases: Vec<(Cq, Vec<VarId>, FdSet, Database)> = Vec::new();
        {
            // Example 1.1: LEX <x,z,y> is trio-blocked until R: x → y
            // promotes y. R satisfies the FD by construction.
            let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
            let fds = FdSet::parse(&q, &[("R", "x", "y")]);
            let r: Vec<Tuple> = (0..rows as i64)
                .map(|x| [Value::int(x), Value::int((x * 31 + 7) % domain)].into_iter().collect())
                .collect();
            let s: Vec<Tuple> = (0..rows)
                .map(|_| {
                    [Value::int(rng.random_range(0..domain)), Value::int(rng.random_range(0..domain))]
                        .into_iter()
                        .collect()
                })
                .collect();
            let db = Database::new()
                .with(Relation::from_tuples("R", 2, r))
                .with(Relation::from_tuples("S", 2, s));
            let lex = q.vars(&["x", "z", "y"]);
            cases.push((q, lex, fds, db));
        }
        {
            // Example 8.3: Q(x, z) is not free-connex until S: y → z.
            let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
            let fds = FdSet::parse(&q, &[("S", "y", "z")]);
            let s: Vec<Tuple> = (0..domain)
                .map(|y| [Value::int(y), Value::int((y * 13 + 3) % domain)].into_iter().collect())
                .collect();
            let r: Vec<Tuple> = (0..rows)
                .map(|_| {
                    [Value::int(rng.random_range(0..domain)), Value::int(rng.random_range(0..domain))]
                        .into_iter()
                        .collect()
                })
                .collect();
            let db = Database::new()
                .with(Relation::from_tuples("R", 2, r))
                .with(Relation::from_tuples("S", 2, s));
            let lex = q.vars(&["x", "z"]);
            cases.push((q, lex, fds, db));
        }
        for (q, lex, fds, db) in cases {
            let arena = LexDirectAccess::build(&q, &db, &lex, &fds).unwrap();
            let reference = HashLexDirectAccess::build(&q, &db, &lex, &fds);
            prop_assert_eq!(arena.len(), reference.len(), "count on {}", q);
            for k in 0..arena.len() {
                let t = reference.access(k).unwrap();
                let got = arena.access(k);
                prop_assert_eq!(got.as_ref(), Some(&t), "access({}) on {}", k, q);
                prop_assert_eq!(arena.inverted_access(&t), reference.inverted_access(&t));
            }
            for _ in 0..24 {
                // Probes straddling the active domain, so determinants
                // both inside and outside the FD lookup are exercised.
                let probe: Tuple = (0..q.free().len())
                    .map(|_| Value::int(rng.random_range(-2..domain + 2)))
                    .collect();
                prop_assert_eq!(
                    arena.inverted_access(&probe),
                    reference.inverted_access(&probe),
                    "inverted probe {} on {}", &probe, q
                );
                prop_assert_eq!(
                    arena.rank_of_lower_bound(&probe),
                    reference.rank_of_lower_bound(&probe),
                    "lower bound {} on {}", &probe, q
                );
            }
        }
    }

    #[test]
    fn lex_selection_matches_direct_access(seed in 0u64..1_000_000, rows in 1usize..20, domain in 1i64..5) {
        for (q, lex) in lex_catalog() {
            let db = random_db(&q, rows, domain, seed);
            let snap = db.freeze();
            let da = LexDirectAccess::build_on(&q, &snap, &lex, &FdSet::empty()).unwrap();
            let handle = SelectionLexHandle::new(&q, &snap, lex.clone(), &FdSet::empty()).unwrap();
            for k in 0..da.len().min(8) {
                prop_assert_eq!(handle.select_once(k), da.access(k), "k={} on {}", k, q);
            }
            prop_assert_eq!(handle.select_once(da.len()), None);
        }
    }

    #[test]
    fn sum_selection_matches_oracle_weights(seed in 0u64..1_000_000, rows in 1usize..25, domain in 1i64..6) {
        let queries = [
            "Q(x, y, z) :- R(x, y), S(y, z)",
            "Q(a, b) :- R(a), S(b)",
            "Q(x, y) :- R(x, y), S(y, z)",
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, u)",
            "Q(x, y) :- R(x, u, y)",
        ];
        for src in queries {
            let q = parse(src).unwrap();
            let db = random_db(&q, rows, domain, seed);
            let oracle = MaterializedAccess::by_sum(&q, &db, |_, v| {
                v.as_int().map_or(0.0, |i| i as f64)
            });
            let handle =
                SelectionSumHandle::new(&q, &db.clone().freeze(), Weights::identity(), &FdSet::empty())
                    .unwrap();
            for k in 0..oracle.len().min(10) {
                let got = handle.select_once(k).expect("within bounds");
                prop_assert_eq!(got.0, TotalF64(oracle.weight_at(k).unwrap()), "k={} on {}", k, src);
                // The witness is a genuine answer.
                prop_assert!(all_answers(&q, &db).contains(&got.1), "witness on {}", src);
            }
            prop_assert!(handle.select_once(oracle.len()).is_none());
        }
    }

    /// The columnar SUM store against the materialize-and-sort oracle,
    /// answer for answer (both order by (weight, tuple), so the arrays
    /// must be identical), plus inverted-access round trips and
    /// non-answer rejection through the dictionary.
    #[test]
    fn sum_direct_access_matches_oracle(seed in 0u64..1_000_000, rows in 1usize..30, domain in 1i64..6) {
        let queries = [
            "Q(x, y) :- R(x, y)",
            "Q(x, y) :- R(x, y), S(y, z)",
            "Q(x) :- R(x, y), S(y)",
        ];
        for src in queries {
            let q = parse(src).unwrap();
            let db = random_db(&q, rows, domain, seed);
            let da = SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap();
            let oracle = MaterializedAccess::by_sum(&q, &db, |_, v| {
                v.as_int().map_or(0.0, |i| i as f64)
            });
            prop_assert_eq!(da.len(), oracle.len());
            for k in 0..da.len() {
                let (w, t) = da.access_weighted(k).unwrap();
                prop_assert_eq!(w, TotalF64(oracle.weight_at(k).unwrap()), "k={} on {}", k, src);
                let expect = oracle.access(k);
                prop_assert_eq!(Some(&t), expect.as_ref(), "k={} on {}", k, src);
                prop_assert_eq!(da.inverted_access(&t), Some(k), "k={} on {}", k, src);
            }
            // A value outside the answers' active domain is rejected by
            // the dictionary, not misranked.
            let absent: Tuple = (0..q.free().len()).map(|_| Value::int(domain + 7)).collect();
            prop_assert_eq!(da.inverted_access(&absent), None);
        }
    }

    #[test]
    fn ranked_enumeration_agrees_with_sum_order(seed in 0u64..1_000_000, rows in 1usize..20, domain in 1i64..5) {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = random_db(&q, rows, domain, seed);
        let oracle = MaterializedAccess::by_sum(&q, &db, |_, v| {
            v.as_int().map_or(0.0, |i| i as f64)
        });
        let e = RankedEnumerator::new(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64));
        let got: Vec<f64> = e.take(usize::MAX).into_iter().map(|(w, _)| w).collect();
        let expect: Vec<f64> = (0..oracle.len()).map(|k| oracle.weight_at(k).unwrap()).collect();
        prop_assert_eq!(got, expect);
    }
}

/// Every surface of the lex selection handle against the materialized
/// oracle, at every rank plus `len()` and one past it. Under a full
/// order the two arrays are equal; under a partial one the handle breaks
/// ties by its own completion, so the array must hold the same answers,
/// ascend on the requested prefix, and round-trip through
/// `inverted_access` (the rank scan when no head comparator is sound).
/// The oracle reads `db`, the value-level database `snap` was frozen
/// from, so an encoding bug cannot hide behind its own decode.
fn check_selection_lex(
    q: &Cq,
    db: &Database,
    snap: &Arc<Snapshot>,
    lex: &[VarId],
    fds: &FdSet,
    ctx: &str,
) {
    let oracle = MaterializedAccess::by_lex(q, db, lex);
    let handle = SelectionLexHandle::new(q, snap, lex.to_vec(), fds).unwrap();
    assert_eq!(handle.len(), oracle.len(), "len: {ctx}");
    let got: Vec<Tuple> = (0..handle.len())
        .map(|k| handle.select_once(k).expect("rank below len"))
        .collect();
    if lex.len() == q.free().len() {
        assert_eq!(got, oracle.answers(), "order: {ctx}");
    } else {
        let on_lex = |t: &Tuple| -> Vec<Value> {
            let pos = |v| q.free().iter().position(|f| f == v).unwrap();
            lex.iter().map(|v| t[pos(v)].clone()).collect()
        };
        assert!(
            got.windows(2).all(|w| on_lex(&w[0]) <= on_lex(&w[1])),
            "prefix order: {ctx}"
        );
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(sorted, all_answers(q, db), "answers: {ctx}");
    }
    for (k, t) in got.iter().enumerate() {
        assert_eq!(handle.inverted_access(t), Some(k as u64), "inverted: {ctx}");
    }
    assert_eq!(handle.select_once(handle.len()), None, "at len: {ctx}");
    assert_eq!(handle.access(handle.len() + 1), None, "past len: {ctx}");
    for probe in [-7, 0, 1] {
        let t: Tuple = q.free().iter().map(|_| Value::int(probe)).collect();
        if oracle.inverted_access(&t).is_none() {
            assert_eq!(handle.inverted_access(&t), None, "non-answer: {ctx}");
        }
        let wider: Tuple = t.iter().cloned().chain([Value::int(0)]).collect();
        assert_eq!(handle.inverted_access(&wider), None, "arity: {ctx}");
    }
}

/// The same for the SUM selection handle under identity weights: the raw
/// selection returns the oracle's weight at every rank with a witness
/// that is an answer of that weight, and the handle's (weight, tuple)
/// order is the oracle's array.
fn check_selection_sum(q: &Cq, db: &Database, snap: &Arc<Snapshot>, fds: &FdSet, ctx: &str) {
    let by_value = |_, v: &Value| v.as_int().map_or(0.0, |i| i as f64);
    let oracle = MaterializedAccess::by_sum(q, db, by_value);
    let handle = SelectionSumHandle::new(q, snap, Weights::identity(), fds).unwrap();
    assert_eq!(handle.len(), oracle.len(), "len: {ctx}");
    for k in 0..oracle.len() {
        let (w, witness) = handle.select_once(k).expect("rank below len");
        assert_eq!(w.0, oracle.weight_at(k).unwrap(), "weight at {k}: {ctx}");
        let at = oracle
            .inverted_access(&witness)
            .expect("witness is an answer");
        assert_eq!(oracle.weight_at(at), Some(w.0), "witness at {k}: {ctx}");
    }
    assert!(handle.select_once(oracle.len()).is_none(), "at len: {ctx}");
    // Inverted access on a handle of its own, last rank first: it meets
    // unique weights and plateaus on a handle that served no access.
    let inverse = SelectionSumHandle::new(q, snap, Weights::identity(), fds).unwrap();
    for k in (0..oracle.len()).rev() {
        let t = handle.access(k);
        assert_eq!(t, oracle.access(k), "access({k}): {ctx}");
        let t = t.unwrap();
        assert_eq!(inverse.inverted_access(&t), Some(k), "inverted: {ctx}");
    }
    assert_eq!(handle.access(oracle.len() + 1), None, "past len: {ctx}");
    for probe in [-7, 0, 1] {
        // A non-answer (or an answer) of some plateau's weight, and a
        // tuple of the wrong arity.
        let t: Tuple = q.free().iter().map(|_| Value::int(probe)).collect();
        let expect = oracle.inverted_access(&t);
        assert_eq!(inverse.inverted_access(&t), expect, "probe {probe}: {ctx}");
        assert_eq!(handle.inverted_access(&t), expect, "probe {probe}: {ctx}");
        let wider: Tuple = t.iter().cloned().chain([Value::int(0)]).collect();
        assert_eq!(handle.inverted_access(&wider), None, "arity: {ctx}");
    }
}

/// Queries for the code-space selections, with a lex order each (full
/// unless noted): a disruptive trio, a self-join, a repeated variable,
/// join keys of two and of five shared variables (ids folded over one
/// and over four extra columns), a cross product (the empty key), three atoms
/// (a node with two children), projections, a partial order, a Boolean
/// head. The last field says whether SUM selection is tractable too.
fn selection_catalog() -> Vec<(Cq, Vec<VarId>, bool)> {
    [
        ("Q(x, y, z) :- R(x, y), S(y, z)", &["x", "z", "y"][..], true),
        ("Q(x, y, z) :- E(x, y), E(y, z)", &["x", "z", "y"], true),
        ("Q(x, y, z) :- R(x, x, y), S(y, z)", &["x", "z", "y"], true),
        (
            "Q(a, b, c, d) :- R(a, b, c), S(b, c, d)",
            &["a", "d", "b", "c"],
            true,
        ),
        (
            "Q(a, b, c, d, e, f, g) :- R(a, b, c, d, e, f), S(b, c, d, e, f, g)",
            &["a", "g", "b", "c", "d", "e", "f"],
            true,
        ),
        ("Q(a, b) :- R(a), S(b)", &["b", "a"], true),
        (
            "Q(a, b, c) :- R(a, b), S(a, c), T(a)",
            &["b", "c", "a"],
            false,
        ),
        ("Q(x, y) :- R(x, y), S(y, z)", &["y", "x"], true),
        (
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, u)",
            &["x", "z", "y"],
            true,
        ),
        ("Q(x, y, z) :- R(x, y), S(y, z)", &["z"], true),
        ("Q() :- R(x, y), S(y, z)", &[], true),
    ]
    .into_iter()
    .map(|(src, lex, sum)| {
        let q = parse(src).unwrap();
        let lex = q.vars(lex);
        (q, lex, sum)
    })
    .collect()
}

/// The two FD examples of the paper over instances that satisfy them,
/// each under a full order and under the empty one (whose completion may
/// put a promoted variable before its determiner — the handle then has
/// no head comparator and inverts by scanning ranks).
fn fd_cases(rows: usize, domain: i64, seed: u64) -> Vec<(Cq, Vec<VarId>, FdSet, Database)> {
    let random = random_db(&parse("Q(x, y) :- T(x, y)").unwrap(), rows, domain, seed);
    let random = random.get("T").unwrap().tuples().to_vec();
    let func = |m: i64| -> Vec<Tuple> {
        (0..domain)
            .map(|u| {
                [Value::int(u), Value::int((u * m + 3) % domain)]
                    .into_iter()
                    .collect()
            })
            .collect()
    };
    let mut out = Vec::new();
    // Example 1.1: R: x → y promotes y; Example 8.3: S: y → z makes
    // Q(x, z) free-connex.
    for (src, fd, r, s) in [
        (
            "Q(x, z) :- R(x, y), S(y, z)",
            ("R", "x", "y"),
            func(31),
            random.clone(),
        ),
        (
            "Q(x, y, z) :- R(x, y), S(y, z)",
            ("R", "x", "y"),
            func(31),
            random.clone(),
        ),
        (
            "Q(x, z) :- R(x, y), S(y, z)",
            ("S", "y", "z"),
            random.clone(),
            func(13),
        ),
    ] {
        let q = parse(src).unwrap();
        let fds = FdSet::parse(&q, &[fd]);
        let db = Database::new()
            .with(Relation::from_tuples("R", 2, r))
            .with(Relation::from_tuples("S", 2, s));
        let mut full: Vec<VarId> = q.free().to_vec();
        full.reverse();
        out.push((q.clone(), full, fds.clone(), db.clone()));
        out.push((q, Vec::new(), fds, db));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn selection_handles_match_oracle_at_every_rank(seed in 0u64..1_000_000, rows in 1usize..14, domain in 1i64..4) {
        for (q, lex, sum) in selection_catalog() {
            let db = random_db(&q, rows, domain, seed);
            let snap = db.clone().freeze();
            let ctx = format!("{q} seed {seed} rows {rows} domain {domain}");
            check_selection_lex(&q, &db, &snap, &lex, &FdSet::empty(), &ctx);
            if sum {
                check_selection_sum(&q, &db, &snap, &FdSet::empty(), &ctx);
            }
        }
        for (q, lex, fds, db) in fd_cases(rows, domain + 1, seed) {
            let snap = db.clone().freeze();
            let ctx = format!("{q} under FDs, seed {seed} rows {rows} domain {domain}");
            check_selection_lex(&q, &db, &snap, &lex, &fds, &ctx);
            check_selection_sum(&q, &db, &snap, &fds, &ctx);
        }
    }
}

/// The inputs a random instance rarely produces: an empty join, codes
/// far above the row count (a dictionary a hundred times the relations),
/// and a join key of five variables that does hit.
#[test]
fn selection_handles_on_degenerate_and_sparse_inputs() {
    let two_path = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let trio = two_path.vars(&["x", "z", "y"]);
    let none = FdSet::empty();
    let empty_db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 100]])
        .with_i64_rows("S", 2, vec![vec![5, 3]]);
    let empty = empty_db.clone().freeze();
    check_selection_lex(&two_path, &empty_db, &empty, &trio, &none, "empty join");
    check_selection_sum(&two_path, &empty_db, &empty, &none, "empty join");
    let boolean = parse("Q() :- R(x, y), S(y, z)").unwrap();
    check_selection_lex(&boolean, &empty_db, &empty, &[], &none, "empty Boolean");
    check_selection_sum(&boolean, &empty_db, &empty, &none, "empty Boolean");

    let hi = 1_000_000;
    let sparse_db = Database::new()
        .with_i64_rows("Pad", 1, (0..2_000).map(|i| vec![i]).collect::<Vec<_>>())
        .with_i64_rows(
            "R",
            2,
            (0..20)
                .map(|i| vec![hi + i, hi + i % 4])
                .collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S",
            2,
            (0..20)
                .map(|i| vec![hi + i % 4, hi + 7 * i])
                .collect::<Vec<_>>(),
        );
    let sparse = sparse_db.clone().freeze();
    assert!(sparse.dict().len() > 50 * sparse.encoded("R").unwrap().len());
    check_selection_lex(&two_path, &sparse_db, &sparse, &trio, &none, "sparse codes");
    check_selection_sum(&two_path, &sparse_db, &sparse, &none, "sparse codes");

    let (wide, lex, _) = selection_catalog()
        .into_iter()
        .find(|(q, ..)| q.free().len() == 7)
        .expect("the catalog holds the seven-variable query");
    let row = |i: i64, last: i64| vec![i, i % 2, i % 3, 1, i % 2, last];
    let db = Database::new()
        .with_i64_rows("R", 6, (0..12).map(|i| row(i, i % 3)).collect::<Vec<_>>())
        .with_i64_rows(
            "S",
            6,
            (0..12)
                .map(|i| vec![i % 2, i % 3, 1, i % 2, i % 3, 10 + i])
                .collect::<Vec<_>>(),
        );
    assert!(!all_answers(&wide, &db).is_empty(), "the wide key hits");
    let snap = db.clone().freeze();
    check_selection_lex(&wide, &db, &snap, &lex, &none, "five-variable key");
    check_selection_sum(&wide, &db, &snap, &none, "five-variable key");
}

/// The handles read whatever encoding the snapshot holds: relations
/// shared from the parent generation under an extended dictionary,
/// relations gathered through a rebased one, and columns mapped from a
/// cold-opened store. Each generation is checked against a clone of
/// the value-level database taken when it was frozen.
#[test]
fn selection_handles_over_delta_generations_and_a_cold_open() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let trio = q.vars(&["x", "z", "y"]);
    let none = FdSet::empty();
    let t2 = |a: i64, b: i64| -> Tuple { [Value::int(a), Value::int(b)].into_iter().collect() };
    let mut db = Database::new()
        .with_i64_rows(
            "R",
            2,
            (0..12)
                .map(|i| vec![10 * i, 10 * (i % 3)])
                .collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S",
            2,
            (0..9)
                .map(|i| vec![10 * (i % 3), 10 * i + 100])
                .collect::<Vec<_>>(),
        );
    let snap0 = db.clone().freeze();
    db.clear_mutation_log();
    let code_of_100 = |s: &Snapshot| s.dict().code(&Value::int(100));

    // Extended: 500 sorts after every interned value; S is clean and
    // shared with the parent generation.
    db.insert_into("R", t2(500, 20));
    let db1 = db.clone();
    let snap1 = snap0.freeze_delta(&mut db);
    assert_eq!(
        code_of_100(&snap1),
        code_of_100(&snap0),
        "append-only extension"
    );
    assert!(Arc::ptr_eq(
        snap0.encoded_arc("S").unwrap(),
        snap1.encoded_arc("S").unwrap()
    ));
    // Rebased: 15 lands inside the domain; S is clean and remapped.
    db.insert_into("R", t2(15, 10));
    let db2 = db.clone();
    let snap2 = snap1.freeze_delta(&mut db);
    assert_ne!(
        code_of_100(&snap2),
        code_of_100(&snap1),
        "interior value rebases"
    );

    let dir = std::env::temp_dir().join(format!("rda-oracle-selection-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    SnapshotStore::create(&dir, &snap2).unwrap();
    let cold = SnapshotStore::open(&dir).unwrap().load().unwrap();
    for (source, snap, ctx) in [
        (&db1, &snap1, "extended"),
        (&db2, &snap2, "rebased"),
        (&db2, &cold, "cold-opened"),
    ] {
        check_selection_lex(&q, source, snap, &trio, &none, ctx);
        check_selection_sum(&q, source, snap, &none, ctx);
    }
    assert_eq!(cold.size(), db.size(), "the store holds the live data");
    drop(cold);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Selection counts in `u128` and refuses an answer count above
/// `u64::MAX` at construction, as `LexDirectAccess` does: a
/// trio-ordered 2-path crossed with eight unary relations of 256 values
/// has 2 · 256⁸ = 2⁶⁵ answers. (SUM selection has no such input: its
/// two atoms hold fewer than 2³² rows each.)
#[test]
fn selection_refuses_counts_beyond_u64() {
    let vars: Vec<String> = (0..8).map(|i| format!("u{i}")).collect();
    let atoms: Vec<String> = vars.iter().map(|v| format!("U({v})")).collect();
    let src = format!(
        "Q(x, y, z, {}) :- R(x, y), S(y, z), {}",
        vars.join(", "),
        atoms.join(", ")
    );
    let q = parse(&src).unwrap();
    let mut order = vec!["x", "z", "y"];
    order.extend(vars.iter().map(String::as_str));
    let lex = q.vars(&order);
    let unary = |n: i64| (0..n).map(|i| vec![i]).collect::<Vec<_>>();
    let db = |n: i64| {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 5]])
            .with_i64_rows("S", 2, vec![vec![5, 3]])
            .with_i64_rows("U", 1, unary(n))
            .freeze()
    };
    let err = SelectionLexHandle::new(&q, &db(256), lex.clone(), &FdSet::empty()).err();
    assert!(matches!(err, Some(BuildError::CountOverflow)), "{err:?}");
    let err = Engine::new(db(256))
        .prepare(
            &q,
            OrderSpec::Lex(lex.clone()),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap_err();
    assert!(
        matches!(err, PlanError::Build(BuildError::CountOverflow)),
        "{err:?}"
    );
    // One bit less fits: 2 · 128⁸ = 2⁵⁷ answers, the last one reachable.
    let handle = SelectionLexHandle::new(&q, &db(128), lex, &FdSet::empty()).unwrap();
    assert_eq!(handle.len(), 1 << 57);
    let last = handle.select_once(handle.len() - 1).unwrap();
    assert_eq!(last.values()[0], Value::int(6));
    assert!(last.values()[3..].iter().all(|v| *v == Value::int(127)));
    assert_eq!(handle.select_once(handle.len()), None);
}

/// SUM orders over weights IEEE 754 makes awkward: `-0.0` against
/// `0.0` (an all `-0.0` answer weighs `-0.0`), a NaN (above `+∞` in the
/// total order) and `+∞` — on even seeds the signed zeros alone, so
/// zero-weight plateaus are common. Selection (the 2-path), direct
/// access (one atom covers the head) and the materialized fallback (the
/// 3-path and the triangle) must serve exactly the materialized
/// oracle's (weight, tuple) order. Weights holding both `+∞` and `−∞`
/// make `∞ − ∞` a NaN: every NaN is one weight, so direct access and
/// the fallback rank those answers as the oracle does, in every build
/// profile. SUM selection refuses such weights typed: its pair sums
/// would not be monotone.
#[test]
fn sum_orders_rank_signed_zeros_nan_and_infinities_as_the_oracle() {
    use rand::{Rng, SeedableRng};
    let weights = [-0.0, 0.0, f64::NAN, f64::INFINITY, 1.0, -1.0, 2.5];
    let cases = [
        ("Q(x, y, z) :- R(x, y), S(y, z)", Backend::SelectionSum),
        ("Q(x, y) :- R(x, y), S(y, z)", Backend::SumDirectAccess),
        (
            "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
            Backend::Materialized,
        ),
        (
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
            Backend::Materialized,
        ),
    ];
    for seed in 0..40u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let pool = &weights[..if seed % 2 == 0 { 2 } else { weights.len() }];
        for (src, backend) in cases {
            let q = parse(src).unwrap();
            let db = random_db(&q, 12, 4, seed);
            let mut w = Weights::zero();
            for &v in q.free() {
                for val in 0..4 {
                    w.set(v, val, pool[rng.random_range(0..pool.len())]);
                }
            }
            let oracle = MaterializedAccess::by_sum(&q, &db, |v, val| w.get(v, val).0);
            let engine = Engine::new(db.clone().freeze());
            let policy = if backend.is_fallback() {
                Policy::Materialize
            } else {
                Policy::Reject
            };
            let plan = engine
                .prepare(&q, OrderSpec::sum(w.clone()), &FdSet::empty(), policy)
                .unwrap();
            assert_eq!(plan.backend(), backend, "{src}");
            conforms(
                &format!("{src}, seed {seed}"),
                plan.answers(),
                oracle.answers(),
                0,
            );

            w.set(q.free()[0], 0, f64::NEG_INFINITY);
            w.set(q.free()[1], 0, f64::INFINITY);
            let got = engine.prepare(&q, OrderSpec::sum(w.clone()), &FdSet::empty(), policy);
            if backend == Backend::SelectionSum {
                assert!(
                    matches!(got, Err(PlanError::Build(BuildError::InvalidOrder(_)))),
                    "{src}, seed {seed}: {got:?}"
                );
            } else {
                let plan = got.unwrap();
                let oracle = MaterializedAccess::by_sum(&q, &db, |v, val| w.get(v, val).0);
                conforms(
                    &format!("{src} ±inf, seed {seed}"),
                    plan.answers(),
                    oracle.answers(),
                    0,
                );
            }
        }
    }
}

/// Random-order enumeration (Section 1 / Carmeli et al. [15]): a uniform
/// permutation of indices plus direct access enumerates answers in
/// provably uniform random order, without replacement.
/// The value-keyed searches of Algorithm 2 and Remark 3 binary-search
/// a bucket's sorted value run, bracketed like the rank search. Buckets
/// on both sides of the rank-directory threshold (16 entries) and up
/// to thousands of entries wide are probed with present values, absent
/// values between two codes, and values below and above the run, and
/// diffed against the materialized answers.
#[test]
fn lex_value_searches_match_oracle_across_bucket_widths() {
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let widths = [15i64, 16, 17, 255, 4096];
    // Bucket `x` holds the even values 10, 12, …: every odd value in
    // between is absent from the dictionary.
    let rows: Vec<Vec<i64>> = widths
        .iter()
        .enumerate()
        .flat_map(|(x, &w)| (0..w).map(move |j| vec![x as i64, 10 + 2 * j]))
        .collect();
    let db = Database::new().with_i64_rows("R", 2, rows);
    let lex = q.vars(&["x", "y"]);
    let da = LexDirectAccess::build_on(&q, &db.clone().freeze(), &lex, &FdSet::empty()).unwrap();
    let oracle = MaterializedAccess::by_lex(&q, &db, &lex);
    assert_eq!(da.len(), oracle.len());
    let answers = oracle.answers();
    for (x, &w) in widths.iter().enumerate() {
        // Below the run, every present value with its absent upper
        // neighbour, and far above the run.
        let ys = [0, 9].into_iter().chain(10..=10 + 2 * w).chain([i64::MAX]);
        for y in ys {
            let probe: Tuple = [Value::int(x as i64), Value::int(y)].into_iter().collect();
            let ctx = format!("width {w}, y = {y}");
            let before = answers.partition_point(|a| a < &probe) as u64;
            assert_eq!(
                da.inverted_access(&probe),
                oracle.inverted_access(&probe),
                "{ctx}"
            );
            assert_eq!(da.rank_of_lower_bound(&probe), Some(before), "{ctx}");
            let next = answers.get(before as usize).map(|t| (before, t.clone()));
            assert_eq!(da.next_at_or_after(&probe), next, "{ctx}");
        }
    }
}

#[test]
fn random_permutation_enumeration_is_complete() {
    use ranked_access::rda_core::RandomOrderEnumerator;
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = random_db(&q, 40, 7, 42);
    let plan = Engine::new(db.clone().freeze())
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let mut seen: Vec<Tuple> = RandomOrderEnumerator::new(&*plan, rand::rng()).collect();
    seen.sort();
    let mut expect = all_answers(&q, &db);
    expect.sort();
    assert_eq!(seen, expect);
}
