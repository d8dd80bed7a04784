//! The Engine/AccessPlan facade, property-tested end to end: for every
//! backend reachable through `Engine::prepare` — native lex/sum direct
//! access, both lazy selection handles, the materialize fallback, and
//! the ranked-enumeration fallback — `access(k)` / `inverted_access`
//! must round-trip, bounds must be respected, and routing must agree
//! with the classifier.

use proptest::prelude::*;
use ranked_access::prelude::*;

/// Fill every relation a query mentions with random rows over a small
/// domain (forcing join hits).
fn random_db(q: &Cq, rows: usize, domain: i64, seed: u64) -> Database {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    let mut seen = std::collections::HashSet::new();
    for atom in q.atoms() {
        if !seen.insert(atom.relation.clone()) {
            continue; // self-join: one relation per symbol
        }
        let arity = atom.terms.len();
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| Value::int(rng.random_range(0..domain)))
                    .collect()
            })
            .collect();
        db.add(Relation::from_tuples(&atom.relation, arity, tuples));
    }
    db
}

/// One scenario per backend: (query, order factory, policy, expected
/// backend). Spans all six `Backend` variants.
fn backend_catalog() -> Vec<(&'static str, Vec<&'static str>, bool, Policy, Backend)> {
    // (query, lex order or empty-for-sum, is_sum, policy, backend)
    vec![
        (
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec!["x", "y", "z"],
            false,
            Policy::Reject,
            Backend::LexDirectAccess,
        ),
        (
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec!["x", "z", "y"],
            false,
            Policy::Reject,
            Backend::SelectionLex,
        ),
        (
            "Q(x, y) :- R(x, y), S(y, z)",
            vec![],
            true,
            Policy::Reject,
            Backend::SumDirectAccess,
        ),
        (
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec![],
            true,
            Policy::Reject,
            Backend::SelectionSum,
        ),
        (
            "Q(x, z) :- R(x, y), S(y, z)",
            vec!["x", "z"],
            false,
            Policy::Materialize,
            Backend::Materialized,
        ),
        (
            "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
            vec![],
            true,
            Policy::RankedEnum,
            Backend::RankedEnum,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `access(k)` → `inverted_access` round-trips to `k` for every
    /// backend behind the `DirectAccess` trait, and out-of-bound /
    /// not-an-answer probes are rejected.
    #[test]
    fn access_inverted_access_round_trip(seed in 0u64..1_000_000, rows in 1usize..20, domain in 1i64..6) {
        for (src, lex, is_sum, policy, backend) in backend_catalog() {
            let q = parse(src).unwrap();
            let db = random_db(&q, rows, domain, seed);
            let spec = if is_sum {
                OrderSpec::sum_by_value()
            } else {
                OrderSpec::lex(&q, &lex)
            };
            let plan = Engine::new(db.clone().freeze()).prepare(&q, spec, &FdSet::empty(), policy).unwrap();
            prop_assert_eq!(plan.backend(), backend, "{}", src);

            let n = plan.len();
            prop_assert_eq!(n == 0, plan.is_empty());
            for k in 0..n {
                let t = plan.access(k).unwrap();
                prop_assert_eq!(
                    plan.inverted_access(&t),
                    Some(k),
                    "backend {} on {} k={}", backend, src, k
                );
            }
            // Out-of-bound access is None.
            prop_assert_eq!(plan.access(n), None, "backend {} on {}", backend, src);
            // A tuple outside every domain is not an answer.
            let absent: Tuple = q.free().iter().map(|_| Value::int(domain + 99)).collect();
            if !q.free().is_empty() {
                prop_assert_eq!(plan.inverted_access(&absent), None, "backend {}", backend);
            }
            // iter() agrees with repeated access and is sorted per the
            // backend's order (spot-check adjacent pairs through the
            // plan itself).
            let via_iter: Vec<Tuple> = plan.iter().collect();
            let via_access: Vec<Tuple> = (0..n).map(|k| plan.access(k).unwrap()).collect();
            prop_assert_eq!(&via_iter, &via_access, "backend {}", backend);
            // access_range() is the matching slice.
            if n >= 2 {
                prop_assert_eq!(
                    plan.access_range(1..n),
                    via_access[1..].to_vec(),
                    "backend {}", backend
                );
            }
        }
    }

    /// All backends agree with the materialize-and-sort oracle on the
    /// *answer set* (orders differ; sets must not).
    #[test]
    fn every_backend_serves_exactly_the_answer_set(seed in 0u64..1_000_000, rows in 1usize..15, domain in 1i64..5) {
        for (src, lex, is_sum, policy, _) in backend_catalog() {
            let q = parse(src).unwrap();
            let db = random_db(&q, rows, domain, seed);
            let spec = if is_sum {
                OrderSpec::sum_by_value()
            } else {
                OrderSpec::lex(&q, &lex)
            };
            let plan = Engine::new(db.clone().freeze()).prepare(&q, spec, &FdSet::empty(), policy).unwrap();
            let mut got: Vec<Tuple> = plan.iter().collect();
            got.sort();
            got.dedup();
            let expect = all_answers(&q, &db);
            prop_assert_eq!(got, expect, "{}", src);
        }
    }

    /// Routing invariant on random instances: `Engine::prepare` with
    /// `Policy::Reject` succeeds exactly when the classifier puts the
    /// pair inside a tractable region, and native backends appear
    /// exactly on direct-access-tractable orders.
    #[test]
    fn routing_agrees_with_classifier(seed in 0u64..1_000_000, rows in 1usize..10) {
        let catalog = [
            ("Q(x, y, z) :- R(x, y), S(y, z)", vec!["x", "y", "z"]),
            ("Q(x, y, z) :- R(x, y), S(y, z)", vec!["x", "z", "y"]),
            ("Q(x, y, z) :- R(x, y), S(y, z)", vec!["x", "z"]),
            ("Q(x, z) :- R(x, y), S(y, z)", vec!["x", "z"]),
            ("Q(x, y) :- R(x, y), S(y, z)", vec!["x", "y"]),
            ("Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)", vec!["v1", "v2", "v3", "v4"]),
            ("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)", vec!["x", "y", "z"]),
        ];
        for (src, lex) in catalog {
            let q = parse(src).unwrap();
            let db = random_db(&q, rows, 4, seed);
            let l = q.vars(&lex);
            let da_v = classify(&q, &FdSet::empty(), &Problem::DirectAccessLex(l.clone()));
            let sel_v = classify(&q, &FdSet::empty(), &Problem::SelectionLex(l.clone()));
            match Engine::new(db.clone().freeze()).prepare(&q, OrderSpec::Lex(l), &FdSet::empty(), Policy::Reject) {
                Ok(plan) => {
                    prop_assert!(da_v.is_tractable() || sel_v.is_tractable(), "{}", src);
                    prop_assert_eq!(
                        plan.backend() == Backend::LexDirectAccess,
                        da_v.is_tractable(),
                        "{}", src
                    );
                    prop_assert_eq!(plan.explain().verdict(), &da_v, "{}", src);
                }
                Err(e) => {
                    prop_assert!(!da_v.is_tractable() && !sel_v.is_tractable(), "{}", src);
                    prop_assert!(
                        matches!(e, PlanError::Intractable { .. }),
                        "{} -> {:?}", src, e
                    );
                }
            }
        }
    }

    /// The selection-backed lex handle must produce exactly the same
    /// sequence as the native structure does on a tractable order that
    /// completes to the same internal order (cross-backend agreement on
    /// the shared prefix semantics).
    #[test]
    fn selection_handle_orders_by_requested_prefix(seed in 0u64..1_000_000, rows in 1usize..15) {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let db = random_db(&q, rows, 4, seed);
        let plan = Engine::new(db.clone().freeze()).prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z", "y"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
        prop_assert_eq!(plan.backend(), Backend::SelectionLex);
        // Answers must be non-decreasing on the requested (x, z, y) key.
        let answers: Vec<Tuple> = plan.iter().collect();
        for w in answers.windows(2) {
            let ka = (w[0][0].clone(), w[0][2].clone(), w[0][1].clone());
            let kb = (w[1][0].clone(), w[1][2].clone(), w[1][1].clone());
            prop_assert!(ka <= kb, "{} !<= {} on (x, z, y)", w[0], w[1]);
        }
        // And the set matches the oracle.
        let mut got = answers.clone();
        got.sort();
        prop_assert_eq!(got, all_answers(&q, &db));
    }
}

/// The explain report names verdict, witness, and backend for a
/// tractable, a selection-only, and a fallback query (the acceptance
/// scenario of the facade).
#[test]
fn explain_covers_all_three_regimes() {
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
        .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);

    // Tractable: native backend, no witness.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plan = Engine::new(db.clone().freeze())
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let report = plan.explain().to_string();
    assert!(report.contains("tractable"), "{report}");
    assert!(report.contains("lex-direct-access"), "{report}");
    assert!(plan.explain().witness().is_none());
    // Native builds report what they paid: every phase ran, and the
    // arena figures describe the structure that serves the 5 answers.
    let cost = plan.explain().build_cost().expect("native build");
    assert!(cost.total_ns() > 0 && cost.dp_ns > 0, "{cost:?}");
    assert!(
        cost.arena_entries >= 5 && cost.arena_bytes >= 16 * cost.arena_entries,
        "{cost:?}"
    );
    assert!(
        report.contains("build:") && report.contains("dp "),
        "{report}"
    );
    let sum = Engine::new(db.clone().freeze())
        .prepare(
            &parse("Q(x, y) :- R(x, y), S(y, z)").unwrap(),
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(sum.explain().build_cost().unwrap().arena_entries, sum.len());

    // Selection-only: disruptive-trio witness, selection backend.
    let plan = Engine::new(db.clone().freeze())
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z", "y"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let report = plan.explain().to_string();
    assert!(report.contains("disruptive trio (x, z, y)"), "{report}");
    assert!(report.contains("selection-lex"), "{report}");
    // Selection handles report what their constructor paid and what
    // they hold: the reduced instance (all 3 + 4 rows join), no layers,
    // no sort; `dp` is the one counting pass behind `len()`.
    let cost = plan.explain().build_cost().expect("prepared instance");
    assert!(
        cost.prep_ns > 0 && cost.reduce_ns > 0 && cost.dp_ns > 0,
        "{cost:?}"
    );
    assert_eq!((cost.layers_ns, cost.sort_ns), (0, 0), "{cost:?}");
    assert_eq!((cost.arena_entries, cost.arena_bytes), (7, 56), "{cost:?}");
    assert!(report.contains("build:") && report.contains("7 entries"));
    // SUM selection: the same rows, bucketed and weight-sorted (`sort`).
    let sum = Engine::new(db.clone().freeze())
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(sum.backend(), Backend::SelectionSum);
    let cost = sum.explain().build_cost().expect("prepared instance");
    assert!(cost.reduce_ns > 0 && cost.sort_ns > 0, "{cost:?}");
    assert_eq!((cost.layers_ns, cost.dp_ns), (0, 0), "{cost:?}");
    assert_eq!((cost.arena_entries, cost.arena_bytes), (7, 56), "{cost:?}");

    // Fallback: free-path witness, materialized backend.
    let qp = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let plan = Engine::new(db.clone().freeze())
        .prepare(
            &qp,
            OrderSpec::lex(&qp, &["x", "z"]),
            &FdSet::empty(),
            Policy::Materialize,
        )
        .unwrap();
    let report = plan.explain().to_string();
    assert!(report.contains("not free-connex"), "{report}");
    assert!(report.contains("materialized"), "{report}");
    assert!(plan.backend().is_fallback());
}
