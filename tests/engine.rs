//! The Engine/AccessPlan facade, property-tested end to end: for every
//! backend reachable through `Engine::prepare` — native lex/sum direct
//! access, both lazy selection handles and the materialize fallback —
//! `access(k)` / `inverted_access` must round-trip, bounds must be
//! respected, and routing must agree with the classifier.

#[allow(dead_code)]
mod common;

use common::{backend_catalog, conforms, random_db};
use proptest::prelude::*;
use ranked_access::prelude::*;
use ranked_access::rda_baseline::all_answers;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every backend behind the `DirectAccess` trait serves its
    /// scenario's oracle on the whole access surface: `access(k)` →
    /// `inverted_access` round-trips, out-of-bound and not-an-answer
    /// probes miss, windows, batches and streams agree.
    #[test]
    fn access_inverted_access_round_trip(seed in 0u64..1_000_000, rows in 1usize..20, domain in 1i64..6) {
        for sc in backend_catalog() {
            let q = sc.query();
            let db = random_db(&q, rows, domain, seed);
            if let Some(plan) = sc.prepare(&Engine::new(db.clone().freeze()), &q) {
                conforms(sc.src, plan.answers(), sc.oracle(&q, &db).answers(), 0);
            }
        }
    }

    /// All backends agree with the materialize-and-sort oracle on the
    /// *answer set* (orders differ; sets must not).
    #[test]
    fn every_backend_serves_exactly_the_answer_set(seed in 0u64..1_000_000, rows in 1usize..15, domain in 1i64..5) {
        for sc in backend_catalog() {
            let q = sc.query();
            let db = random_db(&q, rows, domain, seed);
            let Some(plan) = sc.prepare(&Engine::new(db.clone().freeze()), &q) else {
                continue;
            };
            let mut got: Vec<Tuple> = plan.iter().collect();
            got.sort();
            got.dedup();
            prop_assert_eq!(got, all_answers(&q, &db), "{}", sc.src);
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
    let cost = plan.explain().build_cost();
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
    assert_eq!(sum.explain().build_cost().arena_entries, sum.len());

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
    let cost = plan.explain().build_cost();
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
    let cost = sum.explain().build_cost();
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
    // The fallback reports its build too: one entry per answer.
    assert_eq!(plan.explain().build_cost().arena_entries, plan.len());
    assert!(report.contains("build:"), "{report}");
}
