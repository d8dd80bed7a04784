//! Differential tests for the ranked window & batch layer: on every
//! backend, `access_range(lo..hi)` must equal the sequence of
//! `access(k)` results (including empty, full-span, inverted, and
//! out-of-bounds windows), the `*_into` variants must agree with their
//! owned twins, and `iter()` must enumerate exactly the answer
//! sequence. One generic check holds every provided `DirectAccess`
//! method to its definition over the five core methods, on every
//! backend.

#[allow(dead_code)]
mod common;

use common::{conforms, positional_weights, three_path_db, two_path_db, CountingAccess};
use ranked_access::prelude::*;
use std::sync::Arc;

fn ident(_: VarId, v: &Value) -> f64 {
    v.as_int().map_or(0.0, |i| i as f64)
}

/// The windowed contract: every window, batch, page and stream shape
/// equals repeated single access (the shared full-surface check, with
/// the plan's own `access` as its oracle), and so does one buffer
/// reused across a paged scan.
fn assert_windows(label: &str, plan: &AccessPlan) {
    let singles: Vec<Tuple> = (0..plan.len()).map_while(|k| plan.access(k)).collect();
    conforms(label, plan.answers(), &singles, 0);
    let (len, all) = (plan.len(), singles.as_slice());
    assert_eq!(plan.access_range(1..len + 9), all[len.min(1) as usize..]);
    let mut buf = WindowBuf::new();
    let mut paged: Vec<Tuple> = Vec::new();
    while plan.access_range_into(paged.len() as u64..paged.len() as u64 + 7, &mut buf) > 0 {
        paged.extend(buf.to_tuples());
    }
    assert_eq!(paged, singles, "{label}: paged scan");
}

/// `src` over `db`, ordered by `lex` (by value sums when empty) under
/// `policy`; it must route to `backend`.
fn plan(
    db: Database,
    src: &str,
    lex: &[&str],
    policy: Policy,
    backend: Backend,
) -> Arc<AccessPlan> {
    let q = parse(src).unwrap();
    let spec = match lex {
        [] => OrderSpec::sum_by_value(),
        _ => OrderSpec::lex(&q, lex),
    };
    let plan = Engine::new(db.freeze()).prepare(&q, spec, &FdSet::empty(), policy);
    let plan = plan.unwrap();
    assert_eq!(plan.backend(), backend, "{src}");
    plan
}

#[test]
fn windows_on_native_lex_direct_access() {
    let (q, xyz) = ("Q(x, y, z) :- R(x, y), S(y, z)", ["x", "y", "z"]);
    let plan = plan(
        two_path_db(),
        q,
        &xyz,
        Policy::Reject,
        Backend::LexDirectAccess,
    );
    assert!(plan.len() > 300, "workload big enough to page through");
    assert_windows("lex-da", &plan);
}

#[test]
fn windows_on_partial_order_and_product_shape() {
    // A branching layered tree (cartesian product) and a partial order:
    // the walk's carry logic must hold beyond chain-shaped trees.
    let q = parse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..25).map(|i| vec![i % 9, i]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..25).map(|j| vec![j % 8, j]).collect::<Vec<_>>());
    let engine = Engine::new(db.freeze());
    for order in [
        vec!["v1", "v2", "v3", "v4"],
        vec!["v2", "v1", "v4", "v3"],
        vec!["v3", "v1"],
    ] {
        let plan = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &order),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::LexDirectAccess);
        assert_eq!(plan.len(), 625);
        assert_windows(&format!("lex-da product {order:?}"), &plan);
    }

    // A star query whose layered tree genuinely branches: the root
    // layer has two children, so the walk's carry must re-derive
    // sibling buckets, not just a chain suffix.
    let qs = parse("Q(a, b, c) :- R(a, b), T(a, c)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..40).map(|i| vec![i % 6, i]).collect::<Vec<_>>())
        .with_i64_rows("T", 2, (0..40).map(|j| vec![j % 6, j]).collect::<Vec<_>>());
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &qs,
            OrderSpec::lex(&qs, &["a", "b", "c"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert!(plan.len() > 250, "star join big enough to page");
    assert_windows("lex-da star", &plan);
}

#[test]
fn windows_on_native_sum_direct_access() {
    let (db, q) = (two_path_db(), "Q(x, y) :- R(x, y), S(y, z)");
    let plan = plan(db, q, &[], Policy::Reject, Backend::SumDirectAccess);
    assert_windows("sum-da", &plan);
}

#[test]
fn windows_on_selection_lex() {
    // Small instance: selection pays O(n) per access and the contract
    // check runs many singles.
    let db = Database::new()
        .with_i64_rows("R", 2, (0..12).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..12).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let (q, xzy) = ("Q(x, y, z) :- R(x, y), S(y, z)", ["x", "z", "y"]);
    let plan = plan(db, q, &xzy, Policy::Reject, Backend::SelectionLex);
    assert_windows("selection-lex", &plan);
}

#[test]
fn windows_on_selection_sum() {
    let db = Database::new()
        .with_i64_rows("R", 2, (0..10).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..10).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let q = "Q(x, y, z) :- R(x, y), S(y, z)";
    let plan = plan(db, q, &[], Policy::Reject, Backend::SelectionSum);
    assert_windows("selection-sum", &plan);
}

#[test]
fn windows_on_materialized_fallback() {
    let (db, q) = (two_path_db(), "Q(x, z) :- R(x, y), S(y, z)");
    let plan = plan(
        db,
        q,
        &["x", "z"],
        Policy::Materialize,
        Backend::Materialized,
    );
    assert_windows("materialized", &plan);
}

#[test]
fn windows_on_boolean_and_empty_plans() {
    let q = parse("Q() :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(two_path_db().freeze());
    let plan = engine
        .prepare(&q, OrderSpec::Lex(vec![]), &FdSet::empty(), Policy::Reject)
        .unwrap();
    assert_eq!(plan.len(), 1);
    assert_eq!(plan.access_range(0..5), vec![Tuple::new(vec![])]);
    let mut buf = WindowBuf::new();
    assert_eq!(plan.access_range_into(0..5, &mut buf), 1);
    assert_eq!(buf.arity(), 0);
    assert_eq!(buf.to_tuples(), vec![Tuple::new(vec![])]);
    assert_windows("boolean", &plan);

    let qf = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let empty = Engine::new(
        Database::new()
            .with_i64_rows("R", 2, vec![])
            .with_i64_rows("S", 2, vec![])
            .freeze(),
    );
    for spec in [
        OrderSpec::lex(&qf, &["x", "y", "z"]),
        OrderSpec::sum_by_value(),
    ] {
        let plan = empty
            .prepare(&qf, spec, &FdSet::empty(), Policy::Reject)
            .unwrap();
        assert!(plan.is_empty());
        assert!(plan.access_range(0..10).is_empty());
        assert_eq!(plan.iter().count(), 0);
        assert_windows("empty", &plan);
    }
}

#[test]
fn windows_under_fds_walk_the_reordered_arena() {
    // Example 1.1's FD-rescued order: the internal order contains a
    // promoted variable, so the walk decodes head positions out of
    // arena order.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let fds = FdSet::parse(&q, &[("R", "x", "y")]);
    let db = Database::new()
        .with_i64_rows("R", 2, (0..30).map(|i| vec![i, i % 5]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..30).map(|j| vec![j % 5, j]).collect::<Vec<_>>());
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z", "y"]),
            &fds,
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert!(plan.len() > 100);
    assert_windows("lex-da under FDs", &plan);
}

#[test]
fn selection_sum_windows_stay_lazy_on_distinct_weights() {
    // Distinct answer weights (positional encoding): every window is
    // the interval between two selected weights, each plateau one
    // answer wide, and every page equals the oracle's slice.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..10).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..10).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let mut w = Weights::zero();
    for val in 0..10 {
        w.set(q.var("x").unwrap(), val, val as f64 * 10_000.0);
        w.set(q.var("y").unwrap(), val, val as f64 * 100.0);
        w.set(q.var("z").unwrap(), val, val as f64);
    }
    let oracle = MaterializedAccess::by_sum(&q, &db, |v, val| w.get(v, val).0);
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(&q, OrderSpec::sum(w), &FdSet::empty(), Policy::Reject)
        .unwrap();
    assert_eq!(plan.backend(), Backend::SelectionSum);
    let want = oracle.answers();
    let len = plan.len() as usize;
    assert_eq!(len, want.len());
    for offset in [0, 2, len / 2, len - 5] {
        let page = plan.access_range(offset as u64..offset as u64 + 5);
        assert_eq!(page, want[offset..offset + 5], "page at {offset}");
    }
}

/// `iter().skip(k)` resumes a ranked scan at rank `k` with one window
/// fetch, not k steps, on a native and a selection backend; a step
/// within the fetched batch fetches nothing.
#[test]
fn iter_skip_jumps_to_its_rank_with_one_window_fetch() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let r: Vec<Vec<i64>> = (0..400i64).map(|i| vec![i, i % 40]).collect();
    let s: Vec<Vec<i64>> = (0..160i64).map(|j| vec![j % 40, j]).collect();
    let db = Database::new()
        .with_i64_rows("R", 2, r)
        .with_i64_rows("S", 2, s);
    let engine = Engine::new(db.freeze());
    let prepare = |order: &[&str]| {
        let spec = OrderSpec::lex(&q, order);
        engine.prepare(&q, spec, &FdSet::empty(), Policy::Reject)
    };
    let plans = [
        (prepare(&["x", "y", "z"]), Backend::LexDirectAccess),
        (prepare(&["x", "z", "y"]), Backend::SelectionLex),
    ];
    for (plan, backend) in plans {
        let plan = plan.unwrap();
        let len = plan.len();
        assert_eq!(plan.backend(), backend);
        assert_eq!(len, 1600, "{backend}");
        for k in [1000, len / 2 + 7, len - 1, len, len + 5] {
            let counted = CountingAccess::new(&*plan);
            let mut rest = counted.iter().skip(k as usize);
            assert_eq!(rest.next(), plan.access(k), "{backend}: rank {k}");
            assert_eq!(
                counted.windows.get(),
                1,
                "{backend}: skip({k}) fetches once"
            );
        }
        let counted = CountingAccess::new(&*plan);
        let mut s = counted.iter();
        assert_eq!(s.nth(1000), plan.access(1000), "{backend}");
        assert_eq!(s.nth(9), plan.access(1010), "{backend}");
        assert_eq!(s.position(), 1011, "{backend}");
        assert_eq!(
            counted.windows.get(),
            1,
            "{backend}: a step within the batch"
        );
    }
}

#[test]
fn provided_methods_conform_on_every_backend() {
    let db = Database::new()
        .with_i64_rows("R", 2, (0..12).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..12).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let snap = db.clone().freeze();
    let no_fds = FdSet::empty();
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let xyz = q.vars(&["x", "y", "z"]);
    let by_xyz = MaterializedAccess::by_lex(&q, &db, &xyz);

    let lex = RankedAnswers::Lex(LexDirectAccess::build_on(&q, &snap, &xyz, &no_fds).unwrap());
    conforms("lex", &lex, by_xyz.answers(), 8);

    let qcov = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let sum = SumDirectAccess::build_on(&qcov, &snap, &Weights::identity(), &no_fds).unwrap();
    conforms(
        "sum",
        &RankedAnswers::Sum(sum),
        MaterializedAccess::by_sum(&qcov, &db, ident).answers(),
        8,
    );

    let xzy = q.vars(&["x", "z", "y"]);
    let handle = SelectionLexHandle::new(&q, &snap, xzy.clone(), &no_fds).unwrap();
    conforms(
        "selection-lex",
        &RankedAnswers::SelectionLex(handle),
        MaterializedAccess::by_lex(&q, &db, &xzy).answers(),
        8,
    );

    // Distinct weights: every plateau is one answer wide.
    let w = positional_weights(&q.vars(&["x", "y", "z"]));
    let by_w = MaterializedAccess::by_sum(&q, &db, |v, val| w.get(v, val).0);
    let handle = SelectionSumHandle::new(&q, &snap, w, &no_fds).unwrap();
    conforms(
        "selection-sum",
        &RankedAnswers::SelectionSum(handle),
        by_w.answers(),
        8,
    );

    // Identity weights: integer sums tie, so windows, inverted access
    // and the stream all cross plateaus of several answers.
    let by_value = MaterializedAccess::by_sum(&q, &db, ident);
    let handle = SelectionSumHandle::new(&q, &snap, Weights::identity(), &no_fds).unwrap();
    assert!(
        (0..by_value.len() - 1).any(|k| by_value.weight_at(k) == by_value.weight_at(k + 1)),
        "the instance ties"
    );
    conforms(
        "selection-sum ties",
        &RankedAnswers::SelectionSum(handle),
        by_value.answers(),
        8,
    );

    // The fallback's LEX orders: the whole head and a prefix of it (rows
    // already in order), and an order against the head's.
    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    for names in [&["x", "z"][..], &["x"], &["z", "x"]] {
        let lex = qproj.vars(names);
        let plan = Engine::new(Arc::clone(&snap))
            .prepare(
                &qproj,
                OrderSpec::Lex(lex.clone()),
                &no_fds,
                Policy::Materialize,
            )
            .unwrap();
        assert_eq!(plan.backend(), Backend::Materialized);
        conforms(
            &format!("materialized {names:?}"),
            plan.answers(),
            MaterializedAccess::by_lex(&qproj, &db, &lex).answers(),
            8,
        );
    }

    // The SUM fallback, through the plan facade: the 3-path (fmh = 3)
    // is outside both tractable regions.
    let q3 = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let db3 = three_path_db();
    let w = positional_weights(&q3.vars(&["x", "y", "z", "u"]));
    let by_w = MaterializedAccess::by_sum(&q3, &db3, |v, val| w.get(v, val).0);
    let plan = Engine::new(db3.freeze())
        .prepare(&q3, OrderSpec::sum(w), &no_fds, Policy::Materialize)
        .unwrap();
    assert_eq!(plan.backend(), Backend::Materialized);
    conforms("materialized by sum", plan.answers(), by_w.answers(), 8);
}
