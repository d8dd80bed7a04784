//! Differential tests for the ranked window & batch layer: on every
//! backend, `access_range(lo..hi)` must equal the sequence of
//! `access(k)` results (including empty, full-span, inverted, and
//! out-of-bounds windows), the `*_into` variants must agree with their
//! owned twins, `stream()` must enumerate exactly the answer sequence,
//! and the lazy ranked-enumeration path must match the any-k baseline
//! oracle prefix-for-prefix without materializing the answer set. One
//! generic check holds every provided `DirectAccess` method to its
//! definition over the five core methods, on all seven backends.

use ranked_access::prelude::*;
use ranked_access::rda_db::Value;
use ranked_access::rda_query::VarId;
use std::ops::Range;

fn ident(_: VarId, v: &Value) -> f64 {
    v.as_int().map_or(0.0, |i| i as f64)
}

/// A 2-path instance with a few hundred answers.
fn two_path_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..60).map(|i| vec![i, i % 7]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..60).map(|j| vec![j % 7, j]).collect::<Vec<_>>())
}

/// A 3-path instance (fmh = 3: the any-k fallback territory) with a
/// few thousand answers.
fn three_path_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..40).map(|i| vec![i, i % 4]).collect::<Vec<_>>())
        .with_i64_rows(
            "S",
            2,
            (0..20).map(|j| vec![j % 4, j % 5]).collect::<Vec<_>>(),
        )
        .with_i64_rows("T", 2, (0..40).map(|k| vec![k % 5, k]).collect::<Vec<_>>())
}

/// The windowed contract, checked against repeated single access: every
/// window shape — empty, full-span, clamped, inverted, fully
/// out-of-bounds — plus `top_k` / `page`, the `*_into` twins, and the
/// stream, on one prepared plan.
fn assert_windows(label: &str, plan: &AccessPlan) {
    let len = plan.len();
    let singles =
        |lo: u64, hi: u64| -> Vec<Tuple> { (lo..hi).map_while(|k| plan.access(k)).collect() };

    let windows: Vec<(u64, u64)> = vec![
        (0, 0),                           // empty at the start
        (len, len),                       // empty at the end
        (0, len),                         // full span
        (0, len + 100),                   // clamped full span
        (len, len + 5),                   // entirely out of bounds
        (len + 3, len + 7),               // far out of bounds
        (len.saturating_sub(1), len + 5), // straddling the end
        (0, 1),
        (len / 2, len / 2 + 7),
        (len / 3, (2 * len) / 3),
        (7, 3), // inverted ⇒ empty
    ];
    for &(lo, hi) in &windows {
        let expect = singles(lo, hi);
        assert_eq!(
            plan.access_range(lo..hi),
            expect,
            "{label}: access_range({lo}..{hi})"
        );
        let mut buf = WindowBuf::new();
        let n = plan.window_into(lo..hi, &mut buf);
        assert_eq!(n as usize, expect.len(), "{label}: window_into({lo}..{hi})");
        assert_eq!(buf.len(), expect.len(), "{label}: buffer rows");
        assert_eq!(
            buf.to_tuples(),
            expect,
            "{label}: window_into({lo}..{hi}) rows"
        );
        assert_eq!(
            plan.window(lo..hi).to_tuples(),
            expect,
            "{label}: window({lo}..{hi})"
        );
    }

    // One buffer across many pages: reuse must not leak rows between
    // fills.
    let mut buf = WindowBuf::new();
    let mut paged: Vec<Tuple> = Vec::new();
    let page = 7u64;
    let mut offset = 0u64;
    loop {
        let n = plan.window_into(offset..offset + page, &mut buf);
        paged.extend(buf.to_tuples());
        offset += n;
        if n < page {
            break;
        }
    }
    assert_eq!(paged, singles(0, len), "{label}: paged scan");

    assert_eq!(plan.top_k(3), singles(0, 3), "{label}: top_k");
    assert_eq!(
        plan.top_k(len + 10),
        singles(0, len),
        "{label}: top_k clamp"
    );
    assert_eq!(plan.page(2, 4), singles(2, 6), "{label}: page");
    assert_eq!(
        plan.page(len.saturating_sub(2), u64::MAX),
        singles(len.saturating_sub(2), len),
        "{label}: page saturates"
    );
    let mut buf = WindowBuf::new();
    assert_eq!(plan.top_k_into(4, &mut buf), singles(0, 4).len() as u64);
    assert_eq!(buf.to_tuples(), singles(0, 4), "{label}: top_k_into");
    assert_eq!(plan.page_into(3, 4, &mut buf), singles(3, 7).len() as u64);
    assert_eq!(buf.to_tuples(), singles(3, 7), "{label}: page_into");

    // The stream is the whole answer sequence, resumable anywhere.
    let streamed: Vec<Tuple> = plan.stream().collect();
    assert_eq!(streamed, singles(0, len), "{label}: stream");
    let prefix: Vec<Tuple> = plan.stream().take(5).collect();
    assert_eq!(prefix, singles(0, 5.min(len)), "{label}: stream prefix");
    let tail: Vec<Tuple> = plan.stream_from(len / 2).collect();
    assert_eq!(tail, singles(len / 2, len), "{label}: stream_from");
    let mut s = plan.stream();
    s.next();
    s.next();
    assert_eq!(s.position(), 2.min(len), "{label}: stream position");
}

#[test]
fn windows_on_native_lex_direct_access() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(two_path_db().freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
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
    let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(two_path_db().freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::SumDirectAccess);
    assert_windows("sum-da", &plan);
}

#[test]
fn windows_on_selection_lex() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    // Small instance: selection pays O(n) per access and the contract
    // check runs many singles.
    let db = Database::new()
        .with_i64_rows("R", 2, (0..12).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..12).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z", "y"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::SelectionLex);
    assert_windows("selection-lex", &plan);
}

#[test]
fn windows_on_selection_sum() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..10).map(|i| vec![i, i % 3]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..10).map(|j| vec![j % 3, j]).collect::<Vec<_>>());
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::SelectionSum);
    assert_windows("selection-sum", &plan);
}

#[test]
fn windows_on_materialized_fallback() {
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(two_path_db().freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z"]),
            &FdSet::empty(),
            Policy::Materialize,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::Materialized);
    assert_windows("materialized", &plan);
}

#[test]
fn windows_on_ranked_enum_fallback() {
    let q = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let engine = Engine::new(three_path_db().freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::RankedEnum);
    assert_windows("ranked-enum", &plan);
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
    assert_eq!(plan.window_into(0..5, &mut buf), 1);
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
        assert_eq!(plan.stream().count(), 0);
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
fn lazy_ranked_enum_matches_the_baseline_oracle_prefix_for_prefix() {
    let q = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let db = three_path_db();
    let engine = Engine::new(db.clone().freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::RankedEnum);

    let oracle_total = ranked_prefix(&q, &db, ident, usize::MAX);
    assert!(oracle_total.len() > 1000, "needs a non-trivial stream");
    for k in [0usize, 1, 2, 7, 63, 256, 257, 1000, oracle_total.len()] {
        let got: Vec<Tuple> = plan.stream().take(k).collect();
        let expect: Vec<Tuple> = oracle_total
            .iter()
            .take(k)
            .map(|(_, t)| t.clone())
            .collect();
        assert_eq!(got, expect, "prefix of length {k}");
    }
    // Weights agree with the materialize-and-sort oracle, rank by rank.
    let mat = MaterializedAccess::by_sum(&q, &db, ident);
    assert_eq!(mat.len() as usize, oracle_total.len());
    for (k, (w, _)) in oracle_total.iter().enumerate() {
        assert_eq!(*w, mat.weight_at(k as u64).unwrap(), "weight at rank {k}");
    }
}

#[test]
fn ranked_enum_policy_never_materializes() {
    // (a) The fallback backend: streaming a prefix advances the any-k
    // enumerator only as far as one batch, never the full answer set.
    let q = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let db = three_path_db();
    let total = MaterializedAccess::by_sum(&q, &db, ident).len();
    assert!(total > 1000);
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    let first: Vec<Tuple> = plan.stream().take(10).collect();
    assert_eq!(first.len(), 10);
    let RankedAnswers::RankedEnum(handle) = plan.answers() else {
        panic!("expected the any-k fallback backend");
    };
    let cached = handle.cached_prefix_len();
    assert!(
        (10..total / 2).contains(&cached),
        "stream().take(10) must advance at most one batch \
         (cached {cached} of {total})"
    );

    // (b) Tractable queries under the same policy route to the paper's
    // structures — never to the materialize-and-sort fallback.
    let qc = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let engine2 = Engine::new(two_path_db().freeze());
    let plan2 = engine2
        .prepare(
            &qc,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    assert_eq!(plan2.backend(), Backend::SumDirectAccess);
    assert!(!plan2.backend().is_fallback());
    let ql = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plan3 = engine2
        .prepare(
            &ql,
            OrderSpec::lex(&ql, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    assert_eq!(plan3.backend(), Backend::LexDirectAccess);
    assert_eq!(plan3.stream().take(4).count(), 4);
}

#[test]
fn selection_sum_windows_stay_lazy_on_distinct_weights() {
    // Distinct answer weights (positional encoding) keep the selection
    // handle off its tie-breaking materialized index: paging through a
    // window must not build it.
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
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(&q, OrderSpec::sum(w), &FdSet::empty(), Policy::Reject)
        .unwrap();
    assert_eq!(plan.backend(), Backend::SelectionSum);
    let page = plan.page(2, 5);
    assert_eq!(page.len(), 5);
    let RankedAnswers::SelectionSum(handle) = plan.answers() else {
        panic!("expected the selection-sum backend");
    };
    assert!(
        !handle.tie_index_built(),
        "distinct-weight windows must not materialize the tie index"
    );
}

/// Weights that encode an answer positionally — variable `i` of `vars`
/// weighs `value · 100^(n-1-i)` — so distinct answers over values
/// below 100 have distinct weights and a sum order is total.
fn positional_weights(q: &Cq, vars: &[&str]) -> Weights {
    let mut w = Weights::zero();
    for (i, var) in vars.iter().enumerate() {
        let scale = 100f64.powi((vars.len() - 1 - i) as i32);
        for val in 0..100 {
            w.set(q.var(var).unwrap(), val, val as f64 * scale);
        }
    }
    w
}

/// The contract of the [`DirectAccess`] trait on one backend: the core
/// (`len`, `access_into`, `inverted_access`) serves exactly the
/// oracle's array, both kernels equal a loop of `access_into`, and
/// every provided method equals its definition over those five.
fn conforms(label: &str, a: &dyn DirectAccess, oracle: &MaterializedAccess) {
    let len = a.len();
    assert_eq!(len, oracle.len(), "{label}: len");
    assert!(
        len >= 8,
        "{label}: instance big enough for the windows below"
    );
    let mut row = Vec::new();
    for (k, t) in oracle.answers().iter().enumerate() {
        assert!(a.access_into(k as u64, &mut row), "{label}: rank {k}");
        assert_eq!(row, t.values(), "{label}: rank {k}");
        assert_eq!(a.inverted_access(t), Some(k as u64), "{label}: rank {k}");
    }
    assert!(!a.access_into(len, &mut row), "{label}: out of bound");
    assert!(row.is_empty(), "{label}: a miss clears the buffer");

    let one = |k: u64| oracle.answers().get(k as usize).cloned();
    let singles = |r: Range<u64>| -> Vec<Tuple> { r.map_while(one).collect() };
    let mut buf = WindowBuf::new();
    let inverted = Range { start: 7, end: 3 };
    let windows = [
        0..0,
        0..len,
        0..len + 9,
        len..len + 5,
        len - 1..len + 5,
        3..7,
        inverted,
    ];
    for r in windows {
        let expect = singles(r.clone());
        assert_eq!(
            a.access_range_into(r.clone(), &mut buf),
            expect.len() as u64
        );
        assert_eq!(buf.to_tuples(), expect, "{label}: access_range_into({r:?})");
        assert_eq!(
            a.access_range(r.clone()),
            expect,
            "{label}: access_range({r:?})"
        );
    }
    let ranks: Vec<u64> = (0..40u64)
        .map(|i| i.wrapping_mul(7919) % (len + 3))
        .chain([u64::MAX, 0, 0])
        .collect();
    let expect: Vec<Tuple> = ranks.iter().filter_map(|&k| one(k)).collect();
    assert_eq!(a.access_batch_into(&ranks, &mut buf), expect.len() as u64);
    assert_eq!(buf.to_tuples(), expect, "{label}: access_batch_into");
    assert_eq!(a.access_batch(&ranks), expect, "{label}: access_batch");

    assert!(!a.is_empty(), "{label}: is_empty");
    for k in [0, len / 2, len - 1, len, u64::MAX] {
        assert_eq!(a.access(k), one(k), "{label}: access({k})");
    }
    assert_eq!(a.top_k(3), singles(0..3), "{label}: top_k");
    assert_eq!(a.top_k(len + 10), singles(0..len), "{label}: top_k clamps");
    assert_eq!(a.top_k_into(4, &mut buf), 4);
    assert_eq!(buf.to_tuples(), singles(0..4), "{label}: top_k_into");
    assert_eq!(a.page(2, 4), singles(2..6), "{label}: page");
    assert_eq!(
        a.page(len - 2, u64::MAX),
        singles(len - 2..len),
        "{label}: page saturates"
    );
    assert_eq!(a.page_into(3, 4, &mut buf), 4);
    assert_eq!(buf.to_tuples(), singles(3..7), "{label}: page_into");
    let all: Vec<Tuple> = a.iter().collect();
    assert_eq!(all, oracle.answers(), "{label}: iter");
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
    conforms("lex", &lex, &by_xyz);

    let qcov = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let sum = SumDirectAccess::build_on(&qcov, &snap, &Weights::identity(), &no_fds).unwrap();
    conforms(
        "sum",
        &RankedAnswers::Sum(sum),
        &MaterializedAccess::by_sum(&qcov, &db, ident),
    );

    let xzy = q.vars(&["x", "z", "y"]);
    let handle = SelectionLexHandle::new(&q, &snap, xzy.clone(), &no_fds).unwrap();
    conforms(
        "selection-lex",
        &RankedAnswers::SelectionLex(handle),
        &MaterializedAccess::by_lex(&q, &db, &xzy),
    );

    // Distinct weights: a window stays off the lazily built tie index
    // (`iter` is the one method that builds it, by design).
    let w = positional_weights(&q, &["x", "y", "z"]);
    let by_w = MaterializedAccess::by_sum(&q, &db, |v, val| w.get(v, val).0);
    let handle = SelectionSumHandle::new(&q, &snap, w, &no_fds).unwrap();
    let answers = RankedAnswers::SelectionSum(handle);
    assert_eq!(answers.page(2, 5).len(), 5);
    let RankedAnswers::SelectionSum(handle) = &answers else {
        unreachable!()
    };
    assert!(
        !handle.tie_index_built(),
        "a window must not build the tie index"
    );
    conforms("selection-sum", &answers, &by_w);

    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let xz = qproj.vars(&["x", "z"]);
    conforms(
        "materialized",
        &RankedAnswers::Materialized(MaterializedAccess::by_lex(&qproj, &db, &xz)),
        &MaterializedAccess::by_lex(&qproj, &db, &xz),
    );

    // The any-k fallback, through the plan facade: `is_empty` and
    // `iter` stay lazy (the provided forms would drain the stream or
    // fetch a whole batch), and only `len` enumerates everything.
    let q3 = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let db3 = three_path_db();
    let w = positional_weights(&q3, &["x", "y", "z", "u"]);
    let by_w = MaterializedAccess::by_sum(&q3, &db3, |v, val| w.get(v, val).0);
    let plan = Engine::new(db3.freeze())
        .prepare(&q3, OrderSpec::sum(w), &no_fds, Policy::RankedEnum)
        .unwrap();
    let RankedAnswers::RankedEnum(handle) = plan.answers() else {
        panic!("expected the any-k fallback backend");
    };
    assert!(!plan.is_empty());
    assert!(handle.cached_prefix_len() <= 1, "is_empty pops one answer");
    assert_eq!(plan.iter().take(5).count(), 5);
    assert!(handle.cached_prefix_len() <= 5, "iter().take(5) pops five");
    conforms("ranked-enum", plan.answers(), &by_w);
}
