//! Edge cases and failure injection across the public API: degenerate
//! instances, mixed value types, deep structures, and every error path.

use ranked_access::prelude::*;
use ranked_access::rda_baseline::all_answers;

fn no_fds() -> FdSet {
    FdSet::empty()
}

#[test]
fn single_tuple_universe() {
    let q = parse("Q(x) :- R(x)").unwrap();
    let db = Database::new().with_i64_rows("R", 1, vec![vec![42]]);
    let plan = Engine::new(db.freeze())
        .prepare(&q, OrderSpec::lex(&q, &["x"]), &no_fds(), Policy::Reject)
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert_eq!(plan.len(), 1);
    assert_eq!(plan.access(0).unwrap().values(), &[Value::int(42)]);
    assert_eq!(plan.access(1), None);
}

#[test]
fn empty_relations_everywhere() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, vec![])
        .with_i64_rows("S", 2, vec![]);
    // Every route the engine can take agrees the answer set is empty.
    for spec in [
        OrderSpec::lex(&q, &["x", "y", "z"]), // native direct access
        OrderSpec::lex(&q, &["x", "z", "y"]), // selection-lex handle
        OrderSpec::sum_by_value(),            // selection-sum handle
    ] {
        let plan = Engine::new(db.clone().freeze())
            .prepare(&q, spec, &no_fds(), Policy::Reject)
            .unwrap();
        assert!(plan.is_empty());
        assert_eq!(plan.access(0), None);
    }
    let sda = SumDirectAccess::build(
        &parse("Q(x, y) :- R(x, y)").unwrap(),
        &db,
        &Weights::identity(),
        &no_fds(),
    )
    .unwrap();
    assert!(sda.is_empty());
}

#[test]
fn mixed_value_types_order_consistently() {
    // Integers sort before strings (the documented domain order).
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let mut rel = Relation::new("R", 2);
    rel.insert([Value::str("apple"), Value::int(1)].into_iter().collect());
    rel.insert([Value::int(9), Value::int(2)].into_iter().collect());
    rel.insert([Value::str("zebra"), Value::int(3)].into_iter().collect());
    let db = Database::new().with(rel);
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x"]), &no_fds()).unwrap();
    let xs: Vec<Value> = da.iter().map(|t| t.values()[0].clone()).collect();
    assert_eq!(
        xs,
        vec![Value::int(9), Value::str("apple"), Value::str("zebra")]
    );
}

#[test]
fn negative_and_extreme_integers() {
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let db = Database::new().with_i64_rows(
        "R",
        2,
        vec![
            vec![i64::MIN, 0],
            vec![i64::MAX, 0],
            vec![0, 0],
            vec![-1, 0],
        ],
    );
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x"]), &no_fds()).unwrap();
    let xs: Vec<i64> = da.iter().map(|t| t.values()[0].as_int().unwrap()).collect();
    assert_eq!(xs, vec![i64::MIN, -1, 0, i64::MAX]);
}

#[test]
fn duplicate_input_tuples_are_set_semantics() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 2]; 10])
        .with_i64_rows("S", 2, vec![vec![2, 3]; 7]);
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x", "y", "z"]), &no_fds()).unwrap();
    assert_eq!(da.len(), 1);
}

#[test]
fn deep_star_query() {
    // Star with 6 rays: tests many-children layers in the DP.
    let q = parse(
        "Q(c, a1, a2, a3, a4, a5, a6) :- R1(c, a1), R2(c, a2), R3(c, a3), R4(c, a4), R5(c, a5), R6(c, a6)",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 1..=6 {
        db.add(Relation::from_tuples(
            format!("R{i}"),
            2,
            vec![
                [Value::int(0), Value::int(i)].into_iter().collect(),
                [Value::int(0), Value::int(i + 10)].into_iter().collect(),
                [Value::int(1), Value::int(i)].into_iter().collect(),
            ],
        ));
    }
    let lex = q.vars(&["c", "a1", "a2", "a3", "a4", "a5", "a6"]);
    let da = LexDirectAccess::build(&q, &db, &lex, &no_fds()).unwrap();
    // c = 0 contributes 2^6 combinations, c = 1 contributes 1.
    assert_eq!(da.len(), 64 + 1);
    let mid = da.access(32).unwrap();
    assert_eq!(da.inverted_access(&mid), Some(32));
    let last = da.access(64).unwrap();
    assert_eq!(last.values()[0], Value::int(1));
}

#[test]
fn long_path_query() {
    // 6-path: layered tree with a long chain of layers.
    let q = parse(
        "Q(v0, v1, v2, v3, v4, v5, v6) :- E1(v0, v1), E2(v1, v2), E3(v2, v3), E4(v3, v4), E5(v4, v5), E6(v5, v6)",
    )
    .unwrap();
    let mut db = Database::new();
    for i in 1..=6 {
        db.add(Relation::from_tuples(
            format!("E{i}"),
            2,
            (0..3i64)
                .flat_map(|a| {
                    (0..3i64).map(move |b| [Value::int(a), Value::int(b)].into_iter().collect())
                })
                .collect(),
        ));
    }
    let lex = q.vars(&["v0", "v1", "v2", "v3", "v4", "v5", "v6"]);
    let da = LexDirectAccess::build(&q, &db, &lex, &no_fds()).unwrap();
    assert_eq!(da.len(), 3u64.pow(7));
    // Spot-check order monotonicity at a few indices.
    let probes = [0u64, 1, 100, 1000, da.len() - 2, da.len() - 1];
    for w in probes.windows(2) {
        assert!(da.access(w[0]).unwrap() <= da.access(w[1]).unwrap());
    }
}

#[test]
fn error_paths_are_reported() {
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    // Missing relation.
    let empty = Database::new();
    assert!(matches!(
        LexDirectAccess::build(&q, &empty, &q.vars(&["x"]), &no_fds()),
        Err(BuildError::MissingRelation(_))
    ));
    // Arity mismatch.
    let bad = Database::new().with_i64_rows("R", 3, vec![vec![1, 2, 3]]);
    assert!(matches!(
        LexDirectAccess::build(&q, &bad, &q.vars(&["x"]), &no_fds()),
        Err(BuildError::ArityMismatch { .. })
    ));
    // Errors render human-readably.
    let err = LexDirectAccess::build(&q, &empty, &q.vars(&["x"]), &no_fds()).unwrap_err();
    assert!(err.to_string().contains("missing"));

    // Both fallback arms validate the snapshot too: a non-free-connex
    // projection by LEX and an fmh-3 SUM (the full 3-path), each under
    // Policy::Materialize, over a snapshot missing `T` and over one
    // whose `T` has the wrong arity.
    let projection = parse("Q(x, z) :- R(x, y), T(y, z)").unwrap();
    let three_path = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let fallbacks = [
        (
            &projection,
            OrderSpec::lex(&projection, &["x", "z"]),
            Policy::Materialize,
        ),
        (&three_path, OrderSpec::sum_by_value(), Policy::Materialize),
    ];
    let rs = || {
        Database::new()
            .with_i64_rows("R", 2, vec![vec![1, 2]])
            .with_i64_rows("S", 2, vec![vec![2, 3]])
    };
    let missing_t = Engine::new(rs().freeze());
    let wide_t = Engine::new(rs().with_i64_rows("T", 3, vec![vec![3, 4, 5]]).freeze());
    for (fq, spec, policy) in fallbacks {
        assert!(matches!(
            missing_t.prepare(fq, spec.clone(), &no_fds(), policy),
            Err(PlanError::Build(BuildError::MissingRelation(r))) if r == "T"
        ));
        assert!(matches!(
            wide_t.prepare(fq, spec, &no_fds(), policy),
            Err(PlanError::Build(BuildError::ArityMismatch {
                expected: 2,
                found: 3,
                ..
            }))
        ));
    }
}

#[test]
fn a_query_with_no_atoms_is_refused_typed() {
    // The builder accepts an empty body, which the parser refuses; every
    // door refuses it too, typed, under either policy and either order.
    let q = CqBuilder::new("Q").build();
    let snap = Database::new()
        .with_i64_rows("R", 1, vec![vec![1]])
        .freeze();
    let engine = Engine::new(std::sync::Arc::clone(&snap));
    for policy in [Policy::Reject, Policy::Materialize] {
        for spec in [OrderSpec::Lex(Vec::new()), OrderSpec::sum_by_value()] {
            assert!(matches!(
                engine.prepare(&q, spec, &no_fds(), policy),
                Err(PlanError::Build(BuildError::NoAtoms))
            ));
        }
    }
    let w = Weights::identity();
    let refused = [
        LexDirectAccess::build_on(&q, &snap, &[], &no_fds()).err(),
        SumDirectAccess::build_on(&q, &snap, &w, &no_fds()).err(),
        SelectionLexHandle::new(&q, &snap, Vec::new(), &no_fds()).err(),
        SelectionSumHandle::new(&q, &snap, w.clone(), &no_fds()).err(),
    ];
    for err in refused {
        assert_eq!(err, Some(BuildError::NoAtoms));
    }
    assert!(BuildError::NoAtoms.to_string().contains("no atoms"));
}

#[test]
fn fd_with_self_join_is_rejected_not_panicking() {
    let q = parse("Q(x, y, z) :- R(x, y), R(y, z)").unwrap();
    let db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2]]);
    // Fake FD set referencing the first occurrence.
    let fds = FdSet::parse(&q, &[("R", "x", "y")]);
    assert!(matches!(
        LexDirectAccess::build(&q, &db, &q.vars(&["x", "y", "z"]), &fds),
        Err(BuildError::InvalidOrder(_))
    ));
}

#[test]
fn fd_naming_a_variable_outside_its_atom_is_refused_typed() {
    // `x` is not a variable of R's atom; `Fd`'s fields are public, so
    // nothing but the engine stands between this FD and the build.
    let q = parse("Q(z, x, w, y) :- R(w, y, w), S(x, w, y), T(z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 3, vec![vec![1, 2, 1]])
        .with_i64_rows("S", 3, vec![vec![3, 1, 2]])
        .with_i64_rows("T", 1, vec![vec![4]]);
    let fds = FdSet(vec![ranked_access::rda_query::Fd {
        relation: "R".to_string(),
        lhs: q.var("x").unwrap(),
        rhs: q.var("w").unwrap(),
    }]);
    let engine = Engine::new(db.freeze());
    for policy in [Policy::Reject, Policy::Materialize] {
        let got = engine.prepare(&q, OrderSpec::lex(&q, &["z", "x", "w", "y"]), &fds, policy);
        assert!(
            matches!(got, Err(PlanError::Build(BuildError::InvalidOrder(_)))),
            "{policy:?}: {:?}",
            got.map(|p| p.len())
        );
    }
}

#[test]
fn string_heavy_workload() {
    let q = parse("Q(a, b) :- R(a, b), S(b)").unwrap();
    let words = ["delta", "alpha", "echo", "bravo", "charlie"];
    let mut r = Relation::new("R", 2);
    for (i, w) in words.iter().enumerate() {
        for (j, v) in words.iter().enumerate() {
            if (i + j) % 2 == 0 {
                r.insert([Value::str(*w), Value::str(*v)].into_iter().collect());
            }
        }
    }
    let mut s = Relation::new("S", 1);
    for w in ["alpha", "charlie", "echo"] {
        s.insert([Value::str(w)].into_iter().collect());
    }
    let db = Database::new().with(r).with(s);
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["b", "a"]), &no_fds()).unwrap();
    let mut expect = all_answers(&q, &db);
    expect.sort_by(|x, y| (x[1].clone(), x[0].clone()).cmp(&(y[1].clone(), y[0].clone())));
    let got: Vec<Tuple> = da.iter().collect();
    assert_eq!(got, expect);
}

#[test]
fn quantile_trait_is_usable_through_prelude() {
    use ranked_access::rda_core::Quantiles;
    let q = parse("Q(x) :- R(x)").unwrap();
    let db = Database::new().with_i64_rows("R", 1, (0..101).map(|i| vec![i]).collect::<Vec<_>>());
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x"]), &no_fds()).unwrap();
    assert_eq!(da.median().unwrap().values()[0], Value::int(50));
    assert_eq!(da.quantile(0.25).unwrap().values()[0], Value::int(25));
    let lo: Tuple = [Value::int(10)].into_iter().collect();
    let hi: Tuple = [Value::int(20)].into_iter().collect();
    assert_eq!(da.range_count(&lo, &hi), Some(10));
}

/// Degenerate window shapes on every backend the router serves:
/// `top_k(0)`, pages starting at or past the end, ranges beyond the
/// answer count, and streams resumed exactly at `len()`. All must
/// return cleanly empty results — never panic, never wrap, never
/// over-fetch.
#[test]
fn window_edges_top_k_zero_pages_past_end_stream_at_len() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let qcov = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
        .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
    let engine = Engine::new(db.freeze());
    let plans = vec![
        engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "y", "z"]),
                &no_fds(),
                Policy::Reject,
            )
            .unwrap(), // native lex
        engine
            .prepare(&qcov, OrderSpec::sum_by_value(), &no_fds(), Policy::Reject)
            .unwrap(), // native sum
        engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &no_fds(),
                Policy::Reject,
            )
            .unwrap(), // lazy lex selection
        engine
            .prepare(&q, OrderSpec::sum_by_value(), &no_fds(), Policy::Reject)
            .unwrap(), // lazy sum selection
        engine
            .prepare(
                &qproj,
                OrderSpec::lex(&qproj, &["x", "z"]),
                &no_fds(),
                Policy::Materialize,
            )
            .unwrap(), // materialized fallback
    ];
    for plan in &plans {
        let len = plan.len();
        let backend = plan.backend();
        assert!(len > 0, "{backend}: non-degenerate fixture");

        assert_eq!(
            plan.access_range(0..0),
            Vec::<Tuple>::new(),
            "{backend}: top_k(0)"
        );
        let mut buf = WindowBuf::new();
        plan.access_range_into(0..1, &mut buf); // pre-dirty the buffer
        assert_eq!(plan.access_range_into(0..0, &mut buf), 0, "{backend}");
        assert!(buf.is_empty(), "{backend}: empty refill clears the buffer");

        // Pages starting at the end, fully past it, and overflowing.
        assert_eq!(
            plan.access_range(len..len + 3),
            Vec::<Tuple>::new(),
            "{backend}: page at len"
        );
        assert_eq!(
            plan.access_range(len + 10..len + 13),
            Vec::<Tuple>::new(),
            "{backend}: page past end"
        );
        assert_eq!(
            plan.access_range(u64::MAX..u64::MAX),
            Vec::<Tuple>::new(),
            "{backend}: page at u64::MAX"
        );
        assert_eq!(
            plan.access_range(len..len + 4),
            Vec::<Tuple>::new(),
            "{backend}"
        );
        // A window straddling the end is clamped, not truncated to
        // nothing.
        assert_eq!(
            plan.access_range(len - 1..len + 4),
            vec![plan.access(len - 1).unwrap()],
            "{backend}: straddling window clamps"
        );

        // Streams resumed at (and past) the end are immediately done;
        // resumed one before the end, they yield exactly the last row.
        let mut at_end = plan.iter().skip(len as usize);
        assert_eq!(at_end.next(), None, "{backend}: stream at len()");
        let mut past_end = plan.iter().skip(len as usize + 7);
        assert_eq!(past_end.next(), None, "{backend}: stream past len()");
        // The next batch's end saturates: a start within one batch of
        // u64::MAX does not overflow the rank.
        let mut far = plan.iter().skip(usize::MAX - 3);
        assert_eq!(far.next(), None, "{backend}: stream near u64::MAX");
        let mut top = plan.iter().skip(usize::MAX);
        assert_eq!(top.next(), None, "{backend}: stream at u64::MAX");
        assert_eq!(
            plan.iter().skip(1).count() as u64,
            len - 1,
            "{backend}: stream from rank 1"
        );
        let tail: Vec<Tuple> = plan.iter().skip(len as usize - 1).collect();
        assert_eq!(tail, vec![plan.access(len - 1).unwrap()], "{backend}");
    }
}

#[test]
fn weights_on_shared_variable_count_once() {
    // x + y + z with the join variable y weighted: each answer counts
    // y exactly once even though y appears in two atoms.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![0, 100]])
        .with_i64_rows("S", 2, vec![vec![100, 0]]);
    let plan = Engine::new(db.freeze())
        .prepare(&q, OrderSpec::sum_by_value(), &no_fds(), Policy::Reject)
        .unwrap();
    let RankedAnswers::SelectionSum(handle) = plan.answers() else {
        panic!("routed to {}", plan.backend());
    };
    let (w, _) = handle.access_weighted(0).unwrap();
    assert_eq!(w, TotalF64(100.0));
}

#[test]
fn max_variable_count_boundary() {
    // 20 variables in one atom: stresses VarSet and the layer chain.
    let names: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let q = CqBuilder::new("Q").head(&refs).atom("R", &refs).build();
    let rows: Vec<Tuple> = (0..5i64)
        .map(|r| (0..20).map(|c| Value::int((r + c) % 7)).collect())
        .collect();
    let db = Database::new().with(Relation::from_tuples("R", 20, rows));
    let da = LexDirectAccess::build(&q, &db, &q.vars(&refs), &no_fds()).unwrap();
    assert_eq!(da.len(), 5);
    for k in 0..5 {
        let t = da.access(k).unwrap();
        assert_eq!(da.inverted_access(&t), Some(k));
    }
}

/// `top_k(0)`, zero-length pages, and empty batches through the plan
/// facade: all legal, all empty.
#[test]
fn zero_sized_requests_on_engine_plans() {
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let db = Database::new().with_i64_rows("R", 2, (0..9i64).map(|i| vec![i, i % 3]));
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y"]),
            &no_fds(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.access_range(0..0), Vec::<Tuple>::new());
    assert_eq!(plan.access_range(4..4), Vec::<Tuple>::new());
    assert_eq!(plan.access_range(9..9), Vec::<Tuple>::new());
    assert_eq!(plan.access_batch(&[]), Vec::<Tuple>::new());
    let mut buf = WindowBuf::new();
    assert_eq!(plan.access_range_into(2..2, &mut buf), 0);
    assert_eq!(plan.access_batch_into(&[], &mut buf), 0);
}
