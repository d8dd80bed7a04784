//! Differential tests for the batched access kernel: on every backend,
//! `access_batch(ranks)` must equal the sequence of per-rank
//! `access(k)` results in request order — for unsorted, duplicate, and
//! out-of-range rank sets — and the `*_into` variant must agree with
//! its owned twin while reusing the caller's buffer. The lex arena's
//! two batch paths (the k-cursor descent for ascending ranks, one
//! descent per rank otherwise) are checked against the same oracle:
//! batching is a performance choice, never a semantic one.

use proptest::prelude::*;
use ranked_access::prelude::*;

/// A 2-path instance with a few hundred answers.
fn two_path_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..60).map(|i| vec![i, i % 7]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..60).map(|j| vec![j % 7, j]).collect::<Vec<_>>())
}

/// A 2-path instance whose `y` layer is one bucket of 5 000 entries —
/// far above the size that gets a rank directory. Its first half has
/// one `z` per `y` (a stride of `s` ranks lands exactly `s` entries
/// ahead), its second half 1–5 (skewed weights).
fn wide_bucket_db() -> Database {
    let zs = |y: i64| if y < 2500 { 1 } else { 1 + y * y % 5 };
    let s = (0..5000).flat_map(move |y| (0..zs(y)).map(move |z| vec![y, z]));
    Database::new()
        .with_i64_rows("R", 2, (0..5000).map(|y| vec![0, y]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, s.collect::<Vec<_>>())
}

/// A 3-path instance (fmh = 3: any-k fallback territory).
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

/// The batch contract, spelled out.
fn oracle(plan: &AccessPlan, ranks: &[u64]) -> Vec<Tuple> {
    ranks.iter().filter_map(|&k| plan.access(k)).collect()
}

/// Check every batch shape — empty, singleton, ascending, reversed,
/// scattered with out-of-range mixes, all-duplicates — against the
/// per-rank oracle, through both the owned and the `*_into` surface.
fn assert_batches(label: &str, plan: &AccessPlan) {
    let len = plan.len();
    let mut cases: Vec<Vec<u64>> = vec![
        vec![],
        vec![0],
        vec![len.saturating_sub(1)],
        (0..len).collect(),
        (0..len).rev().collect(),
        vec![len, len + 1, u64::MAX],
        vec![3.min(len); 5],
    ];
    // Scattered, with duplicates and a few past-the-end ranks.
    cases.push(
        (0..120u64)
            .map(|i| i.wrapping_mul(7919) % (len + 7))
            .collect(),
    );
    let mut buf = WindowBuf::new();
    for ranks in &cases {
        let expect = oracle(plan, ranks);
        assert_eq!(
            plan.access_batch(ranks),
            expect,
            "{label}: access_batch, {} ranks",
            ranks.len()
        );
        let n = plan.access_batch_into(ranks, &mut buf);
        assert_eq!(
            n as usize,
            expect.len(),
            "{label}: served count, {} ranks",
            ranks.len()
        );
        assert_eq!(
            buf.to_tuples(),
            expect,
            "{label}: access_batch_into rows, {} ranks",
            ranks.len()
        );
    }
    // Buffer reuse across batches must not leak rows between fills
    // (the loop above already reused `buf`; end on a tiny fill).
    if len > 0 {
        plan.access_batch_into(&[0], &mut buf);
        assert_eq!(buf.len(), 1, "{label}: stale rows leaked through reuse");
    }
}

fn prepare_lex(db: Database, q: &Cq, order: &[&str]) -> std::sync::Arc<AccessPlan> {
    Engine::new(db.freeze())
        .prepare(q, OrderSpec::lex(q, order), &FdSet::empty(), Policy::Reject)
        .unwrap()
}

#[test]
fn batches_on_native_lex_direct_access() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plan = prepare_lex(two_path_db(), &q, &["x", "y", "z"]);
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert!(plan.len() > 300, "workload big enough to carry-walk");
    assert_batches("lex-da", &plan);
}

#[test]
fn batches_on_branching_shapes() {
    // Cartesian product: every layer carries independently.
    let q = parse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..25).map(|i| vec![i % 9, i]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..25).map(|j| vec![j % 8, j]).collect::<Vec<_>>());
    let plan = prepare_lex(db, &q, &["v1", "v2", "v3", "v4"]);
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert_eq!(plan.len(), 625);
    assert_batches("lex-da product", &plan);

    // A star whose layered tree genuinely branches: resuming a descent
    // mid-tree must re-derive sibling buckets, not just a chain suffix.
    let qs = parse("Q(a, b, c) :- R(a, b), T(a, c)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, (0..40).map(|i| vec![i % 6, i]).collect::<Vec<_>>())
        .with_i64_rows("T", 2, (0..40).map(|j| vec![j % 6, j]).collect::<Vec<_>>());
    let plan = prepare_lex(db, &qs, &["a", "b", "c"]);
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    assert_batches("lex-da star", &plan);
}

#[test]
fn batches_on_native_sum_direct_access() {
    let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let plan = Engine::new(two_path_db().freeze())
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::SumDirectAccess);
    assert_batches("sum-da", &plan);
}

#[test]
fn batches_on_selection_backends() {
    // Small instances: selection pays O(n) per access.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
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
    assert_batches("selection-lex", &plan);
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::SelectionSum);
    assert_batches("selection-sum", &plan);
}

#[test]
fn batches_on_materialized_and_ranked_enum_fallbacks() {
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let plan = Engine::new(two_path_db().freeze())
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "z"]),
            &FdSet::empty(),
            Policy::Materialize,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::Materialized);
    assert_batches("materialized", &plan);

    let q = parse("Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)").unwrap();
    let plan = Engine::new(three_path_db().freeze())
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::RankedEnum,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::RankedEnum);
    assert_batches("ranked-enum", &plan);
}

/// The lex arena picks its batch path from the input's order alone —
/// in-range ranks ascending: one shared descent; anything else: one
/// descent per rank — so both sides of that choice, and the sizes
/// around it, must equal the per-rank definition on every native
/// structure. Strides wider than the walk's linear advance over the
/// wide bucket make a resumed layer search its rank directory.
#[test]
fn batch_selection_matches_per_rank_access() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let snap = two_path_db().freeze();
    let xyz = q.vars(&["x", "y", "z"]);
    let lex = LexDirectAccess::build_on(&q, &snap, &xyz, &FdSet::empty()).unwrap();
    let qs = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let sum = SumDirectAccess::build_on(&qs, &snap, &Weights::identity(), &FdSet::empty()).unwrap();
    let wide_snap = wide_bucket_db().freeze();
    let wide = LexDirectAccess::build_on(&q, &wide_snap, &xyz, &FdSet::empty()).unwrap();

    let backends: [(&str, &dyn DirectAccess); 3] =
        [("lex", &lex), ("sum", &sum), ("lex wide bucket", &wide)];
    let mut buf = WindowBuf::new();
    for (label, da) in backends {
        let len = da.len();
        assert!(len > 50, "{label}: workload big enough to carry-walk");
        let mut cases: Vec<Vec<u64>> = Vec::new();
        // Unsorted, duplicated, with a few ranks past the end.
        for n in [1u64, 63, 64, 65, 300, 5000] {
            cases.push(
                (0..n)
                    .map(|i| (i + 1).wrapping_mul(2654435761) % (len + 9))
                    .collect(),
            );
        }
        // Ascending with duplicates and an out-of-range tail.
        cases.push((0..3 * len).map(|i| i / 2).collect());
        // Ascending except for the last rank.
        cases.push((0..len).step_by(3).chain([1]).collect());
        // Ascending, with strides wider than the walk's linear advance.
        for stride in [9, 97, 1000] {
            cases.push((stride / 2..len).step_by(stride as usize).collect());
        }
        for ranks in &cases {
            let expect: Vec<Tuple> = ranks.iter().filter_map(|&k| da.access(k)).collect();
            let n = da.access_batch_into(ranks, &mut buf);
            assert_eq!(n as usize, expect.len(), "{label}: {} ranks", ranks.len());
            assert_eq!(buf.to_tuples(), expect, "{label}: {} ranks", ranks.len());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random rank multisets against the per-rank oracle on the two
    /// native arena backends — the kernel's carry walk must survive
    /// arbitrary gaps, duplicates, and out-of-range tails.
    #[test]
    fn random_batches_match_oracle(ranks in proptest::collection::vec(0u64..700, 0..80)) {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let plan = prepare_lex(two_path_db(), &q, &["x", "y", "z"]);
        prop_assert_eq!(plan.backend(), Backend::LexDirectAccess);
        let expect = oracle(&plan, &ranks);
        prop_assert_eq!(plan.access_batch(&ranks), expect.clone());
        let mut buf = WindowBuf::new();
        let n = plan.access_batch_into(&ranks, &mut buf);
        prop_assert_eq!(n as usize, expect.len());
        prop_assert_eq!(buf.to_tuples(), expect);

        let qs = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
        let plan = Engine::new(two_path_db().freeze())
            .prepare(&qs, OrderSpec::sum_by_value(), &FdSet::empty(), Policy::Reject)
            .unwrap();
        prop_assert_eq!(plan.backend(), Backend::SumDirectAccess);
        let expect = oracle(&plan, &ranks);
        let n = plan.access_batch_into(&ranks, &mut buf);
        prop_assert_eq!(n as usize, expect.len());
        prop_assert_eq!(buf.to_tuples(), expect);
    }
}
