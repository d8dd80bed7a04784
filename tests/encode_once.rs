//! The encode-once contract of the snapshot-centric serving core,
//! enforced by the process-wide relation-encode counter: freezing a
//! database encodes each relation exactly once, and building *every*
//! backend the engine can route to — native lex/sum direct access,
//! both lazy selection handles, the materialized fallback — from that
//! snapshot performs **zero** further relation encodings. The clone
//! and ownership hand-offs of the pre-snapshot pipeline are gone.
//!
//! Everything lives in one `#[test]` so no concurrent test in this
//! binary can disturb the global counter (this integration-test binary
//! contains nothing else).

use ranked_access::prelude::*;
use ranked_access::rda_db::relation_encode_count;

fn encodes_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = relation_encode_count();
    let out = f();
    (out, relation_encode_count() - before)
}

#[test]
fn freezing_encodes_once_and_builders_encode_nothing() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let qcov = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let qproj = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows(
            "R",
            2,
            (0..200i64)
                .map(|i| vec![i % 23, i % 17])
                .collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S",
            2,
            (0..200i64)
                .map(|i| vec![i % 17, i % 29])
                .collect::<Vec<_>>(),
        );

    // Freeze: exactly one encoding per relation.
    let (snap, n) = encodes_during(|| db.freeze());
    assert_eq!(
        n,
        snap.relation_count() as u64,
        "freeze encodes each relation exactly once"
    );

    // Every backend builds from the snapshot without re-encoding —
    // including a second engine over the same snapshot.
    let engine = Engine::new(std::sync::Arc::clone(&snap));
    let (_, n) = encodes_during(|| {
        // Native lexicographic direct access (full + partial orders).
        let lex = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "y", "z"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(lex.backend(), Backend::LexDirectAccess);
        let partial = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(partial.backend(), Backend::LexDirectAccess);
        // Native sum direct access.
        let sum = engine
            .prepare(
                &qcov,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(sum.backend(), Backend::SumDirectAccess);
        // Lazy selection handles (lex + sum), exercised end to end.
        let sel_lex = engine
            .prepare(
                &q,
                OrderSpec::lex(&q, &["x", "z", "y"]),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(sel_lex.backend(), Backend::SelectionLex);
        assert!(sel_lex.access(0).is_some());
        let sel_sum = engine
            .prepare(
                &q,
                OrderSpec::sum_by_value(),
                &FdSet::empty(),
                Policy::Reject,
            )
            .unwrap();
        assert_eq!(sel_sum.backend(), Backend::SelectionSum);
        assert!(sel_sum.access(0).is_some());
        // Materialized fallback.
        let mat = engine
            .prepare(
                &qproj,
                OrderSpec::lex(&qproj, &["x", "z"]),
                &FdSet::empty(),
                Policy::Materialize,
            )
            .unwrap();
        assert_eq!(mat.backend(), Backend::Materialized);
        // Serve a few answers from each — accesses must not encode
        // either.
        for plan in [&lex, &partial, &sum, &sel_lex, &sel_sum, &mat] {
            for k in 0..plan.len().min(5) {
                let t = plan.access(k).unwrap();
                assert_eq!(plan.inverted_access(&t), Some(k));
            }
        }
    });
    assert_eq!(
        n, 0,
        "building and serving from a snapshot must never re-encode"
    );

    // Direct builders on the snapshot obey the same contract.
    let (_, n) = encodes_during(|| {
        let da = LexDirectAccess::build_on(&q, &snap, &q.vars(&["x", "y", "z"]), &FdSet::empty())
            .unwrap();
        assert!(!da.is_empty());
        let sda =
            SumDirectAccess::build_on(&qcov, &snap, &Weights::identity(), &FdSet::empty()).unwrap();
        assert!(!sda.is_empty());
    });
    assert_eq!(n, 0, "build_on must not re-encode");

    // FD builds run the whole extension pipeline in code space too.
    let qfd = parse("Q(x, z) :- R2(x, y), S2(y, z)").unwrap();
    let fds = FdSet::parse(&qfd, &[("S2", "y", "z")]);
    let db2 = Database::new()
        .with_i64_rows(
            "R2",
            2,
            (0..60i64).map(|i| vec![i, i % 9]).collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S2",
            2,
            (0..9i64).map(|y| vec![y, (y * 5) % 7]).collect::<Vec<_>>(),
        );
    let (snap2, n) = encodes_during(|| db2.freeze());
    assert_eq!(n, 2);
    let (_, n) = encodes_during(|| {
        let da = LexDirectAccess::build_on(&qfd, &snap2, &qfd.vars(&["x", "z"]), &fds).unwrap();
        assert!(!da.is_empty());
        let sda = SumDirectAccess::build_on(&qfd, &snap2, &Weights::identity(), &fds).unwrap();
        assert!(!sda.is_empty());
    });
    assert_eq!(n, 0, "FD-extended builds must stay in code space");

    // The deprecated one-shot convenience (`build`) is the one path
    // that still freezes per call — one fresh encoding pass, bounded by
    // the relation count, never more.
    let (_, n) = encodes_during(|| {
        LexDirectAccess::build(
            &q,
            &snap.to_database(),
            &q.vars(&["x", "y", "z"]),
            &FdSet::empty(),
        )
        .unwrap()
    });
    assert_eq!(n, snap.relation_count() as u64);
}
