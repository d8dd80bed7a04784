//! Batched pages across `advance_delta` generations.
//!
//! The cursor contract extends to the batch path verbatim: a
//! `page_batch` issued against generation 0 and replayed on a
//! *descendant* snapshot whose delta provably cannot affect the plan
//! (no dependency dirtied) must serve exactly what a fresh
//! `access_range`/`access_batch` over the current generation serves —
//! flagged `resumed`, never silently wrong. The moment a dependency
//! *is* dirtied, the same token must fail typed
//! (`CursorStale(DirtyDependency)`), naming the relation and versions.

use rda_core::{DirectAccess as _, Engine, OrderSpec, Policy};
use rda_db::{Database, Tuple, Value};
use rda_query::parser::parse;
use rda_query::FdSet;
use rda_serve::{ServeError, Server, StaleReason};
use std::sync::Arc;

fn tup(a: i64, b: i64) -> Tuple {
    [Value::int(a), Value::int(b)].into_iter().collect()
}

/// Join deps `R`, `S`; `U` is the no-op lever each clean generation
/// pulls.
fn gen_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..24i64).map(|i| vec![i % 9, i % 5]))
        .with_i64_rows("S", 2, (0..24i64).map(|i| vec![i % 5, (i * 3) % 8]))
        .with_i64_rows("U", 2, vec![vec![0, 0]])
}

/// The fresh ground truth at the engine's current generation.
fn fresh_batch(engine: &Arc<Engine>, ranks: &[u64]) -> Vec<Tuple> {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    plan.access_batch(ranks)
}

/// Drive one engine through three clean descendant generations,
/// batching through a generation-0 token each time, then dirty a
/// dependency and demand the typed failure.
#[test]
fn batched_pages_resume_on_descendants_and_fail_typed_on_dirty_deps() {
    let mut db = gen_db();
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    let server = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut session = server.session();
    let prepared = session
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let len = prepared.len;
    assert!(len > 10, "the join must be non-trivial");

    // Scattered, duplicated, boundary-hugging, and out-of-range ranks.
    let ranks: Vec<u64> = vec![len - 1, 0, len / 2, len / 2, 3, len, len + 7, 1];

    for generation in 1..=3u64 {
        db.insert_into("U", tup(generation as i64, generation as i64));
        engine.advance_delta(&mut db);

        // The stale-generation token batches on the descendant: clean
        // deps, so it must resume — and equal the fresh ground truth.
        let out = session.page_batch(&prepared.token, &ranks).unwrap();
        assert!(
            out.resumed,
            "generation {generation}: clean deps must resume"
        );
        assert_eq!(out.generation, generation);
        assert_eq!(
            session.rows().to_tuples(),
            fresh_batch(&engine, &ranks),
            "generation {generation}: batch equals a fresh access_batch"
        );

        // And the plain paged window agrees with a fresh access_range.
        let out = session.page(&prepared.token, 2, 5).unwrap();
        assert!(out.resumed);
        assert_eq!(
            session.rows().to_tuples(),
            fresh_batch(&engine, &(2..7).collect::<Vec<u64>>()),
            "generation {generation}: resumed page equals fresh access_range"
        );
    }

    // Dirty a real dependency: the very same token now fails typed.
    db.insert_into("R", tup(100, 100));
    engine.advance_delta(&mut db);
    match session.page_batch(&prepared.token, &ranks) {
        Err(ServeError::CursorStale(StaleReason::DirtyDependency {
            relation,
            cursor_version,
            current_version,
        })) => {
            assert_eq!(relation, "R");
            assert_eq!(cursor_version, 0);
            // Versions are generation-stamped: R last changed at the
            // 4th delta of this script.
            assert_eq!(current_version, Some(4));
        }
        other => panic!("expected DirtyDependency, got {other:?}"),
    }
    // The failure is sticky across further generations, not a race.
    db.insert_into("U", tup(9, 9));
    engine.advance_delta(&mut db);
    assert!(matches!(
        session.page_batch(&prepared.token, &ranks),
        Err(ServeError::CursorStale(StaleReason::DirtyDependency { .. }))
    ));
}
