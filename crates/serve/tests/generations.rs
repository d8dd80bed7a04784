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
use rda_query::{Cq, FdSet};
use rda_serve::{ServeError, Server, Session, StaleReason, Token};
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

/// The join's lex order, as every pin-path case prepares it.
fn join_order(q: &Cq) -> OrderSpec {
    OrderSpec::lex(q, &["x", "y", "z"])
}

/// The rebuild oracle: a plan built afresh (no cache, no pin) on the
/// engine's current snapshot, read at `lo..hi`.
fn rebuilt(engine: &Engine, q: &Cq, lo: u64, hi: u64) -> Vec<Tuple> {
    let plan = engine
        .prepare_uncached(q, join_order(q), &FdSet::empty(), Policy::Reject)
        .unwrap();
    plan.access_range(lo..hi)
}

/// One engine, one server and the join query, with `U` as the clean
/// lever and `R` as the dirty one.
fn pin_world() -> (Database, Arc<Engine>, Cq) {
    let mut db = gen_db();
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    (db, engine, parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap())
}

fn prepare(session: &mut Session<'_>, q: &Cq) -> Token {
    session
        .prepare(q, join_order(q), &FdSet::empty(), Policy::Reject)
        .unwrap()
        .token
}

/// A warm pin does not outlive its snapshot: after a clean `advance`
/// the old token is validated and resumes; after a dirty one it fails
/// typed.
#[test]
fn a_warm_pin_resumes_clean_and_refuses_dirty_generations() {
    let (mut db, engine, q) = pin_world();
    let server = Server::with_defaults(Arc::clone(&engine));
    let mut session = server.session();
    let token = prepare(&mut session, &q);
    let warm = session.page(&token, 0, 4).unwrap();
    assert!(!warm.resumed);
    assert_eq!(session.rows().to_tuples(), rebuilt(&engine, &q, 0, 4));

    db.insert_into("U", tup(1, 1));
    engine.advance_delta(&mut db);
    let out = session.page(&token, 2, 5).unwrap();
    assert!(out.resumed, "a clean advance resumes the pinned token");
    assert_eq!(out.generation, 1);
    assert_eq!(session.rows().to_tuples(), rebuilt(&engine, &q, 2, 7));

    db.insert_into("R", tup(100, 100));
    engine.advance_delta(&mut db);
    for stale in [&token, &out.next.unwrap()] {
        match session.page(stale, 0, 4) {
            Err(ServeError::CursorStale(StaleReason::DirtyDependency { relation, .. })) => {
                assert_eq!(relation, "R")
            }
            other => panic!("expected DirtyDependency, got {other:?}"),
        }
    }
}

/// A token of an older snapshot is never served from a pin that has
/// moved on to a newer one under the same request key: it still goes
/// through validation — resuming when clean, refused when dirty.
#[test]
fn an_older_token_is_validated_not_served_from_a_newer_pin() {
    let (mut db, engine, q) = pin_world();
    let server = Server::with_defaults(Arc::clone(&engine));
    let mut session = server.session();
    let old = prepare(&mut session, &q);

    // Clean: the newer pin serves its own token, the older one resumes.
    db.insert_into("U", tup(1, 1));
    engine.advance_delta(&mut db);
    let newer = prepare(&mut session, &q);
    assert!(!session.page(&newer, 0, 3).unwrap().resumed);
    let out = session.page(&old, 0, 3).unwrap();
    assert!(out.resumed, "the older token went through validation");
    assert_eq!(session.rows().to_tuples(), rebuilt(&engine, &q, 0, 3));

    // Dirty: the pin is re-made on the newest snapshot, yet the older
    // token is refused.
    db.insert_into("R", tup(100, 100));
    engine.advance_delta(&mut db);
    let newest = prepare(&mut session, &q);
    assert!(session.page(&newest, 0, 3).is_ok());
    assert!(matches!(
        session.page(&newer, 0, 3),
        Err(ServeError::CursorStale(StaleReason::DirtyDependency { .. }))
    ));
    let out = session.page(&newest, 1, 4).unwrap();
    assert!(!out.resumed);
    assert_eq!(session.rows().to_tuples(), rebuilt(&engine, &q, 1, 5));
}

/// Two sessions on one request key keep independent pins: one
/// session's page after an `advance` re-pins that session only, so the
/// other still validates (and resumes) its own older token.
#[test]
fn interleaved_sessions_keep_independent_pins_across_an_advance() {
    let (mut db, engine, q) = pin_world();
    let server = Server::with_defaults(Arc::clone(&engine));
    let (mut a, mut b) = (server.session(), server.session());
    let (ta, tb) = (prepare(&mut a, &q), prepare(&mut b, &q));
    assert!(!a.page(&ta, 0, 2).unwrap().resumed);
    assert!(!b.page(&tb, 0, 2).unwrap().resumed);

    db.insert_into("U", tup(1, 1));
    engine.advance_delta(&mut db);
    let next_a = a.stream_next(&ta, 3).unwrap();
    assert!(next_a.resumed);
    let next_b = b.stream_next(&tb, 3).unwrap();
    assert!(next_b.resumed, "b's pin did not move with a's");
    assert_eq!(a.rows().to_tuples(), rebuilt(&engine, &q, 0, 3));
    assert_eq!(b.rows().to_tuples(), a.rows().to_tuples());

    let (next_a, next_b) = (next_a.next.unwrap(), next_b.next.unwrap());
    for (session, token) in [(&mut a, &next_a), (&mut b, &next_b)] {
        let out = session.stream_next(token, 4).unwrap();
        assert!(!out.resumed, "each session now serves from its own pin");
        assert_eq!(session.rows().to_tuples(), rebuilt(&engine, &q, 3, 7));
    }
}
