//! Batched pages across `advance_delta` generations, sharded and not.
//!
//! The cursor contract extends to the batch path verbatim: a
//! `page_batch` issued against generation 0 and replayed on a
//! *descendant* snapshot whose delta provably cannot affect the plan
//! (no dependency dirtied) must serve exactly what a fresh
//! `access_range`/`access_batch` over the current generation serves —
//! flagged `resumed`, never silently wrong. The moment a dependency
//! *is* dirtied, the same token must fail typed
//! (`CursorStale(DirtyDependency)`), naming the relation and versions.
//!
//! The same file proves the tentpole's serving claim: cursors carry
//! shard-aware snapshot lineage **unchanged**. A server over an
//! `Engine::with_shards` engine issues, resumes, and staleness-checks
//! tokens identically to an unsharded server — sharding is invisible
//! at the cursor layer because per-shard views share the base
//! snapshot's uid, generation, and ancestry.

use rda_core::{DirectAccess as _, Engine, OrderSpec, Policy};
use rda_db::{Database, ShardSpec, Tuple, Value};
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

/// Drive one engine (sharded or not) through three clean descendant
/// generations, batching through a generation-0 token each time, then
/// dirty a dependency and demand the typed failure.
fn exercise_generations(engine: Arc<Engine>, mut db: Database) {
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

#[test]
fn batched_pages_resume_on_descendants_and_fail_typed_on_dirty_deps() {
    let mut db = gen_db();
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    exercise_generations(engine, db);
}

/// The identical script over a forced-3-shard engine: every token
/// behaviour — resume, equality with fresh batches, typed staleness —
/// is unchanged, proving cursors never see the sharding.
#[test]
fn sharded_engine_serves_the_same_cursor_contract() {
    let mut db = gen_db();
    let engine = Arc::new(Engine::with_shards(
        db.clone().freeze(),
        ShardSpec::Forced(3),
    ));
    assert_eq!(engine.shard_count(), 3);
    db.clear_mutation_log();
    exercise_generations(Arc::clone(&engine), db);
    assert_eq!(engine.shard_count(), 3, "advances kept the engine sharded");
}

/// Sharded and unsharded servers serve byte-identical pages for the
/// same request — the cursor layer cannot tell them apart, and neither
/// can a client diffing every page.
#[test]
fn sharded_and_unsharded_servers_page_identically() {
    let db = gen_db();
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plain = Server::with_defaults(Arc::new(Engine::new(db.clone().freeze())));
    let sharded = Server::with_defaults(Arc::new(Engine::with_shards(
        db.clone().freeze(),
        ShardSpec::Forced(7),
    )));
    let mut a = plain.session();
    let mut b = sharded.session();
    let fds = FdSet::empty();
    let order = || OrderSpec::lex(&q, &["x", "y", "z"]);
    let pa = a.prepare(&q, order(), &fds, Policy::Reject).unwrap();
    let pb = b.prepare(&q, order(), &fds, Policy::Reject).unwrap();
    assert_eq!(pa.len, pb.len);
    assert_eq!(pa.backend, pb.backend, "the reported backend is the same");

    // Walk both sequences page by page through the streaming cursor.
    let (mut ta, mut tb) = (Some(pa.token), Some(pb.token));
    while let (Some(na), Some(nb)) = (&ta, &tb) {
        let oa = a.stream_next(na, 4).unwrap();
        let ob = b.stream_next(nb, 4).unwrap();
        assert_eq!(a.rows().to_tuples(), b.rows().to_tuples());
        assert_eq!(oa.rows, ob.rows);
        ta = oa.next;
        tb = ob.next;
    }
    assert!(ta.is_none() && tb.is_none(), "both streams end together");

    // And scattered batches agree rank for rank.
    let pa = a.prepare(&q, order(), &fds, Policy::Reject).unwrap();
    let pb = b.prepare(&q, order(), &fds, Policy::Reject).unwrap();
    let ranks: Vec<u64> = (0..pa.len).rev().chain([pa.len + 3, 0, 1, 1]).collect();
    a.page_batch(&pa.token, &ranks).unwrap();
    let rows_a = a.rows().to_tuples();
    b.page_batch(&pb.token, &ranks).unwrap();
    assert_eq!(rows_a, b.rows().to_tuples());
}
