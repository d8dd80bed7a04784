//! Cursor hardening: no byte string a client can send — random
//! garbage, tampered tokens, truncations, extensions — may panic the
//! server or decode into a different cursor; and a cursor resumed
//! across a `freeze_delta` boundary must reproduce a fresh
//! `access_range` oracle exactly.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rda_core::{DirectAccess, Engine, OrderSpec, Policy};
use rda_db::{Database, Tuple, Value};
use rda_query::parser::parse;
use rda_query::FdSet;
use rda_serve::{Cursor, ServeError, Server, ServerConfig, Token};
use std::sync::Arc;

fn sample_cursor() -> Cursor {
    Cursor {
        request_key: "2:Q|1:R|1:S|lex<0,1,2>|{Reject}".to_string(),
        snapshot_uid: 0x1234_5678_9abc,
        generation: 3,
        next_rank: 17,
        deps: vec![("R".to_string(), 1), ("S".to_string(), 0)],
    }
}

#[test]
fn random_garbage_never_decodes() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for _ in 0..2000 {
        let len = rng.random_range(0..200usize);
        let bytes: Vec<u8> = (0..len)
            .map(|_| rng.random_range(0..=255u64) as u8)
            .collect();
        // Must return a typed error — never panic, never succeed (a
        // random string that passes the checksum would need a 64-bit
        // checksum collision).
        assert!(Cursor::decode_bytes(&bytes).is_err());
    }
}

#[test]
fn random_tampering_never_decodes() {
    let token = sample_cursor().encode();
    let mut rng = StdRng::seed_from_u64(0xBAD5EED);
    for _ in 0..2000 {
        let mut bytes = token.as_bytes().to_vec();
        for _ in 0..rng.random_range(1..5usize) {
            let i = rng.random_range(0..bytes.len());
            // XOR with a nonzero byte: guaranteed to actually change it.
            bytes[i] ^= rng.random_range(1..=255u64) as u8;
        }
        assert!(
            Cursor::decode_bytes(&bytes).is_err(),
            "tampered token decoded"
        );
    }
}

#[test]
fn random_splices_never_decode() {
    let token = sample_cursor().encode();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    for _ in 0..2000 {
        let mut bytes = token.as_bytes().to_vec();
        match rng.random_range(0..3u32) {
            // Truncate anywhere.
            0 => bytes.truncate(rng.random_range(0..bytes.len())),
            // Append garbage.
            1 => {
                for _ in 0..rng.random_range(1..10usize) {
                    bytes.push(rng.random_range(0..=255u64) as u8);
                }
            }
            // Delete a middle chunk.
            _ => {
                let from = rng.random_range(0..bytes.len());
                let upto = rng.random_range(from..bytes.len());
                bytes.drain(from..=upto);
            }
        }
        if bytes == token.as_bytes() {
            continue; // the splice was a no-op
        }
        assert!(
            Cursor::decode_bytes(&bytes).is_err(),
            "spliced token decoded"
        );
    }
}

/// The same hostility at the service boundary: a server fed thousands
/// of corrupted tokens answers every one with a typed error and keeps
/// serving real traffic afterwards.
#[test]
fn server_survives_a_corrupted_token_storm() {
    let db = Database::new()
        .with_i64_rows("R", 2, (0..30i64).map(|i| vec![i % 11, i % 5]))
        .with_i64_rows("S", 2, (0..30i64).map(|i| vec![i % 5, i % 7]));
    let engine = Arc::new(Engine::new(db.freeze()));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: 2,
            queue_limit: 64,
            ..ServerConfig::default()
        },
    );
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

    let mut rng = StdRng::seed_from_u64(42);
    for i in 0..500 {
        let mut bytes = prepared.token.as_bytes().to_vec();
        if i % 2 == 0 {
            let at = rng.random_range(0..bytes.len());
            bytes[at] ^= rng.random_range(1..=255u64) as u8;
        } else {
            bytes.truncate(rng.random_range(0..bytes.len()));
        }
        match session.stream_next(&Token::from_bytes(bytes), 3) {
            Err(ServeError::BadCursor(_)) => {}
            other => panic!("corrupted token #{i}: expected BadCursor, got {other:?}"),
        }
    }
    assert_eq!(server.stats().bad_cursors, 500);
    // The untouched token still works.
    let page = session.stream_next(&prepared.token, 3).unwrap();
    assert_eq!(page.rows, 3);
}

/// A token in wire format 1: the same fields, sealed with a byte-wise
/// FNV-1a checksum.
fn version_1_token(c: &Cursor) -> Vec<u8> {
    fn push_str(out: &mut Vec<u8>, s: &str) {
        out.extend_from_slice(&(s.len() as u32).to_le_bytes());
        out.extend_from_slice(s.as_bytes());
    }
    let mut out = vec![1u8];
    for field in [c.snapshot_uid, c.generation, c.next_rank] {
        out.extend_from_slice(&field.to_le_bytes());
    }
    push_str(&mut out, &c.request_key);
    out.extend_from_slice(&(c.deps.len() as u32).to_le_bytes());
    for (name, version) in &c.deps {
        push_str(&mut out, name);
        out.extend_from_slice(&version.to_le_bytes());
    }
    let sum = out.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Tokens minted by an older build fail typed, with no converter, and
/// the session that received one keeps serving.
#[test]
fn version_1_tokens_are_refused_typed() {
    use rda_serve::CursorError::UnsupportedVersion;
    let old = version_1_token(&sample_cursor());
    assert_eq!(Cursor::decode_bytes(&old), Err(UnsupportedVersion(1)));

    let db = Database::new().with_i64_rows("R", 2, (0..20i64).map(|i| vec![i % 3, i]));
    let server = Server::with_defaults(Arc::new(Engine::new(db.freeze())));
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let mut session = server.session();
    let order = OrderSpec::lex(&q, &["x", "y"]);
    let prepared = session
        .prepare(&q, order, &FdSet::empty(), Policy::Reject)
        .unwrap();
    let live = Cursor::decode(&prepared.token).unwrap();
    let old = Token::from_bytes(version_1_token(&live));
    match session.stream_next(&old, 3) {
        Err(ServeError::BadCursor(UnsupportedVersion(1))) => {}
        other => panic!("a version-1 token: expected BadCursor, got {other:?}"),
    }
    assert_eq!(server.stats().bad_cursors, 1);
    assert_eq!(session.stream_next(&prepared.token, 3).unwrap().rows, 3);
}

fn tup(a: i64, b: i64) -> Tuple {
    [Value::int(a), Value::int(b)].into_iter().collect()
}

/// The resumability differential: page a sequence through the service
/// with `freeze_delta` boundaries (touching only relations the plan
/// does not read) landing mid-pagination, and check the concatenation
/// against a fresh single-threaded `access_range` oracle.
#[test]
fn resumed_pages_match_fresh_access_range_oracle_across_freeze_delta() {
    let mut db = Database::new()
        .with_i64_rows("R", 2, (0..50i64).map(|i| vec![i % 13, i % 7]))
        .with_i64_rows("S", 2, (0..50i64).map(|i| vec![i % 7, (i * 3) % 11]))
        .with_i64_rows("T", 2, (0..10i64).map(|i| vec![i, i]));
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    let server = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();

    let mut session = server.session();
    let prepared = session
        .prepare(
            &q,
            OrderSpec::lex(&q, &["y", "x", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let mut token = prepared.token;
    let mut rows: Vec<Tuple> = Vec::new();
    let mut generations_crossed = 0;
    loop {
        let page = session
            .stream_next(&token, rng.random_range(1..5u64))
            .unwrap();
        rows.extend(session.rows().to_tuples());
        generations_crossed += u64::from(page.resumed);
        match page.next {
            Some(next) => token = next,
            None => break,
        }
        // A delta freeze between every page: only T is dirtied, so
        // every single resume crosses a generation boundary cleanly.
        db.insert_into("T", tup(1000 + rows.len() as i64, 0));
        engine.advance_delta(&mut db);
    }
    assert!(
        generations_crossed >= 2,
        "pagination never crossed a freeze_delta"
    );

    // Fresh oracle over the final snapshot (R and S never changed, so
    // the sequence is the same one the cursor started on).
    let oracle_plan = Engine::new(engine.snapshot())
        .prepare(
            &q,
            OrderSpec::lex(&q, &["y", "x", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(rows, oracle_plan.access_range(0..oracle_plan.len()));
    assert_eq!(rows.len() as u64, prepared.len);
}
