//! The service contract end to end: concurrent zipfian sessions
//! against one server observe exactly what a single-threaded oracle
//! observes, cursors resume cleanly across generations whose changes
//! they provably cannot see and fail typed when they could, and the
//! bounded admission queue sheds load deterministically.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rda_core::{DirectAccess, Engine, OrderSpec, Policy};
use rda_db::{Database, Snapshot, Tuple, Value};
use rda_query::parser::parse;
use rda_query::{Cq, FdSet};
use rda_serve::{ServeError, Server, ServerConfig, StaleReason, Token};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

fn service_db(n: i64) -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..n).map(|i| vec![i % 13, i % 7]))
        .with_i64_rows("S", 2, (0..n).map(|i| vec![i % 7, (i * 5) % 11]))
        .with_i64_rows("T", 2, (0..n).map(|i| vec![(i * 3) % 17, i % 5]))
}

fn tup(a: i64, b: i64) -> Tuple {
    [Value::int(a), Value::int(b)].into_iter().collect()
}

/// The full ranked sequence for a request, from a fresh
/// single-threaded engine over `snap` — the ground truth every
/// concurrent session must reproduce.
fn oracle(snap: &Arc<Snapshot>, q: &Cq, order: OrderSpec) -> Vec<Tuple> {
    let plan = Engine::new(Arc::clone(snap))
        .prepare(q, order, &FdSet::empty(), Policy::Reject)
        .unwrap();
    plan.access_range(0..plan.len())
}

/// Zipf(s) pick over `n` items: item 0 is the hot query, the tail is
/// cold — the classic skew of a serving workload.
fn zipf_pick(rng: &mut StdRng, n: usize, s: f64) -> usize {
    let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let mut u = rng.random_f64() * weights.iter().sum::<f64>();
    for (i, w) in weights.iter().enumerate() {
        if u < *w {
            return i;
        }
        u -= w;
    }
    n - 1
}

struct Report {
    order: usize,
    join_rows: Vec<Tuple>,
    resumed_seen: bool,
    stale: ServeError,
    t_rows: Vec<Tuple>,
}

/// The acceptance scenario: N client sessions with zipfian query
/// popularity page concurrently while the writer lands an
/// `advance_delta` touching only `T`. Join cursors (deps `R`, `S`)
/// must resume transparently across the generation and reproduce the
/// single-threaded oracle exactly; `T` cursors must fail with a typed
/// `CursorStale` naming the dirty relation, then re-prepare and read
/// the new generation exactly.
#[test]
fn zipfian_sessions_match_oracle_across_generations() {
    const CLIENTS: usize = 6;
    let mut db = service_db(60);
    let snap0 = db.clone().freeze();
    db.clear_mutation_log();
    let engine = Arc::new(Engine::new(Arc::clone(&snap0)));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: 4,
            queue_limit: 128,
            ..ServerConfig::default()
        },
    );

    let join_q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let t_q = parse("P(x, y) :- T(x, y)").unwrap();
    let orders: Vec<Vec<&str>> = vec![
        vec!["x", "y", "z"],
        vec!["y", "x", "z"],
        vec!["z", "y", "x"],
    ];

    let barrier = Barrier::new(CLIENTS + 1);
    let reports: Mutex<Vec<Report>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, barrier, reports) = (&server, &barrier, &reports);
            let (join_q, t_q, orders) = (&join_q, &t_q, &orders);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(7 * c as u64 + 1);
                let mut session = server.session();
                let order = zipf_pick(&mut rng, orders.len(), 1.2);
                let prepared = session
                    .prepare(
                        join_q,
                        OrderSpec::lex(join_q, &orders[order]),
                        &FdSet::empty(),
                        Policy::Reject,
                    )
                    .unwrap();
                let total = prepared.len;
                assert!(total >= 8, "workload too small to split across the update");
                let mut token = prepared.token;
                let mut join_rows: Vec<Tuple> = Vec::new();
                // Page the first half in small bites; the barrier below
                // guarantees the generation flips mid-sequence.
                while (join_rows.len() as u64) < total / 2 {
                    let len = rng.random_range(1..3u64);
                    let page = session.stream_next(&token, len).unwrap();
                    join_rows.extend(session.rows().to_tuples());
                    token = page.next.expect("not at the end before the update");
                }
                let t_prepared = session
                    .prepare(
                        t_q,
                        OrderSpec::lex(t_q, &["x", "y"]),
                        &FdSet::empty(),
                        Policy::Reject,
                    )
                    .unwrap();

                barrier.wait(); // writer lands advance_delta (dirties T)
                barrier.wait();

                // Clean resume: R and S did not change, so the cursor
                // continues the identical sequence on the new generation.
                let mut resumed_seen = false;
                let mut done = false;
                while !done {
                    let len = rng.random_range(1..6u64);
                    let page = session.stream_next(&token, len).unwrap();
                    resumed_seen |= page.resumed;
                    join_rows.extend(session.rows().to_tuples());
                    match page.next {
                        Some(next) => token = next,
                        None => done = true,
                    }
                }
                // Dirty resume: T changed under the cursor.
                let stale = session.stream_next(&t_prepared.token, 4).unwrap_err();
                let reprepared = session
                    .prepare(
                        t_q,
                        OrderSpec::lex(t_q, &["x", "y"]),
                        &FdSet::empty(),
                        Policy::Reject,
                    )
                    .unwrap();
                let mut t_rows: Vec<Tuple> = Vec::new();
                let mut t_token = reprepared.token;
                loop {
                    let page = session.stream_next(&t_token, 7).unwrap();
                    t_rows.extend(session.rows().to_tuples());
                    match page.next {
                        Some(next) => t_token = next,
                        None => break,
                    }
                }
                reports.lock().unwrap().push(Report {
                    order,
                    join_rows,
                    resumed_seen,
                    stale,
                    t_rows,
                });
            });
        }
        barrier.wait(); // all clients mid-sequence
        db.insert_into("T", tup(100, 100));
        engine.advance_delta(&mut db);
        barrier.wait();
    });

    let snap1 = engine.snapshot();
    assert_eq!(snap1.generation(), 1);
    let t_oracle = oracle(&snap1, &t_q, OrderSpec::lex(&t_q, &["x", "y"]));
    let reports = reports.into_inner().unwrap();
    assert_eq!(reports.len(), CLIENTS);
    for report in reports {
        // The paged sequence spans the generation flip yet matches the
        // prepare-time oracle exactly: no skips, no repeats.
        let expected = oracle(
            &snap0,
            &join_q,
            OrderSpec::lex(&join_q, &orders[report.order]),
        );
        assert_eq!(
            report.join_rows, expected,
            "order {:?} diverged",
            orders[report.order]
        );
        assert!(report.resumed_seen, "cursor never crossed the generation");
        match &report.stale {
            ServeError::CursorStale(StaleReason::DirtyDependency { relation, .. }) => {
                assert_eq!(relation, "T");
            }
            other => panic!("expected DirtyDependency stale error, got {other:?}"),
        }
        assert_eq!(report.t_rows, t_oracle);
    }
    assert_eq!(server.stats().overloaded, 0, "nominal load must not shed");
}

/// Random access through the service: a cursor proves freshness, the
/// offset is free-form, and every page equals the oracle's slice.
#[test]
fn paged_random_access_matches_oracle_slices() {
    let db = service_db(40);
    let snap = db.freeze();
    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let expected = oracle(&snap, &q, OrderSpec::lex(&q, &["x", "y", "z"]));

    let mut session = server.session();
    let prepared = session
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(prepared.len as usize, expected.len());
    let mut rng = StdRng::seed_from_u64(99);
    for _ in 0..32 {
        let offset = rng.random_range(0..prepared.len + 3);
        let len = rng.random_range(1..9u64);
        let page = session.page(&prepared.token, offset, len).unwrap();
        let lo = offset.min(prepared.len);
        let hi = (offset + len).min(prepared.len);
        assert_eq!(page.rows, hi - lo);
        assert_eq!(
            session.rows().to_tuples(),
            expected[lo as usize..hi as usize],
            "window [{lo}, {hi})"
        );
    }
}

const WORKERS: usize = 2;
const QUEUE: usize = 3;

/// Runs `body` against a paused server that holds exactly
/// `QUEUE + WORKERS` parked requests (each worker parks on at most one;
/// each filler retries until admitted), so every further submission
/// fails immediately and deterministically. `body` gets the server, a
/// join cursor with at least 32 answers, and `release`, which resumes
/// the server and waits until everything admitted has completed; it is
/// called on `body`'s return if `body` did not. Everything admitted
/// must complete.
fn saturated(body: impl FnOnce(&Server, &Token, &dyn Fn())) {
    let db = service_db(60);
    let engine = Arc::new(Engine::new(db.freeze()));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: WORKERS,
            queue_limit: QUEUE,
            ..ServerConfig::default()
        },
    );
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let prepared = server
        .session()
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert!(prepared.len >= 32, "workload too small for a full page");
    let admitted_before = server.stats().admitted;

    server.pause();
    let capacity = QUEUE + WORKERS;
    let outcomes: Mutex<Vec<Result<u64, ServeError>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..capacity {
            let (server, outcomes) = (&server, &outcomes);
            let token = prepared.token.clone();
            scope.spawn(move || {
                let mut session = server.session();
                loop {
                    match session.stream_next(&token, 2) {
                        Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                        other => {
                            outcomes.lock().unwrap().push(other.map(|p| p.rows));
                            return;
                        }
                    }
                }
            });
        }
        while server.stats().admitted - admitted_before < capacity as u64 {
            std::thread::yield_now();
        }
        let release = || {
            server.resume();
            while outcomes.lock().unwrap().len() < capacity {
                std::thread::yield_now();
            }
        };
        // A failed assertion in `body` must fail the test, not leave the
        // fillers parked and the scope waiting for them.
        struct ResumeOnDrop<'a>(&'a Server);
        impl Drop for ResumeOnDrop<'_> {
            fn drop(&mut self) {
                self.0.resume();
            }
        }
        let _resume = ResumeOnDrop(&server);
        body(&server, &prepared.token, &release);
        release();
    });
    assert_eq!(
        outcomes.into_inner().unwrap(),
        vec![Ok(2); capacity],
        "admitted requests must complete after resume"
    );
}

/// Deterministic load shedding: once `admitted` shows the pool
/// saturated, every further submission must be rejected with the typed
/// `Overloaded` error — and after `resume`, everything admitted
/// completes.
#[test]
fn full_admission_queue_rejects_with_typed_overloaded() {
    saturated(|server, token, _release| {
        for _ in 0..2 {
            let err = server.session().stream_next(token, 2).unwrap_err();
            assert_eq!(err, ServeError::Overloaded { queue_limit: QUEUE });
        }
        assert!(server.stats().overloaded >= 2);
    });
}

/// A request whose deadline has already passed when a worker picks it
/// up is dropped with a typed error — and the session (buffer and
/// all) stays usable.
#[test]
fn expired_deadlines_are_dropped_at_dequeue() {
    let db = service_db(30);
    let engine = Arc::new(Engine::new(db.freeze()));
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

    session.set_deadline(Duration::ZERO);
    match session.stream_next(&prepared.token, 4) {
        Err(ServeError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(server.stats().deadline_expired, 1);

    session.set_deadline(Duration::from_secs(5));
    let page = session.stream_next(&prepared.token, 4).unwrap();
    assert_eq!(page.rows, 4);
}

/// A deadline too large to add to the clock means "never expires":
/// `Instant + Duration::MAX` must not overflow into a panic on the
/// client's thread, outside the fence.
#[test]
fn unbounded_deadlines_never_expire() {
    let db = service_db(30);
    let engine = Arc::new(Engine::new(db.freeze()));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            default_deadline: Duration::MAX,
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
    assert_eq!(session.page(&prepared.token, 0, 4).unwrap().rows, 4);

    let bounded = Server::with_defaults(Arc::clone(&engine));
    let mut session = bounded.session();
    session.set_deadline(Duration::MAX);
    let prepared = session
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(session.stream_next(&prepared.token, 4).unwrap().rows, 4);
    assert_eq!(server.stats().deadline_expired, 0);
    assert_eq!(bounded.stats().deadline_expired, 0);
}

/// Waiting counts against the deadline: with one execution slot and
/// the server paused, request A holds the slot at the gate and request
/// B (10 ms deadline) waits behind it. Resuming after 30 ms serves A
/// and sheds B — it got its slot too late.
#[test]
fn waiting_for_a_slot_counts_against_the_deadline() {
    let db = service_db(30);
    let engine = Arc::new(Engine::new(db.freeze()));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let prepared = server
        .session()
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let admitted_before = server.stats().admitted;
    let wait_admitted = |n: u64| {
        while server.stats().admitted - admitted_before < n {
            std::thread::yield_now();
        }
    };

    server.pause();
    std::thread::scope(|scope| {
        let page = |deadline: Duration| {
            let (server, token) = (&server, &prepared.token);
            move || {
                let mut session = server.session();
                session.set_deadline(deadline);
                session.page(token, 0, 2).map(|p| p.rows)
            }
        };
        let a = scope.spawn(page(Duration::from_secs(5)));
        wait_admitted(1);
        let b = scope.spawn(page(Duration::from_millis(10)));
        wait_admitted(2);
        std::thread::sleep(Duration::from_millis(30));
        server.resume();
        assert_eq!(a.join().unwrap(), Ok(2));
        assert_eq!(b.join().unwrap(), Err(ServeError::DeadlineExceeded));
    });
    assert_eq!(server.stats().deadline_expired, 1);
}

/// The full stale-cursor policy through the service API.
#[test]
fn stale_cursor_policy_clean_dirty_unrelated() {
    let mut db = service_db(40);
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
    let page = session.stream_next(&prepared.token, 3).unwrap();
    assert!(!page.resumed);
    let token = page.next.unwrap();

    // Clean: only T changes; the join's dependencies are untouched.
    db.insert_into("T", tup(1, 1));
    engine.advance_delta(&mut db);
    let page = session.stream_next(&token, 3).unwrap();
    assert!(
        page.resumed,
        "unchanged dependencies must resume transparently"
    );
    assert_eq!(page.generation, 1);
    let token = page.next.unwrap();

    // Dirty: R changes; the sequence the cursor indexes is gone.
    db.insert_into("R", tup(2, 2));
    engine.advance_delta(&mut db);
    match session.stream_next(&token, 3) {
        Err(ServeError::CursorStale(StaleReason::DirtyDependency { relation, .. })) => {
            assert_eq!(relation, "R");
        }
        other => panic!("expected DirtyDependency, got {other:?}"),
    }
    assert!(server.stats().stale_cursors >= 1);

    // Unrelated: the engine is re-pointed at a foreign lineage.
    let foreign = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 1]])
        .with_i64_rows("S", 2, vec![vec![1, 1]])
        .freeze();
    engine.advance(foreign);
    match session.stream_next(&token, 3) {
        Err(ServeError::CursorStale(StaleReason::UnrelatedSnapshot { .. })) => {}
        other => panic!("expected UnrelatedSnapshot, got {other:?}"),
    }
}

/// A stale request is refused *before* a plan is built for it: after
/// a dirtying advance emptied the plan cache, each page-shaped call is
/// refused `CursorStale`, counted once, and leaves the cache empty —
/// no full build is paid in order to say no.
#[test]
fn stale_cursor_is_refused_without_building_a_plan() {
    let mut db = service_db(40);
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
    db.insert_into("R", tup(2, 2));
    engine.advance_delta(&mut db);
    assert_eq!(engine.plan_cache_len(), 0, "a dirty plan is not carried");

    for call in ["page", "stream_next", "page_batch"] {
        let stale_before = server.stats().stale_cursors;
        let result = match call {
            "page" => session.page(&prepared.token, 0, 2),
            "stream_next" => session.stream_next(&prepared.token, 2),
            _ => session.page_batch(&prepared.token, &[0, 1]),
        };
        assert!(
            matches!(result, Err(ServeError::CursorStale(_))),
            "{call}: expected CursorStale, got {result:?}"
        );
        assert_eq!(engine.plan_cache_len(), 0, "{call} built a plan to refuse");
        assert_eq!(server.stats().stale_cursors, stale_before + 1, "{call}");
    }
}

/// Tokens are server-scoped: a different server over the same engine
/// never prepared the request, so the cursor names an unknown query —
/// to a page and to a repair alike.
#[test]
fn foreign_server_rejects_unknown_request_key() {
    let db = service_db(30);
    let engine = Arc::new(Engine::new(db.freeze()));
    let server_a = Server::with_defaults(Arc::clone(&engine));
    let server_b = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let prepared = server_a
        .session()
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let mut session_b = server_b.session();
    match session_b.stream_next(&prepared.token, 2) {
        Err(ServeError::UnknownQuery { .. }) => {}
        other => panic!("expected UnknownQuery, got {other:?}"),
    }
    match session_b.repair(&prepared.token) {
        Err(ServeError::UnknownQuery { .. }) => {}
        other => panic!("expected UnknownQuery from repair, got {other:?}"),
    }
}

/// Garbage bytes at the service boundary come back as a typed
/// `BadCursor` — from a page and from a repair — and the worker, the
/// session, and its buffer all survive.
#[test]
fn garbage_tokens_fail_typed_and_leave_the_session_usable() {
    let db = service_db(30);
    let engine = Arc::new(Engine::new(db.freeze()));
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

    for garbage in [&b""[..], b"x", b"not a cursor token at all"] {
        match session.stream_next(&Token::from_bytes(garbage), 2) {
            Err(ServeError::BadCursor(_)) => {}
            other => panic!("expected BadCursor for {garbage:?}, got {other:?}"),
        }
        match session.repair(&Token::from_bytes(garbage)) {
            Err(ServeError::BadCursor(_)) => {}
            other => panic!("expected BadCursor from repair of {garbage:?}, got {other:?}"),
        }
    }
    assert_eq!(server.stats().bad_cursors, 6);
    let page = session.stream_next(&prepared.token, 2).unwrap();
    assert_eq!(page.rows, 2);
}

/// `page_batch` serves scattered ranks in request order, skips
/// out-of-range ranks, leaves the cursor where it was, and counts
/// against the batch counter — the per-rank `page` oracle defines the
/// rows.
#[test]
fn page_batch_matches_per_rank_pages() {
    let db = service_db(60);
    let snap = db.freeze();
    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let order = OrderSpec::lex(&q, &["x", "y", "z"]);
    let truth = oracle(&snap, &q, order.clone());
    let mut session = server.session();
    let prepared = session
        .prepare(&q, order, &FdSet::empty(), Policy::Reject)
        .unwrap();
    let total = prepared.len;
    assert_eq!(total as usize, truth.len());

    let ranks = vec![total - 1, 0, 7, 7, total, 3, total + 100, 11, 0];
    let out = session.page_batch(&prepared.token, &ranks).unwrap();
    let expect: Vec<Tuple> = ranks
        .iter()
        .filter(|&&k| k < total)
        .map(|&k| truth[k as usize].clone())
        .collect();
    assert_eq!(out.rows as usize, expect.len());
    assert_eq!(session.rows().to_tuples(), expect);
    assert_eq!(server.stats().batch_pages, 1);
    assert_eq!(server.stats().pages, 0);

    // The cursor did not move: streaming from the returned token
    // starts at rank 0, exactly where the prepared cursor stood.
    let token = out.next.expect("not at the end");
    session.stream_next(&token, 2).unwrap();
    assert_eq!(
        session.rows().to_tuples(),
        truth[..2].to_vec(),
        "batch must not advance the stream position"
    );
}

/// The page-size cap applies to the count of requested ranks.
#[test]
fn page_batch_clamps_rank_count_to_max_page_rows() {
    let db = service_db(60);
    let engine = Arc::new(Engine::new(db.freeze()));
    let server = Server::new(
        Arc::clone(&engine),
        ServerConfig {
            max_page_rows: 4,
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
    let ranks: Vec<u64> = (0..10).collect();
    let out = session.page_batch(&prepared.token, &ranks).unwrap();
    assert_eq!(out.rows, 4, "only the first max_page_rows ranks serve");
    assert_eq!(session.rows().len(), 4);
}

/// Stale-cursor policy through the batch path: a typed failure, then
/// `Session::repair` gives a token on the fresh sequence, where the
/// same ranks serve the fresh answers.
#[test]
fn page_batch_stale_cursor_fails_typed_and_repairs_under_retry() {
    let mut db = service_db(40);
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    let server = Server::with_defaults(Arc::clone(&engine));
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let order = OrderSpec::lex(&q, &["x", "y", "z"]);
    let mut session = server.session();
    let prepared = session
        .prepare(&q, order.clone(), &FdSet::empty(), Policy::Reject)
        .unwrap();

    // Dirty a dependency: the sequence the cursor indexes is gone.
    db.insert_into("R", tup(2, 2));
    let fresh = oracle(&engine.advance_delta(&mut db), &q, order);
    match session.page_batch(&prepared.token, &[0, 1]) {
        Err(ServeError::CursorStale(StaleReason::DirtyDependency { relation, .. })) => {
            assert_eq!(relation, "R");
        }
        other => panic!("expected DirtyDependency, got {other:?}"),
    }

    // Repair, then ask again: the explicit ranks stand, served from
    // the fresh sequence.
    let repaired = session.repair(&prepared.token).unwrap();
    let out = session.page_batch(&repaired.token, &[0, 1]).unwrap();
    assert_eq!(out.rows, 2);
    assert_eq!(out.generation, 1);
    assert_eq!(session.rows().to_tuples(), fresh[..2]);
}
