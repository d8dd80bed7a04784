//! Chaos acceptance: deterministic fault schedules injected into the
//! build sites and the page path must be *contained* — typed errors
//! out, no execution slot leaked, zero lost sessions, no poisoned
//! locks — and after the schedule runs dry the same sessions must
//! serve answers equal to the single-threaded oracle.
//!
//! The fault registry is process-global, so every test here takes the
//! `SERIAL` lock for its whole body.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rda_core::{BuildBudget, BuildError, DirectAccess, Engine, OrderSpec, PlanError, Policy};
use rda_db::{Database, Snapshot, Tuple, Value};
use rda_query::parser::parse;
use rda_query::{Cq, FdSet};
use rda_serve::fault::{self, FaultAction, FaultPlan};
use rda_serve::{ServeError, Server, ServerConfig, Token};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    // A failed test poisons the serial lock; later tests still run.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Injected panics unwind up to the request fence by design; silence
/// exactly those so expected chaos does not spray the test output,
/// while real panics keep the default report.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            if msg.is_some_and(|m| m.contains("injected panic")) {
                return;
            }
            default(info);
        }));
    });
}

fn chaos_db(n: i64) -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..n).map(|i| vec![i % 11, i % 5]))
        .with_i64_rows("S", 2, (0..n).map(|i| vec![i % 5, (i * 3) % 7]))
        .with_i64_rows("U", 2, (0..n).map(|i| vec![(i * 7) % 13, i % 9]))
}

fn join_q() -> Cq {
    parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap()
}

fn scan_q() -> Cq {
    parse("P(a, b) :- U(a, b)").unwrap()
}

fn tup(a: i64, b: i64) -> Tuple {
    [Value::int(a), Value::int(b)].into_iter().collect()
}

/// Ground truth from a fresh single-threaded engine, no server, no
/// faults (callers arm plans only after computing oracles).
fn oracle(snap: &Arc<Snapshot>, q: &Cq, order: OrderSpec) -> Vec<Tuple> {
    let plan = Engine::new(Arc::clone(snap))
        .prepare(q, order, &FdSet::empty(), Policy::Reject)
        .unwrap();
    plan.access_range(0..plan.len())
}

fn expect_internal(result: Result<impl std::fmt::Debug, ServeError>, site: &str) {
    match result {
        Err(ServeError::Internal { detail }) => {
            assert!(
                detail.contains(site),
                "detail {detail:?} should name {site}"
            )
        }
        other => panic!("expected Internal naming {site}, got {other:?}"),
    }
}

/// The acceptance scenario: panics injected into BOTH build kernels
/// and one in-flight page all come back as typed `Internal` errors,
/// no lock poisons, and the *same session* then repeats each request
/// successfully with oracle-equal results.
#[test]
fn injected_build_and_page_panics_are_contained_and_recoverable() {
    let _s = serial();
    quiet_injected_panics();
    let db = chaos_db(48);
    let snap = db.freeze();
    let jq = join_q();
    let sq = scan_q();
    let lex_oracle = oracle(&snap, &jq, OrderSpec::lex(&jq, &["x", "y", "z"]));
    let sum_oracle = oracle(&snap, &sq, OrderSpec::sum_by_value());

    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());
    let mut session = server.session();

    let _g = fault::install(
        FaultPlan::new()
            .inject(fault::SITE_LEXDA_BUILD, 0, FaultAction::Panic)
            .inject(fault::SITE_SUMDA_BUILD, 0, FaultAction::Panic)
            .inject(fault::SITE_SERVE_PAGE, 0, FaultAction::Panic),
    );

    // Build site 1 (lexda): the panic is fenced into a typed reply …
    let lex_order = || OrderSpec::lex(&jq, &["x", "y", "z"]);
    expect_internal(
        session.prepare(&jq, lex_order(), &FdSet::empty(), Policy::Reject),
        fault::SITE_LEXDA_BUILD,
    );
    // … and the identical request on the SAME session then succeeds.
    let prepared = session
        .prepare(&jq, lex_order(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    assert_eq!(prepared.len as usize, lex_oracle.len());

    // In-flight page: same containment, same recovery.
    expect_internal(
        session.page(&prepared.token, 0, prepared.len),
        fault::SITE_SERVE_PAGE,
    );
    assert!(session.rows().is_empty(), "no partial rows after a panic");
    let page = session.page(&prepared.token, 0, prepared.len).unwrap();
    assert_eq!(page.rows as usize, lex_oracle.len());
    assert_eq!(session.rows().to_tuples(), lex_oracle);

    // Build site 2 (sumda).
    expect_internal(
        session.prepare(
            &sq,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        ),
        fault::SITE_SUMDA_BUILD,
    );
    let sum_prepared = session
        .prepare(
            &sq,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let page = session
        .page(&sum_prepared.token, 0, sum_prepared.len)
        .unwrap();
    assert_eq!(page.rows as usize, sum_oracle.len());
    assert_eq!(session.rows().to_tuples(), sum_oracle);

    // Containment audit: three panics caught, and the pause/resume
    // gate (the poison-prone lock of old) still works.
    assert_eq!(server.stats().panics_caught, 3);
    server.pause();
    server.resume();
    let page = session.page(&prepared.token, 2, 3).unwrap();
    assert_eq!(page.rows, 3);
    assert_eq!(session.rows().to_tuples(), lex_oracle[2..5]);
}

/// A slot is never leaked: with ONE execution slot and one place
/// behind it, every way out of a request — a fenced page panic, a
/// fenced build panic, a shed deadline, a bad cursor, a stale cursor —
/// must hand the slot back, or the next request waits forever. The
/// follow-up page runs on a second thread under a bounded
/// `recv_timeout`, so a leak fails this test instead of hanging it.
#[test]
fn no_way_out_of_a_request_leaks_its_slot() {
    let _s = serial();
    quiet_injected_panics();
    let mut db = chaos_db(40);
    let snap = db.clone().freeze();
    db.clear_mutation_log();
    let jq = join_q();
    let sq = scan_q();
    let lex_oracle = oracle(&snap, &jq, OrderSpec::lex(&jq, &["x", "y", "z"]));

    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Arc::new(Server::new(
        Arc::clone(&engine),
        ServerConfig {
            workers: 1,
            queue_limit: 1,
            ..ServerConfig::default()
        },
    ));
    let mut session = server.session();
    let prepared = session
        .prepare(
            &jq,
            OrderSpec::lex(&jq, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let scan_order = || OrderSpec::lex(&sq, &["a", "b"]);

    let slot_is_free = |after: &str| {
        // A detached thread over an `Arc`, not a scoped one: a scope
        // would join a thread that waits for a slot nobody will free.
        let (tx, rx) = std::sync::mpsc::channel();
        let (server, token) = (Arc::clone(&server), prepared.token.clone());
        std::thread::spawn(move || {
            let mut session = server.session();
            let rows = session
                .page(&token, 0, 4)
                .map(|_| session.rows().to_tuples());
            let _ = tx.send(rows);
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(rows) => assert_eq!(rows.unwrap(), lex_oracle[..4], "after {after}"),
            Err(_) => panic!("slot leaked after {after}"),
        }
    };

    {
        let _g =
            fault::install(FaultPlan::new().inject(fault::SITE_SERVE_PAGE, 0, FaultAction::Panic));
        expect_internal(session.page(&prepared.token, 0, 4), fault::SITE_SERVE_PAGE);
    }
    slot_is_free("a fenced page panic");

    {
        let _g =
            fault::install(FaultPlan::new().inject(fault::SITE_LEXDA_BUILD, 0, FaultAction::Panic));
        expect_internal(
            session.prepare(&sq, scan_order(), &FdSet::empty(), Policy::Reject),
            fault::SITE_LEXDA_BUILD,
        );
    }
    slot_is_free("a fenced build panic");

    session.set_deadline(Duration::ZERO);
    assert_eq!(
        session.page(&prepared.token, 0, 4).unwrap_err(),
        ServeError::DeadlineExceeded
    );
    session.set_deadline(Duration::from_secs(5));
    slot_is_free("a shed deadline");

    match session.page(&rda_serve::Token::from_bytes(b"garbage"), 0, 4) {
        Err(ServeError::BadCursor(_)) => {}
        other => panic!("expected BadCursor, got {other:?}"),
    }
    slot_is_free("a bad cursor");

    // Dirty U under a scan cursor; the join the follow-up pages is
    // untouched and resumes cleanly.
    let scan = session
        .prepare(&sq, scan_order(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    db.insert_into("U", tup(-1, -1));
    engine.advance_delta(&mut db);
    match session.page(&scan.token, 0, 4) {
        Err(ServeError::CursorStale(_)) => {}
        other => panic!("expected CursorStale, got {other:?}"),
    }
    slot_is_free("a stale cursor");

    let stats = server.stats();
    assert_eq!(stats.panics_caught, 2);
    assert_eq!(stats.overloaded, 0, "one request at a time never sheds");
}

/// Stale repair: when a write dirties the scanned relation mid-
/// pagination, the next page fails typed, and `Session::repair`
/// re-prepares the registered query at the same rank of the FRESH
/// sequence — differentially checked against a fresh oracle.
#[test]
fn retry_policy_repairs_stale_cursors_on_the_fresh_sequence() {
    let _s = serial();
    let mut db = chaos_db(40);
    let snap0 = db.clone().freeze();
    db.clear_mutation_log();
    let sq = scan_q();
    let engine = Arc::new(Engine::new(Arc::clone(&snap0)));
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());

    let mut session = server.session();
    let prepared = session
        .prepare(
            &sq,
            OrderSpec::lex(&sq, &["a", "b"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let page = session.stream_next(&prepared.token, 3).unwrap();
    let token = page.next.unwrap();

    // The writer dirties U: the cursor's sequence no longer exists.
    db.insert_into("U", tup(-3, -3));
    let snap1 = engine.advance_delta(&mut db);
    let fresh_oracle = oracle(&snap1, &sq, OrderSpec::lex(&sq, &["a", "b"]));

    match session.stream_next(&token, 5) {
        Err(ServeError::CursorStale(_)) => {}
        other => panic!("expected CursorStale, got {other:?}"),
    }
    let repaired = session.repair(&token).expect("stale cursor repairs");
    assert_eq!(repaired.generation, 1);
    let page = session.stream_next(&repaired.token, 5).unwrap();
    assert_eq!(page.generation, 1);
    // Resumed at rank 3 — of the fresh sequence.
    assert_eq!(session.rows().to_tuples(), fresh_oracle[3..8]);
}

/// A client's own retry loop: call `ask` again while it fails with an
/// error that one more call can recover from, `attempts` calls at most.
fn reissue<T>(
    attempts: u32,
    mut ask: impl FnMut() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    let mut result = ask();
    for _ in 1..attempts {
        match result {
            Err(
                ServeError::Overloaded { .. }
                | ServeError::DeadlineExceeded
                | ServeError::Internal { .. }
                | ServeError::CursorStale(_),
            ) => result = ask(),
            _ => break,
        }
    }
    result
}

/// The fault storm: three clients, each re-issuing its own calls
/// ([`reissue`]), page zipfian-popular requests while a seeded
/// [`FaultPlan`] panics both build kernels, the prepare entry and
/// in-flight pages, and writes alternately dirty the join input `S`
/// (live join cursors go stale and are repaired with
/// `Session::repair`) and `T`, which no request reads. Every injected
/// error must be retryable: every client finishes, no error surfaces,
/// and afterwards every request's served sequence equals a fresh
/// single-threaded oracle on the final snapshot.
///
/// The writer is paced by client progress, not by a clock: whichever
/// client completes the storm's every `PAGES_PER_BATCH`-th page lands
/// the next batch while the other two keep paging, `BATCHES` in all.
/// So no interleaving can exhaust a call's retries — an attempt fails
/// only when a scheduled fault fires (each at most once, process-wide)
/// or when the cursor went stale since the call's last prepare or
/// repair (at most once per batch), and `max_attempts` is one more than
/// scheduled faults + `BATCHES`. Admission cannot shed: three clients, two
/// slots, a queue of 64.
#[test]
fn fault_storm_is_absorbed_by_retrying_clients() {
    const CLIENTS: usize = 3;
    const PAGES_PER_CLIENT: usize = 60;
    const TOTAL_PAGES: u64 = (CLIENTS * PAGES_PER_CLIENT) as u64;
    const BATCHES: u64 = 10;
    const PAGES_PER_BATCH: u64 = 16;
    const ROWS: i64 = 600;
    let _s = serial();
    quiet_injected_panics();

    let mut db = Database::new()
        .with_i64_rows("R", 2, (0..ROWS).map(|i| vec![i % 211, i % 101]))
        .with_i64_rows("S", 2, (0..ROWS).map(|i| vec![i % 101, (i * 7) % 151]))
        .with_i64_rows("T", 2, (0..ROWS).map(|i| vec![i % 97, i % 89]))
        .with_i64_rows("U", 2, (0..ROWS).map(|i| vec![i % 61, i % 53]));
    let engine = Arc::new(Engine::new(db.clone().freeze()));
    db.clear_mutation_log();
    let db = Mutex::new(db);
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());

    let jq = join_q();
    let sq = scan_q();
    let specs: Vec<(&Cq, OrderSpec)> = vec![
        (&jq, OrderSpec::lex(&jq, &["x", "y", "z"])),
        (&jq, OrderSpec::lex(&jq, &["y", "x", "z"])),
        (&sq, OrderSpec::sum_by_value()),
        (&sq, OrderSpec::lex(&sq, &["a", "b"])),
    ];
    // Spec 0 is the hot request, the tail is cold.
    let weights: Vec<f64> = (1..=specs.len())
        .map(|k| 1.0 / (k as f64).powf(1.2))
        .collect();
    let zipf = |rng: &mut StdRng| -> usize {
        let mut u = rng.random_f64() * weights.iter().sum::<f64>();
        weights
            .iter()
            .position(|w| {
                let hit = u < *w;
                u -= w;
                hit
            })
            .unwrap_or(specs.len() - 1)
    };

    // The explicit entries guarantee the first builds and an early
    // page panic; the seeded ones spread the rest over the first half
    // of the storm. The seed names the whole schedule.
    let plan = FaultPlan::seeded(0xC4A0_5EED)
        .inject(fault::SITE_LEXDA_BUILD, 0, FaultAction::Panic)
        .inject(fault::SITE_SUMDA_BUILD, 0, FaultAction::Panic)
        .inject(fault::SITE_SERVE_PAGE, 1, FaultAction::Panic)
        .inject_seeded(
            fault::SITE_SERVE_PAGE,
            (TOTAL_PAGES / 40) as usize,
            TOTAL_PAGES / 2,
            FaultAction::Panic,
        )
        .inject_seeded(
            fault::SITE_ENGINE_PREPARE,
            (TOTAL_PAGES / 60) as usize,
            TOTAL_PAGES / 2,
            FaultAction::Panic,
        );
    let max_attempts = plan.len() as u32 + BATCHES as u32 + 1;
    let guard = fault::install(plan);

    let pages_done = AtomicU64::new(0);
    let unrecovered: Mutex<Vec<ServeError>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (server, engine, db, specs, zipf) = (&server, &engine, &db, &specs, &zipf);
            let (pages_done, unrecovered) = (&pages_done, &unrecovered);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xC4A0 + c as u64);
                let mut session = server.session();
                let mut cursors: Vec<Option<Token>> = vec![None; specs.len()];
                for _ in 0..PAGES_PER_CLIENT {
                    let i = zipf(&mut rng);
                    let (q, order) = &specs[i];
                    let token = match cursors[i].take() {
                        Some(token) => Ok(token),
                        None => reissue(max_attempts, || {
                            let prepared =
                                session.prepare(q, order.clone(), &FdSet::empty(), Policy::Reject);
                            prepared.map(|prepared| prepared.token)
                        }),
                    };
                    let len = rng.random_range(8..64u64);
                    let page = token.and_then(|mut token| {
                        reissue(max_attempts, || match session.stream_next(&token, len) {
                            Err(stale @ ServeError::CursorStale(_)) => {
                                token = session.repair(&token)?.token;
                                Err(stale)
                            }
                            page => page,
                        })
                    });
                    match page {
                        Ok(page) => cursors[i] = page.next,
                        Err(e) => unrecovered.lock().unwrap().push(e),
                    }
                    // Whoever completes the storm's every 16th page is
                    // the writer for one batch.
                    let done = pages_done.fetch_add(1, Ordering::Relaxed) + 1;
                    if done % PAGES_PER_BATCH == 0 && done / PAGES_PER_BATCH <= BATCHES {
                        let mut db = db.lock().unwrap();
                        let batch = engine.snapshot().generation() as i64 + 1;
                        if batch % 2 == 1 {
                            db.insert_into("S", tup(batch % 101, batch % 151));
                        } else {
                            db.insert_into("T", tup(batch % 97, batch % 89));
                        }
                        engine.advance_delta(&mut db);
                    }
                }
            });
        }
    });
    drop(guard);

    assert_eq!(
        pages_done.load(Ordering::Relaxed),
        TOTAL_PAGES,
        "every client session must finish"
    );
    assert_eq!(
        unrecovered.into_inner().unwrap(),
        vec![],
        "the clients' retries must absorb the whole schedule"
    );
    assert!(server.stats().panics_caught > 0, "the storm never fired");

    // The storm left no corruption behind.
    let final_snap = engine.snapshot();
    for (q, order) in &specs {
        let expected = oracle(&final_snap, q, order.clone());
        let mut session = server.session();
        let mut token = session
            .prepare(q, order.clone(), &FdSet::empty(), Policy::Reject)
            .expect("post-storm prepare")
            .token;
        let mut got = Vec::new();
        loop {
            let page = session.stream_next(&token, 512).expect("post-storm page");
            got.extend(session.rows().to_tuples());
            match page.next {
                Some(next) => token = next,
                None => break,
            }
        }
        assert_eq!(got, expected, "post-storm sequence diverged from oracle");
    }
}

/// Budgeted builds: a hostile (here: merely real) build is rejected
/// with the typed `BudgetExceeded` carrying the tripped resource, the
/// server stays healthy, and lifting the budget serves the exact
/// oracle — nothing partial was cached.
#[test]
fn build_budget_rejects_typed_and_lifts_cleanly() {
    let _s = serial();
    let db = chaos_db(48);
    let snap = db.freeze();
    let jq = join_q();
    let sq = scan_q();
    let lex_oracle = oracle(&snap, &jq, OrderSpec::lex(&jq, &["x", "y", "z"]));

    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());
    let mut session = server.session();

    engine.set_build_budget(BuildBudget::capped(1 << 30, 4));
    let lex_order = || OrderSpec::lex(&jq, &["x", "y", "z"]);
    match session.prepare(&jq, lex_order(), &FdSet::empty(), Policy::Reject) {
        Err(ServeError::Plan(PlanError::Build(BuildError::BudgetExceeded {
            resource,
            used,
            limit,
        }))) => {
            assert_eq!(resource, "dp_entries");
            assert_eq!(limit, 4);
            assert!(used > limit);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
    // The sum kernel is budgeted too.
    match session.prepare(
        &sq,
        OrderSpec::sum_by_value(),
        &FdSet::empty(),
        Policy::Reject,
    ) {
        Err(ServeError::Plan(PlanError::Build(BuildError::BudgetExceeded { .. }))) => {}
        other => panic!("expected BudgetExceeded from sumda, got {other:?}"),
    }
    // So is the materialized fallback: a projection past both
    // tractable regions, joined and sorted under the same cap.
    let pq = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    match session.prepare(
        &pq,
        OrderSpec::lex(&pq, &["x", "z"]),
        &FdSet::empty(),
        Policy::Materialize,
    ) {
        Err(ServeError::Plan(PlanError::Build(BuildError::BudgetExceeded { .. }))) => {}
        other => panic!("expected BudgetExceeded from the fallback, got {other:?}"),
    }
    // Byte caps trip independently of entry caps.
    engine.set_build_budget(BuildBudget {
        max_arena_bytes: Some(64),
        max_dp_entries: None,
    });
    match session.prepare(&jq, lex_order(), &FdSet::empty(), Policy::Reject) {
        Err(ServeError::Plan(PlanError::Build(BuildError::BudgetExceeded {
            resource, ..
        }))) => assert_eq!(resource, "arena_bytes"),
        other => panic!("expected arena_bytes BudgetExceeded, got {other:?}"),
    }

    // Lift the budget: the same session serves the full oracle.
    engine.set_build_budget(BuildBudget::UNLIMITED);
    let prepared = session
        .prepare(&jq, lex_order(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    let page = session.page(&prepared.token, 0, prepared.len).unwrap();
    assert_eq!(page.rows as usize, lex_oracle.len());
    assert_eq!(session.rows().to_tuples(), lex_oracle);
    assert_eq!(server.stats().panics_caught, 0);
}

/// A generous budget changes nothing: budgeted and unlimited builds
/// serve identical sequences (the meter only observes).
#[test]
fn generous_budget_is_differentially_invisible() {
    let _s = serial();
    let db = chaos_db(32);
    let snap = db.freeze();
    let jq = join_q();
    let unlimited = oracle(&snap, &jq, OrderSpec::lex(&jq, &["x", "y", "z"]));

    let engine = Engine::new(Arc::clone(&snap));
    engine.set_build_budget(BuildBudget::capped(1 << 24, 1 << 20));
    let plan = engine
        .prepare(
            &jq,
            OrderSpec::lex(&jq, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.access_range(0..plan.len()), unlimited);
}

/// Spurious (non-panic) injected failures surface as typed build
/// errors — the `FaultAction::Fail` path end to end.
#[test]
fn injected_spurious_failures_are_typed_not_fatal() {
    let _s = serial();
    let db = chaos_db(24);
    let snap = db.freeze();
    let jq = join_q();

    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());
    let mut session = server.session();

    let _g = fault::install(FaultPlan::new().inject(fault::SITE_LEXDA_BUILD, 0, FaultAction::Fail));
    match session.prepare(
        &jq,
        OrderSpec::lex(&jq, &["x", "y", "z"]),
        &FdSet::empty(),
        Policy::Reject,
    ) {
        Err(ServeError::Plan(PlanError::Build(BuildError::FaultInjected { site }))) => {
            assert_eq!(site, fault::SITE_LEXDA_BUILD);
        }
        other => panic!("expected FaultInjected, got {other:?}"),
    }
    // No panic was involved: nothing caught.
    assert_eq!(server.stats().panics_caught, 0);
    let prepared = session
        .prepare(
            &jq,
            OrderSpec::lex(&jq, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert!(prepared.len > 0);
}

/// A page panic on a *pinned* session is contained like any other: the
/// session and its pin survive, so the next page is served from the
/// pin (no engine prepare) and equals the oracle.
#[test]
fn a_page_panic_on_a_pinned_session_leaves_the_pin_usable() {
    let _s = serial();
    quiet_injected_panics();
    let snap = chaos_db(48).freeze();
    let jq = join_q();
    let order = || OrderSpec::lex(&jq, &["x", "y", "z"]);
    let lex_oracle = oracle(&snap, &jq, order());

    let engine = Arc::new(Engine::new(Arc::clone(&snap)));
    let server = Server::new(Arc::clone(&engine), ServerConfig::default());
    let mut session = server.session();
    let prepared = session
        .prepare(&jq, order(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    let warm = session.page(&prepared.token, 0, 4).unwrap();
    assert_eq!(session.rows().to_tuples(), lex_oracle[..4]);

    // The engine-prepare entry never fires; it only counts the hits.
    let _g = fault::install(
        FaultPlan::new()
            .inject(fault::SITE_SERVE_PAGE, 0, FaultAction::Panic)
            .inject(fault::SITE_ENGINE_PREPARE, u64::MAX, FaultAction::Fail),
    );
    let next = warm.next.unwrap();
    expect_internal(session.stream_next(&next, 4), fault::SITE_SERVE_PAGE);
    assert!(session.rows().is_empty(), "no partial rows after a panic");

    let page = session.stream_next(&next, 4).unwrap();
    assert!(!page.resumed);
    assert_eq!(session.rows().to_tuples(), lex_oracle[4..8]);
    let page = session.page(&page.next.unwrap(), 0, prepared.len).unwrap();
    assert_eq!(page.rows as usize, lex_oracle.len());
    assert_eq!(session.rows().to_tuples(), lex_oracle);
    assert_eq!(
        fault::hits(fault::SITE_ENGINE_PREPARE),
        0,
        "served from the pin that survived the panic"
    );
    assert_eq!(server.stats().panics_caught, 1);
}
