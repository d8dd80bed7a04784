//! The serving-core concurrency contract: one engine, one snapshot,
//! shared `Arc<AccessPlan>`s hammered from many threads — every thread
//! must observe exactly what a single-threaded oracle observes, on
//! every backend the router can choose.

use ranked_access::prelude::OrderSpec as Spec;
use ranked_access::prelude::*;
use std::sync::Arc;

const THREADS: usize = 8;

fn fig_db(rows: usize) -> Database {
    let r: Vec<Vec<i64>> = (0..rows as i64).map(|i| vec![i % 23, i % 17]).collect();
    let s: Vec<Vec<i64>> = (0..rows as i64)
        .map(|i| vec![i % 17, (i * 7) % 29])
        .collect();
    Database::new()
        .with_i64_rows("R", 2, r)
        .with_i64_rows("S", 2, s)
}

/// Single-threaded oracle first, then N threads replaying interleaved
/// slices of the same operations against the shared plan. Lazy
/// backends pay O(n) per access, so the oracle samples a bounded set
/// of ranks instead of scanning everything.
fn hammer(plan: &Arc<AccessPlan>) {
    let len = plan.len();
    let stride = (len / 24).max(1);
    let sample: Vec<u64> = (0..len).step_by(stride as usize).collect();
    let answers: Vec<Tuple> = sample
        .iter()
        .map(|&k| plan.access(k).expect("k < len"))
        .collect();
    let ranks: Vec<u64> = answers
        .iter()
        .map(|t| plan.inverted_access(t).expect("an answer has a rank"))
        .collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let plan = Arc::clone(plan);
            let (sample, answers, ranks) = (&sample, &answers, &ranks);
            s.spawn(move || {
                let mut buf: Vec<Value> = Vec::new();
                for (i, expect) in answers.iter().enumerate().skip(t % 3) {
                    let k = sample[i];
                    assert_eq!(plan.access(k).as_ref(), Some(expect), "thread {t} k={k}");
                    assert!(plan.access_into(k, &mut buf), "thread {t} k={k}");
                    assert_eq!(&Tuple::new(buf.clone()), expect, "thread {t} k={k}");
                    assert_eq!(
                        plan.inverted_access(expect),
                        Some(ranks[i]),
                        "thread {t} k={k}"
                    );
                }
                assert_eq!(plan.access(len), None, "thread {t} out of bound");
            });
        }
    });
}

#[test]
fn shared_plans_agree_with_single_threaded_oracle_on_every_backend() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let qp = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(fig_db(72).freeze());
    let cases: Vec<(Arc<AccessPlan>, Backend)> = vec![
        (
            engine
                .prepare(
                    &q,
                    Spec::lex(&q, &["x", "y", "z"]),
                    &FdSet::empty(),
                    Policy::Reject,
                )
                .unwrap(),
            Backend::LexDirectAccess,
        ),
        (
            engine
                .prepare(
                    &q,
                    Spec::lex(&q, &["x", "z", "y"]),
                    &FdSet::empty(),
                    Policy::Reject,
                )
                .unwrap(),
            Backend::SelectionLex,
        ),
        (
            engine
                .prepare(&q, Spec::sum_by_value(), &FdSet::empty(), Policy::Reject)
                .unwrap(),
            Backend::SelectionSum,
        ),
        (
            engine
                .prepare(
                    &qp,
                    Spec::lex(&qp, &["x", "z"]),
                    &FdSet::empty(),
                    Policy::Materialize,
                )
                .unwrap(),
            Backend::Materialized,
        ),
    ];
    for (plan, backend) in &cases {
        assert_eq!(plan.backend(), *backend);
        hammer(plan);
    }

    // SUM direct access has its own covering-atom shape.
    let qc = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let plan = engine
        .prepare(&qc, Spec::sum_by_value(), &FdSet::empty(), Policy::Reject)
        .unwrap();
    assert_eq!(plan.backend(), Backend::SumDirectAccess);
    hammer(&plan);
}

/// `rank_of_lower_bound` (Remark 3) is only native on the lex arena:
/// hammer it — answers and non-answer probes alike — from N threads
/// against the single-threaded oracle.
#[test]
fn rank_of_lower_bound_is_consistent_across_threads() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(fig_db(90).freeze());
    let plan = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let RankedAnswers::Lex(da) = plan.answers() else {
        panic!("expected the native lex backend");
    };
    let probes: Vec<Tuple> = (0..da.len())
        .map(|k| da.access(k).unwrap())
        .chain((0..40i64).map(|i| {
            [
                Value::int(i % 9 - 1),
                Value::int((i * 3) % 11),
                Value::int(i % 31),
            ]
            .into_iter()
            .collect()
        }))
        .collect();
    let oracle: Vec<Option<u64>> = probes.iter().map(|t| da.rank_of_lower_bound(t)).collect();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (probes, oracle) = (&probes, &oracle);
            s.spawn(move || {
                for (i, probe) in probes.iter().enumerate().skip(t % 5) {
                    assert_eq!(
                        da.rank_of_lower_bound(probe),
                        oracle[i],
                        "thread {t} probe {probe}"
                    );
                }
            });
        }
    });
}

/// Concurrent `prepare` of the same key from many threads: everyone
/// ends up sharing one plan (pointer-equal), and the cache stays
/// within its bound under a churn of distinct keys.
#[test]
fn concurrent_prepare_converges_to_one_shared_plan() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::new(fig_db(60).freeze());
    let plans: Vec<Arc<AccessPlan>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let engine = &engine;
                let q = &q;
                s.spawn(move || {
                    engine
                        .prepare(
                            q,
                            Spec::lex(q, &["x", "y", "z"]),
                            &FdSet::empty(),
                            Policy::Reject,
                        )
                        .unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect()
    });
    // All racers converge: after the cache settles, the engine serves
    // one canonical Arc — and every plan that "lost" the race is still
    // correct, so late arrivals are pointer-equal to the cached one.
    let canonical = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert!(plans.iter().any(|p| Arc::ptr_eq(p, &canonical)));
    for p in &plans {
        assert_eq!(p.len(), canonical.len());
    }
    assert_eq!(engine.plan_cache_len(), 1);
}

/// The generation-consistency contract of [`Engine::advance`]: readers
/// racing a stream of delta freezes must never observe a tuple from a
/// generation other than the one their plan reports. Every generation
/// rewrites R wholesale with a distinct marker column, so a single
/// tuple from the wrong generation is immediately visible.
#[test]
fn advance_race_never_serves_mixed_generations() {
    use std::sync::atomic::{AtomicBool, Ordering};
    const GENS: i64 = 12;
    const ROWS: i64 = 32;
    let rows = |marker: i64| -> Vec<Tuple> {
        (0..ROWS)
            .map(|i| [Value::int(i), Value::int(marker)].into_iter().collect())
            .collect()
    };
    let q = parse("Q(x, g) :- R(x, g)").unwrap();
    let mut db = Database::new().with(Relation::from_tuples("R", 2, rows(0)));
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (engine, q, done) = (&engine, &q, &done);
            s.spawn(move || {
                let mut iterations = 0u64;
                loop {
                    let plan = engine
                        .prepare(
                            q,
                            Spec::lex(q, &["x", "g"]),
                            &FdSet::empty(),
                            Policy::Reject,
                        )
                        .unwrap();
                    let marker = Value::int(plan.generation() as i64);
                    assert_eq!(plan.len(), ROWS as u64, "thread {t}");
                    for tuple in plan.iter() {
                        assert_eq!(
                            tuple[1], marker,
                            "thread {t}: tuple from generation {} served by a \
                             generation-{} plan",
                            tuple[1], marker
                        );
                    }
                    iterations += 1;
                    // Keep racing until the writer is done, then take
                    // one final lap against the settled snapshot.
                    if done.load(Ordering::Acquire) && iterations >= 2 {
                        break;
                    }
                }
            });
        }
        // The writer: one delta freeze + advance per generation, each
        // rewriting R with its own marker.
        for marker in 1..=GENS {
            db.add(Relation::from_tuples("R", 2, rows(marker)));
            let snap = engine.snapshot().freeze_delta(&mut db);
            assert_eq!(engine.advance(snap), 0, "R is dirty every time");
        }
        done.store(true, Ordering::Release);
    });
    assert_eq!(engine.generation(), GENS as u64);
    let settled = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "g"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(settled.generation(), GENS as u64);
    assert_eq!(
        settled.access(0),
        Some([Value::int(0), Value::int(GENS)].into_iter().collect())
    );
}

/// Eviction and churn across generations: the LRU bound holds while
/// threads hammer a mix of keys and the writer advances generations
/// under them; carried (clean) plans stay pointer-identical, dirty
/// ones rebuild against the new generation.
#[test]
fn generation_rekeyed_cache_bound_holds_under_churn() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let qs = parse("P(a, b) :- S(a, b)").unwrap();
    let mut db = fig_db(48);
    let engine = Engine::with_plan_cache_capacity(db.clone().freeze(), 3);
    db.clear_mutation_log();
    let clean_before = engine
        .prepare(
            &qs,
            Spec::lex(&qs, &["a", "b"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let dirty_before = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let orders: Vec<Vec<&str>> = vec![
        vec!["x", "y", "z"],
        vec!["y", "x", "z"],
        vec!["z", "y", "x"],
        vec!["y"],
    ];
    for round in 0..4u64 {
        // Dirty R only; S — and the S-only plan — stays clean.
        db.insert_into(
            "R",
            [Value::int(100 + round as i64), Value::int(1)]
                .into_iter()
                .collect(),
        );
        engine.advance_delta(&mut db);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let (engine, q, orders) = (&engine, &q, &orders);
                s.spawn(move || {
                    for i in 0..12 {
                        let names = &orders[(t + i) % orders.len()];
                        let plan = engine
                            .prepare(q, Spec::lex(q, names), &FdSet::empty(), Policy::Reject)
                            .unwrap();
                        assert_eq!(plan.generation(), engine.generation());
                        assert!(plan.access(0).is_some());
                    }
                });
            }
        });
        assert!(engine.plan_cache_len() <= 3, "cache bound violated");
    }
    // Dirty plans were invalidated: preparing the original key now
    // yields a fresh structure at the current generation.
    let dirty_after = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert!(!Arc::ptr_eq(&dirty_before, &dirty_after));
    assert_eq!(dirty_after.generation(), 4);
    assert_eq!(
        dirty_before.generation(),
        0,
        "old readers keep generation 0"
    );
    // The clean plan may have been evicted by churn (capacity 3), but
    // if re-prepared it must still serve identical answers.
    let clean_after = engine
        .prepare(
            &qs,
            Spec::lex(&qs, &["a", "b"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(
        (0..clean_after.len())
            .map(|k| clean_after.access(k))
            .collect::<Vec<_>>(),
        (0..clean_before.len())
            .map(|k| clean_before.access(k))
            .collect::<Vec<_>>(),
        "S never changed"
    );
}

/// Cache semantics under churn: the bound holds while many threads
/// prepare distinct keys concurrently.
#[test]
fn bounded_cache_holds_under_concurrent_churn() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let engine = Engine::with_plan_cache_capacity(fig_db(40).freeze(), 3);
    let orders: Vec<Vec<&str>> = vec![
        vec!["x", "y", "z"],
        vec!["y", "x", "z"],
        vec!["z", "y", "x"],
        vec!["y", "z", "x"],
        vec!["y"],
        vec!["z", "y"],
    ];
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let engine = &engine;
            let q = &q;
            let orders = &orders;
            s.spawn(move || {
                for i in 0..24 {
                    let names = &orders[(t + i) % orders.len()];
                    let plan = engine
                        .prepare(q, Spec::lex(q, names), &FdSet::empty(), Policy::Reject)
                        .unwrap();
                    assert!(plan.access(0).is_some());
                }
            });
        }
    });
    assert!(engine.plan_cache_len() <= 3, "cache bound violated");
}

/// The serving-layer pinning contract: a `RankedStream` borrows its
/// plan, and a plan serves exactly the generation it was prepared
/// over — so a stream opened before `Engine::advance` keeps yielding
/// the *old* generation's answers, in order, to the very end, while
/// new prepares see the new data. A half-consumed stream never mixes
/// generations (this is what makes the `rda_serve` cursor sound: a
/// clean-resumed cursor re-prepares, it never splices sequences).
#[test]
fn ranked_stream_stays_pinned_to_its_generation_across_advance() {
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let rows: Vec<Vec<i64>> = (0..600i64).map(|i| vec![i / 20, i % 20]).collect();
    let mut db = Database::new().with_i64_rows("R", 2, rows);
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();

    let plan = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    let expected = plan.access_range(0..plan.len());
    assert!(
        expected.len() > 2 * 256,
        "the stream must refill more than once after the advance"
    );

    // Consume a prefix of the first batch, then advance the engine
    // mid-stream.
    let mut stream = plan.stream_from(0);
    let mut got: Vec<Tuple> = vec![stream.next().unwrap(), stream.next().unwrap()];
    db.insert_into(
        "R",
        [Value::int(-100), Value::int(-100)].into_iter().collect(),
    );
    engine.advance_delta(&mut db);

    // New prepares serve the new generation...
    let fresh = engine
        .prepare(
            &q,
            Spec::lex(&q, &["x", "y"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(fresh.generation(), 1);
    assert_eq!(fresh.len(), plan.len() + 1);
    assert_eq!(
        fresh.access(0).unwrap(),
        [Value::int(-100), Value::int(-100)].into_iter().collect()
    );

    // ...while the in-flight stream finishes the old one, unchanged.
    assert_eq!(stream.position(), 2);
    got.extend(&mut stream);
    assert_eq!(got, expected, "stream mixed generations");
    assert_eq!(plan.generation(), 0);

    // A stream opened on the old plan even now still serves gen 0.
    let replay: Vec<Tuple> = plan.stream_from(0).collect();
    assert_eq!(replay, expected);
}
