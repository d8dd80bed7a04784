//! Versioned snapshots under mutation: the delta machinery itself.
//! (`tests/lifecycle.rs` also holds the served answers to a model
//! across generations, restarts and cursors.)
//!
//! * **Correctness under mutation** — after any interleaving of
//!   inserts, deletes, delta freezes and queries, every catalog
//!   scenario serves exactly what a rebuild over the current data
//!   serves, on the whole access surface.
//! * **Two arms, one generation** — `freeze_delta` merging logged rows
//!   and re-encoding a replaced relation produce the same snapshot.
//! * **A bag model** — `delete_from` answers what a multiset does,
//!   through every bulk path that may invalidate its row index.
//! * **Incrementality** — `freeze_delta` re-encodes *only* the dirty
//!   relations (proved through the process-wide
//!   [`relation_encode_count`] hook), shares clean encodings by `Arc`,
//!   and the engine carries clean-query plans across generations by
//!   pointer identity while dirty-query plans rebuild.
//!
//! Every test takes the file-local [`guard`] lock: the encode counter
//! is process-wide, and this binary is the one place its deltas are
//! asserted exactly.

#[allow(dead_code)]
mod common;

use common::{backend_catalog, conforms};
use proptest::prelude::*;
use ranked_access::prelude::*;
use ranked_access::rda_db::{relation_encode_count, tup};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Serialize the tests in this binary (see module docs).
fn guard() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn no_fds() -> FdSet {
    FdSet::empty()
}

/// One script, two databases: `logged` takes every operation through
/// `insert_into` / `delete_from` (the merge arm of `freeze_delta`),
/// `twin` through `get_mut` (`replaced`: the re-encoding arm). After
/// every freeze the two generations must be the same, cell for cell.
///
/// Ops are (kind, relation, a, b). The base domain is the multiples of
/// 4 up to 36; `domain` picks what a script may add to it: 0 — nothing
/// (the dictionary is shared), 1 — values past that top (appended, the
/// first time), 2 — anything, interior values included (rebased).
fn run_arms_script(domain: u8, ops: &[(u8, u8, i64, i64)]) {
    let value = |a: i64| match domain {
        0 => 4 * a.rem_euclid(10),
        1 if a % 3 == 0 => 40 + a.abs(),
        1 => 4 * a.rem_euclid(10),
        _ => a,
    };
    let tuple = |rel: u8, a: i64, b: i64| match rel {
        0 => tup![value(a), value(b)],
        _ => tup![value(a)],
    };
    let base = Database::new()
        .with(Relation::from_tuples(
            "R",
            2,
            (0..40i64)
                .map(|i| tup![4 * (i % 10), 4 * ((3 * i + i / 10) % 10)])
                .collect(),
        ))
        .with_i64_rows("S", 1, (0..10).map(|i| vec![4 * i]))
        .with_i64_rows("T", 2, (0..10).map(|i| vec![4 * i, 36 - 4 * i])); // never mutated
    let mut parents = [base.clone().freeze(), base.clone().freeze()];
    let mut logged = base.clone();
    let mut twin = base;
    logged.clear_mutation_log();
    twin.clear_mutation_log();

    let mut freeze = |logged: &mut Database, twin: &mut Database| {
        assert!(
            twin.mutation_log().dirty_relations().all(|n| twin
                .mutation_log()
                .delta(n)
                .unwrap()
                .replaced),
            "the twin lists no operation"
        );
        let dirty = logged.mutation_log().dirty_count() as u64;
        assert_eq!(twin.mutation_log().dirty_count() as u64, dirty);
        let mut side = 0;
        let children = [logged, twin].map(|db| {
            let before = relation_encode_count();
            let child = parents[side].freeze_delta(db);
            assert_eq!(relation_encode_count() - before, dirty, "one per dirty");
            side += 1;
            child
        });
        let [merged, full] = &children;
        if domain == 0 {
            assert!(Arc::ptr_eq(parents[0].dict_arc(), merged.dict_arc()));
        }
        assert_eq!(merged.dict().len(), full.dict().len());
        for c in 0..full.dict().len() as u32 {
            assert_eq!(merged.dict().value(c), full.dict().value(c), "code {c}");
        }
        for name in ["R", "S", "T"] {
            assert_eq!(merged.encoded(name), full.encoded(name), "{name}");
            assert_eq!(merged.relation_version(name), full.relation_version(name));
        }
        parents = children;
    };

    for &(kind, rel, a, b) in ops {
        let name = if rel == 0 { "R" } else { "S" };
        let t = tuple(rel, a, b);
        let held = |i: i64| {
            let tuples = logged.get(name).unwrap().tuples();
            (!tuples.is_empty()).then(|| tuples[i.unsigned_abs() as usize % tuples.len()].clone())
        };
        let steps: Vec<(Tuple, bool)> = match kind {
            0 | 1 => vec![(t, true)],
            // A delete that hits — twice over when the bag holds the
            // tuple twice (kind 6 put it there).
            2 => held(a).map_or(vec![], |v| vec![(v, false)]),
            3 => vec![(t, false)], // mostly a miss
            4 => vec![(t.clone(), true), (t, false)],
            5 => held(b).map_or(vec![], |v| vec![(v.clone(), false), (v, true)]),
            6 => vec![(t.clone(), true), (t, true)],
            _ => {
                freeze(&mut logged, &mut twin);
                continue;
            }
        };
        // The same set-level steps on both sides; the twin only asks
        // for `get_mut` when a step changes something, as a miss leaves
        // the logged side clean.
        for (t, present) in &steps {
            if *present {
                logged.insert_into(name, t.clone());
                twin.get_mut(name).unwrap().insert(t.clone());
            } else {
                let removed = logged.delete_from(name, t);
                let there = twin.get(name).unwrap().tuples().contains(t);
                assert_eq!(removed > 0, there);
                if there {
                    assert_eq!(twin.get_mut(name).unwrap().remove(t), removed);
                }
            }
        }
    }
    freeze(&mut logged, &mut twin);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `freeze_delta`'s two arms — merge the logged rows, or re-encode
    /// the relation — produce the same generation from the same script.
    #[test]
    fn merged_and_reencoded_generations_agree(
        domain in 0u8..3,
        ops in proptest::collection::vec((0u8..8, 0u8..2, -2i64..50, 0i64..50), 4..48),
    ) {
        let _g = guard();
        run_arms_script(domain, &ops);
    }
}

/// One relation as a multiset: each distinct tuple and its count.
type Bag = std::collections::BTreeMap<Tuple, u64>;

fn bag_of<'a>(tuples: impl IntoIterator<Item = &'a Tuple>) -> Bag {
    let mut bag = Bag::new();
    for t in tuples {
        *bag.entry(t.clone()).or_default() += 1;
    }
    bag
}

/// The relation `name` of `db` as a multiset, if `db` holds it.
fn held_bag(db: &Database, name: &str) -> Option<Bag> {
    db.get(name).map(|r| bag_of(r.tuples()))
}

/// One script on one `Database`, checked against a multiset model of
/// its relation `R` after every step. `delete_from` probes a row index
/// that the bulk paths — `get_mut` (which may reorder the rows),
/// `add`, `remove` and `normalize` — must drop, so every kind below
/// runs on the same relation to make a stale index show. Each delete
/// must return the model's count, and after every `freeze_delta` the
/// generation must hold what a fresh `freeze` of the model holds.
///
/// Ops are (kind, a, b) over a four-value domain, so duplicates and
/// hits are common and misses happen.
fn run_bag_script(ops: &[(u8, i64, i64)]) {
    let base = Database::new()
        .with_i64_rows("R", 2, vec![vec![0, 1], vec![0, 1], vec![1, 2], vec![3, 3]])
        .with_i64_rows("T", 1, vec![vec![5]]); // never mutated
    let mut parent = base.clone().freeze();
    let mut db = base;
    db.clear_mutation_log();
    let mut model = held_bag(&db, "R");
    // A clone that shares `db`'s relations, so a later mutation copies
    // one out from under its row index.
    let mut kept = Database::new();
    let mut freeze = |db: &mut Database, model: &Option<Bag>| {
        let child = parent.freeze_delta(db);
        let mut fresh = Database::new().with_i64_rows("T", 1, vec![vec![5]]);
        if let Some(bag) = model {
            let tuples = bag
                .iter()
                .flat_map(|(t, &c)| std::iter::repeat_n(t.clone(), c as usize));
            fresh.add(Relation::from_tuples("R", 2, tuples.collect()));
        }
        let fresh = fresh.freeze();
        let (decoded, expected) = (child.to_database(), fresh.to_database());
        for name in ["R", "T"] {
            assert_eq!(decoded.get(name), expected.get(name), "{name}");
        }
        assert_eq!(child.relation_count(), fresh.relation_count());
        parent = child;
    };

    for (step, &(kind, a, b)) in ops.iter().enumerate() {
        let t = tup![a.rem_euclid(4), b.rem_euclid(4)];
        let Some(bag) = &mut model else {
            // `R` is gone: only `remove`'s kind brings it back.
            if kind == 7 {
                let rows = vec![t.clone(), t];
                model = Some(bag_of(&rows));
                db.add(Relation::from_tuples("R", 2, rows));
            }
            continue;
        };
        match kind {
            0 | 1 => {
                db.insert_into("R", t.clone());
                *bag.entry(t).or_default() += 1;
            }
            2 | 3 => {
                // Kind 2 deletes a held row (a hit, counted twice over
                // when held twice); kind 3 the drawn tuple (often a miss).
                let victim = match db.get("R").unwrap().tuples() {
                    held if kind == 2 && !held.is_empty() => {
                        held[a.unsigned_abs() as usize % held.len()].clone()
                    }
                    _ => t,
                };
                let expect = bag.remove(&victim).unwrap_or(0);
                assert_eq!(db.delete_from("R", &victim), expect, "step {step}");
            }
            4 => {
                let rel = db.get_mut("R").unwrap();
                match b % 3 {
                    0 => {
                        rel.normalize();
                        bag.values_mut().for_each(|c| *c = 1);
                    }
                    1 => {
                        rel.insert(t.clone());
                        *bag.entry(t).or_default() += 1;
                    }
                    _ => {
                        rel.remove(&t);
                        bag.remove(&t);
                    }
                }
            }
            5 => {
                let rows = vec![t.clone(), tup![b, a], t];
                *bag = bag_of(&rows);
                db.add(Relation::from_tuples("R", 2, rows));
            }
            6 => {
                db.normalize();
                bag.values_mut().for_each(|c| *c = 1);
            }
            7 => {
                assert!(db.remove("R"));
                model = None;
            }
            8 => kept = db.clone(),
            _ => freeze(&mut db, &model),
        }
        assert_eq!(held_bag(&db, "R"), model, "step {step}");
    }
    freeze(&mut db, &model);
    drop(kept);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `delete_from` answers what a multiset does, through every bulk
    /// path that may invalidate its row index, and every generation
    /// frozen from the database holds what the model holds.
    #[test]
    fn deletes_follow_a_bag_model_across_the_bulk_paths(
        ops in proptest::collection::vec((0u8..10, 0i64..8, 0i64..8), 8..64),
    ) {
        let _g = guard();
        run_bag_script(&ops);
    }
}

/// The acceptance-criterion workload, pinned deterministically: eight
/// relations, one dirtied — `freeze_delta` must re-encode exactly one
/// relation, `Arc`-share the other seven, and the engine must carry
/// the seven clean plans by pointer identity while the dirty one
/// rebuilds.
#[test]
fn one_dirty_of_eight_shares_seven_and_carries_their_plans() {
    let _g = guard();
    let mut db = Database::new();
    for i in 0..8 {
        db.add(Relation::from_tuples(
            format!("R{i}"),
            2,
            (0..20i64)
                .map(|j| tup![j * 2, (j * 7 + i as i64) % 19])
                .collect(),
        ));
    }
    let queries: Vec<Cq> = (0..8)
        .map(|i| parse(&format!("Q{i}(x, y) :- R{i}(x, y)")).unwrap())
        .collect();
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();
    let snap0 = engine.snapshot();
    let plans: Vec<Arc<AccessPlan>> = queries
        .iter()
        .map(|q| {
            engine
                .prepare(q, OrderSpec::lex(q, &["x", "y"]), &no_fds(), Policy::Reject)
                .unwrap()
        })
        .collect();

    // Dirty exactly R0 — with an interior value, so even the rebase
    // path must leave the clean seven un-encoded.
    db.insert_into("R0", tup![1, 1]);
    let before = relation_encode_count();
    let snap1 = engine.snapshot().freeze_delta(&mut db);
    assert_eq!(
        relation_encode_count() - before,
        1,
        "freeze_delta must re-encode exactly the one dirty relation"
    );
    for i in 1..8 {
        let name = format!("R{i}");
        assert_eq!(snap1.relation_version(&name), Some(0), "{name} stays clean");
    }
    assert_eq!(snap1.relation_version("R0"), Some(1));

    let carried = engine.advance(Arc::clone(&snap1));
    assert_eq!(carried, 7, "the seven clean plans carry forward");
    for (i, q) in queries.iter().enumerate() {
        let again = engine
            .prepare(q, OrderSpec::lex(q, &["x", "y"]), &no_fds(), Policy::Reject)
            .unwrap();
        if i == 0 {
            assert!(!Arc::ptr_eq(&plans[0], &again), "dirty plan rebuilds");
            assert_eq!(again.len(), 21);
        } else {
            assert!(Arc::ptr_eq(&plans[i], &again), "clean plan {i} is carried");
        }
    }
    // In-flight readers of generation 0 still see generation 0.
    assert_eq!(plans[0].len(), 20);
    drop(snap0);
}

/// The served generation against rebuild oracles, on every catalog
/// scenario over the relations `db` holds.
fn verify_generation(db: &Database, engine: &Engine) {
    let mut truth = db.clone();
    truth.normalize();
    assert_eq!(engine.snapshot().to_database(), truth, "the served data");
    for sc in backend_catalog() {
        let q = sc.query();
        if q.atoms().iter().all(|a| db.get(&a.relation).is_some()) {
            if let Some(plan) = sc.prepare(engine, &q) {
                conforms(sc.src, plan.answers(), sc.oracle(&q, db).answers(), 0);
            }
        }
    }
}

/// Run one mutation script: ops are (kind, a, b) with kind selecting
/// a logged insert/delete, a freeze, or one of the mutations the log
/// cannot list (`get_mut`, replacing with `add`, a relation that comes
/// and goes after the base freeze) — so one batch may start logged and
/// turn `replaced`, or merge one relation and re-encode another. Every
/// freeze asserts the exact encode count (== dirty relations) and
/// re-verifies every catalog scenario over the relations present.
fn run_mutation_script(ops: &[(u8, i64, i64)]) -> Result<(), String> {
    let mut db = Database::new()
        .with_i64_rows("R", 2, vec![vec![0, 1], vec![1, 2]])
        .with_i64_rows("S", 2, vec![vec![1, 3], vec![2, 0]])
        .with_i64_rows("T", 2, vec![vec![0, 4], vec![3, 1]]); // never mutated
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();
    verify_generation(&db, &engine);

    let mut dirty_since_freeze = false;
    for &(kind, a, b) in ops {
        match kind {
            0 => {
                db.insert_into("R", tup![a, b]);
                dirty_since_freeze = true;
            }
            1 => {
                db.insert_into("S", tup![a, b]);
                dirty_since_freeze = true;
            }
            k @ (2 | 3) => {
                // Delete an *existing* tuple (by index) so deletions
                // actually bite instead of mostly missing.
                let name = if k == 2 { "R" } else { "S" };
                let victim = {
                    let tuples = db.get(name).unwrap().tuples();
                    if tuples.is_empty() {
                        continue;
                    }
                    tuples[(a as usize) % tuples.len()].clone()
                };
                let removed = db.delete_from(name, &victim);
                if removed == 0 {
                    return Err(format!("existing tuple {victim} must delete"));
                }
                dirty_since_freeze = true;
            }
            4 => {
                freeze_and_verify(&mut db, &engine)?;
                dirty_since_freeze = false;
            }
            5 => {
                let name = if a % 2 == 0 { "R" } else { "S" };
                db.get_mut(name).unwrap().insert(tup![a, b]);
                dirty_since_freeze = true;
            }
            6 => {
                let name = if a % 2 == 0 { "R" } else { "S" };
                db.add(Relation::from_tuples(name, 2, vec![tup![a, b], tup![b, 1]]));
                dirty_since_freeze = true;
            }
            _ => {
                // U is born after the base freeze and leaves again the
                // next time this kind comes up, in this batch or a later
                // one.
                if !db.remove("U") {
                    db.add(Relation::from_tuples("U", 1, vec![tup![a], tup![b]]));
                }
                dirty_since_freeze = true;
            }
        }
    }
    if dirty_since_freeze {
        freeze_and_verify(&mut db, &engine)?;
    }
    // T was never touched: its version — and its very encoding — date
    // from generation 0.
    if engine.snapshot().relation_version("T") != Some(0) {
        return Err("untouched relation must keep version 0".to_string());
    }
    Ok(())
}

fn freeze_and_verify(db: &mut Database, engine: &Engine) -> Result<(), String> {
    // A relation dropped in this batch is logged, and has nothing to
    // encode.
    let log = db.mutation_log();
    let dirty = log
        .dirty_relations()
        .filter(|n| db.get(n).is_some())
        .count() as u64;
    let gen_before = engine.generation();
    let before = relation_encode_count();
    let snap = engine.snapshot().freeze_delta(db);
    let encoded = relation_encode_count() - before;
    if encoded != dirty {
        return Err(format!(
            "freeze_delta encoded {encoded} relations, but only {dirty} were dirty"
        ));
    }
    engine.advance(Arc::clone(&snap));
    if engine.generation() != gen_before + 1 {
        return Err("advance must serve the next generation".to_string());
    }
    verify_generation(db, engine);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: random interleavings of inserts, deletes,
    /// delta freezes and queries are indistinguishable — on every
    /// backend, over every generation — from rebuilding from scratch.
    /// Values stay inside the catalog's weight table (`0..100`), so a
    /// sum order is total.
    #[test]
    fn update_fuzz_matches_rebuild_oracle(
        ops in proptest::collection::vec((0u8..8, 0i64..9, 0i64..7), 8..48),
    ) {
        let _g = guard();
        run_mutation_script(&ops)?;
    }
}

/// A relation emptied by deletes is a legitimate generation: plans see
/// zero answers, and a later re-fill brings them back.
#[test]
fn relation_emptied_by_deletes_then_refrozen() {
    let _g = guard();
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 5], vec![6, 2]])
        .with_i64_rows("S", 2, vec![vec![5, 3], vec![2, 5]]);
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();

    for t in [tup![1, 5], tup![6, 2]] {
        assert_eq!(db.delete_from("R", &t), 1);
    }
    assert!(db.get("R").unwrap().is_empty());
    engine.advance_delta(&mut db);
    verify_generation(&db, &engine);
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &no_fds(),
            Policy::Reject,
        )
        .unwrap();
    assert!(plan.is_empty());
    assert_eq!(plan.top_k(3), Vec::<Tuple>::new());
    let mut stream = plan.stream();
    assert_eq!(stream.next(), None);

    // Refill and refreeze: answers return, the old empty generation is
    // still what the old plan serves.
    db.insert_into("R", tup![1, 5]);
    engine.advance_delta(&mut db);
    verify_generation(&db, &engine);
    let refilled = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &no_fds(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(refilled.len(), 1);
    assert!(plan.is_empty(), "generation pinning holds");
}

/// The empty-delta contract: a freeze with no recorded mutations shares
/// *everything* by `Arc` under a fresh generation, and the engine
/// carries every cached plan.
#[test]
fn empty_mutation_log_delta_is_a_shared_generation() {
    let _g = guard();
    let q = parse("Q(x, y) :- R(x, y)").unwrap();
    let mut db = Database::new().with_i64_rows("R", 2, vec![vec![1, 2], vec![3, 4]]);
    let engine = Engine::new(db.clone().freeze());
    db.clear_mutation_log();
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y"]),
            &no_fds(),
            Policy::Reject,
        )
        .unwrap();

    let snap0 = engine.snapshot();
    let before = relation_encode_count();
    let snap1 = snap0.freeze_delta(&mut db);
    assert_eq!(relation_encode_count(), before, "nothing to encode");
    assert_eq!(snap1.generation(), snap0.generation() + 1);
    assert!(Arc::ptr_eq(snap0.dict_arc(), snap1.dict_arc()));
    assert!(Arc::ptr_eq(
        snap0.encoded_arc("R").unwrap(),
        snap1.encoded_arc("R").unwrap()
    ));

    assert_eq!(engine.advance(snap1), 1);
    let again = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y"]),
            &no_fds(),
            Policy::Reject,
        )
        .unwrap();
    assert!(Arc::ptr_eq(&plan, &again));
}

/// Monotone dictionary extension, observed end to end: values past the
/// top of the domain append codes (old encodings shared verbatim);
/// interior values rebase clean encodings by a gather — but never
/// re-encode them.
#[test]
fn dictionary_extension_paths_share_or_gather_clean_encodings() {
    let _g = guard();
    let mut db = Database::new()
        .with_i64_rows("R", 2, vec![vec![10, 20]])
        .with_i64_rows("S", 2, vec![vec![20, 30]]);
    let snap0 = Database::freeze(db.clone());
    db.clear_mutation_log();

    // Append path: 40 > max(domain).
    db.insert_into("R", tup![40, 40]);
    let snap1 = snap0.freeze_delta(&mut db);
    assert!(Arc::ptr_eq(
        snap0.encoded_arc("S").unwrap(),
        snap1.encoded_arc("S").unwrap()
    ));
    for v in [10i64, 20, 30] {
        assert_eq!(
            snap1.dict().code(&Value::int(v)),
            snap0.dict().code(&Value::int(v)),
            "old codes stay stable on append"
        );
    }

    // Rebase path: 15 lands inside the domain.
    db.insert_into("R", tup![15, 15]);
    let before = relation_encode_count();
    let snap2 = snap1.freeze_delta(&mut db);
    assert_eq!(relation_encode_count() - before, 1, "only R encodes");
    assert!(!Arc::ptr_eq(
        snap1.encoded_arc("S").unwrap(),
        snap2.encoded_arc("S").unwrap()
    ));
    // The gathered encoding decodes to the same content, in the same
    // order, under the rebased dictionary.
    let s = snap2.encoded("S").unwrap();
    let rows: Vec<Tuple> = (0..s.len())
        .map(|i| s.decode_row(i, snap2.dict()))
        .collect();
    assert_eq!(rows, vec![tup![20, 30]]);
    assert_eq!(snap2.relation_version("S"), Some(0), "content unchanged");
}
