//! One model for the generation lifecycle, and the engine's boundary.
//!
//! * **The lifecycle model.** A state machine drives a writer, a
//!   [`SnapshotStore`], an [`Engine`] and a [`Server`] with two sessions
//!   through scripts of at most twelve steps: write, commit, advance,
//!   persist, reopen, prepare, read through a cursor (`page`,
//!   `stream_next`, `page_batch`) and check. The model is a plain
//!   [`Database`] that takes the same writes, kept per committed
//!   generation and read through [`MaterializedAccess`]; the system
//!   never sees it, and it never reads the system. Every read returns
//!   the model's rows for the generation the engine serves, or fails
//!   typed for a reason the model predicts, after which `repair` reads
//!   the fresh sequence. A check step holds a catalog plan to the model
//!   on the whole access surface.
//! * **The boundary fuzz.** Arbitrary query text goes through `parse`
//!   and `Engine::prepare` under every policy, with lex and SUM orders
//!   and random FD sets. The outcome is a typed error, or exactly the
//!   answers of `all_answers`, without duplicates, in the requested
//!   order. Never an unwind.

#[allow(dead_code)]
mod common;

use common::{backend_catalog, conforms, Scenario, TempDir};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_query::Fd;
use ranked_access::rda_serve::{PageOutcome, ServeError, Server, Session, StaleReason, Token};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// The relations the catalog reads, and their arities. `W` is read by
/// no query; writes make it come and go.
const RELATIONS: [(&str, usize); 5] = [("R", 2), ("S", 2), ("T", 2), ("U", 1), ("V", 3)];

/// The base generation, over the even numbers `0..=40`: a written odd
/// value lands in a gap of the dictionary (a rebase), one above the top
/// extends it.
fn base_db() -> Database {
    let even = |i: i64| 2 * (i % 21);
    let r = (0..18).map(|i| match i {
        0..3 => vec![even(i), even(i)],
        _ => vec![even(3 * i), even(5 * i + 1)],
    });
    Database::new()
        .with_i64_rows("R", 2, r)
        .with_i64_rows("S", 2, (0..16).map(|i| vec![even(5 * i + 1), even(7 * i)]))
        .with_i64_rows("T", 2, (0..12).map(|i| vec![even(7 * i), even(i)]))
        .with_i64_rows("U", 1, (0..3).map(|i| vec![even(3 * i)]))
        .with_i64_rows("V", 3, (0..12).map(|i| vec![even(i), i % 4, i % 4 + i % 2]))
}

/// What the model knows: the data of every committed generation, which
/// relations each batch wrote, and which generation the engine serves.
struct Model {
    db: Database,
    /// Per generation: its data, and the relations its batch wrote.
    gens: Vec<(Database, BTreeSet<&'static str>)>,
    pending: BTreeSet<&'static str>,
    served: usize,
    persisted: usize,
    /// Catalog requests prepared on the current server.
    registered: BTreeSet<usize>,
}

impl Model {
    fn latest(&self) -> usize {
        self.gens.len() - 1
    }

    /// The oracle of a catalog request on the served generation.
    fn oracle(&self, (sc, q): &(Scenario, Cq)) -> MaterializedAccess {
        sc.oracle(q, &self.gens[self.served].0)
    }

    /// Whether a read through a cursor of generation `minted` on request
    /// `r` may fail with `e`, given the served generation.
    fn allows(&self, e: &ServeError, q: &Cq, r: usize, minted: usize) -> bool {
        match e {
            ServeError::UnknownQuery { .. } => !self.registered.contains(&r),
            ServeError::CursorStale(StaleReason::UnrelatedSnapshot { .. }) => minted > self.served,
            ServeError::CursorStale(StaleReason::DirtyDependency { relation, .. }) => {
                let read = q.atoms().iter().any(|a| a.relation == *relation);
                let wrote =
                    (minted + 1..=self.served).any(|g| self.gens[g].1.contains(relation.as_str()));
                read && wrote
            }
            _ => false,
        }
    }
}

/// A cursor a session handed out, and what the model knows of it: its
/// catalog request, its rank and the generation it was minted on.
struct Held(usize, Token, u64, usize);

/// A read through a cursor.
#[derive(Debug)]
enum Read {
    Page(u64, u64),
    Stream(u64),
    Batch(Vec<u64>),
}

impl Read {
    fn run(&self, session: &mut Session<'_>, token: &Token) -> Result<PageOutcome, ServeError> {
        match self {
            Read::Page(offset, len) => session.page(token, *offset, *len),
            Read::Stream(len) => session.stream_next(token, *len),
            Read::Batch(ranks) => session.page_batch(token, ranks),
        }
    }

    /// The rows a cursor at `rank` reads from `answers`, and the rank of
    /// the cursor that comes back.
    fn expect(&self, rank: u64, answers: &[Tuple]) -> (Vec<Tuple>, u64) {
        let window = |lo: u64, len: u64| {
            let lo = (lo as usize).min(answers.len());
            answers[lo..(lo + len as usize).min(answers.len())].to_vec()
        };
        match self {
            Read::Page(offset, len) => {
                let rows = window(*offset, *len);
                let next = offset + rows.len() as u64;
                (rows, next)
            }
            Read::Stream(len) => {
                let rows = window(rank, *len);
                (rows.clone(), rank + rows.len() as u64)
            }
            Read::Batch(ranks) => {
                let rows = ranks.iter().filter_map(|&k| answers.get(k as usize));
                (rows.cloned().collect(), rank)
            }
        }
    }
}

/// Apply write `(a, b, c)` to `db`; `held` is a tuple the model holds
/// in the relation written, for the kinds that take a present tuple.
fn write(db: &mut Database, (a, b, c): (u8, u8, u8), held: Option<&Tuple>) -> &'static str {
    let (name, arity) = RELATIONS[usize::from(a) % RELATIONS.len()];
    let values = [b, c, b ^ c].map(|x| Value::int(i64::from(x % 100)));
    let t = Tuple::new(values[..arity].to_vec());
    match a / 5 % 6 {
        0 => db.insert_into(name, t),
        1 => {
            if let Some(h) = held {
                db.delete_from(name, h);
            }
        }
        2 => db.get_mut(name).unwrap().insert(t),
        3 => {
            if let Some(h) = held {
                db.get_mut(name).unwrap().remove(h);
            }
        }
        4 => {
            let mut rows = db.get(name).unwrap().tuples().to_vec();
            rows.push(t);
            db.add(Relation::from_tuples(name, arity, rows));
        }
        _ => {
            if !db.remove("W") {
                db.add(Relation::from_tuples("W", arity, vec![t]));
            }
            return "W";
        }
    }
    name
}

/// Run one script of `(kind, a, b, c)` steps against the model.
fn run_script(ops: &[(u8, u8, u8, u8)]) {
    let catalog: Vec<(Scenario, Cq)> = backend_catalog()
        .into_iter()
        .map(|sc| (sc, sc.query()))
        .collect();
    let dir = TempDir::new("lifecycle");
    let mut db = base_db();
    let mut snaps = vec![db.clone().freeze()];
    db.clear_mutation_log();
    let store = SnapshotStore::create(dir.path(), &snaps[0]).unwrap();
    let mut engine = Arc::new(Engine::new(Arc::clone(&snaps[0])));
    let mut model = Model {
        db: base_db(),
        gens: vec![(base_db(), BTreeSet::new())],
        pending: BTreeSet::new(),
        served: 0,
        persisted: 0,
        registered: BTreeSet::new(),
    };
    let mut cursors: Vec<Held> = Vec::new();
    let mut steps = ops.iter().copied();
    loop {
        let server = Server::with_defaults(Arc::clone(&engine));
        let mut sessions = [server.session(), server.session()];
        let mut reopen = false;
        for (kind, a, b, c) in steps.by_ref() {
            let session = &mut sessions[usize::from(a) % 2];
            let mut kind = kind % 16;
            if (10..15).contains(&kind) && cursors.is_empty() {
                kind = 8;
            }
            match kind {
                0..3 => {
                    // One to three writes, each drawn from the last.
                    let mut abc = (a, b, c);
                    for _ in 0..=b % 3 {
                        let (a, _, c) = abc;
                        let name = RELATIONS[usize::from(a) % RELATIONS.len()].0;
                        let held = model.db.get(name).and_then(|r| {
                            let rows = r.tuples();
                            (!rows.is_empty()).then(|| rows[usize::from(c) % rows.len()].clone())
                        });
                        write(&mut db, abc, held.as_ref());
                        let wrote = write(&mut model.db, abc, held.as_ref());
                        model.pending.insert(wrote);
                        abc = (a.wrapping_mul(7).wrapping_add(3), c, a ^ c);
                    }
                }
                3 | 4 => {
                    let parent = &snaps[model.latest()];
                    let child = if model.persisted == model.latest() && b % 2 == 0 {
                        model.persisted += 1;
                        store.freeze_delta(parent, &mut db).unwrap()
                    } else {
                        parent.freeze_delta(&mut db)
                    };
                    snaps.push(child);
                    let wrote = std::mem::take(&mut model.pending);
                    model.gens.push((model.db.clone(), wrote));
                    if c % 2 == 0 {
                        engine.advance(Arc::clone(&snaps[model.latest()]));
                        model.served = model.latest();
                    }
                }
                5 | 7 if kind == 5 || a % 3 != 0 => {
                    engine.advance(Arc::clone(&snaps[model.latest()]));
                    model.served = model.latest();
                }
                6 => {
                    for g in model.persisted + 1..=model.latest() {
                        store.append_delta(&snaps[g - 1], &snaps[g]).unwrap();
                    }
                    model.persisted = model.latest();
                }
                7 => {
                    reopen = true;
                    break;
                }
                8 | 9 => {
                    let r = usize::from(b) % catalog.len();
                    let (sc, q) = &catalog[r];
                    let got = session.prepare(q, sc.spec(q), &sc.fd_set(q), sc.policy);
                    let Some(backend) = sc.backend else {
                        let refused = matches!(
                            got,
                            Err(ServeError::Plan(PlanError::Build(
                                BuildError::InvalidOrder(_)
                            )))
                        );
                        assert!(refused, "{}", sc.src);
                        continue;
                    };
                    let p = got.unwrap();
                    let oracle = model.oracle(&catalog[r]);
                    let vitals = (p.backend, p.generation, p.len);
                    let want = (backend, model.served as u64, oracle.len());
                    assert_eq!(vitals, want, "prepare {}", sc.src);
                    model.registered.insert(r);
                    cursors.push(Held(r, p.token, 0, model.served));
                }
                10..15 => {
                    let Held(request, token, rank, minted) =
                        &cursors[usize::from(b) % cursors.len()];
                    let (request, rank, minted) = (*request, *rank, *minted);
                    let oracle = model.oracle(&catalog[request]);
                    let len = oracle.len();
                    let (a, c) = (u64::from(a), u64::from(c));
                    let read = match c % 3 {
                        0 => Read::Page(c / 3 % (len + 2), 1 + a % 6),
                        1 => Read::Stream(1 + c / 3 % 6),
                        _ => Read::Batch(vec![c % (len + 2), 0, len.saturating_sub(1), a]),
                    };
                    let ctx = format!("{read:?} on {}", catalog[request].0.src);
                    let (out, resumed) = match read.run(session, token) {
                        Ok(out) => (out, minted < model.served),
                        Err(e) => {
                            let q = &catalog[request].1;
                            let why = format!("{ctx}: generation {minted} cursor");
                            assert!(model.allows(&e, q, request, minted), "{why}: {e:?}");
                            if matches!(e, ServeError::UnknownQuery { .. }) {
                                continue;
                            }
                            let p = session.repair(token).unwrap();
                            let vitals = (p.generation, p.len);
                            assert_eq!(vitals, (model.served as u64, len), "{ctx}: repair");
                            (read.run(session, &p.token).unwrap(), false)
                        }
                    };
                    let (rows, next) = read.expect(rank, oracle.answers());
                    let seen = (out.generation, out.resumed, session.rows().to_tuples());
                    assert_eq!(seen, (model.served as u64, resumed, rows), "{ctx}");
                    assert_eq!(out.next.is_some(), next < len, "{ctx}: next cursor");
                    if let Some(token) = out.next {
                        cursors.push(Held(request, token, next, model.served));
                    }
                }
                _ => {
                    let request = &catalog[usize::from(c) % catalog.len()];
                    if let Some(plan) = request.0.prepare(&engine, &request.1) {
                        let want = model.oracle(request);
                        conforms(request.0.src, plan.answers(), want.answers(), 0);
                    }
                }
            }
        }
        if !reopen {
            return;
        }
        drop(sessions);
        engine = Arc::new(Engine::open(dir.path()).unwrap());
        model.served = model.persisted;
        model.registered.clear();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Writes, commits, advances, persists, restarts, prepares and
    /// cursor reads in any order serve what the model holds.
    #[test]
    fn the_lifecycle_serves_what_the_model_holds(
        ops in proptest::collection::vec((0u8..16, 0u8..255, 0u8..255, 0u8..255), 1..13),
    ) {
        run_script(&ops);
    }
}

/// Query text over three relation symbols and four variables: self-joins,
/// repeated variables in atoms and in the head, projections; one text
/// in ten loses a character.
fn random_query_text(rng: &mut StdRng) -> String {
    let vars = ["x", "y", "z", "w"];
    let mut arity: HashMap<usize, usize> = HashMap::new();
    let mut body_vars: Vec<&str> = Vec::new();
    let atoms: Vec<String> = (0..rng.random_range(1..=3))
        .map(|_| {
            let rel = rng.random_range(0..3usize);
            let n = match arity.get(&rel) {
                Some(&n) if rng.random_bool(0.9) => n,
                _ => rng.random_range(1..=3),
            };
            arity.insert(rel, n);
            let terms: Vec<&str> = (0..n).map(|_| vars[rng.random_range(0..4usize)]).collect();
            for t in &terms {
                if !body_vars.contains(t) {
                    body_vars.push(t);
                }
            }
            format!("{}({})", ["R", "S", "T"][rel], terms.join(", "))
        })
        .collect();
    let mut head = body_vars.clone();
    head.shuffle(rng);
    if rng.random_bool(0.5) {
        head.truncate(rng.random_range(0..=head.len()));
    }
    if !head.is_empty() && rng.random_bool(0.3) {
        head.push(head[rng.random_range(0..head.len())]);
    }
    let mut text = format!("Q({}) :- {}", head.join(", "), atoms.join(", "));
    if rng.random_range(0..10) == 0 {
        text.remove(rng.random_range(0..text.len()));
    }
    text
}

/// A typed error, or the oracle's answer set without duplicates in the
/// order `spec` asks for.
fn served_as_asked(
    engine: &Engine,
    db: &Database,
    q: &Cq,
    spec: &OrderSpec,
    fds: &FdSet,
    policy: Policy,
) -> Result<(), String> {
    let Ok(plan) = engine.prepare(q, spec.clone(), fds, policy) else {
        return Ok(());
    };
    let got: Vec<Tuple> = plan.iter().collect();
    let mut set = got.clone();
    set.sort();
    set.dedup();
    if set.len() != got.len() || plan.len() != got.len() as u64 {
        return Err(format!("{} rows, {} distinct", got.len(), set.len()));
    }
    if set != all_answers(q, db) {
        return Err("not the answer set".to_string());
    }
    let sorted = match spec {
        OrderSpec::Lex(lex) => {
            let at: Vec<usize> = lex
                .iter()
                .map(|v| q.free().iter().position(|f| f == v).unwrap())
                .collect();
            let key = |t: &Tuple| at.iter().map(|&p| t[p].clone()).collect::<Vec<_>>();
            got.windows(2).all(|w| key(&w[0]) <= key(&w[1]))
        }
        OrderSpec::Sum(w) => {
            let weight = |t: &Tuple| w.answer_weight(q.free(), t.values());
            got.windows(2).all(|p| weight(&p[0]) <= weight(&p[1]))
        }
    };
    sorted
        .then_some(())
        .ok_or_else(|| "out of order".to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// No query text unwinds `parse` → `Engine::prepare`; whatever it
    /// serves is the answer set in the requested order.
    #[test]
    fn any_query_text_is_refused_typed_or_served_as_asked(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let text = random_query_text(&mut rng);
        let Ok(q) = parse(&text) else { return Ok(true) };
        let db = common::random_db(&q, rng.random_range(1..8), 4, rng.random_range(0..u64::MAX));
        let mut fds = FdSet::empty();
        if q.var_count() > 0 && rng.random_bool(0.3) {
            // Variables from the whole query: one outside the named
            // atom breaks `Fd`'s contract and must be refused typed.
            let atom = &q.atoms()[rng.random_range(0..q.atoms().len())];
            let mut var = || VarId(rng.random_range(0..q.var_count() as u32));
            let (lhs, rhs) = (var(), var());
            fds.0.push(Fd { relation: atom.relation.clone(), lhs, rhs });
        }
        let mut lex: Vec<VarId> = q.free_set().iter().collect();
        lex.shuffle(&mut rng);
        lex.truncate(rng.random_range(0..=lex.len()));
        let engine = Engine::new(db.clone().freeze());
        for spec in [OrderSpec::Lex(lex), OrderSpec::sum_by_value()] {
            for policy in [Policy::Reject, Policy::Materialize] {
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    served_as_asked(&engine, &db, &q, &spec, &fds, policy)
                }));
                let ctx = format!("`{text}` under {fds:?}, {policy:?}, {spec:?}");
                let outcome = outcome.map_err(|_| "unwound".to_string()).and_then(|r| r);
                prop_assert!(outcome.is_ok(), "{ctx}: {}", outcome.unwrap_err());
            }
        }
    }
}
