//! What `served_pages` and `served_churn` share: one `Server` with one
//! worker over one `Engine`, one closed-loop client, and the page mix —
//! 70 % `stream_next` of 20–100 rows, 20 % `page` of 50 rows at a random
//! offset, 10 % `page_batch` of 64 scattered ranks — on a zipf-chosen
//! request. The churn variant adds a write batch every 64th op.

use super::{
    check_native, check_window, freeze, materialize, materialize_checked, parse_request,
    replay_build,
};
use crate::affinity::Pinned;
use crate::data::{self, Parsed, Request, Tier};
use crate::harness::{scratch_dir, Rec, Workload};
use crate::rng::{SplitMix64, Zipf};
use crate::trace::NameStats;
use rda_baseline::MaterializedAccess;
use rda_core::{plan_dependencies, AccessPlan, Engine, Policy, WindowBuf};
use rda_db::{relation_encode_count, Database, Snapshot, SnapshotStore, Tuple};
use rda_serve::{Cursor, PageOutcome, ServeError, Server, ServerConfig, Session, Token};
use std::path::PathBuf;
use std::sync::{Arc, Weak};
use std::time::Instant;

pub const STREAM: usize = 0;
pub const PAGE: usize = 1;
pub const BATCH: usize = 2;
pub const STALE_PAGE: usize = 3;
pub const MUTATE: usize = 4;
pub const WRITE: usize = 5;
pub const KINDS: &[&str] = &[
    "stream_next",
    "page",
    "page_batch",
    "stale_page",
    "mutate",
    "write",
];

const PAGE_ROWS: u64 = 50;
const BATCH_RANKS: usize = 64;
const WRITE_EVERY: u64 = 64;
/// A write batch inserts this many rows and deletes the rows the
/// previous batch on the same relation inserted, so sizes hold steady.
const WRITE_ROWS: u64 = 100;

pub struct Config {
    pub requests: &'static [Request],
    pub plan_cache: usize,
    pub writes: bool,
}

/// What tells one served workload from the other; everything else of
/// [`Workload`] is the same for both.
pub trait Served {
    const NAME: &'static str;
    const CONFIG: Config;
    const READ: usize;
    const HEAVY: usize;
    const UNITS_PER_SECOND: f64;
    const SETUP_REPS: usize;
}

impl<S: Served> Workload for S {
    const NAME: &'static str = S::NAME;
    const KINDS: &'static [&'static str] = KINDS;
    const READ: usize = S::READ;
    const HEAVY: usize = S::HEAVY;
    const UNITS_PER_SECOND: f64 = S::UNITS_PER_SECOND;
    const SETUP_REPS: usize = S::SETUP_REPS;
    const GATE_UNITS: u64 = 1;
    const TIER: Tier = data::SMALL;
    type World = World;

    fn setup(tier: Tier, seed: u64, oracle: bool, rec: &mut Rec) -> World {
        setup(&S::CONFIG, tier, seed, oracle, rec)
    }

    fn round(world: &mut World, units: u64, rec: &mut Rec) {
        round(world, units, rec);
    }

    fn finish(world: World, rec: &mut Rec) {
        finish(world, rec);
    }

    fn derived(rec: &Rec, _names: &[NameStats]) -> Vec<(&'static str, f64)> {
        derived(rec)
    }
}

struct Slot {
    p: Parsed,
    /// The cursor at rank 0, to wrap around to.
    first: Token,
    /// The stream's cursor and the rank it stands at.
    cursor: Token,
    next_rank: u64,
    len: u64,
    /// The plan this request was last seen served from; a different one
    /// means it was built again in between (traced runs only).
    seen: Option<Weak<AccessPlan>>,
}

struct Writer {
    db: Database,
    snap: Arc<Snapshot>,
    store: SnapshotStore,
    dir: PathBuf,
    batches: u64,
    /// Rows the last batch on `T` / on `S` inserted.
    last: [Vec<Tuple>; 2],
    last_written: &'static str,
}

impl Drop for Writer {
    /// Worlds end by `finish` or, between set-up repetitions, by plain
    /// drop; the store's files go either way.
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Per-op tallies, folded into `Rec::counts` when the world ends.
#[derive(Default)]
struct Tally {
    clean_ops: u64,
    clean_resumes: u64,
    stale_cursors: u64,
    /// Traced ops on a request seen before, and how many of them found
    /// a plan built again since.
    sightings: u64,
    rebuilt: u64,
}

pub struct World {
    /// Made before the server, so its worker inherits the one CPU; see
    /// [`crate::affinity`] for why.
    _pinned: Pinned,
    tier: Tier,
    seed: u64,
    server: Server,
    slots: Vec<Slot>,
    oracles: Option<Vec<MaterializedAccess>>,
    writer: Option<Writer>,
    zipf: Zipf,
    ranks: Vec<u64>,
    replay_buf: WindowBuf,
    tally: Tally,
}

fn setup(config: &Config, tier: Tier, seed: u64, oracle: bool, rec: &mut Rec) -> World {
    let pinned = Pinned::to_one_cpu();
    rec.count("pinned_to_one_cpu", u64::from(pinned.is_pinned()));
    let mut db = data::database(tier, seed);
    let snap = freeze(&db, rec);
    db.clear_mutation_log();
    let engine = Arc::new(Engine::with_plan_cache_capacity(
        Arc::clone(&snap),
        config.plan_cache,
    ));
    let server = Server::new(
        engine,
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let writer = config.writes.then(|| {
        let dir = scratch_dir("churn");
        let t = rec.begin(rec.s.db_save);
        let store = SnapshotStore::create(&dir, &snap).expect("create the snapshot store");
        rec.end(t);
        let bytes = std::fs::metadata(store.base_path()).map_or(0, |m| m.len());
        rec.count("base_file_bytes", bytes);
        Writer {
            db: db.clone(),
            snap: Arc::clone(&snap),
            store,
            dir,
            batches: 0,
            last: [Vec::new(), Vec::new()],
            last_written: "T",
        }
    });
    rec.count("dict_len", snap.dict().len() as u64);

    // Prepare every request and read one page of it: the cursors exist
    // and the page buffers have grown before anything is timed.
    let mut slots = Vec::new();
    let mut session = server.session();
    for &request in config.requests {
        let p = parse_request(request, rec);
        let t = rec.begin(rec.s.s_prepare);
        let prepared = session.prepare(&p.q, p.order(), &p.fds, Policy::Reject);
        let (_, span) = rec.tr.end_units(t, 1);
        replay_build(&p, &snap, span, rec);
        let prepared =
            prepared.unwrap_or_else(|e| panic!("{} cannot be prepared: {e}", request.name));
        check_native(&p, prepared.backend, rec);
        if let Err(e) = session.page(&prepared.token, 0, PAGE_ROWS) {
            rec.fail(|| format!("{}: warm-up page failed: {e}", request.name));
        }
        slots.push(Slot {
            p,
            first: prepared.token.clone(),
            cursor: prepared.token,
            next_rank: 0,
            len: prepared.len,
            seen: None,
        });
    }
    drop(session);
    let oracles = oracle.then(|| {
        slots
            .iter()
            .map(|s| materialize_checked(&s.p, &db, s.len, rec))
            .collect()
    });
    World {
        _pinned: pinned,
        tier,
        seed,
        server,
        zipf: Zipf::new(slots.len(), 1.2),
        slots,
        oracles,
        writer,
        ranks: Vec::new(),
        replay_buf: WindowBuf::new(),
        tally: Tally::default(),
    }
}

#[derive(Clone, Copy)]
enum Ask {
    Stream(u64),
    Page(u64),
    Batch,
}

/// One unit is a block of 256 client ops: with writes on, four write
/// batches, the last of which dirties the join input, so every round
/// holds the same number of each.
pub const BLOCK: u64 = 4 * WRITE_EVERY;

/// Which request, which op, how long, at which ranks: one fixed script
/// of a block's 256 ops, replayed in every block and the same for every
/// seed. The seed names the data that is served; the script fixes how
/// much work is asked for, so that rounds (and runs on different seeds)
/// differ by what the host did, not by which plans a zipf draw happened
/// to evict. Streams still advance from block to block.
const TRAFFIC_SCRIPT: u64 = 0x5E7E_D0C5;

fn round(w: &mut World, units: u64, rec: &mut Rec) {
    let World {
        _pinned,
        tier,
        seed,
        server,
        slots,
        oracles,
        writer,
        zipf,
        ranks,
        replay_buf,
        tally,
    } = w;
    let mut session = server.session();
    for _ in 0..units {
        let mut rng = SplitMix64::new(TRAFFIC_SCRIPT);
        for op in 1..=BLOCK {
            if let Some(writer) = writer.as_mut().filter(|_| op % WRITE_EVERY == 0) {
                write_batch(
                    writer,
                    server.engine(),
                    *tier,
                    *seed,
                    oracles.is_some(),
                    rec,
                );
                if let Some(oracles) = oracles {
                    // The twin's references follow the data.
                    let written = writer.last_written;
                    for (slot, m) in slots.iter().zip(oracles.iter_mut()) {
                        if slot.p.q.atoms().iter().any(|a| a.relation == written) {
                            *m = materialize(&slot.p, &writer.db, rec);
                        }
                    }
                }
            }
            let i = zipf.sample(&mut rng);
            let slot = &mut slots[i];
            let ask = match rng.below(10) {
                0..=6 => Ask::Stream(rng.between(20, 100)),
                7..=8 => Ask::Page(rng.below(slot.len.saturating_sub(PAGE_ROWS).max(1))),
                _ => {
                    ranks.clear();
                    ranks.extend((0..BATCH_RANKS).map(|_| rng.below(slot.len.max(1))));
                    Ask::Batch
                }
            };
            let mut ctx = OpCtx {
                session: &mut session,
                engine: server.engine(),
                ranks,
                replay_buf,
                oracle: oracles.as_ref().map(|o| &o[i]),
                tally,
            };
            ctx.op(slot, ask, rec);
        }
        rec.close_unit();
    }
}

struct OpCtx<'a, 's> {
    session: &'a mut Session<'s>,
    engine: &'a Arc<Engine>,
    ranks: &'a [u64],
    replay_buf: &'a mut WindowBuf,
    oracle: Option<&'a MaterializedAccess>,
    tally: &'a mut Tally,
}

impl OpCtx<'_, '_> {
    fn send(&mut self, slot: &Slot, ask: Ask) -> Result<PageOutcome, ServeError> {
        match ask {
            Ask::Stream(len) => self.session.stream_next(&slot.cursor, len),
            Ask::Page(offset) => self.session.page(&slot.cursor, offset, PAGE_ROWS),
            Ask::Batch => self.session.page_batch(&slot.cursor, self.ranks),
        }
    }

    fn op(&mut self, slot: &mut Slot, ask: Ask, rec: &mut Rec) {
        let (kind, span) = match ask {
            Ask::Stream(_) => (STREAM, rec.s.s_stream),
            Ask::Page(_) => (PAGE, rec.s.s_page),
            Ask::Batch => (BATCH, rec.s.s_batch),
        };
        let t = rec.begin(span);
        let result = self.send(slot, ask);
        let (ns, span_slot) = rec.tr.end_units(t, 1);
        match result {
            Ok(out) => {
                rec.op(kind, 1, out.rows, ns);
                self.tally.clean_ops += 1;
                self.tally.clean_resumes += u64::from(out.resumed);
                self.replay(slot, ask, span_slot, rec);
                self.accept(slot, ask, out, rec);
            }
            Err(ServeError::CursorStale(_)) => {
                // Expected after a write to a relation the plan reads:
                // prepare again and ask again. The three steps together
                // are one op, "a stale request to its first rows". The
                // rebuild is in the first step: the server pins a fresh
                // plan before it checks the cursor, so the refusal
                // itself takes a build, and the retry under this span
                // finds the plan cached.
                self.tally.stale_cursors += 1;
                let t = rec.begin(rec.s.op_stale_retry);
                let p = &slot.p;
                let c = rec.begin(rec.s.s_prepare);
                let prepared = self
                    .session
                    .prepare(&p.q, p.order(), &p.fds, Policy::Reject);
                rec.end(c);
                let retried = match prepared {
                    Ok(prepared) => {
                        slot.first = prepared.token.clone();
                        slot.cursor = prepared.token;
                        slot.next_rank = 0;
                        slot.len = prepared.len;
                        let c = rec.begin(span);
                        let out = self.send(slot, ask);
                        rec.end(c);
                        out
                    }
                    Err(e) => Err(e),
                };
                let again = rec.end(t);
                match retried {
                    Ok(out) => {
                        rec.op(STALE_PAGE, 1, out.rows, ns + again);
                        self.accept(slot, ask, out, rec);
                    }
                    Err(e) => {
                        rec.op(STALE_PAGE, 1, 0, ns + again);
                        rec.fail(|| format!("{}: after re-prepare: {e}", slot.p.request.name));
                    }
                }
            }
            Err(e) => {
                rec.op(kind, 1, 0, ns);
                rec.fail(|| format!("{}: {e}", slot.p.request.name));
            }
        }
    }

    /// Check the rows of a successful reply and move the stream cursor.
    fn accept(&mut self, slot: &mut Slot, ask: Ask, out: PageOutcome, rec: &mut Rec) {
        let name = slot.p.request.name;
        let rows = self.session.rows();
        rec.check(rows.len() as u64 == out.rows, || {
            format!(
                "{name}: reply says {} rows, buffer holds {}",
                out.rows,
                rows.len()
            )
        });
        let want = |lo: u64, len: u64| len.min(slot.len.saturating_sub(lo));
        match ask {
            Ask::Stream(len) => {
                let lo = slot.next_rank;
                rec.check(out.rows == want(lo, len), || {
                    format!("{name}: stream_next at {lo} served {} of {len}", out.rows)
                });
                check_window(&slot.p, self.oracle, lo.., rows, true, rec);
                match out.next {
                    Some(next) => {
                        slot.cursor = next;
                        slot.next_rank = lo + out.rows;
                    }
                    None => {
                        rec.check(lo + out.rows == slot.len, || {
                            format!("{name}: stream ended at {} of {}", lo + out.rows, slot.len)
                        });
                        slot.cursor = slot.first.clone();
                        slot.next_rank = 0;
                    }
                }
            }
            Ask::Page(lo) => {
                rec.check(out.rows == want(lo, PAGE_ROWS), || {
                    format!("{name}: page at {lo} served {}", out.rows)
                });
                check_window(&slot.p, self.oracle, lo.., rows, true, rec);
            }
            Ask::Batch => {
                let in_range = self.ranks.iter().filter(|&&k| k < slot.len).count();
                rec.check(out.rows == in_range as u64, || {
                    format!("{name}: batch served {} of {in_range}", out.rows)
                });
                let ranks = self.ranks.iter().copied().filter(|&k| k < slot.len);
                check_window(&slot.p, self.oracle, ranks, rows, false, rec);
            }
        }
    }

    /// The constituents of a served page, run again on the client
    /// thread and attached to the page's span: token decode, the plan
    /// cache hit, the window or batch kernel, token encode. What is left
    /// of the page is the hop through the admission queue and back.
    fn replay(&mut self, slot: &mut Slot, ask: Ask, parent: u32, rec: &mut Rec) {
        if !rec.tr.enabled() {
            return;
        }
        let ns = |start: Instant| start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let cursor = Cursor::decode(&slot.cursor);
        rec.tr.replay(parent, rec.s.c_decode, 1, ns(start));
        let Ok(cursor) = cursor else {
            rec.fail(|| format!("{}: own cursor does not decode", slot.p.request.name));
            return;
        };

        let p = &slot.p;
        let order = p.order();
        let start = Instant::now();
        let pinned = self
            .engine
            .prepare_pinned(&p.q, order, &p.fds, Policy::Reject);
        rec.tr.replay(parent, rec.s.prepare_hit, 1, ns(start));
        let Ok((snap, plan)) = pinned else {
            rec.fail(|| format!("{}: replayed prepare failed", p.request.name));
            return;
        };
        if let Some(seen) = &slot.seen {
            self.tally.sightings += 1;
            self.tally.rebuilt += u64::from(seen.as_ptr() != Arc::as_ptr(&plan));
        }
        slot.seen = Some(Arc::downgrade(&plan));

        let (rows, end) = match ask {
            Ask::Stream(len) => {
                let lo = cursor.next_rank;
                let start = Instant::now();
                let rows = plan.window_into(lo..lo + len, self.replay_buf);
                rec.tr
                    .replay(parent, rec.s.plan_window, rows.max(1) as u32, ns(start));
                (rows, lo + rows)
            }
            Ask::Page(lo) => {
                let start = Instant::now();
                let rows = plan.window_into(lo..lo + PAGE_ROWS, self.replay_buf);
                rec.tr
                    .replay(parent, rec.s.plan_window, rows.max(1) as u32, ns(start));
                (rows, lo + rows)
            }
            Ask::Batch => {
                let start = Instant::now();
                let rows = plan.access_batch_into(self.ranks, self.replay_buf);
                rec.tr
                    .replay(parent, rec.s.plan_batch, rows.max(1) as u32, ns(start));
                (rows, cursor.next_rank)
            }
        };
        std::hint::black_box(rows);

        let next = Cursor {
            request_key: cursor.request_key,
            snapshot_uid: snap.uid(),
            generation: snap.generation(),
            next_rank: end,
            deps: plan_dependencies(&p.q, &snap).unwrap_or_default(),
        };
        let start = Instant::now();
        let token = next.encode();
        rec.tr.replay(parent, rec.s.c_encode, 1, ns(start));
        std::hint::black_box(token);
    }
}

/// Mutate, freeze the delta, append it to the store, advance the engine
/// — from the client thread, at a fixed op index. Three batches of four
/// touch `T`, which no request reads; the fourth dirties the join input
/// `S`.
fn write_batch(
    w: &mut Writer,
    engine: &Arc<Engine>,
    tier: Tier,
    seed: u64,
    gate: bool,
    rec: &mut Rec,
) {
    let dirty_join = w.batches % 4 == 3;
    let (relation, which) = if dirty_join { ("S", 1) } else { ("T", 0) };
    let first_row = w.batches * WRITE_ROWS;
    w.batches += 1;
    w.last_written = relation;

    let t = rec.begin(rec.s.db_mutate);
    let mut removed = 0;
    for old in &w.last[which] {
        removed += w.db.delete_from(relation, old);
    }
    let fresh: Vec<Tuple> = (first_row..first_row + WRITE_ROWS)
        .map(|i| data::write_row(tier, seed, relation, i))
        .collect();
    for row in &fresh {
        w.db.insert_into(relation, row.clone());
    }
    let ns = rec.end(t);
    rec.op(MUTATE, 1, 0, ns);
    rec.check(removed >= w.last[which].len() as u64, || {
        format!(
            "write batch on {relation}: deleted {removed} of {}",
            w.last[which].len()
        )
    });
    w.last[which] = fresh;

    let cached = engine.plan_cache_len() as u64;
    let encodes_before = relation_encode_count();
    let t = rec.begin(rec.s.op_write);
    let c = rec.begin(rec.s.db_freeze_delta);
    let child = w.snap.freeze_delta(&mut w.db);
    rec.end(c);
    let encodes = relation_encode_count() - encodes_before;
    let c = rec.begin(rec.s.db_append_delta);
    let appended = w.store.append_delta(&w.snap, &child);
    rec.end(c);
    let c = rec.begin(rec.s.advance);
    let carried = engine.advance(Arc::clone(&child)) as u64;
    rec.end(c);
    let ns = rec.end(t);
    rec.op(WRITE, 1, 0, ns);
    if let Err(e) = appended {
        rec.fail(|| format!("append_delta: {e}"));
    }
    w.snap = child;

    rec.count("write_batches", 1);
    rec.count("write_batches_dirtying_join", u64::from(dirty_join));
    rec.count("relations_dirtied", 1);
    rec.count("relation_encodes", encodes);
    rec.count("plans_cached_at_advance", cached);
    rec.count("plans_carried", carried);
    if gate {
        // On the twin, the store must replay to exactly what is served.
        match w.store.load() {
            Ok(replayed) => rec.check(replayed.uid() == w.snap.uid(), || {
                "store replays to a different snapshot than the one served".to_string()
            }),
            Err(e) => rec.fail(|| format!("store does not load: {e}")),
        }
    }
}

fn finish(w: World, rec: &mut Rec) {
    rec.count("clean_ops", w.tally.clean_ops);
    rec.count("clean_resumes", w.tally.clean_resumes);
    rec.count("stale_cursors", w.tally.stale_cursors);
    rec.count("plan_sightings", w.tally.sightings);
    rec.count("plan_rebuilt_between_sightings", w.tally.rebuilt);
    let stats = w.server.stats();
    rec.count("server_admitted", stats.admitted);
    rec.count("server_overloaded", stats.overloaded);
    rec.count("server_deadline_expired", stats.deadline_expired);
    rec.count("server_stale_cursors", stats.stale_cursors);
    rec.count("server_bad_cursors", stats.bad_cursors);
    rec.check(
        stats.overloaded + stats.deadline_expired + stats.bad_cursors == 0,
        || format!("server refused requests: {stats:?}"),
    );
}

fn derived(rec: &Rec) -> Vec<(&'static str, f64)> {
    let n = |name: &str| rec.get_count(name) as f64;
    let share = |num: &str, den: &str| if n(den) > 0.0 { n(num) / n(den) } else { 0.0 };
    let page_ops = n("clean_ops") + n("stale_cursors");
    vec![
        ("db.persist.file_bytes", n("base_file_bytes")),
        ("db.dict.len", n("dict_len")),
        (
            "db.snapshot.encodes_per_dirty_relation",
            share("relation_encodes", "relations_dirtied"),
        ),
        (
            "core.engine.carried_share",
            share("plans_carried", "plans_cached_at_advance"),
        ),
        (
            "core.engine.cache_miss_share",
            share("plan_rebuilt_between_sightings", "plan_sightings"),
        ),
        (
            "serve.server.stale_share",
            if page_ops > 0.0 {
                n("stale_cursors") / page_ops
            } else {
                0.0
            },
        ),
        (
            "serve.server.clean_resume_share",
            share("clean_resumes", "clean_ops"),
        ),
        ("serve.server.admitted", n("server_admitted")),
        ("serve.server.overloaded", n("server_overloaded")),
        (
            "serve.server.deadline_expired",
            n("server_deadline_expired"),
        ),
    ]
}
