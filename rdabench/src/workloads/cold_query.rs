//! `cold_query`: nothing is prepared. Every op takes a request from its
//! text to its first rows on the mid tier — parse, classify, build,
//! first page; or a selection answer with no preprocessing at all — and
//! every sixth op freezes the database, saves it, cold-opens an engine
//! from the file and serves a first page from that. This is the
//! quasilinear side of the paper: builds, selection, freeze and
//! persistence do all the work, steady-state access does none.

use super::{
    check_native, check_row, check_window, freeze, materialize, parse_only, parse_request,
    prepare_miss, replay_build,
};
use crate::data::{self, Parsed, Request, Tier};
use crate::harness::{scratch_dir, Rec, Workload};
use crate::trace::NameStats;
use rda_baseline::MaterializedAccess;
use rda_core::{Backend, DirectAccess as _, Engine, Policy, WindowBuf};
use rda_db::{Database, Snapshot, SnapshotStore};
use std::sync::Arc;
use std::time::Instant;

pub struct ColdQuery;

const FIRST_PAGE_LEX: usize = 0;
const SELECT_LEX: usize = 3;
const SELECT_SUM: usize = 4;
const FREEZE_SAVE: usize = 5;
const COLD_OPEN: usize = 6;

/// The round-robin, by kind index.
const REQUESTS: [Request; 5] = [
    data::PATH_XYZ,
    data::COVER_SUM,
    data::FD_LEX,
    data::SELECT_LEX,
    data::SELECT_SUM,
];
/// For each selection request, a request with the same answers whose
/// order has direct access: its plan's `len()` gives the middle rank (a
/// selection handle's own `len()` runs selections and takes seconds).
const COUNTED_BY: [(usize, Request); 2] = [
    (SELECT_LEX, data::PATH_XYZ),
    (SELECT_SUM, data::FULL_FD_PATH_XYZ),
];
const FIRST_ROWS: u64 = 100;

pub struct World {
    db: Database,
    snap: Arc<Snapshot>,
    engine: Engine,
    oracles: Option<Vec<MaterializedAccess>>,
    /// Answer count per request kind (selection kinds only).
    answers: [u64; REQUESTS.len()],
    buf: WindowBuf,
    cold_opens: u64,
}

impl World {
    /// Request text → plan → its first rows (or its middle answer).
    fn query(&mut self, kind: usize, rec: &mut Rec) {
        let request = REQUESTS[kind];
        let selection = kind >= SELECT_LEX;
        let t = rec.begin(if selection {
            rec.s.op_select
        } else {
            rec.s.op_first_page
        });
        let p = parse_only(request, rec);
        let c = rec.begin(rec.s.prepare_miss);
        let plan = self
            .engine
            .prepare_uncached(&p.q, p.order(), &p.fds, Policy::Reject);
        let (_, prepare_span) = rec.tr.end_units(c, 1);
        let plan = match plan {
            Ok(plan) => plan,
            Err(e) => {
                let ns = rec.end(t);
                rec.op(kind, 1, 0, ns);
                rec.fail(|| format!("{}: {e}", request.name));
                return;
            }
        };
        let oracle = self.oracles.as_ref().map(|o| &o[kind]);
        if selection {
            let k = self.answers[kind] / 2;
            let c = rec.begin(if kind == SELECT_LEX {
                rec.s.lexsel
            } else {
                rec.s.sumsel
            });
            let answer = plan.access(k);
            rec.end(c);
            let ns = rec.end(t);
            rec.op(kind, 1, u64::from(answer.is_some()), ns);
            let expect = if kind == SELECT_LEX {
                Backend::SelectionLex
            } else {
                Backend::SelectionSum
            };
            rec.check(plan.backend() == expect, || {
                format!(
                    "{} routed to {}, not to selection",
                    request.name,
                    plan.backend()
                )
            });
            match answer {
                Some(answer) => {
                    rec.row(answer.values());
                    if let Some(m) = oracle {
                        check_row(&p, m, k, answer.values(), rec);
                    }
                }
                None => rec.fail(|| format!("{}: no answer at rank {k}", request.name)),
            }
        } else {
            let c = rec.begin(rec.s.first_page);
            let rows = plan.top_k_into(FIRST_ROWS, &mut self.buf);
            rec.end(c);
            let ns = rec.end(t);
            rec.op(kind, 1, rows, ns);
            check_native(&p, plan.backend(), rec);
            self.check_first_page(&p, plan.len(), rows, oracle, rec);
        }
        drop(plan);
        replay_build(&p, &self.snap, prepare_span, rec);
    }

    fn check_first_page(
        &self,
        p: &Parsed,
        len: u64,
        rows: u64,
        oracle: Option<&MaterializedAccess>,
        rec: &mut Rec,
    ) {
        rec.check(rows == FIRST_ROWS.min(len), || {
            format!(
                "{}: first page has {rows} rows of {len} answers",
                p.request.name
            )
        });
        check_window(p, oracle, 0.., &self.buf, true, rec);
    }

    /// Freeze → save → cold-open → prepare → first rows.
    fn cold_open(&mut self, rec: &mut Rec) {
        let dir = scratch_dir("cold");
        let start = Instant::now();
        let snap = freeze(&self.db, rec);
        let c = rec.begin(rec.s.db_save);
        let store = SnapshotStore::create(&dir, &snap);
        rec.end(c);
        rec.op(FREEZE_SAVE, 1, 0, start.elapsed().as_nanos() as u64);
        let store = match store {
            Ok(store) => store,
            Err(e) => {
                rec.fail(|| format!("SnapshotStore::create: {e}"));
                return;
            }
        };
        self.cold_opens += 1;
        if self.cold_opens == 1 {
            let bytes = std::fs::metadata(store.base_path()).map_or(0, |m| m.len());
            rec.count("base_file_bytes", bytes);
            rec.count("user_tuples", self.db.size() as u64);
        }

        let t = rec.begin(rec.s.op_cold_open);
        let c = rec.begin(rec.s.engine_open);
        let engine = Engine::open(&dir);
        let (_, open_span) = rec.tr.end_units(c, 1);
        let served = engine.map_err(|e| e.to_string()).and_then(|engine| {
            let p = parse_only(data::PATH_XYZ, rec);
            let c = rec.begin(rec.s.prepare_miss);
            let plan = engine.prepare(&p.q, p.order(), &p.fds, Policy::Reject);
            rec.end(c);
            let plan = plan.map_err(|e| e.to_string())?;
            let c = rec.begin(rec.s.first_page);
            let rows = plan.top_k_into(FIRST_ROWS, &mut self.buf);
            rec.end(c);
            Ok((p, plan.len(), rows, engine.snapshot().uid()))
        });
        let ns = rec.end(t);
        match served {
            Ok((p, len, rows, uid)) => {
                rec.op(COLD_OPEN, 1, rows, ns);
                rec.check(uid == snap.uid(), || {
                    "the cold-opened engine serves a different snapshot".to_string()
                });
                let oracle = self.oracles.as_ref().map(|o| &o[FIRST_PAGE_LEX]);
                self.check_first_page(&p, len, rows, oracle, rec);
            }
            Err(e) => {
                rec.op(COLD_OPEN, 1, 0, ns);
                rec.fail(|| format!("cold open: {e}"));
            }
        }
        if rec.tr.enabled() {
            // What `Engine::open` does underneath, on its own.
            let start = Instant::now();
            let loaded = SnapshotStore::open(&dir).and_then(|s| s.load());
            let ns = start.elapsed().as_nanos() as u64;
            rec.tr.replay(open_span, rec.s.db_load, 1, ns);
            rec.check(loaded.is_ok(), || "replayed store load failed".to_string());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

impl Workload for ColdQuery {
    const NAME: &'static str = "cold_query";
    const KINDS: &'static [&'static str] = &[
        "first_page_lex",
        "first_page_sum",
        "first_page_fd",
        "select_lex",
        "select_sum",
        "freeze_save",
        "cold_open",
    ];
    const READ: usize = SELECT_LEX;
    const HEAVY: usize = FIRST_PAGE_LEX;
    const UNITS_PER_SECOND: f64 = 12.0;
    const SETUP_REPS: usize = 40;
    const GATE_UNITS: u64 = 2;
    const TIER: Tier = data::TINY;
    type World = World;

    fn setup(tier: Tier, seed: u64, oracle: bool, rec: &mut Rec) -> World {
        let db = data::database(tier, seed);
        let snap = freeze(&db, rec);
        rec.count("dict_len", snap.dict().len() as u64);
        let engine = Engine::new(Arc::clone(&snap));
        let mut answers = [0; REQUESTS.len()];
        for (kind, counted_by) in COUNTED_BY {
            let p = parse_request(counted_by, rec);
            answers[kind] = prepare_miss(&engine, &p, rec).len();
        }
        engine.clear_plan_cache();
        let oracles = oracle.then(|| {
            REQUESTS
                .iter()
                .map(|&r| {
                    let p = parse_request(r, rec);
                    materialize(&p, &db, rec)
                })
                .collect()
        });
        World {
            db,
            snap,
            engine,
            oracles,
            answers,
            buf: WindowBuf::new(),
            cold_opens: 0,
        }
    }

    /// One unit is one cycle: each of the five requests once, then one
    /// cold open, so every round holds the same mix of work.
    fn round(w: &mut World, units: u64, rec: &mut Rec) {
        for _ in 0..units {
            for kind in 0..REQUESTS.len() {
                w.query(kind, rec);
            }
            w.cold_open(rec);
            rec.close_unit();
        }
    }

    fn finish(_w: World, _rec: &mut Rec) {}

    fn derived(rec: &Rec, _names: &[NameStats]) -> Vec<(&'static str, f64)> {
        vec![
            (
                "db.persist.file_bytes",
                rec.get_count("base_file_bytes") as f64,
            ),
            ("db.dict.len", rec.get_count("dict_len") as f64),
        ]
    }
}
