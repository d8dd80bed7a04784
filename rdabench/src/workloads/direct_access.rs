//! `direct_access`: the library alone, on warm plans. All time is spent
//! in `rda_core`'s descent and emit kernels; the server, the builds and
//! `rda_db` do nothing after set-up. Point and range use of the same
//! arena are measured against each other. The tier is the one that
//! still fits the core's own cache: see `data::TINY` for what a
//! larger one measures on a shared host.

use super::{
    check_native, check_row, check_window, freeze, materialize_checked, parse_request, prepare_miss,
};
use crate::data::{self, Parsed, Tier};
use crate::harness::{Rec, Workload};
use crate::rng::{SplitMix64, Zipf};
use crate::stats::CHUNK;
use crate::trace::{NameId, NameStats};
use rda_baseline::MaterializedAccess;
use rda_core::{AccessPlan, DirectAccess as _, Engine, RankedAnswers, WindowBuf};
use rda_db::{Tuple, Value};
use std::sync::Arc;

pub struct DirectAccess;

const ACCESS_LEX: usize = 0;
const ACCESS_SUM: usize = 1;
const DIRECT_LEX: usize = 2;
const DIRECT_SUM: usize = 3;
const INVERTED: usize = 4;
const WINDOW_LEX: usize = 5;
const WINDOW_SUM: usize = 6;
const BATCH_SCATTERED: usize = 7;
const BATCH_DENSE: usize = 8;

/// Indices into `World::plans`.
const PATH: usize = 0;
const PRODUCT: usize = 1;
const FD: usize = 2;
const SUM: usize = 3;

const WINDOW_ROWS: u64 = 100;
const WINDOWS_LEX: usize = 48;
const WINDOWS_SUM: usize = 16;
const SCATTERED: usize = 64;
const SCATTERED_BATCHES: usize = 8;
const DENSE: u64 = 1024;
const DENSE_STRIDE: u64 = 3;
const DENSE_BATCHES: usize = 2;
/// Window offsets are zipf(1.2) over this many pages, spread over the
/// rank space by a multiplicative hash: a few hot pages, a long tail.
const PAGE_UNIVERSE: usize = 4096;

pub struct World {
    plans: Vec<(Parsed, Arc<AccessPlan>)>,
    oracles: Option<Vec<MaterializedAccess>>,
    rng: SplitMix64,
    pages: Zipf,
    buf: WindowBuf,
    row: Vec<Value>,
    ranks: Vec<u64>,
    tuples: Vec<Tuple>,
}

impl World {
    fn oracle(&self, plan: usize) -> Option<&MaterializedAccess> {
        self.oracles.as_ref().map(|o| &o[plan])
    }

    fn uniform_ranks(&mut self, n: usize, len: u64) {
        self.ranks.clear();
        for _ in 0..n {
            self.ranks.push(self.rng.below(len));
        }
    }

    /// One chunk of single accesses through `AccessPlan::access_into`.
    fn access_chunk(&mut self, plan: usize, kind: usize, span: NameId, rec: &mut Rec) {
        let len = self.plans[plan].1.len();
        self.uniform_ranks(CHUNK, len);
        let (p, access) = &self.plans[plan];
        let oracle = self.oracles.as_ref().map(|o| &o[plan]);
        let mut hits = 0u64;
        let t = rec.begin(span);
        for &k in &self.ranks {
            hits += u64::from(access.access_into(k, &mut self.row));
            // Three multiplies per row, inside the timed chunk: the
            // price of a checksum over every row served.
            rec.row(&self.row);
            if let Some(m) = oracle {
                check_row(p, m, k, &self.row, rec);
            }
        }
        let (ns, _) = rec.tr.end_units(t, CHUNK as u32);
        rec.op(kind, CHUNK, hits, ns);
        rec.check(hits == CHUNK as u64, || {
            format!("{}: access_into missed an in-range rank", p.request.name)
        });
    }

    /// The same chunk straight on the structure inside the plan: the
    /// difference to `access_chunk` is the plan's dispatch.
    fn direct_chunk(&mut self, plan: usize, kind: usize, rec: &mut Rec) {
        let len = self.plans[plan].1.len();
        self.uniform_ranks(CHUNK, len);
        let mut hits = 0u64;
        let (ns, _) = match self.plans[plan].1.answers() {
            RankedAnswers::Lex(da) => {
                let t = rec.begin(rec.s.lexda_access);
                for &k in &self.ranks {
                    hits += u64::from(da.access_into(k, &mut self.row));
                    rec.row(&self.row);
                }
                rec.tr.end_units(t, CHUNK as u32)
            }
            RankedAnswers::Sum(da) => {
                let t = rec.begin(rec.s.sumda_access);
                for &k in &self.ranks {
                    hits += u64::from(da.access_into(k, &mut self.row));
                    rec.row(&self.row);
                }
                rec.tr.end_units(t, CHUNK as u32)
            }
            _ => unreachable!("set-up checked the backends are native"),
        };
        rec.op(kind, CHUNK, hits, ns);
        rec.check(hits == CHUNK as u64, || {
            "direct access_into missed an in-range rank".to_string()
        });
    }

    /// `inverted_access(access(k)) == k`, the answers fetched untimed.
    fn inverted_chunk(&mut self, rec: &mut Rec) {
        let (p, plan) = &self.plans[PATH];
        let len = plan.len();
        self.ranks.clear();
        self.tuples.clear();
        for _ in 0..CHUNK {
            let k = self.rng.below(len);
            self.ranks.push(k);
            self.tuples
                .push(plan.access(k).expect("an in-range rank has an answer"));
        }
        let mut round_trips = 0usize;
        let t = rec.begin(rec.s.lexda_inverted);
        for (answer, &k) in self.tuples.iter().zip(&self.ranks) {
            round_trips += usize::from(plan.inverted_access(answer) == Some(k));
        }
        let (ns, _) = rec.tr.end_units(t, CHUNK as u32);
        rec.op(INVERTED, CHUNK, 0, ns);
        rec.check(round_trips == CHUNK, || {
            format!(
                "{}: {} of {CHUNK} ranks did not round-trip through inverted_access",
                p.request.name,
                CHUNK - round_trips
            )
        });
    }

    fn window(&mut self, plan: usize, kind: usize, rec: &mut Rec) {
        let (p, access) = &self.plans[plan];
        let rows = WINDOW_ROWS.min(access.len());
        let page = self.pages.sample(&mut self.rng) as u64;
        let lo = page.wrapping_mul(0x9e37_79b9_7f4a_7c15) % (access.len() - rows + 1);
        let span = if plan == SUM {
            rec.s.sumda_window
        } else {
            rec.s.lexda_window
        };
        let t = rec.begin(span);
        let served = access.window_into(lo..lo + rows, &mut self.buf);
        let (ns, _) = rec.tr.end_units(t, rows as u32);
        rec.op(kind, 1, served, ns);
        rec.check(served == rows, || {
            format!(
                "{}: window at {lo} served {served} of {rows}",
                p.request.name
            )
        });
        check_window(p, self.oracle(plan), lo..lo + rows, &self.buf, true, rec);
    }

    fn batch(&mut self, dense: bool, rec: &mut Rec) {
        let len = self.plans[PATH].1.len();
        if dense {
            let n = DENSE.min(len);
            let stride = if len >= n * DENSE_STRIDE {
                DENSE_STRIDE
            } else {
                1
            };
            let lo = self.rng.below(len - (n - 1) * stride);
            self.ranks.clear();
            self.ranks.extend((0..n).map(|i| lo + i * stride));
        } else {
            self.uniform_ranks(SCATTERED, len);
        }
        let (p, plan) = &self.plans[PATH];
        let (span, kind) = if dense {
            (rec.s.batch_dense, BATCH_DENSE)
        } else {
            (rec.s.batch_scattered, BATCH_SCATTERED)
        };
        let t = rec.begin(span);
        let served = plan.access_batch_into(&self.ranks, &mut self.buf);
        let (ns, _) = rec.tr.end_units(t, self.ranks.len() as u32);
        rec.op(kind, 1, served, ns);
        rec.check(served == self.ranks.len() as u64, || {
            format!(
                "{}: batch served {served} of {}",
                p.request.name,
                self.ranks.len()
            )
        });
        let ranks = self.ranks.iter().copied();
        check_window(p, self.oracle(PATH), ranks, &self.buf, dense, rec);
    }
}

impl Workload for DirectAccess {
    const NAME: &'static str = "direct_access";
    const KINDS: &'static [&'static str] = &[
        "access_lex",
        "access_sum",
        "direct_lex",
        "direct_sum",
        "inverted",
        "window_lex",
        "window_sum",
        "batch_scattered",
        "batch_dense",
    ];
    const READ: usize = ACCESS_LEX;
    const HEAVY: usize = BATCH_DENSE;
    const UNITS_PER_SECOND: f64 = 1800.0;
    const SETUP_REPS: usize = 30;
    const GATE_UNITS: u64 = 4;
    const TIER: Tier = data::TINY;
    type World = World;

    fn setup(tier: Tier, seed: u64, oracle: bool, rec: &mut Rec) -> World {
        let db = data::database(tier, seed);
        let snap = freeze(&db, rec);
        let engine = Engine::new(snap);
        let requests = [
            data::PATH_XYZ,
            data::PRODUCT_LEX,
            data::FD_LEX,
            data::COVER_SUM,
        ];
        let mut plans = Vec::new();
        for request in requests {
            let p = parse_request(request, rec);
            let plan = prepare_miss(&engine, &p, rec);
            check_native(&p, plan.backend(), rec);
            plans.push((p, plan));
        }
        let oracles = oracle.then(|| {
            plans
                .iter()
                .map(|(p, plan)| materialize_checked(p, &db, plan.len(), rec))
                .collect()
        });
        World {
            plans,
            oracles,
            rng: SplitMix64::stream(seed, 0x0D1F),
            pages: Zipf::new(PAGE_UNIVERSE, 1.2),
            buf: WindowBuf::new(),
            row: Vec::new(),
            ranks: Vec::new(),
            tuples: Vec::new(),
        }
    }

    /// One unit is one cycle through every op kind.
    fn round(w: &mut World, units: u64, rec: &mut Rec) {
        for _ in 0..units {
            w.access_chunk(PATH, ACCESS_LEX, rec.s.plan_access, rec);
            w.access_chunk(PRODUCT, ACCESS_LEX, rec.s.plan_access_product, rec);
            w.access_chunk(FD, ACCESS_LEX, rec.s.plan_access_fd, rec);
            w.access_chunk(SUM, ACCESS_SUM, rec.s.plan_access_sum, rec);
            w.direct_chunk(PATH, DIRECT_LEX, rec);
            w.direct_chunk(SUM, DIRECT_SUM, rec);
            w.inverted_chunk(rec);
            for _ in 0..WINDOWS_LEX {
                w.window(PATH, WINDOW_LEX, rec);
            }
            for _ in 0..WINDOWS_SUM {
                w.window(SUM, WINDOW_SUM, rec);
            }
            for _ in 0..SCATTERED_BATCHES {
                w.batch(false, rec);
            }
            for _ in 0..DENSE_BATCHES {
                w.batch(true, rec);
            }
            rec.close_unit();
        }
    }

    fn finish(w: World, rec: &mut Rec) {
        for (p, plan) in &w.plans {
            rec.count(p.request.name, plan.len());
        }
    }

    fn derived(_rec: &Rec, names: &[NameStats]) -> Vec<(&'static str, f64)> {
        let per_unit = |name: &str| {
            names
                .iter()
                .find(|n| n.name == name)
                .map_or(0.0, |n| n.per_unit_p50_ns)
        };
        let direct = per_unit("core.lexda.access");
        let mut out = vec![(
            "core.plan.dispatch_self_ns",
            per_unit("core.plan.access") - direct,
        )];
        if direct > 0.0 {
            out.push((
                "core.lexda.batch_vs_single",
                per_unit("core.lexda.batch_scattered") / direct,
            ));
        }
        out
    }
}
