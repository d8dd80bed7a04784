//! The four workloads and what their set-ups and checks share.

pub mod cold_query;
pub mod direct_access;
pub mod served;
pub mod served_churn;
pub mod served_pages;

use crate::data::{row_sum, Order, Parsed, Request};
use crate::harness::Rec;
use rda_baseline::MaterializedAccess;
use rda_core::{
    AccessPlan, Backend, Engine, LexDirectAccess, Policy, SumDirectAccess, Weights, WindowBuf,
};
use rda_db::{Database, Snapshot, Tuple, Value};
use rda_query::classify::{classify, Problem};
use rda_query::parser::parse;
use std::sync::Arc;
use std::time::Instant;

/// Name and reason of each workload, in the order they run.
pub const ALL: &[(&str, &str)] = &[
    (
        "direct_access",
        "library only, warm plans on the 4k tier: point, inverted, window and batch access; only rda_core descent and emit kernels work, server, builds and rda_db do nothing",
    ),
    (
        "served_pages",
        "read-only traffic through rda_serve on the 8k tier: the admission hop and cursor handling dominate, the access kernel is a small share",
    ),
    (
        "served_churn",
        "the same server with a write batch every 64th op and a plan cache smaller than the plan population: deltas, persist appends, plan carry, evictions and rebuilds",
    ),
    (
        "cold_query",
        "nothing prepared, 4k tier: parse, classify, build, first page, selection, freeze, save and cold-open do all the work; steady-state access does none",
    ),
];

/// Parse a catalogue request under a `query.parser.parse` span.
pub fn parse_only(request: Request, rec: &mut Rec) -> Parsed {
    let t = rec.begin(rec.s.q_parse);
    let q = parse(request.query).expect("catalogue queries parse");
    rec.end(t);
    Parsed::new(request, q)
}

/// [`parse_only`], then classify once under `query.classify.classify`
/// (set-ups do this; an op leaves classification to the prepare).
pub fn parse_request(request: Request, rec: &mut Rec) -> Parsed {
    let p = parse_only(request, rec);
    let problem = match request.order {
        Order::Lex(names) => Problem::DirectAccessLex(p.q.vars(names)),
        Order::Sum => Problem::DirectAccessSum,
    };
    let t = rec.begin(rec.s.q_classify);
    let verdict = classify(&p.q, &p.fds, &problem);
    rec.end(t);
    std::hint::black_box(verdict);
    p
}

/// `Database::freeze` under its span. The database is cloned first (the
/// workloads keep the mutable source); the clone is outside the span.
pub fn freeze(db: &Database, rec: &mut Rec) -> Arc<Snapshot> {
    let copy = db.clone();
    let t = rec.begin(rec.s.db_freeze);
    let snap = copy.freeze();
    rec.end(t);
    snap
}

/// The gate's reference: every answer of `p`, materialized and sorted.
pub fn materialize(p: &Parsed, db: &Database, rec: &mut Rec) -> MaterializedAccess {
    let t = rec.begin(rec.s.oracle);
    let m = match p.request.order {
        Order::Lex(names) => MaterializedAccess::by_lex(&p.q, db, &p.q.vars(names)),
        Order::Sum => {
            MaterializedAccess::by_sum(&p.q, db, |_, v| v.as_int().map_or(0.0, |i| i as f64))
        }
    };
    rec.end(t);
    m
}

/// [`materialize`], and the plan must count as many answers.
pub fn materialize_checked(
    p: &Parsed,
    db: &Database,
    plan_len: u64,
    rec: &mut Rec,
) -> MaterializedAccess {
    let m = materialize(p, db, rec);
    rec.check(plan_len == m.len(), || {
        format!(
            "{}: {plan_len} answers, reference has {}",
            p.request.name,
            m.len()
        )
    });
    m
}

/// A plan the workloads page through must be a native structure.
pub fn check_native(p: &Parsed, backend: Backend, rec: &mut Rec) {
    rec.check(backend.is_native_direct_access(), || {
        format!(
            "{} routed to {backend}, not a native structure",
            p.request.name
        )
    });
}

/// Does `row`, served at rank `k`, match the reference? Lex orders are
/// total, so the row itself must match; a sum order fixes only the
/// weight at a rank, so the weight must match and the row be an answer.
pub fn check_row(p: &Parsed, oracle: &MaterializedAccess, k: u64, row: &[Value], rec: &mut Rec) {
    rec.oracle_rows += 1;
    let ok = if p.is_sum() {
        oracle.weight_at(k) == Some(row_sum(row) as f64)
            && oracle
                .inverted_access(&row.iter().cloned().collect::<Tuple>())
                .is_some()
    } else {
        oracle.answers().get(k as usize).map(Tuple::values) == Some(row)
    };
    rec.check(ok, || {
        format!(
            "{}: rank {k} served {row:?}, reference differs",
            p.request.name
        )
    });
}

/// Fold a served window into the checksum; check it is in order, and
/// against the reference when there is one (`ranks` are the ranks the
/// rows were asked at, in row order).
pub fn check_window(
    p: &Parsed,
    oracle: Option<&MaterializedAccess>,
    ranks: impl Iterator<Item = u64>,
    buf: &WindowBuf,
    consecutive: bool,
    rec: &mut Rec,
) {
    for (i, (row, k)) in buf.rows().zip(ranks).enumerate() {
        rec.row(row);
        if consecutive && i > 0 && !p.in_order(buf.row(i - 1), row) {
            rec.fail(|| format!("{}: rows at rank {k} out of order", p.request.name));
        }
        if let Some(m) = oracle {
            check_row(p, m, k, row, rec);
        }
    }
}

/// `Engine::prepare` on a request the cache does not hold, under a
/// `core.engine.prepare_miss` span. When tracing, the classification
/// and the structure build it ran inside are timed again on their own
/// and attached as its children, so the span's self time is the
/// engine's routing. A catalogue request that cannot be prepared is a
/// broken benchmark: the command stops.
pub fn prepare_miss(engine: &Engine, p: &Parsed, rec: &mut Rec) -> Arc<AccessPlan> {
    let t = rec.begin(rec.s.prepare_miss);
    let plan = engine.prepare(&p.q, p.order(), &p.fds, Policy::Reject);
    let (_, slot) = rec.tr.end_units(t, 1);
    replay_build(p, &engine.snapshot(), slot, rec);
    plan.unwrap_or_else(|e| panic!("{} cannot be prepared: {e}", p.request.name))
}

/// The children of a prepare that built a native structure: classify,
/// then `build_on` straight on the snapshot.
pub fn replay_build(p: &Parsed, snap: &Arc<Snapshot>, parent: u32, rec: &mut Rec) {
    if !rec.tr.enabled() {
        return;
    }
    let (problem, lex) = match p.request.order {
        Order::Lex(names) => {
            let lex = p.q.vars(names);
            (Problem::DirectAccessLex(lex.clone()), Some(lex))
        }
        Order::Sum => (Problem::DirectAccessSum, None),
    };
    let start = Instant::now();
    let verdict = classify(&p.q, &p.fds, &problem);
    rec.tr.replay(
        parent,
        rec.s.q_classify,
        1,
        start.elapsed().as_nanos() as u64,
    );
    if !verdict.is_tractable() {
        return; // a selection-backed plan: nothing is built
    }
    let start = Instant::now();
    let (name, built) = match &lex {
        Some(lex) => (
            rec.s.lexda_build,
            LexDirectAccess::build_on(&p.q, snap, lex, &p.fds).map(drop),
        ),
        None => (
            rec.s.sumda_build,
            SumDirectAccess::build_on(&p.q, snap, &Weights::identity(), &p.fds).map(drop),
        ),
    };
    let ns = start.elapsed().as_nanos() as u64;
    rec.tr.replay(parent, name, 1, ns);
    rec.check(built.is_ok(), || {
        format!("{}: direct build_on failed", p.request.name)
    });
}
