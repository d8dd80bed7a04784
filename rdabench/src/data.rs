//! Data tiers, the seeded generators, and the catalogue of ranked
//! requests the workloads draw from.

use crate::rng::SplitMix64;
use rda_core::OrderSpec;
use rda_db::{Database, Relation, Tuple, Value};
use rda_query::{Cq, FdSet};

/// How much data a workload runs on. `n` tuples go into each of `R`,
/// `S`, `T` and `U`; the join column of `R ⋈ S` ranges over
/// `join_domain` values, so the 2-path has about `n² / join_domain`
/// answers.
#[derive(Debug, Clone, Copy)]
pub struct Tier {
    pub name: &'static str,
    pub n: usize,
    pub join_domain: u64,
}

/// ≈ 800 k join answers: what the served workloads page through. The
/// plans together still sit in the 4 MiB L2 (see [`TINY`] for why that
/// matters), and a rebuild after a dirtying write takes about 5 ms, so
/// a `served_churn` block is short enough for thirty of them in a run.
pub const SMALL: Tier = Tier {
    name: "small",
    n: 8_000,
    join_domain: 80,
};
/// ≈ 270 k join answers: what `direct_access` and `cold_query` run on.
/// Small on purpose, twice over. What leaves the core's own cache is
/// timed by the neighbours on a shared host: `direct_access` on 400 k
/// tuples per relation (380 MiB) read 0.65–1.02 M ops/s in back-to-back
/// runs of one seed and 477–821 k ops/s from round to round inside one
/// run, on 16 k its point access still moved 16 % between runs, here it
/// moves 1.5 %. And a build that takes milliseconds comes a hundred
/// times in a run, so some fall into the host's quiet moments: at 32 k
/// tuples a build outlasts them, and no statistic of thirty samples
/// repeated (inter-quartile spread 17–39 % over ten runs).
pub const TINY: Tier = Tier {
    name: "tiny",
    n: 4_000,
    join_domain: 60,
};
/// The 2k-tuple twin (4 × 500) the correctness gate materializes in full.
pub const TWIN: Tier = Tier {
    name: "twin",
    n: 500,
    join_domain: 25,
};
/// `--smoke` runs every workload on this.
pub const SMOKE: Tier = Tier {
    name: "smoke",
    n: 2_000,
    join_domain: 40,
};

fn row(a: u64, b: u64) -> Tuple {
    [Value::int(a as i64), Value::int(b as i64)]
        .into_iter()
        .collect()
}

fn uniform_rows(rng: &mut SplitMix64, n: usize, dom_a: u64, dom_b: u64) -> Vec<Tuple> {
    (0..n)
        .map(|_| row(rng.below(dom_a), rng.below(dom_b)))
        .collect()
}

/// The one schema every workload uses, uniform integers from the seed:
///
/// * `R(x, y)`, `S(y, z)` — the join inputs (`y` over the join domain);
/// * `F(y, z)` — one row per join value, so `F: y → z` holds;
/// * `U(a, b)` — a relation only the scan requests read;
/// * `T(p, q)` — a relation no request reads (writes that must not
///   disturb any plan go here).
pub fn database(tier: Tier, seed: u64) -> Database {
    let n = tier.n as u64;
    let d = tier.join_domain;
    let mut rng = SplitMix64::stream(seed, 0xDA7A);
    let r = uniform_rows(&mut rng, tier.n, n, d);
    let s = uniform_rows(&mut rng, tier.n, d, n);
    let f = (0..d).map(|y| row(y, rng.below(n))).collect();
    let u = uniform_rows(&mut rng, tier.n, n, n);
    let t = uniform_rows(&mut rng, tier.n, n, n);
    Database::new()
        .with(Relation::from_tuples("R", 2, r))
        .with(Relation::from_tuples("S", 2, s))
        .with(Relation::from_tuples("F", 2, f))
        .with(Relation::from_tuples("U", 2, u))
        .with(Relation::from_tuples("T", 2, t))
}

/// The row the `i`-th write of a run inserts; deterministic in
/// `(seed, i)` so a later batch can delete exactly what an earlier one
/// inserted. Values sit above every generated value of the relation's
/// first column, so an inserted row never collides with a seeded one.
pub fn write_row(tier: Tier, seed: u64, relation: &str, i: u64) -> Tuple {
    let mut rng = SplitMix64::stream(seed ^ i.wrapping_mul(0xA24B_AED4_963E_E407), 0x3717E);
    let n = tier.n as u64;
    match relation {
        // S(y, z): keep y inside the join domain so the join changes.
        "S" => row(rng.below(tier.join_domain), n + rng.below(n)),
        _ => row(n + rng.below(n), rng.below(n)),
    }
}

#[derive(Debug, Clone, Copy)]
pub enum Order {
    /// A full lexicographic order over the head, by variable name.
    Lex(&'static [&'static str]),
    /// Ascending sum of the head's integer values.
    Sum,
}

/// One ranked request: query text, order, and the unary FD it needs.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub name: &'static str,
    pub query: &'static str,
    pub order: Order,
    pub fd: Option<(&'static str, &'static str, &'static str)>,
}

const TWO_PATH: &str = "Q(x, y, z) :- R(x, y), S(y, z)";
const PRODUCT: &str = "Q(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)";
const COVERING: &str = "Q(a, b) :- R(a, b), S(b, c)";
const FD_PATH: &str = "Q(x, z) :- R(x, y), F(y, z)";
const FULL_FD_PATH: &str = "Q(x, y, z) :- R(x, y), F(y, z)";
const SCAN: &str = "Q(a, b) :- U(a, b)";

const fn lex(name: &'static str, query: &'static str, order: &'static [&'static str]) -> Request {
    Request {
        name,
        query,
        order: Order::Lex(order),
        fd: None,
    }
}

pub const PATH_XYZ: Request = lex("path_xyz", TWO_PATH, &["x", "y", "z"]);
pub const PATH_ZYX: Request = lex("path_zyx", TWO_PATH, &["z", "y", "x"]);
pub const PATH_YXZ: Request = lex("path_yxz", TWO_PATH, &["y", "x", "z"]);
pub const PATH_YZX: Request = lex("path_yzx", TWO_PATH, &["y", "z", "x"]);
pub const PRODUCT_LEX: Request = lex("product_lex", PRODUCT, &["v1", "v2", "v3", "v4"]);
pub const PRODUCT_ALT: Request = lex("product_alt", PRODUCT, &["v2", "v1", "v4", "v3"]);
pub const COVER_LEX: Request = lex("cover_lex", COVERING, &["a", "b"]);
pub const SCAN_AB: Request = lex("scan_ab", SCAN, &["a", "b"]);
pub const SCAN_BA: Request = lex("scan_ba", SCAN, &["b", "a"]);
/// Lexicographic only because `F: y → z` (Example 8.3's shape).
pub const FD_LEX: Request = Request {
    name: "fd_lex",
    query: FD_PATH,
    order: Order::Lex(&["x", "z"]),
    fd: Some(("F", "y", "z")),
};
pub const COVER_SUM: Request = Request {
    name: "cover_sum",
    query: COVERING,
    order: Order::Sum,
    fd: None,
};
pub const SCAN_SUM: Request = Request {
    name: "scan_sum",
    query: SCAN,
    order: Order::Sum,
    fd: None,
};
/// `⟨x, z, y⟩` has the disruptive trio (x, z, y): no direct access, but
/// selection is tractable.
pub const SELECT_LEX: Request = lex("select_lex", TWO_PATH, &["x", "z", "y"]);
/// SUM over a full 2-path: no direct access (no covering atom), but
/// selection is tractable. The path is `R ⋈ F`, with as many answers as
/// `R` has rows: integer sums tie, a tie makes the selection handle
/// materialize every answer, and over `R ⋈ S` that alone takes seconds.
pub const SELECT_SUM: Request = Request {
    name: "select_sum",
    query: FULL_FD_PATH,
    order: Order::Sum,
    fd: None,
};
/// The answers of [`SELECT_SUM`] under an order that has direct access
/// (a selection handle's own `len()` costs seconds; this plan's is free).
pub const FULL_FD_PATH_XYZ: Request = lex("full_fd_path_xyz", FULL_FD_PATH, &["x", "y", "z"]);

/// A request resolved against the parser: what `Engine::prepare` takes.
pub struct Parsed {
    pub request: Request,
    pub q: Cq,
    pub fds: FdSet,
    /// Head positions in order-significance order (lex requests).
    pub positions: Vec<usize>,
}

impl Parsed {
    /// `q` is `request.query`, parsed (the caller times the parse).
    pub fn new(request: Request, q: Cq) -> Parsed {
        let fds = match request.fd {
            Some(fd) => FdSet::parse(&q, &[fd]),
            None => FdSet::empty(),
        };
        let positions = match request.order {
            Order::Lex(names) => names
                .iter()
                .map(|name| {
                    q.free()
                        .iter()
                        .position(|v| q.var_name(*v) == *name)
                        .expect("order variables are head variables")
                })
                .collect(),
            Order::Sum => Vec::new(),
        };
        Parsed {
            request,
            q,
            fds,
            positions,
        }
    }

    pub fn order(&self) -> OrderSpec {
        match self.request.order {
            Order::Lex(names) => OrderSpec::lex(&self.q, names),
            Order::Sum => OrderSpec::sum_by_value(),
        }
    }

    pub fn is_sum(&self) -> bool {
        matches!(self.request.order, Order::Sum)
    }

    /// The key two consecutive rows of this request's order compare by:
    /// the permuted row for lex, the value sum for sum orders.
    pub fn in_order(&self, a: &[Value], b: &[Value]) -> bool {
        if self.is_sum() {
            row_sum(a) <= row_sum(b)
        } else {
            self.positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| o.is_ne())
                == Some(std::cmp::Ordering::Less)
        }
    }
}

/// The identity-weight sum of a row (every generated value is an int).
pub fn row_sum(row: &[Value]) -> i64 {
    row.iter().filter_map(Value::as_int).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_names_one_database() {
        assert_eq!(database(TWIN, 7), database(TWIN, 7));
        assert_ne!(database(TWIN, 7), database(TWIN, 8));
        let db = database(TWIN, 1);
        assert_eq!(db.size(), 4 * TWIN.n + TWIN.join_domain as usize);
        // F is a function of its first column.
        let f = db.get("F").unwrap();
        let mut ys: Vec<_> = f.tuples().iter().map(|t| t.values()[0].clone()).collect();
        ys.dedup();
        assert_eq!(ys.len(), f.len());
    }

    #[test]
    fn written_rows_repeat_and_avoid_seeded_rows() {
        assert_eq!(write_row(TWIN, 1, "T", 5), write_row(TWIN, 1, "T", 5));
        assert_ne!(write_row(TWIN, 1, "T", 5), write_row(TWIN, 1, "T", 6));
        let t = write_row(TWIN, 1, "T", 5);
        assert!(t.values()[0].as_int().unwrap() >= TWIN.n as i64);
        let s = write_row(TWIN, 1, "S", 5);
        assert!(s.values()[0].as_int().unwrap() < TWIN.join_domain as i64);
        assert!(s.values()[1].as_int().unwrap() >= TWIN.n as i64);
    }

    #[test]
    fn order_keys_follow_the_request() {
        let parsed = |r: Request| Parsed::new(r, rda_query::parser::parse(r.query).unwrap());
        let p = parsed(PATH_ZYX);
        assert_eq!(p.positions, [2, 1, 0]);
        let (a, b) = (
            [Value::int(9), Value::int(1), Value::int(1)],
            [Value::int(0), Value::int(0), Value::int(2)],
        );
        assert!(p.in_order(&a, &b) && !p.in_order(&b, &a) && !p.in_order(&a, &a));
        let s = parsed(COVER_SUM);
        assert!(s.in_order(&a[..2], &a[..2]), "sum ties are in order");
        assert_eq!(row_sum(&a), 11);
    }
}
