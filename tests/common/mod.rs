//! The kit the integration suites share: one random instance
//! generator, one catalog of engine scenarios over every `Backend`, the
//! path fixtures, and one full-surface check of a ranked answer
//! sequence against its oracle. A suite takes it with `mod common;`.

use ranked_access::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A unique scratch directory, removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> TempDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let name = format!("rda-test-{}-{label}-{seq}", std::process::id());
        let p = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    pub fn file(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Fill every relation symbol `q` mentions with `rows` random rows over
/// `0..domain` (a small domain forces join hits). A self-joined symbol
/// gets one relation, at the arity of its first atom.
pub fn random_db(q: &Cq, rows: usize, domain: i64, seed: u64) -> Database {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut db = Database::new();
    for atom in q.atoms() {
        if db.get(&atom.relation).is_some() {
            continue;
        }
        let arity = atom.terms.len();
        let tuples: Vec<Tuple> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| Value::int(rng.random_range(0..domain)))
                    .collect()
            })
            .collect();
        db.add(Relation::from_tuples(&atom.relation, arity, tuples));
    }
    db
}

/// A 2-path instance with a few hundred answers.
pub fn two_path_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..60).map(|i| vec![i, i % 7]).collect::<Vec<_>>())
        .with_i64_rows("S", 2, (0..60).map(|j| vec![j % 7, j]).collect::<Vec<_>>())
}

/// A 3-path instance (fmh = 3: the materialize fallback territory) with a
/// few thousand answers.
pub fn three_path_db() -> Database {
    Database::new()
        .with_i64_rows("R", 2, (0..40).map(|i| vec![i, i % 4]).collect::<Vec<_>>())
        .with_i64_rows(
            "S",
            2,
            (0..20).map(|j| vec![j % 4, j % 5]).collect::<Vec<_>>(),
        )
        .with_i64_rows("T", 2, (0..40).map(|k| vec![k % 5, k]).collect::<Vec<_>>())
}

/// Weights that encode an answer positionally — the i-th distinct
/// variable of `vars` weighs `value · 100^(n-1-i)` — so distinct
/// answers over values in `0..100` have distinct weights and a sum
/// order is total.
pub fn positional_weights(vars: &[VarId]) -> Weights {
    let mut distinct: Vec<VarId> = Vec::new();
    for &v in vars {
        if !distinct.contains(&v) {
            distinct.push(v);
        }
    }
    let mut w = Weights::zero();
    for (i, &var) in distinct.iter().enumerate() {
        let scale = 100f64.powi((distinct.len() - 1 - i) as i32);
        for val in 0..100 {
            w.set(var, val, val as f64 * scale);
        }
    }
    w
}

/// How a catalog scenario orders its answers: by a lexicographic order,
/// or by the sum of the head's [`positional_weights`].
#[derive(Debug, Clone, Copy)]
pub enum Order {
    Lex(&'static [&'static str]),
    Sum,
}

/// One request to the engine and where it must route: a backend, or
/// `None` for a typed refusal.
#[derive(Debug, Clone, Copy)]
pub struct Scenario {
    pub src: &'static str,
    pub order: Order,
    /// FDs as `(relation, lhs, rhs)`.
    pub fds: &'static [(&'static str, &'static str, &'static str)],
    pub policy: Policy,
    pub backend: Option<Backend>,
}

impl Scenario {
    pub fn query(&self) -> Cq {
        parse(self.src).unwrap()
    }

    pub fn fd_set(&self, q: &Cq) -> FdSet {
        FdSet::parse(q, self.fds)
    }

    pub fn spec(&self, q: &Cq) -> OrderSpec {
        match self.order {
            Order::Lex(lex) => OrderSpec::lex(q, lex),
            Order::Sum => OrderSpec::sum(positional_weights(q.free())),
        }
    }

    /// The materialize-and-sort oracle of this scenario over `db`.
    pub fn oracle(&self, q: &Cq, db: &Database) -> MaterializedAccess {
        match self.order {
            Order::Lex(lex) => MaterializedAccess::by_lex(q, db, &q.vars(lex)),
            Order::Sum => {
                let w = positional_weights(q.free());
                MaterializedAccess::by_sum(q, db, |v, val| w.get(v, val).0)
            }
        }
    }

    /// Prepare on `engine` and check the routing: the expected backend,
    /// or a typed refusal (`None`).
    pub fn prepare(&self, engine: &Engine, q: &Cq) -> Option<Arc<AccessPlan>> {
        let got = engine.prepare(q, self.spec(q), &self.fd_set(q), self.policy);
        match (got, self.backend) {
            (Ok(plan), Some(backend)) => {
                assert_eq!(plan.backend(), backend, "{}", self.src);
                Some(plan)
            }
            (Err(PlanError::Build(BuildError::InvalidOrder(_))), None) => None,
            (got, _) => panic!("{}: unexpected {got:?}", self.src),
        }
    }
}

/// Every `Backend`, plus the shapes that once slipped through: a
/// repeated head variable, a repeated variable inside an atom, and a
/// self-join under an FD (refused typed). Relations: `R`, `S`, `T`
/// binary, `U` unary, `V` ternary.
pub fn backend_catalog() -> Vec<Scenario> {
    let s = |src, order, policy, backend| Scenario {
        src,
        order,
        fds: &[],
        policy,
        backend: Some(backend),
    };
    let path = "Q(x, y, z) :- R(x, y), S(y, z)";
    vec![
        s(
            path,
            Order::Lex(&["x", "y", "z"]),
            Policy::Reject,
            Backend::LexDirectAccess,
        ),
        s(
            path,
            Order::Lex(&["x", "z", "y"]),
            Policy::Reject,
            Backend::SelectionLex,
        ),
        s(
            "Q(x, y) :- R(x, y), S(y, z)",
            Order::Sum,
            Policy::Reject,
            Backend::SumDirectAccess,
        ),
        s(path, Order::Sum, Policy::Reject, Backend::SelectionSum),
        s(
            "Q(x, z) :- R(x, y), S(y, z)",
            Order::Lex(&["x", "z"]),
            Policy::Materialize,
            Backend::Materialized,
        ),
        s(
            "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
            Order::Sum,
            Policy::Materialize,
            Backend::Materialized,
        ),
        s(
            "Q(x, y, z, x) :- U(x), R(y, z)",
            Order::Sum,
            Policy::Reject,
            Backend::SelectionSum,
        ),
        s(
            "Q(y, x, z, w) :- V(y, x, x), U(z), R(w, w)",
            Order::Sum,
            Policy::Materialize,
            Backend::Materialized,
        ),
        Scenario {
            src: "Q(x, y, z) :- R(x, y), R(y, z)",
            order: Order::Lex(&["x", "y", "z"]),
            fds: &[("R", "x", "y")],
            policy: Policy::Reject,
            backend: None,
        },
    ]
}

/// The whole direct-access surface of `a` against the answer array
/// `want`: every rank, inverted access, misses, windows of every shape,
/// batches, pages, the provided methods, streams and — on a native lex
/// structure — `rank_of_lower_bound`. `min_len` is the smallest answer
/// count the caller needs for the windows to mean something.
pub fn conforms(label: &str, a: &RankedAnswers, want: &[Tuple], min_len: u64) {
    let len = a.len();
    assert_eq!(len, want.len() as u64, "{label}: len");
    assert!(len >= min_len, "{label}: {len} answers, {min_len} needed");
    assert_eq!(a.is_empty(), len == 0, "{label}: is_empty");
    let mut row = Vec::new();
    for (k, t) in want.iter().enumerate() {
        assert!(a.access_into(k as u64, &mut row), "{label}: rank {k}");
        assert_eq!(row, t.values(), "{label}: rank {k}");
        assert_eq!(a.inverted_access(t), Some(k as u64), "{label}: rank {k}");
    }
    assert!(!a.access_into(len, &mut row), "{label}: out of bound");
    assert!(row.is_empty(), "{label}: a miss clears the buffer");
    if let Some(arity) = want.first().map(Tuple::arity).filter(|&n| n > 0) {
        let absent: Tuple = (0..arity).map(|_| Value::int(-1)).collect();
        assert_eq!(a.inverted_access(&absent), None, "{label}: not an answer");
    }

    let one = |k: u64| want.get(k as usize).cloned();
    let singles = |r: Range<u64>| -> Vec<Tuple> { r.map_while(one).collect() };
    let mut buf = WindowBuf::new();
    let inverted = Range { start: 7, end: 3 };
    let windows = [
        0..0,
        0..len,
        0..len + 9,
        len..len + 5,
        len.saturating_sub(1)..len + 5,
        3..7,
        len / 3..2 * len / 3,
        inverted,
    ];
    for r in windows {
        let expect = singles(r.clone());
        let n = a.access_range_into(r.clone(), &mut buf);
        assert_eq!(n, expect.len() as u64, "{label}: access_range_into({r:?})");
        assert_eq!(buf.to_tuples(), expect, "{label}: access_range_into({r:?})");
        assert_eq!(a.access_range(r.clone()), expect, "{label}: {r:?}");
    }
    let scattered = (0..40u64).map(|i| i.wrapping_mul(7919) % (len + 3));
    let batches: [Vec<u64>; 3] = [
        vec![],
        (0..len).rev().collect(),
        scattered.chain([u64::MAX, 0, 0]).collect(),
    ];
    for ranks in &batches {
        let expect: Vec<Tuple> = ranks.iter().filter_map(|&k| one(k)).collect();
        let n = a.access_batch_into(ranks, &mut buf);
        assert_eq!(n, expect.len() as u64, "{label}: access_batch_into");
        assert_eq!(buf.to_tuples(), expect, "{label}: access_batch_into");
        assert_eq!(a.access_batch(ranks), expect, "{label}: access_batch");
    }

    for k in [0, len / 2, len.saturating_sub(1), len, u64::MAX] {
        assert_eq!(a.access(k), one(k), "{label}: access({k})");
    }
    assert_eq!(a.top_k(3), singles(0..3), "{label}: top_k");
    assert_eq!(a.top_k(len + 10), want, "{label}: top_k clamps");
    assert_eq!(a.top_k_into(4, &mut buf), len.min(4));
    assert_eq!(buf.to_tuples(), singles(0..4), "{label}: top_k_into");
    assert_eq!(a.page(2, 4), singles(2..6), "{label}: page");
    let tail = len.saturating_sub(2);
    assert_eq!(a.page(tail, u64::MAX), singles(tail..len), "{label}: page");
    assert_eq!(a.page_into(3, 4, &mut buf), singles(3..7).len() as u64);
    assert_eq!(buf.to_tuples(), singles(3..7), "{label}: page_into");
    assert_eq!(a.iter().collect::<Vec<_>>(), want, "{label}: iter");

    assert_eq!(a.stream().collect::<Vec<_>>(), want, "{label}: stream");
    let half = len / 2;
    let resumed: Vec<Tuple> = a.stream_from(half).collect();
    assert_eq!(resumed, singles(half..len), "{label}: stream_from");
    let mut s = a.stream();
    s.next();
    s.next();
    assert_eq!(s.position(), len.min(2), "{label}: stream position");

    if let RankedAnswers::Lex(da) = a {
        for (k, t) in want.iter().enumerate() {
            let lower = da.rank_of_lower_bound(t);
            assert_eq!(lower, Some(k as u64), "{label}: lower bound of {t}");
        }
        // Off the answers, probes are counted by hand when the order is
        // the head's own tuple order.
        if want.windows(2).all(|w| w[0] < w[1]) {
            let bumped = |t: &Tuple, d: i64| -> Tuple {
                let mut v = t.values().to_vec();
                if let Some(x) = v.last_mut() {
                    *x = Value::int(x.as_int().unwrap_or(0) + d);
                }
                Tuple::new(v)
            };
            for probe in want.iter().flat_map(|t| [bumped(t, -1), bumped(t, 1)]) {
                let expect = want.partition_point(|t| *t < probe) as u64;
                let lower = da.rank_of_lower_bound(&probe);
                assert_eq!(lower, Some(expect), "{label}: lower bound of {probe}");
            }
        }
    }
}
