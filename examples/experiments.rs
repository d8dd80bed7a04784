//! The paper-figure reproductions: each id prints one of the source
//! paper's figures or theorems (Carmeli et al., PODS 2021) as measured
//! on synthetic data — the paper has no datasets, its claims quantify
//! over all databases. These are demonstrations of the exponents, one
//! sample per cell; `rdabench/` is the benchmark that backs performance
//! claims.
//!
//! Run with: `cargo run --release --example experiments [id…]` where
//! ids are `fig1 fig2 fig45 t33 t41 fig8 t61 t73 t8x t25 scale`. With
//! no arguments every experiment runs; an unknown id is an error.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_baseline::RankedEnumerator;
use std::time::{Duration, Instant};

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn int_rows(rng: &mut StdRng, rows: usize, domains: &[i64]) -> Vec<Tuple> {
    (0..rows)
        .map(|_| {
            domains
                .iter()
                .map(|&d| Value::int(rng.random_range(0..d)))
                .collect()
        })
        .collect()
}

/// The 2-path join `Q(x, y, z) :- R(x, y), S(y, z)` with `n` tuples per
/// relation and `join_domain` distinct join values: expected output
/// size ≈ n²/join_domain.
fn two_path(n: usize, join_domain: i64, seed: u64) -> (Cq, Database) {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let mut r = StdRng::seed_from_u64(seed);
    let x_dom = (n as i64).max(1);
    let db = Database::new()
        .with(Relation::from_tuples(
            "R",
            2,
            int_rows(&mut r, n, &[x_dom, join_domain]),
        ))
        .with(Relation::from_tuples(
            "S",
            2,
            int_rows(&mut r, n, &[join_domain, x_dom]),
        ));
    (q, db)
}

/// Star query with one covering atom: `Q(a, b) :- R(a, b), S(b, c)` —
/// SUM direct access's tractable shape (free vars inside R).
fn covering_query(n: usize, join_domain: i64, seed: u64) -> (Cq, Database) {
    let q = parse("Q(a, b) :- R(a, b), S(b, c)").unwrap();
    let mut r = StdRng::seed_from_u64(seed);
    let dom = (n as i64).max(1);
    let db = Database::new()
        .with(Relation::from_tuples(
            "R",
            2,
            int_rows(&mut r, n, &[dom, join_domain]),
        ))
        .with(Relation::from_tuples(
            "S",
            2,
            int_rows(&mut r, n, &[join_domain, dom]),
        ));
    (q, db)
}

/// Example 5.3's construction: `R = [1,n] × {0}`, `S = {0} × [1,n]` for
/// `Q(x, y) :- R(x, u), S(u, y)` — the full product appears in the
/// output, so any SUM strategy must handle all n² weight combinations.
fn three_sum_encoding(n: usize) -> (Cq, Database) {
    let q = parse("Q(x, y) :- R(x, u), S(u, y)").unwrap();
    let r: Vec<Tuple> = (1..=n as i64)
        .map(|i| [Value::int(i), Value::int(0)].into_iter().collect())
        .collect();
    let s: Vec<Tuple> = (1..=n as i64)
        .map(|i| [Value::int(0), Value::int(i)].into_iter().collect())
        .collect();
    let db = Database::new()
        .with(Relation::from_tuples("R", 2, r))
        .with(Relation::from_tuples("S", 2, s));
    (q, db)
}

/// Example 8.3's FD workload: `Q(x, z) :- R(x, y), S(y, z)` with
/// `S: y → z` satisfied by construction. Returns the FD set too.
fn fd_two_path(n: usize, y_domain: i64, seed: u64) -> (Cq, Database, FdSet) {
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "y", "z")]);
    let mut r = StdRng::seed_from_u64(seed);
    let dom = (n as i64).max(1);
    let s: Vec<Tuple> = (0..y_domain)
        .map(|y| {
            [Value::int(y), Value::int((y * 31 + 7) % dom)]
                .into_iter()
                .collect()
        })
        .collect();
    let rrows: Vec<Tuple> = int_rows(&mut r, n, &[dom, y_domain]);
    let db = Database::new()
        .with(Relation::from_tuples("R", 2, rrows))
        .with(Relation::from_tuples("S", 2, s));
    (q, db, fds)
}

/// E1 — Figure 1: the classification overview, regenerated.
fn fig1() {
    println!("== E1 / Figure 1: classification overview ==");
    println!(
        "{:<58} {:>12} {:>12} {:>12} {:>12}",
        "query & order", "DA-LEX", "SEL-LEX", "DA-SUM", "SEL-SUM"
    );
    let rows: Vec<(&str, &str, Vec<&str>)> = vec![
        (
            "free vars in one atom",
            "Q(x, y) :- R(x, y), S(y, z)",
            vec!["x", "y"],
        ),
        (
            "free-connex, no trio",
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec!["x", "y", "z"],
        ),
        (
            "disruptive trio",
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec!["x", "z", "y"],
        ),
        (
            "fmh = 2, partial not L-connex",
            "Q(x, y, z) :- R(x, y), S(y, z)",
            vec!["x", "z"],
        ),
        (
            "not free-connex",
            "Q(x, z) :- R(x, y), S(y, z)",
            vec!["x", "z"],
        ),
        (
            "acyclic, fmh = 3",
            "Q(x, y, z, u) :- R(x, y), S(y, z), T(z, u)",
            vec!["x", "y", "z", "u"],
        ),
        (
            "cyclic",
            "Q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
            vec!["x", "y", "z"],
        ),
    ];
    for (label, src, lex) in rows {
        let q = parse(src).unwrap();
        let l = q.vars(&lex);
        let cell = |p: Problem| -> &'static str {
            match classify(&q, &FdSet::empty(), &p) {
                Verdict::Tractable { .. } => "tractable",
                Verdict::Intractable { .. } => "hard",
                Verdict::OpenSelfJoin { .. } => "open",
            }
        };
        println!(
            "{:<58} {:>12} {:>12} {:>12} {:>12}",
            format!("{label}: {src} by {lex:?}"),
            cell(Problem::DirectAccessLex(l.clone())),
            cell(Problem::SelectionLex(l.clone())),
            cell(Problem::DirectAccessSum),
            cell(Problem::SelectionSum),
        );
    }
    println!();
}

/// E2 — Figure 2: the example database's orderings.
fn fig2() {
    println!("== E2 / Figure 2: orderings of the 2-path answers ==");
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 5], vec![1, 2], vec![6, 2]])
        .with_i64_rows("S", 2, vec![vec![5, 3], vec![5, 4], vec![5, 6], vec![2, 5]]);
    let snap = db.freeze();
    let da =
        LexDirectAccess::build_on(&q, &snap, &q.vars(&["x", "y", "z"]), &FdSet::empty()).unwrap();
    println!("(b) LEX <x,y,z> via direct access:");
    for (k, t) in da.iter().enumerate() {
        println!("   #{} {}", k + 1, t);
    }
    println!("(c) LEX <x,z,y> via selection (direct access is intractable):");
    let sel =
        SelectionLexHandle::new(&q, &snap, q.vars(&["x", "z", "y"]), &FdSet::empty()).unwrap();
    for k in 0..da.len() {
        let t = sel.select_once(k).unwrap();
        println!("   #{} {}", k + 1, t);
    }
    println!("(d) SUM via selection (direct access is 3SUM-hard):");
    let sel = SelectionSumHandle::new(&q, &snap, Weights::identity(), &FdSet::empty()).unwrap();
    for k in 0..da.len() {
        let (w, t) = sel.select_once(k).unwrap();
        println!("   #{} {}  (weight {})", k + 1, t, w.0);
    }
    println!();
}

/// E3 — Figures 3–5: the layered structure on Example 3.6's database.
fn fig45() {
    println!("== E3 / Figures 3-5: Example 3.6/3.7 ==");
    let q = parse("Q3(v1, v2, v3, v4) :- R(v1, v3), S(v2, v4)").unwrap();
    let s = |v: &str| Value::str(v);
    let db = Database::new()
        .with(Relation::from_tuples(
            "R",
            2,
            vec![
                [s("a1"), s("c1")].into_iter().collect(),
                [s("a1"), s("c2")].into_iter().collect(),
                [s("a2"), s("c2")].into_iter().collect(),
                [s("a2"), s("c3")].into_iter().collect(),
            ],
        ))
        .with(Relation::from_tuples(
            "S",
            2,
            vec![
                [s("b1"), s("d1")].into_iter().collect(),
                [s("b1"), s("d2")].into_iter().collect(),
                [s("b1"), s("d3")].into_iter().collect(),
                [s("b2"), s("d4")].into_iter().collect(),
            ],
        ));
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["v1", "v2", "v3", "v4"]), &FdSet::empty())
        .unwrap();
    println!("total answers (root weight): {}", da.len());
    println!(
        "access(12) = {} (paper: (a2, b1, c3, d2))",
        da.access(12).unwrap()
    );
    let t = da.access(12).unwrap();
    println!("inverted_access(access(12)) = {:?}", da.inverted_access(&t));
    println!();
}

/// E5/E6 — Theorem 3.3: LEX direct access scaling vs materialization.
fn t33() {
    println!("== E5/E6 / Theorem 3.3: LEX direct access, <n log n, log n> vs materialize ==");
    println!(
        "{:>9} {:>12} {:>14} {:>14} {:>16} {:>14}",
        "n", "|Q(I)|", "build (ms)", "access (us)", "materialize(ms)", "build/nlogn"
    );
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000, 32_000] {
        let (q, db) = two_path(n, 50, 42);
        let lex = q.vars(&["x", "y", "z"]);
        let (da, build) = timed(|| LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap());
        // 1000 random accesses.
        let ks: Vec<u64> = (0..1000).map(|i| (i * 7919) % da.len().max(1)).collect();
        let (_, acc) = timed(|| {
            let mut sink = 0usize;
            for &k in &ks {
                sink ^= da.access(k).map(|t| t.arity()).unwrap_or(0);
            }
            std::hint::black_box(sink)
        });
        let (m, mat) = timed(|| MaterializedAccess::by_lex(&q, &db, &lex));
        let nl = (2.0 * n as f64) * (2.0 * n as f64).log2();
        println!(
            "{:>9} {:>12} {:>14.2} {:>14.3} {:>16.2} {:>14.5}",
            2 * n,
            da.len(),
            ms(build),
            us(acc) / ks.len() as f64,
            ms(mat),
            ms(build) / nl * 1e3,
        );
        assert_eq!(m.len(), da.len());
    }
    println!("(build/nlogn in ns per n·log2 n unit — flat ⇒ quasilinear preprocessing;");
    println!(" access column flat-ish ⇒ polylog access; materialize grows with |Q(I)| ≈ n²/50)\n");
}

/// E7 — Theorem 4.1: partial orders.
fn t41() {
    println!("== E7 / Theorem 4.1: partial lexicographic orders ==");
    let (q, db) = two_path(8_000, 50, 7);
    for lex in [vec!["z", "y"], vec!["y"], vec!["y", "x", "z"]] {
        let l = q.vars(&lex);
        let (da, build) = timed(|| LexDirectAccess::build(&q, &db, &l, &FdSet::empty()).unwrap());
        let (_, acc) = timed(|| da.access(da.len() / 2));
        println!(
            "  L = {:<18} internal completion {:?}, build {:.2} ms, one access {:.1} us",
            format!("{lex:?}"),
            q.names_of(da.internal_order()),
            ms(build),
            us(acc)
        );
    }
    for lex in [vec!["x", "z"], vec!["x", "z", "y"]] {
        let l = q.vars(&lex);
        let err = LexDirectAccess::build(&q, &db, &l, &FdSet::empty()).unwrap_err();
        println!("  L = {:<18} rejected: {err}", format!("{lex:?}"));
    }
    println!();
}

/// E8 — Figure 8 / Theorem 5.1: SUM direct access.
fn fig8() {
    println!("== E8 / Figure 8 / Theorem 5.1: SUM direct access ==");
    println!("αfree = 1 (tractable, <n log n, 1>):");
    println!(
        "{:>9} {:>12} {:>14} {:>14}",
        "n", "|Q(I)|", "build (ms)", "access (ns)"
    );
    for n in [2_000usize, 8_000, 32_000] {
        let (q, db) = covering_query(n, 50, 5);
        let (da, build) = timed(|| {
            SumDirectAccess::build(&q, &db, &Weights::identity(), &FdSet::empty()).unwrap()
        });
        let ks: Vec<u64> = (0..10_000).map(|i| (i * 31) % da.len().max(1)).collect();
        let (_, acc) = timed(|| {
            let mut sink = 0usize;
            for &k in &ks {
                sink ^= da.access(k).map(|t| t.arity()).unwrap_or(0);
            }
            std::hint::black_box(sink)
        });
        println!(
            "{:>9} {:>12} {:>14.2} {:>14.1}",
            2 * n,
            da.len(),
            ms(build),
            us(acc) / ks.len() as f64 * 1e3
        );
    }
    println!("αfree = 2 (3SUM-hard): the only strategy materializes all n² sums:");
    println!("{:>9} {:>12} {:>16}", "n", "|Q(I)|", "materialize (ms)");
    for n in [200usize, 400, 800, 1_600] {
        let (q, db) = three_sum_encoding(n);
        let (m, mat) = timed(|| {
            MaterializedAccess::by_sum(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64))
        });
        println!("{:>9} {:>12} {:>16.2}", 2 * n, m.len(), ms(mat));
    }
    println!("(quadrupling when n doubles ⇒ Θ(n²), as the lower bound predicts)\n");
}

/// E9 — Theorem 6.1: LEX selection in O(n) for DA-hard orders.
fn t61() {
    println!("== E9 / Theorem 6.1: LEX selection on a trio order ==");
    println!(
        "{:>9} {:>12} {:>16} {:>18}",
        "n", "|Q(I)|", "selection (ms)", "materialize (ms)"
    );
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000] {
        let (q, db) = two_path(n, 50, 11);
        let lex = q.vars(&["x", "z", "y"]); // disruptive trio
        let (m, mat) = timed(|| MaterializedAccess::by_lex(&q, &db, &lex));
        let k = m.len() / 2;
        let handle = SelectionLexHandle::new(&q, &db.freeze(), lex, &FdSet::empty()).unwrap();
        let (got, sel) = timed(|| handle.select_once(k));
        assert!(got.is_some());
        println!(
            "{:>9} {:>12} {:>16.2} {:>18.2}",
            2 * n,
            m.len(),
            ms(sel),
            ms(mat)
        );
    }
    println!("(selection grows ~linearly in n; materialization grows with |Q(I)| ≈ n²/50)\n");
}

/// E10 — Theorem 7.3: SUM selection, fmh ≤ 2 vs materialization.
fn t73() {
    println!("== E10 / Theorem 7.3: SUM selection (fmh = 2) ==");
    println!(
        "{:>9} {:>12} {:>16} {:>18}",
        "n", "|Q(I)|", "selection (ms)", "materialize (ms)"
    );
    for n in [1_000usize, 2_000, 4_000, 8_000, 16_000] {
        let (q, db) = two_path(n, 50, 13);
        let (m, mat) = timed(|| {
            MaterializedAccess::by_sum(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64))
        });
        let k = m.len() / 2;
        let handle =
            SelectionSumHandle::new(&q, &db.freeze(), Weights::identity(), &FdSet::empty())
                .unwrap();
        let ((), sel) = timed(|| {
            let got = handle.select_once(k).unwrap();
            assert_eq!(got.0 .0, m.weight_at(k).unwrap());
        });
        println!(
            "{:>9} {:>12} {:>16.2} {:>18.2}",
            2 * n,
            m.len(),
            ms(sel),
            ms(mat)
        );
    }
    println!("(selection ~n log n; materialization follows the quadratic output)\n");
}

/// E11 — Section 8: FDs move queries across the frontier, measurably.
fn t8x() {
    println!("== E11 / Theorems 8.21/8.9: FD-extension in action ==");
    println!(
        "{:>9} {:>12} {:>14} {:>14} {:>18}",
        "n", "|Q(I)|", "build (ms)", "access (us)", "materialize (ms)"
    );
    for n in [2_000usize, 8_000, 32_000] {
        let (q, db, fds) = fd_two_path(n, 50, 17);
        let lex = q.vars(&["x", "z"]);
        let (da, build) = timed(|| LexDirectAccess::build(&q, &db, &lex, &fds).unwrap());
        let ks: Vec<u64> = (0..1000).map(|i| (i * 101) % da.len().max(1)).collect();
        let (_, acc) = timed(|| {
            let mut sink = 0usize;
            for &k in &ks {
                sink ^= da.access(k).map(|t| t.arity()).unwrap_or(0);
            }
            std::hint::black_box(sink)
        });
        let (m, mat) = timed(|| MaterializedAccess::by_lex(&q, &db, &lex));
        assert_eq!(m.len(), da.len());
        println!(
            "{:>9} {:>12} {:>14.2} {:>14.3} {:>18.2}",
            db.size(),
            da.len(),
            ms(build),
            us(acc) / ks.len() as f64,
            ms(mat)
        );
    }
    println!("(without the FD this query is not even free-connex — no structure exists)\n");
}

/// E13 — Section 2.5: ranked enumeration vs direct access for the k-th
/// answer by SUM-equivalent lexicographic order.
fn t25() {
    println!("== E13 / Section 2.5: ranked enumeration to k vs direct access at k ==");
    let (q, db) = two_path(4_000, 50, 19);
    let lex = q.vars(&["x", "y", "z"]);
    let (da, build) = timed(|| LexDirectAccess::build(&q, &db, &lex, &FdSet::empty()).unwrap());
    println!(
        "direct access build: {:.2} ms, |Q(I)| = {}",
        ms(build),
        da.len()
    );
    println!(
        "{:>10} {:>22} {:>22}",
        "k", "enumerate-to-k (ms)", "direct access (us)"
    );
    for exp in [10u32, 12, 14, 16, 18] {
        let k = (1u64 << exp).min(da.len().saturating_sub(1));
        let (_, enum_t) = timed(|| {
            let e = RankedEnumerator::new(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64));
            e.take(k as usize + 1).len()
        });
        let (_, acc) = timed(|| da.access(k));
        println!("{:>10} {:>22.2} {:>22.2}", k, ms(enum_t), us(acc));
    }
    println!("(enumeration cost grows with k; direct access stays flat)\n");
}

/// Scaling summary across all four structures: four doublings of n.
fn scale() {
    println!("== scaling summary: doubling n ==");
    println!(
        "{:>9} {:>14} {:>16} {:>16} {:>16}",
        "n", "lexDA build", "lex sel (trio)", "sum sel", "sumDA build"
    );
    for n in [4_000usize, 8_000, 16_000, 32_000] {
        let (q, db) = two_path(n, 50, 23);
        let lex = q.vars(&["x", "y", "z"]);
        let snap = db.freeze();
        let (da, b1) =
            timed(|| LexDirectAccess::build_on(&q, &snap, &lex, &FdSet::empty()).unwrap());
        let trio = q.vars(&["x", "z", "y"]);
        let k = da.len() / 2;
        let lex_handle = SelectionLexHandle::new(&q, &snap, trio, &FdSet::empty()).unwrap();
        let (_, s1) = timed(|| lex_handle.select_once(k));
        let sum_handle =
            SelectionSumHandle::new(&q, &snap, Weights::identity(), &FdSet::empty()).unwrap();
        let (_, s2) = timed(|| sum_handle.select_once(k));
        let (qc, dbc) = covering_query(n, 50, 23);
        let (_, b2) = timed(|| {
            SumDirectAccess::build(&qc, &dbc, &Weights::identity(), &FdSet::empty()).unwrap()
        });
        println!(
            "{:>9} {:>13.2}ms {:>15.2}ms {:>15.2}ms {:>15.2}ms",
            2 * n,
            ms(b1),
            ms(s1),
            ms(s2),
            ms(b2)
        );
    }
    println!();
}

const IDS: [(&str, fn()); 11] = [
    ("fig1", fig1),
    ("fig2", fig2),
    ("fig45", fig45),
    ("t33", t33),
    ("t41", t41),
    ("fig8", fig8),
    ("t61", t61),
    ("t73", t73),
    ("t8x", t8x),
    ("t25", t25),
    ("scale", scale),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = args.iter().find(|a| IDS.iter().all(|(id, _)| id != a)) {
        let ids: Vec<&str> = IDS.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment id {unknown:?}; ids: {}", ids.join(" "));
        std::process::exit(2);
    }
    for (id, run) in IDS {
        if args.is_empty() || args.iter().any(|a| a == id) {
            run();
        }
    }
}
