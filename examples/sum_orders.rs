//! Sum-of-weights orders end to end (Sections 5 and 7) through the
//! engine: risk-scored answers, the narrow tractable case for direct
//! access, and quantile selection where direct access is provably hard.
//!
//! Run with: `cargo run --example sum_orders`

use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);

    // ----- Part 1: SUM direct access (Theorem 5.1 tractable side) -----
    // SUM x + y with z projected away: all free variables live in R.
    println!("Part 1 — SUM direct access on Q(x, y) :- R(x, y), S(y, z)");
    let q = parse("Q(x, y) :- R(x, y), S(y, z)").unwrap();
    let n = 5_000;
    let db = Database::new()
        .with_i64_rows(
            "R",
            2,
            (0..n)
                .map(|_| vec![rng.random_range(0..1000), rng.random_range(0..50)])
                .collect::<Vec<_>>(),
        )
        .with_i64_rows(
            "S",
            2,
            (0..n)
                .map(|_| vec![rng.random_range(0..50), rng.random_range(0..1000)])
                .collect::<Vec<_>>(),
        );
    // One snapshot serves both Part 1 and Part 2 — the encoding cost
    // is paid once, whatever we go on to prepare.
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    println!("--- explain ---\n{}\n", plan.explain());
    let weight = |t: &Tuple| Weights::identity().answer_weight(q.free(), t.values()).0;
    // The lowest-weight answers come as one batched window — no
    // hand-rolled access loop, one rank bracketing for the whole page.
    println!("  {} answers; top 5 by x + y:", plan.len());
    for t in plan.access_range(0..5) {
        println!("    weight {:>6}  answer {t}", weight(&t));
    }
    // Pagination is rank arithmetic: any page of the sorted answer
    // array, at the same cost shape.
    let mid = plan.len() / 2;
    println!("  the 3 answers straddling the median (page at {mid}):");
    let lo = mid.saturating_sub(1);
    for t in plan.access_range(lo..lo + 3) {
        println!("    weight {:>6}  answer {t}", weight(&t));
    }

    // ----- Part 2: SUM selection where direct access is 3SUM-hard -----
    println!("\nPart 2 — SUM on the 2-path (direct access is 3SUM-hard)");
    let q2 = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let plan2 = engine
        .prepare(
            &q2,
            OrderSpec::sum_by_value(),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    println!("--- explain ---\n{}\n", plan2.explain());
    // Every quantile is a fresh O(n log n) selection; no materialization.
    let total = plan2.len();
    println!("  |Q(I)| = {total}");
    for pct in [1, 50, 99] {
        let k = (total.saturating_sub(1)) * pct / 100;
        let t = plan2.access(k).unwrap();
        let w = Weights::identity().answer_weight(q2.free(), t.values()).0;
        println!("    p{pct:<3} (k = {k:>8}) weight {:>6}  answer {t}", w);
    }

    // ----- Part 3: custom weights -----
    // (The full head keeps the query free-connex with fmh = 2, the
    // boundary of Theorem 7.3's tractable side; projecting the head to
    // (p, a, n) would leave the join variable c existential between
    // free endpoints — breaking free-connexity and losing even
    // selection.)
    println!("\nPart 3 — explicit risk weights (age-weighted exposure)");
    let qv = parse("Q(p, a, c, n) :- Visits(p, a, c), Cases(c, n)").unwrap();
    let mut visits = Relation::new("Visits", 3);
    for (p, a, c) in [
        ("anna", 72i64, "boston"),
        ("bob", 33, "boston"),
        ("carl", 51, "nyc"),
    ] {
        visits.insert(
            [Value::str(p), Value::int(a), Value::str(c)]
                .into_iter()
                .collect(),
        );
    }
    let mut cases = Relation::new("Cases", 2);
    for (c, n) in [("boston", 179i64), ("nyc", 998)] {
        cases.insert([Value::str(c), Value::int(n)].into_iter().collect());
    }
    let dbv = Database::new().with(visits).with(cases);
    // risk = 2·age + #cases/10 (attribute weights, Section 2.2).
    let mut w = Weights::zero();
    for age in [72i64, 33, 51] {
        w.set(qv.var("a").unwrap(), age, 2.0 * age as f64);
    }
    for n in [179i64, 998] {
        w.set(qv.var("n").unwrap(), n, n as f64 / 10.0);
    }
    // fmh(Q) = 2, so the engine serves the order by per-access selection
    // even though direct access is 3SUM-hard.
    let risk = w.clone();
    let planv = Engine::new(dbv.freeze())
        .prepare(&qv, OrderSpec::sum(w), &FdSet::empty(), Policy::Reject)
        .unwrap();
    println!("  backend: {}", planv.backend());
    println!(
        "  {} answers by ascending risk, streamed lazily:",
        planv.len()
    );
    for (k, t) in planv.iter().enumerate() {
        let r = risk.answer_weight(qv.free(), t.values()).0;
        println!("    #{k}: risk {r:>6.1}  {t}");
    }
}
