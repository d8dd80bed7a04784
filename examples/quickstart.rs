//! Quickstart: one front door to ranked answers.
//!
//! Reproduces the paper's introduction on the pandemic schema
//! `Visits(person, age, city) ⋈ Cases(city, date, cases)`: the engine
//! classifies each requested order, explains intractable ones with
//! their structural witness, and serves tractable ones with O(log n)
//! quantile queries after quasilinear preprocessing.
//!
//! Run with: `cargo run --example quickstart`

use ranked_access::prelude::*;

fn main() {
    let q = parse(
        "Q(person, age, city, date, cases) :- \
         Visits(person, age, city), Cases(city, date, cases)",
    )
    .unwrap();

    // A small synthetic instance (see `examples/experiments.rs` for large generators).
    let people = [
        ("anna", 72, "boston"),
        ("bob", 33, "boston"),
        ("carl", 51, "nyc"),
        ("dora", 28, "nyc"),
        ("eve", 64, "sf"),
    ];
    let reports = [
        ("boston", "12/07", 179),
        ("boston", "12/08", 121),
        ("nyc", "12/07", 998),
        ("nyc", "12/08", 745),
        ("sf", "12/07", 88),
    ];
    let mut visits = Relation::new("Visits", 3);
    for (p, a, c) in people {
        visits.insert(
            [Value::str(p), Value::int(a), Value::str(c)]
                .into_iter()
                .collect(),
        );
    }
    let mut cases = Relation::new("Cases", 3);
    for (c, d, n) in reports {
        cases.insert(
            [Value::str(c), Value::str(d), Value::int(n)]
                .into_iter()
                .collect(),
        );
    }
    let db = Database::new().with(visits).with(cases);

    // Freeze once, serve forever: the snapshot dictionary-encodes the
    // database exactly once, and the stateful engine memoizes every
    // prepared plan.
    let engine = Engine::new(db.freeze());

    // The order (cases, age, ...) is blocked by a disruptive trio. The
    // engine still serves it — by per-access selection — and the plan
    // explains the routing decision:
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["cases", "age", "city"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    println!("--- explain: LEX (cases, age, city) ---");
    println!("{}\n", plan.explain());

    // (cases, city, age) is tractable: the engine routes to the native
    // layered-join-tree structure.
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["cases", "city", "age"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    println!("--- explain: LEX (cases, city, age) ---");
    println!("{}\n", plan.explain());
    println!(
        "{} answers, ordered by (cases, city, age), backend {}",
        plan.len(),
        plan.backend()
    );

    // The median is one O(log n) probe …
    let median = plan.access(plan.len() / 2).unwrap();
    println!("  median (index {}): {median}", plan.len() / 2);

    // … but pages come batched: one window pays the rank bracketing
    // once and walks the structure tuple by tuple.
    println!("\ntop 3 by (cases, city, age):");
    for t in plan.access_range(0..3) {
        println!("  {t}");
    }
    println!("\npage 2 (offset 2, length 2):");
    for t in plan.access_range(2..4) {
        println!("  {t}");
    }

    // Serving the same page shape repeatedly? Reuse one buffer and the
    // refills stop allocating entirely.
    let mut page = WindowBuf::new();
    let mut offset = 0;
    loop {
        let n = plan.access_range_into(offset..offset + 2, &mut page);
        if n == 0 {
            break;
        }
        println!("page at offset {offset}: {n} answers");
        offset += n;
    }

    // Inverted access: where does a specific answer rank?
    let some_answer = plan.access(3).unwrap();
    println!(
        "\ninverted access: {some_answer} is answer #{}",
        plan.inverted_access(&some_answer).unwrap()
    );

    // And the whole ranked answer set as a lazy stream (ranked
    // enumeration: batched cursors, nothing materialized beyond one batch).
    println!("\nfirst answers, streamed:");
    for t in plan.iter().take(3) {
        println!("  {t}");
    }
}
