//! Beyond acyclic queries: what the engine does with a cyclic CQ, and
//! the tree-decomposition escape hatch (the paper's "Applicability"
//! paragraph). A cyclic CQ is outside every tractable region, so
//! `Engine::prepare` either rejects it with the witness or falls back
//! per policy; rewriting it through a decomposition — paying a
//! width-bounded materialization — recovers native direct access.
//!
//! Run with: `cargo run --example cyclic_queries`

use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_baseline::rewrite_by_decomposition;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);

    // The triangle query: the classic cyclic CQ.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
    println!("query: {q}");

    // Random sparse graph: tuples (u, v) with u, v in a small range.
    let n = 3_000;
    let edges = |rng: &mut rand::rngs::StdRng| -> Vec<Vec<i64>> {
        (0..n)
            .map(|_| vec![rng.random_range(0..200), rng.random_range(0..200)])
            .collect()
    };
    let db = Database::new()
        .with_i64_rows("R", 2, edges(&mut rng))
        .with_i64_rows("S", 2, edges(&mut rng))
        .with_i64_rows("T", 2, edges(&mut rng));

    // Every problem is intractable for cyclic queries: with
    // Policy::Reject the engine refuses, naming the cause …
    let engine = Engine::new(db.clone().freeze());
    let lex = OrderSpec::lex(&q, &["x", "y", "z"]);
    match engine.prepare(&q, lex.clone(), &FdSet::empty(), Policy::Reject) {
        Err(e) => println!("\nPolicy::Reject: {e}"),
        Ok(_) => println!("unexpected"),
    }

    // … while Policy::Materialize pays Θ(|out|) once and serves O(1)
    // accesses from the sorted answer array.
    let plan = engine
        .prepare(&q, lex.clone(), &FdSet::empty(), Policy::Materialize)
        .unwrap();
    println!(
        "\n--- explain (materialize fallback) ---\n{}",
        plan.explain()
    );
    println!("\n{} triangles via the fallback", plan.len());

    // The decomposition route: a width-2 decomposition makes the query
    // acyclic, after which the *native* structure applies.
    let dec = rewrite_by_decomposition(&q, &db);
    let td = &dec.decomposition;
    println!(
        "\ntree decomposition: width {} with {} bag(s):",
        td.width,
        td.bags.len()
    );
    for (i, bag) in td.bags.iter().enumerate() {
        println!(
            "  bag {i}: {} (covered by {} atom(s), parent {:?})",
            bag.vars,
            bag.cover.len(),
            bag.parent
        );
    }

    println!("\nrewritten query: {}", dec.query);
    for atom in dec.query.atoms() {
        println!(
            "  {} materialized with {} tuples",
            atom.relation,
            dec.db.get(&atom.relation).unwrap().len()
        );
    }

    let order = q.vars(&["x", "y", "z"]);
    let da = LexDirectAccess::build(&dec.query, &dec.db, &order, &FdSet::empty()).unwrap();
    println!("\ndirect access over the rewrite: {} triangles", da.len());
    if !da.is_empty() {
        println!("first triangle: {}", da.access(0).unwrap());
        println!("median triangle: {}", da.access(da.len() / 2).unwrap());
        println!("last triangle:   {}", da.access(da.len() - 1).unwrap());
        // Both routes agree on the answer set.
        assert_eq!(da.len(), plan.len());
    }

    // Contrast with the FD route (Example 8.3): when a key constraint
    // holds, the FD-extension removes the cycle *without* the quadratic
    // materialization.
    println!("\n(compare: with FD S: y → z the same query becomes acyclic for free —");
    println!(" see `cargo run --example fd_extension` and Example 8.3.)");
}
