//! Random-order enumeration (Section 1 / Carmeli et al. [15]): combine
//! an engine-prepared access plan with a uniformly random permutation of
//! its ranks to stream answers in provably uniform random order — without
//! replacement, and with statistically valid prefixes.
//!
//! Run with: `cargo run --example random_permutation`

use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_core::RandomOrderEnumerator;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // A 2-path join with ~n^2 worst-case answers.
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let n = 2_000;
    let rows = |rng: &mut rand::rngs::StdRng| -> Vec<Vec<i64>> {
        (0..n)
            .map(|_| vec![rng.random_range(0..500), rng.random_range(0..40)])
            .collect()
    };
    let r = rows(&mut rng);
    let s = rows(&mut rng).into_iter().map(|mut t| {
        t.reverse(); // join column first
        t
    });
    let db = Database::new()
        .with_i64_rows("R", 2, r)
        .with_i64_rows("S", 2, s.collect::<Vec<_>>());

    // Any tractable order works — random permutation only needs len()
    // and O(log n) access(k), which the engine guarantees here.
    let engine = Engine::new(db.freeze());
    let plan = engine
        .prepare(
            &q,
            OrderSpec::lex(&q, &["x", "y", "z"]),
            &FdSet::empty(),
            Policy::Reject,
        )
        .unwrap();
    assert_eq!(plan.backend(), Backend::LexDirectAccess);
    println!(
        "database size n = {}, |Q(I)| = {}",
        engine.snapshot().size(),
        plan.len()
    );

    // A sparse Fisher–Yates over the rank space gives a uniform
    // permutation: each step is one O(log n) access, and only the swapped
    // ranks are stored — memory grows with what was emitted, not with
    // |Q(I)|.
    println!("\nfirst 10 answers in uniform random order:");
    for t in RandomOrderEnumerator::new(&*plan, &mut rng).take(10) {
        println!("  #{:>8}: {t}", plan.inverted_access(&t).unwrap());
    }

    // Statistical validity of prefixes: the mean of x over a random
    // prefix estimates the mean of x over all answers.
    let mean_x = |answers: &[Tuple]| -> f64 {
        answers
            .iter()
            .map(|t| t.values()[0].as_int().unwrap() as f64)
            .sum::<f64>()
            / answers.len() as f64
    };
    let prefix_len = (plan.len() / 100).max(1) as usize;
    let prefix: Vec<Tuple> = RandomOrderEnumerator::new(&*plan, &mut rng)
        .take(prefix_len)
        .collect();
    println!(
        "\nmean(x) over all {} answers:      {:.2}",
        plan.len(),
        mean_x(&plan.iter().collect::<Vec<_>>())
    );
    println!("mean(x) over a 1% random prefix:  {:.2}", mean_x(&prefix));

    // Sampling *without replacement* is free: the permutation never
    // repeats an answer.
    let mut seen = std::collections::HashSet::new();
    assert!(prefix.iter().all(|t| seen.insert(t)));
    println!("\n(no answer repeats — sampling without replacement)");
}
