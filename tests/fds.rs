//! Section 8 end-to-end: FD-extensions change the tractability frontier
//! and the algorithms exploit them on real instances, for all four
//! problems.

use ranked_access::prelude::*;
use ranked_access::rda_baseline::all_answers;

fn tup(vals: &[i64]) -> Tuple {
    vals.iter().map(|&v| Value::int(v)).collect()
}

/// Example 8.3 with data: Q2P(x,z) :- R(x,y), S(y,z), FD S: y → z.
/// All four problems become tractable; answers match the oracle.
#[test]
fn example_8_3_end_to_end() {
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "y", "z")]);
    let db = Database::new()
        .with_i64_rows(
            "R",
            2,
            vec![vec![1, 10], vec![2, 20], vec![3, 10], vec![9, 77]],
        )
        .with_i64_rows("S", 2, vec![vec![10, 5], vec![20, 4]]);
    // Oracle answers: (1,5), (2,4), (3,5); (9,77) dangles.
    let mut oracle = all_answers(&q, &db);
    oracle.sort();
    assert_eq!(oracle, vec![tup(&[1, 5]), tup(&[2, 4]), tup(&[3, 5])]);

    // Without the FD: everything intractable.
    for p in [
        Problem::DirectAccessLex(q.vars(&["x", "z"])),
        Problem::SelectionLex(q.vars(&["x", "z"])),
        Problem::DirectAccessSum,
        Problem::SelectionSum,
    ] {
        assert!(!classify(&q, &FdSet::empty(), &p).is_tractable(), "{p:?}");
    }
    // With the FD: everything tractable (R extends to cover {x, z}).
    for p in [
        Problem::DirectAccessLex(q.vars(&["x", "z"])),
        Problem::SelectionLex(q.vars(&["x", "z"])),
        Problem::DirectAccessSum,
        Problem::SelectionSum,
    ] {
        assert!(classify(&q, &fds, &p).is_tractable(), "{p:?}");
    }

    // LEX direct access by <x, z>.
    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x", "z"]), &fds).unwrap();
    let got: Vec<Tuple> = da.iter().collect();
    assert_eq!(got, vec![tup(&[1, 5]), tup(&[2, 4]), tup(&[3, 5])]);
    for (k, t) in got.iter().enumerate() {
        assert_eq!(da.inverted_access(t), Some(k as u64));
    }
    // LEX selection agrees.
    let lex_handle =
        SelectionLexHandle::new(&q, &db.clone().freeze(), q.vars(&["x", "z"]), &fds).unwrap();
    for k in 0..3 {
        assert_eq!(lex_handle.select_once(k).as_ref(), got.get(k as usize));
    }
    // SUM direct access: weights 6, 6, 8.
    let sda = SumDirectAccess::build(&q, &db, &Weights::identity(), &fds).unwrap();
    let weights: Vec<f64> = (0..sda.len())
        .map(|k| sda.access_weighted(k).unwrap().0 .0)
        .collect();
    assert_eq!(weights, vec![6.0, 6.0, 8.0]);
    // SUM selection matches.
    let sum_handle =
        SelectionSumHandle::new(&q, &db.clone().freeze(), Weights::identity(), &fds).unwrap();
    for k in 0..3 {
        let (w, t) = sum_handle.select_once(k).unwrap();
        assert_eq!(w.0, weights[k as usize]);
        assert!(oracle.contains(&t));
    }
}

/// Example 8.3's triangle: the FD S: y → z makes the cyclic query
/// acyclic and fully tractable.
#[test]
fn example_8_3_triangle() {
    let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "y", "z")]);
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 2], vec![2, 3], vec![5, 2]])
        .with_i64_rows("S", 2, vec![vec![2, 3], vec![3, 1]])
        .with_i64_rows("T", 2, vec![vec![3, 1], vec![1, 2], vec![3, 5]]);
    let mut oracle = all_answers(&q, &db);
    oracle.sort();
    assert_eq!(
        oracle,
        vec![tup(&[1, 2, 3]), tup(&[2, 3, 1]), tup(&[5, 2, 3])]
    );

    assert!(!classify(&q, &FdSet::empty(), &Problem::DirectAccessSum).is_tractable());
    assert!(classify(&q, &fds, &Problem::DirectAccessSum).is_tractable());

    let da = LexDirectAccess::build(&q, &db, &q.vars(&["x", "y", "z"]), &fds).unwrap();
    let got: Vec<Tuple> = da.iter().collect();
    assert_eq!(got, oracle);

    let sda = SumDirectAccess::build(&q, &db, &Weights::identity(), &fds).unwrap();
    let weights: Vec<f64> = (0..sda.len())
        .map(|k| sda.access_weighted(k).unwrap().0 .0)
        .collect();
    assert_eq!(weights, vec![6.0, 6.0, 10.0]);
}

/// Example 8.14 with data: the FD R: v1 → v3 reorders ⟨v1,v2,v3,v4⟩ into
/// the trio-free ⟨v1,v3,v2,v4⟩, and the produced order is still the
/// *requested* one.
#[test]
fn example_8_14_end_to_end() {
    let q = parse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v3, v2), T(v2, v4)").unwrap();
    let lex = q.vars(&["v1", "v2", "v3", "v4"]);
    assert!(!classify(&q, &FdSet::empty(), &Problem::DirectAccessLex(lex.clone())).is_tractable());
    let fds = FdSet::parse(&q, &[("R", "v1", "v3")]);
    assert!(classify(&q, &fds, &Problem::DirectAccessLex(lex.clone())).is_tractable());

    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 30], vec![2, 40]])
        .with_i64_rows("S", 2, vec![vec![30, 7], vec![30, 8], vec![40, 7]])
        .with_i64_rows("T", 2, vec![vec![7, 100], vec![7, 200], vec![8, 100]]);
    let da = LexDirectAccess::build(&q, &db, &lex, &fds).unwrap();
    let got: Vec<Tuple> = da.iter().collect();
    // Oracle: sort answers by <v1, v2, v3, v4>. Because v1 determines v3,
    // this equals the internal <v1, v3, v2, v4> order.
    let mut oracle = all_answers(&q, &db);
    oracle.sort(); // head order (v1, v2, v3, v4) = requested order
    assert_eq!(got, oracle);
    assert_eq!(da.len(), 5);
    for (k, t) in got.iter().enumerate() {
        assert_eq!(da.inverted_access(t), Some(k as u64), "k={k}");
    }
}

/// Example 8.19: the FD S: v2 → v3 does *not* rescue ⟨v1, v2⟩ for direct
/// access (the reordered extension keeps a trio), but selection works.
#[test]
fn example_8_19_end_to_end() {
    let q = parse("Q(v1, v2) :- R(v1, v3), S(v3, v2)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "v2", "v3")]);
    let lex = q.vars(&["v1", "v2"]);
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 30], vec![2, 40]])
        .with_i64_rows("S", 2, vec![vec![30, 7], vec![40, 8]]);
    assert!(matches!(
        LexDirectAccess::build(&q, &db, &lex, &fds),
        Err(BuildError::NotTractable(_))
    ));
    // Selection became tractable (Q⁺ is free-connex).
    let handle = SelectionLexHandle::new(&q, &db.freeze(), lex, &fds).unwrap();
    let got: Vec<Tuple> = (0..2).map(|k| handle.select_once(k).unwrap()).collect();
    assert_eq!(got, vec![tup(&[1, 7]), tup(&[2, 8])]);
}

/// FD violations are reported, not silently mis-answered.
#[test]
fn fd_violation_is_reported() {
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "y", "z")]);
    let db = Database::new()
        .with_i64_rows("R", 2, vec![vec![1, 10]])
        .with_i64_rows("S", 2, vec![vec![10, 5], vec![10, 6]]); // y=10 → two z's
    assert!(matches!(
        LexDirectAccess::build(&q, &db, &q.vars(&["x", "z"]), &fds),
        Err(BuildError::FdViolated(_))
    ));
    assert!(matches!(
        SelectionSumHandle::new(&q, &db.freeze(), Weights::identity(), &fds),
        Err(BuildError::FdViolated(_))
    ));
}

/// Randomized FD instances: LEX direct access under an FD always matches
/// the oracle sorted by the requested order.
#[test]
fn randomized_fd_instances_match_oracle() {
    use rand::{Rng, SeedableRng};
    let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
    let fds = FdSet::parse(&q, &[("S", "y", "z")]);
    let lex = q.vars(&["x", "z"]);
    for seed in 0..30u64 {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        // S: y → z by construction (one z per y).
        let ys: Vec<i64> = (0..6).collect();
        let s_rows: Vec<Vec<i64>> = ys
            .iter()
            .map(|&y| vec![y, rng.random_range(0..5)])
            .collect();
        let r_rows: Vec<Vec<i64>> = (0..rng.random_range(1..20))
            .map(|_| vec![rng.random_range(0..8), rng.random_range(0..8)])
            .collect();
        let db = Database::new()
            .with_i64_rows("R", 2, r_rows)
            .with_i64_rows("S", 2, s_rows);
        let da = LexDirectAccess::build(&q, &db, &lex, &fds).unwrap();
        let mut oracle = all_answers(&q, &db);
        oracle.sort(); // head order (x, z) = requested order
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, oracle, "seed={seed}");
        for (k, t) in got.iter().enumerate() {
            assert_eq!(da.inverted_access(t), Some(k as u64), "seed={seed} k={k}");
        }
    }
}
