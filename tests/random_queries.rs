//! Structure-randomized soundness: generate random *full acyclic*
//! queries (acyclic by construction — each new atom grafts onto an
//! existing one), random orders, and random databases; then check the
//! whole pipeline against the oracle. This exercises layered-join-tree
//! construction across shapes no hand-written catalog would cover.

#[allow(dead_code)]
mod common;

use common::random_db;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_baseline::{all_answers, MaterializedAccess};

/// Build a random full acyclic CQ with `n_atoms` atoms over at most
/// `max_vars` variables. Construction: atom 0 takes fresh variables;
/// atom i shares a non-empty random subset of some earlier atom's
/// variables plus fresh ones — the grafting order is a join tree, so the
/// query is acyclic (and, being full, free-connex).
fn random_full_acyclic(rng: &mut StdRng, n_atoms: usize, max_vars: usize) -> Cq {
    let mut atoms: Vec<Vec<String>> = Vec::new();
    let mut next_var = 0usize;
    let fresh = |next_var: &mut usize| {
        let v = format!("v{next_var}");
        *next_var += 1;
        v
    };
    for i in 0..n_atoms {
        let mut vars: Vec<String> = Vec::new();
        if i > 0 {
            let host = rng.random_range(0..atoms.len());
            let host_vars = atoms[host].clone();
            let k = rng.random_range(1..=host_vars.len());
            let mut shared = host_vars;
            shared.shuffle(rng);
            shared.truncate(k);
            vars.extend(shared);
        }
        let fresh_count = if next_var >= max_vars {
            usize::from(vars.is_empty())
        } else {
            rng.random_range(if vars.is_empty() { 1 } else { 0 }..=2)
        };
        for _ in 0..fresh_count {
            vars.push(fresh(&mut next_var));
        }
        vars.dedup();
        atoms.push(vars);
    }
    let mut head: Vec<String> = Vec::new();
    for a in &atoms {
        for v in a {
            if !head.contains(v) {
                head.push(v.clone());
            }
        }
    }
    let mut b = CqBuilder::new("Q").head(&head.iter().map(String::as_str).collect::<Vec<_>>());
    for (i, a) in atoms.iter().enumerate() {
        b = b.atom(
            &format!("R{i}"),
            &a.iter().map(String::as_str).collect::<Vec<_>>(),
        );
    }
    b.build()
}

/// Pick a random order; retry until the classifier accepts one under
/// `fds` (the empty order always does, so this terminates).
fn random_tractable_order_under(rng: &mut StdRng, q: &Cq, fds: &FdSet) -> Vec<VarId> {
    let mut vars: Vec<VarId> = q.free().to_vec();
    for _ in 0..20 {
        vars.shuffle(rng);
        let len = rng.random_range(0..=vars.len());
        let lex: Vec<VarId> = vars[..len].to_vec();
        if classify(q, fds, &Problem::DirectAccessLex(lex.clone())).is_tractable() {
            return lex;
        }
    }
    Vec::new()
}

fn random_tractable_order(rng: &mut StdRng, q: &Cq) -> Vec<VarId> {
    random_tractable_order_under(rng, q, &FdSet::empty())
}

/// Draw up to one random unary FD on an atom with at least two
/// variables (or none at all) — enough to put the classifier's
/// FD-extension machinery on the random path without making instance
/// repair ambiguous.
fn random_fd_set(rng: &mut StdRng, q: &Cq) -> FdSet {
    if rng.random_range(0..3) == 0 {
        return FdSet::empty();
    }
    let candidates: Vec<usize> = (0..q.atoms().len())
        .filter(|&i| q.atoms()[i].terms.len() >= 2)
        .collect();
    let Some(&ai) = candidates.get(rng.random_range(0..candidates.len().max(1))) else {
        return FdSet::empty();
    };
    let atom = &q.atoms()[ai];
    let lp = rng.random_range(0..atom.terms.len());
    let mut rp = rng.random_range(0..atom.terms.len());
    if rp == lp {
        rp = (rp + 1) % atom.terms.len();
    }
    FdSet::parse(
        q,
        &[(
            atom.relation.as_str(),
            q.var_name(atom.terms[lp]),
            q.var_name(atom.terms[rp]),
        )],
    )
}

/// Rewrite `db` so every declared FD holds: within each FD's relation,
/// the first tuple seen for a left-hand value fixes the right-hand
/// value of all its successors.
fn repair_fds(db: &mut Database, q: &Cq, fds: &FdSet) {
    use std::collections::HashMap;
    for fd in fds.iter() {
        let atom = q
            .atoms()
            .iter()
            .find(|a| a.relation == fd.relation)
            .expect("FD names a query atom");
        let lp = atom.terms.iter().position(|&t| t == fd.lhs).unwrap();
        let rp = atom.terms.iter().position(|&t| t == fd.rhs).unwrap();
        let rel = db.get(&fd.relation).expect("relation exists");
        let mut witness: HashMap<Value, Value> = HashMap::new();
        let repaired: Vec<Tuple> = rel
            .tuples()
            .iter()
            .map(|t| {
                let rhs = witness
                    .entry(t[lp].clone())
                    .or_insert_with(|| t[rp].clone())
                    .clone();
                t.iter()
                    .enumerate()
                    .map(|(p, v)| if p == rp { rhs.clone() } else { v.clone() })
                    .collect()
            })
            .collect();
        let arity = rel.arity();
        db.add(Relation::from_tuples(fd.relation.clone(), arity, repaired));
    }
}

#[test]
fn random_acyclic_full_queries_match_oracle() {
    let mut rng = StdRng::seed_from_u64(20260612);
    let mut tractable_hits = 0;
    for round in 0..120 {
        let q = random_full_acyclic(&mut rng, 1 + (round % 5), 8);
        let db = random_db(&q, 1 + (round % 12), 4, rng.next_u64());
        let lex = random_tractable_order(&mut rng, &q);
        let da = LexDirectAccess::build(&q, &db, &lex, &FdSet::empty())
            .unwrap_or_else(|e| panic!("round {round}: {q} with {lex:?}: {e}"));
        tractable_hits += 1;

        // Oracle comparison on the structure's internal complete order.
        let mut oracle = all_answers(&q, &db);
        let positions: Vec<usize> = da
            .internal_order()
            .iter()
            .map(|v| q.free().iter().position(|f| f == v).expect("full query"))
            .collect();
        oracle.sort_by(|a, b| {
            positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, oracle, "round {round}: {q} by {lex:?}");

        // Inverted access round-trips on a sample.
        for (k, t) in got.iter().enumerate().take(16) {
            assert_eq!(da.inverted_access(t), Some(k as u64), "round {round}");
        }

        // Selection agrees at every rank, and knows the count.
        let snap = db.clone().freeze();
        let handle = SelectionLexHandle::new(&q, &snap, lex.clone(), &FdSet::empty()).unwrap();
        assert_eq!(handle.len(), da.len(), "round {round}");
        for k in 0..=da.len() {
            assert_eq!(handle.select_once(k), da.access(k), "round {round} k={k}");
        }
        // It needs no tractable order: any permutation of the head.
        let mut any = q.free().to_vec();
        any.shuffle(&mut rng);
        let oracle = MaterializedAccess::by_lex(&q, &db, &any);
        let handle = SelectionLexHandle::new(&q, &snap, any.clone(), &FdSet::empty()).unwrap();
        assert_eq!(handle.len(), oracle.len(), "round {round}: {q} by {any:?}");
        for k in 0..=oracle.len() {
            assert_eq!(
                handle.select_once(k),
                oracle.access(k),
                "round {round}: {q} by {any:?} k={k}"
            );
        }
    }
    assert!(tractable_hits > 0);
}

/// Random queries with random FD sets and random *windowed* access:
/// the classifier's FD-extension path, and the pagination surface
/// (`access_range` windows and pages, resumable `iter()` streams),
/// both under differential test against the sorted-oracle — previously
/// only plain per-rank access was fuzzed, and only without FDs.
#[test]
fn random_queries_with_fds_windows_and_streams_match_oracle() {
    let mut rng = StdRng::seed_from_u64(20260729);
    let mut fd_rounds = 0;
    let mut fd_rescued = 0;
    for round in 0..150 {
        let q = random_full_acyclic(&mut rng, 1 + (round % 4), 7);
        let mut db = random_db(&q, 2 + (round % 10), 5, rng.next_u64());
        let fds = random_fd_set(&mut rng, &q);
        repair_fds(&mut db, &q, &fds);
        if !fds.is_empty() {
            fd_rounds += 1;
        }
        let lex = random_tractable_order_under(&mut rng, &q, &fds);
        // Track how often the FDs *rescued* an order the plain
        // classifier rejects — the extension path proper.
        if !fds.is_empty()
            && !classify(&q, &FdSet::empty(), &Problem::DirectAccessLex(lex.clone())).is_tractable()
        {
            fd_rescued += 1;
        }
        let da = LexDirectAccess::build(&q, &db, &lex, &fds)
            .unwrap_or_else(|e| panic!("round {round}: {q} with {lex:?}: {e}"));

        // Oracle: answers sorted by the structure's internal complete
        // order. Under FDs the completion may omit functionally
        // determined variables; the comparator is still total on
        // answers (determined components agree whenever the rest do).
        let mut oracle = all_answers(&q, &db);
        let positions: Vec<usize> = da
            .internal_order()
            .iter()
            .map(|v| q.free().iter().position(|f| f == v).expect("full query"))
            .collect();
        oracle.sort_by(|a, b| {
            positions
                .iter()
                .map(|&p| a[p].cmp(&b[p]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let got: Vec<Tuple> = da.iter().collect();
        assert_eq!(got, oracle, "round {round}: {q} by {lex:?} under {fds:?}");

        // The windowed surface against oracle slices, clamping
        // included.
        let len = da.len();
        let windows = [
            (0, len.min(3)),
            (len / 3, (len / 3 + 4).min(len)),
            (len.saturating_sub(2), len),
            (len, len + 2),
            (len + 3, len + 6),
        ];
        for (lo, hi) in windows {
            let expect = &oracle[lo.min(len) as usize..hi.min(len) as usize];
            assert_eq!(
                da.access_range(lo..hi),
                expect,
                "round {round}: window {lo}..{hi} of {q}"
            );
        }
        assert_eq!(
            da.access_range(0..4),
            oracle[..len.min(4) as usize],
            "round {round}"
        );
        assert_eq!(
            da.access_range(len / 2..len / 2 + 3),
            oracle[(len / 2) as usize..(len / 2 + 3).min(len) as usize],
            "round {round}"
        );

        // Inverted access round-trips on a sample (FD derivations
        // included).
        for (k, t) in got.iter().enumerate().take(12) {
            assert_eq!(da.inverted_access(t), Some(k as u64), "round {round}");
        }

        // Streams: full, resumed mid-way, and partially consumed.
        let answers = RankedAnswers::Lex(da);
        let streamed: Vec<Tuple> = answers.iter().collect();
        assert_eq!(streamed, oracle, "round {round}: stream of {q}");
        let resumed: Vec<Tuple> = answers.iter().skip(len as usize / 2).collect();
        assert_eq!(resumed, oracle[(len / 2) as usize..], "round {round}");
        let prefix: Vec<Tuple> = answers.iter().take(3).collect();
        assert_eq!(prefix, oracle[..len.min(3) as usize], "round {round}");
    }
    assert!(fd_rounds > 40, "FD sets must be drawn often ({fd_rounds})");
    assert!(
        fd_rescued > 0,
        "some rounds must exercise FD-rescued orders"
    );
}

#[test]
fn random_queries_sum_selection_matches_oracle() {
    let mut rng = StdRng::seed_from_u64(777);
    let mut checked = 0;
    for round in 0..120 {
        let q = random_full_acyclic(&mut rng, 1 + (round % 4), 7);
        if !classify(&q, &FdSet::empty(), &Problem::SelectionSum).is_tractable() {
            continue;
        }
        checked += 1;
        let db = random_db(&q, 1 + (round % 10), 4, rng.next_u64());
        let oracle =
            MaterializedAccess::by_sum(&q, &db, |_, v| v.as_int().map_or(0.0, |i| i as f64));
        let handle = SelectionSumHandle::new(
            &q,
            &db.clone().freeze(),
            Weights::identity(),
            &FdSet::empty(),
        )
        .unwrap_or_else(|e| panic!("round {round}: {q}: {e}"));
        assert_eq!(handle.len(), oracle.len(), "round {round}: {q}");
        for k in 0..=oracle.len() {
            let got = handle.select_once(k);
            match (got, oracle.weight_at(k)) {
                (Some((w, t)), Some(expect)) => {
                    assert_eq!(w, TotalF64(expect), "round {round}: {q} k={k}");
                    assert!(all_answers(&q, &db).contains(&t), "round {round}");
                }
                (None, None) => {}
                (got, expect) => {
                    panic!("round {round}: {q} k={k}: {got:?} vs weight {expect:?}")
                }
            }
        }
    }
    assert!(
        checked > 20,
        "the generator should produce plenty of fmh ≤ 2 queries"
    );
}

#[test]
fn random_cyclic_queries_via_decomposition() {
    use ranked_access::rda_baseline::rewrite_by_decomposition;
    let mut rng = StdRng::seed_from_u64(4242);
    for round in 0..40 {
        // Random graph queries: k vars, binary atoms forming a random
        // graph with a cycle forced in.
        let k = 4 + (round % 3);
        let mut edges: Vec<(usize, usize)> = (0..k).map(|i| (i, (i + 1) % k)).collect(); // cycle
        for _ in 0..rng.random_range(0..3) {
            let a = rng.random_range(0..k);
            let b = rng.random_range(0..k);
            if a != b {
                edges.push((a.min(b), a.max(b)));
            }
        }
        edges.dedup();
        let names: Vec<String> = (0..k).map(|i| format!("v{i}")).collect();
        let mut b = CqBuilder::new("Q").head(&names.iter().map(String::as_str).collect::<Vec<_>>());
        for (i, &(x, y)) in edges.iter().enumerate() {
            b = b.atom(&format!("E{i}"), &[&names[x], &names[y]]);
        }
        let q = b.build();
        let db = random_db(&q, 12, 3, rng.next_u64());
        let dec = rewrite_by_decomposition(&q, &db);
        let da = LexDirectAccess::build(&dec.query, &dec.db, &[], &FdSet::empty())
            .unwrap_or_else(|e| panic!("round {round}: {q}: {e}"));
        let mut got: Vec<Tuple> = da.iter().collect();
        got.sort();
        let mut expect = all_answers(&q, &db);
        expect.sort();
        assert_eq!(got, expect, "round {round}: {q}");
    }
}
