//! Randomized cross-checks of the paper's structural lemmas — the
//! relationships between the combinatorial notions, validated over
//! generated query shapes (not just the worked examples).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use ranked_access::prelude::*;
use ranked_access::rda_query::{alpha_free, fmh, maximal_contraction, mh};
use ranked_access::rda_query::{
    complete_order, ext_connex_pair, is_free_connex, is_s_connex, s_path_witness,
};
use ranked_access::rda_query::{
    find_disruptive_trio, is_acyclic, is_reverse_elimination_order, layered_join_tree,
};

/// Random CQ generator: random atoms over a small variable pool, random
/// head — cyclic and acyclic shapes alike.
fn random_cq(rng: &mut StdRng, max_atoms: usize, pool: usize) -> Cq {
    let names: Vec<String> = (0..pool).map(|i| format!("v{i}")).collect();
    let n_atoms = rng.random_range(1..=max_atoms);
    let mut b = CqBuilder::new("Q");
    let mut used: Vec<String> = Vec::new();
    let mut atoms = Vec::new();
    for i in 0..n_atoms {
        let arity = rng.random_range(1..=3.min(pool));
        let mut vars: Vec<String> = names.clone();
        vars.shuffle(rng);
        vars.truncate(arity);
        for v in &vars {
            if !used.contains(v) {
                used.push(v.clone());
            }
        }
        atoms.push((format!("R{i}"), vars));
    }
    // Random head: subset of used variables.
    let mut head = used.clone();
    head.shuffle(rng);
    head.truncate(rng.random_range(0..=head.len()));
    b = b.head(&head.iter().map(String::as_str).collect::<Vec<_>>());
    for (r, vars) in &atoms {
        b = b.atom(r, &vars.iter().map(String::as_str).collect::<Vec<_>>());
    }
    b.build()
}

/// Lemma 5.4: for acyclic CQs, an atom contains all free variables iff
/// `αfree(Q) ≤ 1`. Remark 4: `αfree(Q) ≤ fmh(Q)` always, and
/// `αfree ≤ 1 ⟺ fmh ≤ 1`.
#[test]
fn lemma_5_4_and_remark_4() {
    let mut rng = StdRng::seed_from_u64(54);
    for _ in 0..400 {
        let q = random_cq(&mut rng, 4, 6);
        let a = alpha_free(&q);
        assert!(a <= fmh(&q), "Remark 4 fails on {q}");
        if is_acyclic(&q.hypergraph()) {
            let covered = q
                .atoms()
                .iter()
                .any(|atom| q.free_set().is_subset(atom.var_set()));
            assert_eq!(covered, a <= 1, "Lemma 5.4 fails on {q} (αfree = {a})");
            assert_eq!(a <= 1, fmh(&q) <= 1, "Remark 4 fails on {q}");
        }
    }
}

/// The S-path characterization (Section 2.1): an acyclic hypergraph is
/// S-connex iff it has no S-path. Checked with S = free(Q).
#[test]
fn s_path_characterization() {
    let mut rng = StdRng::seed_from_u64(21);
    let mut both = [0usize; 2];
    for _ in 0..400 {
        let q = random_cq(&mut rng, 4, 6);
        let h = q.hypergraph();
        if !is_acyclic(&h) {
            continue;
        }
        let connex = is_s_connex(&h, q.free_set());
        let path = s_path_witness(&h, q.free_set());
        assert_eq!(
            connex,
            path.is_none(),
            "S-path characterization fails on {q}"
        );
        both[usize::from(connex)] += 1;
        // Witness sanity: endpoints free, interior not.
        if let Some(p) = path {
            let free = q.free_set();
            assert!(free.contains(p[0]) && free.contains(*p.last().unwrap()));
            assert!(p[1..p.len() - 1].iter().all(|v| !free.contains(*v)));
            assert!(p.len() >= 3);
        }
    }
    assert!(
        both[0] > 10 && both[1] > 10,
        "generator covers both sides: {both:?}"
    );
}

/// Remark 1: for full acyclic CQs, trio-freeness of a complete order is
/// equivalent to its reverse being an elimination order.
#[test]
fn remark_1_on_random_queries() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..300 {
        let q = random_cq(&mut rng, 4, 5);
        let h = q.hypergraph();
        let mut order: Vec<VarId> = q.all_vars().iter().collect();
        order.shuffle(&mut rng);
        if !is_acyclic(&h) {
            continue;
        }
        assert_eq!(
            find_disruptive_trio(&h, &order).is_none(),
            is_reverse_elimination_order(&h, &order),
            "Remark 1 fails on {q} with {order:?}"
        );
    }
}

/// Lemma 3.9 both ways: a layered join tree for a full acyclic CQ and a
/// complete order exists iff there is no disruptive trio; when it
/// exists, its prefix-closure and containment invariants hold.
#[test]
fn lemma_3_9_layered_tree_iff_no_trio() {
    let mut rng = StdRng::seed_from_u64(39);
    let mut sides = [0usize; 2];
    for _ in 0..400 {
        let q = random_cq(&mut rng, 4, 5);
        let h = q.hypergraph();
        if !is_acyclic(&h) {
            continue;
        }
        // Work with the full version of the query.
        let all: Vec<VarId> = q.all_vars().iter().collect();
        if all.is_empty() {
            continue;
        }
        let mut order = all.clone();
        order.shuffle(&mut rng);
        let edges: Vec<VarSet> = q.atoms().iter().map(|a| a.var_set()).collect();
        let no_trio = find_disruptive_trio(&h, &order).is_none();
        let tree = layered_join_tree(&edges, &order);
        assert_eq!(
            tree.is_some(),
            no_trio,
            "Lemma 3.9 fails on {q} with {order:?}"
        );
        sides[usize::from(no_trio)] += 1;
        if let Some(t) = tree {
            for (i, node) in t.layers.iter().enumerate() {
                // Node of layer i uses only order[..=i] and contains order[i].
                let prefix: VarSet = order[..=i].iter().copied().collect();
                assert!(node.vars.is_subset(prefix));
                assert!(node.vars.contains(order[i]));
                if let Some(p) = node.parent {
                    assert!(p < i);
                    assert!(node.vars.without(order[i]).is_subset(t.layers[p].vars));
                }
                // Assigned edges fit inside the node.
                for &e in &node.assigned_edges {
                    assert!(edges[e].is_subset(node.vars));
                }
            }
        }
    }
    assert!(
        sides[0] > 10 && sides[1] > 10,
        "generator covers both sides: {sides:?}"
    );
}

/// Lemma 4.4: whenever the tractability premises hold for a partial
/// order, the computed completion is a full trio-free order extending it.
#[test]
fn lemma_4_4_completions_are_sound() {
    let mut rng = StdRng::seed_from_u64(44);
    let mut completed = 0;
    for _ in 0..400 {
        let q = random_cq(&mut rng, 4, 6);
        if !is_free_connex(&q) {
            continue;
        }
        let mut free: Vec<VarId> = q.free().to_vec();
        free.shuffle(&mut rng);
        free.truncate(rng.random_range(0..=free.len()));
        let l = free;
        let h = q.hypergraph();
        let lset: VarSet = l.iter().copied().collect();
        let premises = find_disruptive_trio(&h, &l).is_none() && is_s_connex(&h, lset);
        match complete_order(&q, &l) {
            Some(full) => {
                assert!(premises, "completion without premises on {q}");
                completed += 1;
                assert_eq!(full[..l.len()], l[..], "not a prefix on {q}");
                let fset: VarSet = full.iter().copied().collect();
                assert_eq!(fset, q.free_set(), "must cover free({q})");
                assert!(
                    find_disruptive_trio(&h, &full).is_none(),
                    "trio in completion of {q}"
                );
            }
            None => assert!(!premises, "premises hold but no completion on {q}"),
        }
    }
    assert!(
        completed > 30,
        "generator exercises the positive side ({completed})"
    );
}

/// Proposition 4.3: the nested ext-connex trees exist exactly when both
/// levels are connex, and their marked subtrees cover exactly the sets.
#[test]
fn proposition_4_3_nested_trees() {
    let mut rng = StdRng::seed_from_u64(43);
    for _ in 0..300 {
        let q = random_cq(&mut rng, 4, 6);
        let h = q.hypergraph();
        let outer = q.free_set();
        // inner: random subset of free.
        let mut inner_vars: Vec<VarId> = outer.iter().collect();
        inner_vars.shuffle(&mut rng);
        inner_vars.truncate(rng.random_range(0..=inner_vars.len()));
        let inner: VarSet = inner_vars.iter().copied().collect();
        let expect = is_s_connex(&h, outer) && is_s_connex(&h, inner);
        match ext_connex_pair(&h, outer, inner) {
            None => assert!(!expect, "premises hold but no tree on {q}"),
            Some(t) => {
                assert!(expect, "tree without premises on {q}");
                t.tree.validate().unwrap();
                assert_eq!(t.marked_vars(), outer);
                let inner_got = t
                    .inner_marked
                    .iter()
                    .fold(VarSet::EMPTY, |acc, &i| acc.union(t.tree.node(i).vars));
                assert_eq!(inner_got, inner);
                assert!(t.tree.is_connected_subset(&t.marked));
                assert!(t.tree.is_connected_subset(&t.inner_marked));
            }
        }
    }
}

/// Definition 7.5 invariants: the maximal contraction has `mh(Q)` atoms,
/// admits no further step, and keeps free variables unless absorbed by a
/// free variable.
#[test]
fn contraction_invariants() {
    let mut rng = StdRng::seed_from_u64(75);
    for _ in 0..300 {
        let q = random_cq(&mut rng, 4, 6);
        if !q.is_self_join_free() || q.atoms().is_empty() {
            continue;
        }
        let c = maximal_contraction(&q);
        assert_eq!(c.query.atoms().len(), mh(&q), "atom count ≠ mh on {q}");
        // Fixpoint: contracting again changes nothing.
        let again = maximal_contraction(&c.query);
        assert!(again.steps.is_empty(), "not a fixpoint on {q}");
        // Free variables never absorbed into existential ones.
        for step in &c.steps {
            if let ranked_access::rda_query::ContractionStep::AbsorbVar { removed, into } = step {
                if q.free_set().contains(*removed) {
                    assert!(
                        q.free_set().contains(*into),
                        "free {removed:?} absorbed by existential {into:?} on {q}"
                    );
                }
            }
        }
    }
}
