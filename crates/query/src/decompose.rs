//! Tree decompositions for cyclic queries (the paper's "Applicability"
//! paragraph: a hypertree decomposition transforms a cyclic CQ into an
//! acyclic one at a non-linear preprocessing cost, after which the
//! direct-access and selection machinery applies).
//!
//! We compute a decomposition by min-fill triangulation of the primal
//! graph — exact enough for constant-size queries — and cover each bag
//! with a greedy set cover of atoms (the generalized-hypertree λ-labels,
//! whose maximum size bounds the materialization exponent).

use crate::hypergraph::Hypergraph;
use crate::query::Cq;
use crate::var::{VarId, VarSet};

/// One bag of a tree decomposition.
#[derive(Debug, Clone)]
pub struct Bag {
    /// The bag's variables.
    pub vars: VarSet,
    /// Parent bag index (`None` for the root).
    pub parent: Option<usize>,
    /// Indices of atoms whose join, projected onto `vars`, materializes
    /// the bag (λ-label). Their variable sets cover `vars`.
    pub cover: Vec<usize>,
}

/// A tree decomposition of a query's hypergraph.
#[derive(Debug, Clone)]
pub struct TreeDecomposition {
    /// The bags; every atom is contained in some bag and every variable
    /// induces a connected subtree.
    pub bags: Vec<Bag>,
    /// The generalized hypertree width of this decomposition (max cover
    /// size — not necessarily optimal).
    pub width: usize,
}

impl TreeDecomposition {
    /// Check the tree-decomposition invariants against `q`.
    pub(crate) fn validate(&self, q: &Cq) -> Result<(), String> {
        // Every atom inside some bag.
        for (i, atom) in q.atoms().iter().enumerate() {
            if !self.bags.iter().any(|b| atom.var_set().is_subset(b.vars)) {
                return Err(format!("atom {i} not covered by any bag"));
            }
        }
        // Covers actually cover.
        for (i, bag) in self.bags.iter().enumerate() {
            let covered = bag
                .cover
                .iter()
                .fold(VarSet::EMPTY, |acc, &a| acc.union(q.atoms()[a].var_set()));
            if !bag.vars.is_subset(covered) {
                return Err(format!("bag {i}'s cover misses variables"));
            }
        }
        // Connectedness per variable (running intersection on the tree).
        for v in q.all_vars().iter() {
            let holders: Vec<usize> = (0..self.bags.len())
                .filter(|&i| self.bags[i].vars.contains(v))
                .collect();
            if holders.is_empty() {
                return Err(format!("variable v{} in no bag", v.0));
            }
            // Walk up from each holder; the meeting structure must stay
            // within holders: check that for each holder (except the
            // shallowest), its parent chain hits another holder without
            // leaving the set... simpler: count connected components.
            let mut component = vec![usize::MAX; self.bags.len()];
            for &h in &holders {
                component[h] = h;
            }
            // Union child into parent when both hold v.
            let mut changed = true;
            while changed {
                changed = false;
                for &h in &holders {
                    if let Some(p) = self.bags[h].parent {
                        if component[p] != usize::MAX {
                            let (a, b) = (root_of(&component, h), root_of(&component, p));
                            if a != b {
                                component[a] = b;
                                changed = true;
                            }
                        }
                    }
                }
            }
            let roots: std::collections::HashSet<usize> =
                holders.iter().map(|&h| root_of(&component, h)).collect();
            if roots.len() != 1 {
                return Err(format!("variable v{} induces a disconnected subtree", v.0));
            }
        }
        Ok(())
    }
}

fn root_of(component: &[usize], mut i: usize) -> usize {
    while component[i] != i {
        i = component[i];
    }
    i
}

/// Compute a tree decomposition of `q` by min-fill triangulation.
/// For acyclic queries this degenerates to (roughly) the join tree;
/// callers normally use it only when [`crate::gyo::is_acyclic`] fails.
pub fn decompose(q: &Cq) -> TreeDecomposition {
    let h: Hypergraph = q.hypergraph();
    let vars: Vec<VarId> = q.all_vars().iter().collect();

    // Primal adjacency (symmetric), as VarSets.
    let mut adj: std::collections::HashMap<VarId, VarSet> =
        vars.iter().map(|&v| (v, h.neighbors(v))).collect();

    // Min-fill elimination.
    let mut remaining: Vec<VarId> = vars.clone();
    let mut elim_bags: Vec<(VarId, VarSet)> = Vec::new();
    while let Some((pos, &v)) = remaining
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| fill_in_cost(&adj, v))
    {
        let neighbors = adj[&v];
        elim_bags.push((v, neighbors.with(v)));
        // Make the neighborhood a clique, then remove v.
        for a in neighbors.iter() {
            let na = adj.get_mut(&a).expect("live var");
            *na = na.union(neighbors).without(a).without(v);
        }
        for set in adj.values_mut() {
            *set = set.without(v);
        }
        adj.remove(&v);
        remaining.remove(pos);
    }

    // Clique-tree construction: bag of v connects to the bag of the
    // first-eliminated vertex among bag_v \ {v}.
    let elim_pos: std::collections::HashMap<VarId, usize> = elim_bags
        .iter()
        .enumerate()
        .map(|(i, &(v, _))| (v, i))
        .collect();
    let mut parent: Vec<Option<usize>> = vec![None; elim_bags.len()];
    for (i, &(v, bag)) in elim_bags.iter().enumerate() {
        let next = bag.without(v).iter().min_by_key(|u| elim_pos[u]);
        if let Some(u) = next {
            parent[i] = Some(elim_pos[&u]);
        }
    }
    // Some graphs are disconnected: attach orphan roots (beyond the
    // last) to the final bag so the result is one tree.
    let root = elim_bags.len() - 1;
    for (i, p) in parent.iter_mut().enumerate() {
        if p.is_none() && i != root {
            *p = Some(root);
        }
    }

    // Absorb bags contained in their parent (contracting tree edges).
    let mut keep: Vec<bool> = vec![true; elim_bags.len()];
    let mut redirect: Vec<usize> = (0..elim_bags.len()).collect();
    for i in 0..elim_bags.len() {
        if let Some(p) = parent[i] {
            let target = resolve(&redirect, p);
            if elim_bags[i].1.is_subset(elim_bags[target].1) {
                keep[i] = false;
                redirect[i] = target;
            }
        }
    }
    let mut bags: Vec<Bag> = Vec::new();
    let mut new_index: Vec<usize> = vec![usize::MAX; elim_bags.len()];
    for (i, &(_, bvars)) in elim_bags.iter().enumerate() {
        if keep[i] {
            new_index[i] = bags.len();
            bags.push(Bag {
                vars: bvars,
                parent: None,
                cover: Vec::new(),
            });
        }
    }
    for (i, &(_, _)) in elim_bags.iter().enumerate() {
        if keep[i] {
            if let Some(p) = parent[i] {
                bags[new_index[i]].parent = Some(new_index[resolve(&redirect, p)]);
            }
        }
    }

    // Greedy set cover per bag.
    let mut width = 0;
    for bag in &mut bags {
        let mut missing = bag.vars;
        while !missing.is_empty() {
            let (best, gain) = q
                .atoms()
                .iter()
                .enumerate()
                .map(|(i, a)| (i, a.var_set().intersect(missing).len()))
                .max_by_key(|&(_, g)| g)
                .expect("queries have atoms");
            assert!(gain > 0, "bag variable not in any atom");
            bag.cover.push(best);
            missing = missing.minus(q.atoms()[best].var_set());
        }
        width = width.max(bag.cover.len());
    }

    let td = TreeDecomposition { bags, width };
    debug_assert_eq!(td.validate(q), Ok(()));
    td
}

fn fill_in_cost(adj: &std::collections::HashMap<VarId, VarSet>, v: VarId) -> usize {
    let n = adj[&v];
    let mut fill = 0;
    let members: Vec<VarId> = n.iter().collect();
    for (i, &a) in members.iter().enumerate() {
        for &b in &members[i + 1..] {
            if !adj[&a].contains(b) {
                fill += 1;
            }
        }
    }
    fill
}

fn resolve(redirect: &[usize], mut i: usize) -> usize {
    while redirect[i] != i {
        i = redirect[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn triangle_gets_width_2_single_bag() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let td = decompose(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width, 2);
        assert!(td.bags.iter().any(|b| b.vars == q.all_vars()));
    }

    #[test]
    fn four_cycle_gets_width_2() {
        let q = parse("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(d, a)").unwrap();
        let td = decompose(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width, 2);
        // Bags have at most 3 variables.
        assert!(td.bags.iter().all(|b| b.vars.len() <= 3));
    }

    #[test]
    fn acyclic_query_stays_width_1() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z)").unwrap();
        let td = decompose(&q);
        td.validate(&q).unwrap();
        assert_eq!(td.width, 1);
    }

    #[test]
    fn five_clique_of_binary_atoms() {
        // K4 on binary edges: width 3 (bag of all 4 vars needs 2-3 atoms).
        let q =
            parse("Q(a, b, c, d) :- R1(a, b), R2(a, c), R3(a, d), R4(b, c), R5(b, d), R6(c, d)")
                .unwrap();
        let td = decompose(&q);
        td.validate(&q).unwrap();
        assert!(td.width >= 2);
    }

    #[test]
    fn cartesian_product_is_handled() {
        // Disconnected primal graph: decomposition must still be a tree.
        let q = parse("Q(a, b) :- R(a), S(b)").unwrap();
        let td = decompose(&q);
        td.validate(&q).unwrap();
    }

    #[test]
    fn validation_catches_broken_decompositions() {
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let broken = TreeDecomposition {
            bags: vec![Bag {
                vars: q.vars(&["x", "y"]).into_iter().collect(),
                parent: None,
                cover: vec![0],
            }],
            width: 1,
        };
        assert!(broken.validate(&q).is_err());
    }
}
