//! Hypergraphs over query variables (Section 2.1).

use crate::var::{VarId, VarSet};

/// A hypergraph `H = (V, E)` whose vertices are [`VarId`]s.
///
/// The vertex set is implicit: the union of all hyperedges. Edges may
/// repeat and may be contained in one another (the paper's inclusion
/// equivalence machinery relies on that).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hypergraph {
    edges: Vec<VarSet>,
}

impl Hypergraph {
    /// Build from hyperedges.
    pub fn new(edges: Vec<VarSet>) -> Self {
        Hypergraph { edges }
    }

    /// The hyperedges.
    pub(crate) fn edges(&self) -> &[VarSet] {
        &self.edges
    }

    /// The vertex set (union of edges).
    pub(crate) fn vertices(&self) -> VarSet {
        self.edges
            .iter()
            .fold(VarSet::EMPTY, |acc, &e| acc.union(e))
    }

    /// Add a hyperedge, returning the extended hypergraph.
    #[must_use]
    pub(crate) fn with_edge(&self, edge: VarSet) -> Hypergraph {
        let mut edges = self.edges.clone();
        edges.push(edge);
        Hypergraph::new(edges)
    }

    /// Vertices sharing an edge with `v`, excluding `v` itself.
    pub(crate) fn neighbors(&self, v: VarId) -> VarSet {
        self.edges
            .iter()
            .filter(|e| e.contains(v))
            .fold(VarSet::EMPTY, |acc, &e| acc.union(e))
            .without(v)
    }

    /// `true` if `a` and `b` appear together in some edge.
    pub(crate) fn are_neighbors(&self, a: VarId, b: VarId) -> bool {
        let pair = VarSet::singleton(a).with(b);
        self.edges.iter().any(|e| pair.is_subset(*e))
    }

    /// The number of maximal edges w.r.t. containment, `mh(H)`
    /// (Definition 7.1). Duplicate edges count once.
    pub(crate) fn maximal_edge_count(&self) -> usize {
        let mut maximal: Vec<VarSet> = Vec::new();
        for &e in &self.edges {
            if maximal.contains(&e) {
                continue;
            }
            if self.edges.iter().any(|&f| e != f && e.is_subset(f)) {
                continue;
            }
            maximal.push(e);
        }
        maximal.len()
    }

    /// Size of a maximum independent subset of `within`
    /// (`αfree` when `within = free(Q)`, Definition 5.2).
    ///
    /// Exponential in the (constant) number of variables; queries are
    /// constant-sized in the paper's model.
    pub(crate) fn max_independent_subset(&self, within: VarSet) -> VarSet {
        let vars: Vec<VarId> = within.iter().collect();
        let mut best = VarSet::EMPTY;
        self.independent_search(&vars, 0, VarSet::EMPTY, &mut best);
        best
    }

    fn independent_search(&self, vars: &[VarId], i: usize, current: VarSet, best: &mut VarSet) {
        if current.len() > best.len() {
            *best = current;
        }
        if i == vars.len() || current.len() + (vars.len() - i) <= best.len() {
            return;
        }
        let v = vars[i];
        // Include v if it stays independent.
        if !self.neighbors(v).intersects(current) {
            self.independent_search(vars, i + 1, current.with(v), best);
        }
        // Exclude v.
        self.independent_search(vars, i + 1, current, best);
    }

    /// All chordless paths from `from` to `to` whose interior vertices
    /// avoid `forbidden_interior`; used to produce S-path witnesses
    /// (Section 2.1). Returns the first one found (shortest-first search).
    pub(crate) fn chordless_path_avoiding(
        &self,
        from: VarId,
        to: VarId,
        forbidden_interior: VarSet,
        min_interior: usize,
    ) -> Option<Vec<VarId>> {
        // Iterative deepening over path length keeps witnesses short.
        let n = self.vertices().len();
        for len in (2 + min_interior)..=(n.max(2)) {
            let mut path = vec![from];
            if self.chordless_dfs(to, forbidden_interior, len, &mut path) {
                return Some(path);
            }
        }
        None
    }

    fn chordless_dfs(
        &self,
        target: VarId,
        forbidden_interior: VarSet,
        want_len: usize,
        path: &mut Vec<VarId>,
    ) -> bool {
        let last = *path.last().expect("path starts non-empty");
        if path.len() == want_len {
            return last == target;
        }
        for next in self.neighbors(last).iter() {
            if path.contains(&next) {
                continue;
            }
            let is_last_step = path.len() + 1 == want_len;
            if is_last_step {
                if next != target {
                    continue;
                }
            } else if next == target || forbidden_interior.contains(next) {
                continue;
            }
            // Chordless: `next` may only neighbor the current last vertex
            // among the vertices already on the path.
            if path[..path.len() - 1]
                .iter()
                .any(|&p| self.are_neighbors(p, next))
            {
                continue;
            }
            path.push(next);
            if self.chordless_dfs(target, forbidden_interior, want_len, path) {
                return true;
            }
            path.pop();
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> VarSet {
        ids.iter().map(|&i| VarId(i)).collect()
    }

    /// 2-path hypergraph: {x y}, {y z} with x=0, y=1, z=2.
    fn two_path() -> Hypergraph {
        Hypergraph::new(vec![vs(&[0, 1]), vs(&[1, 2])])
    }

    #[test]
    fn vertices_union_edges() {
        assert_eq!(two_path().vertices(), vs(&[0, 1, 2]));
    }

    #[test]
    fn neighbors_and_pairs() {
        let h = two_path();
        assert_eq!(h.neighbors(VarId(1)), vs(&[0, 2]));
        assert!(h.are_neighbors(VarId(0), VarId(1)));
        assert!(!h.are_neighbors(VarId(0), VarId(2)));
    }

    #[test]
    fn maximal_edges_dedup_and_containment() {
        // {x y}, {y}, {y}, {y z} -> two maximal edges (Example 7.2 spirit).
        let h = Hypergraph::new(vec![vs(&[0, 1]), vs(&[1]), vs(&[1]), vs(&[1, 2])]);
        assert_eq!(h.maximal_edge_count(), 2);
    }

    #[test]
    fn independence() {
        let h = two_path();
        assert_eq!(h.max_independent_subset(vs(&[0, 1, 2])), vs(&[0, 2]));
    }

    #[test]
    fn alpha_on_three_path() {
        // R(x,y), S(y,z), T(z,u): αfree over all four vars is {x, z} or {y, u}: 2.
        let h = Hypergraph::new(vec![vs(&[0, 1]), vs(&[1, 2]), vs(&[2, 3])]);
        assert_eq!(h.max_independent_subset(vs(&[0, 1, 2, 3])).len(), 2);
    }

    #[test]
    fn chordless_path_found() {
        let h = two_path();
        // x - y - z with interior y not in S = {x, z}.
        let p = h
            .chordless_path_avoiding(VarId(0), VarId(2), vs(&[0, 2]), 1)
            .unwrap();
        assert_eq!(p, vec![VarId(0), VarId(1), VarId(2)]);
    }

    #[test]
    fn chordless_path_respects_forbidden_interior() {
        let h = two_path();
        assert!(h
            .chordless_path_avoiding(VarId(0), VarId(2), vs(&[0, 1, 2]), 1)
            .is_none());
    }

    #[test]
    fn chord_blocks_path() {
        // Triangle {x y}, {y z}, {x z}: x-y-z has chord x-z, so no chordless
        // path with at least one interior vertex exists.
        let h = Hypergraph::new(vec![vs(&[0, 1]), vs(&[1, 2]), vs(&[0, 2])]);
        assert!(h
            .chordless_path_avoiding(VarId(0), VarId(2), vs(&[0, 2]), 1)
            .is_none());
    }
}
