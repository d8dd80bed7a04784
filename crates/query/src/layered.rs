//! Layered join trees (Definition 3.4) and their construction
//! (Lemma 3.9).
//!
//! A layered join tree for a full acyclic CQ and a complete lexicographic
//! order `⟨v1, …, vf⟩` is a join tree of an inclusion-equivalent
//! hypergraph with exactly one node per layer `i` (the node whose latest
//! variable is `v_i`), such that every prefix of layers induces a tree.
//! It exists iff the query has no disruptive trio w.r.t. the order, and
//! it is the scaffold of the direct-access structure (Section 3.1).

use crate::var::{VarId, VarSet};

/// One layer of a layered join tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerNode {
    /// The node's variable set; a subset of `{v1, …, v_{i+1}}` containing
    /// `v_{i+1}` (for the 0-indexed layer `i`).
    pub vars: VarSet,
    /// Index of the parent layer (`None` for layer 0). Always an earlier
    /// layer, so prefixes of layers induce trees.
    pub parent: Option<usize>,
    /// The input edge whose projection defines this node's variable set.
    pub defining_edge: usize,
    /// Input edges `e` with `layer(e) = i`; their relations constrain
    /// (semijoin-filter) this node. May be empty for nodes that exist
    /// purely as projections (e.g. layer `{v1}` in Figure 3).
    pub assigned_edges: Vec<usize>,
}

/// A layered join tree: `layers[i]` is the unique node of layer `i + 1`
/// (0-indexed here; the paper indexes layers from 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayeredJoinTree {
    /// One node per lexicographic position.
    pub layers: Vec<LayerNode>,
    /// The order the tree was built for.
    pub lex: Vec<VarId>,
}

impl LayeredJoinTree {
    /// Children of layer `i`, in ascending layer order.
    pub fn children(&self, i: usize) -> Vec<usize> {
        (0..self.layers.len())
            .filter(|&j| self.layers[j].parent == Some(i))
            .collect()
    }
}

/// Lemma 3.9: build a layered join tree for the full query whose atoms
/// have variable sets `edges`, w.r.t. the complete order `lex`.
///
/// Requirements: every edge is non-empty and contained in `lex`'s
/// variables, every `lex` variable occurs in some edge, and `lex` has no
/// duplicates. Returns `None` exactly when a disruptive trio blocks the
/// construction (the Helly-property argument in the lemma's proof).
///
/// # Panics
/// Panics if the requirements above are violated.
pub fn layered_join_tree(edges: &[VarSet], lex: &[VarId]) -> Option<LayeredJoinTree> {
    let lex_set: VarSet = lex.iter().copied().collect();
    assert_eq!(
        lex_set.len(),
        lex.len(),
        "lexicographic order must not repeat variables"
    );
    let mut covered = VarSet::EMPTY;
    for (i, &e) in edges.iter().enumerate() {
        assert!(
            !e.is_empty(),
            "edge {i} is empty; full queries have non-empty atoms"
        );
        assert!(
            e.is_subset(lex_set),
            "edge {i} uses variables outside the order"
        );
        covered = covered.union(e);
    }
    assert_eq!(
        covered, lex_set,
        "every order variable must occur in some edge"
    );

    let position: std::collections::HashMap<VarId, usize> =
        lex.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let layer_of_edge = |e: VarSet| -> usize {
        e.iter()
            .map(|v| position[&v])
            .max()
            .expect("edges are non-empty")
    };

    let mut layers: Vec<LayerNode> = Vec::with_capacity(lex.len());
    let mut prefix = VarSet::EMPTY;
    for (i, &vi) in lex.iter().enumerate() {
        prefix = prefix.with(vi);
        // V_i: projections of edges containing v_i onto the prefix.
        let candidates: Vec<(usize, VarSet)> = edges
            .iter()
            .enumerate()
            .filter(|(_, &e)| e.contains(vi))
            .map(|(idx, &e)| (idx, e.intersect(prefix)))
            .collect();
        debug_assert!(!candidates.is_empty(), "every variable occurs in some edge");
        // A maximal element containing all others exists iff there is no
        // disruptive trio (Helly property, Lemma 3.9).
        let &(defining_edge, vm) = candidates
            .iter()
            .find(|(_, v)| candidates.iter().all(|(_, u)| u.is_subset(*v)))?;
        // Parent: any earlier layer whose node contains Vm \ {v_i}.
        let key = vm.without(vi);
        let parent = if i == 0 {
            None
        } else {
            Some(
                (0..i)
                    .find(|&j| key.is_subset(layers[j].vars))
                    .expect("Lemma 3.9: the prefix tree contains Vm \\ {vi}"),
            )
        };
        debug_assert!(i > 0 || key.is_empty());
        layers.push(LayerNode {
            vars: vm,
            parent,
            defining_edge,
            assigned_edges: Vec::new(),
        });
    }

    // Assign every edge to the node of its layer; containment is
    // guaranteed because the edge participates in that layer's V_i.
    for (idx, &e) in edges.iter().enumerate() {
        let l = layer_of_edge(e);
        debug_assert!(e.is_subset(layers[l].vars), "edge must fit its layer node");
        layers[l].assigned_edges.push(idx);
    }

    Some(LayeredJoinTree {
        layers,
        lex: lex.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> VarSet {
        ids.iter().map(|&i| VarId(i)).collect()
    }

    fn ids(raw: &[u32]) -> Vec<VarId> {
        raw.iter().map(|&i| VarId(i)).collect()
    }

    #[test]
    fn example_3_5_cartesian_product() {
        // Q3(v1,v2,v3,v4) :- R(v1,v3), S(v2,v4), order <v1,v2,v3,v4>
        // (Figure 3): layers {v1}, {v2}, {v1,v3}, {v2,v4}.
        let t = layered_join_tree(&[vs(&[0, 2]), vs(&[1, 3])], &ids(&[0, 1, 2, 3])).unwrap();
        assert_eq!(t.layers[0].vars, vs(&[0]));
        assert_eq!(t.layers[1].vars, vs(&[1]));
        assert_eq!(t.layers[2].vars, vs(&[0, 2]));
        assert_eq!(t.layers[3].vars, vs(&[1, 3]));
        // Prefix-tree property: parents are earlier layers.
        for (i, n) in t.layers.iter().enumerate() {
            if let Some(p) = n.parent {
                assert!(p < i);
            }
        }
        // R is assigned to layer 3 (v3's position), S to layer 4.
        assert_eq!(t.layers[2].assigned_edges, vec![0]);
        assert_eq!(t.layers[3].assigned_edges, vec![1]);
    }

    #[test]
    fn two_path_xyz() {
        // R(x,y), S(y,z) with <x,y,z>: layers {x}, {x,y}, {y,z}.
        let t = layered_join_tree(&[vs(&[0, 1]), vs(&[1, 2])], &ids(&[0, 1, 2])).unwrap();
        assert_eq!(t.layers[0].vars, vs(&[0]));
        assert_eq!(t.layers[1].vars, vs(&[0, 1]));
        assert_eq!(t.layers[2].vars, vs(&[1, 2]));
        assert_eq!(t.layers[2].parent, Some(1));
    }

    #[test]
    fn trio_blocks_construction() {
        // <x, z, y> on the 2-path: at layer y (position 2), the candidate
        // projections {x,y} and {y,z} have no maximum.
        assert!(layered_join_tree(&[vs(&[0, 1]), vs(&[1, 2])], &ids(&[0, 2, 1])).is_none());
    }

    #[test]
    fn q5_interleaved_branches() {
        // Q5(v1..v5) :- R1(v1,v3), R2(v3,v4), R3(v2,v5): an order no prior
        // structure supports (Section 2.5), but layered trees do.
        let edges = [vs(&[0, 2]), vs(&[2, 3]), vs(&[1, 4])];
        let t = layered_join_tree(&edges, &ids(&[0, 1, 2, 3, 4])).unwrap();
        assert_eq!(t.layers.len(), 5);
        assert_eq!(t.layers[2].vars, vs(&[0, 2]));
        assert_eq!(t.layers[3].vars, vs(&[2, 3]));
        assert_eq!(t.layers[4].vars, vs(&[1, 4]));
    }

    #[test]
    fn q6_wide_atoms() {
        // Q6(v1..v5) :- R1(v1,v2,v4), R2(v2,v3,v5).
        let edges = [vs(&[0, 1, 3]), vs(&[1, 2, 4])];
        let t = layered_join_tree(&edges, &ids(&[0, 1, 2, 3, 4])).unwrap();
        assert_eq!(t.layers[1].vars, vs(&[0, 1]));
        assert_eq!(t.layers[2].vars, vs(&[1, 2]));
        assert_eq!(t.layers[3].vars, vs(&[0, 1, 3]));
        assert_eq!(t.layers[4].vars, vs(&[1, 2, 4]));
    }

    #[test]
    fn children_enumeration() {
        let t = layered_join_tree(&[vs(&[0, 2]), vs(&[1, 3])], &ids(&[0, 1, 2, 3])).unwrap();
        // Figure 3b: R' (layer 1) has children S' (layer 2) and R (layer 3).
        assert_eq!(t.children(0), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "repeat")]
    fn rejects_duplicate_order_vars() {
        let _ = layered_join_tree(&[vs(&[0])], &ids(&[0, 0]));
    }

    #[test]
    #[should_panic(expected = "occur in some edge")]
    fn rejects_uncovered_order_var() {
        let _ = layered_join_tree(&[vs(&[0])], &ids(&[0, 1]));
    }
}
