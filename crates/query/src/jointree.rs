//! Join trees and the running intersection property (Section 2.1).

use crate::query::shared_positions;
use crate::var::{VarId, VarSet};
use std::fmt;

/// Where a join-tree node's variable set came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSource {
    /// The `i`-th hyperedge of the input hypergraph (usually an atom).
    Edge(usize),
    /// A node introduced by a construction, carrying which atom its
    /// relation is projected from (the extension-node machinery of
    /// Sections 3 and 4). `None` means "no relation needed" (e.g. the
    /// synthetic head edge during connexity tests).
    Synthetic(Option<usize>),
}

/// One node of a join tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    /// The node's variable set.
    pub vars: VarSet,
    /// Provenance, used later to materialize a relation for the node.
    pub source: NodeSource,
}

/// An undirected tree whose nodes are variable sets.
///
/// Invariants (checked by [`JoinTree::validate`]):
/// * the edge set forms a tree (connected, `|E| = |V| − 1`), and
/// * the running intersection property holds: for every variable, the
///   nodes containing it induce a connected subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    nodes: Vec<Node>,
    adj: Vec<Vec<usize>>,
}

impl JoinTree {
    /// An empty tree.
    pub fn new() -> Self {
        JoinTree {
            nodes: Vec::new(),
            adj: Vec::new(),
        }
    }

    /// Add a node, returning its index.
    pub fn add_node(&mut self, vars: VarSet, source: NodeSource) -> usize {
        self.nodes.push(Node { vars, source });
        self.adj.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add an undirected edge between two nodes.
    ///
    /// # Panics
    /// Panics if either index is out of bounds.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(
            a < self.nodes.len() && b < self.nodes.len(),
            "edge endpoints must exist"
        );
        self.adj[a].push(b);
        self.adj[b].push(a);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// One node.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Neighbors of node `i`.
    pub(crate) fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Union of all node variable sets.
    pub fn all_vars(&self) -> VarSet {
        self.nodes
            .iter()
            .fold(VarSet::EMPTY, |acc, n| acc.union(n.vars))
    }

    /// Check the tree-shape and running-intersection invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Ok(());
        }
        // Tree shape: connected with n-1 edges.
        let edge_count: usize = self.adj.iter().map(Vec::len).sum::<usize>() / 2;
        if edge_count + 1 != self.nodes.len() {
            return Err(format!(
                "not a tree: {} nodes but {} edges",
                self.nodes.len(),
                edge_count
            ));
        }
        let reached = self.reachable_from(0, |_| true);
        if reached.iter().filter(|&&r| r).count() != self.nodes.len() {
            return Err("not a tree: disconnected".to_string());
        }
        // Running intersection per variable.
        for v in self.all_vars().iter() {
            if !self.variable_connected(v) {
                return Err(format!("running intersection fails for v{}", v.0));
            }
        }
        Ok(())
    }

    fn variable_connected(&self, v: VarId) -> bool {
        let holders: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].vars.contains(v))
            .collect();
        match holders.first() {
            None => true,
            Some(&start) => {
                let reached = self.reachable_from(start, |i| self.nodes[i].vars.contains(v));
                holders.iter().all(|&h| reached[h])
            }
        }
    }

    /// BFS from `start` through nodes satisfying `keep`.
    fn reachable_from(&self, start: usize, keep: impl Fn(usize) -> bool) -> Vec<bool> {
        let mut reached = vec![false; self.nodes.len()];
        if !keep(start) {
            return reached;
        }
        let mut queue = vec![start];
        reached[start] = true;
        while let Some(i) = queue.pop() {
            for &j in &self.adj[i] {
                if !reached[j] && keep(j) {
                    reached[j] = true;
                    queue.push(j);
                }
            }
        }
        reached
    }

    /// `true` if the given node subset induces a connected subtree.
    pub fn is_connected_subset(&self, subset: &[usize]) -> bool {
        match subset.first() {
            None => true,
            Some(&start) => {
                let member = [subset.to_vec()];
                let member = &member[0];
                let reached = self.reachable_from(start, |i| member.contains(&i));
                subset.iter().all(|&s| reached[s])
            }
        }
    }

    /// Orient the tree from `root`: returns `parent[i]` (`usize::MAX` for
    /// the root) and a top-down visit order.
    ///
    /// # Panics
    /// Panics if the tree is empty or disconnected.
    pub fn rooted_at(&self, root: usize) -> (Vec<usize>, Vec<usize>) {
        let mut parent = vec![usize::MAX; self.nodes.len()];
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut visited = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::from([root]);
        visited[root] = true;
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in &self.adj[i] {
                if !visited[j] {
                    visited[j] = true;
                    parent[j] = i;
                    queue.push_back(j);
                }
            }
        }
        assert_eq!(order.len(), self.nodes.len(), "tree must be connected");
        (parent, order)
    }

    /// The Yannakakis full reducer over relations given positionally:
    /// `rels[i]` belongs to node `i`, its columns ordered by `vars[i]`.
    /// A bottom-up pass of parent ⋉ child, then a top-down pass of
    /// child ⋉ parent; afterwards every row of every relation takes part
    /// in at least one tree-consistent combination.
    ///
    /// `semijoin(target, target_keys, source, source_keys)` keeps the
    /// rows of `target` whose key appears in `source`. It is a closure so
    /// that every relation representation — value rows, borrowed or owned
    /// code columns — is reduced by this one traversal.
    pub fn full_reduce<R>(
        &self,
        vars: &[Vec<VarId>],
        rels: &mut [R],
        mut semijoin: impl FnMut(&mut R, &[usize], &R, &[usize]),
    ) {
        if self.is_empty() {
            return;
        }
        let (parent, order) = self.rooted_at(0);
        let mut step = |target: usize, source: usize| {
            let (target_keys, source_keys) = shared_positions(&vars[target], &vars[source]);
            let (t, s) = if target < source {
                let (lo, hi) = rels.split_at_mut(source);
                (&mut lo[target], &hi[0])
            } else {
                let (lo, hi) = rels.split_at_mut(target);
                (&mut hi[0], &lo[source])
            };
            semijoin(t, &target_keys, s, &source_keys);
        };
        let edges = || order.iter().filter(|&&i| parent[i] != usize::MAX);
        for &i in edges().rev() {
            step(parent[i], i);
        }
        for &i in edges() {
            step(i, parent[i]);
        }
    }
}

impl Default for JoinTree {
    fn default() -> Self {
        JoinTree::new()
    }
}

impl fmt::Display for JoinTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, n) in self.nodes.iter().enumerate() {
            write!(f, "node {i}: {} [", n.vars)?;
            for (k, j) in self.adj[i].iter().enumerate() {
                if k > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{j}")?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> VarSet {
        ids.iter().map(|&i| VarId(i)).collect()
    }

    #[test]
    fn valid_path_tree() {
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0, 1]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[1, 2]), NodeSource::Edge(1));
        t.add_edge(a, b);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn running_intersection_violation_detected() {
        // x in both leaves but not in the middle node.
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0, 1]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[1, 2]), NodeSource::Edge(1));
        let c = t.add_node(vs(&[0, 2]), NodeSource::Edge(2));
        t.add_edge(a, b);
        t.add_edge(b, c);
        assert!(t.validate().is_err());
    }

    #[test]
    fn disconnected_detected() {
        let mut t = JoinTree::new();
        t.add_node(vs(&[0]), NodeSource::Edge(0));
        t.add_node(vs(&[1]), NodeSource::Edge(1));
        assert!(t.validate().is_err());
    }

    #[test]
    fn cycle_detected() {
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[0]), NodeSource::Edge(1));
        t.add_edge(a, b);
        t.add_edge(a, b);
        assert!(t.validate().is_err());
    }

    #[test]
    fn rooting_gives_bfs_order() {
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[0, 1]), NodeSource::Edge(1));
        let c = t.add_node(vs(&[1, 2]), NodeSource::Edge(2));
        t.add_edge(a, b);
        t.add_edge(b, c);
        let (parent, order) = t.rooted_at(c);
        assert_eq!(order[0], c);
        assert_eq!(parent[c], usize::MAX);
        assert_eq!(parent[b], c);
        assert_eq!(parent[a], b);
    }

    /// The reducer over plain row vectors: a dangling row anywhere on
    /// the path x–y–z is removed from every node it cannot reach.
    #[test]
    fn full_reduce_removes_dangling_rows_everywhere() {
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0, 1]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[1, 2]), NodeSource::Edge(1));
        let c = t.add_node(vs(&[2]), NodeSource::Edge(2));
        t.add_edge(a, b);
        t.add_edge(b, c);
        let vars = [
            vec![VarId(0), VarId(1)],
            vec![VarId(1), VarId(2)],
            vec![VarId(2)],
        ];
        let mut rels = vec![
            vec![vec![1, 10], vec![2, 20], vec![3, 30]],
            vec![vec![10, 7], vec![20, 8], vec![40, 7]],
            vec![vec![7]],
        ];
        t.full_reduce(&vars, &mut rels, |target, keys, source, source_keys| {
            let key = |row: &Vec<i32>, at: &[usize]| at.iter().map(|&p| row[p]).collect::<Vec<_>>();
            target.retain(|row| source.iter().any(|s| key(s, source_keys) == key(row, keys)));
        });
        assert_eq!(rels, [vec![vec![1, 10]], vec![vec![10, 7]], vec![vec![7]]]);
    }

    #[test]
    fn connected_subset_check() {
        let mut t = JoinTree::new();
        let a = t.add_node(vs(&[0]), NodeSource::Edge(0));
        let b = t.add_node(vs(&[0, 1]), NodeSource::Edge(1));
        let c = t.add_node(vs(&[1, 2]), NodeSource::Edge(2));
        t.add_edge(a, b);
        t.add_edge(b, c);
        assert!(t.is_connected_subset(&[a, b]));
        assert!(!t.is_connected_subset(&[a, c]));
        assert!(t.is_connected_subset(&[]));
    }
}
