//! Unary functional dependencies and the FD-extension machinery of
//! Section 8: Definition 8.2 (FD-extension) and Definition 8.13
//! (FD-reordered extension).

use crate::query::{Atom, Cq};
use crate::var::{VarId, VarSet};
use std::fmt;

/// A unary functional dependency `R : x → y`, expressed over query
/// variables (Section 8's convention): within the relation of the atom
/// named `relation`, the value of `lhs` determines the value of `rhs`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fd {
    /// Relation (atom) name the dependency lives in.
    pub relation: String,
    /// Determining variable.
    pub lhs: VarId,
    /// Determined variable.
    pub rhs: VarId,
}

impl fmt::Display for Fd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: v{} -> v{}", self.relation, self.lhs.0, self.rhs.0)
    }
}

/// A set of unary FDs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FdSet(pub Vec<Fd>);

impl FdSet {
    /// The empty FD set.
    pub fn empty() -> Self {
        FdSet::default()
    }

    /// Build from `(relation, lhs, rhs)` triples named by variable,
    /// resolving names against `q`.
    ///
    /// # Panics
    /// Panics if a variable name is unknown, the relation names no atom,
    /// or the atom does not contain both variables.
    pub fn parse(q: &Cq, fds: &[(&str, &str, &str)]) -> Self {
        let mut out = Vec::new();
        for &(rel, lhs, rhs) in fds {
            let lhs = q
                .var(lhs)
                .unwrap_or_else(|| panic!("unknown variable {lhs}"));
            let rhs = q
                .var(rhs)
                .unwrap_or_else(|| panic!("unknown variable {rhs}"));
            let atom = q
                .atoms()
                .iter()
                .find(|a| a.relation == rel)
                .unwrap_or_else(|| panic!("no atom named {rel}"));
            assert!(
                atom.var_set().contains(lhs) && atom.var_set().contains(rhs),
                "FD variables must occur in {rel}"
            );
            out.push(Fd {
                relation: rel.to_string(),
                lhs,
                rhs,
            });
        }
        FdSet(out)
    }

    /// `true` if no dependencies are present.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate over the dependencies.
    pub fn iter(&self) -> std::slice::Iter<'_, Fd> {
        self.0.iter()
    }

    /// Variables transitively implied by `v` (excluding `v` itself unless
    /// it lies on a cycle), following `x → y` edges of any relation.
    pub(crate) fn implied_closure(&self, v: VarId) -> VarSet {
        let mut closure = VarSet::EMPTY;
        let mut frontier = vec![v];
        while let Some(x) = frontier.pop() {
            for fd in &self.0 {
                if fd.lhs == x && !closure.contains(fd.rhs) && fd.rhs != v {
                    closure = closure.with(fd.rhs);
                    frontier.push(fd.rhs);
                }
            }
        }
        closure
    }
}

/// One instance-replayable step of the FD-extension (Definition 8.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExtensionStep {
    /// Step (1): atom `atom` (named by relation) gained the variable
    /// `added` at a new last position; values are looked up through
    /// `via` (an FD whose relation already contains `added`).
    ExtendAtom {
        /// Relation name of the atom that grew.
        atom: String,
        /// The appended variable (the FD's right-hand side).
        added: VarId,
        /// The FD whose relation supplies the looked-up values.
        via: Fd,
    },
    /// Step (2): existential variable `var` became free.
    PromoteVar {
        /// The variable that became free.
        var: VarId,
    },
}

/// The FD-extension `(Q⁺, Δ⁺)` of a query and FD set, with the step trace
/// used by `rda-core` to transform instances (Lemma 8.5).
#[derive(Debug, Clone)]
pub struct FdExtension {
    /// The original query.
    pub original: Cq,
    /// The extended query `Q⁺`.
    pub query: Cq,
    /// The extended FD set `Δ⁺`.
    pub fds: FdSet,
    /// Extension steps in application order.
    pub steps: Vec<ExtensionStep>,
}

/// Compute the FD-extension (Definition 8.2): the fixpoint of
/// (1) extending atoms that contain an FD's left-hand side with its
/// right-hand side, and (2) promoting implied existential variables of
/// free variables to free.
///
/// # Panics
/// Panics if `q` has self-joins and `fds` is non-empty (the paper's FD
/// notation assumes distinct relation symbols; with no FDs the extension
/// is the identity and self-joins are fine).
pub fn fd_extension(q: &Cq, fds: &FdSet) -> FdExtension {
    assert!(
        fds.is_empty() || q.is_self_join_free(),
        "FD reasoning requires a self-join-free CQ"
    );
    let mut atoms: Vec<Atom> = q.atoms().to_vec();
    let mut free: Vec<VarId> = q.free().to_vec();
    let mut delta: Vec<Fd> = fds.0.clone();
    let mut steps: Vec<ExtensionStep> = Vec::new();

    loop {
        let mut changed = false;
        // Step (1): extend atoms.
        let snapshot = delta.clone();
        for fd in &snapshot {
            for atom in &mut atoms {
                let vars = atom.var_set();
                if vars.contains(fd.lhs) && !vars.contains(fd.rhs) {
                    atom.terms.push(fd.rhs);
                    let new_fd = Fd {
                        relation: atom.relation.clone(),
                        lhs: fd.lhs,
                        rhs: fd.rhs,
                    };
                    steps.push(ExtensionStep::ExtendAtom {
                        atom: atom.relation.clone(),
                        added: fd.rhs,
                        via: fd.clone(),
                    });
                    if !delta.contains(&new_fd) {
                        delta.push(new_fd);
                    }
                    changed = true;
                }
            }
        }
        // Step (2): promote implied variables of free variables.
        let free_set: VarSet = free.iter().copied().collect();
        for fd in &delta.clone() {
            if free_set.contains(fd.lhs) && !free.contains(&fd.rhs) {
                free.push(fd.rhs);
                steps.push(ExtensionStep::PromoteVar { var: fd.rhs });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    let query = q.rebuilt(free, atoms);
    FdExtension {
        original: q.clone(),
        query,
        fds: FdSet(delta),
        steps,
    }
}

/// Definition 8.13: the FD-reordered lexicographic order `L⁺`. Walk the
/// order left to right; after position `i`, splice in every variable
/// transitively implied by `L[i]` (that is free in `Q⁺` and not already
/// placed at or before `i`), immediately after `i`.
pub fn fd_reordered_order(ext: &FdExtension, l: &[VarId]) -> Vec<VarId> {
    let free_plus: VarSet = ext.query.free().iter().copied().collect();
    let mut order: Vec<VarId> = l.to_vec();
    let mut i = 0;
    while i < order.len() {
        let v = order[i];
        let implied = ext.fds.implied_closure(v).intersect(free_plus);
        // Variables already placed at or before i stay put.
        let placed: VarSet = order[..=i].iter().copied().collect();
        let candidates = implied.minus(placed);
        if !candidates.is_empty() {
            // Keep relative order of those already later in the order,
            // then append the rest in ascending VarId order.
            let mut moved: Vec<VarId> = order[i + 1..]
                .iter()
                .copied()
                .filter(|&x| candidates.contains(x))
                .collect();
            let moved_set: VarSet = moved.iter().copied().collect();
            for x in candidates.minus(moved_set).iter() {
                moved.push(x);
            }
            order.retain(|&x| !candidates.contains(x));
            for (k, &x) in moved.iter().enumerate() {
                order.insert(i + 1 + k, x);
            }
        }
        i += 1;
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn example_8_3_two_path_extension() {
        // Q2P(x,z) :- R(x,y), S(y,z) with S: y → z extends to
        // Q⁺(x,z) :- R(x,y,z), S(y,z) plus FD R: y → z.
        let q = parse("Q(x, z) :- R(x, y), S(y, z)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let ext = fd_extension(&q, &fds);
        let r = &ext.query.atoms()[0];
        assert_eq!(r.terms.len(), 3);
        assert_eq!(*r.terms.last().unwrap(), q.var("z").unwrap());
        assert!(ext.fds.iter().any(|fd| fd.relation == "R"
            && fd.lhs == q.var("y").unwrap()
            && fd.rhs == q.var("z").unwrap()));
        // Q⁺ is free-connex (R now contains all free variables).
        assert!(crate::connex::is_free_connex(&ext.query));
        assert!(!crate::connex::is_free_connex(&q));
    }

    #[test]
    fn example_8_3_triangle_becomes_acyclic() {
        // Q△(x,y,z) :- R(x,y), S(y,z), T(z,x) with S: y → z.
        let q = parse("Q(x, y, z) :- R(x, y), S(y, z), T(z, x)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "y", "z")]);
        let ext = fd_extension(&q, &fds);
        assert!(!crate::gyo::is_acyclic(&q.hypergraph()));
        assert!(crate::gyo::is_acyclic(&ext.query.hypergraph()));
        assert!(crate::connex::is_free_connex(&ext.query));
    }

    #[test]
    fn promotion_makes_implied_vars_free() {
        // Q(x) :- R(x, y) with R: x → y: y becomes free in Q⁺.
        let q = parse("Q(x) :- R(x, y)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "x", "y")]);
        let ext = fd_extension(&q, &fds);
        assert_eq!(ext.query.free().len(), 2);
        assert!(ext
            .steps
            .iter()
            .any(|s| matches!(s, ExtensionStep::PromoteVar { .. })));
    }

    #[test]
    fn example_8_14_reordering() {
        // Q(v1..v4) :- R(v1,v3), S(v3,v2), T(v2,v4) with R: v1 → v3 and
        // L = <v1,v2,v3,v4>: L⁺ = <v1,v3,v2,v4> (trio disappears).
        let q = parse("Q(v1, v2, v3, v4) :- R(v1, v3), S(v3, v2), T(v2, v4)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "v1", "v3")]);
        let ext = fd_extension(&q, &fds);
        assert_eq!(ext.query, q); // Q⁺ = Q
        let l = q.vars(&["v1", "v2", "v3", "v4"]);
        let lp = fd_reordered_order(&ext, &l);
        assert_eq!(lp, q.vars(&["v1", "v3", "v2", "v4"]));
        // The original order has a trio; the reordered one does not.
        let h = ext.query.hypergraph();
        assert!(crate::trio::find_disruptive_trio(&h, &l).is_some());
        assert!(crate::trio::find_disruptive_trio(&h, &lp).is_none());
    }

    #[test]
    fn example_8_19_reordering_grows_order() {
        // Q(v1,v2) :- R(v1,v3), S(v3,v2) with S: v2 → v3, L = <v1,v2>:
        // v3 becomes free in Q⁺ and L⁺ = <v1,v2,v3>.
        let q = parse("Q(v1, v2) :- R(v1, v3), S(v3, v2)").unwrap();
        let fds = FdSet::parse(&q, &[("S", "v2", "v3")]);
        let ext = fd_extension(&q, &fds);
        assert_eq!(ext.query.free().len(), 3);
        let l = q.vars(&["v1", "v2"]);
        let lp = fd_reordered_order(&ext, &l);
        assert_eq!(lp, q.vars(&["v1", "v2", "v3"]));
        // L⁺ has the disruptive trio (v1, v2, v3) in Q⁺.
        let trio = crate::trio::find_disruptive_trio(&ext.query.hypergraph(), &lp);
        assert!(trio.is_some());
    }

    #[test]
    fn closure_is_transitive() {
        let q = parse("Q(a, b, c) :- R(a, b, c)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "a", "b"), ("R", "b", "c")]);
        let closure = fds.implied_closure(q.var("a").unwrap());
        assert!(closure.contains(q.var("b").unwrap()));
        assert!(closure.contains(q.var("c").unwrap()));
    }

    #[test]
    fn lemma_8_15_implied_vars_consecutive() {
        let q = parse("Q(a, b, c, d) :- R(a, b, c, d)").unwrap();
        let fds = FdSet::parse(&q, &[("R", "a", "c"), ("R", "c", "d")]);
        let ext = fd_extension(&q, &fds);
        let l = q.vars(&["a", "b", "c", "d"]);
        let lp = fd_reordered_order(&ext, &l);
        // a implies {c, d}; they must follow a consecutively.
        assert_eq!(lp, q.vars(&["a", "c", "d", "b"]));
    }

    #[test]
    fn empty_fds_change_nothing() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let ext = fd_extension(&q, &FdSet::empty());
        assert_eq!(ext.query, q);
        assert!(ext.steps.is_empty());
        let l = q.vars(&["y", "x"]);
        assert_eq!(fd_reordered_order(&ext, &l), l);
    }
}
