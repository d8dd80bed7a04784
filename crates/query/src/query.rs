//! Conjunctive query AST.

use crate::hypergraph::Hypergraph;
use crate::var::{VarId, VarSet};
use std::fmt;

/// One atom `R(x, y, …)` of a conjunctive query.
///
/// `terms[i]` is the variable at attribute position `i`; a variable may
/// repeat (`R(x, x)`), which instance-level preprocessing resolves by
/// filtering (Section 8, "Concepts and Notation for FDs").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Atom {
    /// Relational symbol.
    pub relation: String,
    /// Variable at each attribute position.
    pub terms: Vec<VarId>,
}

impl Atom {
    /// The set of variables appearing in this atom (`var(e)`).
    pub fn var_set(&self) -> VarSet {
        self.terms.iter().copied().collect()
    }

    /// First position at which `v` occurs, if any.
    pub fn position_of(&self, v: VarId) -> Option<usize> {
        self.terms.iter().position(|&t| t == v)
    }
}

/// Positions (within an atom's term list) of the given variables, in the
/// given order.
///
/// # Panics
/// Panics if a variable does not occur in `terms`.
pub fn positions_of(terms: &[VarId], vars: &[VarId]) -> Vec<usize> {
    vars.iter()
        .map(|v| {
            terms
                .iter()
                .position(|t| t == v)
                .expect("variable must occur in atom")
        })
        .collect()
}

/// The columns holding the variables two atoms share, in each of them
/// (aligned, in `a`'s term order) — their join key.
pub fn shared_positions(a: &[VarId], b: &[VarId]) -> (Vec<usize>, Vec<usize>) {
    let shared: Vec<VarId> = a.iter().copied().filter(|v| b.contains(v)).collect();
    (positions_of(a, &shared), positions_of(b, &shared))
}

/// A conjunctive query `Q(X_f) :- R_1(X_1), …, R_ℓ(X_ℓ)`.
///
/// Build with [`Cq::parse`](crate::parser) or programmatically with
/// [`CqBuilder`]. Variables are interned: [`VarId`]s index into the
/// query's name table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cq {
    name: String,
    /// Head variables, in head order (`free(Q)` with duplicates removed).
    free: Vec<VarId>,
    atoms: Vec<Atom>,
    var_names: Vec<String>,
}

impl Cq {
    /// Assemble a query from raw parts. Exposed for the reduction and
    /// FD-extension machinery; prefer [`CqBuilder`] or the parser.
    pub(crate) fn from_parts(
        name: String,
        free: Vec<VarId>,
        atoms: Vec<Atom>,
        var_names: Vec<String>,
    ) -> Self {
        Cq {
            name,
            free,
            atoms,
            var_names,
        }
    }

    /// Query name (head symbol).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Head variables in head order.
    pub fn free(&self) -> &[VarId] {
        &self.free
    }

    /// `free(Q)` as a set.
    pub fn free_set(&self) -> VarSet {
        self.free.iter().copied().collect()
    }

    /// The atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// All variables appearing in the body (`var(Q)`).
    pub fn all_vars(&self) -> VarSet {
        self.atoms
            .iter()
            .fold(VarSet::EMPTY, |acc, a| acc.union(a.var_set()))
    }

    /// Number of interned variables (some may be unused after rewrites).
    pub fn var_count(&self) -> usize {
        self.var_names.len()
    }

    /// Name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.var_names[v.index()]
    }

    /// Look up a variable by name.
    pub fn var(&self, name: &str) -> Option<VarId> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| VarId(i as u32))
    }

    /// Look up several variables by name, panicking on unknown names.
    ///
    /// # Panics
    /// Panics if a name does not occur in the query.
    pub fn vars(&self, names: &[&str]) -> Vec<VarId> {
        names
            .iter()
            .map(|n| {
                self.var(n)
                    .unwrap_or_else(|| panic!("unknown variable {n}"))
            })
            .collect()
    }

    /// `true` if `free(Q) = var(Q)` (no projections).
    pub fn is_full(&self) -> bool {
        self.free_set() == self.all_vars()
    }

    /// `true` if no relational symbol repeats.
    pub fn is_self_join_free(&self) -> bool {
        let mut names: Vec<&str> = self.atoms.iter().map(|a| a.relation.as_str()).collect();
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    }

    /// The query hypergraph `H(Q)`.
    pub fn hypergraph(&self) -> Hypergraph {
        Hypergraph::new(self.atoms.iter().map(Atom::var_set).collect())
    }

    /// The free-restricted hypergraph `H_free(Q)` (Section 2.1).
    pub(crate) fn free_hypergraph(&self) -> Hypergraph {
        let f = self.free_set();
        Hypergraph::new(
            self.atoms
                .iter()
                .map(|a| a.var_set().intersect(f))
                .collect(),
        )
    }

    /// Render head variable names, for diagnostics.
    pub fn names_of(&self, vars: &[VarId]) -> Vec<&str> {
        vars.iter().map(|&v| self.var_name(v)).collect()
    }

    /// A query with this one's name and variable table but the given
    /// head and body — the shape every rewrite (reduction, FD-extension,
    /// contraction, decomposition) produces.
    pub fn rebuilt(&self, free: Vec<VarId>, atoms: Vec<Atom>) -> Cq {
        Cq {
            name: self.name.clone(),
            free,
            atoms,
            var_names: self.var_names.clone(),
        }
    }

    /// The normalized form instance preparation assumes: later
    /// occurrences of a relation symbol get fresh names (`R#2`, …; the
    /// linear-time reduction to a self-join-free form, Section 8) and
    /// repeated variables within an atom collapse to their first
    /// position. Purely syntactic; the instance side filters and copies
    /// to match.
    pub fn normalized(&self) -> Cq {
        let mut used: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
        let atoms = self
            .atoms
            .iter()
            .map(|atom| {
                let occurrence = used.entry(&atom.relation).or_insert(0);
                *occurrence += 1;
                let relation = if *occurrence == 1 {
                    atom.relation.clone()
                } else {
                    format!("{}#{}", atom.relation, occurrence)
                };
                let mut terms: Vec<VarId> = Vec::with_capacity(atom.terms.len());
                for &t in &atom.terms {
                    if !terms.contains(&t) {
                        terms.push(t);
                    }
                }
                Atom { relation, terms }
            })
            .collect();
        self.rebuilt(self.free.clone(), atoms)
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, v) in self.free.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", self.var_name(*v))?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.relation)?;
            for (j, t) in a.terms.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var_name(*t))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Programmatic query construction.
///
/// ```
/// use rda_query::CqBuilder;
/// let q = CqBuilder::new("Q")
///     .head(&["x", "z"])
///     .atom("R", &["x", "y"])
///     .atom("S", &["y", "z"])
///     .build();
/// assert_eq!(q.to_string(), "Q(x, z) :- R(x, y), S(y, z)");
/// ```
#[derive(Debug, Default)]
pub struct CqBuilder {
    name: String,
    head: Vec<String>,
    atoms: Vec<(String, Vec<String>)>,
}

impl CqBuilder {
    /// Start a query with the given head symbol.
    pub fn new(name: impl Into<String>) -> Self {
        CqBuilder {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Set the head variables.
    #[must_use]
    pub fn head(mut self, vars: &[&str]) -> Self {
        self.head = vars.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Append an atom.
    #[must_use]
    pub fn atom(mut self, relation: &str, vars: &[&str]) -> Self {
        self.atoms.push((
            relation.to_string(),
            vars.iter().map(|s| s.to_string()).collect(),
        ));
        self
    }

    /// Finish construction.
    ///
    /// # Panics
    /// Panics if a head variable does not occur in any atom.
    pub fn build(self) -> Cq {
        let mut var_names: Vec<String> = Vec::new();
        let intern = |name: &str, var_names: &mut Vec<String>| -> VarId {
            if let Some(i) = var_names.iter().position(|n| n == name) {
                VarId(i as u32)
            } else {
                var_names.push(name.to_string());
                VarId((var_names.len() - 1) as u32)
            }
        };
        let atoms: Vec<Atom> = self
            .atoms
            .iter()
            .map(|(rel, vars)| Atom {
                relation: rel.clone(),
                terms: vars.iter().map(|v| intern(v, &mut var_names)).collect(),
            })
            .collect();
        let free: Vec<VarId> = self
            .head
            .iter()
            .map(|v| {
                var_names
                    .iter()
                    .position(|n| n == v)
                    .map(|i| VarId(i as u32))
                    .unwrap_or_else(|| panic!("head variable {v} not in body"))
            })
            .collect();
        Cq::from_parts(self.name, free, atoms, var_names)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_path() -> Cq {
        CqBuilder::new("Q")
            .head(&["x", "y", "z"])
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .build()
    }

    #[test]
    fn builder_interns_variables() {
        let q = two_path();
        assert_eq!(q.var_count(), 3);
        assert_eq!(q.var("y"), Some(VarId(1)));
        assert_eq!(q.var_name(VarId(2)), "z");
    }

    #[test]
    fn full_and_boolean_flags() {
        assert!(two_path().is_full());
        let proj = CqBuilder::new("Q")
            .head(&["x"])
            .atom("R", &["x", "y"])
            .build();
        assert!(!proj.is_full());
        assert_eq!(proj.free().len(), 1);
        let boolean = CqBuilder::new("Q").head(&[]).atom("R", &["x"]).build();
        assert!(boolean.free().is_empty());
    }

    #[test]
    fn self_join_detection() {
        assert!(two_path().is_self_join_free());
        let sj = CqBuilder::new("Q")
            .head(&["x"])
            .atom("R", &["x", "y"])
            .atom("R", &["y", "x"])
            .build();
        assert!(!sj.is_self_join_free());
    }

    #[test]
    fn display_round_trips_shape() {
        assert_eq!(two_path().to_string(), "Q(x, y, z) :- R(x, y), S(y, z)");
    }

    #[test]
    #[should_panic(expected = "not in body")]
    fn head_var_must_occur() {
        let _ = CqBuilder::new("Q").head(&["w"]).atom("R", &["x"]).build();
    }
}
