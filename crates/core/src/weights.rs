//! Attribute weights for SUM orders (Section 2.2).
//!
//! A weight function assigns a real weight to each domain value of each
//! free variable; an answer's weight is the sum over its free variables.
//! Unassigned `(variable, value)` pairs default either to `0` or to the
//! value itself (for integer domains) — the latter matches the paper's
//! running examples where "the weights are assumed to be identical to
//! the attribute values" (Figure 2d).

use crate::snapprep::dense_len;
use rda_db::{Dictionary, Value};
use rda_orderstat::TotalF64;
use rda_query::{Cq, VarId};
use std::collections::HashMap;

/// Fallback for `(variable, value)` pairs without an explicit weight.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum DefaultWeight {
    /// Missing weights are `0`.
    #[default]
    Zero,
    /// Missing weights equal the value for integers, `0` otherwise.
    IntValue,
}

/// A weight function `w_x : dom → ℝ` per variable.
///
/// # Floating point
///
/// An answer weighs [`Weights::answer_weight`]: its head's weights
/// summed left to right from `-0.0`, as `Iterator::sum` does, and
/// answers rank by that sum under [`f64::total_cmp`] (so `-0.0` sorts
/// before `0.0`, and a positive NaN above `+∞`), ties by tuple.
///
/// Every backend serves the same order when each answer's weight sum is
/// exact in `f64` — integers of moderate size, say, or binary fractions.
/// Otherwise the selection handle, which adds two atoms' partial sums
/// in its own grouping, can round a near-tie the other way: weights
/// drawn from {0.1, 0.2, 0.3, 0.6, 0.7, 1.0} on `Q(z, x, y) :- R(x, y),
/// S(y, z)` (12 rows per relation over 4 values) rank differently from
/// the materialized oracle on 25 of 40 random instances, and on none
/// under head order `x, y, z`, where the two groupings agree. Weights
/// that hold both `+∞` and `−∞` are refused by SUM selection
/// ([`crate::BuildError::InvalidOrder`]): `∞ − ∞` is a NaN whose sign
/// depends on the order of addition.
#[derive(Debug, Clone, Default)]
pub struct Weights {
    map: HashMap<(VarId, Value), f64>,
    default: DefaultWeight,
}

impl Weights {
    /// All-zero weights (useful when only counting).
    pub fn zero() -> Self {
        Weights::default()
    }

    /// Weights that mirror integer attribute values (Figure 2d).
    pub fn identity() -> Self {
        Weights {
            map: HashMap::new(),
            default: DefaultWeight::IntValue,
        }
    }

    /// Set the weight of one `(variable, value)` pair.
    pub fn set(&mut self, var: VarId, value: impl Into<Value>, weight: f64) -> &mut Self {
        self.map.insert((var, value.into()), weight);
        self
    }

    /// The weight of `value` under variable `var`.
    pub fn get(&self, var: VarId, value: &Value) -> TotalF64 {
        if let Some(&w) = self.map.get(&(var, value.clone())) {
            return TotalF64(w);
        }
        match self.default {
            DefaultWeight::Zero => TotalF64(0.0),
            DefaultWeight::IntValue => TotalF64(value.as_int().map_or(0.0, |i| i as f64)),
        }
    }

    /// A canonical, name-based rendering of this weight function, used
    /// by the engine's plan cache to key prepared plans: two `Weights`
    /// with the same fingerprint (for the same query text) rank answers
    /// identically. Both the variable name and the whole entry are
    /// length-prefixed so arbitrary string values cannot forge entry
    /// boundaries.
    pub(crate) fn fingerprint(&self, q: &Cq) -> String {
        use std::fmt::Write as _;
        let mut entries: Vec<String> = self
            .map
            .iter()
            .map(|((v, val), w)| {
                let name = q.var_name(*v);
                format!("{}:{name}≔{val:?}→{}", name.len(), w.to_bits())
            })
            .collect();
        entries.sort_unstable();
        let mut out = format!("{:?};", self.default);
        for e in entries {
            let _ = write!(out, "{}:{e};", e.len());
        }
        out
    }

    /// `true` when some weight is +∞ and another −∞: adding the two
    /// gives a NaN whose sign depends on the order of addition.
    pub(crate) fn mixes_infinities(&self) -> bool {
        let has = |inf: f64| self.map.values().any(|&w| w == inf);
        has(f64::INFINITY) && has(f64::NEG_INFINITY)
    }

    /// Add to `sums[i]` the weight of the value coded `codes[i]` under
    /// `var`, read from a dense `code → weight` table filled as the
    /// column is walked: one weight lookup per distinct code, not per
    /// cell.
    pub(crate) fn add_column(
        &self,
        var: VarId,
        codes: &[u32],
        dict: &Dictionary,
        sums: &mut [TotalF64],
    ) {
        let mut table: Vec<Option<TotalF64>> = vec![None; dense_len(codes)];
        for (sum, &c) in sums.iter_mut().zip(codes) {
            let w = table[c as usize].get_or_insert_with(|| self.get(var, dict.value(c)));
            *sum = *sum + *w;
        }
    }

    /// Weight of an answer: sum over `vars[i]` of the weight of
    /// `values[i]`.
    ///
    /// # Panics
    /// Panics if the slices have different lengths.
    pub fn answer_weight(&self, vars: &[VarId], values: &[Value]) -> TotalF64 {
        assert_eq!(vars.len(), values.len(), "answer arity mismatch");
        vars.iter()
            .zip(values)
            .map(|(&v, val)| self.get(v, val))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rda_query::parser::parse;

    #[test]
    fn zero_defaults() {
        let w = Weights::zero();
        assert_eq!(w.get(VarId(0), &Value::int(7)), TotalF64(0.0));
    }

    #[test]
    fn identity_defaults_mirror_ints() {
        let w = Weights::identity();
        assert_eq!(w.get(VarId(0), &Value::int(7)), TotalF64(7.0));
        assert_eq!(w.get(VarId(0), &Value::str("a")), TotalF64(0.0));
    }

    #[test]
    fn explicit_weights_override() {
        let q = parse("Q(x) :- R(x)").unwrap();
        let x = q.var("x").unwrap();
        let mut w = Weights::identity();
        w.set(x, 7, -2.5);
        assert_eq!(w.get(x, &Value::int(7)), TotalF64(-2.5));
        assert_eq!(w.get(x, &Value::int(8)), TotalF64(8.0));
    }

    #[test]
    fn answer_weight_sums() {
        let q = parse("Q(x, y) :- R(x, y)").unwrap();
        let (x, y) = (q.var("x").unwrap(), q.var("y").unwrap());
        let w = Weights::identity();
        assert_eq!(
            w.answer_weight(&[x, y], &[Value::int(3), Value::int(4)]),
            TotalF64(7.0)
        );
    }
}
