//! Ordered domain values.
//!
//! The paper assumes an ordered domain `dom` (Section 2.2: lexicographic
//! orders compare the values assigned to variables). We support integers
//! and interned strings with a total order: all integers precede all
//! strings; integers compare numerically, strings lexicographically.

use std::fmt;
use std::sync::Arc;

/// A single domain value.
///
/// `Str` uses `Arc<str>` so that cloning values while projecting and
/// bucketing relations is O(1) and allocation-free.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An integer constant.
    Int(i64),
    /// A string constant (cheaply clonable).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Build an integer value.
    pub const fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(Arc::from(s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_order_is_numeric() {
        assert!(Value::int(-3) < Value::int(0));
        assert!(Value::int(0) < Value::int(7));
    }

    #[test]
    fn str_order_is_lexicographic() {
        assert!(Value::str("a") < Value::str("b"));
        assert!(Value::str("a1") < Value::str("a2"));
    }

    #[test]
    fn ints_precede_strings() {
        assert!(Value::int(i64::MAX) < Value::str(""));
    }

    #[test]
    fn accessors_round_trip() {
        assert_eq!(Value::int(5).as_int(), Some(5));
        assert_eq!(Value::str("x").as_int(), None);
    }

    #[test]
    fn display_formats_payload() {
        assert_eq!(Value::int(5).to_string(), "5");
        assert_eq!(Value::str("boston").to_string(), "boston");
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(3i64), Value::int(3));
        assert_eq!(Value::from(3i32), Value::int(3));
        assert_eq!(Value::from("a"), Value::str("a"));
        assert_eq!(Value::from("a".to_string()), Value::str("a"));
    }
}
