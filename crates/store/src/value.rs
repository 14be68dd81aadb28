//! Typed constants stored in relations.
//!
//! The paper's Datalog dialect has constants drawn from totally ordered
//! domains (§3.2.1: comparisons `X < c` / `X > c` on totally ordered
//! domains). We support 64-bit integers, finite floating-point numbers,
//! strings and booleans. Dates are represented as ISO-8601 strings, whose
//! lexicographic order coincides with temporal order — the paper's own
//! `residents1962` example relies on exactly this encoding.
//!
//! Strings are interned ([`IStr`]), which makes every `Value` a 16-byte
//! `Copy` type: cloning a value is a register move, string equality is a
//! pointer comparison, and hashing a string is a single precomputed word.
//! The evaluator's slot frames and the store's index keys lean on this.

use crate::intern::IStr;
use std::cmp::Ordering;
use std::fmt;

/// A constant value in a tuple.
///
/// `Value` has a *total* order: values of the same sort compare naturally,
/// and values of different sorts compare by sort tag (Int < Float < Str <
/// Bool). Cross-sort ordering only exists so that `Value` can be used in
/// ordered collections; the Datalog builtin comparison predicates reject
/// cross-sort comparisons (see [`Value::same_sort_cmp`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// 64-bit signed integer (a *discrete* ordered domain: there is no
    /// value strictly between `n` and `n+1`, which matters for the bounded
    /// solver's gap-witness construction).
    Int(i64),
    /// Finite 64-bit float, stored as normalized bits so that `Eq`/`Hash`
    /// are well defined. NaN is rejected at construction; `-0.0` is
    /// normalized to `0.0`. Floats form a *dense* ordered domain.
    Float(F64),
    /// Interned UTF-8 string (dense ordered domain under lexicographic
    /// order).
    Str(IStr),
    /// Boolean.
    Bool(bool),
}

/// Sort (type) tag of a [`Value`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueSort {
    Int,
    Float,
    Str,
    Bool,
}

impl Value {
    /// Build a string value (interning the string).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(IStr::new(s.as_ref()))
    }

    /// Build an integer value.
    pub fn int(i: i64) -> Self {
        Value::Int(i)
    }

    /// Build a float value. Panics on NaN (floats must be totally ordered).
    pub fn float(f: f64) -> Self {
        Value::Float(F64::new(f).expect("NaN is not a valid database value"))
    }

    /// The sort tag of this value.
    pub fn sort(&self) -> ValueSort {
        match self {
            Value::Int(_) => ValueSort::Int,
            Value::Float(_) => ValueSort::Float,
            Value::Str(_) => ValueSort::Str,
            Value::Bool(_) => ValueSort::Bool,
        }
    }

    /// The string content, if this is a string value.
    pub fn as_str(&self) -> Option<&'static str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Compare two values of the same sort; `None` if sorts differ.
    ///
    /// This is the comparison used by the Datalog builtins `<` and `>`:
    /// the paper only compares values drawn from one totally ordered
    /// domain, so a cross-sort comparison indicates a type error in the
    /// user's program and is surfaced as `None` by callers.
    pub fn same_sort_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.same_sort_cmp(other)
            .unwrap_or_else(|| self.sort().cmp(&other.sort()))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{}", x.get()),
            Value::Str(s) => write!(f, "'{}'", s.as_str().replace('\'', "''")),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<IStr> for Value {
    fn from(s: IStr) -> Self {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::float(f)
    }
}

/// A finite, totally ordered `f64` wrapper with well-defined `Eq`/`Hash`.
#[derive(Debug, Clone, Copy)]
pub struct F64(f64);

impl F64 {
    /// Wrap a float; `None` for NaN. `-0.0` is normalized to `0.0`.
    pub fn new(f: f64) -> Option<Self> {
        if f.is_nan() {
            None
        } else if f == 0.0 {
            Some(F64(0.0))
        } else {
            Some(F64(f))
        }
    }

    /// The wrapped float.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for F64 {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl Eq for F64 {}

impl PartialOrd for F64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64 {
    fn cmp(&self, other: &Self) -> Ordering {
        // Finite (non-NaN) floats are totally ordered.
        self.0.partial_cmp(&other.0).expect("F64 is never NaN")
    }
}

impl std::hash::Hash for F64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn same_sort_comparisons() {
        assert_eq!(
            Value::int(1).same_sort_cmp(&Value::int(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::str("b").same_sort_cmp(&Value::str("a")),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::float(1.5).same_sort_cmp(&Value::float(1.5)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::int(1).same_sort_cmp(&Value::str("1")), None);
    }

    #[test]
    fn iso_dates_order_lexicographically() {
        // The residents1962 example depends on this.
        let before = Value::str("1961-12-31");
        let start = Value::str("1962-01-01");
        let end = Value::str("1962-12-31");
        assert!(before < start);
        assert!(start < end);
    }

    #[test]
    fn interned_strings_share_storage() {
        let a = Value::str("shared-contents");
        let b = Value::str(String::from("shared-contents"));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let (Value::Str(x), Value::Str(y)) = (a, b) else {
            unreachable!()
        };
        assert!(std::ptr::eq(x.as_str(), y.as_str()), "one pool entry");
    }

    #[test]
    fn negative_zero_is_normalized() {
        assert_eq!(Value::float(-0.0), Value::float(0.0));
        assert_eq!(hash_of(&Value::float(-0.0)), hash_of(&Value::float(0.0)));
    }

    #[test]
    fn nan_is_rejected() {
        assert!(F64::new(f64::NAN).is_none());
    }

    #[test]
    fn cross_sort_total_order_is_consistent() {
        let vals = [
            Value::int(3),
            Value::float(1.0),
            Value::str("x"),
            Value::Bool(false),
        ];
        // Ord must be transitive/total: sorting must not panic and must be
        // stable under repetition.
        let mut a = vals.to_vec();
        a.sort();
        let mut b = a.clone();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::str("o'clock").to_string(), "'o''clock'");
        assert_eq!(Value::int(-7).to_string(), "-7");
    }
}
