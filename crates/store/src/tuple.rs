//! Tuples: fixed-arity sequences of [`Value`]s.

use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// A database tuple `⟨t1, …, tk⟩`.
///
/// Tuples are immutable once constructed; all mutation in the store happens
/// at the relation level (insert/delete whole tuples), mirroring the
/// set-semantics delta model of the paper (§3.1). The fields are stored in
/// a shared `Arc<[Value]>`, so the same tuple referenced from the primary
/// set and any number of secondary index buckets (or probe result sets)
/// shares one allocation: `Tuple::clone` is a reference-count bump, never
/// a deep copy.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Create a tuple from values.
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Field access; `None` when out of range.
    pub fn get(&self, i: usize) -> Option<&Value> {
        self.0.get(i)
    }

    /// All fields.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Copy out the underlying values.
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// Project onto the given column positions (used by index probes).
    /// Panics if a position is out of range — callers validate columns
    /// against the relation arity. `Value` is `Copy`, so this is a flat
    /// copy of `cols.len()` words into one fresh allocation.
    pub fn project(&self, cols: &[usize]) -> Vec<Value> {
        cols.iter().map(|&c| self.0[c]).collect()
    }

    /// Iterate over the fields.
    pub fn iter(&self) -> std::slice::Iter<'_, Value> {
        self.0.iter()
    }
}

impl Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, i: usize) -> &Value {
        &self.0[i]
    }
}

/// Tuples borrow as their field slice, so hash sets keyed by `Tuple` can
/// be probed with a `&[Value]` — no throwaway `Tuple` allocation for a
/// membership test. Sound because the derived `Hash`/`Eq` of `Tuple`
/// forward through `Arc` to the slice.
impl std::borrow::Borrow<[Value]> for Tuple {
    fn borrow(&self) -> &[Value] {
        &self.0
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple(v.into())
    }
}

impl FromIterator<Value> for Tuple {
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a Tuple {
    type Item = &'a Value;
    type IntoIter = std::slice::Iter<'a, Value>;
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Convenience macro for building tuples in tests and examples:
/// `tuple![1, "ann", true]`.
#[macro_export]
macro_rules! tuple {
    ($($v:expr),* $(,)?) => {
        $crate::Tuple::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = tuple![1, "ann"];
        assert_eq!(t.arity(), 2);
        assert_eq!(t[0], Value::int(1));
        assert_eq!(t.get(1), Some(&Value::str("ann")));
        assert_eq!(t.get(2), None);
    }

    #[test]
    fn projection() {
        let t = tuple![1, "b", 3];
        assert_eq!(t.project(&[2, 0]), vec![Value::int(3), Value::int(1)]);
        assert_eq!(t.project(&[]), Vec::<Value>::new());
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(tuple![1, "x"], tuple![1, "x"]);
        assert_ne!(tuple![1, "x"], tuple!["x", 1]);
    }

    #[test]
    fn clone_shares_the_allocation() {
        let t = tuple![1, "shared"];
        let u = t.clone();
        assert!(std::ptr::eq(t.values(), u.values()));
    }

    #[test]
    fn display_format() {
        assert_eq!(tuple![1, "a"].to_string(), "(1, 'a')");
    }
}
