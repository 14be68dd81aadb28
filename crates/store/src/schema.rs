//! Relation and database schemas.
//!
//! A database schema `S = ⟨r1, …, rn⟩` is a finite sequence of relation
//! names with associated attribute lists (paper §2.1).

use crate::value::ValueSort;
use std::fmt;

/// Re-export of the value sort used for attribute typing.
pub type SortKind = ValueSort;

/// A named, typed attribute of a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name (e.g. `emp_name`).
    pub name: String,
    /// Sort of values stored in this column.
    pub sort: SortKind,
}

impl Attribute {
    /// Build an attribute.
    pub fn new(name: impl Into<String>, sort: SortKind) -> Self {
        Attribute {
            name: name.into(),
            sort,
        }
    }
}

/// Schema of one relation: its name and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    /// Relation (predicate) name.
    pub name: String,
    /// Ordered attribute list; the arity is `attributes.len()`.
    pub attributes: Vec<Attribute>,
}

impl Schema {
    /// Build a schema from `(name, sort)` pairs.
    pub fn new(name: impl Into<String>, attrs: Vec<(&str, SortKind)>) -> Self {
        Schema {
            name: name.into(),
            attributes: attrs
                .into_iter()
                .map(|(n, s)| Attribute::new(n, s))
                .collect(),
        }
    }

    /// Arity of the relation.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of the named attribute, if present.
    pub fn attribute_index(&self, name: &str) -> Option<usize> {
        self.attributes.iter().position(|a| a.name == name)
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.attributes.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {:?}", a.name, a.sort)?;
        }
        write!(f, ")")
    }
}

/// Schema of a whole database: an ordered list of relation schemas.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatabaseSchema {
    /// Relation schemas in declaration order.
    pub relations: Vec<Schema>,
}

impl DatabaseSchema {
    /// Empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation schema (builder style).
    pub fn with(mut self, schema: Schema) -> Self {
        self.relations.push(schema);
        self
    }

    /// Look up a relation schema by name.
    pub fn get(&self, name: &str) -> Option<&Schema> {
        self.relations.iter().find(|s| s.name == name)
    }

    /// Names of all relations, in order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.iter().map(|s| s.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schema_arity_and_lookup() {
        let s = Schema::new(
            "ed",
            vec![("emp_name", SortKind::Str), ("dept_name", SortKind::Str)],
        );
        assert_eq!(s.arity(), 2);
        assert_eq!(s.attribute_index("dept_name"), Some(1));
        assert_eq!(s.attribute_index("nope"), None);
    }

    #[test]
    fn database_schema_lookup() {
        let db = DatabaseSchema::new()
            .with(Schema::new("r1", vec![("a", SortKind::Int)]))
            .with(Schema::new("r2", vec![("a", SortKind::Int)]));
        assert!(db.get("r1").is_some());
        assert!(db.get("r3").is_none());
        assert_eq!(db.names().collect::<Vec<_>>(), vec!["r1", "r2"]);
    }

    #[test]
    fn display_is_readable() {
        let s = Schema::new("male", vec![("emp_name", SortKind::Str)]);
        assert_eq!(s.to_string(), "male(emp_name: Str)");
    }
}
