//! Algorithm 2 (Appendix D): deriving the view delta `ΔV` from a sequence
//! of DML statements.
//!
//! Each statement yields per-statement sets `δ⁺` / `δ⁻`, merged so later
//! statements override earlier ones:
//!
//! ```text
//! Δ⁺V ← (Δ⁺V \ δ⁻) ∪ δ⁺
//! Δ⁻V ← (Δ⁻V \ δ⁺) ∪ δ⁻
//! ```
//!
//! `DELETE`/`UPDATE` predicates are evaluated against the *transaction-
//! local* view state (the stored view with the pending delta applied), so
//! a statement sees the effects of earlier statements in the same
//! transaction. Equality conditions probe the view's hash indexes, which
//! keeps single-key deletes `O(1)` — the paper's PostgreSQL benefits from
//! B-tree indexes the same way. The pending insertions are held in an
//! indexed [`Relation`] mirroring the view's per-column indexes, so a
//! keyed statement late in a large batch probes the pending set too
//! instead of scanning it — without this, deriving a k-statement batch
//! degrades to `O(k²)` and erases the service layer's batching win.

use crate::error::{EngineError, EngineResult};
use birds_sql::{Condition, DmlStatement};
use birds_store::{Delta, Relation, Schema, Tuple, Value};
use std::collections::HashSet;

/// Derive the merged, normalized view delta for a statement sequence.
///
/// The result is *effective* w.r.t. the stored view: insertions are not
/// already present, deletions are present (the incremental programs, and
/// the engine's reads of `V′` through the pending delta, rely on this
/// normalization).
pub fn derive_view_delta(
    view: &Relation,
    schema: &Schema,
    statements: &[DmlStatement],
) -> EngineResult<Delta> {
    // Pending insertions carry the same single-column indexes the view
    // relation gets at registration, so both sides of the transaction-
    // local state answer keyed predicates by probe.
    let mut ins = Relation::new("Δ⁺", schema.arity());
    for col in 0..schema.arity() {
        ins.ensure_index(&[col])
            .map_err(|e| EngineError::Store(e.to_string()))?;
    }
    let mut del: HashSet<Tuple> = HashSet::new();

    for stmt in statements {
        let (d_plus, d_minus) = statement_effect(view, schema, &ins, &del, stmt)?;
        // Δ⁺V ← (Δ⁺V \ δ⁻) ∪ δ⁺ ; Δ⁻V ← (Δ⁻V \ δ⁺) ∪ δ⁻
        for t in &d_minus {
            ins.remove(t);
        }
        for t in &d_plus {
            del.remove(t);
        }
        for t in d_plus {
            ins.insert(t)
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        del.extend(d_minus);
    }

    // Normalize to effective sets w.r.t. the stored view.
    let ins: HashSet<Tuple> = ins
        .tuples()
        .iter()
        .filter(|t| !view.contains(t))
        .cloned()
        .collect();
    del.retain(|t| view.contains(t));
    Ok(Delta::from_sets(ins, del))
}

/// `δ⁺` / `δ⁻` of a single statement against the transaction-local state.
fn statement_effect(
    view: &Relation,
    schema: &Schema,
    pending_ins: &Relation,
    pending_del: &HashSet<Tuple>,
    stmt: &DmlStatement,
) -> EngineResult<(Vec<Tuple>, Vec<Tuple>)> {
    match stmt {
        DmlStatement::Insert { rows, .. } => {
            let mut d_plus = Vec::with_capacity(rows.len());
            for row in rows {
                if row.len() != schema.arity() {
                    return Err(EngineError::BadStatement(format!(
                        "INSERT row has {} values but view '{}' has arity {}",
                        row.len(),
                        schema.name,
                        schema.arity()
                    )));
                }
                d_plus.push(Tuple::new(row.clone()));
            }
            Ok((d_plus, vec![]))
        }
        DmlStatement::Delete { predicate, .. } => {
            let matching = matching_tuples(view, schema, pending_ins, pending_del, predicate)?;
            Ok((vec![], matching))
        }
        DmlStatement::Update {
            sets, predicate, ..
        } => {
            // UPDATE = DELETE matching + INSERT updated copies (App. D).
            let matching = matching_tuples(view, schema, pending_ins, pending_del, predicate)?;
            let mut assignments: Vec<(usize, Value)> = Vec::with_capacity(sets.len());
            for (col, value) in sets {
                let idx = schema.attribute_index(col).ok_or_else(|| {
                    EngineError::BadStatement(format!(
                        "unknown column '{col}' on view '{}'",
                        schema.name
                    ))
                })?;
                assignments.push((idx, *value));
            }
            let updated: Vec<Tuple> = matching
                .iter()
                .map(|t| {
                    let mut vals = t.values().to_vec();
                    for (idx, v) in &assignments {
                        vals[*idx] = *v;
                    }
                    Tuple::new(vals)
                })
                .collect();
            Ok((updated, matching))
        }
    }
}

/// Tuples of the transaction-local view state matching a conjunctive
/// predicate: `(view \ pending_del) ∪ pending_ins`, both sides answered
/// by index probe on positive equality conditions when possible.
fn matching_tuples(
    view: &Relation,
    schema: &Schema,
    pending_ins: &Relation,
    pending_del: &HashSet<Tuple>,
    predicate: &[Condition],
) -> EngineResult<Vec<Tuple>> {
    // Resolve columns up front.
    let mut resolved: Vec<(usize, &Condition)> = Vec::with_capacity(predicate.len());
    for c in predicate {
        let idx = schema.attribute_index(&c.column).ok_or_else(|| {
            EngineError::BadStatement(format!(
                "unknown column '{}' on view '{}'",
                c.column, schema.name
            ))
        })?;
        resolved.push((idx, c));
    }

    let mut out: Vec<Tuple> = Vec::new();
    collect_matching(view, &resolved, Some(pending_del), &mut out);
    collect_matching(pending_ins, &resolved, None, &mut out);
    out.sort();
    out.dedup();
    Ok(out)
}

/// Append `rel`'s tuples matching the resolved conditions (minus
/// `exclude`) to `out`. Positive equality conditions drive an index
/// probe when `rel` has a matching index; otherwise a filtered scan.
fn collect_matching(
    rel: &Relation,
    resolved: &[(usize, &Condition)],
    exclude: Option<&HashSet<Tuple>>,
    out: &mut Vec<Tuple>,
) {
    let matches = |t: &Tuple| {
        resolved.iter().all(|(i, c)| c.matches(&t[*i])) && exclude.is_none_or(|ex| !ex.contains(t))
    };

    let eq_cols: Vec<usize> = resolved
        .iter()
        .filter(|(_, c)| c.op == birds_datalog::CmpOp::Eq && !c.negated)
        .map(|(i, _)| *i)
        .collect();
    let full_index = !eq_cols.is_empty() && rel.has_index(&eq_cols);
    // Fall back to any single indexed equality column, filtering the rest.
    let partial_index = eq_cols.iter().find(|&&c| rel.has_index(&[c])).copied();
    if full_index {
        let key: Vec<Value> = resolved
            .iter()
            .filter(|(_, c)| c.op == birds_datalog::CmpOp::Eq && !c.negated)
            .map(|(_, c)| c.value)
            .collect();
        out.extend(rel.probe(&eq_cols, &key).filter(|t| matches(t)).cloned());
    } else if let Some(col) = partial_index {
        let key = resolved
            .iter()
            .find(|(i, c)| *i == col && c.op == birds_datalog::CmpOp::Eq && !c.negated)
            .map(|(_, c)| c.value)
            .expect("col came from eq_cols");
        out.extend(rel.probe(&[col], &[key]).filter(|t| matches(t)).cloned());
    } else {
        out.extend(rel.iter().filter(|t| matches(t)).cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_sql::parse_script;
    use birds_store::{tuple, SortKind};

    fn view() -> (Relation, Schema) {
        let rel =
            Relation::with_tuples("v", 2, vec![tuple![1, "a"], tuple![2, "b"], tuple![3, "c"]])
                .unwrap();
        let schema = Schema::new("v", vec![("id", SortKind::Int), ("name", SortKind::Str)]);
        (rel, schema)
    }

    fn delta_for(script: &str) -> Delta {
        let (rel, schema) = view();
        let stmts = parse_script(script).unwrap();
        derive_view_delta(&rel, &schema, &stmts).unwrap()
    }

    #[test]
    fn insert_yields_insertions() {
        let d = delta_for("INSERT INTO v VALUES (4, 'd');");
        assert_eq!(d.insertions.len(), 1);
        assert!(d.insertions.contains(&tuple![4, "d"]));
        assert!(d.deletions.is_empty());
    }

    #[test]
    fn insert_existing_tuple_is_normalized_away() {
        let d = delta_for("INSERT INTO v VALUES (1, 'a');");
        assert!(d.is_empty());
    }

    #[test]
    fn delete_by_key() {
        let d = delta_for("DELETE FROM v WHERE id = 2;");
        assert_eq!(d.deletions.len(), 1);
        assert!(d.deletions.contains(&tuple![2, "b"]));
    }

    #[test]
    fn delete_by_range() {
        let d = delta_for("DELETE FROM v WHERE id >= 2;");
        assert_eq!(d.deletions.len(), 2);
    }

    #[test]
    fn update_is_delete_plus_insert() {
        let d = delta_for("UPDATE v SET name = 'z' WHERE id = 1;");
        assert!(d.deletions.contains(&tuple![1, "a"]));
        assert!(d.insertions.contains(&tuple![1, "z"]));
    }

    #[test]
    fn later_statements_override_earlier_ones() {
        // Appendix D example: insert then delete the same tuple — the
        // insertion disappears.
        let d = delta_for("INSERT INTO v VALUES (9, 'x'); DELETE FROM v WHERE id = 9;");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn statements_see_earlier_effects() {
        // Delete then update: the update sees the deletion.
        let d = delta_for("DELETE FROM v WHERE id = 1; UPDATE v SET name = 'q' WHERE id <= 2;");
        // id=1 already deleted, so only id=2 is updated.
        assert!(d.deletions.contains(&tuple![1, "a"]));
        assert!(d.deletions.contains(&tuple![2, "b"]));
        assert!(d.insertions.contains(&tuple![2, "q"]));
        assert!(!d.insertions.contains(&tuple![1, "q"]));
    }

    #[test]
    fn update_of_pending_insert() {
        let d = delta_for("INSERT INTO v VALUES (7, 'n'); UPDATE v SET name = 'm' WHERE id = 7;");
        assert!(d.insertions.contains(&tuple![7, "m"]));
        assert!(!d.insertions.contains(&tuple![7, "n"]));
        assert!(!d.deletions.contains(&tuple![7, "n"]), "never stored");
    }

    #[test]
    fn unknown_column_rejected() {
        let (rel, schema) = view();
        let stmts = parse_script("DELETE FROM v WHERE nope = 1;").unwrap();
        assert!(matches!(
            derive_view_delta(&rel, &schema, &stmts),
            Err(EngineError::BadStatement(_))
        ));
    }

    #[test]
    fn arity_mismatch_rejected() {
        let (rel, schema) = view();
        let stmts = parse_script("INSERT INTO v VALUES (1);").unwrap();
        assert!(matches!(
            derive_view_delta(&rel, &schema, &stmts),
            Err(EngineError::BadStatement(_))
        ));
    }
}
