//! Delta relations and their application (paper §3.1).
//!
//! A delta `ΔR` over relation `R` is a pair of tuple sets: insertions `Δ⁺`
//! and deletions `Δ⁻`. Application is `R ⊕ ΔR = (R \ Δ⁻) ∪ Δ⁺` (set
//! semantics). A delta *set* `ΔS` carries one delta per source relation;
//! it is **non-contradictory** when no tuple is simultaneously inserted and
//! deleted on the same relation (Definition 3.1) — contradictory delta sets
//! are rejected at application time.

use crate::database::Database;
use crate::error::{StoreError, StoreResult};
use crate::tuple::Tuple;
use std::collections::{BTreeMap, HashSet};

/// Insertions and deletions for a single relation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Delta {
    /// `Δ⁺`: tuples to insert.
    pub insertions: HashSet<Tuple>,
    /// `Δ⁻`: tuples to delete.
    pub deletions: HashSet<Tuple>,
}

impl Delta {
    /// Empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from explicit insertion / deletion sets.
    pub fn from_sets(insertions: HashSet<Tuple>, deletions: HashSet<Tuple>) -> Self {
        Delta {
            insertions,
            deletions,
        }
    }

    /// `true` when both sets are empty.
    pub fn is_empty(&self) -> bool {
        self.insertions.is_empty() && self.deletions.is_empty()
    }

    /// Tuples present in both `Δ⁺` and `Δ⁻` (witnesses of contradiction).
    pub fn contradictions(&self) -> impl Iterator<Item = &Tuple> {
        self.insertions
            .iter()
            .filter(|t| self.deletions.contains(*t))
    }

    /// `true` when `Δ⁺ ∩ Δ⁻ = ∅`.
    pub fn is_non_contradictory(&self) -> bool {
        self.contradictions().next().is_none()
    }

    /// Number of tuples touched.
    pub fn len(&self) -> usize {
        self.insertions.len() + self.deletions.len()
    }

    /// Record a *net-effect* insertion: a pending deletion of the same
    /// tuple is cancelled (the later statement overrides the earlier one,
    /// Algorithm 2's `Δ⁻ ← Δ⁻ \ δ⁺`).
    pub fn push_insert(&mut self, t: Tuple) {
        self.deletions.remove(&t);
        self.insertions.insert(t);
    }

    /// Record a *net-effect* deletion: a pending insertion of the same
    /// tuple is cancelled (`Δ⁺ ← Δ⁺ \ δ⁻`).
    pub fn push_delete(&mut self, t: Tuple) {
        self.insertions.remove(&t);
        self.deletions.insert(t);
    }

    /// Merge a later delta into this one under Algorithm 2's override
    /// semantics: `Δ⁺ ← (Δ⁺ \ δ⁻) ∪ δ⁺` and `Δ⁻ ← (Δ⁻ \ δ⁺) ∪ δ⁻`.
    /// The result is the net effect of applying `self` then `later`.
    pub fn merge(&mut self, later: Delta) {
        for t in &later.deletions {
            self.insertions.remove(t);
        }
        for t in &later.insertions {
            self.deletions.remove(t);
        }
        self.insertions.extend(later.insertions);
        self.deletions.extend(later.deletions);
    }

    /// Drop the parts of the delta that would be no-ops on `rel`:
    /// insertions already present and deletions already absent. The
    /// *effective* normalization the engine's incremental programs, its
    /// reads through a pending delta (which count on `Δ⁺` being disjoint
    /// from `rel` and `Δ⁻` inside it), **and the WAL** rely on: a delete of a tuple
    /// absent from both the relation and the pending insertions is a
    /// no-op and must not survive normalization — a stored no-effect
    /// delete would replay non-idempotently through the WAL (it becomes
    /// *effective* if replayed at a state where the tuple exists).
    /// `push_insert`/`push_delete`/`merge` keep Algorithm 2's raw
    /// override semantics (they cannot see `rel`), so every delta must
    /// pass through this normalization before being applied or logged;
    /// `Engine::derive_delta` and `Engine::apply_delta` both do.
    ///
    /// Contradictory input (a tuple in both sets — impossible via the
    /// `push_*`/`merge` API, constructible via [`Delta::from_sets`]) is
    /// resolved to the no-op, not to whichever side `rel` happens to
    /// favor: fabricating an effective insert (or delete) out of a
    /// contradictory pair would be exactly the non-idempotent replay
    /// hazard this normalization exists to prevent.
    pub fn normalize_against(&mut self, rel: &crate::relation::Relation) {
        self.normalize_by(|t| rel.contains(t));
    }

    /// [`Delta::normalize_against`] a relation given by its membership
    /// test (the engine's view of a relation through a pending delta).
    pub fn normalize_by(&mut self, present: impl Fn(&Tuple) -> bool) {
        let contradictory: Vec<Tuple> = self
            .insertions
            .intersection(&self.deletions)
            .cloned()
            .collect();
        for t in &contradictory {
            self.insertions.remove(t);
            self.deletions.remove(t);
        }
        self.insertions.retain(|t| !present(t));
        self.deletions.retain(|t| present(t));
    }
}

/// A delta for each of several relations, keyed by relation name.
///
/// Uses a `BTreeMap` so iteration (and hence application and display) is
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaSet {
    deltas: BTreeMap<String, Delta>,
}

impl DeltaSet {
    /// Empty delta set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Access (creating if needed) the delta of the named relation.
    pub fn entry(&mut self, relation: impl Into<String>) -> &mut Delta {
        self.deltas.entry(relation.into()).or_default()
    }

    /// The delta of the named relation, if any was recorded.
    pub fn get(&self, relation: &str) -> Option<&Delta> {
        self.deltas.get(relation)
    }

    /// Record an insertion.
    pub fn insert(&mut self, relation: impl Into<String>, t: Tuple) {
        self.entry(relation).insertions.insert(t);
    }

    /// Record a deletion.
    pub fn delete(&mut self, relation: impl Into<String>, t: Tuple) {
        self.entry(relation).deletions.insert(t);
    }

    /// Iterate `(relation, delta)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Delta)> {
        self.deltas.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total number of touched tuples across all relations.
    pub fn len(&self) -> usize {
        self.deltas.values().map(Delta::len).sum()
    }

    /// `true` when no relation has any change recorded.
    pub fn is_empty(&self) -> bool {
        self.deltas.values().all(Delta::is_empty)
    }

    /// Definition 3.1: no relation has a tuple both inserted and deleted.
    pub fn is_non_contradictory(&self) -> bool {
        self.deltas.values().all(Delta::is_non_contradictory)
    }

    /// Apply this delta set to a database: `S ⊕ ΔS`.
    ///
    /// Fails if the delta set is contradictory, references an unknown
    /// relation, or contains a tuple of the wrong arity. Deletions are
    /// applied before insertions per the paper's `(R \ Δ⁻) ∪ Δ⁺`.
    pub fn apply_to(&self, db: &mut Database) -> StoreResult<()> {
        // Validate everything before mutating so failed application does
        // not leave the database half-updated.
        for (name, delta) in &self.deltas {
            if let Some(t) = delta.contradictions().next() {
                return Err(StoreError::ContradictoryDelta {
                    relation: name.clone(),
                    tuple: t.to_string(),
                });
            }
            let rel = db
                .relation(name)
                .ok_or_else(|| StoreError::UnknownRelation(name.clone()))?;
            for t in delta.insertions.iter().chain(delta.deletions.iter()) {
                if t.arity() != rel.arity() {
                    return Err(StoreError::ArityMismatch {
                        relation: name.clone(),
                        expected: rel.arity(),
                        found: t.arity(),
                    });
                }
            }
        }
        for (name, delta) in &self.deltas {
            let rel = db.relation_mut(name).expect("validated above");
            for t in &delta.deletions {
                rel.remove(t);
            }
            for t in &delta.insertions {
                rel.insert(t.clone())?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::tuple;

    fn db() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1], tuple![2]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![3]]).unwrap())
            .unwrap();
        db
    }

    #[test]
    fn paper_example_delta_application() {
        // Example from §3.1: R = {⟨1,2⟩, ⟨1,3⟩}, ΔR = {-r(1,2), +r(1,1)}
        // gives R' = {⟨1,1⟩, ⟨1,3⟩}.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 2, vec![tuple![1, 2], tuple![1, 3]]).unwrap())
            .unwrap();
        let mut ds = DeltaSet::new();
        ds.delete("r", tuple![1, 2]);
        ds.insert("r", tuple![1, 1]);
        ds.apply_to(&mut db).unwrap();
        let r = db.relation("r").unwrap();
        assert!(r.contains(&tuple![1, 1]));
        assert!(r.contains(&tuple![1, 3]));
        assert!(!r.contains(&tuple![1, 2]));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn contradictory_delta_rejected_without_mutation() {
        let mut database = db();
        let mut ds = DeltaSet::new();
        ds.insert("r1", tuple![5]);
        ds.delete("r1", tuple![5]);
        assert!(!ds.is_non_contradictory());
        let err = ds.apply_to(&mut database).unwrap_err();
        assert!(matches!(err, StoreError::ContradictoryDelta { .. }));
        assert_eq!(database.relation("r1").unwrap().len(), 2, "unchanged");
    }

    #[test]
    fn unknown_relation_rejected() {
        let mut database = db();
        let mut ds = DeltaSet::new();
        ds.insert("nope", tuple![1]);
        assert!(matches!(
            ds.apply_to(&mut database),
            Err(StoreError::UnknownRelation(_))
        ));
    }

    #[test]
    fn delete_then_insert_same_relation_different_tuples() {
        let mut database = db();
        let mut ds = DeltaSet::new();
        ds.delete("r2", tuple![3]);
        ds.insert("r2", tuple![4]);
        ds.apply_to(&mut database).unwrap();
        let r2 = database.relation("r2").unwrap();
        assert!(r2.contains(&tuple![4]) && !r2.contains(&tuple![3]));
    }

    #[test]
    fn insert_then_delete_cancels() {
        let mut d = Delta::new();
        d.push_insert(tuple![7]);
        d.push_delete(tuple![7]);
        assert!(d.insertions.is_empty());
        assert_eq!(d.deletions.len(), 1, "net effect is a plain deletion");
        assert!(d.is_non_contradictory());
    }

    #[test]
    fn delete_then_insert_cancels() {
        let mut d = Delta::new();
        d.push_delete(tuple![7]);
        d.push_insert(tuple![7]);
        assert!(d.deletions.is_empty());
        assert_eq!(d.insertions.len(), 1, "net effect is a plain insertion");
    }

    #[test]
    fn merge_applies_override_semantics() {
        // first: +{1}, -{2};  later: -{1}, +{2}, +{3}
        let mut first = Delta::new();
        first.push_insert(tuple![1]);
        first.push_delete(tuple![2]);
        let mut later = Delta::new();
        later.push_delete(tuple![1]);
        later.push_insert(tuple![2]);
        later.push_insert(tuple![3]);
        first.merge(later);
        assert!(!first.insertions.contains(&tuple![1]), "overridden");
        assert!(first.deletions.contains(&tuple![1]));
        assert!(first.insertions.contains(&tuple![2]), "overridden back");
        assert!(!first.deletions.contains(&tuple![2]));
        assert!(first.insertions.contains(&tuple![3]));
        assert!(first.is_non_contradictory());
    }

    #[test]
    fn merge_of_net_deltas_stays_non_contradictory() {
        // Any sequence of push_insert/push_delete/merge keeps Δ⁺ ∩ Δ⁻ = ∅.
        let mut acc = Delta::new();
        for i in 0..50i64 {
            let mut step = Delta::new();
            if i % 2 == 0 {
                step.push_insert(tuple![i % 7]);
            } else {
                step.push_delete(tuple![i % 7]);
            }
            step.push_delete(tuple![(i + 1) % 5]);
            acc.merge(step);
            assert!(acc.is_non_contradictory(), "after step {i}");
        }
    }

    #[test]
    fn normalize_against_drops_noops() {
        let database = db();
        let mut d = Delta::new();
        d.push_insert(tuple![1]); // already in r1
        d.push_insert(tuple![9]); // genuinely new
        d.push_delete(tuple![2]); // actually present
        d.push_delete(tuple![42]); // already absent
        d.normalize_against(database.relation("r1").unwrap());
        assert_eq!(d.insertions.len(), 1);
        assert!(d.insertions.contains(&tuple![9]));
        assert_eq!(d.deletions.len(), 1);
        assert!(d.deletions.contains(&tuple![2]));
    }

    #[test]
    fn normalize_drops_delete_absent_from_relation_and_pending_inserts() {
        // ISSUE 5 satellite: a delete of a tuple absent from both the
        // relation and the delta's own pending insertions is a no-op —
        // if it stayed stored, a WAL replay of this delta at a later
        // state (where tuple 42 might exist) would delete it, breaking
        // replay idempotency.
        let database = db(); // r1 = {1, 2}
        let mut d = Delta::new();
        d.push_insert(tuple![9]); // genuine pending insert
        d.push_delete(tuple![42]); // absent from r1, not a pending insert
        d.normalize_against(database.relation("r1").unwrap());
        assert!(
            d.deletions.is_empty(),
            "no-effect delete must not be stored: {d:?}"
        );
        assert_eq!(d.insertions.len(), 1);
        assert!(d.insertions.contains(&tuple![9]));
    }

    #[test]
    fn normalize_resolves_contradictory_pairs_to_noops() {
        // A contradictory pair (constructible via from_sets, never via
        // push_*) must normalize to nothing — not to whichever side the
        // relation state happens to favor, which would fabricate an
        // effective insert or delete out of an ill-defined input.
        let database = db(); // r1 = {1, 2}
        for t in [tuple![1], tuple![77]] {
            // present / absent
            let mut d = Delta::from_sets(
                HashSet::from([t.clone(), tuple![9]]),
                HashSet::from([t.clone()]),
            );
            assert!(!d.is_non_contradictory());
            d.normalize_against(database.relation("r1").unwrap());
            assert!(d.is_non_contradictory());
            assert!(!d.insertions.contains(&t), "{t} fabricated an insert");
            assert!(!d.deletions.contains(&t), "{t} fabricated a delete");
            assert!(d.insertions.contains(&tuple![9]), "bystander survives");
        }
    }

    #[test]
    fn normalized_deltas_replay_idempotently() {
        // The WAL contract end to end at the store level: applying a
        // normalized delta, then re-normalizing + re-applying the same
        // delta against the updated relation, changes nothing.
        let mut database = db(); // r1 = {1, 2}
        let mut d = Delta::new();
        d.push_insert(tuple![9]);
        d.push_delete(tuple![2]);
        d.push_delete(tuple![42]); // no-effect delete
        d.normalize_against(database.relation("r1").unwrap());
        let mut ds = DeltaSet::new();
        for t in &d.insertions {
            ds.insert("r1", t.clone());
        }
        for t in &d.deletions {
            ds.delete("r1", t.clone());
        }
        ds.apply_to(&mut database).unwrap();
        let after_first: Vec<_> = {
            let mut v: Vec<_> = database.relation("r1").unwrap().iter().cloned().collect();
            v.sort();
            v
        };
        // Replay: re-normalize against the new state (what the engine's
        // apply path does) and apply again.
        let mut replay = d.clone();
        replay.normalize_against(database.relation("r1").unwrap());
        assert!(replay.is_empty(), "replay of an applied delta is a no-op");
        let after_second: Vec<_> = {
            let mut v: Vec<_> = database.relation("r1").unwrap().iter().cloned().collect();
            v.sort();
            v
        };
        assert_eq!(after_first, after_second);
    }

    #[test]
    fn empty_delta_set_is_noop() {
        let mut database = db();
        let before: Vec<usize> = ["r1", "r2"]
            .iter()
            .map(|n| database.relation(n).unwrap().len())
            .collect();
        DeltaSet::new().apply_to(&mut database).unwrap();
        let after: Vec<usize> = ["r1", "r2"]
            .iter()
            .map(|n| database.relation(n).unwrap().len())
            .collect();
        assert_eq!(before, after);
    }
}
