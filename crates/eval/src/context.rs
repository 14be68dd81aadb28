//! Evaluation context: a base database plus an overlay of temporary
//! relations, plus a plan cache.
//!
//! The putback transformation evaluates over the *pair* `(S, V)` of source
//! database and (updated) view (paper §3.1); the engine additionally feeds
//! view deltas `+v` / `-v` to incremental programs. Rather than copying
//! multi-million-tuple base relations into a scratch database for every
//! view update, the context overlays small temporary relations (updated
//! view, view deltas, intermediate IDB results) on top of a borrowed base
//! database. Lookups hit the overlay first; the base is only mutated to
//! build indexes.
//!
//! A stored relation can also be read through a pending [`Delta`]
//! ([`EvalContext::patch`]), so the engine derives a commit without
//! writing it first.
//!
//! Rule plans are served through the context as well ([`EvalContext::plan_for`]).
//! A context created with [`EvalContext::new`] owns a private [`PlanCache`]
//! (one-shot work such as materializing a view); the engine instead lends
//! the cache of the view being updated via [`EvalContext::with_plan_cache`],
//! so repeated updates replay that view's plans. Whether a cached plan is
//! still good is decided here, not by callers: the evaluator compares the
//! stored relations a rule reads against the sizes its plan was costed at
//! and re-plans on drift ([`crate::plan::RulePlan::drifted`]).

use crate::error::{EvalError, EvalResult};
use crate::plan::{plan_rule, PlanCache, RulePlan};
use birds_datalog::Rule;
use birds_store::{Database, Delta, FxHashSet, Relation, StoreResult, Tuple, Value};
use std::cell::OnceCell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::sync::{Arc, Mutex};

/// A relation as evaluation reads it: its own tuples, or `base − del ∪ ins`
/// for a patched one ([`EvalContext::patch`]), whose delta is normalized
/// against `base`, so each tuple is yielded once.
#[derive(Clone, Copy)]
pub struct RelRef<'r> {
    base: &'r Relation,
    patch: Option<&'r Sides>,
}

/// Iterator over the tuples a [`RelRef`] yields.
pub type Tuples<'r> = Box<dyn Iterator<Item = &'r Tuple> + 'r>;

impl<'r> RelRef<'r> {
    /// A read of a patched relation: the base side minus `del`, then `ins`.
    fn patched(
        del: &'r FxHashSet<Tuple>,
        from_base: Tuples<'r>,
        from_ins: Tuples<'r>,
    ) -> Tuples<'r> {
        if del.is_empty() {
            return Box::new(from_base.chain(from_ins));
        }
        Box::new(from_base.filter(move |t| !del.contains(*t)).chain(from_ins))
    }

    /// Arity of every tuple.
    pub fn arity(&self) -> usize {
        self.base.arity()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        let pending = self
            .patch
            .map_or(0, |p| p.ins.len() as isize - p.del.len() as isize);
        self.base.len().saturating_add_signed(pending)
    }

    /// `true` when no tuple is visible.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test by field slice.
    pub fn contains_row(&self, row: &[Value]) -> bool {
        match self.patch {
            None => self.base.contains_row(row),
            Some(Sides { del, .. }) if self.base.contains_row(row) => !del.contains(row),
            Some(Sides { ins, .. }) => ins.contains_row(row),
        }
    }

    /// Every visible tuple.
    pub fn iter(&self) -> Tuples<'r> {
        let base = Box::new(self.base.iter());
        match self.patch {
            None => base,
            Some(Sides { ins, del }) => Self::patched(del, base, Box::new(ins.iter())),
        }
    }

    /// Visible tuples whose projection on `cols` equals `key` (see
    /// [`Relation::probe`]).
    pub fn probe(&self, cols: &[usize], key: &[Value]) -> Tuples<'r> {
        let base = self.base.probe(cols, key);
        match self.patch {
            None => base,
            Some(Sides { ins, del }) => Self::patched(del, base, ins.probe(cols, key)),
        }
    }

    /// Visible tuples whose `col` falls within `(lo, hi)`; `None` when a
    /// side cannot answer from an ordered index (see
    /// [`Relation::range_probe`]).
    pub fn range_probe(
        &self,
        col: usize,
        lo: Bound<Value>,
        hi: Bound<Value>,
    ) -> Option<Tuples<'r>> {
        let base = self.base.range_probe(col, lo, hi)?;
        Some(match self.patch {
            None => base,
            Some(Sides { ins, del }) => Self::patched(del, base, ins.range_probe(col, lo, hi)?),
        })
    }
}

/// A pending delta a stored relation is read through, copied into
/// [`Sides`] on the relation's first read.
struct Patch<'a> {
    name: &'a str,
    delta: &'a Delta,
    sides: OnceCell<Sides>,
}

/// `Δ⁺` as an indexable relation, `Δ⁻` as a set with the store's hash.
struct Sides {
    ins: Relation,
    del: FxHashSet<Tuple>,
}

impl Patch<'_> {
    /// The sides over `base`, leaving out insertions of another arity: no
    /// read of `base` can match them, and `DeltaSet::apply_to` rejects them.
    fn sides(&self, base: &Relation) -> &Sides {
        self.sides.get_or_init(|| {
            let mut ins = Relation::new(base.name(), base.arity());
            for t in &self.delta.insertions {
                ins.insert(t.clone()).ok();
            }
            let del = self.delta.deletions.iter().cloned().collect();
            Sides { ins, del }
        })
    }
}

/// A base database with temporary overlay relations and a plan cache.
pub struct EvalContext<'a> {
    base: &'a mut Database,
    overlay: BTreeMap<String, Relation>,
    patches: Vec<Patch<'a>>,
    /// The caller's plan cache, if it lent one, else `own_plans`.
    shared_plans: Option<&'a mut PlanCache>,
    own_plans: PlanCache,
    /// When set, every relation name resolved through this context is
    /// recorded into the sink — the ground truth that the engine's
    /// *declared* dependency footprints are tested against.
    read_trace: Option<&'a Mutex<BTreeSet<String>>>,
}

impl<'a> EvalContext<'a> {
    /// Wrap a base database with an empty overlay and a fresh private
    /// plan cache.
    pub fn new(base: &'a mut Database) -> Self {
        EvalContext {
            base,
            overlay: BTreeMap::new(),
            patches: Vec::new(),
            shared_plans: None,
            own_plans: PlanCache::new(),
            read_trace: None,
        }
    }

    /// Wrap a base database, sharing a caller-owned plan cache. Plans
    /// compiled through this context persist in `cache` after the context
    /// is dropped — this is how the engine amortizes planning across view
    /// updates.
    pub fn with_plan_cache(base: &'a mut Database, cache: &'a mut PlanCache) -> Self {
        EvalContext {
            shared_plans: Some(cache),
            ..EvalContext::new(base)
        }
    }

    /// Record every relation name this context resolves into `sink`.
    /// Diagnostic-only (used by the footprint conformance tests); the
    /// `None` fast path costs one branch per lookup.
    pub fn trace_reads_into(&mut self, sink: &'a Mutex<BTreeSet<String>>) {
        self.read_trace = Some(sink);
    }

    /// The compiled plan for `rule`: the cached one unless a stored
    /// relation it reads has drifted, planned (and cached) otherwise —
    /// the plan evaluating `rule` here would run.
    pub fn plan_for(&mut self, rule: &Rule) -> EvalResult<Arc<RulePlan>> {
        let cached = self.cached_plan(rule).filter(|plan| {
            !rule.body.iter().enumerate().any(|(i, lit)| {
                lit.atom()
                    .and_then(|a| self.relation(&a.pred.flat_name()).ok())
                    .is_some_and(|rel| plan.drifted(i, rel.len()))
            })
        });
        self.cached_or_planned(rule, cached)
    }

    /// The cached plan for `rule`, if any (not counted as a lookup).
    pub(crate) fn cached_plan(&self, rule: &Rule) -> Option<Arc<RulePlan>> {
        self.shared_plans
            .as_deref()
            .unwrap_or(&self.own_plans)
            .get(rule)
    }

    /// `cached` as a cache hit, or — when it is `None` (never planned, or
    /// rejected as drifted) — a fresh plan for `rule`, cached as a miss.
    pub(crate) fn cached_or_planned(
        &mut self,
        rule: &Rule,
        cached: Option<Arc<RulePlan>>,
    ) -> EvalResult<Arc<RulePlan>> {
        if let Some(plan) = cached {
            self.plans_mut().hit();
            return Ok(plan);
        }
        let plan = Arc::new(plan_rule(rule, self)?);
        self.plans_mut().insert(rule, plan.clone());
        Ok(plan)
    }

    fn plans_mut(&mut self) -> &mut PlanCache {
        self.shared_plans
            .as_deref_mut()
            .unwrap_or(&mut self.own_plans)
    }

    /// Insert (or replace) an overlay relation under its own name.
    /// Overlay relations shadow base relations of the same name.
    pub fn insert_overlay(&mut self, rel: Relation) {
        self.overlay.insert(rel.name().to_owned(), rel);
    }

    /// Read the stored relation `name` as `base − Δ⁻ ∪ Δ⁺`, for a `delta`
    /// normalized against it, once per relation. The base is not touched;
    /// the planner costs and indexes the patched relation as the stored one.
    pub fn patch(&mut self, name: &'a str, delta: &'a Delta) {
        let sides = OnceCell::new();
        self.patches.push(Patch { name, delta, sides });
    }

    /// Look up a relation: overlay first, then base (through its patch).
    pub fn relation(&self, name: &str) -> EvalResult<RelRef<'_>> {
        if let Some(sink) = self.read_trace {
            if let Ok(mut reads) = sink.lock() {
                reads.insert(name.to_owned());
            }
        }
        let found = match self.overlay.get(name) {
            Some(base) => Some(RelRef { base, patch: None }),
            None => self.stored(name),
        };
        found.ok_or_else(|| EvalError::UnknownRelation(name.to_owned()))
    }

    /// The pending insertions of `name`, once its first read built them
    /// (the evaluator reads a rule's relations before it indexes them).
    fn pending_insertions(&mut self, name: &str) -> Option<&mut Relation> {
        let patch = self.patches.iter_mut().find(|p| p.name == name)?;
        patch.sides.get_mut().map(|sides| &mut sides.ins)
    }

    /// The stored relation `name`, read through its patch if it has one.
    fn stored(&self, name: &str) -> Option<RelRef<'_>> {
        let base = self.base.relation(name)?;
        Some(RelRef {
            base,
            patch: self
                .patches
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.sides(base)),
        })
    }

    /// Ensure a hash index over `cols` exists on the named relation
    /// (wherever it lives, a patched relation's insertions included).
    pub fn ensure_index(&mut self, name: &str, cols: &[usize]) -> StoreResult<()> {
        if let Some(rel) = self.overlay.get_mut(name) {
            return rel.ensure_index(cols);
        }
        if let Some(ins) = self.pending_insertions(name) {
            ins.ensure_index(cols)?;
        }
        if let Some(rel) = self.base.relation_mut(name) {
            return rel.ensure_index(cols);
        }
        Ok(()) // unknown relations are reported later by the evaluator
    }

    /// Ensure an ordered index over `col` exists on the named relation —
    /// the range-scan analogue of [`EvalContext::ensure_index`], with one
    /// difference: overlay relations (view deltas, updated views, IDB
    /// strata) are per-evaluation temporaries, so building a tree over
    /// one would cost more than the single scan it replaces. Range
    /// probes against an overlay find no ordered index and take the
    /// evaluator's residual-filter fallback instead — same results,
    /// no per-update O(n log n) index build. A patched relation is stored.
    pub fn ensure_ordered_index(&mut self, name: &str, col: usize) -> StoreResult<()> {
        if self.overlay.contains_key(name) {
            return Ok(());
        }
        if let Some(ins) = self.pending_insertions(name) {
            ins.ensure_ordered_index(col)?;
        }
        if let Some(rel) = self.base.relation_mut(name) {
            return rel.ensure_ordered_index(col);
        }
        Ok(()) // unknown relations are reported later by the evaluator
    }

    /// Distinct-key count of an existing index over `col` on the named
    /// relation (the planner's selectivity input); `None` when the
    /// relation is unknown or the column has no index yet.
    pub fn relation_ndv(&self, name: &str, col: usize) -> Option<usize> {
        self.overlay
            .get(name)
            .or_else(|| self.base.relation(name))
            .and_then(|rel| rel.distinct_keys(&[col]))
    }

    /// Remove and return an overlay relation.
    pub fn take_overlay(&mut self, name: &str) -> Option<Relation> {
        self.overlay.remove(name)
    }

    /// Size of the named *stored* relation: `None` when the name is an
    /// overlay (or unknown). What a plan records as the sizes it was
    /// costed against.
    pub(crate) fn stored_len(&self, name: &str) -> Option<usize> {
        if self.overlay.contains_key(name) {
            return None;
        }
        self.stored(name).map(|rel| rel.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::tuple;

    #[test]
    fn overlay_shadows_base() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("v", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert_eq!(ctx.relation("v").unwrap().len(), 1);
        ctx.insert_overlay(Relation::with_tuples("v", 1, vec![tuple![2], tuple![3]]).unwrap());
        assert_eq!(ctx.relation("v").unwrap().len(), 2);
        let taken = ctx.take_overlay("v").unwrap();
        assert_eq!(taken.len(), 2);
        assert_eq!(ctx.relation("v").unwrap().len(), 1, "base visible again");
    }

    #[test]
    fn ensure_index_reaches_base_and_overlay() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 2, vec![tuple![1, 2]]).unwrap())
            .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        ctx.insert_overlay(Relation::with_tuples("t", 2, vec![tuple![3, 4]]).unwrap());
        ctx.ensure_index("r", &[0]).unwrap();
        ctx.ensure_index("t", &[1]).unwrap();
        assert!(ctx.relation_ndv("r", 0).is_some(), "index on r(0)");
        assert!(ctx.relation_ndv("t", 1).is_some(), "index on t(1)");
    }

    #[test]
    fn owned_cache_reuses_plans_within_context() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let rule = birds_datalog::parse_rule("h(X) :- r(X).").unwrap();
        let p1 = ctx.plan_for(&rule).unwrap();
        let p2 = ctx.plan_for(&rule).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn a_patched_relation_reads_base_minus_deletions_plus_insertions() {
        let mut db = Database::new();
        let rows = (1..=4_i64).map(|i| tuple![i, i * 10]);
        db.add_relation(Relation::with_tuples("r", 2, rows).unwrap())
            .unwrap();
        let mut delta = Delta::new();
        delta.push_delete(tuple![2, 20]);
        delta.push_insert(tuple![5, 20]);
        let sorted = |tuples: Tuples| {
            let mut v: Vec<Tuple> = tuples.cloned().collect();
            v.sort();
            v
        };
        {
            let mut ctx = EvalContext::new(&mut db);
            ctx.patch("r", &delta);
            let r = ctx.relation("r").unwrap();
            assert_eq!(r.len(), 4);
            assert!(r.contains_row(&[Value::int(5), Value::int(20)]));
            assert!(!r.contains_row(&[Value::int(2), Value::int(20)]));
            let all = [tuple![1, 10], tuple![3, 30], tuple![4, 40], tuple![5, 20]];
            assert_eq!(sorted(r.iter()), all);
            ctx.ensure_index("r", &[1]).unwrap();
            ctx.ensure_ordered_index("r", 0).unwrap();
            let r = ctx.relation("r").unwrap();
            assert_eq!(sorted(r.probe(&[1], &[Value::int(20)])), [tuple![5, 20]]);
            let (lo, hi) = (Bound::Included(Value::int(2)), Bound::Unbounded);
            let range = r.range_probe(0, lo, hi).expect("both sides are indexed");
            assert_eq!(sorted(range), [tuple![3, 30], tuple![4, 40], tuple![5, 20]]);
        }
        assert_eq!(db.relation("r").unwrap().len(), 4, "the base is untouched");
        assert!(db.relation("r").unwrap().contains(&tuple![2, 20]));
    }
}
