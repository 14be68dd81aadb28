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
//! Rule plans are served through the context as well ([`EvalContext::plan_for`]).
//! A context created with [`EvalContext::new`] owns a private [`PlanCache`]
//! (one-shot work such as materializing a view); the engine instead lends
//! the cache of the view being updated via [`EvalContext::with_plan_cache`],
//! so repeated updates replay that view's plans. Whether a cached plan is
//! still good is decided here, not by callers: the evaluator compares the
//! stored relations a rule reads against the sizes its plan was costed at
//! and re-plans on drift ([`crate::plan::RulePlan::drifted`]).

use crate::error::EvalResult;
use crate::plan::{plan_rule, PlanCache, RulePlan};
use birds_datalog::Rule;
use birds_store::{Database, Relation, StoreResult};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Owned-or-borrowed plan cache backing a context.
enum Plans<'a> {
    Owned(PlanCache),
    Shared(&'a mut PlanCache),
}

/// A base database with temporary overlay relations and a plan cache.
pub struct EvalContext<'a> {
    base: &'a mut Database,
    overlay: BTreeMap<String, Relation>,
    plans: Plans<'a>,
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
            plans: Plans::Owned(PlanCache::new()),
            read_trace: None,
        }
    }

    /// Wrap a base database, sharing a caller-owned plan cache. Plans
    /// compiled through this context persist in `cache` after the context
    /// is dropped — this is how the engine amortizes planning across view
    /// updates.
    pub fn with_plan_cache(base: &'a mut Database, cache: &'a mut PlanCache) -> Self {
        EvalContext {
            base,
            overlay: BTreeMap::new(),
            plans: Plans::Shared(cache),
            read_trace: None,
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
                    .and_then(|a| self.relation_len(&a.pred.flat_name()))
                    .is_some_and(|len| plan.drifted(i, len))
            })
        });
        self.cached_or_planned(rule, cached)
    }

    /// The cached plan for `rule`, if any (not counted as a lookup).
    pub(crate) fn cached_plan(&self, rule: &Rule) -> Option<Arc<RulePlan>> {
        match &self.plans {
            Plans::Owned(c) => c.get(rule),
            Plans::Shared(c) => c.get(rule),
        }
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
        match &mut self.plans {
            Plans::Owned(c) => c,
            Plans::Shared(c) => c,
        }
    }

    /// Insert (or replace) an overlay relation under its own name.
    /// Overlay relations shadow base relations of the same name.
    pub fn insert_overlay(&mut self, rel: Relation) {
        self.overlay.insert(rel.name().to_owned(), rel);
    }

    /// Look up a relation: overlay first, then base.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        if let Some(sink) = self.read_trace {
            if let Ok(mut reads) = sink.lock() {
                reads.insert(name.to_owned());
            }
        }
        self.overlay.get(name).or_else(|| self.base.relation(name))
    }

    /// `true` if the name resolves to an overlay or base relation.
    pub fn contains(&self, name: &str) -> bool {
        self.overlay.contains_key(name) || self.base.contains_relation(name)
    }

    /// Ensure a hash index over `cols` exists on the named relation
    /// (wherever it lives).
    pub fn ensure_index(&mut self, name: &str, cols: &[usize]) -> StoreResult<()> {
        if let Some(rel) = self.overlay.get_mut(name) {
            return rel.ensure_index(cols);
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
    /// no per-update O(n log n) index build.
    pub fn ensure_ordered_index(&mut self, name: &str, col: usize) -> StoreResult<()> {
        if self.overlay.contains_key(name) {
            return Ok(());
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

    /// Size of the named relation, if it exists (used by the join
    /// planner's greedy ordering).
    pub fn relation_len(&self, name: &str) -> Option<usize> {
        self.relation(name).map(Relation::len)
    }

    /// Size of the named *stored* relation: `None` when the name is an
    /// overlay (or unknown). What a plan records as the sizes it was
    /// costed against.
    pub(crate) fn stored_len(&self, name: &str) -> Option<usize> {
        if self.overlay.contains_key(name) {
            return None;
        }
        self.base.relation(name).map(Relation::len)
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
        assert!(ctx.relation("r").unwrap().has_index(&[0]));
        assert!(ctx.relation("t").unwrap().has_index(&[1]));
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
}
