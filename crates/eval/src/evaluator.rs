//! Stratified bottom-up execution of compiled (slot-based) rule plans.
//!
//! Rules are compiled by [`crate::plan`] into steps whose operands are
//! numeric register slots; execution runs over a flat `Vec<Option<Value>>`
//! frame. There is no string-keyed binding map, no per-candidate tuple
//! cloning (probe results are borrowed straight out of the store), and no
//! per-call replanning — plans come from the context's [`crate::PlanCache`]
//! and are re-planned only when a stored relation they read has drifted.

use crate::context::{EvalContext, RelRef, Tuples};
use crate::error::{EvalError, EvalResult};
use crate::plan::{AtomStep, HeadTerm, RangeGuard, RulePlan, SlotTerm, StepOp};
use birds_datalog::{check_nonrecursive, stratify, CmpOp, Head, PredRef, Program, Rule};
use birds_store::{FxHashSet, Relation, Tuple, Value};
use std::collections::{BTreeMap, HashSet};
use std::ops::Bound;

/// The IDB relations produced by a program run.
#[derive(Debug, Default)]
pub struct EvalOutput {
    /// One relation per IDB predicate, keyed by predicate reference.
    pub relations: BTreeMap<PredRef, Relation>,
}

impl EvalOutput {
    /// The relation of predicate `p`, if the program defined it.
    pub fn relation(&self, p: &PredRef) -> Option<&Relation> {
        self.relations.get(p)
    }
}

/// Evaluate a non-recursive program: compute every IDB relation bottom-up
/// in stratification order. Constraint (`⊥`) rules are ignored here — use
/// [`violated_constraints`].
pub fn evaluate_program(program: &Program, ctx: &mut EvalContext) -> EvalResult<EvalOutput> {
    check_nonrecursive(program).map_err(|e| EvalError::BadProgram(e.to_string()))?;
    let order = stratify(program).map_err(|e| EvalError::BadProgram(e.to_string()))?;

    for pred in &order {
        let arity = program
            .arity_of(pred)
            .ok_or_else(|| EvalError::BadProgram(format!("no arity for {pred}")))?;
        let mut result: FxHashSet<Tuple> = FxHashSet::default();
        for rule in program.rules_for(pred) {
            eval_rule_into(rule, ctx, &mut result)?;
        }
        let rel = Relation::from_set(pred.flat_name(), arity, result)?;
        ctx.insert_overlay(rel);
    }

    // Move results out of the overlay.
    let mut out = EvalOutput::default();
    for pred in &order {
        if let Some(rel) = ctx.take_overlay(&pred.flat_name()) {
            out.relations.insert(pred.clone(), rel);
        }
    }
    Ok(out)
}

/// Evaluate a program and return only the relation of `pred`.
pub fn evaluate_query(
    program: &Program,
    pred: &PredRef,
    ctx: &mut EvalContext,
) -> EvalResult<Relation> {
    let mut out = evaluate_program(program, ctx)?;
    out.relations
        .remove(pred)
        .ok_or_else(|| EvalError::BadProgram(format!("program does not define {pred}")))
}

/// Evaluate the program's integrity constraints: returns every `⊥` rule
/// whose body is satisfiable in the current context. IDB relations the
/// constraints depend on are computed first (and left in the overlay).
/// Each constraint check stops at its *first* witness — nothing is
/// materialized just to test non-emptiness.
pub fn violated_constraints(program: &Program, ctx: &mut EvalContext) -> EvalResult<Vec<Rule>> {
    // Materialize IDB support (e.g. a constraint over an intermediate
    // predicate).
    let out = evaluate_program(program, ctx)?;
    for (_, rel) in out.relations {
        ctx.insert_overlay(rel);
    }
    let mut violated = Vec::new();
    for rule in program.constraints() {
        if rule_has_witness(rule, ctx)? {
            violated.push(rule.clone());
        }
    }
    Ok(violated)
}

/// Does `rule`'s body have at least one satisfying assignment? Execution
/// unwinds at the first derivation; no result set is built. This is the
/// primitive behind constraint checking.
pub fn rule_has_witness(rule: &Rule, ctx: &mut EvalContext) -> EvalResult<bool> {
    let mut found = false;
    eval_rule(rule, ctx, &mut |_t| {
        found = true;
        false // stop
    })?;
    Ok(found)
}

/// Evaluate one rule, inserting derived head tuples into `out`. (To test
/// satisfiability without materializing results, use [`rule_has_witness`].)
pub fn eval_rule_into<S: std::hash::BuildHasher>(
    rule: &Rule,
    ctx: &mut EvalContext,
    out: &mut HashSet<Tuple, S>,
) -> EvalResult<()> {
    eval_rule(rule, ctx, &mut |t| {
        out.insert(t);
        true
    })
}

/// Core rule execution: feed every derived head tuple to `sink` until the
/// sink returns `false` (stop) or derivations are exhausted.
fn eval_rule(
    rule: &Rule,
    ctx: &mut EvalContext,
    sink: &mut dyn FnMut(Tuple) -> bool,
) -> EvalResult<()> {
    // Facts: ground head, empty body.
    if rule.body.is_empty() {
        match &rule.head {
            Head::Atom(a) => {
                let t: Option<Vec<Value>> = a.terms.iter().map(|t| t.as_const().copied()).collect();
                let t = t.ok_or_else(|| EvalError::UnsafeRule {
                    rule: rule.to_string(),
                    variable: "head of fact".into(),
                })?;
                sink(Tuple::new(t));
            }
            Head::Bottom => {
                // `⊥.` — an always-violated constraint; represent by a
                // nullary witness.
                sink(Tuple::new(vec![]));
            }
        }
        return Ok(());
    }

    // Validate arities of all body atoms up front. The same pass drops a
    // cached plan whose stored relations drifted from its costed sizes.
    let mut cached = ctx.cached_plan(rule);
    for (i, lit) in rule.body.iter().enumerate() {
        if let Some(a) = lit.atom() {
            let flat = a.pred.flat_name();
            let rel = ctx.relation(&flat)?;
            if rel.arity() != a.arity() {
                return Err(EvalError::ArityMismatch {
                    relation: flat,
                    expected: rel.arity(),
                    found: a.arity(),
                });
            }
            if cached.as_ref().is_some_and(|p| p.drifted(i, rel.len())) {
                cached = None;
            }
        }
    }

    let plan = ctx.cached_or_planned(rule, cached)?;
    for (name, cols) in &plan.index_requests {
        ctx.ensure_index(name, cols)?;
    }
    for (name, col) in &plan.ordered_requests {
        ctx.ensure_ordered_index(name, *col)?;
    }
    let mut frame: Vec<Option<Value>> = vec![None; plan.nslots];
    // One probe-key scratch buffer for the whole rule execution: filled,
    // consumed by the store call, and cleared at every atom step instead
    // of allocating a key vector per candidate tuple.
    let mut scratch: Vec<Value> = Vec::new();
    step(rule, &plan, 0, ctx, &mut frame, &mut scratch, sink)?;
    Ok(())
}

/// Resolve a compiled operand against the frame. Slots referenced by a
/// plan are bound before they are read — the planner places every step
/// after the steps that bind its operands.
#[inline]
fn resolve(t: &SlotTerm, frame: &[Option<Value>]) -> Value {
    match t {
        SlotTerm::Const(v) => *v,
        SlotTerm::Slot(s) => frame[*s].expect("slot bound by an earlier step"),
    }
}

/// Instantiate the compiled head template from the frame.
fn emit(
    rule: &Rule,
    plan: &RulePlan,
    frame: &[Option<Value>],
    sink: &mut dyn FnMut(Tuple) -> bool,
) -> EvalResult<bool> {
    let tuple = match &plan.head {
        None => Tuple::new(vec![]),
        Some(terms) => {
            let mut vals = Vec::with_capacity(terms.len());
            for t in terms {
                match t {
                    HeadTerm::Const(v) => vals.push(*v),
                    HeadTerm::Slot(s) => {
                        vals.push(frame[*s].expect("head slots bound by the body"))
                    }
                    HeadTerm::Unbound(name) => {
                        return Err(EvalError::UnsafeRule {
                            rule: rule.to_string(),
                            variable: name.clone(),
                        })
                    }
                }
            }
            Tuple::new(vals)
        }
    };
    Ok(sink(tuple))
}

/// Fill `scratch` with the probe key for an atom step. Leaves it empty
/// when the step scans (no bound columns).
#[inline]
fn fill_probe_key(a: &AtomStep, frame: &[Option<Value>], scratch: &mut Vec<Value>) {
    scratch.clear();
    scratch.extend(a.probe_key.iter().map(|t| resolve(t, frame)));
}

/// Existence test for a (possibly partially anonymous) atom with all
/// named variables bound.
fn atom_exists(
    a: &AtomStep,
    rel: RelRef,
    frame: &[Option<Value>],
    scratch: &mut Vec<Value>,
) -> bool {
    if a.probe_cols.is_empty() {
        return !rel.is_empty();
    }
    fill_probe_key(a, frame, scratch);
    if a.full_probe {
        // Every position bound -> plain set membership, straight off the
        // scratch slice (no Tuple allocation).
        return rel.contains_row(scratch);
    }
    rel.probe(&a.probe_cols, scratch).next().is_some()
}

/// Fold resolved range guards into one interval over the guarded
/// column. Returns `None` when the bounds don't all share one sort —
/// the caller must fall back to per-tuple filtering so the cross-sort
/// comparison surfaces as the runtime error it is.
fn guard_interval(resolved: &[(CmpOp, Value)]) -> Option<(Bound<Value>, Bound<Value>)> {
    let mut lo: Bound<Value> = Bound::Unbounded;
    let mut hi: Bound<Value> = Bound::Unbounded;
    for &(op, v) in resolved {
        match op {
            CmpOp::Gt => tighten(&mut lo, Bound::Excluded(v), true)?,
            CmpOp::Ge => tighten(&mut lo, Bound::Included(v), true)?,
            CmpOp::Lt => tighten(&mut hi, Bound::Excluded(v), false)?,
            CmpOp::Le => tighten(&mut hi, Bound::Included(v), false)?,
            CmpOp::Eq => unreachable!("range guards are order comparisons"),
        }
    }
    Some((lo, hi))
}

/// Keep the stricter of `cur` and a finite `new` bound: the greater
/// lower bound / smaller upper bound, with exclusion winning value
/// ties. `None` on a cross-sort pair.
fn tighten(cur: &mut Bound<Value>, new: Bound<Value>, lower: bool) -> Option<()> {
    let (Bound::Included(n) | Bound::Excluded(n)) = new else {
        unreachable!("guards always carry a finite bound")
    };
    match &*cur {
        Bound::Unbounded => *cur = new,
        Bound::Included(c) | Bound::Excluded(c) => match c.same_sort_cmp(&n)? {
            std::cmp::Ordering::Less => {
                if lower {
                    *cur = new;
                }
            }
            std::cmp::Ordering::Greater => {
                if !lower {
                    *cur = new;
                }
            }
            std::cmp::Ordering::Equal => {
                if matches!(new, Bound::Excluded(_)) {
                    *cur = new;
                }
            }
        },
    }
    Some(())
}

/// Recursive execution of plan steps. Returns `Ok(true)` to continue
/// enumerating derivations, `Ok(false)` once the sink asks to stop.
#[allow(clippy::too_many_arguments)]
fn step(
    rule: &Rule,
    plan: &RulePlan,
    idx: usize,
    ctx: &EvalContext,
    frame: &mut Vec<Option<Value>>,
    scratch: &mut Vec<Value>,
    sink: &mut dyn FnMut(Tuple) -> bool,
) -> EvalResult<bool> {
    let Some(s) = plan.steps.get(idx) else {
        return emit(rule, plan, frame, sink);
    };
    // An atom step yields candidate tuples, plus the guards on column
    // `col` each must still pass (a range scan's filter fallback).
    let (a, matches, col, filters): (_, Tuples, _, Vec<(CmpOp, Value)>) = match &s.op {
        StepOp::Scan(a) => {
            let rel = ctx.relation(&a.rel)?;
            if a.probe_cols.is_empty() {
                (a, rel.iter(), 0, Vec::new())
            } else {
                fill_probe_key(a, frame, scratch);
                (a, rel.probe(&a.probe_cols, scratch), 0, Vec::new())
            }
        }
        StepOp::RangeScan {
            atom: a,
            col,
            guards,
        } => {
            let rel = ctx.relation(&a.rel)?;
            // Bounds resolve once per activation (they are constants or
            // slots bound before this scan).
            let resolved: Vec<(CmpOp, Value)> = guards
                .iter()
                .map(|g: &RangeGuard| (g.op, resolve(&g.bound, frame)))
                .collect();
            // `range_probe` answers only from a sort-homogeneous ordered
            // index matching the bounds' sort: every yielded tuple then
            // satisfies all guards by construction, and no comparison can
            // sort-error. Anything else scans and applies the guards per
            // tuple after the intra-atom checks, in guard order — exactly
            // the residual Compare steps of the un-pushed plan, including
            // their cross-sort errors.
            match guard_interval(&resolved).and_then(|(lo, hi)| rel.range_probe(*col, lo, hi)) {
                Some(matches) => (a, matches, *col, Vec::new()),
                None => (a, rel.iter(), *col, resolved),
            }
        }
        StepOp::Check { atom: a, negated } => {
            let rel = ctx.relation(&a.rel)?;
            if atom_exists(a, rel, frame, scratch) == *negated {
                return Ok(true);
            }
            return step(rule, plan, idx + 1, ctx, frame, scratch, sink);
        }
        StepOp::Compare {
            op,
            left,
            right,
            negated,
        } => {
            let lv = resolve(left, frame);
            let rv = resolve(right, frame);
            let res = op.eval(&lv, &rv).ok_or_else(|| EvalError::SortMismatch {
                rule: rule.to_string(),
                detail: format!("{lv} {} {rv}", op.symbol()),
            })?;
            if res == *negated {
                return Ok(true);
            }
            return step(rule, plan, idx + 1, ctx, frame, scratch, sink);
        }
        StepOp::Assign { slot, value } => {
            frame[*slot] = Some(resolve(value, frame));
            return step(rule, plan, idx + 1, ctx, frame, scratch, sink);
        }
    };
    // Fresh binds are overwritten on every candidate and only read by
    // deeper steps, so no unbinding happens on backtrack.
    'tuples: for tuple in matches {
        for &(c, slot) in &a.bind {
            frame[slot] = Some(tuple[c]);
        }
        for &(c, slot) in &a.check {
            if frame[slot] != Some(tuple[c]) {
                continue 'tuples;
            }
        }
        for &(op, bound) in &filters {
            let cv = tuple[col];
            let res = op
                .eval(&cv, &bound)
                .ok_or_else(|| EvalError::SortMismatch {
                    rule: rule.to_string(),
                    detail: format!("{cv} {} {bound}", op.symbol()),
                })?;
            if !res {
                continue 'tuples;
            }
        }
        if !step(rule, plan, idx + 1, ctx, frame, scratch, sink)? {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_datalog::parse_program;
    use birds_store::{tuple, Database};

    fn setup() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
        db.add_relation(
            Relation::with_tuples("v", 1, vec![tuple![1], tuple![3], tuple![4]]).unwrap(),
        )
        .unwrap();
        db
    }

    #[test]
    fn example_3_1_delta_computation() {
        // The paper's running example: S = {r1(1), r2(2), r2(4)},
        // V' = {1,3,4} must yield ΔR1 = {+r1(3)}, ΔR2 = {-r2(2)}.
        let program = parse_program(
            "
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            ",
        )
        .unwrap();
        let mut db = setup();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let plus_r1 = out.relation(&PredRef::ins("r1")).unwrap();
        assert_eq!(plus_r1.len(), 1);
        assert!(plus_r1.contains(&tuple![3]));
        let minus_r2 = out.relation(&PredRef::del("r2")).unwrap();
        assert_eq!(minus_r2.len(), 1);
        assert!(minus_r2.contains(&tuple![2]));
        let minus_r1 = out.relation(&PredRef::del("r1")).unwrap();
        assert!(minus_r1.is_empty());
    }

    #[test]
    fn multi_stratum_evaluation() {
        let program = parse_program(
            "
            m(X) :- r2(X), X > 2.
            h(X) :- m(X), v(X).
            ",
        )
        .unwrap();
        let mut db = setup();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let h = out.relation(&PredRef::plain("h")).unwrap();
        assert_eq!(h.len(), 1);
        assert!(h.contains(&tuple![4]));
    }

    #[test]
    fn selection_with_string_comparison() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "p",
                2,
                vec![
                    tuple!["ann", "1961-05-05"],
                    tuple!["bob", "1962-06-07"],
                    tuple!["joe", "1963-01-01"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let program =
            parse_program("b62(E, B) :- p(E, B), not B < '1962-01-01', not B > '1962-12-31'.")
                .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let r = out.relation(&PredRef::plain("b62")).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple!["bob", "1962-06-07"]));
    }

    #[test]
    fn anonymous_variable_semantics() {
        // retired(E) :- p(E,_), not q(E,_) — anonymous positions are
        // inner existentials on both polarities.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("p", 2, vec![tuple![1, 10], tuple![2, 20]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("q", 2, vec![tuple![1, 99]]).unwrap())
            .unwrap();
        let program = parse_program("retired(E) :- p(E, _), not q(E, _).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let r = out.relation(&PredRef::plain("retired")).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![2]));
    }

    #[test]
    fn repeated_variables_in_atoms() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("e", 2, vec![tuple![1, 1], tuple![1, 2]]).unwrap())
            .unwrap();
        let program = parse_program("diag(X) :- e(X, X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let r = out.relation(&PredRef::plain("diag")).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.contains(&tuple![1]));
    }

    #[test]
    fn head_constants_are_emitted() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("f", 2, vec![tuple!["ann", 1960]]).unwrap())
            .unwrap();
        let program = parse_program("res(E, B, 'F') :- f(E, B).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let r = out.relation(&PredRef::plain("res")).unwrap();
        assert!(r.contains(&tuple!["ann", 1960, "F"]));
    }

    #[test]
    fn facts_and_union() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![5]]).unwrap())
            .unwrap();
        let program = parse_program("u(1). u(X) :- r(X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let u = out.relation(&PredRef::plain("u")).unwrap();
        assert_eq!(u.len(), 2);
        assert!(u.contains(&tuple![1]) && u.contains(&tuple![5]));
    }

    #[test]
    fn constraint_violation_detection() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("v", 3, vec![tuple![1, 1, 1], tuple![1, 1, 5]]).unwrap(),
        )
        .unwrap();
        let program = parse_program("false :- v(X, Y, Z), Z > 2.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let violated = violated_constraints(&program, &mut ctx).unwrap();
        assert_eq!(violated.len(), 1);
    }

    #[test]
    fn constraint_satisfied() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("v", 3, vec![tuple![1, 1, 1]]).unwrap())
            .unwrap();
        let program = parse_program("false :- v(X, Y, Z), Z > 2.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert!(violated_constraints(&program, &mut ctx).unwrap().is_empty());
    }

    #[test]
    fn constraint_over_idb_predicate() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![10]]).unwrap())
            .unwrap();
        let program = parse_program(
            "
            big(X) :- r(X), X > 5.
            false :- big(X).
            ",
        )
        .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert_eq!(violated_constraints(&program, &mut ctx).unwrap().len(), 1);
    }

    #[test]
    fn rule_witness_early_exit() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("big", 1, (0..1000_i64).map(|i| tuple![i])).unwrap())
            .unwrap();
        let program = parse_program("false :- big(X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let rule = program.constraints().next().unwrap();
        assert!(rule_has_witness(rule, &mut ctx).unwrap());
        // A body that can never match reports no witness.
        let none = parse_program("false :- big(X), X > 100000.").unwrap();
        let rule = none.constraints().next().unwrap();
        assert!(!rule_has_witness(rule, &mut ctx).unwrap());
    }

    #[test]
    fn cross_sort_comparison_is_an_error() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple!["abc"]]).unwrap())
            .unwrap();
        let program = parse_program("h(X) :- r(X), X > 5.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert!(matches!(
            evaluate_program(&program, &mut ctx),
            Err(EvalError::SortMismatch { .. })
        ));
    }

    #[test]
    fn arity_mismatch_detected() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 2, vec![tuple![1, 2]]).unwrap())
            .unwrap();
        let program = parse_program("h(X) :- r(X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert!(matches!(
            evaluate_program(&program, &mut ctx),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn evaluate_query_selects_one_relation() {
        let mut db = setup();
        let program = parse_program("h(X) :- r2(X). g(X) :- r1(X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let h = evaluate_query(&program, &PredRef::plain("h"), &mut ctx).unwrap();
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn overlay_view_shadows_base_in_program() {
        // Evaluating putdelta against an *updated* view supplied as overlay.
        let mut db = setup(); // base v = {1,3,4}
        let program = parse_program("-r2(X) :- r2(X), not v(X).").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        ctx.insert_overlay(Relation::with_tuples("v", 1, vec![tuple![2]]).unwrap());
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let del = out.relation(&PredRef::del("r2")).unwrap();
        // with overlay v = {2}: r2 = {2,4} minus v -> delete 4 only
        assert_eq!(del.len(), 1);
        assert!(del.contains(&tuple![4]));
    }

    #[test]
    fn negated_equality_filter() {
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples("g", 1, vec![tuple!["M"], tuple!["F"], tuple!["X"]]).unwrap(),
        )
        .unwrap();
        let program = parse_program("o(G) :- g(G), not G = 'M', not G = 'F'.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let o = out.relation(&PredRef::plain("o")).unwrap();
        assert_eq!(o.len(), 1);
        assert!(o.contains(&tuple!["X"]));
    }

    #[test]
    fn range_scan_honors_boundary_ties() {
        // >= and <= must include the bound value itself; > and < must not.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, (0..10_i64).map(|i| tuple![i])).unwrap())
            .unwrap();
        let program = parse_program(
            "
            ge(X) :- r(X), X >= 7.
            gt(X) :- r(X), X > 7.
            le(X) :- r(X), X <= 2.
            lt(X) :- r(X), X < 2.
            band(X) :- r(X), X >= 3, X <= 5.
            ",
        )
        .unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let lens: Vec<usize> = ["ge", "gt", "le", "lt", "band"]
            .iter()
            .map(|n| out.relation(&PredRef::plain(*n)).unwrap().len())
            .collect();
        assert_eq!(lens, vec![3, 2, 3, 2, 3]);
        assert!(out
            .relation(&PredRef::plain("ge"))
            .unwrap()
            .contains(&tuple![7]));
        assert!(!out
            .relation(&PredRef::plain("gt"))
            .unwrap()
            .contains(&tuple![7]));
        assert!(out
            .relation(&PredRef::plain("band"))
            .unwrap()
            .contains(&tuple![3]));
        assert!(out
            .relation(&PredRef::plain("band"))
            .unwrap()
            .contains(&tuple![5]));
    }

    #[test]
    fn range_scan_string_order_matches_filter() {
        // ISO dates are interned strings; the ordered index must agree
        // with lexicographic comparison, bounds included.
        let mut db = Database::new();
        db.add_relation(
            Relation::with_tuples(
                "p",
                1,
                vec![
                    tuple!["1961-12-31"],
                    tuple!["1962-01-01"],
                    tuple!["1962-07-15"],
                    tuple!["1962-12-31"],
                    tuple!["1963-01-01"],
                ],
            )
            .unwrap(),
        )
        .unwrap();
        let program =
            parse_program("y62(B) :- p(B), B >= '1962-01-01', not B > '1962-12-31'.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        let r = out.relation(&PredRef::plain("y62")).unwrap();
        assert_eq!(r.len(), 3);
        assert!(r.contains(&tuple!["1962-01-01"]) && r.contains(&tuple!["1962-12-31"]));
    }

    #[test]
    fn range_scan_over_mixed_sort_column_still_errors() {
        // A column holding both ints and strings can't use the ordered
        // index; the fallback filter must reproduce the reference
        // cross-sort error instead of silently skipping tuples.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1], tuple!["abc"]]).unwrap())
            .unwrap();
        let program = parse_program("h(X) :- r(X), X > 5.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        assert!(matches!(
            evaluate_program(&program, &mut ctx),
            Err(EvalError::SortMismatch { .. })
        ));
    }

    #[test]
    fn drifted_stored_relation_replans_and_overlays_never_do() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        let program = parse_program("h(X) :- +v(X), r(X).").unwrap();
        let mut cache = crate::PlanCache::new();
        let mut run = |db: &mut Database, overlay: i64| {
            let mut ctx = EvalContext::with_plan_cache(db, &mut cache);
            let delta = Relation::with_tuples("+v", 1, (0..overlay).map(|i| tuple![i])).unwrap();
            ctx.insert_overlay(delta);
            evaluate_program(&program, &mut ctx).unwrap();
            ctx.cached_plan(&program.rules[0]).unwrap()
        };
        let first = run(&mut db, 1);
        let same = run(&mut db, 20_000);
        assert!(
            std::sync::Arc::ptr_eq(&first, &same),
            "a big delta is not drift"
        );
        let r = db.relation_mut("r").unwrap();
        for i in 2..=5_000 {
            r.insert(tuple![i]).unwrap();
        }
        let replanned = run(&mut db, 1);
        assert!(!std::sync::Arc::ptr_eq(&first, &replanned), "r grew 5000×");
        assert_eq!(replanned.costed, vec![None, Some(5_000)]);
        assert!(std::sync::Arc::ptr_eq(&replanned, &run(&mut db, 1)));
    }

    #[test]
    fn range_scan_matches_filter_on_empty_interval() {
        // Contradictory guards compile to an empty interval, which must
        // not panic (BTreeMap::range rejects inverted ranges) and must
        // yield nothing, like the reference filter would.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 1, (0..10_i64).map(|i| tuple![i])).unwrap())
            .unwrap();
        let program = parse_program("h(X) :- r(X), X > 5, X < 3.").unwrap();
        let mut ctx = EvalContext::new(&mut db);
        let out = evaluate_program(&program, &mut ctx).unwrap();
        assert!(out.relation(&PredRef::plain("h")).unwrap().is_empty());
    }
}
