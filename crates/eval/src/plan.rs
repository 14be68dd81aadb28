//! Greedy join planning for a single rule, compiled down to register slots.
//!
//! The planner orders body literals so that:
//!
//! 1. cheap *filters* (negated atoms, comparisons, fully-bound positive
//!    atoms) run as early as their variables are bound;
//! 2. grounding equalities (`X = c`, `X = Y` with one side bound) bind
//!    immediately;
//! 3. remaining positive atoms are chosen greedily, and **delta first is
//!    a rule**: an atom over a delta predicate (`+v` / `-v`) is joined
//!    before any stored relation, so an incrementalized rule starts at
//!    its `O(|Δ|)` overlay and reaches every stored relation through
//!    bound columns — the `O(|ΔV|)` behaviour of paper §5 / Figure 6.
//!    Other atoms are ranked by *estimated output cardinality* (size
//!    divided by the distinct-value count of each bound column: the
//!    column index's count when it exists, `√size` when it does not
//!    yet), then by bound positions, then by raw size.
//!
//! Beyond ordering, planning **resolves every variable to a numeric
//! register slot**. Because steps execute in plan order, whether a
//! variable is bound at a given step is decided entirely at plan time, so
//! the compiled [`Step`]s carry slot numbers instead of variable names:
//! the evaluator runs over a flat `Vec<Option<Value>>` frame with no
//! string hashing and no per-binding map operations. Plans are immutable
//! and cacheable (see [`PlanCache`]): the engine keeps one cache per
//! registered view, so a rule is planned when its view registers and
//! replayed from its compiled form on every later update. A plan records
//! the size of every stored relation it was costed against, and the
//! evaluator re-plans it when one of them has drifted more than
//! [`DRIFT_FACTOR`]× (see [`RulePlan::drifted`]) — a bulk load, a
//! restore or a replay re-plans on first use, with nobody to remember it.
//!
//! ## Range pushdown
//!
//! A full-relation `Scan` followed by a comparison filter over one of
//! the scan's freshly-bound variables (`big(I, P), P > 1000`) is the
//! classic selection cliff: `O(|big|)` per activation no matter how
//! selective the guard is. When the scanned relation can carry an
//! ordered index, the planner absorbs such guards *into* the scan and
//! compiles a [`StepOp::RangeScan`] instead: the evaluator range-probes
//! an ordered index and touches only the matching tuples, falling back
//! to scan-and-filter when the column turns out to be mixed-type at run
//! time (preserving cross-sort comparison errors exactly). Absorption
//! takes the maximal *prefix* of the ready-to-place literals that are
//! eligible guards on one column — stopping at the first placeable
//! non-guard literal — so the per-tuple evaluation order (and therefore
//! error behaviour) is identical to the un-pushed plan.
//!
//! Planning also records which `(relation, columns)` hash indexes and
//! `(relation, column)` ordered indexes the execution will probe so the
//! evaluator can build them up front.

use crate::context::EvalContext;
use crate::error::{EvalError, EvalResult};
use birds_datalog::{Atom, CmpOp, DeltaKind, Head, Literal, Rule, Term};
use std::collections::HashMap;
use std::sync::Arc;

/// How a planned literal will be executed (derived from [`StepOp`] — see
/// [`Step::kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Positive atom that binds at least one new variable: iterate probe
    /// results.
    Join,
    /// Positive atom driven by an ordered-index range probe, with one or
    /// more comparison guards folded into the scan.
    RangeJoin,
    /// Positive atom whose non-anonymous variables are all bound:
    /// existence check.
    ExistsCheck,
    /// Negated atom: non-existence check.
    NegCheck,
    /// Builtin filter (comparison, or equality with both sides bound).
    Filter,
    /// Positive equality that assigns a value to an unbound register slot.
    Bind,
}

/// A compile-time-resolved operand: a constant, or a register slot that is
/// guaranteed (by plan construction) to be bound when the operand is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTerm {
    /// A literal constant.
    Const(birds_store::Value),
    /// A register slot, bound by an earlier step.
    Slot(usize),
}

/// One term position of a compiled head atom.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadTerm {
    /// A literal constant.
    Const(birds_store::Value),
    /// A register slot bound by the body.
    Slot(usize),
    /// A head variable the body never binds. Kept (rather than rejected at
    /// plan time) so emission reports the same `UnsafeRule` error the
    /// string-keyed evaluator produced — and only when a derivation
    /// actually reaches the head.
    Unbound(String),
}

/// Compiled form of an atom literal (`Join`, `ExistsCheck`, `NegCheck`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomStep {
    /// Flat name of the relation to read.
    pub rel: String,
    /// Argument positions that are bound (constant or bound slot) at this
    /// point — the index probe columns.
    pub probe_cols: Vec<usize>,
    /// Probe key sources, parallel to `probe_cols`.
    pub probe_key: Vec<SlotTerm>,
    /// `(column, slot)` pairs for fresh variable bindings (`Join` only):
    /// the column's value is written into the slot for each candidate
    /// tuple.
    pub bind: Vec<(usize, usize)>,
    /// `(column, slot)` equality checks for variables repeated *within*
    /// this atom (the slot is freshly bound by an earlier entry of
    /// `bind`).
    pub check: Vec<(usize, usize)>,
    /// `true` when `probe_cols` covers every argument position, enabling
    /// the full-tuple `contains` fast path for existence checks.
    pub full_probe: bool,
    /// Arity of the atom (number of argument positions).
    pub arity: usize,
}

/// One comparison guard absorbed into a [`StepOp::RangeScan`]: the
/// scanned column must satisfy `column ⟨op⟩ bound`.
///
/// Guards are stored **normalized**: `op` is one of `Lt`/`Le`/`Gt`/`Ge`
/// with the scanned column always on the left and never negated (the
/// planner rewrites `not P < k` to `P >= k` and flips sides as needed),
/// so the evaluator folds them into a half-open interval without
/// re-deriving orientation. Guard order is the order the residual
/// `Compare` steps would have run in, which the filter fallback relies
/// on to reproduce cross-sort errors exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeGuard {
    /// Normalized comparison (`Lt`, `Le`, `Gt` or `Ge`).
    pub op: CmpOp,
    /// The bound: a constant or a slot bound before the scan.
    pub bound: SlotTerm,
    /// Index into `rule.body` of the comparison literal this guard
    /// covers (the literal gets no step of its own).
    pub literal: usize,
}

/// The operation a step performs, with all operands slot-resolved. The
/// execution mode is part of the variant, so a plan cannot pair an atom
/// payload with a builtin mode (or vice versa) — there is no defensive
/// mismatch arm in the evaluator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOp {
    /// Positive atom that binds at least one new variable: iterate probe
    /// results (`Join`).
    Scan(AtomStep),
    /// Full-relation scan with comparison guards pushed into it
    /// (`RangeJoin`): the evaluator range-probes an ordered index on
    /// `col` when the column is sort-homogeneous, and otherwise scans
    /// and applies the guards per tuple (after the atom's intra-atom
    /// checks, in guard order). The guards' body literals are covered by
    /// this step — they get no residual `Compare`.
    RangeScan {
        /// The compiled atom (always `probe_cols.is_empty()` — pushdown
        /// only replaces full scans).
        atom: AtomStep,
        /// The guarded column of the atom.
        col: usize,
        /// Absorbed guards, in residual-evaluation order.
        guards: Vec<RangeGuard>,
    },
    /// Atom with every named variable bound: (non-)existence probe
    /// (`ExistsCheck` / `NegCheck`).
    Check {
        /// The compiled atom.
        atom: AtomStep,
        /// `true` for `not p(~t)` — pass on *absence*.
        negated: bool,
    },
    /// Builtin comparison over two resolved operands (`Filter`).
    Compare {
        /// The comparison operator.
        op: CmpOp,
        /// Left operand.
        left: SlotTerm,
        /// Right operand.
        right: SlotTerm,
        /// `true` for the negated form.
        negated: bool,
    },
    /// Grounding equality: write `value` into `slot` (`Bind`).
    Assign {
        /// Destination register.
        slot: usize,
        /// Source operand (constant or earlier-bound slot).
        value: SlotTerm,
    },
}

/// One step of a rule plan: which body literal to run and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Index into `rule.body`.
    pub literal: usize,
    /// The compiled operation.
    pub op: StepOp,
}

impl Step {
    /// The execution mode of this step (derived from the operation).
    pub fn kind(&self) -> StepKind {
        match &self.op {
            StepOp::Scan(_) => StepKind::Join,
            StepOp::RangeScan { .. } => StepKind::RangeJoin,
            StepOp::Check { negated: false, .. } => StepKind::ExistsCheck,
            StepOp::Check { negated: true, .. } => StepKind::NegCheck,
            StepOp::Compare { .. } => StepKind::Filter,
            StepOp::Assign { .. } => StepKind::Bind,
        }
    }

    /// For atom steps: the bound argument positions used as probe
    /// columns. Empty for builtin steps.
    pub fn probe_cols(&self) -> &[usize] {
        match &self.op {
            StepOp::Scan(a) | StepOp::Check { atom: a, .. } => &a.probe_cols,
            _ => &[],
        }
    }
}

/// A complete compiled plan for one rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RulePlan {
    /// Ordered steps covering every body literal exactly once — a
    /// [`StepOp::RangeScan`] covers its atom literal *and* each absorbed
    /// comparison literal.
    pub steps: Vec<Step>,
    /// Compiled head template; `None` for `⊥` heads (constraints emit a
    /// nullary witness).
    pub head: Option<Vec<HeadTerm>>,
    /// Number of register slots the frame needs.
    pub nslots: usize,
    /// `(relation flat name, columns)` hash indexes the plan will probe.
    pub index_requests: Vec<(String, Vec<usize>)>,
    /// `(relation flat name, column)` ordered indexes the plan's range
    /// scans will probe.
    pub ordered_requests: Vec<(String, usize)>,
    /// Parallel to `rule.body`: the size of the *stored* relation each
    /// atom literal read when the plan was costed. `None` for builtins
    /// and for overlays (view deltas, intermediates): delta-first already
    /// orders those, and their size changes with every update.
    pub costed: Vec<Option<usize>>,
}

/// How far (as a ratio, either way) a stored relation may drift from the
/// size a plan was costed at before the plan is re-planned.
pub const DRIFT_FACTOR: usize = 4;

/// Sizes below this count as this when checking drift: a table empty at
/// registration re-plans once it is loaded, not on its first rows.
pub const SIZE_FLOOR: usize = 1024;

impl RulePlan {
    /// Is body literal `literal`, now reading a relation of `len`
    /// tuples, more than [`DRIFT_FACTOR`]× off the stored size this plan
    /// was costed at (both sides floored at [`SIZE_FLOOR`])? Always
    /// `false` for literals the plan did not cost (builtins, overlays).
    pub fn drifted(&self, literal: usize, len: usize) -> bool {
        let Some(&Some(costed)) = self.costed.get(literal) else {
            return false;
        };
        let (was, now) = (costed.max(SIZE_FLOOR), len.max(SIZE_FLOOR));
        was.max(now) > was.min(now) * DRIFT_FACTOR
    }
}

/// The compiled [`RulePlan`]s of one registered view, keyed by rule
/// identity (structural equality of the [`Rule`] AST).
///
/// Each view owns one cache for its ∂put (or putback) rules, its
/// constraint checks and their support rules, and lends it to every
/// [`EvalContext`] that evaluates them, so `put` over repeated deltas —
/// the Figure 6 loop — plans each rule once: the registration-time
/// warm-up pays the planning cost, and every subsequent update replays
/// compiled plans until [`RulePlan::drifted`] says a relation's size has
/// moved too far. The cache moves with its view when an engine is split
/// or merged and is dropped with it. Hit/miss counters are exposed (via
/// [`PlanCache::stats`]) for tests and diagnostics.
#[derive(Debug, Default)]
pub struct PlanCache {
    plans: HashMap<Rule, Arc<RulePlan>>,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache's plan count and lookup counters.
    pub fn stats(&self) -> PlanStats {
        PlanStats {
            plans: self.plans.len(),
            hits: self.hits,
            misses: self.misses,
        }
    }

    pub(crate) fn get(&self, rule: &Rule) -> Option<Arc<RulePlan>> {
        self.plans.get(rule).cloned()
    }

    pub(crate) fn hit(&mut self) {
        self.hits += 1;
    }

    pub(crate) fn insert(&mut self, rule: &Rule, plan: Arc<RulePlan>) {
        self.misses += 1;
        self.plans.insert(rule.clone(), plan);
    }
}

/// Plan counts of one [`PlanCache`], or summed over several (an engine
/// reports the sum over its views).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    plans: usize,
    hits: u64,
    misses: u64,
}

impl PlanStats {
    /// Number of distinct rules with a compiled plan.
    pub fn len(&self) -> usize {
        self.plans
    }

    /// `true` when no plan has been compiled.
    pub fn is_empty(&self) -> bool {
        self.plans == 0
    }

    /// Number of lookups answered from a cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of lookups that had to plan (first use or drift).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

impl std::iter::Sum for PlanStats {
    fn sum<I: Iterator<Item = PlanStats>>(iter: I) -> PlanStats {
        iter.fold(PlanStats::default(), |a, b| PlanStats {
            plans: a.plans + b.plans,
            hits: a.hits + b.hits,
            misses: a.misses + b.misses,
        })
    }
}

/// Variable-to-slot assignment built up during planning. Slots are handed
/// out in binding order; anonymous variables can receive slots (a
/// grounding equality may bind one) but never count as probe columns,
/// matching the string-keyed evaluator's semantics.
#[derive(Default)]
struct SlotMap {
    slots: HashMap<String, usize>,
}

impl SlotMap {
    fn get(&self, var: &str) -> Option<usize> {
        self.slots.get(var).copied()
    }

    fn bind(&mut self, var: &str) -> usize {
        let next = self.slots.len();
        *self.slots.entry(var.to_owned()).or_insert(next)
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Positions of an atom's terms that are bound (constant or bound
/// variable) given the current slot assignment. Anonymous variables are
/// never bound.
fn bound_positions(terms: &[Term], slots: &SlotMap) -> Vec<usize> {
    terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => !t.is_anonymous() && slots.get(v).is_some(),
        })
        .map(|(i, _)| i)
        .collect()
}

/// Resolve a term to a compiled operand, if possible.
fn slot_term(t: &Term, slots: &SlotMap) -> Option<SlotTerm> {
    match t {
        Term::Const(v) => Some(SlotTerm::Const(*v)),
        Term::Var(v) => slots.get(v).map(SlotTerm::Slot),
    }
}

/// Compile an atom into an [`AtomStep`]. `probe_cols` are the bound
/// positions; for `Join` steps the remaining named positions become fresh
/// binds (first occurrence) or intra-atom equality checks (repeats).
fn compile_atom(atom: &Atom, probe_cols: Vec<usize>, slots: &mut SlotMap, join: bool) -> AtomStep {
    let probe_key: Vec<SlotTerm> = probe_cols
        .iter()
        .map(|&c| slot_term(&atom.terms[c], slots).expect("probe columns are bound"))
        .collect();
    let mut bind = Vec::new();
    let mut check = Vec::new();
    if join {
        let mut fresh: HashMap<&str, usize> = HashMap::new();
        for (i, term) in atom.terms.iter().enumerate() {
            if probe_cols.contains(&i) {
                continue;
            }
            match term {
                Term::Const(_) => unreachable!("constants are always probe columns"),
                Term::Var(v) => {
                    if term.is_anonymous() {
                        continue;
                    }
                    match fresh.get(v.as_str()) {
                        Some(&slot) => check.push((i, slot)),
                        None => {
                            let slot = slots.bind(v);
                            fresh.insert(v.as_str(), slot);
                            bind.push((i, slot));
                        }
                    }
                }
            }
        }
    }
    AtomStep {
        rel: atom.pred.flat_name(),
        full_probe: probe_cols.len() == atom.terms.len(),
        arity: atom.terms.len(),
        probe_cols,
        probe_key,
        bind,
        check,
    }
}

/// Swap the sides of a comparison (`a < b` ⇔ `b > a`).
fn swap_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq => CmpOp::Eq,
    }
}

/// The complement of a comparison (`not (a < b)` ⇔ `a >= b`). Only
/// defined for the four order operators.
fn negate_cmp(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Ge,
        CmpOp::Ge => CmpOp::Lt,
        CmpOp::Gt => CmpOp::Le,
        CmpOp::Le => CmpOp::Gt,
        CmpOp::Eq => unreachable!("equality guards are not range guards"),
    }
}

/// Would phase 1 place this literal right now (all operands bound)?
/// Mirrors the phase-1 readiness tests: atoms with every named variable
/// bound, builtins with both sides resolvable, and grounding equalities
/// (which bind a fresh slot, so absorption must stop at them).
fn placeable(lit: &Literal, slots: &SlotMap) -> bool {
    match lit {
        Literal::Atom { atom, .. } => atom.terms.iter().all(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => t.is_anonymous() || slots.get(v).is_some(),
        }),
        Literal::Builtin {
            op, left, right, ..
        } => {
            let l = slot_term(left, slots);
            let r = slot_term(right, slots);
            l.is_some() && r.is_some() || (*op == CmpOp::Eq && (l.is_some() || r.is_some()))
        }
    }
}

/// Try to absorb comparison guards into a freshly compiled full scan.
///
/// Walks `remaining` in order — the order phase 1 would place the now
/// ready literals in — and takes the maximal prefix of *placeable*
/// literals that are eligible guards on a single freshly-bound column:
/// a non-negated or negated order comparison with one side bound by this
/// scan and the other side a constant or earlier-bound slot. The walk
/// stops at the first placeable literal that is anything else, so the
/// residual per-tuple evaluation order is untouched. Absorbed literals
/// are removed from `remaining`. Returns `None` when no guard is
/// absorbable.
fn absorb_range_guards(
    rule: &Rule,
    compiled: &AtomStep,
    remaining: &mut Vec<usize>,
    slots: &SlotMap,
) -> Option<(usize, Vec<RangeGuard>)> {
    let fresh_col_of = |term: &SlotTerm| -> Option<usize> {
        let SlotTerm::Slot(s) = term else { return None };
        compiled
            .bind
            .iter()
            .find(|&&(_, slot)| slot == *s)
            .map(|&(col, _)| col)
    };
    let is_fresh = |term: &SlotTerm| fresh_col_of(term).is_some();
    let mut chosen: Option<usize> = None;
    let mut guards = Vec::new();
    let mut i = 0;
    while i < remaining.len() {
        let li = remaining[i];
        let lit = &rule.body[li];
        if !placeable(lit, slots) {
            i += 1;
            continue;
        }
        let Literal::Builtin {
            op,
            left,
            right,
            negated,
        } = lit
        else {
            break; // a ready check would run before later guards
        };
        let (Some(l), Some(r)) = (slot_term(left, slots), slot_term(right, slots)) else {
            break; // a grounding equality binds a slot: stop
        };
        if *op == CmpOp::Eq {
            break; // (in)equality filter, not a range guard
        }
        // Orient the guard as `column ⟨op⟩ bound`; exactly one side must
        // be bound by this scan.
        let (col, op, bound) = match (fresh_col_of(&l), is_fresh(&r)) {
            (Some(col), false) => (col, *op, r),
            (None, true) => match fresh_col_of(&r) {
                Some(col) => (col, swap_cmp(*op), l),
                None => break,
            },
            _ => break, // both fresh (X < Y) or neither: leave as Compare
        };
        if *chosen.get_or_insert(col) != col {
            break; // guards on a second column stay residual Compares
        }
        let op = if *negated { negate_cmp(op) } else { op };
        guards.push(RangeGuard {
            op,
            bound,
            literal: li,
        });
        remaining.remove(i);
    }
    chosen.map(|col| (col, guards))
}

/// How attractive a positive atom is as the next join step; the planner
/// takes the greatest. Field order is the comparison order:
///
/// 1. `delta` — the atom reads a delta predicate (`+p` / `-p`). Deltas
///    are per-update overlays of `O(|Δ|)` tuples, so starting there is
///    what makes an incrementalized rule `O(|ΔV|)`. It is a rule, not
///    part of the estimate: a cached plan is replayed for deltas of every
///    size, and a stored relation's estimate can be off by orders of
///    magnitude (a constant-bound column without statistics).
/// 2. `est` (smaller wins) — estimated tuples one activation yields:
///    relation size divided, per bound column, by that column's
///    distinct-value count — from its index when one exists, otherwise
///    `√size` (no statistics yet: the geometric midpoint between a
///    constant column and a key). Plans are compiled before their
///    `index_requests` are built, so without the default a unique-key
///    probe on a large relation would be costed as a full scan.
/// 3. `nbound` — more bound positions, fewer candidates to check.
/// 4. `size` (smaller wins) — the raw relation size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct JoinRank {
    delta: bool,
    est: std::cmp::Reverse<usize>,
    nbound: usize,
    size: std::cmp::Reverse<usize>,
}

impl JoinRank {
    fn of(atom: &Atom, slots: &SlotMap, ctx: &EvalContext) -> EvalResult<JoinRank> {
        let flat = atom.pred.flat_name();
        let size = ctx.relation(&flat)?.len();
        let bound = bound_positions(&atom.terms, slots);
        let mut est = size;
        for &c in &bound {
            let ndv = ctx
                .relation_ndv(&flat, c)
                .unwrap_or_else(|| (size as f64).sqrt() as usize);
            est = est.div_ceil(ndv.max(1));
        }
        Ok(JoinRank {
            delta: matches!(atom.pred.kind, DeltaKind::Insert | DeltaKind::Delete),
            est: std::cmp::Reverse(est),
            nbound: bound.len(),
            size: std::cmp::Reverse(size),
        })
    }
}

/// Plan a rule against the current context (relation sizes drive the
/// greedy choice; all body relations must already exist).
pub fn plan_rule(rule: &Rule, ctx: &EvalContext) -> EvalResult<RulePlan> {
    let mut slots = SlotMap::default();
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let mut steps: Vec<Step> = Vec::with_capacity(rule.body.len());
    let mut index_requests = Vec::new();
    let mut ordered_requests: Vec<(String, usize)> = Vec::new();

    let push_atom_step = |literal: usize,
                          op: StepOp,
                          steps: &mut Vec<Step>,
                          index_requests: &mut Vec<(String, Vec<usize>)>| {
        let (StepOp::Scan(a) | StepOp::Check { atom: a, .. }) = &op else {
            unreachable!("push_atom_step only takes atom operations");
        };
        if !a.probe_cols.is_empty() && a.probe_cols.len() < a.arity {
            index_requests.push((a.rel.clone(), a.probe_cols.clone()));
        }
        steps.push(Step { literal, op });
    };

    while !remaining.is_empty() {
        // Phase 1: place every literal currently usable as a filter/binder.
        let mut placed_any = true;
        while placed_any {
            placed_any = false;
            let mut i = 0;
            while i < remaining.len() {
                let li = remaining[i];
                match &rule.body[li] {
                    Literal::Atom { atom, negated } => {
                        let named_vars_bound = atom.terms.iter().all(|t| match t {
                            Term::Const(_) => true,
                            Term::Var(v) => t.is_anonymous() || slots.get(v).is_some(),
                        });
                        if named_vars_bound {
                            let cols = bound_positions(&atom.terms, &slots);
                            let compiled = compile_atom(atom, cols, &mut slots, false);
                            push_atom_step(
                                li,
                                StepOp::Check {
                                    atom: compiled,
                                    negated: *negated,
                                },
                                &mut steps,
                                &mut index_requests,
                            );
                            remaining.remove(i);
                            placed_any = true;
                            continue;
                        }
                        i += 1;
                    }
                    Literal::Builtin {
                        op,
                        left,
                        right,
                        negated,
                    } => {
                        let l = slot_term(left, &slots);
                        let r = slot_term(right, &slots);
                        if let (Some(l), Some(r)) = (l, r) {
                            steps.push(Step {
                                literal: li,
                                op: StepOp::Compare {
                                    op: *op,
                                    left: l,
                                    right: r,
                                    negated: *negated,
                                },
                            });
                            remaining.remove(i);
                            placed_any = true;
                            continue;
                        }
                        // Grounding equality: bind the unbound side.
                        if *op == CmpOp::Eq && !*negated && (l.is_some() || r.is_some()) {
                            let (value, newly) = if let Some(l) = l {
                                (l, right)
                            } else {
                                (r.expect("one side is resolvable"), left)
                            };
                            if let Term::Var(v) = newly {
                                let slot = slots.bind(v);
                                steps.push(Step {
                                    literal: li,
                                    op: StepOp::Assign { slot, value },
                                });
                                remaining.remove(i);
                                placed_any = true;
                                continue;
                            }
                        }
                        i += 1;
                    }
                }
            }
        }
        if remaining.is_empty() {
            break;
        }

        // Phase 2: choose the next positive atom to join. An atom over a
        // delta predicate (`+p` / `-p`) always goes first; every other
        // candidate is ranked by estimated output cardinality, then bound
        // positions, then raw size (see [`JoinRank`]).
        let mut best: Option<(usize, usize, JoinRank)> = None;
        for (pos, &li) in remaining.iter().enumerate() {
            if let Literal::Atom {
                atom,
                negated: false,
            } = &rule.body[li]
            {
                let rank = JoinRank::of(atom, &slots, ctx)?;
                if best.as_ref().is_none_or(|(_, _, b)| rank > *b) {
                    best = Some((pos, li, rank));
                }
            }
        }
        let Some((pos, li, _)) = best else {
            // Only negated atoms / builtins with unbound variables remain.
            let lit = &rule.body[remaining[0]];
            let var = lit
                .variables()
                .into_iter()
                .find(|v| slots.get(v).is_none())
                .unwrap_or("?")
                .to_owned();
            return Err(EvalError::UnsafeRule {
                rule: rule.to_string(),
                variable: var,
            });
        };
        let Literal::Atom { atom, .. } = &rule.body[li] else {
            unreachable!()
        };
        let cols = bound_positions(&atom.terms, &slots);
        let compiled = compile_atom(atom, cols, &mut slots, true);
        remaining.remove(pos);
        // Range pushdown: a full scan whose fresh variables feed
        // now-ready comparison guards becomes a RangeScan (partial
        // probes are already O(bucket); only full scans have the
        // selection cliff worth absorbing).
        if compiled.probe_cols.is_empty() {
            if let Some((col, guards)) =
                absorb_range_guards(rule, &compiled, &mut remaining, &slots)
            {
                ordered_requests.push((compiled.rel.clone(), col));
                steps.push(Step {
                    literal: li,
                    op: StepOp::RangeScan {
                        atom: compiled,
                        col,
                        guards,
                    },
                });
                continue;
            }
        }
        push_atom_step(li, StepOp::Scan(compiled), &mut steps, &mut index_requests);
    }

    // Compile the head template against the final slot assignment.
    let head = match &rule.head {
        Head::Bottom => None,
        Head::Atom(a) => Some(
            a.terms
                .iter()
                .map(|t| match t {
                    Term::Const(v) => HeadTerm::Const(*v),
                    Term::Var(v) => match slots.get(v) {
                        Some(slot) => HeadTerm::Slot(slot),
                        None => HeadTerm::Unbound(t.to_string()),
                    },
                })
                .collect(),
        ),
    };

    let costed = rule
        .body
        .iter()
        .map(|lit| lit.atom().and_then(|a| ctx.stored_len(&a.pred.flat_name())))
        .collect();
    Ok(RulePlan {
        steps,
        head,
        nslots: slots.len(),
        index_requests,
        ordered_requests,
        costed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_datalog::parse_rule;
    use birds_store::{Database, Relation};

    fn ctx_with(db: &mut Database) -> EvalContext<'_> {
        EvalContext::new(db)
    }

    fn db_sizes(sizes: &[(&str, usize, usize)]) -> Database {
        // (name, arity, ntuples) with integer filler tuples
        let mut db = Database::new();
        for &(name, arity, n) in sizes {
            let tuples = (0..n as i64).map(|i| {
                birds_store::Tuple::new(
                    (0..arity)
                        .map(|c| birds_store::Value::Int(i + c as i64))
                        .collect(),
                )
            });
            db.add_relation(Relation::with_tuples(name, arity, tuples).unwrap())
                .unwrap();
        }
        db
    }

    #[test]
    fn small_relation_drives_the_join() {
        let mut db = db_sizes(&[("big", 2, 1000), ("+v", 2, 2)]);
        let ctx = ctx_with(&mut db);
        // +r(X,Y) :- +v(X,Y), big(X,Y) — plan must start at +v.
        let rule = parse_rule("+r(X, Y) :- big(X, Y), +v(X, Y).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.steps[0].literal, 1, "join starts at +v");
        // big(X,Y) then fully bound -> exists check, no partial index.
        assert_eq!(plan.steps[1].kind(), StepKind::ExistsCheck);
        let StepOp::Check { atom: a, .. } = &plan.steps[1].op else {
            panic!("check step expected");
        };
        assert!(a.full_probe, "all positions bound by the first join");
    }

    #[test]
    fn negated_atoms_run_once_bound() {
        let mut db = db_sizes(&[("r", 1, 10), ("s", 1, 10)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- r(X), not s(X).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(
            plan.steps.iter().map(Step::kind).collect::<Vec<_>>(),
            vec![StepKind::Join, StepKind::NegCheck]
        );
    }

    #[test]
    fn grounding_equality_binds_before_probe() {
        let mut db = db_sizes(&[("r", 2, 100)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- r(X, Y), Y = 5.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        // Y = 5 binds first, then r(X,Y) probes with column 1 bound.
        assert_eq!(plan.steps[0].kind(), StepKind::Bind);
        assert_eq!(plan.steps[1].kind(), StepKind::Join);
        assert_eq!(plan.steps[1].probe_cols(), &[1]);
        assert_eq!(plan.index_requests, vec![("r".to_string(), vec![1])]);
    }

    #[test]
    fn slots_are_dense_and_head_compiles() {
        let mut db = db_sizes(&[("r", 3, 10)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(Z, X, 'tag') :- r(X, Y, Z).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.nslots, 3, "X, Y, Z each get one slot");
        let head = plan.head.as_ref().unwrap();
        assert_eq!(head.len(), 3);
        assert!(matches!(head[0], HeadTerm::Slot(_)));
        assert!(matches!(head[2], HeadTerm::Const(_)));
    }

    #[test]
    fn repeated_variable_within_atom_compiles_to_check() {
        let mut db = db_sizes(&[("e", 2, 10)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("diag(X) :- e(X, X).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        let StepOp::Scan(a) = &plan.steps[0].op else {
            panic!("scan step expected");
        };
        assert_eq!(a.bind.len(), 1, "first occurrence binds");
        assert_eq!(a.check.len(), 1, "second occurrence checks");
        assert_eq!(a.bind[0].1, a.check[0].1, "against the same slot");
    }

    #[test]
    fn unknown_relation_reported() {
        let mut db = db_sizes(&[]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- ghost(X).").unwrap();
        assert!(matches!(
            plan_rule(&rule, &ctx),
            Err(EvalError::UnknownRelation(_))
        ));
    }

    #[test]
    fn unsafe_rule_detected_at_planning() {
        let rule = parse_rule("h(X) :- r(X), not s(X, Y).").unwrap();
        let mut db = db_sizes(&[("r", 1, 1), ("s", 2, 1)]);
        let ctx = ctx_with(&mut db);
        let err = plan_rule(&rule, &ctx).unwrap_err();
        assert!(matches!(err, EvalError::UnsafeRule { .. }));
    }

    #[test]
    fn constants_count_as_bound_positions() {
        let mut db = db_sizes(&[("r", 2, 50)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- r(X, 7).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.steps[0].probe_cols(), &[1]);
    }

    #[test]
    fn comparison_guard_compiles_to_range_scan() {
        let mut db = db_sizes(&[("items", 2, 100)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(I) :- items(I, P), P > 50.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.steps.len(), 1, "the Compare is elided");
        assert_eq!(plan.steps[0].kind(), StepKind::RangeJoin);
        let StepOp::RangeScan { col, guards, .. } = &plan.steps[0].op else {
            panic!("range scan expected");
        };
        assert_eq!(*col, 1);
        assert_eq!(guards.len(), 1);
        assert_eq!(guards[0].op, CmpOp::Gt);
        assert_eq!(guards[0].literal, 1);
        assert!(matches!(guards[0].bound, SlotTerm::Const(_)));
        assert_eq!(plan.ordered_requests, vec![("items".to_string(), 1)]);
        assert!(plan.index_requests.is_empty());
    }

    #[test]
    fn negated_and_swapped_guards_normalize() {
        let mut db = db_sizes(&[("items", 2, 100)]);
        let ctx = ctx_with(&mut db);
        // `not P > 50` is `P <= 50`; `10 < P` is `P > 10`.
        let rule = parse_rule("h(I) :- items(I, P), not P > 50, 10 < P.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.steps.len(), 1, "both guards absorbed");
        let StepOp::RangeScan { guards, .. } = &plan.steps[0].op else {
            panic!("range scan expected");
        };
        assert_eq!(
            guards.iter().map(|g| g.op).collect::<Vec<_>>(),
            vec![CmpOp::Le, CmpOp::Gt]
        );
    }

    #[test]
    fn absorption_stops_at_a_ready_check() {
        // `not s(X)` becomes placeable as soon as the scan binds X and
        // would run *before* the guard; absorbing the guard past it
        // would reorder per-tuple evaluation, so pushdown must not fire.
        let mut db = db_sizes(&[("r", 1, 10), ("s", 1, 10)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- r(X), not s(X), X > 5.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(
            plan.steps.iter().map(Step::kind).collect::<Vec<_>>(),
            vec![StepKind::Join, StepKind::NegCheck, StepKind::Filter]
        );
        assert!(plan.ordered_requests.is_empty());
    }

    #[test]
    fn guard_against_earlier_bound_slot_is_absorbed() {
        let mut db = db_sizes(&[("r", 1, 2), ("s", 1, 100)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X, Y) :- r(X), s(Y), Y > X.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.steps.len(), 2);
        let StepOp::RangeScan { guards, .. } = &plan.steps[1].op else {
            panic!("second scan absorbs the guard, got {:?}", plan.steps[1].op);
        };
        assert!(matches!(guards[0].bound, SlotTerm::Slot(_)));
    }

    #[test]
    fn guard_on_second_column_stays_residual() {
        let mut db = db_sizes(&[("r", 2, 100)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(A, B) :- r(A, B), A > 1, B > 2.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        let StepOp::RangeScan { col, guards, .. } = &plan.steps[0].op else {
            panic!("range scan expected");
        };
        assert_eq!((*col, guards.len()), (0, 1));
        assert_eq!(plan.steps[1].kind(), StepKind::Filter);
    }

    #[test]
    fn both_sides_fresh_is_not_a_guard() {
        let mut db = db_sizes(&[("r", 2, 100)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(A, B) :- r(A, B), A < B.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(
            plan.steps.iter().map(Step::kind).collect::<Vec<_>>(),
            vec![StepKind::Join, StepKind::Filter]
        );
    }

    #[test]
    fn selectivity_estimate_prefers_the_more_selective_probe() {
        // Both `big` and `mid` are probed on a bound column. `big` has
        // 400 tuples but a unique-key index (est 1); `mid` has 100
        // tuples and no index (est 100). Raw size ordering would join
        // `mid` first; the ndv-refined estimate must pick `big`.
        let mut db = db_sizes(&[("k", 1, 2), ("big", 2, 400), ("mid", 2, 100)]);
        db.relation_mut("big").unwrap().ensure_index(&[0]).unwrap();
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X) :- k(X), big(X, A), mid(X, B).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        let order: Vec<usize> = plan.steps.iter().map(|s| s.literal).collect();
        assert_eq!(order, vec![0, 1, 2], "k, then big (est 1), then mid");
    }

    /// The relation read by the plan's first atom step (builtin steps —
    /// `Assign`, `Compare` — read no relation).
    fn first_relation_read(plan: &RulePlan) -> &str {
        plan.steps
            .iter()
            .find_map(|s| match &s.op {
                StepOp::Scan(a) | StepOp::Check { atom: a, .. } => Some(a.rel.as_str()),
                StepOp::RangeScan { atom, .. } => Some(atom.rel.as_str()),
                _ => None,
            })
            .expect("plan reads a relation")
    }

    #[test]
    fn delta_overlay_outranks_a_constant_bound_probe() {
        // The `outstanding_task` ∂put rule: `S = 'open'` binds the status
        // column of a 50k-row `tasks` whose status index has two keys
        // (est 25k), while the view-delta overlay holds one row. Starting
        // at `tasks` costs O(|tasks|) per update; delta-first makes it
        // O(|ΔV|).
        let mut db = Database::new();
        let tasks = (0..50_000i64).map(|i| {
            let status = if i % 2 == 0 { "open" } else { "done" };
            birds_store::tuple![i, "title", "2020-01-01", "owner", status]
        });
        db.add_relation(Relation::with_tuples("tasks", 5, tasks).unwrap())
            .unwrap();
        db.relation_mut("tasks")
            .unwrap()
            .ensure_index(&[4])
            .unwrap();
        assert_eq!(db.relation("tasks").unwrap().distinct_keys(&[4]), Some(2));
        let assignment = (0..25_000i64).map(|i| birds_store::tuple![i * 2, "worker"]);
        db.add_relation(Relation::with_tuples("assignment", 2, assignment).unwrap())
            .unwrap();
        let overlay = [birds_store::tuple![4, "title", "2020-01-01", "owner"]];
        db.add_relation(Relation::with_tuples("-outstanding_task", 4, overlay).unwrap())
            .unwrap();
        let ctx = ctx_with(&mut db);
        let rule = parse_rule(
            "-tasks(T, TI, DU, OW, S) :- tasks(T, TI, DU, OW, S), S = 'open', \
             assignment(T, _), -outstanding_task(T, TI, DU, OW).",
        )
        .unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(
            first_relation_read(&plan),
            "-outstanding_task",
            "plan: {:#?}",
            plan.steps
        );
        // Everything after the overlay is a bound probe, never a scan.
        assert!(plan
            .steps
            .iter()
            .filter(|s| s.kind() == StepKind::Join)
            .all(|s| s.literal == 3));
    }

    #[test]
    fn delta_first_holds_even_when_the_overlay_is_larger() {
        // Delta-first is a rule, not a size comparison: at warm-up the
        // overlay may be the larger side, and the cached plan must still
        // start there.
        let mut db = db_sizes(&[("small", 2, 3), ("+v", 2, 50)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("+r(X, Y) :- small(X, Y), +v(X, Y).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(first_relation_read(&plan), "+v");
    }

    #[test]
    fn unindexed_bound_probe_beats_a_mid_sized_scan() {
        // `big` is probed on a bound column with no index yet (plans are
        // made before their index requests are built); `mid` would be a
        // full scan. The √size default estimate (10k / 100 = 100) must
        // beat scanning 1 000 tuples.
        let mut db = db_sizes(&[("k", 1, 2), ("big", 2, 10_000), ("mid", 1, 1_000)]);
        let ctx = ctx_with(&mut db);
        let rule = parse_rule("h(X, B) :- k(X), mid(B), big(X, A).").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        let order: Vec<usize> = plan.steps.iter().map(|s| s.literal).collect();
        assert_eq!(order, vec![0, 2, 1], "k, then the big probe, then mid");
    }

    #[test]
    fn plan_cache_hits_after_first_lookup() {
        let mut db = db_sizes(&[("r", 2, 50)]);
        let mut cache = PlanCache::new();
        let rule = parse_rule("h(X) :- r(X, 7).").unwrap();
        {
            let mut ctx = EvalContext::with_plan_cache(&mut db, &mut cache);
            let p1 = ctx.plan_for(&rule).unwrap();
            let p2 = ctx.plan_for(&rule).unwrap();
            assert!(Arc::ptr_eq(&p1, &p2), "second lookup reuses the plan");
        }
        assert_eq!(cache.stats().len(), 1);
        assert_eq!(cache.stats().misses(), 1);
        assert_eq!(cache.stats().hits(), 1);
        // A fresh context over the same cache still hits.
        {
            let mut ctx = EvalContext::with_plan_cache(&mut db, &mut cache);
            ctx.plan_for(&rule).unwrap();
        }
        assert_eq!(cache.stats().misses(), 1, "no replanning across contexts");
        assert_eq!(cache.stats().hits(), 2);
    }

    #[test]
    fn plans_cost_stored_relations_only() {
        let mut db = db_sizes(&[("r", 2, 50)]);
        let mut ctx = ctx_with(&mut db);
        ctx.insert_overlay(Relation::new("+v", 1));
        let rule = parse_rule("h(X) :- +v(X), r(X, Y), Y > 3.").unwrap();
        let plan = plan_rule(&rule, &ctx).unwrap();
        assert_eq!(plan.costed, vec![None, Some(50), None]);
    }

    #[test]
    fn drift_is_a_floored_ratio() {
        let plan = |costed: usize| RulePlan {
            steps: vec![],
            head: None,
            nslots: 0,
            index_requests: vec![],
            ordered_requests: vec![],
            costed: vec![Some(costed), None],
        };
        // Empty at registration: rows up to 4× the floor keep the plan.
        assert!(!plan(0).drifted(0, DRIFT_FACTOR * SIZE_FLOOR));
        assert!(plan(0).drifted(0, DRIFT_FACTOR * SIZE_FLOOR + 1));
        // Both directions, past the floor.
        assert!(!plan(50_000).drifted(0, 12_500));
        assert!(plan(50_000).drifted(0, 12_499));
        assert!(plan(50_000).drifted(0, 200_001));
        // Uncosted literals (overlays, builtins) never drift.
        assert!(!plan(0).drifted(1, 1_000_000));
        assert!(!plan(0).drifted(7, 1_000_000));
    }
}
