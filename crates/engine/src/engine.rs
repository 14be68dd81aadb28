//! The updatable-view engine.

use crate::algorithm2::derive_view_delta;
use crate::error::{EngineError, EngineResult};
use birds_core::{incrementalize, inline_simple_defs, validate, UpdateStrategy};
use birds_datalog::{parse_program, Atom, DeltaKind, Literal, PredRef, Program, Rule};
use birds_eval::{
    evaluate_program, evaluate_query, rule_has_witness, EvalContext, PlanCache, PlanStats, RulePlan,
};
use birds_sql::{parse_script, DmlStatement};
use birds_store::{
    Database, DatabaseSchema, Delta, DeltaSet, Relation, RelationVersion, Schema, Tuple,
};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::{Arc, Mutex};

/// How a registered view's strategy is executed on each update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyMode {
    /// Evaluate the full putback program over `(S, V′)` on every update
    /// (the paper's non-incremental baseline, black curves in Figure 6).
    Original,
    /// Evaluate the incrementalized program `∂put` over `(S, +v, -v)`
    /// (§5; blue curves in Figure 6).
    Incremental,
}

/// Statistics from one executed view-update transaction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Tuples in the derived view delta.
    pub view_delta_size: usize,
    /// Tuples in the applied source delta.
    pub source_delta_size: usize,
    /// Cascaded view updates triggered (views over views).
    pub cascades: usize,
}

/// The dependency footprint of a registered view: which stored relations
/// a commit on that view may touch. Computed once at registration from
/// the strategy, the derived get and the incrementalized program, then
/// closed over cascades (a delta target that is itself a view pulls in
/// that view's footprint). Footprints are what lets a concurrency layer
/// run commits on disjoint views in parallel: two commits conflict iff
/// their closures intersect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewFootprint {
    /// Stored relations (base tables and sub-views) the view's programs
    /// read, including the view's own materialized relation.
    pub reads: BTreeSet<String>,
    /// Source relations the putback program writes (delta-rule targets).
    pub writes: BTreeSet<String>,
    /// Every relation a commit on this view may read or mutate: the
    /// view itself, `reads ∪ writes`, closed over cascades into
    /// sub-views. This is the commit's lock set.
    pub closure: BTreeSet<String>,
}

struct RegisteredView {
    strategy: UpdateStrategy,
    get: Program,
    incremental: Option<Program>,
    mode: StrategyMode,
    footprint: ViewFootprint,
    /// The strategy's constraints, prepared once for the per-update
    /// check.
    checks: Vec<ConstraintCheck>,
    /// Compiled plans of every rule a commit on this view evaluates:
    /// ∂put (or putback) rules, constraint checks and their support
    /// rules. Cascades into a sub-view use the sub-view's plans.
    plans: PlanCache,
}

/// One constraint of a registered view, prepared at registration for
/// [`check_constraints`].
///
/// Fast path: a constraint whose body has exactly one view atom, and
/// that atom positive, can only be newly violated by an *inserted* view
/// tuple — `S` is unchanged at check time and old view tuples passed the
/// same check earlier — so its view atom reads the `Δ⁺V` overlay. Other
/// constraints are checked in full.
struct ConstraintCheck {
    /// The constraint as the strategy states it (named in violations).
    constraint: Rule,
    /// The rule evaluated: the fast-path rewrite, with single-rule
    /// intermediates inlined so the planner probes instead of
    /// materializing them.
    rule: Rule,
    /// Whether `rule` reads the `Δ⁺V` overlay (the fast path).
    reads_insertions: bool,
    /// The intermediate rules `rule` still (transitively) references —
    /// computing unrelated intermediates would reintroduce `O(|S|)` work
    /// on the incremental path.
    support: Program,
}

impl ConstraintCheck {
    fn prepare_all(strategy: &UpdateStrategy) -> Vec<ConstraintCheck> {
        let view = &strategy.view.name;
        let is_view = |atom: &Atom| atom.pred.kind == DeltaKind::None && atom.pred.name == *view;
        let intermediates: Vec<&Rule> = strategy
            .putdelta
            .proper_rules()
            .filter(|r| {
                r.head
                    .atom()
                    .is_some_and(|a| a.pred.kind == DeltaKind::None)
            })
            .collect();
        strategy
            .constraints()
            .into_iter()
            .map(|constraint| {
                let view_lits: Vec<bool> = constraint
                    .body
                    .iter()
                    .filter_map(|l| match l {
                        Literal::Atom { atom, negated } if is_view(atom) => Some(*negated),
                        _ => None,
                    })
                    .collect();
                let reads_insertions = view_lits == [false];
                let mut rule = constraint.clone();
                if reads_insertions {
                    for lit in &mut rule.body {
                        if let Literal::Atom {
                            atom,
                            negated: false,
                        } = lit
                        {
                            if is_view(atom) {
                                atom.pred = PredRef::ins(view);
                            }
                        }
                    }
                }
                let rule = inline_simple_defs(&rule, &strategy.putdelta);
                let mut needed: HashSet<&str> = HashSet::new();
                let mut frontier: Vec<&str> = body_pred_names(&rule).collect();
                while let Some(name) = frontier.pop() {
                    if !needed.insert(name) {
                        continue;
                    }
                    for r in &intermediates {
                        if r.head.atom().is_some_and(|a| a.pred.name == name) {
                            frontier.extend(body_pred_names(r));
                        }
                    }
                }
                let support = Program::new(
                    intermediates
                        .iter()
                        .filter(|r| {
                            r.head
                                .atom()
                                .is_some_and(|a| needed.contains(a.pred.name.as_str()))
                        })
                        .map(|r| (*r).clone())
                        .collect(),
                );
                ConstraintCheck {
                    constraint: constraint.clone(),
                    rule,
                    reads_insertions,
                    support,
                }
            })
            .collect()
    }

    /// An evaluation context for `self.rule`, reading through `closure`,
    /// with the `Δ⁺V` overlay (fast path) and the support intermediates.
    fn context<'a>(
        &self,
        db: &'a mut Database,
        plans: &'a mut PlanCache,
        read_trace: Option<&'a Mutex<BTreeSet<String>>>,
        closure: &'a DeltaSet,
        insertions: &Relation,
    ) -> EngineResult<EvalContext<'a>> {
        let mut ctx = reading(db, plans, read_trace, closure);
        if self.reads_insertions {
            ctx.insert_overlay(insertions.clone());
        }
        if !self.support.is_empty() {
            let out = evaluate_program(&self.support, &mut ctx)?;
            for (_, rel) in out.relations {
                ctx.insert_overlay(rel);
            }
        }
        Ok(ctx)
    }
}

/// Predicate names of a rule's body atoms (either polarity).
fn body_pred_names(rule: &Rule) -> impl Iterator<Item = &str> {
    rule.body
        .iter()
        .filter_map(|l| l.atom())
        .map(|a| a.pred.name.as_str())
}

/// A registered view reduced to its persistable essence: schemas plus
/// the program *texts* (Datalog `Display` round-trips through the
/// parser, so text is the canonical serialization). Everything a fresh
/// engine needs to re-register the view with
/// [`Engine::register_definition`] — the WAL logs these for runtime
/// registrations and checkpoints snapshot the live set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewDefinition {
    /// Schemas of the strategy's source relations, in declaration order.
    pub sources: Vec<Schema>,
    /// Schema of the view relation.
    pub view: Schema,
    /// Putback program source (delta rules, intermediates, constraints).
    pub putdelta: String,
    /// The expected get the strategy was registered with, if any.
    pub expected_get: Option<String>,
    /// The get program the view was actually materialized from (derived
    /// by validation, or the accepted expected get).
    pub get: String,
    /// Execution mode of the registered strategy.
    pub mode: StrategyMode,
}

/// In-process updatable-view database.
pub struct Engine {
    db: Database,
    views: BTreeMap<String, RegisteredView>,
    /// When enabled, every relation name resolved during evaluation is
    /// recorded here — the observed read set the declared footprints are
    /// checked against (see the footprint conformance tests).
    read_trace: Option<Arc<Mutex<BTreeSet<String>>>>,
}

// The service layer (`birds-service`) shares one `Engine` across client
// threads behind an `RwLock`; every type the engine owns (interned values,
// `Arc<[Value]>` tuples, compiled plans) must stay thread-safe. Checked at
// compile time so a future `Rc`/`RefCell` in any layer fails here, not in
// a downstream crate.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

impl Engine {
    /// Engine over an initial database of base tables.
    pub fn new(db: Database) -> Self {
        Engine {
            db,
            views: BTreeMap::new(),
            read_trace: None,
        }
    }

    /// Plan counts and hit/miss counters summed over every registered
    /// view's plans (used by tests and diagnostics).
    pub fn plan_cache(&self) -> PlanStats {
        self.views.values().map(|rv| rv.plans.stats()).sum()
    }

    /// The dependency footprint of a registered view (see
    /// [`ViewFootprint`]); `None` for unknown names.
    pub fn view_footprint(&self, name: &str) -> Option<&ViewFootprint> {
        self.views.get(name).map(|rv| &rv.footprint)
    }

    /// The compiled plan of every rule a commit on `view` evaluates: each
    /// putback rule (`∂put` in incremental mode), then each prepared
    /// constraint check (the `⊥`-headed rules). Plans come from — and
    /// stay in — the view's cache, so these are the plans updates
    /// replay; a rule not planned yet is planned now, against empty view
    /// deltas, exactly as the registration warm-up does.
    pub fn explain(&mut self, view: &str) -> EngineResult<Vec<(Rule, Arc<RulePlan>)>> {
        let rv = self
            .views
            .get_mut(view)
            .ok_or_else(|| EngineError::NotAView(view.to_owned()))?;
        let none = DeltaSet::new();
        let insertions = rv.insertions(std::iter::empty())?;
        let mut plans = Vec::new();
        {
            let overlays = (&insertions, &HashSet::new());
            let (mut ctx, program) = rv.put(&mut self.db, None, &none, overlays)?;
            // Materialize the intermediates so every rule can be planned.
            let out = evaluate_program(program, &mut ctx)?;
            for (_, rel) in out.relations {
                ctx.insert_overlay(rel);
            }
            for rule in program.proper_rules() {
                plans.push((rule.clone(), ctx.plan_for(rule)?));
            }
        }
        for check in &rv.checks {
            let mut ctx = check.context(&mut self.db, &mut rv.plans, None, &none, &insertions)?;
            plans.push((check.rule.clone(), ctx.plan_for(&check.rule)?));
        }
        Ok(plans)
    }

    /// Start (or reset) recording of every relation name resolved during
    /// evaluation. Diagnostic-only: one branch per lookup while enabled.
    pub fn set_read_trace(&mut self, enabled: bool) {
        self.read_trace = enabled.then(|| Arc::new(Mutex::new(BTreeSet::new())));
    }

    /// Drain the recorded read trace (empty when tracing is off).
    pub fn take_read_trace(&mut self) -> BTreeSet<String> {
        match &self.read_trace {
            Some(sink) => std::mem::take(&mut sink.lock().unwrap_or_else(|e| e.into_inner())),
            None => BTreeSet::new(),
        }
    }

    /// Split the engine into its footprint-connected components: views
    /// whose closures intersect land in the same component (with every
    /// relation either of them can touch); relations no view depends on
    /// become singleton components. Each component is a self-contained
    /// [`Engine`] — commits on views in different components touch
    /// disjoint data, so a service can run them under independent locks
    /// with full `&mut` access. Components are returned in deterministic
    /// order (sorted by their smallest relation name); each view takes
    /// its compiled plans with it. [`Engine::absorb`] reverses the split.
    pub fn split_components(mut self) -> Vec<Engine> {
        let mut groups: Vec<BTreeSet<String>> = Vec::new();
        for rv in self.views.values() {
            let mut set = rv.footprint.closure.clone();
            let mut i = 0;
            while i < groups.len() {
                if !groups[i].is_disjoint(&set) {
                    set.extend(groups.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            groups.push(set);
        }
        for name in self.db.names() {
            if !groups.iter().any(|g| g.contains(name)) {
                groups.push(BTreeSet::from([name.to_owned()]));
            }
        }
        groups.sort_by(|a, b| a.first().cmp(&b.first()));
        groups
            .into_iter()
            .map(|group| {
                let mut db = Database::new();
                let mut views = BTreeMap::new();
                for name in &group {
                    if let Some(rel) = self.db.remove_relation(name) {
                        db.set_relation(rel);
                    }
                    if let Some(rv) = self.views.remove(name) {
                        views.insert(name.clone(), rv);
                    }
                }
                Engine {
                    db,
                    views,
                    read_trace: self.read_trace.clone(),
                }
            })
            .collect()
    }

    /// Merge another engine (typically a footprint component produced by
    /// [`Engine::split_components`]) back into this one. Fails without
    /// modifying either side if any relation or view name collides.
    pub fn absorb(&mut self, other: Engine) -> EngineResult<()> {
        if let Some(name) = other.db.names().find(|n| self.db.contains_relation(n)) {
            return Err(EngineError::Registration(format!(
                "cannot absorb: relation '{name}' exists on both sides"
            )));
        }
        for rel in other.db.into_relations() {
            self.db.set_relation(rel);
        }
        self.views.extend(other.views);
        Ok(())
    }

    /// Read access to any relation (base table or materialized view).
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.db.relation(name)
    }

    /// The underlying database (for inspection).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Crate-internal mutable database access (snapshot restore). Not
    /// public: arbitrary base-table mutation would silently invalidate
    /// materialized views; external callers go through the view-update
    /// path or [`Engine::restore`].
    pub(crate) fn database_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Publish immutable versions of every stored relation (base tables
    /// and materialized views), in name order.
    ///
    /// Later mutations through the view-update path never disturb a
    /// published version. This is the engine half of the service's MVCC
    /// snapshot publication: after applying an epoch's deltas (still
    /// under the shard's write lock), the service calls this and
    /// publishes the result as the shard's image. Cost per relation is
    /// `O(delta since its previous publication)` — untouched relations
    /// re-share their previous version in `O(1)`, and touched ones
    /// replay only their effective mutations into an alternate shadow
    /// buffer (left-right publication, see `birds_store::relation`) —
    /// so the write path never pays a tuple-count-proportional clone
    /// just because snapshots are being published. Needs `&mut`: the
    /// per-relation publication state advances.
    pub fn relation_versions(&mut self) -> Vec<RelationVersion> {
        self.db.relations_mut().map(Relation::version).collect()
    }

    /// Is `name` a registered updatable view?
    pub fn is_view(&self, name: &str) -> bool {
        self.views.contains_key(name)
    }

    /// Names of all registered updatable views, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.keys().map(String::as_str)
    }

    /// The schema of a registered view (the strategy's view relation).
    pub fn view_schema(&self, name: &str) -> Option<&Schema> {
        self.views.get(name).map(|rv| &rv.strategy.view)
    }

    /// The persistable [`ViewDefinition`] of a registered view.
    pub fn view_definition(&self, name: &str) -> Option<ViewDefinition> {
        self.views.get(name).map(|rv| ViewDefinition {
            sources: rv.strategy.source_schema.relations.clone(),
            view: rv.strategy.view.clone(),
            putdelta: rv.strategy.putdelta.to_string(),
            expected_get: rv.strategy.expected_get.as_ref().map(Program::to_string),
            get: rv.get.to_string(),
            mode: rv.mode,
        })
    }

    /// Persistable definitions of every registered view, in **dependency
    /// order**: a view whose footprint closure contains another view
    /// (i.e. whose commits can cascade into it) comes after that
    /// sub-view, so replaying the list through
    /// [`Engine::register_definition`] re-registers cascade targets
    /// before the views that depend on them. (Name order is *not*
    /// dependency order.)
    pub fn view_definitions(&self) -> Vec<ViewDefinition> {
        let mut ordered: Vec<&str> = Vec::new();
        let mut visiting: BTreeSet<&str> = BTreeSet::new();
        fn visit<'a>(
            name: &'a str,
            views: &'a BTreeMap<String, RegisteredView>,
            ordered: &mut Vec<&'a str>,
            visiting: &mut BTreeSet<&'a str>,
        ) {
            if ordered.contains(&name) || !visiting.insert(name) {
                return;
            }
            if let Some(rv) = views.get(name) {
                for dep in &rv.footprint.closure {
                    if dep != name && views.contains_key(dep) {
                        visit(dep, views, ordered, visiting);
                    }
                }
                ordered.push(name);
            }
            visiting.remove(name);
        }
        for name in self.views.keys() {
            visit(name, &self.views, &mut ordered, &mut visiting);
        }
        ordered
            .into_iter()
            .map(|n| self.view_definition(n).expect("ordered names are views"))
            .collect()
    }

    /// Re-register a view from its persisted [`ViewDefinition`] — the
    /// replay half of [`Engine::view_definitions`]. Shape checks re-run
    /// (the texts were produced by a strategy that passed them); the
    /// solver does not, making replay deterministic and cheap.
    pub fn register_definition(&mut self, def: &ViewDefinition) -> EngineResult<()> {
        let mut source_schema = DatabaseSchema::new();
        source_schema.relations = def.sources.clone();
        let strategy = UpdateStrategy::new(
            source_schema,
            def.view.clone(),
            parse_program(&def.putdelta).map_err(|e| EngineError::Registration(e.to_string()))?,
            def.expected_get
                .as_deref()
                .map(parse_program)
                .transpose()
                .map_err(|e| EngineError::Registration(e.to_string()))?,
        )
        .map_err(|e| EngineError::Registration(e.to_string()))?;
        let get = parse_program(&def.get).map_err(|e| EngineError::Registration(e.to_string()))?;
        self.register_view_unchecked(strategy, get, def.mode)
    }

    /// Merge footprint components back into one engine — the inverse of
    /// [`Engine::split_components`] for an arbitrary (non-empty) subset
    /// of components. This is what lets a live service re-shard a
    /// *subset* of its topology: take only the affected components,
    /// merge, mutate the view set, and re-split, while disjoint
    /// components stay untouched (and unlocked).
    pub fn merge(components: impl IntoIterator<Item = Engine>) -> EngineResult<Engine> {
        let mut iter = components.into_iter();
        let mut merged = iter
            .next()
            .ok_or_else(|| EngineError::Registration("cannot merge zero components".into()))?;
        for component in iter {
            merged.absorb(component)?;
        }
        Ok(merged)
    }

    /// Deregister a view: drop its strategy, its compiled plans and its
    /// materialized relation. The view's source relations stay (they may
    /// hold data and other views may read them); on a re-split they
    /// become free relations. Fails without modifying anything when the view is a
    /// cascade target of another registered view — that view's delta
    /// rules write into this one, so removing it would break the
    /// dependent's update path.
    pub fn unregister_view(&mut self, name: &str) -> EngineResult<()> {
        if !self.views.contains_key(name) {
            return Err(EngineError::NotAView(name.to_owned()));
        }
        if let Some(dependent) = self.dependent_view(name) {
            return Err(EngineError::Registration(format!(
                "view '{name}' is in the footprint of view '{dependent}'"
            )));
        }
        self.views.remove(name);
        self.db.remove_relation(name);
        Ok(())
    }

    /// The name of a registered view (other than `name` itself) whose
    /// footprint closure contains `name`, if any — i.e. a view whose
    /// commits may cascade into or read `name`.
    pub fn dependent_view(&self, name: &str) -> Option<&str> {
        self.views
            .iter()
            .find(|(other, rv)| other.as_str() != name && rv.footprint.closure.contains(name))
            .map(|(other, _)| other.as_str())
    }

    /// Register an updatable view after validating its strategy
    /// (Algorithm 1). The view is materialized from the derived (or
    /// accepted expected) get. Fails when validation rejects the strategy.
    pub fn register_view(
        &mut self,
        strategy: UpdateStrategy,
        mode: StrategyMode,
    ) -> EngineResult<()> {
        let report = validate(&strategy).map_err(|e| EngineError::Registration(e.to_string()))?;
        if !report.valid {
            return Err(EngineError::Registration(format!(
                "strategy for '{}' is invalid: {}",
                strategy.view.name,
                report.reason.unwrap_or_default()
            )));
        }
        let get = report
            .derived_get
            .expect("valid reports carry a view definition");
        self.register_view_unchecked(strategy, get, mode)
    }

    /// Register without running the validator — for callers that already
    /// validated (benchmarks; bulk registration).
    pub fn register_view_unchecked(
        &mut self,
        strategy: UpdateStrategy,
        get: Program,
        mode: StrategyMode,
    ) -> EngineResult<()> {
        let name = strategy.view.name.clone();
        if self.db.contains_relation(&name) {
            return Err(EngineError::Registration(format!(
                "relation '{name}' already exists"
            )));
        }
        for schema in &strategy.source_schema.relations {
            if !self.db.contains_relation(&schema.name) {
                return Err(EngineError::Registration(format!(
                    "source relation '{}' does not exist",
                    schema.name
                )));
            }
        }
        // Materialize the view (one-shot: a private plan cache).
        let mut rel = if get.is_empty() {
            Relation::new(name.clone(), strategy.view.arity())
        } else {
            let mut ctx = EvalContext::new(&mut self.db);
            if let Some(sink) = self.read_trace.as_deref() {
                ctx.trace_reads_into(sink);
            }
            evaluate_query(&get, &PredRef::plain(&name), &mut ctx)?.renamed(name.clone())
        };
        // Per-column hash indexes so DML predicates (Algorithm 2) probe
        // instead of scanning — the analogue of the B-tree indexes the
        // paper's PostgreSQL setup relies on. Built once, maintained
        // incrementally under updates.
        for col in 0..rel.arity() {
            rel.ensure_index(&[col])
                .map_err(|e| EngineError::Store(e.to_string()))?;
        }
        self.db.set_relation(rel);
        // Failures past this point must not leak the half-registered
        // view relation into the database — a live service re-splits the
        // engine after a failed registration and a leaked relation would
        // silently become a free singleton shard.
        match self.prepare(strategy, get, mode) {
            Ok(rv) => {
                self.views.insert(name, rv);
                Ok(())
            }
            Err(e) => {
                self.db.remove_relation(&name);
                Err(e)
            }
        }
    }

    /// Incrementalize (when asked) and prepare a view being registered,
    /// then warm it up with an empty view delta: the planner builds every
    /// base-table index the plans probe, so the first real update doesn't
    /// pay an O(|S|) index build (the paper's PostgreSQL setup has its
    /// B-trees before measuring), and compiles the plans updates replay.
    fn prepare(
        &mut self,
        strategy: UpdateStrategy,
        get: Program,
        mode: StrategyMode,
    ) -> EngineResult<RegisteredView> {
        let incremental = match mode {
            StrategyMode::Incremental => Some(
                incrementalize(&strategy).map_err(|e| EngineError::Registration(e.to_string()))?,
            ),
            StrategyMode::Original => None,
        };
        let mut rv = RegisteredView {
            footprint: compute_footprint(&self.db, &self.views, &strategy, &get, &incremental),
            checks: ConstraintCheck::prepare_all(&strategy),
            strategy,
            get,
            incremental,
            mode,
            plans: PlanCache::new(),
        };
        let (none, insertions) = (DeltaSet::new(), rv.insertions(std::iter::empty())?);
        let overlays = (&insertions, &HashSet::new());
        let (mut ctx, program) =
            rv.put(&mut self.db, self.read_trace.as_deref(), &none, overlays)?;
        evaluate_program(program, &mut ctx)?;
        Ok(rv)
    }

    /// Re-materialize a registered view from its get definition (used
    /// after direct base-table mutation).
    pub fn refresh_view(&mut self, name: &str) -> EngineResult<()> {
        let rv = self
            .views
            .get(name)
            .ok_or_else(|| EngineError::NotAView(name.to_owned()))?;
        let tuples: Vec<Tuple> = if rv.get.is_empty() {
            vec![]
        } else {
            let mut ctx = EvalContext::new(&mut self.db);
            if let Some(sink) = self.read_trace.as_deref() {
                ctx.trace_reads_into(sink);
            }
            let rel = evaluate_query(&rv.get, &PredRef::plain(name), &mut ctx)?;
            rel.tuples().iter().cloned().collect()
        };
        let target = self
            .db
            .relation_mut(name)
            .ok_or_else(|| EngineError::NotAView(name.to_owned()))?;
        target.replace_all(tuples)?;
        Ok(())
    }

    /// Execute a view-update transaction: one or more DML statements (a
    /// `BEGIN … END` script) targeting a single registered view.
    pub fn execute(&mut self, sql: &str) -> EngineResult<ExecutionStats> {
        let statements = parse_script(sql)?;
        self.execute_statements(&statements)
    }

    /// Execute a view-update transaction from pre-parsed statements (the
    /// service layer parses once per request and batches statements, so it
    /// must not pay a re-serialize/re-parse round trip per transaction):
    /// [`Engine::derive_delta`], then [`Engine::apply_delta`].
    pub fn execute_statements(
        &mut self,
        statements: &[DmlStatement],
    ) -> EngineResult<ExecutionStats> {
        let Some(first) = statements.first() else {
            return Ok(ExecutionStats::default());
        };
        let view = first.table();
        if statements.iter().any(|s| s.table() != view) {
            return Err(EngineError::BadStatement(
                "a transaction must target a single view".into(),
            ));
        }
        let delta = self.derive_delta(view, statements)?;
        self.apply_delta(view, delta)
    }

    /// Derive the net (normalized, effective) view delta of a statement
    /// sequence against the *current* view state, without applying it.
    /// This is the coalescing half of batched execution: a service batch
    /// runs Algorithm 2 once over all buffered statements, then applies
    /// the net delta in one incremental pass via [`Engine::apply_delta`].
    pub fn derive_delta(
        &self,
        view_name: &str,
        statements: &[DmlStatement],
    ) -> EngineResult<Delta> {
        let rv = self
            .views
            .get(view_name)
            .ok_or_else(|| EngineError::NotAView(view_name.to_owned()))?;
        let view_rel = self
            .db
            .relation(view_name)
            .ok_or_else(|| EngineError::NotAView(view_name.to_owned()))?;
        derive_view_delta(view_rel, &rv.strategy.view, statements)
    }

    /// Apply a batched view delta in **one** strategy evaluation — the
    /// batched-update entry point. The delta is normalized against the
    /// current view state first (insertions already present and deletions
    /// already absent are dropped), so a delta derived earlier in a
    /// session stays safe to apply after unrelated updates. The
    /// transaction is atomic: its whole closure (ΔV, ΔS and every cascade)
    /// is derived first, then one [`DeltaSet::apply_to`] writes it.
    pub fn apply_delta(&mut self, view_name: &str, delta: Delta) -> EngineResult<ExecutionStats> {
        let rv = self
            .views
            .get(view_name)
            .ok_or_else(|| EngineError::NotAView(view_name.to_owned()))?;
        let arity = rv.strategy.view.arity();
        if let Some(t) = delta
            .insertions
            .iter()
            .chain(delta.deletions.iter())
            .find(|t| t.arity() != arity)
        {
            return Err(EngineError::BadStatement(format!(
                "delta tuple {t} has arity {} but view '{view_name}' has arity {arity}",
                t.arity()
            )));
        }
        let mut closure = DeltaSet::new();
        let stats = self.derive(view_name, delta, 0, &mut closure)?;
        closure.apply_to(&mut self.db)?;
        Ok(stats)
    }

    /// Derive the closure of a view delta into `closure`: the trigger
    /// pipeline of §6.1, reading every stored relation through its closure
    /// entry, so nothing here writes a tuple (planning may build indexes).
    /// ΔS joins the closure, a base table's delta directly and a view's by
    /// deriving its closure in turn.
    fn derive(
        &mut self,
        view_name: &str,
        mut delta: Delta,
        depth: usize,
        closure: &mut DeltaSet,
    ) -> EngineResult<ExecutionStats> {
        if depth > 8 {
            return Err(EngineError::Eval(
                "view update cascade exceeded depth limit".into(),
            ));
        }
        let rv = self
            .views
            .get_mut(view_name)
            .ok_or_else(|| EngineError::NotAView(view_name.to_owned()))?;
        let view = self
            .db
            .relation(view_name)
            .ok_or_else(|| EngineError::NotAView(view_name.to_owned()))?;
        let pending = closure.get(view_name);
        delta.normalize_by(|t| match pending {
            None => view.contains(t),
            Some(p) => p.insertions.contains(t) || (view.contains(t) && !p.deletions.contains(t)),
        });
        let mut stats = ExecutionStats {
            view_delta_size: delta.len(),
            ..Default::default()
        };
        if delta.is_empty() {
            return Ok(stats);
        }
        // The `Δ⁺V` overlay, shared by ∂put and the constraint checks.
        let insertions = rv.insertions(delta.insertions.iter().cloned())?;
        // The putback reads `V′`, ∂put the `V` before this delta.
        if rv.mode == StrategyMode::Original {
            fold(closure, &self.db, view_name, delta.clone());
        }
        let out = {
            let overlays = (&insertions, &delta.deletions);
            let (mut ctx, program) =
                rv.put(&mut self.db, self.read_trace.as_deref(), closure, overlays)?;
            evaluate_program(program, &mut ctx)?
        };
        let delta_set = collect_delta_set(&rv.strategy, out.relations);
        if rv.mode == StrategyMode::Incremental {
            fold(closure, &self.db, view_name, delta);
        }
        rv.check_constraints(
            &mut self.db,
            self.read_trace.as_deref(),
            closure,
            &insertions,
        )?;
        if !delta_set.is_non_contradictory() {
            return Err(EngineError::ContradictoryDelta(format!(
                "view update on '{view_name}'"
            )));
        }
        stats.source_delta_size = delta_set.len();
        let mut cascades = Vec::new();
        for (name, d) in delta_set.iter().filter(|(_, d)| !d.is_empty()) {
            if !self.db.contains_relation(name) {
                return Err(EngineError::Store(format!("unknown relation '{name}'")));
            }
            if self.views.contains_key(name) {
                cascades.push((name, d.clone()));
            } else {
                fold(closure, &self.db, name, d.clone());
            }
        }
        for (sub_view, sub_delta) in cascades {
            stats.cascades += 1 + self
                .derive(sub_view, sub_delta, depth + 1, closure)?
                .cascades;
        }
        Ok(stats)
    }
}

impl RegisteredView {
    /// The view's `Δ⁺V` overlay, holding `tuples`.
    fn insertions(&self, tuples: impl IntoIterator<Item = Tuple>) -> EngineResult<Relation> {
        let view = &self.strategy.view;
        let name = PredRef::ins(&view.name).flat_name();
        Ok(Relation::with_tuples(name, view.arity(), tuples)?)
    }

    /// An evaluation context reading through `closure`, and the program to
    /// run in it: `∂put` over the `±V` overlays in incremental mode, the
    /// putback (which reads `V′` through `closure`) in original mode.
    fn put<'a>(
        &'a mut self,
        db: &'a mut Database,
        read_trace: Option<&'a Mutex<BTreeSet<String>>>,
        closure: &'a DeltaSet,
        (insertions, deletions): (&Relation, &HashSet<Tuple>),
    ) -> EngineResult<(EvalContext<'a>, &'a Program)> {
        let mut ctx = reading(db, &mut self.plans, read_trace, closure);
        let Some(dput) = &self.incremental else {
            return Ok((ctx, &self.strategy.putdelta));
        };
        let view = &self.strategy.view;
        let del = PredRef::del(&view.name).flat_name();
        ctx.insert_overlay(insertions.clone());
        ctx.insert_overlay(Relation::with_tuples(
            del,
            view.arity(),
            deletions.iter().cloned(),
        )?);
        Ok((ctx, dput))
    }

    /// Check the view's prepared constraints against `(S, V′)` as
    /// `closure` leaves them (see [`ConstraintCheck`] for the `Δ⁺V` fast
    /// path).
    fn check_constraints(
        &mut self,
        db: &mut Database,
        read_trace: Option<&Mutex<BTreeSet<String>>>,
        closure: &DeltaSet,
        insertions: &Relation,
    ) -> EngineResult<()> {
        for check in &self.checks {
            let mut ctx = check.context(db, &mut self.plans, read_trace, closure, insertions)?;
            if rule_has_witness(&check.rule, &mut ctx)? {
                return Err(EngineError::ConstraintViolation {
                    view: self.strategy.view.name.clone(),
                    constraint: check.constraint.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Merge `delta` into `name`'s closure entry and normalize the entry
/// against the stored tuples, so it stays the net effect of everything
/// the commit derived for that relation.
fn fold(closure: &mut DeltaSet, db: &Database, name: &str, delta: Delta) {
    let entry = closure.entry(name);
    if entry.is_empty() {
        *entry = delta;
    } else {
        entry.merge(delta);
    }
    if let Some(rel) = db.relation(name) {
        entry.normalize_against(rel);
    }
}

/// An evaluation context over `db` that lends `plans` and the read trace
/// and reads every relation `closure` changes through its pending delta.
fn reading<'a>(
    db: &'a mut Database,
    plans: &'a mut PlanCache,
    read_trace: Option<&'a Mutex<BTreeSet<String>>>,
    closure: &'a DeltaSet,
) -> EvalContext<'a> {
    let mut ctx = EvalContext::with_plan_cache(db, plans);
    if let Some(sink) = read_trace {
        ctx.trace_reads_into(sink);
    }
    for (name, delta) in closure.iter().filter(|(_, d)| !d.is_empty()) {
        ctx.patch(name, delta);
    }
    ctx
}

/// Compute a view's dependency footprint at registration time.
///
/// Reads: the strategy's declared source reads, plus every stored
/// relation (base table or already-registered view — the view's own
/// relation included) named in a body of the derived get or the
/// incrementalized program. Intermediate and delta predicates live in
/// evaluation overlays and carry no lock, so they are excluded. The
/// closure additionally folds in the complete closure of every sub-view
/// the strategy can cascade into; registration order guarantees those
/// are final (a view registered later can never become a cascade target
/// of an earlier one, because its name was free when the earlier
/// strategy was checked).
fn compute_footprint(
    db: &Database,
    views: &BTreeMap<String, RegisteredView>,
    strategy: &UpdateStrategy,
    get: &Program,
    incremental: &Option<Program>,
) -> ViewFootprint {
    let mut reads = strategy.read_relations();
    {
        let mut visit = |program: &Program| {
            for pred in program.all_body_predicates() {
                if db.contains_relation(&pred.name) || views.contains_key(&pred.name) {
                    reads.insert(pred.name.clone());
                }
            }
        };
        visit(get);
        if let Some(program) = incremental {
            visit(program);
        }
    }
    let writes = strategy.write_relations();
    let mut closure: BTreeSet<String> = reads.union(&writes).cloned().collect();
    closure.insert(strategy.view.name.clone());
    loop {
        let sub_closures: Vec<&BTreeSet<String>> = closure
            .iter()
            .filter_map(|name| views.get(name))
            .map(|rv| &rv.footprint.closure)
            .collect();
        let before = closure.len();
        for sub in sub_closures {
            closure.extend(sub.iter().cloned());
        }
        if closure.len() == before {
            break;
        }
    }
    ViewFootprint {
        reads,
        writes,
        closure,
    }
}

/// Every stored-relation name an *incoming* strategy could read or
/// write — the preview half of `compute_footprint`, computable
/// **before** the view exists anywhere. A live service intersects this
/// set with its relation→shard route to find the shards a registration
/// must quiesce; disjoint shards keep committing. Conservative: the set
/// may include intermediate-predicate names that are not stored
/// relations (the route intersection discards them), but it can never
/// miss a stored relation the registered view's footprint will contain,
/// because the footprint is computed from exactly these programs.
pub fn strategy_touches(strategy: &UpdateStrategy, get: &Program) -> BTreeSet<String> {
    let mut touched = strategy.read_relations();
    touched.extend(strategy.write_relations());
    touched.insert(strategy.view.name.clone());
    for schema in &strategy.source_schema.relations {
        touched.insert(schema.name.clone());
    }
    let mut visit = |program: &Program| {
        for pred in program.all_body_predicates() {
            touched.insert(pred.name.clone());
        }
    };
    visit(&strategy.putdelta);
    visit(get);
    if let Some(expected) = &strategy.expected_get {
        visit(expected);
    }
    touched
}

/// Collect the evaluator's delta-predicate outputs into a `DeltaSet`:
/// ΔS keeps only the deltas of source relations (Appendix C, Step 4).
/// An incrementalized program also derives stage deltas of its
/// intermediate predicates (Figure 7), which name no stored relation.
fn collect_delta_set(
    strategy: &UpdateStrategy,
    relations: BTreeMap<PredRef, Relation>,
) -> DeltaSet {
    let mut ds = DeltaSet::new();
    for (pred, rel) in relations {
        if strategy.source_schema.get(&pred.name).is_none() {
            continue;
        }
        let entry = match pred.kind {
            DeltaKind::Insert => &mut ds.entry(&pred.name).insertions,
            DeltaKind::Delete => &mut ds.entry(&pred.name).deletions,
            _ => continue,
        };
        entry.extend(rel.into_tuples());
    }
    ds
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::{tuple, DatabaseSchema, Schema, SortKind};

    fn union_engine(mode: StrategyMode) -> Engine {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                .with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new("v", vec![("a", SortKind::Int)]),
            "
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            ",
            None,
        )
        .unwrap();
        let mut engine = Engine::new(db);
        engine.register_view(strategy, mode).unwrap();
        engine
    }

    #[test]
    fn view_is_materialized_on_registration() {
        let engine = union_engine(StrategyMode::Original);
        let v = engine.relation("v").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.contains(&tuple![1]) && v.contains(&tuple![2]) && v.contains(&tuple![4]));
    }

    #[test]
    fn example_3_1_end_to_end_original() {
        // Insert 3 and delete 2: expect +r1(3), -r2(2) applied.
        let mut engine = union_engine(StrategyMode::Original);
        engine
            .execute("BEGIN; INSERT INTO v VALUES (3); DELETE FROM v WHERE a = 2; END;")
            .unwrap();
        let r1 = engine.relation("r1").unwrap();
        let r2 = engine.relation("r2").unwrap();
        assert!(r1.contains(&tuple![1]) && r1.contains(&tuple![3]));
        assert!(!r2.contains(&tuple![2]) && r2.contains(&tuple![4]));
        let v = engine.relation("v").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.contains(&tuple![3]));
    }

    #[test]
    fn example_3_1_end_to_end_incremental() {
        let mut engine = union_engine(StrategyMode::Incremental);
        engine
            .execute("BEGIN; INSERT INTO v VALUES (3); DELETE FROM v WHERE a = 2; END;")
            .unwrap();
        let r1 = engine.relation("r1").unwrap();
        let r2 = engine.relation("r2").unwrap();
        assert!(r1.contains(&tuple![3]));
        assert!(!r2.contains(&tuple![2]));
    }

    #[test]
    fn original_and_incremental_agree() {
        let scripts = [
            "INSERT INTO v VALUES (10);",
            "DELETE FROM v WHERE a = 1;",
            "BEGIN; INSERT INTO v VALUES (5); INSERT INTO v VALUES (6); DELETE FROM v WHERE a = 4; END;",
            "UPDATE v SET a = 99 WHERE a = 2;",
        ];
        for script in scripts {
            let mut orig = union_engine(StrategyMode::Original);
            let mut inc = union_engine(StrategyMode::Incremental);
            orig.execute(script).unwrap();
            inc.execute(script).unwrap();
            assert!(
                orig.database().same_contents(inc.database()),
                "divergence on {script}"
            );
        }
    }

    #[test]
    fn putget_holds_after_updates() {
        // After any update, re-running get over the new source must give
        // the updated view (PutGet, empirically).
        let mut engine = union_engine(StrategyMode::Original);
        engine.execute("INSERT INTO v VALUES (7);").unwrap();
        engine.execute("DELETE FROM v WHERE a = 1;").unwrap();
        let v_before: Vec<Tuple> = {
            let mut v: Vec<Tuple> = engine.relation("v").unwrap().iter().cloned().collect();
            v.sort();
            v
        };
        engine.refresh_view("v").unwrap();
        let mut v_after: Vec<Tuple> = engine.relation("v").unwrap().iter().cloned().collect();
        v_after.sort();
        assert_eq!(v_before, v_after);
    }

    #[test]
    fn non_view_target_rejected() {
        let mut engine = union_engine(StrategyMode::Original);
        assert!(matches!(
            engine.execute("INSERT INTO r1 VALUES (9);"),
            Err(EngineError::NotAView(_))
        ));
    }

    fn constrained_engine(mode: StrategyMode) -> Engine {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r", 2, vec![tuple![1, 5], tuple![2, 9]]).unwrap())
            .unwrap();
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new(
                "r",
                vec![("x", SortKind::Int), ("y", SortKind::Int)],
            )),
            Schema::new("v", vec![("x", SortKind::Int), ("y", SortKind::Int)]),
            "
            false :- v(X, Y), not Y > 2.
            +r(X, Y) :- v(X, Y), not r(X, Y).
            m(X, Y) :- r(X, Y), Y > 2.
            -r(X, Y) :- m(X, Y), not v(X, Y).
            ",
            None,
        )
        .unwrap();
        let mut engine = Engine::new(db);
        engine.register_view(strategy, mode).unwrap();
        engine
    }

    #[test]
    fn constraint_violation_rejects_and_rolls_back() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut engine = constrained_engine(mode);
            let err = engine.execute("INSERT INTO v VALUES (3, 1);").unwrap_err();
            assert!(matches!(err, EngineError::ConstraintViolation { .. }));
            // view unchanged
            let v = engine.relation("v").unwrap();
            assert_eq!(v.len(), 2);
            assert!(!v.contains(&tuple![3, 1]));
            // source unchanged
            assert_eq!(engine.relation("r").unwrap().len(), 2);
        }
    }

    #[test]
    fn selection_view_update_flows_to_source() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut engine = constrained_engine(mode);
            engine.execute("INSERT INTO v VALUES (3, 7);").unwrap();
            assert!(engine.relation("r").unwrap().contains(&tuple![3, 7]));
            engine.execute("DELETE FROM v WHERE x = 1;").unwrap();
            assert!(!engine.relation("r").unwrap().contains(&tuple![1, 5]));
        }
    }

    #[test]
    fn view_over_view_cascade() {
        // residents1962-style: a view whose "source" is another view.
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1], tuple![3]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![8]]).unwrap())
            .unwrap();
        let mut engine = Engine::new(db);
        // v = r1 ∪ r2 (updatable)
        let v_strategy = UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                .with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new("v", vec![("a", SortKind::Int)]),
            "
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            ",
            None,
        )
        .unwrap();
        engine
            .register_view(v_strategy, StrategyMode::Original)
            .unwrap();
        // w = σ_{a>2}(v), updating v as its source
        let w_strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new("v", vec![("a", SortKind::Int)])),
            Schema::new("w", vec![("a", SortKind::Int)]),
            "
            false :- w(X), not X > 2.
            +v(X) :- w(X), not v(X).
            mv(X) :- v(X), X > 2.
            -v(X) :- mv(X), not w(X).
            ",
            None,
        )
        .unwrap();
        engine
            .register_view(w_strategy, StrategyMode::Original)
            .unwrap();
        assert_eq!(engine.relation("w").unwrap().len(), 2); // {3, 8}

        // Insert into w: must cascade into v and then into r1.
        let stats = engine.execute("INSERT INTO w VALUES (9);").unwrap();
        assert!(stats.cascades >= 1);
        assert!(engine.relation("v").unwrap().contains(&tuple![9]));
        assert!(engine.relation("r1").unwrap().contains(&tuple![9]));
        // Delete from w: cascades a deletion.
        engine.execute("DELETE FROM w WHERE a = 8;").unwrap();
        assert!(!engine.relation("v").unwrap().contains(&tuple![8]));
        assert!(!engine.relation("r2").unwrap().contains(&tuple![8]));
        // w itself reflects both updates.
        let w = engine.relation("w").unwrap();
        assert!(w.contains(&tuple![9]) && !w.contains(&tuple![8]));
    }

    /// A cascade rejected by the sub-view's constraint undoes the
    /// parent's writes too: `w = σ_{a>2}(v)` over `v = r1 ∪ r2`, where
    /// `v` (registered without validation) rejects values above 100.
    #[test]
    fn rejected_cascade_leaves_every_relation_unchanged() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut db = Database::new();
            db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1], tuple![3]]).unwrap())
                .unwrap();
            db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![8]]).unwrap())
                .unwrap();
            let mut engine = Engine::new(db);
            let v_strategy = UpdateStrategy::parse(
                DatabaseSchema::new()
                    .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                    .with(Schema::new("r2", vec![("a", SortKind::Int)])),
                Schema::new("v", vec![("a", SortKind::Int)]),
                "
                false :- v(X), X > 100.
                -r1(X) :- r1(X), not v(X).
                -r2(X) :- r2(X), not v(X).
                +r1(X) :- v(X), not r1(X), not r2(X).
                ",
                None,
            )
            .unwrap();
            let v_get = parse_program("v(X) :- r1(X). v(X) :- r2(X).").unwrap();
            engine
                .register_view_unchecked(v_strategy, v_get, mode)
                .unwrap();
            let w_strategy = UpdateStrategy::parse(
                DatabaseSchema::new().with(Schema::new("v", vec![("a", SortKind::Int)])),
                Schema::new("w", vec![("a", SortKind::Int)]),
                "
                false :- w(X), not X > 2.
                +v(X) :- w(X), not v(X).
                mv(X) :- v(X), X > 2.
                -v(X) :- mv(X), not w(X).
                ",
                None,
            )
            .unwrap();
            engine.register_view(w_strategy, mode).unwrap();
            let contents = |engine: &Engine| {
                ["r1", "r2", "v", "w"].map(|name| {
                    let mut tuples: Vec<Tuple> =
                        engine.relation(name).unwrap().iter().cloned().collect();
                    tuples.sort();
                    tuples
                })
            };
            let before = contents(&engine);
            let err = engine.execute("INSERT INTO w VALUES (500);").unwrap_err();
            assert!(
                matches!(&err, EngineError::ConstraintViolation { view, .. } if view == "v"),
                "{mode:?}: {err}"
            );
            assert_eq!(contents(&engine), before, "{mode:?}");
            // The engine still takes writes that pass every constraint.
            engine.execute("INSERT INTO w VALUES (50);").unwrap();
            assert!(engine.relation("r1").unwrap().contains(&tuple![50]));
        }
    }

    #[test]
    fn empty_transaction_is_noop() {
        let mut engine = union_engine(StrategyMode::Original);
        let stats = engine.execute("INSERT INTO v VALUES (1);").unwrap(); // already present
        assert_eq!(stats.view_delta_size, 0);
        assert_eq!(engine.relation("r1").unwrap().len(), 1);
    }

    #[test]
    fn plans_are_computed_at_most_once_per_rule_per_session() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut engine = union_engine(mode);
            // Registration (materialization + warm-up) populates the cache.
            let planned_at_registration = engine.plan_cache().misses();
            assert!(planned_at_registration > 0, "warm-up compiles plans");
            // A `misses == len` invariant means no rule was ever planned
            // twice: a replanned rule would bump `misses` without growing
            // the map.
            assert_eq!(
                engine.plan_cache().misses(),
                engine.plan_cache().len() as u64
            );

            engine.execute("INSERT INTO v VALUES (30);").unwrap();
            let after_first_update = engine.plan_cache().misses();
            engine.execute("INSERT INTO v VALUES (31);").unwrap();
            engine.execute("DELETE FROM v WHERE a = 30;").unwrap();
            engine
                .execute("BEGIN; INSERT INTO v VALUES (32); DELETE FROM v WHERE a = 31; END;")
                .unwrap();
            assert_eq!(
                engine.plan_cache().misses(),
                after_first_update,
                "{mode:?}: repeated updates replay cached plans, never replan"
            );
            assert_eq!(
                engine.plan_cache().misses(),
                engine.plan_cache().len() as u64,
                "{mode:?}: every rule planned at most once in the session"
            );
            assert!(
                engine.plan_cache().hits() > 0,
                "{mode:?}: updates actually hit the cache"
            );
        }
    }

    #[test]
    fn batched_delta_equals_per_statement_replay() {
        // Coalescing many statements into one net delta and applying it
        // in one pass must land on the same database as executing the
        // statements one at a time.
        let scripts = [
            "INSERT INTO v VALUES (10);",
            "INSERT INTO v VALUES (11);",
            "DELETE FROM v WHERE a = 10;",
            "INSERT INTO v VALUES (12);",
            "DELETE FROM v WHERE a = 1;",
        ];
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut serial = union_engine(mode);
            for s in scripts {
                serial.execute(s).unwrap();
            }
            let mut batched = union_engine(mode);
            let statements: Vec<_> = scripts
                .iter()
                .flat_map(|s| parse_script(s).unwrap())
                .collect();
            let delta = batched.derive_delta("v", &statements).unwrap();
            // Net effect: insert 11 and 12, delete 1; the 10-insert is
            // cancelled by its own deletion before ever being applied.
            assert_eq!(delta.insertions.len(), 2);
            assert_eq!(delta.deletions.len(), 1);
            let stats = batched.apply_delta("v", delta).unwrap();
            assert_eq!(stats.view_delta_size, 3);
            assert!(
                serial.database().same_contents(batched.database()),
                "{mode:?}: batched application diverges from serial replay"
            );
        }
    }

    #[test]
    fn apply_delta_normalizes_stale_deltas() {
        let mut engine = union_engine(StrategyMode::Incremental);
        let mut delta = Delta::new();
        delta.push_insert(tuple![1]); // already in the view
        delta.push_delete(tuple![99]); // not in the view
        delta.push_insert(tuple![50]); // genuinely new
        let stats = engine.apply_delta("v", delta).unwrap();
        assert_eq!(stats.view_delta_size, 1, "only the new tuple survives");
        assert!(engine.relation("v").unwrap().contains(&tuple![50]));
        assert!(engine.relation("r1").unwrap().contains(&tuple![50]));
    }

    #[test]
    fn apply_delta_rejects_wrong_arity_and_unknown_view() {
        let mut engine = union_engine(StrategyMode::Original);
        let mut d = Delta::new();
        d.push_insert(tuple![1, 2]);
        assert!(matches!(
            engine.apply_delta("v", d),
            Err(EngineError::BadStatement(_))
        ));
        assert!(matches!(
            engine.apply_delta("nope", Delta::new()),
            Err(EngineError::NotAView(_))
        ));
    }

    fn union_strategy(view: &str, r1: &str, r2: &str) -> UpdateStrategy {
        UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new(r1, vec![("a", SortKind::Int)]))
                .with(Schema::new(r2, vec![("a", SortKind::Int)])),
            Schema::new(view, vec![("a", SortKind::Int)]),
            &format!(
                "
                -{r1}(X) :- {r1}(X), not {view}(X).
                -{r2}(X) :- {r2}(X), not {view}(X).
                +{r1}(X) :- {view}(X), not {r1}(X), not {r2}(X).
                "
            ),
            None,
        )
        .unwrap()
    }

    /// Two independent union views plus one free-standing base table.
    fn two_component_engine() -> Engine {
        let mut db = Database::new();
        for name in ["a1", "b1", "a2", "b2", "z"] {
            db.add_relation(Relation::with_tuples(name, 1, vec![tuple![1]]).unwrap())
                .unwrap();
        }
        let mut engine = Engine::new(db);
        engine
            .register_view(union_strategy("v1", "a1", "b1"), StrategyMode::Incremental)
            .unwrap();
        engine
            .register_view(union_strategy("v2", "a2", "b2"), StrategyMode::Incremental)
            .unwrap();
        engine
    }

    #[test]
    fn footprint_covers_reads_writes_and_self() {
        let engine = union_engine(StrategyMode::Incremental);
        let fp = engine.view_footprint("v").unwrap();
        assert!(fp.reads.contains("r1") && fp.reads.contains("r2"));
        assert_eq!(
            fp.writes,
            BTreeSet::from(["r1".to_owned(), "r2".to_owned()])
        );
        assert!(fp.closure.contains("v"));
        assert!(fp.closure.is_superset(&fp.reads) && fp.closure.is_superset(&fp.writes));
        assert!(engine.view_footprint("r1").is_none());
    }

    #[test]
    fn footprint_closure_includes_cascade_targets() {
        // w = σ_{a>2}(v) writes into v, so w's closure must contain v's
        // entire closure (a commit on w can cascade into v and from
        // there into r1/r2).
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1], tuple![3]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![8]]).unwrap())
            .unwrap();
        let mut engine = Engine::new(db);
        engine
            .register_view(union_strategy("v", "r1", "r2"), StrategyMode::Original)
            .unwrap();
        let w_strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new("v", vec![("a", SortKind::Int)])),
            Schema::new("w", vec![("a", SortKind::Int)]),
            "
            false :- w(X), not X > 2.
            +v(X) :- w(X), not v(X).
            mv(X) :- v(X), X > 2.
            -v(X) :- mv(X), not w(X).
            ",
            None,
        )
        .unwrap();
        engine
            .register_view(w_strategy, StrategyMode::Original)
            .unwrap();
        let v_closure = engine.view_footprint("v").unwrap().closure.clone();
        let w = engine.view_footprint("w").unwrap();
        assert!(w.writes.contains("v"));
        assert!(w.closure.is_superset(&v_closure));
        for name in ["w", "v", "r1", "r2"] {
            assert!(w.closure.contains(name), "missing {name}");
        }
    }

    #[test]
    fn split_components_partitions_and_absorb_restores() {
        let engine = two_component_engine();
        let original = engine.db.clone();
        let components = engine.split_components();
        // {v1,a1,b1}, {v2,a2,b2}, {z}
        assert_eq!(components.len(), 3);
        let sizes: Vec<usize> = components.iter().map(|e| e.db.names().count()).collect();
        assert_eq!(sizes, vec![3, 3, 1]);
        for component in &components {
            for view in component.views.keys() {
                let fp = &component.views[view].footprint;
                assert!(
                    fp.closure.iter().all(|n| component.db.contains_relation(n)),
                    "closure of '{view}' escapes its component"
                );
            }
        }
        // Components stay independently updatable.
        let mut components = components;
        let c1 = components
            .iter_mut()
            .find(|e| e.is_view("v1"))
            .expect("v1 component");
        c1.execute("INSERT INTO v1 VALUES (9);").unwrap();
        assert!(c1.relation("a1").unwrap().contains(&tuple![9]));

        let mut merged = Engine::new(Database::new());
        for component in components {
            merged.absorb(component).unwrap();
        }
        assert_eq!(merged.db.names().count(), original.names().count());
        assert!(merged.is_view("v1") && merged.is_view("v2"));
        assert!(merged.relation("a1").unwrap().contains(&tuple![9]));
        // Absorbing a clashing engine is rejected.
        let mut db = Database::new();
        db.add_relation(Relation::new("z", 1)).unwrap();
        assert!(merged.absorb(Engine::new(db)).is_err());
    }

    #[test]
    fn read_trace_stays_within_declared_footprint() {
        let mut engine = union_engine(StrategyMode::Incremental);
        let closure = engine.view_footprint("v").unwrap().closure.clone();
        engine.set_read_trace(true);
        engine.execute("INSERT INTO v VALUES (41);").unwrap();
        engine.execute("DELETE FROM v WHERE a = 41;").unwrap();
        let traced = engine.take_read_trace();
        assert!(!traced.is_empty(), "tracing records evaluation reads");
        for name in &traced {
            // Only stored relations are lock-relevant; overlay-resident
            // delta/intermediate relations are exempt.
            if engine.relation(name).is_some() {
                assert!(closure.contains(name), "undeclared read of '{name}'");
            }
        }
        engine.set_read_trace(false);
        engine.execute("INSERT INTO v VALUES (42);").unwrap();
        assert!(engine.take_read_trace().is_empty());
    }

    #[test]
    fn constraint_check_plans_are_cached_across_updates() {
        let mut engine = constrained_engine(StrategyMode::Incremental);
        engine.execute("INSERT INTO v VALUES (3, 7);").unwrap();
        // The first update may compile constraint-check rules that the
        // warm-up never sees (they are rewritten per the Δ⁺V fast path);
        // from then on the cache must be steady.
        let after_first = engine.plan_cache().misses();
        engine.execute("INSERT INTO v VALUES (4, 8);").unwrap();
        engine.execute("DELETE FROM v WHERE x = 3;").unwrap();
        assert_eq!(engine.plan_cache().misses(), after_first);
        assert_eq!(
            engine.plan_cache().misses(),
            engine.plan_cache().len() as u64
        );
    }

    #[test]
    fn unregistering_a_view_keeps_the_other_views_plans() {
        let mut engine = Engine::merge(two_component_engine().split_components()).unwrap();
        engine.execute("INSERT INTO v2 VALUES (5);").unwrap();
        engine.unregister_view("v1").unwrap();
        let misses = engine.plan_cache().misses();
        engine.execute("INSERT INTO v2 VALUES (6);").unwrap();
        assert_eq!(
            engine.plan_cache().misses(),
            misses,
            "v2's next update replays its plans"
        );
    }

    #[test]
    fn split_components_moves_plans_without_copying_them() {
        let engine = two_component_engine();
        let planned = engine.plan_cache().len();
        assert!(planned > 0);
        let mut components = engine.split_components();
        let per_component: Vec<usize> = components.iter().map(|c| c.plan_cache().len()).collect();
        assert_eq!(
            per_component.iter().sum::<usize>(),
            planned,
            "{per_component:?}"
        );
        // Each view's component holds that view's plans: no re-planning.
        let c1 = components.iter_mut().find(|e| e.is_view("v1")).unwrap();
        let misses = c1.plan_cache().misses();
        c1.execute("INSERT INTO v1 VALUES (9);").unwrap();
        assert_eq!(c1.plan_cache().misses(), misses);
    }

    /// The `rejected_cascade_leaves_every_relation_unchanged` fixture
    /// (`w = σ_{a>2}(v)` over `v = r1 ∪ r2`, where `v` rejects values
    /// above 100), topped by `x`, a copy of `w` whose putback compares
    /// each inserted value with 0: an update on `x` cascades
    /// `x → w → v`, so `v`'s constraint is checked at cascade depth 2.
    fn cascade_tower(mode: StrategyMode) -> Engine {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1], tuple![3]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![8]]).unwrap())
            .unwrap();
        let mut engine = Engine::new(db);
        let int = |name: &str| Schema::new(name, vec![("a", SortKind::Int)]);
        let v_strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(int("r1")).with(int("r2")),
            int("v"),
            "
            false :- v(X), X > 100.
            -r1(X) :- r1(X), not v(X).
            -r2(X) :- r2(X), not v(X).
            +r1(X) :- v(X), not r1(X), not r2(X).
            ",
            None,
        )
        .unwrap();
        let v_get = parse_program("v(X) :- r1(X). v(X) :- r2(X).").unwrap();
        engine
            .register_view_unchecked(v_strategy, v_get, mode)
            .unwrap();
        let w_strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(int("v")),
            int("w"),
            "
            false :- w(X), not X > 2.
            +v(X) :- w(X), not v(X).
            mv(X) :- v(X), X > 2.
            -v(X) :- mv(X), not w(X).
            ",
            None,
        )
        .unwrap();
        engine.register_view(w_strategy, mode).unwrap();
        let x_strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(int("w")),
            int("x"),
            "
            +w(X) :- x(X), not w(X), X > 0.
            -w(X) :- w(X), not x(X).
            ",
            None,
        )
        .unwrap();
        let x_get = parse_program("x(X) :- w(X).").unwrap();
        engine
            .register_view_unchecked(x_strategy, x_get, mode)
            .unwrap();
        engine
    }

    /// Run a rejected update and check that it wrote no tuple: every
    /// relation's published version before and after is the same set, by
    /// pointer (a write undone afterwards would publish a new buffer).
    fn rejected_without_a_write(engine: &mut Engine, sql: &str) -> EngineError {
        let before = engine.relation_versions();
        let err = engine.execute(sql).unwrap_err();
        let after = engine.relation_versions();
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(&after) {
            assert_eq!(b.name(), a.name());
            assert!(
                std::ptr::eq(b.tuples(), a.tuples()),
                "'{}' was written by the rejected update `{sql}` ({err})",
                b.name()
            );
        }
        err
    }

    #[test]
    fn a_constraint_violation_at_cascade_depth_two_writes_nothing() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut engine = cascade_tower(mode);
            let err = rejected_without_a_write(&mut engine, "INSERT INTO x VALUES (500);");
            assert!(
                matches!(&err, EngineError::ConstraintViolation { view, .. } if view == "v"),
                "{mode:?}: {err}"
            );
            let stats = engine.execute("INSERT INTO x VALUES (50);").unwrap();
            assert_eq!(stats.cascades, 2, "{mode:?}");
            for name in ["x", "w", "v", "r1"] {
                assert!(
                    engine.relation(name).unwrap().contains(&tuple![50]),
                    "{mode:?}: {name}"
                );
            }
        }
    }

    #[test]
    fn an_evaluation_error_writes_nothing() {
        // `'abc' > 0` is a sort error: in original mode it surfaces while
        // the putback scans `x′`, the state an update used to write first.
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut engine = cascade_tower(mode);
            let err = rejected_without_a_write(&mut engine, "INSERT INTO x VALUES ('abc');");
            assert!(matches!(err, EngineError::Eval(_)), "{mode:?}: {err}");
        }
    }

    /// A key constraint with two view atoms reads `V′` in full, through
    /// the view's pending delta: an update that moves a key's value must
    /// see the old tuple gone, an insert that duplicates a key must see
    /// the new tuple.
    #[test]
    fn a_two_view_atom_key_constraint_reads_the_updated_view() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let mut db = Database::new();
            db.add_relation(
                Relation::with_tuples("t", 2, vec![tuple![1, "a"], tuple![2, "b"]]).unwrap(),
            )
            .unwrap();
            let kv =
                |name: &str| Schema::new(name, vec![("k", SortKind::Int), ("v", SortKind::Str)]);
            let strategy = UpdateStrategy::parse(
                DatabaseSchema::new().with(kv("t")),
                kv("kv"),
                "
                false :- kv(K, V1), kv(K, V2), not V1 = V2.
                +t(K, V) :- kv(K, V), not t(K, V).
                -t(K, V) :- t(K, V), not kv(K, V).
                ",
                Some("kv(K, V) :- t(K, V)."),
            )
            .unwrap();
            let mut engine = Engine::new(db);
            engine.register_view(strategy, mode).unwrap();
            let contents = |engine: &Engine, name: &str| {
                let mut tuples: Vec<Tuple> =
                    engine.relation(name).unwrap().iter().cloned().collect();
                tuples.sort();
                tuples
            };
            engine
                .execute("UPDATE kv SET v = 'z' WHERE k = 1;")
                .unwrap();
            let expected = vec![tuple![1, "z"], tuple![2, "b"]];
            assert_eq!(contents(&engine, "t"), expected, "{mode:?}");
            assert_eq!(contents(&engine, "kv"), expected, "{mode:?}");
            let err = rejected_without_a_write(&mut engine, "INSERT INTO kv VALUES (2, 'c');");
            assert!(
                matches!(err, EngineError::ConstraintViolation { .. }),
                "{mode:?}: {err}"
            );
            assert_eq!(contents(&engine, "t"), expected, "{mode:?}");
            assert_eq!(contents(&engine, "kv"), expected, "{mode:?}");
        }
    }
}
