//! Equivalence suite for the slot-based evaluation pipeline.
//!
//! The evaluator compiles rules to register-slot plans (interned values,
//! cheap-clone tuples, cached plans). This suite pins its *semantics* to an
//! independent reference implementation of stratified Datalog-with-negation
//! evaluation — a deliberately naive, string-keyed, scan-only interpreter
//! in the style of the original evaluator — and asserts both produce
//! identical `EvalOutput` relations across every expressible corpus
//! strategy's putback program, over randomized databases, plus a set of
//! handwritten edge-case programs.

use birds::benchmarks::corpus;
use birds::datalog::{stratify, CmpOp, Head, Literal, Program, Rule, Term};
use birds::eval::{evaluate_program, violated_constraints, EvalContext, PlanCache};
use birds::store::{Database, Relation, Schema, Tuple, Value, ValueSort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

// ---------------------------------------------------------------------
// Reference evaluator: stratified, nested-loop, string-keyed bindings.
// ---------------------------------------------------------------------

struct RefCtx<'a> {
    db: &'a Database,
    computed: BTreeMap<String, Relation>,
}

impl RefCtx<'_> {
    fn rel(&self, flat: &str) -> &Relation {
        self.computed
            .get(flat)
            .or_else(|| self.db.relation(flat))
            .unwrap_or_else(|| panic!("reference evaluator: unknown relation {flat}"))
    }
}

fn term_value(t: &Term, bindings: &HashMap<String, Value>) -> Option<Value> {
    match t {
        Term::Const(v) => Some(*v),
        Term::Var(v) => bindings.get(v).copied(),
    }
}

/// Does `tuple` match `terms` under `bindings`? Returns the extended
/// bindings on success. Anonymous variables match anything and bind
/// nothing; repeated variables must agree.
fn unify(
    terms: &[Term],
    tuple: &Tuple,
    bindings: &HashMap<String, Value>,
) -> Option<HashMap<String, Value>> {
    let mut out = bindings.clone();
    for (i, term) in terms.iter().enumerate() {
        match term {
            Term::Const(c) => {
                if &tuple[i] != c {
                    return None;
                }
            }
            Term::Var(v) => {
                if term.is_anonymous() {
                    continue;
                }
                match out.get(v) {
                    Some(bound) => {
                        if bound != &tuple[i] {
                            return None;
                        }
                    }
                    None => {
                        out.insert(v.clone(), tuple[i]);
                    }
                }
            }
        }
    }
    Some(out)
}

/// All tuples of `rel` matching `terms` under `bindings` — full scan, no
/// indexes.
fn scan_matches<'a>(
    rel: &'a Relation,
    terms: &'a [Term],
    bindings: &'a HashMap<String, Value>,
) -> impl Iterator<Item = HashMap<String, Value>> + 'a {
    rel.iter().filter_map(move |t| unify(terms, t, bindings))
}

/// Enumerate all satisfying assignments of `body` (taken in any safe
/// order) and call `emit` on each.
fn search(
    body: &[Literal],
    remaining: &mut Vec<usize>,
    bindings: &HashMap<String, Value>,
    ctx: &RefCtx,
    emit: &mut dyn FnMut(&HashMap<String, Value>),
) {
    if remaining.is_empty() {
        emit(bindings);
        return;
    }
    // Pick the first literal that is "ready": a resolvable builtin, a
    // grounding equality, or an atom whose named variables are all bound
    // (either polarity). Otherwise fall back to the first positive atom.
    let pick = |bindings: &HashMap<String, Value>, remaining: &[usize]| -> usize {
        for (pos, &li) in remaining.iter().enumerate() {
            match &body[li] {
                Literal::Builtin { left, right, .. } => {
                    if term_value(left, bindings).is_some() && term_value(right, bindings).is_some()
                    {
                        return pos;
                    }
                }
                Literal::Atom { atom, .. } => {
                    let all_bound = atom.terms.iter().all(|t| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => t.is_anonymous() || bindings.contains_key(v),
                    });
                    if all_bound {
                        return pos;
                    }
                }
            }
        }
        for (pos, &li) in remaining.iter().enumerate() {
            if let Literal::Builtin {
                op: CmpOp::Eq,
                left,
                right,
                negated: false,
            } = &body[li]
            {
                let l = term_value(left, bindings).is_some();
                let r = term_value(right, bindings).is_some();
                if (l || r) && matches!(if l { right } else { left }, Term::Var(_)) {
                    return pos;
                }
            }
        }
        remaining
            .iter()
            .position(|&li| matches!(&body[li], Literal::Atom { negated: false, .. }))
            .expect("reference evaluator: unsafe rule")
    };
    let pos = pick(bindings, remaining);
    let li = remaining.remove(pos);
    match &body[li] {
        Literal::Builtin {
            op,
            left,
            right,
            negated,
        } => {
            match (term_value(left, bindings), term_value(right, bindings)) {
                (Some(lv), Some(rv)) => {
                    let res = op
                        .eval(&lv, &rv)
                        .unwrap_or_else(|| panic!("cross-sort comparison {lv} {rv}"));
                    if res != *negated {
                        search(body, remaining, bindings, ctx, emit);
                    }
                }
                (l, r) => {
                    // Grounding equality: bind the unbound variable side.
                    assert_eq!(*op, CmpOp::Eq);
                    let (value, var_side) = if let Some(lv) = l {
                        (lv, right)
                    } else {
                        (r.expect("picked literal is ready"), left)
                    };
                    let Term::Var(v) = var_side else {
                        unreachable!()
                    };
                    let mut b = bindings.clone();
                    b.insert(v.clone(), value);
                    search(body, remaining, &b, ctx, emit);
                }
            }
        }
        Literal::Atom { atom, negated } => {
            let rel = ctx.rel(&atom.pred.flat_name());
            if *negated {
                if scan_matches(rel, &atom.terms, bindings).next().is_none() {
                    search(body, remaining, bindings, ctx, emit);
                }
            } else {
                let candidates: Vec<HashMap<String, Value>> =
                    scan_matches(rel, &atom.terms, bindings).collect();
                for b in candidates {
                    search(body, remaining, &b, ctx, emit);
                }
            }
        }
    }
    remaining.insert(pos, li);
}

fn ref_eval_rule(rule: &Rule, ctx: &RefCtx) -> HashSet<Tuple> {
    let mut out = HashSet::new();
    if rule.body.is_empty() {
        match &rule.head {
            Head::Atom(a) => {
                let vals: Vec<Value> = a
                    .terms
                    .iter()
                    .map(|t| *t.as_const().expect("ground fact"))
                    .collect();
                out.insert(Tuple::new(vals));
            }
            Head::Bottom => {
                out.insert(Tuple::new(vec![]));
            }
        }
        return out;
    }
    let mut remaining: Vec<usize> = (0..rule.body.len()).collect();
    let bindings = HashMap::new();
    search(
        &rule.body,
        &mut remaining,
        &bindings,
        ctx,
        &mut |bindings| {
            let tuple = match &rule.head {
                Head::Bottom => Tuple::new(vec![]),
                Head::Atom(a) => a
                    .terms
                    .iter()
                    .map(|t| term_value(t, bindings).expect("safe rule binds head"))
                    .collect(),
            };
            out.insert(tuple);
        },
    );
    out
}

/// Materialize every IDB relation in stratification order.
fn ref_materialize<'a>(program: &Program, db: &'a Database) -> RefCtx<'a> {
    let order = stratify(program).expect("stratifiable");
    let mut ctx = RefCtx {
        db,
        computed: BTreeMap::new(),
    };
    for pred in &order {
        let arity = program.arity_of(pred).expect("arity known");
        let mut tuples: HashSet<Tuple> = HashSet::new();
        for rule in program.rules_for(pred) {
            tuples.extend(ref_eval_rule(rule, &ctx));
        }
        ctx.computed.insert(
            pred.flat_name(),
            Relation::with_tuples(pred.flat_name(), arity, tuples).unwrap(),
        );
    }
    ctx
}

/// Reference program evaluation: relations keyed by flat predicate name.
fn ref_eval_program(program: &Program, db: &Database) -> BTreeMap<String, BTreeSet<Tuple>> {
    ref_materialize(program, db)
        .computed
        .into_iter()
        .map(|(name, rel)| (name, rel.iter().cloned().collect()))
        .collect()
}

/// Reference constraint check: constraints violated after materializing
/// all IDB relations.
fn ref_violated(program: &Program, db: &Database) -> Vec<String> {
    let ctx = ref_materialize(program, db);
    program
        .constraints()
        .filter(|r| !ref_eval_rule(r, &ctx).is_empty())
        .map(|r| r.to_string())
        .collect()
}

// ---------------------------------------------------------------------
// Random database generation over a schema.
// ---------------------------------------------------------------------

fn random_value(sort: ValueSort, rng: &mut StdRng) -> Value {
    match sort {
        // Small domains so joins, negation and comparisons all fire.
        ValueSort::Int => Value::Int(rng.gen_range(0..8)),
        ValueSort::Float => Value::float(rng.gen_range(0..8) as f64 * 0.5),
        ValueSort::Str => {
            let pool = ["a", "b", "c", "d", "1962-01-01", "1962-12-31", ""];
            Value::str(pool[rng.gen_range(0..pool.len() as i64) as usize])
        }
        ValueSort::Bool => Value::Bool(rng.gen_range(0..2) == 1),
    }
}

fn random_relation(schema: &Schema, n: usize, rng: &mut StdRng) -> Relation {
    let sorts: Vec<ValueSort> = schema.attributes.iter().map(|a| a.sort).collect();
    let tuples = (0..n).map(|_| {
        sorts
            .iter()
            .map(|&s| random_value(s, rng))
            .collect::<Tuple>()
    });
    Relation::with_tuples(&schema.name, sorts.len(), tuples).unwrap()
}

// ---------------------------------------------------------------------
// The equivalence harness.
// ---------------------------------------------------------------------

fn slot_eval(program: &Program, db: &mut Database) -> BTreeMap<String, BTreeSet<Tuple>> {
    let mut ctx = EvalContext::new(db);
    let out = evaluate_program(program, &mut ctx).expect("slot evaluation succeeds");
    out.relations
        .into_iter()
        .map(|(pred, rel)| (pred.flat_name(), rel.iter().cloned().collect()))
        .collect()
}

/// Differential: the reference interpreter and the slot evaluator must
/// agree bit-identically — so every `RangeScan` plan is checked against
/// an independent scan+filter implementation.
fn assert_equivalent(label: &str, program: &Program, db: &mut Database) {
    let expected = ref_eval_program(program, db);
    let pushed = slot_eval(program, db);
    assert_eq!(
        pushed, expected,
        "{label}: range-pushdown evaluation diverges from reference semantics"
    );
}

#[test]
fn corpus_putdelta_programs_match_reference_semantics() {
    let mut checked = 0;
    for entry in corpus::entries() {
        let Some(strategy) = entry.strategy() else {
            continue;
        };
        // Randomized database over (sources, view), three seeds each.
        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(0xB1AD5 ^ (entry.id as u64) << 8 ^ seed);
            let mut db = Database::new();
            for spec in entry.sources {
                let schema = Schema::new(spec.name, spec.cols.to_vec());
                db.add_relation(random_relation(&schema, 24, &mut rng))
                    .unwrap();
            }
            let view_schema = entry.view_schema();
            db.add_relation(random_relation(&view_schema, 24, &mut rng))
                .unwrap();
            assert_equivalent(
                &format!("corpus #{} {} (seed {seed})", entry.id, entry.name),
                &strategy.putdelta,
                &mut db,
            );
        }
        checked += 1;
    }
    assert!(checked >= 30, "expected to check ≥30 corpus strategies");
}

#[test]
fn corpus_constraints_match_reference_semantics() {
    for entry in corpus::entries() {
        let Some(strategy) = entry.strategy() else {
            continue;
        };
        if strategy.putdelta.constraints().next().is_none() {
            continue;
        }
        let mut rng = StdRng::seed_from_u64(0xC0457 + entry.id as u64);
        let mut db = Database::new();
        for spec in entry.sources {
            let schema = Schema::new(spec.name, spec.cols.to_vec());
            db.add_relation(random_relation(&schema, 24, &mut rng))
                .unwrap();
        }
        db.add_relation(random_relation(&entry.view_schema(), 24, &mut rng))
            .unwrap();
        let expected = ref_violated(&strategy.putdelta, &db);
        let mut ctx = EvalContext::new(&mut db);
        let got: Vec<String> = violated_constraints(&strategy.putdelta, &mut ctx)
            .expect("constraint evaluation succeeds")
            .iter()
            .map(|r| r.to_string())
            .collect();
        assert_eq!(
            got, expected,
            "corpus #{} {}: constraint verdicts diverge",
            entry.id, entry.name
        );
    }
}

#[test]
fn edge_case_programs_match_reference_semantics() {
    use birds::datalog::parse_program;
    let programs = [
        // negation + union + intersection over one stratum
        "h(X) :- r(X, _), not s(X). h(X) :- s(X), r(X, X).",
        // grounding equalities, both directions, plus filters
        "h(X, Y) :- r(X, Y), Y = 3. h(X, Y) :- r(X, Y), X = Y.",
        // multi-stratum with negation over an IDB predicate
        "m(X) :- r(X, _), X > 2. h(X) :- s(X), not m(X).",
        // constants in heads and bodies, repeated variables
        "h(X, 7, 'tag') :- r(X, X), not s(X).",
        // anonymous variables on both polarities
        "h(X) :- r(X, _), not t(_, X).",
        // comparison chains over dense domains
        "h(X, Y) :- r(X, Y), X < Y, not Y < 2.",
        // facts unioned with derived tuples
        "h(1, 1). h(X, Y) :- r(X, Y), s(X).",
    ];
    for (i, text) in programs.iter().enumerate() {
        let program = parse_program(text).unwrap();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64((i as u64) << 16 | seed);
            let mut db = Database::new();
            db.add_relation(random_relation(
                &Schema::new("r", vec![("a", ValueSort::Int), ("b", ValueSort::Int)]),
                20,
                &mut rng,
            ))
            .unwrap();
            db.add_relation(random_relation(
                &Schema::new("s", vec![("a", ValueSort::Int)]),
                10,
                &mut rng,
            ))
            .unwrap();
            db.add_relation(random_relation(
                &Schema::new("t", vec![("a", ValueSort::Int), ("b", ValueSort::Int)]),
                10,
                &mut rng,
            ))
            .unwrap();
            assert_equivalent(
                &format!("edge program #{i} (seed {seed})"),
                &program,
                &mut db,
            );
        }
    }
}

#[test]
fn range_pushdown_programs_match_reference_semantics() {
    // Programs whose comparison guards all compile to `RangeScan` steps
    // under pushdown: negated comparisons, boundary ties at the bound
    // value, multi-guard intervals, guards against earlier-bound
    // variables, and empty/contradictory intervals. Int columns draw
    // from 0..8 (see `random_value`), so constants 0/3/5/7 exercise
    // ties and both empty and full ranges.
    use birds::datalog::parse_program;
    let programs = [
        // boundary ties: >= and <= at values that occur in the data
        "h(X, Y) :- r(X, Y), Y >= 3, Y <= 5.",
        "h(X, Y) :- r(X, Y), X >= 0, Y <= 7.",
        // negated comparisons (complement intervals)
        "h(X) :- r(X, Y), not Y >= 4.",
        "h(X) :- s(X), not X < 3, not X > 5.",
        // guard against an earlier-bound variable, not a constant
        "h(X, Y) :- s(X), r(X, Y), Y > X.",
        "h(X, Y) :- s(X), r(Y, _), not Y <= X.",
        // contradictory and always-true intervals
        "h(X, Y) :- r(X, Y), Y > 5, Y < 3.",
        "h(X, Y) :- r(X, Y), Y >= 0.",
        // guards on two different columns of one scan: first is pushed,
        // second stays a residual filter
        "h(X, Y) :- r(X, Y), X > 1, Y > 1.",
        // interval + equality-join interplay across strata
        "m(Y) :- r(_, Y), Y > 2. h(Y) :- m(Y), not Y >= 6.",
    ];
    for (i, text) in programs.iter().enumerate() {
        let program = parse_program(text).unwrap();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0x5CA1E ^ (i as u64) << 16 ^ seed);
            let mut db = Database::new();
            db.add_relation(random_relation(
                &Schema::new("r", vec![("a", ValueSort::Int), ("b", ValueSort::Int)]),
                24,
                &mut rng,
            ))
            .unwrap();
            db.add_relation(random_relation(
                &Schema::new("s", vec![("a", ValueSort::Int)]),
                12,
                &mut rng,
            ))
            .unwrap();
            assert_equivalent(
                &format!("range program #{i} (seed {seed})"),
                &program,
                &mut db,
            );
        }
    }
}

#[test]
fn range_pushdown_string_and_date_ordering_matches_reference() {
    // The ordered index ranges over interned strings; lexicographic
    // order makes ISO dates comparable. The pool in `random_value`
    // mixes dates, short strings, and "" so ties and boundaries at
    // every rank are exercised.
    use birds::datalog::parse_program;
    let programs = [
        "h(X) :- d(X), X >= '1962-01-01', not X > '1962-12-31'.",
        "h(X) :- d(X), X > 'a', X < 'd'.",
        "h(X) :- d(X), not X < 'b'.",
        "h(X, Y) :- e(X, Y), Y >= 'a', not Y >= 'c'.",
        // empty-string boundary: everything is >= "", nothing is < ""
        "h(X) :- d(X), X >= ''. g(X) :- d(X), X < ''.",
    ];
    for (i, text) in programs.iter().enumerate() {
        let program = parse_program(text).unwrap();
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(0xDA7E ^ (i as u64) << 16 ^ seed);
            let mut db = Database::new();
            db.add_relation(random_relation(
                &Schema::new("d", vec![("a", ValueSort::Str)]),
                20,
                &mut rng,
            ))
            .unwrap();
            db.add_relation(random_relation(
                &Schema::new("e", vec![("a", ValueSort::Int), ("b", ValueSort::Str)]),
                20,
                &mut rng,
            ))
            .unwrap();
            assert_equivalent(
                &format!("string range program #{i} (seed {seed})"),
                &program,
                &mut db,
            );
        }
    }
}

#[test]
fn delta_first_order_matches_reference_semantics() {
    // The shape delta-first planning reorders: a large stored relation
    // whose status column is bound by a constant (and indexed with two
    // keys), a semi-join partner, and a one-row view-delta overlay. The
    // planner used to start at `t` (every open row); it now starts at the
    // overlay. Results must not change, for both delta polarities and
    // for overlay rows that do and do not match.
    use birds::datalog::parse_program;
    use birds::eval::plan::StepOp;
    let program = parse_program(
        "-t(T, S) :- t(T, S), S = 'open', a(T, _), -v(T). \
         +t(T, S) :- +v(T), not t(T, 'open'), S = 'open'. \
         m(T) :- t(T, 'open'), -v(T), not a(T, _).",
    )
    .unwrap();
    // (`-v` key, `+v` key): a deleted open and assigned task, an open
    // unassigned one, a done one; inserts of a new id, an open id and a
    // done id.
    for (minus, plus) in [(6, 2_001), (4, 6), (7, 3), (12, 2_050)] {
        let mut db = Database::new();
        let t = (0..2_000i64).map(|i| {
            let status = if i % 2 == 0 { "open" } else { "done" };
            Tuple::new(vec![Value::Int(i), Value::str(status)])
        });
        db.add_relation(Relation::with_tuples("t", 2, t).unwrap())
            .unwrap();
        db.relation_mut("t").unwrap().ensure_index(&[1]).unwrap();
        let a = (0..1_000i64).map(|i| Tuple::new(vec![Value::Int(i * 3), Value::str("w")]));
        db.add_relation(Relation::with_tuples("a", 2, a).unwrap())
            .unwrap();
        for (name, key) in [("-v", minus), ("+v", plus)] {
            let row = Tuple::new(vec![Value::Int(key)]);
            db.add_relation(Relation::with_tuples(name, 1, [row]).unwrap())
                .unwrap();
        }
        let mut cache = PlanCache::new();
        let mut ctx = EvalContext::with_plan_cache(&mut db, &mut cache);
        for rule in &program.rules {
            let plan = ctx.plan_for(rule).unwrap();
            let first = plan.steps.iter().find_map(|s| match &s.op {
                StepOp::Scan(a) | StepOp::Check { atom: a, .. } => Some(a.rel.clone()),
                _ => None,
            });
            assert!(
                first.as_deref().is_some_and(|r| r.ends_with('v')),
                "`{rule}` must start at its overlay, starts at {first:?}"
            );
        }
        drop(ctx);
        assert_equivalent(
            &format!("delta-first (-v {minus}, +v {plus})"),
            &program,
            &mut db,
        );
    }
}
