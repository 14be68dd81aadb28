//! Incrementalization of putback programs (§5, Appendix C).
//!
//! Two paths:
//!
//! * [`incrementalize_lvgn`] — Lemma 5.2: for LVGN programs the
//!   incremental program is obtained by substituting `+v` for positive
//!   view atoms and `-v` for negated ones in the delta rules. We
//!   additionally inline intermediate IDB predicates into the delta rules
//!   — this plays the role of PostgreSQL's query planner in the paper's
//!   setup (which inlines trigger subqueries and drives the join from the
//!   tiny delta), and is what makes the Figure-6 incremental curves flat.
//! * [`incrementalize_general`] — the Appendix C pipeline: binarize every
//!   rule into join / selection / negation / projection / union stages
//!   (Lemma C.1), derive per-stage delta and ν ("new value") rules by the
//!   Figure 7 templates, and keep only the insertion sets of the output
//!   delta relations (Proposition 5.1, Step 4). The general program is
//!   correctness-oriented: stage relations are recomputed from the
//!   original source, so it does not have the LVGN path's constant-time
//!   profile (none of the paper's Figure-6 views need it — all four are
//!   LVGN).
//!
//! Inputs of an incremental program at evaluation time: the source
//! relations, the *old* view `v`, and the view deltas `+v` / `-v`
//! (disjoint). Output: the delta relations `±r` to apply to the source.

use crate::error::CoreError;
use crate::strategy::UpdateStrategy;
use birds_datalog::{Atom, CmpOp, DeltaKind, Head, Literal, PredRef, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet};

/// Incrementalize with the best applicable method.
pub fn incrementalize(strategy: &UpdateStrategy) -> Result<Program, CoreError> {
    if strategy.is_lvgn() {
        incrementalize_lvgn(strategy)
    } else {
        incrementalize_general(strategy)
    }
}

// --------------------------------------------------------------------
// LVGN shortcut (Lemma 5.2)
// --------------------------------------------------------------------

/// Lemma 5.2 substitution plus planner-style inlining of intermediates.
pub fn incrementalize_lvgn(strategy: &UpdateStrategy) -> Result<Program, CoreError> {
    if !strategy.is_lvgn() {
        return Err(CoreError::BadStrategy(
            "the LVGN incrementalization shortcut requires an LVGN program".into(),
        ));
    }
    let view = &strategy.view.name;
    // Work on delta + intermediate rules only (constraints are enforced by
    // the runtime on the updated view, not by the delta computation).
    let mut program = Program::new(
        strategy
            .putdelta
            .proper_rules()
            .cloned()
            .collect::<Vec<_>>(),
    );
    inline_intermediates(&mut program)?;
    // The negated occurrences of simple intermediates too, so the runtime
    // plans `∂put` without materializing them (an `O(|S|)` scan per
    // update otherwise).
    let defs = program.clone();
    for rule in &mut program.rules {
        *rule = inline_simple_defs(rule, &defs);
    }

    // Substitute the view atoms in delta rules.
    for rule in &mut program.rules {
        let Some(h) = rule.head.atom() else { continue };
        if !h.pred.is_delta() {
            continue;
        }
        for lit in &mut rule.body {
            if let Literal::Atom { atom, negated } = lit {
                if atom.pred.kind == DeltaKind::None && atom.pred.name == *view {
                    let kind = if *negated {
                        DeltaKind::Delete
                    } else {
                        DeltaKind::Insert
                    };
                    atom.pred = PredRef {
                        name: view.clone(),
                        kind,
                    };
                    *negated = false;
                }
            }
        }
    }
    drop_unused_intermediates(&mut program);
    Ok(program)
}

/// Inline positive occurrences of intermediate IDB predicates into delta
/// rules (multi-rule definitions multiply the host rule). Negated
/// intermediates are left in place (their defining rules are kept).
fn inline_intermediates(program: &mut Program) -> Result<(), CoreError> {
    let mut counter = 0usize;
    for _round in 0..16 {
        let idb = program.idb_predicates();
        let intermediates: BTreeSet<PredRef> = idb
            .into_iter()
            .filter(|p| p.kind == DeltaKind::None)
            .collect();
        let mut changed = false;
        let mut new_rules: Vec<Rule> = Vec::new();
        for rule in &program.rules {
            let target = rule.body.iter().position(|l| {
                matches!(l, Literal::Atom { atom, negated: false }
                    if intermediates.contains(&atom.pred))
            });
            let (Some(pos), Some(h)) = (target, rule.head.atom()) else {
                new_rules.push(rule.clone());
                continue;
            };
            // Only inline into delta rules or rules already hosting deltas;
            // intermediates defined from other intermediates also qualify.
            let _ = h;
            let Literal::Atom { atom, .. } = &rule.body[pos] else {
                unreachable!()
            };
            let defs: Vec<Rule> = program.rules_for(&atom.pred).cloned().collect();
            let mut ok = true;
            let mut expansions = Vec::new();
            for def in &defs {
                let Some(dh) = def.head.atom() else {
                    ok = false;
                    break;
                };
                let head_vars: Vec<&str> = dh.terms.iter().filter_map(Term::as_var).collect();
                if head_vars.len() != dh.terms.len()
                    || head_vars.iter().collect::<BTreeSet<_>>().len() != head_vars.len()
                {
                    ok = false; // constants / repeated vars in def head
                    break;
                }
                let mut map: BTreeMap<String, Term> = head_vars
                    .iter()
                    .zip(atom.terms.iter())
                    .map(|(v, t)| ((*v).to_string(), t.clone()))
                    .collect();
                let outer: BTreeSet<&str> = rule.variables().into_iter().collect();
                for v in def.variables() {
                    if !map.contains_key(v) {
                        counter += 1;
                        let mut name = format!("IN{counter}_{v}");
                        name.retain(|c| c.is_alphanumeric() || c == '_');
                        while outer.contains(name.as_str()) {
                            counter += 1;
                            name = format!("IN{counter}_{v}");
                        }
                        // Preserve anonymity of anonymous variables so the
                        // inlined literal keeps inner-existential reading.
                        let fresh = if v.starts_with("_#") {
                            format!("_#in{counter}")
                        } else {
                            name
                        };
                        map.insert(v.to_owned(), Term::Var(fresh));
                    }
                }
                let subst = |t: &Term| match t {
                    Term::Var(v) => map.get(v).cloned().unwrap_or_else(|| t.clone()),
                    Term::Const(_) => t.clone(),
                };
                let mut body = Vec::new();
                for (i, l) in rule.body.iter().enumerate() {
                    if i == pos {
                        for dl in &def.body {
                            body.push(match dl {
                                Literal::Atom { atom, negated } => Literal::Atom {
                                    atom: Atom::new(
                                        atom.pred.clone(),
                                        atom.terms.iter().map(subst).collect(),
                                    ),
                                    negated: *negated,
                                },
                                Literal::Builtin {
                                    op,
                                    left,
                                    right,
                                    negated,
                                } => Literal::Builtin {
                                    op: *op,
                                    left: subst(left),
                                    right: subst(right),
                                    negated: *negated,
                                },
                            });
                        }
                    } else {
                        body.push(l.clone());
                    }
                }
                expansions.push(Rule {
                    head: rule.head.clone(),
                    body,
                });
            }
            if ok && !defs.is_empty() {
                changed = true;
                new_rules.extend(expansions);
            } else {
                new_rules.push(rule.clone());
            }
        }
        program.rules = new_rules;
        if !changed {
            break;
        }
    }
    Ok(())
}

/// Inline into `rule` every body atom, of either polarity, over an
/// intermediate predicate that `program` defines by exactly one rule
/// whose head has distinct variables and whose body is a single positive
/// atom `q(~u)`: `[¬]p(~t)` becomes `[¬]q(~u[σ])`. Definition-body
/// variables that are existential in the definition become anonymous
/// variables in the inlined literal, preserving the `∃` (under negation,
/// `¬∃`) reading. Chains of such definitions are followed; anything else
/// is left for the caller to materialize.
pub fn inline_simple_defs(rule: &Rule, program: &Program) -> Rule {
    let mut out = rule.clone();
    let mut anon = 0usize;
    // A non-recursive chain is no longer than the program.
    for _ in 0..=program.rules.len() {
        let mut changed = false;
        for lit in &mut out.body {
            let Literal::Atom { atom, .. } = lit else {
                continue;
            };
            if atom.pred.kind != DeltaKind::None {
                continue;
            }
            let mut defs = program
                .proper_rules()
                .filter(|r| r.head.atom().is_some_and(|h| h.pred == atom.pred));
            let (Some(def), None) = (defs.next(), defs.next()) else {
                continue;
            };
            let Some(dh) = def.head.atom() else { continue };
            let [Literal::Atom {
                atom: def_atom,
                negated: false,
            }] = def.body.as_slice()
            else {
                continue;
            };
            let head_vars: Vec<&str> = dh.terms.iter().filter_map(Term::as_var).collect();
            if head_vars.len() != dh.terms.len()
                || head_vars.iter().collect::<BTreeSet<_>>().len() != head_vars.len()
            {
                continue;
            }
            let map: BTreeMap<&str, &Term> =
                head_vars.iter().copied().zip(atom.terms.iter()).collect();
            let new_terms: Vec<Term> = def_atom
                .terms
                .iter()
                .map(|t| match t {
                    Term::Var(v) => map.get(v.as_str()).map(|&x| x.clone()).unwrap_or_else(|| {
                        anon += 1;
                        Term::Var(format!("_#inl{anon}"))
                    }),
                    Term::Const(_) => t.clone(),
                })
                .collect();
            *atom = Atom::new(def_atom.pred.clone(), new_terms);
            changed = true;
        }
        if !changed {
            break;
        }
    }
    out
}

/// Remove intermediate rules no delta rule (transitively) references.
fn drop_unused_intermediates(program: &mut Program) {
    let mut needed: BTreeSet<PredRef> = BTreeSet::new();
    let mut stack: Vec<PredRef> = program
        .rules
        .iter()
        .filter_map(|r| r.head.atom())
        .filter(|a| a.pred.is_delta())
        .map(|a| a.pred.clone())
        .collect();
    while let Some(p) = stack.pop() {
        if !needed.insert(p.clone()) {
            continue;
        }
        for rule in program.rules_for(&p) {
            for lit in &rule.body {
                if let Some(a) = lit.atom() {
                    stack.push(a.pred.clone());
                }
            }
        }
    }
    program.rules.retain(|r| match r.head.atom() {
        Some(a) => needed.contains(&a.pred),
        None => false,
    });
}

// --------------------------------------------------------------------
// General path (Appendix C)
// --------------------------------------------------------------------

/// The shape of a binarized stage (Lemma C.1 normal form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// `h(~X∪~Y) :- p(~X), q(~Y).` — head carries *all* body variables.
    Join,
    /// `h(~X') :- p(~X), builtins.` — may add equality-bound variables.
    Selection,
    /// `h(~X) :- p(~X), not n(~Y).` with `vars(n) ⊆ vars(p)`.
    Negation,
    /// `h(~T) :- p(~X).` where some variable of `p` is dropped.
    Projection,
    /// `h(~T) :- p(~X).` one-to-one (rename / duplicate / constants).
    Copy,
}

#[derive(Debug, Clone)]
struct Stage {
    kind: StageKind,
    rule: Rule,
}

/// General incrementalization: binarize, rewrite with the Figure 7
/// templates, keep insertion sets of the outputs (Proposition 5.1).
pub fn incrementalize_general(strategy: &UpdateStrategy) -> Result<Program, CoreError> {
    let view = &strategy.view.name;
    let base: Vec<Rule> = strategy.putdelta.proper_rules().cloned().collect();
    let stages = binarize(&base)?;

    // Which stage predicates (transitively) depend on the view?
    let changed = changed_predicates(&stages, view);

    let view_pred = PredRef::plain(view);
    let mut out: Vec<Rule> = Vec::new();

    // ν-rules for the view itself: v__new = (v \ -v) ∪ +v.
    {
        let vars: Vec<Term> = (0..strategy.view.arity())
            .map(|i| Term::var(format!("X{i}")))
            .collect();
        let head = Atom::new(PredRef::new_rel(view), vars.clone());
        out.push(Rule::new(
            head.clone(),
            vec![
                Literal::pos(Atom::new(view_pred.clone(), vars.clone())),
                Literal::neg(Atom::new(PredRef::del(view), vars.clone())),
            ],
        ));
        out.push(Rule::new(
            head,
            vec![Literal::pos(Atom::new(PredRef::ins(view), vars))],
        ));
    }

    // Old-value rules for every non-sink stage predicate (sinks ±r are
    // outputs only; nothing reads their old value).
    for s in &stages {
        let h = s.rule.head.atom().expect("stages have atom heads");
        if h.pred.is_delta() {
            continue;
        }
        out.push(s.rule.clone());
    }

    // Per-stage delta / ν rules.
    let ctx = TemplateCtx {
        view: view.clone(),
        changed: &changed,
    };
    for s in &stages {
        let h = s.rule.head.atom().unwrap();
        let is_sink = h.pred.is_delta();
        if !changed.contains(&h.pred) {
            continue; // unchanged: no deltas, ν resolves to the old value
        }
        let union_siblings: Vec<&Stage> = stages
            .iter()
            .filter(|t| t.rule.head.atom().unwrap().pred == h.pred)
            .collect();
        emit_stage_templates(s, &union_siblings, &ctx, is_sink, &mut out)?;
    }

    // Outputs: rename +(±r) to ±r (Step 4 / Proposition 5.1).
    for rule in &mut out {
        if let Head::Atom(a) = &mut rule.head {
            if a.pred.kind == DeltaKind::Insert {
                if let Some(inner) = parse_delta_name(&a.pred.name) {
                    a.pred = inner;
                }
            }
        }
    }
    // Drop any remaining nested-delta rules (deletion sets of outputs).
    out.retain(|r| match r.head.atom() {
        Some(a) => parse_delta_name(&a.pred.name).is_none(),
        None => true,
    });

    Ok(Program::new(out))
}

/// If `name` is a flat delta name ("+r" / "-r"), the corresponding
/// predicate.
fn parse_delta_name(name: &str) -> Option<PredRef> {
    if let Some(rest) = name.strip_prefix('+') {
        Some(PredRef::ins(rest))
    } else {
        name.strip_prefix('-').map(PredRef::del)
    }
}

/// Delta predicate of a (possibly already-delta) predicate: `Δ⁺p` / `Δ⁻p`
/// via name flattening (`+(+r)` becomes `++r`).
fn delta_pred(p: &PredRef, kind: DeltaKind) -> PredRef {
    PredRef {
        name: p.flat_name(),
        kind,
    }
}

/// ν (post-update) predicate of `p`: identity for unchanged predicates.
fn nu_pred(p: &PredRef, changed: &BTreeSet<PredRef>, view: &str) -> PredRef {
    if p.kind == DeltaKind::None && p.name == view {
        return PredRef::new_rel(view);
    }
    if changed.contains(p) {
        PredRef::new_rel(p.flat_name())
    } else {
        p.clone()
    }
}

/// Does `p` have (possibly empty) delta relations? Only the view and
/// changed predicates do; unchanged predicates have empty deltas, so any
/// template rule positively referencing them is dropped.
fn has_delta(p: &PredRef, changed: &BTreeSet<PredRef>, view: &str) -> bool {
    (p.kind == DeltaKind::None && p.name == view) || changed.contains(p)
}

struct TemplateCtx<'a> {
    view: String,
    changed: &'a BTreeSet<PredRef>,
}

impl TemplateCtx<'_> {
    fn delta_atom(&self, a: &Atom, kind: DeltaKind) -> Option<Literal> {
        if !has_delta(&a.pred, self.changed, &self.view) {
            return None;
        }
        Some(Literal::pos(Atom::new(
            delta_pred(&a.pred, kind),
            a.terms.clone(),
        )))
    }

    fn nu_atom(&self, a: &Atom, negated: bool) -> Literal {
        Literal::Atom {
            atom: Atom::new(nu_pred(&a.pred, self.changed, &self.view), a.terms.clone()),
            negated,
        }
    }
}

/// Emit Figure 7 template rules for one stage. For sink (±r output)
/// stages only the insertion side is generated, and the `¬h` guard of the
/// projection template is dropped: over-inserting a steady-state no-op
/// tuple is harmless by GetPut (Proposition 5.1).
fn emit_stage_templates(
    stage: &Stage,
    union_siblings: &[&Stage],
    ctx: &TemplateCtx<'_>,
    is_sink: bool,
    out: &mut Vec<Rule>,
) -> Result<(), CoreError> {
    let rule = &stage.rule;
    let h = rule.head.atom().unwrap().clone();
    let h_ins = Head::Atom(Atom::new(
        delta_pred(&h.pred, DeltaKind::Insert),
        h.terms.clone(),
    ));
    let h_del = Head::Atom(Atom::new(
        delta_pred(&h.pred, DeltaKind::Delete),
        h.terms.clone(),
    ));
    let h_nu = Head::Atom(Atom::new(
        PredRef::new_rel(h.pred.flat_name()),
        h.terms.clone(),
    ));

    let builtins: Vec<Literal> = rule
        .body
        .iter()
        .filter(|l| matches!(l, Literal::Builtin { .. }))
        .cloned()
        .collect();
    let atoms: Vec<(&Atom, bool)> = rule
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Atom { atom, negated } => Some((atom, *negated)),
            _ => None,
        })
        .collect();

    let mut push = |head: &Head, mut body: Vec<Option<Literal>>| {
        let mut lits = Vec::new();
        for b in body.drain(..) {
            match b {
                Some(l) => lits.push(l),
                None => return, // references an empty delta: drop the rule
            }
        }
        lits.extend(builtins.iter().cloned());
        out.push(Rule {
            head: head.clone(),
            body: lits,
        });
    };

    match stage.kind {
        StageKind::Join => {
            let (p, _) = atoms[0];
            let (q, _) = atoms[1];
            // +h :- +p, qν ;  +h :- pν, +q
            push(
                &h_ins,
                vec![
                    ctx.delta_atom(p, DeltaKind::Insert),
                    Some(ctx.nu_atom(q, false)),
                ],
            );
            push(
                &h_ins,
                vec![
                    Some(ctx.nu_atom(p, false)),
                    ctx.delta_atom(q, DeltaKind::Insert),
                ],
            );
            if !is_sink {
                // -h :- -p, q ;  -h :- p, -q
                push(
                    &h_del,
                    vec![
                        ctx.delta_atom(p, DeltaKind::Delete),
                        Some(Literal::pos(q.clone())),
                    ],
                );
                push(
                    &h_del,
                    vec![
                        Some(Literal::pos(p.clone())),
                        ctx.delta_atom(q, DeltaKind::Delete),
                    ],
                );
                // hν :- pν, qν
                push(
                    &h_nu,
                    vec![Some(ctx.nu_atom(p, false)), Some(ctx.nu_atom(q, false))],
                );
            }
        }
        StageKind::Selection => {
            let (p, _) = atoms[0];
            push(&h_ins, vec![ctx.delta_atom(p, DeltaKind::Insert)]);
            if !is_sink {
                push(&h_del, vec![ctx.delta_atom(p, DeltaKind::Delete)]);
                push(&h_nu, vec![Some(ctx.nu_atom(p, false))]);
            }
        }
        StageKind::Negation => {
            let (p, pn) = atoms[0];
            let (n, nn) = atoms[1];
            debug_assert!(!pn && nn);
            // +h :- +p, ¬nν ;  +h :- pν, -n
            push(
                &h_ins,
                vec![
                    ctx.delta_atom(p, DeltaKind::Insert),
                    Some(ctx.nu_atom(n, true)),
                ],
            );
            push(
                &h_ins,
                vec![
                    Some(ctx.nu_atom(p, false)),
                    ctx.delta_atom(n, DeltaKind::Delete),
                ],
            );
            if !is_sink {
                // -h :- -p, ¬n ;  -h :- p, +n
                push(
                    &h_del,
                    vec![
                        ctx.delta_atom(p, DeltaKind::Delete),
                        Some(Literal::neg(n.clone())),
                    ],
                );
                push(
                    &h_del,
                    vec![
                        Some(Literal::pos(p.clone())),
                        ctx.delta_atom(n, DeltaKind::Insert),
                    ],
                );
                // hν :- pν, ¬nν
                push(
                    &h_nu,
                    vec![Some(ctx.nu_atom(p, false)), Some(ctx.nu_atom(n, true))],
                );
            }
        }
        StageKind::Copy | StageKind::Projection => {
            let (p, _) = atoms[0];
            let union = union_siblings.len() > 1;
            // +h :- +p [, ¬h when projecting and not a sink]
            let mut ins_body = vec![ctx.delta_atom(p, DeltaKind::Insert)];
            if stage.kind == StageKind::Projection && !is_sink {
                ins_body.push(Some(Literal::neg(h.clone())));
            }
            push(&h_ins, ins_body);
            if !is_sink {
                // -h :- -p [, ¬pν(anon-projected) when projecting]
                //          [, ¬siblingν … when a union]
                let mut del_body = vec![ctx.delta_atom(p, DeltaKind::Delete)];
                if stage.kind == StageKind::Projection {
                    let head_vars: BTreeSet<&str> =
                        h.terms.iter().filter_map(Term::as_var).collect();
                    let mut anon_counter = 0usize;
                    let terms: Vec<Term> = p
                        .terms
                        .iter()
                        .map(|t| match t {
                            Term::Var(v) if !head_vars.contains(v.as_str()) => {
                                anon_counter += 1;
                                Term::Var(format!("_#pj{anon_counter}"))
                            }
                            other => other.clone(),
                        })
                        .collect();
                    del_body.push(Some(Literal::neg(Atom::new(
                        nu_pred(&p.pred, ctx.changed, &ctx.view),
                        terms,
                    ))));
                }
                if union {
                    for sib in union_siblings {
                        let sh = sib.rule.head.atom().unwrap();
                        if std::ptr::eq(*sib, stage) {
                            continue;
                        }
                        let (sp, _) = match &sib.rule.body[0] {
                            Literal::Atom { atom, negated } => (atom, negated),
                            _ => {
                                return Err(CoreError::BadStrategy(
                                    "union branch is not an atom rule".into(),
                                ))
                            }
                        };
                        let _ = sh;
                        del_body.push(Some(ctx.nu_atom(sp, true)));
                    }
                }
                push(&h_del, del_body);
                // hν :- pν
                push(&h_nu, vec![Some(ctx.nu_atom(p, false))]);
            }
        }
    }
    Ok(())
}

/// Stage predicates that transitively depend on the view.
fn changed_predicates(stages: &[Stage], view: &str) -> BTreeSet<PredRef> {
    let mut changed: BTreeSet<PredRef> = BTreeSet::new();
    loop {
        let mut grew = false;
        for s in stages {
            let h = s.rule.head.atom().unwrap();
            if changed.contains(&h.pred) {
                continue;
            }
            let depends = s.rule.body.iter().any(|l| {
                l.atom().is_some_and(|a| {
                    (a.pred.kind == DeltaKind::None && a.pred.name == view)
                        || changed.contains(&a.pred)
                })
            });
            if depends {
                changed.insert(h.pred.clone());
                grew = true;
            }
        }
        if !grew {
            return changed;
        }
    }
}

/// Lemma C.1 binarization. Every input rule becomes a chain:
/// joins (two atoms at a time) → one selection stage carrying all
/// builtins → one negation stage per negated atom → a final
/// projection/copy stage onto the original head. Multi-rule predicates
/// keep one final stage per rule (union handled by the templates).
fn binarize(rules: &[Rule]) -> Result<Vec<Stage>, CoreError> {
    let mut stages = Vec::new();
    let mut counter = 0usize;
    for rule in rules {
        let head = rule
            .head
            .atom()
            .ok_or_else(|| CoreError::BadStrategy("constraints cannot be incrementalized".into()))?
            .clone();
        let pos: Vec<&Atom> = rule.positive_atoms().collect();
        let neg: Vec<&Atom> = rule.negated_atoms().collect();
        let builtins: Vec<&Literal> = rule
            .body
            .iter()
            .filter(|l| matches!(l, Literal::Builtin { .. }))
            .collect();
        if pos.is_empty() {
            return Err(CoreError::BadStrategy(format!(
                "cannot incrementalize a rule without positive atoms: {rule}"
            )));
        }

        let mut fresh = |prefix: &str| {
            counter += 1;
            PredRef::plain(format!("{prefix}{counter}__i"))
        };
        let distinct_vars = |atoms: &[&Atom]| -> Vec<Term> {
            let mut seen = BTreeSet::new();
            let mut vars = Vec::new();
            for a in atoms {
                for t in &a.terms {
                    if let Term::Var(v) = t {
                        if !t.is_anonymous() && seen.insert(v.clone()) {
                            vars.push(t.clone());
                        }
                    }
                }
            }
            vars
        };

        // Join chain.
        let mut cur: Atom = pos[0].clone();
        let mut joined: Vec<&Atom> = vec![pos[0]];
        for p in &pos[1..] {
            joined.push(p);
            let head_terms = distinct_vars(&joined);
            let j = Atom::new(fresh("jn"), head_terms);
            stages.push(Stage {
                kind: StageKind::Join,
                rule: Rule::new(
                    j.clone(),
                    vec![Literal::pos(cur.clone()), Literal::pos((*p).clone())],
                ),
            });
            cur = j;
        }

        // Selection stage (all builtins at once; equality binders may add
        // head variables).
        if !builtins.is_empty() {
            let mut vars: Vec<Term> = cur.terms.clone();
            let mut have: BTreeSet<String> = vars
                .iter()
                .filter_map(|t| t.as_var().map(str::to_owned))
                .collect();
            // Add equality-bound variables (closure).
            loop {
                let mut grew = false;
                for b in &builtins {
                    if let Literal::Builtin {
                        op: CmpOp::Eq,
                        left,
                        right,
                        negated: false,
                    } = b
                    {
                        for (x, other) in [(left, right), (right, left)] {
                            if let Term::Var(v) = x {
                                let other_ok = match other {
                                    Term::Const(_) => true,
                                    Term::Var(o) => have.contains(o),
                                };
                                if other_ok && !have.contains(v) {
                                    have.insert(v.clone());
                                    vars.push(Term::Var(v.clone()));
                                    grew = true;
                                }
                            }
                        }
                    }
                }
                if !grew {
                    break;
                }
            }
            let s = Atom::new(fresh("sel"), vars);
            let mut body = vec![Literal::pos(cur.clone())];
            body.extend(builtins.iter().map(|l| (*l).clone()));
            stages.push(Stage {
                kind: StageKind::Selection,
                rule: Rule::new(s.clone(), body),
            });
            cur = s;
        }

        // Negation stages.
        for n in &neg {
            let u = Atom::new(fresh("ng"), cur.terms.clone());
            stages.push(Stage {
                kind: StageKind::Negation,
                rule: Rule::new(
                    u.clone(),
                    vec![Literal::pos(cur.clone()), Literal::neg((*n).clone())],
                ),
            });
            cur = u;
        }

        // Final projection / copy onto the original head.
        let cur_vars: BTreeSet<&str> = cur.terms.iter().filter_map(Term::as_var).collect();
        let head_vars: BTreeSet<&str> = head.terms.iter().filter_map(Term::as_var).collect();
        let projecting = cur_vars.iter().any(|v| !head_vars.contains(v));
        stages.push(Stage {
            kind: if projecting {
                StageKind::Projection
            } else {
                StageKind::Copy
            },
            rule: Rule::new(head, vec![Literal::pos(cur)]),
        });
    }
    Ok(stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_datalog::parse_program;
    use birds_store::{DatabaseSchema, Schema, SortKind};

    fn selection_strategy() -> UpdateStrategy {
        // Example 5.2 from the paper.
        UpdateStrategy::parse(
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
        .unwrap()
    }

    #[test]
    fn lvgn_shortcut_matches_example_5_2() {
        let s = selection_strategy();
        let inc = incrementalize_lvgn(&s).unwrap();
        // Expected ∂put (with m inlined by the planner step):
        //   +r(X,Y) :- +v(X,Y), ¬r(X,Y).
        //   -r(X,Y) :- r(X,Y), Y > 2, -v(X,Y).
        let text = inc.to_string();
        assert!(
            text.contains("+r(X, Y) :- +v(X, Y), not r(X, Y)."),
            "{text}"
        );
        assert!(text.contains("-v(X, Y)"), "{text}");
        assert!(
            !text.contains("m("),
            "intermediate m must be inlined: {text}"
        );
        // No constraints in the incremental program.
        assert!(inc.constraints().next().is_none());
    }

    #[test]
    fn lvgn_shortcut_union() {
        let s = UpdateStrategy::parse(
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
        let inc = incrementalize_lvgn(&s).unwrap();
        let expected = parse_program(
            "
            -r1(X) :- r1(X), -v(X).
            -r2(X) :- r2(X), -v(X).
            +r1(X) :- +v(X), not r1(X), not r2(X).
            ",
        )
        .unwrap();
        assert_eq!(inc, expected, "got {inc}");
    }

    #[test]
    fn general_binarization_shapes() {
        let rules = parse_program("+r(X, Z) :- a(X, Y), b(Y, Z), Z > 1, not c(X), not v(X, Y, Z).")
            .unwrap()
            .rules;
        let stages = binarize(&rules).unwrap();
        let kinds: Vec<StageKind> = stages.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Join,
                StageKind::Selection,
                StageKind::Negation,
                StageKind::Negation,
                StageKind::Projection,
            ]
        );
        // The join stage head carries all variables.
        let join_head = stages[0].rule.head.atom().unwrap();
        assert_eq!(join_head.arity(), 3);
    }

    #[test]
    fn general_path_rejects_positive_atom_free_rules() {
        let s = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new("r", vec![("a", SortKind::Int)])),
            Schema::new("v", vec![("a", SortKind::Int)]),
            "+r(X) :- X = 1, not v(X).",
            None,
        )
        .unwrap();
        assert!(incrementalize_general(&s).is_err());
    }

    #[test]
    fn general_path_produces_output_delta_rules() {
        let s = selection_strategy();
        let inc = incrementalize_general(&s).unwrap();
        let has_plus_r = inc
            .rules
            .iter()
            .any(|r| r.head.atom().is_some_and(|a| a.pred == PredRef::ins("r")));
        let has_minus_r = inc
            .rules
            .iter()
            .any(|r| r.head.atom().is_some_and(|a| a.pred == PredRef::del("r")));
        assert!(has_plus_r && has_minus_r, "{inc}");
        // No nested-delta heads remain.
        for r in &inc.rules {
            if let Some(a) = r.head.atom() {
                assert!(
                    parse_delta_name(&a.pred.name).is_none(),
                    "nested delta survived: {r}"
                );
            }
        }
    }
}
