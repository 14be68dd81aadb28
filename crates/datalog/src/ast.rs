//! Abstract syntax of non-recursive Datalog with negation, builtins and
//! delta predicates.

use birds_store::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A term: a variable or a constant (paper §2.1).
///
/// Anonymous variables (`_`) are expanded by the parser into fresh variables
/// named `_#k`; [`Term::is_anonymous`] recognizes them (the linear-view
/// restriction of Definition 3.2 forbids them inside view atoms).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable (uppercase by convention).
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Build a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Build a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// Is this a parser-generated anonymous variable?
    pub fn is_anonymous(&self) -> bool {
        matches!(self, Term::Var(n) if n.starts_with("_#"))
    }

    /// Variable name, if this is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(n) => Some(n),
            Term::Const(_) => None,
        }
    }

    /// Constant value, if this is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Const(v) => Some(v),
            Term::Var(_) => None,
        }
    }
}

/// Whether a predicate reference denotes the relation itself or one of its
/// delta relations (paper §3.1) / the post-update relation (§4.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeltaKind {
    /// The plain relation `r`.
    None,
    /// The insertion set `+r`.
    Insert,
    /// The deletion set `-r`.
    Delete,
    /// The post-update relation `rⁿᵉʷ` (internal; used by the PutGet
    /// construction of §4.4 and by incrementalization's `rᵛ` relations).
    New,
}

/// A reference to a predicate: base name plus delta kind.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredRef {
    /// Base relation name.
    pub name: String,
    /// Plain / `+` / `-` / `new`.
    pub kind: DeltaKind,
}

impl PredRef {
    /// Plain predicate `r`.
    pub fn plain(name: impl Into<String>) -> Self {
        PredRef {
            name: name.into(),
            kind: DeltaKind::None,
        }
    }

    /// Insertion delta `+r`.
    pub fn ins(name: impl Into<String>) -> Self {
        PredRef {
            name: name.into(),
            kind: DeltaKind::Insert,
        }
    }

    /// Deletion delta `-r`.
    pub fn del(name: impl Into<String>) -> Self {
        PredRef {
            name: name.into(),
            kind: DeltaKind::Delete,
        }
    }

    /// Post-update predicate `rⁿᵉʷ`.
    pub fn new_rel(name: impl Into<String>) -> Self {
        PredRef {
            name: name.into(),
            kind: DeltaKind::New,
        }
    }

    /// Is this a `+r` or `-r` delta predicate?
    pub fn is_delta(&self) -> bool {
        matches!(self.kind, DeltaKind::Insert | DeltaKind::Delete)
    }

    /// Unique flat name used when the predicate is materialized as a
    /// relation (e.g. in the evaluator): `r`, `+r`, `-r`, `r__new`.
    pub fn flat_name(&self) -> String {
        match self.kind {
            DeltaKind::None => self.name.clone(),
            DeltaKind::Insert => format!("+{}", self.name),
            DeltaKind::Delete => format!("-{}", self.name),
            DeltaKind::New => format!("{}__new", self.name),
        }
    }
}

impl fmt::Display for PredRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DeltaKind::None => write!(f, "{}", self.name),
            DeltaKind::Insert => write!(f, "+{}", self.name),
            DeltaKind::Delete => write!(f, "-{}", self.name),
            DeltaKind::New => write!(f, "{}__new", self.name),
        }
    }
}

/// An atom `p(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// The predicate being applied.
    pub pred: PredRef,
    /// Argument terms.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Build an atom.
    pub fn new(pred: PredRef, terms: Vec<Term>) -> Self {
        Atom { pred, terms }
    }

    /// Arity of the atom.
    pub fn arity(&self) -> usize {
        self.terms.len()
    }

    /// Set of variable names occurring in the atom.
    pub fn variables(&self) -> BTreeSet<&str> {
        self.terms.iter().filter_map(Term::as_var).collect()
    }

    /// `true` when all terms are constants.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| matches!(t, Term::Const(_)))
    }
}

/// Builtin comparison operators. `≠` is represented as a negated `Eq`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluate the comparison on two values; `None` on cross-sort input.
    pub fn eval(self, a: &Value, b: &Value) -> Option<bool> {
        use std::cmp::Ordering::*;
        if self == CmpOp::Eq {
            return Some(a == b);
        }
        let ord = a.same_sort_cmp(b)?;
        Some(match self {
            CmpOp::Eq => unreachable!(),
            CmpOp::Lt => ord == Less,
            CmpOp::Gt => ord == Greater,
            CmpOp::Le => ord != Greater,
            CmpOp::Ge => ord != Less,
        })
    }

    /// Symbol for display.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
            CmpOp::Le => "<=",
            CmpOp::Ge => ">=",
        }
    }
}

/// A body literal: a possibly negated atom, or a possibly negated builtin
/// comparison.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Literal {
    /// `p(~t)` or `not p(~t)`.
    Atom {
        /// The atom.
        atom: Atom,
        /// `true` for `not p(~t)`.
        negated: bool,
    },
    /// `t1 op t2` or `not (t1 op t2)`.
    Builtin {
        /// Comparison operator.
        op: CmpOp,
        /// Left operand.
        left: Term,
        /// Right operand.
        right: Term,
        /// `true` for the negated form.
        negated: bool,
    },
}

impl Literal {
    /// Positive atom literal.
    pub fn pos(atom: Atom) -> Self {
        Literal::Atom {
            atom,
            negated: false,
        }
    }

    /// Negated atom literal.
    pub fn neg(atom: Atom) -> Self {
        Literal::Atom {
            atom,
            negated: true,
        }
    }

    /// Is this literal negated?
    pub fn is_negated(&self) -> bool {
        match self {
            Literal::Atom { negated, .. } | Literal::Builtin { negated, .. } => *negated,
        }
    }

    /// The atom, if this is an atom literal.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Literal::Atom { atom, .. } => Some(atom),
            Literal::Builtin { .. } => None,
        }
    }

    /// Variables occurring in the literal.
    pub fn variables(&self) -> BTreeSet<&str> {
        match self {
            Literal::Atom { atom, .. } => atom.variables(),
            Literal::Builtin { left, right, .. } => {
                [left, right].into_iter().filter_map(Term::as_var).collect()
            }
        }
    }
}

/// A rule head: an atom, or `⊥` for integrity constraints (§3.2.3).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Head {
    /// Ordinary rule head.
    Atom(Atom),
    /// Truth constant `⊥` — the rule is an integrity constraint
    /// `∀X, Φ(X) → ⊥`.
    Bottom,
}

impl Head {
    /// The head atom, if not `⊥`.
    pub fn atom(&self) -> Option<&Atom> {
        match self {
            Head::Atom(a) => Some(a),
            Head::Bottom => None,
        }
    }
}

/// A Datalog rule `H :- L1, …, Ln.`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Rule head (atom or `⊥`).
    pub head: Head,
    /// Body literals.
    pub body: Vec<Literal>,
}

impl Rule {
    /// Build a rule with an atom head.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule {
            head: Head::Atom(head),
            body,
        }
    }

    /// Build an integrity constraint (`⊥` head).
    pub fn constraint(body: Vec<Literal>) -> Self {
        Rule {
            head: Head::Bottom,
            body,
        }
    }

    /// Is this rule an integrity constraint?
    pub fn is_constraint(&self) -> bool {
        matches!(self.head, Head::Bottom)
    }

    /// All positive body atoms.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Atom {
                atom,
                negated: false,
            } => Some(atom),
            _ => None,
        })
    }

    /// All negated body atoms.
    pub fn negated_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Atom {
                atom,
                negated: true,
            } => Some(atom),
            _ => None,
        })
    }

    /// All variables in the rule (head and body).
    pub fn variables(&self) -> BTreeSet<&str> {
        let mut vars: BTreeSet<&str> = self.body.iter().flat_map(|l| l.variables()).collect();
        if let Head::Atom(a) = &self.head {
            vars.extend(a.variables());
        }
        vars
    }

    /// A copy with variables renamed to the canonical `V0, V1, …` in order
    /// of first occurrence (head first, then body, left to right).
    pub fn canonical_vars(&self) -> Rule {
        let mut map: std::collections::HashMap<String, String> = std::collections::HashMap::new();
        let mut rename = |t: &Term, map: &mut std::collections::HashMap<String, String>| match t {
            Term::Var(v) => {
                let n = map.len();
                Term::Var(
                    map.entry(v.clone())
                        .or_insert_with(|| format!("V{n}"))
                        .clone(),
                )
            }
            c => c.clone(),
        };
        let map_atom = |a: &Atom,
                        map: &mut std::collections::HashMap<String, String>,
                        rename: &mut dyn FnMut(
            &Term,
            &mut std::collections::HashMap<String, String>,
        ) -> Term| {
            Atom::new(
                a.pred.clone(),
                a.terms.iter().map(|t| rename(t, map)).collect(),
            )
        };
        let head = match &self.head {
            Head::Atom(a) => Head::Atom(map_atom(a, &mut map, &mut rename)),
            Head::Bottom => Head::Bottom,
        };
        let body = self
            .body
            .iter()
            .map(|l| match l {
                Literal::Atom { atom, negated } => Literal::Atom {
                    atom: map_atom(atom, &mut map, &mut rename),
                    negated: *negated,
                },
                Literal::Builtin {
                    op,
                    left,
                    right,
                    negated,
                } => Literal::Builtin {
                    op: *op,
                    left: rename(left, &mut map),
                    right: rename(right, &mut map),
                    negated: *negated,
                },
            })
            .collect();
        Rule { head, body }
    }

    /// Alpha-equivalence: equality up to a consistent renaming of
    /// variables.
    pub fn alpha_eq(&self, other: &Rule) -> bool {
        self.canonical_vars() == other.canonical_vars()
    }
}

/// A Datalog program: a finite, nonempty set of rules (kept in source
/// order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Rules in source order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Build a program from rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Program { rules }
    }

    /// Alpha-equivalence as rule *sets*: both programs contain the same
    /// rules up to consistent variable renaming and rule order.
    pub fn alpha_eq(&self, other: &Program) -> bool {
        let canon = |p: &Program| -> Vec<Rule> {
            let mut rules: Vec<Rule> = p.rules.iter().map(Rule::canonical_vars).collect();
            rules.sort_by_key(|r| r.to_string());
            rules
        };
        canon(self) == canon(other)
    }

    /// All rules that are integrity constraints.
    pub fn constraints(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| r.is_constraint())
    }

    /// All non-constraint rules.
    pub fn proper_rules(&self) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(|r| !r.is_constraint())
    }

    /// The set of IDB predicates: those occurring as a rule head.
    pub fn idb_predicates(&self) -> BTreeSet<PredRef> {
        self.rules
            .iter()
            .filter_map(|r| r.head.atom())
            .map(|a| a.pred.clone())
            .collect()
    }

    /// The set of EDB predicates: those occurring only in rule bodies.
    pub fn edb_predicates(&self) -> BTreeSet<PredRef> {
        let idb = self.idb_predicates();
        self.all_body_predicates()
            .into_iter()
            .filter(|p| !idb.contains(p))
            .collect()
    }

    /// All predicates occurring in any rule body.
    pub fn all_body_predicates(&self) -> BTreeSet<PredRef> {
        self.rules
            .iter()
            .flat_map(|r| r.body.iter())
            .filter_map(Literal::atom)
            .map(|a| a.pred.clone())
            .collect()
    }

    /// Rules whose head predicate is `p`.
    pub fn rules_for<'a>(&'a self, p: &'a PredRef) -> impl Iterator<Item = &'a Rule> + 'a {
        self.rules
            .iter()
            .filter(move |r| r.head.atom().is_some_and(|a| &a.pred == p))
    }

    /// Arity of predicate `p` as used anywhere in the program (first use
    /// wins; [`crate::analysis::check_safety`] verifies consistency).
    pub fn arity_of(&self, p: &PredRef) -> Option<usize> {
        for rule in &self.rules {
            if let Some(a) = rule.head.atom() {
                if &a.pred == p {
                    return Some(a.arity());
                }
            }
            for lit in &rule.body {
                if let Some(a) = lit.atom() {
                    if &a.pred == p {
                        return Some(a.arity());
                    }
                }
            }
        }
        None
    }

    /// Merge another program's rules into this one.
    pub fn extend(&mut self, other: Program) {
        self.rules.extend(other.rules);
    }

    /// Number of rules (the paper's "program size (LOC)" metric).
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// `true` when the program has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(p: PredRef, vars: &[&str]) -> Atom {
        Atom::new(p, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn predref_flat_names() {
        assert_eq!(PredRef::plain("r").flat_name(), "r");
        assert_eq!(PredRef::ins("r").flat_name(), "+r");
        assert_eq!(PredRef::del("r").flat_name(), "-r");
        assert_eq!(PredRef::new_rel("r").flat_name(), "r__new");
    }

    #[test]
    fn idb_edb_partition() {
        // -r1(X) :- r1(X), not v(X).
        let rule = Rule::new(
            atom(PredRef::del("r1"), &["X"]),
            vec![
                Literal::pos(atom(PredRef::plain("r1"), &["X"])),
                Literal::neg(atom(PredRef::plain("v"), &["X"])),
            ],
        );
        let p = Program::new(vec![rule]);
        assert!(p.idb_predicates().contains(&PredRef::del("r1")));
        assert!(p.edb_predicates().contains(&PredRef::plain("r1")));
        assert!(p.edb_predicates().contains(&PredRef::plain("v")));
    }

    #[test]
    fn cmp_eval() {
        use birds_store::Value;
        assert_eq!(CmpOp::Lt.eval(&Value::int(1), &Value::int(2)), Some(true));
        assert_eq!(
            CmpOp::Ge.eval(&Value::str("b"), &Value::str("a")),
            Some(true)
        );
        assert_eq!(CmpOp::Lt.eval(&Value::int(1), &Value::str("a")), None);
        assert_eq!(
            CmpOp::Eq.eval(&Value::int(1), &Value::str("1")),
            Some(false),
            "equality across sorts is simply false"
        );
    }

    #[test]
    fn anonymous_detection() {
        assert!(Term::var("_#0").is_anonymous());
        assert!(!Term::var("X").is_anonymous());
        assert!(!Term::constant(1).is_anonymous());
    }

    #[test]
    fn rule_variable_collection() {
        let rule = Rule::new(
            atom(PredRef::plain("h"), &["X"]),
            vec![
                Literal::pos(atom(PredRef::plain("r"), &["X", "Y"])),
                Literal::Builtin {
                    op: CmpOp::Gt,
                    left: Term::var("Z"),
                    right: Term::constant(1),
                    negated: false,
                },
            ],
        );
        let vars = rule.variables();
        assert_eq!(vars.into_iter().collect::<Vec<_>>(), vec!["X", "Y", "Z"]);
    }

    #[test]
    fn constraint_head() {
        let c = Rule::constraint(vec![Literal::pos(atom(PredRef::plain("v"), &["X"]))]);
        assert!(c.is_constraint());
        assert!(c.head.atom().is_none());
    }

    #[test]
    fn arity_lookup() {
        let p = Program::new(vec![Rule::new(
            atom(PredRef::plain("h"), &["X", "Y"]),
            vec![Literal::pos(atom(PredRef::plain("r"), &["X", "Y"]))],
        )]);
        assert_eq!(p.arity_of(&PredRef::plain("h")), Some(2));
        assert_eq!(p.arity_of(&PredRef::plain("r")), Some(2));
        assert_eq!(p.arity_of(&PredRef::plain("zzz")), None);
    }
}
