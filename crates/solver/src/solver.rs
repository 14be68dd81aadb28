//! Top-level bounded solver: domain iteration, grounding, SAT.

use crate::cnf::PNode;
use crate::domain::{build_domain, DomainConfig};
use crate::ground::{ground, GroundError};
use crate::sat::solve;
use birds_datalog::PredRef;
use birds_fol::{miniscope, Formula};
use birds_store::{Tuple, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A finite model: the domain used and the extension of every relation
/// mentioned by the sentence (absent tuples are false).
#[derive(Debug, Clone, Default)]
pub struct Model {
    /// The domain elements.
    pub domain: Vec<Value>,
    /// True ground atoms per predicate.
    pub relations: BTreeMap<PredRef, Vec<Tuple>>,
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "domain: {:?}",
            self.domain
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
        )?;
        for (p, tuples) in &self.relations {
            write!(f, "  {p} = {{")?;
            for (i, t) in tuples.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{t}")?;
            }
            writeln!(f, "}}")?;
        }
        Ok(())
    }
}

/// Outcome of a bounded satisfiability check.
#[derive(Debug, Clone)]
pub enum SatOutcome {
    /// A finite model was found: the sentence is satisfiable.
    Sat(Model),
    /// No model exists with up to `max_fresh` fresh domain elements.
    /// (Complete up to the bound; see the crate docs.)
    Unsat {
        /// The largest fresh-element count tried.
        max_fresh: usize,
    },
}

impl SatOutcome {
    /// `true` for the `Sat` variant.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatOutcome::Sat(_))
    }
}

/// Solver failure (resource limits).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolverError {
    /// Grounding exceeded the node budget.
    BudgetExceeded,
    /// The constructed domain exceeded `max_total`.
    DomainTooLarge { size: usize, max: usize },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::BudgetExceeded => write!(f, "solver grounding budget exceeded"),
            SolverError::DomainTooLarge { size, max } => {
                write!(
                    f,
                    "domain of size {size} exceeds the configured maximum {max}"
                )
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// The bounded model finder. See the crate docs for the method.
#[derive(Debug, Clone)]
pub struct BoundedSolver {
    /// Domain construction parameters.
    pub config: DomainConfig,
    /// Grounding node budget per (sentence, domain) attempt.
    pub budget: usize,
}

impl Default for BoundedSolver {
    fn default() -> Self {
        BoundedSolver {
            config: DomainConfig::default(),
            budget: 4_000_000,
        }
    }
}

impl BoundedSolver {
    /// Solver with a specific fresh-element bound.
    pub fn with_max_fresh(max_fresh: usize) -> Self {
        BoundedSolver {
            config: DomainConfig {
                max_fresh,
                ..DomainConfig::default()
            },
            ..BoundedSolver::default()
        }
    }

    /// Check satisfiability of `sentence`. Free variables are closed
    /// existentially. Iterates fresh-element counts `0..=max_fresh`
    /// (satisfiability over finite domains is not monotone in the domain
    /// size, so every size is tried).
    pub fn check(&self, sentence: &Formula) -> Result<SatOutcome, SolverError> {
        let free: Vec<String> = sentence.free_vars().into_iter().collect();
        let closed = if free.is_empty() {
            sentence.clone()
        } else {
            Formula::exists(free, sentence.clone())
        };
        // Miniscoping keeps the grounder's quantifier expansion to the
        // product of small variable-connected components.
        let closed = miniscope(&closed);

        for n_fresh in 0..=self.config.max_fresh {
            let domain = build_domain(&closed, n_fresh);
            if domain.is_empty() {
                continue;
            }
            if domain.len() > self.config.max_total {
                return Err(SolverError::DomainTooLarge {
                    size: domain.len(),
                    max: self.config.max_total,
                });
            }
            let grounded = ground(&closed, &domain, self.budget).map_err(|e| match e {
                GroundError::BudgetExceeded => SolverError::BudgetExceeded,
                GroundError::UnboundVariable(v) => {
                    unreachable!("sentence was closed but {v} is unbound")
                }
            })?;
            // Fast paths on constant roots.
            match grounded.arena.node(grounded.root) {
                PNode::True => {
                    return Ok(SatOutcome::Sat(Model {
                        domain,
                        relations: BTreeMap::new(),
                    }))
                }
                PNode::False => continue,
                _ => {}
            }
            let (cnf, atom_vars) = grounded
                .arena
                .tseitin(grounded.root, grounded.atoms.len() as u32);
            let solved = solve(&cnf);
            if let Some(assignment) = solved {
                let mut relations: BTreeMap<PredRef, Vec<Tuple>> = BTreeMap::new();
                for (i, (pred, vals)) in grounded.atoms.iter().enumerate() {
                    if assignment[atom_vars[i]] {
                        relations
                            .entry(pred.clone())
                            .or_default()
                            .push(Tuple::new(vals.clone()));
                    }
                }
                return Ok(SatOutcome::Sat(Model { domain, relations }));
            }
        }
        Ok(SatOutcome::Unsat {
            max_fresh: self.config.max_fresh,
        })
    }

    /// Check satisfiability of `sentence ∧ ⋀ᵢ ¬assumptionᵢ` — i.e. of the
    /// sentence *under* a set of constraints, each given as the (closed)
    /// violation sentence of a constraint rule. This is the "satisfiable
    /// under Σ" of paper Theorem 3.2.
    pub fn check_under(
        &self,
        sentence: &Formula,
        constraint_violations: &[Formula],
    ) -> Result<SatOutcome, SolverError> {
        // ∃-close the query *first*, then conjoin the negated constraint
        // sentences (which are closed).
        let free: Vec<String> = sentence.free_vars().into_iter().collect();
        let closed_query = if free.is_empty() {
            sentence.clone()
        } else {
            Formula::exists(free, sentence.clone())
        };
        let mut parts = vec![closed_query];
        for c in constraint_violations {
            parts.push(Formula::not(c.clone()));
        }
        self.check(&Formula::and(parts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_datalog::{CmpOp, Term};

    fn rel(name: &str, vars: &[&str]) -> Formula {
        Formula::Rel(
            PredRef::plain(name),
            vars.iter().map(|v| Term::var(*v)).collect(),
        )
    }

    fn solver() -> BoundedSolver {
        BoundedSolver::default()
    }

    #[test]
    fn simple_sat_with_model() {
        let f = Formula::exists(vec!["X".into()], rel("r", &["X"]));
        match solver().check(&f).unwrap() {
            SatOutcome::Sat(m) => {
                let tuples = &m.relations[&PredRef::plain("r")];
                assert_eq!(tuples.len(), 1);
            }
            SatOutcome::Unsat { .. } => panic!("expected SAT"),
        }
    }

    #[test]
    fn contradiction_is_unsat() {
        let f = Formula::exists(
            vec!["X".into()],
            Formula::and(vec![rel("r", &["X"]), Formula::not(rel("r", &["X"]))]),
        );
        assert!(!solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn integer_discreteness_unsat() {
        // ∃X r(X) ∧ X > 2 ∧ X < 3 over integers: UNSAT
        let f = Formula::exists(
            vec!["X".into()],
            Formula::and(vec![
                rel("r", &["X"]),
                Formula::Cmp(CmpOp::Gt, Term::var("X"), Term::constant(2)),
                Formula::Cmp(CmpOp::Lt, Term::var("X"), Term::constant(3)),
            ]),
        );
        assert!(!solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn string_density_sat() {
        // ∃X r(X) ∧ X > 'a' ∧ X < 'b' over strings: SAT (dense)
        let f = Formula::exists(
            vec!["X".into()],
            Formula::and(vec![
                rel("r", &["X"]),
                Formula::Cmp(CmpOp::Gt, Term::var("X"), Term::Const("a".into())),
                Formula::Cmp(CmpOp::Lt, Term::var("X"), Term::Const("b".into())),
            ]),
        );
        assert!(solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn date_range_constraint_sat() {
        // The residents1962 constraint pattern: a birth date within 1962.
        let f = Formula::exists(
            vec!["B".into()],
            Formula::and(vec![
                rel("r", &["B"]),
                Formula::not(Formula::Cmp(
                    CmpOp::Lt,
                    Term::var("B"),
                    Term::Const("1962-01-01".into()),
                )),
                Formula::not(Formula::Cmp(
                    CmpOp::Gt,
                    Term::var("B"),
                    Term::Const("1962-12-31".into()),
                )),
            ]),
        );
        assert!(solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn union_steady_state_check_unsat() {
        // Example 4.1 core check: ∃Y (r1(Y) ∨ r2(Y)) ∧ ¬r1(Y) ∧ ¬r2(Y)
        let f = Formula::exists(
            vec!["Y".into()],
            Formula::and(vec![
                Formula::or(vec![rel("r1", &["Y"]), rel("r2", &["Y"])]),
                Formula::not(rel("r1", &["Y"])),
                Formula::not(rel("r2", &["Y"])),
            ]),
        );
        assert!(!solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn universally_quantified_implication() {
        // (∀X r(X)→s(X)) ∧ ∃X (r(X) ∧ ¬s(X)) is UNSAT.
        let f = Formula::and(vec![
            Formula::Forall(
                vec!["X".into()],
                Box::new(Formula::or(vec![
                    Formula::not(rel("r", &["X"])),
                    rel("s", &["X"]),
                ])),
            ),
            Formula::exists(
                vec!["X".into()],
                Formula::and(vec![rel("r", &["X"]), Formula::not(rel("s", &["X"]))]),
            ),
        ]);
        assert!(!solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn check_under_constraints() {
        // query: ∃X v(X) ∧ X > 2 ; constraint: ⊥ :- v(X), X > 2
        // (violation sentence ∃X v(X) ∧ X > 2). Under Σ the query is UNSAT.
        let q = Formula::exists(
            vec!["X".into()],
            Formula::and(vec![
                rel("v", &["X"]),
                Formula::Cmp(CmpOp::Gt, Term::var("X"), Term::constant(2)),
            ]),
        );
        let sigma = vec![q.clone()];
        assert!(solver().check(&q).unwrap().is_sat());
        assert!(!solver().check_under(&q, &sigma).unwrap().is_sat());
    }

    #[test]
    fn free_variables_are_closed_existentially() {
        let f = rel("r", &["X"]); // free X
        assert!(solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn equality_reasoning() {
        // ∃X,Y r(X) ∧ r(Y) ∧ ¬(X = Y) needs ≥ 2 domain elements: SAT with
        // fresh elements.
        let f = Formula::exists(
            vec!["X".into(), "Y".into()],
            Formula::and(vec![
                rel("r", &["X"]),
                rel("r", &["Y"]),
                Formula::not(Formula::eq(Term::var("X"), Term::var("Y"))),
            ]),
        );
        assert!(solver().check(&f).unwrap().is_sat());
    }

    #[test]
    fn three_distinct_elements_need_bound_three() {
        // pairwise-distinct triple: needs 3 fresh elements
        let distinct = |a: &str, b: &str| Formula::not(Formula::eq(Term::var(a), Term::var(b)));
        let f = Formula::exists(
            vec!["X".into(), "Y".into(), "Z".into()],
            Formula::and(vec![
                rel("r", &["X"]),
                rel("r", &["Y"]),
                rel("r", &["Z"]),
                distinct("X", "Y"),
                distinct("X", "Z"),
                distinct("Y", "Z"),
            ]),
        );
        assert!(!BoundedSolver::with_max_fresh(2).check(&f).unwrap().is_sat());
        assert!(BoundedSolver::with_max_fresh(3).check(&f).unwrap().is_sat());
    }
}
