//! User-facing representation of a view update strategy.

use crate::error::CoreError;
use birds_datalog::{
    check_lvgn, check_nonrecursive, check_safety, parse_program, DeltaKind, Head, LvgnViolation,
    PredRef, Program, Rule,
};
use birds_store::{DatabaseSchema, Schema};

/// A programmable view update strategy (paper §3): a putback program
/// `putdelta` over the pair `(S, V)` of source database and updated view,
/// producing delta relations on the source.
#[derive(Debug, Clone)]
pub struct UpdateStrategy {
    /// Schemas of the source relations `⟨r1, …, rn⟩`.
    pub source_schema: DatabaseSchema,
    /// Schema of the view relation `v`.
    pub view: Schema,
    /// The putback program: delta rules, intermediate rules, and `⊥`
    /// integrity constraints (§3.2.3).
    pub putdelta: Program,
    /// Optional expected view definition (rules with head `v`), checked by
    /// validation pass 2 before any derivation is attempted.
    pub expected_get: Option<Program>,
}

impl UpdateStrategy {
    /// Build and shape-check a strategy.
    ///
    /// Checks: safety and non-recursion of `putdelta`; every delta-rule
    /// head targets a source relation with the schema's arity; the view is
    /// not also a source; plain (non-delta) heads define intermediate
    /// predicates only (never the view or a source relation); the expected
    /// get (if given) is safe, non-recursive and defines the view with the
    /// right arity.
    pub fn new(
        source_schema: DatabaseSchema,
        view: Schema,
        putdelta: Program,
        expected_get: Option<Program>,
    ) -> Result<Self, CoreError> {
        if source_schema.get(&view.name).is_some() {
            return Err(CoreError::BadStrategy(format!(
                "view '{}' clashes with a source relation",
                view.name
            )));
        }
        check_safety(&putdelta).map_err(|e| {
            CoreError::Analysis(
                e.into_iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join("; "),
            )
        })?;
        check_nonrecursive(&putdelta).map_err(|e| CoreError::Analysis(e.to_string()))?;
        for rule in &putdelta.rules {
            match &rule.head {
                Head::Bottom => {}
                Head::Atom(a) => match a.pred.kind {
                    DeltaKind::Insert | DeltaKind::Delete => {
                        let Some(schema) = source_schema.get(&a.pred.name) else {
                            return Err(CoreError::BadStrategy(format!(
                                "delta rule head '{}' does not target a source relation",
                                a.pred
                            )));
                        };
                        if schema.arity() != a.arity() {
                            return Err(CoreError::BadStrategy(format!(
                                "delta rule head '{}' has arity {} but relation '{}' has arity {}",
                                a.pred,
                                a.arity(),
                                a.pred.name,
                                schema.arity()
                            )));
                        }
                    }
                    DeltaKind::None => {
                        if a.pred.name == view.name {
                            return Err(CoreError::BadStrategy(
                                "the putback program must not define the view".into(),
                            ));
                        }
                        if source_schema.get(&a.pred.name).is_some() {
                            return Err(CoreError::BadStrategy(format!(
                                "rule head '{}' redefines a source relation",
                                a.pred
                            )));
                        }
                    }
                    DeltaKind::New => {
                        return Err(CoreError::BadStrategy(
                            "reserved 'new' predicates cannot appear in user programs".into(),
                        ));
                    }
                },
            }
        }
        if let Some(get) = &expected_get {
            check_safety(get).map_err(|e| {
                CoreError::Analysis(
                    e.into_iter()
                        .map(|x| x.to_string())
                        .collect::<Vec<_>>()
                        .join("; "),
                )
            })?;
            check_nonrecursive(get).map_err(|e| CoreError::Analysis(e.to_string()))?;
            let vpred = PredRef::plain(&view.name);
            let defines_view = get.rules_for(&vpred).next().is_some();
            if !defines_view {
                return Err(CoreError::BadStrategy(format!(
                    "expected get does not define the view '{}'",
                    view.name
                )));
            }
            if get.arity_of(&vpred) != Some(view.arity()) {
                return Err(CoreError::BadStrategy(format!(
                    "expected get defines '{}' with the wrong arity",
                    view.name
                )));
            }
        }
        Ok(UpdateStrategy {
            source_schema,
            view,
            putdelta,
            expected_get,
        })
    }

    /// Convenience constructor from program source text.
    pub fn parse(
        source_schema: DatabaseSchema,
        view: Schema,
        putdelta_src: &str,
        expected_get_src: Option<&str>,
    ) -> Result<Self, CoreError> {
        let putdelta =
            parse_program(putdelta_src).map_err(|e| CoreError::BadStrategy(e.to_string()))?;
        let expected_get = expected_get_src
            .map(parse_program)
            .transpose()
            .map_err(|e| CoreError::BadStrategy(e.to_string()))?;
        Self::new(source_schema, view, putdelta, expected_get)
    }

    /// The view predicate.
    pub fn view_pred(&self) -> PredRef {
        PredRef::plain(&self.view.name)
    }

    /// Integrity constraint rules of the putback program.
    pub fn constraints(&self) -> Vec<&Rule> {
        self.putdelta.constraints().collect()
    }

    /// Delta rules (heads `+r` / `-r`).
    pub fn delta_rules(&self) -> Vec<&Rule> {
        self.putdelta
            .rules
            .iter()
            .filter(|r| r.head.atom().is_some_and(|a| a.pred.is_delta()))
            .collect()
    }

    /// Source relations that have at least one delta rule of the given
    /// kind.
    pub fn delta_targets(&self, kind: DeltaKind) -> Vec<String> {
        let mut names: Vec<String> = self
            .delta_rules()
            .into_iter()
            .filter_map(|r| r.head.atom())
            .filter(|a| a.pred.kind == kind)
            .map(|a| a.pred.name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// Source relations the putback program (or the expected get) *reads*:
    /// every source-schema relation that occurs in a rule body, either
    /// plainly or as a delta predicate. This is the read half of the
    /// strategy's dependency footprint — the relations a concurrency
    /// layer must hold (at least) shared while an update evaluates.
    pub fn read_relations(&self) -> std::collections::BTreeSet<String> {
        let mut reads = std::collections::BTreeSet::new();
        let mut visit = |program: &Program| {
            for pred in program.all_body_predicates() {
                if self.source_schema.get(&pred.name).is_some() {
                    reads.insert(pred.name.clone());
                }
            }
        };
        visit(&self.putdelta);
        if let Some(get) = &self.expected_get {
            visit(get);
        }
        reads
    }

    /// Source relations the putback program *writes*: the targets of its
    /// delta rules (`+r` / `-r` heads). The write half of the strategy's
    /// dependency footprint — the relations a commit mutates (and, when a
    /// target is itself a view, where a cascade starts).
    pub fn write_relations(&self) -> std::collections::BTreeSet<String> {
        self.delta_rules()
            .into_iter()
            .filter_map(|r| r.head.atom())
            .map(|a| a.pred.name.clone())
            .collect()
    }

    /// LVGN-Datalog membership violations (empty = in the fragment;
    /// paper §3.2).
    pub fn lvgn_violations(&self) -> Vec<LvgnViolation> {
        check_lvgn(&self.putdelta, &self.view.name)
    }

    /// Is the putback program in LVGN-Datalog?
    pub fn is_lvgn(&self) -> bool {
        self.lvgn_violations().is_empty()
    }

    /// The paper's "program size (LOC)" metric: number of rules, counting
    /// constraints.
    pub fn program_size(&self) -> usize {
        self.putdelta.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::SortKind;

    fn union_schema() -> (DatabaseSchema, Schema) {
        (
            DatabaseSchema::new()
                .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                .with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new("v", vec![("a", SortKind::Int)]),
        )
    }

    const UNION_PUT: &str = "
        -r1(X) :- r1(X), not v(X).
        -r2(X) :- r2(X), not v(X).
        +r1(X) :- v(X), not r1(X), not r2(X).
    ";

    #[test]
    fn build_union_strategy() {
        let (src, view) = union_schema();
        let s = UpdateStrategy::parse(src, view, UNION_PUT, Some("v(X) :- r1(X). v(X) :- r2(X)."))
            .unwrap();
        assert!(s.is_lvgn());
        assert_eq!(s.program_size(), 3);
        assert_eq!(s.delta_rules().len(), 3);
        assert_eq!(s.delta_targets(DeltaKind::Delete), vec!["r1", "r2"]);
        assert_eq!(s.delta_targets(DeltaKind::Insert), vec!["r1"]);
    }

    #[test]
    fn delta_head_must_target_source() {
        let (src, view) = union_schema();
        let bad = "-r9(X) :- r1(X), not v(X).";
        assert!(matches!(
            UpdateStrategy::parse(src, view, bad, None),
            Err(CoreError::BadStrategy(_))
        ));
    }

    #[test]
    fn arity_must_match_schema() {
        let (src, view) = union_schema();
        // The delta head uses arity 2 while the schema says r1 is unary.
        let bad = "-r1(X, Y) :- r2(X), v(Y).";
        assert!(matches!(
            UpdateStrategy::parse(src, view, bad, None),
            Err(CoreError::BadStrategy(_))
        ));
        // Inconsistent arities *within* the program are caught earlier by
        // program analysis.
        let (src, view) = union_schema();
        let mixed = "-r1(X, Y) :- r1(X), v(Y), not v(X).";
        assert!(matches!(
            UpdateStrategy::parse(src, view, mixed, None),
            Err(CoreError::Analysis(_))
        ));
    }

    #[test]
    fn view_cannot_be_defined_by_putdelta() {
        let (src, view) = union_schema();
        let bad = "v(X) :- r1(X). -r1(X) :- r1(X), not v(X).";
        assert!(matches!(
            UpdateStrategy::parse(src, view, bad, None),
            Err(CoreError::BadStrategy(_))
        ));
    }

    #[test]
    fn unsafe_program_rejected() {
        let (src, view) = union_schema();
        let bad = "+r1(X) :- not r1(X).";
        assert!(matches!(
            UpdateStrategy::parse(src, view, bad, None),
            Err(CoreError::Analysis(_))
        ));
    }

    #[test]
    fn expected_get_must_define_view() {
        let (src, view) = union_schema();
        let err = UpdateStrategy::parse(src, view, UNION_PUT, Some("w(X) :- r1(X)."));
        assert!(matches!(err, Err(CoreError::BadStrategy(_))));
    }

    #[test]
    fn constraints_are_collected() {
        let (src, view) = union_schema();
        let put = "
            false :- v(X), X > 100.
            -r1(X) :- r1(X), not v(X).
        ";
        let s = UpdateStrategy::parse(src, view, put, None).unwrap();
        assert_eq!(s.constraints().len(), 1);
        assert_eq!(s.delta_rules().len(), 1);
    }

    #[test]
    fn read_and_write_sets_cover_the_strategy_footprint() {
        let (src, view) = union_schema();
        let s = UpdateStrategy::parse(src, view, UNION_PUT, Some("v(X) :- r1(X). v(X) :- r2(X)."))
            .unwrap();
        let reads: Vec<String> = s.read_relations().into_iter().collect();
        assert_eq!(reads, vec!["r1".to_owned(), "r2".to_owned()]);
        let writes: Vec<String> = s.write_relations().into_iter().collect();
        assert_eq!(writes, vec!["r1".to_owned(), "r2".to_owned()]);

        // A one-directional strategy writes less than it reads.
        let (src, view) = union_schema();
        let s =
            UpdateStrategy::parse(src, view, "-r1(X) :- r1(X), r2(X), not v(X).", None).unwrap();
        assert_eq!(s.read_relations().len(), 2);
        assert_eq!(
            s.write_relations().into_iter().collect::<Vec<_>>(),
            vec!["r1".to_owned()]
        );
    }

    #[test]
    fn non_lvgn_is_detected() {
        let (src, view) = union_schema();
        // self-join on the view
        let put = "+r1(X) :- v(X), v(X), not r1(X).";
        // (identical atoms — still two view atoms syntactically)
        let s = UpdateStrategy::parse(src, view, put, None).unwrap();
        assert!(!s.is_lvgn());
    }
}
