//! Integration tests over the Table 1 benchmark corpus: every row parses,
//! classifies as the paper reports, and a representative per operator
//! class validates end to end.
//!
//! The full 32-row validation (the complete Table 1 run) is exercised by
//! the `table1` binary and the `table1_validation` bench; here we keep a
//! fast representative subset plus an `#[ignore]`d full sweep
//! (`cargo test --test integration_corpus -- --ignored` to run it).

use birds::benchmarks::corpus;
use birds::benchmarks::table1::{format_table, run_entry};
use birds::prelude::*;

#[test]
fn corpus_is_complete_and_ordered() {
    let all = corpus::entries();
    assert_eq!(all.len(), 32);
    assert_eq!(all.iter().filter(|e| !e.expressible).count(), 1);
    // Table 1 group sizes: 23 literature + 9 Q&A.
    assert_eq!(
        all.iter()
            .filter(|e| e.source == corpus::SourceKind::Literature)
            .count(),
        23
    );
    assert_eq!(
        all.iter()
            .filter(|e| e.source == corpus::SourceKind::QaSite)
            .count(),
        9
    );
}

#[test]
fn lvgn_split_matches_paper() {
    // Rows 16–18, 20–23, 27, 29–32 are outside LVGN-Datalog (joins, PK,
    // FK, JD, aggregation); all other rows are inside.
    let outside: Vec<usize> = corpus::entries()
        .iter()
        .filter(|e| !e.lvgn_expected)
        .map(|e| e.id)
        .collect();
    assert_eq!(
        outside,
        vec![16, 17, 18, 20, 21, 22, 23, 27, 29, 30, 31, 32]
    );
}

#[test]
fn classification_agrees_with_checker() {
    for e in corpus::entries() {
        let Some(s) = e.strategy() else { continue };
        assert_eq!(
            s.is_lvgn(),
            e.lvgn_expected,
            "#{} {}: {:?}",
            e.id,
            e.name,
            s.lvgn_violations()
        );
    }
}

/// One representative per operator class validates end to end: this keeps
/// the default test run fast while covering P, S, D, U, SJ and IJ paths.
#[test]
fn representative_entries_validate() {
    for name in ["car_master", "luxuryitems", "ced", "vw_brands", "employees"] {
        let e = corpus::entry(name).unwrap();
        let row = run_entry(&e);
        assert_eq!(row.valid, Some(true), "{name}: {row:?}");
        assert!(row.sql_bytes.unwrap() > 0, "{name}");
    }
}

/// An inner-join representative (non-LVGN) validates via the bounded
/// solver against its expected get.
#[test]
fn join_representative_validates() {
    let e = corpus::entry("tracks1").unwrap();
    let row = run_entry(&e);
    assert_eq!(row.lvgn, Some(false));
    assert_eq!(row.valid, Some(true), "{row:?}");
}

#[test]
fn table_formatting_is_stable() {
    let rows: Vec<_> = ["luxuryitems", "emp_view"]
        .iter()
        .map(|n| run_entry(&corpus::entry(n).unwrap()))
        .collect();
    let text = format_table(&rows);
    assert!(text.lines().count() >= 3);
    assert!(text.contains("Time(s)"));
}

/// Every expressible entry's expected get parses and defines the view
/// with the right arity.
#[test]
fn expected_gets_define_views() {
    for e in corpus::entries() {
        if !e.expressible {
            continue;
        }
        let get = parse_program(e.expected_get).unwrap_or_else(|err| panic!("{}: {err}", e.name));
        let pred = birds::datalog::PredRef::plain(e.name);
        assert!(
            get.rules_for(&pred).next().is_some(),
            "{}: get does not define the view",
            e.name
        );
        assert_eq!(
            get.arity_of(&pred),
            Some(e.view.cols.len()),
            "{}: view arity mismatch",
            e.name
        );
    }
}

/// The full Table 1 sweep: every expressible strategy validates. Slow —
/// run explicitly with `--ignored`.
#[test]
#[ignore = "full 32-row validation; run with --ignored"]
fn full_table1_validates() {
    for e in corpus::entries() {
        let row = run_entry(&e);
        if e.expressible {
            assert_eq!(row.valid, Some(true), "#{} {}: {row:?}", e.id, e.name);
        } else {
            assert_eq!(row.valid, None);
        }
    }
}

/// The non-LVGN strategies (joins, keys, join dependencies) run in both
/// modes: one view insert on empty sources ends in the same source
/// state whether ΔS comes from the putback program or its
/// incrementalization. The incrementalized program also derives stage
/// deltas of intermediate predicates; only source deltas may reach the
/// database.
#[test]
fn non_lvgn_strategies_update_alike_in_both_modes() {
    use birds::store::{Delta, ValueSort};
    let entries: Vec<_> = corpus::entries()
        .into_iter()
        .filter(|e| e.expressible && !e.lvgn_expected)
        .collect();
    assert_eq!(entries.len(), 11);
    for e in entries {
        let row: Vec<Value> = e
            .view
            .cols
            .iter()
            .map(|(_, sort)| match sort {
                ValueSort::Int => Value::Int(1),
                ValueSort::Float => Value::float(1.0),
                ValueSort::Str => Value::str("a"),
                ValueSort::Bool => Value::Bool(true),
            })
            .collect();
        let sources = |mode: StrategyMode| {
            let mut db = Database::new();
            for spec in e.sources {
                db.add_relation(Relation::new(spec.name, spec.cols.len()))
                    .unwrap();
            }
            let mut engine = Engine::new(db);
            let get = parse_program(e.expected_get).unwrap();
            engine
                .register_view_unchecked(e.strategy().unwrap(), get, mode)
                .unwrap_or_else(|err| panic!("{} ({mode:?}): {err}", e.name));
            let mut delta = Delta::new();
            delta.push_insert(Tuple::new(row.clone()));
            engine
                .apply_delta(e.name, delta)
                .unwrap_or_else(|err| panic!("{} ({mode:?}): {err}", e.name));
            e.sources
                .iter()
                .map(|spec| {
                    let mut tuples: Vec<Tuple> = engine
                        .relation(spec.name)
                        .unwrap()
                        .iter()
                        .cloned()
                        .collect();
                    tuples.sort();
                    (spec.name, tuples)
                })
                .collect::<Vec<_>>()
        };
        let original = sources(StrategyMode::Original);
        assert!(
            original.iter().any(|(_, tuples)| !tuples.is_empty()),
            "{}: the insert reached no source",
            e.name
        );
        assert_eq!(original, sources(StrategyMode::Incremental), "{}", e.name);
    }
}
