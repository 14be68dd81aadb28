//! The paper's §3.3 case study: a personnel database with a *tower* of
//! updatable views.
//!
//! ```text
//! base:   male(e,b)  female(e,b)  others(e,b,g)  ed(e,d)  eed(e,d)
//! views:  ced        = ed \ eed                  (current departments)
//!         residents  = male ∪ female ∪ others    (everyone, with gender)
//!         residents1962 = σ_{b in 1962}(residents)
//!         employees  = residents ⋉ ced           (semi-join)
//!         retired    = residents \ π_e(ced)
//! ```
//!
//! `residents1962`, `employees` and `retired` are defined *over other
//! updatable views* — updating them cascades through `residents`/`ced`
//! down to the base tables, exactly as §3.3 describes.
//!
//! Run with: `cargo run --example hr_database` (add `--release` for the
//! fastest validation).

use birds::prelude::*;

fn base_database() -> Database {
    let mut db = Database::new();
    db.add_relation(
        Relation::with_tuples(
            "male",
            2,
            vec![tuple!["bob", "1962-03-04"], tuple!["dan", "1955-11-30"]],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples(
            "female",
            2,
            vec![tuple!["ann", "1962-07-21"], tuple!["eve", "1970-01-15"]],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples("others", 3, vec![tuple!["kim", "1980-05-05", "X"]]).unwrap(),
    )
    .unwrap();
    db.add_relation(
        Relation::with_tuples(
            "ed",
            2,
            vec![
                tuple!["ann", "sales"],
                tuple!["bob", "rnd"],
                tuple!["dan", "sales"],
                tuple!["eve", "rnd"],
                tuple!["kim", "hr"],
            ],
        )
        .unwrap(),
    )
    .unwrap();
    db.add_relation(Relation::with_tuples("eed", 2, vec![tuple!["dan", "sales"]]).unwrap())
        .unwrap();
    db
}

fn show(engine: &Engine, names: &[&str]) {
    for n in names {
        println!("  {}", engine.relation(n).expect(n));
    }
}

fn main() {
    let mut engine = Engine::new(base_database());

    // ---- ced = ed \ eed (difference view over base tables) -----------
    let ced = UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new(
                "ed",
                vec![("e", SortKind::Str), ("d", SortKind::Str)],
            ))
            .with(Schema::new(
                "eed",
                vec![("e", SortKind::Str), ("d", SortKind::Str)],
            )),
        Schema::new("ced", vec![("e", SortKind::Str), ("d", SortKind::Str)]),
        "
        +ed(E, D)  :- ced(E, D), not ed(E, D).
        -eed(E, D) :- ced(E, D), eed(E, D).
        +eed(E, D) :- ed(E, D), not ced(E, D), not eed(E, D).
        ",
        Some("ced(E, D) :- ed(E, D), not eed(E, D)."),
    )
    .expect("ced strategy parses");
    let report = validate(&ced).expect("ced validation runs");
    assert!(report.valid, "ced: {:?}", report.reason);
    println!(
        "ced validated (expected get confirmed: {})",
        report.used_expected_get
    );
    engine
        .register_view(ced, StrategyMode::Incremental)
        .unwrap();

    // ---- residents = male ∪ female ∪ others (gender-directed put) ----
    let residents = UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new(
                "male",
                vec![("e", SortKind::Str), ("b", SortKind::Str)],
            ))
            .with(Schema::new(
                "female",
                vec![("e", SortKind::Str), ("b", SortKind::Str)],
            ))
            .with(Schema::new(
                "others",
                vec![
                    ("e", SortKind::Str),
                    ("b", SortKind::Str),
                    ("g", SortKind::Str),
                ],
            )),
        Schema::new(
            "residents",
            vec![
                ("e", SortKind::Str),
                ("b", SortKind::Str),
                ("g", SortKind::Str),
            ],
        ),
        "
        +male(E, B)   :- residents(E, B, 'M'), not male(E, B), not others(E, B, 'M').
        -male(E, B)   :- male(E, B), not residents(E, B, 'M').
        +female(E, B) :- residents(E, B, G), G = 'F', not female(E, B), not others(E, B, G).
        -female(E, B) :- female(E, B), not residents(E, B, 'F').
        +others(E, B, G) :- residents(E, B, G), not G = 'M', not G = 'F', not others(E, B, G).
        -others(E, B, G) :- others(E, B, G), not residents(E, B, G).
        ",
        Some(
            "
            residents(E, B, G)   :- others(E, B, G).
            residents(E, B, 'F') :- female(E, B).
            residents(E, B, 'M') :- male(E, B).
            ",
        ),
    )
    .expect("residents strategy parses");
    engine
        .register_view(residents, StrategyMode::Incremental)
        .expect("residents validates and registers");
    println!("residents validated");

    // ---- residents1962: selection over the *view* residents ----------
    let residents1962 = UpdateStrategy::parse(
        DatabaseSchema::new().with(Schema::new(
            "residents",
            vec![
                ("e", SortKind::Str),
                ("b", SortKind::Str),
                ("g", SortKind::Str),
            ],
        )),
        Schema::new(
            "residents1962",
            vec![
                ("e", SortKind::Str),
                ("b", SortKind::Str),
                ("g", SortKind::Str),
            ],
        ),
        "
        false :- residents1962(E, B, G), B > '1962-12-31'.
        false :- residents1962(E, B, G), B < '1962-01-01'.
        +residents(E, B, G) :- residents1962(E, B, G), not residents(E, B, G).
        -residents(E, B, G) :- residents(E, B, G), not B < '1962-01-01',
                               not B > '1962-12-31', not residents1962(E, B, G).
        ",
        Some(
            "residents1962(E, B, G) :- residents(E, B, G),
                 not B < '1962-01-01', not B > '1962-12-31'.",
        ),
    )
    .expect("residents1962 strategy parses");
    engine
        .register_view(residents1962, StrategyMode::Incremental)
        .expect("residents1962 validates and registers");
    println!("residents1962 validated");

    // ---- retired: residents without a current department -------------
    let retired = UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new(
                "residents",
                vec![
                    ("e", SortKind::Str),
                    ("b", SortKind::Str),
                    ("g", SortKind::Str),
                ],
            ))
            .with(Schema::new(
                "ced",
                vec![("e", SortKind::Str), ("d", SortKind::Str)],
            )),
        Schema::new("retired", vec![("e", SortKind::Str)]),
        "
        -ced(E, D) :- ced(E, D), retired(E).
        +ced(E, D) :- residents(E, _, _), not retired(E), not ced(E, _), D = 'unknown'.
        +residents(E, B, G) :- retired(E), G = 'unknown', not residents(E, _, _),
                               B = '00-00-00'.
        ",
        Some("retired(E) :- residents(E, B, G), not ced(E, _)."),
    )
    .expect("retired strategy parses");
    engine
        .register_view(retired, StrategyMode::Original)
        .expect("retired validates and registers");
    println!("retired validated");

    println!("\ninitial state:");
    show(
        &engine,
        &[
            "male",
            "female",
            "others",
            "ed",
            "eed",
            "ced",
            "residents",
            "residents1962",
            "retired",
        ],
    );

    // ---- Updates cascade down the view tower --------------------------
    // 1. kim moves from hr to rnd: update the *ced* view.
    engine
        .execute(
            "BEGIN; DELETE FROM ced WHERE e = 'kim'; INSERT INTO ced VALUES ('kim', 'rnd'); END;",
        )
        .unwrap();
    println!("\nafter moving kim to rnd via the ced view:");
    show(&engine, &["ed", "eed", "ced"]);

    // 2. A new 1962-born resident arrives through residents1962; the
    //    insertion cascades residents1962 → residents → male.
    engine
        .execute("INSERT INTO residents1962 VALUES ('sam', '1962-09-09', 'M');")
        .unwrap();
    println!("\nafter inserting sam through residents1962:");
    show(&engine, &["male", "residents", "residents1962"]);
    assert!(engine
        .relation("male")
        .unwrap()
        .contains(&tuple!["sam", "1962-09-09"]));

    // 3. Dates outside 1962 are rejected by the view constraints, and a
    //    rejected update changes no relation of the tower.
    let tower = |engine: &Engine| {
        ["residents1962", "residents", "female"]
            .map(|n| engine.relation(n).unwrap().tuples().clone())
    };
    let before = tower(&engine);
    let err = engine
        .execute("INSERT INTO residents1962 VALUES ('zoe', '1963-01-01', 'F');")
        .unwrap_err();
    println!("\nconstraint rejection works: {err}");
    assert_eq!(
        tower(&engine),
        before,
        "the rejected insert changed the tower"
    );

    // 4. ann retires: inserting into `retired` removes her current
    //    department (cascading into eed bookkeeping via ced's strategy).
    engine.refresh_view("retired").unwrap();
    engine
        .execute("INSERT INTO retired VALUES ('ann');")
        .unwrap();
    println!("\nafter ann retires:");
    show(&engine, &["ed", "eed", "ced", "retired"]);
    assert!(!engine
        .relation("ced")
        .unwrap()
        .contains(&tuple!["ann", "sales"]));

    println!("\ncase study complete: all four update strategies validated and executed.");
}
