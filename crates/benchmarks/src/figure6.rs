//! The Figure 6 experiment: view-update latency versus base-table size,
//! original strategy versus incrementalized strategy.
//!
//! The paper selects four typical views from the corpus — `luxuryitems`
//! (selection), `officeinfo` (projection), `outstanding_task` (semi-join)
//! and `vw_brands` (union) — randomly generates base-table data, and
//! measures the running time of one view-update transaction as the base
//! size grows. The expected shape: the original strategy's latency grows
//! linearly with the base size (the putback program re-reads the whole
//! source and view), while the incrementalized strategy stays flat.

use crate::corpus;
use crate::datagen;
use birds_core::UpdateStrategy;
use birds_datalog::{parse_program, Program};
use birds_engine::{Engine, StrategyMode};
use birds_service::Json;
use birds_store::Database;
use std::time::{Duration, Instant};

/// One of the four views measured in Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure6View {
    /// Figure 6(a): selection.
    Luxuryitems,
    /// Figure 6(b): projection.
    Officeinfo,
    /// Figure 6(c): semi-join.
    OutstandingTask,
    /// Figure 6(d): union.
    VwBrands,
}

impl Figure6View {
    /// All four panels in paper order.
    pub fn all() -> [Figure6View; 4] {
        [
            Figure6View::Luxuryitems,
            Figure6View::Officeinfo,
            Figure6View::OutstandingTask,
            Figure6View::VwBrands,
        ]
    }

    /// Corpus view name.
    pub fn name(&self) -> &'static str {
        match self {
            Figure6View::Luxuryitems => "luxuryitems",
            Figure6View::Officeinfo => "officeinfo",
            Figure6View::OutstandingTask => "outstanding_task",
            Figure6View::VwBrands => "vw_brands",
        }
    }

    /// Parse a panel selector (`luxuryitems`, `officeinfo`, …).
    pub fn from_name(name: &str) -> Option<Figure6View> {
        Figure6View::all().into_iter().find(|v| v.name() == name)
    }

    /// The view's update strategy from the corpus.
    pub fn strategy(&self) -> UpdateStrategy {
        corpus::entry(self.name())
            .expect("figure-6 views are in the corpus")
            .strategy()
            .expect("figure-6 views are expressible")
    }

    /// The view definition (expected get) from the corpus.
    pub fn get(&self) -> Program {
        parse_program(
            corpus::entry(self.name())
                .expect("figure-6 views are in the corpus")
                .expected_get,
        )
        .expect("corpus gets parse")
    }

    /// Generate the base tables at size `n`.
    pub fn database(&self, n: usize) -> Database {
        match self {
            Figure6View::Luxuryitems => datagen::items_database(n),
            Figure6View::Officeinfo => datagen::office_database(n),
            Figure6View::OutstandingTask => datagen::tasks_database(n),
            Figure6View::VwBrands => datagen::brands_database(n),
        }
    }

    /// The `rep`-th measured transaction: one INSERT plus one DELETE on
    /// the view, combined in a `BEGIN … END` block (the paper's workload
    /// is a single SQL statement modifying the view; we use a
    /// two-statement transaction so both delta directions are
    /// exercised). Transaction 0 deletes a seeded row; each later one
    /// deletes the row its predecessor inserted, so every transaction in
    /// a run changes the view in both directions.
    pub fn update_script(&self, n: usize, rep: usize) -> String {
        let fresh = (n + 7 + rep) as i64;
        // The key the previous transaction inserted (a seeded row's at 0).
        let gone = if rep == 0 { 1 } else { fresh - 1 };
        match self {
            Figure6View::Luxuryitems => format!(
                "BEGIN; INSERT INTO luxuryitems VALUES ({fresh}, 4999); \
                 DELETE FROM luxuryitems WHERE id = {gone}; END;"
            ),
            Figure6View::Officeinfo => format!(
                "BEGIN; INSERT INTO officeinfo VALUES ({fresh}, 'annex', '+81-99'); \
                 DELETE FROM officeinfo WHERE oid = {gone}; END;"
            ),
            Figure6View::OutstandingTask => format!(
                "BEGIN; INSERT INTO outstanding_task VALUES \
                 (1, 'hotfix{fresh}', '2020-07-01', 'ownerX'); \
                 DELETE FROM outstanding_task WHERE {}; END;",
                if rep == 0 {
                    "tid = 2".to_owned()
                } else {
                    format!("title = 'hotfix{gone}'")
                }
            ),
            Figure6View::VwBrands => format!(
                "BEGIN; INSERT INTO vw_brands VALUES ({fresh}, 'newbrand'); \
                 DELETE FROM vw_brands WHERE bid = {gone}; END;"
            ),
        }
    }

    /// Build an engine with the view registered (skipping re-validation:
    /// Table 1 already established validity; Figure 6 measures runtime).
    pub fn engine(&self, n: usize, mode: StrategyMode) -> Engine {
        let mut engine = Engine::new(self.database(n));
        engine
            .register_view_unchecked(self.strategy(), self.get(), mode)
            .expect("figure-6 view registers");
        engine
    }

    /// Latency of one update transaction at base size `n` under `mode`:
    /// after [`WARMUP`] untimed transactions, the median of [`REPS`]
    /// timed ones, all on one engine. An incremental update takes about
    /// ten microseconds; the first one after registration runs on cold
    /// caches (several times slower, more so the larger the tables just
    /// built), and a single timer hiccup would decide an unrepeated
    /// point.
    pub fn measure(&self, n: usize, mode: StrategyMode) -> Duration {
        let mut engine = self.engine(n, mode);
        let mut times: Vec<Duration> = (0..WARMUP + REPS)
            .map(|rep| {
                let script = self.update_script(n, rep);
                let t = Instant::now();
                engine.execute(&script).expect("figure-6 update executes");
                t.elapsed()
            })
            .skip(WARMUP)
            .collect();
        times.sort();
        times[REPS / 2]
    }
}

/// Untimed transactions before each measured point.
pub const WARMUP: usize = 5;

/// Timed transactions per measured point; the point is their median.
pub const REPS: usize = 9;

/// One measured point of a Figure 6 panel.
#[derive(Debug, Clone)]
pub struct Figure6Point {
    /// Base-table size (tuples).
    pub base_size: usize,
    /// Latency with the original putback program.
    pub original: Duration,
    /// Latency with the incrementalized program.
    pub incremental: Duration,
}

/// Sweep one panel over the given base sizes. At each size the
/// incremental engine is measured first, on a heap the original
/// program's `O(|S|)` intermediate results have not yet churned.
pub fn sweep(view: Figure6View, sizes: &[usize]) -> Vec<Figure6Point> {
    sizes
        .iter()
        .map(|&n| {
            let incremental = view.measure(n, StrategyMode::Incremental);
            Figure6Point {
                base_size: n,
                original: view.measure(n, StrategyMode::Original),
                incremental,
            }
        })
        .collect()
}

/// Render one measured run as a JSON object (an element of the
/// document's `"runs"` array). Latencies are rounded to microseconds.
pub fn run_value(label: &str, results: &[(Figure6View, Vec<Figure6Point>)]) -> Json {
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let views: Vec<Json> = results
        .iter()
        .map(|(view, points)| {
            let points: Vec<Json> = points
                .iter()
                .map(|p| {
                    let orig = p.original.as_secs_f64() * 1e3;
                    let inc = p.incremental.as_secs_f64() * 1e3;
                    Json::Obj(vec![
                        ("base_size".to_owned(), Json::Int(p.base_size as i64)),
                        ("original_ms".to_owned(), Json::Float(round3(orig))),
                        ("incremental_ms".to_owned(), Json::Float(round3(inc))),
                        (
                            "speedup".to_owned(),
                            Json::Float((orig / inc.max(1e-9) * 10.0).round() / 10.0),
                        ),
                    ])
                })
                .collect();
            Json::Obj(vec![
                ("view".to_owned(), Json::str(view.name())),
                ("points".to_owned(), Json::Arr(points)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("label".to_owned(), Json::str(label)),
        ("views".to_owned(), Json::Arr(views)),
    ])
}

/// Render measured panels as a complete single-run JSON document for the
/// `BENCH_figure6.json` perf trajectory.
pub fn to_json(label: &str, results: &[(Figure6View, Vec<Figure6Point>)]) -> String {
    Json::Obj(vec![
        ("benchmark".to_owned(), Json::str("figure6")),
        ("unit".to_owned(), Json::str("ms")),
        (
            "runs".to_owned(),
            Json::Arr(vec![run_value(label, results)]),
        ),
    ])
    .to_pretty()
}

/// Merge a run into an existing `BENCH_figure6.json` document: an
/// existing run with the **same label is replaced** (re-running a sweep
/// updates its entry instead of duplicating it); runs with other labels
/// — including the hand-transcribed pre-PR baseline, which is not
/// regenerable — are preserved, as are unknown document fields like
/// `"note"`. Returns `None` when the document does not identify itself
/// as a figure6 trajectory (the caller then refuses to clobber it).
pub fn upsert_run(
    existing: &str,
    label: &str,
    results: &[(Figure6View, Vec<Figure6Point>)],
) -> Option<String> {
    let mut doc = Json::parse(existing).ok()?;
    if doc.get("benchmark").and_then(Json::as_str) != Some("figure6") {
        return None;
    }
    let runs = doc.get_mut("runs")?.as_arr_mut()?;
    runs.retain(|run| run.get("label").and_then(Json::as_str) != Some(label));
    runs.push(run_value(label, results));
    Some(doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::Value;

    #[test]
    fn all_views_execute_in_both_modes() {
        for view in Figure6View::all() {
            for mode in [StrategyMode::Original, StrategyMode::Incremental] {
                let mut engine = view.engine(200, mode);
                let before = engine.relation(view.name()).unwrap().len();
                engine
                    .execute(&view.update_script(200, 0))
                    .unwrap_or_else(|e| panic!("{} {mode:?}: {e}", view.name()));
                let after = engine.relation(view.name()).unwrap().len();
                assert!(
                    before != after || before > 0,
                    "{}: update had no observable effect",
                    view.name()
                );
            }
        }
    }

    #[test]
    fn original_and_incremental_agree_on_final_state() {
        for view in Figure6View::all() {
            let mut orig = view.engine(300, StrategyMode::Original);
            let mut inc = view.engine(300, StrategyMode::Incremental);
            orig.execute(&view.update_script(300, 0)).unwrap();
            inc.execute(&view.update_script(300, 0)).unwrap();
            assert!(
                orig.database().same_contents(inc.database()),
                "{}: strategies diverge",
                view.name()
            );
        }
    }

    #[test]
    fn every_repetition_inserts_and_deletes() {
        for view in Figure6View::all() {
            let mut orig = view.engine(300, StrategyMode::Original);
            let mut inc = view.engine(300, StrategyMode::Incremental);
            for rep in 0..WARMUP + REPS {
                let script = view.update_script(300, rep);
                let stats = inc.execute(&script).unwrap();
                // Transaction 0's delete depends on the seeded data.
                if rep > 0 {
                    assert_eq!(stats.view_delta_size, 2, "{} rep {rep}", view.name());
                }
                orig.execute(&script).unwrap();
            }
            assert!(
                orig.database().same_contents(inc.database()),
                "{}: strategies diverge",
                view.name()
            );
        }
    }

    #[test]
    fn luxuryitems_insert_reaches_base_table() {
        let view = Figure6View::Luxuryitems;
        let mut engine = view.engine(100, StrategyMode::Incremental);
        engine.execute(&view.update_script(100, 0)).unwrap();
        let items = engine.relation("items").unwrap();
        assert!(items
            .iter()
            .any(|t| t[0] == Value::int(107) && t[1] == Value::int(4999)));
    }

    #[test]
    fn sweep_produces_all_points() {
        let points = sweep(Figure6View::VwBrands, &[50, 100]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].base_size, 50);
    }

    #[test]
    fn from_name_roundtrip() {
        for v in Figure6View::all() {
            assert_eq!(Figure6View::from_name(v.name()), Some(v));
        }
        assert_eq!(Figure6View::from_name("nope"), None);
    }

    #[test]
    fn json_emission_is_well_formed() {
        let points = sweep(Figure6View::Luxuryitems, &[50]);
        let json = to_json("test \"run\"", &[(Figure6View::Luxuryitems, points)]);
        let doc = Json::parse(&json).expect("emitted document parses");
        assert_eq!(doc.get("benchmark").and_then(Json::as_str), Some("figure6"));
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        assert_eq!(
            run.get("label").and_then(Json::as_str),
            Some("test \"run\""),
            "labels survive escaping"
        );
        let view = &run.get("views").unwrap().as_arr().unwrap()[0];
        assert_eq!(view.get("view").and_then(Json::as_str), Some("luxuryitems"));
        let point = &view.get("points").unwrap().as_arr().unwrap()[0];
        assert_eq!(point.get("base_size").and_then(Json::as_i64), Some(50));
        assert!(point.get("original_ms").and_then(Json::as_f64).is_some());
    }

    #[test]
    fn upsert_preserves_other_runs_and_fields() {
        let points = sweep(Figure6View::Luxuryitems, &[50]);
        // An existing document with a foreign field and a baseline run.
        let existing = r#"{
          "benchmark": "figure6",
          "unit": "ms",
          "note": "hand-transcribed baseline",
          "runs": [{"label": "baseline", "views": []}]
        }"#;
        let merged = upsert_run(existing, "second", &[(Figure6View::Luxuryitems, points)])
            .expect("figure6 documents are recognized");
        let doc = Json::parse(&merged).unwrap();
        assert_eq!(
            doc.get("note").and_then(Json::as_str),
            Some("hand-transcribed baseline"),
            "unknown fields survive"
        );
        let labels: Vec<&str> = doc
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, vec!["baseline", "second"]);
    }

    #[test]
    fn upsert_replaces_run_with_same_label() {
        let points = sweep(Figure6View::Luxuryitems, &[50]);
        let results = [(Figure6View::Luxuryitems, points)];
        let doc = to_json("run-a", &results);
        let doc = upsert_run(&doc, "run-b", &results).unwrap();
        // Re-running with an existing label must replace, not duplicate.
        let doc = upsert_run(&doc, "run-a", &results).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        let labels: Vec<&str> = parsed
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, vec!["run-b", "run-a"], "replaced and re-appended");
        assert_eq!(doc.matches("run-a").count(), 1, "no duplicate entry");
    }

    #[test]
    fn upsert_refuses_foreign_documents() {
        assert!(upsert_run("not json", "x", &[]).is_none());
        assert!(upsert_run("{\"benchmark\": \"other\"}", "x", &[]).is_none());
        assert!(upsert_run("{\"benchmark\": \"figure6\"}", "x", &[]).is_none());
    }
}
