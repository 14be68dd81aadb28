//! The range-guard selectivity sweep: the latency of a putback whose
//! comparison guard is planned as an ordered-index range scan, as a
//! function of guard selectivity.
//!
//! The workload is a selection view `pricey(id, price) = σ_{price >= K}
//! stock` — the same putback shape as Figure 6's `luxuryitems`, but with
//! the threshold `K` chosen so the guard keeps 1%, 10% or 50% of the
//! base table. One view-update transaction is measured under the
//! **original** (non-incremental) strategy, whose putback program
//! re-reads the whole source through the guard; the guard compiles to a
//! `RangeScan` over `stock`'s ordered price index, touching only the
//! matching fraction of the table. The latency (`range_index_ms`) scales
//! with that fraction.
//!
//! Results are recorded as a `"range_guard"` section of
//! `BENCH_figure6.json` (the section survives `figure6` run upserts,
//! which preserve foreign top-level fields). Its committed 1M-row run
//! also holds the hash-only (scan + filter) latencies measured when the
//! planner could still be told not to push guards down; `bench_gate`
//! keeps that speedup on the record and checks the plan shape of a
//! fresh engine.

use birds_core::UpdateStrategy;
use birds_datalog::{parse_program, Program};
use birds_engine::{Engine, StrategyMode};
use birds_service::Json;
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
use std::time::{Duration, Instant};

/// Prices are uniform over `0..PRICE_DOMAIN`, so a guard
/// `price >= PRICE_DOMAIN - PRICE_DOMAIN * pct / 100` keeps `pct`% of
/// the table.
pub const PRICE_DOMAIN: i64 = 10_000;

/// Multiplicative stride coprime to [`PRICE_DOMAIN`], so `id *
/// PRICE_STEP % PRICE_DOMAIN` walks every price exactly once per
/// `PRICE_DOMAIN` ids — deterministic data with exact selectivity.
const PRICE_STEP: i64 = 7_919;

/// The price of row `id`.
fn price_of(id: i64) -> i64 {
    id * PRICE_STEP % PRICE_DOMAIN
}

/// The guard threshold keeping `pct`% of the table.
pub fn threshold(pct: u32) -> i64 {
    PRICE_DOMAIN - PRICE_DOMAIN * i64::from(pct) / 100
}

/// `stock(id, price)` at size `n`, prices uniform over the domain.
pub fn stock_database(n: usize) -> Database {
    let tuples = (0..n as i64).map(|i| tuple![i, price_of(i)]);
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("stock", 2, tuples).expect("arity 2"))
        .expect("fresh database");
    db
}

/// The selection view's putback strategy at guard threshold `k`.
fn strategy(k: i64) -> UpdateStrategy {
    UpdateStrategy::parse(
        DatabaseSchema::new().with(Schema::new(
            "stock",
            vec![("id", SortKind::Int), ("price", SortKind::Int)],
        )),
        Schema::new(
            "pricey",
            vec![("id", SortKind::Int), ("price", SortKind::Int)],
        ),
        &format!(
            "
            false :- pricey(I, P), not P >= {k}.
            +stock(I, P) :- pricey(I, P), not stock(I, P).
            rg_selected(I, P) :- stock(I, P), P >= {k}.
            -stock(I, P) :- rg_selected(I, P), not pricey(I, P).
            "
        ),
        None,
    )
    .expect("range-guard strategy parses")
}

/// The view definition at guard threshold `k`.
fn get(k: i64) -> Program {
    parse_program(&format!("pricey(I, P) :- stock(I, P), P >= {k}."))
        .expect("range-guard get parses")
}

/// An engine with the view registered under the original strategy (the
/// registration warm-up compiles the measured plan and builds its
/// ordered index).
pub fn engine(n: usize, pct: u32) -> Engine {
    let k = threshold(pct);
    let mut engine = Engine::new(stock_database(n));
    engine
        .register_view_unchecked(strategy(k), get(k), StrategyMode::Original)
        .expect("range-guard view registers");
    engine
}

/// The measured transaction: one INSERT of a fresh in-view row plus one
/// DELETE of an existing in-view row, so both delta directions are
/// exercised (mirroring the Figure 6 workload).
pub fn update_script(n: usize, pct: u32) -> String {
    let k = threshold(pct);
    let fresh = n as i64 + 7;
    let victim = (0..n as i64)
        .find(|&i| price_of(i) >= k)
        .expect("some row satisfies the guard");
    format!(
        "BEGIN; INSERT INTO pricey VALUES ({fresh}, {}); \
         DELETE FROM pricey WHERE id = {victim}; END;",
        PRICE_DOMAIN - 1
    )
}

/// Time one update transaction at size `n` and selectivity `pct`%.
pub fn measure(n: usize, pct: u32) -> Duration {
    let mut engine = engine(n, pct);
    let script = update_script(n, pct);
    let t = Instant::now();
    engine
        .execute(&script)
        .expect("range-guard update executes");
    t.elapsed()
}

/// One measured selectivity point.
#[derive(Debug, Clone)]
pub struct RangeGuardPoint {
    /// Guard selectivity in percent (fraction of the table kept).
    pub selectivity_pct: u32,
    /// The guard constant `K` in `price >= K`.
    pub threshold: i64,
    /// Latency of the update (ordered-index range scan).
    pub range_index: Duration,
}

/// Sweep the given selectivities at base size `n`.
pub fn sweep(n: usize, pcts: &[u32]) -> Vec<RangeGuardPoint> {
    pcts.iter()
        .map(|&pct| RangeGuardPoint {
            selectivity_pct: pct,
            threshold: threshold(pct),
            range_index: measure(n, pct),
        })
        .collect()
}

/// Render one measured run as a JSON object (an element of the
/// section's `"runs"` array).
pub fn run_value(label: &str, base_size: usize, points: &[RangeGuardPoint]) -> Json {
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    let points: Vec<Json> = points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                (
                    "selectivity_pct".to_owned(),
                    Json::Int(i64::from(p.selectivity_pct)),
                ),
                ("threshold".to_owned(), Json::Int(p.threshold)),
                (
                    "range_index_ms".to_owned(),
                    Json::Float(round3(p.range_index.as_secs_f64() * 1e3)),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("label".to_owned(), Json::str(label)),
        ("base_size".to_owned(), Json::Int(base_size as i64)),
        ("points".to_owned(), Json::Arr(points)),
    ])
}

/// Merge a run into the `"range_guard"` section of an existing
/// `BENCH_figure6.json` document, creating the section if absent. A run
/// with the same label is replaced; other runs and all unrelated
/// document fields are preserved. Returns `None` when the document does
/// not identify itself as a figure6 trajectory.
pub fn upsert_run(
    existing: &str,
    label: &str,
    base_size: usize,
    points: &[RangeGuardPoint],
) -> Option<String> {
    let mut doc = Json::parse(existing).ok()?;
    if doc.get("benchmark").and_then(Json::as_str) != Some("figure6") {
        return None;
    }
    if doc.get("range_guard").is_none() {
        let Json::Obj(fields) = &mut doc else {
            return None;
        };
        fields.push((
            "range_guard".to_owned(),
            Json::Obj(vec![
                ("unit".to_owned(), Json::str("ms")),
                ("price_domain".to_owned(), Json::Int(PRICE_DOMAIN)),
                ("runs".to_owned(), Json::Arr(vec![])),
            ]),
        ));
    }
    let runs = doc.get_mut("range_guard")?.get_mut("runs")?.as_arr_mut()?;
    runs.retain(|run| run.get("label").and_then(Json::as_str) != Some(label));
    runs.push(run_value(label, base_size, points));
    Some(doc.to_pretty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thresholds_hit_the_advertised_selectivity() {
        // Exact by construction: the price permutation is a full cycle.
        for pct in [1u32, 10, 50] {
            let k = threshold(pct);
            let matching = (0..PRICE_DOMAIN).filter(|&i| price_of(i) >= k).count();
            assert_eq!(
                matching as i64,
                PRICE_DOMAIN * i64::from(pct) / 100,
                "selectivity {pct}%"
            );
        }
    }

    #[test]
    fn update_script_touches_both_directions() {
        let mut engine = engine(400, 10);
        let before = engine.relation("stock").unwrap().len();
        engine.execute(&update_script(400, 10)).unwrap();
        let stock = engine.relation("stock").unwrap();
        assert_eq!(stock.len(), before, "one insert, one delete");
        assert!(stock.iter().any(|t| t[0] == birds_store::Value::int(407)));
    }

    #[test]
    fn sweep_and_upsert_roundtrip() {
        let points = sweep(300, &[10, 50]);
        assert_eq!(points.len(), 2);
        let base = r#"{"benchmark": "figure6", "unit": "ms", "runs": []}"#;
        let doc = upsert_run(base, "t1", 300, &points).expect("figure6 recognized");
        // Replacing the same label must not duplicate; a second label
        // must coexist.
        let doc = upsert_run(&doc, "t1", 300, &points).unwrap();
        let doc = upsert_run(&doc, "t2", 300, &points).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        let section = parsed.get("range_guard").expect("section created");
        assert_eq!(section.get("unit").and_then(Json::as_str), Some("ms"));
        let labels: Vec<&str> = section
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, vec!["t1", "t2"]);
        let point = &section.get("runs").unwrap().as_arr().unwrap()[0]
            .get("points")
            .unwrap()
            .as_arr()
            .unwrap()[0];
        assert_eq!(
            point.get("selectivity_pct").and_then(Json::as_i64),
            Some(10)
        );
        assert!(point.get("range_index_ms").and_then(Json::as_f64).is_some());
        assert!(upsert_run("{\"benchmark\": \"other\"}", "x", 1, &[]).is_none());
    }

    #[test]
    fn upsert_preserves_figure6_runs_and_survives_figure6_upsert() {
        // The two writers share the document: each must leave the
        // other's section intact.
        let base = r#"{
          "benchmark": "figure6", "unit": "ms",
          "runs": [{"label": "baseline", "views": []}]
        }"#;
        let points = sweep(200, &[50]);
        let doc = upsert_run(base, "rg", 200, &points).unwrap();
        let parsed = Json::parse(&doc).unwrap();
        let labels: Vec<&str> = parsed
            .get("runs")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|r| r.get("label").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(labels, vec!["baseline"], "figure6 runs untouched");
        // And the figure6 upserter keeps our section (foreign fields
        // survive by contract).
        let fig = crate::figure6::sweep(crate::figure6::Figure6View::VwBrands, &[50]);
        let merged = crate::figure6::upsert_run(
            &doc,
            "fig",
            &[(crate::figure6::Figure6View::VwBrands, fig)],
        )
        .unwrap();
        let parsed = Json::parse(&merged).unwrap();
        assert!(
            parsed.get("range_guard").is_some(),
            "range_guard section survives figure6 run upserts"
        );
    }
}
