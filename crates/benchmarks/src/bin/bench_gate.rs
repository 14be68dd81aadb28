//! CI perf-regression gate over the paper's Figure 6 claims.
//!
//! The latency check is deliberately generous (`--factor`, default 3×)
//! because CI machines are slow, shared and noisy — only a genuine
//! regression trips it, not machine variance. Exit code 1 on regression,
//! 2 on usage/baseline errors.
//!
//! 1. **Figure 6 latency**: a fresh small figure6 measurement of the
//!    `--view` panel versus the last run in `BENCH_figure6.json`.
//! 2. **Figure 6 flatness** (not `--factor`): on all four panels, fresh
//!    incremental latency at the largest `--sizes` entry must stay
//!    within 2× of the smallest — `O(|ΔV|)` as a same-machine ratio.
//! 3. **Range pushdown**: a *static* check — the committed
//!    `range_guard` section of the figure6 baseline must record a ≥3×
//!    speedup over hash-only plans at 1M rows for a ≤10%-selectivity
//!    guard (the headline number stays in the trajectory) — and a
//!    deterministic *plan* check on a fresh 1%-selectivity `range_guard`
//!    engine at 200k rows: `explain` shows the guard planned as a
//!    `RangeScan` over `stock`, and `stock` has its ordered index after
//!    one update. No timing is involved.
//!
//! ```text
//! cargo run --release -p birds-benchmarks --bin bench_gate -- \
//!     --baseline BENCH_figure6.json --view luxuryitems --sizes 1000,10000 \
//!     --factor 3 --out bench-fresh.json
//! ```
//!
//! `--out` writes the fresh four-panel figure6 measurement (atomically)
//! so CI can upload it as a workflow artifact — the trajectory of every
//! CI run, not just the committed snapshots.

use birds_benchmarks::emit::write_atomic;
use birds_benchmarks::figure6::{sweep, to_json, Figure6Point, Figure6View};
use birds_benchmarks::range_guard;
use birds_eval::plan::StepOp;
use birds_service::Json;

fn main() {
    let mut baseline_path = String::from("BENCH_figure6.json");
    let mut view_name = String::from("luxuryitems");
    let mut sizes: Vec<usize> = vec![1_000, 10_000];
    let mut factor = 3.0f64;
    let mut out_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = require_value(args.next(), "--baseline"),
            "--view" => view_name = require_value(args.next(), "--view"),
            "--sizes" => {
                sizes = parse_usize_list(&require_value(args.next(), "--sizes"), "--sizes")
            }
            "--factor" => {
                factor = require_value(args.next(), "--factor")
                    .parse()
                    .unwrap_or_else(|_| {
                        eprintln!("--factor needs a number");
                        std::process::exit(2);
                    })
            }
            "--out" => out_path = Some(require_value(args.next(), "--out")),
            flag => {
                eprintln!("unknown flag '{flag}'");
                std::process::exit(2);
            }
        }
    }

    let view = Figure6View::from_name(&view_name).unwrap_or_else(|| {
        eprintln!("unknown view '{view_name}'");
        std::process::exit(2);
    });

    // Baseline: the last committed run that has points for this view.
    let baseline_text = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let baseline = Json::parse(&baseline_text).unwrap_or_else(|e| {
        eprintln!("baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let (base_label, base_points) = baseline_points(&baseline, &view_name).unwrap_or_else(|| {
        eprintln!("baseline {baseline_path} has no run with points for '{view_name}'");
        std::process::exit(2);
    });

    println!("gate: fresh '{view_name}' at sizes {sizes:?} vs baseline run \"{base_label}\"");
    println!("      threshold: {factor}x (generous — CI machines are noisy)\n");

    let panels: Vec<(Figure6View, Vec<Figure6Point>)> = Figure6View::all()
        .into_iter()
        .map(|panel| (panel, sweep(panel, &sizes)))
        .collect();
    let fresh = &panels
        .iter()
        .find(|(panel, _)| *panel == view)
        .expect("every view is a panel")
        .1;
    if let Some(path) = &out_path {
        let json = to_json("ci-bench-gate", &panels);
        write_atomic(path, &json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote fresh measurement to {path}\n");
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    println!(
        "{:>10} {:>10} {:>14} {:>14} {:>8}",
        "base size", "metric", "baseline (ms)", "fresh (ms)", "ratio"
    );
    for p in fresh {
        let Some((base_orig, base_inc)) = base_points.get(&p.base_size).copied() else {
            println!("{:>10}  (no baseline point; skipped)", p.base_size);
            continue;
        };
        for (metric, base_ms, fresh_ms) in [
            ("original", base_orig, p.original.as_secs_f64() * 1e3),
            ("incremental", base_inc, p.incremental.as_secs_f64() * 1e3),
        ] {
            compared += 1;
            let ratio = fresh_ms / base_ms.max(1e-9);
            let verdict = if ratio > factor {
                regressions += 1;
                "  << REGRESSION"
            } else {
                ""
            };
            println!(
                "{:>10} {:>10} {:>14.3} {:>14.3} {:>7.2}x{verdict}",
                p.base_size, metric, base_ms, fresh_ms, ratio
            );
        }
    }

    if compared == 0 {
        eprintln!("\nno comparable points between fresh run and baseline");
        std::process::exit(2);
    }

    let (fr, fc) = flatness_gate(&panels);
    regressions += fr;
    compared += fc;

    let (rr, rc) = range_plan_gate(&baseline);
    regressions += rr;
    compared += rc;

    if regressions > 0 {
        eprintln!(
            "\nFAIL: {regressions} of {compared} measurements regressed beyond {factor}x \
             the committed baseline"
        );
        std::process::exit(1);
    }
    println!("\nOK: all {compared} measurements within {factor}x of the committed baseline");
}

/// Figure 6 flatness gate (always on): on every panel, the incremental
/// latency at the largest fresh size stays within [`FLATNESS_FACTOR`]×
/// its value at the smallest — the paper's `O(|ΔV|)` claim as a
/// fresh-vs-fresh ratio on one machine, so no committed number is
/// involved. Returns `(regressions, compared)`.
fn flatness_gate(panels: &[(Figure6View, Vec<Figure6Point>)]) -> (usize, usize) {
    let mut regressions = 0usize;
    println!(
        "\ngate: incremental latency at the largest size within {FLATNESS_FACTOR}x \
         of the smallest, every Figure 6 panel"
    );
    println!(
        "{:>18} {:>14} {:>14} {:>8}",
        "panel", "smallest (ms)", "largest (ms)", "ratio"
    );
    for (panel, points) in panels {
        let (Some(small), Some(large)) = (points.first(), points.last()) else {
            continue;
        };
        let ms = |p: &Figure6Point| p.incremental.as_secs_f64() * 1e3;
        let ratio = ms(large) / ms(small).max(1e-9);
        let flat = ratio <= FLATNESS_FACTOR;
        regressions += usize::from(!flat);
        println!(
            "{:>18} {:>14.3} {:>14.3} {:>7.2}x{}",
            panel.name(),
            ms(small),
            ms(large),
            ratio,
            if flat {
                ""
            } else {
                "  << REGRESSION: incremental put grows with |S|"
            }
        );
    }
    (regressions, panels.len())
}

/// How much the incremental latency may grow from the smallest to the
/// largest gated size before the Figure 6 panel counts as not flat.
const FLATNESS_FACTOR: f64 = 2.0;

/// Range-pushdown gate. Static half: the committed
/// figure6 baseline's `range_guard` section must carry a run at ≥1M
/// rows with a ≤10%-selectivity point that recorded a ≥3× speedup —
/// the ordered-index claim stays on the record. (Only the most
/// selective point is expected to clear 3×: the putback pipeline's
/// shared per-matching-tuple work dilutes the ratio as selectivity
/// grows — that scaling story is exactly what the sweep documents.)
/// Fresh half: the 1%-selectivity engine at a CI-sized table must plan
/// the guard as a `RangeScan` over `stock` and hold `stock`'s ordered
/// index after one update — the plan shape the committed speedup was
/// measured on, checked without a clock. Returns `(regressions,
/// compared)`.
fn range_plan_gate(baseline: &Json) -> (usize, usize) {
    const COMMITTED_MIN_ROWS: i64 = 1_000_000;
    const COMMITTED_MIN_SPEEDUP: f64 = 3.0;
    const FRESH_ROWS: usize = 200_000;
    const FRESH_PCT: u32 = 1;
    let mut regressions = 0usize;

    // Static: the committed trajectory must keep the headline number.
    println!(
        "\ngate: committed range_guard run at >= {COMMITTED_MIN_ROWS} rows must show \
         >= {COMMITTED_MIN_SPEEDUP}x for a guard keeping <= 10%"
    );
    let committed_ok = baseline
        .get("range_guard")
        .and_then(|s| s.get("runs"))
        .and_then(Json::as_arr)
        .is_some_and(|runs| {
            runs.iter().rev().any(|run| {
                let big_enough = run
                    .get("base_size")
                    .and_then(Json::as_i64)
                    .is_some_and(|n| n >= COMMITTED_MIN_ROWS);
                let points = run.get("points").and_then(Json::as_arr).unwrap_or(&[]);
                let selective: Vec<&Json> = points
                    .iter()
                    .filter(|p| {
                        p.get("selectivity_pct")
                            .and_then(Json::as_i64)
                            .is_some_and(|pct| pct <= 10)
                    })
                    .collect();
                big_enough
                    && selective.iter().any(|p| {
                        p.get("speedup")
                            .and_then(Json::as_f64)
                            .is_some_and(|s| s >= COMMITTED_MIN_SPEEDUP)
                    })
            })
        });
    if committed_ok {
        println!("      committed section OK");
    } else {
        regressions += 1;
        println!("      << REGRESSION: no qualifying committed range_guard run");
    }

    // Fresh: the plan shape, CI-sized and clock-free.
    println!(
        "gate: fresh {FRESH_PCT}% range_guard engine at {FRESH_ROWS} rows plans a RangeScan \
         over stock and keeps its ordered index"
    );
    let mut engine = range_guard::engine(FRESH_ROWS, FRESH_PCT);
    let plans = engine.explain("pricey").unwrap_or_else(|e| {
        eprintln!("range_guard engine cannot explain 'pricey': {e}");
        std::process::exit(2);
    });
    let range_scan = plans.iter().any(|(_, plan)| {
        plan.steps
            .iter()
            .any(|s| matches!(&s.op, StepOp::RangeScan { atom, .. } if atom.rel == "stock"))
    });
    engine
        .execute(&range_guard::update_script(FRESH_ROWS, FRESH_PCT))
        .unwrap_or_else(|e| {
            eprintln!("range_guard update failed: {e}");
            std::process::exit(2);
        });
    let indexed = engine
        .relation("stock")
        .is_some_and(|stock| stock.has_ordered_index(1));
    for (ok, what) in [
        (range_scan, "explain(\"pricey\") has a RangeScan over stock"),
        (
            indexed,
            "stock has its ordered price index after one update",
        ),
    ] {
        regressions += usize::from(!ok);
        println!("      {what}: {}", if ok { "OK" } else { "<< REGRESSION" });
    }
    (regressions, 3)
}

/// `base_size → (original_ms, incremental_ms)`.
type BaselineMap = std::collections::BTreeMap<usize, (f64, f64)>;

/// `(label, points)` of the last run in the baseline document that
/// carries points for `view_name`.
fn baseline_points(doc: &Json, view_name: &str) -> Option<(String, BaselineMap)> {
    let runs = doc.get("runs")?.as_arr()?;
    for run in runs.iter().rev() {
        let Some(views) = run.get("views").and_then(Json::as_arr) else {
            continue;
        };
        for view in views {
            if view.get("view").and_then(Json::as_str) != Some(view_name) {
                continue;
            }
            let mut map = BaselineMap::new();
            for point in view.get("points").and_then(Json::as_arr).unwrap_or(&[]) {
                let (Some(size), Some(orig), Some(inc)) = (
                    point.get("base_size").and_then(Json::as_i64),
                    point.get("original_ms").and_then(Json::as_f64),
                    point.get("incremental_ms").and_then(Json::as_f64),
                ) else {
                    continue;
                };
                map.insert(size as usize, (orig, inc));
            }
            if !map.is_empty() {
                let label = run
                    .get("label")
                    .and_then(Json::as_str)
                    .unwrap_or("<unlabeled>")
                    .to_owned();
                return Some((label, map));
            }
        }
    }
    None
}

fn require_value(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}

fn parse_usize_list(raw: &str, flag: &str) -> Vec<usize> {
    raw.split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                eprintln!("{flag} needs comma-separated integers");
                std::process::exit(2);
            })
        })
        .collect()
}
