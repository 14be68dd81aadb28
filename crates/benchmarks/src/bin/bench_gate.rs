//! CI perf-regression gate over the committed benchmark trajectory.
//!
//! Each check is deliberately generous (`--factor`, default 3×, or a
//! fresh-vs-fresh ratio on one machine) because CI machines are slow,
//! shared and noisy — only a genuine regression trips them, not machine
//! variance. Exit code 1 on regression, 2 on usage/baseline errors.
//!
//! 1. **Figure 6 latency** (always): a fresh small figure6 measurement
//!    of the `--view` panel versus the last run in `BENCH_figure6.json`.
//!    **Figure 6 flatness** (always, not `--factor`): on all four panels,
//!    fresh incremental latency at the largest `--sizes` entry must stay
//!    within 2× of the smallest — `O(|ΔV|)` as a same-machine ratio.
//! 2. **Thread scaling** (with `--throughput-baseline`): a fresh
//!    disjoint-views scaling run — n autocommit clients × n disjoint
//!    views through the sharded service's group committers, replaying
//!    the committed run's base size and epoch window — versus the
//!    `disjoint_thread_scaling` section of `BENCH_throughput.json`.
//!    Fails when fresh aggregate stmts/sec falls more than `--factor`
//!    below the baseline at any compared client count. For the gate to
//!    be able to see a *serialization* regression (not just a slowdown),
//!    `--clients` must include a count whose committed scaling exceeds
//!    `--factor` — at the default 3× that means 4 clients or more
//!    (committed scaling is ~1.9× at 2, ~4.3× at 4, ~7.9× at 8), which
//!    is why CI gates on `--clients 1,2,4`.
//! 3. **Durability overhead** (with `--durability-gate`): fresh
//!    WAL-on-vs-in-memory batched-commit throughput, fresh-vs-fresh on
//!    the same machine.
//! 4. **Read interference** (with `--read-interference-gate`): fresh
//!    MVCC query latency under concurrent same-shard writers versus
//!    idle, fresh-vs-fresh — the lock-free-reads claim as a number
//!    (gated on p50; p99 reported, since tail latency on an
//!    oversubscribed runner measures the scheduler, not the locks).
//! 5. **Range pushdown** (with `--range-gate`): a *static* check — the
//!    committed `range_guard` section of the figure6 baseline must
//!    record a ≥3× speedup over hash-only plans at 1M rows for a
//!    ≤10%-selectivity guard (the headline number stays in the
//!    trajectory) — and a deterministic *plan* check on a fresh
//!    1%-selectivity `range_guard` engine at 200k rows: `explain` shows
//!    the guard planned as a `RangeScan` over `stock`, and `stock` has
//!    its ordered index after one update. No timing is involved.
//! 6. **Connection scaling** (with `--connection-gate`): fresh
//!    active-subset query latency through a `birds-serve` child under
//!    2 000 idle connections versus an empty server, fresh-vs-fresh.
//!    Gated on the active p50 ratio, the child's thread count
//!    (≤ workers + 2 — connections must not become threads) and an
//!    absolute idle-p50 ceiling that catches a lost `TCP_NODELAY`
//!    (lockstep round trips sit near the ~40ms delayed-ACK floor
//!    without it). p99 is reported, not gated. Needs the birds-serve
//!    binary built first (`cargo build --release -p birds-service`).
//!
//! ```text
//! cargo run --release -p birds-benchmarks --bin bench_gate -- \
//!     --baseline BENCH_figure6.json --view luxuryitems --sizes 1000,10000 \
//!     --throughput-baseline BENCH_throughput.json --clients 1,2,4 \
//!     --factor 3 --out bench-fresh.json
//! ```
//!
//! `--out` writes the fresh four-panel figure6 measurement (atomically)
//! so CI can upload it as a workflow artifact — the trajectory of every
//! CI run, not just the committed snapshots.

use birds_benchmarks::connection::connection_scaling;
use birds_benchmarks::emit::write_atomic;
use birds_benchmarks::figure6::{sweep, to_json, Figure6Point, Figure6View};
use birds_benchmarks::range_guard;
use birds_benchmarks::throughput::{
    disjoint_scaling, durability_batched_sweep, read_interference_sweep, DurabilityPoint,
};
use birds_eval::plan::StepOp;
use birds_service::Json;
use std::time::Duration;

fn main() {
    let mut baseline_path = String::from("BENCH_figure6.json");
    let mut view_name = String::from("luxuryitems");
    let mut sizes: Vec<usize> = vec![1_000, 10_000];
    let mut factor = 3.0f64;
    let mut out_path: Option<String> = None;
    let mut throughput_baseline: Option<String> = None;
    let mut clients: Vec<usize> = vec![1, 2, 4];
    let mut durability_gate = false;
    let mut read_interference_gate = false;
    let mut connection_gate = false;
    let mut range_gate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => baseline_path = require_value(args.next(), "--baseline"),
            "--durability-gate" => durability_gate = true,
            "--read-interference-gate" => read_interference_gate = true,
            "--connection-gate" => connection_gate = true,
            "--range-gate" => range_gate = true,
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
            "--throughput-baseline" => {
                throughput_baseline = Some(require_value(args.next(), "--throughput-baseline"))
            }
            "--clients" => {
                clients = parse_usize_list(&require_value(args.next(), "--clients"), "--clients")
            }
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

    if let Some(path) = throughput_baseline {
        let (tr, tc) = throughput_gate(&path, &clients, factor);
        regressions += tr;
        compared += tc;
    }

    if durability_gate {
        let (dr, dc) = wal_overhead_gate(factor);
        regressions += dr;
        compared += dc;
    }

    if read_interference_gate {
        let (rr, rc) = interference_gate(factor);
        regressions += rr;
        compared += rc;
    }

    if range_gate {
        let (rr, rc) = range_plan_gate(&baseline);
        regressions += rr;
        compared += rc;
    }

    if connection_gate {
        let (cr, cc) = connection_scaling_gate(factor);
        regressions += cr;
        compared += cc;
    }

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

/// Thread-scaling gate: replay the committed disjoint-views scaling run
/// (same base size and epoch window) at the requested client counts and
/// compare aggregate stmts/sec point by point. Returns
/// `(regressions, compared)`.
fn throughput_gate(baseline_path: &str, clients: &[usize], factor: f64) -> (usize, usize) {
    let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
        eprintln!("cannot read throughput baseline {baseline_path}: {e}");
        std::process::exit(2);
    });
    let doc = Json::parse(&text).unwrap_or_else(|e| {
        eprintln!("throughput baseline {baseline_path} is not valid JSON: {e}");
        std::process::exit(2);
    });
    let base_size = doc
        .get("base_size")
        .and_then(Json::as_i64)
        .unwrap_or(20_000) as usize;
    let window = Duration::from_micros(
        doc.get("epoch_window_us")
            .and_then(Json::as_i64)
            .unwrap_or(200) as u64,
    );
    // clients → (stmts/sec, statements measured) from the committed run.
    let mut baseline: std::collections::BTreeMap<usize, (f64, usize)> =
        std::collections::BTreeMap::new();
    for point in doc
        .get("disjoint_thread_scaling")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let (Some(threads), Some(rate), Some(stmts)) = (
            point.get("threads").and_then(Json::as_i64),
            point.get("statements_per_sec").and_then(Json::as_f64),
            point.get("total_statements").and_then(Json::as_i64),
        ) else {
            continue;
        };
        baseline.insert(threads as usize, (rate, stmts as usize));
    }
    if baseline.is_empty() {
        eprintln!("{baseline_path} has no disjoint_thread_scaling section to gate against");
        std::process::exit(2);
    }

    println!(
        "\ngate: fresh disjoint-views scaling at clients {clients:?} \
         (base {base_size}, {}us epoch window) vs committed {baseline_path}",
        window.as_micros()
    );
    let per_client = clients
        .iter()
        .filter_map(|n| baseline.get(n).map(|(_, stmts)| stmts / n.max(&1)))
        .next()
        .unwrap_or(400);
    let fresh = disjoint_scaling(base_size, clients, per_client, window);

    let mut regressions = 0usize;
    let mut compared = 0usize;
    println!(
        "{:>10} {:>18} {:>16} {:>8}",
        "clients", "baseline (st/s)", "fresh (st/s)", "ratio"
    );
    for point in &fresh {
        let Some((base_rate, _)) = baseline.get(&point.threads).copied() else {
            println!("{:>10}  (no baseline point; skipped)", point.threads);
            continue;
        };
        compared += 1;
        let fresh_rate = point.statements_per_sec();
        // Regression = fresh throughput collapsed below baseline/factor.
        let ratio = base_rate / fresh_rate.max(1e-9);
        let verdict = if ratio > factor {
            regressions += 1;
            "  << REGRESSION"
        } else {
            ""
        };
        println!(
            "{:>10} {:>18.0} {:>16.0} {:>7.2}x{verdict}",
            point.threads, base_rate, fresh_rate, ratio
        );
    }
    if compared == 0 {
        eprintln!("no comparable thread-scaling points between fresh run and baseline");
        std::process::exit(2);
    }
    (regressions, compared)
}

/// Durability gate (`--durability-gate`): measure the batched-commit
/// workload fresh under in-memory and WAL-on (`epoch` fsync — the
/// default production policy) and fail when WAL-on throughput falls
/// more than `factor` below in-memory. Fresh-vs-fresh on the same
/// machine, so the ratio isolates the WAL code path from machine
/// variance entirely. Returns `(regressions, compared)`.
fn wal_overhead_gate(factor: f64) -> (usize, usize) {
    const BASE_SIZE: usize = 20_000;
    const COMMITS: usize = 5;
    const BATCH: usize = 200;
    println!(
        "\ngate: WAL-on (epoch fsync) vs in-memory, batched commits \
         ({COMMITS} x {BATCH} statements @ {BASE_SIZE})"
    );
    let points = durability_batched_sweep(BASE_SIZE, COMMITS, BATCH);
    let rate = |mode: &str| {
        points
            .iter()
            .find(|p| p.mode == mode)
            .map(DurabilityPoint::statements_per_sec)
            .unwrap_or_else(|| {
                eprintln!("durability sweep missing mode '{mode}'");
                std::process::exit(2);
            })
    };
    let in_memory = rate("in-memory");
    let wal_on = rate("wal-epoch");
    let ratio = in_memory / wal_on.max(1e-9);
    let regressed = ratio > factor;
    println!(
        "{:>10} {:>18.0} {:>16.0} {:>7.2}x{}",
        "wal-epoch",
        in_memory,
        wal_on,
        ratio,
        if regressed { "  << REGRESSION" } else { "" }
    );
    (usize::from(regressed), 1)
}

/// Read-interference gate (`--read-interference-gate`): measure query
/// latency fresh at 0 writers (idle) and under concurrent writers on
/// the same shard, and fail when the lock-free median exceeds `factor`
/// × the idle median — the "readers never wait for writers" claim as a
/// number. Fresh-vs-fresh on the same machine, so the ratio isolates
/// the read-path code from machine variance.
///
/// The gated statistic is the **median**, not the tail: under writers
/// that saturate the CPU, a reader's p99 inflates from *scheduling*
/// alone on an oversubscribed runner (1–2 cores), for any read
/// implementation — the tail cannot tell lock waits from CPU waits
/// there. The median can: the sweep's writers commit batches back to
/// back, holding the shard's write lock for macroscopic stretches, so
/// a regression to lock-taking reads queues a large share of reads
/// behind whole delta applications and drags the median with it, while
/// scheduler noise is a tail phenomenon and leaves the lock-free
/// median near idle (measured 1.0–1.4× on a single-core runner, well
/// under the default factor). p99 is printed for visibility but not
/// gated. Returns `(regressions, compared)`.
fn interference_gate(factor: f64) -> (usize, usize) {
    const BASE_SIZE: usize = 20_000;
    const READS: usize = 1_000;
    const WRITERS: usize = 4;
    println!(
        "\ngate: lock-free query p50 under {WRITERS} same-shard writers vs idle \
         ({READS} reads @ {BASE_SIZE}; p99 reported, not gated)"
    );
    let points = read_interference_sweep(BASE_SIZE, &[0, WRITERS], READS);
    let point = |writers: usize| {
        points
            .iter()
            .find(|p| p.writers == writers)
            .unwrap_or_else(|| {
                eprintln!("interference sweep missing the {writers}-writer point");
                std::process::exit(2);
            })
    };
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let idle = point(0);
    let loaded = point(WRITERS);
    let ratio = us(loaded.mvcc_p50) / us(idle.mvcc_p50).max(1e-9);
    let regressed = ratio > factor;
    println!(
        "{:>12} {:>16} {:>16} {:>8}",
        "metric", "idle (us)", "loaded (us)", "ratio"
    );
    println!(
        "{:>12} {:>16.1} {:>16.1} {:>7.2}x{}",
        "mvcc p50",
        us(idle.mvcc_p50),
        us(loaded.mvcc_p50),
        ratio,
        if regressed { "  << REGRESSION" } else { "" }
    );
    println!(
        "{:>12} {:>16.1} {:>16.1} {:>7.2}x  (reported)",
        "mvcc p99",
        us(idle.mvcc_p99),
        us(loaded.mvcc_p99),
        us(loaded.mvcc_p99) / us(idle.mvcc_p99).max(1e-9)
    );
    (usize::from(regressed), 1)
}

/// Range-pushdown gate (`--range-gate`). Static half: the committed
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

/// Connection-scaling gate (`--connection-gate`): measure the active
/// subset fresh on an empty `birds-serve` child and again under idle
/// connection load, fresh-vs-fresh on the same machine. Three checks:
///
/// * **p50 ratio** — loaded active p50 within `factor` × the idle p50
///   (with a small floor so near-zero idle medians don't turn noise
///   into a ratio): idle connections must not tax active ones.
/// * **thread ceiling** — the child's `Threads:` stays ≤ workers + 2
///   (main + reactor + workers) at peak connection count: connections
///   must not become threads.
/// * **Nagle ceiling** — the *idle-server* p50 stays under 40 ms
///   absolute: lockstep one-line round trips sit at the delayed-ACK
///   floor when `TCP_NODELAY` is lost, a regression the relative gate
///   cannot see (both points would inflate together).
///
/// p99 is printed for visibility, not gated — on a shared single-core
/// runner the tail measures the CPU scheduler. Returns
/// `(regressions, compared)`.
fn connection_scaling_gate(factor: f64) -> (usize, usize) {
    const WORKERS: usize = 2;
    const IDLE: usize = 2_000;
    const ACTIVE: usize = 8;
    const PER_CONN: usize = 100;
    const NAGLE_CEILING_MS: f64 = 40.0;
    println!(
        "\ngate: active-subset query p50 ({ACTIVE} conns x {PER_CONN} reqs) under {IDLE} \
         idle connections vs an empty server ({WORKERS} workers; p99 reported, not gated)"
    );
    let points = connection_scaling(WORKERS, &[0, IDLE], ACTIVE, PER_CONN).unwrap_or_else(|e| {
        eprintln!("connection gate cannot run: {e}");
        std::process::exit(2);
    });
    let point = |idle: usize| {
        points
            .iter()
            .find(|p| p.idle_conns == idle)
            .unwrap_or_else(|| {
                eprintln!("connection sweep missing the {idle}-idle point");
                std::process::exit(2);
            })
    };
    let us = |d: std::time::Duration| d.as_secs_f64() * 1e6;
    let idle = point(0);
    let loaded = point(IDLE);
    let mut regressions = 0usize;

    // Floor the denominator at 50µs: sub-floor medians are all "fast".
    let ratio = us(loaded.p50) / us(idle.p50).max(50.0);
    let p50_regressed = ratio > factor;
    regressions += usize::from(p50_regressed);
    println!(
        "{:>14} {:>16} {:>16} {:>8}",
        "metric", "empty (us)", "loaded (us)", "ratio"
    );
    println!(
        "{:>14} {:>16.1} {:>16.1} {:>7.2}x{}",
        "active p50",
        us(idle.p50),
        us(loaded.p50),
        ratio,
        if p50_regressed { "  << REGRESSION" } else { "" }
    );
    println!(
        "{:>14} {:>16.1} {:>16.1} {:>7.2}x  (reported)",
        "active p99",
        us(idle.p99),
        us(loaded.p99),
        us(loaded.p99) / us(idle.p99).max(1e-9)
    );

    let ceiling = WORKERS + 2;
    let threads_regressed = loaded.server_threads > ceiling;
    regressions += usize::from(threads_regressed);
    println!(
        "{:>14} {:>16} {:>16}  (ceiling {ceiling}){}",
        "threads",
        idle.server_threads,
        loaded.server_threads,
        if threads_regressed {
            "  << REGRESSION: connections became threads"
        } else {
            ""
        }
    );

    let nagle_regressed = us(idle.p50) >= NAGLE_CEILING_MS * 1e3;
    regressions += usize::from(nagle_regressed);
    println!(
        "{:>14} {:>16.1} {:>16}  (ceiling {NAGLE_CEILING_MS}ms){}",
        "nodelay p50",
        us(idle.p50),
        "-",
        if nagle_regressed {
            "  << REGRESSION: lockstep latency at the delayed-ACK floor"
        } else {
            ""
        }
    );
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
