//! Measure service-layer write throughput: batched versus per-statement
//! application, and concurrent-client scaling.
//!
//! ```text
//! cargo run --release -p birds-benchmarks --bin throughput
//! cargo run --release -p birds-benchmarks --bin throughput -- --quick
//! cargo run --release -p birds-benchmarks --bin throughput -- --emit-json --label "PR 3"
//! ```
//!
//! `--emit-json` writes `BENCH_throughput.json` atomically (temp file +
//! rename); `--out <path>` overrides the target, `--label <text>` tags
//! the run. `--quick` shrinks the sweep for smoke runs.

use birds_benchmarks::connection::{connection_scaling, ConnectionPoint};
use birds_benchmarks::emit::write_atomic;
use birds_benchmarks::throughput::{
    batch_sweep, disjoint_scaling, durability_autocommit_sweep, durability_batched_sweep,
    group_commit_scaling, read_interference_sweep, to_json, DurabilityPoint, InterferencePoint,
    ScalePoint,
};
use std::time::Duration;

fn main() {
    let mut emit_json = false;
    let mut quick = false;
    let mut label: Option<String> = None;
    let mut out_path = String::from("BENCH_throughput.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-json" => emit_json = true,
            "--quick" => quick = true,
            "--label" => label = Some(require_value(args.next(), "--label")),
            "--out" => out_path = require_value(args.next(), "--out"),
            flag => {
                eprintln!("unknown flag '{flag}'");
                std::process::exit(2);
            }
        }
    }

    let (base_size, batch_sizes, threads, per_client): (usize, Vec<usize>, Vec<usize>, usize) =
        if quick {
            (1_000, vec![100, 1_000], vec![1, 2], 50)
        } else {
            (20_000, vec![100, 1_000, 10_000], vec![1, 2, 4, 8], 400)
        };
    // Group-commit epoch window for the autocommit scaling sweeps: long
    // enough that concurrent submitters reliably join the same epoch,
    // short enough to stay realistic as a commit latency floor.
    let epoch_window = Duration::from_micros(200);

    println!("== batched vs per-statement (luxuryitems @ {base_size}, incremental) ==");
    println!(
        "{:>12} {:>20} {:>14} {:>8}",
        "statements", "per-statement (ms)", "batched (ms)", "speedup"
    );
    let batch_points = batch_sweep(base_size, &batch_sizes);
    for p in &batch_points {
        println!(
            "{:>12} {:>20.2} {:>14.2} {:>7.1}x",
            p.statements,
            p.per_statement.as_secs_f64() * 1e3,
            p.batched.as_secs_f64() * 1e3,
            p.speedup()
        );
    }

    println!();
    println!(
        "== disjoint views: n autocommit clients x n footprint shards \
         ({per_client} stmts/client, {}us epoch window) ==",
        epoch_window.as_micros()
    );
    let disjoint_points = disjoint_scaling(base_size, &threads, per_client, epoch_window);
    print_scale_points(&disjoint_points);

    println!();
    println!(
        "== group commit: n autocommit clients, ONE shared view \
         ({per_client} stmts/client, {}us epoch window) ==",
        epoch_window.as_micros()
    );
    let coalescing_points = group_commit_scaling(base_size, &threads, per_client, epoch_window);
    print_scale_points(&coalescing_points);

    let (dur_commits, dur_batch, dur_auto) = if quick { (3, 100, 50) } else { (10, 500, 200) };
    println!();
    println!(
        "== durability: WAL overhead vs in-memory ({dur_commits} batches x {dur_batch} \
         statements; autocommit x {dur_auto}) =="
    );
    let durability_batched = durability_batched_sweep(base_size, dur_commits, dur_batch);
    print_durability_points("batched", &durability_batched);
    let durability_autocommit = durability_autocommit_sweep(base_size, dur_auto);
    print_durability_points("autocommit", &durability_autocommit);

    let (reader_writers, reads) = if quick {
        (vec![0, 2], 200)
    } else {
        (vec![0, 2, 8], 2_000)
    };
    println!();
    println!(
        "== reader/writer interference: query latency under concurrent \
         writers ({reads} reads/point, lock-free MVCC reads) =="
    );
    let read_interference = read_interference_sweep(base_size, &reader_writers, reads);
    print_interference_points(&read_interference);

    // Connection scaling needs the birds-serve binary built alongside:
    // it spawns the server as a child so connections, threads and RSS
    // are measured from outside (/proc/<pid>/status).
    let (conn_workers, conn_idle, conn_active, conn_per_conn): (usize, Vec<usize>, usize, usize) =
        if quick {
            (2, vec![0, 200, 1_000], 8, 50)
        } else {
            (2, vec![0, 1_000, 5_000, 10_000], 16, 200)
        };
    println!();
    println!(
        "== connection scaling: {conn_active} active x {conn_per_conn} lockstep queries \
         under n idle connections (birds-serve child, {conn_workers} workers) =="
    );
    let connection_points: Vec<ConnectionPoint> =
        match connection_scaling(conn_workers, &conn_idle, conn_active, conn_per_conn) {
            Ok(points) => {
                print_connection_points(&points);
                points
            }
            Err(e) => {
                eprintln!("connection scaling skipped: {e}");
                Vec::new()
            }
        };

    if emit_json {
        let label = label.unwrap_or_else(|| "current".to_owned());
        let doc = to_json(
            &label,
            base_size,
            &batch_points,
            &disjoint_points,
            &coalescing_points,
            &durability_batched,
            &durability_autocommit,
            &read_interference,
            &connection_points,
            epoch_window,
        );
        write_atomic(&out_path, &doc.to_pretty()).expect("write benchmark JSON");
        println!("\nwrote {out_path}");
    }
}

fn print_connection_points(points: &[ConnectionPoint]) {
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>12} {:>12}",
        "idle", "p50 (us)", "p99 (us)", "threads", "rss (kB)", "peak (kB)"
    );
    for p in points {
        println!(
            "{:>10} {:>12.1} {:>12.1} {:>9} {:>12} {:>12}",
            p.idle_conns,
            p.p50.as_secs_f64() * 1e6,
            p.p99.as_secs_f64() * 1e6,
            p.server_threads,
            p.vm_rss_kb,
            p.vm_hwm_kb,
        );
    }
}

fn print_durability_points(tag: &str, points: &[DurabilityPoint]) {
    let baseline = points
        .iter()
        .find(|p| p.mode == "in-memory")
        .map(DurabilityPoint::statements_per_sec)
        .unwrap_or(0.0);
    for p in points {
        println!(
            "{tag:>12} {:>11} {:>12.0} stmts/sec {:>6.2}x overhead",
            p.mode,
            p.statements_per_sec(),
            baseline / p.statements_per_sec().max(1e-9)
        );
    }
}

fn print_interference_points(points: &[InterferencePoint]) {
    println!(
        "{:>8} {:>14} {:>14}",
        "writers", "mvcc p50 (us)", "mvcc p99 (us)"
    );
    for p in points {
        println!(
            "{:>8} {:>14.1} {:>14.1}",
            p.writers,
            p.mvcc_p50.as_secs_f64() * 1e6,
            p.mvcc_p99.as_secs_f64() * 1e6,
        );
    }
}

fn print_scale_points(points: &[ScalePoint]) {
    println!(
        "{:>8} {:>12} {:>14} {:>16} {:>10}",
        "clients", "statements", "elapsed (ms)", "stmts/sec", "scaling"
    );
    let base = points
        .first()
        .map(ScalePoint::statements_per_sec)
        .unwrap_or(0.0);
    for p in points {
        println!(
            "{:>8} {:>12} {:>14.2} {:>16.0} {:>9.2}x",
            p.threads,
            p.total_statements,
            p.elapsed.as_secs_f64() * 1e3,
            p.statements_per_sec(),
            p.statements_per_sec() / base.max(1e-9)
        );
    }
}

fn require_value(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}
