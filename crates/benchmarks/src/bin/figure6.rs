//! Regenerate the paper's Figure 6: view-update latency versus base-table
//! size, original versus incrementalized strategy.
//!
//! ```text
//! cargo run --release -p birds-benchmarks --bin figure6                  # all panels
//! cargo run --release -p birds-benchmarks --bin figure6 -- luxuryitems   # one panel
//! cargo run --release -p birds-benchmarks --bin figure6 -- luxuryitems 1000 10000
//! cargo run --release -p birds-benchmarks --bin figure6 -- luxuryitems --emit-json
//! ```
//!
//! `--emit-json` additionally writes the measurements to
//! `BENCH_figure6.json` (see the committed baseline of that name for the
//! perf trajectory across PRs). `--label <text>` tags the emitted run —
//! re-running with an existing label **replaces** that run; `--out
//! <path>` overrides the output path. The file is written atomically
//! (temp file + rename), so a crash or concurrent reader never sees a
//! torn document.
//!
//! `--range-guard <size>` additionally runs the range-guard selectivity
//! sweep (1%/10%/50% selective comparison guards, planned as
//! ordered-index range scans) at the given base size and records it in
//! the document's `"range_guard"` section.

use birds_benchmarks::emit::write_atomic;
use birds_benchmarks::figure6::{sweep, to_json, upsert_run, Figure6View};
use birds_benchmarks::range_guard;

const RANGE_GUARD_PCTS: [u32; 3] = [1, 10, 50];

fn main() {
    let mut emit_json = false;
    let mut label: Option<String> = None;
    let mut out_path = String::from("BENCH_figure6.json");
    let mut range_guard_size: Option<usize> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-json" => emit_json = true,
            "--label" => label = Some(require_value(args.next(), "--label")),
            "--out" => out_path = require_value(args.next(), "--out"),
            "--range-guard" => {
                range_guard_size = Some(
                    require_value(args.next(), "--range-guard")
                        .parse()
                        .unwrap_or_else(|_| {
                            eprintln!("--range-guard needs a base size (tuples)");
                            std::process::exit(2);
                        }),
                )
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag '{flag}'");
                std::process::exit(2);
            }
            _ => positional.push(arg),
        }
    }

    let (views, sizes): (Vec<Figure6View>, Vec<usize>) = match positional.split_first() {
        None => (Figure6View::all().to_vec(), default_sizes()),
        Some((name, rest)) => {
            let view = Figure6View::from_name(name).unwrap_or_else(|| {
                eprintln!(
                    "unknown view '{name}'; expected one of: {}",
                    Figure6View::all().map(|v| v.name()).join(", ")
                );
                std::process::exit(2);
            });
            let sizes: Vec<usize> = if rest.is_empty() {
                default_sizes()
            } else {
                rest.iter()
                    .map(|s| s.parse().expect("sizes must be integers"))
                    .collect()
            };
            (vec![view], sizes)
        }
    };

    let mut results: Vec<(Figure6View, Vec<birds_benchmarks::figure6::Figure6Point>)> = Vec::new();
    for view in views {
        println!("== {} ==", view.name());
        println!(
            "{:>10} {:>16} {:>16} {:>8}",
            "base size", "original (ms)", "incremental (ms)", "speedup"
        );
        let points = sweep(view, &sizes);
        for p in &points {
            let orig = p.original.as_secs_f64() * 1e3;
            let inc = p.incremental.as_secs_f64() * 1e3;
            println!(
                "{:>10} {:>16.3} {:>16.3} {:>7.1}x",
                p.base_size,
                orig,
                inc,
                orig / inc.max(1e-9)
            );
        }
        println!();
        results.push((view, points));
    }

    let range_points = range_guard_size.map(|n| {
        println!("== range_guard (base size {n}) ==");
        println!(
            "{:>12} {:>10} {:>17}",
            "selectivity", "threshold", "range-index (ms)"
        );
        let points = range_guard::sweep(n, &RANGE_GUARD_PCTS);
        for p in &points {
            println!(
                "{:>11}% {:>10} {:>17.2}",
                p.selectivity_pct,
                p.threshold,
                p.range_index.as_secs_f64() * 1e3
            );
        }
        println!();
        (n, points)
    });

    if emit_json {
        let label = label.unwrap_or_else(|| "current".to_owned());
        // Merge into an existing trajectory file (the committed baseline
        // holds runs that cannot be regenerated; a run with the same
        // label is replaced); start a fresh document otherwise. An
        // existing file this writer doesn't recognize is left untouched.
        let mut json = match std::fs::read_to_string(&out_path) {
            Ok(existing) => match upsert_run(&existing, &label, &results) {
                Some(merged) => merged,
                None => {
                    eprintln!(
                        "refusing to overwrite {out_path}: not a figure6 \
                         trajectory document (use --out for a fresh file)"
                    );
                    std::process::exit(1);
                }
            },
            // Only a genuinely absent file starts a fresh document; any
            // other read failure (permissions, non-UTF-8 corruption) must
            // not clobber what's there.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => to_json(&label, &results),
            Err(e) => {
                eprintln!("cannot read {out_path}: {e}");
                std::process::exit(1);
            }
        };
        if let Some((n, points)) = &range_points {
            json = range_guard::upsert_run(&json, &label, *n, points)
                .expect("document was just validated/emitted as figure6");
        }
        write_atomic(&out_path, &json).expect("write benchmark JSON");
        println!("wrote {out_path}");
    }
}

fn default_sizes() -> Vec<usize> {
    vec![1_000, 10_000, 100_000, 300_000, 1_000_000]
}

fn require_value(v: Option<String>, flag: &str) -> String {
    v.unwrap_or_else(|| {
        eprintln!("{flag} needs a value");
        std::process::exit(2);
    })
}
