//! Socket-to-socket benchmark of a WAL-backed `birds-serve`.
//!
//! ```text
//! bench                      all four workloads, untraced then traced pass each
//! bench --smoke              the same at 2 s per window, one set-up, no ~40 s validation
//! bench --aa [--runs N]      two interleaved sets of N runs per workload; spreads vs bounds
//! bench --workload W --seed N --seconds S --trace 0|1     one run, driver contract
//! ```
//!
//! See `bench/README.md` for what is measured and why.

mod aa;
mod dataset;
mod gen;
mod layers;
mod pass;
mod report;
mod server;
mod stats;
mod trace;
mod wire;
mod workload;

use dataset::BenchResult;
use pass::{PassConfig, PassResult};
use report::{LayerValue, END_TO_END};
use std::path::Path;
use workload::Workload;

/// Length of the timed window (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;
/// Full set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    aa: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        traced: false,
        smoke: false,
        aa: false,
        runs: 10,
        out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("no workload '{name}'"))?,
                );
            }
            "--seed" => {
                args.seed = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--runs" => {
                args.runs = value("an integer")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => args.out = Some(value("a file name")?),
            "--help" | "-h" => {
                return Err(
                    "usage: bench [--workload NAME --seed N --seconds S --trace 0|1] \
                            | --smoke | --aa [--runs N] [--out FILE]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One workload's traced pass plus the layer ladder on top of it.
fn traced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    serve_binary: &Path,
) -> BenchResult<(PassResult, Vec<LayerValue>)> {
    let mut pass = pass::run_pass(&PassConfig {
        workload,
        seed,
        seconds,
        setups: 1,
        traced: true,
        serve_binary,
        nproc: nproc(),
    })?;
    let mut live = pass.live.take().expect("a traced pass keeps its child");
    let counts = layers::measure(workload, seed, quick, &mut live, &mut pass.tracer)?;
    drop(live);
    pass.problems.extend(counts.problems.iter().cloned());
    let summary = trace::summarize(pass.tracer.spans());
    let values = report::layer_values(&summary, &counts, &pass);
    let out_dir = server::repo_root().join("bench/out");
    std::fs::create_dir_all(&out_dir)?;
    let dump = out_dir.join(format!("trace-{}.json", workload.name()));
    std::fs::write(
        &dump,
        trace::to_json(workload.name(), seed, pass.tracer.spans()),
    )?;
    println!(
        "  {} spans written to {}",
        pass.tracer.spans().len(),
        dump.display()
    );
    Ok((pass, values))
}

fn untraced_run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    setups: usize,
    serve_binary: &Path,
) -> BenchResult<PassResult> {
    pass::run_pass(&PassConfig {
        workload,
        seed,
        seconds,
        setups,
        traced: false,
        serve_binary,
        nproc: nproc(),
    })
}

fn print_header(workload: Workload, seed: u64, seconds: f64) {
    println!(
        "== {} (seed {seed}, {seconds} s window, nproc {}) ==",
        workload.name(),
        nproc()
    );
    println!(
        "  closed loop, 1 or 2 connections; child: --fsync epoch, --checkpoint-every 1024 \
         (default), --workers {}; load path: recovery of a checkpointed data directory",
        nproc()
    );
}

fn print_problems(problems: &[String]) {
    for problem in problems {
        println!("  WRONG: {problem}");
    }
}

/// The driver's contract: one workload, one pass, one result line.
fn driver_run(args: &Args, workload: Workload, serve_binary: &Path) -> BenchResult<bool> {
    print_header(workload, args.seed, args.seconds);
    let mut metrics = Vec::new();
    let pass = if args.traced {
        let (pass, values) = traced_run(workload, args.seed, args.seconds, false, serve_binary)?;
        report::print_layers(&values);
        metrics.extend(values.iter().map(|v| (v.def.name, v.def.unit, v.value)));
        pass
    } else {
        let pass = untraced_run(workload, args.seed, args.seconds, SETUPS, serve_binary)?;
        report::print_end_to_end(&pass);
        let bounded = END_TO_END.iter().zip(pass.end_to_end.samples());
        metrics.extend(
            bounded
                .filter(|(def, _)| def.bound.is_some())
                .map(|(def, sample)| (def.name, def.unit, sample.value)),
        );
        pass
    };
    // The contract wants every listed metric, measured, on every workload.
    let metrics = metrics
        .into_iter()
        .map(|(name, unit, value)| {
            Ok((name, unit, value.ok_or(format!("{name} was not measured"))?))
        })
        .collect::<BenchResult<Vec<_>>>()?;
    let line = report::result_line(
        pass.problems.is_empty(),
        pass.attempted,
        pass.failed,
        metrics,
    );
    print_problems(&pass.problems);
    println!("{line}");
    Ok(pass.problems.is_empty())
}

/// Every workload, both passes, everything printed.
fn full_run(args: &Args, serve_binary: &Path) -> BenchResult<bool> {
    let (seconds, setups) = if args.smoke {
        (2.0, 1)
    } else {
        (args.seconds, SETUPS)
    };
    let mut all_correct = true;
    for workload in Workload::ALL {
        print_header(workload, args.seed, seconds);
        let untraced = untraced_run(workload, args.seed, seconds, setups, serve_binary)?;
        report::print_end_to_end(&untraced);
        print_problems(&untraced.problems);
        let (traced, values) = traced_run(workload, args.seed, seconds, args.smoke, serve_binary)?;
        report::print_layers(&values);
        print_problems(&traced.problems);
        println!(
            "  attempted {} failed {} (untraced) / attempted {} failed {} (traced)",
            untraced.attempted, untraced.failed, traced.attempted, traced.failed
        );
        all_correct &= untraced.problems.is_empty() && traced.problems.is_empty();
    }
    println!(
        "{}",
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WERE WRONG"
        }
    );
    Ok(all_correct)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let outcome = server::build_birds_serve()
        .map_err(Into::into)
        .and_then(|serve_binary| {
            if args.aa {
                aa::run(
                    args.seed,
                    args.seconds,
                    args.runs,
                    args.out.as_deref(),
                    &serve_binary,
                )
            } else if let Some(workload) = args.workload {
                driver_run(&args, workload, &serve_binary)
            } else {
                full_run(&args, &serve_binary)
            }
        });
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("bench: {e}");
            std::process::exit(3);
        }
    }
}
