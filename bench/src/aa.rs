//! `--aa`: two interleaved sets of runs of the same build. Prints, per
//! workload and metric, each set's median, quartiles and spread, and
//! checks what the driver will check: every spread within the metric's
//! bound, and the second set's median not worse than the first's by more
//! than the bound. This is how the bounds in `BENCHMARK.json` and each
//! workload's `write_tail_us` percentile were chosen; its output is
//! committed as `out/aa-baseline.json`.

use crate::dataset::BenchResult;
use crate::report::{Better, END_TO_END};
use crate::stats;
use crate::workload::Workload;
use birds_service::Json;
use std::collections::BTreeMap;
use std::path::Path;

/// Values of one metric on one workload: one vector per set.
type Cell = [Vec<f64>; 2];

fn num(value: f64) -> Json {
    Json::Float(value)
}

/// Median, quartiles and spread of one set, as JSON and as a printed row.
fn describe(values: &[f64]) -> (Json, String, Option<f64>, Option<f64>) {
    let median = stats::median(values);
    let quartiles = stats::quartiles(values);
    let spread = stats::spread(values);
    let json = Json::Obj(vec![
        (
            "values".to_owned(),
            Json::Arr(values.iter().copied().map(num).collect()),
        ),
        ("median".to_owned(), median.map_or(Json::Null, num)),
        ("q1".to_owned(), quartiles.map_or(Json::Null, |q| num(q[0]))),
        ("q3".to_owned(), quartiles.map_or(Json::Null, |q| num(q[2]))),
        ("spread".to_owned(), spread.map_or(Json::Null, num)),
    ]);
    let row = match (median, quartiles, spread) {
        (Some(median), Some([q1, _, q3]), Some(spread)) => format!(
            "median {median:>12.3}  q1 {q1:>12.3}  q3 {q3:>12.3}  spread {:>5.1}%",
            spread * 100.0
        ),
        _ => "too few values".to_owned(),
    };
    (json, row, median, spread)
}

/// How much worse (as a share of `first`) the second median is.
fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    runs: usize,
    out: Option<&str>,
    serve_binary: &Path,
) -> BenchResult<bool> {
    if runs < 2 {
        return Err("--aa needs at least 2 runs per set (5 or more to mean anything)".into());
    }
    let mut cells: BTreeMap<(Workload, String), Cell> = BTreeMap::new();
    let mut all_correct = true;
    for run in 0..runs {
        for workload in Workload::ALL {
            for set in 0..2 {
                let run_seed = seed + run as u64;
                let pass =
                    crate::untraced_run(workload, run_seed, seconds, crate::SETUPS, serve_binary)?;
                all_correct &= pass.problems.is_empty();
                crate::print_problems(&pass.problems);
                let named = END_TO_END
                    .iter()
                    .map(|def| def.name.to_owned())
                    .zip(pass.end_to_end.samples());
                let tails = pass.tail_candidates.iter().map(|(level, sample)| {
                    (format!("write_p{}_us", *level as f64 / 10.0), *sample)
                });
                for (name, sample) in named.chain(tails) {
                    if let Some(value) = sample.value {
                        cells.entry((workload, name)).or_default()[set].push(value);
                    }
                }
                println!(
                    "run {}/{runs} set {} {} seed {run_seed}: {:.0} stmts/s, p50 {:.1} us",
                    run + 1,
                    ["A", "B"][set],
                    workload.name(),
                    pass.end_to_end.write_stmts_per_s.value.unwrap_or(f64::NAN),
                    pass.end_to_end.write_p50_us.value.unwrap_or(f64::NAN),
                );
            }
        }
    }

    let mut within_bounds = true;
    let mut report: Vec<(String, Json)> = Vec::new();
    for workload in Workload::ALL {
        println!("== {} ==", workload.name());
        let mut metrics: Vec<(String, Json)> = Vec::new();
        for ((_, name), sets) in cells.iter().filter(|((w, _), _)| *w == workload) {
            let def = END_TO_END.iter().find(|def| def.name == name);
            let (json_a, row_a, median_a, spread_a) = describe(&sets[0]);
            let (json_b, row_b, median_b, spread_b) = describe(&sets[1]);
            println!("  {name}");
            println!("    A: {row_a}");
            println!("    B: {row_b}");
            let mut entry = vec![("sets".to_owned(), Json::Arr(vec![json_a, json_b]))];
            if let Some((def, bound)) = def.and_then(|def| Some((def, def.bound?))) {
                let shift = median_a
                    .zip(median_b)
                    .filter(|(a, _)| *a != 0.0)
                    .map(|(a, b)| worsening(a, b, def.better));
                // `setup_s` is exempt from the spread rule (the driver's
                // contract), not from the median rule.
                let spread_ok = def.name == "setup_s"
                    || [spread_a, spread_b]
                        .iter()
                        .all(|s| s.is_some_and(|s| s <= bound));
                let ok = spread_ok && shift.is_some_and(|shift| shift <= bound);
                within_bounds &= ok;
                println!(
                    "    bound {:.0}%: second median {:+.1}% worse — {}",
                    bound * 100.0,
                    shift.unwrap_or(f64::NAN) * 100.0,
                    if ok { "ok" } else { "OUT OF BOUNDS" }
                );
                entry.push(("bound".to_owned(), num(bound)));
                entry.push(("median_worsening".to_owned(), shift.map_or(Json::Null, num)));
                entry.push(("within_bound".to_owned(), Json::Bool(ok)));
            }
            metrics.push((name.clone(), Json::Obj(entry)));
        }
        report.push((workload.name().to_owned(), Json::Obj(metrics)));
    }
    println!(
        "{} / {}",
        if all_correct {
            "all outputs correct"
        } else {
            "SOME OUTPUTS WERE WRONG"
        },
        if within_bounds {
            "every bounded metric agrees within its bound"
        } else {
            "SOME METRICS ARE OUT OF BOUNDS"
        }
    );
    if let Some(out) = out {
        let doc = Json::Obj(vec![
            ("runs_per_set".to_owned(), Json::Int(runs as i64)),
            ("seconds".to_owned(), num(seconds)),
            ("first_seed".to_owned(), Json::Int(seed as i64)),
            ("nproc".to_owned(), Json::Int(crate::nproc() as i64)),
            ("all_correct".to_owned(), Json::Bool(all_correct)),
            ("within_bounds".to_owned(), Json::Bool(within_bounds)),
            ("workloads".to_owned(), Json::Obj(report)),
        ]);
        std::fs::write(out, doc.to_pretty())?;
        println!("written to {out}");
    }
    Ok(all_correct && within_bounds)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert_eq!(worsening(100.0, 110.0, Better::Lower), 0.1);
        assert_eq!(worsening(100.0, 110.0, Better::Higher), -0.1);
        assert_eq!(worsening(100.0, 90.0, Better::Higher), 0.1);
    }
}
