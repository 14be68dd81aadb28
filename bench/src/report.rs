//! Metric names, units and directions — the tables `BENCHMARK.json`
//! mirrors — and the printing of one workload's results.

use crate::layers::LayerCounts;
use crate::pass::{EndToEnd, PassResult, Sample, WIRE_WRITE_UNIT};
use crate::stats;
use crate::trace::LayerSummary;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Regression bound in `BENCHMARK.json`; `None` for a metric that is
    /// printed but not bounded (it has no value on some workload, or is
    /// identically zero when all is well).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: Option<f64>,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The thirteen end-to-end metrics, in print order. The eight with a
/// bound have a non-zero value on every workload and are the
/// `end_to_end` list of `BENCHMARK.json`; the read metrics exist only
/// on `mixed_read_write` and `failed_ratio` is 0 whenever the run is
/// correct, which the driver's contract rules out for a bounded metric.
pub const END_TO_END: [MetricDef; 13] = [
    e2e("setup_s", "s", Better::Lower, Some(0.25)),
    e2e("write_stmts_per_s", "1/s", Better::Higher, Some(0.25)),
    e2e("write_p50_us", "us", Better::Lower, Some(0.25)),
    e2e("write_tail_us", "us", Better::Lower, Some(0.25)),
    e2e("reads_per_s", "1/s", Better::Higher, None),
    e2e("read_p50_us", "us", Better::Lower, None),
    e2e("read_tail_us", "us", Better::Lower, None),
    e2e("scan_p50_us", "us", Better::Lower, None),
    e2e("failed_ratio", "ratio", Better::Lower, None),
    e2e("server_cpu_us_per_op", "us", Better::Lower, Some(0.25)),
    e2e("rss_peak_mb", "MB", Better::Lower, Some(0.25)),
    e2e("disk_bytes_per_stmt", "bytes", Better::Lower, Some(0.10)),
    e2e("recovery_s", "s", Better::Lower, Some(0.25)),
];

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn samples(&self) -> [Sample; 13] {
        [
            self.setup_s,
            self.write_stmts_per_s,
            self.write_p50_us,
            self.write_tail_us,
            self.reads_per_s,
            self.read_p50_us,
            self.read_tail_us,
            self.scan_p50_us,
            self.failed_ratio,
            self.server_cpu_us_per_op,
            self.rss_peak_mb,
            self.disk_bytes_per_stmt,
            self.recovery_s,
        ]
    }
}

/// Where a per-layer metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// Median duration of the spans with this name, in the metric's unit.
    Span(&'static str),
    /// Median of the first span name minus median of the second.
    Diff(&'static str, &'static str),
    /// A number the pass counted rather than timed.
    Counted(Counted),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counted {
    PlanCacheHitRatio,
    IndexHitRatio,
    RecordBytes,
    ServerCpuUser,
    ServerCpuSys,
    ServerThreads,
    ServerCtxSwitches,
    ServerRss,
    ClientCpu,
    TraceOverhead,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub source: Source,
}

const fn span(name: &'static str, unit: &'static str, span: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
        source: Source::Span(span),
    }
}

const fn diff(name: &'static str, a: &'static str, b: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit: "us",
        better: Better::Lower,
        source: Source::Diff(a, b),
    }
}

const fn counted(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: Counted,
) -> LayerDef {
    LayerDef {
        name,
        unit,
        better,
        source: Source::Counted(what),
    }
}

/// The per-layer metrics (`per_layer` of `BENCHMARK.json`), layer =
/// crate. Every one is measured on every workload.
pub const PER_LAYER: [LayerDef; 46] = [
    span("datalog.parse_us", "us", "datalog.parse"),
    span("core.validate_ms", "ms", "core.validate"),
    span("core.incrementalize_ms", "ms", "core.incrementalize"),
    span("service.register_view_ms", "ms", "service.register_view"),
    span("service.json_parse_us", "us", "service.json_parse"),
    span("service.envelope_parse_us", "us", "service.envelope_parse"),
    span("service.encode_us", "us", "service.encode"),
    span("sql.parse_script_us", "us", "sql.parse_script"),
    span("engine.derive_delta_us", "us", "engine.derive_delta"),
    span("engine.apply_delta_us", "us", "engine.apply_delta"),
    counted(
        "eval.plan_cache_hit_ratio",
        "ratio",
        Better::Higher,
        Counted::PlanCacheHitRatio,
    ),
    counted(
        "store.index_hit_ratio",
        "ratio",
        Better::Higher,
        Counted::IndexHitRatio,
    ),
    span("store.publish_us", "us", "store.publish"),
    span("wal.encode_us", "us", "wal.encode"),
    counted(
        "wal.record_bytes",
        "bytes",
        Better::Lower,
        Counted::RecordBytes,
    ),
    span("wal.append_us", "us", "wal.append"),
    span("wal.sync_us", "us", "wal.sync"),
    span("wal.recover_ms", "ms", "wal.recover"),
    span("engine.restore_ms", "ms", "engine.restore"),
    span("engine.snapshot_write_ms", "ms", "engine.snapshot_write"),
    span("service.checkpoint_ms", "ms", "service.checkpoint"),
    span("service.rung.engine_us", "us", "service.rung.engine"),
    span("service.rung.mem_us", "us", "service.rung.mem"),
    span("service.rung.wal_off_us", "us", "service.rung.wal_off"),
    span("service.rung.wal_epoch_us", "us", "service.rung.wal_epoch"),
    span("service.rung.local_us", "us", "service.rung.local"),
    span("service.rung.tcp_us", "us", "service.rung.tcp"),
    diff(
        "service.commit_overhead_us",
        "service.rung.mem",
        "service.rung.engine",
    ),
    diff(
        "wal.overhead_us",
        "service.rung.wal_epoch",
        "service.rung.mem",
    ),
    diff(
        "service.protocol_us",
        "service.rung.local",
        "service.rung.wal_epoch",
    ),
    diff(
        "service.reactor_us",
        "service.rung.tcp",
        "service.rung.local",
    ),
    span("service.batch_commit_ms", "ms", "service.batch_commit"),
    span("service.query_small_us", "us", "service.query_small"),
    span("service.query_large_us", "us", "service.query_large"),
    diff(
        "service.query_encode_small_us",
        "service.query_small_dispatch",
        "service.query_small",
    ),
    diff(
        "service.query_encode_large_us",
        "service.query_large_dispatch",
        "service.query_large",
    ),
    span("wire.write_unit_us", "us", WIRE_WRITE_UNIT),
    counted(
        "server.cpu_user_s",
        "s",
        Better::Lower,
        Counted::ServerCpuUser,
    ),
    counted(
        "server.cpu_sys_s",
        "s",
        Better::Lower,
        Counted::ServerCpuSys,
    ),
    counted(
        "server.threads",
        "count",
        Better::Lower,
        Counted::ServerThreads,
    ),
    counted(
        "server.ctx_switches",
        "count",
        Better::Lower,
        Counted::ServerCtxSwitches,
    ),
    counted("server.rss_mb", "MB", Better::Lower, Counted::ServerRss),
    counted("client.cpu_s", "s", Better::Lower, Counted::ClientCpu),
    counted(
        "trace.overhead_ratio",
        "ratio",
        Better::Lower,
        Counted::TraceOverhead,
    ),
    span(
        "engine.execute_statements_us",
        "us",
        "engine.execute_statements",
    ),
    span("wal.commit_us", "us", "wal.commit"),
];

/// One per-layer metric of one traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub def: LayerDef,
    pub value: Option<f64>,
    pub n: usize,
    /// Median self time of the source span, where it has children.
    pub self_value: Option<f64>,
}

fn scale(unit: &str) -> f64 {
    match unit {
        "ms" => 1e6,
        _ => 1e3,
    }
}

pub fn layer_values(
    summary: &BTreeMap<&'static str, LayerSummary>,
    counts: &LayerCounts,
    pass: &PassResult,
) -> Vec<LayerValue> {
    PER_LAYER
        .iter()
        .map(|def| {
            let (value, n, self_value) = match def.source {
                Source::Span(name) => match summary.get(name) {
                    Some(s) => (
                        Some(s.median_ns / scale(def.unit)),
                        s.count,
                        (s.self_median_ns != s.median_ns)
                            .then_some(s.self_median_ns / scale(def.unit)),
                    ),
                    None => (None, 0, None),
                },
                Source::Diff(a, b) => match (summary.get(a), summary.get(b)) {
                    (Some(a), Some(b)) => (
                        Some((a.median_ns - b.median_ns) / scale(def.unit)),
                        a.count.min(b.count),
                        None,
                    ),
                    _ => (None, 0, None),
                },
                Source::Counted(what) => {
                    let resources = &pass.resources;
                    let (value, n) = match what {
                        Counted::PlanCacheHitRatio => (
                            (counts.plan_cache_lookups > 0).then(|| {
                                counts.plan_cache_hits as f64 / counts.plan_cache_lookups as f64
                            }),
                            counts.plan_cache_lookups as usize,
                        ),
                        Counted::IndexHitRatio => (pass.index_hit_ratio, 1),
                        Counted::RecordBytes => (
                            stats::median(&counts.record_bytes),
                            counts.record_bytes.len(),
                        ),
                        Counted::ServerCpuUser => {
                            (Some(resources.server_cpu_user_s), resources.samples)
                        }
                        Counted::ServerCpuSys => {
                            (Some(resources.server_cpu_sys_s), resources.samples)
                        }
                        Counted::ServerThreads => {
                            (Some(resources.server_threads), resources.samples)
                        }
                        Counted::ServerCtxSwitches => {
                            (Some(resources.server_ctx_switches), resources.samples)
                        }
                        Counted::ServerRss => (Some(resources.server_rss_mb), resources.samples),
                        Counted::ClientCpu => (Some(resources.client_cpu_s), resources.samples),
                        Counted::TraceOverhead => (
                            pass.untraced_stmts_per_s
                                .zip(pass.traced_stmts_per_s)
                                .map(|(untraced, traced)| untraced / traced),
                            2,
                        ),
                    };
                    (value, n, None)
                }
            };
            LayerValue {
                def: *def,
                value,
                n,
                self_value,
            }
        })
        .collect()
}

fn render(value: Option<f64>) -> String {
    match value {
        None => "null".to_owned(),
        Some(v) if v.abs() >= 1000.0 => format!("{v:.1}"),
        Some(v) => format!("{v:.4}"),
    }
}

pub fn print_end_to_end(pass: &PassResult) {
    println!("  end-to-end (untraced pass):");
    for (def, sample) in END_TO_END.iter().zip(pass.end_to_end.samples()) {
        println!(
            "    {:<28} {:>14} {:<6} n={}",
            def.name,
            render(sample.value),
            def.unit,
            sample.n
        );
    }
    if let Some(note) = &pass.disk_note {
        println!("    ({note})");
    }
}

pub fn print_layers(values: &[LayerValue]) {
    println!("  per-layer (traced pass; medians, self time where a span has children):");
    for value in values {
        let own = value
            .self_value
            .map_or_else(String::new, |v| format!("  self {}", render(Some(v))));
        println!(
            "    {:<34} {:>14} {:<6} n={}{own}",
            value.def.name,
            render(value.value),
            value.def.unit,
            value.n
        );
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, and the
/// metrics with every digit measured.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: impl IntoIterator<Item = (&'static str, &'static str, f64)>,
) -> String {
    let metrics: Vec<String> = metrics
        .into_iter()
        .map(|(name, unit, value)| format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{{}}}}}"#,
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use birds_service::Json;

    fn benchmark_json() -> Json {
        let path = crate::server::repo_root().join("BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
            .expect("BENCHMARK.json parses")
    }

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).expect(key)
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = benchmark_json();
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").to_owned(),
                        field(m, "unit").to_owned(),
                        field(m, "better").to_owned(),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let bounded: Vec<_> = END_TO_END
            .iter()
            .filter(|d| d.bound.is_some())
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    d.bound,
                )
            })
            .collect();
        assert_eq!(listed("end_to_end"), bounded);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|d| {
                (
                    d.name.to_owned(),
                    d.unit.to_owned(),
                    d.better.as_str().to_owned(),
                    None,
                )
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
    }

    #[test]
    fn benchmark_json_names_the_four_workloads_and_the_one_path() {
        let doc = benchmark_json();
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
        let paths: Vec<&str> = doc
            .get("paths")
            .and_then(Json::as_arr)
            .expect("paths")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        assert_eq!(paths, ["bench"]);
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_i64),
            Some(crate::RUN_SECONDS as i64)
        );
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|d| d.name)
            .chain(PER_LAYER.iter().map(|d| d.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = result_line(
            true,
            10,
            0,
            [("setup_s", "s", 0.25), ("x_us", "us", 1234.5678)],
        );
        let doc = Json::parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Json::as_i64), Some(10));
        assert_eq!(doc.get("failed").and_then(Json::as_i64), Some(0));
        let x = doc
            .get("metrics")
            .and_then(|m| m.get("x_us"))
            .expect("x_us");
        assert_eq!(x.get("value").and_then(Json::as_f64), Some(1234.5678));
        assert_eq!(x.get("unit").and_then(Json::as_str), Some("us"));
    }
}
