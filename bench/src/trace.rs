//! Spans recorded by the benchmark around its own calls into each layer
//! and around each wire round trip (spans *inside* the server are a
//! later change). Kept in memory; written out when the run ends.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval. `parent` is the span that caused this one;
/// spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span sink. Each client thread owns one (no sharing on
/// the hot path); the harness merges them afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// All tracers of a run share `origin`, so their spans line up.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread; merge it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.origin)
    }

    /// Record a finished interval; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        id
    }

    /// Time `f` as a span and hand back its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, request, start, Instant::now());
        out
    }

    /// Open a parent span whose children are recorded before it closes:
    /// reserves the id now, fills the interval in at [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, request: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = Instant::now()
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans[id as usize].end_ns = end;
    }

    /// Append another tracer's spans, re-basing their ids.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += base;
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let Some(intervals) = children.get_mut(&span.id) else {
                return span.duration_ns();
            };
            intervals.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.clamp(cursor, span.end_ns);
                let end = end.clamp(cursor, span.end_ns);
                covered += end - start;
                cursor = end;
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// Per-name digest of a run's spans.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerSummary {
    pub count: usize,
    pub median_ns: f64,
    pub self_median_ns: f64,
}

pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerSummary> {
    let self_times = self_times_ns(spans);
    let mut by_name: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times) {
        let entry = by_name.entry(span.name).or_default();
        entry.0.push(span.duration_ns() as f64);
        entry.1.push(self_ns as f64);
    }
    by_name
        .into_iter()
        .map(|(name, (mut durations, mut selfs))| {
            durations.sort_by(f64::total_cmp);
            selfs.sort_by(f64::total_cmp);
            let summary = LayerSummary {
                count: durations.len(),
                median_ns: stats::percentile(&durations, 500).expect("non-empty"),
                self_median_ns: stats::percentile(&selfs, 500).expect("non-empty"),
            };
            (name, summary)
        })
        .collect()
}

/// The span dump: one JSON object per line inside an array, small
/// enough to diff and to load into any trace viewer with a few lines
/// of glue.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(spans.len() * 96 + 128);
    writeln!(
        out,
        r#"{{"workload":"{workload}","seed":{seed},"unit":"ns","spans":["#
    )
    .expect("write to String");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            r#"{{"id":{},"parent":{parent},"name":"{}","request":{},"start":{},"end":{}}}{comma}"#,
            span.id, span.name, span.request, span.start_ns, span.end_ns
        )
        .expect("write to String");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "root" },
            request: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps its sibling: 20..50 adds only 30..50.
            span(2, Some(0), 20, 50),
            // Sticks out of the parent: only 90..100 counts.
            span(3, Some(0), 90, 130),
            // A grandchild is the child's business, not the root's.
            span(4, Some(1), 12, 18),
        ];
        assert_eq!(
            self_times_ns(&spans),
            vec![100 - 40 - 10, 20 - 6, 30, 40, 6]
        );
    }

    #[test]
    fn a_child_covering_its_parent_leaves_no_self_time() {
        let spans = vec![span(0, None, 5, 9), span(1, Some(0), 0, 20)];
        assert_eq!(self_times_ns(&spans), vec![0, 20]);
    }

    #[test]
    fn summaries_are_medians_by_name() {
        let spans = vec![
            span(0, None, 0, 10),
            span(1, None, 0, 30),
            span(2, None, 0, 20),
            span(3, Some(1), 0, 5),
        ];
        let summary = summarize(&spans);
        assert_eq!(summary["root"].count, 3);
        assert_eq!(summary["root"].median_ns, 20.0);
        // Self times are 10, 25, 20 → median 20.
        assert_eq!(summary["root"].self_median_ns, 20.0);
        assert_eq!(summary["child"].median_ns, 5.0);
    }

    #[test]
    fn absorb_rebases_ids_and_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("root", None, 1, origin, origin);
        let mut b = Tracer::new(origin);
        let parent = b.open("root", None, 2);
        b.time("child", Some(parent), 2, || ());
        b.close(parent);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(
            spans.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans[1].end_ns >= spans[2].end_ns);
        let json = to_json("w", 3, spans);
        assert!(birds_service::Json::parse(&json).is_ok(), "{json}");
    }
}
