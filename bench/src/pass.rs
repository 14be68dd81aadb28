//! One pass of one workload over the wire: set up a `birds-serve` child
//! on a seeded data directory, warm up, drive the clients for the timed
//! window, check the database against the model, then crash the child
//! and check again after recovery.

use crate::dataset::{seed_data_dir, BenchResult, Catalogue};
use crate::gen::{Digest, Effect, ViewModel, BATCH_STATEMENTS};
use crate::server::{own_cpu_s, ServeChild, Usage};
use crate::stats;
use crate::trace::Tracer;
use crate::wire::{self, Conn};
use crate::workload::{Client, Inputs, Workload};
use birds_service::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How one pass is run.
pub struct PassConfig<'a> {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Full set-ups to perform (the last one is kept and measured on);
    /// `setup_s` is their median.
    pub setups: usize,
    /// Traced pass: the second half of the window records a span per
    /// wire round trip, and the child is left running for the ladder's
    /// TCP rung instead of being crashed.
    pub traced: bool,
    pub serve_binary: &'a Path,
    /// Server worker threads and the cap on client connections.
    pub nproc: usize,
}

/// Where a client records spans: one per write unit named `unit`
/// (queries and the parts of a batch keep their own names), for units
/// sent at or after `from`.
pub struct TraceTo<'a> {
    pub tracer: &'a mut Tracer,
    pub from: Instant,
    pub unit: &'static str,
}

/// Span name of a write unit's wire round trip in the timed window.
pub const WIRE_WRITE_UNIT: &str = "wire.write_unit";

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many units (write units; reads for a reader).
    Units(usize),
    At(Instant),
}

/// What one client did in one phase.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Round trip of each acked write unit, ns.
    pub write_ns: Vec<f64>,
    /// Round trip of each small-view query, ns.
    pub read_ns: Vec<f64>,
    /// Round trip of each full-view query, ns.
    pub scan_ns: Vec<f64>,
    /// DML statements acked.
    pub statements: u64,
    /// Operations sent (write units + queries) and those that failed,
    /// were refused, or came back wrong.
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Effects of acked statements, in ack order.
    pub acked: Vec<Effect>,
    /// From the phase's start to this client's last response.
    pub busy: Duration,
}

impl Outcome {
    fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(what);
    }
}

/// A connected client: its role, its socket, and its position in its
/// statement stream — carried from warm-up through the window into the
/// recovery tail.
pub struct ClientState {
    pub role: Client,
    conn: Conn,
    next_id: u64,
    out: String,
}

impl ClientState {
    pub fn connect(role: Client, child: &ServeChild) -> std::io::Result<ClientState> {
        Ok(ClientState {
            role,
            conn: Conn::connect(child.addr)?,
            next_id: 1,
            out: String::new(),
        })
    }

    /// The view this client writes to, if it writes.
    pub fn view(&self) -> Option<usize> {
        match &self.role {
            Client::Writer { view, .. } | Client::Batcher { view, .. } => Some(*view),
            Client::Reader { .. } => None,
        }
    }

    /// Run until `stop`, then wait for every outstanding response.
    /// `lockstep` overrides a writer's window with 1.
    pub fn run(
        &mut self,
        stop: Stop,
        lockstep: bool,
        mut trace: Option<TraceTo<'_>>,
    ) -> std::io::Result<Outcome> {
        let started = Instant::now();
        let mut outcome = Outcome::default();
        let mut units = 0usize;
        let more = |units: usize| match stop {
            Stop::Units(n) => units < n,
            Stop::At(deadline) => Instant::now() < deadline,
        };
        let ClientState {
            role,
            conn,
            next_id,
            out,
        } = self;
        match role {
            Client::Writer { stream, window, .. } => {
                let window = if lockstep { 1 } else { *window };
                let mut inflight: Vec<(u64, Instant, Effect)> = Vec::with_capacity(window);
                loop {
                    while inflight.len() < window && more(units) {
                        let statement = stream.next().expect("streams are endless");
                        out.clear();
                        wire::push_execute(out, &statement.sql, *next_id);
                        let sent = Instant::now();
                        conn.send(out)?;
                        inflight.push((*next_id, sent, statement.effect));
                        *next_id += 1;
                        units += 1;
                        outcome.attempted += 1;
                    }
                    if inflight.is_empty() {
                        break;
                    }
                    let response = conn.recv()?;
                    let now = Instant::now();
                    // Autocommit responses may overtake each other.
                    let slot = wire::response_id(response)
                        .and_then(|id| inflight.iter().position(|(sent_id, ..)| *sent_id == id));
                    let Some(slot) = slot else {
                        return Err(std::io::Error::other(format!(
                            "response to no outstanding request: {response}"
                        )));
                    };
                    let (id, sent, effect) = inflight.swap_remove(slot);
                    if wire::is_ok(response) {
                        outcome.write_ns.push((now - sent).as_nanos() as f64);
                        outcome.statements += 1;
                        outcome.acked.push(effect);
                        if let Some(to) = trace.as_mut().filter(|to| sent >= to.from) {
                            to.tracer.record(to.unit, None, id, sent, now);
                        }
                    } else {
                        let response = response.to_owned();
                        outcome.fail(|| format!("execute #{id} refused: {response}"));
                    }
                }
            }
            Client::Batcher { stream, .. } => {
                while more(units) {
                    let batch = stream.next().expect("streams are endless");
                    let batch_no = *next_id;
                    out.clear();
                    wire::push_op(out, "begin", *next_id);
                    for statement in &batch {
                        *next_id += 1;
                        wire::push_execute(out, &statement.sql, *next_id);
                    }
                    *next_id += 1;
                    wire::push_op(out, "commit", *next_id);
                    *next_id += 1;
                    units += 1;
                    outcome.attempted += 1;
                    let sent = Instant::now();
                    conn.send(out)?;
                    let flushed = Instant::now();
                    // Session ops answer in order: begin, each buffered
                    // execute, then the commit.
                    let mut refused = None;
                    for _ in 0..=batch.len() {
                        let response = conn.recv()?;
                        if !wire::is_ok(response) && refused.is_none() {
                            refused = Some(response.to_owned());
                        }
                    }
                    let buffered = Instant::now();
                    let response = conn.recv()?;
                    let committed = Instant::now();
                    let statements = wire::int_field(response, "statements");
                    if !wire::is_ok(response) || statements != Some(batch.len() as u64) {
                        refused.get_or_insert_with(|| response.to_owned());
                    }
                    match refused {
                        None => {
                            outcome.write_ns.push((committed - sent).as_nanos() as f64);
                            outcome.statements += batch.len() as u64;
                            outcome.acked.extend(batch.into_iter().map(|s| s.effect));
                        }
                        Some(response) => {
                            outcome.fail(|| format!("batch #{batch_no} refused: {response}"))
                        }
                    }
                    if let Some(to) = trace.as_mut().filter(|to| sent >= to.from) {
                        let tracer = &mut *to.tracer;
                        let parent = Some(tracer.record(to.unit, None, batch_no, sent, committed));
                        tracer.record("wire.batch.send", parent, batch_no, sent, flushed);
                        tracer.record("wire.batch.acks", parent, batch_no, flushed, buffered);
                        tracer.record("wire.batch.commit", parent, batch_no, buffered, committed);
                    }
                }
            }
            Client::Reader {
                small,
                small_rows,
                large,
            } => {
                while more(units) {
                    let scan = units % 10 == 9;
                    let id = *next_id;
                    out.clear();
                    wire::push_query(out, if scan { large } else { small }, id);
                    *next_id += 1;
                    units += 1;
                    outcome.attempted += 1;
                    let sent = Instant::now();
                    let response = conn.call(out)?;
                    let now = Instant::now();
                    let count = wire::int_field(response, "count");
                    // The small view is never written: its size is exact.
                    // The large one is being written beside us; its
                    // content is checked after the window.
                    let right = wire::is_ok(response)
                        && wire::response_id(response) == Some(id)
                        && if scan {
                            count.is_some_and(|n| n > 0)
                        } else {
                            count == Some(*small_rows)
                        };
                    if !right {
                        let head: String = response.chars().take(120).collect();
                        outcome.fail(|| format!("query #{id} wrong: {head}"));
                        continue;
                    }
                    let ns = (now - sent).as_nanos() as f64;
                    let name = if scan {
                        outcome.scan_ns.push(ns);
                        "wire.query_scan"
                    } else {
                        outcome.read_ns.push(ns);
                        "wire.query_small"
                    };
                    if let Some(to) = trace.as_mut().filter(|to| sent >= to.from) {
                        to.tracer.record(name, None, id, sent, now);
                    }
                }
            }
        }
        outcome.busy = started.elapsed();
        Ok(outcome)
    }
}

/// End-to-end numbers of one untraced pass. `None` where the workload
/// has no such operation.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: Sample,
    pub write_stmts_per_s: Sample,
    pub write_p50_us: Sample,
    pub write_tail_us: Sample,
    pub reads_per_s: Sample,
    pub read_p50_us: Sample,
    pub read_tail_us: Sample,
    pub scan_p50_us: Sample,
    pub failed_ratio: Sample,
    pub server_cpu_us_per_op: Sample,
    pub rss_peak_mb: Sample,
    pub disk_bytes_per_stmt: Sample,
    pub recovery_s: Sample,
}

/// A metric value with the number of observations behind it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    pub value: Option<f64>,
    pub n: usize,
}

impl Sample {
    pub fn new(value: f64, n: usize) -> Sample {
        Sample {
            value: Some(value),
            n,
        }
    }
}

/// Resource readings taken around and during the window.
#[derive(Debug, Clone, Default)]
pub struct Resources {
    pub server_cpu_user_s: f64,
    pub server_cpu_sys_s: f64,
    pub server_threads: f64,
    pub server_ctx_switches: f64,
    pub server_rss_mb: f64,
    pub client_cpu_s: f64,
    pub samples: usize,
}

/// Everything a pass produced.
pub struct PassResult {
    pub end_to_end: EndToEnd,
    pub resources: Resources,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle verdicts and refused operations; empty when all is well.
    pub problems: Vec<String>,
    /// The parts of `disk_bytes_per_stmt`, for the printed report.
    pub disk_note: Option<String>,
    /// Statement rates of the untraced and traced halves (traced pass).
    pub untraced_stmts_per_s: Option<f64>,
    pub traced_stmts_per_s: Option<f64>,
    /// Index probe hit ratio over the window, from the wire `stats` op.
    pub index_hit_ratio: Option<f64>,
    /// `write_p*_us` at every level `write_tail_us` may be pinned to
    /// that this run's sample supports — what `--aa` chooses from.
    pub tail_candidates: Vec<(u32, Sample)>,
    /// Spans of the traced half.
    pub tracer: Tracer,
    /// Traced pass only: the live child, its clients and the models, for
    /// the ladder's TCP rung.
    pub live: Option<Live>,
}

/// A set-up that is still running.
pub struct Live {
    pub child: ServeChild,
    pub clients: Vec<ClientState>,
    pub inputs: Inputs,
    pub models: Vec<ViewModel>,
    data_dir: ScratchDir,
}

/// A directory under `bench/out/tmp/`, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let path = crate::server::repo_root()
            .join("bench/out/tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generate, seed, spawn, recover, connect, warm up.
fn set_up(config: &PassConfig, catalogue: &Catalogue) -> BenchResult<(Live, Vec<Outcome>)> {
    let workload = config.workload;
    let inputs = workload.generate(config.seed);
    let data_dir = ScratchDir::new(workload.name())?;
    seed_data_dir(catalogue.engine(&inputs, true)?, &data_dir.0)?;
    let child = ServeChild::spawn(
        config.serve_binary,
        config.nproc,
        &data_dir.0,
        &workload.catalogue_path(),
    )?;
    let roles = workload.clients(&inputs, config.seed);
    assert!(roles.len() <= config.nproc.max(2), "at most nproc clients");
    let mut clients = roles
        .into_iter()
        .map(|role| ClientState::connect(role, &child))
        .collect::<Result<Vec<_>, _>>()?;
    let warmup = drive(
        &mut clients,
        |client| Stop::Units(workload.warmup_units(&client.role)),
        None,
        None,
    )?
    .0;
    let models = inputs.models();
    let live = Live {
        child,
        clients,
        inputs,
        models,
        data_dir,
    };
    Ok((live, warmup))
}

/// What the harness thread saw while the clients ran.
#[derive(Default)]
struct Watch {
    /// The child's `/proc` counters, every 500 ms.
    samples: Vec<Usage>,
    /// Times `snapshot.bin` was replaced: checkpoints completed.
    checkpoints: u64,
    /// When the last of them was noticed.
    last_checkpoint: Option<Instant>,
}

/// Identity of the current snapshot file (a checkpoint renames a new
/// file into place).
fn snapshot_identity(data_dir: &Path) -> Option<(u64, i64, i64)> {
    use std::os::unix::fs::MetadataExt;
    let meta = std::fs::metadata(data_dir.join(birds_wal::SNAPSHOT_FILE)).ok()?;
    Some((meta.ino(), meta.mtime(), meta.mtime_nsec()))
}

/// Run every client to `stop` on its own thread; meanwhile, for a
/// `watched` child, sample its `/proc` entry every 500 ms and count the
/// checkpoints it completes.
fn drive(
    clients: &mut [ClientState],
    stop: impl Fn(&ClientState) -> Stop,
    trace: Option<(Instant, Instant)>,
    watched: Option<(&ServeChild, &Path)>,
) -> BenchResult<(Vec<Outcome>, Vec<Tracer>, Watch)> {
    let mut watch = Watch::default();
    let results: Vec<std::io::Result<(Outcome, Tracer)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let stop = stop(client);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(trace.map_or_else(Instant::now, |t| t.0));
                    let to = trace.map(|(_, from)| TraceTo {
                        tracer: &mut tracer,
                        from,
                        unit: WIRE_WRITE_UNIT,
                    });
                    let outcome = client.run(stop, false, to)?;
                    Ok((outcome, tracer))
                })
            })
            .collect();
        let mut next_sample = Instant::now() + Duration::from_millis(500);
        let mut snapshot = watched.and_then(|(_, data_dir)| snapshot_identity(data_dir));
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(Duration::from_millis(10));
            let Some((child, data_dir)) = watched else {
                continue;
            };
            let now = snapshot_identity(data_dir);
            if now != snapshot {
                watch.checkpoints += 1;
                watch.last_checkpoint = Some(Instant::now());
                snapshot = now;
            }
            if Instant::now() >= next_sample {
                watch.samples.extend(child.usage().ok());
                next_sample += Duration::from_millis(500);
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut outcomes = Vec::new();
    let mut tracers = Vec::new();
    for result in results {
        let (outcome, tracer) = result?;
        outcomes.push(outcome);
        tracers.push(tracer);
    }
    Ok((outcomes, tracers, watch))
}

/// Fold acked effects into the models; tally attempts and failures.
fn settle(
    clients: &[ClientState],
    outcomes: &mut [Outcome],
    models: &mut [ViewModel],
    attempted: &mut u64,
    failed: &mut u64,
    problems: &mut Vec<String>,
) {
    for (client, outcome) in clients.iter().zip(outcomes) {
        if let Some(view) = client.view() {
            for effect in outcome.acked.drain(..) {
                models[view].apply(&effect);
            }
        }
        *attempted += outcome.attempted;
        *failed += outcome.failed;
        problems.extend(outcome.first_failure.take());
    }
}

/// Query every relation and compare with the model: row count and
/// order-independent checksum, views and sources alike.
pub fn verify(conn: &mut Conn, inputs: &Inputs, models: &[ViewModel], when: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut request = String::new();
    for (relation, expected) in inputs.expected(models) {
        request.clear();
        wire::push_query(&mut request, &relation, 0);
        let got = conn
            .call(&request)
            .map_err(|e| e.to_string())
            .and_then(digest_of_response);
        match got {
            Ok(got) if got == expected => {}
            Ok(got) => problems.push(format!(
                "{when}: '{relation}' holds {} rows (checksum {:016x}), expected {} ({:016x})",
                got.rows, got.sum, expected.rows, expected.sum
            )),
            Err(e) => problems.push(format!("{when}: query '{relation}': {e}")),
        }
    }
    problems
}

fn digest_of_response(response: &str) -> Result<Digest, String> {
    if !wire::is_ok(response) {
        return Err(response.chars().take(200).collect());
    }
    Ok(Digest::of(&wire::parse_rows(response)?))
}

/// Sum of index probe hits and misses over all relations (`stats` op).
fn index_probes(conn: &mut Conn) -> BenchResult<(u64, u64)> {
    let response = conn.call("{\"op\":\"stats\"}\n")?;
    let doc = Json::parse(response)?;
    let relations = doc
        .get("relations")
        .and_then(Json::as_arr)
        .ok_or("stats response without relations")?;
    let sum = |key: &str| -> u64 {
        relations
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_i64))
            .sum::<i64>() as u64
    };
    Ok((sum("index_hits"), sum("index_misses")))
}

fn percentile_us(sorted_ns: &[f64], permille: u32) -> Sample {
    match stats::percentile(sorted_ns, permille) {
        Some(ns) => Sample::new(ns / 1e3, sorted_ns.len()),
        None => Sample::default(),
    }
}

pub fn run_pass(config: &PassConfig) -> BenchResult<PassResult> {
    let workload = config.workload;
    let catalogue = Catalogue::load(workload)?;
    let mut attempted = 0;
    let mut failed = 0;
    let mut problems = Vec::new();

    // Set-up, several times over; the last one stays.
    let mut setup_times = Vec::new();
    let mut kept = None;
    for _ in 0..config.setups.max(1) {
        drop(kept.take());
        let started = Instant::now();
        let set_up = set_up(config, &catalogue)?;
        setup_times.push(started.elapsed().as_secs_f64());
        kept = Some(set_up);
    }
    let (mut live, mut warmup) = kept.expect("at least one set-up");
    settle(
        &live.clients,
        &mut warmup,
        &mut live.models,
        &mut attempted,
        &mut failed,
        &mut problems,
    );

    // The timed window. A checkpoint first, so that every window starts
    // at the same point of the 1 024-commit checkpoint cycle.
    let mut control = Conn::connect(live.child.addr)?;
    if !wire::is_ok(control.call("{\"op\":\"checkpoint\"}\n")?) {
        problems.push("checkpoint before the window refused".to_owned());
    }
    let probes_before = index_probes(&mut control)?;
    let usage_before = live.child.usage()?;
    let own_cpu_before = own_cpu_s()?;
    let window_start = Instant::now();
    let window = Duration::from_secs_f64(config.seconds);
    let trace_from = window_start + window / 2;
    let (mut outcomes, tracers, watch) = drive(
        &mut live.clients,
        |_| Stop::At(window_start + window),
        config.traced.then_some((window_start, trace_from)),
        Some((&live.child, &live.data_dir.0)),
    )?;
    let samples = watch.samples;
    let usage_after = live.child.usage()?;
    let own_cpu_after = own_cpu_s()?;
    let probes_after = index_probes(&mut control)?;

    let mut tracer = Tracer::new(window_start);
    tracers.into_iter().for_each(|t| tracer.absorb(t));

    let elapsed = outcomes
        .iter()
        .map(|o| o.busy)
        .max()
        .expect("every workload has a client")
        .as_secs_f64();
    let statements: u64 = outcomes.iter().map(|o| o.statements).sum();
    let merged = |pick: fn(&mut Outcome) -> &mut Vec<f64>, outcomes: &mut [Outcome]| {
        let mut all: Vec<f64> = outcomes
            .iter_mut()
            .flat_map(|o| std::mem::take(pick(o)))
            .collect();
        all.sort_by(f64::total_cmp);
        all
    };
    let write_ns = merged(|o| &mut o.write_ns, &mut outcomes);
    let read_ns = merged(|o| &mut o.read_ns, &mut outcomes);
    let scan_ns = merged(|o| &mut o.scan_ns, &mut outcomes);
    let reads = read_ns.len() + scan_ns.len();
    let window_attempted: u64 = outcomes.iter().map(|o| o.attempted).sum();
    let window_failed: u64 = outcomes.iter().map(|o| o.failed).sum();
    let ops = statements + reads as u64;
    let cpu_s = usage_after.cpu_s() - usage_before.cpu_s();
    let since_checkpoint = watch.last_checkpoint.map_or(elapsed, |at| {
        (window_start + Duration::from_secs_f64(elapsed))
            .saturating_duration_since(at)
            .as_secs_f64()
    });
    let window_disk = WindowDisk {
        bytes: usage_after.disk_write_bytes - usage_before.disk_write_bytes,
        checkpoints: watch.checkpoints,
        commits: write_ns.len() as u64,
        open_cycle_commits: write_ns.len() as f64 * (since_checkpoint / elapsed).min(1.0),
        statements,
    };

    // Rates of the two halves of a traced window, from the spans' side:
    // statements whose round trip ended before / started after the switch.
    let (untraced_stmts_per_s, traced_stmts_per_s) = if config.traced {
        let per_unit = match workload {
            Workload::BatchBulk => BATCH_STATEMENTS as f64,
            _ => 1.0,
        };
        let half = (window / 2).as_secs_f64();
        let traced_units = tracer
            .spans()
            .iter()
            .filter(|s| s.name == WIRE_WRITE_UNIT)
            .count() as f64;
        let all_units = write_ns.len() as f64;
        (
            Some((all_units - traced_units) * per_unit / half),
            Some(traced_units * per_unit / (elapsed - half).max(f64::EPSILON)),
        )
    } else {
        (None, None)
    };

    settle(
        &live.clients,
        &mut outcomes,
        &mut live.models,
        &mut attempted,
        &mut failed,
        &mut problems,
    );
    problems.extend(verify(
        &mut control,
        &live.inputs,
        &live.models,
        "after the timed window",
    ));

    let mut end_to_end = EndToEnd {
        setup_s: Sample::new(
            stats::median(&setup_times).expect("at least one set-up"),
            setup_times.len(),
        ),
        write_stmts_per_s: Sample::new(statements as f64 / elapsed, statements as usize),
        write_p50_us: percentile_us(&write_ns, 500),
        write_tail_us: percentile_us(&write_ns, workload.tail_permille()),
        failed_ratio: Sample::new(
            window_failed as f64 / window_attempted.max(1) as f64,
            window_attempted as usize,
        ),
        server_cpu_us_per_op: Sample::new(cpu_s * 1e6 / ops.max(1) as f64, ops as usize),
        rss_peak_mb: Sample::new(usage_after.rss_peak_mb, 1),
        ..EndToEnd::default()
    };
    if reads > 0 {
        end_to_end.reads_per_s = Sample::new(reads as f64 / elapsed, reads);
        end_to_end.read_p50_us = percentile_us(&read_ns, 500);
        end_to_end.read_tail_us = stats::supported_tails(read_ns.len())
            .next()
            .map_or_else(Sample::default, |level| percentile_us(&read_ns, level));
        end_to_end.scan_p50_us = percentile_us(&scan_ns, 500);
    }

    let rss: Vec<f64> = samples.iter().map(|u| u.rss_mb).collect();
    let resources = Resources {
        server_cpu_user_s: usage_after.cpu_user_s - usage_before.cpu_user_s,
        server_cpu_sys_s: usage_after.cpu_sys_s - usage_before.cpu_sys_s,
        server_threads: samples
            .iter()
            .map(|u| u.threads)
            .max()
            .unwrap_or(usage_after.threads) as f64,
        server_ctx_switches: (usage_after.ctx_switches - usage_before.ctx_switches) as f64,
        server_rss_mb: stats::median(&rss).unwrap_or(usage_after.rss_mb),
        client_cpu_s: own_cpu_after - own_cpu_before,
        samples: samples.len(),
    };
    let probes = (
        probes_after.0 - probes_before.0,
        probes_after.1 - probes_before.1,
    );
    let index_hit_ratio =
        (probes.0 + probes.1 > 0).then(|| probes.0 as f64 / (probes.0 + probes.1) as f64);

    let mut result = PassResult {
        end_to_end,
        resources,
        attempted,
        failed,
        problems,
        disk_note: None,
        untraced_stmts_per_s,
        traced_stmts_per_s,
        index_hit_ratio,
        tail_candidates: stats::supported_tails(write_ns.len())
            .map(|level| (level, percentile_us(&write_ns, level)))
            .collect(),
        tracer,
        live: None,
    };
    if config.traced {
        result.live = Some(live);
    } else {
        crash_and_recover(config, live, control, window_disk, &mut result)?;
    }
    Ok(result)
}

/// SIGKILL-and-restart rounds per run; `recovery_s` is their median.
const RECOVERIES: usize = 9;

/// Commits between automatic checkpoints: `birds-serve`'s default
/// `--checkpoint-every`, the flush policy this benchmark runs under.
const CHECKPOINT_EVERY: f64 = 1024.0;

/// What the child wrote during the window.
struct WindowDisk {
    /// `write_bytes` delta.
    bytes: u64,
    /// Checkpoints completed.
    checkpoints: u64,
    /// Acked commits (write units) and the statements in them.
    commits: u64,
    statements: u64,
    /// Commits since the last completed checkpoint (since the window's
    /// start if there was none), estimated from when it was noticed.
    open_cycle_commits: f64,
}

impl WindowDisk {
    /// Bytes written per statement, charging the window for the part of
    /// a checkpoint cycle it left open (`open_cycle_commits / 1024` of
    /// `checkpoint_bytes`, what the post-window `checkpoint` wrote).
    /// The window starts right after a checkpoint, so without this a
    /// window of 900 commits would report the WAL alone and one of
    /// 1 100 a 10 MB snapshot on top — a jump that says nothing about
    /// the server. With many checkpoints per window the correction
    /// vanishes.
    fn bytes_per_statement(&self, checkpoint_bytes: u64) -> f64 {
        let owed = checkpoint_bytes as f64 * (self.open_cycle_commits / CHECKPOINT_EVERY).min(1.0);
        (self.bytes as f64 + owed) / self.statements.max(1) as f64
    }
}

/// `checkpoint`, a fixed tail of lockstep commits, SIGKILL, restart on
/// the same directory, first answered query, and the oracle again.
fn crash_and_recover(
    config: &PassConfig,
    live: Live,
    mut control: Conn,
    window_disk: WindowDisk,
    result: &mut PassResult,
) -> BenchResult<()> {
    let Live {
        child,
        mut clients,
        inputs,
        mut models,
        data_dir,
    } = live;
    let workload = config.workload;
    let written_before = child.usage()?.disk_write_bytes;
    let response = control.call("{\"op\":\"checkpoint\"}\n")?;
    if !wire::is_ok(response) {
        result
            .problems
            .push(format!("checkpoint refused: {response}"));
    }
    let checkpoint_bytes = child.usage()?.disk_write_bytes - written_before;
    result.end_to_end.disk_bytes_per_stmt = Sample::new(
        window_disk.bytes_per_statement(checkpoint_bytes),
        window_disk.statements as usize,
    );
    result.disk_note = Some(format!(
        "disk: {} bytes in the window over {} commits and {} checkpoints, {:.0} commits into the \
         next cycle; one checkpoint writes {} bytes",
        window_disk.bytes,
        window_disk.commits,
        window_disk.checkpoints,
        window_disk.open_cycle_commits,
        checkpoint_bytes
    ));
    let writer = clients
        .iter_mut()
        .find(|c| c.view().is_some())
        .expect("every workload writes");
    let view = writer.view().expect("a writer");
    let mut tail = writer.run(Stop::Units(workload.recovery_tail_units()), true, None)?;
    for effect in tail.acked.drain(..) {
        models[view].apply(&effect);
    }
    result.attempted += tail.attempted;
    result.failed += tail.failed;
    result.problems.extend(tail.first_failure.take());
    drop((clients, control));
    child.kill()?;

    // Crash and recover several times — the directory is not written
    // between crashes, so each recovery does the same work — and report
    // the median; the oracle runs on the first recovered state.
    let mut recoveries = Vec::with_capacity(RECOVERIES);
    let mut request = String::new();
    wire::push_query(&mut request, &inputs.views[0].name, 0);
    let mut child = None;
    for round in 0..RECOVERIES {
        if let Some(previous) = child.take() {
            ServeChild::kill(previous)?;
        }
        let restarted = Instant::now();
        let recovered = ServeChild::spawn(
            config.serve_binary,
            config.nproc,
            &data_dir.0,
            &workload.catalogue_path(),
        )?;
        let mut conn = Conn::connect(recovered.addr)?;
        let answered = wire::is_ok(conn.call(&request)?);
        recoveries.push(restarted.elapsed().as_secs_f64());
        if !answered {
            result
                .problems
                .push("first query after recovery was refused".to_owned());
        }
        if round == 0 {
            result.problems.extend(verify(
                &mut conn,
                &inputs,
                &models,
                "after SIGKILL and recovery",
            ));
        }
        child = Some(recovered);
    }
    result.end_to_end.recovery_s = Sample::new(
        stats::median(&recoveries).expect("at least one recovery"),
        recoveries.len(),
    );
    let child = child.expect("at least one recovery");
    child.kill()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_bytes_do_not_jump_with_the_checkpoint_count() {
        let checkpoint = 10_000_000;
        let wal = 4_096;
        // 900 commits and no checkpoint, 1 100 commits and one: the same
        // server, so the same number.
        let short = WindowDisk {
            bytes: 900 * wal,
            checkpoints: 0,
            commits: 900,
            open_cycle_commits: 900.0,
            statements: 900,
        };
        let long = WindowDisk {
            bytes: 1_100 * wal + checkpoint,
            checkpoints: 1,
            commits: 1_100,
            open_cycle_commits: 76.0,
            statements: 1_100,
        };
        let expected = wal as f64 + checkpoint as f64 / 1024.0;
        assert!((short.bytes_per_statement(checkpoint) - expected).abs() < 1e-6);
        assert!((long.bytes_per_statement(checkpoint) - expected).abs() < 1e-6);
        // A batch is one commit of many statements.
        let batches = WindowDisk {
            bytes: 100 * 25_000,
            checkpoints: 0,
            commits: 100,
            open_cycle_commits: 100.0,
            statements: 100_000,
        };
        let expected = 25.0 + checkpoint as f64 / 1024.0 / 1000.0;
        assert!((batches.bytes_per_statement(checkpoint) - expected).abs() < 1e-6);
    }
}
