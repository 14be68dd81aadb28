//! The service-layer throughput experiment: batched versus per-statement
//! update application, and write throughput under concurrent clients.
//!
//! The paper's Figure 6 measures the latency of *one* view-update
//! transaction. A service facing heavy write traffic cares about a
//! different number: statements per second when updates arrive in bulk.
//! Per-statement application pays one strategy evaluation (plus one
//! exclusive-lock acquisition) per statement; a session batch coalesces
//! the statements into one net view delta and pays the evaluation once.
//! The gap between those two is what this module measures, on the
//! `luxuryitems` corpus strategy (selection, with a domain constraint)
//! in incremental mode.
//!
//! Scenarios:
//!
//! * **batch-vs-statement sweep** — one client, k statements (fresh-id
//!   inserts and deletes of earlier inserts, 4:1): wall time to apply
//!   them one autocommit transaction at a time versus as one batch.
//!   The CI-facing claim (`BENCH_throughput.json`, acceptance ≥3× at
//!   10k) comes from this sweep.
//! * **thread scaling** — n clients each committing fixed-size batches
//!   concurrently *on one shared view*: aggregate statements/second as n
//!   grows. All clients hit the same footprint shard, so their commits
//!   serialize — the flat curve this sweep records is the contended
//!   baseline the disjoint sweep is measured against.
//! * **disjoint thread scaling** — n autocommit clients × n disjoint
//!   views (one luxuryitems-style selection per client, each over its
//!   own base table). Every client owns a footprint shard, so commits
//!   never contend; with a fixed group-commit epoch window, the epoch
//!   waits of concurrent clients overlap while only the evaluations
//!   serialize on the CPU — aggregate throughput scales with offered
//!   concurrency (and with cores, on multicore hardware). This is the
//!   sweep the CI `bench_gate` thread-scaling check replays.
//! * **group-commit coalescing** — n autocommit clients on *one* shared
//!   view: the shard's epoch leader coalesces every transaction queued
//!   in the window into one net delta per view, so per-statement
//!   evaluation cost is amortized across clients — batch-level
//!   throughput for clients that never call `begin`/`commit`.

use crate::figure6::Figure6View;
use birds_core::UpdateStrategy;
use birds_datalog::parse_program;
use birds_engine::{Engine, StrategyMode};
use birds_service::{DurabilityConfig, ExecOutcome, Service, ServiceConfig};
use birds_store::{Database, DatabaseSchema, Schema, SortKind};
use birds_wal::FsyncPolicy;
use std::time::{Duration, Instant};

/// The corpus view the throughput experiment runs on.
pub const VIEW: Figure6View = Figure6View::Luxuryitems;

/// One client's statement stream: `count` statements targeting ids in a
/// window private to `client`. Four fresh-id inserts (price 4999 — in
/// the view) then one delete of the id inserted four statements earlier,
/// repeating; every statement survives coalescing *except* the deletes,
/// which cancel a pending insert — so the batch path also exercises
/// net-delta cancellation, not just bulk insertion.
pub fn statement_stream(base_size: usize, client: usize, count: usize) -> Vec<String> {
    statement_stream_for("luxuryitems", base_size, client, count)
}

/// [`statement_stream`] against an arbitrary luxuryitems-shaped view.
pub fn statement_stream_for(
    view: &str,
    base_size: usize,
    client: usize,
    count: usize,
) -> Vec<String> {
    let window = base_size as i64 + 10 + (client as i64) * (count as i64 + 10);
    let mut scripts = Vec::with_capacity(count);
    let mut next_id = window;
    for i in 0..count {
        if i % 5 == 4 {
            // Delete the id inserted 4 statements ago (still pending in
            // a batch; already applied in autocommit).
            scripts.push(format!("DELETE FROM {view} WHERE id = {};", next_id - 4));
        } else {
            scripts.push(format!("INSERT INTO {view} VALUES ({next_id}, 4999);"));
            next_id += 1;
        }
    }
    scripts
}

/// Build an engine with `views` *disjoint* luxuryitems-style selections:
/// view `lux{i}` (price > 1000, with the domain constraint) over its own
/// base table `items{i}`. Footprints are pairwise disjoint, so the
/// service shards them into `views` independent components (plus the
/// usual per-component singletons — here there are none).
pub fn disjoint_engine(base_size: usize, views: usize) -> Engine {
    let mut db = Database::new();
    for i in 0..views {
        let items = crate::datagen::items_database(base_size)
            .into_relations()
            .next()
            .expect("items_database has one relation")
            .renamed(format!("items{i}"));
        db.add_relation(items).expect("fresh database");
    }
    let mut engine = Engine::new(db);
    for i in 0..views {
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new(
                format!("items{i}"),
                vec![("id", SortKind::Int), ("price", SortKind::Int)],
            )),
            Schema::new(
                format!("lux{i}"),
                vec![("id", SortKind::Int), ("price", SortKind::Int)],
            ),
            &format!(
                "
                false :- lux{i}(I, P), not P > 1000.
                +items{i}(I, P) :- lux{i}(I, P), not items{i}(I, P).
                expensive{i}(I, P) :- items{i}(I, P), P > 1000.
                -items{i}(I, P) :- expensive{i}(I, P), not lux{i}(I, P).
                "
            ),
            None,
        )
        .expect("disjoint strategy parses");
        let get = parse_program(&format!("lux{i}(I, P) :- items{i}(I, P), P > 1000."))
            .expect("disjoint get parses");
        engine
            .register_view_unchecked(strategy, get, StrategyMode::Incremental)
            .expect("disjoint view registers");
    }
    engine
}

/// One point of the batch-vs-statement sweep.
#[derive(Debug, Clone)]
pub struct BatchPoint {
    /// Statements in the batch.
    pub statements: usize,
    /// Wall time applying them one autocommit transaction each.
    pub per_statement: Duration,
    /// Wall time applying them as one session batch (buffer + commit).
    pub batched: Duration,
}

impl BatchPoint {
    /// How many times faster the batched path is.
    pub fn speedup(&self) -> f64 {
        self.per_statement.as_secs_f64() / self.batched.as_secs_f64().max(1e-12)
    }
}

/// Measure the batch-vs-statement sweep at `base_size` for each batch
/// size. Every measurement runs on a fresh service so earlier batches
/// don't shift the base-table sizes.
pub fn batch_sweep(base_size: usize, batch_sizes: &[usize]) -> Vec<BatchPoint> {
    batch_sizes
        .iter()
        .map(|&count| {
            let scripts = statement_stream(base_size, 0, count);

            let service = Service::new(VIEW.engine(base_size, StrategyMode::Incremental));
            let mut session = service.session();
            let t = Instant::now();
            for script in &scripts {
                let outcome = session.execute(script).expect("autocommit applies");
                debug_assert!(matches!(outcome, ExecOutcome::Applied(_)));
            }
            let per_statement = t.elapsed();

            let service = Service::new(VIEW.engine(base_size, StrategyMode::Incremental));
            let mut session = service.session();
            let t = Instant::now();
            session.begin().expect("fresh session");
            for script in &scripts {
                session.execute(script).expect("buffering cannot fail");
            }
            session.commit().expect("batch applies");
            let batched = t.elapsed();

            BatchPoint {
                statements: count,
                per_statement,
                batched,
            }
        })
        .collect()
}

/// One point of a client-scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Concurrent client threads.
    pub threads: usize,
    /// Total statements applied across all threads.
    pub total_statements: usize,
    /// Wall time from first statement to last commit.
    pub elapsed: Duration,
}

impl ScalePoint {
    /// Aggregate applied statements per second.
    pub fn statements_per_sec(&self) -> f64 {
        self.total_statements as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// Measure aggregate autocommit throughput with `n` clients on `n`
/// *disjoint* views (client `i` owns view `lux{i}` and its footprint
/// shard), for each `n` in `clients_list`. Each client issues
/// `per_client` single-statement autocommit transactions through the
/// group committer with the given epoch `window`. Commits never contend
/// (disjoint footprints); the epoch waits of concurrent clients overlap,
/// so aggregate statements/sec scales with the client count — and with
/// cores, where the evaluations themselves parallelize.
pub fn disjoint_scaling(
    base_size: usize,
    clients_list: &[usize],
    per_client: usize,
    window: Duration,
) -> Vec<ScalePoint> {
    clients_list
        .iter()
        .map(|&clients| {
            let service = Service::with_config(
                disjoint_engine(base_size, clients),
                ServiceConfig {
                    epoch_window: window,
                },
            );
            assert_eq!(
                service.shard_count(),
                clients,
                "disjoint views must shard 1:1"
            );
            run_autocommit_clients(&service, clients, |client| {
                statement_stream_for(&format!("lux{client}"), base_size, 0, per_client)
            })
        })
        .collect()
}

/// Measure aggregate autocommit throughput with `n` clients all hitting
/// *one* shared view, for each `n` in `clients_list`: every transaction
/// funnels through the same shard's group committer, whose epoch leader
/// coalesces whatever queued during the `window` into one net delta —
/// per-statement evaluation cost amortized across clients.
pub fn group_commit_scaling(
    base_size: usize,
    clients_list: &[usize],
    per_client: usize,
    window: Duration,
) -> Vec<ScalePoint> {
    clients_list
        .iter()
        .map(|&clients| {
            let service = Service::with_config(
                VIEW.engine(base_size, StrategyMode::Incremental),
                ServiceConfig {
                    epoch_window: window,
                },
            );
            run_autocommit_clients(&service, clients, |client| {
                statement_stream(base_size, client, per_client)
            })
        })
        .collect()
}

/// One point of the durability-overhead sweep: the same workload under
/// one persistence mode.
#[derive(Debug, Clone)]
pub struct DurabilityPoint {
    /// `"in-memory"`, `"wal-epoch"`, `"wal-always"` or `"wal-off"`.
    pub mode: &'static str,
    /// Statements applied.
    pub total_statements: usize,
    /// Wall time, first statement to last commit.
    pub elapsed: Duration,
}

impl DurabilityPoint {
    /// Applied statements per second.
    pub fn statements_per_sec(&self) -> f64 {
        self.total_statements as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// The persistence modes the durability sweep compares.
const DURABILITY_MODES: [(&str, Option<FsyncPolicy>); 4] = [
    ("in-memory", None),
    ("wal-epoch", Some(FsyncPolicy::Epoch)),
    ("wal-always", Some(FsyncPolicy::Always)),
    ("wal-off", Some(FsyncPolicy::Off)),
];

fn durability_service(base_size: usize, fsync: Option<FsyncPolicy>, tag: &str) -> Service {
    let engine = VIEW.engine(base_size, StrategyMode::Incremental);
    match fsync {
        None => Service::new(engine),
        Some(fsync) => {
            // Keyed by pid AND thread so parallel tests in one process
            // (cargo test) never share a live WAL directory.
            let dir = std::env::temp_dir().join(format!(
                "birds-throughput-dur-{tag}-{fsync}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut durability = DurabilityConfig::new(&dir);
            durability.fsync = fsync;
            durability.checkpoint_every = None; // measure pure WAL cost
            Service::open(engine, ServiceConfig::default(), durability)
                .expect("fresh data dir opens")
        }
    }
}

fn cleanup_durability_service(service: Service) {
    if let Some(dir) = service.data_dir().map(std::path::Path::to_path_buf) {
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// WAL overhead on the **batched** write path (the production shape:
/// one record append + one fsync per multi-statement commit, so the
/// durability cost is amortized across the batch): `commits` session
/// batches of `batch` statements each, one client, measured under every
/// persistence mode. This is the sweep the CI `bench_gate` durability
/// check replays — WAL-on must stay within the gate factor of the
/// in-memory baseline.
pub fn durability_batched_sweep(
    base_size: usize,
    commits: usize,
    batch: usize,
) -> Vec<DurabilityPoint> {
    DURABILITY_MODES
        .iter()
        .map(|(mode, fsync)| {
            let service = durability_service(base_size, *fsync, "batched");
            let mut session = service.session();
            let t = Instant::now();
            for commit in 0..commits {
                let scripts = statement_stream(base_size, commit, batch);
                session.begin().expect("no open batch");
                for script in &scripts {
                    session.execute(script).expect("buffering cannot fail");
                }
                session.commit().expect("batch applies");
            }
            let elapsed = t.elapsed();
            drop(session);
            cleanup_durability_service(service);
            DurabilityPoint {
                mode,
                total_statements: commits * batch,
                elapsed,
            }
        })
        .collect()
}

/// WAL overhead on the **single-statement autocommit** path — the worst
/// case for durability (every statement is its own epoch, so `always`
/// and `epoch` pay one fsync per statement). Reported in the JSON for
/// honesty but not gated: the absolute ratio is hardware-bound (fsync
/// latency vs an in-memory evaluation), not code-regression-bound.
pub fn durability_autocommit_sweep(base_size: usize, count: usize) -> Vec<DurabilityPoint> {
    DURABILITY_MODES
        .iter()
        .map(|(mode, fsync)| {
            let service = durability_service(base_size, *fsync, "autocommit");
            let mut session = service.session();
            let scripts = statement_stream(base_size, 0, count);
            let t = Instant::now();
            for script in &scripts {
                session.execute(script).expect("autocommit applies");
            }
            let elapsed = t.elapsed();
            drop(session);
            cleanup_durability_service(service);
            DurabilityPoint {
                mode,
                total_statements: count,
                elapsed,
            }
        })
        .collect()
}

/// One point of the reader/writer-interference sweep: latency
/// percentiles of the lock-free MVCC [`Service::query`] under `writers`
/// concurrent batch-committing writers.
#[derive(Debug, Clone)]
pub struct InterferencePoint {
    /// Concurrent writer threads churning the queried view's shard.
    pub writers: usize,
    /// Latency samples taken.
    pub reads: usize,
    /// MVCC query latency, median.
    pub mvcc_p50: Duration,
    /// MVCC query latency, 99th percentile.
    pub mvcc_p99: Duration,
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Measure query latency on the throughput view at each writer count in
/// `writer_counts` (0 = idle baseline): `writers` threads commit
/// *batches* against the view back to back — every commit lands on the
/// *same* footprint shard the reader queries and holds its write lock
/// for the whole multi-statement delta application, the worst case for
/// reader/writer interference — while the main thread samples `reads`
/// latencies of the MVCC [`Service::query`]. Batches alternate between inserting a block of fresh ids and
/// deleting it again, so the view's size stays bounded: loaded reads
/// sort (nearly) the same data as idle ones, and the ratio measures
/// interference, not growth. The CI `bench_gate
/// --read-interference-gate` replays this sweep and asserts the MVCC
/// p50 under writer load stays within the gate factor of the idle MVCC
/// p50: "readers never wait for writers", as a number.
pub fn read_interference_sweep(
    base_size: usize,
    writer_counts: &[usize],
    reads: usize,
) -> Vec<InterferencePoint> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let view = VIEW.name();
    writer_counts
        .iter()
        .map(|&writers| {
            let service = Service::new(VIEW.engine(base_size, StrategyMode::Incremental));
            let stop = Arc::new(AtomicBool::new(false));
            let handles: Vec<_> = (0..writers)
                .map(|w| {
                    let service = service.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        // Batch size tuned so each commit holds the
                        // shard's write lock for a macroscopic stretch —
                        // lock-free reads must not queue behind it. (A
                        // net-zero batch would
                        // coalesce to an empty delta and skip the lock
                        // work entirely, hence insert/delete alternate
                        // between commits.)
                        const BATCH: i64 = 64;
                        let mut session = service.session();
                        // Fresh id blocks per writer, far above the
                        // seeded range and each other's windows.
                        let mut id = base_size as i64 + 1_000_000 * (w as i64 + 1);
                        while !stop.load(Ordering::Relaxed) {
                            for delete in [false, true] {
                                session.begin().expect("batch opens");
                                for k in 0..BATCH {
                                    let stmt = if delete {
                                        format!("DELETE FROM luxuryitems WHERE id = {};", id + k)
                                    } else {
                                        format!(
                                            "INSERT INTO luxuryitems VALUES ({}, 4999);",
                                            id + k
                                        )
                                    };
                                    session.execute(&stmt).expect("statement buffers");
                                }
                                session.commit().expect("batch commits");
                            }
                            id += BATCH;
                        }
                    })
                })
                .collect();
            let read = || service.query(view).expect("view is queryable").len();
            // Warm-up reads are discarded (first-touch effects).
            for _ in 0..reads / 10 {
                read();
            }
            let mut mvcc = Vec::with_capacity(reads);
            for _ in 0..reads {
                let t = Instant::now();
                let n = read();
                mvcc.push(t.elapsed());
                assert!(n >= 1, "query returned the seeded view");
            }
            mvcc.sort();
            stop.store(true, Ordering::Relaxed);
            for h in handles {
                h.join().expect("writer thread");
            }
            InterferencePoint {
                writers,
                reads,
                mvcc_p50: percentile(&mvcc, 0.50),
                mvcc_p99: percentile(&mvcc, 0.99),
            }
        })
        .collect()
}

/// Drive `clients` concurrent autocommit sessions, each over its own
/// statement stream, and time first statement to last commit.
fn run_autocommit_clients(
    service: &Service,
    clients: usize,
    stream_for: impl Fn(usize) -> Vec<String>,
) -> ScalePoint {
    let streams: Vec<Vec<String>> = (0..clients).map(&stream_for).collect();
    let total_statements: usize = streams.iter().map(Vec::len).sum();
    let t = Instant::now();
    let handles: Vec<_> = streams
        .into_iter()
        .map(|scripts| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for script in &scripts {
                    let outcome = session.execute(script).expect("autocommit applies");
                    debug_assert!(matches!(outcome, ExecOutcome::Applied(_)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    ScalePoint {
        threads: clients,
        total_statements,
        elapsed: t.elapsed(),
    }
}

/// Render the measurements as the `BENCH_throughput.json` document.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    label: &str,
    base_size: usize,
    batch_points: &[BatchPoint],
    disjoint_points: &[ScalePoint],
    coalescing_points: &[ScalePoint],
    durability_batched: &[DurabilityPoint],
    durability_autocommit: &[DurabilityPoint],
    read_interference: &[InterferencePoint],
    connection_points: &[crate::connection::ConnectionPoint],
    epoch_window: Duration,
) -> birds_service::Json {
    use birds_service::Json;
    let round = |ms: f64| (ms * 1000.0).round() / 1000.0;
    let batch_json: Vec<Json> = batch_points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("statements".to_owned(), Json::Int(p.statements as i64)),
                (
                    "per_statement_ms".to_owned(),
                    Json::Float(round(p.per_statement.as_secs_f64() * 1e3)),
                ),
                (
                    "batched_ms".to_owned(),
                    Json::Float(round(p.batched.as_secs_f64() * 1e3)),
                ),
                (
                    "speedup".to_owned(),
                    Json::Float((p.speedup() * 10.0).round() / 10.0),
                ),
            ])
        })
        .collect();
    let scale_json = |points: &[ScalePoint]| -> Vec<Json> {
        let base_rate = points
            .first()
            .map(ScalePoint::statements_per_sec)
            .unwrap_or(0.0);
        points
            .iter()
            .map(|p| {
                Json::Obj(vec![
                    ("threads".to_owned(), Json::Int(p.threads as i64)),
                    (
                        "total_statements".to_owned(),
                        Json::Int(p.total_statements as i64),
                    ),
                    (
                        "elapsed_ms".to_owned(),
                        Json::Float(round(p.elapsed.as_secs_f64() * 1e3)),
                    ),
                    (
                        "statements_per_sec".to_owned(),
                        Json::Float(p.statements_per_sec().round()),
                    ),
                    (
                        "scaling_vs_1_client".to_owned(),
                        Json::Float(
                            ((p.statements_per_sec() / base_rate.max(1e-9)) * 100.0).round()
                                / 100.0,
                        ),
                    ),
                ])
            })
            .collect()
    };
    Json::Obj(vec![
        ("benchmark".to_owned(), Json::str("throughput")),
        ("view".to_owned(), Json::str(VIEW.name())),
        ("mode".to_owned(), Json::str("incremental")),
        ("base_size".to_owned(), Json::Int(base_size as i64)),
        (
            "epoch_window_us".to_owned(),
            Json::Int(epoch_window.as_micros() as i64),
        ),
        ("label".to_owned(), Json::str(label)),
        (
            "note".to_owned(),
            Json::str(
                "Service-layer write throughput on the luxuryitems corpus strategy. \
                 batch_vs_statement: wall time for k statements applied as k autocommit \
                 transactions vs one coalesced session batch (one incremental pass). \
                 disjoint_thread_scaling: n \
                 autocommit clients x n disjoint views, one footprint shard per \
                 client, group-commit epoch window as configured — epoch waits \
                 overlap across shards and evaluations parallelize across cores, so \
                 aggregate stmts/sec scales with client count (scaling_vs_1_client is \
                 the gated ratio). group_commit_scaling: n autocommit clients on ONE \
                 shared view — the epoch leader coalesces concurrent transactions \
                 into one net delta, amortizing evaluation across clients.",
            ),
        ),
        ("batch_vs_statement".to_owned(), Json::Arr(batch_json)),
        (
            "disjoint_thread_scaling".to_owned(),
            Json::Arr(scale_json(disjoint_points)),
        ),
        (
            "group_commit_scaling".to_owned(),
            Json::Arr(scale_json(coalescing_points)),
        ),
        (
            "durability".to_owned(),
            Json::Obj(vec![
                (
                    "note".to_owned(),
                    Json::str(
                        "WAL overhead vs the in-memory baseline on the same single-client \
                         workload. batched: session batches (one record append + one fsync \
                         per commit — the amortized production path; overhead_vs_in_memory \
                         on wal-epoch is the CI-gated ratio). autocommit: one statement \
                         per transaction, the worst case (one fsync per statement under \
                         always/epoch; reported, not gated).",
                    ),
                ),
                (
                    "batched".to_owned(),
                    Json::Arr(durability_json(durability_batched)),
                ),
                (
                    "autocommit".to_owned(),
                    Json::Arr(durability_json(durability_autocommit)),
                ),
            ]),
        ),
        (
            "read_interference".to_owned(),
            Json::Obj(vec![
                (
                    "note".to_owned(),
                    Json::str(
                        "Query latency on the throughput view under n concurrent writers \
                         hitting the SAME shard (0 = idle baseline). mvcc: the lock-free \
                         snapshot read path (Service::query) — its p50 under load within \
                         the gate factor of its idle p50 is the CI-gated claim (bench_gate \
                         --read-interference-gate): readers never wait for writers. p99 is \
                         recorded but not gated: on an oversubscribed runner tail latency \
                         measures CPU scheduling, not lock behaviour.",
                    ),
                ),
                (
                    "points".to_owned(),
                    Json::Arr(interference_json(read_interference)),
                ),
            ]),
        ),
        (
            "connection_scaling".to_owned(),
            crate::connection::connection_json(connection_points),
        ),
    ])
}

/// Render the reader/writer-interference sweep (latencies in µs).
fn interference_json(points: &[InterferencePoint]) -> Vec<birds_service::Json> {
    use birds_service::Json;
    let us = |d: Duration| (d.as_secs_f64() * 1e8).round() / 100.0;
    points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                ("writers".to_owned(), Json::Int(p.writers as i64)),
                ("reads".to_owned(), Json::Int(p.reads as i64)),
                ("mvcc_p50_us".to_owned(), Json::Float(us(p.mvcc_p50))),
                ("mvcc_p99_us".to_owned(), Json::Float(us(p.mvcc_p99))),
            ])
        })
        .collect()
}

/// Render one durability sweep, tagging each WAL mode with its overhead
/// relative to the sweep's in-memory point.
fn durability_json(points: &[DurabilityPoint]) -> Vec<birds_service::Json> {
    use birds_service::Json;
    let round = |x: f64| (x * 100.0).round() / 100.0;
    let baseline = points
        .iter()
        .find(|p| p.mode == "in-memory")
        .map(DurabilityPoint::statements_per_sec)
        .unwrap_or(0.0);
    points
        .iter()
        .map(|p| {
            let rate = p.statements_per_sec();
            Json::Obj(vec![
                ("mode".to_owned(), Json::str(p.mode)),
                (
                    "total_statements".to_owned(),
                    Json::Int(p.total_statements as i64),
                ),
                (
                    "elapsed_ms".to_owned(),
                    Json::Float(round(p.elapsed.as_secs_f64() * 1e3)),
                ),
                ("statements_per_sec".to_owned(), Json::Float(rate.round())),
                (
                    "overhead_vs_in_memory".to_owned(),
                    Json::Float(round(baseline / rate.max(1e-9))),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statement_streams_are_disjoint_across_clients() {
        let a = statement_stream(100, 0, 50);
        let b = statement_stream(100, 1, 50);
        let ids = |scripts: &[String]| -> Vec<String> {
            scripts
                .iter()
                .filter_map(|s| {
                    s.strip_prefix("INSERT INTO luxuryitems VALUES (")
                        .map(|rest| rest.split(',').next().unwrap().to_owned())
                })
                .collect()
        };
        let (ia, ib) = (ids(&a), ids(&b));
        assert!(ia.iter().all(|i| !ib.contains(i)));
    }

    #[test]
    fn batched_and_per_statement_agree_on_final_state() {
        let scripts = statement_stream(200, 0, 60);

        let per = Service::new(VIEW.engine(200, StrategyMode::Incremental));
        let mut session = per.session();
        for s in &scripts {
            session.execute(s).unwrap();
        }
        drop(session);

        let bat = Service::new(VIEW.engine(200, StrategyMode::Incremental));
        let mut session = bat.session();
        session.begin().unwrap();
        for s in &scripts {
            session.execute(s).unwrap();
        }
        let outcome = session.commit().unwrap();
        assert!(outcome.stats.view_delta_size > 0);
        drop(session);

        let per = per.into_engine().ok().unwrap();
        let bat = bat.into_engine().ok().unwrap();
        assert!(
            per.database().same_contents(bat.database()),
            "batched application must equal per-statement application"
        );
    }

    #[test]
    fn sweep_smoke() {
        let points = batch_sweep(300, &[40]);
        assert_eq!(points.len(), 1);
        assert!(points[0].per_statement > Duration::ZERO);
        assert!(points[0].batched > Duration::ZERO);
    }

    #[test]
    fn durability_sweeps_cover_every_mode() {
        let points = durability_batched_sweep(150, 2, 15);
        let modes: Vec<&str> = points.iter().map(|p| p.mode).collect();
        assert_eq!(
            modes,
            vec!["in-memory", "wal-epoch", "wal-always", "wal-off"]
        );
        assert!(points.iter().all(|p| p.total_statements == 30));
        assert!(points.iter().all(|p| p.statements_per_sec() > 0.0));
        let auto = durability_autocommit_sweep(150, 10);
        assert_eq!(auto.len(), 4);
        assert!(auto.iter().all(|p| p.total_statements == 10));
    }

    #[test]
    fn json_document_shape() {
        let batch = batch_sweep(300, &[30]);
        let disjoint = disjoint_scaling(100, &[1, 2], 10, Duration::from_micros(50));
        let coalescing = group_commit_scaling(100, &[2], 10, Duration::from_micros(50));
        let dur_batched = durability_batched_sweep(100, 2, 10);
        let dur_auto = durability_autocommit_sweep(100, 8);
        let interference = read_interference_sweep(100, &[0, 1], 20);
        let connection = vec![crate::connection::ConnectionPoint {
            idle_conns: 1000,
            active_conns: 8,
            requests_per_conn: 100,
            p50: Duration::from_micros(150),
            p99: Duration::from_micros(800),
            workers: 2,
            server_threads: 4,
            vm_rss_kb: 15_000,
            vm_hwm_kb: 16_000,
        }];
        let doc = to_json(
            "test",
            300,
            &batch,
            &disjoint,
            &coalescing,
            &dur_batched,
            &dur_auto,
            &interference,
            &connection,
            Duration::from_micros(50),
        );
        let rendered = doc.to_pretty();
        let parsed = birds_service::Json::parse(&rendered).unwrap();
        assert_eq!(
            parsed
                .get("benchmark")
                .and_then(birds_service::Json::as_str),
            Some("throughput")
        );
        assert_eq!(
            parsed
                .get("batch_vs_statement")
                .and_then(birds_service::Json::as_arr)
                .map(<[birds_service::Json]>::len),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("disjoint_thread_scaling")
                .and_then(birds_service::Json::as_arr)
                .map(<[birds_service::Json]>::len),
            Some(2)
        );
        assert_eq!(
            parsed
                .get("epoch_window_us")
                .and_then(birds_service::Json::as_i64),
            Some(50)
        );
        let point = &parsed
            .get("disjoint_thread_scaling")
            .and_then(birds_service::Json::as_arr)
            .unwrap()[0];
        assert_eq!(
            point
                .get("scaling_vs_1_client")
                .and_then(birds_service::Json::as_f64),
            Some(1.0)
        );
        let durability = parsed.get("durability").unwrap();
        let batched = durability
            .get("batched")
            .and_then(birds_service::Json::as_arr)
            .unwrap();
        assert_eq!(batched.len(), 4);
        assert_eq!(
            batched[0].get("mode").and_then(birds_service::Json::as_str),
            Some("in-memory")
        );
        assert_eq!(
            batched[0]
                .get("overhead_vs_in_memory")
                .and_then(birds_service::Json::as_f64),
            Some(1.0)
        );
        assert_eq!(
            durability
                .get("autocommit")
                .and_then(birds_service::Json::as_arr)
                .map(<[birds_service::Json]>::len),
            Some(4)
        );
        let interference_points = parsed
            .get("read_interference")
            .and_then(|s| s.get("points"))
            .and_then(birds_service::Json::as_arr)
            .unwrap();
        assert_eq!(interference_points.len(), 2);
        assert_eq!(
            interference_points[0]
                .get("writers")
                .and_then(birds_service::Json::as_i64),
            Some(0)
        );
        assert!(interference_points[1]
            .get("mvcc_p99_us")
            .and_then(birds_service::Json::as_f64)
            .is_some());
        let connection_points = parsed
            .get("connection_scaling")
            .and_then(|s| s.get("points"))
            .and_then(birds_service::Json::as_arr)
            .unwrap();
        assert_eq!(connection_points.len(), 1);
        assert_eq!(
            connection_points[0]
                .get("server_threads")
                .and_then(birds_service::Json::as_i64),
            Some(4)
        );
    }

    #[test]
    fn interference_sweep_measures_each_writer_count() {
        let points = read_interference_sweep(100, &[0, 2], 30);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].writers, 0);
        assert_eq!(points[1].writers, 2);
        for p in &points {
            assert_eq!(p.reads, 30);
            assert!(p.mvcc_p50 <= p.mvcc_p99);
            assert!(p.mvcc_p99 > Duration::ZERO);
        }
    }

    #[test]
    fn disjoint_engine_shards_one_component_per_view() {
        let service = Service::new(disjoint_engine(50, 3));
        assert_eq!(service.shard_count(), 3);
        for i in 0..3 {
            let view = format!("lux{i}");
            assert!(service.query(&view).is_ok(), "{view} registered");
        }
    }

    #[test]
    fn disjoint_clients_apply_all_statements() {
        let points = disjoint_scaling(80, &[2], 25, Duration::ZERO);
        assert_eq!(points[0].total_statements, 50);
        assert!(points[0].statements_per_sec() > 0.0);
    }

    #[test]
    fn coalesced_autocommit_matches_serial_state() {
        // The same stream applied with and without group-commit
        // coalescing must land on the same database.
        let scripts: Vec<Vec<String>> = (0..3)
            .map(|client| statement_stream(120, client, 20))
            .collect();

        let coalesced = Service::with_config(
            VIEW.engine(120, StrategyMode::Incremental),
            ServiceConfig {
                epoch_window: Duration::from_micros(200),
            },
        );
        let handles: Vec<_> = scripts
            .iter()
            .cloned()
            .map(|stream| {
                let service = coalesced.clone();
                std::thread::spawn(move || {
                    let mut session = service.session();
                    for script in &stream {
                        session.execute(script).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(coalesced.commits(), 3 * 20, "every tx got its own seq");

        let serial = Service::new(VIEW.engine(120, StrategyMode::Incremental));
        let mut session = serial.session();
        for stream in &scripts {
            for script in stream {
                session.execute(script).unwrap();
            }
        }
        drop(session);

        let coalesced = coalesced.into_engine().ok().unwrap();
        let serial = serial.into_engine().ok().unwrap();
        assert!(
            coalesced.database().same_contents(serial.database()),
            "group-commit coalescing diverged from serial application"
        );
    }
}
