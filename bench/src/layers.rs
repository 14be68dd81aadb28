//! The per-layer pass: time calls into each layer's public functions,
//! from outside, on the workload's own generated inputs — and climb the
//! rung ladder, which runs one statement stream through one more layer
//! per rung (bare engine → in-memory service → WAL without fsync → WAL
//! with epoch fsync → protocol dispatch → TCP to the child).
//!
//! Every timing is a span in the run's [`Tracer`]; `report` turns span
//! names into the per-layer metrics. The functions called here are the
//! benchmark's **pinned API surface** (listed in `bench/README.md`).

use crate::dataset::{BenchResult, Catalogue};
use crate::gen::{Statement, BATCH_STATEMENTS};
use crate::pass::{verify, Live, ScratchDir, Stop, TraceTo};
use crate::trace::Tracer;
use crate::wire;
use crate::workload::{Client, Inputs, Workload};
use birds_engine::{Engine, StrategyMode};
use birds_service::{
    DurabilityConfig, Envelope, Json, LocalClient, Request, Service, ServiceConfig, Session,
};
use birds_sql::{parse_script, DmlStatement};
use birds_wal::{FsyncPolicy, SegmentWriter, WalRecord, DEFAULT_SEGMENT_BYTES};
use std::hint::black_box;
use std::time::Instant;

/// Numbers of the layer pass that are not span durations.
#[derive(Debug, Default)]
pub struct LayerCounts {
    /// Framed size of each WAL record written by the direct WAL phase.
    pub record_bytes: Vec<f64>,
    /// `Engine::plan_cache()` hits and lookups over the direct
    /// apply-delta phase.
    pub plan_cache_hits: u64,
    pub plan_cache_lookups: u64,
    /// Rows of the relations behind `service.query_*`.
    pub query_large_rows: usize,
    pub query_small_rows: usize,
    pub problems: Vec<String>,
}

type Unit = Vec<Statement>;

fn parse_unit(unit: &Unit) -> BenchResult<Vec<DmlStatement>> {
    let mut statements = Vec::with_capacity(unit.len());
    for statement in unit {
        statements.extend(parse_script(&statement.sql)?);
    }
    Ok(statements)
}

/// Run `units` through a session, one span named `rung` per unit. A
/// one-statement unit is an autocommit `execute`; a longer one is
/// `begin` … `commit`, whose commit is also a `service.batch_commit` span.
fn session_rung(
    tracer: &mut Tracer,
    rung: Option<&'static str>,
    session: &mut Session,
    units: &[Unit],
) -> BenchResult<()> {
    for (k, unit) in units.iter().enumerate() {
        let k = k as u64;
        let started = Instant::now();
        if let [statement] = unit.as_slice() {
            session.execute(&statement.sql)?;
            if let Some(rung) = rung {
                tracer.record(rung, None, k, started, Instant::now());
            }
            continue;
        }
        let parent = rung.map(|rung| tracer.open(rung, None, k));
        session.begin()?;
        for statement in unit {
            session.execute(&statement.sql)?;
        }
        let committing = Instant::now();
        let outcome = session.commit()?;
        if let Some(parent) = parent {
            let now = Instant::now();
            tracer.record("service.batch_commit", Some(parent), k, committing, now);
            tracer.close(parent);
        }
        if outcome.statements != unit.len() {
            return Err(format!("commit coalesced {} statements", outcome.statements).into());
        }
    }
    Ok(())
}

/// The same units as protocol lines through `LocalClient::request_line`.
fn local_rung(tracer: &mut Tracer, client: &mut LocalClient, units: &[Unit]) -> BenchResult<()> {
    let mut line = String::new();
    let mut call = |line: &str| -> BenchResult<()> {
        let response = client.request_line(line.trim_end());
        if !wire::is_ok(&response) {
            return Err(format!("local request refused: {response}").into());
        }
        Ok(())
    };
    for (k, unit) in units.iter().enumerate() {
        let k = k as u64;
        let started = Instant::now();
        if unit.len() > 1 {
            line.clear();
            wire::push_op(&mut line, "begin", k);
            call(&line)?;
        }
        for statement in unit {
            line.clear();
            wire::push_execute(&mut line, &statement.sql, k);
            call(&line)?;
        }
        if unit.len() > 1 {
            line.clear();
            wire::push_op(&mut line, "commit", k);
            call(&line)?;
        }
        tracer.record("service.rung.local", None, k, started, Instant::now());
    }
    Ok(())
}

/// The `mixed_read_write` database as an in-memory service, for its
/// 200-row `lux_small` view — the small end of the `service.query_*`
/// pair, the same on every workload.
fn small_service(seed: u64) -> BenchResult<(Service, String)> {
    let mixed = Workload::MixedReadWrite;
    let inputs = mixed.generate(seed);
    let engine = Catalogue::load(mixed)?.engine(&inputs, true)?;
    Ok((Service::new(engine), inputs.views[1].name.clone()))
}

fn time_queries(
    tracer: &mut Tracer,
    service: &Service,
    relation: &str,
    repeats: usize,
    direct: &'static str,
    dispatched: &'static str,
) -> BenchResult<usize> {
    let mut client = LocalClient::connect(service);
    let mut line = String::new();
    wire::push_query(&mut line, relation, 0);
    let mut rows = 0;
    for k in 0..repeats as u64 {
        rows = tracer
            .time(direct, None, k, || service.query(relation))?
            .len();
        let response = tracer.time(dispatched, None, k, || client.request_line(line.trim_end()));
        black_box(response);
    }
    Ok(rows)
}

/// The strategy-level layers: parse, incrementalize, and — side by side
/// on the two cores, because `outstanding_task` takes ~40 s to validate
/// and `Service::register_view` validates again — validation and live
/// registration.
fn strategy_layers(
    tracer: &mut Tracer,
    catalogue: &Catalogue,
    inputs: &Inputs,
    quick: bool,
) -> BenchResult<()> {
    for view in &catalogue.views {
        for k in 0..50 {
            tracer.time("datalog.parse", None, k, || {
                black_box(birds_datalog::parse_program(&view.putdelta))
            })?;
        }
        for k in 0..20 {
            tracer.time("core.incrementalize", None, k, || {
                black_box(birds_core::incrementalize(&view.strategy))
            })?;
        }
    }
    if quick {
        return Ok(());
    }
    let service = Service::new(catalogue.engine(inputs, false)?);
    let mut validating = tracer.fork();
    let mut registering = tracer.fork();
    std::thread::scope(|scope| -> BenchResult<()> {
        let validated = scope.spawn(|| -> BenchResult<()> {
            for (k, view) in catalogue.views.iter().enumerate() {
                let report = validating.time("core.validate", None, k as u64, || {
                    birds_core::validate(&view.strategy)
                })?;
                if !report.valid {
                    return Err(format!("{} failed validation", view.strategy.view.name).into());
                }
            }
            Ok(())
        });
        for (k, view) in catalogue.views.iter().enumerate() {
            registering.time("service.register_view", None, k as u64, || {
                service.register_view(view.strategy.clone(), StrategyMode::Incremental)
            })?;
        }
        validated.join().expect("validation thread panicked")
    })?;
    tracer.absorb(validating);
    tracer.absorb(registering);
    Ok(())
}

/// The whole per-layer pass. `live` is the traced wire pass's running
/// child: the TCP rung continues its first writer's stream on it.
pub fn measure(
    workload: Workload,
    seed: u64,
    quick: bool,
    live: &mut Live,
    tracer: &mut Tracer,
) -> BenchResult<LayerCounts> {
    let mut counts = LayerCounts::default();
    let catalogue = Catalogue::load(workload)?;
    strategy_layers(tracer, &catalogue, &live.inputs, quick)?;

    // A fresh copy of the first writer's stream, against a fresh engine
    // at the seeded state; consecutive slices of it feed the rungs.
    let mut writer = workload
        .clients(&live.inputs, seed)
        .into_iter()
        .find(|client| !matches!(client, Client::Reader { .. }))
        .expect("every workload writes");
    let n = workload.rung_units();
    let mut take = |n: usize| -> Vec<Unit> {
        (0..n)
            .map(|_| writer.next_unit().expect("streams are endless"))
            .collect()
    };
    let view_name = catalogue.views[0].strategy.view.name.clone();
    let mut engine: Engine = catalogue.engine(&live.inputs, true)?;

    // Protocol layers, on the lines of the units the engine rung runs.
    let units = take(n);
    let mut line = String::new();
    for (k, statement) in units.iter().flatten().take(2_000).enumerate() {
        let k = k as u64;
        line.clear();
        wire::push_execute(&mut line, &statement.sql, k);
        let request = line.trim_end();
        tracer.time("service.json_parse", None, k, || {
            black_box(Json::parse(request))
        })?;
        tracer
            .time("service.envelope_parse", None, k, || {
                black_box(Envelope::parse(request))
            })
            .map_err(|(_, e)| e)?;
    }

    // Rung 1: the bare engine.
    for (k, unit) in units.iter().enumerate() {
        let k = k as u64;
        let parent = tracer.open("service.rung.engine", None, k);
        let mut statements = Vec::with_capacity(unit.len());
        for statement in unit {
            statements.extend(tracer.time("sql.parse_script", Some(parent), k, || {
                parse_script(&statement.sql)
            })?);
        }
        tracer.time("engine.execute_statements", Some(parent), k, || {
            engine.execute_statements(&statements)
        })?;
        tracer.close(parent);
    }

    // The engine's and the WAL's own steps, called one by one.
    let wal_dir = ScratchDir::new("wal-direct")?;
    let mut segment = SegmentWriter::open(&wal_dir.0, 0, DEFAULT_SEGMENT_BYTES)?;
    let (hits, misses) = (engine.plan_cache().hits(), engine.plan_cache().misses());
    for (k, unit) in take(n).iter().enumerate() {
        let k = k as u64;
        let statements = parse_unit(unit)?;
        let delta = tracer.time("engine.derive_delta", None, k, || {
            engine.derive_delta(&view_name, &statements)
        })?;
        let record = WalRecord::Commit {
            seqs: vec![k + 1],
            deltas: vec![(view_name.clone(), delta.clone())],
        };
        tracer.time("engine.apply_delta", None, k, || {
            engine.apply_delta(&view_name, delta)
        })?;
        tracer.time("store.publish", None, k, || {
            black_box(engine.relation_versions());
        });
        let commit = tracer.open("wal.commit", None, k);
        let payload = tracer.time("wal.encode", Some(commit), k, || record.encode());
        // Framing: u32 length + u32 CRC.
        counts.record_bytes.push(payload.len() as f64 + 8.0);
        tracer.time("wal.append", Some(commit), k, || {
            segment.append(&record, FsyncPolicy::Off)
        })?;
        tracer.time("wal.sync", Some(commit), k, || segment.sync())?;
        tracer.close(commit);
    }
    counts.plan_cache_hits = engine.plan_cache().hits() - hits;
    counts.plan_cache_lookups = counts.plan_cache_hits + engine.plan_cache().misses() - misses;
    drop(segment);
    for k in 0..3 {
        let mut image = Vec::new();
        tracer.time("engine.snapshot_write", None, k, || {
            engine.snapshot(&mut image)
        })?;
        black_box(image);
    }

    // Rung 2: the in-memory service (route, lock, group commit, publish).
    let service = Service::new(engine);
    session_rung(
        tracer,
        Some("service.rung.mem"),
        &mut service.session(),
        &take(n),
    )?;
    if workload != Workload::BatchBulk {
        // One 1 000-statement batch of the same stream, so that
        // `service.batch_commit` exists on every workload (a batch
        // workload's rungs record it themselves).
        let batch: Unit = take(BATCH_STATEMENTS).into_iter().flatten().collect();
        session_rung(
            tracer,
            Some("service.batch"),
            &mut service.session(),
            &[batch],
        )?;
    }
    {
        let mut client = LocalClient::connect(&service);
        for (k, statement) in take(200.min(n)).into_iter().flatten().take(200).enumerate() {
            let response = client.request(&Request::Execute { sql: statement.sql });
            if response.get("ok").and_then(Json::as_bool) != Some(true) {
                return Err(format!("local execute refused: {}", response.to_compact()).into());
            }
            tracer.time("service.encode", None, k as u64, || {
                black_box(response.to_compact())
            });
        }
    }
    counts.query_large_rows = time_queries(
        tracer,
        &service,
        &view_name,
        10,
        "service.query_large",
        "service.query_large_dispatch",
    )?;
    let (small, small_view) = small_service(seed)?;
    counts.query_small_rows = time_queries(
        tracer,
        &small,
        &small_view,
        200,
        "service.query_small",
        "service.query_small_dispatch",
    )?;
    let engine = service
        .into_engine()
        .map_err(|_| "service still shared after the mem rung")?;

    // Rung 3: the WAL without fsync.
    let off_dir = ScratchDir::new("rung-wal-off")?;
    let mut durability = DurabilityConfig::new(&off_dir.0);
    durability.fsync = FsyncPolicy::Off;
    let service = Service::open(engine, ServiceConfig::default(), durability)?;
    session_rung(
        tracer,
        Some("service.rung.wal_off"),
        &mut service.session(),
        &take(n),
    )?;
    let engine = service
        .into_engine()
        .map_err(|_| "service still shared after the wal_off rung")?;
    drop(off_dir);

    // Rungs 4 and 5: epoch fsync — the child's configuration — through
    // the session API, then through the protocol's dispatch.
    let epoch_dir = ScratchDir::new("rung-wal-epoch")?;
    let service = Service::open(
        engine,
        ServiceConfig::default(),
        DurabilityConfig::new(&epoch_dir.0),
    )?;
    session_rung(
        tracer,
        Some("service.rung.wal_epoch"),
        &mut service.session(),
        &take(n),
    )?;
    local_rung(tracer, &mut LocalClient::connect(&service), &take(n))?;

    // Checkpoint, recovery, restore: the same directory, read back.
    for k in 0..3 {
        tracer.time("service.checkpoint", None, k, || service.checkpoint())?;
        session_rung(tracer, None, &mut service.session(), &take(n / 4 + 1))?;
    }
    drop(service);
    let mut recovery = None;
    for k in 0..3 {
        recovery = Some(tracer.time("wal.recover", None, k, || birds_wal::recover(&epoch_dir.0))?);
    }
    let body = recovery
        .and_then(|r| r.snapshot)
        .ok_or("checkpointed directory recovered without a snapshot")?;
    let (_, manifest_len) = birds_wal::decode_view_defs(&body)?;
    let mut restored = catalogue.engine(&live.inputs, true)?;
    for k in 0..2 {
        tracer.time("engine.restore", None, k, || {
            restored.restore(&body[manifest_len..])
        })?;
    }
    drop(epoch_dir);

    // Rung 6: the child, over TCP, lockstep on one connection.
    let Live {
        child,
        clients,
        inputs,
        models,
        ..
    } = live;
    let client = clients
        .iter_mut()
        .find(|c| c.view().is_some())
        .expect("every workload writes");
    let view = client.view().expect("a writer");
    let mut outcome = client.run(
        Stop::Units(n),
        true,
        Some(TraceTo {
            tracer,
            from: Instant::now(),
            unit: "service.rung.tcp",
        }),
    )?;
    for effect in outcome.acked.drain(..) {
        models[view].apply(&effect);
    }
    counts.problems.extend(outcome.first_failure.take());
    let mut control = wire::Conn::connect(child.addr)?;
    counts
        .problems
        .extend(verify(&mut control, inputs, models, "after the TCP rung"));
    Ok(counts)
}
