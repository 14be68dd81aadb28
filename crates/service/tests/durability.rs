//! Durability integration tests: WAL + snapshot + crash recovery
//! through the public `Service` API, including the randomized
//! crash-recovery torture tests (ISSUE 5 satellite).
//!
//! "Crashing" here means abandoning a data directory (or a byte-level
//! copy of one taken mid-run / truncated mid-record) and recovering a
//! fresh service from it — the same observable states a SIGKILL
//! produces, minus the process spawn (the CI `durability-smoke` job
//! covers the real-SIGKILL path against a live `birds-serve`).

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{DurabilityConfig, Service, ServiceConfig, ServiceError};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Tuple};
use birds_wal::FsyncPolicy;
use std::path::{Path, PathBuf};

/// SplitMix64 — tiny deterministic RNG, no dependencies (same trick as
/// `locks_stress.rs`).
struct Rng64(u64);

impl Rng64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-ish value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "birds-durability-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recursively copy a data directory — the moral equivalent of what a
/// crash leaves on disk (for mid-run copies, including torn tails).
fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), &target).unwrap();
        }
    }
}

/// The paper's Example 3.1 engine: `v = r1 ∪ r2`.
fn union_engine() -> Engine {
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
        .unwrap();
    db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
        .unwrap();
    let strategy = UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new("r1", vec![("a", SortKind::Int)]))
            .with(Schema::new("r2", vec![("a", SortKind::Int)])),
        Schema::new("v", vec![("a", SortKind::Int)]),
        "
        -r1(X) :- r1(X), not v(X).
        -r2(X) :- r2(X), not v(X).
        +r1(X) :- v(X), not r1(X), not r2(X).
        ",
        None,
    )
    .unwrap();
    let mut engine = Engine::new(db);
    engine
        .register_view(strategy, StrategyMode::Incremental)
        .unwrap();
    engine
}

/// `n` disjoint union views `v{i} = a{i} ∪ b{i}` — one footprint shard
/// each, so concurrent commits (and their WAL appends) never contend.
fn disjoint_engine(n: usize) -> Engine {
    let mut db = Database::new();
    for i in 0..n {
        for side in ["a", "b"] {
            db.add_relation(
                Relation::with_tuples(format!("{side}{i}"), 1, vec![tuple![i as i64]]).unwrap(),
            )
            .unwrap();
        }
    }
    let mut engine = Engine::new(db);
    for i in 0..n {
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new(format!("a{i}"), vec![("x", SortKind::Int)]))
                .with(Schema::new(format!("b{i}"), vec![("x", SortKind::Int)])),
            Schema::new(format!("v{i}"), vec![("x", SortKind::Int)]),
            &format!(
                "
                -a{i}(X) :- a{i}(X), not v{i}(X).
                -b{i}(X) :- b{i}(X), not v{i}(X).
                +a{i}(X) :- v{i}(X), not a{i}(X), not b{i}(X).
                "
            ),
            None,
        )
        .unwrap();
        engine
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap();
    }
    engine
}

fn durable(dir: &Path, fsync: FsyncPolicy, checkpoint_every: Option<u64>) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = fsync;
    d.checkpoint_every = checkpoint_every;
    d
}

fn open(engine: Engine, dir: &Path, fsync: FsyncPolicy) -> Service {
    Service::open(engine, ServiceConfig::default(), durable(dir, fsync, None)).unwrap()
}

fn sorted(service: &Service, relation: &str) -> Vec<Tuple> {
    service.query(relation).unwrap()
}

#[test]
fn commits_survive_restart() {
    for fsync in [FsyncPolicy::Epoch, FsyncPolicy::Off] {
        let dir = temp_dir(&format!("restart-{fsync}"));
        {
            let service = open(union_engine(), &dir, fsync);
            let mut session = service.session();
            session.execute("INSERT INTO v VALUES (9);").unwrap();
            session.begin().unwrap();
            session.execute("INSERT INTO v VALUES (10);").unwrap();
            session.execute("DELETE FROM v WHERE a = 2;").unwrap();
            session.commit().unwrap();
            assert_eq!(service.commits(), 2);
        }
        // "Restart": a fresh engine from the same registration code,
        // recovered from the directory.
        let recovered = open(union_engine(), &dir, fsync);
        assert_eq!(recovered.commits(), 2, "commit sequence resumes");
        assert_eq!(
            sorted(&recovered, "v"),
            vec![tuple![1], tuple![4], tuple![9], tuple![10]],
            "fsync {fsync}"
        );
        assert!(sorted(&recovered, "r1").contains(&tuple![9]));
        assert!(!sorted(&recovered, "r2").contains(&tuple![2]));
        // And the recovered service keeps committing durably.
        let mut session = recovered.session();
        session.execute("INSERT INTO v VALUES (11);").unwrap();
        drop(session);
        drop(recovered);
        let again = open(union_engine(), &dir, fsync);
        assert!(sorted(&again, "v").contains(&tuple![11]));
        assert_eq!(again.commits(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recovery_equals_serial_replay_of_every_durable_prefix() {
    // Single-client torture: run N commits against a durable service,
    // then "SIGKILL" at every interesting byte offset by truncating a
    // copy of the WAL tail and recovering. Whatever k records survive,
    // the recovered database must equal a serial in-memory replay of
    // the first k scripts — the durable commit-seq prefix.
    let scripts: Vec<String> = (0..12)
        .map(|i| {
            if i % 4 == 3 {
                format!("DELETE FROM v WHERE a = {};", 100 + i - 1)
            } else {
                format!("INSERT INTO v VALUES ({});", 100 + i)
            }
        })
        .collect();
    let dir = temp_dir("prefix");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        let mut session = service.session();
        for script in &scripts {
            session.execute(script).unwrap();
        }
    }
    let wal_file = {
        let wal_dir = dir.join("wal");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&wal_dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        assert_eq!(files.len(), 1, "one shard, one segment");
        files[0].clone()
    };
    let original = std::fs::read(&wal_file).unwrap();
    let mut rng = Rng64(0xB1AD5);
    let mut cuts: Vec<usize> = (0..40)
        .map(|_| rng.range(0, original.len() as u64) as usize)
        .collect();
    cuts.push(0);
    cuts.push(original.len());
    for cut in cuts {
        let crash_dir = temp_dir("prefix-crash");
        copy_dir(&dir, &crash_dir);
        std::fs::write(crash_dir.join("wal").join(wal_file.file_name().unwrap()), {
            &original[..cut]
        })
        .unwrap();
        let recovered = open(union_engine(), &crash_dir, FsyncPolicy::Epoch);
        let k = recovered.commits() as usize;
        assert!(k <= scripts.len(), "cut {cut}");
        // Serial replay of the first k scripts on a fresh in-memory
        // service.
        let replay = Service::new(union_engine());
        let mut session = replay.session();
        for script in &scripts[..k] {
            session.execute(script).unwrap();
        }
        drop(session);
        for relation in ["r1", "r2", "v"] {
            assert_eq!(
                sorted(&recovered, relation),
                sorted(&replay, relation),
                "cut {cut}: '{relation}' diverged from the {k}-commit serial replay"
            );
        }
        drop(recovered);
        std::fs::remove_dir_all(&crash_dir).unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_torture_mid_run_crash_images_recover_consistently() {
    // Concurrent torture: three clients on three disjoint shards commit
    // while the main thread takes crash images (byte-level directory
    // copies) at randomized moments. Each image recovers to exactly a
    // per-shard prefix of the submitted scripts — and every commit that
    // was acknowledged before the image was taken is in it.
    const VIEWS: usize = 3;
    const PER_CLIENT: usize = 40;
    let dir = temp_dir("torture");
    let service = Service::open(
        disjoint_engine(VIEWS),
        ServiceConfig::default(),
        durable(&dir, FsyncPolicy::Epoch, None),
    )
    .unwrap();
    assert_eq!(service.shard_count(), VIEWS);

    let acked = std::sync::Arc::new(std::sync::Mutex::new(Vec::<u64>::new()));
    let handles: Vec<_> = (0..VIEWS)
        .map(|client| {
            let service = service.clone();
            let acked = acked.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for i in 0..PER_CLIENT {
                    let value = 1000 + i as i64;
                    let script = format!("INSERT INTO v{client} VALUES ({value});");
                    session.execute(&script).unwrap();
                    acked.lock().unwrap().push(
                        // Track durably acknowledged commits by count;
                        // the assertion below uses the snapshot length.
                        (client * PER_CLIENT + i) as u64,
                    );
                }
            })
        })
        .collect();

    // Take crash images while the writers run.
    let mut images = Vec::new();
    let mut rng = Rng64(0x70AD);
    for image in 0..6 {
        std::thread::sleep(std::time::Duration::from_micros(rng.range(200, 3000)));
        let acked_before = acked.lock().unwrap().len();
        let image_dir = temp_dir(&format!("torture-img-{image}"));
        copy_dir(&dir, &image_dir);
        images.push((image_dir, acked_before));
    }
    for h in handles {
        h.join().unwrap();
    }
    let total = service.commits();
    assert_eq!(total as usize, VIEWS * PER_CLIENT);
    drop(service);
    images.push((dir.clone(), (VIEWS * PER_CLIENT) as u64 as usize));

    for (image_dir, acked_before) in images {
        let recovered = Service::open(
            disjoint_engine(VIEWS),
            ServiceConfig::default(),
            durable(&image_dir, FsyncPolicy::Epoch, None),
        )
        .unwrap_or_else(|e| panic!("crash image {image_dir:?} failed recovery: {e}"));
        // Durable-prefix property: everything acknowledged before the
        // image was taken survived it (appends are write-ahead and the
        // copy of each append-only file is a prefix of a later state).
        assert!(
            recovered.commits() as usize >= acked_before,
            "{image_dir:?}: {} recovered < {acked_before} acked",
            recovered.commits()
        );
        // Per-shard prefix property: each view recovered the inserts
        // 1000..1000+k_i for some k_i (its client submits in order, so
        // the shard's log is a prefix of its stream).
        for client in 0..VIEWS {
            let v = sorted(&recovered, &format!("v{client}"));
            let inserted: Vec<i64> = v
                .iter()
                .filter_map(|t| match t.get(0) {
                    Some(birds_store::Value::Int(x)) if *x >= 1000 => Some(*x),
                    _ => None,
                })
                .collect();
            let expected: Vec<i64> = (0..inserted.len() as i64).map(|i| 1000 + i).collect();
            assert_eq!(
                inserted, expected,
                "{image_dir:?}: v{client} is not a prefix of its stream"
            );
            // Serial-replay equivalence per shard: the base table holds
            // exactly the seed plus the recovered prefix.
            let a = sorted(&recovered, &format!("a{client}"));
            assert_eq!(a.len(), 1 + inserted.len());
        }
        drop(recovered);
        std::fs::remove_dir_all(&image_dir).unwrap();
    }
}

#[test]
fn checkpoint_snapshots_then_truncates_and_recovery_prefers_the_snapshot() {
    let dir = temp_dir("checkpoint");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        let mut session = service.session();
        for i in 0..8 {
            session
                .execute(&format!("INSERT INTO v VALUES ({});", 200 + i))
                .unwrap();
        }
        let watermark = service.checkpoint().unwrap();
        assert_eq!(watermark, 8);
        assert!(dir.join("snapshot.bin").exists());
        // Post-checkpoint commits land in the (fresh) WAL.
        session.execute("INSERT INTO v VALUES (300);").unwrap();
    }
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert_eq!(recovered.commits(), 9);
    let v = sorted(&recovered, "v");
    assert!(v.contains(&tuple![207]) && v.contains(&tuple![300]));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn automatic_checkpoints_bound_the_wal() {
    let dir = temp_dir("auto-ck");
    {
        let service = Service::open(
            union_engine(),
            ServiceConfig::default(),
            durable(&dir, FsyncPolicy::Epoch, Some(5)),
        )
        .unwrap();
        let mut session = service.session();
        for i in 0..12 {
            session
                .execute(&format!("INSERT INTO v VALUES ({});", 400 + i))
                .unwrap();
        }
    }
    assert!(
        dir.join("snapshot.bin").exists(),
        "threshold crossings checkpointed automatically"
    );
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert_eq!(recovered.commits(), 12);
    assert_eq!(sorted(&recovered, "v").len(), 3 + 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Regression: a multi-view batch that fails on its second view still
/// logs its applied prefix — a WAL record under a durable seq — so it
/// must count toward `checkpoint_every` like any other commit. A stream
/// of such failures used to grow the WAL without bound.
#[test]
fn failed_batch_prefixes_count_toward_the_checkpoint_threshold() {
    let dir = temp_dir("prefix-ck");
    let expected_v0 = {
        let service = Service::open(
            disjoint_engine(2),
            ServiceConfig::default(),
            durable(&dir, FsyncPolicy::Epoch, Some(4)),
        )
        .unwrap();
        let mut session = service.session();
        for i in 0..4 {
            session.begin().unwrap();
            session
                .execute(&format!("INSERT INTO v0 VALUES ({});", 600 + i))
                .unwrap();
            // `a1` is a base relation: the second group is rejected.
            session.execute("INSERT INTO a1 VALUES (9);").unwrap();
            assert!(session.commit().is_err(), "batch {i} fails on a1");
        }
        // Every failed batch consumed one durable seq for its prefix.
        assert_eq!(service.commits(), 4);
        sorted(&service, "v0")
    };
    assert_eq!(expected_v0.len(), 1 + 4, "the prefixes stayed applied");
    assert!(
        dir.join("snapshot.bin").exists(),
        "four logged prefixes crossed checkpoint_every = 4"
    );
    let recovered = open(disjoint_engine(2), &dir, FsyncPolicy::Epoch);
    assert_eq!(recovered.commits(), 4);
    assert_eq!(sorted(&recovered, "v0"), expected_v0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Raw bytes of every WAL segment under `dir`, in file-name order.
fn wal_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut segments: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            let name = entry.file_name().into_string().unwrap();
            (name, std::fs::read(entry.path()).unwrap())
        })
        .collect();
    segments.sort();
    segments
}

/// One pipeline: the same single-view statements, run as one autocommit
/// script and as one `begin … commit` batch on two fresh durable
/// services, are the same epoch — one member, one net delta, one
/// record. Both take seq 1, so the segments are byte-identical outright.
#[test]
fn autocommit_and_batch_write_identical_wal() {
    const STATEMENTS: [&str; 4] = [
        "INSERT INTO v VALUES (70);",
        "INSERT INTO v VALUES (71);",
        "DELETE FROM v WHERE a = 70;",
        "DELETE FROM v WHERE a = 2;",
    ];
    let (auto_dir, batch_dir) = (temp_dir("one-auto"), temp_dir("one-batch"));
    {
        let service = open(union_engine(), &auto_dir, FsyncPolicy::Epoch);
        service.session().execute(&STATEMENTS.concat()).unwrap();
        assert_eq!(service.commits(), 1);
    }
    {
        let service = open(union_engine(), &batch_dir, FsyncPolicy::Epoch);
        let mut session = service.session();
        session.begin().unwrap();
        for statement in STATEMENTS {
            session.execute(statement).unwrap();
        }
        assert_eq!(session.commit().unwrap().commit_seq, 1);
    }
    let (auto_wal, batch_wal) = (wal_bytes(&auto_dir), wal_bytes(&batch_dir));
    assert!(auto_wal.iter().any(|(_, bytes)| bytes.len() > 16));
    assert_eq!(auto_wal, batch_wal, "both entry points log the same epoch");

    let auto = open(union_engine(), &auto_dir, FsyncPolicy::Epoch);
    let batch = open(union_engine(), &batch_dir, FsyncPolicy::Epoch);
    assert_eq!(sorted(&auto, "v"), vec![tuple![1], tuple![4], tuple![71]]);
    for relation in ["v", "r1", "r2"] {
        assert_eq!(sorted(&auto, relation), sorted(&batch, relation));
    }
    assert_eq!((auto.commits(), batch.commits()), (1, 1));
    drop((auto, batch));
    std::fs::remove_dir_all(&auto_dir).unwrap();
    std::fs::remove_dir_all(&batch_dir).unwrap();
}

/// A `snapshot.bin` whose body does not lead with a registration
/// manifest (here: a bare engine snapshot stream, and an empty body) is
/// a typed durability error — never a panic, never a giant allocation.
#[test]
fn snapshot_without_a_manifest_is_a_typed_error() {
    let bodies: [Vec<u8>; 2] = [
        {
            let mut bare = Vec::new();
            union_engine().snapshot(&mut bare).unwrap();
            bare
        },
        Vec::new(),
    ];
    for body in bodies {
        let dir = temp_dir("no-manifest");
        birds_wal::write_snapshot_file(&dir, 0, |w| w.write_all(&body)).unwrap();
        let err = Service::open(
            union_engine(),
            ServiceConfig::default(),
            durable(&dir, FsyncPolicy::Epoch, None),
        )
        .err()
        .expect("a manifest-less snapshot must not open");
        match err {
            ServiceError::Durability(message) => assert!(
                message.starts_with("checkpoint manifest: "),
                "unexpected message: {message}"
            ),
            other => panic!("expected a durability error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn multi_view_batch_commits_replay_in_application_order() {
    let dir = temp_dir("multiview");
    {
        let service = Service::open(
            disjoint_engine(2),
            ServiceConfig::default(),
            durable(&dir, FsyncPolicy::Epoch, None),
        )
        .unwrap();
        let mut session = service.session();
        session.begin().unwrap();
        session.execute("INSERT INTO v0 VALUES (500);").unwrap();
        session.execute("INSERT INTO v1 VALUES (501);").unwrap();
        session.execute("DELETE FROM v0 WHERE x = 0;").unwrap();
        let outcome = session.commit().unwrap();
        assert_eq!(outcome.views, 2);
    }
    let recovered = Service::open(
        disjoint_engine(2),
        ServiceConfig::default(),
        durable(&dir, FsyncPolicy::Epoch, None),
    )
    .unwrap();
    assert_eq!(recovered.commits(), 1);
    assert_eq!(sorted(&recovered, "v0"), vec![tuple![500]]);
    assert!(sorted(&recovered, "v1").contains(&tuple![501]));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn group_commit_epochs_are_wal_batches() {
    // Concurrent autocommit clients: every acknowledged transaction
    // must survive a restart, however the epochs coalesced. (That one
    // epoch is one WAL record carrying every member's seq is proven
    // deterministically by the commit pipeline's unit tests.)
    let dir = temp_dir("epochs");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        let handles: Vec<_> = (0..4)
            .map(|client| {
                let service = service.clone();
                std::thread::spawn(move || {
                    let mut session = service.session();
                    for i in 0..10 {
                        let value = 1000 + client * 100 + i;
                        session
                            .execute(&format!("INSERT INTO v VALUES ({value});"))
                            .unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(service.commits(), 40);
    }
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert_eq!(recovered.commits(), 40);
    let v = sorted(&recovered, "v");
    for client in 0..4 {
        for i in 0..10 {
            let value = 1000 + client * 100 + i;
            assert!(v.contains(&tuple![value]), "lost acked insert {value}");
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn noop_deletes_never_become_effective_on_replay() {
    // ISSUE 5 satellite, end to end: commit 1 deletes a tuple that does
    // not exist (a no-op) and inserts one that does not; commit 2 then
    // inserts the very tuple commit 1 "deleted". Replaying the log
    // across two restarts must not let commit 1's no-effect delete
    // resurface and kill commit 2's insert.
    let dir = temp_dir("noop-delete");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        let mut session = service.session();
        session.begin().unwrap();
        session.execute("DELETE FROM v WHERE a = 42;").unwrap(); // no-op
        session.execute("INSERT INTO v VALUES (9);").unwrap();
        session.commit().unwrap();
        session.execute("INSERT INTO v VALUES (42);").unwrap();
    }
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert!(sorted(&recovered, "v").contains(&tuple![42]), "restart 1");
    drop(recovered);
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert!(sorted(&recovered, "v").contains(&tuple![42]), "restart 2");
    assert!(sorted(&recovered, "v").contains(&tuple![9]));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_rejects_a_mismatched_engine() {
    let dir = temp_dir("mismatch");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        service
            .session()
            .execute("INSERT INTO v VALUES (7);")
            .unwrap();
        service.checkpoint().unwrap();
    }
    // Recovering with a different registration (the 1-view disjoint
    // engine) must fail loudly, not half-load.
    let err = Service::open(
        disjoint_engine(1),
        ServiceConfig::default(),
        durable(&dir, FsyncPolicy::Epoch, None),
    )
    .err()
    .expect("schema mismatch must be rejected");
    let message = err.to_string();
    assert!(message.contains("snapshot"), "{message}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn protocol_checkpoint_op_checkpoints_durable_services() {
    let dir = temp_dir("proto-ck");
    {
        let service = open(union_engine(), &dir, FsyncPolicy::Epoch);
        let mut client = birds_service::LocalClient::connect(&service);
        client.request_line(r#"{"op":"execute","sql":"INSERT INTO v VALUES (9);"}"#);
        let resp = client.request_line(r#"{"op":"checkpoint","id":7}"#);
        assert!(
            resp.contains("\"watermark\": 1") && resp.contains("\"id\": 7"),
            "{resp}"
        );
        assert!(dir.join("snapshot.bin").exists());
    }
    // The checkpoint is a valid recovery point on its own.
    let recovered = open(union_engine(), &dir, FsyncPolicy::Epoch);
    assert!(sorted(&recovered, "v").contains(&tuple![9]));
    // In-memory services reject the op with a typed error.
    let mem = Service::new(union_engine());
    let mut client = birds_service::LocalClient::connect(&mem);
    let resp = client.request_line(r#"{"op":"checkpoint"}"#);
    assert!(
        resp.contains("\"ok\": false") && resp.contains("durability error"),
        "{resp}"
    );
    drop(recovered);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_memory_service_has_no_durability_surface() {
    let service = Service::new(union_engine());
    assert!(service.data_dir().is_none());
    assert!(service.checkpoint().is_err());
}
