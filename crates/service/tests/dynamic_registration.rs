//! Dynamic view registration on a live service (ISSUE 10 tentpole):
//! registration under concurrent disjoint-shard writers, commit
//! progress through the quiesce window, footprint conformance of the
//! quiesce barrier (via the engine's read trace), cascade-target
//! protection on deregistration, WAL recovery of interleaved
//! registrations and commits, and the wire-level `register` /
//! `unregister` / `validate` ops.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{DurabilityConfig, LocalClient, Service, ServiceConfig, ServiceError};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Tuple};
use birds_wal::FsyncPolicy;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The union strategy `view = r1 ∪ r2` over unary int sources.
fn union_strategy(view: &str, r1: &str, r2: &str) -> UpdateStrategy {
    UpdateStrategy::parse(
        DatabaseSchema::new()
            .with(Schema::new(r1, vec![("a", SortKind::Int)]))
            .with(Schema::new(r2, vec![("a", SortKind::Int)])),
        Schema::new(view, vec![("a", SortKind::Int)]),
        &format!(
            "
            -{r1}(X) :- {r1}(X), not {view}(X).
            -{r2}(X) :- {r2}(X), not {view}(X).
            +{r1}(X) :- {view}(X), not {r1}(X), not {r2}(X).
            "
        ),
        None,
    )
    .unwrap()
}

/// `views` disjoint union views (`v{i} = a{i} ∪ b{i}`) plus two free
/// base tables `p` and `q` for a later live registration to claim.
fn engine_with_free_tables(views: usize) -> Engine {
    let mut db = Database::new();
    for i in 0..views {
        db.add_relation(Relation::with_tuples(format!("a{i}"), 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples(format!("b{i}"), 1, vec![tuple![2]]).unwrap())
            .unwrap();
    }
    db.add_relation(Relation::with_tuples("p", 1, vec![tuple![10]]).unwrap())
        .unwrap();
    db.add_relation(Relation::with_tuples("q", 1, vec![tuple![20]]).unwrap())
        .unwrap();
    let mut engine = Engine::new(db);
    for i in 0..views {
        engine
            .register_view(
                union_strategy(&format!("v{i}"), &format!("a{i}"), &format!("b{i}")),
                StrategyMode::Incremental,
            )
            .unwrap();
    }
    engine
}

fn sorted(service: &Service, relation: &str) -> Vec<Tuple> {
    service.query(relation).unwrap()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "birds-dynreg-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Tentpole: a registration lands while writers hammer disjoint shards.
/// Every commit succeeds, the global commit sequence stays dense (the
/// registration consumes a seq like any transaction), and the final
/// state equals the serial replay — the registration is just another
/// serializable transaction.
#[test]
fn registration_is_serializable_against_concurrent_disjoint_writers() {
    const VIEWS: usize = 3;
    const BATCHES: usize = 15;
    let service = Service::new(engine_with_free_tables(VIEWS));
    assert_eq!(service.shard_count(), VIEWS + 2); // + free p, q

    let writers: Vec<_> = (0..VIEWS)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for b in 0..BATCHES {
                    let value = 1000 * (i + 1) + b;
                    session
                        .execute(&format!("INSERT INTO v{i} VALUES ({value});"))
                        .unwrap();
                }
            })
        })
        .collect();
    // Register `w = p ∪ q` mid-stream: its footprint is disjoint from
    // every writer's shard.
    let seq = service
        .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
        .unwrap();
    assert!(seq >= 1);
    for writer in writers {
        writer.join().unwrap();
    }

    // Dense sequence: every writer transaction + the registration.
    assert_eq!(service.commits(), (VIEWS * BATCHES) as u64 + 1);
    // Serial-replay equivalence: every writer's inserts landed in its
    // own a{i} (disjoint shards — nothing was lost or cross-applied).
    for i in 0..VIEWS {
        let a = sorted(&service, &format!("a{i}"));
        for b in 0..BATCHES {
            let value = 1000 * (i + 1) + b;
            assert!(a.contains(&tuple![value as i64]), "v{i} lost {value}");
        }
    }
    // The registration itself took effect and the new view is writable.
    assert_eq!(sorted(&service, "w"), vec![tuple![10], tuple![20]]);
    let mut session = service.session();
    session.execute("INSERT INTO w VALUES (30);").unwrap();
    assert_eq!(
        sorted(&service, "w"),
        vec![tuple![10], tuple![20], tuple![30]]
    );
}

/// The quiesce barrier write-locks only the shards inside the new
/// view's footprint: while it is held, a commit on an *untouched* shard
/// completes, and a commit on an *affected* shard blocks until the
/// registration installs its successor topology.
#[test]
fn commits_on_untouched_shards_proceed_during_quiesce() {
    // v0 = a0 ∪ b0, v1 = a1 ∪ b1, free p and q. The new view
    // `w = a0 ∪ p` overlaps v0's shard (a0) — so v0 commits must wait —
    // but not v1's.
    let service = Service::new(engine_with_free_tables(2));
    let affected_done = Arc::new(AtomicBool::new(false));

    let untouched = {
        let service = service.clone();
        move || {
            let mut session = service.session();
            session.execute("INSERT INTO v1 VALUES (111);").unwrap();
        }
    };
    let affected = {
        let service = service.clone();
        let affected_done = Arc::clone(&affected_done);
        move || {
            let mut session = service.session();
            session.execute("INSERT INTO v0 VALUES (100);").unwrap();
            affected_done.store(true, Ordering::SeqCst);
        }
    };

    let mut affected_handle = None;
    service
        .register_view_with_quiesce_hook(
            union_strategy("w", "a0", "p"),
            StrategyMode::Incremental,
            || {
                // Barrier is held: v0's shard (and p's) are write-locked.
                let handle = std::thread::spawn(affected);
                // A commit on v1's untouched shard completes while the
                // barrier is up — if the quiesce were global this join
                // would deadlock, so it doubles as the proof.
                std::thread::spawn(untouched).join().unwrap();
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert!(
                    !affected_done.load(Ordering::SeqCst),
                    "a commit on an affected shard slipped through the barrier"
                );
                affected_handle = Some(handle);
            },
        )
        .unwrap();
    // Barrier released: the blocked commit drains against the successor
    // topology (v0 and w now share a shard).
    affected_handle.unwrap().join().unwrap();
    assert!(affected_done.load(Ordering::SeqCst));
    assert!(sorted(&service, "a0").contains(&tuple![100]));
    assert!(sorted(&service, "a1").contains(&tuple![111]));
    // w materialized a0 ∪ p as of its registration seq. (A commit
    // through v0 maintains v0 only — sibling views over shared sources
    // are refreshed explicitly, per the engine's `refresh_view`
    // contract — so the late v0 insert does not appear in w.)
    assert_eq!(sorted(&service, "w"), vec![tuple![1], tuple![10]]);
}

/// Footprint conformance: the registration's engine work reads only
/// relations inside the quiesced footprint — pinned with the engine's
/// shared read-trace sink, which survives the merge/split cycle.
#[test]
fn registration_reads_stay_inside_the_declared_footprint() {
    let mut engine = engine_with_free_tables(1);
    engine.set_read_trace(true);
    let service = Service::new(engine);
    service.debug_take_read_trace(); // drop construction noise

    service
        .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
        .unwrap();
    let traced = service.debug_take_read_trace();
    assert!(!traced.is_empty(), "materializing w must read its sources");
    for relation in &traced {
        // Delta relations are traced under their sigil-prefixed names
        // (`+w` / `-w`); conformance is about the base relation.
        let base = relation.trim_start_matches(['+', '-']);
        assert!(
            ["p", "q", "w"].contains(&base),
            "registration read '{relation}', outside the declared footprint {{p, q, w}}"
        );
    }
}

/// Deregistering a view that another view's footprint still reaches is
/// refused with the dependent's name — dropping it would dangle the
/// dependent's update path.
#[test]
fn unregister_of_a_cascade_target_is_rejected() {
    let service = Service::new(engine_with_free_tables(1));
    // w's sources include the *view* v0: w's putdelta writes into v0,
    // so v0 becomes a cascade target of w.
    service
        .register_view(union_strategy("w", "v0", "p"), StrategyMode::Incremental)
        .unwrap();
    assert_eq!(
        service.unregister_view("v0"),
        Err(ServiceError::RelationConflict("w".into()))
    );
    // Dropping the dependent first unblocks the target.
    service.unregister_view("w").unwrap();
    service.unregister_view("v0").unwrap();
    assert!(service.view_names().is_empty());
}

/// Durability of the tentpole: registrations and deregistrations are
/// WAL records ordered by commit seq; a checkpoint snapshots the live
/// registration set as a manifest. A service recovered from the data
/// directory replays the interleaving exactly — runtime-registered
/// views survive restarts with their contents.
#[test]
fn recovery_replays_interleaved_registrations_and_commits() {
    let dir = temp_dir("interleaved");
    let seed = || {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
        Engine::new(db)
    };
    let durable = |fsync| {
        let mut config = DurabilityConfig::new(&dir);
        config.fsync = fsync;
        config.checkpoint_every = None;
        config
    };
    {
        let service = Service::open(
            seed(),
            ServiceConfig::default(),
            durable(FsyncPolicy::Epoch),
        )
        .unwrap();
        // seq 1: register v; seq 2: commit through it.
        service
            .register_view(union_strategy("v", "r1", "r2"), StrategyMode::Incremental)
            .unwrap();
        let mut session = service.session();
        session.execute("INSERT INTO v VALUES (7);").unwrap();
        // Checkpoint mid-history: the snapshot manifest must carry v's
        // definition, and everything after replays from the WAL.
        service.checkpoint().unwrap();
        // seq 3: drop v; seq 4: re-register; seq 5: commit again.
        service.unregister_view("v").unwrap();
        service
            .register_view(union_strategy("v", "r1", "r2"), StrategyMode::Incremental)
            .unwrap();
        session.execute("INSERT INTO v VALUES (9);").unwrap();
        assert_eq!(service.commits(), 5);
    }
    // Recover from a seed with NO views: v must come back from the
    // checkpoint manifest + WAL replay, contents intact.
    let recovered = Service::open(
        seed(),
        ServiceConfig::default(),
        durable(FsyncPolicy::Epoch),
    )
    .unwrap();
    assert_eq!(recovered.commits(), 5);
    assert_eq!(recovered.view_names(), vec!["v".to_owned()]);
    assert_eq!(
        sorted(&recovered, "v"),
        vec![tuple![1], tuple![2], tuple![4], tuple![7], tuple![9]]
    );
    // The recovered registration is live: commits and deregistration
    // keep working.
    let mut session = recovered.session();
    session.execute("DELETE FROM v WHERE a = 7;").unwrap();
    assert!(!sorted(&recovered, "v").contains(&tuple![7]));
    recovered.unregister_view("v").unwrap();
    assert!(recovered.view_names().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The wire ops: `register` re-shards the live service, `unregister`
/// undoes it, `validate` answers statelessly, and typed rejections
/// surface as ordinary error responses.
#[test]
fn protocol_register_unregister_validate_round_trip() {
    let service = Service::new(engine_with_free_tables(0)); // just p and q
    let mut client = LocalClient::connect(&service);
    let spec = r#""view":{"name":"w","columns":[["a","int"]]},
        "sources":[{"name":"p","columns":[["a","int"]]},{"name":"q","columns":[["a","int"]]}],
        "putdelta":"-p(X) :- p(X), not w(X). -q(X) :- q(X), not w(X). +p(X) :- w(X), not p(X), not q(X).""#;

    let resp = client.request_line(&format!(r#"{{"op":"validate",{spec}}}"#));
    assert!(resp.contains(r#""valid": true"#), "{resp}");

    let resp = client.request_line(&format!(
        r#"{{"op":"register",{spec},"mode":"incremental"}}"#
    ));
    assert!(resp.contains(r#""registered": "w""#), "{resp}");
    assert!(resp.contains(r#""shards": 1"#), "{resp}");
    let resp = client.request_line(r#"{"op":"execute","sql":"INSERT INTO w VALUES (30);"}"#);
    assert!(resp.contains(r#""applied": true"#), "{resp}");
    let resp = client.request_line(r#"{"op":"query","relation":"w"}"#);
    assert!(resp.contains("[[10], [20], [30]]"), "{resp}");

    // Duplicate registration: typed error, connection stays usable.
    let resp = client.request_line(&format!(
        r#"{{"op":"register",{spec},"mode":"incremental"}}"#
    ));
    assert!(resp.contains("already registered"), "{resp}");

    let resp = client.request_line(r#"{"op":"unregister","view":"w"}"#);
    assert!(resp.contains(r#""unregistered": "w""#), "{resp}");
    assert!(resp.contains(r#""shards": 2"#), "{resp}");
    let resp = client.request_line(r#"{"op":"query","relation":"w"}"#);
    assert!(resp.contains("unknown relation"), "{resp}");

    // Stateless validate of an ill-behaved strategy: a verdict, not an
    // error — and nothing registered.
    let resp = client.request_line(
        r#"{"op":"validate","view":{"name":"w2","columns":[["a","int"]]},
           "sources":[{"name":"p","columns":[["a","int"]]}],
           "putdelta":"+p(X) :- w2(X)."}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert!(resp.contains(r#""valid": false"#), "{resp}");
    assert!(service.view_names().is_empty());
}

/// A re-shard publishes its successor snapshot — new route, replacement
/// images, survivors' entries — in one store, before the topology swap.
/// A reader looping `snapshot()` and `query` on the base tables while a
/// view over the two free tables is registered and unregistered 50
/// times never gets `UnknownRelation` and never sees a base table go
/// missing.
#[test]
fn reads_keep_every_base_table_across_re_shards() {
    const ROUNDS: usize = 50;
    const BASES: [&str; 4] = ["a0", "b0", "p", "q"];
    let service = Service::new(engine_with_free_tables(1));

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let snapshot = service.snapshot();
                for base in BASES {
                    assert!(
                        snapshot.relation(base).is_some(),
                        "a snapshot lost base table {base}"
                    );
                    let rows = service.query(base);
                    assert!(
                        matches!(&rows, Ok(rows) if rows.len() == 1),
                        "query({base}) = {rows:?}"
                    );
                }
                reads += 1;
            }
            reads
        })
    };

    for _ in 0..ROUNDS {
        service
            .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
            .unwrap();
        service.unregister_view("w").unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);
    assert_eq!(service.view_names(), vec!["v0".to_owned()]);
    assert_eq!(service.shard_count(), 3); // v0's component, p, q
}

/// A registered view is writable the moment a reader can see it: the
/// topology swap happens under the publication lock, so an insert into
/// a view `view_names` just listed never answers `NotAView`.
#[test]
fn a_view_is_writable_as_soon_as_it_is_visible() {
    use std::sync::mpsc;
    use std::time::Duration;
    const CYCLES: i64 = 100;
    let service = Service::new(engine_with_free_tables(1));
    let visible = |service: &Service| service.view_names().iter().any(|name| name == "w");
    let (seen_tx, seen) = mpsc::channel();
    let reader = {
        let service = service.clone();
        std::thread::spawn(move || {
            let mut session = service.session();
            for cycle in 0..CYCLES {
                while !visible(&service) {
                    std::hint::spin_loop();
                }
                let inserted = session.execute(&format!("INSERT INTO w VALUES ({});", 100 + cycle));
                assert!(inserted.is_ok(), "cycle {cycle}: {inserted:?}");
                seen_tx.send(()).unwrap();
                while visible(&service) {
                    std::hint::spin_loop();
                }
                seen_tx.send(()).unwrap();
            }
        })
    };
    for cycle in 0..CYCLES {
        service
            .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
            .unwrap();
        seen.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("cycle {cycle}: the reader stopped"));
        service.unregister_view("w").unwrap();
        seen.recv_timeout(Duration::from_secs(30))
            .unwrap_or_else(|_| panic!("cycle {cycle}: the reader stopped"));
    }
    reader.join().unwrap();
    assert_eq!(sorted(&service, "p").len(), 1 + CYCLES as usize);
}

/// An autocommit raced against the deregistration of its view either
/// commits or answers `NotAView` — within a bound, whichever wins.
#[test]
fn an_autocommit_racing_unregister_ends_ok_or_not_a_view() {
    use birds_engine::EngineError;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;
    let service = Service::new(engine_with_free_tables(1));
    let mut outcomes = [0usize; 2];
    for round in 0..50 {
        service
            .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
            .unwrap();
        let start = Arc::new(Barrier::new(2));
        let (done_tx, done) = mpsc::channel();
        let submitter = {
            let (service, start) = (service.clone(), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                let outcome = service
                    .session()
                    .execute(&format!("INSERT INTO w VALUES ({});", 1000 + round));
                let _ = done_tx.send(outcome);
            })
        };
        start.wait();
        service.unregister_view("w").unwrap();
        match done.recv_timeout(Duration::from_secs(10)) {
            Ok(Ok(_)) => outcomes[0] += 1,
            Ok(Err(ServiceError::Engine(EngineError::NotAView(view)))) if view == "w" => {
                outcomes[1] += 1
            }
            Ok(Err(e)) => panic!("round {round}: {e}"),
            Err(_) => panic!("round {round}: the autocommit hung"),
        }
        submitter.join().unwrap();
    }
    assert_eq!(outcomes.iter().sum::<usize>(), 50, "{outcomes:?}");
}

/// The series numbers of the WAL segments in `dir`.
fn wal_series(dir: &Path) -> BTreeSet<usize> {
    let segments = birds_wal::segment::scan_segments(dir).unwrap();
    segments.into_iter().map(|segment| segment.shard).collect()
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let target = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).unwrap();
        }
    }
}

/// Views, commit count and every relation's rows.
type Contents = (Vec<String>, u64, Vec<(String, Vec<Tuple>)>);

fn contents(service: &Service) -> Contents {
    let relations = service
        .relation_stats()
        .into_iter()
        .map(|stats| (stats.name.clone(), sorted(service, &stats.name)))
        .collect();
    (service.view_names(), service.commits(), relations)
}

/// A re-shard drops the shards it retires. After 20 register/unregister
/// cycles of `w = p ∪ q` on a durable service, the published snapshot
/// has one entry per live shard, a checkpoint leaves the WAL series of
/// exactly the live shards, and a reopen equals memory from the
/// directory as it was both before and after that checkpoint. A
/// restart into fewer shards leaves the previous run's other series
/// behind, and its first checkpoint deletes them.
#[test]
fn re_shard_cycles_keep_only_live_shards_and_their_wal_series() {
    const CYCLES: i64 = 20;
    let dir = temp_dir("cycles");
    let before_checkpoint = temp_dir("cycles-before-checkpoint");
    let open = |dir: &Path| {
        let mut config = DurabilityConfig::new(dir);
        config.checkpoint_every = None;
        Service::open(engine_with_free_tables(1), ServiceConfig::default(), config).unwrap()
    };
    let service = open(&dir);
    for cycle in 0..CYCLES {
        service
            .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
            .unwrap();
        let mut session = service.session();
        session
            .execute(&format!("INSERT INTO w VALUES ({});", 100 + cycle))
            .unwrap();
        session
            .execute(&format!("INSERT INTO v0 VALUES ({});", 100 + cycle))
            .unwrap();
        service.unregister_view("w").unwrap();
    }
    assert_eq!(service.shard_count(), 3); // v0's component, p, q
    assert_eq!(service.snapshot().shard_seqs().len(), service.shard_count());

    copy_dir(&dir, &before_checkpoint);
    service.checkpoint().unwrap();
    assert_eq!(wal_series(&dir).len(), service.shard_count());
    let memory = contents(&service);
    assert_eq!(
        contents(&open(&before_checkpoint)),
        memory,
        "a reopen without the checkpoint"
    );

    // End with `w` registered: two shards, v0's and w's.
    service
        .register_view(union_strategy("w", "p", "q"), StrategyMode::Incremental)
        .unwrap();
    service
        .session()
        .execute("INSERT INTO w VALUES (7);")
        .unwrap();
    let memory = contents(&service);
    drop(service);
    let reopened = open(&dir);
    assert_eq!(contents(&reopened), memory, "a reopen after the checkpoint");
    assert_eq!(reopened.shard_count(), 2);
    reopened.checkpoint().unwrap();
    assert_eq!(
        wal_series(&dir),
        BTreeSet::from([0, 1]),
        "orphan series remain"
    );
    assert_eq!(contents(&reopened), memory);
    drop(reopened);
    assert_eq!(contents(&open(&dir)), memory);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&before_checkpoint).unwrap();
}
