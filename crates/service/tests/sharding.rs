//! Footprint-sharding behaviour of the service: disjoint views commit
//! independently (and correctly) under concurrency, multi-shard batches
//! lock in global order, group-commit epochs preserve per-transaction
//! semantics on rejection, and the shard split is invisible to clients
//! (merge on teardown, routing on reads).
//!
//! The single-shard linearizability suite lives in `stress.rs` and runs
//! unmodified against the sharded service; this file covers what only
//! exists with more than one shard.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{Service, ServiceError};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Value};
use std::sync::{Arc, Mutex};
use std::time::Duration;

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

/// `views` disjoint union views (`v{i} = a{i} ∪ b{i}`) plus one free
/// base table `zfree` that no view touches.
fn disjoint_engine(views: usize) -> Engine {
    let mut db = Database::new();
    for i in 0..views {
        db.add_relation(Relation::with_tuples(format!("a{i}"), 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples(format!("b{i}"), 1, vec![tuple![2]]).unwrap())
            .unwrap();
    }
    db.add_relation(Relation::with_tuples("zfree", 1, vec![tuple![99]]).unwrap())
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

#[test]
fn disjoint_views_get_disjoint_shards() {
    let service = Service::new(disjoint_engine(3));
    // 3 view components + the free-table singleton.
    assert_eq!(service.shard_count(), 4);
    let s = service.snapshot();
    for i in 0..3 {
        assert!(s.is_view(&format!("v{i}")));
    }
    assert_eq!(s.relation("zfree").unwrap().len(), 1);
    // 3 × (view + 2 sources) + zfree.
    assert_eq!(s.relations().count(), 10);
}

#[test]
fn concurrent_disjoint_commits_are_correct_and_sequenced() {
    const VIEWS: usize = 4;
    const BATCHES: usize = 20;
    let service = Service::new(disjoint_engine(VIEWS));
    type CommitLog = Vec<(u64, usize, Vec<String>)>;
    let log: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..VIEWS)
        .map(|i| {
            let service = service.clone();
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut session = service.session();
                for b in 0..BATCHES {
                    let value = 1000 * (i + 1) + b;
                    let scripts = vec![format!("INSERT INTO v{i} VALUES ({value});")];
                    session.begin().unwrap();
                    for script in &scripts {
                        session.execute(script).unwrap();
                    }
                    let outcome = session.commit().unwrap();
                    log.lock().unwrap().push((outcome.commit_seq, i, scripts));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // The global sequence is dense across shards…
    let mut log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    log.sort_by_key(|(seq, _, _)| *seq);
    assert_eq!(log.len(), VIEWS * BATCHES);
    for (pos, (seq, _, _)) in log.iter().enumerate() {
        assert_eq!(*seq, pos as u64 + 1, "commit sequence has gaps");
    }
    // …and per shard it respects each session's program order.
    for i in 0..VIEWS {
        let per_view: Vec<&Vec<String>> = log
            .iter()
            .filter(|(_, view, _)| *view == i)
            .map(|(_, _, scripts)| scripts)
            .collect();
        let expected: Vec<Vec<String>> = (0..BATCHES)
            .map(|b| vec![format!("INSERT INTO v{i} VALUES ({});", 1000 * (i + 1) + b)])
            .collect();
        assert_eq!(per_view.len(), BATCHES);
        for (got, want) in per_view.iter().zip(expected.iter()) {
            assert_eq!(*got, want, "view {i} commit order broke program order");
        }
    }

    // Replaying the log in commit order on a fresh engine lands on the
    // same database — linearizability by equivalence, across shards.
    let replay_service = Service::new(disjoint_engine(VIEWS));
    let mut replay = replay_service.session();
    for (_, _, scripts) in &log {
        replay.begin().unwrap();
        for script in scripts {
            replay.execute(script).unwrap();
        }
        replay.commit().unwrap();
    }
    drop(replay);
    let concurrent = service.into_engine().ok().expect("sessions dropped");
    let serial = replay_service.into_engine().ok().expect("replay dropped");
    assert!(
        concurrent.database().same_contents(serial.database()),
        "disjoint-shard execution diverged from its commit-order serialization"
    );
}

#[test]
fn one_batch_spanning_two_shards_commits_atomically_enough() {
    let service = Service::new(disjoint_engine(2));
    let mut session = service.session();
    session.begin().unwrap();
    session.execute("INSERT INTO v0 VALUES (10);").unwrap();
    session.execute("INSERT INTO v1 VALUES (20);").unwrap();
    session.execute("INSERT INTO v0 VALUES (11);").unwrap();
    let outcome = session.commit().unwrap();
    assert_eq!(outcome.views, 2);
    assert_eq!(outcome.statements, 3);
    assert_eq!(outcome.commit_seq, 1);
    assert!(service.query("a0").unwrap().contains(&tuple![10]));
    assert!(service.query("a0").unwrap().contains(&tuple![11]));
    assert!(service.query("a1").unwrap().contains(&tuple![20]));
}

#[test]
fn reads_route_and_teardown_merges_all_shards() {
    let service = Service::new(disjoint_engine(2));
    let mut session = service.session();
    session.execute("INSERT INTO v1 VALUES (55);").unwrap();
    drop(session);
    // Single-shard read of a free table (its own singleton shard).
    assert_eq!(service.query("zfree").unwrap(), vec![tuple![99]]);
    // Whole-service snapshot sees every shard consistently.
    let s = service.snapshot();
    assert!(s.relation("a1").unwrap().contains(&tuple![55]));
    assert_eq!(s.view_names(), vec!["v0".to_owned(), "v1".to_owned()]);
    drop(s);
    // Teardown merges the shards back into one engine.
    let engine = service.into_engine().ok().expect("sole owner");
    assert!(engine.is_view("v0") && engine.is_view("v1"));
    assert_eq!(engine.database().names().count(), 7);
    assert!(engine.relation("a1").unwrap().contains(&tuple![55]));
}

/// A selection view with a domain constraint (`w` keeps positives in
/// `s`): what the group-commit rejection path needs.
fn constrained_service() -> Service {
    let mut db = Database::new();
    db.add_relation(Relation::with_tuples("s", 1, vec![tuple![3]]).unwrap())
        .unwrap();
    let strategy = UpdateStrategy::parse(
        DatabaseSchema::new().with(Schema::new("s", vec![("x", SortKind::Int)])),
        Schema::new("w", vec![("x", SortKind::Int)]),
        "
        false :- w(X), not X > 0.
        +s(X) :- w(X), not s(X).
        sp(X) :- s(X), X > 0.
        -s(X) :- sp(X), not w(X).
        ",
        None,
    )
    .unwrap();
    let mut engine = Engine::new(db);
    engine
        .register_view(strategy, StrategyMode::Incremental)
        .unwrap();
    Service::new(engine)
}

#[test]
fn epoch_rejection_falls_back_to_per_transaction_semantics() {
    // Two concurrent autocommit transactions: one violates the
    // constraint, one is fine. Whatever epochs the scheduler produced,
    // the violator must fail, the valid one must apply, and exactly one
    // commit must be sequenced. (That a shared epoch falls back to
    // per-member replay is proven deterministically by the commit
    // pipeline's unit tests.)
    for _ in 0..10 {
        let service = constrained_service();
        let bad = {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                session.execute("INSERT INTO w VALUES (-5);")
            })
        };
        let good = {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                session.execute("INSERT INTO w VALUES (7);")
            })
        };
        let bad = bad.join().unwrap();
        let good = good.join().unwrap();
        assert!(
            matches!(bad, Err(ServiceError::Engine(_))),
            "constraint violator must fail: {bad:?}"
        );
        assert!(good.is_ok(), "valid transaction must survive: {good:?}");
        let s = service.query("s").unwrap();
        assert!(s.iter().any(|t| t[0] == Value::int(7)));
        assert!(!s.iter().any(|t| t[0] == Value::int(-5)));
        assert_eq!(service.commits(), 1, "only the valid tx is sequenced");
    }
}

#[test]
fn windowed_epochs_coalesce_but_count_every_transaction() {
    const CLIENTS: usize = 6;
    const PER_CLIENT: usize = 10;
    // Six clients racing on one view: however their transactions fell
    // into epochs, every one is sequenced and applied. (That queued
    // members share one epoch is proven deterministically by the commit
    // pipeline's unit tests.)
    let service = constrained_service();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for k in 0..PER_CLIENT {
                    let value = 100 * (c + 1) + k;
                    session
                        .execute(&format!("INSERT INTO w VALUES ({value});"))
                        .unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(service.commits(), (CLIENTS * PER_CLIENT) as u64);
    let s = service.query("s").unwrap();
    for c in 0..CLIENTS {
        for k in 0..PER_CLIENT {
            let value = 100 * (c + 1) + k;
            assert!(
                s.iter().any(|t| t[0] == Value::int(value as i64)),
                "insert of {value} lost in a coalesced epoch"
            );
        }
    }
}

#[test]
fn disjoint_commits_do_not_serialize_behind_a_held_shard() {
    // Commits on disjoint views take disjoint shard locks. With v0's
    // shard held — a long commit there — an autocommit and a batch on
    // v1 still finish, while an autocommit on v0 waits for the lock.
    let service = Service::new(disjoint_engine(2));
    let guard = service
        .debug_write_lock_shard("v0")
        .expect("v0 has a shard");
    let (done, finished) = std::sync::mpsc::channel();
    let blocked = {
        let (service, done) = (service.clone(), done.clone());
        std::thread::spawn(move || {
            service.session().execute("INSERT INTO v0 VALUES (70);")?;
            done.send("v0").unwrap();
            Ok::<_, ServiceError>(())
        })
    };
    let free = {
        let service = service.clone();
        std::thread::spawn(move || {
            let mut session = service.session();
            session.execute("INSERT INTO v1 VALUES (71);")?;
            session.begin()?;
            session.execute("INSERT INTO v1 VALUES (72);")?;
            session.execute("INSERT INTO v1 VALUES (73);")?;
            session.commit()?;
            done.send("v1").unwrap();
            Ok::<_, ServiceError>(())
        })
    };
    assert_eq!(
        finished.recv_timeout(Duration::from_secs(5)),
        Ok("v1"),
        "an autocommit and a batch on v1 must not wait for v0's shard"
    );
    free.join().unwrap().unwrap();
    assert!(
        finished.recv_timeout(Duration::from_millis(200)).is_err(),
        "the autocommit on v0 finished while its shard was held"
    );
    drop(guard);
    assert_eq!(finished.recv_timeout(Duration::from_secs(5)), Ok("v0"));
    blocked.join().unwrap().unwrap();
    assert_eq!(service.commits(), 3);
    assert!(service.query("v0").unwrap().contains(&tuple![70]));
}

#[test]
fn single_shard_reads_do_not_serialize_behind_other_shards_writers() {
    // ISSUE 5 satellite: `query` and `stats` route through the owning
    // shard (one read lock at a time), so a long write on one shard —
    // simulated here by parking on its write lock — must not block
    // reads of *other* shards. (`Service::read`, the all-shard barrier,
    // stays available for cross-shard-consistent reads and would block
    // here by design.)
    let service = Service::new(disjoint_engine(2));
    let _writer = service
        .debug_write_lock_shard("v0")
        .expect("v0 has a shard");

    let (tx, rx) = std::sync::mpsc::channel();
    let probe = {
        let service = service.clone();
        std::thread::spawn(move || {
            // Owning-shard queries of the *unlocked* shard only: the
            // satellite's guarantee is that these never take (or wait
            // on) any other shard's lock. (view_names/relation_stats
            // visit every shard in turn, so they would rightly wait for
            // v0's writer at its slot — covered by the barrier-free
            // shape test below, not this blocking test.)
            let v1 = service.query("v1").expect("v1 known");
            let b1 = service.query("b1").expect("b1 known");
            tx.send((v1, b1)).unwrap();
        })
    };
    let (v1, b1) = rx
        .recv_timeout(Duration::from_secs(5))
        .expect("single-shard reads must complete while v0's shard is write-locked");
    assert_eq!(v1, vec![tuple![1], tuple![2]]);
    assert_eq!(b1, vec![tuple![2]]);
    probe.join().unwrap();
}

#[test]
fn view_names_and_relation_stats_walk_shards_without_a_barrier() {
    let service = Service::new(disjoint_engine(2));
    assert_eq!(service.view_names(), vec!["v0".to_owned(), "v1".to_owned()]);
    let stats = service.relation_stats();
    let names: Vec<&str> = stats.iter().map(|s| s.name.as_str()).collect();
    assert_eq!(names, vec!["a0", "a1", "b0", "b1", "v0", "v1", "zfree"]);
    assert!(stats.iter().all(|s| s.tuples >= 1));
}

#[test]
fn relation_stats_surface_index_probe_counters() {
    // An incremental update probes source relations through their
    // registration-time indexes; the published snapshot must carry the
    // cumulative hit counters, and none of the probes may have fallen
    // back to a full scan (that would mean the planner requested an
    // index nothing built — the drift these counters exist to expose).
    let service = Service::new(disjoint_engine(1));
    let mut session = service.session();
    session.execute("INSERT INTO v0 VALUES (7);").unwrap();
    session.execute("DELETE FROM v0 WHERE a = 1;").unwrap();
    let stats = service.relation_stats();
    let hits: u64 = stats.iter().map(|s| s.index_hits).sum();
    assert!(hits > 0, "no probe was served by an index: {stats:?}");
    assert!(
        stats.iter().all(|s| s.index_misses == 0),
        "silent scan fallback: {stats:?}"
    );
}
