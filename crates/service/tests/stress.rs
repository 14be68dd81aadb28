//! Concurrency stress: many writer threads against one service.
//!
//! The service serializes commits under its write lock and numbers them
//! with a global commit sequence. These tests check *linearizability by
//! equivalence*: whatever interleaving the scheduler produces, the final
//! database must equal a serial replay of the same batches in commit
//! order — and shared-lock readers must only ever observe states that
//! satisfy the view invariant (`v = r1 ∪ r2` for the union strategy).

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::{ExecOutcome, Service};
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Tuple, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Example 3.1 union view over a fixed seed database.
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

/// The batch scripts thread `t` issues, in its own program order. Each
/// batch inserts a fresh window of thread-private values and deletes the
/// previous window, so every batch genuinely mutates and threads never
/// contend on the same tuples (commutativity is NOT assumed by the
/// checker, though — it replays in observed commit order).
fn thread_batches(t: i64, batches: usize, window: usize) -> Vec<Vec<String>> {
    (0..batches as i64)
        .map(|b| {
            let mut scripts = Vec::new();
            for k in 0..window as i64 {
                let v = 1000 * (t + 1) + 10 * b + k;
                scripts.push(format!("INSERT INTO v VALUES ({v});"));
            }
            if b > 0 {
                for k in 0..window as i64 {
                    let v = 1000 * (t + 1) + 10 * (b - 1) + k;
                    scripts.push(format!("DELETE FROM v WHERE a = {v};"));
                }
            }
            scripts
        })
        .collect()
}

#[test]
fn concurrent_batches_equal_serial_replay_in_commit_order() {
    const THREADS: i64 = 8;
    const BATCHES: usize = 12;
    const WINDOW: usize = 4;

    // (commit_seq, scripts of that batch) — filled concurrently.
    type CommitLog = Vec<(u64, Vec<String>)>;
    let service = Service::new(union_engine());
    let log: Arc<Mutex<CommitLog>> = Arc::new(Mutex::new(Vec::new()));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = service.clone();
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let mut session = service.session();
                for scripts in thread_batches(t, BATCHES, WINDOW) {
                    session.begin().unwrap();
                    for script in &scripts {
                        session.execute(script).unwrap();
                    }
                    let outcome = session.commit().unwrap();
                    log.lock().unwrap().push((outcome.commit_seq, scripts));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut log = Arc::try_unwrap(log).unwrap().into_inner().unwrap();
    assert_eq!(log.len(), (THREADS as usize) * BATCHES);
    log.sort_by_key(|(seq, _)| *seq);
    // Commit sequences are dense: every commit observed exactly once.
    for (i, (seq, _)) in log.iter().enumerate() {
        assert_eq!(*seq, i as u64 + 1, "commit sequence has gaps");
    }

    // Serial replay of the same batches, in commit order, on a fresh
    // engine — batched exactly as the concurrent run batched them.
    let replay_service = Service::new(union_engine());
    let mut replay = replay_service.session();
    for (_, scripts) in &log {
        replay.begin().unwrap();
        for script in scripts {
            replay.execute(script).unwrap();
        }
        replay.commit().unwrap();
    }
    drop(replay);

    let concurrent = service.into_engine().ok().expect("all sessions dropped");
    let serial = replay_service.into_engine().ok().expect("replay dropped");
    assert!(
        concurrent.database().same_contents(serial.database()),
        "concurrent execution diverged from its own commit-order serialization"
    );

    // And the survivors are exactly each thread's last window plus the
    // untouched seed tuples.
    let v = concurrent.relation("v").unwrap();
    assert_eq!(v.len(), 3 + (THREADS as usize) * WINDOW);
}

#[test]
fn readers_never_observe_a_torn_view() {
    const WRITERS: i64 = 4;
    const BATCHES: usize = 10;

    let service = Service::new(union_engine());
    let stop = Arc::new(AtomicBool::new(false));

    // Readers: under ONE shared-lock acquisition, snapshot r1, r2, v and
    // check the view invariant v = r1 ∪ r2. A torn (mid-update) state
    // would break it.
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let service = service.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checks = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let s = service.snapshot();
                    let snap = |name: &str| -> Vec<Tuple> {
                        s.relation(name).unwrap().iter().cloned().collect()
                    };
                    let (r1, r2, v) = (snap("r1"), snap("r2"), snap("v"));
                    let mut union: Vec<&Tuple> = r1.iter().chain(r2.iter()).collect();
                    union.sort();
                    union.dedup();
                    let mut view: Vec<&Tuple> = v.iter().collect();
                    view.sort();
                    assert_eq!(union, view, "reader observed v ≠ r1 ∪ r2");
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for scripts in thread_batches(t, BATCHES, 3) {
                    session.begin().unwrap();
                    for script in &scripts {
                        session.execute(script).unwrap();
                    }
                    session.commit().unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let checks = r.join().unwrap();
        assert!(checks > 0, "reader thread never got the lock");
    }
    assert_eq!(service.commits(), (WRITERS as usize * BATCHES) as u64);
}

#[test]
fn concurrent_autocommit_writers_on_disjoint_keys() {
    // Autocommit from many threads: per-statement transactions, fully
    // serialized by the write lock. Disjoint key ranges make the final
    // state order-independent, so it is checked directly.
    const THREADS: i64 = 6;
    const PER_THREAD: i64 = 25;

    let service = Service::new(union_engine());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for i in 0..PER_THREAD {
                    let v = 10_000 * (t + 1) + i;
                    let outcome = session
                        .execute(&format!("INSERT INTO v VALUES ({v});"))
                        .unwrap();
                    assert!(matches!(outcome, ExecOutcome::Applied(_)));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    assert_eq!(service.commits(), (THREADS * PER_THREAD) as u64);
    let r1 = service.query("r1").unwrap();
    for t in 0..THREADS {
        for i in 0..PER_THREAD {
            let v = 10_000 * (t + 1) + i;
            assert!(
                r1.iter().any(|tup| tup[0] == Value::int(v)),
                "insert of {v} lost under concurrency"
            );
        }
    }
}
