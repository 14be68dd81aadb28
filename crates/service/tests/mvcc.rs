//! MVCC read-path guarantees: snapshot isolation and non-interference.
//!
//! These tests pin the two claims the snapshot subsystem makes
//! (`crates/service/src/snapshot.rs`):
//!
//! 1. **Readers never wait for writers.** A held shard *write* lock —
//!    the worst case, a commit parked mid-critical-section — must not
//!    block `query`, `snapshot`, or `relation_stats`, because reads go
//!    through published `Arc` images, never through the shard locks.
//! 2. **A pinned snapshot is immutable.** A `ServiceSnapshot` taken
//!    before a storm of commits observes exactly the image it pinned —
//!    same tuples, same per-shard commit seqs — no matter how many
//!    epochs advance underneath it.
//!
//! The engine here is the disjoint-union fixture from `sharding.rs`:
//! `views` independent components `v{i} = a{i} ∪ b{i}` plus a free
//! table, so writers fan out across shards and the cross-shard seqlock
//! path is exercised too.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::Service;
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
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

/// The full observable image of a snapshot: per-shard seqs plus every
/// relation's sorted contents.
fn fingerprint(
    snapshot: &birds_service::ServiceSnapshot,
) -> (Vec<u64>, Vec<(String, Vec<String>)>) {
    let mut rels: Vec<(String, Vec<String>)> = snapshot
        .relations()
        .map(|rel| {
            let mut tuples: Vec<String> = rel.iter().map(|t| format!("{t:?}")).collect();
            tuples.sort();
            (rel.name().to_owned(), tuples)
        })
        .collect();
    rels.sort();
    (snapshot.shard_seqs(), rels)
}

/// A reader pinned to an old snapshot observes a commit-seq-consistent,
/// frozen image while 4 writers advance 100+ epochs under it — and a
/// fresh snapshot taken at any point during the storm satisfies every
/// shard's view invariant (`v{i} = a{i} ∪ b{i}`).
#[test]
fn pinned_snapshot_survives_concurrent_writer_storm() {
    const WRITERS: usize = 4;
    const BATCHES: usize = 30; // 4 × 30 = 120 epochs past the pin
    let service = Service::new(disjoint_engine(WRITERS));

    // Seed one commit so the pinned image is not the trivial seq-0 one.
    let mut session = service.session();
    session.execute("INSERT INTO v0 VALUES (7);").unwrap();
    drop(session);

    let pinned = service.snapshot();
    let pinned_before = fingerprint(&pinned);
    let pin_seq = pinned.commit_seq();
    assert_eq!(pin_seq, 1);

    let stop = Arc::new(AtomicBool::new(false));
    let checker = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            // Fresh snapshots taken mid-storm must be internally
            // consistent: within a shard, images publish atomically, so
            // the union invariant holds in every observed image.
            while !stop.load(Ordering::Relaxed) {
                let fresh = service.snapshot();
                for i in 0..WRITERS {
                    let view: std::collections::BTreeSet<String> = fresh
                        .relation(&format!("v{i}"))
                        .unwrap()
                        .iter()
                        .map(|t| format!("{t:?}"))
                        .collect();
                    let union: std::collections::BTreeSet<String> = fresh
                        .relation(&format!("a{i}"))
                        .unwrap()
                        .iter()
                        .chain(fresh.relation(&format!("b{i}")).unwrap().iter())
                        .map(|t| format!("{t:?}"))
                        .collect();
                    assert_eq!(view, union, "shard {i} image violates v = a ∪ b");
                }
            }
        })
    };

    let writers: Vec<_> = (0..WRITERS)
        .map(|i| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for b in 0..BATCHES {
                    let value = 1000 * (i + 1) + b;
                    session.begin().unwrap();
                    session
                        .execute(&format!("INSERT INTO v{i} VALUES ({value});"))
                        .unwrap();
                    session.commit().unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    checker.join().unwrap();

    // The pinned image is bit-for-bit what it was: same shard seqs,
    // same relations, same tuples.
    assert_eq!(fingerprint(&pinned), pinned_before);
    assert_eq!(pinned.commit_seq(), pin_seq);
    assert_eq!(pinned.relation("v0").unwrap().len(), 3); // {1, 2, 7}

    // The live service has moved on past all 120 commits…
    let fresh = service.snapshot();
    assert_eq!(fresh.commit_seq(), pin_seq + (WRITERS * BATCHES) as u64);
    // …and every writer's tuples are visible in it.
    for i in 0..WRITERS {
        let v = service.query(&format!("v{i}")).unwrap();
        assert_eq!(v.len(), 2 + BATCHES + usize::from(i == 0));
    }
}

/// Two batch commits with **disjoint multi-shard footprints** publish
/// concurrently — they hold disjoint shard locks, so nothing else
/// orders them — and a reader must still never assemble half of
/// either. The publication seqlock alone cannot express "two
/// publications in flight" (two opening increments make the counter
/// even again, 0→1→2, while both are mid-swap), so multi-shard
/// publications serialize on a dedicated mutex; this test pins that.
///
/// Each writer's batch inserts the same value into both views of its
/// pair, so in every consistent cut the pair's contents are equal; a
/// torn cut shows up as one view holding a value its partner lacks.
#[test]
fn disjoint_multi_shard_commits_publish_atomically() {
    const BATCHES: usize = 200;
    const PAIRS: [(usize, usize); 2] = [(0, 1), (2, 3)];
    let service = Service::new(disjoint_engine(4));

    let stop = Arc::new(AtomicBool::new(false));
    let checker = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let fresh = service.snapshot();
                for (x, y) in PAIRS {
                    let contents = |i: usize| -> std::collections::BTreeSet<String> {
                        fresh
                            .relation(&format!("v{i}"))
                            .unwrap()
                            .iter()
                            .map(|t| format!("{t:?}"))
                            .collect()
                    };
                    assert_eq!(
                        contents(x),
                        contents(y),
                        "torn cut: v{x} and v{y} were committed together \
                         but a snapshot saw them diverge"
                    );
                }
            }
        })
    };

    let writers: Vec<_> = PAIRS
        .map(|(x, y)| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                for b in 0..BATCHES {
                    let value = 1000 + b;
                    session.begin().unwrap();
                    session
                        .execute(&format!(
                            "INSERT INTO v{x} VALUES ({value}); \
                             INSERT INTO v{y} VALUES ({value});"
                        ))
                        .unwrap();
                    session.commit().unwrap();
                }
            })
        })
        .into_iter()
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    checker.join().unwrap();

    // Both pairs converged: base {1, 2} plus every batch's value.
    for i in 0..4 {
        assert_eq!(service.query(&format!("v{i}")).unwrap().len(), 2 + BATCHES);
    }
}

/// A held shard *write* lock — a commit parked mid-critical-section —
/// does not block the lock-free read path. Every read below runs on a
/// separate thread with a timeout, so a regression to lock-taking reads
/// fails fast instead of deadlocking the suite.
#[test]
fn held_write_lock_does_not_block_reads() {
    const VIEWS: usize = 3;
    let service = Service::new(disjoint_engine(VIEWS));
    let mut session = service.session();
    session.execute("INSERT INTO v1 VALUES (41);").unwrap();
    drop(session);

    // Park "commits" on EVERY shard: write locks on all view shards
    // and the free-table shard, held for the duration.
    let guards: Vec<_> = (0..VIEWS)
        .map(|i| service.debug_write_lock_shard(&format!("v{i}")).unwrap())
        .chain(std::iter::once(
            service.debug_write_lock_shard("zfree").unwrap(),
        ))
        .collect();

    let (tx, rx) = mpsc::channel();
    let reader = {
        let service = service.clone();
        std::thread::spawn(move || {
            // Single-shard query on a write-locked shard…
            let v1 = service.query("v1").unwrap();
            // …a consistent all-shard snapshot…
            let snapshot = service.snapshot();
            // …and the stats aggregate, all while every lock is held.
            let stats = service.relation_stats();
            tx.send((v1, snapshot.commit_seq(), stats)).unwrap();
        })
    };
    let (v1, seq, stats) = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("reads must not block behind held shard write locks");
    reader.join().unwrap();

    assert_eq!(v1, vec![tuple![1], tuple![2], tuple![41]]);
    assert_eq!(seq, 1);
    assert_eq!(stats.len(), 3 * VIEWS + 1);
    drop(guards);

    // Unknown names are a typed error, not a hang or a panic.
    assert!(matches!(
        service.query("no_such_relation"),
        Err(birds_service::ServiceError::UnknownRelation(name)) if name == "no_such_relation"
    ));
}

/// The one seq-less visibility caveat (see `snapshot.rs`), pinned: on an
/// **in-memory** service a multi-view batch that fails on its second
/// view keeps its first view applied — atomicity is per view — and, with
/// no WAL to log that prefix under a fresh seq, the mutated shard
/// republishes at its *unchanged* high-water seq. The write is visible
/// on the lock-free read path; no commit seq was consumed for it.
#[test]
fn failed_in_memory_batch_publishes_its_prefix_without_a_seq() {
    let service = Service::new(disjoint_engine(2));
    let mut session = service.session();
    // One ordinary commit first, so "unchanged" is not just "zero".
    session.execute("INSERT INTO v1 VALUES (5);").unwrap();
    let before = service.snapshot();
    assert_eq!(before.commit_seq(), 1);

    session.begin().unwrap();
    session.execute("INSERT INTO v0 VALUES (70);").unwrap();
    // `zfree` is a base relation, not a view: the second group fails.
    session.execute("INSERT INTO zfree VALUES (1);").unwrap();
    assert!(session.commit().is_err());

    // The failed batch's first view is visible …
    assert!(service.query("v0").unwrap().contains(&tuple![70]));
    let after = service.snapshot();
    assert!(after.relation("a0").unwrap().contains(&tuple![70]));
    // … yet no shard's commit seq moved and no seq was consumed.
    assert_eq!(after.shard_seqs(), before.shard_seqs());
    assert_eq!(after.commit_seq(), 1);
    assert_eq!(service.commits(), 1);
    // The pinned pre-failure image is untouched, as always.
    assert!(!before.relation("a0").unwrap().contains(&tuple![70]));
}
