//! MVCC read-path guarantees: snapshot isolation and non-interference.
//!
//! These tests pin the claims the snapshot subsystem makes
//! (`crates/service/src/snapshot.rs`):
//!
//! 1. **Readers never wait for writers.** A held shard *write* lock —
//!    the worst case, a commit parked mid-critical-section — must not
//!    block `query`, `snapshot`, or `relation_stats`, because reads go
//!    through the one published snapshot, never through the shard locks.
//! 2. **A pinned snapshot is immutable.** A `ServiceSnapshot` taken
//!    before a storm of commits observes exactly the image it pinned —
//!    same tuples, same per-shard commit seqs — no matter how many
//!    epochs advance underneath it.
//! 3. **Publication is atomic and loses nothing.** A multi-shard commit
//!    is seen whole or not at all, and concurrent commits on disjoint
//!    shards never drop each other's entries from the published vector.
//!
//! The engine here is the disjoint-union fixture from `sharding.rs`:
//! `views` independent components `v{i} = a{i} ∪ b{i}` plus a free
//! table, so writers fan out across shards and publish concurrently.

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
/// orders them — and a reader must still never see half of either:
/// each commit stores all of its shards' images in one publication.
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

/// A multi-view batch that fails on its second view keeps its first
/// view applied — atomicity is per view — and on an **in-memory**
/// service too that prefix takes a fresh commit seq and is published
/// under it: every state a reader can see is explained by a commit seq.
#[test]
fn failed_in_memory_batch_publishes_its_prefix_under_a_fresh_seq() {
    let service = Service::new(disjoint_engine(2));
    let mut session = service.session();
    // One ordinary commit first, so the prefix's seq is not just 1.
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
    // … under seq 2, which the batch consumed: both shards it locked
    // (v0's and zfree's) moved to 2, v1's stayed at 1.
    assert_eq!(service.commits(), 2);
    assert_eq!(after.commit_seq(), 2);
    let mut seqs = after.shard_seqs();
    seqs.sort_unstable();
    assert_eq!(seqs, vec![1, 2, 2]);
    // The pinned pre-failure image is untouched, as always.
    assert!(!before.relation("a0").unwrap().contains(&tuple![70]));
}

/// Commits on disjoint views publish concurrently into the one
/// snapshot, and none drops another's entry: each publisher copies the
/// vector of shard images under the write lock. Each writer commits
/// batches over its own pair of views (two shards), inserting the same
/// value into both. A reader looping `snapshot()` never sees a shard's
/// seq or a view's row count go backwards, nor a pair that differs;
/// each writer finds its commit right after the ack; and at the end
/// every shard's image holds its last commit. The service has 65
/// shards, so each publication copies a 65-entry vector: a copy made
/// outside the write lock, or a pair published one shard at a time,
/// would race often enough to fail here.
#[test]
fn concurrent_disjoint_publications_never_lose_an_entry() {
    const WRITERS: usize = 4;
    const COMMITS: usize = 500;
    let service = Service::new(disjoint_engine(64));
    let pairs: Vec<(String, String)> = (0..WRITERS)
        .map(|i| (format!("v{}", 2 * i), format!("v{}", 2 * i + 1)))
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let service = service.clone();
        let stop = Arc::clone(&stop);
        let pairs = pairs.clone();
        std::thread::spawn(move || {
            let mut last: Option<(Vec<u64>, Vec<usize>)> = None;
            let mut reads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let snapshot = service.snapshot();
                let seqs = snapshot.shard_seqs();
                let mut rows = Vec::new();
                for (x, y) in &pairs {
                    let (x, y) = (snapshot.relation(x).unwrap(), snapshot.relation(y).unwrap());
                    assert!(
                        x.len() == y.len() && x.iter().all(|t| y.contains(t)),
                        "torn cut: {} and {} were committed together but differ",
                        x.name(),
                        y.name()
                    );
                    rows.push(x.len());
                }
                if let Some((last_seqs, last_rows)) = &last {
                    assert!(
                        seqs.iter().zip(last_seqs).all(|(now, then)| now >= then),
                        "a shard's seq went backwards: {last_seqs:?} -> {seqs:?}"
                    );
                    assert!(
                        rows.iter().zip(last_rows).all(|(now, then)| now >= then),
                        "a view lost rows: {last_rows:?} -> {rows:?}"
                    );
                }
                last = Some((seqs, rows));
                reads += 1;
            }
            reads
        })
    };

    let writers: Vec<_> = pairs
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, (x, y))| {
            let service = service.clone();
            std::thread::spawn(move || {
                let mut session = service.session();
                let mut last_seq = 0;
                for c in 0..COMMITS {
                    let value = 1000 * (i + 1) + c;
                    session.begin().unwrap();
                    session
                        .execute(&format!(
                            "INSERT INTO {x} VALUES ({value}); INSERT INTO {y} VALUES ({value});"
                        ))
                        .unwrap();
                    last_seq = session.commit().unwrap().commit_seq;
                    // Read your own write: base {1, 2} plus c + 1 inserts.
                    let snapshot = service.snapshot();
                    for view in [&x, &y] {
                        let rows = snapshot.relation(view).unwrap().len();
                        assert_eq!(rows, 3 + c, "{view} lost its commit {last_seq}");
                    }
                }
                last_seq
            })
        })
        .collect();
    let last_seqs: Vec<u64> = writers.into_iter().map(|w| w.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    assert!(reader.join().unwrap() > 0);

    let fresh = service.snapshot();
    assert_eq!(fresh.commit_seq(), (WRITERS * COMMITS) as u64);
    let seqs = fresh.shard_seqs();
    for ((x, y), last_seq) in pairs.iter().zip(&last_seqs) {
        assert_eq!(fresh.relation(x).unwrap().len(), 2 + COMMITS);
        assert_eq!(fresh.relation(y).unwrap().len(), 2 + COMMITS);
        // Both of the pair's shards are tagged with its last commit.
        let tagged = seqs.iter().filter(|&seq| seq == last_seq).count();
        assert_eq!(tagged, 2, "{x}/{y}'s last commit {last_seq}: {seqs:?}");
    }
}
