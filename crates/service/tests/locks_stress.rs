//! Deadlock-freedom stress for the shard locks: many threads commit
//! session batches over randomized, overlapping sets of shards, beside
//! snapshot and query readers, and must always make progress. The
//! guarantee is structural — every multi-shard acquisition happens in
//! global id order — so the test's job is to hammer the orderings that
//! would deadlock a naive implementation and fail loudly (bounded
//! wall-clock, not a hung CI job) if progress ever stops.

use birds_core::UpdateStrategy;
use birds_engine::{Engine, StrategyMode};
use birds_service::Service;
use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
use std::sync::mpsc;
use std::time::Duration;

/// Disjoint union views, one shard each.
const VIEWS: usize = 8;

/// SplitMix64 — tiny deterministic per-thread RNG, no dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// `v{i} = r{i}a ∪ r{i}b` for every `i < VIEWS`, all empty.
fn service() -> Service {
    let mut db = Database::new();
    let mut strategies = Vec::new();
    for i in 0..VIEWS {
        let (a, b) = (format!("r{i}a"), format!("r{i}b"));
        db.add_relation(Relation::new(a.clone(), 1)).unwrap();
        db.add_relation(Relation::new(b.clone(), 1)).unwrap();
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new(&a, vec![("x", SortKind::Int)]))
                .with(Schema::new(&b, vec![("x", SortKind::Int)])),
            Schema::new(format!("v{i}"), vec![("x", SortKind::Int)]),
            &format!(
                "-{a}(X) :- {a}(X), not v{i}(X).
                 -{b}(X) :- {b}(X), not v{i}(X).
                 +{a}(X) :- v{i}(X), not {a}(X), not {b}(X)."
            ),
            None,
        )
        .unwrap();
        strategies.push(strategy);
    }
    let mut engine = Engine::new(db);
    for strategy in strategies {
        engine
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap();
    }
    let service = Service::new(engine);
    assert_eq!(service.shard_count(), VIEWS);
    service
}

#[test]
fn randomized_overlapping_footprints_never_deadlock() {
    const THREADS: usize = 12;
    const ROUNDS: usize = 300;
    // Generous bound: the whole test takes a few seconds when the lock
    // order is sound; a deadlock would hang forever without it.
    const DEADLINE: Duration = Duration::from_secs(60);

    let service = service();
    // Each worker reports the (view, value) rows of its acked batches.
    let (done_tx, done_rx) = mpsc::channel::<Vec<(usize, i64)>>();
    let mut workers = Vec::new();
    for t in 0..THREADS {
        let service = service.clone();
        let done = done_tx.clone();
        workers.push(std::thread::spawn(move || {
            let mut rng = Rng(t as u64 + 1);
            let mut session = service.session();
            let mut acked = Vec::new();
            for round in 0..ROUNDS {
                match rng.below(5) {
                    // A whole-service snapshot (the MVCC read path).
                    0 => assert!(service.snapshot().relation("v0").is_some()),
                    // One view's rows.
                    1 => {
                        service.query(&format!("v{}", rng.below(VIEWS))).unwrap();
                    }
                    // A batch over a random, unsorted, possibly repeating
                    // set of 1–4 views: a multi-shard lock set.
                    _ => {
                        let rows: Vec<(usize, i64)> = (0..1 + rng.below(4))
                            .map(|k| (rng.below(VIEWS), (t * 10_000 + round * 10 + k) as i64))
                            .collect();
                        session.begin().unwrap();
                        for (view, value) in &rows {
                            session
                                .execute(&format!("INSERT INTO v{view} VALUES ({value});"))
                                .unwrap();
                        }
                        session.commit().unwrap();
                        acked.push(rows);
                    }
                }
            }
            done.send(acked.concat()).expect("main thread alive");
            acked.len()
        }));
    }
    drop(done_tx);

    let mut rows = Vec::new();
    for finished in 0..THREADS {
        match done_rx.recv_timeout(DEADLINE) {
            Ok(acked) => rows.extend(acked),
            Err(_) => panic!(
                "commits stalled: only {finished}/{THREADS} threads \
                 finished within {DEADLINE:?} — deadlock or livelock"
            ),
        }
    }
    // Every worker has reported, so these joins cannot block.
    let batches: usize = workers
        .into_iter()
        .map(|worker| worker.join().expect("worker panicked"))
        .sum();
    assert!(batches > 0, "writers actually ran");
    assert_eq!(service.commits(), batches as u64, "one seq per acked batch");
    for (view, value) in rows {
        let name = format!("v{view}");
        assert!(
            service.query(&name).unwrap().contains(&tuple![value]),
            "acked row {value} missing from {name}"
        );
    }
}
