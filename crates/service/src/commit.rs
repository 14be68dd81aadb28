//! The one commit pipeline: every state change a durable service
//! acknowledges — an autocommit epoch, a session batch, a view
//! registration — goes through the bracket defined here (diagram:
//! ARCHITECTURE.md, "Lifecycle of a commit").
//!
//! Under the write locks of the shards it touches, an epoch
//! ([`Service::commit_epoch`]) (1) coalesces its single-view members per
//! view, (2) derives, copies for the WAL and applies each net delta,
//! (3) takes one commit seq per member in application order, (4) appends
//! its records to the lowest locked shard's writer and (5) syncs once
//! ([`EpochWal::log`] — registrations log their `Register`/`Unregister`
//! record through the same helper), (6) publishes the locked shards'
//! snapshots, and only then (7) fills the members' result slots. With
//! the locks released, (8) `Service::settle` does the checkpoint
//! accounting, or the emergency heal after a durability failure.
//!
//! The epoch is *the* unit of ordering, durability and visibility
//! (Obladi, arXiv:1809.10559); a session batch is simply an epoch with
//! one member, and a registration is an epoch whose single record is a
//! topology change instead of a delta.
//!
//! ## Semantics
//!
//! Single-view members (autocommit transactions) that target the same
//! view **coalesce**: their statements are concatenated in queue order
//! and folded by Algorithm 2 into one net delta, applied in one
//! incremental pass and logged as one [`WalRecord::Commit`] carrying one
//! seq per member. The integrity constraints are checked once against
//! that net effect — the same contract a multi-statement session batch
//! has. When the net delta is rejected, the members are replayed
//! individually, so per-transaction error attribution (and the
//! one-bad-transaction-doesn't-abort-its-neighbours property) is
//! preserved on the failure path. Member stats report the pass's totals,
//! not a per-statement split.
//!
//! A multi-view member (a session batch spanning views) is never
//! coalesced with anything: its groups apply in order, atomically *per
//! view*, and its deltas form one record under one seq. If it fails on
//! its k-th view after a non-empty delta was applied, the k−1 prefix
//! still takes a fresh seq and is published under it (and logged, on a
//! durable service — recovery must converge to exactly the in-memory
//! state); the member still gets the engine's error. A prefix that
//! netted to nothing changed nothing and consumes no seq.
//!
//! ## Durability
//!
//! No member learns it committed until the epoch's records are on disk
//! under the configured fsync policy: result slots are filled only after
//! [`EpochWal::log`] returned. A failed append or sync turns every
//! would-be `Ok` of the epoch into [`ServiceError::Durability`] — the
//! transactions may have applied in memory (and are published, so reads
//! keep matching memory), but they were never acknowledged, so "commit
//! returned OK ⇒ survives a crash" still holds. An empty net delta has
//! no durable effect and writes no record (see [`Service::commits`]).

use crate::error::{ServiceError, ServiceResult};
use crate::group_commit::{PendingTx, TxResult};
use crate::service::Service;
use crate::topology::{ShardGuards, Topology};
use birds_engine::ExecutionStats;
use birds_store::Delta;
use birds_wal::{FsyncPolicy, SegmentWriter, WalRecord};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// The durability hookup an epoch writes through: the lowest locked
/// shard's segment writer plus the service's fsync policy. Every
/// appender to that segment holds that shard's write lock, so the log
/// stays append-ordered.
pub(crate) struct EpochWal<'a> {
    pub(crate) writer: &'a Mutex<SegmentWriter>,
    pub(crate) fsync: FsyncPolicy,
}

impl EpochWal<'_> {
    /// Log-then-sync, the only way a record reaches the WAL: append
    /// `records` in order under one writer-mutex tenure, then run the
    /// epoch-end sync unless the policy is `off` (one `fdatasync`
    /// covers the whole epoch — the group-commit durability
    /// amortization). The epoch is the unit of durability: the first
    /// failure is the epoch's result (every record is still attempted,
    /// so whatever the log accepted stays replayable).
    ///
    /// The segment writer seals itself on a real IO failure, so a shard
    /// whose log may be torn mid-file refuses every further append — no
    /// commit is ever acknowledged with its record buried behind a torn
    /// region.
    pub(crate) fn log(&self, records: &[WalRecord]) -> ServiceResult<()> {
        let mut writer = self
            .writer
            .lock()
            .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?;
        let mut logged = Ok(());
        for record in records {
            let appended = writer.append(record, self.fsync);
            logged = logged.and(appended.map_err(|e| format!("wal append failed: {e}")));
        }
        if self.fsync.sync_each_epoch() {
            logged = logged.and(writer.sync().map_err(|e| format!("wal sync failed: {e}")));
        }
        logged.map_err(ServiceError::Durability)
    }
}

impl Service {
    /// Run one epoch under `guards` (see the module docs for the steps).
    /// Every slot is live (`Some`): callers re-resolve against a fresh
    /// topology when they find a retired one. Every member's result
    /// slot is filled on return; the guards are released before the
    /// post-commit hook runs.
    pub(crate) fn commit_epoch(
        &self,
        topo: &Topology,
        mut guards: ShardGuards<'_>,
        members: &[Arc<PendingTx>],
    ) {
        // `None` on an in-memory service: nothing is logged (or cloned
        // for logging).
        let wal = self.epoch_wal(topo, guards[0].0);
        // Step 1 — units (members that commit as one) in first-appearance
        // order, queue order within a unit.
        let mut units: VecDeque<Vec<&PendingTx>> = VecDeque::new();
        for tx in members {
            let coalesces = |unit: &&mut Vec<&PendingTx>| {
                tx.groups().len() == 1 && unit[0].groups().len() == 1 && unit[0].view() == tx.view()
            };
            match units.iter_mut().find(coalesces) {
                Some(unit) => unit.push(tx),
                None => units.push_back(vec![tx]),
            }
        }
        // The epoch's WAL records, in application order, and every
        // member's acknowledgement — held back until the records are
        // durable and the snapshots published.
        let mut records: Vec<WalRecord> = Vec::new();
        let mut fills: Vec<(&PendingTx, TxResult)> = Vec::new();
        // Seqs assigned (the checkpoint-threshold count) and the highest
        // of them: the snapshot publication tag, regardless of later
        // durability failures — memory changed either way.
        let (mut seqs_assigned, mut max_seq) = (0u64, None);
        while let Some(unit) = units.pop_front() {
            // A lone member derives from its statements by reference;
            // only a coalesced unit pays for the concatenation.
            let coalesced;
            let groups = match &unit[..] {
                [tx] => tx.groups(),
                members => {
                    let statements = members
                        .iter()
                        .flat_map(|tx| tx.groups()[0].1.iter().cloned())
                        .collect();
                    coalesced = [(members[0].view().to_owned(), statements)];
                    &coalesced[..]
                }
            };
            // Step 2 — per group: derive the net delta against the
            // in-lock state (so earlier groups' cascades are visible),
            // keep a copy for the WAL, apply it in one pass. The derived
            // delta is normalized against the in-lock view state, so
            // the copy is byte-for-byte what got applied — the exact
            // replay-log entry.
            let mut stats = ExecutionStats::default();
            let mut deltas: Vec<(String, Delta)> = Vec::new();
            // A non-empty net delta was applied: memory changed, so the
            // unit takes a seq even if a later group fails.
            let mut changed = false;
            let mut failure = None;
            for (view, statements) in groups {
                let slot = topo.held_slot(&mut guards, view);
                let engine = slot.as_mut().expect("an epoch holds live slots");
                let applied = engine.derive_delta(view, statements).and_then(|delta| {
                    // An empty net delta has no effect: no seq, no record.
                    let effective = !delta.is_empty();
                    let log_copy = (effective && wal.is_some()).then(|| delta.clone());
                    engine
                        .apply_delta(view, delta)
                        .map(|pass| (effective, log_copy, pass))
                });
                match applied {
                    Ok((effective, log_copy, pass)) => {
                        changed |= effective;
                        stats.view_delta_size += pass.view_delta_size;
                        stats.source_delta_size += pass.source_delta_size;
                        stats.cascades += pass.cascades;
                        deltas.extend(log_copy.map(|delta| (view.clone(), delta)));
                    }
                    Err(e) => {
                        failure = Some(ServiceError::Engine(e));
                        break;
                    }
                }
            }
            if let (Some(e), false) = (&failure, changed) {
                // Rejected with nothing applied: no seq, no record. A
                // lone member takes the error (its net path *is* the
                // individual path); a coalesced unit falls back to
                // per-member replay — next, in queue order.
                match &unit[..] {
                    [tx] => fills.push((tx, Err(e.clone()))),
                    members => members
                        .iter()
                        .rev()
                        .for_each(|tx| units.push_front(vec![tx])),
                }
                continue;
            }
            // Step 3 — one seq per member (a failed member's applied
            // prefix takes its one seq too), assigned while the
            // footprint is locked.
            let seqs: Vec<u64> = unit.iter().map(|_| self.next_commit_seq()).collect();
            seqs_assigned += seqs.len() as u64;
            max_seq = seqs.last().copied();
            for (tx, &seq) in unit.iter().zip(&seqs) {
                let result = match &failure {
                    Some(e) => Err(e.clone()),
                    None => Ok((seq, stats.clone())),
                };
                fills.push((tx, result));
            }
            if !deltas.is_empty() {
                records.push(WalRecord::Commit { seqs, deltas });
            }
        }
        // Steps 4 and 5 — log, then one sync.
        let logged = match &wal {
            Some(wal) if !records.is_empty() => wal.log(&records),
            _ => Ok(()),
        };
        if let Err(e) = &logged {
            // Applied in memory but not durably acknowledged; an
            // engine-level failure still wins a member's report.
            for (_, result) in fills.iter_mut().filter(|(_, result)| result.is_ok()) {
                *result = Err(e.clone());
            }
        }
        // Step 6 — publish before acknowledging: a member must find its
        // own write on the lock-free read path the moment it learns it
        // committed.
        if let Some(seq) = max_seq {
            self.publish_guarded(&mut guards, seq);
        }
        // Step 7 — acknowledge.
        for (tx, result) in fills {
            tx.fill(result);
        }
        drop(guards);
        // Step 8 — every seq the epoch made durable counts toward the
        // checkpoint threshold, a failed batch's logged prefix included.
        self.settle(logged.map(|()| seqs_assigned));
    }
}

#[cfg(test)]
mod tests {
    use crate::error::ServiceError;
    use crate::group_commit::TxResult;
    use crate::service::{DurabilityConfig, Service, ServiceConfig};
    use birds_core::UpdateStrategy;
    use birds_engine::{Engine, StrategyMode};
    use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
    use birds_wal::WalRecord;
    use std::time::{Duration, Instant};

    /// Members per coalesced epoch.
    const N: usize = 4;

    /// A selection view `w` over `s` whose constraint rejects
    /// non-positive values, so one member of an epoch can violate it.
    fn constrained_engine() -> Engine {
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
        engine
    }

    /// Autocommit one insert into `w` per value, concurrently, so that
    /// all of them are one epoch: the shard's write lock is held until
    /// every submitter has queued, and the first to get the lock then
    /// drains the whole queue. Results come back in `values` order.
    fn one_epoch(service: &Service, values: &[i64]) -> Vec<TxResult> {
        let held = service.debug_write_lock_shard("w").expect("w has a shard");
        let members: Vec<_> = values
            .iter()
            .map(|value| {
                let service = service.clone();
                let statements =
                    birds_sql::parse_script(&format!("INSERT INTO w VALUES ({value});")).unwrap();
                std::thread::spawn(move || service.submit_autocommit("w".into(), statements))
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(10);
        while service.topology().queue_len("w") < values.len() {
            assert!(Instant::now() < deadline, "the members never all queued");
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        members.into_iter().map(|m| m.join().unwrap()).collect()
    }

    /// The seqs of the `Ok` results, sorted.
    fn seqs(results: &[TxResult]) -> Vec<u64> {
        let mut seqs: Vec<u64> = results.iter().flatten().map(|(seq, _)| *seq).collect();
        seqs.sort_unstable();
        seqs
    }

    #[test]
    fn queued_members_share_one_epoch_and_each_gets_its_own_seq() {
        let service = Service::new(constrained_engine());
        let results = one_epoch(&service, &[11, 12, 13, 14]);
        for result in &results {
            let (_, stats) = result.as_ref().expect("every member commits");
            // One pass applied all N inserts: each member reports it.
            assert_eq!(stats.view_delta_size, N, "{results:?}");
        }
        assert_eq!(seqs(&results), vec![1, 2, 3, 4]);
        assert_eq!(service.commits(), N as u64);
        let s = service.query("s").unwrap();
        assert!((11..=14).all(|v| s.contains(&tuple![v])), "{s:?}");
    }

    #[test]
    fn a_rejected_epoch_fails_only_its_violator() {
        let service = Service::new(constrained_engine());
        let results = one_epoch(&service, &[21, -5, 22, 23]);
        assert!(
            matches!(results[1], Err(ServiceError::Engine(_))),
            "the violator fails: {results:?}"
        );
        for (i, result) in results.iter().enumerate().filter(|(i, _)| *i != 1) {
            let (_, stats) = result
                .as_ref()
                .unwrap_or_else(|e| panic!("member {i}: {e}"));
            // Replayed one by one after the net delta was rejected.
            assert_eq!(stats.view_delta_size, 1);
        }
        assert_eq!(seqs(&results), vec![1, 2, 3]);
        assert_eq!(service.commits(), 3);
        let s = service.query("s").unwrap();
        assert!([21, 22, 23].iter().all(|&v| s.contains(&tuple![v])));
        assert!(!s.contains(&tuple![-5]));
    }

    #[test]
    fn one_epoch_is_one_wal_record_with_every_members_seq() {
        let dir =
            std::env::temp_dir().join(format!("birds-service-epoch-record-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            Service::open(
                constrained_engine(),
                ServiceConfig::default(),
                DurabilityConfig::new(&dir),
            )
            .unwrap()
        };
        let results = one_epoch(&open(), &[31, 32, 33, 34]);
        assert_eq!(seqs(&results), vec![1, 2, 3, 4]);

        let recovery = birds_wal::recover(&dir).unwrap();
        match &recovery.records[..] {
            [WalRecord::Commit { seqs, deltas }] => {
                assert_eq!(seqs, &vec![1, 2, 3, 4]);
                assert_eq!(deltas.len(), 1, "one net delta for the one view");
            }
            records => panic!("expected one commit record, got {records:?}"),
        }
        let recovered = open();
        assert_eq!(recovered.commits(), N as u64);
        let s = recovered.query("s").unwrap();
        assert!((31..=34).all(|v| s.contains(&tuple![v])), "{s:?}");
        drop(recovered);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
