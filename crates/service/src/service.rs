//! The thread-safe, multi-session service over [`birds_engine::Engine`] —
//! footprint-sharded since PR 4, MVCC snapshot reads since PR 6, and
//! **dynamically re-shardable** since PR 10: views can be registered
//! and deregistered on a live service.
//!
//! At construction the engine is split along **view dependency
//! footprints** into independently locked shards (`crate::footprint`):
//! each shard owns every relation the views inside it can touch (reads,
//! writes, cascades), so a commit needs only its own shard's write lock
//! and commits on disjoint views proceed in parallel. Lock sets are
//! always acquired in global [`LockId`] order (`crate::topology`), which
//! makes overlapping commits deadlock-free by construction. What
//! remains global is the **commit sequence** — every transaction still
//! gets a unique, dense serial number, assigned while its footprint is
//! locked, so the concurrent history stays equivalent to the serial
//! replay in commit order.
//!
//! ## Live topology
//!
//! One generation of sharded state — the live shards (engine slot,
//! group-commit queue, WAL segment writer each), their routing table
//! and each shard's published image — is one [`ServiceSnapshot`] behind
//! one `RwLock<Arc<_>>`. Reads load it; writes load it once and keep
//! only its `Topology` half (`Service::topology`), so a blocked writer
//! pins no image. Dynamic registration ([`Service::register_view`] /
//! [`Service::unregister_view`]) stores a *successor* generation: the
//! quiesce barrier is the write locks of **only the shards the new
//! view's footprint touches** (computed by
//! [`birds_engine::strategy_touches`] before any lock is taken);
//! disjoint shards keep committing throughout. The affected shards'
//! engines are taken out of their slots (which stay `None` for good),
//! merged ([`Engine::merge`]), mutated and re-split; the retired shards
//! leave the generation and each component joins as a **new** shard
//! under a fresh, never reused id, so a stale thread that raced the
//! store can never reach a new engine through an old lock: it finds
//! `None`, takes its queued transaction back, reloads and resubmits.
//! Surviving shards keep their `Arc` and id, and every thread acquires
//! ids strictly ascending, whichever generation it loaded.
//!
//! Lock order across the subsystem: checkpoint lock → registration
//! lock → shard locks (ascending) → queue or WAL writer mutex; and shard
//! locks → the generation pointer's write lock, never the reverse.
//! Registrations serialize on the registration lock; checkpoints freeze
//! the registration set for their whole duration by taking that lock
//! too.
//!
//! ## The commit pipeline
//!
//! This module owns the *entry points* — [`Session::execute`]
//! (autocommit, via the shard's group-commit queue),
//! [`Session::commit`] (a batch: an epoch with one member) and
//! [`Service::register_view`] / [`Service::unregister_view`] (an epoch
//! whose record is a topology change) — plus lock acquisition, snapshot
//! publication and the post-commit hook (`Service::settle`: checkpoint
//! accounting, emergency heal). What happens *between* taking the locks
//! and releasing them — derive → apply → one seq per member → log →
//! one epoch sync → publish → acknowledge — is written exactly once, in
//! `crate::commit`; all three entry points go through its
//! log-then-sync helper and through `settle`.
//!
//! ## Invariants
//!
//! * **Commit-seq assignment**: seqs come from one global counter,
//!   bumped only while the commit's footprint is write-locked, so
//!   per-shard seq order equals application order and the global order
//!   is a valid serial history. Registrations consume a seq from the
//!   same counter while holding every affected shard's write lock, so
//!   the WAL's interleaving of topology changes and commits is exact.
//! * **Snapshot visibility**: every commit publishes each touched
//!   shard's [`ShardSnapshot`] *before releasing its locks and before
//!   acknowledging any client* — a client that saw `Ok` finds its write
//!   on the lock-free read path, and a reader never sees a commit's
//!   effects before that commit's WAL record was appended. A
//!   registration stores its successor generation (new shards with
//!   images tagged with the registration's seq, the successor route)
//!   in one store, so a view a reader can see is already writable.
//! * **Durability coupling**: on a durable service, no result slot is
//!   filled until the epoch-end fsync ran, and a registration is
//!   installed only after its [`WalRecord::Register`] reached the log —
//!   the same log-then-sync step in both cases.
//!
//! ## Read path
//!
//! Reads never touch the shard engine locks: [`Service::query`],
//! [`Service::relation_stats`], [`Service::view_names`] and
//! [`Service::snapshot`] all load the one published MVCC snapshot
//! ([`crate::snapshot`]). A long analytical read holds an `Arc` to an
//! immutable image; writers keep committing (each publication
//! refreshes a shadow buffer, never the pinned one) and readers keep
//! reading — neither waits for the other.
//!
//! Each client holds a [`Session`] in one of two modes:
//!
//! * **autocommit** (the default): every `execute` call is its own
//!   transaction, queued in the target shard's group-commit queue
//!   ([`crate::group_commit`]) — concurrent autocommit transactions on
//!   the same shard become members of one epoch and coalesce into one
//!   net delta per view;
//! * **batch** (after `begin`): statements buffer locally — no lock
//!   taken — until `commit` submits them as a one-member epoch over
//!   exactly the shards its views live in: one *net* delta per view,
//!   each applied in a single incremental pass.

use crate::commit::EpochWal;
use crate::error::{ServiceError, ServiceResult};
use crate::group_commit::{PendingTx, TxResult};
use crate::snapshot::{ServiceSnapshot, ShardSnapshot};
use crate::topology::{LockId, Shard, ShardGuards, Topology};
use birds_core::UpdateStrategy;
use birds_engine::{
    strategy_touches, Engine, EngineError, ExecutionStats, StrategyMode, ViewDefinition,
};
use birds_sql::{parse_script, DmlStatement};
use birds_store::{Database, Relation, RelationVersion, Tuple};
use birds_wal::{
    FsyncPolicy, Registration, SegmentWriter, ViewDef, WalRecord, DEFAULT_SEGMENT_BYTES,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError, RwLock};

/// Service tuning knobs. It has none today: a group-commit
/// epoch is the shard-lock tenure of whichever submitter leads it, so
/// there is nothing to tune. The type stays so [`Service::open`] keeps
/// its signature.
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {}

/// Durability knobs for [`Service::open`]: where the data directory
/// lives and how eagerly the WAL reaches stable storage.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding the snapshot file and `wal/` segments. Created
    /// if absent; recovered from if not.
    pub data_dir: PathBuf,
    /// When appends are flushed — see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Checkpoint (snapshot-then-truncate) after this many durable
    /// commits; `None` disables automatic checkpoints (manual
    /// [`Service::checkpoint`] still works).
    pub checkpoint_every: Option<u64>,
}

impl DurabilityConfig {
    /// Sensible defaults: `epoch` fsync, checkpoint every 1024 commits.
    /// WAL segments rotate at [`DEFAULT_SEGMENT_BYTES`].
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::default(),
            checkpoint_every: Some(1024),
        }
    }
}

/// One relation's statistics as of its last published snapshot: tuple
/// count plus cumulative index probe counters (see
/// [`Service::relation_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationStats {
    /// Relation name.
    pub name: String,
    /// Tuple count at the snapshot's commit boundary.
    pub tuples: usize,
    /// Probes served by a secondary index (hash or ordered).
    pub index_hits: u64,
    /// Probes that fell back to a full scan — a climbing value means
    /// the planner requested an index the relation never built.
    pub index_misses: u64,
}

/// The durable half of a running service: the data directory plus
/// checkpoint bookkeeping. The segment writers live in their shards
/// (`crate::topology`).
struct WalState {
    fsync: FsyncPolicy,
    data_dir: PathBuf,
    checkpoint_every: Option<u64>,
    commits_since_checkpoint: AtomicU64,
    /// Serializes checkpointers (the shard locks alone would let two
    /// checkpoints interleave their snapshot/truncate halves).
    checkpoint_lock: Mutex<()>,
    /// Consecutive failed emergency-heal checkpoints (log throttling).
    heal_failures: AtomicU64,
    /// `fdatasync` calls of every segment writer the service opened,
    /// retired shards' included ([`Service::wal_syncs`]).
    syncs: Arc<AtomicU64>,
}

impl WalState {
    /// Open (or continue) the segment series of shard `id`.
    fn open_writer(&self, id: LockId) -> ServiceResult<SegmentWriter> {
        let series = id.index();
        SegmentWriter::open(&self.data_dir, series, DEFAULT_SEGMENT_BYTES)
            .map(|writer| writer.count_syncs_in(Arc::clone(&self.syncs)))
            .map_err(|e| {
                ServiceError::Durability(format!("opening wal segment series {series}: {e}"))
            })
    }
}

struct ServiceInner {
    /// The current generation — live shards, their route and their
    /// published images — and the whole lock-free read path. The
    /// `RwLock` guards only the `Arc` pointer (clone on load, store on
    /// publish) — never engine work.
    generation: RwLock<Arc<ServiceSnapshot>>,
    /// Serializes topology changes (register/unregister). Held for the
    /// whole re-shard; checkpoints take it too, freezing the
    /// registration set while the manifest is written.
    registration_lock: Mutex<()>,
    commit_seq: AtomicU64,
    /// `Some` when the service is durable ([`Service::open`]).
    wal: Option<WalState>,
}

/// Convert an engine-side view definition into its WAL form.
fn def_to_wal(def: &ViewDefinition) -> ViewDef {
    ViewDef {
        sources: def.sources.clone(),
        view: def.view.clone(),
        putdelta: def.putdelta.clone(),
        expected_get: def.expected_get.clone(),
        get: def.get.clone(),
        incremental: def.mode == StrategyMode::Incremental,
    }
}

/// Convert a WAL view definition back into the engine's form.
fn def_from_wal(def: &ViewDef) -> ViewDefinition {
    ViewDefinition {
        sources: def.sources.clone(),
        view: def.view.clone(),
        putdelta: def.putdelta.clone(),
        expected_get: def.expected_get.clone(),
        get: def.get.clone(),
        mode: if def.incremental {
            StrategyMode::Incremental
        } else {
            StrategyMode::Original
        },
    }
}

/// Reconcile the caller-provided engine's view set with a checkpoint
/// manifest: the manifest is authoritative. Views the engine registered
/// that the manifest doesn't carry (or carries with a different
/// definition) are dropped — as a fixpoint, because a view can only be
/// unregistered once nothing depends on it — and manifest views the
/// engine lacks are registered in manifest (dependency) order.
fn reconcile_views(engine: &mut Engine, manifest: &[ViewDef]) -> ServiceResult<()> {
    let manifest_defs: BTreeMap<&str, ViewDefinition> = manifest
        .iter()
        .map(|def| (def.view.name.as_str(), def_from_wal(def)))
        .collect();
    loop {
        let stale: Vec<String> = engine
            .view_definitions()
            .into_iter()
            .filter(|def| manifest_defs.get(def.view.name.as_str()) != Some(def))
            .map(|def| def.view.name)
            .collect();
        if stale.is_empty() {
            break;
        }
        let mut progress = false;
        for name in &stale {
            if engine.unregister_view(name).is_ok() {
                progress = true;
            }
        }
        if !progress {
            return Err(ServiceError::Durability(format!(
                "snapshot manifest reconciliation stalled on views {stale:?} \
                 (circular footprint dependency)"
            )));
        }
    }
    for def in manifest {
        if !engine.is_view(&def.view.name) {
            engine
                .register_definition(&def_from_wal(def))
                .map_err(|e| {
                    ServiceError::Durability(format!(
                        "re-registering view '{}' from the snapshot manifest: {e}",
                        def.view.name
                    ))
                })?;
        }
    }
    Ok(())
}

/// Replay one recovered WAL record into the engine.
fn replay_record(engine: &mut Engine, record: WalRecord) -> ServiceResult<()> {
    match record {
        WalRecord::Commit { seqs, deltas } => {
            let seq = seqs.first().copied().unwrap_or(0);
            for (view, delta) in deltas {
                engine.apply_delta(&view, delta).map_err(|e| {
                    ServiceError::Durability(format!("replaying commit seq {seq}: {e}"))
                })?;
            }
        }
        WalRecord::Register(reg) => {
            // A view the engine already carries (the operator's startup
            // code re-registered it, or the checkpoint manifest did) is
            // not registered twice — the logged definition prevails at
            // the checkpoint that wrote it.
            if !engine.is_view(&reg.def.view.name) {
                engine
                    .register_definition(&def_from_wal(&reg.def))
                    .map_err(|e| {
                        ServiceError::Durability(format!(
                            "replaying registration of view '{}' (seq {}): {e}",
                            reg.def.view.name, reg.seq
                        ))
                    })?;
            }
        }
        WalRecord::Unregister { seq, view } => match engine.unregister_view(&view) {
            // Already absent: the checkpoint manifest (or the operator's
            // engine) never had it — the unregister is a no-op on replay.
            Ok(()) | Err(EngineError::NotAView(_)) => {}
            Err(e) => {
                return Err(ServiceError::Durability(format!(
                    "replaying deregistration of view '{view}' (seq {seq}): {e}"
                )))
            }
        },
    }
    Ok(())
}

/// Outcome of a [`Session::execute`] call.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecOutcome {
    /// Autocommit mode: the statements were applied immediately. For a
    /// transaction that committed as part of a group-commit epoch, the
    /// stats are the epoch's per-view totals.
    Applied(ExecutionStats),
    /// Batch mode: the statements were buffered; the payload is the total
    /// number of statements now pending in the session.
    Buffered(usize),
}

/// Outcome of a successful [`Session::commit`].
#[derive(Debug, Clone)]
pub struct CommitOutcome {
    /// Position of this commit in the service-wide serial order
    /// (1-based; assigned while the commit's footprint is locked).
    pub commit_seq: u64,
    /// Number of statements that were coalesced.
    pub statements: usize,
    /// Number of distinct views the batch touched.
    pub views: usize,
    /// Summed execution stats over all per-view applications.
    pub stats: ExecutionStats,
}

/// Shared handle to one sharded engine; cheap to clone, safe to send
/// across threads. All handles see the same database.
#[derive(Clone)]
pub struct Service {
    inner: Arc<ServiceInner>,
}

impl Service {
    /// Wrap an engine (typically with views already registered),
    /// splitting it into footprint shards.
    pub fn new(engine: Engine) -> Self {
        Service::build(engine, None).expect("in-memory service construction cannot fail")
    }

    /// Open a **durable** service: recover the data directory (latest
    /// snapshot, then the WAL in global commit-seq order), then serve
    /// with write-ahead logging on every commit path.
    ///
    /// `engine` provides the base tables (and any statically registered
    /// views). Recovery first reconciles the engine's view set against
    /// the checkpoint's **registration manifest** (runtime-registered
    /// views survive restarts even when the startup code doesn't know
    /// them; a definition the manifest carries wins over the caller's),
    /// restores relation *contents* from the snapshot, then replays the
    /// WAL — commits through the deterministic [`Engine::apply_delta`]
    /// path, interleaved with logged registrations and deregistrations
    /// in exact global commit-seq order. Torn record tails (a crash
    /// mid-append) are CRC-detected and truncated.
    ///
    /// ```
    /// # use birds_core::UpdateStrategy;
    /// # use birds_engine::{Engine, StrategyMode};
    /// # use birds_service::{DurabilityConfig, Service, ServiceConfig};
    /// # use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Value};
    /// # fn build_engine() -> Engine {
    /// #     let mut db = Database::new();
    /// #     db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap()).unwrap();
    /// #     db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2]]).unwrap()).unwrap();
    /// #     let strategy = UpdateStrategy::parse(
    /// #         DatabaseSchema::new()
    /// #             .with(Schema::new("r1", vec![("a", SortKind::Int)]))
    /// #             .with(Schema::new("r2", vec![("a", SortKind::Int)])),
    /// #         Schema::new("v", vec![("a", SortKind::Int)]),
    /// #         "-r1(X) :- r1(X), not v(X).
    /// #          -r2(X) :- r2(X), not v(X).
    /// #          +r1(X) :- v(X), not r1(X), not r2(X).",
    /// #         None,
    /// #     ).unwrap();
    /// #     let mut engine = Engine::new(db);
    /// #     engine.register_view(strategy, StrategyMode::Incremental).unwrap();
    /// #     engine
    /// # }
    /// let dir = std::env::temp_dir().join(format!("birds-doc-open-{}", std::process::id()));
    /// # std::fs::remove_dir_all(&dir).ok();
    /// // `build_engine()` registers the union view `v = r1 ∪ r2` over
    /// // base tables r1 = {1} and r2 = {2}.
    /// let service = Service::open(
    ///     build_engine(),
    ///     ServiceConfig::default(),
    ///     DurabilityConfig::new(&dir),
    /// )?;
    /// let mut session = service.session();
    /// session.execute("INSERT INTO v VALUES (7);")?; // logged before Ok
    /// drop((session, service));
    ///
    /// // Reopen from the same directory: recovery replays the WAL and
    /// // the commit is visible again.
    /// let service = Service::open(
    ///     build_engine(),
    ///     ServiceConfig::default(),
    ///     DurabilityConfig::new(&dir),
    /// )?;
    /// assert_eq!(service.query("v")?, vec![tuple![1], tuple![2], tuple![7]]);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), birds_service::ServiceError>(())
    /// ```
    pub fn open(
        engine: Engine,
        _config: ServiceConfig,
        durability: DurabilityConfig,
    ) -> ServiceResult<Service> {
        Service::build(engine, Some(durability))
    }

    fn build(mut engine: Engine, durability: Option<DurabilityConfig>) -> ServiceResult<Service> {
        let mut start_seq = 0u64;
        if let Some(d) = &durability {
            let recovery = birds_wal::recover(&d.data_dir)
                .map_err(|e| ServiceError::Durability(e.to_string()))?;
            if let Some(body) = &recovery.snapshot {
                let (defs, consumed) = birds_wal::decode_view_defs(body)
                    .map_err(|e| ServiceError::Durability(format!("checkpoint manifest: {e}")))?;
                reconcile_views(&mut engine, &defs)?;
                engine.restore(&body[consumed..])?;
            }
            for record in recovery.records {
                replay_record(&mut engine, record)?;
            }
            start_seq = recovery.max_seq;
        }
        let wal = durability.map(|d| WalState {
            fsync: d.fsync,
            data_dir: d.data_dir,
            checkpoint_every: d.checkpoint_every,
            commits_since_checkpoint: AtomicU64::new(0),
            checkpoint_lock: Mutex::new(()),
            heal_failures: AtomicU64::new(0),
            syncs: Arc::default(),
        });
        // The first generation succeeds an empty one: a shard per
        // footprint component, each with its image as of the recovered
        // (or zero) commit seq.
        let empty = ServiceSnapshot {
            topology: Arc::default(),
            images: Vec::new(),
        };
        let fresh = empty
            .topology
            .fresh_ids()
            .zip(engine.split_components())
            .map(|(id, component)| {
                let writer = wal.as_ref().map(|wal| wal.open_writer(id)).transpose()?;
                Ok(Shard::new(id, component, writer, start_seq))
            })
            .collect::<ServiceResult<Vec<_>>>()?;
        Ok(Service {
            inner: Arc::new(ServiceInner {
                generation: RwLock::new(Arc::new(empty.successor(&[], &fresh))),
                registration_lock: Mutex::new(()),
                commit_seq: AtomicU64::new(start_seq),
                wal,
            }),
        })
    }

    /// Load the current generation (one `Arc` clone under a
    /// pointer-only lock, released at once).
    fn generation(&self) -> Arc<ServiceSnapshot> {
        let current = self.inner.generation.read();
        Arc::clone(&current.unwrap_or_else(PoisonError::into_inner))
    }

    /// Store `next(current)` as the current generation: the copy is
    /// made under the write lock, so concurrent publishers keep each
    /// other's entries. Lock order: shard locks, then this one.
    fn publish(&self, next: impl FnOnce(&ServiceSnapshot) -> ServiceSnapshot) {
        let current = self.inner.generation.write();
        let mut current = current.unwrap_or_else(PoisonError::into_inner);
        *current = Arc::new(next(&current));
    }

    /// The shard half of the current generation: what every write works
    /// against, without pinning any published image. A re-shard
    /// mid-request is detected by the `None` slot of a retired shard,
    /// upon which the request reloads and retries.
    pub(crate) fn topology(&self) -> Arc<Topology> {
        Arc::clone(&self.generation().topology)
    }

    /// Open a new session in autocommit mode.
    pub fn session(&self) -> Session {
        Session {
            service: self.clone(),
            batch: None,
        }
    }

    /// Number of footprint shards (disjoint views land in different
    /// shards and commit in parallel).
    pub fn shard_count(&self) -> usize {
        self.topology().shards.len()
    }
}

impl Service {
    /// A consistent, **lock-free** snapshot over every shard — the MVCC
    /// read entry point. The returned [`ServiceSnapshot`] is an owned
    /// value: pin it as long as you like; it observes none of the
    /// commits that land after it was loaded, and holding it never
    /// blocks a writer (nor vice versa — no shard engine lock is taken).
    ///
    /// Every commit, multi-shard ones and re-shards included, publishes
    /// by storing one new snapshot, so one pointer load is a consistent
    /// cut.
    ///
    /// ```
    /// # use birds_service::Service;
    /// # use birds_engine::Engine;
    /// # use birds_store::{tuple, Database, Relation};
    /// let mut db = Database::new();
    /// db.add_relation(Relation::with_tuples("r", 1, vec![tuple![1]]).unwrap())
    ///     .unwrap();
    /// let service = Service::new(Engine::new(db));
    ///
    /// let pinned = service.snapshot();
    /// assert_eq!(pinned.relation("r").unwrap().len(), 1);
    /// assert_eq!(pinned.commit_seq(), 0); // nothing committed yet
    /// assert!(pinned.relation("nope").is_none());
    /// ```
    pub fn snapshot(&self) -> ServiceSnapshot {
        self.generation().copy()
    }

    /// Sorted snapshot of a relation's tuples, read lock-free from the
    /// published snapshot.
    /// [`ServiceError::UnknownRelation`] for names no shard owns.
    ///
    /// ```
    /// # use birds_engine::Engine;
    /// # use birds_service::{Service, ServiceError};
    /// # use birds_store::{tuple, Database, Relation, Value};
    /// # let mut db = Database::new();
    /// # db.add_relation(Relation::with_tuples("r", 1, vec![tuple![3], tuple![1]]).unwrap())
    /// #     .unwrap();
    /// # let service = Service::new(Engine::new(db));
    /// assert_eq!(service.query("r")?, vec![tuple![1], tuple![3]]); // sorted
    /// assert_eq!(
    ///     service.query("typo"),
    ///     Err(ServiceError::UnknownRelation("typo".into())),
    /// );
    /// # Ok::<(), birds_service::ServiceError>(())
    /// ```
    pub fn query(&self, relation: &str) -> ServiceResult<Vec<Tuple>> {
        // Keep only this relation's version: the rest of the snapshot is
        // dropped here, so a long read pins no other shard's buffers.
        let rel = self
            .generation()
            .relation(relation)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownRelation(relation.to_owned()))?;
        let mut tuples: Vec<Tuple> = rel.iter().cloned().collect();
        tuples.sort();
        Ok(tuples)
    }

    /// Names of all registered views, in name order — from the
    /// published snapshots, no shard lock taken.
    pub fn view_names(&self) -> Vec<String> {
        self.generation().view_names()
    }

    /// Statistics for every relation, in name order — from the
    /// published snapshots, no shard lock taken. The counts are a
    /// consistent cut (see [`Service::snapshot`]); the index hit/miss
    /// counters are cumulative as of each relation's last publication,
    /// so a climbing miss count flags a probe path that fell back to a
    /// full scan (planner/registration drift) instead of failing silently.
    pub fn relation_stats(&self) -> Vec<RelationStats> {
        let snapshot = self.generation();
        let mut stats: Vec<RelationStats> = snapshot
            .relations()
            .map(|rel| RelationStats {
                name: rel.name().to_owned(),
                tuples: rel.len(),
                index_hits: rel.index_hits(),
                index_misses: rel.index_misses(),
            })
            .collect();
        stats.sort_by(|a, b| a.name.cmp(&b.name));
        stats
    }

    /// Test hook: hold the write lock of the shard owning `relation`,
    /// simulating a long-running commit there. Lets tests prove that
    /// the lock-free read path does not serialize behind writers — and,
    /// since PR 10, that a registration quiescing this shard blocks
    /// while commits on *other* shards proceed.
    #[doc(hidden)]
    pub fn debug_write_lock_shard(&self, relation: &str) -> Option<impl Drop> {
        /// The lock is held by a helper thread, which owns both the shard
        /// `Arc` and the guard borrowing it. Dropping this handle hangs
        /// up on that thread, which then releases the lock; the drop
        /// returns once it has.
        struct ShardWriteGuard(Option<(mpsc::Sender<()>, std::thread::JoinHandle<()>)>);
        impl Drop for ShardWriteGuard {
            fn drop(&mut self) {
                if let Some((hang_up, holder)) = self.0.take() {
                    drop(hang_up);
                    let _ = holder.join();
                }
            }
        }
        let topo = self.topology();
        let shard = Arc::clone(topo.shard(topo.route.shard_of(relation)?));
        let (locked, is_locked) = mpsc::channel();
        let (hang_up, hung_up) = mpsc::channel::<()>();
        let holder = std::thread::spawn(move || {
            let _guard = shard.write();
            let _ = locked.send(());
            let _ = hung_up.recv();
        });
        is_locked.recv().ok()?;
        Some(ShardWriteGuard(Some((hang_up, holder))))
    }

    /// Test hook: the autocommit transactions queued right now in the
    /// group-commit queue of the shard owning `relation` — how a test
    /// knows every member of an epoch it parked has arrived.
    #[doc(hidden)]
    pub fn debug_queue_len(&self, relation: &str) -> usize {
        self.topology().queue_len(relation)
    }

    /// Test hook: drain the engines' shared read-trace sink (enable it
    /// with [`Engine::set_read_trace`] before constructing the
    /// service). All shards share one sink `Arc`, so draining the first
    /// shard drains them all — used by the footprint-conformance tests
    /// to assert a commit read only relations inside its locked shards.
    #[doc(hidden)]
    pub fn debug_take_read_trace(&self) -> BTreeSet<String> {
        let topo = self.topology();
        let mut slot = topo.shards.first().map(|shard| shard.write());
        let engine = slot.as_mut().and_then(|slot| slot.as_mut());
        engine.map_or_else(BTreeSet::new, Engine::take_read_trace)
    }

    /// Publish every shard in a commit's footprint at `seq`: capture
    /// the images under the held shard locks, then store them all in
    /// one publication, so no reader sees half of a multi-shard commit.
    pub(crate) fn publish_guarded(&self, guards: &mut ShardGuards<'_>, seq: u64) {
        let images: Vec<_> = guards
            .iter_mut()
            .map(|(id, slot)| {
                let engine = slot.as_mut().expect("commit holds live slots");
                (*id, Arc::new(ShardSnapshot::capture(engine, seq)))
            })
            .collect();
        self.publish(|current| current.with_images(images));
    }

    /// Number of committed transactions (autocommit scripts, batch
    /// commits and topology registrations all count) since the service
    /// started — on a durable service, since the data directory was
    /// created.
    ///
    /// Seq-stability caveat: a transaction with **no durable effect**
    /// (an empty script, an empty batch, a net delta that cancels to
    /// nothing, an aborted registration) consumes a commit seq but
    /// writes no WAL record — some of those paths hold no shard lock,
    /// so logging them could not preserve per-shard append order. After
    /// a crash the sequence resumes from the highest *logged* seq, so
    /// no-op transactions' seqs may be reassigned; every effectful
    /// commit's seq is stable.
    pub fn commits(&self) -> u64 {
        self.inner.commit_seq.load(Ordering::SeqCst)
    }

    /// WAL `fdatasync` calls since the service started: one per epoch
    /// that logged a record under the `epoch` policy, plus one per
    /// segment rotation. Zero on an in-memory service. Next to
    /// [`Service::commits`] it says how many commits shared each sync.
    pub fn wal_syncs(&self) -> u64 {
        let wal = self.inner.wal.as_ref();
        wal.map_or(0, |wal| wal.syncs.load(Ordering::Relaxed))
    }

    /// Tear the service down and recover the engine (shards merged back
    /// into one). Fails (returning `self`) while other handles —
    /// sessions included — are still alive.
    pub fn into_engine(self) -> Result<Engine, Service> {
        if Arc::strong_count(&self.inner) > 1 {
            return Err(self);
        }
        let mut merged = Engine::new(Database::new());
        // Retired slots hold `None` and contribute nothing.
        for shard in &self.topology().shards {
            if let Some(component) = shard.write().take() {
                merged
                    .absorb(component)
                    .expect("footprint shards are disjoint by construction");
            }
        }
        Ok(merged)
    }

    pub(crate) fn next_commit_seq(&self) -> u64 {
        // Assigned while the commit's footprint is write-locked (or, for
        // empty commits, without any state change to order against), so
        // per-shard sequence order matches application order and the
        // global sequence stays dense.
        self.inner.commit_seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The view an autocommit script writes: `None` for an empty script
    /// — a trivial transaction, which takes its commit seq here — and
    /// an error for a script that spans views.
    pub(crate) fn autocommit_view(
        &self,
        statements: &[DmlStatement],
    ) -> ServiceResult<Option<String>> {
        let Some(first) = statements.first() else {
            self.next_commit_seq();
            return Ok(None);
        };
        let view = first.table();
        if statements.iter().any(|s| s.table() != view) {
            return Err(ServiceError::Engine(EngineError::BadStatement(
                "a transaction must target a single view".into(),
            )));
        }
        Ok(Some(view.to_owned()))
    }

    /// Autocommit one transaction: queue it in its shard's group-commit
    /// queue and lead that shard ([`Service::lead_autocommits`]).
    pub(crate) fn submit_autocommit(
        &self,
        view: String,
        statements: Vec<DmlStatement>,
    ) -> TxResult {
        let tx = PendingTx::new(vec![(view, statements)]);
        let (_, epochs) = self.enqueue_autocommits([(0, Arc::clone(&tx))]);
        for epoch in epochs {
            self.lead_autocommits(epoch, |_| {});
        }
        tx.result()
    }

    /// Queue `members` — autocommit transactions, each its own, with
    /// their indices in the caller's run — in their shards' group-commit
    /// queues. Returns the indices of the members that could not be
    /// queued (their results filled with the error) and one
    /// [`QueuedEpoch`] per shard, in order of first appearance. Queueing a run before leading any of its shards is
    /// what makes the run's transactions on one shard members of one
    /// epoch: one pass per view, one WAL record, one sync.
    pub(crate) fn enqueue_autocommits(
        &self,
        members: impl IntoIterator<Item = (usize, Arc<PendingTx>)>,
    ) -> (Vec<usize>, Vec<QueuedEpoch>) {
        let topo = self.topology();
        let (mut failed, mut epochs) = (Vec::new(), Vec::<QueuedEpoch>::new());
        for (i, tx) in members {
            let routed = topo
                .route
                .shard_of(tx.view())
                .ok_or_else(|| ServiceError::Engine(EngineError::NotAView(tx.view().to_owned())));
            match routed.and_then(|id| topo.shard(id).enqueue(Arc::clone(&tx)).map(|()| id)) {
                Ok(id) => match epochs.iter_mut().find(|epoch| epoch.id == id) {
                    Some(epoch) => epoch.members.push((i, tx)),
                    None => epochs.push(QueuedEpoch {
                        topo: Arc::clone(&topo),
                        id,
                        members: vec![(i, tx)],
                    }),
                },
                Err(e) => {
                    tx.fill(Err(e));
                    failed.push(i);
                }
            }
        }
        (failed, epochs)
    }

    /// Lead a [`QueuedEpoch`]: win its shard's write lock, blocking,
    /// and run whatever is queued there as one epoch — an empty queue
    /// means another leader drained these members and filled their
    /// results before releasing the lock. `finished` hears the indices
    /// of the members whose results are filled.
    ///
    /// A shard retired by a live re-shard leaves its slot `None`: its
    /// members are taken back (unless a leader already drained them),
    /// queued against the current topology and led in turn, one shard
    /// after another.
    pub(crate) fn lead_autocommits(&self, epoch: QueuedEpoch, mut finished: impl FnMut(&[usize])) {
        let mut epochs = vec![epoch];
        while let Some(mut epoch) = epochs.pop() {
            let shard = epoch.topo.shard(epoch.id);
            let slot = shard.write();
            // Under the lock, the members are this leader's to settle.
            let members = std::mem::take(&mut epoch.members);
            if slot.is_some() {
                match shard.drain() {
                    Ok(queued) if !queued.is_empty() => {
                        self.commit_epoch(&epoch.topo, vec![(epoch.id, slot)], &queued)
                    }
                    Ok(_) => drop(slot),
                    Err(e) => {
                        members.iter().for_each(|(_, tx)| tx.fill(Err(e.clone())));
                        drop(slot);
                    }
                }
                finished(&members.iter().map(|(i, _)| *i).collect::<Vec<_>>());
                continue;
            }
            drop(slot);
            let (mut settled, mut retracted) = (Vec::new(), Vec::new());
            for (i, tx) in members {
                match shard.retract(&tx) {
                    Ok(true) => retracted.push((i, tx)),
                    Ok(false) => settled.push(i),
                    Err(e) => {
                        tx.fill(Err(e));
                        settled.push(i);
                    }
                }
            }
            let (failed, requeued) = self.enqueue_autocommits(retracted);
            settled.extend(failed);
            if !settled.is_empty() {
                finished(&settled);
            }
            epochs.extend(requeued);
        }
    }

    /// Commit a session batch as a one-member epoch over its lock set:
    /// the owning shard of every target view, write-locked in global id
    /// order (deadlock-free; commits on disjoint shards don't contend
    /// at all).
    fn commit_batch(&self, tx: &Arc<PendingTx>) -> TxResult {
        loop {
            let topo = self.topology();
            let views = tx.groups().iter().map(|(view, _)| view.as_str());
            let guards = topo.write_set(topo.route.lock_set(views)?);
            if guards.iter().any(|(_, slot)| slot.is_none()) {
                // A live re-shard retired a shard while we blocked:
                // reload the topology and re-resolve.
                continue;
            }
            self.commit_epoch(&topo, guards, std::slice::from_ref(tx));
            return tx.result();
        }
    }

    /// The durability hookup for an epoch whose lowest locked shard is
    /// `shard` (`None` on an in-memory service).
    pub(crate) fn epoch_wal<'t>(&self, topo: &'t Topology, shard: LockId) -> Option<EpochWal<'t>> {
        let fsync = self.inner.wal.as_ref()?.fsync;
        let writer = topo.shard(shard).writer.as_ref()?;
        Some(EpochWal { writer, fsync })
    }

    /// The one post-commit hook, run with no locks held by every entry
    /// point of the commit pipeline: `Ok(n)` — `n` commit seqs became
    /// durable — feeds the checkpoint threshold; a durability failure
    /// triggers the emergency heal.
    pub(crate) fn settle(&self, durable_seqs: ServiceResult<u64>) {
        let Some(wal) = &self.inner.wal else {
            return;
        };
        match durable_seqs {
            Ok(n) => self.after_durable_commit(wal, n),
            Err(ServiceError::Durability(_)) => self.heal_after_durability_failure(wal),
            Err(_) => {}
        }
    }

    /// Best-effort self-heal after a commit failed durably. A WAL
    /// append/sync failure seals the shard's segment writer — every
    /// further commit on that shard fails fast — and the only way to
    /// unseal is a checkpoint (it rebuilds the segment series from a
    /// fresh snapshot). Automatic checkpoints count *successful*
    /// commits, so they would never fire on a shard that can no longer
    /// commit; this hook attempts an emergency checkpoint whenever a
    /// durability failure is observed and a writer is sealed. The
    /// moment the underlying fault clears (disk space freed, volume
    /// remounted), one failing commit triggers the heal and the service
    /// resumes — no restart needed. While the fault persists the
    /// attempts keep failing fast (throttled logging); a manual
    /// [`Service::checkpoint`] (or the protocol's `{"op":"checkpoint"}`)
    /// is the operator-driven alternative.
    fn heal_after_durability_failure(&self, wal: &WalState) {
        let topo = self.topology();
        let any_sealed = topo
            .shards
            .iter()
            .filter_map(|shard| shard.writer.as_ref())
            .any(|writer| {
                writer
                    .lock()
                    .map(|writer| writer.is_sealed())
                    .unwrap_or(false)
            });
        if !any_sealed {
            return;
        }
        let Ok(guard) = wal.checkpoint_lock.try_lock() else {
            return; // a checkpoint is already running; it will unseal
        };
        match self.checkpoint_locked(wal, &guard) {
            Ok(watermark) => {
                wal.heal_failures.store(0, Ordering::SeqCst);
                eprintln!(
                    "[birds-service] sealed WAL healed by emergency checkpoint \
                     (watermark {watermark})"
                );
            }
            Err(e) => {
                let failures = wal.heal_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if failures.is_power_of_two() {
                    eprintln!(
                        "[birds-service] emergency checkpoint failed \
                         (attempt {failures}, WAL stays sealed): {e}"
                    );
                }
            }
        }
    }

    /// Bump the checkpoint counter after `n` durable commits and run an
    /// automatic checkpoint when the threshold is crossed. Called with
    /// no shard locks held (checkpointing takes them all).
    fn after_durable_commit(&self, wal: &WalState, n: u64) {
        let Some(every) = wal.checkpoint_every else {
            return;
        };
        let count = wal.commits_since_checkpoint.fetch_add(n, Ordering::SeqCst) + n;
        if count < every {
            return;
        }
        // One volunteer checkpoints; contenders skip (their commits are
        // covered by the volunteer's snapshot anyway).
        let Ok(guard) = wal.checkpoint_lock.try_lock() else {
            return;
        };
        if wal.commits_since_checkpoint.load(Ordering::SeqCst) < every {
            return; // someone checkpointed while we raced for the lock
        }
        if let Err(e) = self.checkpoint_locked(wal, &guard) {
            // A failed automatic checkpoint only means the WAL keeps
            // growing; durability is unaffected. Surface it and retry at
            // the next threshold crossing.
            eprintln!("[birds-service] automatic checkpoint failed: {e}");
        }
    }

    /// Snapshot-then-truncate checkpoint, built from the shards'
    /// **published MVCC snapshots** — serialization runs with no shard
    /// lock held, so commits keep flowing while the snapshot file is
    /// written. Returns the watermark. Fails with
    /// [`ServiceError::Durability`] on an in-memory service.
    ///
    /// The snapshot file leads with a **registration manifest**: the
    /// full live view-definition set, so a restart reconstructs
    /// runtime-registered views before restoring relation contents.
    /// The registration lock is held for the whole checkpoint, freezing
    /// the view set the manifest describes.
    ///
    /// Each shard's write lock is taken *briefly*, one shard at a time
    /// (never all together), only to pair the shard's current snapshot
    /// pointer with a fresh WAL segment: records already in the log are
    /// then provably covered by the captured image, and records
    /// appended afterwards land in segments the checkpoint won't
    /// delete. The heavyweight work — serializing every tuple — happens
    /// afterwards, entirely lock-free, against the captured `Arc`s.
    pub fn checkpoint(&self) -> ServiceResult<u64> {
        let wal = self.inner.wal.as_ref().ok_or_else(|| {
            ServiceError::Durability("service has no data directory (in-memory)".into())
        })?;
        let guard = wal
            .checkpoint_lock
            .lock()
            .map_err(|_| ServiceError::Poisoned("checkpoint lock".into()))?;
        self.checkpoint_locked(wal, &guard)
    }

    fn checkpoint_locked(&self, wal: &WalState, _guard: &MutexGuard<'_, ()>) -> ServiceResult<u64> {
        // Freeze the topology for the whole checkpoint: the manifest,
        // the captured images and the rotated segments must all describe
        // one registration generation. (Lock order: checkpoint lock →
        // registration lock → shard locks → writer mutex.)
        let _registrar = self
            .inner
            .registration_lock
            .lock()
            .map_err(|_| ServiceError::Poisoned("registration lock".into()))?;
        let topo = self.topology();
        // The watermark is read *before* any shard is visited: every
        // commit that starts after this line gets a larger seq, and its
        // record lands either in a segment we keep (replayed) or — if
        // it beat us to a not-yet-rotated log — in a segment whose
        // shard's snapshot we load only after that commit published
        // (covered; replay of any overlap is idempotent, which the
        // durability tests pin).
        let watermark = self.inner.commit_seq.load(Ordering::SeqCst);
        // Phase 1 — per shard, ascending, briefly under the shard's
        // write lock: pair the published snapshot with a fresh WAL
        // segment, and collect the shard's live view definitions for
        // the manifest (per-shard dependency order is global dependency
        // order, because a footprint closure never crosses a shard). A
        // sealed writer (earlier IO failure — its tail may be torn)
        // cannot be rotated; its whole series is instead deleted after
        // the snapshot renames, which also unseals it.
        let mut images: Vec<Arc<ShardSnapshot>> = Vec::with_capacity(topo.shards.len());
        let mut defs: Vec<ViewDef> = Vec::new();
        let mut closed_segments: Vec<PathBuf> = Vec::new();
        let mut sealed = Vec::new();
        for shard in &topo.shards {
            let slot = shard.write();
            let image = Arc::clone(self.generation().image(shard.id));
            if let Some(engine) = slot.as_ref() {
                defs.extend(engine.view_definitions().iter().map(def_to_wal));
            }
            let writer = shard
                .writer
                .as_ref()
                .expect("a durable service's shards log");
            let mut writer_guard = writer
                .lock()
                .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?;
            if writer_guard.is_sealed() {
                sealed.push(writer);
            } else {
                closed_segments.extend(
                    writer_guard
                        .rotate_for_checkpoint()
                        .map_err(|e| ServiceError::Durability(format!("wal rotate: {e}")))?,
                );
            }
            images.push(image);
        }
        // Phase 2 — lock-free: serialize the manifest, then the captured
        // images. Commits on every shard proceed concurrently;
        // publications refresh the other version buffer, so the captured
        // images stay stable.
        let manifest = birds_wal::encode_view_defs(&defs);
        let relations: Vec<Relation> = images
            .iter()
            .flat_map(|image| image.relations().map(RelationVersion::to_relation))
            .collect();
        let relation_refs: Vec<&Relation> = relations.iter().collect();
        birds_wal::write_snapshot_file(&wal.data_dir, watermark, |mut w| {
            w.write_all(&manifest)?;
            birds_engine::write_snapshot(&mut w, &relation_refs)
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .map_err(|e| ServiceError::Durability(format!("checkpoint snapshot: {e}")))?;
        // Phase 3 — the snapshot is durable and renamed in: the closed
        // segments are now redundant, and so is every series no live
        // shard owns (a retired shard's, or one a previous run left): it
        // takes appends only under the registration lock we hold, so
        // each of its records has seq ≤ watermark. A crash anywhere in
        // this phase merely leaves covered records around, which
        // recovery filters (seq ≤ watermark) or replays idempotently.
        let segments = birds_wal::segment::scan_segments(&wal.data_dir)
            .map_err(|e| ServiceError::Durability(format!("wal scan: {e}")))?;
        let dead = segments
            .into_iter()
            .filter(|segment| {
                !topo
                    .shards
                    .iter()
                    .any(|shard| shard.id.index() == segment.shard)
            })
            .map(|segment| segment.path);
        for path in closed_segments.into_iter().chain(dead) {
            std::fs::remove_file(&path)
                .map_err(|e| ServiceError::Durability(format!("wal truncate: {e}")))?;
        }
        for writer in sealed {
            // Safe without the shard lock: a sealed writer admits no
            // appends, and `reset` both clears the damaged series and
            // unseals (subsequent commits start a clean log whose every
            // record is > watermark).
            writer
                .lock()
                .map_err(|_| ServiceError::Poisoned("wal segment writer".into()))?
                .reset()
                .map_err(|e| ServiceError::Durability(format!("wal reset: {e}")))?;
        }
        wal.commits_since_checkpoint.store(0, Ordering::SeqCst);
        Ok(watermark)
    }

    /// The data directory of a durable service (`None` when in-memory).
    pub fn data_dir(&self) -> Option<&std::path::Path> {
        self.inner.wal.as_ref().map(|wal| wal.data_dir.as_path())
    }
}

impl Service {
    /// Register a new updatable view on the **live** service.
    ///
    /// The strategy is validated first (same checks as the stateless
    /// `validate` protocol op); then the quiesce barrier takes the write
    /// locks of exactly the shards the view's footprint touches —
    /// commits on every other shard proceed throughout. The affected
    /// engines are merged, the view is registered and materialized, the
    /// component is re-split, a [`WalRecord::Register`] is appended
    /// (durable services), and the successor generation is stored.
    /// Returns the registration's commit seq.
    ///
    /// Failures leave the service exactly as it was; see the error
    /// taxonomy in [`crate::error`] for the typed rejections
    /// ([`ServiceError::ViewExists`], [`ServiceError::InvalidStrategy`],
    /// [`ServiceError::RelationConflict`]).
    ///
    /// ```
    /// use birds_core::UpdateStrategy;
    /// use birds_engine::{Engine, StrategyMode};
    /// use birds_service::Service;
    /// use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};
    ///
    /// let mut db = Database::new();
    /// db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
    ///     .unwrap();
    /// db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2]]).unwrap())
    ///     .unwrap();
    /// let service = Service::new(Engine::new(db));
    /// assert_eq!(service.shard_count(), 2); // two free relations, two shards
    ///
    /// let strategy = UpdateStrategy::parse(
    ///     DatabaseSchema::new()
    ///         .with(Schema::new("r1", vec![("a", SortKind::Int)]))
    ///         .with(Schema::new("r2", vec![("a", SortKind::Int)])),
    ///     Schema::new("v", vec![("a", SortKind::Int)]),
    ///     "-r1(X) :- r1(X), not v(X).
    ///      -r2(X) :- r2(X), not v(X).
    ///      +r1(X) :- v(X), not r1(X), not r2(X).",
    ///     None,
    /// )
    /// .unwrap();
    /// service.register_view(strategy, StrategyMode::Incremental)?;
    ///
    /// assert_eq!(service.shard_count(), 1); // r1, r2 and v now share a footprint
    /// let mut session = service.session();
    /// session.execute("INSERT INTO v VALUES (7);")?;
    /// assert_eq!(service.query("v")?, vec![tuple![1], tuple![2], tuple![7]]);
    /// # Ok::<(), birds_service::ServiceError>(())
    /// ```
    pub fn register_view(
        &self,
        strategy: UpdateStrategy,
        mode: StrategyMode,
    ) -> ServiceResult<u64> {
        self.register_view_with_quiesce_hook(strategy, mode, || {})
    }

    /// Test hook: [`Service::register_view`] with a callback invoked
    /// *while the quiesce barrier is held* (affected shards
    /// write-locked, successor not yet installed) — lets tests pin down
    /// that disjoint shards keep committing through the window.
    #[doc(hidden)]
    pub fn register_view_with_quiesce_hook(
        &self,
        strategy: UpdateStrategy,
        mode: StrategyMode,
        quiesce_hook: impl FnOnce(),
    ) -> ServiceResult<u64> {
        self.registration(|| self.register_view_locked(strategy, mode, quiesce_hook))
    }

    /// Deregister a live view: its materialized contents are dropped,
    /// its former footprint re-splits (typically growing the shard
    /// count), and a [`WalRecord::Unregister`] is logged. Fails with
    /// `Engine(NotAView)` for names that aren't registered views and
    /// with [`ServiceError::RelationConflict`] if another view's
    /// footprint still depends on this one (the error carries the
    /// dependent view's name). Returns the deregistration's commit seq.
    pub fn unregister_view(&self, view: &str) -> ServiceResult<u64> {
        self.registration(|| self.unregister_view_locked(view))
    }

    /// Run one topology change under the registration lock, then — with
    /// no locks held — the pipeline's post-commit hook: a registration
    /// consumes one durable commit seq, like any one-member epoch.
    fn registration(&self, change: impl FnOnce() -> ServiceResult<u64>) -> ServiceResult<u64> {
        let result = {
            let _registrar = self
                .inner
                .registration_lock
                .lock()
                .map_err(|_| ServiceError::Poisoned("registration lock".into()))?;
            change()
        };
        self.settle(result.clone().map(|_| 1));
        result
    }

    fn register_view_locked(
        &self,
        strategy: UpdateStrategy,
        mode: StrategyMode,
        quiesce_hook: impl FnOnce(),
    ) -> ServiceResult<u64> {
        let topo = self.topology();
        let name = strategy.view.name.clone();
        // Pre-checks against the published catalogue — no lock taken,
        // and the registration lock guarantees no concurrent
        // registration invalidates them before we quiesce.
        let published = self.generation();
        if published.relation(&name).is_some() {
            return Err(if published.is_view(&name) {
                ServiceError::ViewExists(name)
            } else {
                ServiceError::RelationConflict(name)
            });
        }
        for schema in &strategy.source_schema.relations {
            let Some(source) = published.relation(&schema.name) else {
                return Err(ServiceError::InvalidStrategy {
                    reason: format!("source relation '{}' does not exist", schema.name),
                });
            };
            if source.arity() != schema.arity() {
                return Err(ServiceError::RelationConflict(schema.name.clone()));
            }
        }
        // Validation can take seconds: pin no shard's buffers through it.
        drop(published);
        // Full validation — shape checks plus the solver's
        // well-behavedness analysis — before any shard is disturbed.
        // The derived get program doubles as the footprint input.
        let report =
            birds_core::validate(&strategy).map_err(|e| ServiceError::InvalidStrategy {
                reason: e.to_string(),
            })?;
        if !report.valid {
            return Err(ServiceError::InvalidStrategy {
                reason: report
                    .reason
                    .unwrap_or_else(|| "strategy failed validation".into()),
            });
        }
        let get = report
            .derived_get
            .expect("valid reports carry a view definition");
        // The quiesce set: every live shard owning a relation the new
        // view's closure touches. Relations the footprint names but no
        // shard owns are impossible here (sources were checked; the
        // view name is fresh and joins whatever shard the merge lands
        // in).
        let affected: Vec<LockId> = strategy_touches(&strategy, &get)
            .iter()
            .filter_map(|relation| topo.route.shard_of(relation))
            .collect();
        // Quiesce: write-lock exactly the affected shards (deduplicated,
        // ascending — deadlock-free against every commit). Disjoint
        // shards are untouched and keep committing.
        let mut guards = topo.write_set(affected);
        quiesce_hook();
        let components: Vec<Engine> = guards
            .iter_mut()
            .map(|(_, slot)| slot.take().expect("routed shards are live"))
            .collect();
        let mut merged =
            Engine::merge(components).expect("affected shards are disjoint by construction");
        if let Err(e) = merged.register_view_unchecked(strategy, get, mode) {
            // Materialization can still fail (e.g. the putdelta program
            // errors on the live contents); the engine rolled the
            // registration back, so re-seating restores the exact
            // pre-call topology.
            self.reseat(&topo, &mut guards, merged);
            return Err(ServiceError::InvalidStrategy {
                reason: e.to_string(),
            });
        }
        let def = merged
            .view_definition(&name)
            .expect("freshly registered view has a definition");
        let def = def_to_wal(&def);
        self.install_successor(
            &topo,
            &mut guards,
            merged,
            |seq| WalRecord::Register(Box::new(Registration { seq, def })),
            |merged| {
                merged
                    .unregister_view(&name)
                    .expect("aborted registration unwinds cleanly")
            },
        )
    }

    fn unregister_view_locked(&self, view: &str) -> ServiceResult<u64> {
        let topo = self.topology();
        // Pre-check against the published catalogue, like registration:
        // the registration lock keeps it current until we quiesce.
        let is_view = self.generation().is_view(view);
        let Some(shard) = topo.route.shard_of(view).filter(|_| is_view) else {
            return Err(ServiceError::Engine(EngineError::NotAView(view.to_owned())));
        };
        let mut guards = topo.write_set(vec![shard]);
        let mut merged = guards[0].1.take().expect("routed shards are live");
        if let Some(dependent) = merged.dependent_view(view).map(String::from) {
            // Another view's footprint closure still reaches this one
            // (its get or putdelta reads it): dropping it would leave
            // that view's strategy dangling.
            self.reseat(&topo, &mut guards, merged);
            return Err(ServiceError::RelationConflict(dependent));
        }
        let def = merged
            .view_definition(view)
            .expect("live view has a definition");
        merged
            .unregister_view(view)
            .expect("pre-checked deregistration succeeds");
        let view = view.to_owned();
        self.install_successor(
            &topo,
            &mut guards,
            merged,
            |seq| WalRecord::Unregister { seq, view },
            |merged| {
                merged
                    .register_definition(&def)
                    .expect("aborted deregistration unwinds cleanly")
            },
        )
    }

    /// Put the components of `merged` back into the (still write-locked)
    /// slots they were taken from — the failure path of a registration.
    /// Because the mutation was unwound first, the components re-split
    /// exactly like the original partition and land in their original
    /// slots.
    fn reseat(&self, topo: &Topology, guards: &mut ShardGuards<'_>, merged: Engine) {
        for component in merged.split_components() {
            let name = component
                .database()
                .names()
                .next()
                .expect("footprint components are non-empty")
                .to_owned();
            let slot = topo.held_slot(guards, &name);
            debug_assert!(slot.is_none(), "reseat into a non-empty slot");
            *slot = Some(component);
        }
    }

    /// Build and store the successor generation — the registration's
    /// pass through the commit bracket: take a commit seq, split
    /// `merged` into new shards under fresh ids, open each one's WAL
    /// segment series, log `record(seq)`, then store the successor
    /// ([`ServiceSnapshot::successor`]: the retired shards leave, the
    /// new ones join with their images tagged `seq`) in one store.
    /// Returns the seq.
    ///
    /// On failure (WAL segment open or record append) **nothing is
    /// installed** and nothing durable was written: the re-merged engine
    /// is `unwind`-ed back to its pre-call shape and reseated into the
    /// still-held guards — installing a registration whose WAL record
    /// never landed would strand every later commit on these shards
    /// behind a record recovery cannot replay. The series opened for
    /// the fresh ids hold no record; the next checkpoint deletes them.
    fn install_successor(
        &self,
        topo: &Topology,
        guards: &mut ShardGuards<'_>,
        merged: Engine,
        record: impl FnOnce(u64) -> WalRecord,
        unwind: impl FnOnce(&mut Engine),
    ) -> ServiceResult<u64> {
        let retired: Vec<LockId> = guards.iter().map(|(id, _)| *id).collect();
        let seq = self.next_commit_seq();
        let record = record(seq);
        let components = merged.split_components();
        let ids: Vec<LockId> = topo.fresh_ids().take(components.len()).collect();
        let mut writers = Vec::new();
        if let Some(wal) = &self.inner.wal {
            // Log the registration like any epoch's record — to the
            // lowest locked (= first retired) shard's writer: its
            // segment series already holds every earlier record of that
            // shard, the shard's locks are held (no concurrent append),
            // and seq exceeds every seq previously logged there —
            // per-shard monotonicity is preserved. The record must be
            // durable *before* the store: after it, commits through the
            // new view would be unreplayable without it.
            let logged = ids
                .iter()
                .map(|id| wal.open_writer(*id))
                .collect::<ServiceResult<_>>()
                .and_then(|opened| {
                    writers = opened;
                    self.epoch_wal(topo, retired[0])
                        .map_or(Ok(()), |wal| wal.log(&[record]))
                });
            if let Err(e) = logged {
                let mut merged =
                    Engine::merge(components).expect("components of one engine are disjoint");
                unwind(&mut merged);
                self.reseat(topo, guards, merged);
                return Err(e);
            }
        }
        let mut writers = writers.into_iter();
        let fresh: Vec<_> = ids
            .into_iter()
            .zip(components)
            .map(|(id, component)| Shard::new(id, component, writers.next(), seq))
            .collect();
        // One store: a reader sees either generation in full, a view it
        // sees is already writable, and a survivor publishing
        // concurrently keeps its entry whichever store comes first.
        self.publish(|current| current.successor(&retired, &fresh));
        Ok(seq)
    }
}

/// One shard's share of an autocommit run, queued by
/// [`Service::enqueue_autocommits`] and waiting for
/// [`Service::lead_autocommits`]. It can travel to another thread, so
/// the shards of one run can be led by different workers.
///
/// Dropped without being led — a panic between queueing and leading —
/// it takes its members back out of the queue, so no later leader
/// commits a transaction whose submitter answered it failed. A member a
/// leader already drained stays with that leader: the drop waits for
/// the shard's lock, so that leader has filled its result by the time
/// the drop returns.
pub(crate) struct QueuedEpoch {
    topo: Arc<Topology>,
    id: LockId,
    /// The queued transactions, with their indices in the run.
    members: Vec<(usize, Arc<PendingTx>)>,
}

impl QueuedEpoch {
    /// The indices in the run of the transactions queued in this shard.
    pub(crate) fn members(&self) -> impl Iterator<Item = usize> + '_ {
        self.members.iter().map(|(i, _)| *i)
    }

    /// Whether the shard's write lock is free at this moment — a hint
    /// for which epoch to lead first, since another thread may take the
    /// lock right after.
    pub(crate) fn is_free(&self) -> bool {
        self.topo.shard(self.id).try_write().is_some()
    }
}

impl Drop for QueuedEpoch {
    fn drop(&mut self) {
        let shard = self.topo.shard(self.id);
        let mut drained = false;
        for (_, tx) in &self.members {
            drained |= !matches!(shard.retract(tx), Ok(true));
        }
        if drained {
            drop(shard.write());
        }
    }
}

/// Parse a DML script, as [`Session::execute`] does.
pub(crate) fn parse_dml(sql: &str) -> ServiceResult<Vec<DmlStatement>> {
    parse_script(sql).map_err(|e| ServiceError::Parse(e.to_string()))
}

/// One client's connection-scoped state: its mode and pending batch.
pub struct Session {
    service: Service,
    /// `Some` while a batch is open (between `begin` and
    /// `commit`/`rollback`); statements buffer here, in arrival order.
    batch: Option<Vec<DmlStatement>>,
}

impl Session {
    /// The service this session runs against.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Is a batch currently open?
    pub fn in_batch(&self) -> bool {
        self.batch.is_some()
    }

    /// Statements pending in the open batch (0 outside a batch).
    pub fn pending(&self) -> usize {
        self.batch.as_ref().map_or(0, Vec::len)
    }

    /// Execute a DML script. In autocommit mode the statements apply
    /// immediately as one transaction; in batch mode they buffer until
    /// [`Session::commit`].
    pub fn execute(&mut self, sql: &str) -> ServiceResult<ExecOutcome> {
        self.execute_statements(parse_dml(sql)?)
    }

    /// Pre-parsed variant of [`Session::execute`].
    pub fn execute_statements(
        &mut self,
        statements: Vec<DmlStatement>,
    ) -> ServiceResult<ExecOutcome> {
        match &mut self.batch {
            Some(buffer) => {
                buffer.extend(statements);
                Ok(ExecOutcome::Buffered(buffer.len()))
            }
            None => {
                let Some(view) = self.service.autocommit_view(&statements)? else {
                    return Ok(ExecOutcome::Applied(ExecutionStats::default()));
                };
                let (_seq, stats) = self.service.submit_autocommit(view, statements)?;
                Ok(ExecOutcome::Applied(stats))
            }
        }
    }

    /// Open a batch. Fails if one is already open.
    pub fn begin(&mut self) -> ServiceResult<()> {
        if self.batch.is_some() {
            return Err(ServiceError::BatchAlreadyOpen);
        }
        self.batch = Some(Vec::new());
        Ok(())
    }

    /// Coalesce and apply the open batch: statements are grouped by
    /// target view (preserving per-view arrival order), each group is
    /// folded by Algorithm 2 into one net delta, and each net delta is
    /// applied in a single strategy evaluation — locking exactly the
    /// shards the batch's views live in, in global lock order.
    ///
    /// On error the batch is discarded; atomicity is per view (a
    /// multi-view batch that fails on its k-th view keeps the first k−1
    /// applied — single-view batches, the common case, are atomic).
    ///
    /// On a durable service the commit's net per-view deltas are
    /// appended to the WAL (one record, written to the lowest-id locked
    /// shard's log while every locked shard is still held) and synced
    /// per the fsync policy **before** this method returns `Ok` — a
    /// crash after `Ok` never loses the commit. A multi-view batch that
    /// fails on its k-th view logs the applied k−1 prefix (under a fresh
    /// commit seq) so recovery converges to exactly the in-memory state,
    /// then still returns the error.
    ///
    /// ```
    /// # use birds_core::UpdateStrategy;
    /// # use birds_engine::{Engine, StrategyMode};
    /// # use birds_service::Service;
    /// # use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind, Value};
    /// # let mut db = Database::new();
    /// # db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap()).unwrap();
    /// # db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2]]).unwrap()).unwrap();
    /// # let strategy = UpdateStrategy::parse(
    /// #     DatabaseSchema::new()
    /// #         .with(Schema::new("r1", vec![("a", SortKind::Int)]))
    /// #         .with(Schema::new("r2", vec![("a", SortKind::Int)])),
    /// #     Schema::new("v", vec![("a", SortKind::Int)]),
    /// #     "-r1(X) :- r1(X), not v(X).
    /// #      -r2(X) :- r2(X), not v(X).
    /// #      +r1(X) :- v(X), not r1(X), not r2(X).",
    /// #     None,
    /// # ).unwrap();
    /// # let mut engine = Engine::new(db);
    /// # engine.register_view(strategy, StrategyMode::Incremental).unwrap();
    /// // The engine registers the union view `v = r1 ∪ r2`, with
    /// // r1 = {1} and r2 = {2}.
    /// let service = Service::new(engine);
    /// let mut session = service.session();
    ///
    /// session.begin()?;
    /// session.execute("INSERT INTO v VALUES (10);")?; // buffered
    /// session.execute("INSERT INTO v VALUES (11);")?; // buffered
    /// session.execute("DELETE FROM v WHERE a = 10;")?; // cancels the first
    /// let outcome = session.commit()?; // ONE incremental pass, net delta {+11}
    ///
    /// assert_eq!(outcome.commit_seq, 1);
    /// assert_eq!(outcome.statements, 3);
    /// assert_eq!(outcome.views, 1);
    /// // The commit's snapshot is published before `commit` returns:
    /// // lock-free reads see your own writes.
    /// assert_eq!(service.query("v")?, vec![tuple![1], tuple![2], tuple![11]]);
    /// # Ok::<(), birds_service::ServiceError>(())
    /// ```
    pub fn commit(&mut self) -> ServiceResult<CommitOutcome> {
        let statements = self.batch.take().ok_or(ServiceError::NoBatchOpen)?;
        let statement_count = statements.len();
        if statement_count == 0 {
            // An empty commit is still a (trivial) transaction.
            return Ok(CommitOutcome {
                commit_seq: self.service.next_commit_seq(),
                statements: 0,
                views: 0,
                stats: ExecutionStats::default(),
            });
        }
        // Group by view, keeping first-appearance order of views and
        // arrival order of statements within each view.
        let mut groups: Vec<(String, Vec<DmlStatement>)> = Vec::new();
        for stmt in statements {
            match groups.iter_mut().find(|(view, _)| view == stmt.table()) {
                Some((_, group)) => group.push(stmt),
                None => groups.push((stmt.table().to_owned(), vec![stmt])),
            }
        }
        let views = groups.len();
        let (commit_seq, stats) = self.service.commit_batch(&PendingTx::new(groups))?;
        Ok(CommitOutcome {
            commit_seq,
            statements: statement_count,
            views,
            stats,
        })
    }

    /// Discard the open batch, returning how many statements were
    /// dropped.
    pub fn rollback(&mut self) -> ServiceResult<usize> {
        let buffer = self.batch.take().ok_or(ServiceError::NoBatchOpen)?;
        Ok(buffer.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_core::UpdateStrategy;
    use birds_engine::StrategyMode;
    use birds_store::{tuple, Database, DatabaseSchema, Relation, Schema, SortKind};

    /// The union-view strategy `v = r1 ∪ r2` over unary int sources.
    fn union_strategy() -> UpdateStrategy {
        union_strategy_named("v")
    }

    fn union_strategy_named(view: &str) -> UpdateStrategy {
        UpdateStrategy::parse(
            DatabaseSchema::new()
                .with(Schema::new("r1", vec![("a", SortKind::Int)]))
                .with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new(view, vec![("a", SortKind::Int)]),
            &format!(
                "
                -r1(X) :- r1(X), not {view}(X).
                -r2(X) :- r2(X), not {view}(X).
                +r1(X) :- {view}(X), not r1(X), not r2(X).
                "
            ),
            None,
        )
        .unwrap()
    }

    fn union_database() -> Database {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![2], tuple![4]]).unwrap())
            .unwrap();
        db
    }

    fn union_engine() -> Engine {
        let mut engine = Engine::new(union_database());
        engine
            .register_view(union_strategy(), StrategyMode::Incremental)
            .unwrap();
        engine
    }

    fn union_service() -> Service {
        Service::new(union_engine())
    }

    #[test]
    fn autocommit_applies_immediately() {
        let service = union_service();
        let mut session = service.session();
        let outcome = session.execute("INSERT INTO v VALUES (9);").unwrap();
        assert!(matches!(outcome, ExecOutcome::Applied(_)));
        assert!(service.query("r1").unwrap().contains(&tuple![9]));
        assert_eq!(service.commits(), 1);
    }

    #[test]
    fn an_epoch_dropped_unled_takes_its_members_back() {
        let service = union_service();
        let tx = |n| {
            let statements = parse_dml(&format!("INSERT INTO v VALUES ({n});")).unwrap();
            PendingTx::new(vec![("v".to_owned(), statements)])
        };
        let (a, b) = (tx(20), tx(21));
        let (failed, epochs) =
            service.enqueue_autocommits([(0, Arc::clone(&a)), (1, Arc::clone(&b))]);
        assert!(failed.is_empty());
        assert_eq!(epochs.len(), 1, "one shard, one epoch");
        assert_eq!(service.debug_queue_len("v"), 2);
        drop(epochs);
        assert_eq!(service.debug_queue_len("v"), 0);
        // The next leader of the shard commits neither.
        service
            .session()
            .execute("INSERT INTO v VALUES (22);")
            .unwrap();
        let r1 = service.query("r1").unwrap();
        assert!(r1.contains(&tuple![22]) && !r1.contains(&tuple![20]) && !r1.contains(&tuple![21]));
        assert!(matches!(a.result(), Err(ServiceError::Poisoned(_))));

        // A member another leader drained stays that leader's: it
        // commits, and the drop leaves its result for the submitter.
        let c = tx(23);
        let (_, epochs) = service.enqueue_autocommits([(0, Arc::clone(&c))]);
        service
            .session()
            .execute("INSERT INTO v VALUES (24);")
            .unwrap();
        drop(epochs);
        assert!(c.result().is_ok());
        assert!(service.query("r1").unwrap().contains(&tuple![23]));
    }

    #[test]
    fn batch_buffers_then_commits_net_delta() {
        let service = union_service();
        let mut session = service.session();
        session.begin().unwrap();
        session.execute("INSERT INTO v VALUES (10);").unwrap();
        session.execute("INSERT INTO v VALUES (11);").unwrap();
        let outcome = session.execute("DELETE FROM v WHERE a = 10;").unwrap();
        assert_eq!(outcome, ExecOutcome::Buffered(3));
        // Nothing applied yet.
        assert!(!service.query("r1").unwrap().contains(&tuple![11]));
        assert_eq!(service.commits(), 0);

        let commit = session.commit().unwrap();
        assert_eq!(commit.statements, 3);
        assert_eq!(commit.views, 1);
        assert_eq!(commit.commit_seq, 1);
        // Net effect: only 11 inserted (10 cancelled in the batch).
        assert_eq!(commit.stats.view_delta_size, 1);
        let r1 = service.query("r1").unwrap();
        assert!(r1.contains(&tuple![11]) && !r1.contains(&tuple![10]));
        assert!(!session.in_batch());
    }

    #[test]
    fn rollback_discards_buffer() {
        let service = union_service();
        let mut session = service.session();
        session.begin().unwrap();
        session.execute("INSERT INTO v VALUES (77);").unwrap();
        assert_eq!(session.rollback().unwrap(), 1);
        assert!(!service.query("v").unwrap().contains(&tuple![77]));
        assert!(matches!(session.rollback(), Err(ServiceError::NoBatchOpen)));
    }

    #[test]
    fn begin_twice_rejected_commit_without_begin_rejected() {
        let service = union_service();
        let mut session = service.session();
        session.begin().unwrap();
        assert!(matches!(
            session.begin(),
            Err(ServiceError::BatchAlreadyOpen)
        ));
        session.rollback().unwrap();
        assert!(matches!(session.commit(), Err(ServiceError::NoBatchOpen)));
    }

    #[test]
    fn empty_commit_is_a_trivial_transaction() {
        let service = union_service();
        let mut session = service.session();
        session.begin().unwrap();
        let commit = session.commit().unwrap();
        assert_eq!(commit.statements, 0);
        assert_eq!(commit.commit_seq, 1);
    }

    #[test]
    fn failed_commit_discards_batch_and_preserves_state() {
        let service = union_service();
        let mut session = service.session();
        session.begin().unwrap();
        // Target a non-view: the commit must fail cleanly.
        session.execute("INSERT INTO r1 VALUES (5);").unwrap();
        assert!(session.commit().is_err());
        assert!(!session.in_batch(), "failed commit closes the batch");
        assert_eq!(service.query("r1").unwrap().len(), 1);
        assert_eq!(service.commits(), 0);
    }

    #[test]
    fn sessions_share_one_database() {
        let service = union_service();
        let mut a = service.session();
        let mut b = service.session();
        a.execute("INSERT INTO v VALUES (100);").unwrap();
        b.execute("DELETE FROM v WHERE a = 100;").unwrap();
        assert!(!service.query("v").unwrap().contains(&tuple![100]));
        assert_eq!(service.commits(), 2);
    }

    #[test]
    fn into_engine_requires_sole_ownership() {
        let service = union_service();
        let session = service.session();
        let service = match service.into_engine() {
            Err(still_shared) => still_shared,
            Ok(_) => panic!("session still alive: must refuse"),
        };
        drop(session);
        let engine = match service.into_engine() {
            Ok(engine) => engine,
            Err(_) => panic!("sole owner now: must succeed"),
        };
        assert!(engine.is_view("v"));
    }

    #[test]
    fn unknown_table_is_rejected_without_locking() {
        let service = union_service();
        let mut session = service.session();
        let err = session.execute("INSERT INTO nope VALUES (1);").unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Engine(EngineError::NotAView(_))
        ));
        assert_eq!(service.commits(), 0);
    }

    #[test]
    fn mixed_table_autocommit_script_is_rejected() {
        let service = union_service();
        let mut session = service.session();
        let err = session
            .execute("BEGIN; INSERT INTO v VALUES (1); INSERT INTO r1 VALUES (2); END;")
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Engine(EngineError::BadStatement(_))
        ));
    }

    #[test]
    fn empty_autocommit_script_is_a_trivial_transaction() {
        let service = union_service();
        let mut session = service.session();
        let outcome = session.execute("").unwrap();
        assert_eq!(outcome, ExecOutcome::Applied(ExecutionStats::default()));
        assert_eq!(service.commits(), 1);
    }

    #[test]
    fn union_view_shares_one_shard_with_its_sources() {
        let service = union_service();
        // {v, r1, r2} is one footprint component.
        assert_eq!(service.shard_count(), 1);
        let s = service.snapshot();
        assert!(s.is_view("v"));
        assert!(!s.is_view("r1"));
        assert_eq!(s.view_names(), vec!["v".to_owned()]);
        assert_eq!(s.relations().count(), 3);
        assert_eq!(s.relation("r2").unwrap().len(), 2);
        assert!(s.relation("nope").is_none());
    }

    // ---- the one commit pipeline: durability faults ----------------

    /// A sealed-writer fault on each entry point of the pipeline —
    /// autocommit, batch, registration — surfaces as `Durability` and
    /// makes the shared post-commit hook attempt exactly one heal.
    ///
    /// The rig: after one commit, the shard's writer is swapped for one
    /// over the same series with one-byte segments, so the next append
    /// rotates, and the next segment's name is already taken (rotation
    /// opens with `create_new`), so the append fails for real and seals
    /// the writer; `snapshot.bin` is a non-empty directory, so the
    /// heal's checkpoint cannot rename its snapshot into place, the
    /// writer stays sealed and the attempt is counted.
    #[test]
    fn sealed_writer_fails_every_entry_point_durably_and_heals_once() {
        type EntryPoint = fn(&Service) -> ServiceResult<u64>;
        let entry_points: [(&str, EntryPoint); 3] = [
            ("autocommit", |service| {
                let outcome = service.session().execute("INSERT INTO v VALUES (51);");
                outcome.map(|_| 0)
            }),
            ("batch", |service| {
                let mut session = service.session();
                session.begin()?;
                session.execute("INSERT INTO v VALUES (51);")?;
                session.execute("INSERT INTO v VALUES (52);")?;
                session.commit().map(|outcome| outcome.commit_seq)
            }),
            // A second union view over the same sources: same shard, so
            // its `Register` record goes to the rigged writer.
            ("register", |service| {
                service.register_view(union_strategy_named("w"), StrategyMode::Incremental)
            }),
        ];
        for (tag, entry_point) in entry_points {
            let dir = std::env::temp_dir().join(format!(
                "birds-service-seal-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut durability = DurabilityConfig::new(&dir);
            durability.checkpoint_every = None;
            let service = Service::open(union_engine(), ServiceConfig::default(), durability);
            let service = service.unwrap();
            let mut session = service.session();
            session.execute("INSERT INTO v VALUES (50);").unwrap();
            let topo = service.topology();
            let writer = topo.shards[0].writer.as_ref().unwrap();
            *writer.lock().unwrap() = SegmentWriter::open(&dir, 0, 1).unwrap();
            std::fs::write(dir.join("wal").join("shard-0000.000001.wal"), b"taken").unwrap();
            std::fs::create_dir_all(dir.join(birds_wal::SNAPSHOT_FILE).join("blocker")).unwrap();

            let result = entry_point(&service);
            assert!(
                matches!(result, Err(ServiceError::Durability(_))),
                "{tag}: expected a durability error, got {result:?}"
            );
            let wal = service.inner.wal.as_ref().unwrap();
            assert_eq!(wal.heal_failures.load(Ordering::SeqCst), 1, "{tag}");
            // No registration was installed; the topology is as it was.
            assert_eq!(service.view_names(), vec!["v".to_owned()], "{tag}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    // ---- dynamic registration ------------------------------------

    #[test]
    fn register_view_live_merges_shards_and_serves_writes() {
        // Start with NO views: two free relations, two shards.
        let service = Service::new(Engine::new(union_database()));
        assert_eq!(service.shard_count(), 2);

        let seq = service
            .register_view(union_strategy(), StrategyMode::Incremental)
            .unwrap();
        assert_eq!(seq, 1);
        assert_eq!(service.shard_count(), 1);
        assert_eq!(service.view_names(), vec!["v".to_owned()]);

        // The new view is immediately writable through the normal path.
        let mut session = service.session();
        session.execute("INSERT INTO v VALUES (7);").unwrap();
        assert_eq!(
            service.query("v").unwrap(),
            vec![tuple![1], tuple![2], tuple![4], tuple![7]]
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let service = union_service();
        let err = service
            .register_view(union_strategy(), StrategyMode::Incremental)
            .unwrap_err();
        assert_eq!(err, ServiceError::ViewExists("v".into()));
        assert_eq!(service.shard_count(), 1);
    }

    #[test]
    fn view_name_colliding_with_base_relation_is_rejected() {
        // A "view" named like the live base relation r1, sourced from r2.
        let service = Service::new(Engine::new(union_database()));
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new("r2", vec![("a", SortKind::Int)])),
            Schema::new("r1", vec![("a", SortKind::Int)]),
            "
            -r2(X) :- r2(X), not r1(X).
            +r2(X) :- r1(X), not r2(X).
            ",
            None,
        )
        .unwrap();
        let err = service
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap_err();
        assert_eq!(err, ServiceError::RelationConflict("r1".into()));
    }

    #[test]
    fn missing_source_relation_is_invalid_strategy() {
        let mut db = Database::new();
        db.add_relation(Relation::with_tuples("r1", 1, vec![tuple![1]]).unwrap())
            .unwrap();
        let service = Service::new(Engine::new(db)); // no r2
        let err = service
            .register_view(union_strategy(), StrategyMode::Incremental)
            .unwrap_err();
        match err {
            ServiceError::InvalidStrategy { reason } => {
                assert!(reason.contains("does not exist"), "reason: {reason}")
            }
            other => panic!("expected InvalidStrategy, got {other:?}"),
        }
    }

    #[test]
    fn source_arity_mismatch_is_a_relation_conflict() {
        // Live r2 is unary; the strategy declares it binary.
        let service = Service::new(Engine::new(union_database()));
        let strategy = UpdateStrategy::parse(
            DatabaseSchema::new().with(Schema::new(
                "r2",
                vec![("a", SortKind::Int), ("b", SortKind::Int)],
            )),
            Schema::new("v2", vec![("a", SortKind::Int), ("b", SortKind::Int)]),
            "
            -r2(X, Y) :- r2(X, Y), not v2(X, Y).
            +r2(X, Y) :- v2(X, Y), not r2(X, Y).
            ",
            None,
        )
        .unwrap();
        let err = service
            .register_view(strategy, StrategyMode::Incremental)
            .unwrap_err();
        assert_eq!(err, ServiceError::RelationConflict("r2".into()));
    }

    #[test]
    fn unregister_view_splits_shards_and_forgets_the_view() {
        let service = union_service();
        assert_eq!(service.shard_count(), 1);
        service.unregister_view("v").unwrap();
        // r1 and r2 are free again: two shards, no views.
        assert_eq!(service.shard_count(), 2);
        assert!(service.view_names().is_empty());
        assert_eq!(
            service.query("v"),
            Err(ServiceError::UnknownRelation("v".into()))
        );
        // Base contents survive, and re-registration works.
        assert_eq!(service.query("r1").unwrap(), vec![tuple![1]]);
        service
            .register_view(union_strategy(), StrategyMode::Incremental)
            .unwrap();
        assert_eq!(service.shard_count(), 1);
        assert_eq!(
            service.query("v").unwrap(),
            vec![tuple![1], tuple![2], tuple![4]]
        );
    }

    #[test]
    fn unregister_unknown_view_is_rejected() {
        let service = union_service();
        assert_eq!(
            service.unregister_view("nope"),
            Err(ServiceError::Engine(EngineError::NotAView("nope".into())))
        );
        // A base relation is not an updatable view either.
        assert_eq!(
            service.unregister_view("r1"),
            Err(ServiceError::Engine(EngineError::NotAView("r1".into())))
        );
    }

    /// An autocommit queued in a shard that a registration retires
    /// (queued while the quiesce barrier holds the shard's lock) takes
    /// its transaction back out of the retired queue and commits in
    /// the successor shard.
    #[test]
    fn a_submitter_whose_shard_retires_resubmits_to_the_successor() {
        use std::time::{Duration, Instant};
        let service = union_service();
        let retired = service.topology();
        let submitter = service.clone();
        let (done_tx, done) = mpsc::channel();
        let mut handle = None;
        service
            .register_view_with_quiesce_hook(
                union_strategy_named("w"),
                StrategyMode::Incremental,
                || {
                    handle = Some(std::thread::spawn(move || {
                        let outcome = submitter.session().execute("INSERT INTO v VALUES (7);");
                        let _ = done_tx.send(outcome);
                    }));
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while retired.queue_len("v") == 0 {
                        assert!(Instant::now() < deadline, "the autocommit never queued");
                        std::thread::sleep(Duration::from_millis(1));
                    }
                },
            )
            .unwrap();
        let outcome = done
            .recv_timeout(Duration::from_secs(10))
            .expect("the retired shard's submitter hung");
        handle.unwrap().join().unwrap();
        assert!(
            matches!(outcome, Ok(ExecOutcome::Applied(_))),
            "{outcome:?}"
        );
        assert_eq!(
            retired.queue_len("v"),
            0,
            "taken back out of the retired queue"
        );
        let successor = service.topology();
        let shard_of_v = |topo: &Topology| {
            let id = topo.route.shard_of("v").unwrap();
            Arc::clone(topo.shard(id))
        };
        assert!(!Arc::ptr_eq(&shard_of_v(&retired), &shard_of_v(&successor)));
        assert!(service.query("v").unwrap().contains(&tuple![7]));
        assert!(service.query("r1").unwrap().contains(&tuple![7]));
        assert_eq!(service.commits(), 2, "the registration and the insert");
    }

    /// A view update whose cascade a sub-view's constraint rejects is
    /// undone whole, so memory still equals what recovery rebuilds:
    /// `w = σ_{a>2}(v)` over `v = r1 ∪ r2`, where `v` (registered
    /// without validation) rejects values above 100.
    #[test]
    fn a_rejected_cascade_leaves_memory_equal_to_recovery() {
        let dir = std::env::temp_dir().join(format!(
            "birds-service-rejected-cascade-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let mut engine = Engine::new(union_database());
            // The get of the unconstrained union; the constraint makes
            // the strategy itself fail validation.
            let get = birds_core::validate(&union_strategy())
                .unwrap()
                .derived_get
                .unwrap();
            let v = UpdateStrategy::parse(
                union_strategy().source_schema,
                Schema::new("v", vec![("a", SortKind::Int)]),
                "
                false :- v(X), X > 100.
                -r1(X) :- r1(X), not v(X).
                -r2(X) :- r2(X), not v(X).
                +r1(X) :- v(X), not r1(X), not r2(X).
                ",
                None,
            )
            .unwrap();
            engine
                .register_view_unchecked(v, get, StrategyMode::Incremental)
                .unwrap();
            let w = UpdateStrategy::parse(
                DatabaseSchema::new().with(Schema::new("v", vec![("a", SortKind::Int)])),
                Schema::new("w", vec![("a", SortKind::Int)]),
                "
                false :- w(X), not X > 2.
                +v(X) :- w(X), not v(X).
                mv(X) :- v(X), X > 2.
                -v(X) :- mv(X), not w(X).
                ",
                None,
            )
            .unwrap();
            engine.register_view(w, StrategyMode::Incremental).unwrap();
            Service::open(
                engine,
                ServiceConfig::default(),
                DurabilityConfig::new(&dir),
            )
            .unwrap()
        };
        let contents =
            |service: &Service| ["r1", "r2", "v", "w"].map(|name| service.query(name).unwrap());
        let service = open();
        let before = contents(&service);
        let rejected = service.session().execute("INSERT INTO w VALUES (500);");
        assert!(
            matches!(
                &rejected,
                Err(ServiceError::Engine(EngineError::ConstraintViolation { view, .. })) if view == "v"
            ),
            "{rejected:?}"
        );
        assert_eq!(contents(&service), before);
        // A rejected update publishes nothing: the next commit on the
        // shard publishes whatever the engine holds.
        service
            .session()
            .execute("INSERT INTO w VALUES (50);")
            .unwrap();
        let memory = contents(&service);
        assert!(
            !memory.iter().flatten().any(|t| *t == tuple![500]),
            "{memory:?}"
        );
        drop(service);
        assert_eq!(contents(&open()), memory, "recovery equals memory");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A commit on `p` writes `r2` itself and cascades into `v = r1 ∪ r2`,
    /// whose strategy reads and writes `r2` too: `r2` gets two deltas in
    /// one commit, `v`'s putback reads `r2` through `p`'s pending
    /// insertion (so `20` is not inserted into `r1` as well), and a
    /// durable service reopened after the commit equals memory.
    #[test]
    fn a_cascade_over_a_table_its_parent_wrote_merges_both_deltas() {
        for mode in [StrategyMode::Original, StrategyMode::Incremental] {
            let dir = std::env::temp_dir().join(format!(
                "birds-service-merged-cascade-{mode:?}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || {
                let mut db = Database::new();
                db.add_relation(
                    Relation::with_tuples("r1", 1, vec![tuple![1], tuple![3]]).unwrap(),
                )
                .unwrap();
                db.add_relation(Relation::with_tuples("r2", 1, vec![tuple![8]]).unwrap())
                    .unwrap();
                let mut engine = Engine::new(db);
                engine.register_view(union_strategy(), mode).unwrap();
                let p = UpdateStrategy::parse(
                    DatabaseSchema::new()
                        .with(Schema::new("v", vec![("a", SortKind::Int)]))
                        .with(Schema::new("r2", vec![("a", SortKind::Int)])),
                    Schema::new("p", vec![("a", SortKind::Int)]),
                    "
                    +v(X) :- p(X), not v(X).
                    -v(X) :- v(X), not p(X).
                    +r2(X) :- p(X), not v(X).
                    ",
                    None,
                )
                .unwrap();
                engine.register_view(p, mode).unwrap();
                Service::open(
                    engine,
                    ServiceConfig::default(),
                    DurabilityConfig::new(&dir),
                )
                .unwrap()
            };
            let contents =
                |service: &Service| ["r1", "r2", "v", "p"].map(|name| service.query(name).unwrap());
            let service = open();
            service
                .session()
                .execute("BEGIN; INSERT INTO p VALUES (20); DELETE FROM p WHERE a = 8; END;")
                .unwrap();
            let memory = contents(&service);
            let view = vec![tuple![1], tuple![3], tuple![20]];
            assert_eq!(
                memory,
                [
                    vec![tuple![1], tuple![3]],
                    vec![tuple![20]],
                    view.clone(),
                    view
                ],
                "{mode:?}"
            );
            drop(service);
            assert_eq!(
                contents(&open()),
                memory,
                "{mode:?}: recovery equals memory"
            );
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
