//! MVCC snapshots: the lock-free read side of the service.
//!
//! Every shard owns a snapshot cell holding an `Arc` to the shard's
//! latest published [`ShardSnapshot`] — an immutable image of the
//! shard's relations ([`RelationVersion`]s, `Arc`-shared version
//! buffers) tagged with the shard's **high-water commit seq**.
//!
//! ## Visibility rule
//!
//! A shard snapshot tagged `commit_seq = s` contains the effects of
//! *exactly* the commits with seq ≤ `s` that touched this shard, and
//! nothing of any later commit. Publication happens while the shard's
//! write lock is still held, after deltas are applied (and after the
//! commit's WAL record is appended, on durable services): a reader can
//! never observe a commit's effects before that commit is logged.
//!
//! One deliberate exception, on **in-memory** services only: batch
//! atomicity is per view, so a multi-view batch that fails on its k-th
//! view keeps the first k−1 views applied. With no WAL to log that
//! prefix under a fresh seq (the durable path does exactly that), the
//! mutated shards republish at their *unchanged* high-water seq — the
//! lock-free read path must keep matching engine memory, so the failed
//! batch's applied prefix is visible seq-less. Its mutations carry no
//! commit seq of their own and the batch reported an error.
//!
//! ## Why readers never block writers (and vice versa)
//!
//! Readers load the cell pointer — a nanosecond-scale `RwLock` critical
//! section around an `Arc` clone, never the shard's engine lock — and
//! then work entirely against the immutable image. Writers publish by
//! swapping the pointer. The engine's left-right versioned tuple sets
//! ([`birds_store::Relation`]) make publication `O(delta)`, not
//! `O(tuples)`: an epoch that touched two relations replays its ops
//! into their shadow buffers and re-shares every untouched one.
//!
//! ## Cross-shard consistency
//!
//! A [`ServiceSnapshot`] assembles one `Arc` per shard. Commits that
//! touch a *single* shard publish independently — they commute with
//! every other single-shard commit, so any combination of cell pointers
//! is a consistent cut. Commits that touch *multiple* shards (a batch
//! spanning footprint components) are the only writes that can
//! establish a cross-shard invariant, so only they bracket their
//! publication with the service's publication seqlock; readers retry
//! the (cheap) pointer collection if such a publication was in flight.

use crate::footprint::ShardMap;
use birds_engine::Engine;
use birds_store::RelationVersion;
use std::sync::{Arc, RwLock};

/// An immutable image of one shard's relations at a commit boundary.
///
/// Produced under the shard's write lock, shared with readers through
/// the shard's snapshot cell. Once published it never changes;
/// holding the `Arc` pins the image for as long as the reader likes,
/// at the cost of keeping the (structurally shared) tuple sets alive.
#[derive(Debug)]
pub struct ShardSnapshot {
    /// High-water commit seq: the effects of every commit with seq ≤
    /// this that touched the shard are visible, and nothing newer.
    commit_seq: u64,
    /// Every relation in the shard, in name order (base tables and
    /// materialized views alike).
    relations: Vec<RelationVersion>,
    /// Names of the shard's registered updatable views, in name order.
    views: Vec<String>,
}

impl ShardSnapshot {
    /// Capture the current contents of `engine` as of commit
    /// `commit_seq`. Cost: `O(delta)` per touched relation plus an
    /// `O(1)` re-share per untouched one (left-right publication in
    /// `birds_store`); `&mut` because each relation's publication state
    /// advances. Call only while the shard's write lock is held (or
    /// before the service is shared), so the image is a commit
    /// boundary.
    pub(crate) fn capture(engine: &mut Engine, commit_seq: u64) -> ShardSnapshot {
        let relations = engine.relation_versions();
        ShardSnapshot {
            commit_seq,
            relations,
            views: engine.view_names().map(str::to_owned).collect(),
        }
    }

    /// An empty image — what a *retired* shard slot publishes after a
    /// live re-shard moved its relations elsewhere. No route entry ever
    /// points at a retired slot, so the image is unreachable through
    /// normal reads; it exists so whole-service assembly stays a plain
    /// per-slot pointer collection.
    pub(crate) fn empty(commit_seq: u64) -> ShardSnapshot {
        ShardSnapshot {
            commit_seq,
            relations: Vec::new(),
            views: Vec::new(),
        }
    }

    /// The shard's high-water commit seq (see the visibility rule in
    /// the module docs).
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Look up a relation by name (`None` if the shard doesn't own it).
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        self.relations
            .binary_search_by(|rel| rel.name().cmp(name))
            .ok()
            .map(|i| &self.relations[i])
    }

    /// Is `name` one of this shard's registered updatable views?
    pub fn is_view(&self, name: &str) -> bool {
        self.views
            .binary_search_by(|v| v.as_str().cmp(name))
            .is_ok()
    }

    /// The shard's relations, in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationVersion> {
        self.relations.iter()
    }

    /// The shard's view names, in name order.
    pub fn view_names(&self) -> impl Iterator<Item = &str> {
        self.views.iter().map(String::as_str)
    }
}

/// One shard's published-snapshot slot: a pointer-swap cell.
///
/// The `RwLock` here guards only the `Arc` pointer — critical sections
/// are a clone or a store, never engine work — so a reader loading the
/// cell cannot be blocked by a writer holding the shard's *engine*
/// lock, which is the whole point of the MVCC read path.
pub(crate) struct SnapshotCell {
    ptr: RwLock<Arc<ShardSnapshot>>,
}

impl SnapshotCell {
    pub(crate) fn new(snapshot: ShardSnapshot) -> SnapshotCell {
        SnapshotCell {
            ptr: RwLock::new(Arc::new(snapshot)),
        }
    }

    /// Swap in a freshly captured snapshot. Called with the shard's
    /// write lock held, so publications are ordered like commits.
    pub(crate) fn publish(&self, snapshot: ShardSnapshot) {
        let snapshot = Arc::new(snapshot);
        // A panic between a lock acquisition and release here is
        // impossible (the critical section is a pointer store), but
        // recover from poisoning anyway — the pointer is always valid.
        match self.ptr.write() {
            Ok(mut slot) => *slot = snapshot,
            Err(poisoned) => *poisoned.into_inner() = snapshot,
        }
    }

    /// Load the current snapshot pointer (an `Arc` clone).
    pub(crate) fn load(&self) -> Arc<ShardSnapshot> {
        match self.ptr.read() {
            Ok(slot) => Arc::clone(&slot),
            Err(poisoned) => Arc::clone(&poisoned.into_inner()),
        }
    }
}

/// A consistent, pinnable, lock-free view over every shard: what
/// [`crate::Service::snapshot`] returns.
///
/// Assembly takes no shard lock — it collects each shard's published
/// `Arc` and retries (via the service's publication seqlock) only if a
/// multi-shard commit was publishing concurrently. The result is an
/// owned value: keep it as long as you like; it observes none of the
/// commits that happen after assembly.
pub struct ServiceSnapshot {
    shards: Vec<Arc<ShardSnapshot>>,
    route: Arc<ShardMap>,
}

impl ServiceSnapshot {
    pub(crate) fn new(shards: Vec<Arc<ShardSnapshot>>, route: Arc<ShardMap>) -> ServiceSnapshot {
        ServiceSnapshot { shards, route }
    }

    /// Read access to any relation (base table or materialized view);
    /// `None` for names no shard owns.
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        let shard = self.route.shard_of(name)?;
        self.shards[shard.index()].relation(name)
    }

    /// Is `name` a registered updatable view?
    pub fn is_view(&self, name: &str) -> bool {
        self.route
            .shard_of(name)
            .is_some_and(|shard| self.shards[shard.index()].is_view(name))
    }

    /// Names of all registered views, in name order.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| shard.view_names().map(str::to_owned))
            .collect();
        names.sort();
        names
    }

    /// Iterate every relation across all shards (shard-internal name
    /// order; not globally sorted).
    pub fn relations(&self) -> impl Iterator<Item = &RelationVersion> {
        self.shards.iter().flat_map(|shard| shard.relations())
    }

    /// The snapshot's overall high-water commit seq (the max over its
    /// shards): every commit with seq ≤ the *per-shard* seq is visible
    /// on that shard.
    pub fn commit_seq(&self) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.commit_seq())
            .max()
            .unwrap_or(0)
    }

    /// Per-shard high-water commit seqs, in shard (lock-id) order.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.commit_seq()).collect()
    }

    /// Number of shards covered.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }
}
