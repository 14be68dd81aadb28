//! MVCC snapshots: the lock-free read side of the service.
//!
//! The service publishes one [`ServiceSnapshot`]: an `Arc` per shard to
//! the shard's latest [`ShardSnapshot`] — an immutable image of its
//! relations ([`RelationVersion`]s, `Arc`-shared version buffers)
//! tagged with the shard's **high-water commit seq** — plus the routing
//! table of the generation that published it. One `RwLock<Arc<_>>`
//! holds it; every read loads that pointer and nothing else.
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
//! ## Why readers never block writers (and vice versa)
//!
//! Readers load the pointer — a nanosecond-scale `RwLock` critical
//! section around an `Arc` clone, never a shard's engine lock — and
//! then work entirely against the immutable image. Writers capture
//! their shards' images under their shard locks, then take the write
//! lock only to copy the vector of shard `Arc`s, replace their own
//! entries and store the result. The engine's left-right versioned
//! tuple sets ([`birds_store::Relation`]) make capture `O(delta)`, not
//! `O(tuples)`: an epoch that touched two relations replays its ops
//! into their shadow buffers and re-shares every untouched one.
//!
//! ## Cross-shard consistency
//!
//! A multi-shard commit replaces all of its entries in one store, so no
//! reader ever sees half of it. Each publisher copies the vector under
//! the write lock, so commits on disjoint shards never drop each
//! other's entries.

use crate::footprint::ShardMap;
use crate::topology::LockId;
use birds_engine::Engine;
use birds_store::RelationVersion;
use std::sync::{Arc, PoisonError, RwLock, RwLockWriteGuard};

/// An immutable image of one shard's relations at a commit boundary.
///
/// Produced under the shard's write lock, shared with readers through
/// the published [`ServiceSnapshot`]. Once published it never changes;
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
        ShardSnapshot {
            commit_seq,
            relations: engine.relation_versions(),
            views: engine.view_names().map(str::to_owned).collect(),
        }
    }

    /// An empty image — what a *retired* shard slot publishes after a
    /// live re-shard moved its relations elsewhere. No route entry ever
    /// points at a retired slot, so the image is unreachable through
    /// normal reads; it keeps the published vector indexed by
    /// [`LockId`].
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

/// A consistent, pinnable, lock-free view over every shard: what
/// [`crate::Service::snapshot`] returns.
///
/// Loading it takes no shard lock and never retries: every publication
/// stores a whole new snapshot. The result is an owned value: keep it
/// as long as you like; it observes none of the commits that happen
/// after it was loaded.
pub struct ServiceSnapshot {
    /// One image per shard slot, indexed by [`LockId`].
    shards: Vec<Arc<ShardSnapshot>>,
    route: Arc<ShardMap>,
}

impl ServiceSnapshot {
    /// The image of shard `id`.
    pub(crate) fn shard(&self, id: LockId) -> &Arc<ShardSnapshot> {
        &self.shards[id.index()]
    }

    /// Read access to any relation (base table or materialized view);
    /// `None` for names no shard owns.
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        self.shard(self.route.shard_of(name)?).relation(name)
    }

    /// Is `name` a registered updatable view?
    pub fn is_view(&self, name: &str) -> bool {
        self.route
            .shard_of(name)
            .is_some_and(|shard| self.shard(shard).is_view(name))
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
        self.shard_seqs().into_iter().max().unwrap_or(0)
    }

    /// Per-shard high-water commit seqs, in shard (lock-id) order.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.shards.iter().map(|shard| shard.commit_seq()).collect()
    }
}

/// The service's one published snapshot. The `RwLock` guards only the
/// `Arc` pointer — a reader clones it, a publisher copies the vector of
/// shard `Arc`s and stores a new one, never engine work — so a reader is
/// never blocked by a writer holding a shard's engine lock. Publishers
/// take it after their shard locks, never before.
pub(crate) struct Published(RwLock<Arc<ServiceSnapshot>>);

impl Published {
    pub(crate) fn new(shards: Vec<Arc<ShardSnapshot>>, route: Arc<ShardMap>) -> Published {
        Published(RwLock::new(Arc::new(ServiceSnapshot { shards, route })))
    }

    /// The current snapshot (an `Arc` clone).
    pub(crate) fn load(&self) -> Arc<ServiceSnapshot> {
        Arc::clone(&self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// The current snapshot as an owned value (copies of its `Arc`s).
    pub(crate) fn snapshot(&self) -> ServiceSnapshot {
        let current = self.load();
        let (shards, route) = (current.shards.clone(), Arc::clone(&current.route));
        ServiceSnapshot { shards, route }
    }

    /// Replace the entries of `images` in one store, and the routing
    /// table too when a re-shard passes its successor `route`. Ids past
    /// the current end (a re-shard's fresh slots) come in ascending
    /// order. The copy is made under the write lock, so concurrent
    /// publishers on disjoint shards keep each other's entries. The
    /// lock is returned still held: a re-shard swaps its topology under
    /// it, so no reader finds a route that writers cannot use yet.
    pub(crate) fn publish(
        &self,
        images: impl IntoIterator<Item = (LockId, Arc<ShardSnapshot>)>,
        route: Option<Arc<ShardMap>>,
    ) -> RwLockWriteGuard<'_, Arc<ServiceSnapshot>> {
        let mut current = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let mut shards = current.shards.clone();
        for (id, image) in images {
            match shards.get_mut(id.index()) {
                Some(entry) => *entry = image,
                None => shards.push(image),
            }
        }
        let route = route.unwrap_or_else(|| Arc::clone(&current.route));
        *current = Arc::new(ServiceSnapshot { shards, route });
        current
    }
}
