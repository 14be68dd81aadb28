//! MVCC snapshots: the lock-free read side of the service.
//!
//! The service publishes one [`ServiceSnapshot`], and it is the whole
//! of one generation: the live shards and their routing table
//! (`crate::topology`), plus an `Arc` per live shard to its latest
//! [`ShardSnapshot`] — an immutable image of its relations
//! ([`RelationVersion`]s, `Arc`-shared version buffers) tagged with the
//! shard's **high-water commit seq**. One `RwLock<Arc<_>>` holds it.
//! Every read loads that pointer and nothing else; every writer loads
//! it to take the shard half out, and every commit and re-shard stores
//! a new one.
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
//! lock only to copy the vector of image `Arc`s, replace their own
//! entries (found by shard id) and store the result. A re-shard stores
//! its successor the same way: retired shards and their images leave,
//! new ones join, survivors keep their entries. The engine's
//! left-right versioned tuple sets ([`birds_store::Relation`]) make
//! capture `O(delta)`, not `O(tuples)`: an epoch that touched two
//! relations replays its ops into their shadow buffers and re-shares
//! every untouched one.
//!
//! ## Cross-shard consistency
//!
//! A multi-shard commit replaces all of its entries in one store, so no
//! reader ever sees half of it. Each publisher copies the vector under
//! the write lock, so commits on disjoint shards — and a re-shard
//! beside them — never drop each other's entries. The route and the
//! images are stored together, so a view a reader can see is already
//! writable.

use crate::topology::{LockId, Shard, Topology};
use birds_engine::Engine;
use birds_store::RelationVersion;
use std::sync::Arc;

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
/// [`crate::Service::snapshot`] returns, and the one value the service
/// publishes.
///
/// Loading it takes no shard lock and never retries: every publication
/// stores a whole new snapshot. The result is an owned value: keep it
/// as long as you like; it observes none of the commits that happen
/// after it was loaded.
pub struct ServiceSnapshot {
    /// The live shards and their routing table — all a writer needs,
    /// and all it holds: a writer pins no image.
    pub(crate) topology: Arc<Topology>,
    /// Each live shard's latest image, in `topology.shards` order.
    pub(crate) images: Vec<Arc<ShardSnapshot>>,
}

impl ServiceSnapshot {
    /// A copy of this snapshot (copies of its `Arc`s).
    pub(crate) fn copy(&self) -> ServiceSnapshot {
        ServiceSnapshot {
            topology: Arc::clone(&self.topology),
            images: self.images.clone(),
        }
    }

    /// The image of the live shard `id`.
    pub(crate) fn image(&self, id: LockId) -> &Arc<ShardSnapshot> {
        &self.images[self.topology.position(id).expect("a live shard id")]
    }

    /// This generation with the images of `published` replaced: what a
    /// commit stores. Every id is live — the commit holds its shards'
    /// locks, so no re-shard retired them.
    pub(crate) fn with_images(
        &self,
        published: impl IntoIterator<Item = (LockId, Arc<ShardSnapshot>)>,
    ) -> ServiceSnapshot {
        let mut images = self.images.clone();
        for (id, image) in published {
            images[self
                .topology
                .position(id)
                .expect("a commit's shards are live")] = image;
        }
        ServiceSnapshot {
            topology: Arc::clone(&self.topology),
            images,
        }
    }

    /// The successor generation of a re-shard
    /// ([`Topology::successor`]): the survivors keep their current
    /// images, and each `fresh` shard brings its first one.
    pub(crate) fn successor(
        &self,
        retired: &[LockId],
        fresh: &[(Arc<Shard>, Arc<ShardSnapshot>)],
    ) -> ServiceSnapshot {
        let (topology, images) = self.topology.successor(&self.images, retired, fresh);
        let topology = Arc::new(topology);
        ServiceSnapshot { topology, images }
    }

    /// Read access to any relation (base table or materialized view);
    /// `None` for names no shard owns.
    pub fn relation(&self, name: &str) -> Option<&RelationVersion> {
        self.image(self.topology.route.shard_of(name)?)
            .relation(name)
    }

    /// Is `name` a registered updatable view?
    pub fn is_view(&self, name: &str) -> bool {
        self.topology
            .route
            .shard_of(name)
            .is_some_and(|shard| self.image(shard).is_view(name))
    }

    /// Names of all registered views, in name order.
    pub fn view_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .images
            .iter()
            .flat_map(|shard| shard.view_names().map(str::to_owned))
            .collect();
        names.sort();
        names
    }

    /// Iterate every relation across all shards (shard-internal name
    /// order; not globally sorted).
    pub fn relations(&self) -> impl Iterator<Item = &RelationVersion> {
        self.images.iter().flat_map(|shard| shard.relations())
    }

    /// The snapshot's overall high-water commit seq (the max over its
    /// shards): every commit with seq ≤ the *per-shard* seq is visible
    /// on that shard.
    pub fn commit_seq(&self) -> u64 {
        self.shard_seqs().into_iter().max().unwrap_or(0)
    }

    /// Per-shard high-water commit seqs, one per live shard, in
    /// lock-id order.
    pub fn shard_seqs(&self) -> Vec<u64> {
        self.images.iter().map(|shard| shard.commit_seq()).collect()
    }
}
