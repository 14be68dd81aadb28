//! The sharded state of a running service, one generation at a time.
//!
//! A **shard** is one footprint component ([`crate::footprint`]) held
//! as one value: its engine slot behind a reader-writer lock, its
//! group-commit queue ([`crate::group_commit`]) and its WAL segment
//! writer. A `Topology` is the vector of shards, indexed by
//! [`LockId`], plus the routing table that maps relation names to them.
//! Every write loads the current topology once; a live re-shard builds
//! a successor (`Topology::successor`) and swaps the `Arc`.
//!
//! ## Lock order
//!
//! A commit write-locks the shards of its footprint through
//! `Topology::write_set`: sorted, deduplicated, strictly ascending.
//! Every multi-shard acquisition in the process follows that one order
//! and never requests a shard lock while holding a higher one, so the
//! wait-for graph has no cycle, whatever footprints overlap (the
//! `locks_stress` integration test hammers this). A queue mutex or a
//! WAL writer mutex is only ever taken innermost, and after the shard
//! locks come the published snapshot's write lock and then the
//! topology pointer's — never the reverse.
//!
//! ## Generations
//!
//! `LockId` *i* names the same `Arc<Shard>` in every generation that
//! keeps it. A re-shard replaces only the shards it retired, each under
//! a **fresh** `Arc`, so a stale submitter that locks the old one finds
//! its slot `None` and can never reach the new engine; it takes its
//! transaction back out of the old queue and resubmits against the
//! current topology. Every other index keeps its `Arc`: survivors, and
//! retired indices that got no replacement (their slot stays `None` and
//! nothing routes to them). A replacement takes over the WAL writer at
//! its index, so each index's segment series continues through
//! re-shards; only indices past the old end open a writer.
//!
//! ## Poisoning
//!
//! A panicking holder poisons a shard's lock; the lock is *recovered*
//! (`PoisonError::into_inner`) instead of failing unrelated sessions.
//! That is sound because the engine rolls every failed mutation back,
//! so a slot is structurally intact whatever its last holder did. The
//! queue, whose invariants a panic can break, surfaces
//! [`ServiceError::Poisoned`] instead.

use crate::error::{ServiceError, ServiceResult};
use crate::footprint::ShardMap;
use crate::group_commit::PendingTx;
use crate::snapshot::ShardSnapshot;
use birds_engine::Engine;
use birds_wal::SegmentWriter;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard};

/// Identifier of one shard. Ids are dense indices; their `Ord` is the
/// global lock acquisition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(usize);

impl LockId {
    /// Crate-internal constructor: only sharding code that builds the
    /// shard vector and the route table from the same component list
    /// may mint ids (see [`crate::footprint::partition`]).
    pub(crate) fn new(index: usize) -> LockId {
        LockId(index)
    }

    /// The shard index behind this id.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The write-locked shards an epoch runs under, in ascending [`LockId`]
/// order.
pub(crate) type ShardGuards<'a> = Vec<(LockId, RwLockWriteGuard<'a, Option<Engine>>)>;

/// One footprint shard. `engine` is `None` once a re-shard retired it.
pub(crate) struct Shard {
    engine: RwLock<Option<Engine>>,
    /// Autocommit transactions waiting for an epoch leader.
    queue: Mutex<VecDeque<Arc<PendingTx>>>,
    /// `None` on an in-memory service.
    pub(crate) writer: Option<Arc<Mutex<SegmentWriter>>>,
}

impl Shard {
    pub(crate) fn new(engine: Engine, writer: Option<Arc<Mutex<SegmentWriter>>>) -> Arc<Shard> {
        Arc::new(Shard {
            engine: RwLock::new(Some(engine)),
            queue: Mutex::default(),
            writer,
        })
    }

    /// The shard's write lock (poison-recovering, see the module docs).
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Option<Engine>> {
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn queue(&self) -> ServiceResult<MutexGuard<'_, VecDeque<Arc<PendingTx>>>> {
        self.queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))
    }

    /// Queue an autocommit transaction for the next epoch.
    pub(crate) fn enqueue(&self, tx: Arc<PendingTx>) -> ServiceResult<()> {
        self.queue()?.push_back(tx);
        Ok(())
    }

    /// Everything queued right now: the epoch of whichever leader holds
    /// the shard's write lock.
    pub(crate) fn drain(&self) -> ServiceResult<Vec<Arc<PendingTx>>> {
        Ok(self.queue()?.drain(..).collect())
    }

    /// Take `tx` back out of the queue. `false` when a leader already
    /// drained it — that leader filled its result before it released
    /// the shard lock.
    pub(crate) fn retract(&self, tx: &Arc<PendingTx>) -> ServiceResult<bool> {
        let mut queue = self.queue()?;
        let position = queue.iter().position(|queued| Arc::ptr_eq(queued, tx));
        Ok(position.and_then(|at| queue.remove(at)).is_some())
    }
}

/// One generation of the sharded state (see the module docs).
pub(crate) struct Topology {
    /// Indexed by [`LockId`].
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Relation name → owning shard (shared with the published
    /// snapshot of the same generation).
    pub(crate) route: Arc<ShardMap>,
}

impl Topology {
    /// Write-lock a set of shards: sorted, deduplicated, then acquired
    /// strictly ascending — the global order that makes overlapping
    /// footprints deadlock-free.
    pub(crate) fn write_set(&self, mut ids: Vec<LockId>) -> ShardGuards<'_> {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| (id, self.shards[id.0].write()))
            .collect()
    }

    /// Among the held `guards`, the slot of the shard owning `relation`.
    pub(crate) fn held_slot<'s>(
        &self,
        guards: &'s mut ShardGuards<'_>,
        relation: &str,
    ) -> &'s mut Option<Engine> {
        let shard = self.route.shard_of(relation);
        guards
            .iter_mut()
            .find_map(|(id, slot)| (Some(*id) == shard).then_some(&mut **slot))
            .expect("the held lock set covers the relation's shard")
    }

    /// The successor generation of a re-shard that retired `retired`
    /// (ascending; their slots already emptied) and split their merged
    /// engine into `components`. Component *k* takes the *k*-th retired
    /// index, then indices past the old end, one per `fresh_writers`
    /// entry on a durable service. Returns the successor and the images
    /// to publish with it, tagged `seq`: one per replacement, and an
    /// empty one per retired index left without a replacement.
    pub(crate) fn successor(
        &self,
        retired: &[LockId],
        components: Vec<Engine>,
        fresh_writers: Vec<Arc<Mutex<SegmentWriter>>>,
        seq: u64,
    ) -> (Topology, Vec<(LockId, Arc<ShardSnapshot>)>) {
        let ids: Vec<LockId> = retired
            .iter()
            .copied()
            .chain((self.shards.len()..).map(LockId))
            .take(components.len())
            .collect();
        let route = Arc::new(
            self.route
                .successor(retired, components.iter().zip(ids.iter().copied())),
        );
        let mut shards = self.shards.clone();
        let mut fresh_writers = fresh_writers.into_iter();
        let mut images = Vec::new();
        for (id, mut component) in ids.into_iter().zip(components) {
            images.push((id, Arc::new(ShardSnapshot::capture(&mut component, seq))));
            match shards.get_mut(id.0) {
                Some(shard) => *shard = Shard::new(component, shard.writer.clone()),
                None => shards.push(Shard::new(component, fresh_writers.next())),
            }
        }
        let empty = Arc::new(ShardSnapshot::empty(seq));
        let unreplaced = retired.iter().skip(images.len());
        images.extend(unreplaced.map(|id| (*id, Arc::clone(&empty))));
        (Topology { shards, route }, images)
    }

    /// Transactions queued right now in the shard owning `relation`.
    #[cfg(test)]
    pub(crate) fn queue_len(&self, relation: &str) -> usize {
        let shard = self.route.shard_of(relation).expect("a routed relation");
        self.shards[shard.0].queue().map_or(0, |queue| queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::partition;
    use birds_store::{tuple, Database, Relation};

    /// Four free relations: four shards.
    fn topology() -> Topology {
        let mut db = Database::new();
        for name in ["a", "b", "c", "d"] {
            db.add_relation(Relation::with_tuples(name, 1, vec![tuple![7]]).unwrap())
                .unwrap();
        }
        let (components, route) = partition(Engine::new(db));
        let shards = components
            .into_iter()
            .map(|component| Shard::new(component, None))
            .collect();
        Topology {
            shards,
            route: Arc::new(route),
        }
    }

    #[test]
    fn write_set_sorts_and_dedups() {
        let topo = topology();
        let guards = topo.write_set(vec![LockId(3), LockId(1), LockId(3)]);
        let order: Vec<usize> = guards.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(order, vec![1, 3]);
    }

    #[test]
    fn poisoned_shard_locks_are_recovered() {
        let topo = Arc::new(topology());
        let holder = Arc::clone(&topo);
        // Poison the lock by panicking while holding it.
        let _ = std::thread::spawn(move || {
            let _guard = holder.shards[0].write();
            panic!("poison");
        })
        .join();
        assert!(topo.shards[0].engine.is_poisoned());
        let mut slot = topo.shards[0].write();
        assert!(
            slot.take().is_some(),
            "the engine survives its holder's panic"
        );
    }
}
