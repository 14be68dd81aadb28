//! The sharded state of a running service, one generation at a time.
//!
//! A **shard** is one footprint component ([`crate::footprint`]) held
//! as one value: its immutable [`LockId`], its engine slot behind a
//! reader-writer lock, its group-commit queue ([`crate::group_commit`])
//! and its WAL segment writer. A `Topology` is the vector of **live**
//! shards, ascending by id, plus the routing table that maps relation
//! names to them. It is one half of a generation: the published
//! [`crate::snapshot::ServiceSnapshot`] pairs it with each shard's
//! latest image, and the service holds that one value behind one
//! pointer. Writers take the `Topology` out of it and never hold the
//! images, so a writer blocked on a shard lock pins no published
//! buffer; a live re-shard builds a successor (`Topology::successor`)
//! and stores it, with its images, in one store.
//!
//! ## Lock order
//!
//! A commit write-locks the shards of its footprint through
//! `Topology::write_set`: sorted, deduplicated, strictly ascending by
//! id. Ids are minted from a counter each generation carries forward
//! (`next_id`) and are never reused within a process, so an id names
//! one shard in every generation that has it, and every thread —
//! whichever generation it loaded — requests ids in strictly ascending
//! order while holding lower ones only: the wait-for graph has no cycle,
//! whatever footprints overlap (the `locks_stress` integration test
//! hammers this). A queue mutex or a WAL writer mutex is only ever
//! taken innermost, and after the shard locks comes the generation
//! pointer's write lock — never the reverse.
//!
//! ## Generations
//!
//! A re-shard removes the shards it retired and adds each replacement
//! component as a new shard under a new id; every survivor keeps its
//! `Arc`. A stale submitter that loaded the old generation still holds
//! a retired `Arc`: it locks it, finds its slot `None`, takes its
//! transaction back out of the old queue and resubmits against the
//! current generation. A commit holds its shards' locks while it
//! publishes, so no re-shard can retire them in between: it finds them
//! in the current generation by id.
//!
//! Each shard's WAL segment series is named by its id. A new shard
//! starts a series of its own; a retired shard's series takes no
//! further record, and the next checkpoint deletes it.
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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockWriteGuard, TryLockError};

/// Identifier of one shard, never reused within a process: new shards
/// take theirs from `Topology::fresh_ids`. Its `Ord` is the global lock
/// acquisition order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockId(usize);

impl LockId {
    /// The number behind this id; it also names the shard's WAL
    /// segment series.
    pub fn index(self) -> usize {
        self.0
    }
}

/// The write-locked shards an epoch runs under, in ascending [`LockId`]
/// order.
pub(crate) type ShardGuards<'a> = Vec<(LockId, RwLockWriteGuard<'a, Option<Engine>>)>;

/// One footprint shard. `engine` is `None` once a re-shard retired it.
pub(crate) struct Shard {
    pub(crate) id: LockId,
    engine: RwLock<Option<Engine>>,
    /// Autocommit transactions waiting for an epoch leader.
    queue: Mutex<VecDeque<Arc<PendingTx>>>,
    /// `None` on an in-memory service.
    pub(crate) writer: Option<Mutex<SegmentWriter>>,
}

impl Shard {
    /// A new shard `id` over `engine`, with its first image, tagged
    /// `seq`.
    pub(crate) fn new(
        id: LockId,
        mut engine: Engine,
        writer: Option<SegmentWriter>,
        seq: u64,
    ) -> (Arc<Shard>, Arc<ShardSnapshot>) {
        let image = Arc::new(ShardSnapshot::capture(&mut engine, seq));
        let shard = Arc::new(Shard {
            id,
            engine: RwLock::new(Some(engine)),
            queue: Mutex::default(),
            writer: writer.map(Mutex::new),
        });
        (shard, image)
    }

    /// The shard's write lock (poison-recovering, see the module docs).
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Option<Engine>> {
        self.engine.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard's write lock if no one holds it now (poison-recovering
    /// like [`Shard::write`]).
    pub(crate) fn try_write(&self) -> Option<RwLockWriteGuard<'_, Option<Engine>>> {
        match self.engine.try_write() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
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

/// The live shards of one generation (see the module docs). The
/// default is the empty generation the first one succeeds.
#[derive(Default)]
pub(crate) struct Topology {
    /// Live shards only, ascending by id.
    pub(crate) shards: Vec<Arc<Shard>>,
    /// Relation name → owning shard.
    pub(crate) route: ShardMap,
    /// The id the next new shard gets.
    next_id: usize,
}

impl Topology {
    /// Where shard `id` sits in `shards`, if it is live.
    pub(crate) fn position(&self, id: LockId) -> Option<usize> {
        self.shards.binary_search_by_key(&id, |shard| shard.id).ok()
    }

    /// The live shard `id`.
    pub(crate) fn shard(&self, id: LockId) -> &Arc<Shard> {
        &self.shards[self.position(id).expect("a live shard id")]
    }

    /// The ids a re-shard of this generation gives its new shards, in
    /// order.
    pub(crate) fn fresh_ids(&self) -> impl Iterator<Item = LockId> {
        (self.next_id..).map(LockId)
    }

    /// Write-lock a set of shards: sorted, deduplicated, then acquired
    /// strictly ascending — the global order that makes overlapping
    /// footprints deadlock-free.
    pub(crate) fn write_set(&self, mut ids: Vec<LockId>) -> ShardGuards<'_> {
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|id| (id, self.shard(id).write()))
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

    /// The successor generation of a re-shard, and its images: the
    /// `retired` shards (their slots already emptied) leave with their
    /// entries of `images` (this generation's, in shard order); the
    /// `fresh` shards — ids from [`Topology::fresh_ids`], each with its
    /// first image — join, their relations routed to them.
    pub(crate) fn successor(
        &self,
        images: &[Arc<ShardSnapshot>],
        retired: &[LockId],
        fresh: &[(Arc<Shard>, Arc<ShardSnapshot>)],
    ) -> (Topology, Vec<Arc<ShardSnapshot>>) {
        let mut ids = self.fresh_ids();
        debug_assert!(fresh.iter().all(|(shard, _)| Some(shard.id) == ids.next()));
        let route = self.route.successor(
            retired,
            fresh.iter().map(|(shard, image)| (shard.id, &**image)),
        );
        let survivors = self.shards.iter().zip(images);
        let (shards, images) = survivors
            .filter(|(shard, _)| !retired.contains(&shard.id))
            .chain(fresh.iter().map(|(shard, image)| (shard, image)))
            .map(|(shard, image)| (Arc::clone(shard), Arc::clone(image)))
            .unzip();
        let next_id = self.next_id + fresh.len();
        (
            Topology {
                shards,
                route,
                next_id,
            },
            images,
        )
    }

    /// Transactions queued right now in the shard owning `relation`.
    pub(crate) fn queue_len(&self, relation: &str) -> usize {
        let shard = self.route.shard_of(relation).expect("a routed relation");
        self.shard(shard).queue().map_or(0, |queue| queue.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use birds_store::{tuple, Database, Relation};

    /// An engine of free unary relations, one per name.
    fn engine(names: &[&str]) -> Engine {
        let mut db = Database::new();
        for name in names {
            db.add_relation(Relation::with_tuples(*name, 1, vec![tuple![7]]).unwrap())
                .unwrap();
        }
        Engine::new(db)
    }

    /// Four free relations: four shards, succeeding the empty
    /// generation, and their images.
    fn generation() -> (Topology, Vec<Arc<ShardSnapshot>>) {
        let empty = Topology::default();
        let components = engine(&["a", "b", "c", "d"]).split_components();
        let fresh: Vec<_> = empty
            .fresh_ids()
            .zip(components)
            .map(|(id, component)| Shard::new(id, component, None, 0))
            .collect();
        empty.successor(&[], &[], &fresh)
    }

    fn topology() -> Topology {
        generation().0
    }

    #[test]
    fn write_set_sorts_and_dedups() {
        let topo = topology();
        let guards = topo.write_set(vec![LockId(3), LockId(1), LockId(3)]);
        let order: Vec<usize> = guards.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(order, vec![1, 3]);
    }

    /// Retiring two of four shards into three components leaves five
    /// live shards, ascending, under ids that are neither retired nor
    /// reused — and a second re-shard continues the count.
    #[test]
    fn a_successor_drops_what_it_retires_and_mints_fresh_ids() {
        let (topo, images) = generation();
        let retired = [LockId(1), LockId(2)];
        for id in retired {
            topo.shard(id).write().take();
        }
        let fresh: Vec<_> = topo
            .fresh_ids()
            .zip([&["b"][..], &["c"], &["e"]])
            .map(|(id, names)| Shard::new(id, engine(names), None, 1))
            .collect();
        let (successor, images) = topo.successor(&images, &retired, &fresh);
        let ids: Vec<usize> = successor.shards.iter().map(|shard| shard.id.0).collect();
        assert_eq!(ids, vec![0, 3, 4, 5, 6]);
        let seqs: Vec<u64> = images.iter().map(|image| image.commit_seq()).collect();
        assert_eq!(seqs, vec![0, 0, 1, 1, 1], "survivors keep their images");
        for (name, id) in [("a", 0), ("d", 3), ("b", 4), ("c", 5), ("e", 6)] {
            assert_eq!(successor.route.shard_of(name), Some(LockId(id)), "{name}");
        }
        assert!(successor.shards.iter().all(|shard| shard.write().is_some()));
        assert_eq!(successor.position(LockId(1)), None);
        let next: Vec<usize> = successor.fresh_ids().take(2).map(LockId::index).collect();
        assert_eq!(next, vec![7, 8]);
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
