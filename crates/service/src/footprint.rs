//! Footprint sharding: partition an engine into independently lockable
//! components and route relation names to their shard.
//!
//! At registration time the engine computes each view's **dependency
//! footprint** — the base relations its strategy, derived get and
//! incremental program read, the delta targets it writes, closed over
//! cascades into sub-views ([`birds_engine::ViewFootprint`]). Two
//! commits conflict exactly when their footprint closures intersect, so
//! the service partitions the engine along footprint-connected
//! components ([`birds_engine::Engine::split_components`]): views whose
//! closures intersect share a shard (and a lock); views with disjoint
//! footprints land in different shards and commit in parallel. A free
//! base relation no view depends on becomes a singleton shard, so
//! direct reads of it never contend with view traffic.
//!
//! The [`ShardMap`] is the routing half: an immutable relation-name →
//! [`LockId`] table, consulted without any lock. Immutable does not
//! mean frozen: a live re-shard builds a *successor* map
//! (`ShardMap::successor`) with the affected names re-routed, as part
//! of the successor generation it stores (`crate::topology`) — every
//! request loads the current generation once and routes against it.
//! The first generation is the successor of an empty one: its shards
//! are the engine's components, routed the same way.

use crate::error::{ServiceError, ServiceResult};
use crate::snapshot::ShardSnapshot;
use crate::topology::LockId;
use birds_engine::EngineError;
use std::collections::HashMap;

/// Immutable relation-name → shard routing table.
#[derive(Default)]
pub(crate) struct ShardMap {
    route: HashMap<String, LockId>,
}

impl ShardMap {
    /// The shard that owns `relation` (a base table or view name).
    pub(crate) fn shard_of(&self, relation: &str) -> Option<LockId> {
        self.route.get(relation).copied()
    }

    /// The lock set of a commit touching `views`: the owning shard of
    /// each name (sorted and deduplicated by `Topology::write_set`).
    /// Unknown names are a typed error — the engine would reject them as
    /// `NotAView` anyway, so the commit fails before taking any lock.
    pub(crate) fn lock_set<'a>(
        &self,
        names: impl IntoIterator<Item = &'a str>,
    ) -> ServiceResult<Vec<LockId>> {
        names
            .into_iter()
            .map(|name| {
                self.shard_of(name)
                    .ok_or_else(|| ServiceError::Engine(EngineError::NotAView(name.to_owned())))
            })
            .collect()
    }

    /// Build the successor map of a live re-shard: every name currently
    /// routed to one of the `retired` shards is dropped, then each
    /// replacement shard's relations, named by its first image, are
    /// routed to its new id. Names on surviving shards keep their
    /// routes.
    pub(crate) fn successor<'a>(
        &self,
        retired: &[LockId],
        replacements: impl IntoIterator<Item = (LockId, &'a ShardSnapshot)>,
    ) -> ShardMap {
        let mut route: HashMap<String, LockId> = self
            .route
            .iter()
            .filter(|(_, id)| !retired.contains(id))
            .map(|(name, id)| (name.clone(), *id))
            .collect();
        for (id, image) in replacements {
            for relation in image.relations() {
                route.insert(relation.name().to_owned(), id);
            }
        }
        ShardMap { route }
    }
}
