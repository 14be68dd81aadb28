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
//! mean frozen: live view registration builds a *successor* map
//! (`ShardMap::successor`) with the affected names re-routed and
//! atomically swaps the `Arc` holding it — every request loads the
//! current map once and routes against a consistent generation.

use crate::error::{ServiceError, ServiceResult};
use crate::topology::LockId;
use birds_engine::{Engine, EngineError};
use std::collections::HashMap;

/// Immutable relation-name → shard routing table.
pub struct ShardMap {
    route: HashMap<String, LockId>,
}

impl ShardMap {
    /// The shard that owns `relation` (a base table or view name).
    pub fn shard_of(&self, relation: &str) -> Option<LockId> {
        self.route.get(relation).copied()
    }

    /// The lock set of a commit touching `views`: the owning shard of
    /// each name (sorted and deduplicated by `Topology::write_set`).
    /// Unknown names are a typed error — the engine would reject them as
    /// `NotAView` anyway, so the commit fails before taking any lock.
    pub fn lock_set<'a>(
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

    /// Number of routed relation names.
    pub fn len(&self) -> usize {
        self.route.len()
    }

    /// `true` when nothing is routed.
    pub fn is_empty(&self) -> bool {
        self.route.is_empty()
    }

    /// All routed names and their shards (unordered).
    pub fn entries(&self) -> impl Iterator<Item = (&str, LockId)> {
        self.route.iter().map(|(name, id)| (name.as_str(), *id))
    }

    /// The distinct shard ids this map routes to, ascending.
    pub fn shard_ids(&self) -> Vec<LockId> {
        let mut ids: Vec<LockId> = self.route.values().copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Build the successor map of a live re-shard: every name currently
    /// routed to one of the `retired` shards is dropped, then each
    /// replacement component's names are routed to its new id. Names on
    /// surviving shards keep their routes (and their slot `Arc`s).
    pub(crate) fn successor<'a>(
        &self,
        retired: &[LockId],
        replacements: impl IntoIterator<Item = (&'a Engine, LockId)>,
    ) -> ShardMap {
        let mut route: HashMap<String, LockId> = self
            .route
            .iter()
            .filter(|(_, id)| !retired.contains(id))
            .map(|(name, id)| (name.clone(), *id))
            .collect();
        for (component, id) in replacements {
            for name in component.database().names() {
                route.insert(name.to_owned(), id);
            }
        }
        ShardMap { route }
    }
}

/// Split `engine` into its footprint components and build the shard
/// routing table: component `i` becomes lock slot `i`.
pub fn partition(engine: Engine) -> (Vec<Engine>, ShardMap) {
    let components = engine.split_components();
    let mut route = HashMap::new();
    for (index, component) in components.iter().enumerate() {
        for name in component.database().names() {
            route.insert(name.to_owned(), LockId::new(index));
        }
    }
    (components, ShardMap { route })
}
