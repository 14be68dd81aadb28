//! Group commit: the per-shard queue that turns queued autocommit
//! transactions into one epoch of the commit pipeline.
//!
//! Clients that never call `begin`/`commit` would otherwise pay one
//! strategy evaluation and one WAL sync per statement. Each shard has a
//! queue (`crate::topology`); an autocommit transaction enqueues itself
//! and the first submitter to win the shard's write lock becomes the
//! **epoch leader**: it drains everything queued at that moment and
//! hands it, as the members of one epoch, to the commit pipeline
//! (`crate::commit`) — the same bracket a session batch and a
//! registration go through.
//! Followers find their result slot filled when the leader releases the
//! lock. The epoch is simply the leader's lock tenure: uncontended
//! clients keep single-statement latency, and a contended shard batches
//! whatever queued while the previous epoch held its lock. Obladi
//! (arXiv:1809.10559) fixes its epochs' length in time instead; an
//! epoch bounded by lock tenure has no window to tune.
//!
//! What queues together comes from two sources: concurrent submitters,
//! and one submitter's run. A reactor worker queues a connection's
//! waiting autocommits as one run (`Service::enqueue_autocommits`)
//! before any of the run's shards is led, so the run's transactions on
//! one shard are members of one epoch even with a single worker. A
//! session's autocommit is the one-element run.
//!
//! Each shard a run queued in is a `QueuedEpoch`, led by one blocking
//! acquisition of that shard's lock (`Service::lead_autocommits`); a
//! worker leads one and hands the others to the pool, so the shards of
//! a run are led independently. When a leader wins a shard's lock and
//! finds the slot retired by a live re-shard, it takes its
//! transactions back out of the queue and resubmits them against the
//! current topology; a transaction no longer queued was drained by a
//! leader before the retirement and already has its result. An epoch
//! dropped unled (a panic) takes its transactions back the same way.
//!
//! This module owns only the member type; what an epoch *means*
//! (coalescing, seq assignment, WAL record granularity, the
//! no-ack-before-fsync rule) is defined once, in `crate::commit`.
//!
//! Panic safety: the queue and result slots are `Mutex`es; if a leader
//! panics mid-epoch, waiters see the poisoned mutex and surface
//! [`ServiceError::Poisoned`] instead of panicking their own connection
//! threads (see `crate::topology` for why the shard locks themselves
//! recover instead).

use crate::error::{ServiceError, ServiceResult};
use birds_engine::ExecutionStats;
use birds_sql::DmlStatement;
use std::sync::{Arc, Mutex};

/// What a completed transaction hands back to its submitter: its commit
/// seq and the stats of the pass that applied it (for a coalesced
/// member, the epoch's per-view totals).
pub(crate) type TxResult = ServiceResult<(u64, ExecutionStats)>;

/// One member of a commit epoch: its statements, grouped by target view
/// in application order, plus the slot its result is delivered through.
/// An autocommit transaction has exactly one group and waits in its
/// shard's queue for an epoch leader; a session batch has one group
/// per view it touches and submits itself as a one-member epoch.
pub(crate) struct PendingTx {
    groups: Vec<(String, Vec<DmlStatement>)>,
    result: Mutex<Option<TxResult>>,
}

impl PendingTx {
    pub(crate) fn new(groups: Vec<(String, Vec<DmlStatement>)>) -> Arc<PendingTx> {
        debug_assert!(!groups.is_empty(), "a member targets at least one view");
        Arc::new(PendingTx {
            groups,
            result: Mutex::new(None),
        })
    }

    /// The `(view, statements)` groups, in application order.
    pub(crate) fn groups(&self) -> &[(String, Vec<DmlStatement>)] {
        &self.groups
    }

    /// The first (for an autocommit transaction: the only) target view —
    /// the routing key of an autocommit transaction.
    pub(crate) fn view(&self) -> &str {
        &self.groups[0].0
    }

    /// Take the result, once the epoch that ran this transaction has
    /// filled it. A poisoned or still-empty slot means that epoch's
    /// leader panicked mid-epoch; surface that as a typed error rather
    /// than propagating the panic.
    pub(crate) fn result(&self) -> TxResult {
        let filled = self.result.lock().ok().and_then(|mut slot| slot.take());
        filled.unwrap_or_else(|| {
            Err(ServiceError::Poisoned(
                "group-commit result slot (epoch leader panicked)".into(),
            ))
        })
    }

    /// Deliver the result.
    pub(crate) fn fill(&self, result: TxResult) {
        if let Ok(mut slot) = self.result.lock() {
            *slot = Some(result);
        }
        // A poisoned slot belongs to a submitter that already panicked;
        // nothing is waiting for the result.
    }
}
