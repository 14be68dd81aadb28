//! Group commit: the per-shard queue that turns concurrent autocommit
//! transactions into one epoch of the commit pipeline.
//!
//! Clients that never call `begin`/`commit` would otherwise pay one
//! strategy evaluation per statement. Each shard has a `GroupCommitter`
//! queue; an autocommit transaction enqueues itself and the first
//! submitter to win the shard's write lock becomes the **epoch leader**:
//! it drains everything queued at that moment and hands it, as the
//! members of one epoch, to the commit pipeline (`crate::commit`) —
//! the same bracket a session batch and a registration go through.
//! Followers find their result slot filled when the leader releases the
//! lock. The epoch is simply the leader's lock tenure: uncontended
//! clients keep single-statement latency, and a contended shard batches
//! whatever queued while the previous epoch held its lock. Obladi
//! (arXiv:1809.10559) fixes its epochs' length in time instead; an
//! epoch bounded by lock tenure has no window to tune.
//!
//! This module owns only the queue and the member type; what an epoch
//! *means* (coalescing, seq assignment, WAL record granularity, the
//! no-ack-before-fsync rule) is defined once, in `crate::commit`.
//!
//! Panic safety: the queue and result slots are `Mutex`es; if a leader
//! panics mid-epoch, waiters see the poisoned mutex and surface
//! [`ServiceError::Poisoned`] instead of panicking their own connection
//! threads (see `locks.rs` for why the shard locks themselves recover
//! instead).

use crate::error::{ServiceError, ServiceResult};
use birds_engine::ExecutionStats;
use birds_sql::DmlStatement;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// What a completed transaction hands back to its submitter: its commit
/// seq and the stats of the pass that applied it (for a coalesced
/// member, the epoch's per-view totals).
pub(crate) type TxResult = ServiceResult<(u64, ExecutionStats)>;

/// One member of a commit epoch: its statements, grouped by target view
/// in application order, plus the slot its result is delivered through.
/// An autocommit transaction has exactly one group and waits in a
/// [`GroupCommitter`] for an epoch leader; a session batch has one group
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
    /// the routing key a live re-shard uses to move a queued transaction
    /// to its new shard's committer.
    pub(crate) fn view(&self) -> &str {
        &self.groups[0].0
    }

    /// Take the finished result, `Ok(None)` while still pending. A
    /// poisoned slot means the epoch leader panicked mid-fill; surface
    /// that as a typed error rather than propagating the panic.
    pub(crate) fn take_result(&self) -> ServiceResult<Option<TxResult>> {
        match self.result.lock() {
            Ok(mut slot) => Ok(slot.take()),
            Err(_) => Err(ServiceError::Poisoned(
                "group-commit result slot (epoch leader panicked)".into(),
            )),
        }
    }

    /// Deliver the result. `pub(crate)` so a live re-shard can fail a
    /// queued transaction whose view was just unregistered.
    pub(crate) fn fill(&self, result: TxResult) {
        if let Ok(mut slot) = self.result.lock() {
            *slot = Some(result);
        }
        // A poisoned slot belongs to a submitter that already panicked;
        // nothing is waiting for the result.
    }
}

/// Per-shard queue of pending autocommit transactions.
///
/// A committer belongs to one topology generation. When a live re-shard
/// retires its shard, the registrar **closes** the queue under the same
/// mutex it drains it with ([`GroupCommitter::close_and_drain`]) and
/// moves every queued transaction to the successor topology's
/// committers — so a transaction is only ever queued in a committer
/// whose shard is live, and an enqueue that raced the close is told so
/// ([`GroupCommitter::enqueue`] returns `false`) and retries against
/// the current topology.
#[derive(Default)]
pub(crate) struct GroupCommitter {
    queue: Mutex<CommitterQueue>,
}

#[derive(Default)]
struct CommitterQueue {
    pending: VecDeque<Arc<PendingTx>>,
    /// Set once, by the re-shard that retired this committer's shard.
    closed: bool,
}

impl GroupCommitter {
    /// Queue a transaction for the next epoch. Returns `false` (without
    /// queueing) when the committer was closed by a live re-shard — the
    /// submitter reloads the topology and enqueues there instead.
    pub(crate) fn enqueue(&self, tx: Arc<PendingTx>) -> ServiceResult<bool> {
        let mut queue = self
            .queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))?;
        if queue.closed {
            return Ok(false);
        }
        queue.pending.push_back(tx);
        Ok(true)
    }

    /// Drain everything queued right now (the epoch of whichever leader
    /// holds the shard lock). May be empty when an earlier leader
    /// already processed this submitter's transaction.
    pub(crate) fn drain(&self) -> ServiceResult<Vec<Arc<PendingTx>>> {
        let mut queue = self
            .queue
            .lock()
            .map_err(|_| ServiceError::Poisoned("group-commit queue".into()))?;
        Ok(queue.pending.drain(..).collect())
    }

    /// Transactions queued right now.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.queue.lock().map_or(0, |queue| queue.pending.len())
    }

    /// Close the committer and hand back whatever was queued — called
    /// exactly once, by the re-shard retiring this committer's shard,
    /// while that shard's write lock is held. Close and drain happen
    /// under one mutex acquisition, so no transaction can slip in
    /// between them; poisoning is recovered (the queue is structurally
    /// sound either way) because the re-shard must complete.
    pub(crate) fn close_and_drain(&self) -> Vec<Arc<PendingTx>> {
        let mut queue = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        queue.closed = true;
        queue.pending.drain(..).collect()
    }
}
