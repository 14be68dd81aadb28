//! # birds-service
//!
//! The concurrent, batched-update service layer over
//! [`birds_engine::Engine`] — the step from "a library you call" to "a
//! process you talk to".
//!
//! The engine itself is single-writer: one strategy evaluation mutates
//! the database at a time. This crate adds the machinery a production
//! deployment needs around that core:
//!
//! * `footprint` / `topology` *(internal)* — **footprint-sharded
//!   concurrency control**. The engine is split along view dependency
//!   footprints into shards, each one value: its never-reused
//!   [`LockId`], its engine component behind a reader-writer lock, its
//!   group-commit queue and its WAL segment series. A commit
//!   write-locks only the shards its target views live in, always in
//!   ascending id order (deadlock-free by construction), so commits on
//!   disjoint views run in parallel. A global commit sequence still
//!   numbers every transaction: the concurrent history remains
//!   equivalent to its serial replay in commit order.
//! * `commit` *(internal)* — **the one commit pipeline**. Autocommit
//!   epochs, session batches and view registrations all go through a
//!   single derive → apply → log → sync → publish → acknowledge bracket
//!   with one post-commit hook; the epoch is the unit of ordering,
//!   durability and visibility, and a batch is an epoch with one member.
//! * [`group_commit`] — autocommit transactions queue per shard and the
//!   first submitter to win the shard lock leads the whole queue through
//!   the pipeline as one epoch (one *net* delta per view, one WAL
//!   record, one sync), giving batch-level throughput to clients that
//!   never call `begin`/`commit` (Obladi-style epochs, each as long as
//!   its leader's lock tenure). A connection's pipelined autocommits
//!   queue together, so they share an epoch per shard.
//! * [`snapshot`] — **MVCC snapshot reads**. The service publishes one
//!   [`ServiceSnapshot`] behind one copy-on-write pointer, and it is the
//!   whole generation: the live shards, their routing table and an
//!   immutable, `Arc`-shared image per shard (copy-on-write at the
//!   tuple-set level, so only touched relations are rebuilt), each
//!   tagged with its shard's high-water commit seq. A commit stores all
//!   of its shards' new images in one publication, and a live re-shard
//!   stores its successor generation the same way. All reads —
//!   [`Service::query`], [`Service::snapshot`], stats — load that
//!   pointer and run lock-free: readers never wait for writers, writers
//!   never wait for readers, and a pinned [`ServiceSnapshot`] stays
//!   commit-seq-consistent for as long as the reader holds it. Checkpoints serialize the published
//!   images instead of stop-the-world locking every shard.
//! * [`Service`] — a cheap-to-clone, thread-safe handle over the shard
//!   set; [`Service::snapshot`] pins a consistent all-shard image,
//!   [`Service::query`] reads one relation, both without locks.
//! * [`Session`] — per-client state with two modes. In **autocommit**
//!   every executed script is its own transaction (queued in its
//!   shard's group-commit queue). After `begin`, a **batch** buffers
//!   statements locally until `commit` coalesces them — per view — into
//!   one *net* delta (Algorithm 2 over the whole buffer) and applies
//!   each in a **single** incremental pass.
//! * [`Service::open`] — the **durable** construction: recover a data
//!   directory (latest snapshot + WAL replay in global commit-seq
//!   order, torn tails discarded by CRC), then write every committed
//!   epoch's net per-view deltas ahead — appended to the owning shard's
//!   `birds_wal` segment under the shard lock, synced per
//!   [`DurabilityConfig`]'s fsync policy *before* the commit is
//!   acknowledged — with size-based segment rotation and
//!   snapshot-then-truncate checkpointing ([`Service::checkpoint`],
//!   automatic every `checkpoint_every` commits). Group-commit epochs
//!   double as WAL batch boundaries (Obladi, arXiv:1809.10559).
//! * **Dynamic registration** ([`Service::register_view`] /
//!   [`Service::unregister_view`], PR 10) — views are registered and
//!   deregistered on the **live** service: the strategy is validated
//!   (Algorithm 1), only the shards its footprint touches quiesce while
//!   the topology re-shards (commits elsewhere proceed; the retired
//!   shards leave, and the next checkpoint deletes their WAL series),
//!   the registration is WAL-logged in commit order and snapshotted
//!   into the checkpoint manifest, so runtime-registered views survive
//!   crash recovery. Exposed over the wire as the `register` /
//!   `unregister` / `validate` protocol ops.
//! * [`protocol`] / [`Server`] — a line-delimited JSON protocol over TCP
//!   (the `birds-serve` binary) with per-request `id` echo for
//!   pipelining and a hard request-size cap (oversized lines are
//!   drained, answered with a salvaged id when possible, and the
//!   connection stays usable), plus an in-process [`LocalClient`]
//!   speaking the identical protocol.
//! * `reactor` / `conn` / `sys` *(internal)* — the serving
//!   engine behind [`Server`]: a single epoll event-loop thread owning
//!   every nonblocking socket (raw `epoll`/`eventfd` via a minimal FFI
//!   shim — no `libc` dependency) plus a fixed worker pool executing
//!   decoded requests **out of order across shards within one
//!   connection** (same-session ops stay FIFO; see the ordering
//!   contract in [`protocol`]). Connection count is decoupled from
//!   thread count, outboxes are flushed on write readiness with
//!   bounded-queue backpressure, `--max-conns` is enforced live at
//!   accept time, and SIGTERM/[`Server::shutdown`] drain gracefully.
//! * [`json`] — the minimal JSON tree the protocol and the committed
//!   `BENCH_*.json` trajectory documents share (the workspace has no
//!   serialization crate).
//!
//! Lock poisoning: shard locks are recovered (`into_inner`) because
//! deriving an engine commit writes no tuple and `DeltaSet::apply_to`
//! validates before it writes; queue/result mutexes that a panic *can*
//! leave inconsistent surface [`ServiceError::Poisoned`] instead of
//! panicking the worker thread serving the request.

mod commit;
mod conn;
pub mod error;
mod footprint;
pub mod group_commit;
pub mod json;
pub mod protocol;
mod reactor;
pub mod server;
pub mod service;
pub mod snapshot;
mod sys;
mod topology;

pub use error::{ServiceError, ServiceResult};
pub use json::Json;
pub use protocol::{dispatch, Envelope, Request, StrategySpec};
pub use server::{LocalClient, Server, ServerConfig};
pub use service::{
    CommitOutcome, DurabilityConfig, ExecOutcome, RelationStats, Service, ServiceConfig, Session,
};
pub use snapshot::{ServiceSnapshot, ShardSnapshot};
pub use topology::LockId;
