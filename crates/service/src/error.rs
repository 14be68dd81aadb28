//! Service-layer errors.
//!
//! ## Error taxonomy
//!
//! The service reports failures through exactly one enum,
//! [`ServiceError`], whose variants split along *who must act*:
//!
//! * **Caller mistakes** — fix the request and resend:
//!   [`ServiceError::Parse`] (bad SQL),
//!   [`ServiceError::Protocol`] (malformed wire request),
//!   [`ServiceError::RequestTooLarge`] (oversized line, dropped
//!   unbuffered), [`ServiceError::UnknownRelation`] (a read against a
//!   name no shard owns — carries the name),
//!   [`ServiceError::BatchAlreadyOpen`] / [`ServiceError::NoBatchOpen`]
//!   (session-mode misuse), [`ServiceError::ConnectionLimit`] (the
//!   server is at `--max-conns`; the connection is rejected at accept
//!   time — retry once capacity frees up).
//! * **Engine rejections** — the request was well-formed but the data
//!   said no: [`ServiceError::Engine`] wraps the typed
//!   [`EngineError`] (constraint violation, not-a-view, contradictory
//!   delta, …). Writes that target an unknown *view* surface as
//!   `Engine(NotAView)`, because updatability — not mere existence —
//!   is what the write path checks; reads use the service-level
//!   [`ServiceError::UnknownRelation`], since any relation (base table
//!   or view) is readable.
//! * **Registration rejections** — a live `register` / `unregister`
//!   was refused before touching the topology:
//!   [`ServiceError::ViewExists`] (the view name is already registered
//!   — idempotent retries can treat it as success),
//!   [`ServiceError::InvalidStrategy`] (the strategy failed shape
//!   checks or the solver's validation; carries the reason verbatim),
//!   and [`ServiceError::RelationConflict`] (the name collides with an
//!   existing base relation, a named source relation conflicts with a
//!   live relation's arity, or an unregister targets a view another
//!   view's footprint still depends on). All three leave every shard
//!   exactly as it was: pre-checks run before the quiesce barrier, and
//!   an engine-side failure re-splits the merged component unchanged.
//! * **Service faults** — the operator (or the service's own healing)
//!   must act: [`ServiceError::Poisoned`] (a request thread panicked
//!   holding an internal primitive; the data itself recovers) and
//!   [`ServiceError::Durability`] (recovery or a WAL append/sync
//!   failed; a commit reporting it was **never acknowledged durable**).
//!
//! Everything is `Clone + PartialEq`, so epoch leaders can fan one
//! failure out to every group-commit member and tests can assert on
//! exact errors:
//!
//! ```
//! use birds_service::ServiceError;
//!
//! let err = ServiceError::UnknownRelation("orders".into());
//! assert_eq!(err.to_string(), "unknown relation 'orders'");
//! assert_eq!(err, ServiceError::UnknownRelation("orders".into()));
//! ```

use birds_engine::EngineError;
use std::fmt;

/// Result alias for service operations.
pub type ServiceResult<T> = Result<T, ServiceError>;

/// Errors raised by the service layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// SQL parsing failed.
    Parse(String),
    /// The engine rejected the transaction (constraint violation,
    /// unknown view, contradictory delta, …).
    Engine(EngineError),
    /// `begin` while a batch is already open.
    BatchAlreadyOpen,
    /// `commit` / `rollback` without an open batch.
    NoBatchOpen,
    /// A read (`query`, `stats`) named a relation that exists in no
    /// shard. Carries the unknown name. Writes to unknown targets
    /// report [`EngineError::NotAView`] instead — see the module docs'
    /// taxonomy.
    UnknownRelation(String),
    /// A malformed protocol request (bad JSON, unknown op, missing
    /// field).
    Protocol(String),
    /// A request line exceeded the server's size cap; the line was
    /// discarded without being buffered in full.
    RequestTooLarge {
        /// The configured cap, in bytes.
        limit: usize,
    },
    /// The server is at its `--max-conns` live-connection limit: the
    /// new connection was answered with this error and closed at accept
    /// time (no session was created). Retry once existing connections
    /// close.
    ConnectionLimit {
        /// The configured live-connection cap.
        limit: usize,
    },
    /// An internal synchronization primitive was poisoned by a panicking
    /// request (e.g. a group-commit epoch leader). The failing request
    /// gets this typed error instead of propagating the panic to the
    /// worker serving it; shard data itself is recovered (see
    /// `topology.rs`).
    Poisoned(String),
    /// The durability subsystem failed: recovery could not read or
    /// replay the data directory, or a WAL append/sync failed at commit
    /// time. A commit that gets this error was **not acknowledged as
    /// durable** — it may or may not have applied in memory, exactly
    /// like a commit interrupted by a crash.
    Durability(String),
    /// A `register` named a view that is already registered. The live
    /// topology is unchanged; a client retrying a registration may
    /// treat this as success if the definition matches what it sent.
    ViewExists(String),
    /// A `register` carried a strategy that failed validation — shape
    /// checks (safety, non-recursion, delta-rule targets) or the
    /// solver's well-behavedness analysis. Nothing was registered.
    InvalidStrategy {
        /// The validator's reason, verbatim.
        reason: String,
    },
    /// A registration or deregistration conflicts with the live
    /// relation catalogue: the view name collides with an existing
    /// non-view relation, a declared source exists with a different
    /// arity, or the unregistered view is still in another view's
    /// footprint closure. Carries the conflicting relation name.
    RelationConflict(String),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Parse(m) => write!(f, "parse error: {m}"),
            ServiceError::Engine(e) => write!(f, "{e}"),
            ServiceError::BatchAlreadyOpen => {
                write!(f, "a batch is already open in this session")
            }
            ServiceError::NoBatchOpen => write!(f, "no batch is open in this session"),
            ServiceError::UnknownRelation(name) => {
                write!(f, "unknown relation '{name}'")
            }
            ServiceError::Protocol(m) => write!(f, "protocol error: {m}"),
            ServiceError::RequestTooLarge { limit } => {
                write!(f, "request exceeds the {limit}-byte line limit")
            }
            ServiceError::ConnectionLimit { limit } => {
                write!(f, "server at its {limit}-connection limit; retry later")
            }
            ServiceError::Poisoned(what) => {
                write!(f, "internal error: poisoned {what}")
            }
            ServiceError::Durability(m) => write!(f, "durability error: {m}"),
            ServiceError::ViewExists(name) => {
                write!(f, "view '{name}' is already registered")
            }
            ServiceError::InvalidStrategy { reason } => {
                write!(f, "invalid strategy: {reason}")
            }
            ServiceError::RelationConflict(name) => {
                write!(f, "relation conflict on '{name}'")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<EngineError> for ServiceError {
    fn from(e: EngineError) -> Self {
        ServiceError::Engine(e)
    }
}
