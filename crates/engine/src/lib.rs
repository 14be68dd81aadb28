//! # birds-engine
//!
//! The updatable-view runtime: an in-process substitute for the
//! PostgreSQL + trigger deployment of §6.1.
//!
//! An [`Engine`] owns a [`birds_store::Database`] of base tables plus a
//! registry of updatable views. Each registered view carries its
//! materialized relation, its update strategy, and (optionally) the
//! incrementalized delta program. A view update request — one or more DML
//! statements, exactly as in the paper's trigger — is processed by:
//!
//! 1. deriving the view delta `ΔV` from the statements (Algorithm 2 /
//!    Appendix D, [`algorithm2`]);
//! 2. checking the strategy's integrity constraints against `(S, V′)`;
//! 3. computing the source delta `ΔS` by evaluating the putback program
//!    (original mode) or the incremental program `∂put` (incremental
//!    mode, §5) and applying it to the source relations.
//!
//! Views defined over other updatable views (the paper's
//! `residents1962`-over-`residents` case study) cascade: a source delta
//! that targets a registered view is translated into a view update on
//! that view and processed recursively.

pub mod algorithm2;
pub mod engine;
pub mod error;
pub mod snapshot;

pub use algorithm2::derive_view_delta;
pub use engine::{
    strategy_touches, Engine, ExecutionStats, StrategyMode, ViewDefinition, ViewFootprint,
};
pub use error::{EngineError, EngineResult};
pub use snapshot::{read_snapshot, write_snapshot};
