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
//! 2. deriving the commit without writing a tuple: the source delta `ΔS`
//!    of the putback program (original mode, reading `V′` as `V` through
//!    `ΔV`) or of the incremental program `∂put` (incremental mode, §5),
//!    and the strategy's integrity constraints checked against `(S, V′)`;
//! 3. applying `S ⊕ ΔS`, with `V ⊕ ΔV`, in one write.
//!
//! Views defined over other updatable views (the paper's
//! `residents1962`-over-`residents` case study) cascade: a source delta
//! that targets a registered view is translated into a view update on
//! that view and derived recursively into the same commit, which is
//! written only once every level has passed its constraints.

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
