//! # birds-core
//!
//! The core of the BIRDS reproduction: everything §4 and §5 of the paper
//! describe.
//!
//! * [`strategy::UpdateStrategy`] — a user-written view update strategy: a
//!   source schema, a view, a Datalog putback program (`putdelta`, possibly
//!   with integrity constraints) and optionally the expected view
//!   definition.
//! * [`validate()`] — the three-pass validation of Algorithm 1:
//!   well-definedness (Definition 3.1 via the rules (2) of §4.2), existence
//!   of a view definition satisfying **GetPut** (the steady-state
//!   construction of Lemma 4.2, with automatic derivation of `get` from the
//!   formula `φ2`), and the **PutGet** property (§4.4). For LVGN-Datalog
//!   programs the procedure is sound and complete (Theorem 4.3) relative to
//!   the bounded solver's domain bound.
//! * [`incremental`] — the incrementalization of §5: the LVGN shortcut of
//!   Lemma 5.2 and the general binarize-then-rewrite pipeline of
//!   Appendix C (Figure 7), plus [`inline_simple_defs`], the one inliner
//!   the engine's constraint checks share with it.
//! * [`putget`] — construction of the `newsource` / `putget` programs used
//!   by the PutGet check (§4.4), shared with the engine's runtime.

pub mod error;
pub mod incremental;
pub mod linear_view;
pub mod putget;
pub mod strategy;
pub mod validate;

pub use error::CoreError;
pub use incremental::{
    incrementalize, incrementalize_general, incrementalize_lvgn, inline_simple_defs,
};
pub use linear_view::{LinearViewForm, ViewPolarity};
pub use putget::{build_newsource_rules, build_putget_program};
pub use strategy::UpdateStrategy;
pub use validate::{validate, ValidationReport, Validator};
