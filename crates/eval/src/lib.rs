//! # birds-eval
//!
//! Stratified bottom-up evaluation of non-recursive Datalog with negation
//! and builtins over the `birds-store` relational store.
//!
//! This is the runtime half of our PostgreSQL substitute: the paper
//! compiles putback programs to SQL and lets PostgreSQL's planner execute
//! them; we evaluate the same programs directly with a greedy join planner
//! that probes the store's incrementally-maintained hash indexes. Rules
//! whose bodies start from small delta relations therefore touch `O(|Δ|)`
//! tuples, which is exactly the property that makes the paper's
//! incrementalized strategies flat in Figure 6.

pub mod context;
pub mod error;
pub mod evaluator;
pub mod plan;

pub use context::EvalContext;
pub use error::{EvalError, EvalResult};
pub use evaluator::{
    eval_rule_into, evaluate_program, evaluate_query, rule_has_witness, violated_constraints,
    EvalOutput,
};
pub use plan::{plan_rule, PlanCache, PlanStats, RulePlan};
