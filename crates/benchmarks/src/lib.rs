//! # birds-benchmarks
//!
//! The paper's evaluation assets (§6.2):
//!
//! * [`corpus`] — the 32-view Table 1 benchmark corpus, re-authored
//!   row-faithfully (same operators, constraint classes and approximate
//!   program sizes).
//! * [`datagen`] — deterministic synthetic data generators for the base
//!   tables of the Figure 6 views.
//! * [`table1`] — the Table 1 experiment: validate every corpus strategy,
//!   record LVGN membership, validation time and compiled-SQL size.
//! * [`figure6`] — the Figure 6 experiment: view-update latency versus
//!   base-table size, original strategy versus incrementalized strategy,
//!   for the four selected views.
//! * [`range_guard`] — the putback latency of a comparison guard planned
//!   as an ordered-index range scan, as a function of its selectivity.
//! * [`emit`] — atomic JSON-file emission shared by the binaries.
//!
//! Binaries `table1` and `figure6` print the regenerated table and
//! figure; `bench_gate` is the CI perf-regression gate over Figure 6:
//!
//! ```text
//! cargo run --release -p birds-benchmarks --bin table1
//! cargo run --release -p birds-benchmarks --bin figure6 -- luxuryitems
//! cargo run --release -p birds-benchmarks --bin bench_gate -- --baseline BENCH_figure6.json
//! ```

pub mod corpus;
pub mod datagen;
pub mod emit;
pub mod figure6;
pub mod range_guard;
pub mod table1;

pub use corpus::{entries, entry, CorpusEntry, RelSpec, SourceKind};
pub use figure6::{Figure6Point, Figure6View};
pub use range_guard::RangeGuardPoint;
pub use table1::{run_table1, Table1Row};
