//! Benchmark harness regenerating every table and figure of the DySel
//! paper's evaluation (§4-§5).
//!
//! Each experiment is a function returning a [`Figure`] — a set of rows of
//! labelled bars, almost always *relative execution time over the oracle*
//! (lower is better), exactly like the paper's plots. The `experiments`
//! binary renders them as text tables; `EXPERIMENTS.md` records the
//! committed outputs next to the paper's numbers.
//!
//! All inputs, devices and noise are seeded: every figure regenerates
//! bit-identically.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod features_export;
mod figure;
pub mod harness;
pub mod stress;

pub use features_export::write_features_jsonl;
pub use figure::{Bar, Figure, FigureRow};
pub use harness::{suite, CaseError, CaseResult, DyselTimes, Harness, RunSummary};
pub use stress::{run_service_stress, Backoff, StressOpts, StressOutcome};
