//! Learned winner prediction for the DySel runtime.
//!
//! The paper's selection cache is purely reactive: every new signature
//! pays a full micro-profiling cycle, and a cached winner is trusted
//! forever. This crate adds the *predictive* tier ROADMAP item 2 calls
//! for — a trained model that names the likely winner before any
//! profiling launch runs, so the runtime can either audit the model in
//! shadow (predict, still profile, count hits and misses) or skip
//! profiling outright when the model's confidence margin clears a
//! threshold.
//!
//! ## Determinism contract
//!
//! Everything in the hot path is integer-only:
//!
//! * features are the integer [`dysel_analysis::VariantFeatures`] plus
//!   log₂-bucketed magnitudes ([`feature_vector`]);
//! * the model is an **exact per-signature cost table** (mean observed
//!   profiling cycles per variant, from the `dysel_profile_cycles`
//!   histograms) with a **nearest-centroid fallback** over the feature
//!   vectors for signatures the table has never seen;
//! * training folds corpus records in `BTreeMap` order, so the same
//!   corpus always trains to byte-identical model files;
//! * serialization ([`save`]/[`load`]) mirrors the runtime's state-file
//!   format: versioned magic, explicit payload length, FNV-1a checksum,
//!   durable atomic writes (tmp, fsync, rename, directory fsync), and
//!   typed [`ModelError`]s — a corrupt model never panics, it just
//!   disables prediction.
//!
//! The centroid fallback always reports a **zero confidence margin**: it
//! generalizes (useful in shadow mode and for warm-starting), but it is
//! never allowed to skip micro-profiling on its own.
//!
//! ## Training inputs
//!
//! The offline trainer (`dysel-train` in `dysel-bench`) joins two
//! artifacts the harness already exports:
//!
//! * the `experiments --features-out` JSONL corpus (one record per suite
//!   variant, carrying the kernel signature and the static features);
//! * the `experiments --metrics-out` canonical metrics text, whose
//!   `dysel_profile_cycles/<signature>/<variant>` histograms carry the
//!   observed per-variant profiling cycles.
//!
//! The join key is the escaped histogram name — parsed with
//! [`dysel_obs::parse_profile_cycles_key`], never by splitting on `/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod format;
mod model;
mod train;

pub use format::{decode, encode, load, save, ModelError, MODEL_FORMAT_VERSION};
pub use model::{
    feature_vector, Candidate, Model, Prediction, PredictionSource, VariantStats, FEATURE_DIM,
};
pub use train::{parse_corpus, parse_metrics_text, train, CorpusRecord, TrainError};
