//! Deterministic observability for the DySel runtime.
//!
//! DySel's value proposition is *measurement*: it micro-profiles a few
//! work-groups per variant and trusts those numbers. This crate makes the
//! measurement stream itself observable — every launch lifecycle stage
//! (enqueue, profile, validate, repair, preempt, retry, quarantine,
//! warm-skip, final batch) becomes a typed [`Event`] with stream, variant,
//! signature and virtual-cycle attribution, accompanied by a registry of
//! monotonic counters and fixed-bucket histograms (no floats anywhere near
//! the hot path).
//!
//! ## Determinism contract
//!
//! Events are ordered by the **canonical serial-replay timeline**, not
//! wall clock: the runtime and the device models emit them from their
//! serial pricing/orchestration passes, and the sink assigns sequence
//! numbers in emission order. Because that order is a function of the
//! seed alone (the launch engine prices every entry in issue order), a
//! trace is bit-identical on every run — which makes traces usable as
//! golden test fixtures.
//!
//! ## Exporters
//!
//! * [`chrome_trace`] renders the Chrome `trace_event` JSON format — load
//!   the file in `chrome://tracing` (or Perfetto) to see the virtual-time
//!   schedule. Spans map to `"ph":"X"` complete events, point events to
//!   `"ph":"i"` instants; `ts`/`dur` are virtual cycles, `tid` is the
//!   device stream.
//! * [`jsonl`] renders one JSON object per event, one per line — the
//!   grep-friendly form the golden-trace tests compare byte-for-byte.
//!
//! The crate is a dependency-free leaf: cycle values are raw `u64`s (the
//! `Cycles` newtype lives above this crate in the dependency graph).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod export;
mod metrics;

pub use event::{Event, EventSink, Stage};
pub use export::{chrome_trace, jsonl};
pub use metrics::{
    names, parse_profile_cycles_key, profile_cycles_key, Histogram, MetricsSnapshot,
};
