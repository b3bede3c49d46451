//! # uniq-telemetry
//!
//! Operational artifacts built on the `uniq-obs` event stream (metric
//! aggregation itself is `uniq_obs::Recorder`'s job):
//!
//! - [`trace`] — rebuilds the causal span tree from a recorded
//!   `trace.jsonl` file using the deterministic `(trace, span, parent)`
//!   ids, and reports the critical path and per-stage self time. Files
//!   written before ids existed reconstruct via the depth-stack fallback.
//! - [`ledger`] — the cross-run history: one JSON line per benchmark or
//!   pipeline run (git revision, seed, threads, quality numbers, output
//!   fingerprint, per-stage p50/p99), plus median/MAD trend and pairwise
//!   comparison gates with CI-friendly exit codes (0 ok, 1 latency
//!   warning, 2 quality regression).
//!
//! Everything here *observes*; nothing steers.

#![warn(missing_docs)]

pub mod ledger;
pub mod trace;
