//! Deterministic observability layer for the String Figure reproduction.
//!
//! Everything here is strictly out-of-band from simulation results: enabling
//! or disabling any part of this crate must never change a single byte of an
//! emitted CSV/JSON artifact. The crate provides these pieces:
//!
//! - [`metrics`]: a hierarchical metrics registry (counters, gauges,
//!   fixed-bucket histograms). Metric *values that describe simulation
//!   behaviour* (packets delivered, journal appends, sink rows) are integer
//!   quantities whose merge operators are commutative and associative, so the
//!   merged totals are bit-identical regardless of worker or shard count.
//!   Names under the `time.` or `sched.` prefixes are explicitly
//!   *nondeterministic* (wall-clock durations, scheduling-dependent counts
//!   such as cache hits or journal compactions) and are excluded from
//!   determinism guarantees — see [`metrics::is_deterministic_name`].
//! - [`span`]: low-overhead span-based phase timing (`topology_build`,
//!   `kernel_cycle_phases`, `commit_replay`, `journal_io`, `sink_flush`,
//!   `pool_backpressure_wait`) with an optional JSON-lines trace emitter and
//!   an aggregate summary table. When timing is disabled (the default) an
//!   instrumentation site costs one relaxed atomic load.
//! - [`progress`]: a single stderr progress reporter — notes (the `# …`
//!   lines the pipeline always printed) plus an opt-in live heartbeat with
//!   jobs done/total, rows/s, ETA, and current RSS — behind `--quiet` /
//!   `SF_PROGRESS` control.
//! - [`json`]: the one JSON string escaper every JSON writer in the
//!   workspace uses.
//! - [`rss`]: an in-process `/proc/self/status` peak-RSS probe.
//! - [`telemetry`]: the in-simulator `sf-telemetry/v1` time-series stream —
//!   per-router queue occupancy, per-link utilisation, credit stalls, and
//!   energy, sampled at cycle boundaries on the coordinating thread so the
//!   recorded bytes are bit-identical for any worker x shard count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod rss;
pub mod span;
pub mod telemetry;
