//! Host-speed benchmark of the String Figure workspace.
//!
//! Drives the workspace's public APIs from outside and times the calls into
//! each layer. Every number is host time (end-to-end times scaled to a
//! reference host speed by the `calib` module); simulated statistics are
//! correctness outputs checked by the `gate` module, never speed metrics. See
//! `README.md` beside this crate for the workloads and metrics.

#![forbid(unsafe_code)]

mod calib;
mod elastic;
mod gate;
mod sim;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given; `reference.txt` always holds it.
pub const DEFAULT_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1296-node String Figure, uniform-random traffic at high load.
    Uniform1296,
    /// 1296 nodes, request–reply application miss streams with DRAM.
    AppsRw1296,
    /// 1296 nodes, waves of gate/ungate plus routed-path samples.
    Elastic1296,
    /// The registered fig10 study at quick scale through the sweep harness.
    Fig10Sweep,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Uniform1296,
        Workload::AppsRw1296,
        Workload::Elastic1296,
        Workload::Fig10Sweep,
    ];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform1296 => "uniform_1296",
            Workload::AppsRw1296 => "apps_rw_1296",
            Workload::Elastic1296 => "elastic_1296",
            Workload::Fig10Sweep => "fig10_sweep",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input size. `Standard` is what `BENCHMARK.json` runs and what the
/// references were recorded at; `Tiny` exists for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `README.md` states.
    Standard,
    /// Small sizes that exercise every code path in well under a second
    /// (fig10 has no smaller registered scale than quick).
    Tiny,
}

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed; topology and traffic seeds derive from it.
    pub seed: u64,
    /// Host time to spend measuring.
    pub budget: Duration,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Scratch directory for artifacts the workload writes.
    pub scratch: PathBuf,
}

/// End-to-end metrics (`--trace 0`): name and unit. Times are in reference
/// seconds, host seconds scaled by the host speed the `calib` module
/// measures around each operation; memory is the median operation's peak.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_s", "s"),
    ("work_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A metric that does not
/// apply to a workload reads 0 there; `README.md` lists where each applies.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("routing.decisions", "count"),
    ("routing.fallbacks", "count"),
    ("routing.fallback_ratio", "ratio"),
    ("routing.decide_ns_mean", "ns"),
    ("routing.decide_s", "s"),
    ("routing.build_ms", "ms"),
    ("routing.resync_ms_p50", "ms"),
    ("routing.route_sample_ms", "ms"),
    ("simcore.blocked_ratio", "ratio"),
    ("simcore.run_s", "s"),
    ("simcore.self_s", "s"),
    ("simcore.cycle_us_p50", "us"),
    ("simcore.cycle_us_p99", "us"),
    ("simcore.cycles", "count"),
    ("simcore.delivered", "count"),
    ("simcore.hops", "count"),
    ("simcore.blocked_forwards", "count"),
    ("simcore.completed_requests", "count"),
    ("simcore.backlog_at_end", "count"),
    ("simcore.new_ms", "ms"),
    ("simcore.packets_per_s", "1/s"),
    ("workloads.inject_s", "s"),
    ("workloads.inject_calls", "count"),
    ("workloads.requests", "count"),
    ("workloads.write_share", "ratio"),
    ("workloads.llc_miss_rate", "ratio"),
    ("topology.generate_ms", "ms"),
    ("topology.gate_ms_p50", "ms"),
    ("topology.gates_rejected", "count"),
    ("topology.shortcuts_toggled", "count"),
    ("core.reconfig_ms_p50", "ms"),
    ("core.reconfig_ms_p90", "ms"),
    ("harness.jobs", "count"),
    ("harness.rows", "count"),
    ("harness.sink_bytes", "bytes"),
    ("harness.cache_hits", "count"),
    ("harness.cache_misses", "count"),
    ("harness.first_row_ms", "ms"),
    ("bench.timed_s", "s"),
    ("bench.unaccounted_s", "s"),
    ("bench.accounted_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_speed", "ratio"),
];

/// What one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: simulations, reconfigurations, or sweep rows.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable per-layer table (traced runs), printed to stderr.
    pub table: Vec<String>,
    /// The simulated result the reference gate compares, as `reference.txt`
    /// records it (`None` for fig10, whose reference is the golden CSV).
    pub result: Option<String>,
}

impl Report {
    /// Records a failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failures.push(why.into());
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a row to the per-layer table: `label`, seconds, and its share of
    /// `base` seconds.
    pub fn row(&mut self, label: &str, seconds: f64, base: f64) {
        let pct = if base > 0.0 {
            100.0 * seconds / base
        } else {
            0.0
        };
        self.table
            .push(format!("  {label:<34} {seconds:>12.6} s {pct:>7.2}%"));
    }

    /// Adds a free-form line to the per-layer table.
    pub fn note(&mut self, line: impl Into<String>) {
        self.table.push(line.into());
    }

    /// The metrics this run must print — the end-to-end set, or the
    /// per-layer set when traced — in catalogue order. A metric the run did
    /// not reach reads 0: per-layer metrics that do not apply to the
    /// workload, or anything after a set-up failure (which also makes the
    /// run incorrect).
    #[must_use]
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let catalogue: &[(&'static str, &'static str)] =
            if trace { &PER_LAYER } else { &END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and the
    /// metrics with their units.
    #[must_use]
    pub fn json(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(trace)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty() && self.attempted > 0,
            self.attempted,
            self.failures.len(),
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all its digits (`{:?}` prints the shortest
/// representation that round-trips); non-finite values become 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Runs one benchmark invocation.
#[must_use]
pub fn run(config: &RunConfig) -> Report {
    match config.workload {
        Workload::Uniform1296 | Workload::AppsRw1296 => sim::run(config),
        Workload::Elastic1296 => elastic::run(config),
        Workload::Fig10Sweep => sweep::run(config),
    }
}

/// Repeats `op` until `budget` has passed and at least `min_ops` ran;
/// returns the wall time of the whole loop.
pub fn repeat(budget: Duration, min_ops: usize, mut op: impl FnMut()) -> Duration {
    let start = Instant::now();
    let mut done = 0;
    while done < min_ops || start.elapsed() < budget {
        op();
        done += 1;
    }
    start.elapsed()
}

/// Times `f`, returning its result and elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Relative difference of `traced` over `plain`, in percent.
#[must_use]
pub fn overhead_pct(traced: f64, plain: f64) -> f64 {
    if plain > 0.0 {
        100.0 * (traced - plain) / plain
    } else {
        0.0
    }
}

/// The scratch directory a run writes its artifacts under.
#[must_use]
pub fn default_scratch() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn json_line_lists_every_metric_with_its_unit() {
        let mut report = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, 1.25);
        }
        let line = report.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"work_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}"));
        report.fail("boom");
        assert!(report.json(false).contains("\"correct\": false"));
        let traced = report.json(true);
        for (name, unit) in PER_LAYER {
            assert!(traced.contains(&format!(
                "\"{name}\": {{\"value\": 0.0, \"unit\": \"{unit}\"}}"
            )));
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
