//! `fig10_sweep`: the registered `fig10` study at quick scale through
//! `stringfigure::study::execute`, the path `sfbench run` takes, with a CSV
//! sink, the default resume journal and two sweep workers. Closed loop: one
//! study execution at a time. The seed is fixed because the golden is.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sf_harness::pool::PoolConfig;
use sf_obs::metrics::{MetricValue, MetricsSnapshot};
use stringfigure::study::{execute, study_fingerprint, RowTap, TopologyCache};
use stringfigure::{RunContext, StudyRegistry};

use crate::calib::{Brackets, REFERENCE_S};
use crate::stats::median;
use crate::{gate, overhead_pct, repeat, timed, Report, RunConfig};

/// Sweep workers, pinned rather than left to the auto policy.
pub const WORKERS: usize = 2;

/// Set-up repetitions before each study execution; `setup_s` is their
/// median over the run.
const SETUP_REPS: usize = 100;

/// Times [`SETUP_REPS`] set-ups of the study context `execute` starts from:
/// registry lookup, `RunContext` construction, the sweep grid and the
/// checkpoint fingerprint. One takes microseconds, hence the repetitions.
fn time_setups(csv: &Path, samples: &mut Vec<f64>) {
    for _ in 0..SETUP_REPS {
        let ((), s) = timed(|| {
            let registry = StudyRegistry::all();
            let study = registry.get("fig10").expect("fig10 is registered");
            let ctx = context(csv, None);
            std::hint::black_box((study.grid(&ctx).jobs(), study_fingerprint(study, &ctx)));
        });
        samples.push(s);
    }
}

fn counter(delta: &MetricsSnapshot, name: &str) -> u64 {
    match delta.get(name) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
        _ => 0,
    }
}

/// The context `sfbench run fig10 --quick --csv PATH` builds, with the
/// worker count and shard count pinned and a topology cache of its own so
/// every execution starts cold, as a fresh CLI process does.
fn context(csv: &Path, tap: Option<RowTap>) -> RunContext {
    let ctx = RunContext::new()
        .quick(true)
        .with_shards(1)
        .with_pool(PoolConfig::threads(WORKERS))
        .with_build_cache(Arc::new(TopologyCache::new()))
        .with_csv(csv)
        .with_checkpoint(format!("{}.journal", csv.display()));
    match tap {
        Some(tap) => ctx.with_row_tap(tap),
        None => ctx,
    }
}

/// One study execution's measurements.
struct Execution {
    wall_s: f64,
    delta: MetricsSnapshot,
    first_row_s: Option<f64>,
}

/// Executes the study once, checks its CSV against the golden, and removes
/// the artifact. Failed rows are recorded in `report`.
fn execute_once(csv: &Path, traced: bool, report: &mut Report) -> Option<Execution> {
    let registry = StudyRegistry::all();
    let study = registry.get("fig10").expect("fig10 is registered");
    let first_row: Arc<Mutex<Option<Instant>>> = Arc::default();
    let tap = traced.then(|| {
        let slot = Arc::clone(&first_row);
        RowTap::new(move |_| {
            let mut slot = slot.lock().expect("first-row slot poisoned");
            slot.get_or_insert_with(Instant::now);
        })
    });
    let ctx = context(csv, tap);
    let metrics = sf_obs::metrics::global();
    let before = metrics.snapshot();
    let started = Instant::now();
    let result = execute(study, &ctx);
    let wall_s = started.elapsed().as_secs_f64();
    let delta = metrics.snapshot().delta(&before);
    let golden_rows = gate::FIG10_GOLDEN.split(|&b| b == b'\n').count() as u64 - 2;
    report.attempted += golden_rows;
    let outcome = match result {
        Err(e) => {
            for _ in 0..golden_rows {
                report.fail(format!("fig10_sweep: study failed: {e}"));
            }
            None
        }
        Ok(_) => {
            let written = std::fs::read(csv).unwrap_or_default();
            if let Err(e) = gate::check_csv(&written, gate::FIG10_GOLDEN) {
                for _ in 0..gate::rows_differing(&written, gate::FIG10_GOLDEN).max(1) {
                    report.fail(format!("fig10_sweep: {e}"));
                }
            }
            let first_row_s = first_row
                .lock()
                .expect("first-row slot poisoned")
                .map(|t| (t - started).as_secs_f64());
            Some(Execution {
                wall_s,
                delta,
                first_row_s,
            })
        }
    };
    let _ = std::fs::remove_file(csv);
    outcome
}

/// Runs `fig10_sweep`.
#[must_use]
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    if let Err(e) = std::fs::create_dir_all(&config.scratch) {
        report.attempted = 1;
        report.fail(format!(
            "fig10_sweep: cannot create {}: {e}",
            config.scratch.display()
        ));
        return report;
    }
    let csv = config.scratch.join("fig10.csv");
    sf_obs::progress::Progress::global().configure(true);
    let budget = if config.trace {
        config.budget / 2
    } else {
        config.budget
    };
    // The calibration kernel runs before the first iteration and after
    // each; `factor` turns an iteration's host seconds into reference
    // seconds. The peak memory is read per iteration.
    let mut brackets = Brackets::start();
    let mut plain = Vec::new();
    let (mut ref_setup_s, mut ref_wall_s) = (Vec::new(), Vec::new());
    repeat(budget, 2, || {
        let mut setup_s = Vec::with_capacity(SETUP_REPS);
        time_setups(&csv, &mut setup_s);
        let execution = execute_once(&csv, false, &mut report);
        let factor = brackets.after_op();
        ref_setup_s.extend(setup_s.iter().map(|s| s * factor));
        if let Some(e) = execution {
            ref_wall_s.push(e.wall_s * factor);
            plain.push(e);
        }
    });
    if !config.trace {
        report.set("setup_s", median(&ref_setup_s));
        report.set("op_s", median(&ref_wall_s));
        let cycles: u64 = plain.iter().map(|e| counter(&e.delta, "sim.cycles")).sum();
        report.set("work_per_s", cycles as f64 / ref_wall_s.iter().sum::<f64>());
        report.set("peak_rss_mb", brackets.median_peak_mb());
        let _ = std::fs::remove_dir(&config.scratch);
        return report;
    }
    report.set("bench.host_speed", REFERENCE_S / brackets.median_calib_s());

    sf_obs::span::Tracer::global().reset();
    sf_obs::span::set_timing(true);
    let mut traced = Vec::new();
    let timed_s = repeat(config.budget / 2, 2, || {
        traced.extend(execute_once(&csv, true, &mut report));
    })
    .as_secs_f64();
    sf_obs::span::set_timing(false);
    let _ = std::fs::remove_dir(&config.scratch);
    let Some(last) = traced.last() else {
        return report;
    };
    layer_report(&mut report, &plain, &traced, last, timed_s);
    report
}

fn layer_report(
    report: &mut Report,
    plain: &[Execution],
    traced: &[Execution],
    last: &Execution,
    timed_s: f64,
) {
    let d = &last.delta;
    let hops = counter(d, "sim.total_hops");
    let blocked = counter(d, "sim.blocked_forwards");
    report.set("simcore.cycles", counter(d, "sim.cycles") as f64);
    report.set("simcore.delivered", counter(d, "sim.delivered") as f64);
    report.set("simcore.hops", hops as f64);
    report.set("simcore.blocked_forwards", blocked as f64);
    report.set(
        "simcore.completed_requests",
        counter(d, "sim.completed_requests") as f64,
    );
    report.set(
        "simcore.blocked_ratio",
        blocked as f64 / (hops + blocked).max(1) as f64,
    );
    report.set("harness.jobs", counter(d, "pool.jobs_completed") as f64);
    report.set("harness.rows", counter(d, "sink.rows") as f64);
    report.set("harness.sink_bytes", counter(d, "sink.bytes") as f64);
    report.set("harness.cache_hits", counter(d, "sched.cache_hits") as f64);
    report.set(
        "harness.cache_misses",
        counter(d, "sched.cache_misses") as f64,
    );
    let first_rows: Vec<f64> = traced.iter().filter_map(|e| e.first_row_s).collect();
    report.set("harness.first_row_ms", 1e3 * median(&first_rows));

    let execute_total: f64 = traced.iter().map(|e| e.wall_s).sum();
    let runs = traced.len() as f64;
    let spans = sf_obs::span::Tracer::global().summary();
    let span_s = |name: &str| {
        spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| s.agg.total.as_secs_f64())
    };
    report.set(
        "topology.generate_ms",
        1e3 * span_s("topology_build") / runs,
    );
    let unaccounted = timed_s - execute_total;
    report.set("bench.timed_s", timed_s);
    report.set("bench.unaccounted_s", unaccounted);
    report.set("bench.accounted_pct", 100.0 * execute_total / timed_s);
    let plain_wall = median(&plain.iter().map(|e| e.wall_s).collect::<Vec<_>>());
    let traced_wall = median(&traced.iter().map(|e| e.wall_s).collect::<Vec<_>>());
    report.set(
        "bench.trace_overhead_pct",
        overhead_pct(traced_wall, plain_wall),
    );

    report.note(format!(
        "traced study executions ({} runs, {WORKERS} workers, program spans on):",
        traced.len()
    ));
    report.row(
        "harness: execute (study + sinks + journal)",
        execute_total,
        timed_s,
    );
    report.row("unaccounted (CSV check, cleanup)", unaccounted, timed_s);
    report.row("= timed phase", timed_s, timed_s);
    report.note("  program spans inside execute, thread-seconds summed over workers, per run:");
    for s in &spans {
        report.note(format!(
            "    {:<28} {:>12.6} s  ({} spans)",
            s.name,
            s.agg.total.as_secs_f64() / runs,
            s.agg.count
        ));
    }
    report.note(format!(
        "  simcore.blocked_ratio = {blocked} blocked / ({hops} hops + {blocked} blocked); cache hits {} / misses {}",
        counter(d, "sched.cache_hits"),
        counter(d, "sched.cache_misses")
    ));
}
