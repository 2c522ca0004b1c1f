//! `uniform_1296` and `apps_rw_1296`: one cycle-level simulation per
//! operation, closed loop (the next simulation starts when the last one
//! returns), one router shard.

use std::sync::Arc;

use sf_harness::derive_seed;
use stringfigure::netsim::{NetworkSimulator, SimulationStats, TrafficModel, TrafficRequest};
use stringfigure::routing::{GreediestRouting, RoutingProtocol};
use stringfigure::topology::StringFigureTopology;
use stringfigure::types::{NetworkConfig, NodeId, SfResult, SimulationConfig, SystemConfig};
use stringfigure::workloads::{
    AddressMapper, ApplicationModel, CacheHierarchy, PatternTraffic, SyntheticPattern,
    WorkloadTraffic,
};

use crate::calib::{Brackets, REFERENCE_S};
use crate::stats::{median, percentile, tail_note};
use crate::trace::{timer_overhead_ns, SampledTimer, TracedRouting, TracedTraffic};
use crate::{gate, overhead_pct, repeat, timed, Report, RunConfig, Scale, Workload};

/// Offered load of `uniform_1296`, packets per node per cycle: high, but
/// below saturation.
pub const UNIFORM_RATE: f64 = 0.3;

/// Simulations a run does at least, whatever its time budget.
const MIN_SIMULATIONS: usize = 3;

/// Processor sockets per application in `apps_rw_1296`.
pub const SOCKETS_PER_APP: usize = 16;

/// The input size of one simulation.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Network size.
    pub nodes: usize,
    /// Injecting cycles (the drain phase follows).
    pub max_cycles: u64,
    /// Cycles excluded from the simulated statistics.
    pub warmup_cycles: u64,
    /// Request–reply mode with the application traffic mix.
    pub apps: bool,
}

impl SimSpec {
    /// The size `workload` runs at.
    #[must_use]
    pub fn of(workload: Workload, scale: Scale) -> Self {
        let apps = workload == Workload::AppsRw1296;
        match scale {
            Scale::Standard => Self {
                nodes: 1296,
                max_cycles: if apps { 1_500 } else { 300 },
                warmup_cycles: if apps { 300 } else { 60 },
                apps,
            },
            Scale::Tiny => Self {
                nodes: 64,
                max_cycles: 200,
                warmup_cycles: 40,
                apps,
            },
        }
    }

    fn config(&self, seed: u64) -> SimulationConfig {
        SimulationConfig {
            max_cycles: self.max_cycles,
            warmup_cycles: self.warmup_cycles,
            seed: derive_seed(seed, 3),
            ..SimulationConfig::default()
        }
        .with_shards(1)
    }

    fn network(&self, seed: u64) -> NetworkConfig {
        NetworkConfig {
            seed: derive_seed(seed, 1),
            ..NetworkConfig::figure8_string_figure(self.nodes)
        }
    }
}

/// The traffic of one simulation.
#[derive(Debug)]
pub enum Traffic {
    /// Uniform-random synthetic traffic.
    Uniform(PatternTraffic),
    /// A key-value store's miss stream beside a shuffle's, from disjoint
    /// socket sets.
    Apps {
        /// Memcached, 80% reads.
        kv: WorkloadTraffic,
        /// Spark sort, 60% reads.
        shuffle: WorkloadTraffic,
    },
}

impl Traffic {
    /// Builds the traffic `spec` runs, seeded from the workload seed.
    ///
    /// # Errors
    ///
    /// Propagates workload configuration errors.
    pub fn new(spec: &SimSpec, seed: u64) -> SfResult<Self> {
        let traffic_seed = derive_seed(seed, 2);
        if !spec.apps {
            return Ok(Traffic::Uniform(PatternTraffic::new(
                SyntheticPattern::UniformRandom,
                spec.nodes,
                UNIFORM_RATE,
                traffic_seed,
            )));
        }
        // Sockets sit at evenly spaced nodes from a seeded offset and
        // alternate between the two applications.
        let stride = spec.nodes / (2 * SOCKETS_PER_APP);
        let offset = (traffic_seed % stride as u64) as usize;
        let socket = |i: usize| NodeId::new(offset + i * stride);
        let kv_sockets: Vec<NodeId> = (0..SOCKETS_PER_APP).map(|i| socket(2 * i)).collect();
        let shuffle_sockets: Vec<NodeId> =
            (0..SOCKETS_PER_APP).map(|i| socket(2 * i + 1)).collect();
        let cache = CacheHierarchy::tiny()?;
        let mapper = AddressMapper::paper_default(spec.nodes)?;
        let app = |model, sockets: &[NodeId], salt| {
            WorkloadTraffic::with_cache(
                model,
                mapper,
                sockets,
                derive_seed(traffic_seed, salt),
                &cache,
            )
        };
        Ok(Traffic::Apps {
            kv: app(ApplicationModel::Memcached, &kv_sockets, 1)?,
            shuffle: app(ApplicationModel::SparkSort, &shuffle_sockets, 2)?,
        })
    }

    /// LLC misses over cache-hierarchy accesses, pooled over both
    /// applications (every miss issues exactly one request); 0 for
    /// synthetic traffic, which has no caches.
    #[must_use]
    pub fn llc_miss_rate(&self) -> f64 {
        let Traffic::Apps { kv, shuffle } = self else {
            return 0.0;
        };
        let accesses = |t: &WorkloadTraffic| match t.llc_miss_rate() {
            r if r > 0.0 => t.issued() as f64 / r,
            _ => 0.0,
        };
        let total = accesses(kv) + accesses(shuffle);
        if total > 0.0 {
            (kv.issued() + shuffle.issued()) as f64 / total
        } else {
            0.0
        }
    }
}

impl TrafficModel for Traffic {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<TrafficRequest> {
        match self {
            Traffic::Uniform(t) => t.maybe_inject(cycle, source),
            // The socket sets are disjoint and a model returns `None` for a
            // node that is not one of its sockets before drawing anything.
            Traffic::Apps { kv, shuffle } => kv
                .maybe_inject(cycle, source)
                .or_else(|| shuffle.maybe_inject(cycle, source)),
        }
    }
}

/// Host time of one simulation's set-up, by layer.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    generate_s: f64,
    build_s: f64,
    new_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.generate_s + self.build_s + self.new_s
    }
}

/// Sets one simulation up from scratch: topology, protocol, simulator and
/// traffic. `wrap` turns the protocol into what the simulator runs, plus a
/// handle the caller keeps.
fn build<H>(
    spec: &SimSpec,
    seed: u64,
    wrap: impl FnOnce(GreediestRouting) -> (Box<dyn RoutingProtocol>, H),
) -> SfResult<(NetworkSimulator, Traffic, H, SetupTimes)> {
    let (topology, generate_s) = timed(|| StringFigureTopology::generate(&spec.network(seed)));
    let topology = topology?;
    let ((protocol, handle), build_s) = timed(|| wrap(GreediestRouting::new(&topology)));
    let (built, new_s) = timed(|| -> SfResult<_> {
        let sim = NetworkSimulator::new(
            topology.graph().clone(),
            protocol,
            SystemConfig::default(),
            spec.config(seed),
        )?
        .with_request_reply(spec.apps);
        Ok((sim, Traffic::new(spec, seed)?))
    });
    let (sim, traffic) = built?;
    let times = SetupTimes {
        generate_s,
        build_s,
        new_s,
    };
    Ok((sim, traffic, handle, times))
}

/// Checks one simulation's statistics: against the first simulation of the
/// run (every simulation in a run has the same inputs) and, at standard
/// size, against the recorded reference.
fn check(
    report: &mut Report,
    config: &RunConfig,
    first: &mut Option<SimulationStats>,
    stats: &SimulationStats,
) {
    match first {
        Some(expected) if expected != stats => {
            report.fail(format!(
                "{}: simulation differs from the run's first\n  first {expected:?}\n  now   {stats:?}",
                config.workload.name()
            ));
        }
        Some(_) => {}
        None => {
            let rendered = format!("{stats:?}");
            if config.scale == Scale::Standard {
                if let Err(e) = gate::check_reference(
                    gate::REFERENCE,
                    config.workload.name(),
                    config.seed,
                    &rendered,
                ) {
                    report.fail(e);
                }
            }
            report.result = Some(rendered);
            *first = Some(stats.clone());
        }
    }
}

/// Per-simulation timings of the untraced loop.
#[derive(Default)]
struct Plain {
    setup: Vec<SetupTimes>,
    run_s: Vec<f64>,
    /// Reference seconds per host second around each simulation.
    factor: Vec<f64>,
    /// Median calibration time over the loop, host seconds.
    calib_s: f64,
    /// Median peak memory of one simulation, MiB.
    peak_mb: f64,
    cycles: u64,
    delivered: u64,
}

impl Plain {
    fn setup_median(&self, part: fn(&SetupTimes) -> f64) -> f64 {
        median(&self.setup.iter().map(part).collect::<Vec<_>>())
    }

    /// Simulation times in reference seconds.
    fn ref_run_s(&self) -> Vec<f64> {
        self.run_s
            .iter()
            .zip(&self.factor)
            .map(|(s, f)| s * f)
            .collect()
    }

    /// Median set-up time in reference seconds.
    fn ref_setup_s(&self) -> f64 {
        let ref_s: Vec<f64> = (self.setup.iter().zip(&self.factor))
            .map(|(t, f)| t.total() * f)
            .collect();
        median(&ref_s)
    }

    /// `count` per second of total simulation time: host seconds, or
    /// reference seconds with `reference`.
    fn per_s(&self, count: u64, reference: bool) -> f64 {
        let total: f64 = if reference {
            self.ref_run_s().iter().sum()
        } else {
            self.run_s.iter().sum()
        };
        count as f64 / total
    }
}

/// The untraced loop: every simulation set up from scratch, then run with
/// the plain protocol and traffic, no wrappers; the calibration kernel runs
/// before the first simulation and after each.
fn plain_phase(
    config: &RunConfig,
    spec: &SimSpec,
    budget: std::time::Duration,
    first: &mut Option<SimulationStats>,
    report: &mut Report,
) -> Plain {
    let mut plain = Plain::default();
    let mut brackets = Brackets::start();
    repeat(budget, MIN_SIMULATIONS, || {
        report.attempted += 1;
        let result = build(spec, config.seed, |r| {
            (Box::new(r) as Box<dyn RoutingProtocol>, ())
        })
        .and_then(|(mut sim, mut traffic, (), times)| {
            let (stats, run_s) = timed(|| sim.run(&mut traffic));
            Ok((stats?, run_s, times))
        });
        let factor = brackets.after_op();
        match result {
            Ok((stats, run_s, times)) => {
                plain.setup.push(times);
                plain.run_s.push(run_s);
                plain.factor.push(factor);
                plain.cycles += stats.cycles;
                plain.delivered += stats.delivered;
                check(report, config, first, &stats);
            }
            Err(e) => report.fail(format!("{}: {e}", config.workload.name())),
        }
    });
    plain.calib_s = brackets.median_calib_s();
    plain.peak_mb = brackets.median_peak_mb();
    plain
}

/// One traced simulation's measurements.
struct TracedOp {
    stats: SimulationStats,
    run_s: f64,
    prep_s: f64,
    teardown_s: f64,
    decide_s: f64,
    decide_ns: f64,
    decisions: u64,
    fallbacks: u64,
    inject_s: f64,
    inject_calls: u64,
    requests: u64,
    writes: u64,
    llc_miss_rate: f64,
    cycle_us: Vec<f64>,
}

fn traced_op(config: &RunConfig, spec: &SimSpec, overhead_ns: f64) -> SfResult<TracedOp> {
    let timer = Arc::new(SampledTimer::default());
    let (mut sim, mut traffic, routing, times) = build(spec, config.seed, |r| {
        let routing = Arc::new(r);
        let protocol = TracedRouting::new(Arc::clone(&routing), Arc::clone(&timer));
        (Box::new(protocol) as Box<dyn RoutingProtocol>, routing)
    })?;
    let mut traced = TracedTraffic::new(&mut traffic, spec.max_cycles as usize);
    let (stats, run_s) = timed(|| sim.run(&mut traced));
    let stats = stats?;
    let inject_s = traced.timer.estimated(overhead_ns).as_secs_f64();
    let (inject_calls, requests, writes) = (traced.timer.calls(), traced.requests, traced.writes);
    let cycle_us = traced.cycle_us();
    let llc_miss_rate = traffic.llc_miss_rate();
    let (decisions, fallbacks) = (routing.decision_count(), routing.fallback_count());
    let ((), teardown_s) = timed(|| drop((sim, traffic, routing)));
    Ok(TracedOp {
        stats,
        run_s,
        prep_s: times.total(),
        teardown_s,
        decide_s: timer.estimated(overhead_ns).as_secs_f64(),
        decide_ns: timer.mean_ns(overhead_ns),
        decisions,
        fallbacks,
        inject_s,
        inject_calls,
        requests,
        writes,
        llc_miss_rate,
        cycle_us,
    })
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Runs `uniform_1296` or `apps_rw_1296`.
#[must_use]
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    let spec = SimSpec::of(config.workload, config.scale);
    let mut first = None;
    if !config.trace {
        let plain = plain_phase(config, &spec, config.budget, &mut first, &mut report);
        report.set("setup_s", plain.ref_setup_s());
        report.set("op_s", median(&plain.ref_run_s()));
        report.set("work_per_s", plain.per_s(plain.cycles, true));
        report.set("peak_rss_mb", plain.peak_mb);
        return report;
    }

    let half = config.budget / 2;
    let plain = plain_phase(config, &spec, half, &mut first, &mut report);
    report.set(
        "topology.generate_ms",
        1e3 * plain.setup_median(|t| t.generate_s),
    );
    report.set("routing.build_ms", 1e3 * plain.setup_median(|t| t.build_s));
    report.set("simcore.new_ms", 1e3 * plain.setup_median(|t| t.new_s));
    report.set("simcore.packets_per_s", plain.per_s(plain.delivered, false));
    report.set("bench.host_speed", REFERENCE_S / plain.calib_s);

    let overhead_ns = timer_overhead_ns();
    let mut ops: Vec<TracedOp> = Vec::new();
    let timed_s = repeat(half, MIN_SIMULATIONS, || {
        report.attempted += 1;
        match traced_op(config, &spec, overhead_ns) {
            Ok(op) => {
                if first.as_ref() != Some(&op.stats) {
                    report.fail(format!(
                        "{}: traced simulation differs from the untraced one\n  untraced {first:?}\n  traced   {:?}",
                        config.workload.name(),
                        op.stats
                    ));
                }
                ops.push(op);
            }
            Err(e) => report.fail(format!("{}: traced run: {e}", config.workload.name())),
        }
    })
    .as_secs_f64();
    if !ops.is_empty() {
        layer_report(
            &mut report,
            &spec,
            &ops,
            timed_s,
            median(&plain.run_s),
            overhead_ns,
        );
    }
    report
}

fn layer_report(
    report: &mut Report,
    spec: &SimSpec,
    ops: &[TracedOp],
    timed_s: f64,
    plain_wall_s: f64,
    overhead_ns: f64,
) {
    let per_op = |f: fn(&TracedOp) -> f64| mean(ops.iter().map(f));
    let run_s = per_op(|o| o.run_s);
    let decide_s = per_op(|o| o.decide_s);
    let inject_s = per_op(|o| o.inject_s);
    let self_s = run_s - decide_s - inject_s;
    let prep_s = per_op(|o| o.prep_s);
    let teardown_s = per_op(|o| o.teardown_s);
    let timed_per_op = timed_s / ops.len() as f64;
    let unaccounted = timed_per_op - run_s - prep_s - teardown_s;
    let last = ops.last().expect("at least one traced op");
    let stats = &last.stats;
    let cycle_us: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.cycle_us.iter().copied())
        .collect();

    report.set("routing.decisions", last.decisions as f64);
    report.set("routing.fallbacks", last.fallbacks as f64);
    report.set(
        "routing.fallback_ratio",
        ratio(last.fallbacks as f64, last.decisions as f64),
    );
    report.set("routing.decide_ns_mean", per_op(|o| o.decide_ns));
    report.set("routing.decide_s", decide_s);
    report.set(
        "simcore.blocked_ratio",
        ratio(
            stats.blocked_forwards as f64,
            (stats.total_hops + stats.blocked_forwards) as f64,
        ),
    );
    report.set("simcore.run_s", run_s);
    report.set("simcore.self_s", self_s);
    report.set("simcore.cycle_us_p50", percentile(&cycle_us, 50.0));
    report.set("simcore.cycle_us_p99", percentile(&cycle_us, 99.0));
    report.set("simcore.cycles", stats.cycles as f64);
    report.set("simcore.delivered", stats.delivered as f64);
    report.set("simcore.hops", stats.total_hops as f64);
    report.set("simcore.blocked_forwards", stats.blocked_forwards as f64);
    report.set(
        "simcore.completed_requests",
        stats.completed_requests as f64,
    );
    report.set("simcore.backlog_at_end", stats.backlog_at_end as f64);
    report.set("workloads.inject_s", inject_s);
    report.set("workloads.inject_calls", last.inject_calls as f64);
    report.set("workloads.requests", last.requests as f64);
    report.set(
        "workloads.write_share",
        ratio(last.writes as f64, last.requests as f64),
    );
    report.set("workloads.llc_miss_rate", last.llc_miss_rate);
    report.set("bench.timed_s", timed_s);
    report.set("bench.unaccounted_s", unaccounted * ops.len() as f64);
    report.set(
        "bench.accounted_pct",
        100.0 * (1.0 - unaccounted / timed_per_op),
    );
    let traced_wall_s = median(&ops.iter().map(|o| o.run_s).collect::<Vec<_>>());
    report.set(
        "bench.trace_overhead_pct",
        overhead_pct(traced_wall_s, plain_wall_s),
    );

    report.note(format!(
        "per simulation ({} traced, {} nodes, {} injecting cycles, timer overhead {overhead_ns:.0} ns subtracted):",
        ops.len(),
        spec.nodes,
        spec.max_cycles
    ));
    report.row("routing.decide (sampled estimate)", decide_s, run_s);
    report.row("workloads.inject (sampled estimate)", inject_s, run_s);
    report.row("simcore.self (run - the two above)", self_s, run_s);
    report.row("= simcore.run", run_s, run_s);
    report.row(
        "set-up (topology, routing, simulator)",
        prep_s,
        timed_per_op,
    );
    report.row("teardown (drop)", teardown_s, timed_per_op);
    report.row("unaccounted", unaccounted, timed_per_op);
    report.row("= timed phase per simulation", timed_per_op, timed_per_op);
    report.note(format!(
        "  routing.fallback_ratio = {} fallbacks / {} decisions; simcore.blocked_ratio = {} blocked / ({} hops + {} blocked)",
        last.fallbacks, last.decisions, stats.blocked_forwards, stats.total_hops, stats.blocked_forwards
    ));
    report.note(format!(
        "  workloads.write_share = {} writes / {} requests; cycle_us over injecting cycles ({})",
        last.writes,
        last.requests,
        tail_note(cycle_us.len())
    ));
}
