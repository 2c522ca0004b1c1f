//! `elastic_1296`: the paper's elasticity mechanism. Waves of
//! `StringFigureNetwork::gate_node` over a seeded node set, routed-path
//! samples after each wave, then `ungate_node` in reverse. Closed loop: one
//! caller waits for each reconfiguration.

use sf_harness::derive_seed;
use stringfigure::routing::{trace_route, GreediestRouting, RouteTrace};
use stringfigure::topology::{ReconfigurationDelta, StringFigureTopology};
use stringfigure::types::{DeterministicRng, NetworkConfig, NodeId, SfError, SfResult};
use stringfigure::StringFigureNetwork;

use crate::calib::{Brackets, REFERENCE_S};
use crate::stats::{median, percentile, tail_note};
use crate::{gate, overhead_pct, repeat, timed, Report, RunConfig, Scale};

/// The input size.
#[derive(Debug, Clone, Copy)]
pub struct ElasticSpec {
    /// Network size.
    pub nodes: usize,
    /// Nodes gated per wave.
    pub wave_size: usize,
    /// Distinct waves; the run cycles through them.
    pub waves: usize,
    /// Routed paths sampled after each wave's gating.
    pub route_samples: usize,
}

impl ElasticSpec {
    /// The size a scale runs at.
    #[must_use]
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Standard => Self {
                nodes: 1296,
                wave_size: 8,
                waves: 4,
                route_samples: 256,
            },
            Scale::Tiny => Self {
                nodes: 64,
                wave_size: 4,
                waves: 2,
                route_samples: 16,
            },
        }
    }

    fn network(&self, seed: u64) -> NetworkConfig {
        NetworkConfig {
            seed: derive_seed(seed, 1),
            ..NetworkConfig::figure8_string_figure(self.nodes)
        }
    }

    /// The seeded waves: `waves` sets of `wave_size` distinct nodes.
    #[must_use]
    pub fn schedule(&self, seed: u64) -> Vec<Vec<NodeId>> {
        let mut rng = DeterministicRng::new(derive_seed(seed, 4));
        (0..self.waves)
            .map(|_| {
                let mut wave: Vec<NodeId> = Vec::with_capacity(self.wave_size);
                while wave.len() < self.wave_size {
                    let node = NodeId::new(rng.next_index(self.nodes));
                    if !wave.contains(&node) {
                        wave.push(node);
                    }
                }
                wave
            })
            .collect()
    }
}

/// Source–destination pairs sampled after wave `wave` gated its nodes:
/// drawn from the nodes still active.
fn route_pairs(
    spec: &ElasticSpec,
    seed: u64,
    wave: usize,
    topology: &StringFigureTopology,
) -> Vec<(NodeId, NodeId)> {
    let active: Vec<NodeId> = topology.graph().active_nodes().collect();
    let mut rng = DeterministicRng::new(derive_seed(seed, 100 + wave as u64));
    let mut pairs = Vec::with_capacity(spec.route_samples);
    while pairs.len() < spec.route_samples {
        let from = active[rng.next_index(active.len())];
        let to = active[rng.next_index(active.len())];
        if from != to {
            pairs.push((from, to));
        }
    }
    pairs
}

/// Routes every pair with `route`, checks each path, and sums their hops.
fn sample_routes(
    pairs: &[(NodeId, NodeId)],
    topology: &StringFigureTopology,
    route: impl Fn(NodeId, NodeId) -> SfResult<RouteTrace>,
) -> Result<u64, String> {
    let mut hops = 0;
    for &(from, to) in pairs {
        let path = route(from, to).map_err(|e| format!("route {from} -> {to}: {e}"))?;
        gate::check_route(&path, topology)?;
        hops += path.hops() as u64;
    }
    Ok(hops)
}

/// Outcome counts of one reconfiguration call.
#[derive(Default)]
struct Tally {
    rejected: u64,
    toggled: u64,
}

impl Tally {
    /// Folds one call's result in; refusals count as rejected, any other
    /// error is a failure.
    fn absorb(&mut self, result: SfResult<ReconfigurationDelta>, report: &mut Report, what: &str) {
        match result {
            Ok(delta) => {
                self.toggled +=
                    (delta.shortcuts_enabled.len() + delta.shortcuts_disabled.len()) as u64;
            }
            Err(SfError::InvalidReconfiguration { .. }) => self.rejected += 1,
            Err(e) => report.fail(format!("elastic_1296: {what}: {e}")),
        }
    }
}

/// Checks one wave's routed-hop sum against the first pass over the same
/// wave, and a completed first pass against the recorded reference.
struct HopCheck {
    first_pass: Vec<u64>,
    waves: usize,
}

impl HopCheck {
    fn check(&mut self, wave: usize, hops: u64, config: &RunConfig, report: &mut Report) {
        if self.first_pass.len() < self.waves {
            self.first_pass.push(hops);
            if self.first_pass.len() == self.waves {
                let rendered = format!("{:?}", self.first_pass);
                if config.scale == Scale::Standard {
                    if let Err(e) = gate::check_reference(
                        gate::REFERENCE,
                        "elastic_1296",
                        config.seed,
                        &rendered,
                    ) {
                        report.fail(e);
                    }
                }
                report.result = Some(rendered);
            }
        } else if self.first_pass[wave] != hops {
            report.fail(format!(
                "elastic_1296: wave {wave} routed {hops} hops, first pass {}",
                self.first_pass[wave]
            ));
        }
    }
}

/// Timings of the untraced loop, host seconds.
#[derive(Default)]
struct Plain {
    setup_s: Vec<f64>,
    op_s: Vec<f64>,
    wave_s: Vec<f64>,
    /// Gate and ungate time of each wave.
    reconfig_s: Vec<f64>,
    /// Reference seconds per host second around each wave.
    factor: Vec<f64>,
    /// Median calibration time over the loop.
    calib_s: f64,
    /// Median peak memory of one wave, MiB.
    peak_mb: f64,
}

impl Plain {
    /// `samples` (one per wave) in reference seconds.
    fn reference(&self, samples: &[f64]) -> Vec<f64> {
        samples
            .iter()
            .zip(&self.factor)
            .map(|(s, f)| s * f)
            .collect()
    }
}

/// Untraced waves through `StringFigureNetwork`. Each wave starts from a
/// network built from scratch (that is the set-up `setup_s` times); the
/// previous wave's network is dropped first. The calibration kernel runs
/// before the first wave and after each. Returns the timings and the
/// routed-hop sums of the first pass.
fn plain_phase(
    config: &RunConfig,
    spec: &ElasticSpec,
    schedule: &[Vec<NodeId>],
    budget: std::time::Duration,
    report: &mut Report,
) -> (Plain, Vec<u64>) {
    let mut plain = Plain::default();
    let mut hops = HopCheck {
        first_pass: Vec::new(),
        waves: schedule.len(),
    };
    let mut tally = Tally::default();
    let mut next = 0;
    let mut brackets = Brackets::start();
    repeat(budget, schedule.len(), || {
        let w = next % schedule.len();
        next += 1;
        let (built, s) = timed(|| {
            StringFigureNetwork::builder(spec.nodes)
                .seed(derive_seed(config.seed, 1))
                .build()
        });
        let mut network = match built {
            Ok(network) => network,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("elastic_1296: set-up failed: {e}"));
                return;
            }
        };
        plain.setup_s.push(s);
        let wave_started = std::time::Instant::now();
        let mut reconfig_s = 0.0;
        for &node in &schedule[w] {
            report.attempted += 1;
            let (result, s) = timed(|| network.gate_node(node));
            plain.op_s.push(s);
            reconfig_s += s;
            tally.absorb(result, report, "gate");
        }
        let pairs = route_pairs(spec, config.seed, w, network.topology());
        match sample_routes(&pairs, network.topology(), |a, b| network.route(a, b)) {
            Ok(h) => hops.check(w, h, config, report),
            Err(e) => report.fail(format!("elastic_1296: wave {w}: {e}")),
        }
        for &node in schedule[w].iter().rev() {
            report.attempted += 1;
            let (result, s) = timed(|| network.ungate_node(node));
            plain.op_s.push(s);
            reconfig_s += s;
            tally.absorb(result, report, "ungate");
        }
        plain.wave_s.push(wave_started.elapsed().as_secs_f64());
        plain.reconfig_s.push(reconfig_s);
        drop(network);
        plain.factor.push(brackets.after_op());
    });
    plain.calib_s = brackets.median_calib_s();
    plain.peak_mb = brackets.median_peak_mb();
    (plain, hops.first_pass)
}

/// Runs `elastic_1296`.
#[must_use]
pub fn run(config: &RunConfig) -> Report {
    let mut report = Report::default();
    let spec = ElasticSpec::of(config.scale);
    let schedule = spec.schedule(config.seed);
    let budget = if config.trace {
        config.budget / 2
    } else {
        config.budget
    };
    let (plain, plain_hops) = plain_phase(config, &spec, &schedule, budget, &mut report);
    if !config.trace {
        report.set("setup_s", median(&plain.reference(&plain.setup_s)));
        report.set("op_s", median(&plain.reference(&plain.wave_s)));
        report.set("peak_rss_mb", plain.peak_mb);
        // Operations over their total time, not over the median operation:
        // operations take either of two typical durations, in shares that
        // vary between runs, and the median jumps between the two.
        report.set(
            "work_per_s",
            plain.op_s.len() as f64 / plain.reference(&plain.reconfig_s).iter().sum::<f64>(),
        );
        return report;
    }
    report.set("bench.host_speed", REFERENCE_S / plain.calib_s);
    let op_ms: Vec<f64> = plain.op_s.iter().map(|s| s * 1e3).collect();
    report.set("core.reconfig_ms_p50", percentile(&op_ms, 50.0));
    report.set("core.reconfig_ms_p90", percentile(&op_ms, 90.0));
    traced_phase(
        config,
        &spec,
        &schedule,
        &plain_hops,
        median(&plain.wave_s),
        &mut report,
    );
    report.note(format!(
        "  core.reconfig_ms over the untraced waves' gate/ungate calls ({})",
        tail_note(op_ms.len())
    ));
    report
}

/// Traced waves: the same reconfigurations, driving the topology's
/// `gate_node`/`ungate_node` and the protocol's `resync` separately.
fn traced_phase(
    config: &RunConfig,
    spec: &ElasticSpec,
    schedule: &[Vec<NodeId>],
    plain_hops: &[u64],
    plain_wave_s: f64,
    report: &mut Report,
) {
    let (mut gate_s, mut resync_s, mut sample_s, mut wave_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut tally = Tally::default();
    let mut first_pass = (0, 0);
    let mut pass_hops = Vec::new();
    let mut next = 0;
    let mut reconfigure = |topology: &mut StringFigureTopology,
                           routing: &mut GreediestRouting,
                           tally: &mut Tally,
                           node: NodeId,
                           gating: bool,
                           report: &mut Report| {
        report.attempted += 1;
        let (result, g) = timed(|| {
            if gating {
                topology.gate_node(node)
            } else {
                topology.ungate_node(node)
            }
        });
        let ((), r) = timed(|| routing.resync(topology.graph(), topology.spaces()));
        gate_s.push(g);
        resync_s.push(r);
        tally.absorb(result, report, if gating { "gate" } else { "ungate" });
    };
    let (mut generate_s, mut build_s, mut setup_total) = (Vec::new(), Vec::new(), 0.0);
    let timed_s = repeat(config.budget / 2, schedule.len(), || {
        let w = next % schedule.len();
        next += 1;
        let (topology, g) = timed(|| StringFigureTopology::generate(&spec.network(config.seed)));
        let mut topology = match topology {
            Ok(t) => t,
            Err(e) => {
                report.attempted += 1;
                report.fail(format!("elastic_1296: traced set-up: {e}"));
                return;
            }
        };
        let (mut routing, b) = timed(|| GreediestRouting::new(&topology));
        generate_s.push(g);
        build_s.push(b);
        setup_total += g + b;
        let wave_started = std::time::Instant::now();
        for &node in &schedule[w] {
            reconfigure(&mut topology, &mut routing, &mut tally, node, true, report);
        }
        let pairs = route_pairs(spec, config.seed, w, &topology);
        let (hops, s) = timed(|| {
            sample_routes(&pairs, &topology, |a, b| {
                trace_route(&routing, a, b, spec.nodes)
            })
        });
        sample_s.push(s);
        match hops {
            Ok(h) if pass_hops.len() < schedule.len() => pass_hops.push(h),
            Ok(_) => {}
            Err(e) => report.fail(format!("elastic_1296: traced wave {w}: {e}")),
        }
        for &node in schedule[w].iter().rev() {
            reconfigure(&mut topology, &mut routing, &mut tally, node, false, report);
        }
        wave_s.push(wave_started.elapsed().as_secs_f64());
        if next == schedule.len() {
            first_pass = (tally.rejected, tally.toggled);
        }
    })
    .as_secs_f64();
    if pass_hops != plain_hops {
        report.fail(format!(
            "elastic_1296: traced routed hops {pass_hops:?} differ from untraced {plain_hops:?}"
        ));
    }

    let ms = |v: &[f64]| v.iter().map(|s| s * 1e3).collect::<Vec<_>>();
    let gate_total: f64 = gate_s.iter().sum();
    let resync_total: f64 = resync_s.iter().sum();
    let sample_total: f64 = sample_s.iter().sum();
    let reconfig_total = gate_total + resync_total;
    let unaccounted = timed_s - setup_total - reconfig_total - sample_total;
    report.set("topology.generate_ms", 1e3 * median(&generate_s));
    report.set("routing.build_ms", 1e3 * median(&build_s));
    report.set("routing.resync_ms_p50", percentile(&ms(&resync_s), 50.0));
    report.set("topology.gate_ms_p50", percentile(&ms(&gate_s), 50.0));
    report.set("topology.gates_rejected", first_pass.0 as f64);
    report.set("topology.shortcuts_toggled", first_pass.1 as f64);
    report.set("routing.route_sample_ms", 1e3 * median(&sample_s));
    report.set("bench.timed_s", timed_s);
    report.set("bench.unaccounted_s", unaccounted);
    report.set("bench.accounted_pct", 100.0 * (1.0 - unaccounted / timed_s));
    report.set(
        "bench.trace_overhead_pct",
        overhead_pct(median(&wave_s), plain_wave_s),
    );

    report.note(format!(
        "traced waves ({} waves of {} gates + {} routed samples + {} ungates, each on a fresh network):",
        wave_s.len(),
        spec.wave_size,
        spec.route_samples,
        spec.wave_size
    ));
    report.row("topology.gate/ungate", gate_total, reconfig_total);
    report.row("routing.resync", resync_total, reconfig_total);
    report.row("= reconfiguration total", reconfig_total, reconfig_total);
    report.row("routing.route_sample", sample_total, timed_s);
    report.row(
        "set-up (topology generate, routing build)",
        setup_total,
        timed_s,
    );
    report.row("unaccounted", unaccounted, timed_s);
    report.row("= timed phase", timed_s, timed_s);
    report.note(format!(
        "  gates_rejected and shortcuts_toggled over the first pass of {} waves; resync/gate ms ({})",
        schedule.len(),
        tail_note(resync_s.len())
    ));
}
