//! Scenario: fault injection — how each design degrades under deterministic
//! waves of link failures and router power-gate events.

use super::{cell_f64, cell_str, cell_u64, cell_usize, RecordRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use crate::experiments::ExperimentScale;
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross2_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_types::{FaultPlan, SfResult, SystemConfig};
use sf_workloads::{PatternTraffic, SyntheticPattern};

/// One row of the fault-resilience scenario study: one design under one
/// fault severity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultResilienceRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Undirected links taken down per fault wave.
    pub links_per_wave: usize,
    /// Routers power-gated per fault wave.
    pub routers_per_wave: usize,
    /// Link-down fault events the run applied.
    pub link_down_events: u64,
    /// Router power-gate fault events the run applied.
    pub router_down_events: u64,
    /// Memory requests injected during the measured phase.
    pub injected: u64,
    /// Requests whose reply made it back during the measured phase — the
    /// end-to-end survivors.
    pub completed_requests: u64,
    /// Packets lost to fault injection over the whole run.
    pub dropped_packets: u64,
    /// Completed requests / injected requests (the survival metric of the
    /// scenario; can slightly exceed 1 on a healthy network because warm-up
    /// requests complete inside the measured window).
    pub completion_ratio: f64,
    /// Average request round-trip latency in cycles.
    pub average_round_trip_cycles: f64,
}

impl FaultResilienceRow {
    /// Total fault events (link-down plus router power-gate) the run applied.
    #[must_use]
    pub fn fault_events(&self) -> u64 {
        self.link_down_events + self.router_down_events
    }
}

impl Record for FaultResilienceRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "nodes",
            "links_per_wave",
            "routers_per_wave",
            "link_down_events",
            "router_down_events",
            "injected",
            "completed_requests",
            "dropped_packets",
            "completion_ratio",
            "average_round_trip_cycles",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.links_per_wave.into(),
            self.routers_per_wave.into(),
            self.link_down_events.into(),
            self.router_down_events.into(),
            self.injected.into(),
            self.completed_requests.into(),
            self.dropped_packets.into(),
            self.completion_ratio.into(),
            self.average_round_trip_cycles.into(),
        ]
    }
}

impl RecordRow for FaultResilienceRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, links, routers, link_ev, router_ev, injected, completed, dropped, ratio, rtt] =
            cells
        else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            links_per_wave: cell_usize(links)?,
            routers_per_wave: cell_usize(routers)?,
            link_down_events: cell_u64(link_ev)?,
            router_down_events: cell_u64(router_ev)?,
            injected: cell_u64(injected)?,
            completed_requests: cell_u64(completed)?,
            dropped_packets: cell_u64(dropped)?,
            completion_ratio: cell_f64(ratio)?,
            average_round_trip_cycles: cell_f64(rtt)?,
        })
    }
}

/// Scenario study: how each design degrades (delivery ratio, drops, latency)
/// under deterministic waves of link failures and router power-gate events,
/// at increasing severity — one job per (design, severity) pair. Severity
/// `(0, 0)` is the healthy baseline row, run without any fault plan —
/// pinning the zero-cost-off contract.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn fault_resilience_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    severities: &[(usize, usize)],
    injection_rate: f64,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<FaultResilienceRow>> {
    let measured = (scale.max_cycles - scale.warmup_cycles).max(1);
    let points = cross2_lazy(kinds.to_vec(), severities.to_vec());
    ctx.run_jobs(points, |_, &(kind, (links, routers))| {
        let instance = ctx.instance(kind, nodes, seed)?;
        let plan = (links > 0 || routers > 0).then(|| {
            FaultPlan::new(seed ^ 0x00fa_0175)
                .starting_at(scale.warmup_cycles)
                .with_period((measured / 8).max(1))
                .with_severity(links, routers)
                .with_repair_cycles((measured / 16).max(1))
        });
        let config = scale.simulation_config().with_fault(plan);
        let mut sim = instance
            .make_simulator(SystemConfig::default(), config)?
            .with_request_reply(true);
        let mut traffic =
            PatternTraffic::new(SyntheticPattern::UniformRandom, nodes, injection_rate, seed);
        let stats = sim.run(&mut traffic)?;
        Ok(FaultResilienceRow {
            kind,
            nodes,
            links_per_wave: links,
            routers_per_wave: routers,
            link_down_events: stats.link_down_events,
            router_down_events: stats.router_down_events,
            injected: stats.injected,
            completed_requests: stats.completed_requests,
            dropped_packets: stats.dropped_packets,
            completion_ratio: stats.completed_requests as f64 / stats.injected.max(1) as f64,
            average_round_trip_cycles: stats.average_round_trip_cycles(),
        })
    })
}

/// Scenario: delivery ratio, drops, and latency under deterministic waves of
/// link failures and router power-gate events.
#[derive(Debug, Clone, Copy)]
pub struct FaultResilience;

impl FaultResilience {
    const RATE: f64 = 0.05;

    #[allow(clippy::type_complexity)]
    fn params(
        ctx: &RunContext,
    ) -> (
        Vec<TopologyKind>,
        usize,
        Vec<(usize, usize)>,
        ExperimentScale,
    ) {
        let (kinds, nodes, severities) = if ctx.is_quick() {
            (
                vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure],
                48,
                vec![(0, 0), (2, 1)],
            )
        } else {
            (
                vec![
                    TopologyKind::DistributedMesh,
                    TopologyKind::SpaceShuffle,
                    TopologyKind::StringFigure,
                ],
                256,
                vec![(0, 0), (1, 0), (2, 1), (4, 2)],
            )
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (kinds, nodes, severities, scale)
    }
}

impl Study for FaultResilience {
    fn name(&self) -> &'static str {
        "fault_resilience"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: fault injection"
    }
    fn description(&self) -> &'static str {
        "delivery ratio, drops, and latency under deterministic link-failure and router power-gate waves"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, _, severities, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("design", kinds.len()),
            ("fault severity", severities.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, nodes, severities, scale) = Self::params(ctx);
        let rows = fault_resilience_study(ctx, &kinds, nodes, &severities, Self::RATE, scale, 19)?;
        Ok(Table::from_records(&rows))
    }
}
