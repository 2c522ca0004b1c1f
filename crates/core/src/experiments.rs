//! Shared helpers of the study drivers: the simulation-scale policy and the
//! building blocks several studies run their jobs on.
//!
//! Each study — its row type, its single driver, and its registered
//! [`Study`](crate::Study) — lives in its own module under [`crate::study`];
//! the integration tests call those drivers at reduced scale to check the
//! qualitative trends (who wins, and by roughly how much).

use crate::comparison::NetworkInstance;
use crate::network::StringFigureNetwork;
use crate::power::PowerManager;
use serde::{Deserialize, Serialize};
use sf_netsim::SimulationStats;
use sf_topology::analysis;
use sf_types::{NodeId, SfResult, SimulationConfig, SystemConfig};
use sf_workloads::{
    AddressMapper, ApplicationModel, CacheHierarchy, PatternTraffic, SyntheticPattern,
    WorkloadTraffic,
};

/// Controls how long the cycle-level simulations of an experiment run.
///
/// The paper's RTL runs use 100,000 operations; integration tests use the
/// `quick` scale so the whole suite stays fast, while each registered study
/// derives its full-scale runs from `paper` through
/// [`RunContext::scale`](crate::RunContext::scale).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentScale {
    /// Simulated cycles per run.
    pub max_cycles: u64,
    /// Warm-up cycles excluded from the statistics.
    pub warmup_cycles: u64,
    /// Router shards the cycle loop of each simulation is split across
    /// (`0` = auto from the shared core budget). Any value produces
    /// bit-identical rows; the knob only trades wall-clock time.
    pub shards: usize,
    /// Telemetry sampling stride in cycles (`0` = off). Strictly
    /// out-of-band: like `shards`, it never changes a row.
    pub telemetry_every: u64,
}

impl ExperimentScale {
    /// Small scale for tests (about a thousand cycles).
    #[must_use]
    pub fn quick() -> Self {
        Self {
            max_cycles: 1_200,
            warmup_cycles: 200,
            shards: 0,
            telemetry_every: 0,
        }
    }

    /// Full scale: the base of every study's full-scale runs.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            max_cycles: 20_000,
            warmup_cycles: 2_000,
            shards: 0,
            telemetry_every: 0,
        }
    }

    /// Returns a copy with an explicit intra-simulation shard count
    /// (`0` restores automatic selection).
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with a telemetry sampling stride in cycles
    /// (`0` disables recording).
    #[must_use]
    pub fn with_telemetry_every(mut self, every: u64) -> Self {
        self.telemetry_every = every;
        self
    }

    /// The corresponding simulator configuration.
    #[must_use]
    pub fn simulation_config(&self) -> SimulationConfig {
        SimulationConfig {
            max_cycles: self.max_cycles,
            warmup_cycles: self.warmup_cycles,
            shards: self.shards,
            telemetry_every: self.telemetry_every,
            ..SimulationConfig::default()
        }
    }
}

/// Runs one synthetic-pattern simulation on a pre-built instance.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn run_pattern_on(
    instance: &NetworkInstance,
    pattern: SyntheticPattern,
    injection_rate: f64,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<SimulationStats> {
    let mut sim = instance.make_simulator(SystemConfig::default(), scale.simulation_config())?;
    let mut traffic = PatternTraffic::new(pattern, instance.num_nodes(), injection_rate, seed);
    sim.run(&mut traffic)
}

/// Runs one application workload on a pre-built instance.
///
/// # Errors
///
/// Propagates workload and simulation errors.
pub fn run_workload_on(
    instance: &NetworkInstance,
    workload: ApplicationModel,
    injectors: &[NodeId],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<SimulationStats> {
    let mapper = AddressMapper::paper_default(instance.num_nodes())?;
    // A reduced cache keeps the miss stream dense enough to exercise the
    // network within the simulated window (the paper's traces are likewise
    // collected post-initialisation, when caches are already thrashing).
    let cache = CacheHierarchy::tiny()?;
    let mut traffic = WorkloadTraffic::with_cache(workload, mapper, injectors, seed, &cache)?;
    let mut sim = instance
        .make_simulator(SystemConfig::default(), scale.simulation_config())?
        .with_request_reply(true);
    sim.run(&mut traffic)
}

/// Evenly spreads `count` processor sockets over the memory nodes (processors
/// can attach to any node in String Figure; the evaluation attaches them to a
/// spread-out subset).
#[must_use]
pub fn socket_nodes(nodes: usize, count: usize) -> Vec<NodeId> {
    let count = count.clamp(1, nodes);
    (0..count).map(|i| NodeId::new(i * nodes / count)).collect()
}

/// Average-path-length summary of a partially gated String Figure network,
/// used by the reconfiguration examples and tests.
///
/// # Errors
///
/// Propagates construction and reconfiguration errors.
pub fn gated_path_length(
    nodes: usize,
    fraction: f64,
    seed: u64,
) -> SfResult<analysis::PathLengthStats> {
    let mut network = StringFigureNetwork::builder(nodes).seed(seed).build()?;
    let mut pm = PowerManager::new(&mut network);
    pm.gate_fraction(fraction, seed)?;
    Ok(network.path_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comparison::TopologyKind;
    use crate::study::bisection::bisection_study;
    use crate::study::fault_resilience::fault_resilience_study;
    use crate::study::fig05::surg_path_length_study;
    use crate::study::fig08::configuration_table;
    use crate::study::fig09a::hop_count_study;
    use crate::study::fig09b::power_gating_study;
    use crate::study::fig10::{adversarial_saturation_study, saturation_study};
    use crate::study::fig11::latency_curve;
    use crate::study::fig12::workload_study;
    use crate::RunContext;
    use sf_harness::pool::PoolConfig;
    use std::sync::Arc;

    #[test]
    fn surg_rows_show_flat_scaling() {
        let rows = surg_path_length_study(&RunContext::new(), &[64, 200], 2).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.string_figure < 6.0);
            assert!((row.string_figure - row.s2).abs() < 1.0);
            assert!((row.string_figure - row.jellyfish).abs() < 1.5);
        }
        // Tripling the size should cost well under one extra hop.
        assert!(rows[1].string_figure - rows[0].string_figure < 1.0);
    }

    #[test]
    fn hop_count_study_orders_designs() {
        let rows = hop_count_study(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[144],
            200,
            1,
        )
        .unwrap();
        let mesh = rows
            .iter()
            .find(|r| r.kind == TopologyKind::DistributedMesh)
            .unwrap();
        let sf = rows
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure)
            .unwrap();
        assert!(mesh.average_routed_hops > sf.average_routed_hops);
        assert!(sf.average_routed_hops < 8.0);
        assert_eq!(sf.router_ports, 8);
    }

    #[test]
    fn saturation_study_runs_and_mesh_saturates_first() {
        let rates = [0.02, 0.10, 0.30, 0.60];
        let rows = saturation_study(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            SyntheticPattern::UniformRandom,
            &rates,
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        let mesh = &rows[0];
        let sf = &rows[1];
        let mesh_sat = mesh.saturation_percent.unwrap_or(0.0);
        let sf_sat = sf.saturation_percent.unwrap_or(0.0);
        assert!(
            sf_sat >= mesh_sat,
            "SF {sf_sat} should beat mesh {mesh_sat}"
        );
    }

    #[test]
    fn latency_curve_is_monotonic_until_saturation() {
        let points = latency_curve(
            &RunContext::new(),
            TopologyKind::StringFigure,
            32,
            SyntheticPattern::UniformRandom,
            &[0.02, 0.20],
            ExperimentScale::quick(),
            5,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(points[1].average_latency_cycles >= points[0].average_latency_cycles * 0.8);
        assert!(points[0].accepted_throughput > 0.0);
    }

    #[test]
    fn workload_study_produces_rows_for_each_pair() {
        let rows = workload_study(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            &[ApplicationModel::Memcached],
            32,
            4,
            ExperimentScale::quick(),
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.requests_per_cycle > 0.0, "{}", row.kind);
            assert!(row.total_energy_pj > 0.0);
            assert!(row.average_round_trip_cycles > 0.0);
        }
    }

    #[test]
    fn power_gating_study_produces_normalized_rows() {
        let rows = power_gating_study(
            &RunContext::new(),
            48,
            &[0.0, 0.25],
            ApplicationModel::SparkGrep,
            4,
            ExperimentScale::quick(),
            9,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!((rows[0].normalized_edp - 1.0).abs() < 1e-9);
        assert_eq!(rows[0].gated_nodes, 0);
        assert!(rows[1].gated_nodes >= 8);
        assert!(rows[1].normalized_edp > 0.0);
    }

    #[test]
    fn bisection_and_configuration_tables() {
        let bisection = bisection_study(
            &RunContext::new(),
            &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
            36,
            5,
            2,
        )
        .unwrap();
        let mesh = &bisection[0];
        let sf = &bisection[1];
        assert!(
            sf.minimum >= mesh.minimum,
            "SF {} vs mesh {}",
            sf.minimum,
            mesh.minimum
        );

        let config = configuration_table(&RunContext::new(), &TopologyKind::ALL, &[64], 1).unwrap();
        assert_eq!(config.len(), 6);
        let fb = config
            .iter()
            .find(|r| r.kind == TopologyKind::FlattenedButterfly)
            .unwrap();
        let sf_row = config
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure)
            .unwrap();
        assert!(fb.router_ports > sf_row.router_ports);
        assert!(fb.links > sf_row.links);
        assert!(sf_row.supports_reconfiguration);
    }

    #[test]
    fn fault_resilience_study_degrades_with_severity() {
        let rows = fault_resilience_study(
            &RunContext::new(),
            &[TopologyKind::StringFigure],
            36,
            &[(0, 0), (3, 2)],
            0.05,
            ExperimentScale::quick(),
            11,
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        let healthy = &rows[0];
        let stormy = &rows[1];
        assert_eq!(healthy.link_down_events, 0);
        assert_eq!(healthy.router_down_events, 0);
        assert_eq!(healthy.dropped_packets, 0);
        assert!(healthy.completion_ratio > 0.95, "{healthy:?}");
        assert!(stormy.fault_events() > 0);
        assert!(stormy.dropped_packets > 0);
        assert!(
            stormy.completed_requests > 0,
            "network must survive the storm"
        );
        assert!(stormy.completion_ratio <= healthy.completion_ratio + 1e-9);
    }

    #[test]
    fn adversarial_saturation_covers_every_adversarial_pattern() {
        let rows = adversarial_saturation_study(
            &RunContext::new(),
            &[TopologyKind::StringFigure],
            36,
            &[0.05, 0.30],
            ExperimentScale::quick(),
            3,
        )
        .unwrap();
        assert_eq!(rows.len(), SyntheticPattern::ADVERSARIAL.len());
        for (row, pattern) in rows.iter().zip(SyntheticPattern::ADVERSARIAL) {
            assert_eq!(row.pattern, pattern);
        }
    }

    #[test]
    fn scaleout_study_reaches_beyond_small_scales() {
        let rows = hop_count_study(
            &RunContext::new(),
            &[TopologyKind::SpaceShuffle, TopologyKind::StringFigure],
            &[64, 128],
            50,
            7,
        )
        .unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.average_routed_hops >= 1.0, "{row:?}");
        }
    }

    #[test]
    fn socket_nodes_spread_evenly() {
        let sockets = socket_nodes(16, 4);
        assert_eq!(
            sockets,
            vec![
                NodeId::new(0),
                NodeId::new(4),
                NodeId::new(8),
                NodeId::new(12)
            ]
        );
        assert_eq!(socket_nodes(4, 10).len(), 4);
        assert_eq!(socket_nodes(100, 1), vec![NodeId::new(0)]);
    }

    #[test]
    fn gated_path_length_stays_bounded() {
        let full = gated_path_length(64, 0.0, 1).unwrap();
        let gated = gated_path_length(64, 0.3, 1).unwrap();
        assert!(gated.average < full.average + 2.0);
        assert_eq!(gated.unreachable_pairs, 0);
    }

    #[test]
    fn experiment_scales() {
        assert!(ExperimentScale::paper().max_cycles > ExperimentScale::quick().max_cycles);
        assert!(ExperimentScale::quick()
            .simulation_config()
            .validate()
            .is_ok());
    }

    /// Runs `study` on one worker and on many and checks the rows match.
    fn assert_worker_count_invariant<T: PartialEq + std::fmt::Debug>(
        study: impl Fn(&RunContext) -> SfResult<T>,
    ) {
        let serial = RunContext::new().with_pool(PoolConfig::serial());
        let parallel = RunContext::new().with_pool(PoolConfig::threads(4).with_chunk(2));
        assert_eq!(study(&serial).unwrap(), study(&parallel).unwrap());
    }

    /// The acceptance criterion of the harness refactor: running a study on
    /// one worker and on many workers yields byte-for-byte identical rows.
    #[test]
    fn studies_are_bit_identical_serial_vs_parallel() {
        let pair = [TopologyKind::DistributedMesh, TopologyKind::StringFigure];
        let quick = ExperimentScale::quick();
        assert_worker_count_invariant(|ctx| surg_path_length_study(ctx, &[64, 100], 3));
        assert_worker_count_invariant(|ctx| hop_count_study(ctx, &pair, &[64, 100], 50, 1));
        assert_worker_count_invariant(|ctx| {
            latency_curve(
                ctx,
                TopologyKind::StringFigure,
                32,
                SyntheticPattern::UniformRandom,
                &[0.02, 0.1, 0.2],
                quick,
                5,
            )
        });
        assert_worker_count_invariant(|ctx| {
            power_gating_study(
                ctx,
                48,
                &[0.0, 0.25],
                ApplicationModel::SparkGrep,
                4,
                quick,
                9,
            )
        });
        assert_worker_count_invariant(|ctx| {
            saturation_study(
                ctx,
                &pair,
                36,
                SyntheticPattern::UniformRandom,
                &[0.02, 0.10, 0.30],
                quick,
                3,
            )
        });
        assert_worker_count_invariant(|ctx| {
            let sf = [TopologyKind::StringFigure];
            workload_study(ctx, &sf, &[ApplicationModel::Memcached], 32, 4, quick, 7)
        });
        assert_worker_count_invariant(|ctx| bisection_study(ctx, &pair, 36, 5, 2));
    }

    #[test]
    fn context_instances_are_shared_and_consistent() {
        // Contexts share the process-wide topology cache by default.
        let first = RunContext::new()
            .instance(TopologyKind::StringFigure, 40, 11)
            .unwrap();
        let second = RunContext::new()
            .instance(TopologyKind::StringFigure, 40, 11)
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let fresh = NetworkInstance::build(TopologyKind::StringFigure, 40, 11).unwrap();
        assert_eq!(first.graph().edges(), fresh.graph().edges());
    }

    #[test]
    fn rows_serialise_through_the_harness_table() {
        let rows = configuration_table(&RunContext::new(), &[TopologyKind::StringFigure], &[64], 1)
            .unwrap();
        let table = sf_harness::Table::from_records(&rows);
        assert_eq!(table.columns[0], "kind");
        let csv = table.to_csv();
        assert!(csv.starts_with("kind,nodes,router_ports"));
        assert_eq!(sf_harness::Table::from_csv(&csv).unwrap(), table);
        assert_eq!(
            sf_harness::Table::from_json(&table.to_json()).unwrap(),
            table
        );
    }
}
