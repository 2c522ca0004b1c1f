//! End-to-end workload runs: application models -> cache filter -> memory
//! network simulation, plus the power-management energy study (Figures 12
//! and 9b at reduced scale).

use sf_types::NodeId;
use sf_workloads::ApplicationModel;
use stringfigure::experiments::{socket_nodes, ExperimentScale};
use stringfigure::study::fig09b::power_gating_study;
use stringfigure::study::fig12::workload_study;
use stringfigure::{RunContext, TopologyKind};

#[test]
fn all_workloads_complete_requests_on_string_figure() {
    let rows = workload_study(
        &RunContext::new(),
        &[TopologyKind::StringFigure],
        &ApplicationModel::ALL,
        48,
        4,
        ExperimentScale::quick(),
        13,
    )
    .unwrap();
    assert_eq!(rows.len(), ApplicationModel::ALL.len());
    for row in &rows {
        assert!(
            row.requests_per_cycle > 0.0,
            "{} produced no completed requests",
            row.workload
        );
        assert!(row.average_round_trip_cycles > 2.0, "{}", row.workload);
        assert!(row.energy_per_request_pj > 0.0, "{}", row.workload);
    }
}

#[test]
fn figure12_trend_sf_beats_mesh_on_throughput() {
    let rows = workload_study(
        &RunContext::new(),
        &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
        &[ApplicationModel::Pagerank, ApplicationModel::Redis],
        64,
        4,
        ExperimentScale::quick(),
        21,
    )
    .unwrap();
    for workload in [ApplicationModel::Pagerank, ApplicationModel::Redis] {
        let dm = rows
            .iter()
            .find(|r| r.kind == TopologyKind::DistributedMesh && r.workload == workload)
            .unwrap();
        let sf = rows
            .iter()
            .find(|r| r.kind == TopologyKind::StringFigure && r.workload == workload)
            .unwrap();
        assert!(
            sf.requests_per_cycle >= dm.requests_per_cycle * 0.9,
            "{workload}: SF {} vs DM {}",
            sf.requests_per_cycle,
            dm.requests_per_cycle
        );
        assert!(
            sf.average_round_trip_cycles <= dm.average_round_trip_cycles * 1.2,
            "{workload}: SF latency should not be much worse than mesh"
        );
    }
}

#[test]
fn figure12_trend_sf_uses_less_network_energy_per_request_than_mesh() {
    let rows = workload_study(
        &RunContext::new(),
        &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
        &[ApplicationModel::Memcached],
        100,
        4,
        ExperimentScale::quick(),
        31,
    )
    .unwrap();
    let dm = &rows[0];
    let sf = &rows[1];
    // Energy per request tracks hop count; SF's shorter paths at 100 nodes
    // must show up as lower (or at worst equal) per-request energy.
    assert!(
        sf.energy_per_request_pj <= dm.energy_per_request_pj * 1.05,
        "SF {} pJ vs DM {} pJ",
        sf.energy_per_request_pj,
        dm.energy_per_request_pj
    );
}

#[test]
fn figure9b_power_gating_study_produces_consistent_rows() {
    let rows = power_gating_study(
        &RunContext::new(),
        60,
        &[0.0, 0.2, 0.4],
        ApplicationModel::SparkWordcount,
        4,
        ExperimentScale::quick(),
        5,
    )
    .unwrap();
    assert_eq!(rows.len(), 3);
    assert!((rows[0].normalized_edp - 1.0).abs() < 1e-9);
    assert!(rows[1].gated_nodes >= 8);
    assert!(rows[2].gated_nodes > rows[1].gated_nodes);
    for row in &rows {
        assert!(row.energy_delay_product > 0.0);
        assert!(row.average_round_trip_cycles > 0.0);
    }
}

#[test]
fn socket_placement_spreads_processors() {
    let sockets = socket_nodes(1296, 4);
    assert_eq!(sockets.len(), 4);
    assert_eq!(sockets[0], NodeId::new(0));
    assert_eq!(sockets[1], NodeId::new(324));
    assert_eq!(sockets[3], NodeId::new(972));
}
