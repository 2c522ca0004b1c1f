//! Cross-design integration tests: the qualitative trends the paper's
//! evaluation reports must hold in this reproduction (who wins, and roughly
//! by how much), at reduced scale so the suite stays fast.

use sf_workloads::SyntheticPattern;
use stringfigure::experiments::ExperimentScale;
use stringfigure::study::bisection::bisection_study;
use stringfigure::study::fig05::surg_path_length_study;
use stringfigure::study::fig08::configuration_table;
use stringfigure::study::fig09a::hop_count_study;
use stringfigure::study::fig10::saturation_study;
use stringfigure::{NetworkInstance, RunContext, TopologyKind};

#[test]
fn figure5_trend_random_topologies_have_flat_path_length_scaling() {
    let rows = surg_path_length_study(&RunContext::new(), &[100, 400], 2).unwrap();
    let small = &rows[0];
    let large = &rows[1];
    // 4x more nodes costs well under one extra hop for all three random
    // designs, and String Figure tracks Jellyfish and S2 closely.
    assert!(large.string_figure - small.string_figure < 1.0);
    assert!(large.jellyfish - small.jellyfish < 1.0);
    assert!((large.string_figure - large.s2).abs() < 0.8);
    assert!((large.string_figure - large.jellyfish).abs() < 1.2);
}

#[test]
fn figure9a_trend_mesh_hops_blow_up_but_sf_stays_flat() {
    let kinds = [
        TopologyKind::DistributedMesh,
        TopologyKind::OptimizedMesh,
        TopologyKind::StringFigure,
    ];
    let rows = hop_count_study(&RunContext::new(), &kinds, &[64, 256], 300, 7).unwrap();
    let get = |kind, nodes| {
        rows.iter()
            .find(|r| r.kind == kind && r.nodes == nodes)
            .unwrap()
            .average_routed_hops
    };
    let dm_growth =
        get(TopologyKind::DistributedMesh, 256) / get(TopologyKind::DistributedMesh, 64);
    let sf_growth = get(TopologyKind::StringFigure, 256) / get(TopologyKind::StringFigure, 64);
    assert!(
        dm_growth > sf_growth,
        "mesh hop growth {dm_growth} should exceed SF growth {sf_growth}"
    );
    // At 256 nodes SF should already be clearly ahead of the plain mesh.
    assert!(get(TopologyKind::DistributedMesh, 256) > 1.5 * get(TopologyKind::StringFigure, 256));
    // ODM improves on DM but does not catch SF at this scale.
    assert!(get(TopologyKind::OptimizedMesh, 256) < get(TopologyKind::DistributedMesh, 256));
}

#[test]
fn figure9a_trend_fb_is_shortest_but_needs_high_radix() {
    let fb = NetworkInstance::build(TopologyKind::FlattenedButterfly, 256, 1).unwrap();
    let sf = NetworkInstance::build(TopologyKind::StringFigure, 256, 1).unwrap();
    assert!(fb.average_shortest_path() < sf.average_shortest_path());
    assert!(
        fb.router_ports() > 3 * sf.router_ports(),
        "FB radix {} vs SF {}",
        fb.router_ports(),
        sf.router_ports()
    );
}

#[test]
fn figure10_trend_sf_saturates_later_than_mesh_on_uniform_random() {
    let rows = saturation_study(
        &RunContext::new(),
        &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
        49,
        SyntheticPattern::UniformRandom,
        &[0.02, 0.08, 0.20, 0.40, 0.70],
        ExperimentScale::quick(),
        11,
    )
    .unwrap();
    let dm = rows[0].saturation_percent.unwrap_or(0.0);
    let sf = rows[1].saturation_percent.unwrap_or(0.0);
    assert!(sf >= dm, "SF saturation {sf}% must not trail mesh {dm}%");
}

#[test]
fn bisection_bandwidth_of_sf_matches_or_beats_mesh() {
    let rows = bisection_study(
        &RunContext::new(),
        &[TopologyKind::DistributedMesh, TopologyKind::StringFigure],
        64,
        8,
        2,
    )
    .unwrap();
    let dm = &rows[0];
    let sf = &rows[1];
    assert!(sf.average >= dm.average * 0.9);
}

#[test]
fn table2_and_figure8_configuration_summary() {
    let rows = configuration_table(&RunContext::new(), &TopologyKind::ALL, &[61, 256], 3).unwrap();
    assert_eq!(rows.len(), 12);
    for row in &rows {
        assert!(row.links > 0);
        assert!(row.router_ports >= 4);
        match row.kind {
            TopologyKind::StringFigure => {
                assert!(row.supports_reconfiguration);
                assert!(!row.requires_high_radix);
                assert!(row.router_ports <= 8);
            }
            TopologyKind::FlattenedButterfly | TopologyKind::AdaptedFlattenedButterfly => {
                assert!(row.requires_high_radix);
                if row.nodes == 256 {
                    assert!(row.router_ports > 8);
                }
            }
            _ => assert!(!row.supports_reconfiguration),
        }
    }
    // AFB uses fewer ports than FB at the same scale.
    let fb = rows
        .iter()
        .find(|r| r.kind == TopologyKind::FlattenedButterfly && r.nodes == 256)
        .unwrap();
    let afb = rows
        .iter()
        .find(|r| r.kind == TopologyKind::AdaptedFlattenedButterfly && r.nodes == 256)
        .unwrap();
    assert!(afb.router_ports < fb.router_ports);
}

#[test]
fn every_design_routes_loop_free_on_non_power_of_two_sizes() {
    for kind in TopologyKind::ALL {
        let instance = NetworkInstance::build(kind, 61, 5).unwrap();
        let hops = instance.average_routed_hops(200).unwrap();
        assert!(hops >= 1.0, "{kind}");
        assert!(hops < 12.0, "{kind}: {hops}");
    }
}
