//! End-to-end integration: topology generation -> routing -> cycle-level
//! simulation, across several network sizes and port counts.

use sf_types::{NodeId, SimulationConfig};
use sf_workloads::SyntheticPattern;
use stringfigure::{StringFigureBuilder, StringFigureNetwork};

fn quick_sim() -> SimulationConfig {
    SimulationConfig {
        max_cycles: 1_200,
        warmup_cycles: 200,
        ..SimulationConfig::default()
    }
}

#[test]
fn arbitrary_network_scales_build_and_route() {
    // The paper's Figure 8 sizes, including the awkward non-power-of-two ones
    // that rigid topologies cannot support.
    for nodes in [16usize, 17, 32, 61, 64, 113, 128] {
        let network = StringFigureNetwork::generate(nodes).unwrap();
        network.check_invariants().unwrap();
        let stats = network.path_stats();
        assert_eq!(stats.unreachable_pairs, 0, "N={nodes}");
        assert!(stats.average < 7.0, "N={nodes}: {}", stats.average);
        // Route between every pair of a sample set.
        for s in (0..nodes).step_by(5) {
            for t in (0..nodes).step_by(7) {
                let route = network.route(NodeId::new(s), NodeId::new(t)).unwrap();
                assert!(!route.has_loop(), "N={nodes} {s}->{t}");
                assert_eq!(route.destination(), NodeId::new(t));
            }
        }
    }
}

#[test]
fn path_length_scales_sublinearly_with_network_size() {
    let small = StringFigureNetwork::generate(64).unwrap().path_stats();
    let large = StringFigureNetwork::generate(512).unwrap().path_stats();
    // 8x the nodes must cost far less than 2x the hops (the paper reports
    // under 5 hops at 1296 nodes).
    assert!(large.average < small.average * 2.0);
    assert!(large.average < 6.0);
    assert!(large.p90 <= 7);
}

#[test]
fn routing_table_storage_is_independent_of_scale() {
    // Compare at the same router radix: per-router storage must grow only
    // with the log2(N) node-number field, not with the table entry count.
    let small = StringFigureBuilder::new(64).ports(4).build().unwrap();
    let large = StringFigureBuilder::new(512).ports(4).build().unwrap();
    let per_router_small = small.routing_storage_bits() as f64 / 64.0;
    let per_router_large = large.routing_storage_bits() as f64 / 512.0;
    assert!(
        per_router_large < per_router_small * 1.6,
        "per-router bits grew from {per_router_small} to {per_router_large}"
    );
    // Exact totals, pinned so that how the tables are built (stored or on
    // demand) can never move the storage study.
    assert_eq!(small.routing_storage_bits(), 32_640);
    assert_eq!(large.routing_storage_bits(), 325_680);
}

#[test]
fn routing_table_storage_after_gating_is_pinned() {
    let mut network = StringFigureBuilder::new(64).ports(4).build().unwrap();
    for i in [3usize, 17, 31, 45] {
        network.gate_node(NodeId::new(i)).unwrap();
    }
    assert_eq!(network.routing_storage_bits(), 30_260);
}

#[test]
fn simulation_pipeline_delivers_traffic_on_all_patterns() {
    let network = StringFigureBuilder::new(36)
        .seed(5)
        .simulation(quick_sim())
        .build()
        .unwrap();
    for pattern in SyntheticPattern::ALL {
        let stats = network.run_pattern(pattern, 0.04, 9).unwrap();
        assert!(stats.injected > 0, "{pattern}");
        assert!(
            stats.delivery_ratio() > 0.85,
            "{pattern}: delivery {}",
            stats.delivery_ratio()
        );
        assert!(stats.average_hops() >= 1.0, "{pattern}");
        assert!(stats.network_energy_pj > 0.0, "{pattern}");
    }
}

#[test]
fn greediest_routing_matches_graph_distance_closely() {
    let network = StringFigureNetwork::generate(100).unwrap();
    let graph_avg = network.path_stats().average;
    let routed_avg = network.average_routed_hops(1_500, 3).unwrap();
    // Greediest routing does not guarantee shortest paths, but with two-hop
    // lookahead it should stay within about one hop of the graph average.
    assert!(routed_avg >= graph_avg - 0.2);
    assert!(
        routed_avg <= graph_avg + 1.5,
        "routed {routed_avg} vs shortest {graph_avg}"
    );
}

#[test]
fn deterministic_generation_is_reproducible_end_to_end() {
    let a = StringFigureBuilder::new(80).seed(42).build().unwrap();
    let b = StringFigureBuilder::new(80).seed(42).build().unwrap();
    assert_eq!(a.topology().graph().edges(), b.topology().graph().edges());
    let route_a = a.route(NodeId::new(1), NodeId::new(70)).unwrap();
    let route_b = b.route(NodeId::new(1), NodeId::new(70)).unwrap();
    assert_eq!(route_a.path, route_b.path);
    let stats_a = a.run_pattern(SyntheticPattern::Tornado, 0.05, 7).unwrap();
    let stats_b = b.run_pattern(SyntheticPattern::Tornado, 0.05, 7).unwrap();
    assert_eq!(stats_a.delivered, stats_b.delivered);
    assert_eq!(stats_a.total_latency_cycles, stats_b.total_latency_cycles);
}

#[test]
fn eight_port_routers_shorten_paths() {
    let four = StringFigureBuilder::new(200).ports(4).build().unwrap();
    let eight = StringFigureBuilder::new(200).ports(8).build().unwrap();
    assert!(eight.path_stats().average < four.path_stats().average);
}
