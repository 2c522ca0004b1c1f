//! Reference equivalence: the flat candidate arrays of [`GreediestRouting`]
//! against a naive oracle that scores straight off
//! [`RoutingTable::candidates`] with one [`CoordinateVector`] per entry —
//! the layout the protocol was first written for. Every decision and
//! virtual channel must agree exactly, including tie-breaks.

use super::*;
use crate::protocol::{TableLoad, ZeroLoad};
use crate::table::{HopCount, RoutingTable};
use sf_types::{circular_distance, CoordinateVector, DeterministicRng, NetworkConfig};

/// MD through the scalar per-coordinate API, independent of the slice
/// kernel the flat arrays use.
fn oracle_md(a: &CoordinateVector, b: &CoordinateVector) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| circular_distance(x, y))
        .fold(f64::INFINITY, f64::min)
}

/// First minimum by score, in iteration order.
fn first_min(cands: impl Iterator<Item = (NodeId, f64)>) -> Option<NodeId> {
    let mut best: Option<(NodeId, f64)> = None;
    for (node, score) in cands {
        if best.is_none_or(|(_, b)| score < b) {
            best = Some((node, score));
        }
    }
    best.map(|(node, _)| node)
}

struct Oracle {
    coordinates: Vec<CoordinateVector>,
    /// Per router, in node-id order: `(neighbour, table coordinates)`.
    one_hop: Vec<Vec<(NodeId, CoordinateVector)>>,
    /// Per router: `(via, target, table coordinates)`.
    two_hop: Vec<Vec<(NodeId, NodeId, CoordinateVector)>>,
}

impl Oracle {
    fn new(graph: &AdjacencyGraph, spaces: &VirtualSpaces, quantized: bool) -> Self {
        let mut one_hop = Vec::new();
        let mut two_hop = Vec::new();
        for v in graph.nodes() {
            let (mut one, mut two) = (Vec::new(), Vec::new());
            for cand in RoutingTable::build(v, graph, spaces).candidates(quantized) {
                match cand.hop {
                    HopCount::One => one.push((cand.node, cand.coordinates)),
                    HopCount::Two => two.push((cand.via, cand.node, cand.coordinates)),
                }
            }
            one.sort_by_key(|(node, _)| *node);
            one_hop.push(one);
            two_hop.push(two);
        }
        Self {
            coordinates: spaces.all_coordinates().to_vec(),
            one_hop,
            two_hop,
        }
    }

    /// The greedy choice, or `None` when the improving set is empty (the
    /// BFS fallback case).
    fn next_hop(
        &self,
        options: GreediestOptions,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> Option<NodeId> {
        if at == dest {
            return Some(dest);
        }
        let dest_coords = &self.coordinates[dest.index()];
        let current = oracle_md(&self.coordinates[at.index()], dest_coords);
        let one_hop = &self.one_hop[at.index()];
        if one_hop.iter().any(|(node, _)| *node == dest) {
            return Some(dest);
        }
        let score = |w: NodeId, own: f64| {
            if !options.use_two_hop {
                return own;
            }
            self.two_hop[at.index()]
                .iter()
                .filter(|(via, _, _)| *via == w)
                .map(|(_, t, c)| {
                    if *t == dest {
                        0.0
                    } else {
                        oracle_md(c, dest_coords)
                    }
                })
                .fold(own, f64::min)
        };
        let improving: Vec<(NodeId, f64)> = one_hop
            .iter()
            .filter_map(|(node, c)| {
                let md = oracle_md(c, dest_coords);
                (md < current).then(|| (*node, score(*node, md)))
            })
            .collect();
        let overall = first_min(improving.iter().copied())?;
        if options.adaptive && ctx.first_hop {
            let under = first_min(
                improving
                    .iter()
                    .copied()
                    .filter(|(node, _)| loads.load(at, *node) < ctx.adaptive_threshold),
            );
            if let Some(under) = under {
                return Some(under);
            }
        }
        Some(overall)
    }

    fn virtual_channel(&self, at: NodeId, dest: NodeId) -> VirtualChannelId {
        let (a, d) = (
            &self.coordinates[at.index()],
            &self.coordinates[dest.index()],
        );
        let mut best = (0, f64::INFINITY);
        for (i, (x, y)) in a.iter().zip(d.iter()).enumerate() {
            let dist = circular_distance(x, y);
            if dist < best.1 {
                best = (i, dist);
            }
        }
        let space = sf_types::SpaceId::new(best.0);
        if d.coordinate(space) >= a.coordinate(space) {
            VirtualChannelId::UP
        } else {
            VirtualChannelId::DOWN
        }
    }
}

/// The flat arrays hold exactly what the routing tables record.
fn assert_same_candidates(flat: &GreediestRouting, graph: &AdjacencyGraph, spaces: &VirtualSpaces) {
    let quantized = flat.options.use_quantized;
    for v in graph.nodes() {
        assert_eq!(flat.coords_of(v.index()), spaces.coordinates(v).values());
        let cands = RoutingTable::build(v, graph, spaces).candidates(quantized);
        let want_one: Vec<u32> = cands
            .iter()
            .filter(|c| c.hop == HopCount::One)
            .map(|c| c.node.index() as u32)
            .collect();
        assert_eq!(
            flat.neighbours(v.index()),
            want_one.as_slice(),
            "router {v}"
        );
        let mut want_two: Vec<(u32, u32)> = cands
            .iter()
            .filter(|c| c.hop == HopCount::Two)
            .map(|c| (c.node.index() as u32, c.via.index() as u32))
            .collect();
        let mut got_two: Vec<(u32, u32)> = csr(&flat.one_hop_start, v.index())
            .flat_map(|e| {
                let via = flat.one_hop[e];
                flat.two_hop[csr(&flat.two_hop_start, e)]
                    .iter()
                    .map(move |&t| (t, via))
            })
            .collect();
        want_two.sort_unstable();
        got_two.sort_unstable();
        assert_eq!(got_two, want_two, "router {v}: two-hop (target, via)");
        for c in &cands {
            assert_eq!(
                flat.table_coords_of(c.node.index() as u32),
                c.coordinates.values(),
                "router {v}: coordinates of {}",
                c.node
            );
        }
    }
}

/// Checks all 8 option combinations on `pairs`. Each (pair, options) is
/// decided under one of the four (load, first-hop) settings, rotating with
/// the pair index so every setting covers a quarter of the pairs.
///
/// `before` is the graph the flat protocol is first built on; it is then
/// resynced to `topo`'s current state, which the oracle is built on.
fn check_equivalence(
    before: &AdjacencyGraph,
    topo: &StringFigureTopology,
    pairs: &[(usize, usize)],
) {
    let (graph, spaces) = (topo.graph(), topo.spaces());
    let mut rng = DeterministicRng::new(0x0AC1E);
    let mut table = TableLoad::new();
    for m in graph.active_nodes() {
        for w in graph.active_neighbors(m) {
            table.set(m, w, rng.next_f64());
        }
    }
    let settings: [(&dyn PortLoadEstimator, bool); 4] = [
        (&ZeroLoad, true),
        (&table, true),
        (&ZeroLoad, false),
        (&table, false),
    ];
    for use_quantized in [false, true] {
        // The candidate sets depend on the quantisation flag only.
        let oracle = Oracle::new(graph, spaces, use_quantized);
        for bits in 0..4 {
            let opts = GreediestOptions {
                use_two_hop: bits & 1 != 0,
                adaptive: bits & 2 != 0,
                use_quantized,
            };
            let mut flat = GreediestRouting::from_parts(before, spaces, opts);
            flat.resync(graph, spaces);
            if bits == 0 {
                assert_same_candidates(&flat, graph, spaces);
            }
            for (i, &(at, dest)) in pairs.iter().enumerate() {
                let (at, dest) = (NodeId::new(at), NodeId::new(dest));
                let (loads, first_hop) = settings[(i + bits) % settings.len()];
                let ctx = RoutingContext {
                    first_hop,
                    ..RoutingContext::default()
                };
                let fallbacks = flat.fallback_count();
                let got = flat.next_hop(at, dest, loads, &ctx).unwrap();
                let want = oracle.next_hop(opts, at, dest, loads, &ctx);
                match want {
                    Some(want) => assert_eq!(got, want, "{opts:?} {first_hop} {at}->{dest}"),
                    None => assert_eq!(got, flat.bfs_next_hop(at, dest).unwrap()),
                }
                assert_eq!(
                    flat.fallback_count() - fallbacks,
                    u64::from(want.is_none()),
                    "{opts:?} {at}->{dest}"
                );
                assert_eq!(
                    flat.virtual_channel(at, got, dest),
                    oracle.virtual_channel(at, dest),
                    "{at}->{dest}"
                );
            }
        }
    }
}

fn all_pairs(topo: &StringFigureTopology) -> Vec<(usize, usize)> {
    let live: Vec<usize> = topo.graph().active_nodes().map(NodeId::index).collect();
    live.iter()
        .flat_map(|&s| live.iter().map(move |&t| (s, t)))
        .collect()
}

fn sampled_pairs(topo: &StringFigureTopology) -> Vec<(usize, usize)> {
    let live: Vec<usize> = topo.graph().active_nodes().map(NodeId::index).collect();
    live.iter()
        .step_by(13)
        .flat_map(|&s| live.iter().step_by(7).map(move |&t| (s, t)))
        .collect()
}

/// Gates 8 nodes spread over the id range, skipping any the topology
/// refuses (a gate that would disconnect the network).
fn gate_eight(topo: &mut StringFigureTopology) {
    let n = topo.graph().num_nodes();
    let mut gated = 0;
    let mut candidate = 1;
    while gated < 8 {
        if topo.gate_node(NodeId::new(candidate % n)).is_ok() {
            gated += 1;
        }
        candidate += n / 9 + 1;
    }
}

fn check_topology(
    nodes: usize,
    ports: usize,
    pairs: fn(&StringFigureTopology) -> Vec<(usize, usize)>,
) {
    let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(7);
    let mut topo = StringFigureTopology::generate(&config).unwrap();
    let healthy = topo.graph().clone();
    check_equivalence(&healthy, &topo, &pairs(&topo));
    gate_eight(&mut topo);
    assert_eq!(topo.graph().num_active_nodes(), nodes - 8);
    check_equivalence(&healthy, &topo, &pairs(&topo));
}

#[test]
fn flat_routing_matches_table_oracle_64x4() {
    check_topology(64, 4, all_pairs);
}

#[test]
fn flat_routing_matches_table_oracle_200x8() {
    check_topology(200, 8, all_pairs);
}

#[test]
fn flat_routing_matches_table_oracle_1296x8_sampled() {
    check_topology(1296, 8, sampled_pairs);
}
