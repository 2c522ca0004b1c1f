//! String Figure's adaptive greediest routing protocol.
//!
//! Forwarding works purely on coordinates (Section III-B):
//!
//! 1. The router computes the minimum circular distance (MD) from each usable
//!    one-hop neighbour to the destination and considers the *improving set*
//!    `W = { w : MD(w, t) < MD(s, t) }`. Forwarding to a member of `W` makes
//!    the MD strictly decrease at every hop, which is the progressive,
//!    distance-reducing property behind the paper's loop-freedom proof
//!    (Appendix A, Lemmas 1–2, Proposition 3).
//! 2. Two-hop entries of the routing table refine the choice *within* `W`:
//!    each improving neighbour is scored by the best MD reachable through it
//!    in at most one more hop, so the router effectively looks two hops ahead
//!    without giving up the per-hop progress guarantee.
//! 3. Adaptive routing diverts only the first hop: among the improving
//!    neighbours the source prefers an output port whose queue occupancy is
//!    below the configured threshold (default 50%).
//! 4. Two virtual channels avoid buffer-dependency deadlocks: a packet uses
//!    the *up* channel when the destination's coordinate (in the MD-defining
//!    space) is above the current node's, and the *down* channel otherwise.
//!
//! After power gating, the improving set of a router can momentarily be empty
//! (its ring neighbour in the best space may be offline). The hardware
//! equivalent would stall until reconfiguration completes; the protocol here
//! falls back to a breadth-first-search next hop on the live graph and counts
//! the event, so experiments can report how often the greedy invariant had to
//! be bypassed.

use crate::protocol::{PortLoadEstimator, RoutingContext, RoutingProtocol};
use sf_topology::{AdjacencyGraph, StringFigureTopology, VirtualSpaces};
use sf_types::{closest_space, min_circular_distance, NodeId, SfError, SfResult, VirtualChannelId};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Tuning knobs of the greediest protocol.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreediestOptions {
    /// Use two-hop routing-table entries to refine the choice among improving
    /// neighbours (the paper's default, per its sensitivity study).
    pub use_two_hop: bool,
    /// Adapt the first-hop decision to port load.
    pub adaptive: bool,
    /// Route on the 7-bit quantised coordinates the hardware table stores
    /// instead of full precision.
    pub use_quantized: bool,
}

impl Default for GreediestOptions {
    fn default() -> Self {
        Self {
            use_two_hop: true,
            adaptive: true,
            use_quantized: false,
        }
    }
}

/// The greediest routing protocol over a String Figure (or S2) topology.
///
/// The per-router routing tables are held flat: every router's one-hop
/// neighbours in one CSR array, each one-hop entry's two-hop targets (those
/// whose first hop is that neighbour) in a second, and all coordinates in
/// two contiguous `nodes × spaces` arrays. A greedy decision reads only the
/// ids it needs plus coordinate rows; it never hashes or allocates. The
/// [`RoutingTable`](crate::RoutingTable) of a router holds the same
/// information entry by entry and is built on demand for storage studies.
///
/// # Examples
///
/// ```
/// use sf_routing::{GreediestRouting, trace_route};
/// use sf_topology::StringFigureTopology;
/// use sf_types::{NetworkConfig, NodeId};
///
/// let topo = StringFigureTopology::generate(&NetworkConfig::new(64, 4)?)?;
/// let routing = GreediestRouting::new(&topo);
/// let route = trace_route(&routing, NodeId::new(3), NodeId::new(40), 64)?;
/// assert!(!route.has_loop());
/// assert!(route.hops() <= 12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct GreediestRouting {
    options: GreediestOptions,
    /// Virtual spaces per node: the row length of both coordinate arrays.
    spaces: usize,
    /// Full-precision coordinates, `coords[node * spaces + space]`.
    coords: Vec<f64>,
    /// The coordinates the routing tables store, 7-bit quantised when
    /// `options.use_quantized`; same layout as `coords`.
    table_coords: Vec<f64>,
    active: Vec<bool>,
    /// Active neighbours of router `v`:
    /// `one_hop[one_hop_start[v]..one_hop_start[v + 1]]`, in adjacency order
    /// (ascending node id).
    one_hop_start: Vec<u32>,
    one_hop: Vec<u32>,
    /// Two-hop targets reached through one-hop entry `e` (an index into
    /// `one_hop`): `two_hop[two_hop_start[e]..two_hop_start[e + 1]]`.
    two_hop_start: Vec<u32>,
    two_hop: Vec<u32>,
    fallback_routes: AtomicU64,
    decisions: AtomicU64,
}

fn csr(start: &[u32], i: usize) -> Range<usize> {
    start[i] as usize..start[i + 1] as usize
}

impl GreediestRouting {
    /// Builds the protocol state (all per-router tables) for a String Figure
    /// topology with default options.
    #[must_use]
    pub fn new(topology: &StringFigureTopology) -> Self {
        Self::with_options(topology, GreediestOptions::default())
    }

    /// Builds the protocol state with explicit options.
    #[must_use]
    pub fn with_options(topology: &StringFigureTopology, options: GreediestOptions) -> Self {
        Self::from_parts(topology.graph(), topology.spaces(), options)
    }

    /// Builds the protocol from a raw graph plus virtual spaces (also used for
    /// the S2 baseline, which shares the coordinate structure).
    ///
    /// The candidate sets equal what
    /// [`RoutingTable::build`](crate::RoutingTable::build) records: every
    /// active neighbour is a one-hop entry, and every other active node two
    /// hops away is a two-hop entry whose `via` is the first one-hop
    /// neighbour, in adjacency order, that reaches it.
    #[must_use]
    pub fn from_parts(
        graph: &AdjacencyGraph,
        spaces: &VirtualSpaces,
        options: GreediestOptions,
    ) -> Self {
        let n = graph.num_nodes();
        let mut coords = Vec::with_capacity(n * spaces.num_spaces());
        let mut table_coords = Vec::with_capacity(coords.capacity());
        for vector in spaces.all_coordinates() {
            for c in vector.iter() {
                coords.push(c.value());
                table_coords.push(if options.use_quantized {
                    c.quantize().to_coordinate().value()
                } else {
                    c.value()
                });
            }
        }

        let mut one_hop_start = Vec::with_capacity(n + 1);
        let mut one_hop = Vec::new();
        one_hop_start.push(0);
        for v in graph.nodes() {
            one_hop.extend(graph.active_neighbors(v).iter().map(|w| w.index() as u32));
            one_hop_start.push(one_hop.len() as u32);
        }

        // `seen[t] == owner + 1` once `t` is the owner itself, one of its
        // one-hop neighbours, or a two-hop target already given its via.
        let mut seen = vec![0u32; n];
        let mut two_hop_start = Vec::with_capacity(one_hop.len() + 1);
        let mut two_hop = Vec::new();
        two_hop_start.push(0);
        for owner in 0..n {
            let stamp = owner as u32 + 1;
            let neighbours = &one_hop[csr(&one_hop_start, owner)];
            seen[owner] = stamp;
            for &w in neighbours {
                seen[w as usize] = stamp;
            }
            for &w in neighbours {
                for &t in &one_hop[csr(&one_hop_start, w as usize)] {
                    if seen[t as usize] != stamp {
                        seen[t as usize] = stamp;
                        two_hop.push(t);
                    }
                }
                two_hop_start.push(two_hop.len() as u32);
            }
        }

        Self {
            options,
            spaces: spaces.num_spaces(),
            coords,
            table_coords,
            active: graph.nodes().map(|v| graph.is_active(v)).collect(),
            one_hop_start,
            one_hop,
            two_hop_start,
            two_hop,
            fallback_routes: AtomicU64::new(0),
            decisions: AtomicU64::new(0),
        }
    }

    /// Rebuilds all routing state from the (possibly reconfigured) topology.
    /// The paper performs the equivalent by flipping blocking/valid/hop bits
    /// in the affected routers; rebuilding gives the same end state. The
    /// decision and fallback counters carry over.
    pub fn resync(&mut self, graph: &AdjacencyGraph, spaces: &VirtualSpaces) {
        *self = Self {
            fallback_routes: std::mem::take(&mut self.fallback_routes),
            decisions: std::mem::take(&mut self.decisions),
            ..Self::from_parts(graph, spaces, self.options)
        };
    }

    /// The options this protocol instance was built with.
    #[must_use]
    pub fn options(&self) -> &GreediestOptions {
        &self.options
    }

    /// Number of forwarding decisions that had to fall back to BFS because no
    /// improving neighbour existed (0 on an un-gated String Figure topology).
    #[must_use]
    pub fn fallback_count(&self) -> u64 {
        self.fallback_routes.load(Ordering::Relaxed)
    }

    /// Total number of forwarding decisions made.
    #[must_use]
    pub fn decision_count(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Minimum circular distance between two nodes' coordinate vectors.
    #[must_use]
    pub fn md(&self, a: NodeId, b: NodeId) -> f64 {
        min_circular_distance(self.coords_of(a.index()), self.coords_of(b.index()))
    }

    fn coords_of(&self, node: usize) -> &[f64] {
        &self.coords[node * self.spaces..(node + 1) * self.spaces]
    }

    fn table_coords_of(&self, node: u32) -> &[f64] {
        let node = node as usize;
        &self.table_coords[node * self.spaces..(node + 1) * self.spaces]
    }

    fn neighbours(&self, node: usize) -> &[u32] {
        &self.one_hop[csr(&self.one_hop_start, node)]
    }

    /// The best MD to `dest` reachable through one-hop entry `entry` within
    /// one more hop, starting from the neighbour's own MD.
    fn two_hop_score(&self, entry: usize, dest: u32, own_md: f64, dest_coords: &[f64]) -> f64 {
        let mut best = own_md;
        for &t in &self.two_hop[csr(&self.two_hop_start, entry)] {
            let md = if t == dest {
                0.0
            } else {
                min_circular_distance(self.table_coords_of(t), dest_coords)
            };
            if md < best {
                best = md;
            }
        }
        best
    }

    fn check(&self, node: NodeId) -> SfResult<()> {
        if node.index() >= self.active.len() {
            return Err(SfError::UnknownNode {
                node: node.index(),
                network_size: self.active.len(),
            });
        }
        if !self.active[node.index()] {
            return Err(SfError::NodeOffline { node: node.index() });
        }
        Ok(())
    }

    /// BFS escape hatch used when the greedy improving set is empty (only
    /// possible transiently after reconfiguration).
    fn bfs_next_hop(&self, at: NodeId, dest: NodeId) -> SfResult<NodeId> {
        let n = self.active.len();
        let mut prev: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        visited[at.index()] = true;
        let mut queue = VecDeque::new();
        queue.push_back(at.index());
        while let Some(cur) = queue.pop_front() {
            if cur == dest.index() {
                // Walk back to the first hop.
                let mut hop = cur;
                while let Some(p) = prev[hop] {
                    if p == at.index() {
                        return Ok(NodeId::new(hop));
                    }
                    hop = p;
                }
                return Ok(NodeId::new(hop));
            }
            for &next in self.neighbours(cur) {
                let ni = next as usize;
                if !visited[ni] && self.active[ni] {
                    visited[ni] = true;
                    prev[ni] = Some(cur);
                    queue.push_back(ni);
                }
            }
        }
        Err(SfError::RoutingStuck {
            at: at.index(),
            destination: dest.index(),
        })
    }
}

impl RoutingProtocol for GreediestRouting {
    fn name(&self) -> &'static str {
        if self.options.adaptive {
            "greediest-adaptive"
        } else {
            "greediest"
        }
    }

    fn next_hop(
        &self,
        at: NodeId,
        dest: NodeId,
        loads: &dyn PortLoadEstimator,
        ctx: &RoutingContext,
    ) -> SfResult<NodeId> {
        self.check(at)?;
        self.check(dest)?;
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if at == dest {
            return Ok(dest);
        }

        let dest_id = dest.index() as u32;
        let dest_coords = self.coords_of(dest.index());
        let current_md = min_circular_distance(self.coords_of(at.index()), dest_coords);
        let entries = csr(&self.one_hop_start, at.index());

        // Direct neighbour? Deliver immediately. (Every candidate is active:
        // the arrays are rebuilt from the live graph on each resync.)
        if self.one_hop[entries.clone()].contains(&dest_id) {
            return Ok(dest);
        }

        // Stream the improving set W (one-hop neighbours strictly closer to
        // the destination in MD) in ascending node-id order. Strict `<`
        // keeps the first minimum, so ties go to the smallest id. Each
        // improving neighbour is scored by the best MD reachable through it
        // within one more hop (two-hop lookahead), if enabled.
        let adaptive = self.options.adaptive && ctx.first_hop;
        let mut best_overall: Option<(NodeId, f64)> = None;
        // Best-scored neighbour whose output queue is below the adaptive
        // threshold; if every improving port is congested, the overall best
        // wins (the paper's behaviour).
        let mut best_under: Option<(NodeId, f64)> = None;
        for entry in entries {
            let w = self.one_hop[entry];
            let md = min_circular_distance(self.table_coords_of(w), dest_coords);
            if md >= current_md {
                continue;
            }
            let scored = if self.options.use_two_hop {
                self.two_hop_score(entry, dest_id, md, dest_coords)
            } else {
                md
            };
            let node = NodeId::new(w as usize);
            if best_overall.is_none_or(|(_, best)| scored < best) {
                best_overall = Some((node, scored));
            }
            if adaptive
                && loads.load(at, node) < ctx.adaptive_threshold
                && best_under.is_none_or(|(_, best)| scored < best)
            {
                best_under = Some((node, scored));
            }
        }

        let Some((overall, _)) = best_overall else {
            self.fallback_routes.fetch_add(1, Ordering::Relaxed);
            return self.bfs_next_hop(at, dest);
        };
        if let Some((under, _)) = best_under {
            return Ok(under);
        }
        Ok(overall)
    }

    fn virtual_channel(&self, at: NodeId, _next: NodeId, dest: NodeId) -> VirtualChannelId {
        let at_coords = self.coords_of(at.index());
        let dest_coords = self.coords_of(dest.index());
        let (space, _) = closest_space(at_coords, dest_coords);
        if dest_coords[space.index()] >= at_coords[space.index()] {
            VirtualChannelId::UP
        } else {
            VirtualChannelId::DOWN
        }
    }
}

#[cfg(test)]
mod oracle_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{trace_route, trace_route_with_loads, TableLoad};
    use sf_topology::spaces::paper_figure3_example;
    use sf_types::{minimum_circular_distance, NetworkConfig};

    fn n(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn example() -> (StringFigureTopology, GreediestRouting) {
        let config = NetworkConfig::new(9, 4).unwrap();
        let topo = StringFigureTopology::from_spaces(config, paper_figure3_example()).unwrap();
        let routing = GreediestRouting::new(&topo);
        (topo, routing)
    }

    #[test]
    fn paper_worked_example_routes_7_to_2() {
        // Figure 6(a): Node-7 forwards a packet for Node-2 to the neighbour
        // with the smallest MD; the route must reach Node-2 loop-free in a
        // couple of hops.
        let (_, routing) = example();
        let route = trace_route(&routing, n(7), n(2), 9).unwrap();
        assert_eq!(route.source(), n(7));
        assert_eq!(route.destination(), n(2));
        assert!(!route.has_loop());
        assert!(route.hops() <= 3, "route {:?}", route.path);
        // Every hop strictly reduces the MD to the destination.
        for w in route.path.windows(2) {
            assert!(routing.md(w[1], n(2)) < routing.md(w[0], n(2)) || w[1] == n(2));
        }
    }

    #[test]
    fn all_pairs_loop_free_on_small_network() {
        let (_, routing) = example();
        for s in 0..9 {
            for t in 0..9 {
                let route = trace_route(&routing, n(s), n(t), 9).unwrap();
                assert!(!route.has_loop(), "{s}->{t}: {:?}", route.path);
                assert_eq!(route.destination(), n(t));
            }
        }
        assert_eq!(routing.fallback_count(), 0);
    }

    #[test]
    fn loop_free_on_generated_networks() {
        for &(nodes, ports, seed) in &[(61usize, 4usize, 1u64), (128, 4, 2), (200, 8, 3)] {
            let config = NetworkConfig::new(nodes, ports).unwrap().with_seed(seed);
            let topo = StringFigureTopology::generate(&config).unwrap();
            let routing = GreediestRouting::new(&topo);
            let mut max_hops = 0;
            for s in (0..nodes).step_by(7) {
                for t in (0..nodes).step_by(11) {
                    let route = trace_route(&routing, n(s), n(t), nodes).unwrap();
                    assert!(!route.has_loop(), "N={nodes} {s}->{t}");
                    max_hops = max_hops.max(route.hops());
                }
            }
            assert!(
                max_hops <= 3 * ports,
                "N={nodes}: greedy route of {max_hops} hops is suspiciously long"
            );
            assert_eq!(routing.fallback_count(), 0, "N={nodes}");
        }
    }

    #[test]
    fn md_matches_manual_computation() {
        let (topo, routing) = example();
        let a = topo.coordinates(n(7));
        let b = topo.coordinates(n(2));
        assert!((routing.md(n(7), n(2)) - minimum_circular_distance(a, b)).abs() < 1e-12);
        assert_eq!(routing.md(n(3), n(3)), 0.0);
    }

    #[test]
    fn direct_neighbor_is_delivered_immediately() {
        let (topo, routing) = example();
        let neighbor = topo.graph().active_neighbors(n(0))[0];
        let hop = routing
            .next_hop(
                n(0),
                neighbor,
                &crate::protocol::ZeroLoad,
                &RoutingContext::default(),
            )
            .unwrap();
        assert_eq!(hop, neighbor);
    }

    #[test]
    fn self_destination_returns_self() {
        let (_, routing) = example();
        let hop = routing
            .next_hop(
                n(4),
                n(4),
                &crate::protocol::ZeroLoad,
                &RoutingContext::default(),
            )
            .unwrap();
        assert_eq!(hop, n(4));
    }

    #[test]
    fn unknown_and_offline_nodes_are_rejected() {
        let config = NetworkConfig::new(16, 4).unwrap();
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        topo.gate_node(n(5)).unwrap();
        let routing = GreediestRouting::new(&topo);
        let ctx = RoutingContext::default();
        assert!(matches!(
            routing.next_hop(n(0), n(99), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::UnknownNode { .. })
        ));
        assert!(matches!(
            routing.next_hop(n(0), n(5), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::NodeOffline { .. })
        ));
        assert!(matches!(
            routing.next_hop(n(5), n(0), &crate::protocol::ZeroLoad, &ctx),
            Err(SfError::NodeOffline { .. })
        ));
    }

    #[test]
    fn routing_still_works_after_gating_with_resync() {
        let config = NetworkConfig::new(64, 4).unwrap();
        let mut topo = StringFigureTopology::generate(&config).unwrap();
        for i in [3usize, 17, 31, 45] {
            topo.gate_node(n(i)).unwrap();
        }
        let mut routing = GreediestRouting::new(&topo);
        routing.resync(topo.graph(), topo.spaces());
        let live: Vec<usize> = (0..64).filter(|i| !topo.is_gated(n(*i))).collect();
        for &s in live.iter().step_by(5) {
            for &t in live.iter().step_by(7) {
                let route = trace_route(&routing, n(s), n(t), 64).unwrap();
                assert!(!route.has_loop());
                assert_eq!(route.destination(), n(t));
                // Gated nodes never appear on a route.
                for hop in &route.path {
                    assert!(!topo.is_gated(*hop));
                }
            }
        }
    }

    #[test]
    fn adaptive_first_hop_avoids_congested_port() {
        let (_, routing) = example();
        // Find a source/destination with at least two improving neighbours.
        let mut found = false;
        'outer: for s in 0..9 {
            for t in 0..9 {
                if s == t {
                    continue;
                }
                let ctx = RoutingContext::default();
                let idle_choice = routing
                    .next_hop(n(s), n(t), &crate::protocol::ZeroLoad, &ctx)
                    .unwrap();
                if idle_choice == n(t) {
                    continue;
                }
                // Congest the idle choice and see whether the router diverts.
                let mut loads = TableLoad::new();
                loads.set(n(s), idle_choice, 0.9);
                let diverted = routing.next_hop(n(s), n(t), &loads, &ctx).unwrap();
                if diverted != idle_choice {
                    found = true;
                    // The diverted hop must still make greedy progress.
                    assert!(routing.md(diverted, n(t)) < routing.md(n(s), n(t)));
                    break 'outer;
                }
            }
        }
        assert!(found, "no source/destination pair exercised path diversity");
    }

    #[test]
    fn adaptive_divergence_only_on_first_hop() {
        let (_, routing) = example();
        let mut loads = TableLoad::new();
        for s in 0..9 {
            for t in 0..9 {
                loads.set(n(s), n(t), 0.9);
            }
        }
        // With every port congested the router falls back to the pure
        // greediest choice, so routes still complete loop-free.
        for s in 0..9 {
            for t in 0..9 {
                let route = trace_route_with_loads(&routing, n(s), n(t), 9, &loads).unwrap();
                assert!(!route.has_loop());
            }
        }
    }

    #[test]
    fn non_adaptive_and_one_hop_only_options() {
        let config = NetworkConfig::new(100, 4).unwrap();
        let topo = StringFigureTopology::generate(&config).unwrap();
        let plain = GreediestRouting::with_options(
            &topo,
            GreediestOptions {
                use_two_hop: false,
                adaptive: false,
                use_quantized: false,
            },
        );
        assert_eq!(plain.name(), "greediest");
        let with_two_hop = GreediestRouting::new(&topo);
        assert_eq!(with_two_hop.name(), "greediest-adaptive");
        let mut total_plain = 0usize;
        let mut total_two_hop = 0usize;
        for s in (0..100).step_by(9) {
            for t in (0..100).step_by(13) {
                total_plain += trace_route(&plain, n(s), n(t), 100).unwrap().hops();
                total_two_hop += trace_route(&with_two_hop, n(s), n(t), 100).unwrap().hops();
            }
        }
        // Two-hop lookahead should never be worse on aggregate.
        assert!(total_two_hop <= total_plain);
    }

    #[test]
    fn quantized_routing_still_loop_free() {
        let config = NetworkConfig::new(128, 4).unwrap();
        let topo = StringFigureTopology::generate(&config).unwrap();
        let routing = GreediestRouting::with_options(
            &topo,
            GreediestOptions {
                use_two_hop: true,
                adaptive: false,
                use_quantized: true,
            },
        );
        for s in (0..128).step_by(11) {
            for t in (0..128).step_by(17) {
                let route = trace_route(&routing, n(s), n(t), 128).unwrap();
                assert!(!route.has_loop());
                assert_eq!(route.destination(), n(t));
            }
        }
    }

    #[test]
    fn virtual_channel_follows_coordinate_direction() {
        let (topo, routing) = example();
        for s in 0..9 {
            for t in 0..9 {
                if s == t {
                    continue;
                }
                let vc = routing.virtual_channel(n(s), n(t), n(t));
                let (space, _) = topo.coordinates(n(s)).closest_space(topo.coordinates(n(t)));
                let up = topo.coordinates(n(t)).coordinate(space)
                    >= topo.coordinates(n(s)).coordinate(space);
                assert_eq!(vc == VirtualChannelId::UP, up);
            }
        }
    }

    #[test]
    fn decision_counters_advance() {
        let (_, routing) = example();
        let before = routing.decision_count();
        let _ = trace_route(&routing, n(0), n(8), 9).unwrap();
        assert!(routing.decision_count() > before);
    }
}
