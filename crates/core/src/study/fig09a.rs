//! Figure 9(a): average hop counts across designs and scales, and the
//! scale-out scenario that pushes the same methodology past 1296 nodes.

use super::{cell_f64, cell_str, cell_usize, RecordRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross2_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;

/// One row of the Figure 9(a) hop-count study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HopCountRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Average shortest-path length (graph metric).
    pub average_shortest_path: f64,
    /// Average hop count actually taken by the design's routing protocol.
    pub average_routed_hops: f64,
    /// Router ports this design needs at this scale.
    pub router_ports: usize,
}

impl Record for HopCountRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "nodes",
            "average_shortest_path",
            "average_routed_hops",
            "router_ports",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.average_shortest_path.into(),
            self.average_routed_hops.into(),
            self.router_ports.into(),
        ]
    }
}

impl RecordRow for HopCountRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, asp, hops, ports] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            average_shortest_path: cell_f64(asp)?,
            average_routed_hops: cell_f64(hops)?,
            router_ports: cell_usize(ports)?,
        })
    }
}

/// Reproduces Figure 9(a): average hop counts of every design across network
/// sizes, using each design's own routing protocol over `samples` random
/// source/destination pairs. One job per (size, design) pair.
///
/// # Errors
///
/// Propagates topology construction and routing errors.
pub fn hop_count_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    samples: usize,
    seed: u64,
) -> SfResult<Vec<HopCountRow>> {
    ctx.run_jobs(
        cross2_lazy(sizes.to_vec(), kinds.to_vec()),
        |_, &(nodes, kind)| {
            let instance = ctx.instance(kind, nodes, seed)?;
            Ok(HopCountRow {
                kind,
                nodes,
                average_shortest_path: instance.average_shortest_path(),
                average_routed_hops: instance.average_routed_hops(samples)?,
                router_ports: instance.router_ports(),
            })
        },
    )
}

/// Figure 9(a): average routed hop counts per design and scale.
#[derive(Debug, Clone, Copy)]
pub struct Fig09aHopCounts;

impl Fig09aHopCounts {
    fn params(ctx: &RunContext) -> (Vec<usize>, usize) {
        if ctx.is_quick() {
            (vec![16, 64, 128], 500)
        } else {
            (vec![16, 32, 64, 128, 256, 512, 1024, 1296], 2_000)
        }
    }
}

impl Study for Fig09aHopCounts {
    fn name(&self) -> &'static str {
        "fig09a"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig09a_hop_counts"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 9(a)"
    }
    fn description(&self) -> &'static str {
        "average hop counts taken by each design's routing protocol as the network grows"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::params(ctx).0.len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, samples) = Self::params(ctx);
        let rows = hop_count_study(ctx, &TopologyKind::ALL, &sizes, samples, 7)?;
        Ok(Table::from_records(&rows))
    }
}

/// Scenario: hop-count scaling of the fixed-radix designs beyond the paper's
/// 1296-node maximum, up to 2048 nodes — the [`hop_count_study`]
/// methodology for the designs whose radix does not grow with scale.
#[derive(Debug, Clone, Copy)]
pub struct Scaleout2048;

impl Scaleout2048 {
    const KINDS: [TopologyKind; 3] = [
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
        TopologyKind::Jellyfish,
    ];

    fn params(ctx: &RunContext) -> (Vec<usize>, usize) {
        if ctx.is_quick() {
            (vec![128, 256], 200)
        } else {
            (vec![512, 1024, 2048], 1_000)
        }
    }
}

impl Study for Scaleout2048 {
    fn name(&self) -> &'static str {
        "scaleout_2048"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["scaleout"]
    }
    fn artefact(&self) -> &'static str {
        "Scenario: scale-out beyond 1296 nodes"
    }
    fn description(&self) -> &'static str {
        "path-length and routed hop-count scaling of the fixed-radix designs up to 2048 nodes"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::params(ctx).0.len()),
            ("design", Self::KINDS.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, samples) = Self::params(ctx);
        let rows = hop_count_study(ctx, &Self::KINDS, &sizes, samples, 7)?;
        Ok(Table::from_records(&rows))
    }
}
