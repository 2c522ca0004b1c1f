//! Figure 8 / Table II: evaluated configurations and the feature matrix.

use super::{
    cell_bool, cell_str, cell_usize, print_table, RecordRow, RunContext, Study, StudyGrid,
};
use crate::comparison::TopologyKind;
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross2_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;

/// One row of the Figure 8 / Table II configuration summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Router ports required.
    pub router_ports: usize,
    /// Total links in the network.
    pub links: usize,
    /// Whether the design needs high-radix routers (Table II).
    pub requires_high_radix: bool,
    /// Whether the design supports reconfigurable scaling (Table II).
    pub supports_reconfiguration: bool,
}

impl Record for ConfigurationRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "nodes",
            "router_ports",
            "links",
            "requires_high_radix",
            "supports_reconfiguration",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.router_ports.into(),
            self.links.into(),
            self.requires_high_radix.into(),
            self.supports_reconfiguration.into(),
        ]
    }
}

impl RecordRow for ConfigurationRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, ports, links, radix, reconf] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            router_ports: cell_usize(ports)?,
            links: cell_usize(links)?,
            requires_high_radix: cell_bool(radix)?,
            supports_reconfiguration: cell_bool(reconf)?,
        })
    }
}

/// Reproduces the Figure 8 configuration table plus Table II's feature
/// matrix for the given sizes.
///
/// # Errors
///
/// Propagates construction errors.
pub fn configuration_table(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    seed: u64,
) -> SfResult<Vec<ConfigurationRow>> {
    ctx.run_jobs(
        cross2_lazy(sizes.to_vec(), kinds.to_vec()),
        |_, &(nodes, kind)| {
            let instance = ctx.instance(kind, nodes, seed)?;
            Ok(ConfigurationRow {
                kind,
                nodes,
                router_ports: instance.router_ports(),
                links: instance.graph().num_edges(),
                requires_high_radix: kind.requires_high_radix(),
                supports_reconfiguration: kind.supports_reconfiguration(),
            })
        },
    )
}

/// Figure 8 / Table II: evaluated configurations and the feature matrix.
#[derive(Debug, Clone, Copy)]
pub struct Fig08Configs;

impl Fig08Configs {
    fn sizes(ctx: &RunContext) -> Vec<usize> {
        if ctx.is_quick() {
            vec![16, 61, 128]
        } else {
            // Figure 8's column headers.
            vec![16, 17, 32, 61, 64, 113, 128, 256, 512, 1024, 1296]
        }
    }
}

impl Study for Fig08Configs {
    fn name(&self) -> &'static str {
        "fig08"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig08_table02_configs", "table02"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 8 / Table II"
    }
    fn description(&self) -> &'static str {
        "evaluated network configurations (router ports, links) and the qualitative feature matrix"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("nodes", Self::sizes(ctx).len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let rows = configuration_table(ctx, &TopologyKind::ALL, &Self::sizes(ctx), 1)?;
        Ok(Table::from_records(&rows))
    }
    fn print_extras(&self, _table: &Table) {
        println!();
        eprintln!("# Table II: topology features and requirements");
        let rows: Vec<Vec<String>> = TopologyKind::ALL
            .iter()
            .map(|k| {
                let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
                vec![
                    k.to_string(),
                    yes_no(k.requires_high_radix()),
                    yes_no(k.requires_high_radix()),
                    yes_no(k.supports_reconfiguration()),
                ]
            })
            .collect();
        print_table(
            &[
                "design",
                "high-radix routers",
                "port scaling",
                "reconfigurable scaling",
            ],
            &rows,
        );
    }
}
