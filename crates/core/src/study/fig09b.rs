//! Figure 9(b): power-gating energy-delay product.

use super::{
    cell_f64, cell_usize, print_table, render_cell, RecordRow, RunContext, Study, StudyGrid,
};
use crate::experiments::{socket_nodes, ExperimentScale};
use crate::network::StringFigureNetwork;
use crate::power::PowerManager;
use serde::{Deserialize, Serialize};
use sf_harness::table::{Record, Table, Value};
use sf_types::{NodeId, SfResult};
use sf_workloads::{AddressMapper, ApplicationModel, CacheHierarchy, WorkloadTraffic};

/// One point of the Figure 9(b) power-management study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerGateRow {
    /// Fraction of memory nodes gated off.
    pub gated_fraction: f64,
    /// Number of nodes actually gated.
    pub gated_nodes: usize,
    /// Energy-delay product of the run (pJ · cycles).
    pub energy_delay_product: f64,
    /// EDP normalised to the un-gated run (lower is better).
    pub normalized_edp: f64,
    /// Average request round-trip latency in cycles.
    pub average_round_trip_cycles: f64,
}

impl Record for PowerGateRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "gated_fraction",
            "gated_nodes",
            "energy_delay_product",
            "normalized_edp",
            "average_round_trip_cycles",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.gated_fraction.into(),
            self.gated_nodes.into(),
            self.energy_delay_product.into(),
            self.normalized_edp.into(),
            self.average_round_trip_cycles.into(),
        ]
    }
}

impl RecordRow for PowerGateRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [fraction, gated, edp, norm, rtt] = cells else {
            return None;
        };
        Some(Self {
            gated_fraction: cell_f64(fraction)?,
            gated_nodes: cell_usize(gated)?,
            energy_delay_product: cell_f64(edp)?,
            normalized_edp: cell_f64(norm)?,
            average_round_trip_cycles: cell_f64(rtt)?,
        })
    }
}

/// Reproduces Figure 9(b): runs `workload` on a String Figure network while
/// power gating increasing fractions of the memory nodes, reporting the
/// normalised energy-delay product.
///
/// Every fraction is an independent job (each builds and gates its own
/// network, so nothing is shared); normalisation against the first
/// fraction's EDP happens serially once all jobs are in, which keeps the
/// output identical to the old strictly-serial loop.
///
/// # Errors
///
/// Propagates construction, reconfiguration, and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn power_gating_study(
    ctx: &RunContext,
    nodes: usize,
    fractions: &[f64],
    workload: ApplicationModel,
    socket_count: usize,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<PowerGateRow>> {
    let mut rows = ctx.run_jobs(fractions.to_vec(), |_, &fraction| {
        let mut network = StringFigureNetwork::builder(nodes)
            .seed(seed)
            .simulation(scale.simulation_config())
            .build()?;
        let gated = if fraction > 0.0 {
            let mut pm = PowerManager::new(&mut network);
            pm.gate_fraction(fraction, seed)?
        } else {
            Vec::new()
        };
        // Processor sockets attach to nodes that remain powered.
        let active: Vec<NodeId> = network.topology().graph().active_nodes().collect();
        let injectors: Vec<NodeId> = socket_nodes(active.len(), socket_count)
            .iter()
            .map(|i| active[i.index()])
            .collect();
        // Data is redistributed over the remaining nodes.
        let mapper = AddressMapper::paper_default(active.len())?;
        let cache = CacheHierarchy::tiny()?;
        let mut traffic = RemappedWorkload {
            inner: WorkloadTraffic::with_cache(
                workload,
                mapper,
                &remap_injectors(&injectors, &active),
                seed,
                &cache,
            )?,
            active: active.clone(),
        };
        let stats = network.run_traffic(&mut traffic, scale.simulation_config(), true)?;
        Ok(PowerGateRow {
            gated_fraction: fraction,
            gated_nodes: gated.len(),
            energy_delay_product: stats.energy_delay_product(),
            // Filled in below once the baseline (first fraction) is known.
            normalized_edp: 0.0,
            average_round_trip_cycles: stats.average_round_trip_cycles(),
        })
    })?;
    let base = rows
        .first()
        .map_or(1.0, |r| r.energy_delay_product.max(f64::MIN_POSITIVE));
    for row in &mut rows {
        row.normalized_edp = row.energy_delay_product / base;
    }
    Ok(rows)
}

/// Maps injector node ids (positions within the active set) back to dense
/// indices for the shrunken address space.
fn remap_injectors(injectors: &[NodeId], active: &[NodeId]) -> Vec<NodeId> {
    injectors
        .iter()
        .map(|n| {
            let pos = active.iter().position(|a| a == n).unwrap_or(0);
            NodeId::new(pos)
        })
        .collect()
}

/// Wraps a [`WorkloadTraffic`] built over the dense active-node index space
/// and translates its sources/destinations back to the real node ids of a
/// partially gated network.
#[derive(Debug)]
struct RemappedWorkload {
    inner: WorkloadTraffic,
    active: Vec<NodeId>,
}

impl sf_netsim::TrafficModel for RemappedWorkload {
    fn maybe_inject(&mut self, cycle: u64, source: NodeId) -> Option<sf_netsim::TrafficRequest> {
        // Translate the physical source id to its dense index; silent when the
        // source is not an active node.
        let dense = NodeId::new(self.active.iter().position(|a| *a == source)?);
        let request = self.inner.maybe_inject(cycle, dense)?;
        Some(sf_netsim::TrafficRequest {
            destination: self.active[request.destination.index()],
            write: request.write,
        })
    }

    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}

/// Figure 9(b): normalised EDP of String Figure under power gating.
#[derive(Debug, Clone, Copy)]
pub struct Fig09bPowerGating;

impl Fig09bPowerGating {
    const FRACTIONS: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

    fn params(ctx: &RunContext) -> (usize, Vec<ApplicationModel>, ExperimentScale) {
        let nodes = if ctx.is_quick() { 64 } else { 324 };
        let workloads: Vec<ApplicationModel> = if ctx.is_quick() {
            vec![ApplicationModel::SparkWordcount, ApplicationModel::Redis]
        } else {
            ApplicationModel::ALL.to_vec()
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 8_000,
            warmup_cycles: 1_000,
            ..ExperimentScale::paper()
        });
        (nodes, workloads, scale)
    }
}

impl Study for Fig09bPowerGating {
    fn name(&self) -> &'static str {
        "fig09b"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig09b_powergate_edp"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 9(b)"
    }
    fn description(&self) -> &'static str {
        "normalised energy-delay product while power-gating increasing fractions of the memory network"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("workload", Self::params(ctx).1.len()),
            ("gated fraction", Self::FRACTIONS.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, workloads, scale) = Self::params(ctx);
        // PowerGateRow doesn't carry its workload, so the artifact table
        // prepends that column to the Record's own.
        let mut table =
            Table::with_columns(&[&["workload"], PowerGateRow::columns().as_slice()].concat());
        for &workload in &workloads {
            let rows = power_gating_study(ctx, nodes, &Self::FRACTIONS, workload, 4, scale, 2019)?;
            for row in rows {
                let mut cells = vec![workload.name().into()];
                cells.extend(row.values());
                table.push_row(cells);
            }
        }
        Ok(table)
    }
    fn print_extras(&self, table: &Table) {
        // The formatted view the old binary printed: gated fraction as a
        // percentage, normalised EDP, and round-trip latency per workload.
        eprintln!("\n# normalised EDP vs fraction of nodes power-gated (lower is better)");
        let rows: Vec<Vec<String>> = table
            .rows
            .iter()
            .map(|row| {
                let cell = |i: usize| render_cell(&row[i]);
                let fraction = match &row[1] {
                    Value::Float(f) => format!("{:.0}%", f * 100.0),
                    other => other.render(),
                };
                vec![cell(0), fraction, cell(2), cell(4), cell(5)]
            })
            .collect();
        print_table(
            &[
                "workload",
                "gated",
                "gated nodes",
                "normalised EDP",
                "avg round trip (cycles)",
            ],
            &rows,
        );
    }
}
