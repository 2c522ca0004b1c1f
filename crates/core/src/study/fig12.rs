//! Figure 12: real-workload throughput and energy.

use super::{cell_f64, cell_str, fmt_f, print_table, RecordRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use crate::experiments::{run_workload_on, socket_nodes, ExperimentScale};
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross2_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;
use sf_workloads::ApplicationModel;

/// Result of one design running one application workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Application evaluated.
    pub workload: ApplicationModel,
    /// Completed memory requests per cycle (the throughput proxy the
    /// normalised Figure 12(a) bars are derived from).
    pub requests_per_cycle: f64,
    /// Average memory-request round-trip latency in cycles.
    pub average_round_trip_cycles: f64,
    /// Dynamic memory energy per completed request, in picojoules.
    pub energy_per_request_pj: f64,
    /// Total dynamic energy, in picojoules.
    pub total_energy_pj: f64,
}

impl Record for WorkloadRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "workload",
            "requests_per_cycle",
            "average_round_trip_cycles",
            "energy_per_request_pj",
            "total_energy_pj",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.workload.name().into(),
            self.requests_per_cycle.into(),
            self.average_round_trip_cycles.into(),
            self.energy_per_request_pj.into(),
            self.total_energy_pj.into(),
        ]
    }
}

impl RecordRow for WorkloadRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, workload, rpc, rtt, epr, total] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            workload: ApplicationModel::from_name(cell_str(workload)?)?,
            requests_per_cycle: cell_f64(rpc)?,
            average_round_trip_cycles: cell_f64(rtt)?,
            energy_per_request_pj: cell_f64(epr)?,
            total_energy_pj: cell_f64(total)?,
        })
    }
}

/// Reproduces Figure 12: runs each application on each design in
/// request–reply mode from `socket_count` processor-attached nodes and
/// reports throughput and dynamic energy — one job per (design,
/// application) pair.
///
/// # Errors
///
/// Propagates construction, workload, and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn workload_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    workloads: &[ApplicationModel],
    nodes: usize,
    socket_count: usize,
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<WorkloadRow>> {
    let injectors = socket_nodes(nodes, socket_count);
    ctx.run_jobs(
        cross2_lazy(kinds.to_vec(), workloads.to_vec()),
        |_, &(kind, workload)| {
            let instance = ctx.instance(kind, nodes, seed)?;
            let stats = run_workload_on(&instance, workload, &injectors, scale, seed)?;
            let measured = scale.max_cycles - scale.warmup_cycles;
            let completed = stats.completed_requests.max(1);
            Ok(WorkloadRow {
                kind,
                workload,
                requests_per_cycle: stats.completed_requests as f64 / measured as f64,
                average_round_trip_cycles: stats.average_round_trip_cycles(),
                energy_per_request_pj: stats.total_energy_pj() / completed as f64,
                total_energy_pj: stats.total_energy_pj(),
            })
        },
    )
}

/// Figure 12: real-workload throughput and dynamic memory energy.
#[derive(Debug, Clone, Copy)]
pub struct Fig12Workloads;

impl Fig12Workloads {
    // The paper normalises throughput to DM and energy to AFB; ODM,
    // S2-ideal, and SF are the compared designs.
    const KINDS: [TopologyKind; 5] = [
        TopologyKind::DistributedMesh,
        TopologyKind::OptimizedMesh,
        TopologyKind::AdaptedFlattenedButterfly,
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
    ];

    fn params(ctx: &RunContext) -> (usize, Vec<ApplicationModel>, ExperimentScale) {
        let nodes = if ctx.is_quick() { 64 } else { 256 };
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

    /// Looks the (kind, workload) row's column up in the result table.
    fn lookup(table: &Table, kind: TopologyKind, workload: &str, column: &str) -> Option<f64> {
        let col = table.columns.iter().position(|c| c == column)?;
        table
            .rows
            .iter()
            .find(|row| {
                matches!(&row[0], Value::Str(k) if k == kind.name())
                    && matches!(&row[1], Value::Str(w) if w == workload)
            })
            .and_then(|row| cell_f64(&row[col]))
    }
}

impl Study for Fig12Workloads {
    fn name(&self) -> &'static str {
        "fig12"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig12_workloads"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 12"
    }
    fn description(&self) -> &'static str {
        "application throughput and dynamic memory energy per design (normalised in the extras)"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("design", Self::KINDS.len()),
            ("workload", Self::params(ctx).1.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, workloads, scale) = Self::params(ctx);
        let rows = workload_study(ctx, &Self::KINDS, &workloads, nodes, 4, scale, 2019)?;
        Ok(Table::from_records(&rows))
    }
    fn print_extras(&self, table: &Table) {
        let workloads: Vec<String> = {
            let mut seen = Vec::new();
            for row in &table.rows {
                if let Value::Str(w) = &row[1] {
                    if !seen.contains(w) {
                        seen.push(w.clone());
                    }
                }
            }
            seen
        };
        let get = |kind, workload: &str, column| {
            Self::lookup(table, kind, workload, column).unwrap_or(f64::NAN)
        };

        eprintln!("\n# Figure 12(a): throughput normalised to DM (higher is better)");
        let mut thr = Vec::new();
        let mut geo: Vec<(TopologyKind, f64)> = Vec::new();
        for &kind in &[
            TopologyKind::OptimizedMesh,
            TopologyKind::AdaptedFlattenedButterfly,
            TopologyKind::SpaceShuffle,
            TopologyKind::StringFigure,
        ] {
            let mut log_sum = 0.0;
            for w in &workloads {
                let base = get(TopologyKind::DistributedMesh, w, "requests_per_cycle");
                let val = get(kind, w, "requests_per_cycle") / base.max(f64::MIN_POSITIVE);
                log_sum += val.ln();
                thr.push(vec![w.clone(), kind.to_string(), fmt_f(val)]);
            }
            geo.push((kind, (log_sum / workloads.len() as f64).exp()));
        }
        for (kind, g) in &geo {
            thr.push(vec!["geomean".to_string(), kind.to_string(), fmt_f(*g)]);
        }
        print_table(&["workload", "design", "normalised throughput"], &thr);

        eprintln!(
            "\n# Figure 12(b): dynamic memory energy per request normalised to AFB (lower is better)"
        );
        let mut energy = Vec::new();
        for &kind in &[
            TopologyKind::OptimizedMesh,
            TopologyKind::SpaceShuffle,
            TopologyKind::StringFigure,
        ] {
            let mut log_sum = 0.0;
            for w in &workloads {
                let base = get(
                    TopologyKind::AdaptedFlattenedButterfly,
                    w,
                    "energy_per_request_pj",
                );
                let val = get(kind, w, "energy_per_request_pj") / base.max(f64::MIN_POSITIVE);
                log_sum += val.ln();
                energy.push(vec![w.clone(), kind.to_string(), fmt_f(val)]);
            }
            energy.push(vec![
                "geomean".to_string(),
                kind.to_string(),
                fmt_f((log_sum / workloads.len() as f64).exp()),
            ]);
        }
        print_table(&["workload", "design", "normalised energy"], &energy);
    }
}
