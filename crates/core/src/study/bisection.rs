//! Section V methodology: empirical minimum bisection bandwidth.

use super::{cell_f64, cell_u64, cell_usize, CheckpointRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross2_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_topology::analysis::BisectionBandwidth;
use sf_types::SfResult;

/// One row of the bisection-bandwidth study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BisectionRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Empirical minimum bisection bandwidth (links across the cut).
    pub minimum: u64,
    /// Mean bisection bandwidth over the sampled cuts.
    pub average: f64,
}

impl Record for BisectionRow {
    fn columns() -> Vec<&'static str> {
        vec!["kind", "nodes", "minimum", "average"]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.minimum.into(),
            self.average.into(),
        ]
    }
}

/// The per-topology job result the rows are averaged from.
impl CheckpointRow for BisectionBandwidth {
    fn to_cells(&self) -> Vec<Value> {
        vec![
            self.minimum.into(),
            self.average.into(),
            self.samples.into(),
        ]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        let [minimum, average, samples] = cells else {
            return None;
        };
        Some(Self {
            minimum: cell_u64(minimum)?,
            average: cell_f64(average)?,
            samples: cell_usize(samples)?,
        })
    }
}

/// Reproduces the bisection-bandwidth methodology of Section V (50 random
/// bisections, averaged over generated topologies): one job per (design,
/// generated topology), averaged per design afterwards in enumeration order.
///
/// # Errors
///
/// Propagates construction errors.
pub fn bisection_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    cuts: usize,
    topologies: u64,
) -> SfResult<Vec<BisectionRow>> {
    let seed_list: Vec<u64> = (0..topologies.max(1)).collect();
    let samples = ctx.run_jobs(
        cross2_lazy(kinds.to_vec(), seed_list.clone()),
        |_, &(kind, seed)| {
            let instance = ctx.instance(kind, nodes, seed + 1)?;
            Ok(instance.bisection_bandwidth(cuts, seed + 100))
        },
    )?;

    let denom = topologies.max(1);
    let per_kind = seed_list.len();
    let mut rows = Vec::with_capacity(kinds.len());
    for (ki, &kind) in kinds.iter().enumerate() {
        let mut min_sum = 0u64;
        let mut avg_sum = 0.0;
        for bb in &samples[ki * per_kind..(ki + 1) * per_kind] {
            min_sum += bb.minimum;
            avg_sum += bb.average;
        }
        rows.push(BisectionRow {
            kind,
            nodes,
            minimum: min_sum / denom,
            average: avg_sum / denom as f64,
        });
    }
    Ok(rows)
}

/// Section V methodology: empirical minimum bisection bandwidth.
#[derive(Debug, Clone, Copy)]
pub struct BisectionStudy;

impl BisectionStudy {
    fn params(ctx: &RunContext) -> (Vec<usize>, usize, u64) {
        if ctx.is_quick() {
            (vec![64], 10, 3)
        } else {
            (vec![64, 128, 256], 50, 20)
        }
    }
}

impl Study for BisectionStudy {
    fn name(&self) -> &'static str {
        "bisection"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["bisection_bandwidth"]
    }
    fn artefact(&self) -> &'static str {
        "Section V bisection methodology"
    }
    fn description(&self) -> &'static str {
        "empirical minimum bisection bandwidth over random cuts and generated topologies"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (sizes, _, topologies) = Self::params(ctx);
        StudyGrid::new(vec![
            ("nodes", sizes.len()),
            ("design", TopologyKind::ALL.len()),
            ("topology", topologies as usize),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, cuts, topologies) = Self::params(ctx);
        let mut all_rows = Vec::new();
        for &nodes in &sizes {
            all_rows.extend(bisection_study(
                ctx,
                &TopologyKind::ALL,
                nodes,
                cuts,
                topologies,
            )?);
        }
        Ok(Table::from_records(&all_rows))
    }
}
