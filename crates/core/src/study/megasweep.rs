//! Scenario: the streaming mega-sweep over design × size × injection rate ×
//! topology seed.

use super::{
    cell_bool, cell_f64, cell_str, cell_u64, cell_usize, RecordRow, RunContext, Study, StudyGrid,
};
use crate::comparison::TopologyKind;
use crate::experiments::{run_pattern_on, ExperimentScale};
use serde::{Deserialize, Serialize};
use sf_harness::sweep::{cross2, cross2_lazy};
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;
use sf_workloads::SyntheticPattern;

/// One point of the streaming mega-sweep: one design at one size, driven at
/// one injection rate with one topology seed, at a quick-capped simulation
/// scale. These rows are never collected — they stream straight from the
/// sweep to the artifact sinks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MegasweepRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Injection rate (packets per node per cycle).
    pub injection_rate: f64,
    /// Topology seed of this point.
    pub seed: u64,
    /// Average packet latency in cycles.
    pub average_latency_cycles: f64,
    /// Accepted throughput (delivered packets per node per cycle).
    pub accepted_throughput: f64,
    /// Whether the run saturated.
    pub saturated: bool,
}

impl Record for MegasweepRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "nodes",
            "injection_rate",
            "seed",
            "average_latency_cycles",
            "accepted_throughput",
            "saturated",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.injection_rate.into(),
            self.seed.into(),
            self.average_latency_cycles.into(),
            self.accepted_throughput.into(),
            self.saturated.into(),
        ]
    }
}

impl RecordRow for MegasweepRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, rate, seed, latency, throughput, saturated] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            injection_rate: cell_f64(rate)?,
            seed: cell_u64(seed)?,
            average_latency_cycles: cell_f64(latency)?,
            accepted_throughput: cell_f64(throughput)?,
            saturated: cell_bool(saturated)?,
        })
    }
}

/// Per-design aggregate of a mega-sweep — the only thing the streaming run
/// holds in memory (one slot per design, not per point).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MegasweepSummaryRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Points swept for this design.
    pub points: u64,
    /// Points whose run saturated.
    pub saturated_points: u64,
    /// Mean average latency over the design's points, in cycles.
    pub mean_latency_cycles: f64,
    /// Mean accepted throughput over the design's points.
    pub mean_throughput: f64,
}

impl Record for MegasweepSummaryRow {
    fn columns() -> Vec<&'static str> {
        vec![
            "kind",
            "points",
            "saturated_points",
            "mean_latency_cycles",
            "mean_throughput",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.points.into(),
            self.saturated_points.into(),
            self.mean_latency_cycles.into(),
            self.mean_throughput.into(),
        ]
    }
}

/// Scenario study: the streaming mega-sweep over design × size × injection
/// rate × topology seed. Unlike every other study, the full-scale grid
/// (~10⁵ points) is never materialised and the rows are never collected:
/// points stream in through the lazy cross product, each completed row is
/// journalled and written to the context's emitters in enumeration order,
/// and only the per-design [`MegasweepSummaryRow`] aggregate comes back —
/// the whole pipeline runs in `O(workers)` memory. The only driver that
/// **requires** the streaming pipeline: it refuses to exist as a
/// collect-then-emit loop.
///
/// # Errors
///
/// Propagates construction, simulation, and artifact-sink errors.
pub fn megasweep_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    sizes: &[usize],
    rates: &[f64],
    seeds: u64,
    scale: ExperimentScale,
) -> SfResult<Vec<MegasweepSummaryRow>> {
    let mut stream = ctx.open_row_stream(&MegasweepRow::columns())?;
    let seed_list: Vec<u64> = (0..seeds.max(1)).collect();
    // Row-major over (kind, nodes) × (rate, seed): the outer product is tiny
    // and the inner product is one design-point's rate ladder, so the
    // composition streams the 4-axis grid with O(rates × seeds) transient
    // state — never O(grid).
    let points = cross2_lazy(cross2(kinds, sizes), cross2(rates, &seed_list));
    let mut aggregates = vec![(0u64, 0u64, 0.0f64, 0.0f64); kinds.len()];
    ctx.run_jobs_streaming(
        points,
        |_, &((kind, nodes), (rate, seed))| {
            let instance = ctx.instance(kind, nodes, seed + 1)?;
            let stats = run_pattern_on(
                &instance,
                SyntheticPattern::UniformRandom,
                rate,
                scale,
                seed,
            )?;
            let measured = (scale.max_cycles - scale.warmup_cycles).max(1);
            Ok(MegasweepRow {
                kind,
                nodes,
                injection_rate: rate,
                seed,
                average_latency_cycles: stats.average_latency_cycles(),
                accepted_throughput: stats.accepted_throughput(measured),
                saturated: stats.is_saturated(),
            })
        },
        |_, row| {
            let slot = kinds.iter().position(|k| *k == row.kind).unwrap_or(0);
            let (points, saturated, latency, throughput) = &mut aggregates[slot];
            *points += 1;
            *saturated += u64::from(row.saturated);
            *latency += row.average_latency_cycles;
            *throughput += row.accepted_throughput;
            stream.push(&row.values())
        },
    )?;
    stream.finish()?;
    Ok(kinds
        .iter()
        .zip(aggregates)
        .map(
            |(&kind, (points, saturated, latency, throughput))| MegasweepSummaryRow {
                kind,
                points,
                saturated_points: saturated,
                mean_latency_cycles: latency / points.max(1) as f64,
                mean_throughput: throughput / points.max(1) as f64,
            },
        )
        .collect())
}

/// Scenario: the streaming mega-sweep — design × size × injection rate ×
/// topology seed at ~10⁵ quick-capped points full-scale. The only study
/// that exists *because of* the bounded-memory pipeline: its grid streams
/// through the lazy cross product, its rows stream to the emitters, and its
/// `run` returns only a per-design summary.
#[derive(Debug, Clone, Copy)]
pub struct Megasweep;

impl Megasweep {
    #[allow(clippy::type_complexity)]
    pub(super) fn params(
        ctx: &RunContext,
    ) -> (
        Vec<TopologyKind>,
        Vec<usize>,
        Vec<f64>,
        u64,
        ExperimentScale,
    ) {
        let (kinds, sizes, rates, seeds) = if ctx.is_quick() {
            (
                vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure],
                vec![16, 32],
                vec![0.05, 0.2, 0.4],
                2,
            )
        } else {
            (
                TopologyKind::ALL.to_vec(),
                vec![16, 32, 48, 64, 96, 128],
                (1..=20).map(|i| f64::from(i) * 0.045).collect(),
                150,
            )
        };
        // Every point is quick-capped: the sweep's scale comes from its
        // breadth (~10^5 points full-scale), not from long simulations.
        let scale = ctx.scale(ExperimentScale::quick());
        (kinds, sizes, rates, seeds, scale)
    }
}

impl Study for Megasweep {
    fn name(&self) -> &'static str {
        "megasweep"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: streaming mega-sweep"
    }
    fn description(&self) -> &'static str {
        "bounded-memory design-space sweep over design x size x injection rate x seed; rows stream to the emitters"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, sizes, rates, seeds, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("design", kinds.len()),
            ("nodes", sizes.len()),
            ("injection rate", rates.len()),
            ("topology seed", seeds as usize),
        ])
    }
    fn streams_rows(&self) -> bool {
        true
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, sizes, rates, seeds, scale) = Self::params(ctx);
        let summary = megasweep_study(ctx, &kinds, &sizes, &rates, seeds, scale)?;
        Ok(Table::from_records(&summary))
    }
}
