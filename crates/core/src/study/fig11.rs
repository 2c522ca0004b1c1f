//! Figure 11: latency versus injection rate curves.

use super::{cell_bool, cell_f64, RecordRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use crate::experiments::{run_pattern_on, ExperimentScale};
use serde::{Deserialize, Serialize};
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;
use sf_workloads::SyntheticPattern;

/// One point of a latency-versus-injection-rate curve.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// Injection rate (packets per node per cycle).
    pub injection_rate: f64,
    /// Average packet latency in cycles.
    pub average_latency_cycles: f64,
    /// Accepted throughput (delivered packets per node per cycle).
    pub accepted_throughput: f64,
    /// Whether the run saturated.
    pub saturated: bool,
}

impl Record for LatencyPoint {
    fn columns() -> Vec<&'static str> {
        vec![
            "injection_rate",
            "average_latency_cycles",
            "accepted_throughput",
            "saturated",
        ]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.injection_rate.into(),
            self.average_latency_cycles.into(),
            self.accepted_throughput.into(),
            self.saturated.into(),
        ]
    }
}

impl RecordRow for LatencyPoint {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [rate, latency, throughput, saturated] = cells else {
            return None;
        };
        Some(Self {
            injection_rate: cell_f64(rate)?,
            average_latency_cycles: cell_f64(latency)?,
            accepted_throughput: cell_f64(throughput)?,
            saturated: cell_bool(saturated)?,
        })
    }
}

/// Reproduces one curve of Figure 11: average packet latency of `kind` under
/// `pattern` across the given injection rates — one job per injection rate,
/// all sharing the cached network instance.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn latency_curve(
    ctx: &RunContext,
    kind: TopologyKind,
    nodes: usize,
    pattern: SyntheticPattern,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<LatencyPoint>> {
    let instance = ctx.instance(kind, nodes, seed)?;
    ctx.run_jobs(rates.to_vec(), |_, &rate| {
        let stats = run_pattern_on(&instance, pattern, rate, scale, seed)?;
        let measured = scale.max_cycles - scale.warmup_cycles;
        Ok(LatencyPoint {
            injection_rate: rate,
            average_latency_cycles: stats.average_latency_cycles(),
            accepted_throughput: stats.accepted_throughput(measured),
            saturated: stats.is_saturated(),
        })
    })
}

/// Figure 11: latency versus injection rate curves.
#[derive(Debug, Clone, Copy)]
pub struct Fig11LatencyCurves;

impl Fig11LatencyCurves {
    #[allow(clippy::type_complexity)]
    fn params(
        ctx: &RunContext,
    ) -> (
        usize,
        Vec<f64>,
        Vec<TopologyKind>,
        Vec<SyntheticPattern>,
        ExperimentScale,
    ) {
        let quick = ctx.is_quick();
        let nodes = if quick { 64 } else { 256 };
        let rates: Vec<f64> = if quick {
            vec![0.05, 0.2, 0.5]
        } else {
            vec![0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        };
        let kinds = if quick {
            vec![TopologyKind::DistributedMesh, TopologyKind::StringFigure]
        } else {
            TopologyKind::ALL.to_vec()
        };
        let patterns = if quick {
            vec![SyntheticPattern::UniformRandom, SyntheticPattern::Tornado]
        } else {
            SyntheticPattern::ALL.to_vec()
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (nodes, rates, kinds, patterns, scale)
    }
}

impl Study for Fig11LatencyCurves {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig11_latency_curves"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 11"
    }
    fn description(&self) -> &'static str {
        "average packet latency versus injection rate for every design and traffic pattern"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (_, rates, kinds, patterns, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("pattern", patterns.len()),
            ("design", kinds.len()),
            ("injection rate", rates.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (nodes, rates, kinds, patterns, scale) = Self::params(ctx);
        // LatencyPoint rows don't carry their (pattern, design) context, so
        // the artifact table prepends those two columns to the Record's own.
        let mut table = Table::with_columns(
            &[&["pattern", "design"], LatencyPoint::columns().as_slice()].concat(),
        );
        for &pattern in &patterns {
            for &kind in &kinds {
                let points = latency_curve(ctx, kind, nodes, pattern, &rates, scale, 5)?;
                for p in points {
                    let mut cells = vec![pattern.to_string().into(), kind.name().into()];
                    cells.extend(p.values());
                    table.push_row(cells);
                }
            }
        }
        Ok(table)
    }
}
