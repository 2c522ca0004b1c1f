//! Figure 10: network saturation points, and the adversarial-traffic
//! scenario that drives the same methodology with hostile patterns.

use super::{cell_opt_f64, cell_str, cell_usize, RecordRow, RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use crate::experiments::{run_pattern_on, ExperimentScale};
use serde::{Deserialize, Serialize};
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;
use sf_workloads::SyntheticPattern;

/// One saturation measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SaturationRow {
    /// Network design.
    pub kind: TopologyKind,
    /// Network size.
    pub nodes: usize,
    /// Traffic pattern evaluated.
    pub pattern: SyntheticPattern,
    /// Highest injection rate (as a percentage) that did not saturate the
    /// network; `None` when even the lowest rate saturated.
    pub saturation_percent: Option<f64>,
}

impl Record for SaturationRow {
    fn columns() -> Vec<&'static str> {
        vec!["kind", "nodes", "pattern", "saturation_percent"]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.kind.name().into(),
            self.nodes.into(),
            self.pattern.to_string().into(),
            self.saturation_percent.into(),
        ]
    }
}

impl RecordRow for SaturationRow {
    fn from_values(cells: &[Value]) -> Option<Self> {
        let [kind, nodes, pattern, point] = cells else {
            return None;
        };
        Some(Self {
            kind: TopologyKind::from_name(cell_str(kind)?)?,
            nodes: cell_usize(nodes)?,
            pattern: SyntheticPattern::from_name(cell_str(pattern)?)?,
            saturation_percent: cell_opt_f64(point)?,
        })
    }
}

/// Reproduces Figure 10: sweeps injection rates and reports the saturation
/// point of each design/size/pattern combination.
///
/// A rate counts as saturated when the simulator's backlog heuristic triggers
/// or the average latency exceeds four times the latency at the lowest rate.
/// One job per design; the injection-rate ladder inside a job stays serial
/// because each rung's early exit depends on the previous one.
///
/// # Errors
///
/// Propagates construction and simulation errors.
#[allow(clippy::too_many_arguments)]
pub fn saturation_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    pattern: SyntheticPattern,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<SaturationRow>> {
    ctx.run_jobs(kinds.to_vec(), |_, &kind| {
        let instance = ctx.instance(kind, nodes, seed)?;
        let mut best: Option<f64> = None;
        let mut base_latency: Option<f64> = None;
        for &rate in rates {
            let stats = run_pattern_on(&instance, pattern, rate, scale, seed)?;
            let latency = stats.average_latency_cycles();
            let base = *base_latency.get_or_insert(latency.max(1.0));
            let saturated = stats.is_saturated() || latency > 4.0 * base;
            if saturated {
                break;
            }
            best = Some(rate);
        }
        Ok(SaturationRow {
            kind,
            nodes,
            pattern,
            saturation_percent: best.map(|r| r * 100.0),
        })
    })
}

/// Scenario study: the [`saturation_study`] methodology driven by the three
/// adversarial traffic patterns ([`SyntheticPattern::ADVERSARIAL`]) instead
/// of the paper's well-behaved Table III patterns.
///
/// # Errors
///
/// Propagates construction and simulation errors.
pub fn adversarial_saturation_study(
    ctx: &RunContext,
    kinds: &[TopologyKind],
    nodes: usize,
    rates: &[f64],
    scale: ExperimentScale,
    seed: u64,
) -> SfResult<Vec<SaturationRow>> {
    let mut rows = Vec::with_capacity(SyntheticPattern::ADVERSARIAL.len() * kinds.len());
    for pattern in SyntheticPattern::ADVERSARIAL {
        rows.extend(saturation_study(
            ctx, kinds, nodes, pattern, rates, scale, seed,
        )?);
    }
    Ok(rows)
}

/// Figure 10: saturation injection rates per design, size, and pattern.
#[derive(Debug, Clone, Copy)]
pub struct Fig10Saturation;

impl Fig10Saturation {
    const PATTERNS: [SyntheticPattern; 3] = [
        SyntheticPattern::UniformRandom,
        SyntheticPattern::Hotspot,
        SyntheticPattern::Tornado,
    ];

    fn params(ctx: &RunContext) -> (Vec<usize>, Vec<f64>, ExperimentScale) {
        let (sizes, rates) = if ctx.is_quick() {
            (vec![16, 64], vec![0.05, 0.2, 0.4, 0.7])
        } else {
            (
                vec![16, 64, 128, 256, 512],
                vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            )
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (sizes, rates, scale)
    }
}

impl Study for Fig10Saturation {
    fn name(&self) -> &'static str {
        "fig10"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig10_saturation"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 10"
    }
    fn description(&self) -> &'static str {
        "highest non-saturating injection rate per design, size, and traffic pattern"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        StudyGrid::new(vec![
            ("pattern", Self::PATTERNS.len()),
            ("nodes", Self::params(ctx).0.len()),
            ("design", TopologyKind::ALL.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, rates, scale) = Self::params(ctx);
        let mut all_rows = Vec::new();
        for pattern in Self::PATTERNS {
            for &nodes in &sizes {
                all_rows.extend(saturation_study(
                    ctx,
                    &TopologyKind::ALL,
                    nodes,
                    pattern,
                    &rates,
                    scale,
                    3,
                )?);
            }
        }
        Ok(Table::from_records(&all_rows))
    }
}

/// Scenario: the saturation methodology under adversarial traffic (hotspot
/// storm, bursty on/off, bit-reversal permutation).
#[derive(Debug, Clone, Copy)]
pub struct AdversarialSaturation;

impl AdversarialSaturation {
    fn params(ctx: &RunContext) -> (Vec<TopologyKind>, usize, Vec<f64>, ExperimentScale) {
        let (nodes, rates) = if ctx.is_quick() {
            (36, vec![0.05, 0.2, 0.4, 0.7])
        } else {
            (128, vec![0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        };
        let scale = ctx.scale(ExperimentScale {
            max_cycles: 6_000,
            warmup_cycles: 800,
            ..ExperimentScale::paper()
        });
        (TopologyKind::ALL.to_vec(), nodes, rates, scale)
    }
}

impl Study for AdversarialSaturation {
    fn name(&self) -> &'static str {
        "adversarial_saturation"
    }
    fn artefact(&self) -> &'static str {
        "Scenario: adversarial traffic"
    }
    fn description(&self) -> &'static str {
        "highest non-saturating injection rate per design under hotspot-storm, bursty, and bit-reversal traffic"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (kinds, _, _, _) = Self::params(ctx);
        StudyGrid::new(vec![
            ("pattern", SyntheticPattern::ADVERSARIAL.len()),
            ("design", kinds.len()),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (kinds, nodes, rates, scale) = Self::params(ctx);
        let rows = adversarial_saturation_study(ctx, &kinds, nodes, &rates, scale, 3)?;
        Ok(Table::from_records(&rows))
    }
}
