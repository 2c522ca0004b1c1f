//! Figure 5: sufficiently-uniform-random-graph path-length comparison.

use super::{RunContext, Study, StudyGrid};
use crate::comparison::TopologyKind;
use serde::{Deserialize, Serialize};
use sf_harness::sweep::cross3_lazy;
use sf_harness::table::{Record, Table, Value};
use sf_types::SfResult;

/// One row of the Figure 5 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SurgRow {
    /// Network size.
    pub nodes: usize,
    /// Average shortest path length of Jellyfish.
    pub jellyfish: f64,
    /// Average shortest path length of S2.
    pub s2: f64,
    /// Average shortest path length of String Figure.
    pub string_figure: f64,
}

impl Record for SurgRow {
    fn columns() -> Vec<&'static str> {
        vec!["nodes", "jellyfish", "s2", "string_figure"]
    }
    fn values(&self) -> Vec<Value> {
        vec![
            self.nodes.into(),
            self.jellyfish.into(),
            self.s2.into(),
            self.string_figure.into(),
        ]
    }
}

/// Reproduces Figure 5: average shortest path lengths of Jellyfish, S2, and
/// String Figure across network sizes, averaged over `seeds` generated
/// topologies each.
///
/// # Errors
///
/// Propagates topology construction errors.
pub fn surg_path_length_study(
    ctx: &RunContext,
    sizes: &[usize],
    seeds: u64,
) -> SfResult<Vec<SurgRow>> {
    const KINDS: [TopologyKind; 3] = [
        TopologyKind::Jellyfish,
        TopologyKind::SpaceShuffle,
        TopologyKind::StringFigure,
    ];
    // One job per (size, topology seed, design), streamed lazily in
    // row-major order — the same enumeration the eager product built;
    // aggregation back into one row per size happens serially below, in
    // enumeration order, so the float accumulation order matches the old
    // nested loops exactly.
    let seed_list: Vec<u64> = (0..seeds.max(1)).collect();
    let points = cross3_lazy(sizes.to_vec(), seed_list.clone(), KINDS.to_vec());
    let lengths = ctx.run_jobs(points, |_, &(nodes, seed, kind)| {
        Ok(ctx.instance(kind, nodes, seed + 1)?.average_shortest_path())
    })?;

    let denom = seeds.max(1) as f64;
    let per_size = seed_list.len() * KINDS.len();
    let mut rows = Vec::with_capacity(sizes.len());
    for (si, &nodes) in sizes.iter().enumerate() {
        let mut sums = [0.0f64; 3];
        for (pi, length) in lengths[si * per_size..(si + 1) * per_size]
            .iter()
            .enumerate()
        {
            sums[pi % KINDS.len()] += length;
        }
        rows.push(SurgRow {
            nodes,
            jellyfish: sums[0] / denom,
            s2: sums[1] / denom,
            string_figure: sums[2] / denom,
        });
    }
    Ok(rows)
}

/// Figure 5: average shortest path length of Jellyfish, S2, and SF.
#[derive(Debug, Clone, Copy)]
pub struct Fig05Surg;

impl Fig05Surg {
    fn params(ctx: &RunContext) -> (Vec<usize>, u64) {
        if ctx.is_quick() {
            (vec![100, 200, 400], 3)
        } else {
            // The paper's x-axis: 100–1200 nodes, 20 topologies per point.
            (vec![100, 200, 400, 800, 1200], 20)
        }
    }
}

impl Study for Fig05Surg {
    fn name(&self) -> &'static str {
        "fig05"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig05_surg_path_length"]
    }
    fn artefact(&self) -> &'static str {
        "Figure 5"
    }
    fn description(&self) -> &'static str {
        "average shortest path length of Jellyfish, S2, and String Figure across network sizes"
    }
    fn grid(&self, ctx: &RunContext) -> StudyGrid {
        let (sizes, seeds) = Self::params(ctx);
        StudyGrid::new(vec![
            ("nodes", sizes.len()),
            ("topology seed", seeds as usize),
            ("design", 3),
        ])
    }
    fn run(&self, ctx: &RunContext) -> SfResult<Table> {
        let (sizes, seeds) = Self::params(ctx);
        let rows = surg_path_length_study(ctx, &sizes, seeds)?;
        Ok(Table::from_records(&rows))
    }
}
