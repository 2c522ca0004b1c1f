//! The correctness gate: every check whose failure counts in `failed`.
//!
//! A speed change must leave simulated results bit-identical, so the gate
//! compares them against references recorded at the commit that defined
//! the benchmark (`reference.txt`), against the committed fig10 golden CSV,
//! and against the same computation repeated within the run.

use stringfigure::routing::RouteTrace;
use stringfigure::topology::StringFigureTopology;

/// References recorded by `--record`: one line per workload and seed,
/// `<workload> <seed> <rendered result>`.
pub const REFERENCE: &str = include_str!("../reference.txt");

/// The committed golden CSV of `sfbench run fig10 --quick`.
pub const FIG10_GOLDEN: &[u8] =
    include_bytes!("../../crates/bench/tests/golden/fig10_saturation.quick.csv");

/// Looks up the reference recorded for `workload` at `seed` in `reference`.
#[must_use]
pub fn reference_for<'r>(reference: &'r str, workload: &str, seed: u64) -> Option<&'r str> {
    reference.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, rest) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse() == Ok(seed)).then_some(rest)
    })
}

/// Checks a rendered result against its recorded reference, if one exists.
///
/// # Errors
///
/// Describes the mismatch when the rendered result differs from the
/// reference.
pub fn check_reference(
    reference: &str,
    workload: &str,
    seed: u64,
    rendered: &str,
) -> Result<(), String> {
    match reference_for(reference, workload, seed) {
        Some(expected) if expected != rendered => Err(format!(
            "{workload} seed {seed}: result differs from the recorded reference\n  expected {expected}\n  got      {rendered}"
        )),
        _ => Ok(()),
    }
}

/// Checks CSV bytes against the golden, naming the first differing byte.
///
/// # Errors
///
/// Describes the first difference when the bytes differ.
pub fn check_csv(actual: &[u8], golden: &[u8]) -> Result<(), String> {
    if actual == golden {
        return Ok(());
    }
    let at = actual
        .iter()
        .zip(golden)
        .position(|(a, g)| a != g)
        .unwrap_or_else(|| actual.len().min(golden.len()));
    Err(format!(
        "CSV differs from the golden at byte {at} ({} vs {} bytes)",
        actual.len(),
        golden.len()
    ))
}

/// Lines of `actual` that differ from the golden's line at the same
/// position, plus lines one has and the other lacks.
#[must_use]
pub fn rows_differing(actual: &[u8], golden: &[u8]) -> usize {
    let a: Vec<&[u8]> = actual.split(|&b| b == b'\n').collect();
    let g: Vec<&[u8]> = golden.split(|&b| b == b'\n').collect();
    a.iter().zip(&g).filter(|(x, y)| x != y).count() + a.len().abs_diff(g.len())
}

/// Checks a routed path: it must not revisit a node or pass through a gated
/// one.
///
/// # Errors
///
/// Describes the first violation.
pub fn check_route(route: &RouteTrace, topology: &StringFigureTopology) -> Result<(), String> {
    if route.has_loop() {
        return Err(format!(
            "route {} -> {} loops",
            route.source(),
            route.destination()
        ));
    }
    match route.path.iter().find(|n| topology.is_gated(**n)) {
        Some(gated) => Err(format!(
            "route {} -> {} passes through gated node {gated}",
            route.source(),
            route.destination()
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stringfigure::types::{NetworkConfig, NodeId};

    const REF: &str = "# comment\nuniform_1296 7 Stats { cycles: 10 }\nelastic_1296 7 [1, 2]\n";

    #[test]
    fn reference_lookup_by_workload_and_seed() {
        assert_eq!(
            reference_for(REF, "uniform_1296", 7),
            Some("Stats { cycles: 10 }")
        );
        assert_eq!(reference_for(REF, "uniform_1296", 8), None);
        assert_eq!(reference_for(REF, "elastic_1296", 7), Some("[1, 2]"));
    }

    #[test]
    fn gate_flags_a_perturbed_statistic() {
        assert!(check_reference(REF, "uniform_1296", 7, "Stats { cycles: 10 }").is_ok());
        let err = check_reference(REF, "uniform_1296", 7, "Stats { cycles: 11 }").unwrap_err();
        assert!(err.contains("differs"), "{err}");
        // No reference for this seed: nothing to compare against.
        assert!(check_reference(REF, "uniform_1296", 9, "anything").is_ok());
    }

    #[test]
    fn committed_reference_has_the_default_seed_for_every_simulated_workload() {
        for workload in ["uniform_1296", "apps_rw_1296", "elastic_1296"] {
            assert!(
                reference_for(REFERENCE, workload, crate::DEFAULT_SEED).is_some(),
                "{workload}"
            );
        }
    }

    #[test]
    fn gate_flags_a_perturbed_csv_byte() {
        assert!(check_csv(FIG10_GOLDEN, FIG10_GOLDEN).is_ok());
        let mut perturbed = FIG10_GOLDEN.to_vec();
        let last = perturbed.len() - 2;
        perturbed[last] ^= 1;
        let err = check_csv(&perturbed, FIG10_GOLDEN).unwrap_err();
        assert!(err.contains(&format!("byte {last}")), "{err}");
        assert_eq!(rows_differing(&perturbed, FIG10_GOLDEN), 1);
        let truncated = &FIG10_GOLDEN[..FIG10_GOLDEN.len() - 1];
        assert!(check_csv(truncated, FIG10_GOLDEN).is_err());
        assert_eq!(rows_differing(FIG10_GOLDEN, FIG10_GOLDEN), 0);
    }

    #[test]
    fn gate_flags_loops_and_gated_nodes() {
        let mut topo = StringFigureTopology::generate(&NetworkConfig::new(16, 4).expect("config"))
            .expect("topology");
        let n = NodeId::new;
        let clean = RouteTrace {
            path: vec![n(0), n(1), n(2)],
        };
        let looping = RouteTrace {
            path: vec![n(0), n(1), n(0), n(2)],
        };
        assert!(check_route(&clean, &topo).is_ok());
        assert!(check_route(&looping, &topo).unwrap_err().contains("loops"));
        topo.gate_node(n(1)).expect("gate");
        assert!(check_route(&clean, &topo).unwrap_err().contains("gated"));
    }
}
