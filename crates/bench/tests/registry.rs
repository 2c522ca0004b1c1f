//! Registry completeness and golden-artifact tests for the unified study
//! API.
//!
//! * Every study listed in the `study` module doc table — the eight paper
//!   artefacts plus the extended scenarios — must be registered under that
//!   name with that artefact and a non-empty description, in the right
//!   registry group.
//! * `sfbench run <study> --quick --csv` must emit a CSV byte-identical to
//!   the golden fixture under `tests/golden/` (the paper goldens were
//!   captured before the PR-3 redesign; the scenario goldens pin the
//!   studies introduced with the fault-injection subsystem).
//! * A run resumed from a truncated (interrupted) checkpoint journal must
//!   produce the same bytes as an uninterrupted run.

use sf_bench::cli;
use stringfigure::study::{execute, study_fingerprint, RunContext, Study, StudyRegistry};

#[test]
fn registry_covers_every_artefact_in_the_study_doc_table() {
    // Rows of the `study` module doc table: `//! | `name` | module | artefact |`.
    let source = include_str!("../../core/src/study.rs");
    let mut rows = Vec::new();
    for line in source.lines() {
        let Some(rest) = line.trim_start().strip_prefix("//! | `") else {
            continue;
        };
        let cells: Vec<&str> = rest.split('|').map(str::trim).collect();
        let (Some(name), Some(artefact)) = (cells[0].strip_suffix('`'), cells.get(2)) else {
            panic!("malformed study doc table row: {line}");
        };
        rows.push((name, *artefact));
    }
    assert_eq!(
        rows.len(),
        12,
        "the study doc table should list the eight paper artefacts plus the four scenarios"
    );
    let paper = StudyRegistry::paper();
    let extended = StudyRegistry::extended();
    let registry = StudyRegistry::all();
    assert_eq!(registry.len(), paper.len() + extended.len());
    assert_eq!(registry.len(), rows.len(), "registry and doc table differ");
    for (name, artefact) in rows {
        let study = registry
            .get(name)
            .filter(|s| s.name() == name)
            .unwrap_or_else(|| panic!("no registered study named {name}"));
        assert_eq!(study.artefact(), artefact, "study {name} artefact");
        assert!(
            !study.description().is_empty(),
            "study {name} has an empty description"
        );
        // Scenario studies live in the extended group and only there;
        // everything else is a paper artefact and only that.
        let is_scenario = artefact.starts_with("Scenario:");
        assert_eq!(
            extended.get(name).is_some(),
            is_scenario,
            "study {name} is in the wrong registry group"
        );
        assert_eq!(
            paper.get(name).is_some(),
            !is_scenario,
            "study {name} is in the wrong registry group"
        );
    }
}

/// Runs `sfbench run <study> --quick --csv <tmp>` through the real CLI entry
/// point and returns the emitted CSV.
fn run_quick_csv(study: &str) -> String {
    let path =
        std::env::temp_dir().join(format!("sfbench-golden-{study}-{}.csv", std::process::id()));
    let code = cli::main(vec![
        "run".into(),
        study.into(),
        "--quick".into(),
        "--no-resume".into(),
        "--csv".into(),
        path.to_str().unwrap().into(),
    ]);
    assert_eq!(code, 0, "sfbench run {study} failed");
    let csv = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    csv
}

#[test]
fn fig05_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig05"),
        include_str!("golden/fig05_surg_path_length.quick.csv")
    );
}

#[test]
fn fig08_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig08"),
        include_str!("golden/fig08_table02_configs.quick.csv")
    );
}

#[test]
fn fig10_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig10"),
        include_str!("golden/fig10_saturation.quick.csv")
    );
}

#[test]
fn fig09a_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig09a"),
        include_str!("golden/fig09a_hop_counts.quick.csv")
    );
}

#[test]
fn fig09b_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig09b"),
        include_str!("golden/fig09b_powergate_edp.quick.csv")
    );
}

#[test]
fn fig11_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig11"),
        include_str!("golden/fig11_latency_curves.quick.csv")
    );
}

#[test]
fn fig12_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("fig12"),
        include_str!("golden/fig12_workloads.quick.csv")
    );
}

#[test]
fn bisection_quick_csv_is_byte_identical_to_the_pre_redesign_binary() {
    assert_eq!(
        run_quick_csv("bisection"),
        include_str!("golden/bisection_bandwidth.quick.csv")
    );
}

#[test]
fn fault_resilience_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("fault_resilience"),
        include_str!("golden/fault_resilience.quick.csv")
    );
}

#[test]
fn adversarial_saturation_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("adversarial_saturation"),
        include_str!("golden/adversarial_saturation.quick.csv")
    );
}

#[test]
fn scaleout_2048_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("scaleout_2048"),
        include_str!("golden/scaleout_2048.quick.csv")
    );
}

#[test]
fn megasweep_quick_csv_matches_its_golden() {
    assert_eq!(
        run_quick_csv("megasweep"),
        include_str!("golden/megasweep.quick.csv")
    );
}

#[test]
fn megasweep_quick_csv_is_worker_count_independent_with_compaction() {
    // The acceptance matrix of the streaming pipeline: {1, 4} workers ×
    // {uninterrupted, compacted journal} all produce identical row bytes.
    let pid = std::process::id();
    let reference = include_str!("golden/megasweep.quick.csv");
    for (workers, cap) in [(1usize, None), (4, None), (1, Some(200u64)), (4, Some(200))] {
        let csv = std::env::temp_dir().join(format!(
            "sfbench-megasweep-{pid}-{workers}-{}.csv",
            cap.unwrap_or(0)
        ));
        let journal = std::env::temp_dir().join(format!(
            "sfbench-megasweep-{pid}-{workers}-{}.journal",
            cap.unwrap_or(0)
        ));
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&journal);
        let registry = StudyRegistry::extended();
        let study = registry.get("megasweep").unwrap();
        let mut ctx = RunContext::new()
            .quick(true)
            .with_pool(sf_harness::PoolConfig::threads(workers).with_chunk(2))
            .with_csv(&csv)
            .with_checkpoint(&journal);
        if let Some(bytes) = cap {
            ctx = ctx.with_max_journal_bytes(bytes);
        }
        execute(study, &ctx).unwrap();
        assert_eq!(
            std::fs::read_to_string(&csv).unwrap(),
            reference,
            "workers={workers} cap={cap:?}"
        );
        assert!(!journal.exists());
        std::fs::remove_file(&csv).unwrap();
    }
}

#[test]
fn interrupted_fig08_run_resumes_bit_identically() {
    let pid = std::process::id();
    let journal = std::env::temp_dir().join(format!("sfbench-resume-{pid}.journal"));
    let csv = std::env::temp_dir().join(format!("sfbench-resume-{pid}.csv"));
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&csv);

    let registry = StudyRegistry::paper();
    let study = registry.get("fig08").unwrap();

    // Reference: uninterrupted run, no checkpointing.
    let reference = study.run(&RunContext::new().quick(true)).unwrap();

    // Full run with a journal, without `execute`'s cleanup — then truncate
    // the journal to the header plus five completed jobs, simulating a kill
    // partway through.
    let first = RunContext::new().quick(true).with_checkpoint(&journal);
    first
        .resume_checkpoint(study_fingerprint(study, &first))
        .unwrap();
    let _ = study.run(&first).unwrap();
    let text = std::fs::read_to_string(&journal).unwrap();
    let kept: Vec<&str> = text.lines().take(6).collect();
    std::fs::write(&journal, format!("{}\n", kept.join("\n"))).unwrap();

    // Resume: restores the five journalled jobs, recomputes the rest, and
    // must emit exactly the reference bytes before removing the journal.
    let resumed_ctx = RunContext::new()
        .quick(true)
        .with_checkpoint(&journal)
        .with_csv(&csv);
    let resumed = execute(study, &resumed_ctx).unwrap();
    assert_eq!(resumed, reference);
    assert_eq!(std::fs::read_to_string(&csv).unwrap(), reference.to_csv());
    assert!(!journal.exists(), "journal must be removed after success");
    std::fs::remove_file(&csv).unwrap();
}

#[test]
fn old_binary_names_resolve_as_aliases() {
    let registry = StudyRegistry::paper();
    for (alias, name) in [
        ("fig05_surg_path_length", "fig05"),
        ("fig08_table02_configs", "fig08"),
        ("fig09a_hop_counts", "fig09a"),
        ("fig09b_powergate_edp", "fig09b"),
        ("fig10_saturation", "fig10"),
        ("fig11_latency_curves", "fig11"),
        ("fig12_workloads", "fig12"),
        ("bisection_bandwidth", "bisection"),
    ] {
        assert_eq!(
            registry.get(alias).map(Study::name),
            Some(name),
            "alias {alias}"
        );
    }
}
