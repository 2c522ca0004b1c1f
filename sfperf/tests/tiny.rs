//! A tiny-size run of every workload, untraced and traced, emits every
//! metric with its unit and passes the correctness gate.

use std::time::Duration;

use sfperf::{default_scratch, run, RunConfig, Scale, Workload, END_TO_END, PER_LAYER};

/// Per-layer metrics that must be measured (non-zero) on each workload.
fn expected_per_layer(workload: Workload) -> &'static [&'static str] {
    const SIM: &[&str] = &[
        "routing.decisions",
        "routing.decide_ns_mean",
        "routing.decide_s",
        "routing.build_ms",
        "simcore.run_s",
        "simcore.self_s",
        "simcore.cycle_us_p50",
        "simcore.cycle_us_p99",
        "simcore.cycles",
        "simcore.delivered",
        "simcore.hops",
        "simcore.new_ms",
        "simcore.packets_per_s",
        "workloads.inject_s",
        "workloads.inject_calls",
        "workloads.requests",
        "topology.generate_ms",
        "bench.timed_s",
        "bench.accounted_pct",
        "bench.host_speed",
    ];
    match workload {
        Workload::Uniform1296 => SIM,
        Workload::AppsRw1296 => &[
            "simcore.completed_requests",
            "workloads.write_share",
            "workloads.llc_miss_rate",
        ],
        Workload::Elastic1296 => &[
            "routing.build_ms",
            "routing.resync_ms_p50",
            "routing.route_sample_ms",
            "topology.generate_ms",
            "topology.gate_ms_p50",
            "topology.shortcuts_toggled",
            "core.reconfig_ms_p50",
            "core.reconfig_ms_p90",
            "bench.timed_s",
            "bench.accounted_pct",
            "bench.host_speed",
        ],
        Workload::Fig10Sweep => &[
            "simcore.blocked_ratio",
            "simcore.cycles",
            "simcore.delivered",
            "simcore.hops",
            "simcore.blocked_forwards",
            "topology.generate_ms",
            "harness.jobs",
            "harness.rows",
            "harness.sink_bytes",
            "harness.cache_hits",
            "harness.cache_misses",
            "harness.first_row_ms",
            "bench.timed_s",
            "bench.accounted_pct",
            "bench.host_speed",
        ],
    }
}

// One test, run sequentially: fig10 reads process-global metric and span
// registries that concurrent simulations would also write to.
#[test]
fn tiny_runs_emit_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let config = RunConfig {
                workload,
                seed: 5,
                budget: Duration::ZERO,
                trace,
                scale: Scale::Tiny,
                scratch: default_scratch(),
            };
            let report = run(&config);
            let what = format!("{} trace={trace}", workload.name());
            assert!(report.failures.is_empty(), "{what}: {:?}", report.failures);
            assert!(report.attempted > 0, "{what}");
            let line = report.json(trace);
            assert!(line.starts_with("{\"correct\": true"), "{what}: {line}");
            let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in catalogue {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": "))
                        && line.contains(&format!("\"unit\": \"{unit}\"")),
                    "{what}: {name} [{unit}] missing from {line}"
                );
            }
            let value = |name: &str| report.values.get(name).copied().unwrap_or(0.0);
            if trace {
                let mut expected = expected_per_layer(workload).to_vec();
                if workload == Workload::AppsRw1296 {
                    expected.extend(expected_per_layer(Workload::Uniform1296));
                }
                for name in expected {
                    assert!(value(name) > 0.0, "{what}: {name} = {}", value(name));
                }
                // The parts of the per-layer table sum to the whole.
                if matches!(workload, Workload::Uniform1296 | Workload::AppsRw1296) {
                    let parts = value("routing.decide_s")
                        + value("workloads.inject_s")
                        + value("simcore.self_s");
                    assert!((parts - value("simcore.run_s")).abs() < 1e-9, "{what}");
                }
            } else {
                for (name, _) in END_TO_END {
                    assert!(value(name) > 0.0, "{what}: {name} = {}", value(name));
                }
            }
        }
    }
}
