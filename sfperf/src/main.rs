//! `sfperf --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`. Failure
//! details and, with `--trace 1`, the per-layer table go to standard error.
//!
//! `sfperf --workload NAME --seed N --record` prints the workload's
//! reference line for `reference.txt` instead.

use std::process::ExitCode;
use std::time::Duration;

use sfperf::{default_scratch, run, RunConfig, Scale, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: sfperf --workload <uniform_1296|apps_rw_1296|elastic_1296|fig10_sweep> \
[--seed N] [--seconds S] [--trace 0|1] [--record]";

struct Args {
    config: RunConfig,
    record: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0_f64;
    let mut trace = false;
    let mut record = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--record" {
            record = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("not a whole number"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(bad("must be between 0 and 3600"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        config: RunConfig {
            workload,
            seed,
            // A reference needs only the first operation.
            budget: if record {
                Duration::ZERO
            } else {
                Duration::from_secs_f64(seconds)
            },
            trace: trace && !record,
            scale: Scale::Standard,
            scratch: default_scratch(),
        },
        record,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { config, record } = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&config);
    for failure in &report.failures {
        eprintln!("FAILED: {failure}");
    }
    if record {
        return match (&report.result, report.failures.is_empty()) {
            (Some(result), true) => {
                println!("{} {} {result}", config.workload.name(), config.seed);
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!(
                    "error: {} has no reference to record",
                    config.workload.name()
                );
                ExitCode::FAILURE
            }
        };
    }
    if config.trace {
        eprintln!(
            "# {} seed {} per-layer table",
            config.workload.name(),
            config.seed
        );
        for line in &report.table {
            eprintln!("{line}");
        }
    }
    println!("{}", report.json(config.trace));
    ExitCode::SUCCESS
}
