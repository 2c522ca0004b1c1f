//! The `sfbench report` subcommand: an offline analyzer that turns the run
//! artifacts the other subcommands emit into one markdown report.
//!
//! Every section is opt-in by flag and reads a file format owned by this
//! workspace, so the analyzer needs no external dependencies:
//!
//! - `--trace PATH` — the JSONL span trace (`--trace` on a run): rebuilds
//!   the span nesting per thread by interval containment and renders a
//!   top-spans tree with inclusive and exclusive time per path.
//! - `--telemetry PATH` — an `sf-telemetry/v1` stream (`--telemetry` on a
//!   run): per-router congestion statistics, an ASCII heatmap grid, and an
//!   optional `--heatmap-csv` export.
//! - `--metrics PATH` — one `sf-metrics/v1` document as a value table.
//! - `--diff A B` — two `sf-metrics/v1` documents diffed per namespace,
//!   with deltas beyond [`DIFF_HIGHLIGHT_PCT`] highlighted (wall-clock
//!   namespaces `time.`/`sched.` are shown but never flagged).
//!
//! The report goes to `--out PATH` or stdout. Unreadable or unparsable
//! inputs are hard errors (exit 1), not silently empty sections.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sf_obs::telemetry::TelemetryBlock;

use crate::cli::CliArgs;
use crate::proto;

/// Boolean flags `sfbench report` accepts.
pub const REPORT_BOOL_FLAGS: &[&str] = &["--quiet"];

/// Value-carrying flags `sfbench report` accepts (`--diff` takes two
/// values, see [`CliArgs::pair`]).
pub const REPORT_VALUE_FLAGS: &[&str] = &[
    "--trace",
    "--telemetry",
    "--metrics",
    "--diff",
    "--heatmap-csv",
    "--out",
];

/// Relative change (percent) beyond which a metric diff row is highlighted.
pub const DIFF_HIGHLIGHT_PCT: f64 = 10.0;

/// Shade ramp for the heatmap grid, coolest to hottest. Starts at `.` so an
/// idle router still marks its grid cell.
const RAMP: &[u8] = b".:-=+*#%@";

// ---------------------------------------------------------------------------
// Span tree (--trace)
// ---------------------------------------------------------------------------

/// One line of the JSONL trace.
#[derive(Debug, Clone, PartialEq)]
struct TraceEvent {
    name: String,
    thread: u64,
    start_us: u64,
    dur_us: u64,
}

/// Parses the trace with the escape-aware [`proto`] reader, skipping lines
/// that are not span events (the format is append-only JSONL; a torn final
/// line from a killed run must not sink the whole report).
fn parse_trace(text: &str) -> Vec<TraceEvent> {
    text.lines()
        .filter_map(|line| {
            Some(TraceEvent {
                name: proto::field_str(line, "name")?,
                thread: proto::field_u64(line, "thread")?,
                start_us: proto::field_u64(line, "start_us")?,
                dur_us: proto::field_u64(line, "dur_us")?,
            })
        })
        .collect()
}

#[derive(Debug, Default, Clone)]
struct PathAgg {
    count: u64,
    incl_us: u64,
    child_us: u64,
}

/// Folds flat span events into path aggregates (`parent/child` keys).
///
/// Within a thread, spans nest by interval containment: events are sorted by
/// start (ties: longer first, so a parent precedes the child it encloses)
/// and a stack of open intervals assigns each event to the innermost
/// enclosing span. Identical paths on different threads merge — the tree
/// answers "where did the time go", not "on which worker".
fn aggregate_spans(events: &[TraceEvent]) -> BTreeMap<String, PathAgg> {
    let mut by_thread: BTreeMap<u64, Vec<&TraceEvent>> = BTreeMap::new();
    for event in events {
        by_thread.entry(event.thread).or_default().push(event);
    }
    let mut agg: BTreeMap<String, PathAgg> = BTreeMap::new();
    for events in by_thread.into_values() {
        let mut events = events;
        events.sort_by(|a, b| a.start_us.cmp(&b.start_us).then(b.dur_us.cmp(&a.dur_us)));
        let mut open: Vec<(u64, String)> = Vec::new(); // (end_us, path)
        for event in events {
            while open.last().is_some_and(|(end, _)| event.start_us >= *end) {
                open.pop();
            }
            let path = match open.last() {
                Some((_, parent)) => {
                    agg.entry(parent.clone()).or_default().child_us += event.dur_us;
                    format!("{parent}/{}", event.name)
                }
                None => event.name.clone(),
            };
            let entry = agg.entry(path.clone()).or_default();
            entry.count += 1;
            entry.incl_us += event.dur_us;
            open.push((event.start_us + event.dur_us, path));
        }
    }
    agg
}

/// Renders the aggregate map as an indented tree, siblings sorted by
/// inclusive time descending.
fn render_span_tree(agg: &BTreeMap<String, PathAgg>) -> String {
    let mut children: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut roots: Vec<&str> = Vec::new();
    for path in agg.keys() {
        match path.rfind('/') {
            Some(i) => children.entry(&path[..i]).or_default().push(path),
            None => roots.push(path),
        }
    }
    let by_incl = |a: &&str, b: &&str| agg[*b].incl_us.cmp(&agg[*a].incl_us).then(a.cmp(b));
    roots.sort_by(by_incl);
    for siblings in children.values_mut() {
        siblings.sort_by(by_incl);
    }
    let mut out = String::new();
    let mut stack: Vec<(usize, &str)> = roots.into_iter().rev().map(|p| (0, p)).collect();
    while let Some((depth, path)) = stack.pop() {
        let a = &agg[path];
        let name = path.rsplit('/').next().unwrap_or(path);
        let excl_us = a.incl_us.saturating_sub(a.child_us);
        let _ = writeln!(
            out,
            "{:indent$}{:<width$} {:>6}x  incl {:>10.3} ms  excl {:>10.3} ms",
            "",
            name,
            a.count,
            a.incl_us as f64 / 1e3,
            excl_us as f64 / 1e3,
            indent = depth * 2,
            width = 28usize.saturating_sub(depth * 2),
        );
        if let Some(kids) = children.get(path) {
            for kid in kids.iter().rev() {
                stack.push((depth + 1, kid));
            }
        }
    }
    out
}

fn trace_section(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace {path}: {e}"))?;
    let events = parse_trace(&text);
    let mut out = format!(
        "\n## Span tree\n\n{} span event(s) from `{path}`.\n",
        events.len()
    );
    if events.is_empty() {
        out.push_str("\n(no spans — was the run traced with `--trace`?)\n");
        return Ok(out);
    }
    out.push_str("\n```\n");
    out.push_str(&render_span_tree(&aggregate_spans(&events)));
    out.push_str("```\n");
    Ok(out)
}

// ---------------------------------------------------------------------------
// Congestion heatmap (--telemetry)
// ---------------------------------------------------------------------------

/// Per-router congestion aggregate over every block of one stream.
#[derive(Debug, Clone, PartialEq)]
struct CongestionStats {
    routers: usize,
    links: usize,
    blocks_used: usize,
    blocks_skipped: usize,
    samples: u64,
    /// Mean queue depth per router over all samples of all used blocks.
    mean_queue: Vec<f64>,
    /// Maximum sampled queue depth per router.
    max_queue: Vec<u32>,
    /// Final cumulative credit stalls per router, summed across blocks.
    stalls: Vec<u64>,
    mean_link_occ: f64,
    max_link_occ: u32,
    /// Distinct sampling strides seen across blocks, ascending.
    cadences: Vec<u64>,
}

/// Aggregates the blocks that share the first block's router count (a stream
/// from a sweep over network sizes mixes block shapes; the heatmap needs one
/// grid, so the rest are counted as skipped).
fn congestion_stats(blocks: &[TelemetryBlock]) -> Option<CongestionStats> {
    let first = blocks.first()?;
    let routers = first.routers as usize;
    let links = first.links as usize;
    let mut stats = CongestionStats {
        routers,
        links,
        blocks_used: 0,
        blocks_skipped: 0,
        samples: 0,
        mean_queue: vec![0.0; routers],
        max_queue: vec![0; routers],
        stalls: vec![0; routers],
        mean_link_occ: 0.0,
        max_link_occ: 0,
        cadences: Vec::new(),
    };
    let mut link_cells = 0u64;
    let mut link_sum = 0f64;
    for block in blocks {
        if block.routers as usize != routers || block.links as usize != links {
            stats.blocks_skipped += 1;
            continue;
        }
        stats.blocks_used += 1;
        if !stats.cadences.contains(&block.every) {
            stats.cadences.push(block.every);
        }
        let samples = block.samples();
        stats.samples += samples as u64;
        for sample in 0..samples {
            for (router, &depth) in block.queue_row(sample).iter().enumerate() {
                stats.mean_queue[router] += f64::from(depth);
                stats.max_queue[router] = stats.max_queue[router].max(depth);
            }
            for &occ in block.link_row(sample) {
                link_sum += f64::from(occ);
                stats.max_link_occ = stats.max_link_occ.max(occ);
                link_cells += 1;
            }
        }
        if samples > 0 {
            // Stalls are cumulative within a run, so the last sample is the
            // run total; blocks are independent runs and sum.
            for (router, &stalled) in block.stall_row(samples - 1).iter().enumerate() {
                stats.stalls[router] += stalled;
            }
        }
    }
    if stats.samples > 0 {
        for mean in &mut stats.mean_queue {
            *mean /= stats.samples as f64;
        }
    }
    if link_cells > 0 {
        stats.mean_link_occ = link_sum / link_cells as f64;
    }
    stats.cadences.sort_unstable();
    Some(stats)
}

/// Renders the per-router mean queue depth as a row-major square-ish grid of
/// shade characters, normalised to the busiest router.
fn render_heatmap(stats: &CongestionStats) -> String {
    let side = (stats.routers as f64).sqrt().ceil().max(1.0) as usize;
    let peak = stats.mean_queue.iter().copied().fold(0.0f64, f64::max);
    let mut out = String::new();
    for row in 0..stats.routers.div_ceil(side) {
        for col in 0..side {
            let router = row * side + col;
            if router >= stats.routers {
                break;
            }
            let shade = if peak > 0.0 {
                let idx = (stats.mean_queue[router] / peak * (RAMP.len() - 1) as f64).round();
                RAMP[idx as usize]
            } else {
                RAMP[0]
            };
            out.push(shade as char);
        }
        out.push('\n');
    }
    out
}

/// The `--heatmap-csv` export: one row per router.
fn congestion_csv(stats: &CongestionStats) -> String {
    let mut out = String::from("router,mean_queue,max_queue,stalls\n");
    for router in 0..stats.routers {
        let _ = writeln!(
            out,
            "{router},{:.4},{},{}",
            stats.mean_queue[router], stats.max_queue[router], stats.stalls[router]
        );
    }
    out
}

fn telemetry_section(path: &str, csv_path: Option<&str>) -> Result<String, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read telemetry {path}: {e}"))?;
    let blocks = sf_obs::telemetry::parse_stream(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::from("\n## Congestion heatmap\n\n");
    let Some(stats) = congestion_stats(&blocks) else {
        let _ = writeln!(out, "`{path}` is a valid but empty telemetry stream.");
        return Ok(out);
    };
    let cadences = stats
        .cadences
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(", ");
    let _ = writeln!(
        out,
        "`{path}`: {} block(s), {} sample(s), cadence every {{{cadences}}} cycle(s).",
        stats.blocks_used, stats.samples
    );
    if stats.blocks_skipped > 0 {
        let _ = writeln!(
            out,
            "Skipped {} block(s) with a different network shape than the first.",
            stats.blocks_skipped
        );
    }
    let _ = writeln!(
        out,
        "{} router(s), {} link(s); link occupancy mean {:.3} / max {} flit(s).",
        stats.routers, stats.links, stats.mean_link_occ, stats.max_link_occ
    );
    out.push_str("\nPer-router mean queue depth (`.` cool to `@` hot, row-major):\n\n```\n");
    out.push_str(&render_heatmap(&stats));
    out.push_str("```\n");
    let mut busiest: Vec<usize> = (0..stats.routers).collect();
    busiest.sort_by(|&a, &b| {
        stats.mean_queue[b]
            .total_cmp(&stats.mean_queue[a])
            .then(a.cmp(&b))
    });
    out.push_str("\nBusiest routers:\n\n");
    for &router in busiest.iter().take(5) {
        let _ = writeln!(
            out,
            "- router {router}: mean queue {:.3}, max {}, {} credit stall(s)",
            stats.mean_queue[router], stats.max_queue[router], stats.stalls[router]
        );
    }
    if let Some(csv_path) = csv_path {
        std::fs::write(csv_path, congestion_csv(&stats))
            .map_err(|e| format!("cannot write {csv_path}: {e}"))?;
        let _ = writeln!(out, "\nPer-router CSV exported to `{csv_path}`.");
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Metrics table and diff (--metrics / --diff)
// ---------------------------------------------------------------------------

/// Extracts the flat numeric metrics of an `sf-metrics/v1` document (or any
/// flat `"name": number` JSON object). Histogram values are encoded strings
/// and are skipped; the span array before the `"metrics"` key is ignored.
fn parse_metrics(text: &str) -> BTreeMap<String, f64> {
    let start = text
        .find("\"metrics\":")
        .map_or(0, |i| i + "\"metrics\":".len());
    let mut out = BTreeMap::new();
    for line in text[start..].lines() {
        let line = line.trim().trim_end_matches(',');
        let Some(rest) = line.strip_prefix('"') else {
            continue;
        };
        let Some((name, rest)) = rest.split_once('"') else {
            continue;
        };
        let Some(value) = rest.trim_start().strip_prefix(':') else {
            continue;
        };
        if let Ok(value) = value.trim().parse::<f64>() {
            out.insert(name.to_string(), value);
        }
    }
    out
}

/// `sim.delivered` → `sim`; names without a dot group under `(other)`.
fn namespace(name: &str) -> &str {
    name.split_once('.').map_or("(other)", |(ns, _)| ns)
}

fn fmt_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.3}")
    }
}

fn metrics_section(path: &str) -> Result<String, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read metrics {path}: {e}"))?;
    let metrics = parse_metrics(&text);
    let mut out = format!(
        "\n## Metrics\n\n{} numeric metric(s) from `{path}`.\n\n| metric | value |\n|---|---:|\n",
        metrics.len()
    );
    for (name, value) in &metrics {
        let _ = writeln!(out, "| `{name}` | {} |", fmt_value(*value));
    }
    Ok(out)
}

/// The cross-run diff table, grouped per namespace. Rows whose relative
/// change exceeds [`DIFF_HIGHLIGHT_PCT`] are bolded — except under the
/// wall-clock namespaces `time.`/`sched.`, which legitimately vary run to
/// run and are informational only.
fn render_diff(a: &BTreeMap<String, f64>, b: &BTreeMap<String, f64>) -> String {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    let mut out = String::new();
    let mut current_ns = "";
    let mut highlighted = 0usize;
    for name in names {
        let ns = namespace(name);
        if ns != current_ns {
            current_ns = ns;
            let _ = write!(
                out,
                "\n### `{ns}.*`\n\n| metric | a | b | delta | delta% |\n|---|---:|---:|---:|---:|\n"
            );
        }
        let (va, vb) = (a.get(name), b.get(name));
        let (delta_text, pct_text, flag) = match (va, vb) {
            (Some(&va), Some(&vb)) => {
                let delta = vb - va;
                let pct = if va != 0.0 {
                    Some(delta / va * 100.0)
                } else if delta == 0.0 {
                    Some(0.0)
                } else {
                    None
                };
                let big = match pct {
                    Some(p) => p.abs() >= DIFF_HIGHLIGHT_PCT,
                    None => true,
                };
                let flag = !matches!(ns, "time" | "sched") && big && delta != 0.0;
                let delta_text = if delta > 0.0 {
                    format!("+{}", fmt_value(delta))
                } else {
                    fmt_value(delta)
                };
                (
                    delta_text,
                    pct.map_or_else(|| "n/a".to_string(), |p| format!("{p:+.1}%")),
                    flag,
                )
            }
            _ => ("-".to_string(), "-".to_string(), false),
        };
        let cell = |v: Option<&f64>| v.map_or_else(|| "-".to_string(), |v| fmt_value(*v));
        if flag {
            highlighted += 1;
            let _ = writeln!(
                out,
                "| `{name}` | {} | {} | **{delta_text}** | **{pct_text}** |",
                cell(va),
                cell(vb)
            );
        } else {
            let _ = writeln!(
                out,
                "| `{name}` | {} | {} | {delta_text} | {pct_text} |",
                cell(va),
                cell(vb)
            );
        }
    }
    let _ = writeln!(
        out,
        "\n{highlighted} metric(s) changed by at least {DIFF_HIGHLIGHT_PCT:.0}% \
         (bold; `time.*`/`sched.*` are wall-clock and never flagged)."
    );
    out
}

fn diff_section(path_a: &str, path_b: &str) -> Result<String, String> {
    let text_a =
        std::fs::read_to_string(path_a).map_err(|e| format!("cannot read {path_a}: {e}"))?;
    let text_b =
        std::fs::read_to_string(path_b).map_err(|e| format!("cannot read {path_b}: {e}"))?;
    let a = parse_metrics(&text_a);
    let b = parse_metrics(&text_b);
    if a.is_empty() || b.is_empty() {
        return Err(format!(
            "metric diff needs two sf-metrics/v1 documents ({path_a}: {} metrics, {path_b}: {})",
            a.len(),
            b.len()
        ));
    }
    Ok(format!(
        "\n## Metric diff\n\na = `{path_a}`, b = `{path_b}`.\n{}",
        render_diff(&a, &b)
    ))
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Entry point for `sfbench report`; returns the process exit code.
#[must_use]
pub fn run(args: &CliArgs) -> i32 {
    let unknown = args.unknown_flags(REPORT_BOOL_FLAGS, REPORT_VALUE_FLAGS);
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown or malformed flag(s) {}; known: {} {}",
            unknown.join(", "),
            REPORT_BOOL_FLAGS.join(" "),
            REPORT_VALUE_FLAGS.join(" ")
        );
        return 2;
    }
    let quiet = args.flag("--quiet");
    let mut md = String::from("# sfbench report\n");
    let mut sections = 0usize;
    let mut push = |md: &mut String, section: Result<String, String>| match section {
        Ok(text) => {
            md.push_str(&text);
            sections += 1;
            true
        }
        Err(e) => {
            eprintln!("error: {e}");
            false
        }
    };
    if let Some(path) = args.value("--trace") {
        if !push(&mut md, trace_section(&path)) {
            return 1;
        }
    }
    if let Some(path) = args.value("--telemetry") {
        let csv = args.value("--heatmap-csv");
        if !push(&mut md, telemetry_section(&path, csv.as_deref())) {
            return 1;
        }
    } else if args.value("--heatmap-csv").is_some() {
        eprintln!("# warning: --heatmap-csv has no effect without --telemetry PATH");
    }
    if let Some(path) = args.value("--metrics") {
        if !push(&mut md, metrics_section(&path)) {
            return 1;
        }
    }
    if let Some((a, b)) = args.pair("--diff") {
        if !push(&mut md, diff_section(&a, &b)) {
            return 1;
        }
    }
    if sections == 0 {
        eprintln!(
            "error: report needs at least one input \
             (--trace, --telemetry, --metrics, --diff A B)"
        );
        return 2;
    }
    match args.value("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &md) {
                eprintln!("error: cannot write {path}: {e}");
                return 1;
            }
            if !quiet {
                eprintln!("# wrote {path} ({sections} section(s))");
            }
        }
        None => print!("{md}"),
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(name: &str, thread: u64, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            name: name.to_string(),
            thread,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn trace_lines_parse_and_garbage_is_skipped() {
        let text = "{\"name\":\"a\",\"thread\":0,\"start_us\":10,\"dur_us\":5}\n\
                    not json at all\n\
                    {\"name\":\"b\",\"thread\":1,\"start_us\":0,\"dur_us\":7}\n\
                    {\"name\":\"a\\\"b\",\"thread\":1,\"start_us\":0,\"dur_us\":5}\n\
                    {\"name\":\"torn\",\"thread\":2";
        let events = parse_trace(text);
        // An escaped quote stays inside the name instead of ending it.
        assert_eq!(
            events,
            vec![
                event("a", 0, 10, 5),
                event("b", 1, 0, 7),
                event("a\"b", 1, 0, 5)
            ]
        );
    }

    #[test]
    fn span_aggregation_nests_by_containment_and_splits_exclusive_time() {
        // Thread 0: parent [0,100) containing child [10,40) twice-named spans;
        // thread 1: an identical parent path merges in.
        let events = vec![
            event("parent", 0, 0, 100),
            event("child", 0, 10, 30),
            event("child", 0, 50, 20),
            event("parent", 1, 0, 10),
            event("solo", 1, 200, 5),
        ];
        let agg = aggregate_spans(&events);
        assert_eq!(agg["parent"].count, 2);
        assert_eq!(agg["parent"].incl_us, 110);
        assert_eq!(agg["parent"].child_us, 50);
        assert_eq!(agg["parent/child"].count, 2);
        assert_eq!(agg["parent/child"].incl_us, 50);
        assert_eq!(agg["solo"].incl_us, 5);
        let tree = render_span_tree(&agg);
        let parent_line = tree.lines().position(|l| l.contains("parent")).unwrap();
        let child_line = tree.lines().position(|l| l.contains("child")).unwrap();
        assert!(parent_line < child_line, "{tree}");
        // parent exclusive = 110us inclusive minus 50us of children.
        assert!(tree.contains("0.060 ms"), "{tree}");
    }

    #[test]
    fn congestion_stats_aggregate_queues_links_and_stalls() {
        let mut series = sf_obs::telemetry::RunSeries::new(2, 3, 4);
        assert!(series.begin_sample(0, 0.0, 0.0));
        series.push_router(1, 0);
        series.push_router(3, 2);
        for occ in [1u32, 2, 3] {
            series.push_link(occ);
        }
        assert!(series.begin_sample(4, 1.0, 1.0));
        series.push_router(5, 1);
        series.push_router(1, 4);
        for occ in [0u32, 0, 6] {
            series.push_link(occ);
        }
        let mut stream = sf_obs::telemetry::MAGIC.to_vec();
        stream.extend_from_slice(&series.encode());
        let blocks = sf_obs::telemetry::parse_stream(&stream).expect("stream parses");
        let stats = congestion_stats(&blocks).expect("stats");
        assert_eq!(stats.blocks_used, 1);
        assert_eq!(stats.samples, 2);
        assert_eq!(stats.mean_queue, vec![3.0, 2.0]);
        assert_eq!(stats.max_queue, vec![5, 3]);
        assert_eq!(stats.stalls, vec![1, 4]);
        assert!((stats.mean_link_occ - 2.0).abs() < 1e-12);
        assert_eq!(stats.max_link_occ, 6);
        assert_eq!(stats.cadences, vec![4]);
        let grid = render_heatmap(&stats);
        // Two routers → a 2-wide grid; the hottest cell tops the ramp, the
        // other lands at round(2/3 * 8) = 5 → '*'.
        assert_eq!(grid, "@*\n");
        let csv = congestion_csv(&stats);
        assert!(csv.starts_with("router,mean_queue,max_queue,stalls\n"));
        assert!(csv.contains("0,3.0000,5,1"), "{csv}");
    }

    #[test]
    fn metrics_parse_skips_histograms_and_diff_highlights_regressions() {
        let doc_a = "{\n\"schema\": \"sf-metrics/v1\",\n\"spans\": [\n\
                     {\"name\": \"x\", \"count\": 1, \"total_us\": 9, \"max_us\": 9}\n],\n\
                     \"metrics\": {\n\"sim.delivered\": 100,\n\
                     \"sim.latency\": \"hist:v1:...\",\n\"time.wall_us\": 500\n}\n}\n";
        let a = parse_metrics(doc_a);
        assert_eq!(a.get("sim.delivered"), Some(&100.0));
        assert_eq!(a.get("time.wall_us"), Some(&500.0));
        assert!(!a.contains_key("sim.latency"), "histogram string kept");
        assert!(!a.contains_key("x"), "span row leaked into metrics");

        let mut b = a.clone();
        b.insert("sim.delivered".to_string(), 150.0);
        b.insert("time.wall_us".to_string(), 9_999.0);
        let diff = render_diff(&a, &b);
        assert!(diff.contains("### `sim.*`"), "{diff}");
        assert!(diff.contains("**+50**"), "{diff}");
        // Wall-clock namespaces are shown but never bolded.
        assert!(diff.contains("`time.wall_us`"), "{diff}");
        assert!(!diff.contains("**+9499**"), "{diff}");
    }
}
