//! The distributed-sweep entry points: `sfbench merge` stitches
//! `--partition` shard artifacts back into the serial artifact, and
//! `sfbench dispatch` is a same-host coordinator that spawns N partition
//! workers, watches their heartbeat files, re-issues dead or silent workers
//! through the journal resume path, and auto-merges the shards.
//!
//! The byte-surgery (shard discovery, metadata validation, CSV/JSON/
//! telemetry stitching) lives in `sf_harness::fabric`; this module is the
//! CLI and process-supervision layer on top. Worker invocation hides behind
//! the small [`Launcher`] trait so the supervision logic (retry budget,
//! straggler timeout, aggregate progress) is unit-testable with scripted
//! fake workers — and so a future multi-host launcher (ssh, a job queue)
//! slots in without touching the coordinator loop.

use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sf_harness::fabric::{self, MergeError, Partition, ShardFormat, ShardMeta};
use stringfigure::study::StudyRegistry;

use crate::cli::{CliArgs, RUN_NUMERIC_FLAGS};

/// Boolean flags `sfbench merge` accepts.
const MERGE_BOOL_FLAGS: &[&str] = &["--allow-partial", "--quiet"];

/// Value-carrying flags `sfbench merge` accepts.
const MERGE_VALUE_FLAGS: &[&str] = &["--csv", "--json", "--telemetry"];

/// Runs `sfbench merge`: for each base artifact named by `--csv`/`--json`/
/// `--telemetry`, discovers its `<base>.p<i>of<N>` shards, validates their
/// metadata, and writes the stitched artifact to the base path. Every
/// failure — including a fingerprint mismatch — prints an actionable
/// message and returns exit code 2 rather than panicking.
#[must_use]
pub fn merge_main(args: &CliArgs) -> i32 {
    let unknown = args.unknown_flags(MERGE_BOOL_FLAGS, MERGE_VALUE_FLAGS);
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown or malformed flag(s) {}; known: {} {}",
            unknown.join(", "),
            MERGE_BOOL_FLAGS.join(" "),
            MERGE_VALUE_FLAGS.join(" ")
        );
        return 2;
    }
    let allow_partial = args.flag("--allow-partial");
    let quiet = args.flag("--quiet");
    let bases: Vec<(ShardFormat, String)> = [
        (ShardFormat::Csv, "--csv"),
        (ShardFormat::Json, "--json"),
        (ShardFormat::Telemetry, "--telemetry"),
    ]
    .into_iter()
    .filter_map(|(format, flag)| args.value(flag).map(|base| (format, base)))
    .collect();
    if bases.is_empty() {
        eprintln!("error: 'merge' needs at least one of --csv/--json/--telemetry PATH");
        return 2;
    }
    for (format, base) in &bases {
        if let Err(e) = merge_base(Path::new(base), *format, allow_partial, quiet) {
            eprintln!("error: merging {base}: {e}");
            return 2;
        }
    }
    0
}

/// Merges the shard set of one base artifact. With `allow_partial` and a
/// gap in the CSV shard set, the present rows are journalled to
/// `<base>.journal` under the serial fingerprint instead, so a plain
/// `sfbench run` resumes exactly the missing ranges.
fn merge_base(
    base: &Path,
    format: ShardFormat,
    allow_partial: bool,
    quiet: bool,
) -> Result<(), MergeError> {
    let shards = load_shards(base, format)?;
    let plan = fabric::plan_merge(&shards)?;
    if !plan.missing.is_empty() {
        if !allow_partial {
            return Err(MergeError::Missing(plan.missing));
        }
        let mut journal = base.as_os_str().to_os_string();
        journal.push(".journal");
        let journal = PathBuf::from(journal);
        let rows = fabric::partial_journal(&shards, &journal)?;
        if !quiet {
            let missing: Vec<String> = plan.missing.iter().map(ToString::to_string).collect();
            eprintln!(
                "# partial merge: journalled {rows} rows to {} (missing partition(s) {}); \
                 rerun the study without --partition to resume the rest",
                journal.display(),
                missing.join(", ")
            );
        }
        return Ok(());
    }
    match format {
        ShardFormat::Csv => {
            let rows = fabric::merge_csv(&shards, base)?;
            if !quiet {
                eprintln!("# merged {rows} CSV rows into {}", base.display());
            }
        }
        ShardFormat::Json => {
            let rows = fabric::merge_json(&shards, base)?;
            if !quiet {
                eprintln!("# merged {rows} JSON rows into {}", base.display());
            }
        }
        ShardFormat::Telemetry => {
            fabric::merge_telemetry(&shards, base)?;
            if !quiet {
                eprintln!(
                    "# merged {} telemetry shards into {}",
                    shards.len(),
                    base.display()
                );
            }
        }
    }
    Ok(())
}

/// Discovers the shards of `base` and pairs each with its validated
/// metadata sidecar. The filename coordinate must agree with the sidecar's,
/// and every sidecar must carry the format the flag implies.
fn load_shards(base: &Path, format: ShardFormat) -> Result<Vec<(PathBuf, ShardMeta)>, MergeError> {
    let found = fabric::discover_shards(base)?;
    if found.is_empty() {
        return Err(MergeError::Shard(format!(
            "no {}.p<i>of<N> shards found",
            base.display()
        )));
    }
    let mut shards = Vec::with_capacity(found.len());
    for (p, path) in found {
        let meta = ShardMeta::read_for(&path)?;
        if meta.partition != p {
            return Err(MergeError::Incompatible(format!(
                "{} is named partition {p} but its sidecar claims {}",
                path.display(),
                meta.partition
            )));
        }
        if meta.format != format {
            return Err(MergeError::Incompatible(format!(
                "{} sidecar records format {:?}, expected {:?}",
                path.display(),
                meta.format,
                format
            )));
        }
        shards.push((path, meta));
    }
    Ok(shards)
}

/// Everything the coordinator tells a launcher about one worker: the
/// partition it covers, the full `sfbench` argument list to run, and the
/// heartbeat file the worker's `Progress` will write.
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// Partition coordinate this worker computes.
    pub partition: Partition,
    /// Arguments for the worker process (without the program name).
    pub args: Vec<String>,
    /// File the worker's progress heartbeats land in
    /// (via [`sf_obs::progress::HEARTBEAT_FILE_ENV`]).
    pub heartbeat_file: PathBuf,
}

/// A running worker the coordinator can poll and kill.
pub trait WorkerHandle {
    /// Non-blocking exit check: `Ok(Some(code))` once the worker exited.
    ///
    /// # Errors
    ///
    /// OS-level wait failures.
    fn poll(&mut self) -> io::Result<Option<i32>>;

    /// Terminates the worker (used on heartbeat timeout). Best-effort;
    /// the handle is discarded afterwards.
    fn kill(&mut self);
}

/// Spawns workers for the coordinator. The production implementation is
/// [`LocalLauncher`]; tests script failures with a fake.
pub trait Launcher {
    /// Starts the worker described by `spec`.
    ///
    /// # Errors
    ///
    /// Spawn failures (missing binary, resource exhaustion).
    fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>>;
}

/// Launches workers as subprocesses of the current `sfbench` binary, with
/// the heartbeat file exported through the environment. Worker output is
/// discarded — they run `--quiet`, and the coordinator owns the terminal.
pub struct LocalLauncher;

struct LocalHandle(std::process::Child);

impl WorkerHandle for LocalHandle {
    fn poll(&mut self) -> io::Result<Option<i32>> {
        Ok(self.0.try_wait()?.map(|status| status.code().unwrap_or(-1)))
    }

    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl Launcher for LocalLauncher {
    fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
        let exe = std::env::current_exe()?;
        let child = std::process::Command::new(exe)
            .args(&spec.args)
            .env(sf_obs::progress::HEARTBEAT_FILE_ENV, &spec.heartbeat_file)
            // Orphan backstop: if this coordinator dies too hard to run its
            // RAII teardown (kill -9, OOM), workers notice the reparenting
            // on their next progress tick and exit instead of running on.
            .env(
                sf_obs::progress::WATCH_PARENT_ENV,
                std::process::id().to_string(),
            )
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()?;
        Ok(Box::new(LocalHandle(child)))
    }
}

/// Coordinator policy knobs, straight from the `dispatch` flags.
#[derive(Debug, Clone)]
pub struct DispatchOptions {
    /// Kill-and-reissue a worker whose heartbeat file has not changed for
    /// this long.
    pub heartbeat_timeout: Duration,
    /// Re-issues allowed per partition before the dispatch aborts.
    pub max_retries: u32,
    /// Suppress the aggregate progress line.
    pub quiet: bool,
    /// Coordinator poll cadence (tests shrink this). Kept tight: each poll
    /// is one `waitpid(WNOHANG)` plus a page-cached heartbeat read per
    /// worker, and this quantum bounds how long a finished sweep waits to
    /// be noticed — at 50 ms it dominated (and jittered) the latency of
    /// small dispatches.
    pub poll_interval: Duration,
}

impl Default for DispatchOptions {
    fn default() -> Self {
        Self {
            heartbeat_timeout: Duration::from_secs(60),
            max_retries: 2,
            quiet: false,
            poll_interval: Duration::from_millis(5),
        }
    }
}

/// RAII guard around a live worker handle: unless the worker is known to
/// have exited ([`disarm`](Self::disarm)), dropping the guard kills it.
/// Slots hold their handles through this type, so *every* way out of the
/// supervision loop — clean return, an error propagated with `?`, or a
/// panic unwinding through it — tears the remaining workers down instead of
/// orphaning them.
struct LiveHandle {
    inner: Option<Box<dyn WorkerHandle>>,
}

impl LiveHandle {
    fn new(inner: Box<dyn WorkerHandle>) -> Self {
        Self { inner: Some(inner) }
    }

    fn poll(&mut self) -> io::Result<Option<i32>> {
        match self.inner.as_mut() {
            Some(handle) => handle.poll(),
            None => Ok(None),
        }
    }

    /// The worker exited on its own; dropping must not signal its pid
    /// (which the OS may already have reused).
    fn disarm(&mut self) {
        self.inner = None;
    }

    fn kill_now(&mut self) {
        if let Some(mut handle) = self.inner.take() {
            handle.kill();
        }
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// One worker's slot in the coordinator: its spec, the live handle (if
/// any), and the supervision state that decides re-issue vs. give-up.
struct Slot {
    spec: WorkerSpec,
    handle: Option<LiveHandle>,
    retries: u32,
    finished: bool,
    /// Last time the heartbeat file's contents changed (or the launch).
    last_beat: Instant,
    last_beat_text: String,
    done: u64,
    total: u64,
}

/// Extracts an unsigned field from the one-line heartbeat JSON
/// (`sf-heartbeat/v1`, written by `sf_obs::progress`). Delegates to the
/// escape-aware tokeniser in [`crate::proto`]: a substring scan would let a
/// label *value* containing JSON-looking text (`"done":99`) shadow the real
/// field whenever the writer's escaping is imperfect — the parsing side of
/// the `sf-heartbeat/v1` contract is that fields are recovered by
/// tokenisation, never by `find("\"done\":")`. A malformed line yields
/// `None` (no progress update) rather than a corrupt value.
fn heartbeat_u64(text: &str, key: &str) -> Option<u64> {
    crate::proto::field_u64(text.trim_end(), key)
}

/// Runs the supervision loop: launch every spec, poll exits and heartbeat
/// files, kill-and-reissue stragglers, re-issue crashed workers up to the
/// retry budget (safe because each re-issue resumes from the partition's
/// own journal), and keep one aggregate progress line on stderr.
///
/// # Errors
///
/// A spawn failure, or a partition exhausting its retry budget.
pub fn run_dispatch(
    launcher: &mut dyn Launcher,
    specs: Vec<WorkerSpec>,
    opts: &DispatchOptions,
) -> Result<(), String> {
    let started = Instant::now();
    let mut slots = Vec::with_capacity(specs.len());
    for spec in specs {
        let handle = launcher
            .launch(&spec)
            .map_err(|e| format!("spawning worker for partition {}: {e}", spec.partition))?;
        slots.push(Slot {
            spec,
            handle: Some(LiveHandle::new(handle)),
            retries: 0,
            finished: false,
            last_beat: Instant::now(),
            last_beat_text: String::new(),
            done: 0,
            total: 0,
        });
    }
    let mut last_line = Instant::now() - Duration::from_secs(1);
    loop {
        let mut all_finished = true;
        for slot in &mut slots {
            if slot.finished {
                continue;
            }
            all_finished = false;
            // Heartbeat first: progress data feeds both the aggregate line
            // and the straggler detector.
            if let Ok(text) = std::fs::read_to_string(&slot.spec.heartbeat_file) {
                if text != slot.last_beat_text {
                    slot.last_beat = Instant::now();
                    slot.last_beat_text = text;
                    if let (Some(done), Some(total)) = (
                        heartbeat_u64(&slot.last_beat_text, "done"),
                        heartbeat_u64(&slot.last_beat_text, "total"),
                    ) {
                        slot.done = done;
                        slot.total = total;
                    }
                }
            }
            let exited = match slot.handle.as_mut() {
                Some(handle) => handle
                    .poll()
                    .map_err(|e| format!("polling partition {}: {e}", slot.spec.partition))?,
                None => None,
            };
            match exited {
                Some(0) => {
                    slot.finished = true;
                    if let Some(handle) = slot.handle.as_mut() {
                        handle.disarm();
                    }
                    slot.handle = None;
                    slot.done = slot.total.max(slot.done);
                    continue;
                }
                Some(code) => {
                    if let Some(handle) = slot.handle.as_mut() {
                        handle.disarm();
                    }
                    slot.handle = None;
                    reissue(launcher, slot, opts, &format!("exit code {code}"))?;
                }
                None => {
                    if slot.handle.is_some() && slot.last_beat.elapsed() > opts.heartbeat_timeout {
                        if let Some(mut handle) = slot.handle.take() {
                            handle.kill_now();
                        }
                        reissue(
                            launcher,
                            slot,
                            opts,
                            &format!(
                                "no heartbeat for {:.0}s",
                                opts.heartbeat_timeout.as_secs_f64()
                            ),
                        )?;
                    }
                }
            }
        }
        if !opts.quiet && last_line.elapsed() >= Duration::from_millis(500) {
            last_line = Instant::now();
            eprint!("\r{}", aggregate_line(&slots, started.elapsed()));
        }
        if all_finished {
            if !opts.quiet {
                eprintln!("\r{}", aggregate_line(&slots, started.elapsed()));
            }
            return Ok(());
        }
        std::thread::sleep(opts.poll_interval);
    }
}

/// Kills nothing, relaunches `slot` if its retry budget allows, errors out
/// otherwise. Re-issue is safe because the worker's artifacts are
/// per-partition and journalled: the fresh process resumes the finished
/// rows and computes only the remainder.
fn reissue(
    launcher: &mut dyn Launcher,
    slot: &mut Slot,
    opts: &DispatchOptions,
    why: &str,
) -> Result<(), String> {
    if slot.retries >= opts.max_retries {
        return Err(format!(
            "partition {} failed ({why}) after {} re-issue(s); its journal and shard \
             artifacts are kept for inspection",
            slot.spec.partition, slot.retries
        ));
    }
    slot.retries += 1;
    if !opts.quiet {
        eprintln!(
            "\n# dispatch: re-issuing partition {} ({why}; attempt {}/{})",
            slot.spec.partition,
            slot.retries + 1,
            opts.max_retries + 1
        );
    }
    let handle = launcher
        .launch(&slot.spec)
        .map_err(|e| format!("re-spawning partition {}: {e}", slot.spec.partition))?;
    slot.handle = Some(LiveHandle::new(handle));
    slot.last_beat = Instant::now();
    Ok(())
}

/// The one aggregate progress line: summed points done/total across
/// workers, worker completion count, elapsed, and an ETA extrapolated from
/// the aggregate rate.
fn aggregate_line(slots: &[Slot], elapsed: Duration) -> String {
    let done: u64 = slots.iter().map(|s| s.done).sum();
    let total: u64 = slots.iter().map(|s| s.total).sum();
    let finished = slots.iter().filter(|s| s.finished).count();
    let secs = elapsed.as_secs_f64();
    let eta = if done > 0 && total > done {
        let remaining = secs * (total - done) as f64 / done as f64;
        format!(" eta {remaining:.0}s")
    } else {
        String::new()
    };
    format!(
        "# dispatch: {done}/{total} points, {finished}/{} workers done, {secs:.0}s elapsed{eta}",
        slots.len()
    )
}

/// Splits the `dispatch` argument list at the literal `run` token into
/// coordinator flags and the worker run command.
fn split_at_run(args: &[String]) -> Option<(&[String], &[String])> {
    let at = args.iter().position(|a| a == "run")?;
    Some((&args[..at], &args[at + 1..]))
}

/// Runs `sfbench dispatch [coordinator flags] run <study> [run flags]`:
/// validates the run command, fans it out as `--workers` partition worker
/// processes, supervises them, and auto-merges the shards into the
/// artifact paths the run command names — so the end state is exactly what
/// the serial `sfbench run` would have produced.
#[must_use]
pub fn dispatch_main(args: Vec<String>) -> i32 {
    let Some((coord, run)) = split_at_run(&args) else {
        eprintln!("error: 'dispatch' needs a 'run' command (dispatch [options] run <study> …)");
        return 2;
    };
    let coord = CliArgs::new(coord.to_vec());
    let unknown = coord.unknown_flags(
        &["--keep-shards", "--quiet"],
        &["--workers", "--heartbeat-timeout", "--max-retries"],
    );
    if !unknown.is_empty() {
        eprintln!(
            "error: unknown or malformed dispatch flag(s) {}",
            unknown.join(", ")
        );
        return 2;
    }
    if coord.reject_malformed_numbers(&["--workers", "--heartbeat-timeout", "--max-retries"]) {
        return 2;
    }
    let Some(workers) = coord.usize_value("--workers") else {
        eprintln!("error: 'dispatch' needs --workers N");
        return 2;
    };
    let Ok(workers) = u32::try_from(workers) else {
        eprintln!("error: --workers out of range");
        return 2;
    };
    if workers == 0 {
        eprintln!("error: --workers must be at least 1");
        return 2;
    }
    let mut opts = DispatchOptions {
        quiet: coord.flag("--quiet"),
        ..DispatchOptions::default()
    };
    if let Some(secs) = coord.usize_value("--heartbeat-timeout") {
        opts.heartbeat_timeout = Duration::from_secs(secs as u64);
    }
    if let Some(retries) = coord.usize_value("--max-retries") {
        opts.max_retries = u32::try_from(retries).unwrap_or(u32::MAX);
    }
    let keep_shards = coord.flag("--keep-shards");

    // Validate the run command the same way `run` itself would, before
    // spawning anything: the study must exist and stream rows, and there
    // must be at least one artifact to merge at the end.
    let Some((study_name, run_flags)) = run.split_first() else {
        eprintln!("error: 'dispatch … run' needs a study name");
        return 2;
    };
    let registry = StudyRegistry::all();
    let Some(study) = registry.get(study_name) else {
        eprintln!(
            "error: unknown study '{study_name}'; available: {}",
            registry.names().join(", ")
        );
        return 2;
    };
    if !study.streams_rows() {
        eprintln!(
            "error: dispatch only applies to row-streaming studies \
             (e.g. megasweep); '{}' collects its rows and cannot be sharded",
            study.name()
        );
        return 2;
    }
    let run_args = CliArgs::new(run_flags.to_vec());
    if run_args.reject_malformed_numbers(RUN_NUMERIC_FLAGS) {
        return 2;
    }
    if run_args.value("--partition").is_some() {
        eprintln!("error: dispatch assigns --partition itself; drop it from the run command");
        return 2;
    }
    let artifacts: Vec<(ShardFormat, String)> = [
        (ShardFormat::Csv, "--csv"),
        (ShardFormat::Json, "--json"),
        (ShardFormat::Telemetry, "--telemetry"),
    ]
    .into_iter()
    .filter_map(|(format, flag)| run_args.value(flag).map(|base| (format, base)))
    .collect();
    if artifacts.is_empty() {
        eprintln!(
            "error: the dispatched run needs at least one of --csv/--json/--telemetry \
             so there is something to merge"
        );
        return 2;
    }
    let heartbeat_base = Path::new(&artifacts[0].1);

    let mut specs = Vec::with_capacity(workers as usize);
    for index in 1..=workers {
        let p = Partition::new(index, workers).expect("index in 1..=workers");
        let mut args: Vec<String> = vec!["run".into(), study_name.clone()];
        args.extend(run_flags.iter().cloned());
        args.push(format!("--partition={p}"));
        if !run_args.flag("--quiet") {
            args.push("--quiet".into());
        }
        let mut heartbeat = fabric::shard_path(heartbeat_base, p).into_os_string();
        heartbeat.push(".heartbeat");
        specs.push(WorkerSpec {
            partition: p,
            args,
            heartbeat_file: PathBuf::from(heartbeat),
        });
    }

    let heartbeat_files: Vec<PathBuf> = specs.iter().map(|s| s.heartbeat_file.clone()).collect();
    if let Err(why) = run_dispatch(&mut LocalLauncher, specs, &opts) {
        eprintln!("error: dispatch failed: {why}");
        return 1;
    }
    for (format, base) in &artifacts {
        if let Err(e) = merge_base(Path::new(base), *format, false, opts.quiet) {
            eprintln!("error: merging {base}: {e}");
            return 2;
        }
    }
    if !keep_shards {
        for (_, base) in &artifacts {
            cleanup_shards(Path::new(base));
        }
        for file in &heartbeat_files {
            let _ = std::fs::remove_file(file);
        }
    }
    0
}

/// Removes the shard artifacts, their sidecars, and any leftover shard
/// journals of `base` after a successful merge. Best-effort: cleanup
/// failures never fail the dispatch.
fn cleanup_shards(base: &Path) {
    let Ok(shards) = fabric::discover_shards(base) else {
        return;
    };
    for (_, path) in shards {
        let _ = std::fs::remove_file(ShardMeta::path_for(&path));
        let mut journal = path.clone().into_os_string();
        journal.push(".journal");
        let _ = std::fs::remove_file(journal);
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn spec(i: u32, n: u32, dir: &Path) -> WorkerSpec {
        let p = Partition::new(i, n).unwrap();
        WorkerSpec {
            partition: p,
            args: vec!["run".into(), "megasweep".into(), format!("--partition={p}")],
            heartbeat_file: dir.join(format!("hb.{i}of{n}")),
        }
    }

    fn fast_opts() -> DispatchOptions {
        DispatchOptions {
            heartbeat_timeout: Duration::from_secs(3600),
            max_retries: 2,
            quiet: true,
            poll_interval: Duration::from_millis(1),
        }
    }

    /// Scripted worker: a queue of exit codes per partition; each launch
    /// pops the next code, and `poll` reports it on the second call (so the
    /// coordinator observes a "running" state first).
    struct FakeLauncher {
        scripts: Vec<Vec<i32>>,
        launches: Rc<RefCell<Vec<u32>>>,
    }

    struct FakeHandle {
        code: Option<i32>,
        polls: u32,
    }

    impl WorkerHandle for FakeHandle {
        fn poll(&mut self) -> io::Result<Option<i32>> {
            self.polls += 1;
            if self.polls < 2 {
                return Ok(None);
            }
            Ok(self.code)
        }

        fn kill(&mut self) {
            self.code = Some(137);
        }
    }

    impl Launcher for FakeLauncher {
        fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
            self.launches.borrow_mut().push(spec.partition.index);
            let script = &mut self.scripts[(spec.partition.index - 1) as usize];
            let code = if script.is_empty() {
                Some(0)
            } else {
                Some(script.remove(0))
            };
            Ok(Box::new(FakeHandle { code, polls: 0 }))
        }
    }

    #[test]
    fn clean_workers_finish_without_reissue() {
        let dir = std::env::temp_dir().join("sf-dispatch-clean");
        let _ = std::fs::create_dir_all(&dir);
        let launches = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = FakeLauncher {
            scripts: vec![vec![0], vec![0], vec![0]],
            launches: Rc::clone(&launches),
        };
        let specs = (1..=3).map(|i| spec(i, 3, &dir)).collect();
        run_dispatch(&mut launcher, specs, &fast_opts()).unwrap();
        assert_eq!(*launches.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn a_crashed_worker_is_reissued_and_recovers() {
        let dir = std::env::temp_dir().join("sf-dispatch-crash");
        let _ = std::fs::create_dir_all(&dir);
        let launches = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = FakeLauncher {
            // Partition 2 crashes once, then succeeds on the re-issue.
            scripts: vec![vec![0], vec![1, 0], vec![0]],
            launches: Rc::clone(&launches),
        };
        let specs = (1..=3).map(|i| spec(i, 3, &dir)).collect();
        run_dispatch(&mut launcher, specs, &fast_opts()).unwrap();
        assert_eq!(*launches.borrow(), vec![1, 2, 3, 2]);
    }

    #[test]
    fn exhausting_the_retry_budget_aborts_with_the_partition_named() {
        let dir = std::env::temp_dir().join("sf-dispatch-budget");
        let _ = std::fs::create_dir_all(&dir);
        let launches = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = FakeLauncher {
            scripts: vec![vec![1, 1, 1, 1]],
            launches: Rc::clone(&launches),
        };
        let opts = DispatchOptions {
            max_retries: 2,
            ..fast_opts()
        };
        let err = run_dispatch(&mut launcher, vec![spec(1, 1, &dir)], &opts).unwrap_err();
        assert!(err.contains("partition 1/1"), "{err}");
        assert!(err.contains("exit code 1"), "{err}");
        // Initial launch + max_retries re-issues.
        assert_eq!(launches.borrow().len(), 3);
    }

    #[test]
    fn a_silent_straggler_is_killed_and_reissued() {
        let dir = std::env::temp_dir().join("sf-dispatch-straggler");
        let _ = std::fs::create_dir_all(&dir);
        let launches = Rc::new(RefCell::new(Vec::new()));
        // i32::MIN marks "hang forever": poll keeps returning None.
        struct HangOnce {
            launches: Rc<RefCell<Vec<u32>>>,
            first: bool,
        }
        struct Hung;
        impl WorkerHandle for Hung {
            fn poll(&mut self) -> io::Result<Option<i32>> {
                Ok(None)
            }
            fn kill(&mut self) {}
        }
        struct Clean;
        impl WorkerHandle for Clean {
            fn poll(&mut self) -> io::Result<Option<i32>> {
                Ok(Some(0))
            }
            fn kill(&mut self) {}
        }
        impl Launcher for HangOnce {
            fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
                self.launches.borrow_mut().push(spec.partition.index);
                if std::mem::take(&mut self.first) {
                    Ok(Box::new(Hung))
                } else {
                    Ok(Box::new(Clean))
                }
            }
        }
        let mut launcher = HangOnce {
            launches: Rc::clone(&launches),
            first: true,
        };
        let opts = DispatchOptions {
            heartbeat_timeout: Duration::ZERO,
            ..fast_opts()
        };
        run_dispatch(&mut launcher, vec![spec(1, 1, &dir)], &opts).unwrap();
        assert_eq!(*launches.borrow(), vec![1, 1]);
    }

    #[test]
    fn adversarial_label_text_cannot_corrupt_heartbeat_fields() {
        // A non-escaping heartbeat writer (a shell-script launcher, say) can
        // emit a label containing JSON-looking text verbatim. The old
        // substring scan matched the label's embedded `"done":99` and
        // reported 99/3 progress; the escape-aware tokeniser must never
        // surface a value out of a label region — for this (malformed)
        // document the right answer is "no update", not a corrupt one.
        let raw = concat!(
            "{\"schema\":\"sf-heartbeat/v1\",\"label\":\"x\"done\":99,\",",
            "\"done\":3,\"total\":8,\"rows\":3,\"elapsed_ms\":10,\"finished\":false}\n"
        );
        assert_ne!(heartbeat_u64(raw, "done"), Some(99));
        assert_eq!(heartbeat_u64(raw, "done"), None);
        // Well-formed lines with hostile labels keep parsing exactly.
        let line =
            sf_obs::progress::heartbeat_line("x\"done\":99,{\"total\":7},\\", 3, 8, 3, 10, false);
        assert_eq!(heartbeat_u64(&line, "done"), Some(3));
        assert_eq!(heartbeat_u64(&line, "total"), Some(8));
    }

    /// Scripted launcher for the orphan tests: partition 1 hangs forever,
    /// partition 2 misbehaves on poll (panic or error); every kill is
    /// recorded so the tests can assert nothing survived the loop's demise.
    struct Misbehave {
        panics: bool,
        killed: Rc<RefCell<Vec<u32>>>,
    }

    struct RecordedHandle {
        id: u32,
        panics: bool,
        killed: Rc<RefCell<Vec<u32>>>,
    }

    impl WorkerHandle for RecordedHandle {
        fn poll(&mut self) -> io::Result<Option<i32>> {
            if self.id == 2 && self.panics {
                panic!("scripted mid-loop panic");
            }
            if self.id == 2 {
                return Err(io::Error::other("scripted poll failure"));
            }
            Ok(None)
        }

        fn kill(&mut self) {
            self.killed.borrow_mut().push(self.id);
        }
    }

    impl Launcher for Misbehave {
        fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
            Ok(Box::new(RecordedHandle {
                id: spec.partition.index,
                panics: self.panics,
                killed: Rc::clone(&self.killed),
            }))
        }
    }

    #[test]
    fn no_live_handle_survives_a_mid_loop_panic() {
        let dir = std::env::temp_dir().join("sf-dispatch-panic");
        let _ = std::fs::create_dir_all(&dir);
        let killed = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = Misbehave {
            panics: true,
            killed: Rc::clone(&killed),
        };
        let specs = (1..=2).map(|i| spec(i, 2, &dir)).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = run_dispatch(&mut launcher, specs, &fast_opts());
        }));
        assert!(result.is_err(), "the scripted panic must propagate");
        let mut killed = killed.borrow().clone();
        killed.sort_unstable();
        // Both the hung worker and the panicking one were torn down by the
        // unwinding slots — no orphan outlives the coordinator loop.
        assert_eq!(killed, vec![1, 2]);
    }

    #[test]
    fn no_live_handle_survives_a_supervision_error_return() {
        let dir = std::env::temp_dir().join("sf-dispatch-pollerr");
        let _ = std::fs::create_dir_all(&dir);
        let killed = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = Misbehave {
            panics: false,
            killed: Rc::clone(&killed),
        };
        let specs = (1..=2).map(|i| spec(i, 2, &dir)).collect();
        let err = run_dispatch(&mut launcher, specs, &fast_opts()).unwrap_err();
        assert!(err.contains("polling partition 2/2"), "{err}");
        let mut killed = killed.borrow().clone();
        killed.sort_unstable();
        assert_eq!(killed, vec![1, 2]);
    }

    #[test]
    fn a_cleanly_exited_worker_is_not_signalled_on_drop() {
        // A worker that exited on its own must be disarmed: killing its pid
        // after the fact could signal a process the OS already reused it for.
        struct CleanLauncher {
            killed: Rc<RefCell<Vec<u32>>>,
        }
        struct CleanHandle {
            id: u32,
            killed: Rc<RefCell<Vec<u32>>>,
        }
        impl WorkerHandle for CleanHandle {
            fn poll(&mut self) -> io::Result<Option<i32>> {
                Ok(Some(0))
            }
            fn kill(&mut self) {
                self.killed.borrow_mut().push(self.id);
            }
        }
        impl Launcher for CleanLauncher {
            fn launch(&mut self, spec: &WorkerSpec) -> io::Result<Box<dyn WorkerHandle>> {
                Ok(Box::new(CleanHandle {
                    id: spec.partition.index,
                    killed: Rc::clone(&self.killed),
                }))
            }
        }
        let dir = std::env::temp_dir().join("sf-dispatch-disarm");
        let _ = std::fs::create_dir_all(&dir);
        let killed = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = CleanLauncher {
            killed: Rc::clone(&killed),
        };
        let specs = (1..=2).map(|i| spec(i, 2, &dir)).collect();
        run_dispatch(&mut launcher, specs, &fast_opts()).unwrap();
        assert!(killed.borrow().is_empty(), "{:?}", killed.borrow());
    }

    #[test]
    fn heartbeat_fields_parse_from_the_progress_line() {
        let line = sf_obs::progress::heartbeat_line("megasweep 2/3", 7, 8, 7, 12345, false);
        assert_eq!(heartbeat_u64(&line, "done"), Some(7));
        assert_eq!(heartbeat_u64(&line, "total"), Some(8));
        assert_eq!(heartbeat_u64(&line, "rows"), Some(7));
        assert_eq!(heartbeat_u64(&line, "elapsed_ms"), Some(12345));
        assert_eq!(heartbeat_u64(&line, "absent"), None);
    }

    #[test]
    fn heartbeat_progress_feeds_the_aggregate_line() {
        let dir = std::env::temp_dir().join("sf-dispatch-beat");
        let _ = std::fs::create_dir_all(&dir);
        let s = spec(1, 2, &dir);
        std::fs::write(
            &s.heartbeat_file,
            sf_obs::progress::heartbeat_line("p", 5, 12, 5, 100, false),
        )
        .unwrap();
        let launches = Rc::new(RefCell::new(Vec::new()));
        let mut launcher = FakeLauncher {
            scripts: vec![vec![0], vec![0]],
            launches,
        };
        run_dispatch(&mut launcher, vec![s, spec(2, 2, &dir)], &fast_opts()).unwrap();
        // The line itself is formatting-only; just pin its shape here.
        let slots: Vec<Slot> = Vec::new();
        assert!(aggregate_line(&slots, Duration::from_secs(2)).starts_with("# dispatch: 0/0"));
    }

    #[test]
    fn split_at_run_separates_coordinator_and_run_args() {
        let args: Vec<String> = ["--workers", "3", "run", "megasweep", "--quick"]
            .iter()
            .map(ToString::to_string)
            .collect();
        let (coord, run) = split_at_run(&args).unwrap();
        assert_eq!(coord, &args[..2]);
        assert_eq!(run, &args[3..]);
        assert!(split_at_run(&["--workers".to_string()]).is_none());
    }

    #[test]
    fn merge_main_exits_2_without_shards_or_flags() {
        assert_eq!(merge_main(&CliArgs::new(vec![])), 2);
        let missing = CliArgs::new(vec!["--csv".into(), "/nonexistent-dir/never.csv".into()]);
        assert_eq!(merge_main(&missing), 2);
    }
}
