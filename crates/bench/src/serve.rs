//! `sfbench serve` — sweep-as-a-service daemon, plus its `submit` client.
//!
//! The daemon listens on a Unix-domain socket and speaks `sf-serve/v1`: a
//! JSON-lines protocol built on [`crate::proto`], one request or event per
//! line. Clients submit study jobs (`{"schema":"sf-serve/v1","op":"submit",
//! "study":"fig05","mode":"quick",...}`) and receive a stream of events
//! (`queued`, `started`, `row`, `progress`, `done` / `error`) on the same
//! connection.
//!
//! Three process-wide resources are shared across concurrent jobs:
//!
//! * one [`TenantLedger`] arbitrating
//!   cores — per-job reservations, FIFO within a priority class,
//!   interactive-over-batch, fair-share when oversubscribed;
//! * one warm [`TopologyCache`] so repeated jobs skip topology builds;
//! * one metrics registry (`serve.*` counters, exempt from the determinism
//!   contract like `time.*` and `sched.*`).
//!
//! Jobs run exactly the `sfbench run --no-resume` pipeline — same studies,
//! same emitters, no checkpoint journal — so artifacts written by the daemon
//! are byte-identical to a direct run. The event stream is a passive
//! [`RowTap`] on the ordered-delivery seam; it observes rows after the sinks
//! accept them and never alters what the sinks write.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sf_harness::budget::{self, JobClass, TenantLedger};
use sf_harness::{PoolConfig, Value};
use sf_obs::progress::JobScope;
use stringfigure::study::{execute, RowTap, RunContext, StudyRegistry, TopologyCache};

use crate::cli::CliArgs;
use crate::proto;

/// Schema tag carried by every `sf-serve/v1` request and event line.
pub const SCHEMA: &str = "sf-serve/v1";

/// Emit a `progress` event after this many rows of a job have streamed.
const PROGRESS_EVERY: usize = 16;

/// The event channel back to one client: every event is rendered to a full
/// line first, then written and flushed under the lock, so events from a
/// job's worker threads never interleave mid-line.
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// What the connection loop should do after a request has been handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Keep reading requests from this connection.
    Continue,
    /// Stop accepting connections and exit the daemon.
    Shutdown,
}

/// One event line, written and flushed atomically.
fn emit(out: &SharedWriter, line: &str) {
    let mut w = out
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _ = w.write_all(line.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

/// An `error` event for job `job` (0 = no job assigned yet).
fn emit_error(out: &SharedWriter, job: u64, reason: &str) {
    let line = proto::Object::new()
        .str("schema", SCHEMA)
        .str("event", "error")
        .u64("job", job)
        .str("reason", reason)
        .finish();
    emit(out, &line);
}

/// Renders one result cell as a JSON value, matching the JSON artifact
/// emitter: strings and non-finite floats are quoted, everything else uses
/// the same text the CSV emitter writes.
fn cell_json(value: &Value) -> String {
    match value {
        Value::Str(s) => format!("\"{}\"", proto::escape(s)),
        Value::Float(x) if !x.is_finite() => format!("\"{}\"", proto::escape(&value.render())),
        Value::Null => "null".to_string(),
        other => other.render(),
    }
}

/// The daemon's shared state: study registry, core ledger, warm topology
/// cache, and a job counter. [`Server::handle_line`] is the whole protocol —
/// the socket layer in [`serve_main`] only moves lines in and out.
pub struct Server {
    registry: StudyRegistry,
    ledger: Arc<TenantLedger>,
    cache: Arc<TopologyCache>,
    next_job: AtomicU64,
}

impl Server {
    /// A server arbitrating `cores` cores across its jobs.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        Self {
            registry: StudyRegistry::all(),
            ledger: Arc::new(TenantLedger::new(cores)),
            cache: Arc::new(TopologyCache::new()),
            next_job: AtomicU64::new(0),
        }
    }

    /// The shared core ledger (observable for tests and metrics).
    #[must_use]
    pub fn ledger(&self) -> &Arc<TenantLedger> {
        &self.ledger
    }

    /// Handles one request line, emitting events on `out`.
    ///
    /// `submit` runs the job synchronously on the calling thread (the
    /// daemon gives each connection its own thread); admission may block on
    /// the core ledger, with a `queued` event emitted first so the client
    /// knows the job was accepted.
    pub fn handle_line(&self, line: &str, out: &SharedWriter) -> Outcome {
        let metrics = sf_obs::metrics::global();
        metrics.counter_add("serve.requests", 1);
        let Some(op) = proto::field_str(line, "op") else {
            metrics.counter_add("serve.bad_requests", 1);
            emit_error(out, 0, "malformed request: no \"op\" field");
            return Outcome::Continue;
        };
        match op.as_str() {
            "ping" => {
                let pong = proto::Object::new()
                    .str("schema", SCHEMA)
                    .str("event", "pong")
                    .u64("active_jobs", self.ledger.active_jobs() as u64)
                    .u64("waiting_jobs", self.ledger.waiting_jobs() as u64)
                    .u64("cores_in_use", self.ledger.in_use() as u64)
                    .u64("cores_total", self.ledger.total() as u64)
                    .finish();
                emit(out, &pong);
                Outcome::Continue
            }
            "shutdown" => {
                let bye = proto::Object::new()
                    .str("schema", SCHEMA)
                    .str("event", "bye")
                    .finish();
                emit(out, &bye);
                Outcome::Shutdown
            }
            "submit" => {
                self.submit(line, out);
                Outcome::Continue
            }
            other => {
                metrics.counter_add("serve.bad_requests", 1);
                emit_error(out, 0, &format!("unknown op {other:?}"));
                Outcome::Continue
            }
        }
    }

    /// Validates and runs one submitted job, streaming events to `out`.
    fn submit(&self, line: &str, out: &SharedWriter) {
        let metrics = sf_obs::metrics::global();
        let job = self.next_job.fetch_add(1, Ordering::Relaxed) + 1;
        let Some(name) = proto::field_str(line, "study") else {
            metrics.counter_add("serve.bad_requests", 1);
            emit_error(out, job, "submit needs a \"study\" field");
            return;
        };
        let Some(study) = self.registry.get(&name) else {
            metrics.counter_add("serve.bad_requests", 1);
            emit_error(out, job, &format!("unknown study {name:?}"));
            return;
        };
        let quick = match proto::field_str(line, "mode").as_deref() {
            None | Some("quick") => true,
            Some("full") => false,
            Some(other) => {
                metrics.counter_add("serve.bad_requests", 1);
                emit_error(out, job, &format!("unknown mode {other:?} (quick|full)"));
                return;
            }
        };
        let class = match proto::field_str(line, "priority").as_deref() {
            // Submissions are someone waiting at a prompt unless marked
            // batch — interactive jumps the batch queue, not running jobs.
            None | Some("interactive") => JobClass::Interactive,
            Some("batch") => JobClass::Batch,
            Some(other) => {
                metrics.counter_add("serve.bad_requests", 1);
                emit_error(
                    out,
                    job,
                    &format!("unknown priority {other:?} (interactive|batch)"),
                );
                return;
            }
        };
        // A lone job gets the whole machine, exactly like a direct run; an
        // explicit "cores" is a reservation cap for deliberate sharing.
        let want = proto::field_u64(line, "cores")
            .map_or_else(|| self.ledger.total(), |cores| cores as usize);

        let mut ctx = RunContext::new()
            .quick(quick)
            .with_build_cache(Arc::clone(&self.cache));
        if let Some(path) = proto::field_str(line, "csv") {
            ctx = ctx.with_csv(path);
        }
        if let Some(path) = proto::field_str(line, "json") {
            ctx = ctx.with_json(path);
        }
        if let Some(shards) = proto::field_u64(line, "shards") {
            ctx = ctx.with_shards(shards as usize);
        }
        let points = study.grid(&ctx).jobs();

        metrics.counter_add("serve.jobs_submitted", 1);
        let queued = proto::Object::new()
            .str("schema", SCHEMA)
            .str("event", "queued")
            .u64("job", job)
            .str("study", study.name())
            .u64("points", points as u64)
            .finish();
        emit(out, &queued);

        // Blocks until the ledger grants cores; the lease returns them on
        // every exit path below, including panics inside execute.
        let lease = self.ledger.admit(want, class);
        let started = proto::Object::new()
            .str("schema", SCHEMA)
            .str("event", "started")
            .u64("job", job)
            .u64("cores", lease.granted() as u64)
            .u64("active_jobs", self.ledger.active_jobs() as u64)
            .finish();
        emit(out, &started);

        let scope = Arc::new(JobScope::new(format!("{}#{job}", study.name()), points));
        let tap_scope = Arc::clone(&scope);
        let tap_out = Arc::clone(out);
        let tap = RowTap::new(move |cells| {
            tap_scope.tick(1, 1);
            sf_obs::metrics::global().counter_add("serve.rows_streamed", 1);
            let rendered: Vec<String> = cells.iter().map(cell_json).collect();
            let row = proto::Object::new()
                .str("schema", SCHEMA)
                .str("event", "row")
                .u64("job", job)
                .raw("cells", &format!("[{}]", rendered.join(",")))
                .finish();
            emit(&tap_out, &row);
            let rows = tap_scope.rows();
            if rows.is_multiple_of(PROGRESS_EVERY) {
                let progress = proto::Object::new()
                    .str("schema", SCHEMA)
                    .str("event", "progress")
                    .u64("job", job)
                    .raw("heartbeat", tap_scope.heartbeat(false).trim_end())
                    .finish();
                emit(&tap_out, &progress);
            }
        });
        let ctx = ctx
            .with_pool(PoolConfig::threads(lease.granted()))
            .with_row_tap(tap);

        match execute(study, &ctx) {
            Ok(_) => {
                metrics.counter_add("serve.jobs_done", 1);
                let done = proto::Object::new()
                    .str("schema", SCHEMA)
                    .str("event", "done")
                    .u64("job", job)
                    .u64("rows", scope.rows() as u64)
                    .finish();
                emit(out, &done);
            }
            Err(err) => {
                metrics.counter_add("serve.jobs_failed", 1);
                emit_error(out, job, &format!("study failed: {err}"));
            }
        }
        drop(lease);
    }
}

/// Builds the `submit` request line a client sends for `args`.
///
/// Shared by [`submit_main`] and the tests so the wire format has a single
/// producer.
#[must_use]
pub fn submit_request(study: &str, args: &CliArgs) -> String {
    let mut req = proto::Object::new()
        .str("schema", SCHEMA)
        .str("op", "submit")
        .str("study", study)
        .str(
            "mode",
            if args.flag("--quick") {
                "quick"
            } else {
                "full"
            },
        );
    if let Some(path) = args.value("--csv") {
        req = req.str("csv", &path);
    }
    if let Some(path) = args.value("--json") {
        req = req.str("json", &path);
    }
    if let Some(cores) = args.usize_value("--cores") {
        req = req.u64("cores", cores as u64);
    }
    if let Some(shards) = args.usize_value("--shards") {
        req = req.u64("shards", shards as u64);
    }
    if args.flag("--batch") {
        req = req.str("priority", "batch");
    }
    req.finish()
}

/// Flags understood by `sfbench serve`.
const SERVE_BOOL_FLAGS: &[&str] = &["--quiet"];
const SERVE_VALUE_FLAGS: &[&str] = &["--socket", "--cores"];

/// Flags understood by `sfbench submit`.
const SUBMIT_BOOL_FLAGS: &[&str] = &["--quick", "--batch", "--quiet", "--shutdown", "--ping"];
const SUBMIT_VALUE_FLAGS: &[&str] = &["--socket", "--csv", "--json", "--cores", "--shards"];

fn reject_unknown_flags(args: &CliArgs, bools: &[&str], values: &[&str]) -> bool {
    let unknown = args.unknown_flags(bools, values);
    if unknown.is_empty() {
        return false;
    }
    for flag in unknown {
        eprintln!("error: unknown flag '{flag}'");
    }
    true
}

/// `sfbench serve --socket PATH [--cores N] [--quiet]` — run the daemon.
///
/// Returns the process exit code.
pub fn serve_main(args: &CliArgs) -> i32 {
    if reject_unknown_flags(args, SERVE_BOOL_FLAGS, SERVE_VALUE_FLAGS) {
        return 2;
    }
    let Some(socket) = args.value("--socket") else {
        eprintln!("error: 'serve' needs --socket PATH");
        return 2;
    };
    let cores = if args.value("--cores").is_some() {
        match args.usize_value("--cores") {
            Some(cores) if cores > 0 => cores,
            _ => {
                eprintln!("error: --cores needs a positive integer");
                return 2;
            }
        }
    } else {
        budget::total_cores()
    };
    serve_on(&socket, cores, args.flag("--quiet"))
}

#[cfg(unix)]
fn serve_on(socket: &str, cores: usize, quiet: bool) -> i32 {
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicBool;

    // The daemon owns no terminal a user is watching; per-job progress goes
    // to each client as events, and a shared stderr heartbeat would
    // interleave across concurrent jobs.
    sf_obs::progress::Progress::global().configure(true);

    let listener = match bind_socket(socket) {
        Ok(listener) => listener,
        Err(err) => {
            eprintln!("error: cannot bind {socket}: {err}");
            return 1;
        }
    };
    if !quiet {
        eprintln!("# sfbench serve: listening on {socket} ({cores} cores)");
    }
    let server = Arc::new(Server::new(cores));
    let shutdown = Arc::new(AtomicBool::new(false));
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = Arc::clone(&server);
        let shutdown = Arc::clone(&shutdown);
        let socket = socket.to_string();
        std::thread::spawn(move || {
            use std::io::{BufRead, BufReader};
            let Ok(reading) = stream.try_clone() else {
                return;
            };
            let out: SharedWriter = Arc::new(Mutex::new(Box::new(stream)));
            for line in BufReader::new(reading).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                if server.handle_line(&line, &out) == Outcome::Shutdown {
                    shutdown.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so it sees the flag.
                    let _ = UnixStream::connect(&socket);
                    return;
                }
            }
        });
    }
    let _ = std::fs::remove_file(socket);
    if !quiet {
        eprintln!("# sfbench serve: shut down");
    }
    0
}

/// Binds `socket`, reclaiming a stale path only when nothing answers on it.
#[cfg(unix)]
fn bind_socket(socket: &str) -> std::io::Result<std::os::unix::net::UnixListener> {
    use std::os::unix::net::{UnixListener, UnixStream};
    match UnixListener::bind(socket) {
        Ok(listener) => Ok(listener),
        Err(err) if err.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::AddrInUse,
                    "a daemon is already listening here",
                ));
            }
            std::fs::remove_file(socket)?;
            UnixListener::bind(socket)
        }
        Err(err) => Err(err),
    }
}

#[cfg(not(unix))]
fn serve_on(_socket: &str, _cores: usize, _quiet: bool) -> i32 {
    eprintln!("error: 'serve' needs Unix-domain sockets (unix only)");
    2
}

/// `sfbench submit <study> --socket PATH [flags]` — submit a job to a
/// running daemon and stream its events; `--ping` / `--shutdown` instead
/// send the corresponding control request.
///
/// Returns the process exit code.
pub fn submit_main(args: Vec<String>) -> i32 {
    let study = args.first().filter(|a| !a.starts_with('-')).cloned();
    let flags = CliArgs::new(if study.is_some() {
        args[1..].to_vec()
    } else {
        args
    });
    if reject_unknown_flags(&flags, SUBMIT_BOOL_FLAGS, SUBMIT_VALUE_FLAGS)
        || flags.reject_malformed_numbers(&["--cores", "--shards"])
    {
        return 2;
    }
    let Some(socket) = flags.value("--socket") else {
        eprintln!("error: 'submit' needs --socket PATH");
        return 2;
    };
    let request = if flags.flag("--shutdown") {
        proto::Object::new()
            .str("schema", SCHEMA)
            .str("op", "shutdown")
            .finish()
    } else if flags.flag("--ping") {
        proto::Object::new()
            .str("schema", SCHEMA)
            .str("op", "ping")
            .finish()
    } else if let Some(study) = study {
        submit_request(&study, &flags)
    } else {
        eprintln!("error: 'submit' needs a study name (or --ping / --shutdown)");
        return 2;
    };
    roundtrip(&socket, &request, flags.flag("--quiet"))
}

#[cfg(unix)]
fn roundtrip(socket: &str, request: &str, quiet: bool) -> i32 {
    use std::io::{BufRead, BufReader};
    use std::os::unix::net::UnixStream;

    let mut stream = match UnixStream::connect(socket) {
        Ok(stream) => stream,
        Err(err) => {
            eprintln!("error: cannot reach daemon at {socket}: {err}");
            return 1;
        }
    };
    if stream
        .write_all(format!("{request}\n").as_bytes())
        .and_then(|()| stream.flush())
        .is_err()
    {
        eprintln!("error: lost connection to {socket}");
        return 1;
    }
    let Ok(reading) = stream.try_clone() else {
        eprintln!("error: lost connection to {socket}");
        return 1;
    };
    for line in BufReader::new(reading).lines() {
        let Ok(line) = line else { break };
        let Some(event) = proto::field_str(&line, "event") else {
            continue;
        };
        match event.as_str() {
            "done" => {
                let rows = proto::field_u64(&line, "rows").unwrap_or(0);
                if !quiet {
                    eprintln!("# job done ({rows} rows)");
                }
                return 0;
            }
            "error" => {
                let reason = proto::field_str(&line, "reason").unwrap_or_default();
                eprintln!("error: {reason}");
                return 1;
            }
            "pong" | "bye" => {
                if !quiet {
                    println!("{line}");
                }
                return 0;
            }
            "row" => {
                if !quiet {
                    println!("{line}");
                }
            }
            _ => {
                if !quiet {
                    eprintln!("# {line}");
                }
            }
        }
    }
    eprintln!("error: daemon closed the connection before finishing the job");
    1
}

#[cfg(not(unix))]
fn roundtrip(_socket: &str, _request: &str, _quiet: bool) -> i32 {
    eprintln!("error: 'submit' needs Unix-domain sockets (unix only)");
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cloneable capture buffer usable behind `SharedWriter`.
    #[derive(Clone, Default)]
    struct Capture(Arc<Mutex<Vec<u8>>>);

    impl Capture {
        fn writer(&self) -> SharedWriter {
            Arc::new(Mutex::new(Box::new(self.clone())))
        }

        fn lines(&self) -> Vec<String> {
            let bytes = self.0.lock().unwrap().clone();
            String::from_utf8(bytes)
                .unwrap()
                .lines()
                .map(str::to_string)
                .collect()
        }
    }

    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn events(lines: &[String]) -> Vec<String> {
        lines
            .iter()
            .filter_map(|l| proto::field_str(l, "event"))
            .collect()
    }

    #[test]
    fn ping_reports_ledger_state() {
        let server = Server::new(4);
        let cap = Capture::default();
        let out = cap.writer();
        let req = proto::Object::new().str("op", "ping").finish();
        assert_eq!(server.handle_line(&req, &out), Outcome::Continue);
        let lines = cap.lines();
        assert_eq!(lines.len(), 1);
        assert_eq!(
            proto::field_str(&lines[0], "event").as_deref(),
            Some("pong")
        );
        assert_eq!(proto::field_u64(&lines[0], "cores_total"), Some(4));
        assert_eq!(proto::field_u64(&lines[0], "cores_in_use"), Some(0));
    }

    #[test]
    fn malformed_and_unknown_requests_answer_with_error_events() {
        let server = Server::new(2);
        let cap = Capture::default();
        let out = cap.writer();
        assert_eq!(
            server.handle_line("not json at all", &out),
            Outcome::Continue
        );
        let req = proto::Object::new().str("op", "dance").finish();
        assert_eq!(server.handle_line(&req, &out), Outcome::Continue);
        let submit = proto::Object::new()
            .str("op", "submit")
            .str("study", "no-such-study")
            .finish();
        assert_eq!(server.handle_line(&submit, &out), Outcome::Continue);
        let lines = cap.lines();
        assert_eq!(events(&lines), vec!["error", "error", "error"]);
        assert!(lines[2].contains("no-such-study"));
        assert_eq!(server.ledger().in_use(), 0);
    }

    #[test]
    fn shutdown_request_ends_the_session() {
        let server = Server::new(1);
        let cap = Capture::default();
        let out = cap.writer();
        let req = proto::Object::new().str("op", "shutdown").finish();
        assert_eq!(server.handle_line(&req, &out), Outcome::Shutdown);
        assert_eq!(events(&cap.lines()), vec!["bye"]);
    }

    #[test]
    fn a_submitted_job_streams_queued_started_rows_then_done() {
        let server = Server::new(2);
        let cap = Capture::default();
        let out = cap.writer();
        let req = proto::Object::new()
            .str("op", "submit")
            .str("study", "fig05")
            .str("mode", "quick")
            .u64("cores", 1)
            .finish();
        assert_eq!(server.handle_line(&req, &out), Outcome::Continue);
        let lines = cap.lines();
        let seen = events(&lines);
        assert_eq!(seen.first().map(String::as_str), Some("queued"));
        assert_eq!(seen.get(1).map(String::as_str), Some("started"));
        assert_eq!(seen.last().map(String::as_str), Some("done"));
        let rows = seen.iter().filter(|e| *e == "row").count();
        assert!(rows > 0, "expected row events, got {seen:?}");
        let done = lines.last().unwrap();
        assert_eq!(proto::field_u64(done, "rows"), Some(rows as u64));
        // The lease is returned once the job finishes.
        assert_eq!(server.ledger().in_use(), 0);
        assert_eq!(server.ledger().active_jobs(), 0);
    }

    #[test]
    fn submit_request_lines_carry_the_client_flags() {
        let args = CliArgs::new(vec![
            "--quick".into(),
            "--csv".into(),
            "out.csv".into(),
            "--cores".into(),
            "2".into(),
            "--batch".into(),
        ]);
        let req = submit_request("fig10", &args);
        assert_eq!(proto::field_str(&req, "op").as_deref(), Some("submit"));
        assert_eq!(proto::field_str(&req, "study").as_deref(), Some("fig10"));
        assert_eq!(proto::field_str(&req, "mode").as_deref(), Some("quick"));
        assert_eq!(proto::field_str(&req, "csv").as_deref(), Some("out.csv"));
        assert_eq!(proto::field_u64(&req, "cores"), Some(2));
        assert_eq!(proto::field_str(&req, "priority").as_deref(), Some("batch"));
    }

    #[test]
    fn cell_json_matches_the_json_artifact_emitter() {
        assert_eq!(cell_json(&Value::Str("a\"b".into())), "\"a\\\"b\"");
        assert_eq!(cell_json(&Value::Int(-3)), "-3");
        assert_eq!(cell_json(&Value::UInt(7)), "7");
        assert_eq!(cell_json(&Value::Float(1.5)), "1.5");
        assert_eq!(cell_json(&Value::Float(2.0)), "2.0");
        assert_eq!(cell_json(&Value::Float(f64::NAN)), "\"NaN\"");
        assert_eq!(cell_json(&Value::Bool(true)), "true");
        assert_eq!(cell_json(&Value::Null), "null");
    }
}
