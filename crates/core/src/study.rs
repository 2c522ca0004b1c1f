//! The unified experiment API: [`Study`] trait, [`RunContext`], and the
//! [`StudyRegistry`] of the eight paper artefacts and four scenario studies.
//!
//! Every evaluation artefact of the paper (Figures 5, 8, 9a, 9b, 10, 11, 12
//! and the Section V bisection methodology) is a [`Study`]: a named,
//! self-describing driver that knows its own quick/full parameter grid and
//! produces a machine-readable [`Table`]. Studies run inside a builder-style
//! [`RunContext`] owning everything an experiment needs:
//!
//! * the sweep worker pool (`sf-harness`),
//! * the shared topology [`BuildCache`],
//! * the [`ExperimentScale`] policy (quick vs. paper scale, simulation
//!   shards),
//! * the artifact emitters (CSV / JSON paths), and
//! * an optional **checkpoint journal** for resumable mega-sweeps: every
//!   completed sweep job is appended to `<csv>.journal`, so an interrupted
//!   run restarted with the same command restores finished jobs instead of
//!   recomputing them — and the final artifact is **byte-identical** to an
//!   uninterrupted run (job results round-trip exactly through the journal).
//!
//! Beyond the paper, [`StudyRegistry::extended`] groups the scenario
//! studies (fault injection, adversarial traffic, scale-out past 1296
//! nodes, the streaming mega-sweep) that the same trait machinery makes
//! additive; the `sfbench` CLI in `sf-bench` is a thin multiplexer over
//! [`StudyRegistry::all`] (paper plus extended), and the old per-figure
//! binary names resolve as registry aliases.
//!
//! Each study lives in one module below: its row type with the row's
//! [`Record`] columns and journal codec, its single driver taking the
//! [`RunContext`] first, and its [`Study`] impl.
//!
//! | study | module | artefact |
//! |-------|--------|----------|
//! | `fig05` | [`fig05`] | Figure 5 |
//! | `fig08` | [`fig08`] | Figure 8 / Table II |
//! | `fig09a` | [`fig09a`] | Figure 9(a) |
//! | `fig09b` | [`fig09b`] | Figure 9(b) |
//! | `fig10` | [`fig10`] | Figure 10 |
//! | `fig11` | [`fig11`] | Figure 11 |
//! | `fig12` | [`fig12`] | Figure 12 |
//! | `bisection` | [`bisection`] | Section V bisection methodology |
//! | `fault_resilience` | [`fault_resilience`] | Scenario: fault injection |
//! | `adversarial_saturation` | [`fig10`] | Scenario: adversarial traffic |
//! | `scaleout_2048` | [`fig09a`] | Scenario: scale-out beyond 1296 nodes |
//! | `megasweep` | [`megasweep`] | Scenario: streaming mega-sweep |

use crate::comparison::{NetworkInstance, TopologyKind};
use crate::experiments::ExperimentScale;
use sf_harness::fabric::{self, Partition, ShardFormat, ShardMeta};
use sf_harness::journal::{self, Journal};
use sf_harness::pool::PoolConfig;
use sf_harness::sink::RowSink;
use sf_harness::sweep::{JobCtx, LazySweep, SweepError};
use sf_harness::table::{Record, Table, Value};
use sf_harness::BuildCache;
use sf_types::{SfError, SfResult};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

pub mod bisection;
pub mod fault_resilience;
pub mod fig05;
pub mod fig08;
pub mod fig09a;
pub mod fig09b;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod megasweep;

// ---------------------------------------------------------------------------
// Checkpointable job results
// ---------------------------------------------------------------------------

/// A sweep-job result that can round-trip through the checkpoint journal.
///
/// `from_cells(to_cells(r)) == Some(r)` must hold **exactly** (floats are
/// journalled with shortest-roundtrip formatting), which is what makes a
/// resumed run's artifact byte-identical to an uninterrupted one.
pub trait CheckpointRow: Sized {
    /// Encodes this result as journal cells.
    fn to_cells(&self) -> Vec<Value>;
    /// Decodes a result previously encoded with [`to_cells`](Self::to_cells).
    fn from_cells(cells: &[Value]) -> Option<Self>;
}

/// A [`Record`] row journalled as its own [`Record::values`]: the journal
/// codec and the CSV columns are one encoding, so they cannot drift apart.
/// Every such row is a [`CheckpointRow`].
pub trait RecordRow: Record + Sized {
    /// Decodes a row from the cells its [`Record::values`] produced.
    fn from_values(cells: &[Value]) -> Option<Self>;
}

impl<R: RecordRow> CheckpointRow for R {
    fn to_cells(&self) -> Vec<Value> {
        self.values()
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        R::from_values(cells)
    }
}

fn cell_f64(cell: &Value) -> Option<f64> {
    match cell {
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn cell_u64(cell: &Value) -> Option<u64> {
    match cell {
        Value::UInt(u) => Some(*u),
        _ => None,
    }
}

fn cell_usize(cell: &Value) -> Option<usize> {
    cell_u64(cell).map(|u| u as usize)
}

fn cell_bool(cell: &Value) -> Option<bool> {
    match cell {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn cell_str(cell: &Value) -> Option<&str> {
    match cell {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn cell_opt_f64(cell: &Value) -> Option<Option<f64>> {
    match cell {
        Value::Null => Some(None),
        Value::Float(x) => Some(Some(*x)),
        _ => None,
    }
}

impl CheckpointRow for f64 {
    fn to_cells(&self) -> Vec<Value> {
        vec![(*self).into()]
    }
    fn from_cells(cells: &[Value]) -> Option<Self> {
        match cells {
            [cell] => cell_f64(cell),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// RunContext
// ---------------------------------------------------------------------------

/// The build-once topology cache studies share: `(design, nodes, seed)` →
/// generated [`NetworkInstance`].
pub type TopologyCache = BuildCache<(TopologyKind, usize, u64), NetworkInstance>;

/// The process-wide [`TopologyCache`] every [`RunContext`] starts with.
/// Construction is a pure function of the key, so sharing instances across
/// jobs (and across studies) never changes results — it only removes
/// redundant topology generation from sweeps that revisit a network point.
fn shared_topology_cache() -> Arc<TopologyCache> {
    static CACHE: OnceLock<Arc<TopologyCache>> = OnceLock::new();
    Arc::clone(CACHE.get_or_init(Arc::default))
}

/// An observer invoked with every row a [`RowStream`] writes, in delivery
/// (enumeration) order — the seam the `sfbench serve` daemon uses to stream
/// result rows to a submitting client while the artifact files are being
/// written. Taps are passive: they cannot alter, reorder, or fail the rows,
/// so artifacts are byte-identical with or without one.
#[derive(Clone)]
pub struct RowTap(RowObserver);

type RowObserver = Arc<dyn Fn(&[Value]) + Send + Sync>;

impl RowTap {
    /// Wraps a row observer.
    pub fn new(observer: impl Fn(&[Value]) + Send + Sync + 'static) -> Self {
        Self(Arc::new(observer))
    }

    fn observe(&self, cells: &[Value]) {
        (self.0)(cells);
    }
}

impl std::fmt::Debug for RowTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RowTap(..)")
    }
}

/// Where a study's result table is written after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Emitter {
    /// Write the table's CSV form to this path.
    Csv(PathBuf),
    /// Write the table's JSON form to this path.
    Json(PathBuf),
}

/// Everything a study runs inside: worker pool, topology cache, scale
/// policy, artifact emitters, and the optional checkpoint journal.
///
/// Built builder-style:
///
/// ```
/// use sf_harness::pool::PoolConfig;
/// use stringfigure::study::RunContext;
///
/// let ctx = RunContext::new()
///     .with_pool(PoolConfig::serial())
///     .quick(true)
///     .with_shards(2);
/// assert!(ctx.is_quick());
/// ```
#[derive(Debug)]
pub struct RunContext {
    pool: PoolConfig,
    quick: bool,
    shards: usize,
    scale_override: Option<ExperimentScale>,
    cache: Arc<TopologyCache>,
    emitters: Vec<Emitter>,
    checkpoint_path: Option<PathBuf>,
    max_journal_bytes: Option<u64>,
    telemetry: Option<PathBuf>,
    telemetry_every: Option<u64>,
    partition: Option<Partition>,
    row_tap: Option<RowTap>,
    /// Total point count of the last partitioned sweep (the *unpartitioned*
    /// grid size), recorded by `run_jobs_streaming` so `execute` can stamp
    /// shard metadata without re-deriving the grid. `u64::MAX` = unset.
    partition_total: AtomicU64,
    journal: OnceLock<Journal>,
    sweep_seq: AtomicU64,
}

impl Default for RunContext {
    fn default() -> Self {
        Self::new()
    }
}

impl RunContext {
    /// A context with the default worker pool, full (paper) scale, no
    /// emitters, and no checkpointing.
    #[must_use]
    pub fn new() -> Self {
        Self {
            pool: PoolConfig::auto(),
            quick: false,
            shards: 0,
            scale_override: None,
            cache: shared_topology_cache(),
            emitters: Vec::new(),
            checkpoint_path: None,
            max_journal_bytes: None,
            telemetry: None,
            telemetry_every: None,
            partition: None,
            row_tap: None,
            partition_total: AtomicU64::new(u64::MAX),
            journal: OnceLock::new(),
            sweep_seq: AtomicU64::new(0),
        }
    }

    /// Sets the sweep worker pool.
    #[must_use]
    pub fn with_pool(mut self, pool: PoolConfig) -> Self {
        self.pool = pool;
        self
    }

    /// Selects quick (smoke) scale instead of the study's full scale.
    #[must_use]
    pub fn quick(mut self, quick: bool) -> Self {
        self.quick = quick;
        self
    }

    /// Forces an intra-simulation router shard count (`0` = automatic).
    /// Sharding only trades wall-clock time; rows are bit-identical.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Overrides the simulation scale for every study run in this context
    /// (otherwise each study picks its own quick/full scale).
    #[must_use]
    pub fn with_scale(mut self, scale: ExperimentScale) -> Self {
        self.scale_override = Some(scale);
        self
    }

    /// Uses a private topology [`BuildCache`] instead of the process-wide
    /// one (useful for isolation in tests).
    #[must_use]
    pub fn with_build_cache(mut self, cache: Arc<TopologyCache>) -> Self {
        self.cache = cache;
        self
    }

    /// Adds a CSV emitter for the study's result table.
    #[must_use]
    pub fn with_csv(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push(Emitter::Csv(path.into()));
        self
    }

    /// Adds a JSON emitter for the study's result table.
    #[must_use]
    pub fn with_json(mut self, path: impl Into<PathBuf>) -> Self {
        self.emitters.push(Emitter::Json(path.into()));
        self
    }

    /// Enables checkpoint/resume: completed sweep jobs are journalled at
    /// `path` (conventionally `<csv>.journal`), restored by a later run of
    /// the same study at the same scale, and the file is removed once the
    /// final artifact is written.
    #[must_use]
    pub fn with_checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint_path = Some(path.into());
        self
    }

    /// Caps the checkpoint journal's append log: once it outgrows `bytes`,
    /// it is compacted in place to a kill-safe snapshot (and an oversized
    /// journal found on resume is compacted before the run continues). The
    /// cap changes only disk usage, never output bytes, so it is — like
    /// worker and shard counts — excluded from the resume fingerprint.
    #[must_use]
    pub fn with_max_journal_bytes(mut self, bytes: u64) -> Self {
        self.max_journal_bytes = Some(bytes);
        self
    }

    /// Records an `sf-telemetry/v1` stream of every simulation this context
    /// runs at `path` (written via the atomic `.part`-rename pattern).
    /// Telemetry is strictly out-of-band — result artifacts are
    /// byte-identical with it on or off — and the stream itself is, like
    /// every other artifact, bit-identical for any worker or shard count.
    /// Like those parallelism knobs it is excluded from the resume
    /// fingerprint; note a resumed run skips restored jobs' simulations, so
    /// stream comparisons should use fresh (`--no-resume`) runs.
    #[must_use]
    pub fn with_telemetry(mut self, path: impl Into<PathBuf>) -> Self {
        self.telemetry = Some(path.into());
        self
    }

    /// Sets the telemetry sampling stride in cycles (default
    /// [`sf_obs::telemetry::DEFAULT_EVERY`]; clamped to at least 1).
    #[must_use]
    pub fn with_telemetry_every(mut self, every: u64) -> Self {
        self.telemetry_every = Some(every.max(1));
        self
    }

    /// Restricts every sweep this context runs to partition `p` of the
    /// distributed fabric: only the points in the partition's contiguous
    /// global index range execute, each keeping its **global** index (and
    /// therefore its derived seed and journal key), so the union of all
    /// partitions' rows is bit-identical to the unpartitioned run. Only
    /// meaningful for single-sweep row-streaming studies — the CLI enforces
    /// that gate.
    #[must_use]
    pub fn with_partition(mut self, p: Partition) -> Self {
        self.partition = Some(p);
        self
    }

    /// The partition configured with
    /// [`with_partition`](Self::with_partition), if any.
    #[must_use]
    pub fn partition(&self) -> Option<Partition> {
        self.partition
    }

    /// Installs a [`RowTap`] observing every row the context's
    /// [`RowStream`]s deliver, in enumeration order. Purely additive:
    /// artifact bytes are unchanged.
    #[must_use]
    pub fn with_row_tap(mut self, tap: RowTap) -> Self {
        self.row_tap = Some(tap);
        self
    }

    /// The telemetry stream path configured with
    /// [`with_telemetry`](Self::with_telemetry), if any.
    #[must_use]
    pub fn telemetry(&self) -> Option<&Path> {
        self.telemetry.as_deref()
    }

    /// The effective telemetry sampling stride of this context's
    /// simulations: 0 (off) without a stream path, else the configured or
    /// default stride.
    #[must_use]
    pub fn telemetry_every(&self) -> u64 {
        if self.telemetry.is_none() {
            return 0;
        }
        self.telemetry_every
            .unwrap_or(sf_obs::telemetry::DEFAULT_EVERY)
    }

    /// Whether this context runs studies at quick (smoke) scale.
    #[must_use]
    pub fn is_quick(&self) -> bool {
        self.quick
    }

    /// The sweep worker pool.
    #[must_use]
    pub fn pool(&self) -> &PoolConfig {
        &self.pool
    }

    /// The configured emitters.
    #[must_use]
    pub fn emitters(&self) -> &[Emitter] {
        &self.emitters
    }

    /// The journal path configured with
    /// [`with_checkpoint`](Self::with_checkpoint), if any.
    #[must_use]
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint_path.as_deref()
    }

    /// Resolves the simulation scale a study should run at: the explicit
    /// override if one was set, else quick or the study's own `full` scale,
    /// with the context's shard count applied on top.
    #[must_use]
    pub fn scale(&self, full: ExperimentScale) -> ExperimentScale {
        let base = self.scale_override.unwrap_or(if self.quick {
            ExperimentScale::quick()
        } else {
            full
        });
        let base = if self.shards > 0 {
            base.with_shards(self.shards)
        } else {
            base
        };
        base.with_telemetry_every(self.telemetry_every())
    }

    /// Builds or reuses the network design `kind` at scale `nodes` with
    /// `seed` through this context's topology cache.
    ///
    /// # Errors
    ///
    /// Propagates topology construction errors.
    pub fn instance(
        &self,
        kind: TopologyKind,
        nodes: usize,
        seed: u64,
    ) -> SfResult<Arc<NetworkInstance>> {
        self.cache.get_or_build((kind, nodes, seed), || {
            NetworkInstance::build(kind, nodes, seed)
        })
    }

    /// Opens the checkpoint journal for a run identified by `fingerprint`,
    /// restoring any completed jobs a previous interrupted run recorded.
    /// Returns the number of restored jobs; a no-op returning 0 when no
    /// checkpoint path is configured.
    ///
    /// # Errors
    ///
    /// Surfaces journal I/O failures as [`SfError::Simulation`].
    pub fn resume_checkpoint(&self, fingerprint: u64) -> SfResult<usize> {
        let Some(path) = &self.checkpoint_path else {
            return Ok(0);
        };
        if let Some(journal) = self.journal.get() {
            return Ok(journal.restored_count());
        }
        let journal =
            Journal::open_with_limit(path, fingerprint, self.max_journal_bytes).map_err(|e| {
                SfError::Simulation {
                    reason: format!("cannot open checkpoint journal {}: {e}", path.display()),
                }
            })?;
        // An interrupted mega-sweep can leave a log far past the cap; settle
        // it to a snapshot before appending more.
        let compacted = journal.maybe_compact().map_err(|e| SfError::Simulation {
            reason: format!("cannot compact checkpoint journal {}: {e}", path.display()),
        })?;
        if compacted {
            sf_obs::progress::Progress::global().note(&format!(
                "# compacted checkpoint journal {} to {} byte(s)",
                path.display(),
                journal.len_bytes()
            ));
        }
        let restored = journal.restored_count();
        let _ = self.journal.set(journal);
        Ok(restored)
    }

    /// The open checkpoint journal, if [`resume_checkpoint`] ran.
    ///
    /// [`resume_checkpoint`]: Self::resume_checkpoint
    #[must_use]
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.get()
    }

    /// Runs one streaming sweep of `points` through the worker pool,
    /// delivering each completed row to `on_row` **in enumeration order**
    /// without collecting the rows — **the** single execution path every
    /// study driver uses (the collecting [`run_jobs`](Self::run_jobs) is a
    /// thin wrapper). This is the bounded-memory pipeline: points stream in
    /// from the iterator, rows stream out through the callback, and the
    /// engine only buffers the out-of-order window, so a million-point
    /// mega-sweep peaks at `O(workers × chunk)` memory.
    ///
    /// With a checkpoint journal open, jobs completed by a previous
    /// interrupted run are restored from the journal instead of recomputed
    /// (and still flow through `on_row` in order), and every newly completed
    /// job is journalled (and flushed) before its row is delivered — which
    /// is what makes `kill -9` at any point resumable with bit-identical
    /// final output. Returns the number of rows delivered.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error (panics inside a job surface as
    /// [`SfError::Simulation`] tagged with the job index) or the first error
    /// `on_row` returned. The first error **cancels the sweep**: no further
    /// points are pulled, so a failed mega-sweep stops within the in-flight
    /// window instead of computing the rest of its grid.
    pub fn run_jobs_streaming<I, P, R, F, S>(
        &self,
        points: I,
        job: F,
        mut on_row: S,
    ) -> SfResult<usize>
    where
        I: IntoIterator<Item = P>,
        I::IntoIter: ExactSizeIterator + Send,
        P: Send,
        R: CheckpointRow + Send,
        F: Fn(JobCtx, &P) -> SfResult<R> + Sync,
        S: FnMut(usize, R) -> SfResult<()> + Send,
    {
        let seq = self.sweep_seq.fetch_add(1, Ordering::Relaxed);
        let journal = self.journal.get();
        let mut failure: Option<SfError> = None;
        let mut delivered = 0usize;
        let points = points.into_iter();
        // Partitioning slices the stream to a contiguous global index range;
        // the index offset lifts job indices back to their grid-global
        // values, so seeds, journal keys, and telemetry scopes are exactly
        // the unpartitioned run's. (The `0..len` range of the unpartitioned
        // case makes this one code path, not two.)
        let total = points.len();
        let range = match self.partition {
            Some(p) => {
                self.partition_total.store(total as u64, Ordering::Relaxed);
                fabric::partition_range(total, p)
            }
            None => 0..total,
        };
        let points = points.skip(range.start).take(range.len());
        let progress = sf_obs::progress::Progress::global();
        progress.start_sweep(points.len());
        LazySweep::new(points)
            .with_index_offset(range.start)
            .run_streaming(
                &self.pool,
                |jctx, point| {
                    // Telemetry blocks this job's simulations submit are keyed
                    // by (sweep, job index) so the collector can write them in
                    // enumeration order, whatever worker ran the job.
                    let _telemetry_scope = sf_obs::telemetry::job_scope(seq, jctx.index as u64);
                    if let Some(journal) = journal {
                        if let Some(cells) = journal.restored(seq, jctx.index as u64) {
                            if let Some(row) = R::from_cells(cells) {
                                return Ok(row);
                            }
                        }
                    }
                    let row = job(jctx, point)?;
                    if let Some(journal) = journal {
                        journal
                            .record(seq, jctx.index as u64, &row.to_cells())
                            .map_err(|e| SfError::Simulation {
                                reason: format!("checkpoint journal write failed: {e}"),
                            })?;
                    }
                    Ok(row)
                },
                |outcome| {
                    // Ordered delivery means the first failure seen is the
                    // lowest-indexed one — the error the old serial loops
                    // surfaced. Returning false cancels the sweep, so a failed
                    // mega-sweep stops instead of running the rest of its grid.
                    match outcome.result {
                        Ok(row) => match on_row(outcome.index, row) {
                            Ok(()) => {
                                delivered += 1;
                                // This callback runs in enumeration order, so
                                // flushing parked telemetry here pins the
                                // stream's block order to the job order.
                                sf_obs::telemetry::Collector::global()
                                    .deliver_through(seq, outcome.index as u64);
                                progress.tick(1, 1);
                                true
                            }
                            Err(e) => {
                                failure = Some(e);
                                false
                            }
                        },
                        Err(SweepError::Job(e)) => {
                            failure = Some(e);
                            false
                        }
                        Err(SweepError::Panic(message)) => {
                            failure = Some(SfError::Simulation {
                                reason: format!(
                                    "experiment job {} panicked: {message}",
                                    outcome.index
                                ),
                            });
                            false
                        }
                    }
                },
            );
        progress.finish_sweep();
        match failure {
            Some(e) => Err(e),
            None => Ok(delivered),
        }
    }

    /// [`run_jobs_streaming`](Self::run_jobs_streaming) collecting the rows
    /// into a `Vec` — the path for studies whose grids are small enough to
    /// hold (every `Vec<P>` also streams through here, which keeps old
    /// drivers compiling unchanged).
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed job error; panics inside a job surface as
    /// [`SfError::Simulation`] tagged with the job index.
    pub fn run_jobs<I, P, R, F>(&self, points: I, job: F) -> SfResult<Vec<R>>
    where
        I: IntoIterator<Item = P>,
        I::IntoIter: ExactSizeIterator + Send,
        P: Send,
        R: CheckpointRow + Send,
        F: Fn(JobCtx, &P) -> SfResult<R> + Sync,
    {
        let mut rows = Vec::new();
        self.run_jobs_streaming(points, job, |_, row| {
            rows.push(row);
            Ok(())
        })?;
        Ok(rows)
    }

    /// Opens one streaming [`RowSink`] per configured emitter, all sharing
    /// `columns` — the artifact end of the bounded-memory pipeline. With no
    /// emitters configured the stream is an empty no-op.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn open_row_stream<S: AsRef<str>>(&self, columns: &[S]) -> SfResult<RowStream> {
        let mut sinks = Vec::with_capacity(self.emitters.len());
        for emitter in &self.emitters {
            let (path, sink) = match emitter {
                Emitter::Csv(path) => (path, RowSink::csv(path, columns)),
                Emitter::Json(path) => (path, RowSink::json(path, columns)),
            };
            sinks.push(sink.map_err(|e| SfError::Simulation {
                reason: format!("cannot open artifact {}: {e}", path.display()),
            })?);
        }
        Ok(RowStream {
            sinks,
            tap: self.row_tap.clone(),
        })
    }

    /// Writes `table` through every configured emitter — the post-hoc path
    /// for studies that aggregate before emitting. Runs over the same
    /// streaming sinks as [`open_row_stream`](Self::open_row_stream), so
    /// both paths produce identical bytes.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn emit(&self, table: &Table) -> SfResult<()> {
        let mut stream = self.open_row_stream(&table.columns)?;
        for row in &table.rows {
            stream.push(row)?;
        }
        stream.finish()
    }
}

/// The artifact end of a streaming run: every pushed row goes to each of the
/// context's emitters incrementally, and [`finish`](Self::finish) finalises
/// all artifacts atomically. Created by
/// [`RunContext::open_row_stream`]; dropping without `finish` discards the
/// partial artifacts and leaves the destinations untouched.
#[derive(Debug)]
pub struct RowStream {
    sinks: Vec<RowSink>,
    tap: Option<RowTap>,
}

impl RowStream {
    /// Appends one row to every open sink, then notifies the context's
    /// [`RowTap`] (if one is installed).
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn push(&mut self, cells: &[Value]) -> SfResult<()> {
        for sink in &mut self.sinks {
            // Error context is formatted only on failure — push runs once
            // per row per sink inside the serialised emit section, so the
            // success path must not allocate.
            if let Err(e) = sink.push(cells) {
                return Err(SfError::Simulation {
                    reason: format!("cannot write artifact {}: {e}", sink.path().display()),
                });
            }
        }
        if let Some(tap) = &self.tap {
            tap.observe(cells);
        }
        Ok(())
    }

    /// Number of sinks this stream writes to.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the stream has no sinks (no emitters configured).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// Finalises and atomically publishes every artifact.
    ///
    /// # Errors
    ///
    /// Surfaces filesystem failures as [`SfError::Simulation`].
    pub fn finish(self) -> SfResult<()> {
        for sink in self.sinks {
            let path = sink.path().display().to_string();
            let rows = sink.rows();
            sink.finish().map_err(|e| SfError::Simulation {
                reason: format!("cannot write artifact {path}: {e}"),
            })?;
            sf_obs::progress::Progress::global().note(&format!("# wrote {path} ({rows} rows)"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Study trait and grid description
// ---------------------------------------------------------------------------

/// The parameter grid a study will sweep at a given scale: named axes and
/// their point counts, enumerable lazily in row-major order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StudyGrid {
    /// `(axis name, point count)` pairs, outermost axis first.
    pub axes: Vec<(&'static str, usize)>,
}

impl StudyGrid {
    /// A grid over the given axes.
    #[must_use]
    pub fn new(axes: Vec<(&'static str, usize)>) -> Self {
        Self { axes }
    }

    /// Total number of sweep jobs (product of the axis sizes).
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.axes.iter().map(|(_, n)| *n).product()
    }

    /// Streams every grid point as per-axis indices (row-major, outermost
    /// axis first) without materialising the grid.
    pub fn points(&self) -> impl ExactSizeIterator<Item = Vec<usize>> + Send + '_ {
        let sizes: Vec<usize> = self.axes.iter().map(|(_, n)| *n).collect();
        (0..self.jobs()).map(move |mut flat| {
            let mut coords = vec![0usize; sizes.len()];
            for (slot, &size) in coords.iter_mut().zip(&sizes).rev() {
                *slot = flat % size.max(1);
                flat /= size.max(1);
            }
            coords
        })
    }

    /// The grid as a streaming [`LazySweep`] over its points — the shape a
    /// million-point mega-sweep runs in.
    #[must_use]
    pub fn lazy_sweep(&self) -> LazySweep<impl ExactSizeIterator<Item = Vec<usize>> + Send + '_> {
        LazySweep::new(self.points())
    }
}

/// One evaluation artefact of the paper, runnable by name through the
/// registry and the `sfbench` CLI.
pub trait Study: Send + Sync {
    /// Short registry name (`fig10`, `bisection`, …).
    fn name(&self) -> &'static str;

    /// Alternative names this study answers to (e.g. the old binary name).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// The paper artefact this study reproduces (`Figure 10`, `Table II`…).
    fn artefact(&self) -> &'static str;

    /// One-line human description (shown by `sfbench list`; never empty).
    fn description(&self) -> &'static str;

    /// The parameter grid this study sweeps at the context's scale.
    fn grid(&self, ctx: &RunContext) -> StudyGrid;

    /// Runs the study and returns its result table — the exact table the
    /// figure binary historically emitted via `--csv`.
    ///
    /// # Errors
    ///
    /// Propagates construction, workload, and simulation errors.
    fn run(&self, ctx: &RunContext) -> SfResult<Table>;

    /// Whether [`run`](Self::run) streams its rows straight to the context's
    /// emitters while the sweep executes, returning only a summary table —
    /// the shape mega-sweeps take, whose row sets must never be collected.
    /// [`execute`] then skips the post-hoc emission of the returned table.
    fn streams_rows(&self) -> bool {
        false
    }

    /// Prints any extra derived tables the old binary showed on stdout
    /// (normalised figures, feature matrices). Default: nothing.
    fn print_extras(&self, table: &Table) {
        let _ = table;
    }
}

/// The identity parts of running `study` in `ctx`, *without* any partition
/// coordinate — the serial run's identity, shared by every shard of one
/// distributed run.
fn fingerprint_parts(study: &dyn Study, ctx: &RunContext) -> Vec<String> {
    let mut parts: Vec<String> = vec![
        study.name().to_string(),
        if ctx.is_quick() { "quick" } else { "full" }.to_string(),
    ];
    if let Some(scale) = ctx.scale_override {
        parts.push(format!(
            "scale:{}:{}",
            scale.max_cycles, scale.warmup_cycles
        ));
    }
    parts
}

/// The checkpoint fingerprint of running `study` in `ctx`: identifies the
/// study and everything that changes its grid or rows, while deliberately
/// excluding worker/shard counts (which never change output bytes), so a
/// resume may use different parallelism than the interrupted run. A
/// partitioned context additionally folds in its `i/N` coordinate, so a
/// partition journal can never be misapplied to a different partition (or to
/// the serial run).
#[must_use]
pub fn study_fingerprint(study: &dyn Study, ctx: &RunContext) -> u64 {
    let mut parts = fingerprint_parts(study, ctx);
    if let Some(p) = ctx.partition() {
        parts.push(format!("partition:{p}"));
    }
    journal::fingerprint(parts)
}

/// The **serial** (partition-free) fingerprint of running `study` in `ctx` —
/// what shard metadata records and what a merged artifact's resume journal
/// carries, identical across all partitions of one run.
#[must_use]
pub fn study_fingerprint_serial(study: &dyn Study, ctx: &RunContext) -> u64 {
    journal::fingerprint(fingerprint_parts(study, ctx))
}

/// Runs `study` end to end inside `ctx`: opens the checkpoint journal (when
/// configured), executes the study, writes every emitter, and removes the
/// journal once the artifact is safely on disk.
///
/// # Errors
///
/// Propagates study and emitter errors; on error the journal is kept so the
/// run can be resumed.
pub fn execute(study: &dyn Study, ctx: &RunContext) -> SfResult<Table> {
    let progress = sf_obs::progress::Progress::global();
    progress.set_task(study.name());
    // Telemetry brackets the whole run: the stream opens (as a .part)
    // before any simulation and publishes atomically only on success, so a
    // failed run leaves no partial stream behind.
    if let Some(path) = ctx.telemetry() {
        sf_obs::telemetry::Collector::global()
            .configure(path)
            .map_err(|e| SfError::Simulation {
                reason: format!("cannot open telemetry stream {}: {e}", path.display()),
            })?;
    }
    let result = execute_inner(study, ctx);
    if ctx.telemetry().is_some() {
        let collector = sf_obs::telemetry::Collector::global();
        if result.is_ok() {
            match collector.finish() {
                Ok(Some((path, blocks))) => progress.note(&format!(
                    "# wrote {} ({blocks} telemetry block(s))",
                    path.display()
                )),
                Ok(None) => {}
                Err(e) => {
                    return Err(SfError::Simulation {
                        reason: format!("cannot write telemetry stream: {e}"),
                    });
                }
            }
        } else {
            collector.abort();
        }
    }
    result
}

fn execute_inner(study: &dyn Study, ctx: &RunContext) -> SfResult<Table> {
    let progress = sf_obs::progress::Progress::global();
    let expected_fp = study_fingerprint(study, ctx);
    // A journal left by a *different* configuration is about to be
    // discarded; say exactly what clashed (both fingerprints plus this
    // run's config) instead of silently starting fresh.
    if let Some(path) = ctx.checkpoint_path() {
        if let Some(found) = journal::peek_fingerprint(path) {
            if found != expected_fp {
                progress.note(&format!(
                    "# checkpoint journal {} fingerprint mismatch: expected {expected_fp:016x} (study={} mode={}{}), found {found:016x} — discarding it and starting fresh",
                    path.display(),
                    study.name(),
                    if ctx.is_quick() { "quick" } else { "full" },
                    ctx.partition()
                        .map_or_else(String::new, |p| format!(" partition={p}")),
                ));
            }
        }
    }
    let restored = ctx.resume_checkpoint(expected_fp)?;
    if restored > 0 {
        progress.note(&format!(
            "# resuming {}: {restored} job(s) restored from {}",
            study.name(),
            ctx.checkpoint_path()
                .map_or_else(String::new, |p| p.display().to_string()),
        ));
    }
    let table = study.run(ctx)?;
    // Streaming studies already wrote their artifacts row by row; emitting
    // the summary table over them would clobber the real rows.
    if !study.streams_rows() {
        ctx.emit(&table)?;
    }
    if let Some(journal) = ctx.journal() {
        // Journal health — reported before the (successful) run deletes it.
        progress.note(&format!(
            "# journal {}: {} byte(s), {} job(s) restored, {} compaction(s)",
            journal.path().display(),
            journal.len_bytes(),
            journal.restored_count(),
            journal.compactions(),
        ));
        journal.finish().map_err(|e| SfError::Simulation {
            reason: format!("cannot remove checkpoint journal: {e}"),
        })?;
    }
    write_shard_metadata(study, ctx)?;
    Ok(table)
}

/// After a successful partitioned run, stamps every emitted artifact (and
/// the telemetry stream) with a [`ShardMeta`] sidecar carrying the study,
/// mode, **serial** fingerprint, partition coordinate, and covered index
/// range — everything `sfbench merge` needs to validate shard compatibility.
/// A no-op for unpartitioned contexts.
fn write_shard_metadata(study: &dyn Study, ctx: &RunContext) -> SfResult<()> {
    let Some(partition) = ctx.partition() else {
        return Ok(());
    };
    let total = ctx.partition_total.load(Ordering::Relaxed);
    if total == u64::MAX {
        // The study never ran a partitioned sweep (nothing streamed), so
        // there is no shard to describe.
        return Ok(());
    }
    let total = usize::try_from(total).expect("point count fits usize");
    let meta = |format: ShardFormat| ShardMeta {
        study: study.name().to_string(),
        mode: if ctx.is_quick() { "quick" } else { "full" }.to_string(),
        fingerprint: study_fingerprint_serial(study, ctx),
        partition,
        range: fabric::partition_range(total, partition),
        total,
        format,
    };
    let mut targets: Vec<(PathBuf, ShardFormat)> = Vec::new();
    for emitter in ctx.emitters() {
        match emitter {
            Emitter::Csv(path) => targets.push((path.clone(), ShardFormat::Csv)),
            Emitter::Json(path) => targets.push((path.clone(), ShardFormat::Json)),
        }
    }
    if let Some(path) = ctx.telemetry() {
        targets.push((path.to_path_buf(), ShardFormat::Telemetry));
    }
    for (path, format) in targets {
        meta(format)
            .write_for(&path)
            .map_err(|e| SfError::Simulation {
                reason: format!("cannot write shard metadata for {}: {e}", path.display()),
            })?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Name-addressable collection of studies.
#[derive(Default)]
pub struct StudyRegistry {
    studies: Vec<Box<dyn Study>>,
}

impl std::fmt::Debug for StudyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StudyRegistry")
            .field("studies", &self.names())
            .finish()
    }
}

impl StudyRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of the eight paper artefacts.
    #[must_use]
    pub fn paper() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(fig05::Fig05Surg));
        registry.register(Box::new(fig08::Fig08Configs));
        registry.register(Box::new(fig09a::Fig09aHopCounts));
        registry.register(Box::new(fig09b::Fig09bPowerGating));
        registry.register(Box::new(fig10::Fig10Saturation));
        registry.register(Box::new(fig11::Fig11LatencyCurves));
        registry.register(Box::new(fig12::Fig12Workloads));
        registry.register(Box::new(bisection::BisectionStudy));
        registry
    }

    /// The extended (beyond-paper) scenario group: fault injection,
    /// adversarial traffic, and scale-out sweeps past the paper's 1296-node
    /// maximum. Kept separate from [`paper`](Self::paper) so the
    /// reproduction surface stays clearly delineated; `sfbench` exposes both
    /// through [`all`](Self::all).
    #[must_use]
    pub fn extended() -> Self {
        let mut registry = Self::new();
        registry.register(Box::new(fault_resilience::FaultResilience));
        registry.register(Box::new(fig10::AdversarialSaturation));
        registry.register(Box::new(fig09a::Scaleout2048));
        registry.register(Box::new(megasweep::Megasweep));
        registry
    }

    /// Every registered study: the paper group followed by the extended
    /// scenario group — the registry behind `sfbench list/grid/run`.
    #[must_use]
    pub fn all() -> Self {
        let mut registry = Self::paper();
        for study in Self::extended().studies {
            registry.register(study);
        }
        registry
    }

    /// Adds a study; later registrations win name clashes in [`get`].
    ///
    /// [`get`]: Self::get
    pub fn register(&mut self, study: Box<dyn Study>) {
        self.studies.push(study);
    }

    /// Looks a study up by name or alias (case-sensitive).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&dyn Study> {
        self.studies
            .iter()
            .rev()
            .find(|s| s.name() == name || s.aliases().contains(&name))
            .map(AsRef::as_ref)
    }

    /// Registered studies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Study> {
        self.studies.iter().map(AsRef::as_ref)
    }

    /// Registered study names, in registration order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.studies.iter().map(|s| s.name()).collect()
    }

    /// Number of registered studies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.studies.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.studies.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Table rendering (shared by the CLI and the study extras)
// ---------------------------------------------------------------------------

/// Prints a Markdown-style table: a header row followed by data rows.
/// Column widths adapt to the widest cell so the output is readable both in
/// a terminal and when pasted into a report.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(4)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(headers.iter().map(|h| (*h).to_string()).collect());
    let separator: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(separator);
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with three significant decimals for table cells.
#[must_use]
pub fn fmt_f(value: f64) -> String {
    format!("{value:.3}")
}

/// Formats an optional percentage (used for saturation points).
#[must_use]
pub fn fmt_percent(value: Option<f64>) -> String {
    match value {
        Some(v) => format!("{v:.0}%"),
        None => "saturated".to_string(),
    }
}

/// Renders one table cell for terminal display (floats at three decimals).
#[must_use]
pub fn render_cell(value: &Value) -> String {
    match value {
        Value::Float(x) => fmt_f(*x),
        Value::Null => "-".to_string(),
        other => other.render(),
    }
}

/// Prints a result [`Table`] as a Markdown-style terminal table.
pub fn print_result_table(table: &Table) {
    let headers: Vec<&str> = table.columns.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| row.iter().map(render_cell).collect())
        .collect();
    print_table(&headers, &rows);
}

#[cfg(test)]
mod tests {
    use super::bisection::BisectionRow;
    use super::fault_resilience::FaultResilienceRow;
    use super::fig05::SurgRow;
    use super::fig08::ConfigurationRow;
    use super::fig09a::HopCountRow;
    use super::fig09b::PowerGateRow;
    use super::fig10::SaturationRow;
    use super::fig11::LatencyPoint;
    use super::fig12::WorkloadRow;
    use super::megasweep::{Megasweep, MegasweepRow, MegasweepSummaryRow};
    use super::*;
    use sf_topology::analysis::BisectionBandwidth;
    use sf_workloads::{ApplicationModel, SyntheticPattern};
    use std::fmt::Debug;
    use std::sync::atomic::AtomicUsize;

    fn temp_journal(name: &str) -> PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!(
            "sf-study-test-{}-{name}.journal",
            std::process::id()
        ));
        path
    }

    #[test]
    fn registry_has_all_eight_paper_artefacts() {
        let registry = StudyRegistry::paper();
        assert_eq!(registry.len(), 8);
        for study in registry.iter() {
            assert!(!study.description().is_empty(), "{}", study.name());
            assert!(!study.artefact().is_empty(), "{}", study.name());
            assert!(registry.get(study.name()).is_some());
            for alias in study.aliases() {
                assert_eq!(registry.get(alias).unwrap().name(), study.name());
            }
        }
        assert!(registry.get("fig99").is_none());
    }

    #[test]
    fn extended_registry_holds_the_scenario_studies() {
        let extended = StudyRegistry::extended();
        assert_eq!(
            extended.names(),
            vec![
                "fault_resilience",
                "adversarial_saturation",
                "scaleout_2048",
                "megasweep"
            ]
        );
        for study in extended.iter() {
            assert!(
                study.artefact().starts_with("Scenario:"),
                "{}",
                study.name()
            );
            assert!(!study.description().is_empty(), "{}", study.name());
        }
        // The combined registry is paper + extended, and names never clash.
        let all = StudyRegistry::all();
        assert_eq!(all.len(), StudyRegistry::paper().len() + extended.len());
        let mut names = all.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate study names");
        assert_eq!(all.get("scaleout").unwrap().name(), "scaleout_2048");
        assert!(all.get("fig10").is_some());
        assert!(all.get("fault_resilience").is_some());
        // The paper registry deliberately does NOT expose the scenarios.
        assert!(StudyRegistry::paper().get("fault_resilience").is_none());
    }

    #[test]
    fn grids_report_their_job_counts() {
        let registry = StudyRegistry::all();
        let quick = RunContext::new().quick(true);
        let full = RunContext::new();
        for study in registry.iter() {
            let grid = study.grid(&quick);
            assert!(grid.jobs() > 0, "{}", study.name());
            assert!(
                grid.jobs() <= study.grid(&full).jobs(),
                "{} quick grid must not exceed full",
                study.name()
            );
            // The streaming enumeration visits every point exactly once.
            let points: Vec<Vec<usize>> = grid.points().collect();
            assert_eq!(points.len(), grid.jobs());
            assert_eq!(points.first().unwrap(), &vec![0; grid.axes.len()]);
            let report = grid.lazy_sweep().run(&PoolConfig::serial(), |_, p| {
                Ok::<usize, std::convert::Infallible>(p.len())
            });
            assert_eq!(report.outcomes.len(), grid.jobs());
        }
    }

    #[test]
    fn row_taps_observe_rows_in_order_without_changing_artifacts() {
        let dir = std::env::temp_dir();
        let tapped = dir.join(format!("sf-study-tap-{}.csv", std::process::id()));
        let plain = dir.join(format!("sf-study-plain-{}.csv", std::process::id()));
        let rows: Vec<Vec<Value>> = (0..3u64)
            .map(|i| vec![Value::UInt(i), Value::Float(i as f64 * 0.5 + 0.1)])
            .collect();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let observer = Arc::clone(&seen);
        let ctx = RunContext::new()
            .with_csv(&tapped)
            .with_row_tap(RowTap::new(move |cells| {
                observer.lock().unwrap().push(cells.to_vec());
            }));
        let mut stream = ctx.open_row_stream(&["idx", "metric"]).unwrap();
        for row in &rows {
            stream.push(row).unwrap();
        }
        stream.finish().unwrap();
        let plain_ctx = RunContext::new().with_csv(&plain);
        let mut stream = plain_ctx.open_row_stream(&["idx", "metric"]).unwrap();
        for row in &rows {
            stream.push(row).unwrap();
        }
        stream.finish().unwrap();
        // The tap saw every row in push order, and the artifact bytes are
        // identical to an untapped run's.
        assert_eq!(*seen.lock().unwrap(), rows);
        assert_eq!(
            std::fs::read(&tapped).unwrap(),
            std::fs::read(&plain).unwrap()
        );
        let _ = std::fs::remove_file(&tapped);
        let _ = std::fs::remove_file(&plain);
    }

    #[test]
    fn run_jobs_checkpoints_and_resumes_bit_identically() {
        let path = temp_journal("resume");
        let _ = std::fs::remove_file(&path);
        let points: Vec<u64> = (0..12).collect();
        let job = |_: JobCtx, &n: &u64| Ok(n as f64 * 0.1 + 0.7);

        // Reference: uninterrupted, no checkpointing.
        let reference: Vec<f64> = RunContext::new()
            .with_pool(PoolConfig::serial())
            .run_jobs(points.clone(), job)
            .unwrap();

        // Interrupted run: fails after 5 jobs (serial pool → deterministic).
        let interrupted = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        interrupted.resume_checkpoint(99).unwrap();
        let done = AtomicUsize::new(0);
        let result: SfResult<Vec<f64>> = interrupted.run_jobs(points.clone(), |ctx, n| {
            if done.fetch_add(1, Ordering::SeqCst) >= 5 {
                return Err(SfError::Simulation {
                    reason: "killed".into(),
                });
            }
            job(ctx, n)
        });
        assert!(result.is_err());
        assert!(path.exists(), "journal must survive the failed run");

        // Resumed run: restores the first 5 jobs, computes the rest.
        let resumed_ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(resumed_ctx.resume_checkpoint(99).unwrap(), 5);
        let executed = AtomicUsize::new(0);
        let resumed: Vec<f64> = resumed_ctx
            .run_jobs(points.clone(), |ctx, n| {
                assert!(ctx.index >= 5, "restored job {} recomputed", ctx.index);
                executed.fetch_add(1, Ordering::SeqCst);
                job(ctx, n)
            })
            .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), points.len() - 5);
        assert_eq!(resumed, reference);
        resumed_ctx.journal().unwrap().finish().unwrap();
    }

    #[test]
    fn mismatched_fingerprint_starts_fresh() {
        let path = temp_journal("fingerprint");
        let _ = std::fs::remove_file(&path);
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        ctx.resume_checkpoint(1).unwrap();
        let _rows: Vec<f64> = ctx
            .run_jobs(vec![1u64, 2, 3], |_, &n| Ok(n as f64))
            .unwrap();

        let other = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(other.resume_checkpoint(2).unwrap(), 0);
        other.journal().unwrap().finish().unwrap();
    }

    #[test]
    fn sweep_sequences_keep_multi_sweep_studies_apart() {
        let path = temp_journal("multi-sweep");
        let _ = std::fs::remove_file(&path);
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        ctx.resume_checkpoint(7).unwrap();
        let a: Vec<f64> = ctx.run_jobs(vec![0u64, 1], |_, &n| Ok(n as f64)).unwrap();
        let b: Vec<f64> = ctx
            .run_jobs(vec![0u64, 1], |_, &n| Ok(n as f64 + 10.0))
            .unwrap();

        // A resumed context replays both sweeps from the journal without
        // running a single job.
        let resumed = RunContext::new()
            .with_pool(PoolConfig::serial())
            .with_checkpoint(&path);
        assert_eq!(resumed.resume_checkpoint(7).unwrap(), 4);
        let a2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_, _| {
                panic!("first sweep should be fully restored")
            })
            .unwrap();
        let b2: Vec<f64> = resumed
            .run_jobs(vec![0u64, 1], |_, _| {
                panic!("second sweep should be fully restored")
            })
            .unwrap();
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        resumed.journal().unwrap().finish().unwrap();
    }

    /// A row's CSV columns and values line up, and its journal codec
    /// decodes exactly what its `Record::values` produced.
    fn assert_record_row<R: RecordRow + PartialEq + Debug>(row: R) {
        assert_eq!(row.values().len(), R::columns().len(), "{row:?}");
        assert_eq!(R::from_cells(&row.values()).as_ref(), Some(&row));
        assert_eq!(R::from_cells(&row.to_cells()).as_ref(), Some(&row));
        assert!(R::from_cells(&[Value::Null]).is_none());
    }

    #[test]
    fn checkpoint_rows_round_trip_through_cells() {
        assert_record_row(HopCountRow {
            kind: TopologyKind::StringFigure,
            nodes: 128,
            average_shortest_path: 3.25,
            average_routed_hops: 0.1 + 0.2,
            router_ports: 8,
        });
        assert_record_row(SaturationRow {
            kind: TopologyKind::DistributedMesh,
            nodes: 64,
            pattern: SyntheticPattern::Tornado,
            saturation_percent: None,
        });
        assert_record_row(SaturationRow {
            kind: TopologyKind::StringFigure,
            nodes: 128,
            pattern: SyntheticPattern::HotspotStorm,
            saturation_percent: Some(20.0),
        });
        assert_record_row(LatencyPoint {
            injection_rate: 0.05,
            average_latency_cycles: 0.1 + 0.2,
            accepted_throughput: 0.049_75,
            saturated: false,
        });
        assert_record_row(WorkloadRow {
            kind: TopologyKind::AdaptedFlattenedButterfly,
            workload: ApplicationModel::Redis,
            requests_per_cycle: 1.0 / 3.0,
            average_round_trip_cycles: 41.5,
            energy_per_request_pj: 1.0e-7 + 2.0e-7,
            total_energy_pj: 9.87e12,
        });
        assert_record_row(PowerGateRow {
            gated_fraction: 0.3,
            gated_nodes: 19,
            energy_delay_product: 1.5e9,
            normalized_edp: 0.0,
            average_round_trip_cycles: 24.5,
        });
        assert_record_row(ConfigurationRow {
            kind: TopologyKind::FlattenedButterfly,
            nodes: 61,
            router_ports: 14,
            links: 427,
            requires_high_radix: true,
            supports_reconfiguration: false,
        });
        assert_record_row(FaultResilienceRow {
            kind: TopologyKind::StringFigure,
            nodes: 256,
            links_per_wave: 2,
            routers_per_wave: 1,
            link_down_events: 7,
            router_down_events: 3,
            injected: 12_345,
            completed_requests: 12_001,
            dropped_packets: 98,
            completion_ratio: 12_001.0 / 12_345.0,
            average_round_trip_cycles: 0.1 + 0.2,
        });
        assert_record_row(MegasweepRow {
            kind: TopologyKind::SpaceShuffle,
            nodes: 96,
            injection_rate: 0.315,
            seed: 149,
            average_latency_cycles: 0.1 + 0.2,
            accepted_throughput: 0.0425,
            saturated: true,
        });

        // The aggregate rows are emitted but never journalled: their CSV
        // columns and values still have to line up.
        let surg = SurgRow {
            nodes: 100,
            jellyfish: 2.9,
            s2: 3.1,
            string_figure: 3.0,
        };
        assert_eq!(surg.values().len(), SurgRow::columns().len());
        let bisection = BisectionRow {
            kind: TopologyKind::Jellyfish,
            nodes: 64,
            minimum: 50,
            average: 59.333,
        };
        assert_eq!(bisection.values().len(), BisectionRow::columns().len());
        let summary = MegasweepSummaryRow {
            kind: TopologyKind::StringFigure,
            points: 6,
            saturated_points: 1,
            mean_latency_cycles: 18.25,
            mean_throughput: 0.125,
        };
        assert_eq!(summary.values().len(), MegasweepSummaryRow::columns().len());

        // The job results that are not rows keep their own explicit codecs.
        let bb = BisectionBandwidth {
            minimum: 50,
            average: 59.333,
            samples: 10,
        };
        assert_eq!(BisectionBandwidth::from_cells(&bb.to_cells()).unwrap(), bb);
        assert!(BisectionBandwidth::from_cells(&[Value::Null]).is_none());
        let length = 0.1 + 0.2;
        assert_eq!(f64::from_cells(&length.to_cells()), Some(length));
        assert!(f64::from_cells(&[Value::Null]).is_none());
        assert!(f64::from_cells(&[Value::Float(1.0), Value::Float(2.0)]).is_none());
    }

    #[test]
    fn run_jobs_streaming_delivers_ordered_rows_without_collecting() {
        // The bounded-memory acceptance check at the study layer: a
        // 10^5+-point sweep runs through a sink that counts rows but never
        // stores them (no Vec<P> or Vec<R> of grid size anywhere).
        const POINTS: usize = 110_000;
        let ctx = RunContext::new().with_pool(PoolConfig::threads(4).with_chunk(64));
        let mut rows = 0usize;
        let mut last_index = None;
        let delivered = ctx
            .run_jobs_streaming(
                (0..POINTS).map(|i| i as u64),
                |_, &n| Ok(n as f64 * 0.5),
                |index, row| {
                    assert_eq!(
                        Some(index),
                        last_index.map_or(Some(0), |i: usize| Some(i + 1))
                    );
                    assert!((row - index as f64 * 0.5).abs() < 1e-12);
                    last_index = Some(index);
                    rows += 1;
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(delivered, POINTS);
        assert_eq!(rows, POINTS);
    }

    #[test]
    fn streaming_sink_errors_abort_the_run() {
        let ctx = RunContext::new().with_pool(PoolConfig::serial());
        let result = ctx.run_jobs_streaming(
            vec![1u64, 2, 3],
            |_, &n| Ok(n as f64),
            |index, _row| {
                if index == 1 {
                    Err(SfError::Simulation {
                        reason: "sink full".into(),
                    })
                } else {
                    Ok(())
                }
            },
        );
        match result {
            Err(SfError::Simulation { reason }) => assert_eq!(reason, "sink full"),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn megasweep_streams_rows_and_resumes_bit_identically() {
        let pid = std::process::id();
        let dir = std::env::temp_dir();
        let clean_csv = dir.join(format!("sf-megasweep-clean-{pid}.csv"));
        let resumed_csv = dir.join(format!("sf-megasweep-resumed-{pid}.csv"));
        let journal = dir.join(format!("sf-megasweep-{pid}.journal"));
        for p in [&clean_csv, &resumed_csv, &journal] {
            let _ = std::fs::remove_file(p);
        }
        let registry = StudyRegistry::extended();
        let study = registry.get("megasweep").unwrap();
        assert!(study.streams_rows());

        // Reference: uninterrupted streaming run.
        let clean_ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::serial())
            .with_csv(&clean_csv);
        let summary = execute(study, &clean_ctx).unwrap();
        // The returned table is the per-design summary, NOT the row stream:
        // the CSV has one line per sweep point (plus header).
        let clean = std::fs::read_to_string(&clean_csv).unwrap();
        assert_eq!(clean.lines().count(), study.grid(&clean_ctx).jobs() + 1);
        assert_eq!(summary.len(), 2, "one summary row per quick design");

        // Interrupted run with a tiny journal cap: dies mid-sweep, leaving a
        // (compacted) journal and no finished artifact.
        let first = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::serial())
            .with_csv(&resumed_csv)
            .with_checkpoint(&journal)
            .with_max_journal_bytes(160);
        first
            .resume_checkpoint(study_fingerprint(study, &first))
            .unwrap();
        let killed = AtomicUsize::new(0);
        let result = first.run_jobs_streaming(
            vec![0usize; study.grid(&first).jobs()],
            |jctx, _| {
                if killed.fetch_add(1, Ordering::SeqCst) >= 7 {
                    return Err(SfError::Simulation {
                        reason: "killed".into(),
                    });
                }
                // Mirror the megasweep job exactly so the journal entries
                // it leaves behind are valid for the real resumed run.
                let (kinds, sizes, rates, seeds, scale) = Megasweep::params(&first);
                let per_kind = sizes.len() * rates.len() * seeds as usize;
                let kind = kinds[jctx.index / per_kind];
                let rest = jctx.index % per_kind;
                let nodes = sizes[rest / (rates.len() * seeds as usize)];
                let rest = rest % (rates.len() * seeds as usize);
                let rate = rates[rest / seeds as usize];
                let seed = (rest % seeds as usize) as u64;
                let instance = first.instance(kind, nodes, seed + 1).unwrap();
                let stats = crate::experiments::run_pattern_on(
                    &instance,
                    SyntheticPattern::UniformRandom,
                    rate,
                    scale,
                    seed,
                )
                .unwrap();
                let measured = (scale.max_cycles - scale.warmup_cycles).max(1);
                Ok(MegasweepRow {
                    kind,
                    nodes,
                    injection_rate: rate,
                    seed,
                    average_latency_cycles: stats.average_latency_cycles(),
                    accepted_throughput: stats.accepted_throughput(measured),
                    saturated: stats.is_saturated(),
                })
            },
            |_, _| Ok(()),
        );
        assert!(result.is_err());
        assert!(journal.exists(), "journal must survive the killed run");
        assert!(
            first.journal().unwrap().compactions() >= 1,
            "the tiny cap must have forced a compaction mid-run"
        );
        assert!(
            !resumed_csv.exists(),
            "no artifact may appear before a run finishes"
        );

        // Resume through the real execute path: restores the journalled
        // jobs (from a compacted snapshot), computes the rest, and the CSV
        // bytes must equal the uninterrupted run's.
        let resumed_ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::threads(3).with_chunk(2))
            .with_csv(&resumed_csv)
            .with_checkpoint(&journal)
            .with_max_journal_bytes(160);
        let resumed_summary = execute(study, &resumed_ctx).unwrap();
        assert_eq!(resumed_summary, summary);
        assert_eq!(std::fs::read_to_string(&resumed_csv).unwrap(), clean);
        assert!(!journal.exists(), "journal must be removed after success");
        for p in [&clean_csv, &resumed_csv] {
            std::fs::remove_file(p).unwrap();
        }
    }

    #[test]
    fn partitioned_megasweep_shards_merge_to_the_serial_bytes() {
        let pid = std::process::id();
        let dir = std::env::temp_dir();
        let serial_csv = dir.join(format!("sf-partition-serial-{pid}.csv"));
        let base_csv = dir.join(format!("sf-partition-out-{pid}.csv"));
        let merged_csv = dir.join(format!("sf-partition-merged-{pid}.csv"));
        let _ = std::fs::remove_file(&serial_csv);
        let registry = StudyRegistry::extended();
        let study = registry.get("megasweep").unwrap();
        let serial_ctx = RunContext::new()
            .quick(true)
            .with_pool(PoolConfig::serial())
            .with_csv(&serial_csv);
        execute(study, &serial_ctx).unwrap();
        let serial_fp = study_fingerprint(study, &serial_ctx);

        let mut shards = Vec::new();
        for index in 1..=3u32 {
            let p = Partition::new(index, 3).unwrap();
            let shard = fabric::shard_path(&base_csv, p);
            let _ = std::fs::remove_file(&shard);
            // Mixed pools on purpose: partition output must not depend on
            // worker count any more than serial output does.
            let ctx = RunContext::new()
                .quick(true)
                .with_pool(if index == 2 {
                    PoolConfig::threads(3).with_chunk(2)
                } else {
                    PoolConfig::serial()
                })
                .with_csv(&shard)
                .with_partition(p);
            // A partition journal is keyed to its own coordinate, never the
            // serial run's (or a sibling partition's).
            assert_ne!(study_fingerprint(study, &ctx), serial_fp);
            assert_eq!(study_fingerprint_serial(study, &ctx), serial_fp);
            execute(study, &ctx).unwrap();
            let meta = ShardMeta::read_for(&shard).unwrap();
            assert_eq!(meta.fingerprint, serial_fp);
            assert_eq!(meta.total, study.grid(&ctx).jobs());
            assert_eq!(meta.range, fabric::partition_range(meta.total, p));
            shards.push((shard, meta));
        }
        let plan = fabric::plan_merge(&shards).unwrap();
        assert!(plan.missing.is_empty());
        let rows = fabric::merge_csv(&shards, &merged_csv).unwrap();
        assert_eq!(rows, plan.total);
        assert_eq!(
            std::fs::read(&merged_csv).unwrap(),
            std::fs::read(&serial_csv).unwrap(),
            "3-partition merge must be byte-identical to the serial run"
        );
        for (shard, _) in &shards {
            std::fs::remove_file(shard).unwrap();
            std::fs::remove_file(ShardMeta::path_for(shard)).unwrap();
        }
        std::fs::remove_file(&serial_csv).unwrap();
        std::fs::remove_file(&merged_csv).unwrap();
    }

    #[test]
    fn fingerprint_separates_studies_and_scales() {
        let registry = StudyRegistry::paper();
        let fig05 = registry.get("fig05").unwrap();
        let fig10 = registry.get("fig10").unwrap();
        let quick = RunContext::new().quick(true);
        let full = RunContext::new();
        assert_ne!(
            study_fingerprint(fig05, &quick),
            study_fingerprint(fig10, &quick)
        );
        assert_ne!(
            study_fingerprint(fig05, &quick),
            study_fingerprint(fig05, &full)
        );
    }

    #[test]
    fn execute_emits_and_removes_the_journal() {
        let dir = std::env::temp_dir();
        let csv = dir.join(format!("sf-study-exec-{}.csv", std::process::id()));
        let journal = dir.join(format!("sf-study-exec-{}.csv.journal", std::process::id()));
        let _ = std::fs::remove_file(&csv);
        let _ = std::fs::remove_file(&journal);
        let registry = StudyRegistry::paper();
        let study = registry.get("fig08").unwrap();
        let ctx = RunContext::new()
            .with_pool(PoolConfig::serial())
            .quick(true)
            .with_csv(&csv)
            .with_checkpoint(&journal);
        let table = execute(study, &ctx).unwrap();
        assert_eq!(table.len(), 3 * TopologyKind::ALL.len());
        let written = std::fs::read_to_string(&csv).unwrap();
        assert_eq!(written, table.to_csv());
        assert!(!journal.exists(), "journal must be removed after success");
        std::fs::remove_file(&csv).unwrap();
    }

    #[test]
    fn render_helpers_format_cells() {
        assert_eq!(fmt_f(1.23456), "1.235");
        assert_eq!(fmt_percent(Some(62.0)), "62%");
        assert_eq!(fmt_percent(None), "saturated");
        assert_eq!(render_cell(&Value::Float(2.0)), "2.000");
        assert_eq!(render_cell(&Value::Null), "-");
        assert_eq!(render_cell(&Value::Str("SF".into())), "SF");
        print_result_table(&Table::with_columns(&["a"]));
    }
}
