//! Streaming row emitters: incremental CSV / JSON artifact writers.
//!
//! A [`RowSink`] is the bounded-memory counterpart of
//! [`Table::to_csv`](crate::table::Table::to_csv) /
//! [`Table::to_json`](crate::table::Table::to_json): rows are written as they
//! arrive instead of being collected into a [`Table`](crate::table::Table)
//! first, so a million-row mega-sweep emits its artifact in `O(1)` memory.
//! The byte stream is **identical** to serialising the equivalent table in
//! one shot — both paths share the same cell renderers — which is what keeps
//! golden-artifact comparisons valid across the eager and streaming
//! pipelines.
//!
//! Rows go to a temporary sibling file (`<path>.part`) and the sink renames
//! it over the destination on [`finish`](RowSink::finish), so the final path
//! only ever holds complete artifacts — a run killed mid-stream leaves the
//! previous artifact (or nothing) in place, never a torn one.

use crate::table::{csv_cell, csv_escape, json_value, Value};
use sf_obs::json::json_string;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// The serialisation a [`RowSink`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkFormat {
    Csv,
    Json,
}

/// An incremental writer of one CSV or JSON artifact.
#[derive(Debug)]
pub struct RowSink {
    path: PathBuf,
    part: PathBuf,
    writer: BufWriter<File>,
    format: SinkFormat,
    columns: Vec<String>,
    rows: usize,
    finished: bool,
}

impl RowSink {
    /// Opens a CSV sink at `path` and writes the header row immediately.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the temporary file.
    pub fn csv<S: AsRef<str>>(path: impl Into<PathBuf>, columns: &[S]) -> io::Result<Self> {
        let mut sink = Self::open(path.into(), columns, SinkFormat::Csv)?;
        let header: Vec<String> = sink.columns.iter().map(|c| csv_escape(c)).collect();
        sink.writer.write_all(header.join(",").as_bytes())?;
        sink.writer.write_all(b"\n")?;
        Ok(sink)
    }

    /// Opens a JSON sink at `path` and writes the opening bracket.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from creating the temporary file.
    pub fn json<S: AsRef<str>>(path: impl Into<PathBuf>, columns: &[S]) -> io::Result<Self> {
        let mut sink = Self::open(path.into(), columns, SinkFormat::Json)?;
        sink.writer.write_all(b"[")?;
        Ok(sink)
    }

    fn open<S: AsRef<str>>(path: PathBuf, columns: &[S], format: SinkFormat) -> io::Result<Self> {
        let mut part = path.clone().into_os_string();
        part.push(".part");
        let part = PathBuf::from(part);
        let writer = BufWriter::new(File::create(&part)?);
        Ok(Self {
            path,
            part,
            writer,
            format,
            columns: columns.iter().map(|c| c.as_ref().to_string()).collect(),
            rows: 0,
            finished: false,
        })
    }

    /// The destination the finished artifact will land at.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written so far.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends one row; the cell count must match the sink's columns.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from the write.
    pub fn push(&mut self, cells: &[Value]) -> io::Result<()> {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width {} != column count {}",
            cells.len(),
            self.columns.len()
        );
        match self.format {
            SinkFormat::Csv => {
                let rendered: Vec<String> = cells.iter().map(csv_cell).collect();
                self.writer.write_all(rendered.join(",").as_bytes())?;
                self.writer.write_all(b"\n")?;
            }
            SinkFormat::Json => {
                if self.rows > 0 {
                    self.writer.write_all(b",")?;
                }
                self.writer.write_all(b"\n  {")?;
                for (i, (column, value)) in self.columns.iter().zip(cells).enumerate() {
                    if i > 0 {
                        self.writer.write_all(b", ")?;
                    }
                    self.writer.write_all(json_string(column).as_bytes())?;
                    self.writer.write_all(b": ")?;
                    self.writer.write_all(json_value(value).as_bytes())?;
                }
                self.writer.write_all(b"}")?;
            }
        }
        self.rows += 1;
        Ok(())
    }

    /// Finalises the artifact (closing bracket for JSON), flushes, and
    /// atomically renames the temporary file over the destination.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the destination is untouched.
    pub fn finish(mut self) -> io::Result<()> {
        let flush_timer = sf_obs::span::timing_start();
        if self.format == SinkFormat::Json {
            if self.rows > 0 {
                self.writer.write_all(b"\n")?;
            }
            self.writer.write_all(b"]\n")?;
        }
        self.writer.flush()?;
        let bytes = self.writer.get_ref().metadata().map_or(0, |m| m.len());
        // Only a successful rename counts as finished; a failure here must
        // still have Drop remove the orphaned .part file.
        std::fs::rename(&self.part, &self.path)?;
        self.finished = true;
        sf_obs::span::timing_add("sink_flush", flush_timer, 1);
        let metrics = sf_obs::metrics::global();
        metrics.counter_add("sink.rows", self.rows as u64);
        metrics.counter_add("sink.bytes", bytes);
        metrics.counter_add("sink.artifacts", 1);
        Ok(())
    }
}

impl Drop for RowSink {
    fn drop(&mut self) {
        // An abandoned sink (error path) must not leave a stray .part file.
        if !self.finished {
            let _ = std::fs::remove_file(&self.part);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{Record, Table};

    struct Row {
        name: String,
        nodes: usize,
        latency: f64,
        point: Option<f64>,
    }

    impl Record for Row {
        fn columns() -> Vec<&'static str> {
            vec!["name", "nodes", "latency", "point"]
        }
        fn values(&self) -> Vec<Value> {
            vec![
                self.name.clone().into(),
                self.nodes.into(),
                self.latency.into(),
                self.point.into(),
            ]
        }
    }

    fn rows() -> Vec<Row> {
        vec![
            Row {
                name: "SF, \"quoted\"".into(),
                nodes: 64,
                latency: 3.25,
                point: Some(62.5),
            },
            Row {
                name: "17".into(), // ambiguous string: must stay quoted
                nodes: 1296,
                latency: 11.0,
                point: None,
            },
        ]
    }

    fn temp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sf-sink-test-{}-{name}", std::process::id()))
    }

    #[test]
    fn streamed_csv_and_json_match_the_eager_table_bytes() {
        let table = Table::from_records(&rows());
        for (ext, eager) in [("csv", table.to_csv()), ("json", table.to_json())] {
            let path = temp(ext);
            let mut sink = if ext == "csv" {
                RowSink::csv(&path, &table.columns).unwrap()
            } else {
                RowSink::json(&path, &table.columns).unwrap()
            };
            for row in &table.rows {
                sink.push(row).unwrap();
            }
            assert_eq!(sink.rows(), table.len());
            sink.finish().unwrap();
            assert_eq!(std::fs::read_to_string(&path).unwrap(), eager, "{ext}");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn empty_sinks_match_empty_tables() {
        let table = Table::with_columns(&["a", "b"]);
        let csv_path = temp("empty-csv");
        RowSink::csv(&csv_path, &table.columns)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(std::fs::read_to_string(&csv_path).unwrap(), table.to_csv());
        std::fs::remove_file(&csv_path).unwrap();

        let json_path = temp("empty-json");
        RowSink::json(&json_path, &table.columns)
            .unwrap()
            .finish()
            .unwrap();
        assert_eq!(
            std::fs::read_to_string(&json_path).unwrap(),
            table.to_json()
        );
        std::fs::remove_file(&json_path).unwrap();
    }

    #[test]
    fn unfinished_sink_leaves_no_partial_artifact() {
        let path = temp("abandoned");
        let part = PathBuf::from(format!("{}.part", path.display()));
        {
            let mut sink = RowSink::csv(&path, &["a"]).unwrap();
            sink.push(&[Value::UInt(1)]).unwrap();
            assert!(part.exists());
            // Dropped without finish(): simulates an error-path abort.
        }
        assert!(!part.exists(), "abandoned .part must be cleaned up");
        assert!(!path.exists(), "destination must not appear without finish");
    }
}
