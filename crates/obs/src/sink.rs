//! Metric sinks: where registry [`Snapshot`]s go.

use crate::{registry, Json, Snapshot};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// A destination for metric snapshots, labelled by a step/tick number.
pub trait MetricsSink {
    /// Delivers one snapshot.
    ///
    /// # Errors
    /// Returns any I/O error of the underlying destination.
    fn emit(&mut self, step: u64, snapshot: &Snapshot) -> io::Result<()>;
}

/// Appends snapshots to a file as JSONL: one object per line with the
/// `step` and the snapshot's JSON as `metrics`, flushed per emit so a
/// killed run keeps every line written so far.
#[derive(Debug)]
pub struct JsonlFileSink {
    out: BufWriter<File>,
}

impl JsonlFileSink {
    /// Creates (truncates) `path`.
    ///
    /// # Errors
    /// Returns any file-creation error.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlFileSink {
            out: BufWriter::new(File::create(path)?),
        })
    }
}

impl MetricsSink for JsonlFileSink {
    fn emit(&mut self, step: u64, snapshot: &Snapshot) -> io::Result<()> {
        let line = Json::object([("step", step.into()), ("metrics", snapshot.to_json())]);
        writeln!(self.out, "{line}")?;
        self.out.flush()
    }
}

/// Keeps snapshots in memory (tests, programmatic inspection).
#[derive(Debug, Default)]
pub struct MemorySink {
    /// Every `(step, snapshot)` emitted, in order.
    pub snapshots: Vec<(u64, Snapshot)>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl MetricsSink for MemorySink {
    fn emit(&mut self, step: u64, snapshot: &Snapshot) -> io::Result<()> {
        self.snapshots.push((step, snapshot.clone()));
        Ok(())
    }
}

/// Periodically snapshots the global registry into a sink: call
/// [`PeriodicSnapshotter::tick`] once per unit of work (e.g. per training
/// iteration) and every `every`-th tick emits a snapshot labelled with the
/// tick count.
#[derive(Debug)]
pub struct PeriodicSnapshotter<S: MetricsSink> {
    every: u64,
    ticks: u64,
    sink: S,
}

impl<S: MetricsSink> PeriodicSnapshotter<S> {
    /// Emits every `every` ticks.
    ///
    /// # Panics
    /// Panics if `every == 0`.
    pub fn new(every: u64, sink: S) -> Self {
        assert!(every > 0, "snapshot period must be positive");
        PeriodicSnapshotter {
            every,
            ticks: 0,
            sink,
        }
    }

    /// Counts one unit of work; returns whether a snapshot was emitted.
    ///
    /// # Errors
    /// Returns the sink's I/O error.
    pub fn tick(&mut self) -> io::Result<bool> {
        self.ticks += 1;
        if self.ticks.is_multiple_of(self.every) {
            self.sink.emit(self.ticks, &registry().snapshot())?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Emits a final snapshot (unless the last tick just did) and returns
    /// the sink.
    ///
    /// # Errors
    /// Returns the sink's I/O error.
    pub fn finish(mut self) -> io::Result<S> {
        if !self.ticks.is_multiple_of(self.every) || self.ticks == 0 {
            self.sink.emit(self.ticks, &registry().snapshot())?;
        }
        Ok(self.sink)
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_records_every_emit() {
        let mut sink = MemorySink::new();
        let snap = Snapshot::default();
        sink.emit(1, &snap).unwrap();
        sink.emit(2, &snap).unwrap();
        assert_eq!(sink.snapshots.len(), 2);
        assert_eq!(sink.snapshots[1].0, 2);
    }

    #[test]
    fn periodic_snapshotter_cadence_and_finish() {
        let mut snap = PeriodicSnapshotter::new(3, MemorySink::new());
        let mut emitted = 0;
        for _ in 0..7 {
            if snap.tick().unwrap() {
                emitted += 1;
            }
        }
        assert_eq!(emitted, 2); // ticks 3 and 6
        assert_eq!(snap.sink().snapshots.len(), 2);
        let sink = snap.finish().unwrap(); // tick 7 not yet emitted
        assert_eq!(sink.snapshots.len(), 3);
        assert_eq!(sink.snapshots.last().unwrap().0, 7);
    }

    #[test]
    fn jsonl_file_sink_writes_parseable_lines() {
        let dir = std::env::temp_dir().join("yollo_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("metrics_sink.jsonl");
        let mut sink = JsonlFileSink::create(&path).unwrap();
        let snap = Snapshot {
            counters: vec![("a.calls".to_owned(), 4)],
            gauges: vec![],
            histograms: vec![],
        };
        sink.emit(10, &snap).unwrap();
        sink.emit(20, &snap).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for (line, step) in lines.iter().zip([10, 20]) {
            let v = crate::Json::parse(line).expect("valid JSONL line");
            assert_eq!(v["step"].as_u64(), Some(step));
            assert_eq!(v["metrics"]["counters"]["a.calls"].as_u64(), Some(4));
        }
        std::fs::remove_file(path).ok();
    }
}
