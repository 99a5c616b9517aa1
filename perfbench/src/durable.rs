//! Checkpoint → restore → checkpoint cycles, shared by every workload.
//!
//! A cycle writes a snapshot, restores it into the live system, writes a
//! second snapshot and compares the two files byte for byte. Cycles run
//! between ticks, outside every tick timer.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use capes_telemetry::global;

use crate::checks;

/// The histogram `capes-persist`'s fsync observer hook feeds: installed by
/// the fleet daemon's builder, and by [`observe_fsyncs`] for a standalone
/// system.
const FSYNC: &str = "persist.checkpoint.fsync";

/// Routes snapshot fsync timings into [`FSYNC`] for processes that build
/// no fleet (the fleet builder installs the same observer itself).
pub fn observe_fsyncs() {
    fn record(nanos: u64) {
        global().histogram(FSYNC).record(nanos);
    }
    capes_persist::set_fsync_observer(record);
}

/// A system that can snapshot itself to a file and restore from one.
pub trait Durable {
    fn checkpoint(&mut self, path: &Path) -> Result<(), String>;
    fn restore(&mut self, path: &Path) -> Result<(), String>;
}

/// The per-run scratch directory, inside the working directory (the
/// checkout the benchmark runs from); removed when dropped.
pub struct Files {
    dir: PathBuf,
    written: Cell<u64>,
}

impl Files {
    pub fn new() -> Files {
        let dir = PathBuf::from(format!(".perfbench_tmp/run-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("the run directory can be created");
        Files {
            dir,
            written: Cell::new(0),
        }
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A path no earlier call returned: a snapshot never replaces a file
    /// whose blocks the filesystem may still be writing back.
    pub fn fresh(&self, stem: &str) -> PathBuf {
        let n = self.written.get();
        self.written.set(n + 1);
        self.dir.join(format!("{stem}-{n}.snap"))
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        // The parent goes too unless another run still uses it.
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Timings and outcomes of every cycle of a run.
#[derive(Default)]
pub struct Cycles {
    /// Checkpoint wall times minus their fsync waits.
    pub checkpoint_ms: Vec<f64>,
    pub fsync_ms: Vec<f64>,
    pub restore_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    pub checkpoints_attempted: u64,
    pub checkpoints_failed: u64,
    pub restores_attempted: u64,
    pub restores_failed: u64,
    pub first_problem: Option<String>,
}

impl Cycles {
    /// One checkpoint → restore → checkpoint cycle at `tick`, each
    /// snapshot in a file of its own.
    pub fn run(&mut self, system: &mut impl Durable, files: &Files, tick: u64) {
        let first = files.fresh("state");
        let second = files.fresh("state");
        if let Err(e) = self.timed_checkpoint(system, &first) {
            self.problem(format!("checkpoint at tick {tick} failed: {e}"));
            return;
        }
        self.restores_attempted += 1;
        let started = Instant::now();
        if let Err(e) = system.restore(&first) {
            self.restores_failed += 1;
            self.problem(format!("restore at tick {tick} failed: {e}"));
            return;
        }
        self.restore_ms.push(started.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = self.timed_checkpoint(system, &second) {
            self.problem(format!(
                "checkpoint after restore at tick {tick} failed: {e}"
            ));
            return;
        }
        let compared = std::fs::read(&first)
            .and_then(|a| Ok((a, std::fs::read(&second)?)))
            .map_err(|e| e.to_string())
            .and_then(|(a, b)| {
                self.snapshot_bytes = a.len() as u64;
                checks::same_bytes(&a, &b)
            });
        if let Err(e) = compared {
            self.problem(format!("tick {tick}: {e}"));
        }
    }

    /// One checkpoint; its time is recorded without the fsync wait, which
    /// the `persist.checkpoint.fsync` histogram measures on its own.
    fn timed_checkpoint(&mut self, system: &mut impl Durable, path: &Path) -> Result<(), String> {
        self.checkpoints_attempted += 1;
        let fsync = global().histogram(FSYNC);
        let fsync_before = fsync.sum();
        let started = Instant::now();
        let result = system.checkpoint(path);
        let elapsed = started.elapsed().as_secs_f64() * 1e3;
        let fsync_ms = (fsync.sum() - fsync_before) as f64 / 1e6;
        match result {
            Ok(()) => {
                self.checkpoint_ms.push(elapsed - fsync_ms);
                self.fsync_ms.push(fsync_ms);
                Ok(())
            }
            Err(e) => {
                self.checkpoints_failed += 1;
                Err(e)
            }
        }
    }

    fn problem(&mut self, what: String) {
        self.first_problem.get_or_insert(what);
    }

    /// The byte-identity check over every cycle.
    pub fn outcome(&self) -> checks::Outcome {
        match &self.first_problem {
            Some(problem) => Err(problem.clone()),
            None if self.restore_ms.is_empty() => Err("no cycle ran".into()),
            None => Ok(format!(
                "{} cycles, snapshots of {} bytes",
                self.restore_ms.len(),
                self.snapshot_bytes
            )),
        }
    }
}
