//! Per-window deltas of the program's own telemetry.
//!
//! The registry is process-global and cumulative, so a layer's cost over a
//! timed window is read as the difference of two snapshots of a histogram:
//! Δ(count × mean) ÷ Δcount.

use capes_telemetry::{global, TelemetrySnapshot};

/// A registry snapshot taken at the start of a window.
pub struct Window {
    start: TelemetrySnapshot,
}

/// What one histogram recorded inside a window.
#[derive(Clone, Copy, Debug)]
pub struct HistDelta {
    pub count: u64,
    pub sum_ns: f64,
}

impl HistDelta {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns / self.count as f64
        }
    }
}

impl Window {
    pub fn open() -> Self {
        Window {
            start: global().snapshot(),
        }
    }

    pub fn close(self) -> Closed {
        Closed {
            start: self.start,
            end: global().snapshot(),
        }
    }
}

/// A window with both snapshots taken.
pub struct Closed {
    start: TelemetrySnapshot,
    end: TelemetrySnapshot,
}

impl Closed {
    /// What histogram `name` recorded in the window; `None` when it recorded
    /// nothing or the registry has never interned it (the layer did not run).
    pub fn hist(&self, name: &str) -> Option<HistDelta> {
        let end = self.end.histogram(name)?;
        let (count0, sum0) = self
            .start
            .histogram(name)
            .map_or((0, 0.0), |h| (h.count, h.count as f64 * h.mean_ns));
        let count = end.count - count0;
        (count > 0).then_some(HistDelta {
            count,
            sum_ns: end.count as f64 * end.mean_ns - sum0,
        })
    }

    /// Sum of the deltas of every histogram whose name starts with `prefix`
    /// (the per-SIMD-level `gemm.kernel.<level>` family).
    pub fn hist_family(&self, prefix: &str) -> Option<HistDelta> {
        let mut total: Option<HistDelta> = None;
        for h in &self.end.histograms {
            if h.name.starts_with(prefix) {
                if let Some(d) = self.hist(&h.name) {
                    let t = total.get_or_insert(HistDelta {
                        count: 0,
                        sum_ns: 0.0,
                    });
                    t.count += d.count;
                    t.sum_ns += d.sum_ns;
                }
            }
        }
        total
    }
}
