//! Small order statistics over timing samples.

use std::time::Duration;

/// Median of `values` (the mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// 99th percentile of `values`.
pub fn p99(values: &[f64]) -> f64 {
    quantile(values, 0.99)
}

/// Linear-interpolated quantile `q` of `values`; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Durations of consecutive closed-loop ticks.
#[derive(Default)]
pub struct Durations(Vec<Duration>);

impl Durations {
    pub fn with_capacity(n: usize) -> Self {
        Durations(Vec::with_capacity(n))
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(d);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn total(&self) -> Duration {
        self.0.iter().sum()
    }

    pub fn ms(&self) -> Vec<f64> {
        self.0.iter().map(|d| d.as_secs_f64() * 1e3).collect()
    }

    pub fn median_ms(&self) -> f64 {
        median(&self.ms())
    }

    /// Cluster-ticks per second over these ticks, `clusters` per tick.
    pub fn rate(&self, clusters: usize) -> f64 {
        let secs = self.total().as_secs_f64();
        if secs > 0.0 {
            (self.len() * clusters) as f64 / secs
        } else {
            0.0
        }
    }

    /// Total time of the first `n` ticks.
    pub fn first(&self, n: usize) -> Duration {
        self.0[..n.min(self.0.len())].iter().sum()
    }

    /// Median tick (ms) of the first `n` ticks and of the rest.
    pub fn split_medians_ms(&self, n: usize) -> (f64, f64) {
        let ms = self.ms();
        let n = n.min(ms.len());
        (median(&ms[..n]), median(&ms[n..]))
    }
}
