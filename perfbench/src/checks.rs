//! Correctness checks. Each is a pure function over what a run produced,
//! so `--selftest` can feed it a deliberately corrupted result and show
//! that it fails.

use capes::TunableSpec;
use capes_stats::analysis::{analyze, AnalysisConfig};

use crate::single::{ParamAudit, TickRecord};

pub type Outcome = Result<String, String>;

/// Tuned mean throughput above baseline, with non-overlapping 95%
/// confidence intervals from the paper's analysis pipeline.
pub fn beats_baseline(baseline: &[f64], tuned: &[f64]) -> Outcome {
    let config = AnalysisConfig::default();
    let b = analyze(baseline, &config).interval;
    let t = analyze(tuned, &config).interval;
    let detail = format!(
        "baseline {:.1} ± {:.1} MB/s, tuned {:.1} ± {:.1} MB/s",
        b.mean, b.half_width, t.mean, t.half_width
    );
    if t.mean > b.mean && t.significantly_different_from(&b) {
        Ok(detail)
    } else {
        Err(detail)
    }
}

pub fn all_finite(values: impl IntoIterator<Item = f64>) -> Outcome {
    let mut n = 0u64;
    for v in values {
        if !v.is_finite() {
            return Err(format!("value {n} is {v}"));
        }
        n += 1;
    }
    if n == 0 {
        return Err("no values".into());
    }
    Ok(format!("{n} values"))
}

pub fn params_in_range(values: &[f64], specs: &[TunableSpec]) -> Outcome {
    if values.len() != specs.len() {
        return Err(format!(
            "{} values for {} parameters",
            values.len(),
            specs.len()
        ));
    }
    for (v, s) in values.iter().zip(specs) {
        if !(s.min..=s.max).contains(v) {
            return Err(format!("{} = {v} outside [{}, {}]", s.name, s.min, s.max));
        }
    }
    Ok(format!("{} parameters", values.len()))
}

pub fn audit_clean(audit: &ParamAudit) -> Outcome {
    if audit.applied == 0 {
        return Err("no parameter vector was applied".into());
    }
    if audit.out_of_range > 0 {
        return Err(format!(
            "{} of {} applied vectors out of range, first {:?}",
            audit.out_of_range, audit.applied, audit.first_violation
        ));
    }
    Ok(format!("{} applied vectors", audit.applied))
}

pub fn equal_counts(what: &str, got: u64, expected: u64) -> Outcome {
    if got == expected {
        Ok(format!("{what} = {got}"))
    } else {
        Err(format!("{what} = {got}, expected {expected}"))
    }
}

pub fn same_floats(a: &[f64], b: &[f64]) -> Outcome {
    if a.len() != b.len() {
        return Err(format!("lengths {} and {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.to_bits() != y.to_bits())
    {
        Some(i) => Err(format!("first difference at {i}: {} vs {}", a[i], b[i])),
        None => Ok(format!("{} values bit-identical", a.len())),
    }
}

pub fn same_series(a: &[TickRecord], b: &[TickRecord]) -> Outcome {
    if a.len() != b.len() {
        return Err(format!("lengths {} and {}", a.len(), b.len()));
    }
    match a
        .iter()
        .zip(b)
        .position(|(x, y)| x.throughput.to_bits() != y.throughput.to_bits() || x.action != y.action)
    {
        Some(i) => Err(format!(
            "first difference at tick {i}: {:?} vs {:?}",
            a[i], b[i]
        )),
        None => Ok(format!(
            "{} ticks identical (throughput and action)",
            a.len()
        )),
    }
}

pub fn zero(what: &str, value: u64) -> Outcome {
    if value == 0 {
        Ok(format!("{what} = 0"))
    } else {
        Err(format!("{what} = {value}"))
    }
}

pub fn same_bytes(a: &[u8], b: &[u8]) -> Outcome {
    if a.len() != b.len() {
        return Err(format!("sizes {} and {} bytes", a.len(), b.len()));
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => Err(format!("first differing byte at offset {i}")),
        None => Ok(format!("{} bytes identical", a.len())),
    }
}

/// The recorder's appended count, `stop_recording`'s count and the
/// replayed message count all agree (and are not zero).
pub fn record_counts(
    appended: u64,
    stopped: Result<u64, String>,
    replayed: Result<u64, String>,
) -> Outcome {
    match (&stopped, &replayed) {
        (Ok(s), Ok(r)) if *s == appended && *r == appended && appended > 0 => {
            Ok(format!("{appended} records"))
        }
        (s, r) => Err(format!(
            "appended {appended}, stop_recording {s:?}, replayed {r:?}"
        )),
    }
}
