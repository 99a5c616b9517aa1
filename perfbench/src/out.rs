//! One run's results: metrics, operation counts, correctness checks and
//! the human-readable lines printed before the final JSON line.

use std::fmt::Write as _;

/// A measured metric: value, unit and the number of samples behind it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
    /// `false` for a catalogue metric the run did not measure: its layer
    /// does not run in this workload, or its program histogram never
    /// recorded. It prints as `absent` and as 0 in the JSON line.
    pub present: bool,
}

/// Attempted and failed counts of one kind of operation.
pub struct OpCount {
    pub kind: &'static str,
    pub attempted: u64,
    pub failed: u64,
}

/// One correctness check and its outcome.
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
    /// `false` for a check printed for information only (a learning check
    /// on a `--short` schedule, too short for the tuner to learn).
    pub counted: bool,
}

/// Everything one benchmark run reports.
#[derive(Default)]
pub struct Report {
    pub info: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub ops: Vec<OpCount>,
    pub checks: Vec<Check>,
}

impl Report {
    pub fn info(&mut self, line: impl Into<String>) {
        self.info.push(line.into());
    }

    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
            present: true,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.per_layer.push(Metric {
            name,
            value,
            unit,
            samples,
            present: true,
        });
    }

    pub fn ops(&mut self, kind: &'static str, attempted: u64, failed: u64) {
        self.ops.push(OpCount {
            kind,
            attempted,
            failed,
        });
    }

    pub fn check(&mut self, name: impl Into<String>, result: Result<String, String>) {
        self.push_check(name.into(), result, true);
    }

    /// A check that depends on learning: counted unless the schedule is
    /// `--short`.
    pub fn learning_check(&mut self, short: bool, name: &str, result: Result<String, String>) {
        self.push_check(name.into(), result, !short);
    }

    fn push_check(&mut self, name: String, result: Result<String, String>, counted: bool) {
        let (passed, detail) = match result {
            Ok(detail) => (true, detail),
            Err(detail) => (false, detail),
        };
        self.checks.push(Check {
            name,
            passed,
            detail,
            counted,
        });
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.passed || !c.counted)
    }

    /// Prints the readable lines, then the result JSON as the last line:
    /// every end-to-end metric (`trace` off) or every per-layer metric
    /// (`trace` on), in catalogue order.
    pub fn print(&mut self, trace: bool) {
        for (catalogue, metrics) in [
            (&crate::END_TO_END[..], &mut self.end_to_end),
            (&crate::PER_LAYER[..], &mut self.per_layer),
        ] {
            for &(name, unit) in catalogue {
                if !metrics.iter().any(|m| m.name == name) {
                    metrics.push(Metric {
                        name,
                        value: 0.0,
                        unit,
                        samples: 0,
                        present: false,
                    });
                }
            }
            metrics.sort_by_key(|m| catalogue.iter().position(|&(n, _)| n == m.name));
        }
        if let Some(m) = self.end_to_end.iter().find(|m| !m.present) {
            let name = m.name;
            self.check(
                "every end-to-end metric measured",
                Err(format!("{name} missing")),
            );
        }
        let mut text = String::new();
        for line in &self.info {
            let _ = writeln!(text, "# {line}");
        }
        for op in &self.ops {
            let _ = writeln!(
                text,
                "# ops   {:<22} attempted {:>10}  failed {}",
                op.kind, op.attempted, op.failed
            );
        }
        for check in &self.checks {
            let verdict = match (check.passed, check.counted) {
                (true, _) => "ok  ",
                (false, true) => "FAIL",
                (false, false) => "info",
            };
            let _ = writeln!(text, "# check {verdict} {}: {}", check.name, check.detail);
        }
        for (label, metrics) in [("e2e  ", &self.end_to_end), ("layer", &self.per_layer)] {
            for m in metrics {
                if m.present {
                    let _ = writeln!(
                        text,
                        "# {label} {:<28} {:>16.6} {:<6} n={}",
                        m.name, m.value, m.unit, m.samples
                    );
                } else {
                    let _ = writeln!(
                        text,
                        "# {label} {:<28} {:>16} {:<6} absent",
                        m.name, 0, m.unit
                    );
                }
            }
        }
        let attempted: u64 = self.ops.iter().map(|o| o.attempted).sum();
        let failed: u64 = self.ops.iter().map(|o| o.failed).sum();
        let metrics = if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let fields: Vec<String> = metrics
            .iter()
            .map(|m| {
                // Non-finite values fail the finiteness check; JSON gets 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        print!("{text}");
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            self.correct(),
            attempted.max(1),
            fields.join(", ")
        );
    }
}
