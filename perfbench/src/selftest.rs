//! `--selftest`: every correctness check, once on a good result (it must
//! pass) and once on a deliberately corrupted copy (it must fail).

use std::path::Path;

use capes::{Hyperparameters, PhaseKind, TargetSystem, Transport, TunableSpec};
use capes_fleet::{Fleet, FleetDaemon, ScenarioSpec};

use crate::checks::{self, Outcome};
use crate::durable::{Cycles, Durable, Files};
use crate::single::{ParamAudit, TickRecord};

/// Runs every check pair; returns the process exit code.
pub fn run() -> i32 {
    let mut failures = 0;
    let mut pair = |name: &str, good: Outcome, corrupted: Outcome| {
        let ok = good.is_ok() && corrupted.is_err();
        if !ok {
            failures += 1;
        }
        println!(
            "selftest {} {name}: good -> {}; corrupted -> {}",
            if ok { "ok  " } else { "FAIL" },
            verdict(&good),
            verdict(&corrupted)
        );
    };

    let baseline: Vec<f64> = (0..400).map(|i| 240.0 + wobble(i)).collect();
    let tuned: Vec<f64> = (0..600).map(|i| 330.0 + wobble(i)).collect();
    let regressed: Vec<f64> = tuned.iter().map(|v| v - 95.0).collect();
    pair(
        "tuned beats baseline",
        checks::beats_baseline(&baseline, &tuned),
        checks::beats_baseline(&baseline, &regressed),
    );

    let errors = [0.5, 0.25, 0.125];
    pair(
        "prediction errors finite",
        checks::all_finite(errors),
        checks::all_finite([0.5, f64::NAN, 0.125]),
    );

    let specs = capes::SimulatedLustre::builder().build().tunable_specs();
    let inside: Vec<f64> = specs.iter().map(|s| s.default).collect();
    let mut outside = inside.clone();
    outside[0] = specs[0].max + specs[0].step;
    pair(
        "parameters within range",
        checks::params_in_range(&inside, &specs),
        checks::params_in_range(&outside, &specs),
    );
    pair(
        "parameter audit clean",
        checks::audit_clean(&audit(&inside, &specs)),
        checks::audit_clean(&audit(&outside, &specs)),
    );

    pair(
        "counts equal (cluster-ticks, stripe rows, frames)",
        checks::equal_counts("frames in", 2 * 78 * 100, 2 * 78 * 100),
        checks::equal_counts("frames in", 2 * 78 * 100 - 1, 2 * 78 * 100),
    );
    pair(
        "zero decode errors and sheds",
        checks::zero("decode errors", 0),
        checks::zero("decode errors", 1),
    );
    pair(
        "record counts agree",
        checks::record_counts(500, Ok(500), Ok(500)),
        checks::record_counts(500, Ok(500), Ok(499)),
    );

    let series: Vec<f64> = (0..50).map(|i| 300.0 + wobble(i)).collect();
    let mut flipped = series.clone();
    flipped[17] = f64::from_bits(flipped[17].to_bits() ^ 1);
    pair(
        "float series bit-identical",
        checks::same_floats(&series, &series.clone()),
        checks::same_floats(&series, &flipped),
    );
    let records: Vec<TickRecord> = series
        .iter()
        .enumerate()
        .map(|(i, &throughput)| TickRecord {
            throughput,
            action: Some(i % 5),
        })
        .collect();
    let mut other_action = records.clone();
    other_action[31].action = Some(4 - other_action[31].action.unwrap_or(0));
    pair(
        "traced and untraced series identical",
        checks::same_series(&records, &records.clone()),
        checks::same_series(&records, &other_action),
    );

    let bytes: Vec<u8> = (0..4096u32).map(|i| (i * 31 % 251) as u8).collect();
    let mut damaged = bytes.clone();
    damaged[1000] ^= 0x10;
    pair(
        "snapshot files byte-identical",
        checks::same_bytes(&bytes, &bytes.clone()),
        checks::same_bytes(&bytes, &damaged),
    );

    let files = Files::new();
    pair(
        "checkpoint -> restore -> checkpoint cycle",
        cycle(&mut Toy { drift: false }, &files),
        cycle(&mut Toy { drift: true }, &files),
    );

    let live = small_fleet(7, 12);
    let twin = small_fleet(7, 12);
    let other_seed = small_fleet(8, 12);
    pair(
        "replayed stores equal the live stores",
        crate::fleet::compare_stores(&live, &twin, 12),
        crate::fleet::compare_stores(&live, &other_seed, 12),
    );

    println!(
        "selftest: {}",
        if failures == 0 {
            "every check passes its good case and fails its corrupted one".to_string()
        } else {
            format!("{failures} check(s) misbehaved")
        }
    );
    i32::from(failures > 0)
}

fn verdict(outcome: &Outcome) -> String {
    match outcome {
        Ok(detail) => format!("pass ({detail})"),
        Err(detail) => format!("fail ({detail})"),
    }
}

/// Deterministic pseudo-random noise in [-10, 10) MB/s.
fn wobble(i: usize) -> f64 {
    ((i as u64).wrapping_mul(2_654_435_761) % 2_000) as f64 / 100.0 - 10.0
}

fn audit(applied: &[f64], specs: &[TunableSpec]) -> ParamAudit {
    let bad = checks::params_in_range(applied, specs).is_err();
    ParamAudit {
        applied: 1,
        out_of_range: u64::from(bad),
        first_violation: bad.then(|| applied.to_vec()),
    }
}

fn cycle(system: &mut Toy, files: &Files) -> Outcome {
    let mut cycles = Cycles::default();
    cycles.run(system, files, 0);
    cycles.outcome()
}

/// A stand-in durable system; with `drift`, its restore does not bring
/// back what was saved, so the second snapshot differs from the first.
struct Toy {
    drift: bool,
}

impl Durable for Toy {
    fn checkpoint(&mut self, path: &Path) -> Result<(), String> {
        let state = if self.drift { b"state-b" } else { b"state-a" };
        std::fs::write(path, state).map_err(|e| e.to_string())
    }

    fn restore(&mut self, path: &Path) -> Result<(), String> {
        let saved = std::fs::read(path).map_err(|e| e.to_string())?;
        if self.drift && saved == b"state-b" {
            // The corrupted restore loses the state: the next checkpoint
            // writes something else.
            self.drift = false;
        }
        Ok(())
    }
}

fn small_fleet(seed: u64, ticks: u64) -> FleetDaemon {
    let mut daemon = Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(seed)
        .transport(Transport::Wire)
        .scenarios(ScenarioSpec::heterogeneous_mix(2))
        .build()
        .expect("the two-cluster fleet configuration is valid");
    for _ in 0..ticks {
        daemon.tick_all(PhaseKind::Baseline);
    }
    daemon
}
