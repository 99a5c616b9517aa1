//! `single-learn`: one simulated Lustre cluster (write-heavy random 1:9,
//! 5 clients × 4 servers) under `Hyperparameters::quick_test()`, run
//! baseline → train → tuned.
//!
//! The untraced run drives the system the way `Experiment` does, through
//! `run_phase`, and timestamps ticks with a `TickObserver`. The traced run
//! drives the staged tick API in `run_phase`'s order on a second,
//! identically seeded system and times every stage.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use capes::prelude::*;
use capes::{EngineContext, TargetTick};
use capes_persist::{Persist, Reader, Writer};

use crate::checks;
use crate::durable::{Cycles, Durable, Files};
use crate::out::Report;
use crate::stats::{median, Durations};
use crate::window::{Closed, Window};
use crate::Args;

/// Tick counts of the seed-determined part of the schedule.
struct Plan {
    baseline: u64,
    /// Train ticks, run in `cycles` equal chunks with a checkpoint →
    /// restore → checkpoint cycle after each.
    train: u64,
    cycles: u64,
    /// Tuned ticks whose throughput is reported and checked.
    tuned_scored: u64,
    /// Tuned ticks timed (`--seconds` × a fixed rate), run as `run_phase`
    /// chunks of `tuned_chunk`.
    tuned: u64,
    tuned_chunk: u64,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let (per_second, mut plan) = if args.short {
            (
                1_000.0,
                Plan {
                    baseline: 200,
                    train: 400,
                    cycles: 2,
                    tuned_scored: 200,
                    tuned: 0,
                    tuned_chunk: 500,
                },
            )
        } else {
            // 300 000 tuned ticks at the default 12 s: about a third of a
            // run on the reference host.
            (
                25_000.0,
                Plan {
                    baseline: 400,
                    train: 6_000,
                    cycles: 4,
                    tuned_scored: 600,
                    tuned: 0,
                    tuned_chunk: 5_000,
                },
            )
        };
        let chunks = (args.seconds * per_second / plan.tuned_chunk as f64)
            .ceil()
            .max(1.0);
        plan.tuned = chunks as u64 * plan.tuned_chunk;
        plan
    }
}

/// Applied parameter vectors and the ones outside their ranges.
#[derive(Default, Clone, Debug)]
pub struct ParamAudit {
    pub applied: u64,
    pub out_of_range: u64,
    pub first_violation: Option<Vec<f64>>,
}

/// One audit per system built in this process; a target refers to its
/// audit by index, which also survives a snapshot round trip.
static AUDITS: Mutex<Vec<ParamAudit>> = Mutex::new(Vec::new());

fn audit(slot: usize) -> ParamAudit {
    AUDITS
        .lock()
        .expect("no thread panics holding the audit table")[slot]
        .clone()
}

/// The simulated cluster, wrapped so that every parameter vector the
/// Control Agent applies is checked against the tunable ranges.
pub struct Audited {
    inner: SimulatedLustre,
    specs: Vec<TunableSpec>,
    slot: usize,
}

impl Audited {
    fn new(inner: SimulatedLustre, slot: usize) -> Audited {
        Audited {
            specs: inner.tunable_specs(),
            inner,
            slot,
        }
    }
}

impl TargetSystem for Audited {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }
    fn pis_per_node(&self) -> usize {
        self.inner.pis_per_node()
    }
    fn tunable_specs(&self) -> Vec<TunableSpec> {
        self.specs.clone()
    }
    fn current_params(&self) -> Vec<f64> {
        self.inner.current_params()
    }
    fn apply_params(&mut self, values: &[f64]) {
        let mut audits = AUDITS
            .lock()
            .expect("no thread panics holding the audit table");
        let audit = &mut audits[self.slot];
        audit.applied += 1;
        if checks::params_in_range(values, &self.specs).is_err() {
            audit.out_of_range += 1;
            audit.first_violation.get_or_insert_with(|| values.to_vec());
        }
        drop(audits);
        self.inner.apply_params(values);
    }
    fn step(&mut self) -> TargetTick {
        self.inner.step()
    }
    fn describe(&self) -> String {
        self.inner.describe()
    }
}

impl Persist for Audited {
    fn encode(&self, w: &mut Writer) {
        self.inner.encode(w);
        w.put_usize(self.slot);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, capes_persist::PersistError> {
        let inner = SimulatedLustre::decode(r)?;
        Ok(Audited::new(inner, r.get_usize()?))
    }
}

/// The standalone snapshot: the system's own state followed by its replay
/// store, as `CapesSystem::encode_state` documents for standalone callers.
impl Durable for CapesSystem<Audited> {
    fn checkpoint(&mut self, path: &Path) -> Result<(), String> {
        let mut w = Writer::new();
        self.encode_state(&mut w);
        self.replay_db().arena().encode(&mut w);
        capes_persist::write_snapshot_file(path, w.as_slice()).map_err(|e| e.to_string())
    }

    fn restore(&mut self, path: &Path) -> Result<(), String> {
        let payload = capes_persist::read_snapshot_file(path).map_err(|e| e.to_string())?;
        let mut r = Reader::new(&payload);
        self.decode_state(&mut r).map_err(|e| e.to_string())?;
        let arena = ReplayArena::decode(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        self.replay_db()
            .arena()
            .restore_from(&arena)
            .map_err(|e| e.to_string())
    }
}

/// Per-tick outcome compared between the untraced and the traced pass.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TickRecord {
    pub throughput: f64,
    pub action: Option<usize>,
}

/// Builds the system and runs the baseline phase (the warm-up).
fn setup(seed: u64, plan: &Plan) -> (CapesSystem<Audited>, Vec<f64>) {
    let slot = {
        let mut audits = AUDITS
            .lock()
            .expect("no thread panics holding the audit table");
        audits.push(ParamAudit::default());
        audits.len() - 1
    };
    let inner = SimulatedLustre::builder()
        .workload(Workload::random_rw(0.1))
        .seed(seed)
        .build();
    let mut system = Capes::builder(Audited::new(inner, slot))
        .hyperparams(Hyperparameters::quick_test())
        .seed(seed)
        .build()
        .expect("the single-learn configuration is valid");
    let baseline = system.run_phase(&Phase::Baseline {
        ticks: plan.baseline,
    });
    (system, baseline.throughput_series)
}

/// Timings and outputs of one pass over the train and tuned phases.
#[derive(Default)]
struct Pass {
    train_ticks: Durations,
    tuned_ticks: Durations,
    records: Vec<TickRecord>,
    tuned_series: Vec<f64>,
    cycles: Cycles,
}

type Log = Arc<Mutex<Vec<(Instant, TickRecord)>>>;

/// Runs one `run_phase` and appends its ticks' durations and records;
/// the observer's end-of-tick instants delimit the ticks.
fn observed_phase(
    system: &mut CapesSystem<Audited>,
    phase: Phase,
    log: &Log,
    ticks: &mut Durations,
    pass: &mut Vec<TickRecord>,
) -> Vec<f64> {
    let mut prev = Instant::now();
    let result = system.run_phase(&phase);
    for (at, record) in log
        .lock()
        .expect("the observer never panics holding the log")
        .drain(..)
    {
        ticks.push(at.duration_since(prev));
        prev = at;
        pass.push(record);
    }
    result.throughput_series
}

/// Untraced pass: what `Experiment` does, one `run_phase` per chunk.
/// `between` runs after every chunk, outside the tick timers.
fn run_untraced(
    system: &mut CapesSystem<Audited>,
    plan: &Plan,
    files: &Files,
    between: &mut dyn FnMut(),
) -> Pass {
    let log: Log = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
    let sink = log.clone();
    system.add_observer(move |kind: PhaseKind, tick: &SystemTick| {
        if kind != PhaseKind::Baseline {
            sink.lock()
                .expect("the observer never panics holding the log")
                .push((
                    Instant::now(),
                    TickRecord {
                        throughput: tick.throughput_mbps,
                        action: tick.action,
                    },
                ));
        }
    });
    let mut pass = Pass::default();
    for _ in 0..plan.cycles {
        let phase = Phase::Train {
            ticks: plan.train / plan.cycles,
        };
        observed_phase(
            system,
            phase,
            &log,
            &mut pass.train_ticks,
            &mut pass.records,
        );
        let tick = system.tick();
        pass.cycles.run(system, files, tick);
        between();
    }
    for _ in 0..plan.tuned / plan.tuned_chunk {
        let phase = Phase::Tuned {
            ticks: plan.tuned_chunk,
            label: "tuned".into(),
        };
        let series = observed_phase(
            system,
            phase,
            &log,
            &mut pass.tuned_ticks,
            &mut pass.records,
        );
        pass.tuned_series.extend(series);
        between();
    }
    pass
}

/// Accumulated stage times of the traced pass, per phase kind.
#[derive(Default)]
struct Stages {
    train: [Duration; 6],
    tuned: [Duration; 6],
}

const STAGES: [&str; 6] = [
    "capes.measure_tick_us",
    "replay.observation_us",
    "drl.decide_us",
    "agents.apply_us",
    "drl.train_tick_ms",
    "capes.finish_tick_us",
];

/// One tick through the staged API in `run_phase`'s order, every stage
/// timed into `stage`.
fn staged_tick(
    system: &mut CapesSystem<Audited>,
    specs: &[TunableSpec],
    kind: PhaseKind,
    stage: &mut [Duration; 6],
) -> SystemTick {
    let t0 = Instant::now();
    let mut measurement = system.measure_tick();
    let t1 = Instant::now();
    system.complete_measurement(kind, &mut measurement);
    let t2 = Instant::now();
    let current = system.current_params();
    let proposal = system.engine_mut().propose_action(&EngineContext {
        tick: measurement.tick,
        observation: measurement.observation.as_ref(),
        current_params: &current,
        specs,
        explore: kind == PhaseKind::Train,
    });
    let t3 = Instant::now();
    let (action, explored) = (proposal.action_index, proposal.explored);
    system.apply_action(proposal);
    let t4 = Instant::now();
    let error = if kind == PhaseKind::Train {
        system.engine_train_tick()
    } else {
        None
    };
    let t5 = Instant::now();
    let tick = system.finish_tick(kind, &measurement, action, explored, error);
    let t6 = Instant::now();
    let bounds = [t0, t1, t2, t3, t4, t5, t6];
    for (i, slot) in stage.iter_mut().enumerate() {
        *slot += bounds[i + 1].duration_since(bounds[i]);
    }
    tick
}

/// Traced pass: the staged API with stage timers, the same schedule as
/// `untraced` (same chunks, cycles and number of tuned ticks), and a
/// registry window around each phase.
struct Traced {
    pass: Pass,
    stages: Stages,
    train_window: Closed,
    tuned_window: Closed,
}

fn run_traced(
    system: &mut CapesSystem<Audited>,
    plan: &Plan,
    files: &Files,
    tuned: usize,
) -> Traced {
    let specs = system.specs().to_vec();
    let mut stages = Stages::default();
    let mut pass = Pass::default();
    let timed = |system: &mut CapesSystem<Audited>,
                 kind,
                 ticks: &mut Durations,
                 stage: &mut [Duration; 6]| {
        let started = Instant::now();
        let tick = staged_tick(system, &specs, kind, stage);
        ticks.push(started.elapsed());
        tick
    };
    let window = Window::open();
    for _ in 0..plan.cycles {
        for _ in 0..plan.train / plan.cycles {
            let tick = timed(
                system,
                PhaseKind::Train,
                &mut pass.train_ticks,
                &mut stages.train,
            );
            pass.records.push(TickRecord {
                throughput: tick.throughput_mbps,
                action: tick.action,
            });
        }
        let tick = system.tick();
        pass.cycles.run(system, files, tick);
    }
    let train_window = window.close();
    let window = Window::open();
    for _ in 0..tuned {
        let tick = timed(
            system,
            PhaseKind::Tuned,
            &mut pass.tuned_ticks,
            &mut stages.tuned,
        );
        pass.tuned_series.push(tick.throughput_mbps);
        pass.records.push(TickRecord {
            throughput: tick.throughput_mbps,
            action: tick.action,
        });
    }
    Traced {
        pass,
        stages,
        train_window,
        tuned_window: window.close(),
    }
}

pub fn run(args: &Args, report: &mut Report) {
    let plan = Plan::new(args);
    report.info(format!(
        "schedule: build + {} baseline ticks; {} train ticks in {} chunks, a checkpoint cycle \
         after each; {} tuned ticks in chunks of {}, the first {} scored; a throwaway set-up \
         after every chunk",
        plan.baseline, plan.train, plan.cycles, plan.tuned, plan.tuned_chunk, plan.tuned_scored
    ));
    let files = Files::new();
    crate::durable::observe_fsyncs();

    // Set-up: build + baseline warm-up. The system that runs is the first
    // set-up; further, throwaway set-ups run between chunks, so that
    // `setup_s`, the median, samples the whole run rather than its first
    // milliseconds.
    let mut setup_times = Vec::new();
    let timed_setup = |times: &mut Vec<f64>| {
        let started = Instant::now();
        let built = setup(args.seed, &plan);
        times.push(started.elapsed().as_secs_f64());
        built
    };
    let (mut system, baseline) = timed_setup(&mut setup_times);
    report.info(format!(
        "observation size {} features, {} tunable parameters",
        system
            .dqn_agent()
            .map_or(0, |a| a.config().observation_size),
        system.specs().len()
    ));

    let pass = if args.trace {
        // The traced pass repeats the untraced schedule exactly, so the two
        // series must agree.
        let untraced = run_untraced(&mut system, &plan, &files, &mut || {
            drop(timed_setup(&mut setup_times));
        });
        let (mut twin, twin_baseline) = setup(args.seed, &plan);
        let traced = run_traced(&mut twin, &plan, &files, untraced.tuned_series.len());
        report.check(
            "traced staged run reproduces the untraced run tick for tick",
            checks::same_floats(&baseline, &twin_baseline)
                .and_then(|_| checks::same_series(&untraced.records, &traced.pass.records)),
        );
        report.check(
            "traced run: every applied parameter within its range",
            checks::audit_clean(&audit(twin.target().slot)),
        );
        layers(report, &plan, &untraced, &traced, &twin);
        untraced
    } else {
        run_untraced(&mut system, &plan, &files, &mut || {
            drop(timed_setup(&mut setup_times));
        })
    };

    report.e2e(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len() as u64,
    );
    let scored = &pass.tuned_series[..plan.tuned_scored as usize];
    crate::common_e2e(
        report,
        &pass.train_ticks,
        &pass.tuned_ticks,
        1,
        scored,
        &pass.cycles,
    );

    let total_ticks = plan.baseline + pass.records.len() as u64;
    report.learning_check(
        args.short,
        "tuned throughput beats baseline (non-overlapping 95% CIs)",
        checks::beats_baseline(&baseline, scored),
    );
    report.check(
        "every prediction error is finite",
        checks::all_finite(system.prediction_errors().iter().map(|&(_, e)| e)),
    );
    report.check(
        "every applied parameter within its range",
        checks::audit_clean(&audit(system.target().slot)),
    );
    report.check(
        "replay store received one row per client per tick",
        checks::equal_counts(
            "rows inserted",
            system.replay_db().with_read(|db| db.total_inserted()),
            total_ticks * system.num_monitors() as u64,
        ),
    );
    report.check(
        "checkpoint -> restore -> checkpoint is byte-identical",
        pass.cycles.outcome(),
    );
    report.ops("ticks", total_ticks, 0);
    crate::cycle_ops(report, &pass.cycles);
}

/// Per-layer metrics of a traced run.
fn layers(
    report: &mut Report,
    plan: &Plan,
    untraced: &Pass,
    traced: &Traced,
    system: &CapesSystem<Audited>,
) {
    let (train_n, tuned_n) = (
        traced.pass.train_ticks.len() as u64,
        traced.pass.tuned_ticks.len() as u64,
    );
    for (i, name) in STAGES.iter().enumerate() {
        let (total, n) = if name.starts_with("drl.train") {
            (traced.stages.train[i], train_n)
        } else {
            (traced.stages.tuned[i], tuned_n)
        };
        let per_tick = total.as_secs_f64() / n.max(1) as f64;
        if name.ends_with("_ms") {
            report.layer(name, per_tick * 1e3, "ms", n);
        } else {
            report.layer(name, per_tick * 1e6, "us", n);
        }
    }
    let ticks = traced.pass.train_ticks.total() + traced.pass.tuned_ticks.total();
    let named: Duration = traced.stages.train.iter().chain(&traced.stages.tuned).sum();
    crate::tick_layers(report, &traced.pass.train_ticks, &traced.pass.tuned_ticks);
    report.layer(
        "unaccounted_pct",
        100.0 * (1.0 - named.as_secs_f64() / ticks.as_secs_f64()),
        "%",
        train_n + tuned_n,
    );
    report.layer(
        "trace_overhead_pct",
        100.0 * (traced.pass.tuned_ticks.median_ms() / untraced.tuned_ticks.median_ms() - 1.0),
        "%",
        tuned_n,
    );
    let attempted = plan.train * system.hyperparams().train_steps_per_tick as u64;
    let trained = system.dqn_agent().map_or(0, |a| a.training_steps());
    crate::train_step_layers(report, trained, attempted);
    crate::histogram_layers(report, &traced.train_window, &traced.tuned_window);
}
