//! `fleet-serve` and `fleet-socket-durable`: a 16-cluster
//! `ScenarioSpec::heterogeneous_mix` fleet run baseline → train → tuned
//! through `FleetDaemon::tick_all`.
//!
//! `fleet-serve` runs on `Transport::InProcess`. `fleet-socket-durable`
//! runs on `Transport::Socket` with self-biased experience sharing in every
//! profile and records its uplink from the first baseline tick; at the end
//! it replays the log into a fresh `Transport::Wire` fleet. Both
//! checkpoint and restore at fixed train ticks.

use std::path::Path;
use std::time::{Duration, Instant};

use capes::{Hyperparameters, PhaseKind, Transport};
use capes_fleet::{ExperienceSharing, Fleet, FleetDaemon, ScenarioSpec};

use crate::checks;
use crate::durable::{Cycles, Durable, Files};
use crate::out::Report;
use crate::stats::{median, Durations};
use crate::window::{Closed, Window};
use crate::Args;

const CLUSTERS: usize = 16;

/// Tick counts of the seed-determined part of the schedule.
struct Plan {
    baseline: u64,
    /// Train ticks, in `cycles` equal chunks with a checkpoint → restore →
    /// checkpoint cycle after each.
    train: u64,
    cycles: u64,
    /// Tuned ticks whose throughput is reported and checked (and, in the
    /// durable workload, the end of the recorded traffic).
    tuned_scored: u64,
    /// Tuned ticks timed: `--seconds` × this many.
    tuned_per_second: f64,
    tuned: u64,
}

impl Plan {
    fn new(args: &Args) -> Plan {
        let mut plan = if args.short {
            Plan {
                baseline: 60,
                train: 200,
                cycles: 2,
                tuned_scored: 60,
                tuned_per_second: 100.0,
                tuned: 0,
            }
        } else {
            Plan {
                baseline: 300,
                train: 4_000,
                cycles: 4,
                tuned_scored: 300,
                // 6 000 tuned ticks at the default 12 s: about a tenth (in
                // process) and a quarter (socket) of a run on the reference host.
                tuned_per_second: 500.0,
                tuned: 0,
            }
        };
        plan.tuned = ((args.seconds * plan.tuned_per_second) as u64).max(2 * plan.tuned_scored);
        plan
    }
}

impl Durable for FleetDaemon {
    fn checkpoint(&mut self, path: &Path) -> Result<(), String> {
        FleetDaemon::checkpoint(self, path).map_err(|e| e.to_string())
    }

    fn restore(&mut self, path: &Path) -> Result<(), String> {
        FleetDaemon::restore(self, path).map_err(|e| e.to_string())
    }
}

fn build(seed: u64, transport: Transport) -> FleetDaemon {
    Fleet::builder()
        .hyperparams(Hyperparameters::quick_test())
        .seed(seed)
        .transport(transport)
        .scenarios(ScenarioSpec::heterogeneous_mix(CLUSTERS))
        .build()
        .expect("the 16-cluster fleet configuration is valid")
}

/// Builds the fleet (socket bind and connects included), configures
/// sharing and recording for the durable workload, and runs the baseline.
fn setup(seed: u64, plan: &Plan, durable: bool, log: &Path) -> FleetDaemon {
    let transport = if durable {
        Transport::Socket
    } else {
        Transport::InProcess
    };
    let mut daemon = build(seed, transport);
    if durable {
        for profile in 0..daemon.num_profiles() {
            daemon.set_profile_sharing(
                profile,
                ExperienceSharing::SelfBiased {
                    own: 3.0,
                    peers: 1.0,
                },
            );
        }
        daemon
            .record_to(log)
            .expect("the traffic log can be created");
    }
    for _ in 0..plan.baseline {
        daemon.tick_all(PhaseKind::Baseline);
    }
    daemon
}

/// Every member's current parameters against its tunable ranges.
fn params_violation(daemon: &FleetDaemon) -> Option<String> {
    (0..daemon.num_clusters()).find_map(|i| {
        let system = daemon.system(i);
        checks::params_in_range(&system.current_params(), system.specs())
            .err()
            .map(|e| format!("cluster {i} at tick {}: {e}", daemon.tick()))
    })
}

/// Sum over profiles of the training steps their agents have taken.
fn training_steps(daemon: &FleetDaemon) -> u64 {
    (0..daemon.num_profiles())
        .map(|p| {
            daemon
                .agent_for(daemon.profile_members(p)[0])
                .training_steps()
        })
        .sum()
}

/// Per-tick fleet throughput (the sum over clusters) over `ticks`.
fn aggregate_mbps(daemon: &FleetDaemon, ticks: std::ops::Range<u64>) -> Vec<f64> {
    ticks
        .map(|t| {
            (0..daemon.num_clusters())
                .map(|i| daemon.system(i).throughput_history()[t as usize])
                .sum()
        })
        .collect()
}

/// Compares, tick by tick over `0..ticks`, the objectives and observations
/// stored by the live fleet and by the replayed one.
pub fn compare_stores(live: &FleetDaemon, replayed: &FleetDaemon, ticks: u64) -> checks::Outcome {
    let mut observations = 0u64;
    for stripe in 0..live.num_clusters() {
        for tick in 0..ticks {
            let read = |d: &FleetDaemon| {
                d.arena().with_read(stripe, |db| {
                    (db.objective_at(tick), db.observation_at(tick))
                })
            };
            let ((obj_a, obs_a), (obj_b, obs_b)) = (read(live), read(replayed));
            if obj_a.map(f64::to_bits) != obj_b.map(f64::to_bits) || obj_a.is_none() {
                return Err(format!(
                    "cluster {stripe} tick {tick}: objective {obj_a:?} vs {obj_b:?}"
                ));
            }
            match (obs_a, obs_b) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    checks::same_floats(a.features.as_slice(), b.features.as_slice())
                        .map_err(|e| format!("cluster {stripe} tick {tick}: observation {e}"))?;
                    observations += 1;
                }
                (a, b) => {
                    return Err(format!(
                        "cluster {stripe} tick {tick}: observation live {} replayed {}",
                        a.is_some(),
                        b.is_some()
                    ))
                }
            }
        }
    }
    if observations == 0 {
        return Err("no observation to compare".into());
    }
    Ok(format!(
        "{} objectives and {observations} observations identical",
        ticks * live.num_clusters() as u64
    ))
}

pub fn run(args: &Args, report: &mut Report, durable: bool) {
    let plan = Plan::new(args);
    report.info(format!(
        "schedule: build + {} baseline ticks; {} train ticks in {} chunks, a checkpoint cycle \
         after each; {} tuned ticks, the first {} scored; untraced runs add a throwaway set-up \
         after every train chunk and every sixth of the tuned ticks",
        plan.baseline, plan.train, plan.cycles, plan.tuned, plan.tuned_scored
    ));
    let files = Files::new();
    let log = files.path("uplink.log");

    // Set-up: the fleet that runs is the first set-up. Untraced runs add
    // throwaway set-ups between chunks, so that `setup_s`, the median,
    // samples the whole run rather than its first second. (Traced runs
    // skip them: their baseline ticks would land in the registry windows.)
    let mut setup_times = Vec::new();
    let throwaway_log = files.path("throwaway-uplink.log");
    let throwaway = |times: &mut Vec<f64>| {
        if !args.trace {
            let started = Instant::now();
            drop(setup(args.seed, &plan, durable, &throwaway_log));
            times.push(started.elapsed().as_secs_f64());
        }
    };
    let started = Instant::now();
    let mut daemon = setup(args.seed, &plan, durable, &log);
    setup_times.push(started.elapsed().as_secs_f64());
    let clients: u64 = (0..daemon.num_clusters())
        .map(|i| daemon.system(i).num_monitors() as u64)
        .sum();
    report.info(format!(
        "{} clusters in {} profiles, {clients} clients",
        daemon.num_clusters(),
        daemon.num_profiles()
    ));

    let mut cycles = Cycles::default();
    let mut params_bad: Option<String> = None;
    let mut timed = |daemon: &mut FleetDaemon, kind, ticks: &mut Durations| {
        let started = Instant::now();
        daemon.tick_all(kind);
        ticks.push(started.elapsed());
        if params_bad.is_none() {
            params_bad = params_violation(daemon);
        }
    };

    // Train phase: fixed length, so what the fleet learns depends on the
    // seed alone.
    let steps_before = training_steps(&daemon);
    let window = args.trace.then(Window::open);
    let mut train_ticks = Durations::with_capacity(plan.train as usize);
    for _ in 0..plan.cycles {
        for _ in 0..plan.train / plan.cycles {
            timed(&mut daemon, PhaseKind::Train, &mut train_ticks);
        }
        let tick = daemon.tick();
        cycles.run(&mut daemon, &files, tick);
        throwaway(&mut setup_times);
    }
    let train_window = window.map(Window::close);
    let steps_trained = training_steps(&daemon) - steps_before;

    // Tuned phase. The traced run reads the registry over the first half of
    // it and leaves the second half alone; the two halves' median ticks
    // give the tracing overhead. The phase has a fixed length in ticks: the
    // greedy policy moves the clusters' parameters, and with them the cost
    // of a tick, so a phase sized by wall time would measure a different
    // stretch of the trajectory on a faster build.
    let tuned_start = daemon.tick();
    let mut tuned_ticks = Durations::with_capacity(1 << 14);
    let mut window = args.trace.then(Window::open);
    let mut tuned_window: Option<Closed> = None;
    let traced_ticks = plan.tuned as usize / 2;
    let mut recording = None;
    for _ in 0..plan.tuned {
        timed(&mut daemon, PhaseKind::Tuned, &mut tuned_ticks);
        if durable && tuned_ticks.len() as u64 == plan.tuned_scored {
            let started = Instant::now();
            let stopped = daemon.stop_recording().map_err(|e| e.to_string());
            recording = Some((stopped, started.elapsed(), daemon.tick()));
        }
        if tuned_ticks.len() == traced_ticks {
            tuned_window = window.take().map(Window::close);
        }
        if (tuned_ticks.len() as u64).is_multiple_of((plan.tuned / 6).max(1)) {
            throwaway(&mut setup_times);
        }
    }
    let total_ticks = daemon.tick();

    report.e2e(
        "setup_s",
        median(&setup_times),
        "s",
        setup_times.len() as u64,
    );
    let baseline = aggregate_mbps(&daemon, 0..plan.baseline);
    let scored = aggregate_mbps(&daemon, tuned_start..tuned_start + plan.tuned_scored);
    crate::common_e2e(
        report,
        &train_ticks,
        &tuned_ticks,
        CLUSTERS,
        &scored,
        &cycles,
    );

    report.learning_check(
        args.short,
        "aggregate tuned throughput beats baseline (non-overlapping 95% CIs)",
        checks::beats_baseline(&baseline, &scored),
    );
    report.check(
        "every applied parameter within its range",
        params_bad.map_or_else(
            || Ok(format!("{CLUSTERS} clusters x {total_ticks} ticks")),
            Err,
        ),
    );
    report.check(
        "cluster-ticks = clusters x ticks",
        checks::equal_counts(
            "cluster-ticks",
            daemon.cluster_ticks(),
            CLUSTERS as u64 * total_ticks,
        ),
    );
    report.check(
        "every stripe received one row per client per tick",
        stripe_rows(&daemon, total_ticks),
    );
    report.check(
        "checkpoint -> restore -> checkpoint is byte-identical",
        cycles.outcome(),
    );
    report.ops("ticks", total_ticks, 0);
    crate::cycle_ops(report, &cycles);

    if let (Some(train_w), Some(tuned_w)) = (&train_window, &tuned_window) {
        crate::tick_layers(report, &train_ticks, &tuned_ticks);
        let attempted = plan.train * daemon.hyperparams().train_steps_per_tick as u64;
        crate::train_step_layers(report, steps_trained, attempted);
        crate::histogram_layers(report, train_w, tuned_w);
        fleet_layers(
            report,
            train_w,
            tuned_w,
            &train_ticks,
            &tuned_ticks,
            traced_ticks,
            plan.train,
        );
    }

    if durable {
        let net = daemon.net_report();
        report.check(
            "net.frames_in = 2 x clients x ticks",
            checks::equal_counts("frames in", net.frames_in, 2 * clients * total_ticks),
        );
        report.check(
            "no decode errors",
            checks::zero("decode errors", net.decode_errors),
        );
        report.check(
            "no shed connections",
            checks::zero("sheds", net.shed_backpressure + net.shed_idle),
        );
        report.ops("frames", net.frames_in, net.decode_errors);
        if args.trace {
            report.layer("net.frames_in", net.frames_in as f64, "count", total_ticks);
            report.layer(
                "net.bytes_in_per_tick",
                net.bytes_in_per_tick,
                "B",
                total_ticks,
            );
        }
        let (stopped, stop_time, recorded_ticks) =
            recording.unwrap_or((Err("recording never stopped".into()), Duration::ZERO, 0));
        replay(
            args,
            report,
            &daemon,
            &log,
            stopped,
            stop_time,
            recorded_ticks,
        );
    }
}

/// Rows inserted into every stripe = the cluster's clients × ticks.
fn stripe_rows(daemon: &FleetDaemon, ticks: u64) -> checks::Outcome {
    for i in 0..daemon.num_clusters() {
        let expected = ticks * daemon.system(i).num_monitors() as u64;
        let got = daemon.arena().stripe_stats(i).total_inserted;
        checks::equal_counts(&format!("stripe {i} rows"), got, expected)?;
    }
    Ok(format!("{} stripes", daemon.num_clusters()))
}

/// Fleet tick-phase layers from `fleet.tick.*`, and the share of the
/// benchmark's tick time that `fleet.tick.total` does not cover.
fn fleet_layers(
    report: &mut Report,
    train: &Closed,
    tuned: &Closed,
    train_ticks: &Durations,
    tuned_ticks: &Durations,
    traced_ticks: usize,
    train_count: u64,
) {
    let phase = |w: &Closed, name: &str| w.hist(name).map_or(0.0, |d| d.sum_ns);
    let total = tuned.hist("fleet.tick.total");
    let n = total.map_or(0, |d| d.count);
    let per_tick_us = |sum_ns: f64| sum_ns / n.max(1) as f64 / 1e3;
    let (gather, decide, scatter, train_in_tuned) = (
        phase(tuned, "fleet.tick.gather"),
        phase(tuned, "fleet.tick.decide"),
        phase(tuned, "fleet.tick.scatter"),
        phase(tuned, "fleet.tick.train"),
    );
    let total_ns = total.map_or(0.0, |d| d.sum_ns);
    report.layer("fleet.gather_us", per_tick_us(gather), "us", n);
    report.layer("fleet.decide_us", per_tick_us(decide), "us", n);
    report.layer("fleet.scatter_us", per_tick_us(scatter), "us", n);
    report.layer(
        "fleet.finish_us",
        per_tick_us(total_ns - gather - decide - scatter - train_in_tuned),
        "us",
        n,
    );
    // `fleet.tick.train` records a zero on every non-training tick, so its
    // count is every tick: divide the window's sum by the train ticks run.
    report.layer(
        "fleet.train_ms",
        phase(train, "fleet.tick.train") / train_count as f64 / 1e6,
        "ms",
        train_count,
    );
    let fleet_ns = phase(train, "fleet.tick.total") + total_ns;
    let ours_ns = (train_ticks.total() + tuned_ticks.first(traced_ticks)).as_secs_f64() * 1e9;
    report.layer(
        "unaccounted_pct",
        100.0 * (1.0 - fleet_ns / ours_ns),
        "%",
        train_count + n,
    );
    let (first, second) = tuned_ticks.split_medians_ms(traced_ticks);
    report.layer(
        "trace_overhead_pct",
        100.0 * (first / second - 1.0),
        "%",
        tuned_ticks.len() as u64,
    );
}

/// Replays the recorded uplink into a fresh wire-transport fleet and
/// checks it against the live one.
fn replay(
    args: &Args,
    report: &mut Report,
    live: &FleetDaemon,
    log: &Path,
    stopped: Result<u64, String>,
    stop_time: Duration,
    recorded_ticks: u64,
) {
    let appended = live.persist_report().records_appended;
    let record_failures = live.persist_report().record_failures;
    report.ops("records", appended + record_failures, record_failures);
    let mut replica = build(args.seed, Transport::Wire);
    let started = Instant::now();
    let replayed = replica.replay_traffic(log).map_err(|e| e.to_string());
    let replay_time = started.elapsed();
    let delivered = *replayed.as_ref().unwrap_or(&0);
    report.ops(
        "replayed messages",
        appended,
        appended.saturating_sub(delivered),
    );
    report.check(
        "records appended = records stopped = messages replayed",
        checks::record_counts(appended, stopped, replayed),
    );
    report.check(
        "replayed wire fleet stores the live fleet's objectives and observations",
        compare_stores(live, &replica, recorded_ticks),
    );
    if args.trace {
        let log_mb = std::fs::metadata(log).map_or(0.0, |m| m.len() as f64 / 1e6);
        report.layer(
            "persist.record_stop_ms",
            stop_time.as_secs_f64() * 1e3,
            "ms",
            1,
        );
        report.layer("persist.record_log_mb", log_mb, "MB", 1);
        report.layer("persist.records", appended as f64, "count", 1);
        report.layer(
            "fleet.replay_msgs_per_s",
            delivered as f64 / replay_time.as_secs_f64(),
            "1/s",
            delivered,
        );
    }
}
