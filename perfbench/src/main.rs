//! End-to-end and per-layer benchmark of the CAPES reproduction.
//!
//! ```text
//! capes-perfbench --workload <single-learn|fleet-serve|fleet-socket-durable>
//!                 --seed <n> --seconds <s> --trace <0|1> [--short]
//! capes-perfbench --selftest
//! ```
//!
//! Each invocation runs one workload in its own process and prints
//! readable `#` lines followed by one JSON line: `correct`, `attempted`,
//! `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `perfbench/README.md`.

mod checks;
mod durable;
mod fleet;
mod out;
mod selftest;
mod single;
mod stats;
mod window;

use durable::Cycles;
use out::Report;
use stats::{median, p99, Durations};
use window::Closed;

/// Every end-to-end metric, in output order, with its unit.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("train_cluster_ticks_per_s", "1/s"),
    ("train_tick_p50_ms", "ms"),
    ("tuned_cluster_ticks_per_s", "1/s"),
    ("tuned_tick_p50_ms", "ms"),
    ("tuned_mbps", "MB/s"),
    ("checkpoint_ms", "ms"),
    ("restore_ms", "ms"),
    ("snapshot_mb", "MB"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric, in output order, with its unit. A layer that
/// does not run in a workload is reported as 0 and marked absent.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("capes.measure_tick_us", "us"),
    ("replay.observation_us", "us"),
    ("drl.decide_us", "us"),
    ("agents.apply_us", "us"),
    ("drl.train_tick_ms", "ms"),
    ("capes.finish_tick_us", "us"),
    ("tick.train_p99_ms", "ms"),
    ("tick.tuned_p99_ms", "ms"),
    ("tick.train_samples", "count"),
    ("tick.tuned_samples", "count"),
    ("unaccounted_pct", "%"),
    ("trace_overhead_pct", "%"),
    ("drl.train_steps", "count"),
    ("drl.train_steps_skipped", "count"),
    ("replay.sample_us", "us"),
    ("drl.train_step_ms", "ms"),
    ("tensor.gemm_kernel_us", "us"),
    ("tensor.gemm_dispatch_us", "us"),
    ("agents.ingest_us", "us"),
    ("fleet.gather_us", "us"),
    ("fleet.decide_us", "us"),
    ("fleet.scatter_us", "us"),
    ("fleet.finish_us", "us"),
    ("fleet.train_ms", "ms"),
    ("net.read_us", "us"),
    ("net.decode_us", "us"),
    ("net.egress_us", "us"),
    ("net.frames_in", "count"),
    ("net.bytes_in_per_tick", "B"),
    ("persist.checkpoint_write_ms", "ms"),
    ("persist.checkpoint_fsync_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("persist.record_stop_ms", "ms"),
    ("persist.record_log_mb", "MB"),
    ("persist.records", "count"),
    ("fleet.replay_msgs_per_s", "1/s"),
    ("cycle.checkpoint_max_ms", "ms"),
    ("cycle.restore_max_ms", "ms"),
    ("cycles", "count"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Shrinks every schedule so that a run takes a few seconds.
    pub short: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--short" => args.short = true,
            "--selftest" => return Ok(None),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Some(args))
}

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => std::process::exit(selftest::run()),
        Err(e) => {
            eprintln!("capes-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.info(format!(
        "workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.short { " (short)" } else { "" }
    ));
    report.info(format!(
        "host: nproc {}, simd detected {:?} active {:?}, gemm pool {} threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        capes_tensor::simd::detected_level(),
        capes_tensor::simd::active_level(),
        capes_tensor::pool::global().threads()
    ));
    match args.workload.as_str() {
        "single-learn" => single::run(&args, &mut report),
        "fleet-serve" => fleet::run(&args, &mut report, false),
        "fleet-socket-durable" => fleet::run(&args, &mut report, true),
        other => {
            eprintln!("capes-perfbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    }
    let rss = peak_rss_mb();
    report.e2e("peak_rss_mb", rss.unwrap_or(0.0), "MB", 1);
    report.check(
        "peak resident set is readable",
        rss.map(|r| format!("{r:.1} MB"))
            .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string()),
    );
    report.check(
        "every metric is finite",
        checks::all_finite(
            report
                .end_to_end
                .iter()
                .chain(&report.per_layer)
                .map(|m| m.value),
        ),
    );
    report.print(args.trace);
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics every workload reports the same way.
/// `clusters` is the number of cluster-ticks per tick.
pub fn common_e2e(
    report: &mut Report,
    train: &Durations,
    tuned: &Durations,
    clusters: usize,
    scored_mbps: &[f64],
    cycles: &Cycles,
) {
    let n = |d: &Durations| d.len() as u64;
    report.e2e(
        "train_cluster_ticks_per_s",
        train.rate(clusters),
        "1/s",
        n(train),
    );
    report.e2e("train_tick_p50_ms", train.median_ms(), "ms", n(train));
    report.e2e(
        "tuned_cluster_ticks_per_s",
        tuned.rate(clusters),
        "1/s",
        n(tuned),
    );
    report.e2e("tuned_tick_p50_ms", tuned.median_ms(), "ms", n(tuned));
    report.e2e(
        "tuned_mbps",
        capes_stats::summary::mean(scored_mbps),
        "MB/s",
        scored_mbps.len() as u64,
    );
    let samples = |v: &[f64]| v.len() as u64;
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.info(format!("checkpoint ms: {}", list(&cycles.checkpoint_ms)));
    report.info(format!("restore ms: {}", list(&cycles.restore_ms)));
    report.info(format!("checkpoint fsync ms: {}", list(&cycles.fsync_ms)));
    report.e2e(
        "checkpoint_ms",
        median(&cycles.checkpoint_ms),
        "ms",
        samples(&cycles.checkpoint_ms),
    );
    report.e2e(
        "restore_ms",
        median(&cycles.restore_ms),
        "ms",
        samples(&cycles.restore_ms),
    );
    report.e2e("snapshot_mb", cycles.snapshot_bytes as f64 / 1e6, "MB", 1);
    let max = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    report.layer(
        "cycle.checkpoint_max_ms",
        max(&cycles.checkpoint_ms),
        "ms",
        samples(&cycles.checkpoint_ms),
    );
    report.layer(
        "cycle.restore_max_ms",
        max(&cycles.restore_ms),
        "ms",
        samples(&cycles.restore_ms),
    );
    report.layer("cycles", cycles.restore_ms.len() as f64, "count", 1);
}

/// Attempted and failed checkpoints and restores.
pub fn cycle_ops(report: &mut Report, cycles: &Cycles) {
    report.ops(
        "checkpoints",
        cycles.checkpoints_attempted,
        cycles.checkpoints_failed,
    );
    report.ops(
        "restores",
        cycles.restores_attempted,
        cycles.restores_failed,
    );
}

/// Tail latencies of the benchmark's own per-tick timers.
pub fn tick_layers(report: &mut Report, train: &Durations, tuned: &Durations) {
    let n = |d: &Durations| d.len() as u64;
    report.layer("tick.train_p99_ms", p99(&train.ms()), "ms", n(train));
    report.layer("tick.tuned_p99_ms", p99(&tuned.ms()), "ms", n(tuned));
    report.layer("tick.train_samples", train.len() as f64, "count", n(train));
    report.layer("tick.tuned_samples", tuned.len() as f64, "count", n(tuned));
}

/// Training steps that ran versus steps refused while the store warmed.
pub fn train_step_layers(report: &mut Report, trained: u64, attempted: u64) {
    report.layer("drl.train_steps", trained as f64, "count", attempted);
    report.layer(
        "drl.train_steps_skipped",
        attempted.saturating_sub(trained) as f64,
        "count",
        attempted,
    );
}

/// Per-layer metrics read from the program's own histograms: training
/// layers over the train window, ingest and socket layers over the tuned
/// window, durability spans over the train window (where the cycles run).
pub fn histogram_layers(report: &mut Report, train: &Closed, tuned: &Closed) {
    let mut layer = |name: &'static str, w: &Closed, hist: &str, scale: f64, unit: &'static str| {
        let delta = if hist.ends_with('.') {
            w.hist_family(hist)
        } else {
            w.hist(hist)
        };
        if let Some(d) = delta {
            report.layer(name, d.mean_ns() / scale, unit, d.count);
        }
    };
    layer("replay.sample_us", train, "arena.sample", 1e3, "us");
    layer("drl.train_step_ms", train, "drl.train_step", 1e6, "ms");
    layer("tensor.gemm_kernel_us", train, "gemm.kernel.", 1e3, "us");
    layer(
        "tensor.gemm_dispatch_us",
        train,
        "gemm.pool_dispatch",
        1e3,
        "us",
    );
    layer("agents.ingest_us", tuned, "daemon.ingest", 1e3, "us");
    layer("net.read_us", tuned, "net.read", 1e3, "us");
    layer("net.decode_us", tuned, "net.decode", 1e3, "us");
    layer("net.egress_us", tuned, "net.egress", 1e3, "us");
    layer(
        "persist.checkpoint_write_ms",
        train,
        "persist.checkpoint.write",
        1e6,
        "ms",
    );
    layer(
        "persist.checkpoint_fsync_ms",
        train,
        "persist.checkpoint.fsync",
        1e6,
        "ms",
    );
    layer("persist.restore_ms", train, "persist.restore", 1e6, "ms");
}
