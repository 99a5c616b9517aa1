#!/usr/bin/env python3
"""Builds and runs the CAPES benchmark (see perfbench/README.md).

One run, as the benchmark contract specifies:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Steadiness: N runs per workload with seeds 1..N, then each metric's
median, quartiles, IQR / median and (max - min) / median (--values adds
every run's value):

    python3 perfbench/run.py steady [--runs 10] [--seconds 12]
                                    [--workloads a,b] [--trace 0|1] [--values]

Short mode: the checks' negative cases, then every workload on a short
schedule, traced and untraced, in well under a minute:

    python3 perfbench/run.py short

The program is built from the checkout with cargo into $CARGO_TARGET_DIR
(default: .bench_build at the root of the checkout).
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
WORKLOADS = ["single-learn", "fleet-serve", "fleet-socket-durable"]


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(target_dir(), "release", "capes-perfbench")
    if not os.path.isabs(binary):
        binary = os.path.join(ROOT, binary)
    return binary


def run_once(binary, args):
    """Runs the binary once; returns (exit code, stdout)."""
    proc = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def option(argv, name, default):
    return argv[argv.index(name) + 1] if name in argv else default


def steady(binary, argv):
    runs = int(option(argv, "--runs", "10"))
    seconds = option(argv, "--seconds", "12")
    trace = option(argv, "--trace", "0")
    workloads = option(argv, "--workloads", ",".join(WORKLOADS)).split(",")
    status = 0
    for workload in workloads:
        values, shares, verdicts = {}, set(), []
        for seed in range(1, runs + 1):
            args = ["--workload", workload, "--seed", str(seed),
                    "--seconds", seconds, "--trace", trace]
            code, stdout = run_once(binary, args)
            result = result_of(stdout) if code == 0 else None
            if result is None:
                print(f"{workload} seed {seed}: exit {code}, no result", flush=True)
                status = 1
                continue
            verdicts.append(result["correct"])
            shares.add(result["failed"] / result["attempted"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"\n{workload}: {len(verdicts)} runs, all correct: {all(verdicts)}, "
              f"failed shares: {sorted(shares)}")
        print(f"  {'metric':<30} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9}")
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            spread = (max(xs) - min(xs)) / med if med else 0.0
            print(f"  {name:<30} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {iqr:>8.4f} {spread:>9.4f}",
                  flush=True)
            if "--values" in argv:
                print("      " + " ".join(f"{x:.6g}" for x in xs))
        if not all(verdicts):
            status = 1
    return status


def short(binary):
    code, stdout = run_once(binary, ["--selftest"])
    print(stdout, end="")
    status = 0 if code == 0 else 1
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            args = ["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", trace, "--short"]
            code, stdout = run_once(binary, args)
            result = result_of(stdout) if code == 0 else None
            ok = result is not None and result["correct"]
            checks = [l for l in stdout.splitlines()
                      if l.startswith(("# check ok", "# check FAIL", "# check info"))]
            print(f"{workload} trace {trace}: {'ok' if ok else 'FAILED'} ({len(checks)} checks)")
            for line in checks:
                print("  " + line[2:])
            if not ok:
                status = 1
    return status


def main(argv):
    binary = build()
    if binary is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    if argv[:1] == ["steady"]:
        return steady(binary, argv[1:])
    if argv[:1] == ["short"]:
        return short(binary)
    code, stdout = run_once(binary, argv)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
