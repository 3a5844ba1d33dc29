#!/usr/bin/env python3
"""Whole-world benchmark of the ADTC tree (see perfbench/NOTES.md).

    python3 perfbench/run.py --workload reflector-tcs --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the repository libraries plus adtc_perfbench) under
.bench_build/perfbench, then runs the seeded world again and again in
fresh processes for --seconds, always with the same seed, and reports
medians over the processes. --trace 0 reports the end-to-end metrics;
--trace 1 alternates untraced and traced processes and reports the
per-layer metrics, a layer table and the tracing overhead.

Every process's end state (per-class packet counts and link hops) must
be identical, traced or not; a failed check or control-plane call makes
the result incorrect. `attempted` counts the world runs and
control-plane calls made, `failed` those that failed. The last stdout
line is the JSON result; earlier lines carry the host fingerprint and
the layer table.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "adtc_perfbench"

WORKLOADS = ("reflector-tcs", "ring-flood", "deploy-churn")
MIN_RUNS = 3
RUN_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("hops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("goodput", "ratio"),
    ("attack_leak", "ratio"),
)

PER_LAYER_UNITS = {
    "sim.events": "count",
    "sim.events_per_hop": "ratio",
    "sim.self_s": "s",
    "sim.epochs": "count",
    "sim.cross_shard_events": "count",
    "net.hops": "count",
    "net.queue_drops": "count",
    "device.calls": "count",
    "device.busy_s": "s",
    "device.ns_p50": "ns",
    "device.ns_p99": "ns",
    "device.fast_path_share": "ratio",
    "device.fast_time_share": "ratio",
    "device.fast_ns_p50": "ns",
    "device.redirected_ns_p50": "ns",
    "device.flow_cache_hit_ratio": "ratio",
    "device.flow_cache_entries_max": "count",
    "device.stage_runs_per_redirected": "ratio",
    "host.server.calls": "count",
    "host.server.busy_s": "s",
    "host.server.ns_p99": "ns",
    "host.server.half_open_max": "count",
    "host.client.busy_s": "s",
    "host.other.busy_s": "s",
    "ctrl.calls": "count",
    "ctrl.deploy_ms_p50": "ms",
    "ctrl.deploy_ms_p99": "ms",
    "ctrl.withdraw_ms_p50": "ms",
    "ctrl.withdraw_ms_p99": "ms",
    "ctrl.busy_s": "s",
    "ctrl.run_calls": "count",
    "ctrl.run_busy_s": "s",
    "ctrl.devices_per_deploy": "count",
    "ctrl.dedup_records": "count",
    "analysis.plan_paths_per_deploy": "count",
    "analysis.plans_proven": "count",
    "trace.overhead": "ratio",
}

# Rows of the layer table: self time of each wrapped layer within run_s;
# "sim" is the rest (engine, links, router forwarding, host timers).
LAYER_ROWS = (
    ("sim", "sim.self_s"),
    ("device", "device.busy_s"),
    ("host.server", "host.server.busy_s"),
    ("host.client", "host.client.busy_s"),
    ("host.other", "host.other.busy_s"),
    ("ctrl", "ctrl.run_busy_s"),
)


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "adtc_perfbench", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            raise BenchError("build failed: " + " ".join(step))


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_world(workload, seed, traced, spans=None):
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--trace", "1" if traced else "0"]
    if spans is not None:
        command += ["--spans", str(spans)]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"{workload} run timed out") from error
    if done.returncode != 0 or not done.stdout.strip():
        log(done.stderr)
        raise BenchError(f"{workload} run exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(runs):
    def median_of(per_run):
        return statistics.median(per_run(r) for r in runs)

    return {
        "setup_s": median_of(lambda r: r["setup_s"]),
        "run_s": median_of(lambda r: r["run_s"]),
        "hops_per_s": median_of(lambda r: r["hops"] / r["run_s"]),
        "peak_rss_mb": median_of(lambda r: r["peak_rss_mb"]),
        "goodput": median_of(lambda r: r["goodput"]),
        "attack_leak": median_of(lambda r: r["attack_leak"]),
    }


def per_layer(traced, untraced):
    values = {}
    for name in PER_LAYER_UNITS:
        if name != "trace.overhead":
            values[name] = statistics.median(r["layers"][name] for r in traced)
    values["trace.overhead"] = (
        statistics.median(r["run_s"] for r in traced) /
        statistics.median(r["run_s"] for r in untraced) - 1.0)
    return values


def layer_table(workload, seed, run):
    """Self time per layer of one traced run; the rows sum to its run_s."""
    layers = run["layers"]
    lines = [f"# layer table: {workload} seed {seed}, traced run with the "
             f"median run_s ({run['run_s']:.4f} s)"]
    total = 0.0
    for row, key in LAYER_ROWS:
        total += layers[key]
        lines.append(f"#   {row:<12} {layers[key]:9.4f} s "
                     f"{100 * layers[key] / run['run_s']:6.1f}%")
    lines.append(f"#   {'sum':<12} {total:9.4f} s = run_s")
    lines.append(f"#   device fast path: {layers['device.fast_path_share']:.3f}"
                 f" of calls, {layers['device.fast_time_share']:.3f} of "
                 f"device time")
    return lines


def measure(args):
    fingerprint = {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "revision": source_revision(),
    }
    reports = BUILD / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    spans = reports / f"{args.workload}-seed{args.seed}.spans.jsonl"

    # Fresh processes until the next one would end past --seconds.
    untraced, traced, lengths = [], [], []
    start = time.monotonic()
    while True:
        begun = time.monotonic()
        untraced.append(run_world(args.workload, args.seed, False))
        if args.trace:
            traced.append(run_world(args.workload, args.seed, True, spans))
        lengths.append(time.monotonic() - begun)
        projected = time.monotonic() - start + statistics.median(lengths)
        if len(untraced) >= MIN_RUNS and projected > args.seconds:
            break

    fingerprint["build_type"] = untraced[0]["build_type"]
    fingerprint["compiler"] = untraced[0]["compiler"]
    print("# host: " + json.dumps(fingerprint, sort_keys=True))

    failures = []
    for run in untraced + traced:
        failures += [f"{'traced' if run['traced'] else 'untraced'} run: {f}"
                     for f in run["failures"]]
    digests = sorted({run["digest"] for run in untraced + traced})
    if len(digests) != 1:
        failures.append("end state differs between runs of one seed: " +
                        ", ".join(digests))

    values = end_to_end(untraced)
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced "
          f"and {len(traced)} traced runs; end state {digests[0]}")
    if args.trace:
        values = per_layer(traced, untraced)
        units = PER_LAYER_UNITS
        by_run_s = sorted(traced, key=lambda r: r["run_s"])
        median_run = by_run_s[(len(by_run_s) - 1) // 2]
        table = layer_table(args.workload, args.seed, median_run)
        print("\n".join(table))
    else:
        units = dict(END_TO_END)
        table = []
    for failure in failures:
        print("# FAILED: " + failure)

    report = {"host": fingerprint, "workload": args.workload,
              "seed": args.seed, "trace": args.trace, "metrics": values,
              "failures": failures, "layer_table": table,
              "runs": untraced + traced}
    suffix = "trace" if args.trace else "e2e"
    with open(reports / f"{args.workload}-seed{args.seed}.{suffix}.json",
              "w") as out:
        json.dump(report, out, indent=1)

    runs = untraced + traced
    attempted = len(runs) + sum(run["ctrl_calls"] for run in runs)
    failed = (sum(1 for run in runs if run["failures"]) +
              sum(run["ctrl_failed"] for run in runs))
    result = {
        "correct": not failures and failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        build()
        return measure(args)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
