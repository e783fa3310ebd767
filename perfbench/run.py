#!/usr/bin/env python3
"""Host-speed benchmark for the CDCS simulator.

Builds perfbench_driver (perfbench/CMakeLists.txt, Release) into the
build directory, runs one workload and prints, as the last line of
stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, measured with tracing off; with --trace 1 they are the
per-layer metrics, from a separate pass with the simulator's Tracer and
StatRegistry on plus driver loops around each layer's public calls.

    python3 perfbench/run.py --workload fig11_cmp64 --seed 1 \\
        --seconds 20 --trace 0

Exit status is 0 only when the build succeeded and every correctness
check held. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure and build the driver; returns its path or None."""
    out = build_dir()
    driver = os.path.join(out, "perfbench_driver")
    cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(out, "CMakeCache.txt")) \
        else [cmd]
    steps.append(["cmake", "--build", out, "--target", "perfbench_driver",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        res = subprocess.run(step, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
        if res.returncode != 0:
            log(res.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return None
    return driver


def quantile_summary(values):
    """Median, the highest percentile with >= 10 samples beyond it, n."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    for pct in (99, 95, 90, 75):
        if n - math.ceil(n * pct / 100.0) >= 10:
            tail = (pct, ordered[math.ceil(n * pct / 100.0) - 1])
            break
    return statistics.median(ordered), tail, n


def spans(trace_path):
    """Durations (s) of the Chrome-trace B/E spans, by name."""
    with open(trace_path) as f:
        events = json.load(f)
    open_spans = {}
    durations = {}
    for ev in events:
        if ev.get("ph") == "B":
            open_spans.setdefault((ev["tid"], ev["name"]), []).append(
                ev["ts"])
        elif ev.get("ph") == "E":
            stack = open_spans.get((ev["tid"], ev["name"]))
            if stack:
                start = stack.pop()
                durations.setdefault(ev["name"], []).append(
                    (ev["ts"] - start) / 1e6)
    return durations


def per_mix_median(raw, name):
    """Mean over mixes of each mix's median repetition.

    Mixes differ in host speed, so a median pooled over all repetitions
    jumps between mixes as noise reorders them; a median per mix and a
    mean across mixes does not.
    """
    by_mix = {}
    for mix, value in zip(raw["mix"], raw[name]):
        by_mix.setdefault(mix, []).append(value)
    return statistics.mean(statistics.median(v) for v in by_mix.values())


def timed_metrics(raw):
    metrics = {
        "wall_s": (per_mix_median(raw, "wall_s"), "s"),
        "accesses_per_s": (per_mix_median(raw, "accesses_per_s"), "1/s"),
        "setup_s": (per_mix_median(raw, "setup_s"), "s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "ws_gmean_cdcs": (raw["ws_gmean_cdcs"], "ratio"),
        "onchip_lat_cdcs": (raw["onchip_lat_cdcs"], "cycles"),
    }
    for name in ("wall_s", "setup_s", "accesses_per_s"):
        med, tail, n = quantile_summary(raw[name])
        tail_s = "p%d=%.6g" % tail if tail else "no percentile with 10 " \
            "samples beyond it"
        print("%s: reported=%.6g pooled median=%.6g %s n=%d"
              % (name, metrics[name][0], med, tail_s, n))
    return metrics


def traced_metrics(raw):
    layer = dict(raw["layer"])
    durations = spans(raw["trace_file"])
    access = durations.pop("access", [])
    reconfig = durations.pop("reconfig", [])
    durations.pop("cache-io", None)
    # What is left is one span per simulated ExperimentRunner job.
    jobs = [d for name, ds in durations.items() for d in ds]
    ns_per_access = sum(access) * 1e9 / raw["accesses"]
    layer["access_path.ns_per_access"] = ns_per_access
    layer["access_path.unattributed_share"] = \
        1.0 - raw["explained_ns_per_access"] / ns_per_access
    layer["epoch.reconfig_ms"] = \
        statistics.mean(reconfig) * 1e3 if reconfig else 0.0
    layer["epoch.reconfig_share"] = sum(reconfig) / sum(jobs)
    quart = statistics.quantiles(jobs, n=4) if len(jobs) > 1 \
        else [jobs[0]] * 3
    layer["runner.job_s.p50"] = statistics.median(jobs)
    layer["runner.job_s.p75"] = quart[2]
    layer["pool.efficiency"] = \
        sum(jobs) / (raw["last_traced_wall_s"] * raw["workers"])
    base = raw["untraced_wall_s"]
    layer["trace.overhead_pct"] = (raw["traced_wall_s"] / base - 1) * 100
    layer["obs.timing_overhead_pct"] = \
        (raw["timing_wall_s"] / base - 1) * 100
    print("runner.job_s: median=%.6g n=%d; access spans n=%d; "
          "reconfig spans n=%d" % (statistics.median(jobs), len(jobs),
                                  len(access), len(reconfig)))
    return layer


def validate(result, expected):
    """Self-test of one result line against BENCHMARK.json's metrics."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys differ from the contract")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    for m in expected:
        got = result["metrics"].get(m["name"])
        if got is None:
            problems.append("missing metric " + m["name"])
        elif got["unit"] != m["unit"]:
            problems.append("unit mismatch for " + m["name"])
        elif not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            problems.append("non-finite value for " + m["name"])
    for name, got in result["metrics"].items():
        if not NAME_RE.match(name) or not UNIT_RE.match(got["unit"]):
            problems.append("bad metric name or unit: " + name)
    if len(result["metrics"]) != len(expected):
        problems.append("metrics other than the declared ones")
    return problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        bench = load_benchmark()
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        log("perfbench: unknown workload %r (known: %s)"
            % (args.workload, ", ".join(names)))
        return 2
    driver = build()
    if driver is None:
        return 3

    tmp = os.path.join(ROOT, ".bench_tmp",
                       "%s-%d" % (args.workload, os.getpid()))
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--mode", "traced" if args.trace else "timed", "--tmp", tmp]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if res.returncode != 0 or not res.stdout.strip():
            log("perfbench: driver failed with status %d" % res.returncode)
            return 4
        raw = json.loads(res.stdout.strip().splitlines()[-1])
        if args.trace:
            values = traced_metrics(raw)
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            metrics = {n: (values.get(n), u) for n, u in units.items()}
            expected = bench["per_layer"]
        else:
            metrics = timed_metrics(raw)
            expected = bench["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass  # Another run still uses it.

    for failure in raw["failures"]:
        log("perfbench: check failed: " + failure)
    result = {
        "correct": raw["failed"] == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": v, "unit": u}
                    for n, (v, u) in metrics.items()},
    }
    problems = validate(result, expected)
    for p in problems:
        log("perfbench: self-test: " + p)
    if problems:
        result["correct"] = False
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
