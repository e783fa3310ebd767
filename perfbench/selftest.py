#!/usr/bin/env python3
"""Self-test of the benchmark definition and its output.

Checks that BENCHMARK.json parses and keeps the benchmark contract,
that perfbench/layer_map.json maps every per-layer metric to
declared end-to-end metrics and workloads, and (unless --no-run) that
a short run of every workload prints every declared metric, by a
well-formed name, with its unit, and passes its correctness checks.

    python3 perfbench/selftest.py [--no-run] [--seconds 1]

Exit status is 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BENCH_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
              "per_layer"}


def check_definition(bench, layer_map):
    problems = []
    if set(bench) != BENCH_KEYS:
        problems.append("BENCHMARK.json keys: %s" % sorted(bench))
    workloads = [w["name"] for w in bench["workloads"]]
    if not 2 <= len(workloads) <= 8:
        problems.append("2 to 8 workloads expected")
    names = workloads + [m["name"] for m in bench["end_to_end"]] + \
        [m["name"] for m in bench["per_layer"]]
    for name in names:
        if not run.NAME_RE.match(name):
            problems.append("bad name %r" % name)
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or "\n" in w["why"] or \
                len(w["why"]) > 200:
            problems.append("workload %s: name and one-line why" % w["name"])
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            problems.append("end-to-end metric %s malformed" % m["name"])
    for m in bench["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            problems.append("per-layer metric %s malformed" % m["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not run.UNIT_RE.match(m["unit"]) or \
                m["better"] not in ("higher", "lower"):
            problems.append("metric %s: unit or direction" % m["name"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or \
            setup[0]["better"] != "lower" or setup[0]["bound"] < max(
                m["bound"] for m in bench["end_to_end"]):
        problems.append("setup_s must be in s, lower, with the largest bound")

    end_to_end = {m["name"] for m in bench["end_to_end"]}
    mapped = {}
    for layer, rows in layer_map["layers"].items():
        for name, row in rows.items():
            mapped[name] = layer
            moves = [row["moves"], row.get("also_moves")]
            for target in moves:
                if target is not None and target not in end_to_end:
                    problems.append("%s moves undeclared %s" % (name, target))
            for w in row["on"] + row["unchanged_on"]:
                if w not in workloads:
                    problems.append("%s names unknown workload %s"
                                    % (name, w))
    for m in bench["per_layer"]:
        if m["name"] not in mapped:
            problems.append("per-layer metric %s has no map entry"
                            % m["name"])
    for name in mapped:
        if name not in {m["name"] for m in bench["per_layer"]}:
            problems.append("map entry %s is not a per-layer metric" % name)
    return problems


def check_runs(bench, seconds):
    problems = []
    for w in bench["workloads"]:
        for trace, expected in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            res = subprocess.run(
                [sys.executable, os.path.join(run.HERE, "run.py"),
                 "--workload", w["name"], "--seed", "1",
                 "--seconds", str(seconds), "--trace", str(trace)],
                stdout=subprocess.PIPE, text=True)
            label = "%s --trace %d" % (w["name"], trace)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                problems.append("%s: exit status %d" % (label,
                                                        res.returncode))
                continue
            result = json.loads(lines[-1])
            problems += ["%s: %s" % (label, p)
                         for p in run.validate(result, expected)]
            if not result["correct"] or result["failed"]:
                problems.append("%s: correctness checks failed" % label)
            print("%s: %d metrics, %d checks" % (
                label, len(result["metrics"]), result["attempted"]))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--no-run", action="store_true")
    ap.add_argument("--seconds", type=float, default=1)
    args = ap.parse_args()
    bench = run.load_benchmark()
    with open(os.path.join(run.HERE, "layer_map.json")) as f:
        layer_map = json.load(f)
    problems = check_definition(bench, layer_map)
    if not args.no_run:
        problems += check_runs(bench, args.seconds)
    for p in problems:
        print("selftest: " + p, file=sys.stderr)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
