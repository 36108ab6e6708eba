#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-test

The first form builds the perfbench executable (the library from ../src plus
the workloads in perfbench/src) into .bench_build/perfbench, runs one
workload, prints its output, and then the result object as the last line:
the end-to-end (--trace 0) or per-layer (--trace 1) metrics that
BENCHMARK.json names, with their units. With --trace 1 the benchmark's
spans are written to .bench_build/traces/. The second form runs every
workload in smoke mode and checks the results against BENCHMARK.json, zero
failed ops, and the output digests (one seed twice: equal; two seeds:
different).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("serve_miss", "serve_hit", "query_shapley")


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/", 2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 3)
    step = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def metric_units(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return [(m["name"], m["unit"]) for m in group]


def run(workload, seed, seconds, trace, smoke=False):
    """Runs the benchmark once; returns (output lines, result, env).

    The result holds the BENCHMARK.json group of metrics with units. An
    end-to-end metric the run did not compute is an error; a per-layer one
    reads 0 (the workload does not reach that layer) and is listed in
    env["not_reached"].
    """
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = os.path.join(BUILD_ROOT, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    # Set-up, warm-up and the traced run's probes come on top of --seconds.
    timeout_s = 2 * seconds + 60
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %g s" % (workload, timeout_s), 4)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or len(lines) < 2:
        sys.stdout.write(proc.stdout)
        fail("%s exited with code %d" % (workload, proc.returncode), 4)
    raw = json.loads(lines[-1])
    env = json.loads(lines[-2])
    computed = raw["metrics"]
    missing = [name for name, _ in metric_units(trace) if name not in computed]
    if not trace and missing:
        sys.stdout.write(proc.stdout)
        fail("%s did not compute %s" % (workload, ", ".join(missing)), 5)
    env["not_reached"] = missing
    result = dict(raw)
    result["metrics"] = {
        name: {"value": computed.get(name, 0.0), "unit": unit}
        for name, unit in metric_units(trace)}
    return lines, result, env


def self_test():
    build()
    problems = []
    reached = set()
    for workload in WORKLOADS:
        _, first, env1 = run(workload, 1, 1, 0, smoke=True)
        _, again, env2 = run(workload, 1, 1, 0, smoke=True)
        _, other, env3 = run(workload, 2, 1, 0, smoke=True)
        _, traced, env4 = run(workload, 1, 1, 1, smoke=True)
        reached.update(set(traced["metrics"]) - set(env4["not_reached"]))
        for name, result in (("seed 1", first), ("seed 1 again", again),
                             ("seed 2", other), ("traced", traced)):
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s %s: correct=%s failed=%d" % (
                    workload, name, result["correct"], result["failed"]))
        if env1["digest"] != env2["digest"]:
            problems.append("%s: one seed gave two digests" % workload)
        if env1["digest"] == env3["digest"]:
            problems.append("%s: two seeds gave one digest" % workload)
        print("%-14s digests %s %s %s, %d+%d+%d+%d ops" % (
            workload, env1["digest"], env2["digest"], env3["digest"],
            first["attempted"], again["attempted"], other["attempted"],
            traced["attempted"]))
    # A per-layer metric no workload computes is a misspelt or lost name.
    never = sorted(name for name, _ in metric_units(1) if name not in reached)
    if never:
        problems.append("no workload computes " + ", ".join(never))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build()
    lines, result, env = run(args.workload, args.seed, args.seconds,
                             args.trace, args.smoke)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps({"computed": json.loads(lines[-1])["metrics"],
                      "not_reached": env["not_reached"]}))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
