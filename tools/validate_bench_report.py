#!/usr/bin/env python3
"""Validates a BENCH_<id>.json run report against the expected schema.

Usage: validate_bench_report.py BENCH_e02.json [--require-telemetry]
           [--require-empty-trace]

Checks (stdlib only, no jsonschema dependency):
  * the report parses as JSON and carries id/claim/threads/metrics/notes/
    telemetry/trace_file;
  * telemetry holds counter and histogram maps; with --require-telemetry
    (an XAI_TELEMETRY=1 build) a work counter ("model/evals", or
    "valuation/utility_calls" for e08's kNN utility) must be positive and
    every histogram must expose count/sum/p50/p95/p99;
  * the referenced Chrome trace file loads as JSON with a traceEvents list
    (non-empty when telemetry is required); --require-empty-trace instead
    asserts zero events — the XAI_TELEMETRY=0 job's proof that span
    recording compiles out entirely.

Exit code 0 on success; prints the first violation and exits 1 otherwise.
"""

import json
import os
import sys


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    usage = (f"usage: {sys.argv[0]} BENCH_<id>.json [--require-telemetry] "
             "[--require-empty-trace]")
    require_telemetry = False
    require_empty_trace = False
    positional = []
    for a in sys.argv[1:]:
        if a == "--require-telemetry":
            require_telemetry = True
        elif a == "--require-empty-trace":
            require_empty_trace = True
        elif a.startswith("--"):
            fail(f"unknown flag {a!r}\n{usage}")
        else:
            positional.append(a)
    if require_telemetry and require_empty_trace:
        fail("--require-telemetry and --require-empty-trace conflict")
    if len(positional) != 1:
        fail(usage)
    report_path = positional[0]

    try:
        with open(report_path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {report_path}: {e}")

    for key, typ in [("id", str), ("claim", str), ("threads", int),
                     ("telemetry_compiled", bool), ("metrics", dict),
                     ("notes", dict), ("telemetry", dict),
                     ("trace_file", str)]:
        if key not in report:
            fail(f"missing top-level key {key!r}")
        if not isinstance(report[key], typ):
            fail(f"key {key!r} is {type(report[key]).__name__}, "
                 f"want {typ.__name__}")

    if report["threads"] < 1:
        fail("threads must be >= 1")
    for name, value in report["metrics"].items():
        if not isinstance(value, (int, float)):
            fail(f"metric {name!r} is not numeric")

    telemetry = report["telemetry"]
    for key in ("counters", "histograms"):
        if not isinstance(telemetry.get(key), dict):
            fail(f"telemetry.{key} missing or not an object")

    if require_telemetry:
        if not report["telemetry_compiled"]:
            fail("--require-telemetry but report says telemetry_compiled "
                 "is false")
        # Every reporting bench drives work through the model or a
        # valuation utility; one of these counters must have fired (e08's
        # kNN utility never touches a Model, so model/evals alone is too
        # strict).
        work = {name: telemetry["counters"].get(name, 0)
                for name in ("model/evals", "valuation/utility_calls")}
        if not any(isinstance(v, int) and v > 0 for v in work.values()):
            fail(f"no work counter is positive: {work}")
        if not telemetry["histograms"]:
            fail("histogram snapshot is empty")
    for name, hist in telemetry["histograms"].items():
        for stat in ("count", "sum", "p50", "p95", "p99"):
            if stat not in hist:
                fail(f"histogram {name!r} missing {stat!r}")
        if hist["count"] > 0 and not (hist["p50"] <= hist["p95"]
                                      <= hist["p99"]):
            fail(f"histogram {name!r} quantiles not monotone: {hist}")

    trace_path = os.path.join(os.path.dirname(report_path) or ".",
                              report["trace_file"])
    try:
        with open(trace_path) as f:
            trace = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load chrome trace {trace_path}: {e}")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        fail("chrome trace missing traceEvents list")
    if require_telemetry and not events:
        fail("chrome trace has no events in a telemetry-enabled build")
    if require_empty_trace and events:
        fail(f"chrome trace has {len(events)} events but the build claims "
             "telemetry compiled out")
    for e in events[:100]:
        for key in ("name", "ph", "ts", "dur", "pid", "tid"):
            if key not in e:
                fail(f"trace event missing {key!r}: {e}")

    overhead = report["metrics"].get("telemetry_overhead_pct")
    if overhead is not None:
        print(f"telemetry overhead on hot loop: {overhead:+.2f}%")

    print(f"OK: {report_path} ({len(report['metrics'])} metrics, "
          f"{len(telemetry['counters'])} counters, "
          f"{len(telemetry['histograms'])} histograms, "
          f"{len(events)} trace events)")


if __name__ == "__main__":
    main()
