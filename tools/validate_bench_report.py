#!/usr/bin/env python3
"""Validates a BENCH_<id>.json run report against the expected schema.

Usage: validate_bench_report.py BENCH_e02.json [--require-telemetry]
           [--require-empty-trace] [--provenance BENCH_<id>.provenance.jsonl]

Checks (stdlib only, no jsonschema dependency):
  * the report parses as JSON and carries id/claim/threads/metrics/notes/
    telemetry/trace_file;
  * telemetry holds counter and histogram maps; with --require-telemetry
    (an XAI_TELEMETRY=1 build) the counter snapshot must include a positive
    "model/evals" and every histogram must expose count/sum/p50/p95/p99;
  * the referenced Chrome trace file loads as JSON with a traceEvents list
    (non-empty when telemetry is required); --require-empty-trace instead
    asserts zero events — the XAI_TELEMETRY=0 job's proof that span
    recording compiles out entirely;
  * with --provenance, every line of the provenance JSONL carries the full
    per-request schema (typed fields, complete=true, non-zero decimal
    trace_id, non-negative timings, coalesced implies coalesced_onto).
    Provenance is a product feature, so this check runs in telemetry-off
    jobs too.

Exit code 0 on success; prints the first violation and exits 1 otherwise.
"""

import json
import os
import sys

PROVENANCE_SCHEMA = {
    "trace_id": str, "root_span_id": str, "tenant": str, "model": str,
    "kind": str, "requested_tier": str, "served_tier": str,
    "algorithm": str, "degraded": bool, "cache_hit": bool,
    "coalesced": bool, "coalesced_onto": str, "planned_evals": int,
    "used_evals": int, "simd_backend": str, "batch_size": int,
    "queue_ms": (int, float), "compute_ms": (int, float),
    "total_ms": (int, float), "deadline_met": bool, "shed": bool,
    "complete": bool,
}

# bench_e23's acceptance gates: *_ok metrics are computed by the bench
# itself (1.0 = the gate held); the two absolutes are restated here so a
# bench bug that stops computing them fails loudly.
E23_GATES = {
    "arrival_rate_ok": 1.0,
    "shed_rate_bounded_ok": 1.0,
    "torn_responses": 0.0,
    "session_speedup_ok": 1.0,
    "session_identical_to_stateless": 1.0,
    "determinism_bit_identical": 1.0,
}

# bench_e25's acceptance gates. The bit-identity metrics are exact — the
# columnar engine must reproduce the row engine to the last bit (values,
# types, provenance polynomials) at 1/4/8 threads. The speedup floors sit
# below the numbers measured on the 1-CPU CI container (scan ~60x, filter
# ~3.2-3.6x, aggregate ~6.5x, join ~1.8-2.0x, compiled lineage ~1.2-1.4x,
# shared-scan Shapley ~36-67x): the engine claim is >= 3x on the
# scan/filter/aggregate kernels; the join is bounded by output
# materialization and the lineage micro by the interpreter's own
# short-circuiting, so their floors are correspondingly lower.
E25_EQ_GATES = {
    "pipeline_bit_identical_t1": 1.0,
    "pipeline_bit_identical_t4": 1.0,
    "pipeline_bit_identical_t8": 1.0,
    "lineage_identical": 1.0,
    "shapley_bit_identical": 1.0,
}
E25_FLOOR_GATES = {
    "scan_speedup": 3.0,
    "filter_speedup": 3.0,
    "aggregate_speedup": 3.0,
    "join_speedup": 1.5,
    "lineage_eval_speedup": 1.0,
    "shapley_speedup_max": 2.0,
}


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_provenance(path):
    records = 0
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{line_no}"
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    fail(f"{where}: bad JSON: {e}")
                for key, typ in PROVENANCE_SCHEMA.items():
                    if key not in record:
                        fail(f"{where}: missing {key!r}")
                    value = record[key]
                    # bool is an int subclass; keep int fields strictly int.
                    if isinstance(value, bool) and typ is not bool:
                        fail(f"{where}: {key!r} is bool, want {typ}")
                    if not isinstance(value, typ):
                        fail(f"{where}: {key!r} is "
                             f"{type(value).__name__}")
                # Shed records never executed, so they are (by design) not
                # complete; anything that did execute must be.
                if not record["complete"] and not record["shed"]:
                    fail(f"{where}: provenance record not complete")
                if record["complete"] and record["shed"]:
                    fail(f"{where}: record is both complete and shed")
                if not record["trace_id"].isdigit():
                    fail(f"{where}: trace_id {record['trace_id']!r} is not "
                         "a decimal string")
                if int(record["trace_id"]) == 0 and not record["shed"]:
                    fail(f"{where}: trace_id is zero on a non-shed record")
                for key in ("queue_ms", "compute_ms", "total_ms",
                            "planned_evals", "used_evals", "batch_size"):
                    if record[key] < 0:
                        fail(f"{where}: {key} is negative")
                if record["coalesced"] and record["coalesced_onto"] == "0":
                    fail(f"{where}: coalesced record has no leader trace")
                records += 1
    except OSError as e:
        fail(f"cannot load provenance {path}: {e}")
    if records == 0:
        fail(f"{path}: no provenance records")
    return records


def main():
    usage = (f"usage: {sys.argv[0]} BENCH_<id>.json [--require-telemetry] "
             "[--require-empty-trace] [--provenance FILE] [--e23] [--e25]")
    require_telemetry = False
    require_empty_trace = False
    check_e23 = False
    check_e25 = False
    provenance_path = None
    positional = []
    argv = sys.argv[1:]
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--require-telemetry":
            require_telemetry = True
        elif a == "--require-empty-trace":
            require_empty_trace = True
        elif a == "--e23":
            check_e23 = True
        elif a == "--e25":
            check_e25 = True
        elif a == "--provenance":
            if i + 1 >= len(argv):
                fail(usage)
            i += 1
            provenance_path = argv[i]
        elif a.startswith("--"):
            fail(f"unknown flag {a!r}\n{usage}")
        else:
            positional.append(a)
        i += 1
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
        # Every bench drives work through the model, a valuation utility,
        # the flat TreeSHAP kernel, or the columnar relational operators;
        # one of these counters must have fired (e08's kNN utility never
        # touches a Model, TreeSHAP's tree walks are not model evaluations,
        # and e25's operators process relations rather than models, so
        # model/evals alone is too strict).
        work = {name: telemetry["counters"].get(name, 0)
                for name in ("model/evals", "valuation/utility_calls",
                             "tree_shap/flat_rows",
                             "relational/columnar_rows")}
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

    if check_e23:
        if report["id"] != "e23":
            fail(f"--e23 against report id {report['id']!r}")
        for name, want in E23_GATES.items():
            got = report["metrics"].get(name)
            if got is None:
                fail(f"e23 gate metric {name!r} missing")
            if got != want:
                fail(f"e23 gate {name} = {got}, want {want}")
        if report["metrics"].get("open_loop_shed", 0) <= 0:
            fail("e23 ran without exercising the shed path")

    if check_e25:
        if report["id"] != "e25":
            fail(f"--e25 against report id {report['id']!r}")
        for name, want in E25_EQ_GATES.items():
            got = report["metrics"].get(name)
            if got is None:
                fail(f"e25 gate metric {name!r} missing")
            if got != want:
                fail(f"e25 gate {name} = {got}, want {want}")
        for name, floor in E25_FLOOR_GATES.items():
            got = report["metrics"].get(name)
            if got is None:
                fail(f"e25 gate metric {name!r} missing")
            if got < floor:
                fail(f"e25 gate {name} = {got}, want >= {floor}")
        counters = telemetry["counters"]
        if counters.get("relational/columnar_rows", 0) <= 0:
            fail("e25 ran without the columnar operators counting rows")

    provenance_records = 0
    if provenance_path is not None:
        provenance_records = check_provenance(provenance_path)

    overhead = report["metrics"].get("telemetry_overhead_pct")
    if overhead is not None:
        print(f"telemetry overhead on hot loop: {overhead:+.2f}%")

    print(f"OK: {report_path} ({len(report['metrics'])} metrics, "
          f"{len(telemetry['counters'])} counters, "
          f"{len(telemetry['histograms'])} histograms, "
          f"{len(events)} trace events"
          + (f", {provenance_records} provenance records"
             if provenance_path else "") + ")")


if __name__ == "__main__":
    main()
