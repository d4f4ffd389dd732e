#!/usr/bin/env python3
"""Validate a simctl RunReport, or compare a bench document to its baseline.

RunReport mode (no --baseline) checks the structural contract of a
`simctl --report=FILE` document, documented in docs/OBSERVABILITY.md:
  * all top-level sections are present with the right JSON types;
  * the six lifecycle phases appear in order with sane values;
  * when the e2e latency came from the trace, the per-phase means sum to
    the end-to-end mean within 5% (they telescope, so in practice the
    difference is double rounding only);
  * the headline series exist and command counts are consistent.
--wan additionally requires the evidence of a WAN run.

Bench mode (--baseline) compares a gated bench document (bench/*.cpp via
bench::write_bench_json) with its checked-in reference,
bench/baselines/BENCH_<name>.baseline.json. Both share one shape:
    {"schema": "dynastar-bench-v1", "bench": NAME, "config": {...},
     "metrics": {"flat.dotted.name": number, ...}, "detail": {...}}
and the baseline adds "gates": {metric: {kind: bound, ...}}. The report
passes when its "bench" matches, every baseline metric is present, numeric
and finite in it, and every gate holds. Gate kinds:
    min: value >= bound            max: value <= bound
    above: value > bound
    max_drop: value >= baseline * (1 - bound)
    max_rise: value <= baseline * (1 + bound)
"config" and "detail" are informational and never compared.

Usage: check_report.py REPORT.json [--wan]
       check_report.py BENCH_x.json --baseline bench/baselines/BENCH_x.baseline.json
Exit code 0 on success, 1 with a message per violation otherwise.
"""

import argparse
import json
import math
import operator
import sys

EXPECTED_SECTIONS = {
    "meta": dict,
    "phases": list,
    "e2e": dict,
    "series": dict,
    "histograms": dict,
    "counters": dict,
    "repartitions": list,
    "chaos": list,
}

EXPECTED_PHASES = ["retry", "resolve", "order", "coordinate", "execute", "reply"]

META_KEYS = ["workload", "mode", "seed", "duration_s", "partitions",
             "clients", "trace_enabled", "trace_events"]

MIN_COMMANDS = 100


def check(report, min_commands, wan=False):
    errors = []

    def err(msg):
        errors.append(msg)

    for key, kind in EXPECTED_SECTIONS.items():
        if key not in report:
            err(f"missing top-level section {key!r}")
        elif not isinstance(report[key], kind):
            err(f"section {key!r} is {type(report[key]).__name__}, "
                f"expected {kind.__name__}")
    if errors:
        return errors  # structure too broken to continue

    meta = report["meta"]
    for key in META_KEYS:
        if key not in meta:
            err(f"meta is missing {key!r}")

    phases = report["phases"]
    names = [p.get("name") for p in phases]
    if names != EXPECTED_PHASES:
        err(f"phase names/order {names} != {EXPECTED_PHASES}")
    for p in phases:
        for field in ("mean_ms", "total_ms", "count"):
            if not isinstance(p.get(field), (int, float)):
                err(f"phase {p.get('name')!r} missing numeric {field!r}")
            elif p[field] < 0:
                err(f"phase {p.get('name')!r} has negative {field!r}")

    e2e = report["e2e"]
    for field in ("source", "commands", "mean_ms"):
        if field not in e2e:
            err(f"e2e is missing {field!r}")
    if errors:
        return errors

    commands = e2e["commands"]
    if commands < min_commands:
        err(f"only {commands} completed commands (need >= {min_commands})")

    if e2e["source"] == "trace":
        phase_sum = sum(p["mean_ms"] for p in phases)
        mean = e2e["mean_ms"]
        if mean <= 0:
            err(f"e2e mean_ms is {mean}, expected > 0")
        elif abs(phase_sum - mean) > 0.05 * mean:
            err(f"phase means sum to {phase_sum:.6f} ms but e2e mean is "
                f"{mean:.6f} ms (off by more than 5%)")
        for p in phases:
            if p["count"] != commands:
                err(f"phase {p['name']!r} counted {p['count']} commands, "
                    f"e2e counted {commands}")
    elif meta.get("trace_enabled"):
        err("trace was enabled but e2e.source is not 'trace'")

    for name in ("completed", "executed"):
        if name not in report["series"]:
            err(f"series {name!r} missing from report")
        elif report["series"][name].get("total", 0) <= 0:
            err(f"series {name!r} has non-positive total")
    if not any(name.startswith("server.executed{") for name in report["series"]):
        err("no labeled server.executed{...} series in report")

    # Overload-protection and state-transfer counters are pre-registered by
    # core::System, so every report must carry them (zero when idle).
    for name in ("server.shed", "oracle.shed", "client.retries_exhausted",
                 "transfer.chunks_sent", "transfer.chunks_retransmitted"):
        value = report["counters"].get(name)
        if not isinstance(value, (int, float)):
            err(f"counter {name!r} missing or non-numeric")
        elif value < 0:
            err(f"counter {name!r} is {value}, expected >= 0")

    if wan:
        # A WAN run must have exercised the link-capacity model (per-link
        # byte accounting only exists on profiled links) and — when the
        # scenario forces a lagging replica — the chunked transfer path.
        if not any(name.startswith("network.bytes_sent{")
                   for name in report["series"]):
            err("WAN run produced no labeled network.bytes_sent{link=...} "
                "series — the link-capacity model never engaged")
        installs = report["counters"].get("server.snapshot_installs", 0)
        if not installs or installs < 1:
            err("WAN run recorded no server.snapshot_installs — the forced "
                "state transfer never completed")
        if report["counters"].get("transfer.chunks_sent", 0) < 1:
            err("WAN run sent no state-transfer chunks — the chunk protocol "
                "never engaged")

    return errors


BENCH_SCHEMA = "dynastar-bench-v1"


# kind -> (limit from the gate's bound and the baseline's value, the
# comparison the report's value must pass against that limit)
GATE_KINDS = {
    "min": (lambda bound, base: bound, operator.ge),
    "max": (lambda bound, base: bound, operator.le),
    "above": (lambda bound, base: bound, operator.gt),
    "max_drop": (lambda bound, base: base * (1.0 - bound), operator.ge),
    "max_rise": (lambda bound, base: base * (1.0 + bound), operator.le),
}


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def compare_bench(report, baseline):
    errors = []
    for name, doc in (("report", report), ("baseline", baseline)):
        if doc.get("schema") != BENCH_SCHEMA:
            errors.append(f"{name} schema is {doc.get('schema')!r}, "
                          f"expected {BENCH_SCHEMA!r}")
    if report.get("bench") != baseline.get("bench"):
        errors.append(f"report is bench {report.get('bench')!r} but the "
                      f"baseline is for {baseline.get('bench')!r}")
    metrics = report.get("metrics")
    base_metrics = baseline.get("metrics")
    gates = baseline.get("gates")
    if not isinstance(metrics, dict):
        errors.append("report has no 'metrics' object")
    if not isinstance(base_metrics, dict) or not isinstance(gates, dict):
        errors.append("baseline needs 'metrics' and 'gates' objects")
    if errors:
        return errors

    for name, base in base_metrics.items():
        if not is_number(base):
            errors.append(f"baseline metric {name!r} is non-numeric")
        elif not is_number(metrics.get(name)):
            errors.append(f"metric {name!r} missing or non-numeric "
                          f"({metrics.get(name)!r})")
    for name, gate in gates.items():
        if not is_number(base_metrics.get(name)):
            errors.append(f"gate {name!r} names no numeric baseline metric")
            continue
        value = metrics.get(name)
        if not is_number(value):
            continue  # already reported above
        for kind, bound in gate.items():
            if kind not in GATE_KINDS or not is_number(bound):
                errors.append(f"gate {name!r} has a bad bound "
                              f"{kind!r}: {bound!r}")
                continue
            limit_of, passes = GATE_KINDS[kind]
            limit = limit_of(bound, base_metrics[name])
            if not passes(value, limit):
                errors.append(f"{name} = {value:.8g} fails gate {kind} "
                              f"{bound:g} (limit {limit:.8g})")
    return errors


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", help="path to a RunReport or bench JSON")
    parser.add_argument("--wan", action="store_true",
                        help="RunReport mode: additionally require the WAN "
                             "evidence — labeled network.bytes_sent{link=...} "
                             "series, >= 1 snapshot install and >= 1 "
                             "state-transfer chunk sent")
    parser.add_argument("--baseline",
                        help="bench mode: the baseline (with gates) to "
                             "compare the bench document against")
    args = parser.parse_args()

    try:
        report = load(args.report)
        baseline = load(args.baseline) if args.baseline else None
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_report: cannot read input: {exc}", file=sys.stderr)
        return 1

    if baseline is not None:
        errors = compare_bench(report, baseline)
    elif report.get("schema") == BENCH_SCHEMA:
        errors = ["bench documents are checked against a baseline: pass "
                  "--baseline bench/baselines/BENCH_<name>.baseline.json"]
    else:
        errors = check(report, MIN_COMMANDS, wan=args.wan)
    if errors:
        for msg in errors:
            print(f"check_report: {msg}", file=sys.stderr)
        return 1

    if baseline is not None:
        print(f"check_report: OK — bench {report['bench']!r}: "
              f"{len(baseline['metrics'])} metrics present, "
              f"{len(baseline['gates'])} gates hold")
        return 0
    phases = {p["name"]: p["mean_ms"] for p in report["phases"]}
    summary = " ".join(f"{k}={v:.3f}" for k, v in phases.items())
    print(f"check_report: OK — {int(report['e2e']['commands'])} commands, "
          f"e2e {report['e2e']['mean_ms']:.3f} ms ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
