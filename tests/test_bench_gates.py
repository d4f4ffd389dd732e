#!/usr/bin/env python3
"""Self-test of the bench gates in bench/baselines/.

Usage: test_bench_gates.py REPO_ROOT [STATE_TRANSFER_WAN_BINARY]

Part 1: every checked-in baseline passes its own gates when compared with
itself as the report. For every gate bound, a copy with only that metric
pushed just past the bound fails, naming the metric, and a copy with the
metric on the bound satisfies that bound. A report that is missing a
metric, carries a non-numeric one or names another bench fails too.

Part 2 (with the binary): run bench/state_transfer_wan and check its output
against its baseline through the command line, as CI does.
"""

import copy
import importlib.util
import pathlib
import subprocess
import sys
import tempfile


def load_checker(root):
    spec = importlib.util.spec_from_file_location(
        "check_report", root / "scripts" / "check_report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The documented gate semantics, kept apart from check_report.py's own table
# so a wrong comparison there cannot hide: kind -> (limit, limit inclusive?,
# direction a value must move to fail).
def gate_limit(kind, bound, base):
    return {
        "min": (bound, True, -1),
        "max": (bound, True, +1),
        "above": (bound, False, -1),
        "max_drop": (base * (1.0 - bound), True, -1),
        "max_rise": (base * (1.0 + bound), True, +1),
    }[kind]


def self_check(checker, path):
    failures = []

    def expect(condition, what):
        if not condition:
            failures.append(f"{path.name}: {what}")

    baseline = checker.load(path)
    report = {k: v for k, v in baseline.items() if k != "gates"}
    errors = checker.compare_bench(report, baseline)
    expect(not errors, f"baseline fails its own gates: {errors}")
    if errors:
        return failures
    expect(baseline["gates"], "baseline has no gates")

    checks = 0
    for name, gate in baseline["gates"].items():
        for kind, bound in gate.items():
            limit, inclusive, outward = gate_limit(
                kind, bound, baseline["metrics"][name])
            step = max(abs(limit), 1.0) * 1e-9
            past = limit + outward * step if inclusive else limit
            inside = limit if inclusive else limit - outward * step
            pushed = copy.deepcopy(report)
            pushed["metrics"][name] = past
            errors = checker.compare_bench(pushed, baseline)
            expect(errors and all(name in e for e in errors),
                   f"{name} pushed past {kind} {bound} gave {errors}")
            # On the bound (just inside a strict one) this bound holds;
            # other bounds of the same gate may still object.
            pushed["metrics"][name] = inside
            errors = checker.compare_bench(pushed, baseline)
            expect(not any(f"fails gate {kind} " in e for e in errors),
                   f"{name} on its {kind} {bound} bound gave {errors}")
            checks += 1

    name = next(iter(baseline["metrics"]))
    for label, mutate in (
            ("missing metric", lambda r: r["metrics"].pop(name)),
            ("non-numeric metric",
             lambda r: r["metrics"].__setitem__(name, None)),
            ("other bench", lambda r: r.__setitem__("bench", "other"))):
        broken = copy.deepcopy(report)
        mutate(broken)
        expect(checker.compare_bench(broken, baseline), f"{label} passed")
    print(f"{path.name}: {checks} gate bounds bite")
    return failures


def end_to_end(root, binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "BENCH_transfer.json"
        subprocess.run([binary, str(out)], check=True,
                       stdout=subprocess.DEVNULL)
        result = subprocess.run(
            [sys.executable, str(root / "scripts" / "check_report.py"),
             str(out), "--baseline",
             str(root / "bench" / "baselines" /
                 "BENCH_transfer.baseline.json")])
    return [] if result.returncode == 0 else ["state_transfer_wan fails "
                                              "its baseline's gates"]


def main():
    root = pathlib.Path(sys.argv[1])
    checker = load_checker(root)
    baselines = sorted((root / "bench" / "baselines").glob("*.baseline.json"))
    failures = [] if baselines else ["no baselines found"]
    for path in baselines:
        failures += self_check(checker, path)
    if len(sys.argv) > 2:
        failures += end_to_end(root, sys.argv[2])
    for msg in failures:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
