#!/usr/bin/env python3
"""Validate a simctl --report=FILE RunReport JSON document.

Checks the structural contract documented in docs/OBSERVABILITY.md:
  * all top-level sections are present with the right JSON types;
  * the six lifecycle phases appear in order with sane values;
  * when the e2e latency came from the trace, the per-phase means sum to
    the end-to-end mean within 5% (they telescope, so in practice the
    difference is double rounding only);
  * the headline series exist and command counts are consistent.

Also validates kernel benchmark documents (bench/kernel_throughput's
BENCH_kernel.json) with --bench: schema check plus an optional events/sec
regression gate against a checked-in baseline.

--bench dispatches on the document's "schema" field: kernel documents
(dynastar-bench-kernel-v1, or -v2 which adds the parallel-executor
conflict-free speedup and conflict-heavy regression gates) get the
events/sec regression gate; overload
documents (dynastar-bench-overload-v1, from bench/overload_goodput) get the
goodput-under-surge and post-surge-recovery gates; STAR sweep documents
(dynastar-bench-star-v1, from bench/fig34_star_sweep) get the crossover
gate — DynaStar must beat STAR at the lowest multi-partition ratio and STAR
must beat DynaStar at the highest, each by the --min-crossover-margin;
transfer documents (dynastar-bench-transfer-v1, from
bench/state_transfer_wan) get the WAN state-transfer gates — goodput under
a 10x inter-site bandwidth drop must stay at --min-degraded-ratio of steady
state while a chunked snapshot install completes; read-lease documents
(dynastar-bench-lease-v1, from bench/fig5_latency_cdf --bench-lease, also
selectable with --lease) get the lease latency gates — leases-on must cut the multi-partition read-only
median by --min-lease-reduction while moving the single-partition median by
at most --max-single-shift.

Usage: check_report.py REPORT.json [--min-commands N]
       check_report.py --bench BENCH_kernel.json [--baseline FILE]
                       [--max-regression 0.25]
       check_report.py --bench BENCH_overload.json [--baseline FILE]
                       [--min-surge-ratio 0.5] [--min-recovery-ratio 0.9]
       check_report.py --bench BENCH_star.json [--baseline FILE]
                       [--min-crossover-margin 1.05]
       check_report.py --lease BENCH_lease.json [--baseline FILE]
                       [--min-lease-reduction 0.2] [--max-single-shift 0.02]
Exit code 0 on success, 1 with a message per violation otherwise.
"""

import argparse
import json
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


BENCH_SCHEMA_V1 = "dynastar-bench-kernel-v1"
BENCH_SCHEMA_V2 = "dynastar-bench-kernel-v2"
BENCH_SCHEMAS = (BENCH_SCHEMA_V1, BENCH_SCHEMA_V2)
OVERLOAD_SCHEMA = "dynastar-bench-overload-v1"
TRANSFER_SCHEMA = "dynastar-bench-transfer-v1"
STAR_SCHEMA = "dynastar-bench-star-v1"
LEASE_SCHEMA = "dynastar-bench-lease-v1"

# section -> required numeric (strictly positive) fields
BENCH_SECTIONS = {
    "kernel": ["events", "pending", "events_per_sec"],
    "legacy_kernel": ["events", "pending", "events_per_sec"],
    "message_plane": ["messages", "messages_per_sec", "pool_allocs"],
    "full_stack": ["commands", "wall_seconds", "commands_per_sec"],
}

# v2 adds the parallel-executor sections (bench/kernel_throughput's
# conflict-free vs conflict-heavy lane gates).
PARALLEL_SIM_SECTIONS = ("sim_conflict_free", "sim_conflict_heavy")


def check_parallel_exec(report, baseline, err,
                        min_lane_speedup, max_conflict_regression):
    """Gates for the v2 parallel_exec section.

    * sim_conflict_free.speedup: the deterministic modeled speedup of N
      simulated lanes over serial apply — machine-independent, so the
      1.5x floor holds everywhere.
    * sim_conflict_heavy.lanes_cps vs baseline: simulated commands/sec are
      bit-deterministic, so a conflict-heavy regression beyond the budget
      is a real scheduling/batching change, not noise.
    """
    parallel = report.get("parallel_exec")
    if not isinstance(parallel, dict):
        err("missing section 'parallel_exec' (required by schema v2)")
        return
    lanes = parallel.get("lanes")
    if not isinstance(lanes, (int, float)) or lanes < 2:
        err(f"parallel_exec.lanes is {lanes!r}, expected >= 2")
        return
    for section in PARALLEL_SIM_SECTIONS:
        body = parallel.get(section)
        if not isinstance(body, dict):
            err(f"missing section parallel_exec.{section}")
            return
        for field in ("serial_cps", "lanes_cps", "speedup"):
            if not isinstance(body.get(field), (int, float)) or body[field] <= 0:
                err(f"parallel_exec.{section}.{field} missing or non-positive")
                return

    sim_free = parallel["sim_conflict_free"]["speedup"]
    if sim_free < min_lane_speedup:
        err(f"simulated {lanes:.0f}-lane conflict-free speedup is "
            f"{sim_free:.2f}x, below the {min_lane_speedup:.2f}x floor — "
            f"the executor is not extracting the declared parallelism")

    if baseline is not None:
        base = baseline.get("parallel_exec", {}).get("sim_conflict_heavy", {})
        base_cps = base.get("lanes_cps")
        if isinstance(base_cps, (int, float)) and base_cps > 0:
            cps = parallel["sim_conflict_heavy"]["lanes_cps"]
            floor = base_cps * (1.0 - max_conflict_regression)
            if cps < floor:
                err(f"conflict-heavy throughput with lanes regressed: "
                    f"{cps:.0f} < {floor:.0f} commands/sec ({base_cps:.0f} "
                    f"baseline, {max_conflict_regression:.0%} budget)")


def check_bench(report, baseline, max_regression,
                min_lane_speedup, max_conflict_regression):
    errors = []

    def err(msg):
        errors.append(msg)

    schema = report.get("schema")
    if schema not in BENCH_SCHEMAS:
        err(f"schema is {schema!r}, expected one of {BENCH_SCHEMAS!r}")
        return errors
    for section, fields in BENCH_SECTIONS.items():
        body = report.get(section)
        if not isinstance(body, dict):
            err(f"missing section {section!r}")
            continue
        for field in fields:
            value = body.get(field)
            if not isinstance(value, (int, float)):
                err(f"{section}.{field} missing or non-numeric")
            elif value <= 0:
                err(f"{section}.{field} is {value}, expected > 0")
    if not isinstance(report.get("speedup_vs_legacy"), (int, float)):
        err("speedup_vs_legacy missing or non-numeric")
    if errors:
        return errors

    # pool_reuses may legitimately be zero on a cold run, but a steady-state
    # storm should recycle nearly everything.
    reuses = report["message_plane"].get("pool_reuses", 0)
    allocs = report["message_plane"]["pool_allocs"]
    if reuses < 0.5 * allocs:
        err(f"message pool reused only {reuses} of {allocs} allocations")

    # Checkpointing cost gate: the default-on checkpoint subsystem may cost
    # at most 5% of full-stack throughput vs the same run with checkpoints
    # disabled. Older bench documents without the section still validate.
    nockpt = report.get("full_stack_nockpt")
    if isinstance(nockpt, dict):
        base_cps = nockpt.get("commands_per_sec")
        cps = report["full_stack"]["commands_per_sec"]
        if not isinstance(base_cps, (int, float)) or base_cps <= 0:
            err("full_stack_nockpt.commands_per_sec missing or non-positive")
        elif cps < 0.95 * base_cps:
            err(f"checkpointing costs too much: full_stack "
                f"{cps:.0f} commands/sec < 95% of no-checkpoint "
                f"{base_cps:.0f} commands/sec")

    if schema == BENCH_SCHEMA_V2:
        check_parallel_exec(report, baseline, err,
                            min_lane_speedup, max_conflict_regression)

    if baseline is not None:
        base_eps = baseline.get("kernel", {}).get("events_per_sec")
        if not isinstance(base_eps, (int, float)) or base_eps <= 0:
            err("baseline kernel.events_per_sec missing or non-positive")
        else:
            eps = report["kernel"]["events_per_sec"]
            floor = base_eps * (1.0 - max_regression)
            if eps < floor:
                err(f"kernel events/sec regressed: {eps:.0f} < {floor:.0f} "
                    f"({base_eps:.0f} baseline, {max_regression:.0%} budget)")
    return errors


OVERLOAD_WINDOWS = ["baseline", "surge", "recovery"]


def check_overload_bench(report, baseline, max_regression,
                         min_surge_ratio, min_recovery_ratio):
    errors = []

    def err(msg):
        errors.append(msg)

    for window in OVERLOAD_WINDOWS:
        body = report.get(window)
        if not isinstance(body, dict):
            err(f"missing window {window!r}")
            continue
        for field in ("seconds", "ok_commands", "goodput_per_sec"):
            value = body.get(field)
            if not isinstance(value, (int, float)):
                err(f"{window}.{field} missing or non-numeric")
            elif value < 0:
                err(f"{window}.{field} is {value}, expected >= 0")
    for field in ("surge_ratio", "recovery_ratio"):
        if not isinstance(report.get(field), (int, float)):
            err(f"{field} missing or non-numeric")
    if errors:
        return errors

    if report["baseline"]["goodput_per_sec"] <= 0:
        err("baseline goodput is zero — the run produced no successful "
            "commands before the surge")
        return errors

    # The whole point: shedding must keep goodput up during the surge
    # (no metastable collapse) and let it recover afterwards.
    if report["surge_ratio"] < min_surge_ratio:
        err(f"goodput during surge dropped to {report['surge_ratio']:.0%} "
            f"of baseline (floor {min_surge_ratio:.0%}) — queues are not "
            f"shedding early enough")
    if report["recovery_ratio"] < min_recovery_ratio:
        err(f"goodput after surge recovered to only "
            f"{report['recovery_ratio']:.0%} of baseline "
            f"(floor {min_recovery_ratio:.0%}) — metastable failure")

    shed = report.get("shed", {})
    total_shed = shed.get("server", 0) + shed.get("oracle", 0)
    if total_shed <= 0:
        err("no commands were shed during a 2x-saturation surge — the "
            "admission gates are not engaging")

    if baseline is not None:
        base_goodput = baseline.get("baseline", {}).get("goodput_per_sec")
        if not isinstance(base_goodput, (int, float)) or base_goodput <= 0:
            err("baseline file baseline.goodput_per_sec missing or "
                "non-positive")
        else:
            goodput = report["baseline"]["goodput_per_sec"]
            floor = base_goodput * (1.0 - max_regression)
            if goodput < floor:
                err(f"pre-surge goodput regressed: {goodput:.0f} < "
                    f"{floor:.0f} ({base_goodput:.0f} baseline, "
                    f"{max_regression:.0%} budget)")
    return errors


TRANSFER_WINDOWS = ["steady", "degraded"]


def check_transfer_bench(report, baseline, max_regression, min_degraded_ratio):
    """Gates for bench/state_transfer_wan's WAN state-transfer document.

    The scenario runs a WAN topology, crashes a replica long enough that
    recovery needs a chunked snapshot install, and collapses inter-site
    bandwidth 10x over the middle window. The system must keep executing on
    unaffected state: goodput in the degraded window stays at or above
    min_degraded_ratio of the steady window, and the chunk protocol must
    actually have carried the install (chunks sent, install completed).
    """
    errors = []

    def err(msg):
        errors.append(msg)

    for window in TRANSFER_WINDOWS:
        body = report.get(window)
        if not isinstance(body, dict):
            err(f"missing window {window!r}")
            continue
        for field in ("seconds", "ok_commands", "goodput_per_sec"):
            value = body.get(field)
            if not isinstance(value, (int, float)):
                err(f"{window}.{field} missing or non-numeric")
            elif value < 0:
                err(f"{window}.{field} is {value}, expected >= 0")
    if not isinstance(report.get("degraded_ratio"), (int, float)):
        err("degraded_ratio missing or non-numeric")
    transfer = report.get("transfer")
    if not isinstance(transfer, dict):
        err("missing section 'transfer'")
    if errors:
        return errors

    if report["steady"]["goodput_per_sec"] <= 0:
        err("steady goodput is zero — the run produced no successful "
            "commands before the bandwidth collapse")
        return errors

    if report["degraded_ratio"] < min_degraded_ratio:
        err(f"goodput under the 10x bandwidth drop fell to "
            f"{report['degraded_ratio']:.0%} of steady state "
            f"(floor {min_degraded_ratio:.0%}) — the chunked transfer is "
            f"starving command execution")

    if transfer.get("chunks_sent", 0) < 1:
        err("no state-transfer chunks were sent — the chunk protocol never "
            "engaged")
    if transfer.get("snapshot_installs", 0) < 1:
        err("no snapshot install completed — recovery never finished the "
            "chunked transfer")

    if baseline is not None:
        base_goodput = baseline.get("steady", {}).get("goodput_per_sec")
        if not isinstance(base_goodput, (int, float)) or base_goodput <= 0:
            err("baseline file steady.goodput_per_sec missing or "
                "non-positive")
        else:
            goodput = report["steady"]["goodput_per_sec"]
            floor = base_goodput * (1.0 - max_regression)
            if goodput < floor:
                err(f"steady WAN goodput regressed: {goodput:.0f} < "
                    f"{floor:.0f} ({base_goodput:.0f} baseline, "
                    f"{max_regression:.0%} budget)")
    return errors


def check_star_bench(report, baseline, max_regression, min_crossover_margin):
    errors = []

    def err(msg):
        errors.append(msg)

    sweep = report.get("sweep")
    if not isinstance(sweep, list) or len(sweep) < 2:
        err("sweep missing or has fewer than 2 points")
        return errors
    fractions = []
    for i, point in enumerate(sweep):
        frac = point.get("multi_fraction")
        if not isinstance(frac, (int, float)) or not 0 <= frac <= 1:
            err(f"sweep[{i}].multi_fraction missing or outside [0, 1]")
            continue
        fractions.append(frac)
        for system in ("dynastar", "star"):
            body = point.get(system)
            if not isinstance(body, dict):
                err(f"sweep[{i}] (multi={frac}) missing curve {system!r}")
                continue
            tps = body.get("tps")
            if not isinstance(tps, (int, float)) or tps <= 0:
                err(f"sweep[{i}].{system}.tps missing or non-positive")
    if errors:
        return errors
    if fractions != sorted(fractions) or len(set(fractions)) != len(fractions):
        err(f"multi_fraction values {fractions} are not strictly increasing")
        return errors

    low, high = sweep[0], sweep[-1]
    # The crossover: each design must win its end of the sweep by a real
    # margin, proving the asymmetric mode is a trade and not a strict win.
    low_dyna, low_star = low["dynastar"]["tps"], low["star"]["tps"]
    if low_dyna < low_star * min_crossover_margin:
        err(f"at multi={low['multi_fraction']} dynastar ({low_dyna:.0f}/s) "
            f"does not beat star ({low_star:.0f}/s) by "
            f"{min_crossover_margin:.2f}x — the partitioned fast path lost "
            f"its advantage on single-partition work")
    high_dyna, high_star = high["dynastar"]["tps"], high["star"]["tps"]
    if high_star < high_dyna * min_crossover_margin:
        err(f"at multi={high['multi_fraction']} star ({high_star:.0f}/s) "
            f"does not beat dynastar ({high_dyna:.0f}/s) by "
            f"{min_crossover_margin:.2f}x — deferred master epochs lost to "
            f"borrow/return")
    # The deferred path must actually have run at the multi-heavy end.
    if high["star"].get("epochs", 0) <= 0 or high["star"].get("deferred", 0) <= 0:
        err(f"at multi={high['multi_fraction']} star reported no epochs or "
            f"deferred commands — the asymmetric path never executed")

    if baseline is not None:
        base_sweep = baseline.get("sweep")
        if not isinstance(base_sweep, list) or not base_sweep:
            err("baseline file has no sweep")
        else:
            base_by_frac = {p.get("multi_fraction"): p for p in base_sweep}
            for point in sweep:
                base = base_by_frac.get(point["multi_fraction"])
                if base is None:
                    continue
                for system in ("dynastar", "star"):
                    base_tps = base.get(system, {}).get("tps")
                    if not isinstance(base_tps, (int, float)) or base_tps <= 0:
                        continue
                    tps = point[system]["tps"]
                    floor = base_tps * (1.0 - max_regression)
                    if tps < floor:
                        err(f"{system} tps at multi="
                            f"{point['multi_fraction']} regressed: "
                            f"{tps:.0f} < {floor:.0f} ({base_tps:.0f} "
                            f"baseline, {max_regression:.0%} budget)")
    return errors


LEASE_SIDES = ["off", "on"]
LEASE_POPULATIONS = ["multi_ro", "single", "multi_write"]


def check_lease_bench(report, baseline, max_regression,
                      min_lease_reduction, max_single_shift):
    errors = []

    def err(msg):
        errors.append(msg)

    for side in LEASE_SIDES:
        body = report.get(side)
        if not isinstance(body, dict):
            err(f"missing side {side!r}")
            continue
        for pop in LEASE_POPULATIONS:
            stats = body.get(pop)
            if not isinstance(stats, dict):
                err(f"{side}.{pop} missing")
                continue
            for field in ("count", "median_ms"):
                value = stats.get(field)
                if not isinstance(value, (int, float)):
                    err(f"{side}.{pop}.{field} missing or non-numeric")
                elif value <= 0:
                    err(f"{side}.{pop}.{field} is {value}, expected > 0")
    for field in ("multi_ro_median_reduction", "single_median_shift"):
        if not isinstance(report.get(field), (int, float)):
            err(f"{field} missing or non-numeric")
    if errors:
        return errors

    # Leases must pay for themselves on the population they serve...
    reduction = report["multi_ro_median_reduction"]
    if reduction < min_lease_reduction:
        err(f"leases-on cut the multi-partition read-only median by only "
            f"{reduction:.0%} (floor {min_lease_reduction:.0%}) — the "
            f"borrow-free read path is not delivering")
    # ...without perturbing traffic that never touches them...
    shift = abs(report["single_median_shift"])
    if shift > max_single_shift:
        err(f"single-partition median moved {shift:.1%} between runs "
            f"(budget {max_single_shift:.1%}) — leases are not isolated "
            f"from unrelated traffic")
    # ...and without slowing the write path, which still borrows/returns
    # (it may well get faster: writes no longer queue behind blocked reads).
    write_off = report["off"]["multi_write"]["median_ms"]
    write_on = report["on"]["multi_write"]["median_ms"]
    if write_on > write_off * (1.0 + max_single_shift):
        err(f"multi-partition write median regressed with leases on: "
            f"{write_on:.3f} ms > {write_off:.3f} ms + {max_single_shift:.0%}")

    # The leased path must actually have run, and mostly validated.
    reads = report["on"].get("lease_reads", 0)
    fallbacks = report["on"].get("lease_fallbacks", 0)
    if not isinstance(reads, (int, float)) or reads <= 0:
        err("leases-on run recorded no lease_reads — the fast path never "
            "engaged")
    elif isinstance(fallbacks, (int, float)) and fallbacks > 0.1 * reads:
        err(f"{fallbacks:.0f} lease fallbacks against {reads:.0f} leased "
            f"reads (> 10%) — validation is failing too often")
    off_reads = report["off"].get("lease_reads")
    if isinstance(off_reads, (int, float)) and off_reads != 0:
        err(f"leases-off run recorded {off_reads:.0f} lease_reads — the "
            f"control run is contaminated")

    if baseline is not None:
        base_median = baseline.get("on", {}).get("multi_ro", {}) \
                              .get("median_ms")
        if not isinstance(base_median, (int, float)) or base_median <= 0:
            err("baseline file on.multi_ro.median_ms missing or non-positive")
        else:
            median = report["on"]["multi_ro"]["median_ms"]
            ceiling = base_median * (1.0 + max_regression)
            if median > ceiling:
                err(f"leases-on multi-partition read-only median regressed: "
                    f"{median:.3f} ms > {ceiling:.3f} ms ({base_median:.3f} "
                    f"baseline, {max_regression:.0%} budget)")
    return errors


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("report", help="path to RunReport (or bench) JSON")
    parser.add_argument("--min-commands", type=int, default=100,
                        help="minimum completed commands expected (default 100)")
    parser.add_argument("--wan", action="store_true",
                        help="RunReport mode: additionally require the WAN "
                             "evidence — labeled network.bytes_sent{link=...} "
                             "series, >= 1 snapshot install and >= 1 "
                             "state-transfer chunk sent")
    parser.add_argument("--bench", action="store_true",
                        help="validate a BENCH_kernel.json document instead")
    parser.add_argument("--lease", action="store_true",
                        help="validate a BENCH_lease.json document "
                             "(fig5_latency_cdf --bench-lease); implies "
                             "--bench and requires the lease schema")
    parser.add_argument("--baseline",
                        help="baseline bench JSON for the regression gate")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="events/sec regression budget vs baseline "
                             "(default 0.25)")
    parser.add_argument("--min-surge-ratio", type=float, default=0.5,
                        help="overload bench: goodput floor during the surge "
                             "as a fraction of baseline (default 0.5)")
    parser.add_argument("--min-recovery-ratio", type=float, default=0.9,
                        help="overload bench: post-surge goodput floor as a "
                             "fraction of baseline (default 0.9)")
    parser.add_argument("--min-degraded-ratio", type=float, default=0.7,
                        help="transfer bench: goodput floor during the 10x "
                             "bandwidth drop as a fraction of steady state "
                             "(default 0.7)")
    parser.add_argument("--min-lease-reduction", type=float, default=0.2,
                        help="lease bench: minimum fractional cut in the "
                             "multi-partition read-only median from enabling "
                             "leases (default 0.2)")
    parser.add_argument("--max-single-shift", type=float, default=0.02,
                        help="lease bench: budget for movement of the "
                             "single-partition median between the two runs "
                             "(default 0.02)")
    parser.add_argument("--min-crossover-margin", type=float, default=1.05,
                        help="star bench: factor by which each system must "
                             "beat the other at its end of the sweep "
                             "(default 1.05)")
    parser.add_argument("--min-lane-speedup", type=float, default=1.5,
                        help="kernel bench v2: conflict-free speedup floor "
                             "for the parallel executor's simulated lanes "
                             "over serial apply (default 1.5)")
    parser.add_argument("--max-conflict-regression", type=float, default=0.05,
                        help="kernel bench v2: budget for conflict-heavy "
                             "commands/sec with lanes vs the checked-in "
                             "baseline (default 0.05)")
    args = parser.parse_args()

    try:
        with open(args.report, encoding="utf-8") as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"check_report: cannot read {args.report}: {exc}", file=sys.stderr)
        return 1

    if args.bench or args.lease:
        baseline = None
        if args.baseline:
            try:
                with open(args.baseline, encoding="utf-8") as f:
                    baseline = json.load(f)
            except (OSError, json.JSONDecodeError) as exc:
                print(f"check_report: cannot read {args.baseline}: {exc}",
                      file=sys.stderr)
                return 1
        if args.lease or report.get("schema") == LEASE_SCHEMA:
            if report.get("schema") != LEASE_SCHEMA:
                print(f"check_report: schema is {report.get('schema')!r}, "
                      f"expected {LEASE_SCHEMA!r}", file=sys.stderr)
                return 1
            errors = check_lease_bench(report, baseline,
                                       args.max_regression,
                                       args.min_lease_reduction,
                                       args.max_single_shift)
            if errors:
                for msg in errors:
                    print(f"check_report: {msg}", file=sys.stderr)
                return 1
            print(f"check_report: OK — lease gate: multi-partition read-only "
                  f"median {report['off']['multi_ro']['median_ms']:.3f} -> "
                  f"{report['on']['multi_ro']['median_ms']:.3f} ms "
                  f"({report['multi_ro_median_reduction']:.0%} cut), single "
                  f"median shift {report['single_median_shift']:+.2%}, "
                  f"{report['on']['lease_reads']:.0f} leased reads")
            return 0
        if report.get("schema") == OVERLOAD_SCHEMA:
            errors = check_overload_bench(report, baseline,
                                          args.max_regression,
                                          args.min_surge_ratio,
                                          args.min_recovery_ratio)
            if errors:
                for msg in errors:
                    print(f"check_report: {msg}", file=sys.stderr)
                return 1
            print(f"check_report: OK — goodput baseline "
                  f"{report['baseline']['goodput_per_sec']:.0f}/s, surge "
                  f"{report['surge_ratio']:.0%}, recovery "
                  f"{report['recovery_ratio']:.0%}")
            return 0
        if report.get("schema") == TRANSFER_SCHEMA:
            errors = check_transfer_bench(report, baseline,
                                          args.max_regression,
                                          args.min_degraded_ratio)
            if errors:
                for msg in errors:
                    print(f"check_report: {msg}", file=sys.stderr)
                return 1
            print(f"check_report: OK — WAN transfer gate: steady "
                  f"{report['steady']['goodput_per_sec']:.0f}/s, degraded "
                  f"window {report['degraded_ratio']:.0%} of steady, "
                  f"{report['transfer'].get('chunks_sent', 0):.0f} chunks "
                  f"({report['transfer'].get('chunks_retransmitted', 0):.0f} "
                  f"retransmitted)")
            return 0
        if report.get("schema") == STAR_SCHEMA:
            errors = check_star_bench(report, baseline, args.max_regression,
                                      args.min_crossover_margin)
            if errors:
                for msg in errors:
                    print(f"check_report: {msg}", file=sys.stderr)
                return 1
            sweep = report["sweep"]
            print(f"check_report: OK — star sweep over "
                  f"{len(sweep)} multi-partition ratios; at "
                  f"{sweep[0]['multi_fraction']} dynastar leads "
                  f"{sweep[0]['dynastar']['tps']:.0f}/s vs "
                  f"{sweep[0]['star']['tps']:.0f}/s, at "
                  f"{sweep[-1]['multi_fraction']} star leads "
                  f"{sweep[-1]['star']['tps']:.0f}/s vs "
                  f"{sweep[-1]['dynastar']['tps']:.0f}/s")
            return 0
        errors = check_bench(report, baseline, args.max_regression,
                             args.min_lane_speedup,
                             args.max_conflict_regression)
        if errors:
            for msg in errors:
                print(f"check_report: {msg}", file=sys.stderr)
            return 1
        print(f"check_report: OK — kernel "
              f"{report['kernel']['events_per_sec']:.0f} events/sec "
              f"({report['speedup_vs_legacy']:.2f}x vs legacy), message plane "
              f"{report['message_plane']['messages_per_sec']:.0f} msgs/sec")
        return 0

    errors = check(report, args.min_commands, wan=args.wan)
    if errors:
        for msg in errors:
            print(f"check_report: {msg}", file=sys.stderr)
        return 1

    phases = {p["name"]: p["mean_ms"] for p in report["phases"]}
    summary = " ".join(f"{k}={v:.3f}" for k, v in phases.items())
    print(f"check_report: OK — {int(report['e2e']['commands'])} commands, "
          f"e2e {report['e2e']['mean_ms']:.3f} ms ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
