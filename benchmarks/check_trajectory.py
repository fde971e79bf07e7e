"""Regression gate over the committed benchmark trajectory.

Reads the freshly (re)generated ``BENCH_kernels.json`` and
``BENCH_serve.json`` and fails if a headline number fell below its
committed floor:

* serving: batching must sustain >= 2x the naive sequential throughput
  at the overloaded top rate (measured ~3.3x);
* stream engine: the compiled-stream timing loop and the fused
  functional bank must not be slower than the legacy per-command loops
  (measured ~4x / ~7x; the floor is 1.0 with headroom for CI noise);
* compiler: the pass-based IR pipeline's cold compile, scaled to the
  reference machine's speed by the host slowdown recorded next to it,
  must stay below the retired monolith's ~2.3 us/command rate, and the
  Nb=1 lane-fused run must not be slower than the per-command fallback
  it replaced;
* shared bus: the contention model must report real utilization and
  never beat the independent-channel upper bound;
* resilience: under injected faults the recovery policies must keep
  availability at least ``RESILIENCE_AVAILABILITY_FLOOR`` and hold
  true goodput strictly above the policies-off run at the same rates
  (goodput-under-faults floor);
* dag: across the chain-depth x arrival-rate sweep every offered graph
  must complete and the served makespan must never beat the dependency
  critical path (``stretch >= DAG_STRETCH_FLOOR`` — the scheduler can
  hide queueing, never dependencies);
* cluster: each step up the replica sweep (1 -> 2 -> 4) must buy at
  least ``CLUSTER_SCALING_FLOOR`` more goodput on both bus models, and
  the shared bus must never beat independent channels;
* replica faults: under replica-scoped crash/hang/partition chaos the
  self-healing cluster must keep availability at/above
  ``REPLICA_FAULT_AVAILABILITY_FLOOR`` on both fleets, and the
  autoscale fleet's goodput must hold
  ``AUTOSCALE_GOODPUT_RATIO_FLOOR`` over the static fleet at every
  profile.

Run by the ``bench-trajectory`` CI job after executing both benches::

    PYTHONPATH=src python benchmarks/bench_timing_engine.py
    PYTHONPATH=src python benchmarks/bench_serve.py
    python benchmarks/check_trajectory.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Committed floors (generous vs the measured values — they gate
#: regressions, not noise).
SERVE_SPEEDUP_FLOOR = 2.0
ENGINE_SPEEDUP_FLOOR = 1.0
BANK_SPEEDUP_FLOOR = 1.0
#: The retired monolithic ``compile_stream`` measured ~2.3 us/command
#: cold (39.8 ms on the 17k-command N=4096 program); the pass-based IR
#: pipeline measures ~1.2 us/command and must never creep back above
#: the monolith's rate.  The gate divides the measured rate by the host
#: slowdown the bench recorded around it (``perfbench/perf_clock``; a
#: file without the key counts as 1.0), so a slow shared machine does
#: not read as a compiler regression.
COMPILE_US_PER_CMD_CEILING = 2.3
#: Nb=1 µ-op programs fuse through the lane-renaming pass; the fused
#: run must not be slower than the per-command fallback it replaced
#: (measured ~4x faster).
NB1_FUSED_SPEEDUP_FLOOR = 1.0
#: With the standard policy on, availability under every swept fault
#: rate must stay at/above this (measured 1.0 at rates 0.1 and 0.25).
RESILIENCE_AVAILABILITY_FLOOR = 0.9
#: And policies-on true goodput must exceed policies-off by at least
#: this ratio at every nonzero fault rate (measured ~2.2x / ~1.1x).
RESILIENCE_GOODPUT_RATIO_FLOOR = 1.0
#: Each doubling of the replica count must buy at least this goodput
#: ratio on both bus models (measured 1.08-1.19x per step; the floor
#: gates "replicas stopped helping", not the exact scaling curve).
CLUSTER_SCALING_FLOOR = 1.02
#: A served DAG's makespan can approach its dependency critical path
#: only from above: stretch below this (minus float slack) means the
#: telemetry is lying about one of the two.  Completeness is exact —
#: the dependency-aware scheduler must finish every offered graph.
DAG_STRETCH_FLOOR = 1.0
#: Under replica-scoped crash/hang/partition chaos the self-healing
#: cluster must keep availability at/above this on both fleets
#: (measured 1.0 — exactly-once through failover and restart).
REPLICA_FAULT_AVAILABILITY_FLOOR = 0.9
#: And the heartbeat-driven autoscale fleet must hold at least this
#: goodput ratio over the static fleet at every fault profile
#: (measured ~1.2x fault-free and ~2x under chaos).
AUTOSCALE_GOODPUT_RATIO_FLOOR = 1.0


def check(kernels_path: Path = REPO_ROOT / "BENCH_kernels.json",
          serve_path: Path = REPO_ROOT / "BENCH_serve.json") -> list:
    failures = []

    serve = json.loads(serve_path.read_text())["serve"]
    top_rate = max(serve["rates"], key=int)
    speedup = serve["rates"][top_rate]["throughput_speedup"]
    print(f"serve: batching speedup at {top_rate} req/s = {speedup:.2f}x "
          f"(floor {SERVE_SPEEDUP_FLOOR}x)")
    if speedup < SERVE_SPEEDUP_FLOOR:
        failures.append(
            f"batching speedup {speedup:.2f}x fell below the committed "
            f"{SERVE_SPEEDUP_FLOOR}x floor")

    shards = serve.get("shards", {})
    for count, entry in shards.get("shared", {}).items():
        if not isinstance(entry, dict):
            continue
        independent = shards["independent"][count]
        print(f"serve: shards={count} shared {entry['throughput_rps']:.0f} "
              f"rps (bus {entry['bus_utilization'] * 100:.1f}%) vs "
              f"independent {independent['throughput_rps']:.0f} rps")
        if entry["bus_utilization"] <= 0.0:
            failures.append(f"shards={count}: shared bus reports no "
                            f"utilization")
        if entry["throughput_rps"] > independent["throughput_rps"] + 1e-6:
            failures.append(f"shards={count}: shared-bus throughput beats "
                            f"the independent upper bound")

    cluster = serve.get("cluster", {})
    for bus in ("independent", "shared"):
        sweep = {int(count): entry
                 for count, entry in cluster.get(bus, {}).items()}
        counts = sorted(sweep)
        for lo, hi in zip(counts, counts[1:]):
            ratio = sweep[hi]["goodput_rps"] / sweep[lo]["goodput_rps"]
            print(f"serve: cluster {bus} bus {lo}->{hi} replicas goodput "
                  f"{sweep[lo]['goodput_rps']:.0f} -> "
                  f"{sweep[hi]['goodput_rps']:.0f} rps ({ratio:.2f}x, "
                  f"floor {CLUSTER_SCALING_FLOOR}x)")
            if ratio < CLUSTER_SCALING_FLOOR:
                failures.append(
                    f"cluster ({bus} bus): {lo}->{hi} replicas goodput "
                    f"ratio {ratio:.2f}x fell below the "
                    f"{CLUSTER_SCALING_FLOOR}x scaling floor")
        for count in counts:
            if bus != "shared":
                continue
            independent = cluster["independent"][str(count)]
            if (sweep[count]["goodput_rps"]
                    > independent["goodput_rps"] + 1e-6):
                failures.append(
                    f"cluster: replicas={count} shared-bus goodput beats "
                    f"the independent upper bound")

    dag_sweep = serve.get("dag", {})
    for depth, by_rate in sorted(dag_sweep.items()):
        if not isinstance(by_rate, dict):
            continue
        for rate, entry in sorted(by_rate.items(), key=lambda kv: int(kv[0])):
            print(f"serve: dag depth={depth} rate={rate} critical "
                  f"{entry['critical_path_mean_us']:.1f}us -> makespan "
                  f"{entry['makespan_mean_us']:.1f}us "
                  f"(stretch {entry['stretch']:.2f}x, floor "
                  f"{DAG_STRETCH_FLOOR}x), "
                  f"{entry['completed']}/{entry['dags']} graphs done")
            if entry["completed"] != entry["dags"]:
                failures.append(
                    f"dag depth={depth} rate={rate}: only "
                    f"{entry['completed']} of {entry['dags']} offered "
                    f"graphs completed")
            if entry["critical_path_mean_us"] <= 0.0:
                failures.append(
                    f"dag depth={depth} rate={rate}: no critical path "
                    f"recorded for completed graphs")
            if entry["stretch"] < DAG_STRETCH_FLOOR - 1e-9:
                failures.append(
                    f"dag depth={depth} rate={rate}: stretch "
                    f"{entry['stretch']:.3f}x fell below the "
                    f"{DAG_STRETCH_FLOOR}x dependency floor (makespan "
                    f"beat the critical path)")

    resilience = serve.get("resilience", {})
    for rate_key, entry in resilience.items():
        if not isinstance(entry, dict) or "standard" not in entry:
            continue
        off, on = entry["none"], entry["standard"]
        print(f"serve: faults={rate_key} true goodput off "
              f"{off['true_goodput_rps']:.0f} rps vs on "
              f"{on['true_goodput_rps']:.0f} rps, availability "
              f"{on['availability'] * 100:.1f}% "
              f"(floor {RESILIENCE_AVAILABILITY_FLOOR * 100:.0f}%)")
        if float(rate_key) == 0:
            continue
        if on["availability"] < RESILIENCE_AVAILABILITY_FLOOR:
            failures.append(
                f"faults={rate_key}: policies-on availability "
                f"{on['availability']:.3f} fell below the "
                f"{RESILIENCE_AVAILABILITY_FLOOR} floor")
        if (on["true_goodput_rps"]
                <= off["true_goodput_rps"] * RESILIENCE_GOODPUT_RATIO_FLOOR):
            failures.append(
                f"faults={rate_key}: policies-on true goodput "
                f"{on['true_goodput_rps']:.0f} rps does not clear the "
                f"policies-off run ({off['true_goodput_rps']:.0f} rps)")

    replica_faults = serve.get("replica_faults", {})
    for name, entry in replica_faults.items():
        if not isinstance(entry, dict) or "static" not in entry:
            continue
        static, auto = entry["static"], entry["autoscale"]
        print(f"serve: replica-faults={name} static "
              f"{static['goodput_rps']:.0f} rps "
              f"(avail {static['availability'] * 100:.1f}%) vs autoscale "
              f"{auto['goodput_rps']:.0f} rps "
              f"(avail {auto['availability'] * 100:.1f}%, "
              f"x{entry['goodput_ratio']:.2f}, floor "
              f"{AUTOSCALE_GOODPUT_RATIO_FLOOR}x)")
        for fleet, stats in (("static", static), ("autoscale", auto)):
            if stats["availability"] < REPLICA_FAULT_AVAILABILITY_FLOOR:
                failures.append(
                    f"replica-faults={name}: {fleet} availability "
                    f"{stats['availability']:.3f} fell below the "
                    f"{REPLICA_FAULT_AVAILABILITY_FLOOR} floor")
        if entry["goodput_ratio"] < AUTOSCALE_GOODPUT_RATIO_FLOOR:
            failures.append(
                f"replica-faults={name}: autoscale goodput ratio "
                f"{entry['goodput_ratio']:.2f}x fell below the "
                f"{AUTOSCALE_GOODPUT_RATIO_FLOOR}x static-fleet floor")

    kernels = json.loads(kernels_path.read_text())
    compiler = kernels.get("compiler", {})
    for n, entry in compiler.items():
        if n == "nb1":
            continue
        slowdown = entry.get("slowdown", 1.0)
        us_per_cmd = entry["cold_us_per_cmd"] / slowdown
        print(f"compiler: N={n} cold {entry['cold_compile_s'] * 1e3:.2f} ms "
              f"({entry['cold_us_per_cmd']:.2f} us/cmd at host slowdown "
              f"{slowdown:.2f}x = {us_per_cmd:.2f} us/cmd at reference "
              f"speed, ceiling {COMPILE_US_PER_CMD_CEILING}), warm "
              f"{entry['warm_hit_s'] * 1e6:.1f} us")
        if us_per_cmd > COMPILE_US_PER_CMD_CEILING:
            failures.append(
                f"compiler N={n}: cold compile {us_per_cmd:.2f} us/cmd at "
                f"reference speed ({entry['cold_us_per_cmd']:.2f} raw / "
                f"{slowdown:.2f}x slowdown) exceeds the "
                f"{COMPILE_US_PER_CMD_CEILING} us/cmd monolith-rate ceiling")
    if "nb1" in compiler:
        nb1 = compiler["nb1"]
        print(f"compiler: Nb=1 N={nb1['n']} lane-fused speedup "
              f"{nb1['fused_speedup']:.2f}x over per-command "
              f"(floor {NB1_FUSED_SPEEDUP_FLOOR}x)")
        if nb1["fused_speedup"] < NB1_FUSED_SPEEDUP_FLOOR:
            failures.append(
                f"compiler Nb=1: lane-fused run slower than the "
                f"per-command fallback ({nb1['fused_speedup']:.2f}x)")

    engine = kernels["timing_engine"]
    for n, entry in engine.items():
        print(f"engine: N={n} stream {entry['engine_speedup']:.2f}x, "
              f"fused bank {entry['bank_speedup']:.2f}x (floors "
              f"{ENGINE_SPEEDUP_FLOOR}/{BANK_SPEEDUP_FLOOR})")
        if entry["engine_speedup"] < ENGINE_SPEEDUP_FLOOR:
            failures.append(f"N={n}: stream engine slower than the legacy "
                            f"loop ({entry['engine_speedup']:.2f}x)")
        if entry["bank_speedup"] < BANK_SPEEDUP_FLOOR:
            failures.append(f"N={n}: fused functional bank slower than the "
                            f"per-command bank ({entry['bank_speedup']:.2f}x)")
    return failures


def main() -> int:
    failures = check()
    if failures:
        print("\nREGRESSIONS:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbench trajectory ok: every committed floor holds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
