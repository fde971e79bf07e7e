"""Regression gate over the committed benchmark trajectory.

Reads the freshly (re)generated ``BENCH_kernels.json`` and
``BENCH_serve.json`` and fails if a headline number fell below its
committed floor:

* serving: batching must sustain >= 2x the naive sequential throughput
  at the overloaded top rate (measured ~3.3x), and that session must
  run fewer stacked bank runs than dispatches (``bank_runs`` <
  ``dispatches``) — a settle pass stacks its dispatches' banks per
  transform shape, and only the count shows a stacked path that
  silently fell back to one bank run per dispatch — and after it no
  cached stream may span more than one bank (``stream_max_banks``):
  only what a bank runs compiles, and a merged multi-bank stream kept
  in the cache is memory no warm dispatch reads; nor may a cached
  program name a bank other than 0 (``program_max_bank``): programs
  are bank-relative and the bus interleave assigns their banks, so a
  per-bank copy of a program only mirrors bank 0's;
* stream engine: the compiled-stream timing loop and the fused
  functional bank must not be slower than the legacy per-command loops
  (measured ~6x / ~36-57x; the floor is 1.0 with headroom for CI noise),
  and the stream replay, scaled to the reference machine's speed by the
  host slowdown recorded next to it, must stay below
  ``TIMING_US_PER_CMD_CEILING``;
* compiler: the pass-based IR pipeline's cold compile, scaled to the
  reference machine's speed by the host slowdown recorded next to it,
  must stay below ``COMPILE_US_PER_CMD_CEILING`` — about twice its
  measured rate, and far under the retired monolith's ~2.3 us/command —
  and the Nb=1 lane-fused run must not be slower than the per-command
  fallback it replaced;
* mapper: the cold map (program-cache miss to IR), scaled the same
  way, must stay below ``MAP_US_PER_CMD_CEILING`` — far under the
  ~9 us/command of per-command ``Command`` emission;
* data plane: a warm same-spec 8-bank dispatch (functional bank, host
  I/O and the online check), scaled the same way, must stay below
  ``DATAPLANE_NS_PER_BU_CEILING`` per butterfly µ-op — far under the
  one-bank-at-a-time loop it replaced — must cost at most
  ``DATAPLANE_VERIFY_RATIO_CEILING`` times itself less its online
  check (``check_s``, the check alone on the same stacks), and must
  spend at most ``DATAPLANE_HOST_SHARE_CEILING`` of its time outside
  the bank run (``bank_s``, the stack's set-up, loads and
  ``run_stream`` alone on the same stacks);
* plans: no Table III plan may read or write any atom of the cell
  array more than once (``PLAN_MAX_MOVES_PER_ATOM``) — store-to-load
  forwarding keeps every intermediate stage in the value pool — nor
  hold more pool slots than atoms (``PLAN_MAX_SLOTS_PER_ATOM``) — the
  stages update the pool in place;
* load generation: the skewed mix's requests, scaled the same way,
  must cost at most ``LOADGEN_US_PER_REQ_CEILING`` each — the bulk
  coefficient draw, not one ``randrange`` per coefficient;
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
#: A cold compile (``compile_stream`` of the mapper's program: the pass
#: pipeline plus lowering) measures 0.28-0.40 us/command at reference
#: speed at N=1024 (median 0.33) and 0.14-0.18 at N=4096 (ten reruns,
#: best of 5 each).  The ceiling is about twice the N=1024 median.  The
#: gate divides the measured rate by the host slowdown the bench
#: recorded around it (``perfbench/perf_clock``; a file without the key
#: counts as 1.0), so a slow shared machine does not read as a compiler
#: regression.
COMPILE_US_PER_CMD_CEILING = 0.65
#: The mappers emit IR columns straight from the closed-form schedule,
#: each regime as one op table with the butterfly stride on a leading
#: axis, and ``assemble`` fills the columns column-major: a cold map
#: (program-cache miss to IR) measures 0.19-0.27 us/command at
#: reference speed at N=1024 (median 0.25) and 0.12-0.25 at N=4096
#: (median 0.14; six reruns, best of 5 each; Nb=1 N=256 0.25-0.37),
#: against 0.32-0.56 / 0.29-0.34 with one op table per stride and a
#: row-major table transposed into columns (same host, same reruns),
#: 0.45-0.64 when it also built per-command twiddle tuples and a CSR
#: dependency triple, and ~9 us/command when every command was built
#: as a validated ``Command``.  Same slowdown scaling and rule as the
#: compile ceiling: about twice the N=1024 median.
MAP_US_PER_CMD_CEILING = 0.5
#: A warm same-spec 8-bank dispatch runs its banks as one stacked pass
#: with one check, division-free Shoup lanes, store-to-load forwarding,
#: in-place, view-addressed stages (pool slots allocated by liveness,
#: lane-major C1), one memoized dispatch shape and no rescans of words
#: a kernel already reduced: ~19-25 ns per butterfly µ-op at N=512
#: (30 once) and ~9-13 at N=4096 at reference speed (ten reruns),
#: against ~21-31 / ~9-14 with the shape re-derived and every C2
#: operand rescanned on each dispatch (same host, same reruns), ~20-28
#: / ~7-11 as first recorded for that tree, ~25-36 / ~14-16 with one pool
#: slot per version and every C2 operand moved by fancy index, ~41-47
#: / ~27-39 with ``%``-reduced kernels and a cell gather/scatter per
#: stage pass, ~51-56 / ~35-39 before the online check, and ~215 /
#: ~105 when every bank ran (and was verified) on its own.  Same
#: slowdown scaling; ~2x headroom over the typical N=512 reading.
DATAPLANE_NS_PER_BU_CEILING = 50.0
#: Store-to-load forwarding and dead-store elimination leave each
#: Table III plan one read op and one write op of N/8 atoms: every atom
#: leaves the cells once and returns once, against log2(N/8)+1 round
#: trips (one per butterfly-stage pass) without them.
PLAN_MAX_MOVES_PER_ATOM = 1
#: Pool slots allocated by liveness let each butterfly stage overwrite
#: the versions it replaces: every Table III plan's pool holds N/8
#: slots, one image of its atoms, against 14 per atom at N=512 (896
#: slots) and 20 at N=4096 (10,240) with one slot per version.
PLAN_MAX_SLOTS_PER_ATOM = 1
#: With the online check (Freivalds' dot products, O(N) per transform)
#: that dispatch measures 1.02-1.05x its time less the check's at N=512
#: and 1.02-1.03x at N=4096 (``dispatch_s / (dispatch_s - check_s)``,
#: best of 5 each, six reruns), against 1.43-1.53x its time without the
#: check when the check re-ran the golden NTT on every dispatch.  The
#: ceiling fails a check taking more than ~23% of the dispatch.  A
#: ratio of two timings taken back to back, so no slowdown scaling.
DATAPLANE_VERIFY_RATIO_CEILING = 1.3
#: That dispatch spends 0.35-0.39 of its time outside the bank run at
#: N=512 and 0.38-0.44 at N=4096 (``1 - bank_s / dispatch_s``, the two
#: bests taken round by round, six reruns): with its shape memoized,
#: what is left is the bit-reversal gather, host I/O, the check and
#: ``.tolist()``.  With the shape re-derived and every C2 group
#: rescanned on each dispatch it read 0.39-0.44 / 0.37-0.46, which
#: passes too: the ceiling (~1.25x the highest reading) fails a fixed
#: cost that grows towards the bank run's size, not one re-derivation.
#: A ratio of two timings taken together, so no slowdown scaling.
DATAPLANE_HOST_SHARE_CEILING = 0.55
#: The stream replay builds its loop inputs from the stream's int64
#: columns on every call and its loop carries only timing state (one
#: step column folding kind and compute latency, dependencies shifted
#: onto a sentinel completion, appended completions, a four-slot tFAW
#: ring): it measures 0.27-0.31 us/command at reference speed at
#: N=1024 (median 0.28) and 0.22-0.33 at N=4096 (median 0.27; six
#: reruns, best of 5 each), against 0.29-0.44 / 0.29-0.44 with a kind
#: column, a latency column and per-command index reads (same host,
#: same reruns), 0.34-0.49 when it re-padded a CSR dependency triple
#: into per-command tuples on every call and ~0.5-0.6 when it walked
#: list mirrors built (and paid for) at lowering and returned one
#: ``CommandTiming`` per command.  Same slowdown scaling and rule as
#: the map ceiling: about twice the N=1024 median.
TIMING_US_PER_CMD_CEILING = 0.55
#: The load generator draws each request's coefficients in bulk
#: (``random_residues``: one 32-bit word per value still needed,
#: through ``np.frombuffer``) and measures 17-21 us per skewed-mix
#: request at reference speed, against 150-190 with one
#: ``rng.randrange`` per coefficient.  Same slowdown scaling; ~2x
#: headroom.
LOADGEN_US_PER_REQ_CEILING = 40.0
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
    batching = serve["rates"][top_rate]["batching"]
    bank_runs = batching.get("bank_runs")
    dispatches = batching.get("dispatches")
    print(f"serve: {bank_runs} stacked bank runs for {dispatches} "
          f"dispatches at {top_rate} req/s")
    if bank_runs is None or dispatches is None:
        failures.append("BENCH_serve.json records no bank_runs/dispatches "
                        "for the top-rate batching session")
    elif bank_runs >= dispatches:
        failures.append(
            f"{bank_runs} bank runs for {dispatches} dispatches: a settle "
            f"pass no longer stacks its dispatches' banks")
    entries = batching.get("stream_entries")
    max_banks = batching.get("stream_max_banks")
    print(f"serve: {entries} cached streams after that session, spanning "
          f"at most {max_banks} bank(s)")
    if entries is None or max_banks is None:
        failures.append("BENCH_serve.json records no stream_entries/"
                        "stream_max_banks for the top-rate batching session")
    elif max_banks > 1:
        failures.append(
            f"a cached stream spans {max_banks} banks: a merged multi-bank "
            f"stream is compiled into the stream cache again")
    programs = batching.get("program_entries")
    max_bank = batching.get("program_max_bank")
    print(f"serve: {programs} cached programs after that session, naming "
          f"at most bank {max_bank}")
    if programs is None or max_bank is None:
        failures.append("BENCH_serve.json records no program_entries/"
                        "program_max_bank for the top-rate batching session")
    elif max_bank != 0:
        failures.append(
            f"a cached program names bank {max_bank}: the program cache "
            f"holds per-bank copies of a bank-relative program again")

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
                f"{COMPILE_US_PER_CMD_CEILING} us/cmd ceiling")
    if "nb1" in compiler:
        nb1 = compiler["nb1"]
        print(f"compiler: Nb=1 N={nb1['n']} lane-fused speedup "
              f"{nb1['fused_speedup']:.2f}x over per-command "
              f"(floor {NB1_FUSED_SPEEDUP_FLOOR}x)")
        if nb1["fused_speedup"] < NB1_FUSED_SPEEDUP_FLOOR:
            failures.append(
                f"compiler Nb=1: lane-fused run slower than the "
                f"per-command fallback ({nb1['fused_speedup']:.2f}x)")

    for name, entry in kernels.get("mapper", {}).items():
        us_per_cmd = entry["cold_us_per_cmd"] / entry["slowdown"]
        print(f"mapper: N={entry['n']} Nb={entry['nb']} cold map "
              f"{entry['cold_map_s'] * 1e3:.2f} ms "
              f"({entry['cold_us_per_cmd']:.2f} us/cmd at host slowdown "
              f"{entry['slowdown']:.2f}x = {us_per_cmd:.2f} us/cmd at "
              f"reference speed, ceiling {MAP_US_PER_CMD_CEILING})")
        if us_per_cmd > MAP_US_PER_CMD_CEILING:
            failures.append(
                f"mapper {name}: cold map {us_per_cmd:.2f} us/cmd at "
                f"reference speed ({entry['cold_us_per_cmd']:.2f} raw / "
                f"{entry['slowdown']:.2f}x slowdown) exceeds the "
                f"{MAP_US_PER_CMD_CEILING} us/cmd ceiling")

    for name, entry in kernels.get("dataplane", {}).items():
        ns_per_bu = entry["ns_per_bu"] / entry["slowdown"]
        print(f"dataplane: N={entry['n']} x {entry['banks']} banks warm "
              f"dispatch {entry['dispatch_s'] * 1e3:.2f} ms "
              f"({entry['ns_per_bu']:.1f} ns/bu at host slowdown "
              f"{entry['slowdown']:.2f}x = {ns_per_bu:.1f} ns/bu at "
              f"reference speed, ceiling {DATAPLANE_NS_PER_BU_CEILING})")
        if ns_per_bu > DATAPLANE_NS_PER_BU_CEILING:
            failures.append(
                f"dataplane N={name}: {ns_per_bu:.1f} ns per butterfly "
                f"µ-op at reference speed ({entry['ns_per_bu']:.1f} raw / "
                f"{entry['slowdown']:.2f}x slowdown) exceeds the "
                f"{DATAPLANE_NS_PER_BU_CEILING} ns/bu ceiling")
        unchecked_s = entry["dispatch_s"] - entry["check_s"]
        verify_ratio = (entry["dispatch_s"] / unchecked_s
                        if unchecked_s > 0 else float("inf"))
        print(f"dataplane: N={entry['n']} dispatch / (dispatch - check "
              f"{entry['check_s'] * 1e3:.3f} ms) {verify_ratio:.3f}x "
              f"(ceiling {DATAPLANE_VERIFY_RATIO_CEILING})")
        if verify_ratio > DATAPLANE_VERIFY_RATIO_CEILING:
            failures.append(
                f"dataplane N={name}: the dispatch takes "
                f"{verify_ratio:.2f}x its time without the online check, "
                f"above the {DATAPLANE_VERIFY_RATIO_CEILING}x ceiling")
        print(f"dataplane: N={entry['n']} bank run alone "
              f"{entry['bank_s'] * 1e3:.3f} ms, host share "
              f"{entry['host_share']:.3f} (ceiling "
              f"{DATAPLANE_HOST_SHARE_CEILING})")
        if entry["host_share"] > DATAPLANE_HOST_SHARE_CEILING:
            failures.append(
                f"dataplane N={name}: the dispatch spends "
                f"{entry['host_share']:.2f} of its time outside the bank "
                f"run, above the {DATAPLANE_HOST_SHARE_CEILING} ceiling")

    for name, entry in kernels.get("plans", {}).items():
        moves = max(entry["max_reads_per_atom"],
                    entry["max_writes_per_atom"])
        print(f"plans: N={entry['n']} Nb={entry['nb']} "
              f"{entry['read_ops']} read / {entry['write_ops']} write ops, "
              f"{entry['atoms_read']} / {entry['atoms_written']} atoms of "
              f"{entry['atoms']} (ceiling {PLAN_MAX_MOVES_PER_ATOM} per atom)")
        if moves > PLAN_MAX_MOVES_PER_ATOM:
            failures.append(
                f"plan {name}: reads an atom up to "
                f"{entry['max_reads_per_atom']}x and writes one up to "
                f"{entry['max_writes_per_atom']}x, above the "
                f"{PLAN_MAX_MOVES_PER_ATOM} per-atom ceiling")
        print(f"plans: N={entry['n']} Nb={entry['nb']} pool "
              f"{entry['pool_slots']} slots for {entry['atoms']} atoms, "
              f"{entry['view_groups']} view / {entry['fallback_groups']} "
              f"index groups (ceiling {PLAN_MAX_SLOTS_PER_ATOM} slot per "
              f"atom)")
        if entry["pool_slots"] > PLAN_MAX_SLOTS_PER_ATOM * entry["atoms"]:
            failures.append(
                f"plan {name}: {entry['pool_slots']} pool slots for "
                f"{entry['atoms']} atoms, above the "
                f"{PLAN_MAX_SLOTS_PER_ATOM} per-atom ceiling")

    loadgen = kernels.get("loadgen")
    if loadgen is not None:
        us_per_req = loadgen["us_per_req"] / loadgen["slowdown"]
        print(f"loadgen: {loadgen['requests']} {loadgen['scenario']} "
              f"requests {loadgen['us_per_req']:.1f} us/req at host "
              f"slowdown {loadgen['slowdown']:.2f}x = {us_per_req:.1f} "
              f"us/req at reference speed (ceiling "
              f"{LOADGEN_US_PER_REQ_CEILING})")
        if us_per_req > LOADGEN_US_PER_REQ_CEILING:
            failures.append(
                f"loadgen: {us_per_req:.1f} us per request at reference "
                f"speed ({loadgen['us_per_req']:.1f} raw / "
                f"{loadgen['slowdown']:.2f}x slowdown) exceeds the "
                f"{LOADGEN_US_PER_REQ_CEILING} us/req ceiling")

    engine = kernels["timing_engine"]
    for n, entry in engine.items():
        us_per_cmd = entry["engine_stream_us_per_cmd"] / entry["slowdown"]
        print(f"engine: N={n} stream {entry['engine_speedup']:.2f}x, "
              f"fused bank {entry['bank_speedup']:.2f}x (floors "
              f"{ENGINE_SPEEDUP_FLOOR}/{BANK_SPEEDUP_FLOOR}), replay "
              f"{entry['engine_stream_us_per_cmd']:.2f} us/cmd at host "
              f"slowdown {entry['slowdown']:.2f}x = {us_per_cmd:.2f} us/cmd "
              f"at reference speed (ceiling {TIMING_US_PER_CMD_CEILING})")
        if us_per_cmd > TIMING_US_PER_CMD_CEILING:
            failures.append(
                f"N={n}: stream replay {us_per_cmd:.2f} us/cmd at reference "
                f"speed ({entry['engine_stream_us_per_cmd']:.2f} raw / "
                f"{entry['slowdown']:.2f}x slowdown) exceeds the "
                f"{TIMING_US_PER_CMD_CEILING} us/cmd ceiling")
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
