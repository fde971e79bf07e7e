"""Serving-layer benchmark: naive sequential submission vs the batching
scheduler, on the skewed same-shape mix, at three offered arrival rates
(below, near and far past the sequential server's saturation point).

Per rate and scheduler it records simulated throughput (req/s) and
p50/p99 latency, plus the host-side wall clock of the functional
simulation; a ``shards`` section sweeps shard
counts under the shared-bus vs independent-channel contention models
(bus utilization included — the README's shard-scaling table), and a
``resilience`` section sweeps injected fault rates x {policies off,
policies on} and records the availability / true-goodput gap the
recovery stack buys back, and a ``dag`` section sweeps dependent
op-graph chains (depth x arrival rate) and records served makespan
against the dependency critical path — the stretch the dependency-
aware scheduler is judged on, and a ``cluster`` section sweeps the
:mod:`repro.cluster` front-end across replica counts (1/2/4, both bus
models) on an overloaded mixed mix — the replica-scaling goodput curve
the trajectory gate floors — and a ``replica_faults`` section sweeps
replica-scoped crash/hang/partition chaos through the self-healing
watchdog, static fleet vs heartbeat-driven autoscale (availability and
goodput-ratio floors).  Results land in ``BENCH_serve.json`` at the
repo root.

Non-gating when run directly —

    PYTHONPATH=src python benchmarks/bench_serve.py

and a CI smoke target (the ``serve-smoke`` / ``bench-trajectory``
jobs) asserting that every batched response — forward, inverse and
negacyclic transforms alike — is bit-identical to a standalone
``Simulator.run`` of the same request, that the live
``submit()/poll()/drain()`` surface reproduces the offline ``serve()``
results exactly, and that batching sustains at least twice the naive
sequential throughput on the overloaded skewed mix:

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -s
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.api import Simulator
from repro.dag import ntt_pipeline
from repro.dram.stream import cached_streams
from repro.mapping.program_cache import cached_programs
from repro.serve import LoadGenerator, Scenario, SimServer, make_scenario
from repro.sim import driver
from repro.sim.driver import SimConfig

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_serve.json"

#: Offered load in requests per simulated second.  The sequential
#: server saturates near ~95k req/s on this mix (one N=512 transform
#: at a time); the three points sit below, above and far above it.
RATES = (60_000, 150_000, 400_000)
COUNT = 80
SCENARIO = "skewed"
SEED = 1
WINDOW_US = 50.0
MAX_BANKS = 8

#: Functional execution on: every dispatch runs the online check, and
#: the outputs are also bit-checked against standalone runs below.
CONFIG = SimConfig()


#: Shard-scaling sweep: shard counts x bus models, on the shape-diverse
#: uniform mix far past saturation (so shards actually contend).
SHARD_COUNTS = (1, 2, 4)
SHARD_RATE = 3_000_000
SHARD_SCENARIO = "uniform"

#: Cluster sweep: replica counts x bus models through the
#: repro.cluster front-end, on the mixed mix far past one replica's
#: saturation with a tight deadline — goodput (deadline-met
#: completions per simulated second) must climb as replicas are added,
#: because consistent-hash routing spreads the four merge keys across
#: replicas while keeping each shape coalescible.
CLUSTER_REPLICAS = (1, 2, 4)
CLUSTER_RATE = 3_000_000
CLUSTER_SCENARIO = "mixed"
CLUSTER_DEADLINE_US = 300.0
CLUSTER_SHARDS = 2

#: Resilience sweep: fault rate x {policies off, policies on} on the
#: chaos mix.  "True goodput" only counts responses that completed,
#: made their deadline AND bit-match a standalone solo run — so
#: undetected corruption (policies off) is charged as badput.
FAULT_RATES = (0.0, 0.1, 0.25)
FAULT_SEED = 7
RES_SCENARIO = "chaos"
RES_RATE = 150_000
RES_COUNT = 50
RES_SEED = 3
RES_DEADLINE_US = 4000.0

#: DAG sweep: chain depth x arrival rate, pure linear NTT pipelines
#: over the hot N=512 ring.  Makespan can only approach the dependency
#: critical path from above (stretch >= 1.0); the gap is queueing,
#: windowing and bus time the dependency-aware scheduler could not
#: hide.  Deeper chains serialize more of each graph, so their stretch
#: under load is the headline the README's critical-path table quotes.
DAG_DEPTHS = (2, 4)
DAG_RATES = (30_000, 120_000)
DAG_COUNT = 16
DAG_N = 512

#: Replica-fault sweep: replica-scoped crash/hang/partition chaos
#: through the self-healing cluster tier, static 2-replica fleet vs a
#: 2:4 autoscale fleet under sustained overload (~1.4x the static
#: fleet's capacity).  Availability must hold (the watchdog's failover
#: + orphan recovery serves every admitted request exactly once) and
#: the autoscale fleet must buy goodput back at every profile.  The
#: bench profiles compress the stock 800us fault intervals to 60us so
#: chaos lands inside the overload window.
RF_RATE = 1_500_000
RF_COUNT = 500
RF_DEADLINE_US = 500.0
RF_SEED = 5
RF_STATIC_REPLICAS = 2


def _rf_profiles():
    from repro.serve.faults import ReplicaFaultProfile

    return {
        "none": None,
        "crashy": ReplicaFaultProfile(name="bench-crashy", crash_rate=0.3,
                                      interval_us=60.0),
        # Hang/partition windows shorter than the watchdog's down
        # detection (2 x 25us), so some dark links heal on their own —
        # the SUSPECT -> UP path — instead of always being restarted.
        "chaos": ReplicaFaultProfile(name="bench-chaos", crash_rate=0.15,
                                     hang_rate=0.2, partition_rate=0.1,
                                     interval_us=60.0, hang_us=40.0,
                                     partition_us=30.0),
    }


def _rf_policies():
    from repro.cluster import AutoscalePolicy, WatchdogPolicy

    watchdog = WatchdogPolicy(heartbeat_us=25.0, suspect_after=1,
                              down_after=2, restart_delay_us=60.0)
    autoscale = AutoscalePolicy(min_replicas=RF_STATIC_REPLICAS,
                                max_replicas=4, scale_out_load=6.0,
                                scale_in_load=0.0, sustain_ticks=2,
                                cooldown_us=50.0)
    return watchdog, autoscale


def _load(rate: float, scenario: str = SCENARIO,
          count: int = COUNT) -> LoadGenerator:
    return LoadGenerator(make_scenario(scenario), rate_rps=rate,
                         count=count, seed=SEED)


@contextmanager
def _counting_bank_runs():
    """Count the stacked bank runs (``driver._run_bank`` calls) inside
    the block: a serving session stacks the banks of its dispatches per
    transform shape, so it makes fewer bank runs than dispatches unless
    the stacked path silently fell back to one run per dispatch."""
    runs = [0]
    real = driver._run_bank

    def counted(*args):
        runs[0] += 1
        return real(*args)

    driver._run_bank = counted
    try:
        yield runs
    finally:
        driver._run_bank = real


def _stream_cache_spread() -> dict:
    """How many streams the stream cache holds and the most banks any
    of them spans: only what a bank runs compiles, so every cached
    stream spans one bank (a merged multi-bank stream is never kept)."""
    streams = cached_streams()
    return {"stream_entries": len(streams),
            "stream_max_banks": max((len(np.unique(stream.ir.banks))
                                     for stream in streams), default=0)}


def _program_cache_spread() -> dict:
    """How many programs the program cache holds and the highest bank
    any of them names: programs are bank-relative (the bus interleave
    assigns banks), so every cached program sits on bank 0 and one
    serves every bank of its transform."""
    programs = cached_programs()
    return {"program_entries": len(programs),
            "program_max_bank": max((int(program.ir.banks.max(initial=0))
                                     for program in programs), default=0)}


def _serve(scheduler: str, rate: float, scenario: str = SCENARIO,
           num_shards: int = 1, bus: str = "shared"):
    server = SimServer(CONFIG, scheduler=scheduler, window_us=WINDOW_US,
                       max_banks=MAX_BANKS, num_shards=num_shards, bus=bus,
                       max_depth=4096)
    start = time.perf_counter()
    results = server.serve(_load(rate, scenario).requests())
    wall_s = time.perf_counter() - start
    return server, results, wall_s


def _cluster_run(replicas: int, bus: str) -> dict:
    from repro.cluster import ClusterFrontend

    load = LoadGenerator(make_scenario(CLUSTER_SCENARIO),
                         rate_rps=CLUSTER_RATE, count=COUNT, seed=SEED,
                         deadline_us=CLUSTER_DEADLINE_US)
    frontend = ClusterFrontend(replicas, CONFIG, router="hash",
                               window_us=WINDOW_US, max_banks=MAX_BANKS,
                               num_shards=CLUSTER_SHARDS, bus=bus,
                               max_depth=4096)
    frontend.serve(load.requests())
    snap = frontend.cluster_snapshot()
    return {
        "goodput_rps": snap["goodput_rps"],
        "throughput_rps": snap["throughput_rps"],
        "availability": snap["availability"],
        "deadline_missed": snap["deadline_missed"],
        "latency_p99_us": snap["latency_p99_us"],
        "mean_batch_occupancy": snap["mean_batch_occupancy"],
    }


def _resilience_run(fault_rate: float, policy: str) -> dict:
    load = LoadGenerator(make_scenario(RES_SCENARIO), rate_rps=RES_RATE,
                         count=RES_COUNT, seed=RES_SEED,
                         high_priority_fraction=0.2,
                         deadline_us=RES_DEADLINE_US)
    server = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS,
                       num_shards=2, max_depth=4096,
                       faults=(f"rate:{fault_rate}" if fault_rate else None),
                       fault_seed=FAULT_SEED, policy=policy)
    requests = load.requests()
    results = server.serve(requests)
    solo = Simulator(CONFIG)
    good = 0
    for sreq, result in zip(requests, results):
        if not result.ok or result.record.deadline_missed:
            continue
        if result.response.values == solo.run(sreq.request).values:
            good += 1
    snap = server.telemetry.snapshot()
    res = snap["resilience"]
    makespan_s = snap["makespan_us"] * 1e-6
    return {
        "availability": snap["availability"],
        "goodput_rps": snap["goodput_rps"],
        "true_goodput_rps": good / makespan_s if makespan_s > 0 else 0.0,
        "completed": snap["completed"],
        "failed": snap["failed"],
        "faults_injected": sum(res["faults_injected"].values()),
        "retries": res["retries"],
        "timeouts": res["timeouts"],
        "detected_mismatches": res["detected_mismatches"],
        "breaker_trips": res["breaker_trips"],
    }


def _dag_scenario(depth: int) -> Scenario:
    def make(rng):
        return ntt_pipeline(DAG_N, stages=depth, seed=rng.randrange(2 ** 31))
    return Scenario(name=f"dag-depth-{depth}",
                    description=f"{depth}-stage N={DAG_N} NTT pipelines",
                    mix=((1.0, make),))


def _dag_run(depth: int, rate: float) -> dict:
    load = LoadGenerator(_dag_scenario(depth), rate_rps=rate,
                         count=DAG_COUNT, seed=SEED)
    server = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS,
                       max_depth=4096)
    server.serve(load.requests())
    dag = server.telemetry.snapshot()["dag"]
    return {
        "makespan_mean_us": dag["makespan_mean_us"],
        "critical_path_mean_us": dag["critical_path_mean_us"],
        "stretch": dag["critical_path_stretch"],
        "stage_latency_p99_us": dag["stage_latency_p99_us"],
        "dags": dag["dags"],
        "completed": dag["completed"],
    }


def _replica_fault_run(profile, autoscale: bool) -> dict:
    from repro.cluster import ClusterFrontend

    watchdog, autoscale_policy = _rf_policies()
    load = LoadGenerator(make_scenario(CLUSTER_SCENARIO), rate_rps=RF_RATE,
                         count=RF_COUNT, seed=SEED,
                         deadline_us=RF_DEADLINE_US)
    frontend = ClusterFrontend(
        RF_STATIC_REPLICAS, CONFIG, router="hash", window_us=WINDOW_US,
        max_banks=MAX_BANKS, num_shards=CLUSTER_SHARDS, max_depth=4096,
        replica_faults=profile, replica_fault_seed=RF_SEED,
        watchdog=watchdog,
        autoscale=autoscale_policy if autoscale else None)
    frontend.serve(load.requests())
    snap = frontend.cluster_snapshot()
    health = frontend.health.snapshot()
    return {
        "goodput_rps": snap["goodput_rps"],
        "availability": snap["availability"],
        "deadline_missed": snap["deadline_missed"],
        "mttr_us": health["mttr_us"],
        "restarts": health["restarts"],
        "failovers": health["failovers"],
        "orphans_recovered": health["orphans_recovered"],
        "duplicates_dropped": health["duplicates_dropped"],
        "scale_out": health["scale_out"],
        "scale_in": health["scale_in"],
    }


def run(out_path: Path = DEFAULT_OUT) -> dict:
    section: dict = {
        "description": f"{SCENARIO} mix, {COUNT} requests, seed {SEED}; "
                       f"batching window {WINDOW_US:.0f}us, "
                       f"max_banks {MAX_BANKS}; times simulated unless "
                       f"suffixed wall",
        "rates": {},
    }
    for rate in RATES:
        entry: dict = {}
        for scheduler in ("sequential", "batching"):
            with _counting_bank_runs() as bank_runs:
                server, _, wall_s = _serve(scheduler, rate)
            snap = server.telemetry.snapshot()
            entry[scheduler] = {
                "throughput_rps": snap["throughput_rps"],
                "latency_p50_us": snap["latency_p50_us"],
                "latency_p99_us": snap["latency_p99_us"],
                "mean_batch_occupancy": snap["mean_batch_occupancy"],
                "wall_s": wall_s,
            }
            if scheduler == "batching" and rate == RATES[-1]:
                # The stacking gate: check_trajectory fails unless the
                # session ran fewer bank stacks than dispatches.
                entry[scheduler]["bank_runs"] = bank_runs[0]
                entry[scheduler]["dispatches"] = snap["dispatches"]
                # The stream- and program-cache gates: they fail if a
                # cached stream spans more than one bank or a cached
                # program names a bank other than 0.
                entry[scheduler].update(_stream_cache_spread())
                entry[scheduler].update(_program_cache_spread())
        entry["throughput_speedup"] = (
            entry["batching"]["throughput_rps"]
            / entry["sequential"]["throughput_rps"])
        section["rates"][str(rate)] = entry

    # Shard scaling under the two cross-shard bus models: the shared
    # command bus charges every dispatch its compiled stream's command
    # count, so the curve bends as utilization climbs; the independent
    # model is the optimistic per-channel upper bound.
    shards_section: dict = {
        "description": f"{SHARD_SCENARIO} mix at {SHARD_RATE} req/s "
                       f"(overload), {COUNT} requests; throughput and "
                       f"bus utilization per shard count and bus model",
    }
    for bus in ("independent", "shared"):
        entry = {}
        for shards in SHARD_COUNTS:
            server, _, _ = _serve("batching", SHARD_RATE,
                                  scenario=SHARD_SCENARIO,
                                  num_shards=shards, bus=bus)
            snap = server.telemetry.snapshot()
            entry[str(shards)] = {
                "throughput_rps": snap["throughput_rps"],
                "latency_p99_us": snap["latency_p99_us"],
                "bus_utilization": snap["bus_utilization"],
                "bus_wait_p99_us": snap["bus_wait_p99_us"],
            }
        shards_section[bus] = entry
    section["shards"] = shards_section

    # Replica scaling through the cluster front-end: goodput per
    # replica count under both bus models.  The merge keys spread, the
    # batches survive, and goodput climbs — the cluster's reason to
    # exist, gated by check_trajectory.
    cluster_section: dict = {
        "description": f"{CLUSTER_SCENARIO} mix at {CLUSTER_RATE} req/s "
                       f"(overload), {COUNT} requests, deadline "
                       f"{CLUSTER_DEADLINE_US:.0f}us, hash router, "
                       f"{CLUSTER_SHARDS} shards per replica; goodput "
                       f"per replica count and bus model",
    }
    for bus in ("independent", "shared"):
        cluster_section[bus] = {
            str(replicas): _cluster_run(replicas, bus)
            for replicas in CLUSTER_REPLICAS}
    section["cluster"] = cluster_section

    # Resilience: fault rate x policy.  The recovery stack (retries,
    # timeouts, breakers, detection) must buy goodput back — strictly —
    # at every nonzero fault rate; at rate 0 the two policies serve the
    # same plan (timeouts/detection never fire without faults).
    resilience_section: dict = {
        "description": f"{RES_SCENARIO} mix at {RES_RATE} req/s, "
                       f"{RES_COUNT} requests, deadline "
                       f"{RES_DEADLINE_US:.0f}us, fault seed {FAULT_SEED}; "
                       f"true goodput counts deadline-met responses that "
                       f"bit-match a standalone solo run",
    }
    for fault_rate in FAULT_RATES:
        resilience_section[f"{fault_rate:g}"] = {
            policy: _resilience_run(fault_rate, policy)
            for policy in ("none", "standard")}
    section["resilience"] = resilience_section

    # DAG serving: chain depth x arrival rate.  The committed floors
    # (check_trajectory) are structural — stretch >= 1.0 and every
    # offered graph completes — while the measured stretch values are
    # the README's critical-path table.
    dag_section: dict = {
        "description": f"linear N={DAG_N} NTT pipelines, depth x arrival "
                       f"rate, {DAG_COUNT} graphs per cell, seed {SEED}; "
                       f"makespan vs dependency critical path "
                       f"(stretch >= 1.0 by construction)",
    }
    for depth in DAG_DEPTHS:
        dag_section[str(depth)] = {
            str(rate): _dag_run(depth, rate) for rate in DAG_RATES}
    section["dag"] = dag_section

    # Replica faults: self-healing under crash/hang/partition chaos,
    # static fleet vs autoscale.  Availability is the exactly-once
    # claim; the goodput ratio is what heartbeat-driven scale-out buys.
    replica_fault_section: dict = {
        "description": f"{CLUSTER_SCENARIO} mix at {RF_RATE} req/s "
                       f"(sustained overload), {RF_COUNT} requests, "
                       f"deadline {RF_DEADLINE_US:.0f}us, replica-fault "
                       f"seed {RF_SEED}; static {RF_STATIC_REPLICAS}-"
                       f"replica fleet vs {RF_STATIC_REPLICAS}:4 "
                       f"autoscale under the supervising watchdog",
    }
    for name, profile in _rf_profiles().items():
        static = _replica_fault_run(profile, autoscale=False)
        auto = _replica_fault_run(profile, autoscale=True)
        replica_fault_section[name] = {
            "static": static,
            "autoscale": auto,
            "goodput_ratio": (auto["goodput_rps"]
                              / max(static["goodput_rps"], 1e-9)),
        }
    section["replica_faults"] = replica_fault_section

    out_path.write_text(json.dumps({"serve": section}, indent=2) + "\n")
    return {"serve": section}


def _format(results: dict) -> str:
    section = results["serve"]
    lines = ["serving: naive sequential vs batching scheduler "
             f"({SCENARIO} mix, {COUNT} requests):"]
    for rate, entry in section["rates"].items():
        seq, bat = entry["sequential"], entry["batching"]
        lines.append(
            f"  rate={int(rate):>7d}/s  "
            f"seq {seq['throughput_rps'] / 1e3:6.1f}k rps "
            f"p99={seq['latency_p99_us']:7.1f}us | "
            f"batch {bat['throughput_rps'] / 1e3:6.1f}k rps "
            f"p99={bat['latency_p99_us']:6.1f}us "
            f"occ={bat['mean_batch_occupancy']:.1f} | "
            f"x{entry['throughput_speedup']:.2f}")
    shards = section["shards"]
    lines.append(f"shard scaling ({SHARD_SCENARIO} mix, overload), "
                 f"independent vs shared bus:")
    for count in SHARD_COUNTS:
        ind = shards["independent"][str(count)]
        sha = shards["shared"][str(count)]
        lines.append(
            f"  shards={count}:  ind {ind['throughput_rps'] / 1e3:6.1f}k rps"
            f" | shared {sha['throughput_rps'] / 1e3:6.1f}k rps "
            f"bus={sha['bus_utilization'] * 100:4.1f}% "
            f"wait p99={sha['bus_wait_p99_us']:5.1f}us")
    cluster = section["cluster"]
    lines.append(f"cluster replica scaling ({CLUSTER_SCENARIO} mix, "
                 f"overload, {CLUSTER_DEADLINE_US:.0f}us deadline):")
    for count in CLUSTER_REPLICAS:
        ind = cluster["independent"][str(count)]
        sha = cluster["shared"][str(count)]
        lines.append(
            f"  replicas={count}:  "
            f"ind {ind['goodput_rps'] / 1e3:6.1f}k goodput | "
            f"shared {sha['goodput_rps'] / 1e3:6.1f}k goodput "
            f"p99={sha['latency_p99_us']:5.1f}us "
            f"occ={sha['mean_batch_occupancy']:.1f}")
    dag_sweep = section.get("dag", {})
    if dag_sweep:
        lines.append(f"dag serving (N={DAG_N} pipelines), makespan vs "
                     f"critical path:")
        for depth in DAG_DEPTHS:
            for rate in DAG_RATES:
                entry = dag_sweep[str(depth)][str(rate)]
                lines.append(
                    f"  depth={depth} rate={rate:>7d}/s:  "
                    f"critical {entry['critical_path_mean_us']:6.1f}us -> "
                    f"makespan {entry['makespan_mean_us']:6.1f}us "
                    f"(stretch x{entry['stretch']:.2f}) "
                    f"stage p99={entry['stage_latency_p99_us']:6.1f}us "
                    f"{entry['completed']}/{entry['dags']} done")
    lines.append(f"resilience ({RES_SCENARIO} mix), true goodput "
                 f"policies off vs on:")
    for fault_rate in FAULT_RATES:
        entry = section["resilience"][f"{fault_rate:g}"]
        off, on = entry["none"], entry["standard"]
        lines.append(
            f"  faults={fault_rate:4.2f}:  "
            f"off {off['true_goodput_rps'] / 1e3:6.1f}k rps "
            f"avail={off['availability'] * 100:5.1f}% | "
            f"on {on['true_goodput_rps'] / 1e3:6.1f}k rps "
            f"avail={on['availability'] * 100:5.1f}% "
            f"(retries={on['retries']} timeouts={on['timeouts']} "
            f"detected={on['detected_mismatches']})")
    replica_faults = section.get("replica_faults", {})
    if replica_faults:
        lines.append(f"replica faults ({CLUSTER_SCENARIO} mix, overload), "
                     f"static {RF_STATIC_REPLICAS} replicas vs autoscale:")
        for name in _rf_profiles():
            entry = replica_faults[name]
            static, auto = entry["static"], entry["autoscale"]
            lines.append(
                f"  {name:6s}:  static {static['goodput_rps'] / 1e3:6.1f}k "
                f"avail={static['availability'] * 100:5.1f}% | "
                f"auto {auto['goodput_rps'] / 1e3:6.1f}k "
                f"avail={auto['availability'] * 100:5.1f}% "
                f"x{entry['goodput_ratio']:.2f} "
                f"(failovers={auto['failovers']} restarts={auto['restarts']} "
                f"scale=+{auto['scale_out']} mttr={auto['mttr_us']:.0f}us)")
    return "\n".join(lines)


def test_serve_smoke(show):
    """CI gate: bit-identity of every batched response with a
    standalone facade run, and >= 2x batching throughput on the
    overloaded skewed mix (measured ~3.3x; the margin absorbs noise in
    the deterministic virtual-time model — there is none — and guards
    the scheduler's merge quality)."""
    rate = RATES[-1]
    load_requests = _load(rate).requests()
    batching, results, _ = _serve("batching", rate)
    solo = Simulator(CONFIG)
    for sreq, result in zip(load_requests, results):
        assert result.ok
        solo_response = solo.run(sreq.request)
        assert result.response.values == solo_response.values, (
            f"request {sreq.request_id}: batched response diverges from "
            f"standalone Simulator.run")
    sequential, _, _ = _serve("sequential", rate)
    b = batching.telemetry.snapshot()
    s = sequential.telemetry.snapshot()
    speedup = b["throughput_rps"] / s["throughput_rps"]
    show(f"serve smoke: batching {b['throughput_rps'] / 1e3:.1f}k rps vs "
         f"sequential {s['throughput_rps'] / 1e3:.1f}k rps "
         f"({speedup:.2f}x), p99 {b['latency_p99_us']:.1f}us vs "
         f"{s['latency_p99_us']:.1f}us")
    assert speedup >= 2.0
    assert b["mean_batch_occupancy"] > 2.0


def test_generalized_batching_bit_identical(show):
    """CI gate: the full batchable transform zoo — forward/inverse
    cyclic NTTs and forward/inverse negacyclic transforms — coalesces
    into multi-bank dispatches whose per-request responses are
    bit-identical to standalone facade runs."""
    load_requests = _load(rate=RATES[-1], scenario="mixed").requests()
    server = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS)
    results = server.serve(load_requests)
    solo = Simulator(CONFIG)
    grouped_by_kind = {}
    for sreq, result in zip(load_requests, results):
        assert result.ok
        assert result.response.values == solo.run(sreq.request).values, (
            f"request {sreq.request_id} ({sreq.request.workload}): merged "
            f"response diverges from standalone Simulator.run")
        if result.record.group_banks > 1:
            req = sreq.request
            kind = (req.workload, req.inverse)
            grouped_by_kind[kind] = grouped_by_kind.get(kind, 0) + 1
    # Every kind actually merged (not just passed through solo).
    assert set(grouped_by_kind) == {("ntt", False), ("ntt", True),
                                    ("negacyclic", False),
                                    ("negacyclic", True)}
    show("generalized batching: merged group members per kind: "
         + ", ".join(f"{w}{'-inv' if i else ''}={c}"
                     for (w, i), c in sorted(grouped_by_kind.items())))


def test_live_surface_bit_identical_to_offline(show):
    """CI gate: driving the server through submit()/poll()/drain()
    reproduces the offline serve() plan and results exactly — same
    values, same virtual-time records."""
    offline = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS)
    off_results = offline.serve(_load(RATES[-1], "mixed").requests())
    live = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS)
    outstanding = []
    polled = 0
    for sreq in _load(RATES[-1], "mixed").stream():
        outstanding.append(live.submit(sreq))
        if live.poll(outstanding[0]) is not None:
            outstanding.pop(0)
            polled += 1
    live_results = live.drain()
    assert len(live_results) == len(off_results)
    for off, lv in zip(off_results, live_results):
        assert lv.response.values == off.response.values
        assert lv.record.completion_us == off.record.completion_us
        assert lv.record.start_us == off.record.start_us
        assert lv.record.shard == off.record.shard
        assert lv.record.group_banks == off.record.group_banks
    assert polled > 0  # the live client really saw results mid-stream
    show(f"live surface: {len(live_results)} requests bit-identical to "
         f"offline serve(), {polled} observed via poll() mid-stream")


def test_resilience_policies_recover_goodput(show):
    """CI gate (the chaos-smoke claim): at every nonzero fault rate the
    resilience policies buy *true* goodput back — strictly above the
    policies-off run under the identical fault schedule — and at rate 0
    the two policies produce identical serving numbers (the policy
    knobs are inert without faults)."""
    zero = {policy: _resilience_run(0.0, policy)
            for policy in ("none", "standard")}
    assert zero["none"] == zero["standard"]
    assert zero["none"]["faults_injected"] == 0
    for fault_rate in [r for r in FAULT_RATES if r > 0]:
        off = _resilience_run(fault_rate, "none")
        on = _resilience_run(fault_rate, "standard")
        assert off["faults_injected"] > 0  # the sweep actually injected
        assert on["true_goodput_rps"] > off["true_goodput_rps"], (
            f"fault rate {fault_rate}: policies-on true goodput "
            f"{on['true_goodput_rps']:.0f} not above policies-off "
            f"{off['true_goodput_rps']:.0f}")
        assert on["availability"] >= off["availability"]
        show(f"resilience @ faults={fault_rate:g}: true goodput "
             f"off {off['true_goodput_rps'] / 1e3:.1f}k -> "
             f"on {on['true_goodput_rps'] / 1e3:.1f}k rps, availability "
             f"{off['availability'] * 100:.1f}% -> "
             f"{on['availability'] * 100:.1f}%")


def test_cluster_replica_scaling(show):
    """CI gate: adding replicas buys goodput on the overloaded mixed
    mix — strictly monotonic across the sweep for both bus models —
    and the shared bus (which arbitrates one channel across all shards
    of every replica) never beats independent channels."""
    runs = {bus: {replicas: _cluster_run(replicas, bus)
                  for replicas in CLUSTER_REPLICAS}
            for bus in ("independent", "shared")}
    for bus, by_count in runs.items():
        for lo, hi in zip(CLUSTER_REPLICAS, CLUSTER_REPLICAS[1:]):
            assert by_count[hi]["goodput_rps"] > by_count[lo]["goodput_rps"], (
                f"{bus} bus: {hi} replicas goodput "
                f"{by_count[hi]['goodput_rps']:.0f} not above {lo} replicas "
                f"{by_count[lo]['goodput_rps']:.0f}")
        show(f"cluster scaling ({bus} bus): " + " -> ".join(
            f"{r}x {by_count[r]['goodput_rps'] / 1e3:.1f}k rps"
            for r in CLUSTER_REPLICAS))
    for replicas in CLUSTER_REPLICAS:
        assert (runs["shared"][replicas]["goodput_rps"]
                <= runs["independent"][replicas]["goodput_rps"] + 1e-6)


def test_dag_serving_bit_identical(show):
    """CI gate (the dag-smoke claim): serving the mixed ``dag``
    scenario — CKKS multiply chains, Kyber KEM batches and plain NTTs
    interleaved — produces whole-graph results bit-identical to the
    golden ``"dag"`` workload's standalone run, stage by stage."""
    load_requests = _load(RATES[0], scenario="dag", count=30).requests()
    server = SimServer(CONFIG, window_us=WINDOW_US, max_banks=MAX_BANKS,
                       max_depth=4096)
    results = server.serve(load_requests)
    solo = Simulator(CONFIG)
    graphs = stages = 0
    for sreq, result in zip(load_requests, results):
        assert result.ok
        golden = solo.run(sreq.request)
        assert result.response.values == golden.values, (
            f"request {sreq.request_id} ({sreq.request.workload}): served "
            f"response diverges from standalone Simulator.run")
        if sreq.request.workload != "dag":
            continue
        graphs += 1
        for name, stage_result in result.stages.items():
            stages += 1
            assert (stage_result.response.values
                    == golden.raw["responses"][name].values), (
                f"request {sreq.request_id} stage {name!r}: served stage "
                f"diverges from the golden model's stage response")
    assert graphs > 0 and stages > graphs
    show(f"dag serving: {graphs} graphs ({stages} stages) bit-identical "
         f"to the golden dag workload, stage by stage")


def test_dag_sweep_floors(show):
    """CI gate: across the depth x rate sweep every offered graph
    completes and the served makespan never beats the dependency
    critical path (stretch >= 1.0 — the scheduler can hide queueing,
    not dependencies)."""
    for depth in DAG_DEPTHS:
        for rate in DAG_RATES:
            entry = _dag_run(depth, rate)
            assert entry["dags"] == entry["completed"] == DAG_COUNT
            assert entry["critical_path_mean_us"] > 0.0
            assert entry["stretch"] >= 1.0 - 1e-9, (
                f"depth={depth} rate={rate}: served makespan beat the "
                f"dependency critical path (stretch {entry['stretch']:.3f})")
            show(f"dag sweep depth={depth} rate={rate}: critical "
                 f"{entry['critical_path_mean_us']:.1f}us -> makespan "
                 f"{entry['makespan_mean_us']:.1f}us "
                 f"(x{entry['stretch']:.2f})")


def test_replica_fault_self_healing(show):
    """CI gate (the cluster-chaos claim): under replica-scoped
    crash/hang/partition chaos the supervised cluster keeps availability
    at 1.0 — every admitted request served exactly once, through
    failover and restart — and the heartbeat-driven autoscale fleet
    beats the static fleet's goodput at every fault profile."""
    for name, profile in _rf_profiles().items():
        static = _replica_fault_run(profile, autoscale=False)
        auto = _replica_fault_run(profile, autoscale=True)
        assert static["availability"] == 1.0, (
            f"{name}: static fleet lost requests "
            f"(availability {static['availability']:.3f})")
        assert auto["availability"] == 1.0, (
            f"{name}: autoscale fleet lost requests "
            f"(availability {auto['availability']:.3f})")
        assert auto["scale_out"] > 0  # the overload really tripped it
        if profile is not None:
            assert auto["failovers"] > 0  # chaos really bit
            assert auto["goodput_rps"] > static["goodput_rps"], (
                f"{name}: autoscale goodput {auto['goodput_rps']:.0f} "
                f"not above static {static['goodput_rps']:.0f}")
        show(f"replica faults ({name}): static "
             f"{static['goodput_rps'] / 1e3:.0f}k rps -> autoscale "
             f"{auto['goodput_rps'] / 1e3:.0f}k rps, "
             f"failovers={auto['failovers']} restarts={auto['restarts']} "
             f"orphans={auto['orphans_recovered']} "
             f"mttr={auto['mttr_us']:.0f}us")


def test_bench_serve_writes_json(show, tmp_path):
    out = tmp_path / "BENCH_serve.json"
    results = run(out_path=out)
    show(_format(results))
    written = json.loads(out.read_text())
    assert set(written["serve"]["rates"]) == {str(r) for r in RATES}
    top = written["serve"]["rates"][str(RATES[-1])]
    assert top["throughput_speedup"] >= 2.0
    assert top["batching"]["stream_entries"] > 0
    assert top["batching"]["stream_max_banks"] == 1
    assert top["batching"]["program_entries"] > 0
    assert top["batching"]["program_max_bank"] == 0
    shards = written["serve"]["shards"]
    # The shared bus reports real utilization and can only be slower
    # than (or equal to) independent channels at every shard count.
    for count in SHARD_COUNTS:
        assert shards["shared"][str(count)]["bus_utilization"] > 0.0
        assert (shards["shared"][str(count)]["throughput_rps"]
                <= shards["independent"][str(count)]["throughput_rps"] + 1e-6)
    cluster = written["serve"]["cluster"]
    for bus in ("independent", "shared"):
        goodputs = [cluster[bus][str(count)]["goodput_rps"]
                    for count in CLUSTER_REPLICAS]
        assert goodputs == sorted(goodputs)
    resilience = written["serve"]["resilience"]
    for fault_rate in FAULT_RATES:
        entry = resilience[f"{fault_rate:g}"]
        if fault_rate > 0:
            assert (entry["standard"]["true_goodput_rps"]
                    > entry["none"]["true_goodput_rps"])
        else:
            assert entry["standard"] == entry["none"]
    dag_sweep = written["serve"]["dag"]
    for depth in DAG_DEPTHS:
        for rate in DAG_RATES:
            entry = dag_sweep[str(depth)][str(rate)]
            assert entry["completed"] == entry["dags"] == DAG_COUNT
            assert entry["stretch"] >= 1.0 - 1e-9
    replica_faults = written["serve"]["replica_faults"]
    for name in _rf_profiles():
        entry = replica_faults[name]
        assert entry["static"]["availability"] == 1.0
        assert entry["autoscale"]["availability"] == 1.0
        if name != "none":
            assert entry["goodput_ratio"] > 1.0


if __name__ == "__main__":
    print(_format(run()))
    print(f"wrote {DEFAULT_OUT}")
