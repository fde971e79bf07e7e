"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands::

    run [workload]   one workload through the repro.api facade
                     (ntt | negacyclic | batch | multibank | fhe;
                     --cache-info prints program/stream/schedule/
                     dispatch cache statistics)
    compile          compile one workload through the repro.compile
                     pass pipeline without running it (prints the SoA
                     IR summary and the fused plan or fallback reason)
    serve            drive synthetic open-loop traffic through the
                     repro.serve layer (batching scheduler, shards)
                     and print the telemetry rollup;
                     --cluster N serves through the repro.cluster
                     multi-replica front-end (routing, tenant quotas,
                     --watch live operator console)
    trace            dump the DRAM command trace for one NTT
    fig6 / fig7 / fig8 / table2 / table3 / ablations / banks
                     regenerate one experiment
    all              run every experiment (the full reproduction)
"""

from __future__ import annotations

import argparse
import random
import sys

from .api import (
    BatchRequest,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    Simulator,
    workload_names,
)
from .arith.primes import find_ntt_prime
from .arith.roots import NttParams
from .errors import ReproError
from .experiments import (
    run_ablations,
    run_bank_scaling,
    run_fig6,
    run_fig7,
    run_fig8,
    run_table2,
    run_table3,
)
from .experiments.runner import run_all
from .ntt.negacyclic import NegacyclicParams
from .pim.params import PimParams
from .sim.driver import SimConfig, TransformSpec
from .sim.trace import format_trace, trace_summary

__all__ = ["main"]

#: Workloads the generic ``run <workload>`` subcommand can construct
#: from flags.  Other registered workloads are API-only.
CLI_WORKLOADS = ("ntt", "negacyclic", "batch", "multibank", "fhe")


def _add_run_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("-n", type=int, default=1024,
                     help="polynomial length (power of two, default 1024)")
    sub.add_argument("--nb", type=int, default=2,
                     help="number of atom buffers incl. primary (default 2)")
    sub.add_argument("--freq", type=float, default=1200.0,
                     help="clock in MHz (default 1200)")
    sub.add_argument("--seed", type=int, default=0)


def _make_config(args) -> SimConfig:
    config = SimConfig(pim=PimParams(nb_buffers=args.nb))
    if args.freq != 1200.0:
        config = config.at_frequency(args.freq)
    return config


def _build_request(args):
    """One facade request from the run subcommand's flags."""
    n, workload = args.n, args.workload
    rng = random.Random(args.seed)
    if workload in ("negacyclic", "fhe"):
        q = find_ntt_prime(n, 32, negacyclic=True)
        ring = NegacyclicParams(n, q)
        values = [rng.randrange(q) for _ in range(n)]
        if workload == "negacyclic":
            return NegacyclicRequest(ring=ring, values=values)
        other = [rng.randrange(q) for _ in range(n)]
        return FheOpRequest(ring=ring, op="multiply", a=values, b=other,
                            native=args.native)
    q = find_ntt_prime(n, 32)
    params = NttParams(n, q)
    if workload == "ntt":
        return NttRequest(params=params,
                          values=[rng.randrange(q) for _ in range(n)])
    inputs = [[rng.randrange(q) for _ in range(n)]
              for _ in range(args.count)]
    if workload == "batch":
        return BatchRequest(params=params, inputs=inputs)
    return MultiBankRequest(params=params, inputs=inputs)


def _print_cache_info(simulator: Simulator) -> None:
    for cache, stats in simulator.cache_info().items():
        print(f"{cache + ' cache':<15}: entries={stats['entries']} "
              f"hits={stats['hits']} misses={stats['misses']}")


def _cmd_run(args) -> int:
    if args.workload not in CLI_WORKLOADS:
        registered = ", ".join(workload_names())
        print(f"unknown workload {args.workload!r}; CLI workloads: "
              f"{', '.join(CLI_WORKLOADS)} (registered: {registered})",
              file=sys.stderr)
        return 2
    simulator = Simulator(_make_config(args))
    response = simulator.run(_build_request(args))
    print(response.summary())
    if args.cache_info:
        print("run caches     : " + ", ".join(
            f"{cache} {stats}" for cache, stats in response.cache.items()))
        print(f"wall time      : {response.wall_time_s * 1e3:.2f} ms")
        _print_cache_info(simulator)
    return 0


def _cmd_compile(args) -> int:
    if args.workload not in ("ntt", "negacyclic", "batch", "multibank"):
        print(f"unknown compile workload {args.workload!r}; choose from "
              "ntt, negacyclic, batch, multibank", file=sys.stderr)
        return 2
    from .api import compile_request

    print(compile_request(_build_request(args), _make_config(args)).describe())
    return 0


def _cmd_serve(args) -> int:
    # Imported here: the serving layer sits above the facade and only
    # this subcommand needs it.
    from .serve import LoadGenerator, SimServer, make_scenario

    scenario = make_scenario(args.scenario)
    config = SimConfig()
    rate_profile = None
    if args.burst is not None:
        peak, start_us, duration_us = args.burst
        rate_profile = LoadGenerator.burst_profile(
            args.rate, peak, start_us=start_us, duration_us=duration_us)
    tenants = (LoadGenerator.noisy_neighbor() if args.tenants == "noisy"
               else None)
    load = LoadGenerator(scenario, rate_rps=args.rate, count=args.requests,
                         seed=args.seed,
                         high_priority_fraction=args.high_priority,
                         deadline_us=args.deadline_us,
                         rate_profile=rate_profile,
                         tenants=tenants)
    if args.cluster:
        return _serve_cluster(args, scenario, config, load)
    if args.replica_faults is not None or args.autoscale is not None:
        print("--replica-faults/--autoscale need --cluster N (replica "
              "fault domains and auto-scaling are cluster-tier concerns)",
              file=sys.stderr)
        return 2
    server = SimServer(config, scheduler=args.scheduler,
                       window_us=args.window_us, max_banks=args.max_banks,
                       num_shards=args.shards, max_depth=args.depth,
                       bus=args.bus, faults=args.faults,
                       fault_seed=args.fault_seed, policy=args.policy)
    import time as _time
    start = _time.perf_counter()
    if args.live:
        # Drive the server as a live client: submit each arrival as it
        # "happens", poll the oldest outstanding id in between (a real
        # client's interleaved check), drain the tail at the end.
        outstanding = []
        polled = 0
        for sreq in load.stream():
            outstanding.append(server.submit(sreq))
            if server.poll(outstanding[0]) is not None:
                outstanding.pop(0)
                polled += 1
        results = server.drain()
    else:
        results = server.serve(load.requests())
    wall_s = _time.perf_counter() - start
    print(f"scenario       : {scenario.name} ({scenario.description})")
    print(f"offered load   : {args.rate:.0f} req/s, "
          f"{args.requests} requests, seed {args.seed}")
    print(f"server         : scheduler={args.scheduler} "
          f"window={args.window_us:.0f}us max_banks={args.max_banks} "
          f"shards={args.shards} bus={args.bus}"
          f"{' [live submit/poll]' if args.live else ''}")
    if args.burst is not None:
        peak, start_us, duration_us = args.burst
        print(f"burst overload : {peak:.0f} req/s from {start_us:.0f}us "
              f"for {duration_us:.0f}us")
    if server.fault_plan is not None or args.policy != "none":
        injected = (server.fault_plan.describe()
                    if server.fault_plan is not None else "none")
        print(f"resilience     : faults={injected} policy={args.policy}")
    if args.live:
        print(f"live client    : {polled} results observed via poll() "
              f"mid-stream, {len(results) - polled} at drain()")
    print(server.telemetry.summary())
    print(f"host wall time : {wall_s * 1e3:.1f} ms "
          f"({len(results) / wall_s:.0f} req/s functional simulation)")
    return 0


def _serve_cluster(args, scenario, config, load) -> int:
    """The ``--cluster N`` branch of ``repro serve``: the same offered
    stream through a ClusterFrontend (optionally under the live
    operator console)."""
    from .cluster import ClusterFrontend, TenantQuota, watch

    quotas = None
    if args.quota_rps is not None:
        quotas = {"*": TenantQuota(rate_rps=args.quota_rps,
                                   burst=args.quota_burst)}
    frontend = ClusterFrontend(
        args.cluster, config, router=args.router, quotas=quotas,
        scheduler=args.scheduler, window_us=args.window_us,
        max_banks=args.max_banks, num_shards=args.shards,
        max_depth=args.depth, bus=args.bus,
        faults=args.faults, fault_seed=args.fault_seed,
        policy=args.policy,
        replica_faults=args.replica_faults,
        replica_fault_seed=args.fault_seed,
        autoscale=args.autoscale)
    import time as _time
    start = _time.perf_counter()
    if args.watch:
        results = watch(frontend, load.requests(),
                        every_us=args.watch_every_us,
                        max_frames=args.watch_frames)
    else:
        results = frontend.serve(load.requests())
    wall_s = _time.perf_counter() - start
    print(f"scenario       : {scenario.name} ({scenario.description})")
    print(f"offered load   : {args.rate:.0f} req/s, "
          f"{args.requests} requests, seed {args.seed}"
          f"{', tenants=' + args.tenants if args.tenants != 'none' else ''}")
    print(f"cluster        : {args.cluster} replicas, router={args.router}, "
          f"{args.shards} shards each, bus={args.bus}, "
          f"window={args.window_us:.0f}us"
          f"{' [watch]' if args.watch else ''}")
    if args.faults is not None or args.policy != "none":
        print(f"resilience     : faults={args.faults or 'none'} "
              f"policy={args.policy} (per-replica derived fault seeds)")
    health = frontend.health.snapshot()
    print(f"self-healing   : replica-faults="
          f"{args.replica_faults or 'none'}"
          f"{', autoscale=' + args.autoscale if args.autoscale else ''}"
          f" | failovers={health['failovers']} "
          f"restarts={health['restarts']} "
          f"orphans={health['orphans_recovered']} "
          f"dups={health['duplicates_dropped']} "
          f"scale=+{health['scale_out']}/-{health['scale_in']} "
          f"mttr={health['mttr_us']:.0f}us")
    stats = frontend.quota_stats()
    if stats:
        print("tenants        : " + "  ".join(
            f"{t or '(none)'}={int(s['admitted'])}ok"
            f"/{int(s['throttled'])}thr" for t, s in stats.items()))
    print(frontend.cluster_telemetry().summary())
    print(f"host wall time : {wall_s * 1e3:.1f} ms "
          f"({len(results) / wall_s:.0f} req/s functional simulation)")
    return 0


def _cmd_trace(args) -> int:
    if args.head < 0:
        raise ValueError(f"--head must be >= 0, got {args.head}")
    q = find_ntt_prime(args.n, 32)
    spec = TransformSpec(params=NttParams(args.n, q))
    commands = spec.program(_make_config(args), 0).commands
    print(trace_summary(commands))
    print(format_trace(commands[:args.head]))
    if len(commands) > args.head:
        print(f"... ({len(commands) - args.head} more)")
    return 0


_EXPERIMENTS = {
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
    "table2": run_table2,
    "table3": run_table3,
    "ablations": run_ablations,
    "banks": run_bank_scaling,
}


def _cmd_experiment(name: str) -> int:
    result = _EXPERIMENTS[name]()
    print(result.table())
    if hasattr(result, "energy_table"):
        print(result.energy_table())
    ok = True
    for claim, holds in result.check_claims().items():
        print(f"[{'ok' if holds else 'FAIL'}] {claim}")
        ok = ok and holds
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser(
        "run", help="simulate one workload through the repro.api facade")
    run_p.add_argument("workload", nargs="?", default="ntt",
                       help=f"workload name (default ntt; one of "
                            f"{', '.join(CLI_WORKLOADS)})")
    _add_run_args(run_p)
    run_p.add_argument("--cache-info", action="store_true",
                       help="print program/stream/schedule/dispatch cache "
                            "statistics")
    run_p.add_argument("--count", type=int, default=4,
                       help="polynomials for batch/multibank (default 4)")
    run_p.add_argument("--native", action="store_true",
                       help="fhe: use the native merged negacyclic mapping")

    compile_p = subs.add_parser(
        "compile", help="compile one workload's command stream "
                        "through the IR pass pipeline (no execution)")
    compile_p.add_argument("workload", nargs="?", default="ntt",
                           help="ntt | negacyclic | batch | multibank "
                                "(default ntt)")
    _add_run_args(compile_p)
    compile_p.add_argument("--count", type=int, default=4,
                           help="polynomials for batch/multibank "
                                "(default 4)")

    serve_p = subs.add_parser(
        "serve", help="drive synthetic traffic through the serving layer")
    serve_p.add_argument("--scenario", default="skewed",
                         help="shape mix: uniform | skewed | fhe | mixed "
                              "| chaos | dag | pipeline (default skewed; "
                              "dag/pipeline offer dependent op-graphs)")
    serve_p.add_argument("--live", action="store_true",
                         help="drive the server through the online "
                              "submit()/poll()/drain() surface instead "
                              "of one offline serve() call")
    serve_p.add_argument("--rate", type=float, default=150000.0,
                         help="offered load in requests per simulated "
                              "second (default 150000)")
    serve_p.add_argument("--requests", type=int, default=100,
                         help="number of requests to generate (default 100)")
    serve_p.add_argument("--seed", type=int, default=0)
    serve_p.add_argument("--scheduler", choices=("batching", "sequential"),
                         default="batching")
    serve_p.add_argument("--window-us", type=float, default=50.0,
                         help="batching window in simulated us (default 50)")
    serve_p.add_argument("--max-banks", type=int, default=8,
                         help="largest dispatch group (default 8)")
    serve_p.add_argument("--shards", type=int, default=1,
                         help="simulated channels/devices (default 1)")
    serve_p.add_argument("--bus", choices=("shared", "independent"),
                         default="shared",
                         help="cross-shard command-bus model (default "
                              "shared: dispatches contend for bus slots)")
    serve_p.add_argument("--depth", type=int, default=256,
                         help="admission-control queue depth (default 256)")
    serve_p.add_argument("--high-priority", type=float, default=0.0,
                         help="fraction of requests at priority 1")
    serve_p.add_argument("--deadline-us", type=float, default=None,
                         help="per-request deadline in simulated us")
    serve_p.add_argument("--faults", default=None,
                         help="inject deterministic faults: a profile "
                              "name (none/transient/degraded/chaos) or "
                              "'rate:<r>' (default: no injection)")
    serve_p.add_argument("--fault-seed", type=int, default=0,
                         help="fault-plan seed (default 0; same seed = "
                              "bit-identical fault schedule)")
    serve_p.add_argument("--policy", default="none",
                         help="resilience policy: none or standard "
                              "(retries+timeout+breaker+detection; "
                              "default none)")
    serve_p.add_argument("--burst", nargs=3, type=float, default=None,
                         metavar=("PEAK_RPS", "START_US", "DURATION_US"),
                         help="step the offered rate to PEAK_RPS from "
                              "START_US for DURATION_US (overload drill)")
    serve_p.add_argument("--cluster", type=int, default=0, metavar="N",
                         help="serve through a repro.cluster front-end "
                              "over N replicas (each with --shards "
                              "shards; default 0: single server)")
    serve_p.add_argument("--replica-faults", default=None,
                         metavar="PROFILE",
                         help="replica-scoped chaos (cluster only): a "
                              "profile name (crashy, flaky, chaos) or "
                              "'rate:<r>' -- whole replicas crash, hang "
                              "or partition on a deterministic timeline; "
                              "the watchdog fails over, restarts and "
                              "recovers orphans (seeded by --fault-seed)")
    serve_p.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                         help="heartbeat-driven auto-scaling (cluster "
                              "only): keep between MIN and MAX replicas, "
                              "scaling out on sustained load and in on "
                              "idleness")
    serve_p.add_argument("--router", choices=("hash", "least-loaded"),
                         default="hash",
                         help="cluster routing policy (default hash: "
                              "consistent hashing by batching merge key)")
    serve_p.add_argument("--tenants", choices=("none", "noisy"),
                         default="none",
                         help="tenant arrival mix: 'noisy' = one hog "
                              "tenant at 80%% of traffic plus 3 "
                              "well-behaved neighbors (default none)")
    serve_p.add_argument("--quota-rps", type=float, default=None,
                         help="per-tenant admission quota in requests "
                              "per simulated second (cluster only; "
                              "default: unmetered)")
    serve_p.add_argument("--quota-burst", type=float, default=8.0,
                         help="per-tenant token-bucket burst ceiling "
                              "(default 8)")
    serve_p.add_argument("--watch", action="store_true",
                         help="drive the cluster through the live "
                              "operator console (virtual-time frames)")
    serve_p.add_argument("--watch-every-us", type=float, default=200.0,
                         help="virtual time between console frames "
                              "(default 200us)")
    serve_p.add_argument("--watch-frames", type=int, default=3,
                         help="cap on console frames printed (default 3; "
                              "the loop always runs to completion)")

    trace_p = subs.add_parser("trace", help="dump a command trace")
    _add_run_args(trace_p)
    trace_p.add_argument("--head", type=int, default=40,
                         help="lines of trace to print (default 40)")

    for name in _EXPERIMENTS:
        subs.add_parser(name, help=f"reproduce {name}")

    all_p = subs.add_parser("all", help="run every experiment")
    all_p.add_argument("--quick", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compile":
            return _cmd_compile(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "all":
            checks = run_all(quick=args.quick)
            bad = [c for claims in checks.values()
                   for c, ok in claims.items() if not ok]
            return 1 if bad else 0
        return _cmd_experiment(args.command)
    except (ValueError, ReproError) as exc:
        # A flag value the library rejects (N not a power of two, Nb=0,
        # a zero clock, an empty batch, ...) is a usage error: one line
        # on stderr and exit 2, like argparse's own errors.
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
