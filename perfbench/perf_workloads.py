"""The benchmark's three workloads.

Each workload is set up from a seed, then measured in *units*: one cold
Table III configuration, or one serving round of ``ROUND`` requests.
Units come in *passes* (the whole grid, or the whole request pool), and
only whole passes are measured, so every run weighs the inputs alike.
The first pass is kept: its simulated outputs are the workload's
digest and its simulated statistics, which depend only on the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import time
from typing import Dict, List, Tuple

import perf_clock
from repro.api import NegacyclicRequest, NttRequest, Simulator
from repro.arith.primes import find_ntt_prime
from repro.arith.roots import NttParams
from repro.cluster import ClusterFrontend
from repro.dram.stream import stream_cache_info
from repro.experiments.table3 import PAPER_TABLE3_LATENCY
from repro.mapping.program_cache import program_cache_info
from repro.ntt import merged, reference
from repro.pim.params import PimParams
from repro.serve import LoadGenerator, SimServer, make_scenario
from repro.serve import loadgen as loadgen_module
from repro.serve.telemetry import STATUS_OK, percentile
from repro.sim.driver import SimConfig, schedule_cache_info

#: Default Nb of the serving workloads' machine (``SimConfig()``).
SERVE_NB = PimParams().nb_buffers


def _digest(rows) -> str:
    """SHA-256 of the rows as canonical JSON (floats print exactly)."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _paper_err_pct(latencies: Dict[Tuple[int, int], float]) -> float:
    """Mean ``|sim - paper| / paper`` in percent over Table III points."""
    errs = [abs(lat - PAPER_TABLE3_LATENCY[key]) / PAPER_TABLE3_LATENCY[key]
            for key, lat in latencies.items()]
    return 100.0 * sum(errs) / len(errs)


_CACHES = (("program", program_cache_info), ("stream", stream_cache_info),
           ("schedule", schedule_cache_info))


def cache_counts() -> Dict[str, Tuple[int, int]]:
    """``{cache: (hits, misses)}`` from the simulator's own counters."""
    counts = {}
    for name, info in _CACHES:
        stats = info()
        counts[name] = (stats["hits"], stats["misses"])
    return counts


def _golden(request) -> List[int]:
    """The golden model's output for a single transform request."""
    if type(request) is NttRequest:
        golden = reference.intt if request.inverse else reference.ntt
        return golden(request.values, request.params)
    if type(request) is NegacyclicRequest:
        golden = (merged.merged_negacyclic_intt if request.inverse
                  else merged.merged_negacyclic_ntt)
        return golden(request.values, request.ring)
    raise TypeError(f"no golden model for {request.workload!r}")


class Unit:
    """What one measured unit reports back: requests served (1 for a
    cold config), host seconds, failures, butterfly µ-ops executed, and
    ``{cache: (hits, misses)}`` over the unit.  ``measure`` adds the
    machine's ``slowdown`` around the unit (see :mod:`perf_clock`)."""

    __slots__ = ("requests", "seconds", "failed", "bu_ops", "cache",
                 "slowdown")

    def __init__(self, requests: int, seconds: float, failed: int,
                 bu_ops: int, before: Dict[str, Tuple[int, int]]):
        self.requests = requests
        self.seconds = seconds
        self.failed = failed
        self.bu_ops = bu_ops
        after = cache_counts()
        self.cache = {name: (after[name][0] - before[name][0],
                             after[name][1] - before[name][1])
                      for name in after}
        self.slowdown = 1.0

    @property
    def scaled_seconds(self) -> float:
        """Host seconds at the reference machine's speed."""
        return self.seconds / self.slowdown


class Table3Cold:
    """Every Table III configuration (N in 256..4096, Nb in 2/4/6) run
    once through ``Simulator.run`` right after ``Simulator.clear_caches``,
    with functional execution and golden verify on."""

    name = "table3_cold"
    op = "cold config"
    NS = (256, 512, 1024, 2048, 4096)
    NBS = (2, 4, 6)

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.seed = seed
        self.configs = []
        for nb in self.NBS:
            sim = Simulator(SimConfig(pim=PimParams(nb_buffers=nb)))
            for n in self.NS:
                params = NttParams(n, find_ntt_prime(n, 32))
                values = tuple(rng.randrange(params.q) for _ in range(n))
                self.configs.append(
                    (n, nb, sim, NttRequest(params=params, values=values)))
        # Warm-up pays the lazy imports and numpy kernel set-up once, so
        # the first measured configuration is as cold as the others.
        Simulator.clear_caches()
        self.configs[0][2].run(self.configs[0][3])
        self.loadgen_s = 0.0
        self.kept: List[tuple] = []

    @property
    def units_per_pass(self) -> int:
        return len(self.configs)

    def run_unit(self, index: int) -> Unit:
        passno, slot = divmod(index, len(self.configs))
        order = list(range(len(self.configs)))
        random.Random(f"{self.seed}:{passno}").shuffle(order)
        n, nb, sim, request = self.configs[order[slot]]
        Simulator.clear_caches()
        before = cache_counts()
        start = time.perf_counter()
        response = sim.run(request)
        seconds = time.perf_counter() - start
        ok = response.verified and len(response.values) == n
        if passno == 0:
            self.kept.append((n, nb, response))
        return Unit(1, seconds, 0 if ok else 1,
                    response.counters.get("bu_ops", 0), before)

    def check(self) -> int:
        return 0

    def simulated(self) -> Dict[str, float]:
        rows = sorted(self.kept, key=lambda row: (row[1], row[0]))
        latency = {(n, nb): r.latency_us for n, nb, r in rows}
        commands = sum(r.command_count for _, _, r in rows)
        cycles = sum(r.cycles for _, _, r in rows)
        return {
            "samples": len(rows),
            "p50_us": statistics.median(latency.values()),
            "p99_us": 0.0,
            "goodput_rps": 0.0,
            "paper_err_pct": _paper_err_pct(latency),
            "commands": commands,
            "activations": sum(r.counters.get("ACT", 0) for _, _, r in rows),
            "sweep_us": sum(latency.values()),
            "sweep_nj": sum(r.energy_nj for _, _, r in rows),
            "queue_wait_p50_us": 0.0,
            "bus_utilization": commands / cycles,
            "dispatches": 0,
            "banks_per_dispatch": 0.0,
        }

    def digest(self) -> str:
        rows = sorted(
            ([n, nb, r.cycles, r.latency_us, r.energy_nj, r.command_count,
              sorted(r.counters.items())] for n, nb, r in self.kept))
        return _digest(rows)


class _Serving:
    """Shared machinery of the two serving workloads: a request pool
    generated in set-up and served in rounds of ``ROUND`` requests, each
    round on a fresh front end so memory does not grow with run length."""

    op = "request"
    POOL = 1280
    ROUND = 80
    SHARDS = 2
    config = SimConfig()

    def _load(self, seed: int) -> LoadGenerator:
        raise NotImplementedError

    def _serve_round(self, chunk):
        """Serve one round; returns ``(results, telemetry snapshot)``."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        # A fresh process pays the prime search and every compile once.
        loadgen_module._ntt_params.cache_clear()
        loadgen_module._ring_params.cache_clear()
        Simulator.clear_caches()
        generator = self._load(seed)
        start = time.perf_counter()
        self.pool = generator.requests()
        self.loadgen_s = time.perf_counter() - start
        self.rounds = [self.pool[i:i + self.ROUND]
                       for i in range(0, self.POOL, self.ROUND)]
        # Warm-up: one pass fills the program, stream and schedule
        # caches for every shape and dispatch width the pool produces.
        for chunk in self.rounds:
            self._serve_round(chunk)
        self.kept: List[tuple] = []
        self.unverified: List[tuple] = []

    @property
    def units_per_pass(self) -> int:
        return len(self.rounds)

    def run_unit(self, index: int) -> Unit:
        passno, slot = divmod(index, len(self.rounds))
        chunk = self.rounds[slot]
        before = cache_counts()
        start = time.perf_counter()
        results, snapshot = self._serve_round(chunk)
        seconds = time.perf_counter() - start
        failed = sum(1 for r in results if not r.ok)
        # A lone inverse cyclic NTT runs unverified by the program
        # (``NttPimDriver._run_intt``); check() verifies those here.
        self.unverified.extend(
            (sreq.request, r.response.values)
            for sreq, r in zip(chunk, results)
            if r.ok and not r.response.verified)
        bu_ops = sum(r.response.counters.get("bu_ops", 0)
                     for r in results if r.ok)
        if passno == 0:
            self.kept.append((chunk, results, snapshot))
        return Unit(len(chunk), seconds, failed, bu_ops, before)

    def check(self) -> int:
        """Golden-check every response the program left unverified;
        returns the number that mismatched."""
        return sum(1 for request, values in self.unverified
                   if list(values) != _golden(request))

    def _records(self):
        return [r.record for _, results, _ in self.kept for r in results]

    def simulated(self) -> Dict[str, float]:
        records = self._records()
        done = [r for r in records if r.status == STATUS_OK]
        responses = [r.response for _, results, _ in self.kept
                     for r in results if r.ok]
        snaps = [snap for _, _, snap in self.kept]
        makespan = sum(s["makespan_us"] for s in snaps)
        dispatches = sum(s["dispatches"] for s in snaps)
        # The model's error against Table III on this workload's forward
        # cyclic shapes, from one standalone run per shape.
        sim = Simulator(self.config)
        latency = {}
        for sreq in self.pool:
            req = sreq.request
            if type(req) is NttRequest and not req.inverse:
                key = (req.params.n, SERVE_NB)
                if key not in latency and key in PAPER_TABLE3_LATENCY:
                    latency[key] = sim.run(req).latency_us
        return {
            "samples": len(done),
            "p50_us": percentile([r.latency_us for r in done], 50.0),
            "p99_us": percentile([r.latency_us for r in done], 99.0),
            "goodput_rps": (sum(not r.deadline_missed for r in done)
                            / (makespan * 1e-6)),
            "paper_err_pct": _paper_err_pct(latency),
            "commands": sum(r.command_count for r in responses),
            "activations": sum(r.counters.get("ACT", 0) for r in responses),
            "sweep_us": makespan,
            "sweep_nj": sum(r.energy_nj for r in done),
            "queue_wait_p50_us": percentile(
                [r.queue_wait_us for r in done], 50.0),
            "bus_utilization": (sum(s["bus_busy_us"] for s in snaps)
                                / makespan),
            "dispatches": dispatches,
            "banks_per_dispatch": (sum(s["mean_batch_occupancy"]
                                       * s["dispatches"] for s in snaps)
                                   / dispatches if dispatches else 0.0),
        }

    def digest(self) -> str:
        rows = [[r.request_id, r.status, r.arrival_us, r.dispatch_us,
                 r.start_us, r.completion_us, r.deadline_missed, r.shard,
                 r.replica, r.group_banks, r.bus_wait_us, r.cycles,
                 r.energy_nj, r.attempts]
                for r in self._records()]
        return _digest(rows)


class ServeSkewed(_Serving):
    """Warm ``SimServer.serve`` of the skewed mix (90% N=512, 10% N=256
    forward NTTs), open-loop Poisson at 400k req/s simulated, 2 shards on
    the shared bus, golden verify on."""

    name = "serve_skewed"
    RATE_RPS = 400_000
    #: Pool positions re-run standalone after the timed region.
    SAMPLE = 16

    def _load(self, seed: int) -> LoadGenerator:
        return LoadGenerator(make_scenario("skewed"), rate_rps=self.RATE_RPS,
                             count=self.POOL, seed=seed)

    def _serve_round(self, chunk):
        server = SimServer(self.config, num_shards=self.SHARDS)
        results = server.serve(chunk)
        return results, server.telemetry.snapshot()

    def check(self) -> int:
        """Bit-identity of a fixed sample of served responses with a
        standalone ``Simulator.run`` of the same request."""
        mismatched = super().check()
        sim = Simulator(self.config)
        served = [(sreq, result) for chunk, results, _ in self.kept
                  for sreq, result in zip(chunk, results)]
        step = len(served) // self.SAMPLE
        for sreq, result in served[::step][:self.SAMPLE]:
            solo = sim.run(sreq.request)
            if not result.ok or list(result.response.values) != \
                    list(solo.values):
                mismatched += 1
        return mismatched


class ClusterMixed(_Serving):
    """A 2-replica hash-routed ``ClusterFrontend`` (2 shards each) fed the
    mixed mix (forward/inverse, cyclic/negacyclic N=512) one request at a
    time on the live ``submit()``/``drain()`` surface, with a deadline,
    at a simulated rate below the cluster's capacity."""

    name = "cluster_mixed"
    REPLICAS = 2
    #: ~55% of the measured ~1.1M req/s capacity: the backlog stays flat.
    RATE_RPS = 600_000
    DEADLINE_US = 300.0

    def _load(self, seed: int) -> LoadGenerator:
        return LoadGenerator(make_scenario("mixed"), rate_rps=self.RATE_RPS,
                             count=self.POOL, seed=seed,
                             deadline_us=self.DEADLINE_US)

    def _serve_round(self, chunk):
        frontend = ClusterFrontend(self.REPLICAS, self.config, router="hash",
                                   num_shards=self.SHARDS)
        for sreq in chunk:
            frontend.submit(sreq)
        results = frontend.drain()
        return results, frontend.cluster_snapshot()


WORKLOADS = {w.name: w for w in (Table3Cold, ServeSkewed, ClusterMixed)}


def measure(workload, seconds: float, tracer=None):
    """Run whole passes until ``seconds`` have passed.

    Without a tracer every pass is timed plainly.  With one, passes
    alternate plain and traced (pass 0 plain), and at least one of each
    runs, so the tracing overhead compares like with like.  The speed
    probes run between units, outside their timed regions.  Returns
    ``(plain units, traced units)``.
    """
    plain: List[Unit] = []
    traced: List[Unit] = []
    per_pass = workload.units_per_pass
    start = time.perf_counter()
    passno = 0
    before = perf_clock.slowdown()
    while True:
        tracing = tracer is not None and passno % 2 == 1
        if tracing:
            tracer.install()
        try:
            for slot in range(per_pass):
                unit = workload.run_unit(passno * per_pass + slot)
                after = perf_clock.slowdown()
                unit.slowdown = (before + after) / 2
                before = after
                (traced if tracing else plain).append(unit)
        finally:
            if tracing:
                tracer.uninstall()
        passno += 1
        if time.perf_counter() - start >= seconds and (
                tracer is None or passno >= 2):
            return plain, traced


def setup(workload, seed: int, reps: int) -> Tuple[float, float]:
    """Set the workload up ``reps`` times; returns the median set-up
    seconds (at the reference machine's speed) and the median
    load-generation microseconds per request."""
    times = []
    loadgen_us = []
    before = perf_clock.slowdown()
    for _ in range(reps):
        start = time.perf_counter()
        workload.setup(seed)
        seconds = time.perf_counter() - start
        after = perf_clock.slowdown()
        times.append(seconds / ((before + after) / 2))
        before = after
        pool = getattr(workload, "pool", None)
        loadgen_us.append(1e6 * workload.loadgen_s / len(pool)
                          if pool else 0.0)
    return statistics.median(times), statistics.median(loadgen_us)
