"""Session/telemetry layer of the serving subsystem.

Every request that passes through :class:`repro.serve.server.SimServer`
leaves a :class:`RequestRecord` — arrival/dispatch/start/completion
virtual times, queue wait, batch occupancy, shard, simulated
cycles/energy share — and the server samples queue depth at every
arrival/dispatch event.  :meth:`Telemetry.snapshot` rolls those up into
the numbers a serving dashboard would plot: throughput (requests per
simulated second), p50/p99 latency, mean batch occupancy, admission
and deadline counts, cycle/energy totals and cache hit rates.

Every mutation holds one lock, so a :class:`Telemetry` may be shared
between threads; the server itself records inline on its calling
thread.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

__all__ = ["RequestRecord", "Telemetry", "percentile", "merge_snapshots",
           "RESILIENCE_EVENTS",
           "STATUS_OK", "STATUS_REJECTED", "STATUS_EXPIRED",
           "STATUS_FAILED", "STATUS_SHED", "STATUS_THROTTLED",
           "STATUS_ORPHANED"]

#: Terminal states of a served request.
STATUS_OK = "ok"
STATUS_REJECTED = "rejected"   # admission control turned it away
STATUS_EXPIRED = "expired"     # deadline passed while still queued
STATUS_FAILED = "failed"       # dispatch failed past the retry policy
STATUS_SHED = "shed"           # dropped by overload load shedding
STATUS_THROTTLED = "throttled"  # per-tenant quota turned it away
#: Duplicate attempt of a failed-over request: another replica's result
#: was accepted, so this record is an orphan — kept for attribution but
#: excluded from request counts and completion-weighted percentiles
#: (the cluster must never double-count a recovered request).
STATUS_ORPHANED = "orphaned"

#: Resilience events a session counts, in snapshot order: retries,
#: timeouts, breaker trips, dispatches rerouted around an open breaker,
#: corrupted responses the online golden check caught, shed arrivals and
#: shrunk batching windows.  All zero on a fault-free, policy-neutral
#: session.
RESILIENCE_EVENTS = ("retries", "timeouts", "breaker_trips", "reroutes",
                     "detected_mismatches", "shed", "shrunk_windows")


def percentile(values: List[float], p: float) -> float:
    """The ``p``-th percentile (0..100) with linear interpolation —
    matches ``numpy.percentile`` for the sizes telemetry sees, without
    requiring the array round-trip."""
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * (p / 100.0)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class RequestRecord:
    """Per-request serving facts (virtual / simulated time throughout)."""

    request_id: int
    workload: str = ""
    status: str = STATUS_OK
    priority: int = 0
    arrival_us: float = 0.0
    #: When the scheduler closed the request's dispatch group.
    dispatch_us: float = 0.0
    #: When the shard actually began serving the group.
    start_us: float = 0.0
    completion_us: float = 0.0
    deadline_us: Optional[float] = None
    deadline_missed: bool = False
    #: Members in the request's dispatch group (1 = unbatched).
    group_banks: int = 1
    shard: int = 0
    #: Replica that served the request (0 outside a cluster: a bare
    #: ``SimServer`` is replica 0 of a one-replica cluster).
    replica: int = 0
    #: Tenant the request arrived under ("" = untenanted traffic).
    tenant: str = ""
    #: Time the dispatch stalled waiting for the shared command bus
    #: (0 under the independent-channel model).
    bus_wait_us: float = 0.0
    #: This request's share of simulated cycles / energy (per-bank split
    #: for grouped dispatches, so sums over records stay physical).
    cycles: int = 0
    energy_nj: float = 0.0
    #: Dispatch attempts the request's unit took (1 = first try served;
    #: retries in between show up here even on eventual success).
    attempts: int = 1
    #: Last failure the request's unit suffered (empty on clean serves;
    #: the ShardFailure/FunctionalMismatch message for failed/retried
    #: dispatches — the surfaced form of the error hierarchy).
    error: str = ""
    #: Owning DAG's request id when this record is one *stage* of a
    #: :class:`~repro.api.DagRequest` (0 = a top-level request).  Stage
    #: records roll into the ``dag`` sub-rollup instead of the headline
    #: counts — the client-visible unit of DAG traffic is the graph.
    dag_id: int = 0
    #: Node name within the owning DAG ("" = not a stage).
    stage: str = ""
    #: Whole-DAG records only: the dependency critical-path length (the
    #: longest chain of stage service times) — the makespan lower bound
    #: the dependency-aware scheduler is judged against.
    critical_path_us: float = 0.0

    @property
    def latency_us(self) -> float:
        """Arrival-to-completion — what the client experienced."""
        return self.completion_us - self.arrival_us

    @property
    def queue_wait_us(self) -> float:
        """Arrival-to-service-start (window wait + shard backlog)."""
        return self.start_us - self.arrival_us

    @property
    def service_us(self) -> float:
        return self.completion_us - self.start_us


def _dag_rollup(records: List["RequestRecord"],
                stage_records: List["RequestRecord"]) -> Dict[str, object]:
    """The ``dag`` snapshot sub-section: whole-graph records (workload
    ``"dag"`` among the top-level ``records``) vs their stage records.

    ``critical_path_stretch`` is the aggregate ratio of actual served
    makespans to dependency critical paths over completed graphs —
    >= 1.0 by construction (a served graph can queue, batch and contend
    for the bus, but can never beat its own dependency chain).
    """
    dags = [r for r in records if r.workload == "dag"]
    done = [r for r in dags if r.status == STATUS_OK]
    stage_done = [r for r in stage_records if r.status == STATUS_OK]
    stage_latencies = [r.latency_us for r in stage_done]
    stage_waits = [r.queue_wait_us for r in stage_done]
    critical_paths = [r.critical_path_us for r in done]
    makespans = [r.latency_us for r in done]
    return {
        "dags": len(dags),
        "completed": len(done),
        "stages": len(stage_records),
        "stage_latency_p50_us": percentile(stage_latencies, 50.0),
        "stage_latency_p99_us": percentile(stage_latencies, 99.0),
        "stage_queue_wait_p50_us": percentile(stage_waits, 50.0),
        "stage_queue_wait_p99_us": percentile(stage_waits, 99.0),
        "critical_path_mean_us": (sum(critical_paths) / len(critical_paths)
                                  if critical_paths else 0.0),
        "makespan_mean_us": (sum(makespans) / len(makespans)
                             if makespans else 0.0),
        "critical_path_stretch": (sum(makespans) / sum(critical_paths)
                                  if sum(critical_paths) > 0 else 0.0),
    }


class Telemetry:
    """Accumulates records and event samples for one serving session."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Replica label stamped onto every record added here (0 for a
        #: bare server; the cluster tier sets it per replica so merged
        #: rollups keep per-replica attribution).
        self.replica = 0
        self.records: List[RequestRecord] = []
        #: ``(virtual_time_us, queue_depth)`` at every queue event.
        self.depth_samples: List[tuple] = []
        #: Dispatch-group sizes, one entry per dispatched group.
        self.occupancies: List[int] = []
        #: Simulated time the shared command bus was occupied (stays 0
        #: under the independent-channel model).
        self.bus_busy_us: float = 0.0
        #: ``{"program": {...}, "stream": {...}, "schedule": {...}}``
        #: hit/miss deltas over the session (set by the server).
        self.cache: Dict[str, Dict[str, int]] = {}
        #: Resilience counters: :data:`RESILIENCE_EVENTS` by name, and
        #: injected faults by kind.
        self.events: Counter = Counter()
        self.faults_injected: Counter = Counter()

    def add(self, record: RequestRecord) -> None:
        with self._lock:
            record.replica = self.replica
            self.records.append(record)

    # -- resilience events -------------------------------------------------------
    def note(self, event: str) -> None:
        """Count one resilience event (a :data:`RESILIENCE_EVENTS` name)."""
        if event not in RESILIENCE_EVENTS:
            raise ValueError(f"unknown resilience event {event!r}")
        with self._lock:
            self.events[event] += 1

    def note_fault(self, kind: str) -> None:
        """Count one injected fault (``fail``/``stall``/``slowdown``/
        ``corrupt``)."""
        with self._lock:
            self.faults_injected[kind] += 1

    def sample_depth(self, now_us: float, depth: int) -> None:
        with self._lock:
            self.depth_samples.append((now_us, depth))

    def note_group(self, banks: int) -> None:
        with self._lock:
            self.occupancies.append(banks)

    def note_bus(self, occupancy_us: float) -> None:
        """Charge one dispatch's command-bus occupancy (shared-bus
        contention model)."""
        with self._lock:
            self.bus_busy_us += occupancy_us

    def reset(self) -> None:
        with self._lock:
            self.records.clear()
            self.depth_samples.clear()
            self.occupancies.clear()
            self.bus_busy_us = 0.0
            self.cache = {}
            self.events.clear()
            self.faults_injected.clear()

    # -- merging -----------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Iterable["Telemetry"]) -> "Telemetry":
        """One telemetry holding every part's records and counters —
        the *exact* cluster rollup (percentiles come out of the combined
        records, not a weighted approximation; contrast
        :func:`merge_snapshots`).

        Records keep their ``replica`` stamps, so per-replica
        attribution survives the merge; event streams are re-sorted by
        virtual time so depth samples read as one session.  Cache
        hit/miss deltas are summed (replica sessions share the
        process-wide compile caches, so overlapping sessions may double
        count a shared warm-up — the per-cache ``entries`` gauge takes
        the max instead).
        """
        merged = cls()
        for part in parts:
            with part._lock:
                merged.records.extend(part.records)
                merged.depth_samples.extend(part.depth_samples)
                merged.occupancies.extend(part.occupancies)
                merged.bus_busy_us += part.bus_busy_us
                merged.events.update(part.events)
                merged.faults_injected.update(part.faults_injected)
                for name, stats in part.cache.items():
                    entry = merged.cache.setdefault(
                        name, {"hits": 0, "misses": 0, "entries": 0})
                    entry["hits"] += stats.get("hits", 0)
                    entry["misses"] += stats.get("misses", 0)
                    entry["entries"] = max(entry["entries"],
                                           stats.get("entries", 0))
        # Records stay in part order (a single part merges to itself,
        # bit-for-bit); only the event stream re-sorts by virtual time.
        merged.depth_samples.sort(key=lambda s: s[0])
        return merged

    # -- rollups -----------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """The session rollup (all times in simulated microseconds)."""
        with self._lock:
            records = list(self.records)
            depth_samples = list(self.depth_samples)
            occupancies = list(self.occupancies)
            bus_busy_us = self.bus_busy_us
            cache = {k: dict(v) for k, v in self.cache.items()}
            resilience = _resilience(self.faults_injected, self.events)
        # DAG stage records are internal work units of a graph request:
        # the headline counts/latencies cover the *graph* (whose record
        # carries the summed cycles/energy), while the stages feed the
        # "dag" sub-rollup below.
        stage_records = [r for r in records if r.dag_id]
        records = [r for r in records if not r.dag_id]
        done = [r for r in records if r.status == STATUS_OK]
        orphaned = sum(r.status == STATUS_ORPHANED for r in records)
        latencies = [r.latency_us for r in done]
        waits = [r.queue_wait_us for r in done]
        bus_waits = [r.bus_wait_us for r in done]
        makespan_us = (max(r.completion_us for r in done) -
                       min(r.arrival_us for r in done)) if done else 0.0
        snapshot: Dict[str, object] = {
            # Orphaned records are duplicate attempts of requests served
            # elsewhere — they are not offered load, so they never
            # inflate the request count (or deflate availability).
            "requests": len(records) - orphaned,
            "completed": len(done),
            "orphaned": orphaned,
            "rejected": sum(r.status == STATUS_REJECTED for r in records),
            "expired": sum(r.status == STATUS_EXPIRED for r in records),
            "failed": sum(r.status == STATUS_FAILED for r in records),
            "shed": sum(r.status == STATUS_SHED for r in records),
            "throttled": sum(r.status == STATUS_THROTTLED for r in records),
            "deadline_missed": sum(r.deadline_missed for r in done),
            "makespan_us": makespan_us,
            "throughput_rps": (len(done) / (makespan_us * 1e-6)
                               if makespan_us > 0 else 0.0),
            # Availability: the fraction of offered requests that got a
            # successful response.  Goodput: *useful* completions per
            # simulated second — completed AND inside their deadline.
            "availability": (len(done) / (len(records) - orphaned)
                             if len(records) - orphaned else 1.0),
            "goodput_rps": (sum(not r.deadline_missed for r in done)
                            / (makespan_us * 1e-6)
                            if makespan_us > 0 else 0.0),
            "latency_p50_us": percentile(latencies, 50.0),
            "latency_p99_us": percentile(latencies, 99.0),
            "latency_mean_us": (sum(latencies) / len(latencies)
                                if latencies else 0.0),
            "queue_wait_p50_us": percentile(waits, 50.0),
            "queue_wait_p99_us": percentile(waits, 99.0),
            "max_queue_depth": max((d for _, d in depth_samples), default=0),
            "dispatches": len(occupancies),
            "mean_batch_occupancy": (sum(occupancies) / len(occupancies)
                                     if occupancies else 0.0),
            "total_cycles": sum(r.cycles for r in done),
            "total_energy_nj": sum(r.energy_nj for r in done),
            "bus_busy_us": bus_busy_us,
            "bus_utilization": (bus_busy_us / makespan_us
                                if makespan_us > 0 else 0.0),
            "bus_wait_p99_us": percentile(bus_waits, 99.0),
            "resilience": resilience,
            "dag": _dag_rollup(records, stage_records),
        }
        if cache:
            snapshot["cache"] = cache
            lookups = sum(c.get("hits", 0) + c.get("misses", 0)
                          for c in cache.values())
            hits = sum(c.get("hits", 0) for c in cache.values())
            snapshot["cache_hit_rate"] = hits / lookups if lookups else 0.0
        return snapshot

    def summary(self) -> str:
        """Multi-line human report (the ``repro serve`` CLI output)."""
        s = self.snapshot()
        lines = [
            f"requests       : {s['requests']} "
            f"(completed={s['completed']} rejected={s['rejected']} "
            f"expired={s['expired']} failed={s['failed']} "
            f"shed={s['shed']} throttled={s['throttled']} "
            f"deadline_missed={s['deadline_missed']}"
            + (f" orphaned={s['orphaned']}" if s.get("orphaned") else "")
            + ")",
            f"throughput     : {s['throughput_rps']:.1f} req/s over "
            f"{s['makespan_us'] / 1e3:.2f} ms simulated",
            f"latency        : p50={s['latency_p50_us']:.2f} us  "
            f"p99={s['latency_p99_us']:.2f} us  "
            f"mean={s['latency_mean_us']:.2f} us",
            f"queue wait     : p50={s['queue_wait_p50_us']:.2f} us  "
            f"p99={s['queue_wait_p99_us']:.2f} us  "
            f"max depth={s['max_queue_depth']}",
            f"batching       : {s['dispatches']} dispatches, "
            f"mean occupancy {s['mean_batch_occupancy']:.2f}",
            f"device totals  : {s['total_cycles']} cycles, "
            f"{s['total_energy_nj']:.1f} nJ",
        ]
        dag = s.get("dag") or {}
        if dag.get("dags"):
            lines.append(
                f"dag workloads  : {dag['dags']} graphs "
                f"({dag['stages']} stages), critical path "
                f"mean={dag['critical_path_mean_us']:.2f} us, makespan "
                f"mean={dag['makespan_mean_us']:.2f} us "
                f"(stretch x{dag['critical_path_stretch']:.2f}); stage "
                f"latency p99={dag['stage_latency_p99_us']:.2f} us")
        if s["bus_busy_us"] > 0:
            lines.append(f"shared bus     : "
                         f"{s['bus_utilization'] * 100:.1f}% utilized, "
                         f"wait p99={s['bus_wait_p99_us']:.2f} us")
        res = s["resilience"]
        if any(res["faults_injected"].values()) or any(
                res[k] for k in RESILIENCE_EVENTS):
            injected = sum(res["faults_injected"].values())
            kinds = ", ".join(f"{k}={v}" for k, v in
                              sorted(res["faults_injected"].items()))
            lines.append(
                f"resilience     : {injected} faults injected "
                f"({kinds or 'none'}); retries={res['retries']} "
                f"timeouts={res['timeouts']} "
                f"detected={res['detected_mismatches']}")
            lines.append(
                f"                 breaker trips={res['breaker_trips']} "
                f"reroutes={res['reroutes']} shed={res['shed']} "
                f"shrunk windows={res['shrunk_windows']}; "
                f"availability={s['availability'] * 100:.1f}% "
                f"goodput={s['goodput_rps']:.0f} req/s")
        if "cache_hit_rate" in s:
            lines.append(f"compile caches : "
                         f"{s['cache_hit_rate'] * 100:.1f}% hit rate")
        return "\n".join(lines)


def _resilience(faults, events) -> Dict[str, object]:
    """A snapshot's ``resilience`` section: injected faults by kind, then
    every :data:`RESILIENCE_EVENTS` count (zeros included)."""
    section: Dict[str, object] = {"faults_injected": dict(faults)}
    section.update((name, events[name]) for name in RESILIENCE_EVENTS)
    return section


#: Snapshot keys that add across replicas.  ``orphaned`` attempts add
#: too, but are already excluded from each part's ``requests`` count,
#: so a failed-over request is counted exactly once cluster-wide.
_ADDITIVE_KEYS = ("requests", "completed", "rejected", "expired", "failed",
                  "shed", "throttled", "orphaned", "deadline_missed",
                  "dispatches", "total_cycles", "total_energy_nj",
                  "bus_busy_us")
#: Snapshot keys combined as completion-weighted means.
_WEIGHTED_KEYS = ("latency_p50_us", "latency_p99_us", "latency_mean_us",
                  "queue_wait_p50_us", "queue_wait_p99_us",
                  "bus_wait_p99_us")


def merge_snapshots(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Cluster rollup over per-replica :meth:`Telemetry.snapshot` dicts.

    This is the combiner for when only snapshots cross a boundary (e.g.
    replica heartbeats): counters add, latency/wait percentiles combine
    as completed-count-weighted means (an approximation — exact combined
    percentiles need the records; use :meth:`Telemetry.merge` when they
    are available), availability and goodput are recomputed over the
    cluster totals, and rates are re-derived against the widest
    replica makespan (replicas serve concurrently in the same virtual
    time, so the cluster makespan is the max, not the sum).
    """
    merged: Dict[str, object] = {key: 0 for key in _ADDITIVE_KEYS}
    if not snapshots:
        merged.update({"availability": 1.0, "throughput_rps": 0.0,
                       "goodput_rps": 0.0, "makespan_us": 0.0,
                       "max_queue_depth": 0, "mean_batch_occupancy": 0.0,
                       "bus_utilization": 0.0, "replicas": 0})
        for key in _WEIGHTED_KEYS:
            merged[key] = 0.0
        merged["resilience"] = {"faults_injected": {}}
        merged["dag"] = _dag_rollup([], [])
        return merged
    for snap in snapshots:
        for key in _ADDITIVE_KEYS:
            merged[key] += snap.get(key, 0)
    makespan_us = max(float(snap["makespan_us"]) for snap in snapshots)
    merged["makespan_us"] = makespan_us
    completed = [int(snap["completed"]) for snap in snapshots]
    total_done = sum(completed)
    for key in _WEIGHTED_KEYS:
        merged[key] = (sum(float(snap[key]) * done
                           for snap, done in zip(snapshots, completed))
                       / total_done if total_done else 0.0)
    # good_i = goodput_i * makespan_i: recover each replica's useful
    # completion count, then re-rate the total over the cluster makespan.
    good = sum(float(snap["goodput_rps"]) * float(snap["makespan_us"]) * 1e-6
               for snap in snapshots)
    merged["throughput_rps"] = (total_done / (makespan_us * 1e-6)
                                if makespan_us > 0 else 0.0)
    merged["goodput_rps"] = (good / (makespan_us * 1e-6)
                             if makespan_us > 0 else 0.0)
    merged["availability"] = (total_done / merged["requests"]
                              if merged["requests"] else 1.0)
    dispatches = [int(snap["dispatches"]) for snap in snapshots]
    merged["mean_batch_occupancy"] = (
        sum(float(snap["mean_batch_occupancy"]) * d
            for snap, d in zip(snapshots, dispatches)) / sum(dispatches)
        if sum(dispatches) else 0.0)
    merged["max_queue_depth"] = max(int(snap["max_queue_depth"])
                                    for snap in snapshots)
    merged["bus_utilization"] = (merged["bus_busy_us"] / makespan_us
                                 if makespan_us > 0 else 0.0)
    faults: Counter = Counter()
    events: Counter = Counter()
    for snap in snapshots:
        res = snap.get("resilience", {})
        faults.update(res.get("faults_injected", {}))
        events.update({key: res.get(key, 0) for key in RESILIENCE_EVENTS})
    merged["resilience"] = _resilience(faults, events)
    # DAG sub-rollup: counts add; stage percentiles combine weighted by
    # stage counts, critical-path/makespan means weighted by completed
    # graphs; the stretch re-derives from the combined means so it stays
    # the aggregate makespan/critical-path ratio.
    dag_parts = [snap.get("dag") for snap in snapshots if snap.get("dag")]
    dag = _dag_rollup([], [])
    for key in ("dags", "completed", "stages"):
        dag[key] = sum(int(part.get(key, 0)) for part in dag_parts)
    stage_weights = [int(part.get("stages", 0)) for part in dag_parts]
    done_weights = [int(part.get("completed", 0)) for part in dag_parts]
    for key, weights in (
            ("stage_latency_p50_us", stage_weights),
            ("stage_latency_p99_us", stage_weights),
            ("stage_queue_wait_p50_us", stage_weights),
            ("stage_queue_wait_p99_us", stage_weights),
            ("critical_path_mean_us", done_weights),
            ("makespan_mean_us", done_weights)):
        total = sum(weights)
        dag[key] = (sum(float(part.get(key, 0.0)) * w
                        for part, w in zip(dag_parts, weights)) / total
                    if total else 0.0)
    total_critical = sum(float(part.get("critical_path_mean_us", 0.0)) * w
                         for part, w in zip(dag_parts, done_weights))
    total_makespan = sum(float(part.get("makespan_mean_us", 0.0)) * w
                         for part, w in zip(dag_parts, done_weights))
    dag["critical_path_stretch"] = (total_makespan / total_critical
                                    if total_critical > 0 else 0.0)
    merged["dag"] = dag
    merged["replicas"] = len(snapshots)
    return merged
