"""Sharded, batching serving layer over the :mod:`repro.api` facade.

The ROADMAP's north star is a system that serves heavy NTT traffic;
this package is the layer between "a stream of incoming requests" and
the one-shot facade::

    from repro.serve import LoadGenerator, SimServer, make_scenario

    server = SimServer(max_banks=8, window_us=50.0)
    load = LoadGenerator(make_scenario("skewed"), rate_rps=50_000,
                         count=200, seed=0)
    results = server.serve(load.requests())
    print(server.telemetry.summary())

Pieces (each its own module):

* :mod:`~repro.serve.queueing` — admission-controlled priority queue of
  :class:`ServeRequest`\\ s (arrival time, priority, deadline).
* :mod:`~repro.serve.scheduler` — the batching scheduler: window
  coalescing of same-shape NTTs into multi-bank dispatches, sharding of
  distinct shapes across simulated channels.
* :mod:`~repro.serve.session` — the session bookkeeping
  :class:`SimServer` shares with the cluster front end: request-id
  assignment, ``serve()``/``submit()`` normalisation, the clock fold.
* :mod:`~repro.serve.telemetry` — per-request records and session
  rollups (throughput, p50/p99 latency, occupancy, energy).
* :mod:`~repro.serve.loadgen` — deterministic Poisson load over named
  scenario mixes (``uniform`` / ``skewed`` / ``fhe`` / ``mixed`` /
  ``chaos`` / ``dag`` / ``pipeline``), with step arrival-rate profiles
  for burst overloads.
* :mod:`~repro.serve.faults` — seeded virtual-time fault injection
  (:class:`FaultPlan`) and the :class:`ResiliencePolicy` recovery
  knobs: retries with backoff, timeouts, circuit breakers, online
  detection; plus the replica-scoped
  crash/hang/partition timelines (:class:`ReplicaFaultPlan`) the
  cluster watchdog heals around.
* :mod:`~repro.serve.server` — :class:`SimServer`, the loop tying them
  together — including dependency-aware serving of
  :class:`~repro.api.DagRequest` op-graphs: a stage enters a batching
  window only once every parent has settled, ready stages from
  concurrent graphs coalesce by shape, and ``drain()`` returns whole
  graphs in submission order.

Scheduling changes *when* work runs, never *what it computes*: every
response is bit-identical to a standalone ``Simulator.run`` of the same
request (for a DAG, stage-by-stage against the golden ``"dag"``
workload) — and a zero-rate fault plan plus the neutral policy leave
the whole stack bit-identical to one without them.
"""

from .faults import (
    FAULT_PROFILES,
    POLICIES,
    REPLICA_FAULT_KINDS,
    REPLICA_FAULT_PROFILES,
    FaultDecision,
    FaultPlan,
    FaultProfile,
    ReplicaFaultEvent,
    ReplicaFaultPlan,
    ReplicaFaultProfile,
    ResiliencePolicy,
    make_fault_plan,
    make_policy,
    make_replica_fault_plan,
)
from .loadgen import SCENARIOS, LoadGenerator, Scenario, make_scenario
from .queueing import RequestQueue, ServeRequest
from .scheduler import (
    BatchingScheduler,
    DispatchUnit,
    PlanSession,
    sequential_policy,
)
from .server import BUS_MODELS, ServeResult, SimServer
from .telemetry import (
    STATUS_EXPIRED,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_ORPHANED,
    STATUS_REJECTED,
    STATUS_THROTTLED,
    RequestRecord,
    Telemetry,
    merge_snapshots,
    percentile,
)

__all__ = [
    "ServeRequest",
    "RequestQueue",
    "BatchingScheduler",
    "DispatchUnit",
    "PlanSession",
    "sequential_policy",
    "BUS_MODELS",
    "RequestRecord",
    "Telemetry",
    "merge_snapshots",
    "percentile",
    "STATUS_OK",
    "STATUS_REJECTED",
    "STATUS_EXPIRED",
    "STATUS_FAILED",
    "STATUS_THROTTLED",
    "STATUS_ORPHANED",
    "FaultProfile",
    "FaultDecision",
    "FaultPlan",
    "ResiliencePolicy",
    "FAULT_PROFILES",
    "POLICIES",
    "make_fault_plan",
    "make_policy",
    "ReplicaFaultProfile",
    "ReplicaFaultEvent",
    "ReplicaFaultPlan",
    "REPLICA_FAULT_PROFILES",
    "REPLICA_FAULT_KINDS",
    "make_replica_fault_plan",
    "Scenario",
    "LoadGenerator",
    "SCENARIOS",
    "make_scenario",
    "ServeResult",
    "SimServer",
]
