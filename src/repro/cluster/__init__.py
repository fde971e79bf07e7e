"""Multi-replica serving tier over the :mod:`repro.serve` stack.

One :class:`ClusterFrontend` supervises N independent
:class:`~repro.serve.SimServer` replicas (each a full queue +
batching-scheduler + shard stack) behind the same
``serve()``/``submit()``/``poll()``/``drain()`` surface a single
server exposes, adding the cluster concerns on top:

* **typed supervision** — every front-end <-> replica interaction is a
  frozen message with a typed reply (:mod:`repro.cluster.messages`),
  the proactor pattern's observable actor boundary;
* **tenant quotas** — virtual-time token buckets with priority-aware
  overdraft (:mod:`repro.cluster.quotas`) throttle noisy neighbors at
  the front door;
* **routing** — consistent-hash or least-loaded placement by batching
  merge key (:mod:`repro.cluster.router`), so coalescible traffic
  stays coalescible;
* **failure handling** — per-shard circuit breakers lifted to replica
  health; dark replicas are routed around and catch up on the idle
  tick (:mod:`repro.cluster.replica`);
* **self-healing** — replica-scoped crash/hang/partition fault domains
  (:class:`repro.serve.faults.ReplicaFaultPlan`), a virtual-time
  watchdog turning missed heartbeats into the UP/SUSPECT/DOWN
  lifecycle with supervised restarts, failover with in-flight orphan
  recovery, and heartbeat-driven auto-scaling
  (:mod:`repro.cluster.watchdog`);
* **observability** — per-replica telemetry merged into exact cluster
  rollups, and a live operator console driven by the virtual clock
  (:mod:`repro.cluster.console`).

Everything stays deterministic: a one-replica cluster is bit-identical
to a bare server, and seeded chaos runs — failovers, restarts and
scale events included — replay bit-for-bit at any replica count.
"""

from .console import render_plain, watch
from .frontend import ClusterFrontend, derive_fault_plans
from .messages import MESSAGE_TYPES
from .quotas import QuotaManager, TenantQuota
from .replica import Replica
from .router import (
    ROUTERS,
    ConsistentHashRouter,
    LeastLoadedRouter,
    make_router,
)
from .watchdog import (
    DOWN,
    LIFECYCLE_STATES,
    RETIRED,
    SUSPECT,
    UP,
    AutoscalePolicy,
    ClusterHealth,
    ReplicaSupervisor,
    WatchdogPolicy,
)

__all__ = [
    "ClusterFrontend",
    "Replica",
    "ConsistentHashRouter",
    "LeastLoadedRouter",
    "make_router",
    "ROUTERS",
    "QuotaManager",
    "TenantQuota",
    "derive_fault_plans",
    "render_plain",
    "watch",
    "MESSAGE_TYPES",
    "WatchdogPolicy",
    "AutoscalePolicy",
    "ClusterHealth",
    "ReplicaSupervisor",
    "LIFECYCLE_STATES",
    "UP",
    "SUSPECT",
    "DOWN",
    "RETIRED",
]
