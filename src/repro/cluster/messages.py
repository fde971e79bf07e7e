"""Typed messages of the front-end <-> replica protocol.

The cluster tier talks to its replicas the way the gridworks proactor
pattern talks to supervised actors: every interaction is a frozen,
typed message with a typed reply — never a bare method reach into the
replica's internals.  That keeps the protocol surface explicit (and
enumerable: :data:`MESSAGE_TYPES`), makes a replica swappable for a
remote one behind the same five verbs, and gives the supervisor one
choke point to observe.

The verbs:

* :class:`Submit` -> :class:`Submitted` — route one admitted request
  into the replica's live session.
* :class:`Poll` -> :class:`PollReply` — ask for one request's result.
* :class:`Advance` -> :class:`Advanced` — idle-tick the replica's
  virtual clock (close aged batching windows, settle execution).
* :class:`Drain` -> :class:`Drained` — close the live session and
  collect every result.
* :class:`Heartbeat` -> :class:`HeartbeatReply` — the one health
  probe: liveness, load (queue depth, outstanding work, backlog) and
  per-shard breaker states lifted to an ``up`` verdict (the health the
  router routes around, and the idleness the autoscaler retires on),
  plus optionally a full telemetry snapshot for consoles.

All times are *absolute* cluster virtual time; the replica translates
into its own session-relative coordinates
(:meth:`repro.serve.SimServer.session_offset_us`).

Any of these messages can be **dropped by the link** when a replica
fault (:class:`repro.serve.faults.ReplicaFaultPlan`) has the replica
crashed, hung or partitioned — the supervisor sees ``None`` instead of
the typed reply and reacts through the watchdog, never through an
exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..serve.queueing import ServeRequest
from ..serve.server import ServeResult

__all__ = ["Submit", "Submitted", "Poll", "PollReply", "Advance",
           "Advanced", "Drain", "Drained", "Heartbeat", "HeartbeatReply",
           "MESSAGE_TYPES"]


@dataclass(frozen=True)
class Submit:
    """Route one request (absolute ``arrival_us``) into the replica."""

    sreq: ServeRequest


@dataclass(frozen=True)
class Submitted:
    request_id: int
    replica: int


@dataclass(frozen=True)
class Poll:
    request_id: int


@dataclass(frozen=True)
class PollReply:
    request_id: int
    #: ``None`` while the request is still queued/windowed/executing.
    result: Optional[ServeResult]


@dataclass(frozen=True)
class Advance:
    """Idle-tick the replica to absolute virtual time ``now_us``."""

    now_us: float


@dataclass(frozen=True)
class Advanced:
    replica: int
    now_us: float


@dataclass(frozen=True)
class Drain:
    pass


@dataclass(frozen=True)
class Drained:
    replica: int
    #: Every result of the closed session, in submission order.
    results: List[ServeResult] = field(default_factory=list)


@dataclass(frozen=True)
class Heartbeat:
    """Health probe at absolute time ``now_us``; ``want_snapshot``
    additionally rolls up the replica's telemetry (consoles want it,
    per-submit health checks must stay cheap and skip it)."""

    now_us: float
    want_snapshot: bool = False


@dataclass(frozen=True)
class HeartbeatReply:
    replica: int
    now_us: float
    queue_depth: int
    #: Requests submitted to the live session but not yet settled.
    outstanding: int
    #: Dispatch attempts waiting on shard backlogs.
    backlog: int
    num_shards: int
    #: ``{shard: (state, open_until_us)}`` for every tripped breaker.
    breakers: Dict[int, Tuple[str, float]] = field(default_factory=dict)
    #: Replica is routable: at least one shard can currently serve.
    up: bool = True
    #: ``Telemetry.snapshot()`` when the probe asked for one.
    snapshot: Optional[Dict[str, object]] = None
    #: Supervisor-side lifecycle (``up``/``suspect``/``down``/
    #: ``retired``); a replica always reports ``up`` for itself — only
    #: the watchdog can stamp anything else.
    lifecycle: str = "up"


#: Every message a :class:`~repro.cluster.replica.Replica` accepts.
MESSAGE_TYPES = (Submit, Poll, Advance, Drain, Heartbeat)
