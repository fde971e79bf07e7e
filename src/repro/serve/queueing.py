"""Admission-controlled request queue of the serving layer.

The paper's host protocol (Sec. IV.A) delivers one NTT invocation at a
time; a serving deployment sees a *stream* of them.
:class:`RequestQueue` is the front door of that stream: each incoming
:class:`ServeRequest` (a facade request plus arrival time, priority and
an optional deadline) is admitted or rejected at arrival (bounded queue
depth — the backpressure signal a real memory-request front-end
gives), waits in priority order, and leaves when the batching
scheduler dispatches it.

Every mutation holds one lock; the deterministic discrete-event planner
in :mod:`repro.serve.scheduler` drives the queue inline on the server's
calling thread.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..api.requests import SimRequest
from ..errors import ServeError

__all__ = ["ServeRequest", "RequestQueue"]


@dataclass
class ServeRequest:
    """One entry of the serving stream.

    ``arrival_us`` is simulated (virtual) time — the serving layer is a
    discrete-event model over the simulated machine, so latencies and
    throughput come out in device time, not host wall clock.
    """

    request: SimRequest
    arrival_us: float = 0.0
    #: Higher wins when the backlog forces a choice.
    priority: int = 0
    #: Absolute virtual-time deadline; ``None`` means best-effort.
    deadline_us: Optional[float] = None
    request_id: int = 0
    #: Tenant the request arrives under ("" = untenanted).  The cluster
    #: tier's per-tenant quotas (:mod:`repro.cluster.quotas`) meter on
    #: it; a bare server carries it through to telemetry untouched.
    tenant: str = ""


class RequestQueue:
    """Bounded, priority-ordered waiting room between arrivals and the
    batching scheduler."""

    def __init__(self, max_depth: int = 256):
        if max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        self.max_depth = max_depth
        self._lock = threading.Lock()
        self._waiting: List[ServeRequest] = []
        self._ids = itertools.count(1)
        self.admitted = 0
        self.rejected = 0
        self.removed = 0

    def next_id(self) -> int:
        """A fresh request id (used when the caller did not assign one)."""
        return next(self._ids)

    # -- admission ---------------------------------------------------------------
    def offer(self, sreq: ServeRequest) -> bool:
        """Admit ``sreq`` unless the queue is full.

        Admission control happens *at arrival*: a full queue rejects
        immediately (the response a loaded server owes its clients)
        rather than growing without bound.
        """
        with self._lock:
            if len(self._waiting) >= self.max_depth:
                self.rejected += 1
                return False
            self.admitted += 1
            self._waiting.append(sreq)
            return True

    def remove(self, sreq: ServeRequest) -> None:
        """Take one waiting request out (dispatched or expired).

        Raises :class:`~repro.errors.ServeError` (with the request and
        queue context a caller can act on) when the request is not
        waiting — a double dispatch or a bookkeeping bug, not the bare
        ``ValueError`` a list raises.
        """
        if not self.discard(sreq):
            with self._lock:
                depth = len(self._waiting)
            raise ServeError(
                f"request {sreq.request_id} ({sreq.request.workload}, "
                f"arrival {sreq.arrival_us}us) is not waiting in the "
                f"queue (depth {depth}): it was already dispatched, "
                f"expired, or never admitted")

    def discard(self, sreq: ServeRequest) -> bool:
        """Idempotent :meth:`remove`: take the request out if it is
        waiting, report whether anything happened.  The scheduler's
        removal path uses this so a retried/already-closed group never
        trips over its own bookkeeping."""
        with self._lock:
            for i, waiting in enumerate(self._waiting):
                if waiting is sreq:
                    del self._waiting[i]
                    self.removed += 1
                    return True
            return False

    # -- inspection --------------------------------------------------------------
    def depth(self) -> int:
        with self._lock:
            return len(self._waiting)

    def waiting(self) -> List[ServeRequest]:
        """Snapshot of the backlog, priority-ordered (highest priority
        first, FIFO within a priority level)."""
        with self._lock:
            return sorted(self._waiting,
                          key=lambda s: (-s.priority, s.arrival_us,
                                         s.request_id))

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {"depth": len(self._waiting), "admitted": self.admitted,
                    "rejected": self.rejected, "removed": self.removed,
                    "max_depth": self.max_depth}
