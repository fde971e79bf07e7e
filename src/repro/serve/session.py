"""Client-facing bookkeeping of one serving session.

:class:`~repro.serve.SimServer` and
:class:`~repro.cluster.ClusterFrontend` expose the same
``serve()``/``submit()`` surface over one monotonic virtual clock.  The
three rules behind that surface are defined here once, and both front
ends call them — so a one-replica cluster equals a bare server by
construction:

* **ids** — a request keeps its id if it is set and unseen in the
  session; otherwise it gets the next fresh id from the owner's
  counter (two concatenated ``LoadGenerator`` streams both number
  from 1);
* **normalisation** — ``serve()`` shifts a whole arrival stream onto
  the session clock, and ``submit()`` clamps one arrival forward (a
  live client cannot arrive before already-processed events); both
  copy on write, so a caller's :class:`ServeRequest` is never mutated;
* **clock fold** — a closing session moves the clock past every
  arrival and every completion it saw, so a sequence of sessions reads
  as serial traffic in the telemetry.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..api.requests import SimRequest
from .queueing import ServeRequest

__all__ = ["SessionBook", "submission"]


def submission(request: Union[ServeRequest, SimRequest], *,
               arrival_us: Optional[float] = None,
               priority: int = 0,
               deadline_us: Optional[float] = None,
               request_id: int = 0,
               tenant: str = "") -> Tuple[ServeRequest, Optional[float]]:
    """``submit()``'s two calling forms — a bare facade request plus
    keyword scheduling fields, or a fully populated
    :class:`ServeRequest` — as one validated session-relative
    :class:`ServeRequest` and its arrival (``None`` = now).

    A ``ServeRequest`` carries its own priority/deadline/id/tenant, so
    combining it with those keywords raises :class:`ValueError`.
    """
    if isinstance(request, ServeRequest):
        if (priority, deadline_us, request_id, tenant) != (0, None, 0, ""):
            raise ValueError(
                "pass scheduling fields on the ServeRequest itself, "
                "not as submit() keywords")
        if arrival_us is None and request.arrival_us:
            arrival_us = request.arrival_us
        sreq = request
    else:
        sreq = ServeRequest(request=request, priority=priority,
                            deadline_us=deadline_us, request_id=request_id,
                            tenant=tenant)
    sreq.request.admit()
    return sreq, arrival_us


class SessionBook:
    """Ids, submission order, results and clock of one open session.

    ``offset_us`` is where the session starts on the owner's monotonic
    clock; ``next_id`` is the owner's fresh-id counter, which outlives
    the session.
    """

    def __init__(self, offset_us: float, next_id: Callable[[], int]):
        #: Session clock offset: arrivals are relative to serve()/first
        #: submit() and shifted onto the owner's monotonic clock.
        self.offset = offset_us
        #: Request ids in submission order (drain()'s result order).
        self.order: List[int] = []
        self.results: Dict[int, object] = {}
        self.seen_ids: set = set()
        self.max_arrival_us = offset_us
        self._next_id = next_id

    def assign_id(self, request_id: int) -> int:
        """Keep ``request_id`` if it is set and unseen in this session;
        otherwise allocate a fresh unique one."""
        if request_id == 0 or request_id in self.seen_ids:
            request_id = self._next_id()
            while request_id in self.seen_ids:
                request_id = self._next_id()
        self.seen_ids.add(request_id)
        return request_id

    def intake(self, requests: Iterable[Union[ServeRequest, SimRequest]]
               ) -> List[ServeRequest]:
        """``serve()``'s stream on the session clock, in input order:
        bare requests wrapped, every request validated, arrivals and
        deadlines offset, ids assigned."""
        sreqs: List[ServeRequest] = []
        for item in requests:
            if not isinstance(item, ServeRequest):
                item = ServeRequest(request=item)
            item.request.admit()
            changes = {}
            if self.offset:
                changes["arrival_us"] = item.arrival_us + self.offset
                if item.deadline_us is not None:
                    changes["deadline_us"] = item.deadline_us + self.offset
            request_id = self.assign_id(item.request_id)
            if request_id != item.request_id:
                changes["request_id"] = request_id
            sreqs.append(dataclasses.replace(item, **changes)
                         if changes else item)
        return sreqs

    def place(self, sreq: ServeRequest, arrival_us: Optional[float],
              now_us: float) -> ServeRequest:
        """One :func:`submission` on the session clock: its arrival
        (``None`` = ``now_us``) offset and clamped to no earlier than
        ``now_us``, its deadline offset, its id assigned."""
        arrival = (self.offset + arrival_us if arrival_us is not None
                   else now_us)
        arrival = max(arrival, now_us, self.offset)
        deadline = (self.offset + sreq.deadline_us
                    if sreq.deadline_us is not None else None)
        return ServeRequest(
            request=sreq.request, arrival_us=arrival,
            priority=sreq.priority, deadline_us=deadline,
            request_id=self.assign_id(sreq.request_id), tenant=sreq.tenant)

    def admit(self, sreq: ServeRequest) -> None:
        """Record one normalised request in submission order."""
        self.order.append(sreq.request_id)
        self.max_arrival_us = max(self.max_arrival_us, sreq.arrival_us)

    def fold_clock(self, clock_us: float) -> float:
        """The owner's clock after this session closes: past every
        arrival and every completion the session saw."""
        return max([clock_us, self.max_arrival_us]
                   + [r.record.completion_us for r in self.results.values()
                      if r.record.completion_us > 0])
