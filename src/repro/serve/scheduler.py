"""Batching scheduler: coalesce, shard, dispatch.

The scheduler is the serving layer's core idea: a stream of single
transform invocations is *mergeable work*.  Same-shape requests
arriving within a batching window coalesce into one multi-bank
dispatch — exactly the Sec. VI.A deployment, built from the PR 2 merge
recipes, so the merged program, compiled stream and timing schedule
all come out of the shared caches once per shape.  All three transform
kinds merge: forward and inverse cyclic :class:`~repro.api.NttRequest`\\ s
and forward and inverse :class:`~repro.api.NegacyclicRequest`\\ s (the
coalescing key is :func:`repro.api.merge_key`).  Distinct shapes are
*sharded* across simulated channels/devices, which contend for the
shared command bus in :mod:`repro.serve.server`'s execution model.

Planning is a deterministic discrete-event walk over virtual time:
admission happens at arrival against the bounded queue, a group closes
when its window elapses or it fills ``max_banks``, and requests whose
deadline passes while still queued expire before dispatch.  Group
membership and dispatch times depend only on arrivals and the window —
never on service times — which keeps the plan exact while execution is
pipelined underneath (:mod:`repro.serve.server`).

The walk itself lives in :class:`PlanSession`, which is *incremental*:
:meth:`PlanSession.offer` consumes one arrival at a time (closing every
window that elapses first), so a live client can drive it through
``SimServer.submit()`` while :meth:`BatchingScheduler.plan` replays a
whole offline arrival list through the identical code path — the two
can never diverge.

Results are bit-identical to sequential facade calls: a dispatch group
runs as a :class:`~repro.api.MultiBankRequest`, whose per-bank
functional execution is the same per-request compiled stream a
standalone ``Simulator.run`` replays.

``sequential_policy()`` degenerates the same machinery into the naive
baseline (window 0, one request per dispatch) the benchmark compares
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..api.simulator import merge_key
from .faults import ResiliencePolicy
from .queueing import RequestQueue, ServeRequest
from .telemetry import (
    RequestRecord,
    STATUS_EXPIRED,
    STATUS_REJECTED,
    STATUS_SHED,
    Telemetry,
)

__all__ = ["DispatchUnit", "BatchingScheduler", "PlanSession",
           "sequential_policy"]


@dataclass
class DispatchUnit:
    """One scheduler decision: these requests run together, here."""

    seq: int
    members: List[ServeRequest]
    #: Virtual time the group closed (left the queue).
    ready_us: float
    shard: int
    #: Coalescing key (``None`` for pass-through singles).
    shape: Optional[tuple] = None
    #: Effective priority: a group serves at its most urgent member's.
    priority: int = 0

    @property
    def banks(self) -> int:
        return len(self.members)


@dataclass
class _OpenGroup:
    shape: tuple
    close_at: float
    members: List[ServeRequest] = field(default_factory=list)


class PlanSession:
    """One incremental planning walk over an arrival stream.

    Feed arrivals in virtual-time order through :meth:`offer`; closed
    windows append :class:`DispatchUnit`\\ s to :attr:`units` and drops
    to :attr:`dropped` as they happen, so a consumer (the live server)
    can execute behind a cursor.  :meth:`flush` closes every still-open
    window (end of stream).  ``BatchingScheduler.plan`` is exactly
    ``offer`` in a loop plus ``flush``.
    """

    def __init__(self, scheduler: "BatchingScheduler", queue: RequestQueue,
                 telemetry: Optional[Telemetry] = None,
                 policy: Optional[ResiliencePolicy] = None):
        self.scheduler = scheduler
        self.queue = queue
        self.telemetry = telemetry
        #: Degradation knobs (load shedding, window shrinking); ``None``
        #: or a neutral policy leaves planning byte-identical.
        self.policy = policy
        self.units: List[DispatchUnit] = []
        self.dropped: List[RequestRecord] = []
        #: Virtual time of the last processed event — arrivals must not
        #: precede it.
        self.now_us = 0.0
        self._open: Dict[tuple, _OpenGroup] = {}

    # -- internal ---------------------------------------------------------------
    def _close_group(self, group: _OpenGroup, now_us: float) -> None:
        self._open.pop(group.shape, None)
        live: List[ServeRequest] = []
        for member in group.members:
            # discard(), not remove(): idempotent, so a group replayed
            # by the retry path can never trip over its own bookkeeping.
            self.queue.discard(member)
            if (member.deadline_us is not None
                    and member.deadline_us < now_us):
                self.dropped.append(RequestRecord(
                    request_id=member.request_id,
                    workload=member.request.workload,
                    status=STATUS_EXPIRED, priority=member.priority,
                    arrival_us=member.arrival_us,
                    deadline_us=member.deadline_us,
                    deadline_missed=True, tenant=member.tenant))
            else:
                live.append(member)
        if self.telemetry is not None:
            self.telemetry.sample_depth(now_us, self.queue.depth())
        if not live:
            return
        self.units.append(DispatchUnit(
            seq=len(self.units), members=live, ready_us=now_us,
            shard=self.scheduler._route(group.shape, live[0].request_id),
            shape=group.shape,
            priority=max(m.priority for m in live)))
        if self.telemetry is not None:
            self.telemetry.note_group(len(live))

    # -- the incremental surface ------------------------------------------------
    def advance(self, now_us: float) -> None:
        """Move virtual time forward to ``now_us``, closing (in
        close-time order) every window that elapses on the way."""
        while self._open:
            group = min(self._open.values(), key=lambda g: g.close_at)
            if group.close_at > now_us:
                break
            self._close_group(group, group.close_at)
        self.now_us = max(self.now_us, now_us)

    def offer(self, sreq: ServeRequest) -> None:
        """Process one arrival (arrivals must be fed in virtual-time
        order): close every window that elapses first, then admit it."""
        if sreq.arrival_us < self.now_us:
            raise ValueError(
                f"arrival at {sreq.arrival_us}us precedes the plan clock "
                f"({self.now_us}us); feed arrivals in order")
        self.advance(sreq.arrival_us)
        self._admit(sreq)

    def release(self, sreq: ServeRequest) -> None:
        """Admit one *dependency-released* arrival — a DAG stage whose
        parents just settled (``sreq.arrival_us`` is the release time:
        the latest parent completion).

        Releases at or past the clock are plain offers.  Settlement can
        run ahead of planning (the live path's finality horizon), so a
        stage's release time may also lie behind ``now_us``: such a
        past release is admitted without touching the clock.  It joins
        its shape's open window if one is open (every open window's
        close time is still ahead of the clock, hence ahead of the
        release), or opens a new one at its own release time — closed
        by the caller's next ``advance()``/``flush()`` like any other
        window.
        """
        if sreq.arrival_us >= self.now_us:
            self.offer(sreq)
        else:
            self._admit(sreq)

    def _admit(self, sreq: ServeRequest) -> None:
        """Admission control at ``sreq.arrival_us``, then window
        coalescing — or immediate dispatch for unbatchable requests."""
        now_us = sreq.arrival_us
        policy = self.policy
        if (policy is not None and policy.shed_depth is not None
                and self.queue.depth() >= policy.shed_depth
                and sreq.priority < policy.shed_min_priority):
            # Graceful degradation: past the shedding threshold the
            # queue's remaining headroom is reserved for urgent traffic;
            # best-effort arrivals are turned away *before* admission.
            self._drop(sreq, STATUS_SHED)
            if self.telemetry is not None:
                self.telemetry.note("shed")
            return
        if not self.queue.offer(sreq):
            self._drop(sreq, STATUS_REJECTED)
            return
        if self.telemetry is not None:
            self.telemetry.sample_depth(now_us, self.queue.depth())
        shape = merge_key(sreq.request)
        if shape is None or self.scheduler.max_banks == 1:
            # Unbatchable (or batching disabled): dispatch alone,
            # immediately — holding it in a window buys nothing.
            self.queue.remove(sreq)
            self.units.append(DispatchUnit(
                seq=len(self.units), members=[sreq], ready_us=now_us,
                shard=self.scheduler._route(None, sreq.request_id),
                priority=sreq.priority))
            if self.telemetry is not None:
                self.telemetry.note_group(1)
                self.telemetry.sample_depth(now_us, self.queue.depth())
            return
        group = self._open.get(shape)
        if group is None:
            window_us = self.scheduler.window_us
            if (policy is not None and policy.shrink_depth is not None
                    and self.queue.depth() >= policy.shrink_depth):
                # Overloaded: close new windows sooner — trade batch
                # occupancy for queue drain and latency.
                window_us *= policy.shrink_factor
                if self.telemetry is not None:
                    self.telemetry.note("shrunk_windows")
            group = _OpenGroup(shape=shape, close_at=now_us + window_us)
            self._open[shape] = group
        group.members.append(sreq)
        if len(group.members) >= self.scheduler.max_banks:
            # A full group closes at its *latest* member's arrival — an
            # in-order offer's own arrival; a past release joining an
            # already-open window must not pull the close time before
            # members that arrived after it.
            self._close_group(group, max(m.arrival_us
                                         for m in group.members))

    def _drop(self, sreq: ServeRequest, status: str) -> None:
        """Turn ``sreq`` away at its arrival (``shed`` or ``rejected``)."""
        self.dropped.append(RequestRecord(
            request_id=sreq.request_id, workload=sreq.request.workload,
            status=status, priority=sreq.priority,
            arrival_us=sreq.arrival_us, deadline_us=sreq.deadline_us,
            tenant=sreq.tenant))

    def flush(self) -> None:
        """End of stream: close every remaining window at its close
        time (in order), advancing the plan clock past them."""
        while self._open:
            group = min(self._open.values(), key=lambda g: g.close_at)
            close_at = group.close_at
            self._close_group(group, close_at)
            self.now_us = max(self.now_us, close_at)


class BatchingScheduler:
    """Window-based coalescing with round-robin shape→shard placement."""

    def __init__(self, *, window_us: float = 50.0, max_banks: int = 8,
                 num_shards: int = 1):
        if window_us < 0:
            raise ValueError("window_us must be >= 0")
        if max_banks < 1:
            raise ValueError("max_banks must be >= 1")
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        self.window_us = window_us
        self.max_banks = max_banks
        self.num_shards = num_shards
        # Stable placement: shapes (and unbatchable singles) take shards
        # round-robin in order of first appearance — deterministic given
        # the arrival order, unlike hash()-based routing.
        self._shard_of: Dict[tuple, int] = {}
        self._next_shard = 0

    def _route(self, shape: Optional[tuple], request_id: int) -> int:
        if shape is None:
            # Unbatchable singles need no persistent placement (their
            # ids never recur) — plain round-robin, nothing stored.
            shard = self._next_shard % self.num_shards
            self._next_shard += 1
            return shard
        shard = self._shard_of.get(shape)
        if shard is None:
            shard = self._next_shard % self.num_shards
            self._next_shard += 1
            self._shard_of[shape] = shard
        return shard

    # -- planning ---------------------------------------------------------------
    def begin(self, queue: RequestQueue,
              telemetry: Optional[Telemetry] = None,
              policy: Optional[ResiliencePolicy] = None) -> PlanSession:
        """Start an incremental planning walk (the live-server entry)."""
        return PlanSession(self, queue, telemetry, policy)

    def plan(self, arrivals: List[ServeRequest], queue: RequestQueue,
             telemetry: Optional[Telemetry] = None,
             policy: Optional[ResiliencePolicy] = None
             ) -> Tuple[List[DispatchUnit], List[RequestRecord]]:
        """Deterministic discrete-event walk over the arrival stream.

        Returns ``(units, dropped)``: the dispatch plan plus records for
        requests that never reached a shard (admission rejections and
        queued-past-deadline expiries).  ``arrivals`` must be sorted by
        ``(arrival_us, request_id)``.
        """
        session = self.begin(queue, telemetry, policy)
        for sreq in arrivals:
            session.offer(sreq)
        session.flush()
        return session.units, session.dropped


def sequential_policy(num_shards: int = 1) -> BatchingScheduler:
    """The naive baseline: no window, no coalescing — every request is
    its own dispatch, served in arrival order.  Same machinery, so the
    benchmark's comparison isolates *batching*, nothing else."""
    return BatchingScheduler(window_us=0.0, max_banks=1,
                             num_shards=num_shards)
