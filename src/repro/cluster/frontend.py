"""The cluster supervisor: one front door over N serving replicas.

:class:`ClusterFrontend` mirrors the :class:`~repro.serve.SimServer`
surface — ``serve()``, ``submit()/poll()/advance()/drain()`` — but owns
no shards itself.  Each call runs the front-end pipeline:

1. **Admission** — the tenant's token bucket
   (:class:`~repro.cluster.quotas.QuotaManager`) spends or throttles.
   Throttled requests drop at the front door with a ``throttled``
   record and a virtual-time retry-after hint; they never reach a
   replica.
2. **Health** — every routable replica answers one
   :class:`~repro.cluster.messages.Heartbeat`, whose reply carries both
   its load and its breaker-lifted ``up`` verdict; a replica whose
   every shard breaker is open (cooldowns pending) is routed around
   until a cooldown expires.
3. **Routing** — the :mod:`~repro.cluster.router` policy places the
   request by its batching merge key among the healthy replicas, so
   coalescible traffic stays coalescible.
4. **Dispatch** — a typed :class:`~repro.cluster.messages.Submit` to
   the owning replica, recorded in the owner map for ``poll()``.

**Self-healing**: each replica slot has a
:class:`~repro.cluster.watchdog.ReplicaSupervisor`, every message goes
through its fault-aware link, and a virtual-time watchdog turns missed
heartbeats into the UP/SUSPECT/DOWN lifecycle — failing over orphaned
in-flight requests to healthy replicas (deduped, so a
slow-then-recovered replica can never double-serve) and scheduling
deterministic supervised restarts.  An optional
:class:`~repro.cluster.watchdog.AutoscalePolicy` grows and shrinks the
fleet from the same heartbeat rollups with minimal ring remaps.  With
no replica-fault plan a link never drops, so no heartbeat can be
missed; with no autoscale policy too, every watchdog tick would be a
no-op, and the watchdog skips them.

Time is one cluster-wide virtual clock; replicas translate into their
session coordinates.  Determinism is end-to-end: routing hashes are
process-independent, quotas refill as a pure function of virtual time,
each replica's fault plan derives from the cluster seed, and replica
faults are pure functions of ``(seed, replica, virtual_time)`` — so a
chaos run with failovers, restarts and scale events replays
bit-for-bit, and a **one-replica cluster is bit-identical to a bare
server** (same ids, same records, same telemetry): the front-end
assigns ids, normalises requests and folds its clock through the
server's own :class:`~repro.serve.session.SessionBook`, admission is
pass-through without quotas, and routing is trivial.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..api import merge_key
from ..api.dag import DagRequest
from ..api.requests import SimRequest
from ..errors import ClusterError
from ..serve.faults import (
    FaultPlan,
    ResiliencePolicy,
    make_fault_plan,
    make_replica_fault_plan,
)
from ..serve.queueing import ServeRequest
from ..serve.server import ServeResult
from ..serve.session import SessionBook, submission
from ..serve.telemetry import (
    STATUS_ORPHANED,
    STATUS_THROTTLED,
    RequestRecord,
    Telemetry,
    merge_snapshots,
)
from ..sim.driver import SimConfig
from .messages import (
    Advance,
    Drain,
    Heartbeat,
    HeartbeatReply,
    Poll,
    Submit,
)
from .quotas import QuotaManager, TenantQuota
from .replica import Replica
from .router import make_router
from .watchdog import (
    DOWN,
    RETIRED,
    SUSPECT,
    UP,
    AutoscalePolicy,
    ClusterHealth,
    ReplicaSupervisor,
    WatchdogPolicy,
)

__all__ = ["ClusterFrontend", "derive_fault_plans"]

#: Per-replica fault-seed stride: replica ``i`` draws from ``seed +
#: 7919 * i``.  A prime far from any sweep step keeps the per-replica
#: streams decorrelated; replica 0 keeps the base seed itself, so a
#: one-replica cluster injects *exactly* the faults a bare server
#: with the same plan would.
FAULT_SEED_STRIDE = 7919


def _route_key(request: SimRequest):
    """Routing key of one request: its merge key — or, for a
    :class:`~repro.api.DagRequest` (which executes whole on one replica
    so its dependency edges never cross the cluster), the merge key of
    its first batchable stage.  Graphs over a hot shape thereby keep
    batching affinity with the plain traffic of the same shape."""
    if isinstance(request, DagRequest):
        for _, node in request.nodes:
            key = merge_key(node)
            if key is not None:
                return key
        return None
    return merge_key(request)


def _derived_plan(base: Optional[FaultPlan],
                  index: int) -> Optional[FaultPlan]:
    if base is None:
        return None
    return FaultPlan(base.profile, base.seed + FAULT_SEED_STRIDE * index)


def derive_fault_plans(base: Optional[FaultPlan], replicas: int
                       ) -> List[Optional[FaultPlan]]:
    """Independent per-replica plans off one base plan (see
    :data:`FAULT_SEED_STRIDE`)."""
    return [_derived_plan(base, i) for i in range(replicas)]


class _ClusterSession(SessionBook):
    """Front-end state of one open serving session (the cluster analog
    of the server-side ``_Session``): the owner map on top of the
    shared session bookkeeping.  ``results`` collects front-door drops
    (throttled requests settle immediately) and, at close, everything
    the replicas drained — which is what makes a failed ``drain()``
    retryable."""

    def __init__(self, frontend: "ClusterFrontend"):
        super().__init__(frontend._clock_us, frontend._ids.__next__)
        #: request id -> owning replica id (throttled drops never own).
        self.owner: Dict[int, int] = {}
        #: Latest absolute event time — the cluster's ``planner.now_us``.
        self.now_us = self.offset
        # -- failover bookkeeping ------------------------------------------------
        #: Original absolute-time submissions, for failover re-submits.
        self.inflight: Dict[int, ServeRequest] = {}
        #: Owning supervisor incarnation at assignment time (a restarted
        #: slot is a different owner for dedup purposes).
        self.owner_inc: Dict[int, int] = {}
        #: Cluster id -> server-side id at the current owner, when the
        #: owner's session had to reassign on a failover re-submit.
        self.alias: Dict[int, int] = {}
        #: ``(slot, server_id) -> cluster id`` for every reassignment
        #: ever made — kept so late duplicate copies map back for dedup.
        self.reverse: Dict[Tuple[int, int], int] = {}
        #: Re-submit arrival shift per cluster id: subtracted from the
        #: serving record's arrival so latency spans the outage.
        self.resub_delta: Dict[int, float] = {}
        #: Requests with no routable replica at placement time; the
        #: watchdog retries them every tick, close() is the backstop.
        self.parked: List[int] = []


class ClusterFrontend:
    """Supervise ``replicas`` :class:`SimServer` replicas behind one
    SimServer-shaped front door.

    ``router`` is ``"hash"``, ``"least-loaded"`` or a router instance;
    ``quotas`` maps tenant names to :class:`TenantQuota` (``"*"`` =
    default; ``None`` = unmetered).  ``faults``/``fault_seed`` build
    one base plan and derive an independent per-replica plan from it
    (:func:`derive_fault_plans`); ``fault_plans`` instead pins an
    explicit per-replica list (e.g. to poison one replica in a test).

    ``replica_faults``/``replica_fault_seed`` resolve through
    :func:`repro.serve.faults.make_replica_fault_plan` into the
    replica-scoped crash/hang/partition timeline (zero-rate specs drop
    to ``None``: no link ever drops); ``watchdog``
    tunes missed-heartbeat detection and restarts
    (:class:`WatchdogPolicy`); ``autoscale`` is an
    :class:`AutoscalePolicy`, a ``(min, max)`` pair or a ``"min:max"``
    string.  Remaining ``server_kwargs`` go verbatim to every
    replica's :class:`SimServer`.
    """

    def __init__(self, replicas: int = 1,
                 config: Optional[SimConfig] = None, *,
                 router="hash",
                 quotas: Optional[Dict[str, TenantQuota]] = None,
                 faults=None, fault_seed: int = 0,
                 fault_plans: Optional[Sequence[Optional[FaultPlan]]] = None,
                 policy: Union[str, ResiliencePolicy] = "none",
                 replica_faults=None, replica_fault_seed: int = 0,
                 watchdog: Optional[WatchdogPolicy] = None,
                 autoscale=None,
                 **server_kwargs):
        if replicas < 1:
            raise ClusterError("a cluster needs at least 1 replica")
        base: Optional[FaultPlan] = None
        if fault_plans is not None:
            if len(fault_plans) != replicas:
                raise ClusterError(
                    f"fault_plans has {len(fault_plans)} entries for "
                    f"{replicas} replicas")
            plans = list(fault_plans)
        else:
            base = make_fault_plan(faults, fault_seed)
            plans = derive_fault_plans(base, replicas)
        self._config = config
        self._policy = policy
        self._server_kwargs = dict(server_kwargs)
        self._base_fault = base
        self._plans: List[Optional[FaultPlan]] = list(plans)
        self.router = make_router(router, replicas)
        self.quotas = QuotaManager(quotas)
        #: Front-door telemetry: only records the cluster itself drops
        #: (throttled).  ``replica = -1`` marks "never reached one".
        self.telemetry = Telemetry()
        self.telemetry.replica = -1
        self._ids = itertools.count(1)
        self._clock_us = 0.0
        self._live: Optional[_ClusterSession] = None
        # -- self-healing tier ---------------------------------------------------
        self.replica_faults = make_replica_fault_plan(replica_faults,
                                                      replica_fault_seed)
        if isinstance(autoscale, str):
            lo, _, hi = autoscale.partition(":")
            autoscale = (int(lo), int(hi or lo))
        if isinstance(autoscale, (tuple, list)):
            lo, hi = autoscale
            autoscale = AutoscalePolicy(min_replicas=int(lo),
                                        max_replicas=int(hi))
        self._autoscale = autoscale
        self.watchdog = watchdog if watchdog is not None else WatchdogPolicy()
        self.health = ClusterHealth()
        self._supervisors = [
            ReplicaSupervisor(i, self._new_replica(i),
                              plan=self.replica_faults)
            for i in range(replicas)]
        self._tick = 0
        self._hi_ticks = 0
        self._lo_ticks = 0
        self._last_scale_us = float("-inf")

    @property
    def replicas(self) -> List[Replica]:
        """The current incarnation of every slot, retired ones included."""
        return [sup.replica for sup in self._supervisors]

    def _new_replica(self, slot: int) -> Replica:
        """A fresh replica on ``slot`` under the slot's derived
        dispatch-fault plan — construction, restart (which reuses the
        original plan) and scale-out (which extends the
        :data:`FAULT_SEED_STRIDE` derivation) all build here."""
        if slot == len(self._plans):
            self._plans.append(_derived_plan(self._base_fault, slot))
        return Replica(slot, self._config, fault_plan=self._plans[slot],
                       policy=self._policy, **self._server_kwargs)

    def _open(self) -> _ClusterSession:
        if self._live is None:
            self._live = _ClusterSession(self)
        return self._live

    # -- offline entry point ------------------------------------------------------
    def serve(self, requests: Iterable[Union[ServeRequest, SimRequest]]
              ) -> List[ServeResult]:
        """Serve a whole arrival stream through the cluster; results in
        *input* order, one per request (throttled/rejected included),
        exactly like :meth:`SimServer.serve`."""
        if self._live is not None:
            raise RuntimeError("an open submit() session is active; "
                               "drain() it before calling serve()")
        session = _ClusterSession(self)
        sreqs = session.intake(requests)
        self._live = session
        for sreq in sorted(sreqs, key=lambda s: (s.arrival_us,
                                                 s.request_id)):
            self._admit(session, sreq)
        results = self._close(session)
        return [results[s.request_id] for s in sreqs]

    # -- live entry points --------------------------------------------------------
    def submit(self, request: Union[ServeRequest, SimRequest], *,
               arrival_us: Optional[float] = None,
               priority: int = 0,
               deadline_us: Optional[float] = None,
               request_id: int = 0,
               tenant: str = "") -> int:
        """Admit, route and submit one request; returns its id (also
        for throttled drops, whose result is immediately pollable)."""
        sreq, arrival_us = submission(
            request, arrival_us=arrival_us, priority=priority,
            deadline_us=deadline_us, request_id=request_id, tenant=tenant)
        session = self._open()
        sreq = session.place(sreq, arrival_us, session.now_us)
        self._admit(session, sreq)
        return sreq.request_id

    def advance(self, now_us: float) -> None:
        """Idle-tick every replica to session-relative ``now_us`` —
        the cluster form of :meth:`SimServer.advance` (the operator
        console's clock source)."""
        session = self._open()
        session.now_us = max(session.now_us, session.offset + now_us)
        self._run_watchdog(session, session.now_us)
        for sup in self._supervisors:
            self._deliver(sup, Advance(now_us=session.now_us),
                          session.now_us)

    def poll(self, request_id: int) -> Optional[ServeResult]:
        """The live session's result for ``request_id`` (front-door
        drops included), or ``None`` while pending/unknown — or while
        the owning replica's link is dark."""
        session = self._live
        if session is None:
            return None
        if request_id in session.results:
            return session.results[request_id]
        owner = session.owner.get(request_id)
        if owner is None:
            return None
        sid = session.alias.get(request_id, request_id)
        reply = self._deliver(self._supervisors[owner], Poll(sid),
                              session.now_us)
        if reply is None or reply.result is None:
            return None
        self._accept(session, request_id, reply.result)
        return session.results[request_id]

    def drain(self) -> List[ServeResult]:
        """Close the session on every replica and return every
        submission's result in cluster submission order."""
        session = self._live
        if session is None:
            return []
        results = self._close(session)
        return [results[rid] for rid in session.order]

    # -- the front-end pipeline ---------------------------------------------------
    def _admit(self, session: _ClusterSession, sreq: ServeRequest) -> None:
        """Quota -> health -> route -> dispatch for one absolute-time
        request (id already assigned).  Routes among live-lifecycle
        replicas only, falls back along the ring when a link drops the
        Submit itself, and parks when the whole fleet is dark."""
        session.admit(sreq)
        now = session.now_us = max(session.now_us, sreq.arrival_us)
        self._run_watchdog(session, now)
        ok, retry_after = self.quotas.admit(sreq.tenant, sreq.arrival_us,
                                            priority=sreq.priority)
        if not ok:
            record = RequestRecord(
                request_id=sreq.request_id,
                workload=sreq.request.workload,
                status=STATUS_THROTTLED,
                priority=sreq.priority,
                arrival_us=sreq.arrival_us,
                deadline_us=sreq.deadline_us,
                tenant=sreq.tenant,
                error=(f"tenant {sreq.tenant!r} over quota; retry in "
                       f"{retry_after:.1f}us"))
            self.telemetry.add(record)
            session.results[sreq.request_id] = ServeResult(record=record)
            return
        session.inflight[sreq.request_id] = sreq
        routable = [sup for sup in self._supervisors
                    if sup.state == UP and sup.link_outage(now) is None]
        # A clean link always answers, so every routable replica replies.
        beats = [self._deliver(sup, Heartbeat(now_us=now), now)
                 for sup in routable]
        # All breakers dark: route over every routable replica rather
        # than fail the front door (the soonest-cooling-down replica
        # recovers it on dispatch).
        candidates = ([hb.replica for hb in beats if hb.up]
                      or [sup.slot for sup in routable])
        if candidates:
            chosen = self.router.route(
                _route_key(sreq.request), sreq.request_id, now_us=now,
                candidates=candidates,
                loads={hb.replica: hb.outstanding + hb.backlog
                       for hb in beats})
            pivot = candidates.index(chosen)
            for slot in candidates[pivot:] + candidates[:pivot]:
                if self._place(session, sreq.request_id, sreq, slot, now):
                    return
        session.parked.append(sreq.request_id)

    def _place(self, session: _ClusterSession, rid: int,
               sreq: ServeRequest, slot: int, now_us: float) -> bool:
        """Submit ``sreq`` (carrying cluster id ``rid``) to ``slot``;
        records ownership + any server-side id reassignment.  False
        when the link dropped the Submit."""
        sup = self._supervisors[slot]
        reply = self._deliver(sup, Submit(sreq=sreq), now_us)
        if reply is None:
            return False
        session.owner[rid] = slot
        session.owner_inc[rid] = sup.incarnation
        if reply.request_id != rid:
            session.alias[rid] = reply.request_id
            session.reverse[(slot, reply.request_id)] = rid
        else:
            session.alias.pop(rid, None)
        return True

    # -- the watchdog -------------------------------------------------------------
    def _deliver(self, sup: ReplicaSupervisor, message, now_us: float):
        """One link-mediated delivery, folding any newly observed fault
        events into the cluster health counters."""
        reply = sup.deliver(message, now_us)
        for kind in sup.pop_seen_kinds():
            self.health.note_fault(kind)
        return reply

    def _run_watchdog(self, session: _ClusterSession,
                      now_us: float) -> None:
        """Process every heartbeat tick in ``(last, now_us]``.  Ticks
        live on the integer grid ``(index + 1) * heartbeat_us`` so a
        replayed run probes at bit-identical times.

        With no replica-fault plan and no autoscale policy a tick can
        miss no heartbeat, park nothing and scale nothing, so the ticks
        are skipped outright (they would only cost host time in
        proportion to idle virtual time)."""
        if self.replica_faults is None and self._autoscale is None:
            return
        heartbeat = self.watchdog.heartbeat_us
        while (self._tick + 1) * heartbeat <= now_us:
            self._tick += 1
            self._on_tick(session, self._tick * heartbeat)

    def _on_tick(self, session: _ClusterSession, t: float) -> None:
        policy = self.watchdog
        loads: Dict[int, int] = {}
        for sup in list(self._supervisors):
            if sup.state == RETIRED:
                continue
            if (sup.state == DOWN and sup.restart_at_us is not None
                    and t >= sup.restart_at_us):
                self._restart(sup, t)
            reply = self._deliver(sup, Heartbeat(now_us=t), t)
            if reply is None:
                transition = sup.on_missed(t, policy)
                if transition == SUSPECT:
                    self.health.suspects += 1
                elif transition == DOWN:
                    self.health.downs += 1
                    self._failover(session, sup, t)
            else:
                mttr = sup.on_ack(t)
                if mttr is not None:
                    self.health.mttr_samples_us.append(mttr)
                loads[sup.slot] = reply.queue_depth + reply.outstanding
        self._retry_parked(session, t)
        self._autoscale_tick(session, t, loads)

    def _restart(self, sup: ReplicaSupervisor, t: float) -> None:
        """Supervised deterministic restart: fresh incarnation on the
        same slot with the same derived fault seed; the dead
        incarnation's telemetry is retired for the cluster rollup."""
        mttr = sup.reborn(self._new_replica(sup.slot), t)
        self.health.restarts += 1
        self.health.mttr_samples_us.append(mttr)

    def _failover(self, session: _ClusterSession,
                  sup: ReplicaSupervisor, t: float) -> None:
        """A replica went DOWN: re-route its unsettled submissions to
        healthy replicas (results already settled into the session
        stay settled)."""
        self.health.failovers += 1
        orphans = [rid for rid in session.order
                   if session.owner.get(rid) == sup.slot
                   and rid not in session.results]
        for rid in orphans:
            self._reassign(session, rid, t)

    def _reassign(self, session: _ClusterSession, rid: int,
                  t: float) -> bool:
        """Move one orphaned request to a healthy replica (duplicate-id
        copy-on-write: the re-submit keeps the cluster id, and a
        server-side reassignment is tracked through the alias maps).
        Parks the request when the whole fleet is dark."""
        sreq = session.inflight.get(rid)
        if sreq is None:
            return False
        old = session.owner.get(rid)
        old_sup = self._supervisors[old] if old is not None else None
        if (old_sup is not None and old_sup.state == UP
                and old_sup.incarnation == session.owner_inc.get(rid, -1)
                and old_sup.link_outage(t) is None):
            # The owning incarnation recovered with its state intact —
            # nothing to move; it will serve the request itself.
            if rid in session.parked:
                session.parked.remove(rid)
            return True
        exclude = (old if old_sup is not None
                   and old_sup.incarnation == session.owner_inc.get(rid, -1)
                   else None)
        candidates = [sup.slot for sup in self._supervisors
                      if sup.state == UP and sup.slot != exclude
                      and sup.link_outage(t) is None]
        if not candidates:
            if rid not in session.parked:
                session.parked.append(rid)
            return False
        chosen = self.router.route(_route_key(sreq.request), rid,
                                   now_us=t, candidates=candidates,
                                   loads={})
        arrival = max(sreq.arrival_us, t)
        resub = dataclasses.replace(sreq, arrival_us=arrival)
        pivot = candidates.index(chosen)
        for slot in candidates[pivot:] + candidates[:pivot]:
            if self._place(session, rid, resub, slot, t):
                session.resub_delta[rid] = arrival - sreq.arrival_us
                self.health.orphans_recovered += 1
                if rid in session.parked:
                    session.parked.remove(rid)
                return True
        if rid not in session.parked:
            session.parked.append(rid)
        return False

    def _retry_parked(self, session: _ClusterSession, t: float) -> None:
        for rid in list(session.parked):
            self._reassign(session, rid, t)

    # -- auto-scaling -------------------------------------------------------------
    def _autoscale_tick(self, session: _ClusterSession, t: float,
                        loads: Dict[int, int]) -> None:
        policy = self._autoscale
        if policy is None:
            return
        if not loads:
            self._hi_ticks = self._lo_ticks = 0
            return
        mean = sum(loads.values()) / len(loads)
        if mean >= policy.scale_out_load:
            self._hi_ticks += 1
            self._lo_ticks = 0
        elif mean <= policy.scale_in_load:
            self._lo_ticks += 1
            self._hi_ticks = 0
        else:
            self._hi_ticks = self._lo_ticks = 0
        if t - self._last_scale_us < policy.cooldown_us:
            return
        active = sum(1 for sup in self._supervisors
                     if sup.state != RETIRED)
        if (self._hi_ticks >= policy.sustain_ticks
                and active < policy.max_replicas):
            self._scale_out(t)
            self._hi_ticks = 0
            self._last_scale_us = t
        elif (self._lo_ticks >= policy.sustain_ticks
                and active > policy.min_replicas):
            if self._scale_in(t):
                self._lo_ticks = 0
                self._last_scale_us = t

    def _scale_out(self, t: float) -> None:
        """Add one replica on a fresh slot: derived fault seed, born at
        ``t`` (pre-birth fault events never fire), minimal ring remap."""
        slot = len(self._supervisors)
        self._supervisors.append(ReplicaSupervisor(
            slot, self._new_replica(slot), plan=self.replica_faults,
            born_us=t))
        self.router.add_replica(slot)
        self.health.scale_out += 1

    def _scale_in(self, t: float) -> bool:
        """Retire the newest UP replica, but only once its heartbeat
        shows it idle (nothing queued or in flight — its settled
        results stay drainable)."""
        ups = [sup for sup in self._supervisors if sup.state == UP]
        if not ups:
            return False
        sup = ups[-1]
        reply = self._deliver(sup, Heartbeat(now_us=t), t)
        if reply is None or reply.outstanding or reply.queue_depth:
            return False
        sup.retire()
        self.router.remove_replica(sup.slot)
        self.health.scale_in += 1
        return True

    # -- close --------------------------------------------------------------------
    def _accept(self, session: _ClusterSession, rid: int,
                result: ServeResult) -> None:
        """Settle ``result`` as cluster id ``rid``: restore the cluster
        id over a server-side reassignment and shift arrival back to
        the original submission, *mutating the shared record* so the
        serving replica's telemetry tells the same story."""
        record = result.record
        if record.request_id != rid:
            record.request_id = rid
        delta = session.resub_delta.pop(rid, 0.0)
        if delta:
            record.arrival_us -= delta
        session.results[rid] = result

    def _collect(self, session: _ClusterSession, slot: int,
                 result: ServeResult) -> None:
        """Fold one drained result in, deduped against the owner map:
        a copy from a non-owner (slow-then-recovered replica, or a
        superseded incarnation) is marked orphaned, never returned."""
        record = result.record
        rid = session.reverse.get((slot, record.request_id),
                                  record.request_id)
        existing = session.results.get(rid)
        if existing is not None and existing.record is record:
            return
        if existing is not None or session.owner.get(rid) != slot:
            if record.status != STATUS_ORPHANED:
                record.status = STATUS_ORPHANED
                self.health.duplicates_dropped += 1
            return
        self._accept(session, rid, result)

    def _close(self, session: _ClusterSession) -> Dict[int, ServeResult]:
        """Close the session: escalate crashes the watchdog has not
        reached yet, recover every orphan, drain everything reachable
        (transient outages are waited out in virtual time — the link is
        bypassed), dedup duplicates, orphan-mark the lost copies in
        dead incarnations' telemetry, fold the cluster clock forward
        (the server's own rule), and return the merged result map."""
        now = session.now_us
        self._run_watchdog(session, now)
        for sup in self._supervisors:
            if sup.state in (RETIRED, DOWN):
                continue
            event = sup.link_outage(now)
            if event is not None:
                sup._note_event(event)
            if sup.crashed(now):
                sup.mark_down(now, self.watchdog)
                self.health.downs += 1
                self._failover(session, sup, now)
        for kinds_sup in self._supervisors:
            for kind in kinds_sup.pop_seen_kinds():
                self.health.note_fault(kind)
        self._retry_parked(session, now)
        # Crashed incarnations lost their state; everything else (hung,
        # partitioned, retired, healthy) is drained directly.
        lost: List[Telemetry] = []
        for sup in self._supervisors:
            if sup.state != RETIRED and sup.crashed(now):
                lost.append(sup.replica.server.telemetry)
                continue
            for result in sup.send(Drain()).results:
                self._collect(session, sup.slot, result)
        # Backstop: a re-submit can itself land on a replica that dies
        # before close, or the whole fleet can be dark.  Bounded loop:
        # force-restart if nothing is reachable, re-place, drain again.
        for _ in range(2 * len(self._supervisors) + 2):
            missing = [rid for rid in session.order
                       if rid not in session.results]
            if not missing:
                break
            healthy = [sup for sup in self._supervisors
                       if sup.state == UP and sup.link_outage(now) is None]
            if not healthy:
                target = min((sup for sup in self._supervisors
                              if sup.state != RETIRED),
                             key=lambda s: s.slot)
                if target.state != RETIRED:
                    lost.append(target.replica.server.telemetry)
                self._restart(target, now)
                healthy = [target]
            for rid in missing:
                self._reassign(session, rid, now)
            for sup in healthy:
                for result in sup.send(Drain()).results:
                    self._collect(session, sup.slot, result)
        missing = [rid for rid in session.order
                   if rid not in session.results]
        if missing:
            raise ClusterError(
                f"close could not recover {len(missing)} request(s) "
                f"(ids {missing[:5]}); drain() again to retry")
        # Lost copies (crash-dead incarnations) that were re-served
        # elsewhere must not double-count in the cluster rollup.
        lost += [telemetry for sup in self._supervisors
                 for telemetry in sup.retired_telemetries]
        for telemetry in lost:
            for record in telemetry.records:
                rid = session.reverse.get(
                    (telemetry.replica, record.request_id),
                    record.request_id)
                served = session.results.get(rid)
                if served is not None and served.record is record:
                    continue
                if record.status != STATUS_ORPHANED:
                    record.status = STATUS_ORPHANED
                    if served is not None:
                        self.health.duplicates_dropped += 1
        self._clock_us = session.fold_clock(self._clock_us)
        self._live = None
        return session.results

    # -- observability ------------------------------------------------------------
    @property
    def now_us(self) -> float:
        """The cluster's current absolute virtual time."""
        return (self._live.now_us if self._live is not None
                else self._clock_us)

    def heartbeats(self, *, want_snapshot: bool = False
                   ) -> List[HeartbeatReply]:
        """One probe per replica at the cluster's current time — the
        operator console's data source.  Each reply carries the
        watchdog's lifecycle verdict, and a dark replica gets a
        synthesized not-up row (a real probe would get no answer
        either)."""
        now = self.now_us
        replies = []
        for sup in self._supervisors:
            reply = self._deliver(
                sup, Heartbeat(now_us=now, want_snapshot=want_snapshot), now)
            if reply is None:
                replies.append(HeartbeatReply(
                    replica=sup.slot, now_us=now, queue_depth=0,
                    outstanding=0, backlog=0, num_shards=0, breakers={},
                    up=False, snapshot=None, lifecycle=sup.state))
            else:
                replies.append(dataclasses.replace(reply,
                                                   lifecycle=sup.state))
        return replies

    def _telemetries(self) -> List[Telemetry]:
        """Front-door drops, then every slot's dead incarnations and its
        current one."""
        parts = [self.telemetry]
        for sup in self._supervisors:
            parts.extend(sup.retired_telemetries)
            parts.append(sup.replica.server.telemetry)
        return parts

    def cluster_telemetry(self) -> Telemetry:
        """Exact combined telemetry: front-door drops plus every
        replica's records (:meth:`Telemetry.merge`), dead incarnations'
        retired telemetry included."""
        return Telemetry.merge(self._telemetries())

    def cluster_snapshot(self) -> Dict[str, object]:
        """The cluster rollup a dashboard plots: per-replica snapshots
        combined by :func:`repro.serve.telemetry.merge_snapshots`,
        front-door throttles included, plus a ``"cluster"`` key with
        the self-healing counters (failovers, restarts, orphans, MTTR,
        scale events)."""
        snapshot = merge_snapshots([t.snapshot()
                                    for t in self._telemetries()])
        snapshot["cluster"] = self.health.snapshot()
        return snapshot

    def quota_stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant admitted/throttled/tokens counters."""
        return self.quotas.stats()
