"""`SimServer`: the serving loop over the Simulator facade.

::

    arrivals ──> RequestQueue ──> BatchingScheduler ──> shard 0 ─┐
                 (admission,      (window coalescing,   shard 1 ─┼─> shared
                  priorities,      multi-bank merge,      ...    │   command
                  deadlines)       shape→shard routing) shard S ─┘   bus

Two clocks run side by side.  *Virtual* (simulated-device) time drives
everything a client would measure: arrivals, batching windows, shard
backlogs, bus contention, latencies, throughput — a deterministic
discrete-event model whose service times are the timing engine's
schedule latencies.  *Host* wall-clock time is how long the functional
simulation takes to chew through the plan, one dispatch at a time on
the calling thread.

Planning (group membership, dispatch times, drops) depends only on
arrivals and the window — never on service times — so the plan is fixed
before execution begins.  That property is what makes the server
*live-drivable*: the two-phase model replans per window as requests
arrive, so :meth:`SimServer.submit` / :meth:`SimServer.poll` /
:meth:`SimServer.drain` expose the identical machinery incrementally —
an offline :meth:`SimServer.serve` call is literally a submit loop plus
a drain, and the two produce bit-identical results and records.

Shards contend for the command bus.  Under the default ``bus="shared"``
model every dispatch occupies the bus for its compiled stream's
command count (one command per cycle — the Sec. VI.A constraint,
extended across shards), so shard scaling bends realistically as the
bus saturates; ``bus="independent"`` restores the optimistic
independent-channel model for comparison.

Every response is bit-identical to a standalone ``Simulator.run`` of
the same request: a dispatch group executes as a
:class:`~repro.api.MultiBankRequest` whose per-bank streams are the
same compiled programs a solo run replays — for forward *and* inverse,
cyclic *and* negacyclic transforms
(``benchmarks/bench_serve.py`` asserts this on every run).

Faults and resilience.  An optional :class:`~repro.serve.FaultPlan`
(``faults=``/``fault_seed=``) injects deterministic, virtual-time
faults at the dispatch boundary — transient failures, stalls,
slowdowns, flipped output words — and a
:class:`~repro.serve.ResiliencePolicy` (``policy=``) recovers: retries
with capped exponential backoff under a global budget, per-dispatch
timeouts, per-shard circuit breakers that route traffic around a
failing channel, online golden-model detection of corrupted outputs,
and priority-aware load shedding / window shrinking under overload.
With no plan (or a zero-rate one) and a neutral policy every code path
below is byte-for-byte today's behavior — asserted in
``tests/test_serve_faults.py`` and the chaos-smoke CI job.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..api.dag import DagRequest, _dag_envelope
from ..api.requests import SimRequest
from ..api.simulator import Simulator
from ..api.workloads import transform_spec
from ..errors import FunctionalMismatch, ReproError, ServeError, ShardFailure
from ..sim.driver import SimConfig
from .faults import (
    NO_FAULT,
    FaultPlan,
    FaultProfile,
    ResiliencePolicy,
    make_fault_plan,
    make_policy,
)
from .queueing import RequestQueue, ServeRequest
from .scheduler import BatchingScheduler, DispatchUnit, PlanSession, \
    sequential_policy
from .session import SessionBook, submission
from .telemetry import STATUS_FAILED, STATUS_OK, RequestRecord, Telemetry

__all__ = ["ServeResult", "SimServer", "BUS_MODELS"]

#: Cross-shard command-bus contention models.
BUS_MODELS = ("shared", "independent")


@dataclass
class ServeResult:
    """One served request: its record, and the response (``None`` when
    admission rejected it or its deadline expired in the queue)."""

    record: RequestRecord
    response: Optional[object] = None
    #: For a served :class:`~repro.api.DagRequest`: every stage's own
    #: :class:`ServeResult` by node name, in node order (``None`` for
    #: ordinary requests) — the per-stage records and responses the
    #: bit-identity gates compare against the standalone golden run.
    stages: Optional[Dict[str, "ServeResult"]] = None

    @property
    def ok(self) -> bool:
        return self.response is not None


@dataclass
class _Attempt:
    """One dispatch attempt of a unit.

    The retry policy re-enqueues the *same* unit with a bumped attempt
    number and a backoff-delayed ready time; the fault plan draws per
    attempt, so a re-dispatch sees fresh (in)fortune — exactly how a
    transient fault behaves."""

    unit: DispatchUnit
    ready_us: float
    attempt: int = 1

    @property
    def seq(self) -> int:
        return self.unit.seq

    @property
    def priority(self) -> int:
        return self.unit.priority


@dataclass
class _Breaker:
    """One shard's circuit breaker (materializes on its first failure).

    ``closed`` counts consecutive failures; at ``threshold`` the shard
    opens (serves nothing until ``open_until_us``, traffic reroutes);
    the first dispatch after the cooldown runs as a ``half_open`` probe
    whose outcome closes or re-opens the breaker."""

    threshold: int
    cooldown_us: float
    consecutive: int = 0
    state: str = "closed"
    open_until_us: float = 0.0


@dataclass
class _ShardState:
    """One simulated channel/device: when it frees up, and the
    dispatch attempts waiting for it."""

    now_us: float = 0.0
    backlog: List[_Attempt] = field(default_factory=list)


@dataclass
class _DagState:
    """Server-side execution state of one in-flight
    :class:`~repro.api.DagRequest`.

    Stages become ordinary planner arrivals *lazily*: roots at the
    graph's arrival, every other node only once all of its parents have
    settled (the dependency-aware release in
    :meth:`SimServer._release_ready`).
    """

    sreq: ServeRequest
    request: DagRequest
    #: Node name -> stage request id (allocated at release time).
    stage_ids: Dict[str, int] = field(default_factory=dict)
    #: Node names already released into the planner (or cascade-failed).
    released: set = field(default_factory=set)
    done: bool = False


class _Session(SessionBook):
    """One serving session: a planning walk plus its execution state.

    Both entry styles build on it — :meth:`SimServer.serve` feeds a
    whole sorted arrival list and drains immediately; the live
    :meth:`SimServer.submit` surface feeds one arrival at a time and
    settles lazily on :meth:`SimServer.poll`/:meth:`SimServer.drain`.
    """

    def __init__(self, server: "SimServer"):
        super().__init__(server._clock_us, server.queue.next_id)
        self.planner: PlanSession = server.scheduler.begin(
            server.queue, server.telemetry, server.policy)
        self.cache_before = Simulator(server.config).cache_info()
        self.shards: Dict[int, _ShardState] = {}
        #: Virtual time the shared command bus frees up.
        self.bus_free_us = 0.0
        #: Per-shard circuit breakers (created on a shard's first
        #: failure — a fault-free session never allocates one).
        self.breakers: Dict[int, _Breaker] = {}
        #: Remaining session-wide retry budget (``None`` = unlimited).
        self.retry_budget: Optional[int] = server.policy.retry_budget
        #: In-flight DAGs by their (whole-graph) request id.
        self.dags: Dict[int, _DagState] = {}
        #: Stage request id -> (owning dag id, node name).  Stage ids
        #: never enter ``order``: drain()/serve() return whole graphs.
        self.stages: Dict[int, Tuple[int, str]] = {}
        #: Settled stage results by stage id, kept out of ``results``
        #: so that it holds client-visible requests only.
        self.stage_results: Dict[int, ServeResult] = {}
        self._next_stage_id = 0
        self._unit_cursor = 0
        self._drop_cursor = 0

    def stage_id(self) -> int:
        """A fresh id for one DAG *stage* — negative, its own
        namespace: stage ids are internal to the session, so they must
        never collide with (or consume) the client-visible id sequence
        a cluster front-end relies on the server preserving."""
        self._next_stage_id += 1
        sid = -self._next_stage_id
        self.seen_ids.add(sid)
        return sid


class SimServer:
    """Async-style serving layer bound to one :class:`SimConfig`.

    ``scheduler`` is ``"batching"`` (default), ``"sequential"`` (the
    naive baseline: no coalescing) or a :class:`BatchingScheduler`
    instance.  ``bus`` picks the cross-shard contention model
    (``"shared"`` — the default, realistic one — or ``"independent"``).
    Dispatches execute inline, one at a time on the calling thread.

    ``faults`` turns on deterministic fault injection: a profile name
    (``"transient"``/``"degraded"``/``"chaos"``), a ``"rate:<r>"``
    sweep spec, a :class:`~repro.serve.FaultProfile` or a prebuilt
    :class:`~repro.serve.FaultPlan`; ``fault_seed`` seeds the plan.
    ``policy`` picks the :class:`~repro.serve.ResiliencePolicy`
    (``"none"``/``"standard"`` or an instance).  The defaults — no
    faults, neutral policy — leave every serving path byte-identical
    to a server without these parameters.
    """

    def __init__(self, config: Optional[SimConfig] = None, *,
                 scheduler: Union[str, BatchingScheduler] = "batching",
                 window_us: float = 50.0,
                 max_banks: int = 8,
                 num_shards: int = 1,
                 max_depth: int = 256,
                 bus: str = "shared",
                 faults: Union[None, str, FaultProfile, FaultPlan] = None,
                 fault_seed: int = 0,
                 policy: Union[str, ResiliencePolicy] = "none"):
        self.config = config or SimConfig()
        if isinstance(scheduler, BatchingScheduler):
            self.scheduler = scheduler
        elif scheduler == "batching":
            self.scheduler = BatchingScheduler(
                window_us=window_us, max_banks=max_banks,
                num_shards=num_shards)
        elif scheduler == "sequential":
            self.scheduler = sequential_policy(num_shards)
        else:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; choose 'batching', "
                f"'sequential' or pass a BatchingScheduler")
        if bus not in BUS_MODELS:
            raise ValueError(f"unknown bus model {bus!r}; "
                             f"choose from {BUS_MODELS}")
        self.fault_plan = make_fault_plan(faults, fault_seed)
        if self.fault_plan is not None and not self.fault_plan.active:
            # A zero-rate plan never draws; drop it so the execution
            # path below is *literally* the plan-less one.
            self.fault_plan = None
        self.policy = make_policy(policy)
        self.queue = RequestQueue(max_depth=max_depth)
        self.telemetry = Telemetry()
        self.bus = bus
        # Session virtual clock: monotonic across serve() calls and
        # submit() sessions, so a sequence of calls reads as serial
        # traffic in the telemetry.
        self._clock_us = 0.0
        #: The open live (submit/poll) session, if any.
        self._live: Optional[_Session] = None

    # -- offline entry points ----------------------------------------------------
    def serve(self, requests: Iterable[Union[ServeRequest, SimRequest]]
              ) -> List[ServeResult]:
        """Serve a whole arrival stream; results come back in *input*
        order, one per request (including drops), so
        ``zip(requests, results)`` always correlates.

        The server's virtual clock is monotonic across calls: each
        call's arrivals (and deadlines) are offset to start where the
        previous call ended, so session telemetry over many calls —
        e.g. one ``serve()`` per request — reads as the serial traffic
        it is.
        Unassigned (0) or duplicate request ids are replaced with fresh
        ones (two concatenated ``LoadGenerator`` streams both number
        from 1); results stay positional either way.
        """
        if self._live is not None:
            raise RuntimeError("an open submit() session is active; "
                               "drain() it before calling serve()")
        session = _Session(self)
        sreqs = session.intake(requests)
        for sreq in sorted(sreqs, key=lambda s: (s.arrival_us,
                                                 s.request_id)):
            self._ingest(session, sreq)
        self._drain_session(session)
        return [session.results[s.request_id] for s in sreqs]

    # -- live (online) entry points ----------------------------------------------
    def submit(self, request: Union[ServeRequest, SimRequest], *,
               arrival_us: Optional[float] = None,
               priority: int = 0,
               deadline_us: Optional[float] = None,
               request_id: int = 0,
               tenant: str = "") -> int:
        """Submit one request to the live session and return its id.

        This is the incremental form of :meth:`serve`: each submission
        advances the virtual clock to its arrival time, closing every
        batching window that elapses on the way (the *replanning* half
        of the two-phase model); execution catches up lazily on
        :meth:`poll`/:meth:`drain`.  ``arrival_us`` is relative to the
        session start, defaults to "now" (the latest event), and is
        clamped forward — a live client cannot arrive in the past.
        Results are bit-identical to an offline :meth:`serve` of the
        same arrival stream.

        Pass either a bare facade request plus keyword scheduling
        fields, or a fully populated :class:`ServeRequest` — not both:
        a ``ServeRequest`` carries its own priority/deadline/id/tenant,
        so combining it with those keywords raises.
        """
        sreq, arrival_us = submission(
            request, arrival_us=arrival_us, priority=priority,
            deadline_us=deadline_us, request_id=request_id, tenant=tenant)
        if self._live is None:
            self._live = _Session(self)
        session = self._live
        sreq = session.place(sreq, arrival_us, session.planner.now_us)
        self._ingest(session, sreq)
        return sreq.request_id

    def advance(self, now_us: float) -> None:
        """Idle tick: move the live session's virtual clock to
        ``now_us`` (session-relative, like :meth:`submit`'s
        ``arrival_us``) with *no* new traffic.

        Batching windows that age out on the way close exactly as they
        would have under a later submission, and execution settles up
        to the new clock — so a console (or any caller that stops
        submitting) sees results become pollable as virtual time
        passes instead of waiting for the next arrival or a full
        :meth:`drain`.  Opens the live session if none is active;
        ticking backwards is a no-op (the clock is monotonic).
        """
        if self._live is None:
            self._live = _Session(self)
        session = self._live
        session.planner.advance(max(session.offset + now_us,
                                    session.planner.now_us))
        self._absorb(session)
        self._settle_loop(session, horizon_us=session.planner.now_us)

    def session_offset_us(self) -> float:
        """Virtual-time offset of the live session — or of the session
        the next :meth:`submit`/:meth:`advance` would open.  Session-
        relative times (``arrival_us``, ``advance``'s ``now_us``) plus
        this offset are absolute times on the server's monotonic clock;
        a cluster front-end uses it to translate cluster time into
        each replica's session coordinates."""
        return (self._live.offset if self._live is not None
                else self._clock_us)

    def live_stats(self) -> Dict[str, object]:
        """Lightweight live-session gauges for supervisors and
        consoles (no percentile math — see
        :meth:`Telemetry.snapshot` for the full rollup): queue depth,
        submissions vs settled results, per-shard backlog, and each
        tripped circuit breaker's ``(state, open_until_us)``."""
        session = self._live
        stats: Dict[str, object] = {
            "queue_depth": self.queue.depth(),
            "num_shards": self.scheduler.num_shards,
            "submitted": 0, "settled": 0, "backlog": 0,
            "now_us": self._clock_us, "breakers": {},
        }
        if session is None:
            return stats
        stats["submitted"] = len(session.order)
        stats["settled"] = len(session.results)
        stats["backlog"] = sum(len(state.backlog)
                               for state in session.shards.values())
        stats["now_us"] = session.planner.now_us
        stats["breakers"] = {
            shard: (breaker.state, breaker.open_until_us)
            for shard, breaker in session.breakers.items()}
        return stats

    def poll(self, request_id: int) -> Optional[ServeResult]:
        """The live session's result for ``request_id``, or ``None``
        while it is still queued, in an open window, or waiting for its
        shard (execution is settled up to the session's virtual clock
        first).  Rejected/expired requests return a result whose
        ``response`` is ``None`` (``result.ok`` is false)."""
        session = self._live
        if session is None:
            return None
        self._settle_loop(session, horizon_us=session.planner.now_us)
        return session.results.get(request_id)

    def drain(self) -> List[ServeResult]:
        """Close the live session: flush every open window, run the
        backlog to completion, and return every submission's result in
        submission order (empty if nothing was submitted).

        The session only closes once execution succeeds — if a dispatch
        raises (e.g. a :class:`FunctionalMismatch` from a functional
        run's online check), the session survives, already-completed
        results stay pollable, and ``drain()`` can be retried over the
        remaining backlog.
        """
        session = self._live
        if session is None:
            return []
        self._drain_session(session)
        self._live = None
        return [session.results[rid] for rid in session.order]

    # -- session machinery -------------------------------------------------------
    def _ingest(self, session: _Session, sreq: ServeRequest) -> None:
        if isinstance(sreq.request, DagRequest):
            self._ingest_dag(session, sreq)
            return
        session.admit(sreq)
        session.planner.offer(sreq)
        self._absorb(session)

    # -- DAG machinery -----------------------------------------------------------
    def _ingest_dag(self, session: _Session, sreq: ServeRequest) -> None:
        """Admit one :class:`~repro.api.DagRequest`: the graph itself
        never enters the planner — its *root* stages do, as ordinary
        arrivals at the graph's arrival time; every other stage is
        released lazily by :meth:`_release_ready` once its parents
        settle.  Stages from different graphs are just shaped arrivals
        to the planner, so ready stages coalesce into shared multi-bank
        dispatches exactly like independent requests."""
        session.admit(sreq)
        state = _DagState(sreq=sreq, request=sreq.request)
        session.dags[sreq.request_id] = state
        for name in state.request.topological_order():
            if state.request.parents(name):
                continue
            try:
                stage = self._stage_request(session, state, name,
                                            sreq.arrival_us, {})
            except ReproError as exc:
                self._fail_stage(session, state, name, sreq.arrival_us,
                                 f"stage {name!r} failed to bind: {exc}")
                continue
            session.planner.offer(stage)
        self._absorb(session)

    def _stage_request(self, session: _Session, state: _DagState,
                       name: str, release_us: float,
                       parent_values: Dict[str, tuple]) -> ServeRequest:
        """Materialize one stage as a planner arrival: bind the parents'
        settled outputs into the node's request, allocate its stage id,
        and inherit the graph's priority and tenant.  Stages carry no
        deadline of their own — the graph's deadline is judged against
        the assembled completion in :meth:`_assemble_dag`."""
        bound = state.request.bound_request(
            name, parent_values, functional=self.config.functional)
        sid = session.stage_id()
        state.stage_ids[name] = sid
        state.released.add(name)
        session.stages[sid] = (state.sreq.request_id, name)
        return ServeRequest(request=bound, arrival_us=release_us,
                            priority=state.sreq.priority, request_id=sid,
                            tenant=state.sreq.tenant)

    def _release_ready(self, session: _Session) -> bool:
        """Dependency-aware release: hand the planner every stage whose
        parents have all settled, at the virtual time the last parent
        completed (never before the graph's own arrival).  A stage with
        a failed/dropped parent cascade-fails immediately — it can never
        run.  Returns whether anything new entered the planner (the
        :meth:`_settle_loop` fixpoint condition); finished graphs
        assemble their whole-DAG results on the way out."""
        if not session.dags:
            return False
        released = False
        progress = True
        while progress:
            progress = False
            for dag_id in session.order:
                state = session.dags.get(dag_id)
                if state is None or state.done:
                    continue
                for name in state.request.topological_order():
                    if name in state.released:
                        continue
                    parents = state.request.parents(name)
                    parent_results = {}
                    for parent in parents:
                        res = session.stage_results.get(
                            state.stage_ids.get(parent))
                        if res is None:
                            break
                        parent_results[parent] = res
                    if len(parent_results) != len(parents):
                        continue  # a parent has not settled yet
                    release_us = max(
                        [state.sreq.arrival_us]
                        + [r.record.completion_us
                           for r in parent_results.values()])
                    failed = next((p for p in parents
                                   if not parent_results[p].ok), None)
                    if failed is not None:
                        self._fail_stage(
                            session, state, name, release_us,
                            f"upstream stage {failed!r} did not complete")
                        progress = True
                        continue
                    values = {p: tuple(parent_results[p].response.values)
                              for p in parents}
                    try:
                        stage = self._stage_request(session, state, name,
                                                    release_us, values)
                    except ReproError as exc:
                        self._fail_stage(
                            session, state, name, release_us,
                            f"stage {name!r} failed to bind: {exc}")
                        progress = True
                        continue
                    session.planner.release(stage)
                    released = True
                    progress = True
        for dag_id in session.order:
            state = session.dags.get(dag_id)
            if state is not None and not state.done:
                self._maybe_assemble(session, state)
        return released

    def _fail_stage(self, session: _Session, state: _DagState, name: str,
                    fail_us: float, error: str) -> None:
        """Record one stage as failed without it ever reaching the
        planner (cascade from a failed parent, or a binding error).
        ``start_us`` equals the failure time so the stage contributes
        zero service time to the graph's critical-path math."""
        sid = session.stage_id()
        state.stage_ids[name] = sid
        state.released.add(name)
        session.stages[sid] = (state.sreq.request_id, name)
        record = RequestRecord(
            request_id=sid,
            workload=state.request.node(name).workload,
            status=STATUS_FAILED,
            priority=state.sreq.priority,
            arrival_us=fail_us,
            start_us=fail_us,
            completion_us=fail_us,
            tenant=state.sreq.tenant,
            error=error)
        self._record(session, record)

    def _maybe_assemble(self, session: _Session, state: _DagState) -> None:
        if state.done or len(state.stage_ids) < len(state.request.nodes):
            return
        if any(sid not in session.stage_results
               for sid in state.stage_ids.values()):
            return
        state.done = True
        self._assemble_dag(session, state)

    def _assemble_dag(self, session: _Session, state: _DagState) -> None:
        """Fold the settled stage results into the graph's own
        :class:`ServeResult`: the record spans arrival to the last stage
        completion (the served makespan) and carries the dependency
        critical path; the response exposes the sink's values plus every
        node's output in node order — the same envelope the standalone
        golden ``"dag"`` workload returns."""
        request, sreq = state.request, state.sreq
        stage_results = {name: session.stage_results[state.stage_ids[name]]
                         for name, _ in request.nodes}
        records = {name: res.record for name, res in stage_results.items()}
        ok = all(res.ok for res in stage_results.values())
        completion_us = max(r.completion_us for r in records.values())
        critical_path = request.critical_path_us(
            {name: rec.service_us for name, rec in records.items()
             if rec.status == STATUS_OK})
        ok_records = [r for r in records.values() if r.status == STATUS_OK]
        error = ""
        if not ok:
            for name in request.topological_order():
                if records[name].status != STATUS_OK:
                    error = (f"stage {name!r}: "
                             f"{records[name].error or records[name].status}")
                    break
        record = RequestRecord(
            request_id=sreq.request_id,
            workload="dag",
            status=STATUS_OK if ok else STATUS_FAILED,
            priority=sreq.priority,
            arrival_us=sreq.arrival_us,
            dispatch_us=min((r.dispatch_us for r in ok_records),
                            default=sreq.arrival_us),
            start_us=min((r.start_us for r in ok_records),
                         default=sreq.arrival_us),
            completion_us=completion_us,
            deadline_us=sreq.deadline_us,
            deadline_missed=(sreq.deadline_us is not None
                             and completion_us > sreq.deadline_us),
            group_banks=1,
            shard=records[request.sink_name].shard,
            tenant=sreq.tenant,
            bus_wait_us=sum(r.bus_wait_us for r in records.values()),
            cycles=sum(r.cycles for r in records.values()),
            energy_nj=sum(r.energy_nj for r in records.values()),
            attempts=max(r.attempts for r in records.values()),
            critical_path_us=critical_path,
            error=error)
        response = None
        if ok:
            responses = {name: res.response
                         for name, res in stage_results.items()}
            makespan = record.latency_us
            metrics = {"stages": float(len(request.nodes)),
                       "critical_path_us": critical_path,
                       "makespan_us": makespan,
                       "critical_path_stretch": (makespan / critical_path
                                                 if critical_path else 0.0)}
            if request.label:
                metrics["label"] = request.label
            response = _dag_envelope(
                request, responses, cycles=record.cycles,
                latency_us=makespan, energy_nj=record.energy_nj,
                metrics=metrics)
        self.telemetry.add(record)
        session.results[sreq.request_id] = ServeResult(
            record=record, response=response, stages=stage_results)

    def _settle_loop(self, session: _Session,
                     horizon_us: Optional[float]) -> None:
        """Settle-then-release fixpoint: each settle pass can finalize
        parent stages, each release pass can hand the planner newly
        unblocked stages (possibly at past virtual times — the planner's
        :meth:`~repro.serve.scheduler.PlanSession.release` path), which
        the next settle pass executes.  Terminates because every
        iteration strictly shrinks the set of unreleased stages."""
        while True:
            self._settle(session, horizon_us=horizon_us)
            if not self._release_ready(session):
                return
            if horizon_us is None:
                session.planner.flush()
            else:
                session.planner.advance(session.planner.now_us)
            self._absorb(session)

    def _absorb(self, session: _Session) -> None:
        """Move newly planned units onto their shards' backlogs and
        newly dropped requests into results/telemetry."""
        planner = session.planner
        for record in planner.dropped[session._drop_cursor:]:
            self._record(session, record)
        session._drop_cursor = len(planner.dropped)
        for unit in planner.units[session._unit_cursor:]:
            session.shards.setdefault(unit.shard, _ShardState()).backlog \
                .append(_Attempt(unit=unit, ready_us=unit.ready_us))
        session._unit_cursor = len(planner.units)

    def _drain_session(self, session: _Session) -> None:
        """Flush the plan, run every backlog to completion, and fold
        the session's clock/cache into the server rollups; the caller
        picks its own ordering out of ``session.results``."""
        session.planner.flush()
        self._absorb(session)
        self._settle_loop(session, horizon_us=None)
        self._clock_us = session.fold_clock(self._clock_us)

        # Session-wide cache rollup: accumulate this session's deltas
        # onto the running totals (entries is a point-in-time gauge).
        cache_after = Simulator(self.config).cache_info()
        rollup = self.telemetry.cache
        for name in ("program", "stream", "schedule"):
            entry = rollup.setdefault(name, {"hits": 0, "misses": 0})
            entry["hits"] += (cache_after[name]["hits"]
                              - session.cache_before[name]["hits"])
            entry["misses"] += (cache_after[name]["misses"]
                                - session.cache_before[name]["misses"])
            entry["entries"] = cache_after[name]["entries"]

    # -- execution ---------------------------------------------------------------
    def _execute(self, unit: DispatchUnit):
        head = unit.members[0]
        request = (head.request if unit.banks == 1 else
                   Simulator.merge_requests([m.request for m in unit.members]))
        return Simulator(self.config).run(request)

    def _settle(self, session: _Session,
                horizon_us: Optional[float]) -> None:
        """Run shard backlogs forward in global virtual-time order.

        Each step commits the shard with the earliest *decision point*
        (the moment it picks its next unit: its free time, or the next
        unit's ready time) — that global order is also the order
        dispatches arbitrate for the shared command bus.  With
        ``horizon_us`` set (the live path), a decision at or past the
        horizon is not yet final — a future submission could still
        close a window and slot a competing unit — so it waits for the
        clock to move (or for :meth:`drain`, which settles with no
        horizon).

        Among ready units the most urgent (priority, then FIFO) serves
        first.

        Faults enter here: each selection draws the unit's
        :class:`FaultDecision` for its attempt number.  A ``fail`` draw
        burns the profile's failure cost and goes through the retry
        path without executing; everything else executes and lets
        :meth:`_complete` price the (possibly stretched) service time.
        An open circuit breaker floors its shard's decision point at
        the cooldown expiry, and :meth:`_route_around` detours queued
        work to healthy shards first.
        """
        shards = session.shards
        while True:
            self._route_around(session)
            chosen = None
            for shard_id in sorted(shards):
                state = shards[shard_id]
                if not state.backlog:
                    continue
                ready = [a for a in state.backlog
                         if a.ready_us <= state.now_us]
                decision = (state.now_us if ready
                            else min(a.ready_us for a in state.backlog))
                breaker = session.breakers.get(shard_id)
                if breaker is not None and breaker.state == "open":
                    # An open shard serves nothing until its cooldown
                    # elapses; its next decision is the half-open probe.
                    decision = max(decision, breaker.open_until_us)
                if horizon_us is not None and decision >= horizon_us:
                    continue
                if chosen is None or (decision, shard_id) < chosen[:2]:
                    chosen = (decision, shard_id, state)
            if chosen is None:
                return
            decision, shard_id, state = chosen
            state.now_us = max(state.now_us, decision)
            breaker = session.breakers.get(shard_id)
            if breaker is not None and breaker.state == "open":
                # Cooldown elapsed: this dispatch is the probe.
                breaker.state = "half_open"
            ready = [a for a in state.backlog if a.ready_us <= state.now_us]
            attempt = max(ready, key=lambda a: (a.priority, -a.seq))
            state.backlog.remove(attempt)
            unit = attempt.unit
            fault = (self.fault_plan.decide(unit.seq, shard_id,
                                            attempt.attempt)
                     if self.fault_plan is not None else NO_FAULT)
            if fault.fail:
                self.telemetry.note_fault("fail")
                start_us = max(state.now_us, attempt.ready_us)
                cost_us = self.fault_plan.profile.fail_cost_us
                self._fail(session, state, shard_id, attempt,
                           start_us=start_us, fail_us=start_us + cost_us,
                           error=ShardFailure(
                               f"injected transient failure of dispatch "
                               f"{unit.seq} (attempt {attempt.attempt}) "
                               f"on shard {shard_id}",
                               shard=shard_id, seq=unit.seq,
                               kind="transient"))
                continue
            try:
                grouped = self._execute(unit)
            except BaseException as exc:
                # Put the unit back so a retried drain() can serve it
                # (selection keys on (priority, seq), not list order).
                state.backlog.append(attempt)
                if isinstance(exc, ReproError) or \
                        not isinstance(exc, Exception):
                    raise
                # Arbitrary execution failures surface as the serving
                # hierarchy; the original failure rides as __cause__.
                raise ServeError(
                    f"dispatch {unit.seq} ({unit.banks} bank(s), shard "
                    f"{shard_id}) failed: {exc}") from exc
            self._complete(session, state, shard_id, attempt, grouped,
                           fault)

    def _complete(self, session: _Session, state: _ShardState,
                  shard_id: int, attempt: _Attempt, grouped,
                  fault=NO_FAULT) -> None:
        """Price one executed dispatch in virtual time — applying any
        injected service-time faults plus the policy's timeout and
        online detection — and record every member's outcome."""
        unit = attempt.unit
        policy = self.policy
        start_us = max(state.now_us, attempt.ready_us)
        service_us = grouped.latency_us
        if fault.slowdown != 1.0:
            self.telemetry.note_fault("slowdown")
            service_us *= fault.slowdown
        if fault.stall_us:
            self.telemetry.note_fault("stall")
            service_us += fault.stall_us
        bus_wait_us = 0.0
        if self.bus == "shared":
            # One command per cycle on the shared bus: the dispatch
            # occupies it for its compiled stream's command count, and
            # stalls until the bus frees if another shard holds it.
            bus_begin = max(start_us, session.bus_free_us)
            bus_wait_us = bus_begin - start_us
            occupancy_us = (grouped.command_count * grouped.latency_us
                            / grouped.cycles if grouped.cycles else 0.0)
            session.bus_free_us = bus_begin + occupancy_us
            self.telemetry.note_bus(occupancy_us)
        else:
            bus_begin = start_us
        completion_us = bus_begin + service_us
        if policy.timeout_us is not None and service_us > policy.timeout_us:
            # The dispatch would outlive its service timeout: abort at
            # the deadline (commands already issued stay charged to the
            # bus) and let the retry policy re-dispatch it.
            self.telemetry.note("timeouts")
            self._fail(session, state, shard_id, attempt,
                       start_us=start_us,
                       fail_us=bus_begin + policy.timeout_us,
                       error=ShardFailure(
                           f"dispatch {unit.seq} (attempt "
                           f"{attempt.attempt}) exceeded the "
                           f"{policy.timeout_us:g}us service timeout on "
                           f"shard {shard_id}",
                           shard=shard_id, seq=unit.seq, kind="timeout"))
            return
        if fault.corrupt:
            corrupted = self._corrupt(grouped, unit, shard_id,
                                      attempt.attempt)
            if corrupted is not None:
                self.telemetry.note_fault("corrupt")
                grouped = corrupted
                if policy.detect and self._mismatch(unit, grouped):
                    self.telemetry.note("detected_mismatches")
                    self._fail(session, state, shard_id, attempt,
                               start_us=start_us, fail_us=completion_us,
                               error=FunctionalMismatch(
                                   f"online golden-model check caught a "
                                   f"corrupted output of dispatch "
                                   f"{unit.seq} on shard {shard_id}"))
                    return
        state.now_us = completion_us
        breaker = session.breakers.get(shard_id)
        if breaker is not None:
            # Any success closes the breaker and resets its count.
            breaker.consecutive = 0
            breaker.state = "closed"
        self._settle_unit(session, unit, shard_id, attempt.attempt,
                          start_us, completion_us, grouped=grouped,
                          bus_wait_us=bus_wait_us)

    def _settle_unit(self, session: _Session, unit: DispatchUnit,
                     shard: int, attempts: int, start_us: float,
                     end_us: float, grouped=None, bus_wait_us: float = 0.0,
                     error: str = "") -> None:
        """Settle every member of ``unit`` at ``end_us``: served with
        its bank's share of ``grouped``, or failed with ``error`` when
        ``grouped`` is ``None``."""
        banks = unit.banks
        for slot, member in enumerate(unit.members):
            record = RequestRecord(
                request_id=member.request_id,
                workload=member.request.workload,
                status=STATUS_FAILED if grouped is None else STATUS_OK,
                priority=member.priority,
                arrival_us=member.arrival_us,
                dispatch_us=unit.ready_us,
                start_us=start_us,
                completion_us=end_us,
                deadline_us=member.deadline_us,
                deadline_missed=(member.deadline_us is not None
                                 and end_us > member.deadline_us),
                group_banks=banks,
                shard=shard,
                tenant=member.tenant,
                bus_wait_us=bus_wait_us,
                attempts=attempts,
                error=error)
            response = None
            if grouped is not None:
                record.cycles = grouped.cycles // banks
                record.energy_nj = grouped.energy_nj / banks
                response = (grouped if banks == 1 else
                            Simulator._split_group(grouped, member.request,
                                                   slot, banks))
            self._record(session, record, response)

    def _record(self, session: _Session, record: RequestRecord,
                response=None) -> None:
        """Tag a DAG stage's record with its graph, count it in
        telemetry and store it as the request's (or stage's) result."""
        results = session.results
        stage = session.stages.get(record.request_id)
        if stage is not None:
            record.dag_id, record.stage = stage
            results = session.stage_results
        self.telemetry.add(record)
        results[record.request_id] = ServeResult(record=record,
                                                 response=response)

    # -- resilience machinery ----------------------------------------------------
    def _fail(self, session: _Session, state: _ShardState, shard_id: int,
              attempt: _Attempt, *, start_us: float, fail_us: float,
              error: ReproError) -> None:
        """One dispatch attempt failed at ``fail_us``: run the breaker
        bookkeeping, then either retry (budgeted, capped-exponential
        backoff in virtual time) or record every member as failed."""
        state.now_us = fail_us
        self._note_failure(session, shard_id, fail_us)
        policy = self.policy
        if (attempt.attempt <= policy.max_retries
                and (session.retry_budget is None
                     or session.retry_budget > 0)):
            if session.retry_budget is not None:
                session.retry_budget -= 1
            self.telemetry.note("retries")
            backoff_us = policy.backoff_us(attempt.attempt)
            attempt.attempt += 1
            attempt.ready_us = fail_us + backoff_us
            state.backlog.append(attempt)
            return
        self._settle_unit(session, attempt.unit, shard_id, attempt.attempt,
                          start_us, fail_us, error=str(error))

    def _note_failure(self, session: _Session, shard_id: int,
                      now_us: float) -> None:
        """Circuit-breaker bookkeeping for one failure on ``shard_id``."""
        threshold = self.policy.breaker_threshold
        if threshold <= 0:
            return
        breaker = session.breakers.get(shard_id)
        if breaker is None:
            breaker = _Breaker(threshold=threshold,
                               cooldown_us=self.policy.breaker_cooldown_us)
            session.breakers[shard_id] = breaker
        breaker.consecutive += 1
        if (breaker.state == "half_open"
                or breaker.consecutive >= breaker.threshold):
            # A failed half-open probe re-opens immediately; a closed
            # breaker opens at K consecutive failures.
            breaker.state = "open"
            breaker.open_until_us = now_us + breaker.cooldown_us
            self.telemetry.note("breaker_trips")

    def _route_around(self, session: _Session) -> None:
        """Detour backlog off open-breaker shards when a healthy shard
        could *start* it sooner.  The scheduler's shape→shard placement
        stays put — only already-dispatched work routes around, and
        only while the breaker is open."""
        if not session.breakers:
            return
        shards = session.shards
        for shard_id in sorted(list(shards)):
            breaker = session.breakers.get(shard_id)
            if breaker is None or breaker.state != "open":
                continue
            state = shards[shard_id]
            for attempt in list(state.backlog):
                blocked_us = max(attempt.ready_us, breaker.open_until_us)
                best = None
                for alt_id in range(self.scheduler.num_shards):
                    if alt_id == shard_id:
                        continue
                    alt_breaker = session.breakers.get(alt_id)
                    if (alt_breaker is not None
                            and alt_breaker.state == "open"):
                        continue
                    alt_state = shards.get(alt_id)
                    alt_start = max(attempt.ready_us,
                                    alt_state.now_us if alt_state else 0.0)
                    if alt_start < blocked_us and (
                            best is None or (alt_start, alt_id) < best):
                        best = (alt_start, alt_id)
                if best is not None:
                    state.backlog.remove(attempt)
                    shards.setdefault(best[1], _ShardState()) \
                        .backlog.append(attempt)
                    self.telemetry.note("reroutes")

    def _corrupt(self, grouped, unit: DispatchUnit, shard_id: int,
                 attempt_no: int):
        """A copy of ``grouped`` with one deterministically chosen
        output word bit-flipped (``None`` when there is nothing to
        flip — e.g. a response with no output image)."""
        outputs = [list(bank) for bank in grouped.outputs]
        values = list(grouped.values)
        if outputs and outputs[0]:
            slot, idx = self.fault_plan.corrupt_index(
                unit.seq, shard_id, attempt_no, len(outputs),
                len(outputs[0]))
            bank = outputs[slot]
            bank[idx % len(bank)] ^= 1
        elif values:
            _, idx = self.fault_plan.corrupt_index(
                unit.seq, shard_id, attempt_no, 1, len(values))
            values[idx] ^= 1
        else:
            return None
        return dataclasses.replace(grouped, values=values, outputs=outputs)

    def _mismatch(self, unit: DispatchUnit, grouped) -> bool:
        """Online check: does any member's served output fail its
        transform's :meth:`~repro.sim.driver.TransformSpec.check` (the
        same Freivalds check a verified run passes)?  Only transform
        workloads with explicit input values can be checked; others
        pass.  Injection is the only corruption source in the
        simulation, so the server evaluates this at corrupted
        dispatches — where a mismatch is possible — rather than
        re-checking every clean response."""
        banks = unit.banks
        for slot, member in enumerate(unit.members):
            request = member.request
            values = getattr(request, "values", None)
            if values is None or request.workload not in ("ntt",
                                                          "negacyclic"):
                continue
            if banks > 1 and slot < len(grouped.outputs):
                got = grouped.outputs[slot]
            else:
                got = grouped.values
            if not transform_spec(request).check(values, got):
                return True
        return False
