"""The :class:`Simulator` facade — one entry point for every run shape.

``Simulator`` owns one :class:`~repro.sim.driver.SimConfig` and resolves
typed requests through the workload registry::

    from repro.api import NttRequest, Simulator
    from repro import NttParams, find_ntt_prime

    sim = Simulator()                      # paper's HBM2E base machine
    q = find_ntt_prime(1024, 32)
    response = sim.run(NttRequest(params=NttParams(1024, q), values=data))
    print(response.summary())

Every run is memoized end to end: command programs through
:mod:`repro.mapping.program_cache`, the one-bank streams its banks run
through :mod:`repro.dram.stream` (a timing-only run compiles none, and
no run compiles a merged multi-bank stream) and engine schedules —
replays of IR columns — through the structurally keyed cache in
:mod:`repro.sim.driver`, shared by single, batch and multi-bank paths
alike, and each dispatch's whole shape (schedule, single cycles, bank
groups) through the driver's dispatch memo, so a warm repeat makes one
dispatch lookup and none of the other three.
:meth:`Simulator.cache_info` lists the four caches; the response's
``cache`` field reports each one's hit/miss deltas over the run.

:meth:`Simulator.expect` announces the requests that the next
:meth:`Simulator.run` calls will make: the banks of all of them that
replay one compiled stream then run as one stack, at the first run that
needs it (:class:`repro.sim.driver.BankStacks`).  Each request is still
its own dispatch with its own response; only the host-side bank work is
shared.  :meth:`Simulator.run_each` is the list form of ``run`` built
on it, and each serving settle pass announces its backlog with it.

:meth:`Simulator.merge_requests` folds same-shape transforms into one
:class:`MultiBankRequest` (the Sec. VI.A deployment, one request per
bank); the serving layer's batching scheduler groups a request stream
with it.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from ..dram.stream import clear_stream_cache, stream_cache_info
from ..mapping.program_cache import (
    clear_program_cache,
    program_cache_info,
)
from ..sim.driver import (
    BankStacks,
    SimConfig,
    clear_dispatch_cache,
    clear_schedule_cache,
    dispatch_cache_info,
    schedule_cache_info,
)
from .registry import get_workload
from .requests import (
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    SimRequest,
)
from .response import SimResponse
from .workloads import dispatch_of, run_transform_workload

__all__ = ["Simulator", "merge_key"]


def merge_key(request: SimRequest) -> Optional[tuple]:
    """The transform-shape coalescing key of a mergeable request, or
    ``None`` when the request cannot join a multi-bank dispatch.

    Requests with equal keys run the *same* per-bank command program,
    so a group of them merges into one :class:`MultiBankRequest` (see
    :meth:`Simulator.merge_requests`).  All three transform kinds
    coalesce: forward and inverse cyclic NTTs, and forward and inverse
    merged negacyclic transforms.  Everything else (batch, FHE ops, raw
    programs) passes through unmerged.
    """
    if type(request) is NttRequest:
        p = request.params
        return ("ntt", p.n, p.q, p.omega, request.inverse)
    if type(request) is NegacyclicRequest:
        r = request.ring
        return ("negacyclic", r.n, r.q, r.psi, request.inverse)
    return None


def _delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {"hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"],
            "entries": after["entries"]}


class Simulator:
    """Facade over the whole simulation stack, bound to one config."""

    def __init__(self, config: Optional[SimConfig] = None):
        self.config = config or SimConfig()
        #: The bank stacks of the requests :meth:`expect` announced.
        self._stacks = BankStacks()

    # -- running requests -------------------------------------------------------
    def run(self, request: SimRequest) -> SimResponse:
        """Validate ``request``, dispatch it through the workload
        registry, and stamp the uniform envelope metadata (cache
        provenance, wall clock).  A transform request announced by
        :meth:`expect` takes its banks' rows from their shared stack."""
        request.admit()
        handler = get_workload(request.workload)
        before = self.cache_info()
        start = time.perf_counter()
        if handler is run_transform_workload:
            response = handler(self.config, request, self._stacks)
        else:
            response = handler(self.config, request)
        response.wall_time_s = time.perf_counter() - start
        response.cache = {name: _delta(before[name], stats)
                          for name, stats in self.cache_info().items()}
        response.request = request
        return response

    def expect(self, requests: Iterable[SimRequest]) -> None:
        """Announce the requests that the next :meth:`run` calls will
        make, in place of any earlier announcement.

        The banks of every announced transform request (``ntt``,
        ``negacyclic``, ``batch``, ``multibank``) that replay one
        compiled stream run as one stack, at the first run that needs
        it (:class:`~repro.sim.driver.BankStacks`); the others' runs
        then take their rows.  Each request stays its own dispatch, run
        in whatever order its caller picks, and every response equals
        its run alone.  Announcing looks nothing up: each run still
        makes its own shape lookup.  A request that fails validation is
        not announced; its run raises."""
        announced = []
        for request in requests:
            try:
                request.admit()
                if get_workload(request.workload) is run_transform_workload:
                    announced.append((request, dispatch_of(request)))
            except Exception:
                continue  # its run raises what it raises
        self._stacks.announce(announced, self.config)

    def run_each(self, requests: Iterable[SimRequest]) -> List[SimResponse]:
        """``[self.run(r) for r in requests]`` with the requests announced
        first (:meth:`expect`): the banks of its transform requests run
        as one stack per transform shape.  It returns and raises exactly
        what that loop does."""
        requests = list(requests)
        self.expect(requests)
        return [self.run(request) for request in requests]

    # -- grouping ---------------------------------------------------------------
    @staticmethod
    def merge_requests(requests: List[SimRequest]) -> MultiBankRequest:
        """The one merge rule for a same-shape transform group — one
        bank per request, ``values=None`` zero-filled, every other
        operand passed through as it is (an array row stays the
        member's read-only array).  All members must share a
        :func:`merge_key` (forward/inverse cyclic NTTs, or
        forward/inverse negacyclic transforms).  The serve layer's
        batching scheduler merges every dispatch group with it."""
        head = requests[0]
        cyclic = type(head) is NttRequest
        n = head.params.n if cyclic else head.ring.n
        inputs = tuple(r.values if r.values is not None else (0,) * n
                       for r in requests)
        merged = MultiBankRequest(params=head.params if cyclic else None,
                                  ring=None if cyclic else head.ring,
                                  inputs=inputs, inverse=head.inverse)
        if all("_admitted" in r.__dict__ for r in requests):
            merged.__dict__["_admitted"] = True  # valid members, one shape
        return merged

    @staticmethod
    def _split_group(grouped: SimResponse,
                     requests: List[SimRequest]) -> List[SimResponse]:
        """Per-request views of one bank-parallel group response, one
        per bank: ``requests[k]`` ran on bank ``k``.

        Cycles/latency are the group's (each request completed when the
        shared-bus schedule did); energy and command/µ-op counters are
        divided by the bank count — every bank runs the one program its
        transform shape maps to, so the even split is exact — to keep
        sums over many responses from overcounting the group.  The
        division runs once per group, and the members share its one
        ``counters`` dict and the group's ``cache`` dicts, read-only as
        ``values`` is: response ``k``'s ``values`` is the group's output
        list for bank ``k``, shared, not copied.  Each response has its
        own ``metrics``.
        """
        banks = len(requests)
        outputs = grouped.outputs
        energy_nj = grouped.energy_nj / banks
        command_count = grouped.command_count // banks
        counters = {k: v // banks for k, v in grouped.counters.items()}
        # Only the grouping facts — the group-level speedup/efficiency
        # metrics stay on `raw`, so a grouped single-NTT response reads
        # like an ungrouped one.
        return [SimResponse(
            workload=request.workload,
            values=outputs[slot] if slot < len(outputs) else [],
            cycles=grouped.cycles,
            latency_us=grouped.latency_us,
            energy_nj=energy_nj,
            verified=grouped.verified,
            command_count=command_count,
            counters=counters,
            metrics={"bank": slot, "group_banks": banks},
            cache=grouped.cache,
            wall_time_s=grouped.wall_time_s,
            raw=grouped.raw,
            request=request,
        ) for slot, request in enumerate(requests)]

    # -- introspection ----------------------------------------------------------
    def cache_info(self) -> Dict[str, Dict[str, int]]:
        """Statistics of every simulator cache — program, stream,
        schedule and dispatch — by name: the one list that
        :meth:`run`'s deltas, ``python -m repro run --cache-info`` and
        the serving session's rollup iterate."""
        return {
            "program": program_cache_info(),
            "stream": stream_cache_info(),
            "schedule": schedule_cache_info(),
            "dispatch": dispatch_cache_info(),
        }

    @staticmethod
    def clear_caches() -> None:
        """Empty every cache :meth:`cache_info` lists (test isolation,
        and what makes the next run of any shape cold)."""
        clear_program_cache()
        clear_stream_cache()
        clear_schedule_cache()
        clear_dispatch_cache()
