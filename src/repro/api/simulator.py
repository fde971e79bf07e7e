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
:mod:`repro.mapping.program_cache` and engine schedules through the
structurally keyed cache in :mod:`repro.sim.driver` — shared by single,
batch and multi-bank paths alike.  The response's ``cache`` field
reports the hit/miss deltas of the run.

:meth:`Simulator.merge_requests` folds same-shape transforms into one
:class:`MultiBankRequest` (the Sec. VI.A deployment, one request per
bank); the serving layer's batching scheduler groups a request stream
with it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..dram.stream import clear_stream_cache, stream_cache_info
from ..mapping.program_cache import (
    clear_program_cache,
    program_cache_info,
)
from ..sim.driver import (
    SimConfig,
    clear_schedule_cache,
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

    # -- single request ---------------------------------------------------------
    def run(self, request: SimRequest) -> SimResponse:
        """Validate ``request``, dispatch it through the workload
        registry, and stamp the uniform envelope metadata (cache
        provenance, wall clock)."""
        request.admit()
        handler = get_workload(request.workload)
        prog_before = program_cache_info()
        stream_before = stream_cache_info()
        sched_before = schedule_cache_info()
        start = time.perf_counter()
        response = handler(self.config, request)
        response.wall_time_s = time.perf_counter() - start
        response.cache = {
            "program": _delta(prog_before, program_cache_info()),
            "stream": _delta(stream_before, stream_cache_info()),
            "schedule": _delta(sched_before, schedule_cache_info()),
        }
        response.request = request
        return response

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
    def _split_group(grouped: SimResponse, request: SimRequest,
                     slot: int, banks: int) -> SimResponse:
        """Per-request view of one bank-parallel group response.

        Cycles/latency are the group's (the request completed when the
        shared-bus schedule did); energy and command/µ-op counters are
        divided by the bank count — the per-bank programs are identical
        (same transform shape), so the even split is exact — to keep
        sums over many responses from overcounting the group.  Its
        ``values`` is the group's output list for ``slot``, shared, not
        copied.
        """
        values = grouped.outputs[slot] if slot < len(grouped.outputs) else []
        # Only the grouping facts — the group-level speedup/efficiency
        # metrics stay on `raw`, so a grouped single-NTT response reads
        # like an ungrouped one.
        metrics = {"bank": slot, "group_banks": banks}
        return SimResponse(
            workload=request.workload,
            values=values,
            cycles=grouped.cycles,
            latency_us=grouped.latency_us,
            energy_nj=grouped.energy_nj / banks,
            verified=grouped.verified,
            command_count=grouped.command_count // banks,
            counters={k: v // banks for k, v in grouped.counters.items()},
            metrics=metrics,
            cache={k: dict(v) for k, v in grouped.cache.items()},
            wall_time_s=grouped.wall_time_s,
            raw=grouped.raw,
            request=request,
        )

    # -- introspection ----------------------------------------------------------
    def cache_info(self) -> Dict[str, object]:
        """Program, stream and schedule cache statistics — what
        ``python -m repro run --cache-info`` prints."""
        return {
            "program": program_cache_info(),
            "stream": stream_cache_info(),
            "schedule": schedule_cache_info(),
        }

    @staticmethod
    def clear_caches() -> None:
        """Empty the program, stream and schedule caches (test isolation)."""
        clear_program_cache()
        clear_stream_cache()
        clear_schedule_cache()
