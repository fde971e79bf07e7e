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

:meth:`Simulator.run_many` is the bulk path: it validates an iterable
of requests, then groups same-shape transforms onto parallel banks (the
Sec. VI.A deployment) before running the rest individually.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Tuple

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

    # -- bulk path --------------------------------------------------------------
    def run_many(self, requests: Iterable[SimRequest], *,
                 max_banks: int = 8) -> List[SimResponse]:
        """Run every request; responses come back in input order.

        Every request is validated first, so a malformed one fails with
        its own message before any unit runs (not as a synthetic
        group's error).  Mergeable requests of the same transform shape
        (:func:`merge_key`: forward/inverse cyclic NTTs,
        forward/inverse negacyclic transforms) are then dispatched
        together, one per bank, in chunks of up to ``max_banks``.  Each
        grouped response carries that request's own output values
        (bit-identical to :meth:`run` of the request alone);
        cycles/latency are the group's completion time under the shared
        command bus (what the request actually experienced), while
        energy, command and µ-op counters are the request's own
        per-bank share — so totals summed over ``run_many`` responses
        stay physical.  (``metrics["group_banks"]``/``metrics["bank"]``
        tell the story; ``raw`` holds the full group result.)
        """
        reqs = list(requests)
        for req in reqs:
            req.admit()
        responses: List[Optional[SimResponse]] = [None] * len(reqs)
        for indices, merged in self._dispatch_units(reqs,
                                                    max_banks=max_banks):
            response = self.run(merged)
            if len(indices) == 1:
                responses[indices[0]] = response
                continue
            for slot, i in enumerate(indices):
                responses[i] = self._split_group(response, reqs[i], slot,
                                                 len(indices))
        return responses

    @staticmethod
    def merge_requests(requests: List[SimRequest]) -> MultiBankRequest:
        """The one merge rule for a same-shape transform group — one
        bank per request, ``values=None`` zero-filled, every other
        operand passed through as it is (an array row stays the
        member's read-only array).  All members must share a
        :func:`merge_key` (forward/inverse cyclic NTTs, or
        forward/inverse negacyclic transforms).  Shared by
        :meth:`run_many` grouping and the serve layer's batching
        scheduler, so the two can never drift apart."""
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
    def _dispatch_units(reqs: List[SimRequest], *, max_banks: int
                        ) -> List[Tuple[Tuple[int, ...], SimRequest]]:
        """Partition requests into dispatch units: ``(indices, request)``
        where a multi-index unit is a merged :class:`MultiBankRequest`
        over same-shape transforms (grouped by :func:`merge_key`) and
        every other unit passes the original request through.  Bank
        groups come first (in order of first appearance), then the
        remaining requests in input order — the same execution order
        ``run_many`` always had."""
        units: List[Tuple[Tuple[int, ...], SimRequest]] = []
        grouped_indices = set()
        if max_banks > 1:
            groups: Dict[tuple, List[int]] = {}
            for i, req in enumerate(reqs):
                key = merge_key(req)
                if key is not None:
                    groups.setdefault(key, []).append(i)
            for idxs in groups.values():
                chunks = [idxs[i:i + max_banks]
                          for i in range(0, len(idxs), max_banks)]
                for chunk in chunks:
                    if len(chunk) < 2:
                        continue  # a lone leftover runs individually
                    units.append((tuple(chunk), Simulator.merge_requests(
                        [reqs[i] for i in chunk])))
                    grouped_indices.update(chunk)
        for i, req in enumerate(reqs):
            if i not in grouped_indices:
                units.append(((i,), req))
        return units

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
