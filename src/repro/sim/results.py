"""Result record of one simulated dispatch."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..dram.engine import ScheduleResult

__all__ = ["DispatchResult"]


@dataclass
class DispatchResult:
    """One dispatch of ``banks x slots`` transforms on the shared bus: a
    lone transform is 1x1, a one-bank batch 1xk, a multi-bank dispatch
    kx1."""

    banks: int
    slots: int
    schedule: ScheduleResult
    #: Cycles of bank 0's first transform run alone (the reference for
    #: batch amortization and bank-parallel speedup).
    single_cycles: int
    #: The run was functional and every output passed
    #: :meth:`~repro.sim.driver.TransformSpec.check` (a timing-only run
    #: is never verified): a wrong output passes with
    #: probability at most ``(q-1)^-K <= 2^-60`` for prime ``q``, one
    #: wrong word never, and the bound does not hold against outputs
    #: chosen adversarially (the check's rows are fixed per spec).
    verified: bool
    #: Finalized outputs, bank-major (populated on functional runs).
    #: Transform responses share these lists: treat them as read-only.
    outputs: List[List[int]] = field(default_factory=list)
    #: Executed butterfly µ-ops across the dispatch (functional runs).
    bu_ops: int = 0

    @property
    def cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def command_count(self) -> int:
        return len(self.schedule.issues)
