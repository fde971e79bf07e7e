"""The uniform :class:`SimResponse` envelope of the facade.

Every workload — single NTT, negacyclic, batch, multi-bank, FHE op,
raw program window — returns the same envelope: primary values, cycle
and energy totals, per-command-type µ-op counters, cache-hit
provenance and wall-clock metadata, plus the engine-room result object
under ``raw`` for full drill-down (the experiment harnesses use
``response.schedule.stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..dram.engine import ScheduleResult

__all__ = ["SimResponse"]


@dataclass
class SimResponse:
    """Uniform result envelope of one :class:`repro.api.Simulator` run."""

    #: Registry name of the workload that produced this response.
    workload: str
    #: Primary output polynomial (empty on timing-only runs and on
    #: multi-output workloads — see :attr:`outputs`).  A transform
    #: response shares this list with ``raw``'s outputs (and a grouped
    #: request's with its group's): treat it as read-only.
    values: List[int] = field(default_factory=list)
    #: Per-element outputs of batch / multi-bank runs (input order),
    #: shared with ``raw`` like :attr:`values`: treat them as read-only.
    outputs: List[List[int]] = field(default_factory=list)
    cycles: int = 0
    latency_us: float = 0.0
    energy_nj: float = 0.0
    #: True when the run executed functionally and every PIM transform
    #: passed its online check (:meth:`repro.sim.driver.TransformSpec.check`,
    #: Freivalds' dot products against the golden transform's
    #: transpose; a failure raises :class:`~repro.errors.FunctionalMismatch`
    #: instead).  Timing-only runs and ``program`` windows (which return
    #: no values) are never verified.  For prime ``q`` a wrong output
    #: passes with probability at most ``(q-1)^-K <= 2^-60`` and one
    #: wrong word never passes; the check's
    #: rows are fixed per transform, so the bound does not hold against
    #: adversarially chosen outputs.
    verified: bool = False
    #: Commands issued on the bus (summed across transforms for
    #: workloads spanning several programs, e.g. FHE ops).
    command_count: int = 0
    #: µ-op / command counters: per-CommandType issue counts (``"ACT"``,
    #: ``"C2"``, ...) plus ``"bu_ops"`` — executed butterfly operations.
    #: The members of a served group share one dict (their bank's share
    #: of the group's counts): treat it as read-only.
    counters: Dict[str, int] = field(default_factory=dict)
    #: Workload-specific scalar metrics (``speedup``, ``amortization``, ...).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Cache-hit provenance, one entry per cache
    #: :meth:`~repro.api.Simulator.cache_info` lists: ``{"program":
    #: {hits, misses, entries}, "stream": {...}, "schedule": {...},
    #: "dispatch": {...}}`` — hits/misses are deltas over this run.  A
    #: warm transform dispatch shows one dispatch hit and no other
    #: lookup: its memoized shape skips the program, stream and
    #: schedule caches.  A cold one looks up its programs and schedules,
    #: and a stream only for what its banks run: one per distinct spec
    #: (its one-bank stream), none for a merged multi-bank program,
    #: and none at all on a timing-only config, which replays IR
    #: columns and compiles nothing.  A run whose banks share a stack
    #: with other announced requests
    #: (:meth:`~repro.api.Simulator.expect`) counts its own lookup all
    #: the same: stacking looks nothing up.  The members of a served
    #: group share the group's dicts: treat them as read-only.
    cache: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Host wall-clock seconds the simulation took.  Among announced
    #: requests (:meth:`~repro.api.Simulator.expect`), the first run of
    #: a transform shape also runs the other announced dispatches'
    #: banks of that shape, and their runs then take less; the sum over
    #: the runs is the host time they took together.
    wall_time_s: float = 0.0
    #: Engine-room result object (DispatchResult / PimTransformStats /
    #: ScheduleResult / ...) for drill-down.
    raw: Any = None
    #: The request that produced this response.
    request: Any = None

    @property
    def latency_ns(self) -> float:
        return self.latency_us * 1000.0

    @property
    def activations(self) -> int:
        """Row activations — the paper's key efficiency counter."""
        return self.counters.get("ACT", 0)

    @property
    def schedule(self) -> Optional[ScheduleResult]:
        """The underlying :class:`ScheduleResult`, when the workload has
        one (raw program runs return it directly)."""
        if isinstance(self.raw, ScheduleResult):
            return self.raw
        return getattr(self.raw, "schedule", None)

    def summary(self) -> str:
        """One-line report (the CLI's output for ``repro run``)."""
        params = getattr(self.request, "params", None) or getattr(
            self.request, "ring", None)
        shape = f"N={params.n:>5}  " if params is not None else ""
        head = (f"{shape}[{self.workload}] {self.latency_us:9.2f} us  "
                f"{self.energy_nj:9.2f} nJ  ACTs={self.activations:>6}  "
                f"cmds={self.command_count:>7}  "
                f"verified={'yes' if self.verified else 'NO'}")
        if self.metrics:
            extras = "  ".join(f"{k}={v:.3g}" if isinstance(v, float)
                               else f"{k}={v}"
                               for k, v in sorted(self.metrics.items()))
            head += "  " + extras
        return head
