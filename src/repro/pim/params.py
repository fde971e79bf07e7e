"""PIM architecture parameters (the atom-buffer count)."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PimParams"]


@dataclass(frozen=True)
class PimParams:
    """Per-bank PIM configuration.

    ``nb_buffers`` counts *all* atom buffers including the primary (GSA),
    matching the paper's Nb (Table II, Fig. 6/7): Nb=1 means GSA only,
    Nb=2 is the dual-buffer baseline architecture, Nb=4/6 enable deeper
    pipelining.  The CU latencies are not per-bank settings: the timing
    engine's :class:`~repro.dram.engine.ComputeTiming` holds the
    synthesized values (Sec. VI.B).
    """

    nb_buffers: int = 2

    def __post_init__(self):
        if self.nb_buffers < 1:
            raise ValueError("at least the primary buffer (GSA) must exist")

    @property
    def pair_slots(self) -> int:
        """How many (P, S) operand pairs fit in the buffer pool — the
        pipelining depth of inter-atom mapping (Fig. 6b/c)."""
        return self.nb_buffers // 2
