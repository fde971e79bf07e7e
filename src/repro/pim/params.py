"""PIM architecture parameters (buffer count, CU latencies)."""

from __future__ import annotations

from dataclasses import dataclass

from ..dram.engine import ComputeTiming

__all__ = ["PimParams"]


@dataclass(frozen=True)
class PimParams:
    """Per-bank PIM configuration.

    ``nb_buffers`` counts *all* atom buffers including the primary (GSA),
    matching the paper's Nb (Table II, Fig. 6/7): Nb=1 means GSA only,
    Nb=2 is the dual-buffer baseline architecture, Nb=4/6 enable deeper
    pipelining.
    """

    nb_buffers: int = 2
    c1_cycles: int = 15       # synthesized C1 latency (Sec. VI.B)
    c2_cycles: int = 10       # synthesized C2 latency (Sec. VI.B)
    param_write_cycles: int = 4

    def __post_init__(self):
        if self.nb_buffers < 1:
            raise ValueError("at least the primary buffer (GSA) must exist")
        if self.c1_cycles < 1 or self.c2_cycles < 1:
            raise ValueError("compute latencies must be positive")

    @property
    def pair_slots(self) -> int:
        """How many (P, S) operand pairs fit in the buffer pool — the
        pipelining depth of inter-atom mapping (Fig. 6b/c)."""
        return self.nb_buffers // 2

    def compute_timing(self) -> ComputeTiming:
        """Engine-facing latency table."""
        return ComputeTiming(
            c1_cycles=self.c1_cycles,
            c2_cycles=self.c2_cycles,
            param_cycles=self.param_write_cycles,
        )
