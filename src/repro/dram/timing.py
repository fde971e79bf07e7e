"""DRAM timing and geometry parameters (paper Table I, HBM2E-based).

Two parameter bundles:

* :class:`ArchParams` — geometry of one bank: atom size, columns per
  row, rows per bank.  Derived quantities (``words_per_atom`` = Na,
  ``words_per_row`` = R) drive the mapping regimes.
* :class:`TimingParams` — the cycle-level constraints the timing engine
  enforces, plus the clock.  :meth:`TimingParams.retimed` implements the
  Fig. 8 experiment's rule: DRAM latencies are fixed *in nanoseconds*
  (they come from the cell array), so their cycle counts scale with the
  clock, while CU latencies are fixed *in cycles*.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

__all__ = ["ArchParams", "TimingParams", "HBM2E_TIMING", "HBM2E_ARCH"]


@dataclass(frozen=True)
class ArchParams:
    """DRAM geometry (Table I, left column)."""

    atom_bytes: int = 32
    word_bytes: int = 4
    columns_per_row: int = 32
    rows_per_bank: int = 32768

    def __post_init__(self):
        if self.atom_bytes % self.word_bytes:
            raise ValueError("atom size must be a whole number of words")
        for name in ("atom_bytes", "word_bytes", "columns_per_row",
                     "rows_per_bank"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def words_per_atom(self) -> int:
        """Na — the vector width of C1/C2 (8 for 32-bit words in HBM)."""
        return self.atom_bytes // self.word_bytes

    @property
    def words_per_row(self) -> int:
        """R — the row-buffer capacity in words (256 here)."""
        return self.columns_per_row * self.words_per_atom

    @property
    def row_bytes(self) -> int:
        return self.columns_per_row * self.atom_bytes

    @property
    def bank_words(self) -> int:
        return self.rows_per_bank * self.words_per_row

    @property
    def log_words_per_atom(self) -> int:
        return self.words_per_atom.bit_length() - 1

    @property
    def log_words_per_row(self) -> int:
        return self.words_per_row.bit_length() - 1


@dataclass(frozen=True)
class TimingParams:
    """DRAM timing constraints in cycles (Table I, right column)."""

    cl: int = 14          # column (read) latency
    tccd: int = 2         # column-to-column command gap
    trp: int = 14         # precharge period (PRE -> ACT)
    tras: int = 34        # minimum row-open time (ACT -> PRE)
    trcd: int = 14        # ACT -> first column command
    twr: int = 16         # write recovery (last write data -> PRE)
    burst: int = 2        # cycles a one-atom data burst occupies
    trrd: int = 4         # ACT-to-ACT, different banks (rank-level)
    tfaw: int = 16        # four-activate window (rank-level)
    freq_mhz: float = 1200.0

    def __post_init__(self):
        for name in ("cl", "tccd", "trp", "tras", "trcd", "twr", "burst",
                     "trrd", "tfaw"):
            value = getattr(self, name)
            # Schedules store their cycle times as int64.
            if not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be a whole number of cycles")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.freq_mhz <= 0:
            raise ValueError("frequency must be positive")

    @property
    def cycle_ns(self) -> float:
        """Duration of one clock cycle in nanoseconds."""
        return 1000.0 / self.freq_mhz

    def cycles_to_ns(self, cycles: float) -> float:
        return cycles * self.cycle_ns

    def cycles_to_us(self, cycles: float) -> float:
        return cycles * self.cycle_ns / 1000.0

    def ns_to_cycles(self, ns: float) -> int:
        return int(math.ceil(ns / self.cycle_ns))

    def retimed(self, freq_mhz: float) -> "TimingParams":
        """Same DRAM array, different clock (Fig. 8 rule).

        Each DRAM constraint keeps its absolute duration in ns, so its
        cycle count is rescaled (rounded up — a controller cannot issue
        early).  CU latencies, being synchronous logic, are *not* here:
        they stay constant in cycles and get slower in ns automatically.
        """
        if freq_mhz <= 0:
            raise ValueError("frequency must be positive")
        ratio = freq_mhz / self.freq_mhz
        scaled = {
            name: max(1, math.ceil(getattr(self, name) * ratio))
            for name in ("cl", "tccd", "trp", "tras", "trcd", "twr", "burst",
                         "trrd", "tfaw")
        }
        return replace(self, freq_mhz=freq_mhz, **scaled)

    @property
    def read_to_data(self) -> int:
        """Cycles from a read command to its atom sitting in the buffer."""
        return self.cl + self.burst

    @property
    def write_to_data(self) -> int:
        """Cycles from a write command to data landing in the row buffer.

        We model write latency symmetric to read latency; tWR is counted
        from this point to an allowed precharge.
        """
        return self.cl + self.burst


#: Table I defaults.
HBM2E_TIMING = TimingParams()
HBM2E_ARCH = ArchParams()
