"""x86 CPU software baseline.

Two parts:

* :func:`numpy_ntt` — a real, runnable vectorized software NTT (the
  kind of code the paper's "x86 CPU / Software" column measures).  Used
  by examples and as another functional cross-check.
* :class:`CpuNttModel` — an analytic latency/energy model of that
  software on the paper's testbed, calibrated to reproduce the x86
  column of Table III (we have no access to their machine; see
  DESIGN.md §2).  The model is microarchitectural in form — butterfly
  throughput plus a cache-spill term — with constants fitted once.
"""

from __future__ import annotations

from typing import List, Sequence

from ..arith import vector
from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams

__all__ = ["numpy_ntt", "CpuNttModel"]


def numpy_ntt(values: Sequence[int], params: NttParams) -> List[int]:
    """Vectorized iterative DIT NTT on NumPy uint64 lanes.

    Thin wrapper over the shared lane kernel in :mod:`repro.arith.vector`
    (this *is* the software baseline the paper's x86 column measures).
    Keeps its historical ``q < 2^32`` contract.
    """
    n, q = params.n, params.q
    if q >= (1 << 32):
        raise ValueError("numpy_ntt supports q < 2^32")
    if len(values) != n:
        raise ValueError(f"expected {n} values, got {len(values)}")
    return vector.ntt_dit_bitrev(bit_reverse_permute(list(values)),
                                 n, q, params.omega).tolist()


class CpuNttModel:
    """Latency/energy model of the software NTT on the paper's x86 box.

    ``latency_us(n) = overhead + cycles(n) / freq``, with
    ``cycles(n) = bpc * (N/2 log N)`` plus a memory-hierarchy term once
    the working set spills the last-level cache.  Defaults reproduce
    Table III's x86 column within a few percent.
    """

    def __init__(self,
                 freq_ghz: float = 3.0,
                 cycles_per_butterfly: float = 196.0,
                 overhead_us: float = 17.5,
                 llc_bytes: int = 8 * 1024 * 1024,
                 spill_penalty: float = 0.08,
                 word_bytes: int = 4,
                 power_w: float = 0.0071):
        self.freq_ghz = freq_ghz
        self.cycles_per_butterfly = cycles_per_butterfly
        self.overhead_us = overhead_us
        self.llc_bytes = llc_bytes
        self.spill_penalty = spill_penalty
        self.word_bytes = word_bytes
        #: Effective power in watts; Table III's x86 energy column divided
        #: by its latency column is ~7 mW across all N, so we reproduce
        #: the table as printed (see EXPERIMENTS.md on the unit oddity).
        self.power_w = power_w

    def butterflies(self, n: int) -> int:
        log_n = n.bit_length() - 1
        return (n // 2) * log_n

    def latency_us(self, n: int) -> float:
        """Modeled wall time of one size-``n`` NTT in microseconds."""
        if n < 2 or n & (n - 1):
            raise ValueError(f"N must be a power of two >= 2, got {n}")
        cycles = self.cycles_per_butterfly * self.butterflies(n)
        working_set = n * self.word_bytes * 2  # data + twiddle table
        if working_set > self.llc_bytes:
            cycles *= 1.0 + self.spill_penalty * (working_set / self.llc_bytes)
        return self.overhead_us + cycles / (self.freq_ghz * 1000.0)

    def energy_nj(self, n: int) -> float:
        """E = P * t, reproducing the Table III energy column."""
        return self.power_w * self.latency_us(n) * 1000.0  # W * us -> nJ
