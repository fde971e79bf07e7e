"""Fig. 8: sensitivity to clock frequency (Nb = 2).

The rule (Sec. VI.D): CU compute time scales with 1/f, DRAM access
latencies are constant in nanoseconds.  Because most of NTT-PIM's time
is DRAM access, performance should be robust — the paper reports only a
1.65x slowdown for a 4x clock reduction at large N, and 3-7x speedup
over the CPU even at 300 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..api import NttRequest, Simulator
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..baselines.cpu import CpuNttModel
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import ascii_log_plot, format_table

__all__ = ["Fig8Result", "run_fig8", "DEFAULT_FREQS"]

DEFAULT_FREQS = (1200.0, 900.0, 600.0, 300.0)
DEFAULT_NS = (256, 512, 1024, 2048, 4096, 8192)


@dataclass
class Fig8Result:
    """Latency grid [us]: pim[(n, freq_mhz)] plus the x86 line."""

    ns: Tuple[int, ...]
    freqs: Tuple[float, ...]
    pim_us: Dict[Tuple[int, float], float] = field(default_factory=dict)
    cpu_us: Dict[int, float] = field(default_factory=dict)

    def slowdown(self, n: int, freq: float) -> float:
        """Latency ratio vs the 1200 MHz design point."""
        return self.pim_us[(n, freq)] / self.pim_us[(n, 1200.0)]

    def check_claims(self) -> Dict[str, bool]:
        claims = {}
        # (i) 4x clock drop costs far less than 4x latency at large N
        #     (paper: 1.65x at the longest polynomial).
        big = max(self.ns)
        claims["robust_at_low_freq"] = self.slowdown(big, 300.0) <= 2.2
        # (ii) large-N points are MORE robust than small-N points.
        claims["long_polynomials_more_robust"] = (
            self.slowdown(big, 300.0) <= self.slowdown(min(self.ns), 300.0))
        # (iii) still 3-7x (at least >2x) faster than CPU at 300 MHz.
        ratios = [self.cpu_us[n] / self.pim_us[(n, 300.0)] for n in self.ns]
        claims["beats_cpu_at_300mhz"] = all(r >= 2.0 for r in ratios)
        claims["cpu_speedup_in_paper_band"] = any(3.0 <= r <= 10.0
                                                  for r in ratios)
        return claims

    def table(self) -> str:
        headers = ["N"] + [f"{int(f)}MHz (us)" for f in self.freqs] + ["x86 (us)"]
        rows: List[List[object]] = []
        for n in self.ns:
            row: List[object] = [n]
            for f in self.freqs:
                row.append(self.pim_us[(n, f)])
            row.append(self.cpu_us[n])
            rows.append(row)
        return format_table(headers, rows,
                            title="Fig. 8 — latency vs clock frequency (Nb=2)")

    def plot(self) -> str:
        series = {f"{int(f)}MHz": [(n, self.pim_us[(n, f)]) for n in self.ns]
                  for f in self.freqs}
        series["x86"] = [(n, self.cpu_us[n]) for n in self.ns]
        return ascii_log_plot(series, title="Fig. 8", xlabel="N",
                              ylabel="latency us")


def run_fig8(ns: Sequence[int] = DEFAULT_NS,
             freqs: Sequence[float] = DEFAULT_FREQS,
             nb_buffers: int = 2,
             functional: bool = False) -> Fig8Result:
    cpu = CpuNttModel()
    result = Fig8Result(ns=tuple(ns), freqs=tuple(freqs))
    q = find_ntt_prime(max(ns), 32)
    base = SimConfig(pim=PimParams(nb_buffers=nb_buffers),
                     functional=functional)
    for n in ns:
        params = NttParams(n, q)
        for f in freqs:
            run = Simulator(base.at_frequency(f)).run(NttRequest(params=params))
            result.pim_us[(n, f)] = run.latency_us
        result.cpu_us[n] = cpu.latency_us(n)
    return result
