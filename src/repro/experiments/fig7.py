"""Fig. 7: latency vs polynomial length for Nb in {1, 2, 4, 6} + x86.

The paper's headline sensitivity result: without auxiliary buffers the
PIM is no better than software; one auxiliary buffer buys an order of
magnitude; further buffers another 1.5-2.5x, more at large N.
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

__all__ = ["Fig7Result", "run_fig7", "DEFAULT_NS", "DEFAULT_NBS"]

#: The paper's x-axis ("8912" read as 8192; see DESIGN.md note 4).
DEFAULT_NS = (256, 512, 1024, 2048, 4096, 8192)
DEFAULT_NBS = (1, 2, 4, 6)


@dataclass
class Fig7Result:
    """Latency grid [us]: pim[(n, nb)] plus the x86 line."""

    ns: Tuple[int, ...]
    nbs: Tuple[int, ...]
    pim_us: Dict[Tuple[int, int], float] = field(default_factory=dict)
    pim_activations: Dict[Tuple[int, int], int] = field(default_factory=dict)
    cpu_us: Dict[int, float] = field(default_factory=dict)

    def aux_buffer_gain(self, n: int) -> float:
        """Speedup of the first auxiliary buffer (Nb=1 -> Nb=2)."""
        return self.pim_us[(n, 1)] / self.pim_us[(n, 2)]

    def pipelining_gain(self, n: int) -> float:
        """Speedup from deeper pipelining (Nb=2 -> Nb=6)."""
        return self.pim_us[(n, 2)] / self.pim_us[(n, 6)]

    def speedup_vs_cpu(self, n: int, nb: int) -> float:
        return self.cpu_us[n] / self.pim_us[(n, nb)]

    def check_claims(self) -> Dict[str, bool]:
        """The Sec. VI.C assertions this experiment must reproduce."""
        claims = {}
        # (i) Nb=1 is in the software ballpark — no order-of-magnitude
        #     advantage anywhere (Fig. 7 shows the two lines riding
        #     together).
        claims["nb1_comparable_to_cpu"] = all(
            0.2 <= self.pim_us[(n, 1)] / self.cpu_us[n] <= 5.0
            for n in self.ns if (n, 1) in self.pim_us)
        # (ii) one auxiliary buffer improves by ~an order of magnitude.
        claims["aux_buffer_order_of_magnitude"] = all(
            self.aux_buffer_gain(n) >= 7.0
            for n in self.ns if (n, 1) in self.pim_us)
        # (iii) more buffers give ~1.5-2.5x.
        gains = [self.pipelining_gain(n) for n in self.ns]
        claims["pipelining_gain_range"] = all(1.3 <= g <= 3.0 for g in gains)
        # (iv) the gain grows with N (inter-row fraction grows).
        claims["pipelining_gain_grows_with_n"] = gains[-1] > gains[0]
        # (v) PIM with any auxiliary buffer beats the CPU everywhere.
        claims["pim_beats_cpu"] = all(
            self.speedup_vs_cpu(n, nb) > 1.0
            for n in self.ns for nb in self.nbs if nb >= 2)
        return claims

    def table(self) -> str:
        headers = ["N"] + [f"Nb={nb} (us)" for nb in self.nbs] + ["x86 (us)"]
        rows = []
        for n in self.ns:
            row: List[object] = [n]
            for nb in self.nbs:
                row.append(self.pim_us.get((n, nb)))
            row.append(self.cpu_us[n])
            rows.append(row)
        return format_table(headers, rows,
                            title="Fig. 7 — latency vs N and buffer count")

    def plot(self) -> str:
        series: Dict[str, List[Tuple[float, float]]] = {}
        for nb in self.nbs:
            series[f"Nb={nb}"] = [(n, self.pim_us[(n, nb)])
                                  for n in self.ns if (n, nb) in self.pim_us]
        series["x86"] = [(n, self.cpu_us[n]) for n in self.ns]
        return ascii_log_plot(series, title="Fig. 7", xlabel="N",
                              ylabel="latency us")


def run_fig7(ns: Sequence[int] = DEFAULT_NS,
             nbs: Sequence[int] = DEFAULT_NBS,
             functional: bool = False,
             cpu_model: CpuNttModel | None = None) -> Fig7Result:
    """Run the sweep.  ``functional=False`` runs timing-only (the
    functional path is exercised by the test suite; benches only need
    cycles), which keeps the Nb=1 points affordable."""
    cpu = cpu_model or CpuNttModel()
    result = Fig7Result(ns=tuple(ns), nbs=tuple(nbs))
    q = find_ntt_prime(max(ns), 32)
    for n in ns:
        params = NttParams(n, q)
        for nb in nbs:
            config = SimConfig(pim=PimParams(nb_buffers=nb),
                               functional=functional)
            run = Simulator(config).run(NttRequest(params=params))
            result.pim_us[(n, nb)] = run.latency_us
            result.pim_activations[(n, nb)] = run.activations
        result.cpu_us[n] = cpu.latency_us(n)
    return result
