"""Power analysis (extension): average power and energy breakdown of
NTT-PIM runs — the context for Table III's energy rows.

Checks the physical sanity the calibrated energy model must exhibit:
milliwatt-scale average power (a PIM bank, not a CPU), an activation
share that grows with N (more inter-row work), and compute remaining a
small slice (the memory-bound premise of Sec. III.A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..api import NttRequest, Simulator
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..cost.power import PowerModel
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import format_table

__all__ = ["PowerResult", "run_power_analysis"]


@dataclass
class PowerResult:
    ns: Tuple[int, ...]
    nb: int
    avg_power_mw: Dict[int, float] = field(default_factory=dict)
    shares: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def activation_share(self, n: int) -> float:
        return self.shares[n]["activation"]

    def check_claims(self) -> Dict[str, bool]:
        claims = {}
        # Milliwatt scale (between 0.05 and 50 mW) at every N.
        claims["milliwatt_scale"] = all(
            0.05 <= self.avg_power_mw[n] <= 50.0 for n in self.ns)
        # Activation share grows once the inter-row regime appears.
        small, large = min(self.ns), max(self.ns)
        claims["activation_share_grows"] = (
            self.activation_share(large) > self.activation_share(small))
        # Compute stays a minority everywhere (memory-bound workload).
        claims["compute_is_minority"] = all(
            self.shares[n]["compute"] < 0.5 for n in self.ns)
        return claims

    def table(self) -> str:
        rows: List[List[object]] = []
        for n in self.ns:
            s = self.shares[n]
            rows.append([n, self.avg_power_mw[n],
                         100 * s["activation"], 100 * s["column"],
                         100 * s["compute"], 100 * s["static"]])
        return format_table(
            ["N", "avg power (mW)", "ACT %", "column %", "compute %",
             "static %"],
            rows, title=f"Power breakdown (Nb={self.nb})")


def run_power_analysis(ns: Sequence[int] = (256, 1024, 4096),
                       nb: int = 2) -> PowerResult:
    result = PowerResult(ns=tuple(ns), nb=nb)
    q = find_ntt_prime(max(ns), 32)
    config = SimConfig(pim=PimParams(nb_buffers=nb), functional=False)
    model = PowerModel(config.energy, config.timing)
    simulator = Simulator(config)
    for n in ns:
        run = simulator.run(NttRequest(params=NttParams(n, q)))
        stats = run.schedule.stats
        result.avg_power_mw[n] = model.average_power_mw(stats)
        b = model.breakdown(stats)
        total = b["total_pj"]
        result.shares[n] = {
            "activation": b["activation_pj"] / total,
            "column": b["column_pj"] / total,
            "compute": b["compute_pj"] / total,
            "static": b["static_pj"] / total,
        }
    return result
