"""Design-choice ablations beyond the paper's own sweeps.

Quantifies the two scheduling ideas of Secs. III.C/V in isolation:

* **in-place update** — vs a naive out-of-place (ping-pong region)
  schedule, which loses the '-'-leg write hit and pays two extra
  activations per group;
* **same-row grouping** — vs degree-1 processing with the same buffer
  count, isolating the activation-reduction part of pipelining from the
  latency-overlap part.

Also sweeps bank-level parallelism (the paper's future-work claim of
near-linear scaling).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..api import MultiBankRequest, NttRequest, Simulator
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..mapping.mapper import MapperOptions
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import format_table

__all__ = ["AblationResult", "run_ablations", "BankScalingResult",
           "run_bank_scaling"]

DEFAULT_NS = (1024, 4096)


@dataclass
class AblationResult:
    ns: Tuple[int, ...]
    nb: int
    latency_us: Dict[Tuple[int, str], float] = field(default_factory=dict)
    activations: Dict[Tuple[int, str], int] = field(default_factory=dict)

    VARIANTS = ("full", "no-in-place", "no-grouping")

    def penalty(self, n: int, variant: str) -> float:
        """Latency multiplier of disabling the feature."""
        return self.latency_us[(n, variant)] / self.latency_us[(n, "full")]

    def check_claims(self) -> Dict[str, bool]:
        claims = {}
        claims["in_place_saves_activations"] = all(
            self.activations[(n, "no-in-place")]
            > 1.3 * self.activations[(n, "full")] for n in self.ns)
        claims["grouping_saves_activations"] = all(
            self.activations[(n, "no-grouping")]
            > 1.3 * self.activations[(n, "full")] for n in self.ns)
        claims["both_cost_latency"] = all(
            self.penalty(n, v) > 1.05
            for n in self.ns for v in ("no-in-place", "no-grouping"))
        return claims

    def table(self) -> str:
        rows: List[List[object]] = []
        for n in self.ns:
            for v in self.VARIANTS:
                rows.append([n, v, self.latency_us[(n, v)],
                             self.activations[(n, v)],
                             self.penalty(n, v)])
        return format_table(["N", "variant", "latency (us)", "ACTs",
                             "latency penalty"],
                            rows, title=f"Ablations (Nb={self.nb})")


def run_ablations(ns: Sequence[int] = DEFAULT_NS, nb: int = 6,
                  functional: bool = False) -> AblationResult:
    result = AblationResult(ns=tuple(ns), nb=nb)
    q = find_ntt_prime(max(ns), 32)
    variants = {
        "full": MapperOptions(),
        "no-in-place": MapperOptions(in_place_update=False),
        "no-grouping": MapperOptions(group_same_row=False),
    }
    for n in ns:
        params = NttParams(n, q)
        for name, opts in variants.items():
            config = SimConfig(pim=PimParams(nb_buffers=nb),
                               mapper_options=opts, functional=functional)
            run = Simulator(config).run(NttRequest(params=params))
            result.latency_us[(n, name)] = run.latency_us
            result.activations[(n, name)] = run.activations
    return result


@dataclass
class BankScalingResult:
    n: int
    banks: Tuple[int, ...]
    speedup: Dict[int, float] = field(default_factory=dict)
    efficiency: Dict[int, float] = field(default_factory=dict)

    def check_claims(self) -> Dict[str, bool]:
        return {
            # Paper conclusion: near-linear speedup with bank count.
            "near_linear_scaling": all(
                self.efficiency[b] >= 0.7 for b in self.banks),
            "monotone_speedup": all(
                self.speedup[a] <= self.speedup[b] + 1e-9
                for a, b in zip(self.banks, self.banks[1:])),
        }

    def table(self) -> str:
        rows = [[b, self.speedup[b], self.efficiency[b]] for b in self.banks]
        return format_table(["banks", "speedup", "efficiency"], rows,
                            title=f"Bank-level parallelism (N={self.n})")


def run_bank_scaling(n: int = 1024, banks: Sequence[int] = (1, 2, 4, 8),
                     nb: int = 2, functional: bool = False) -> BankScalingResult:
    q = find_ntt_prime(n, 32)
    params = NttParams(n, q)
    result = BankScalingResult(n=n, banks=tuple(banks))
    for b in banks:
        config = SimConfig(pim=PimParams(nb_buffers=nb), functional=functional)
        mb = Simulator(config).run(
            MultiBankRequest(params=params, inputs=[[0] * n] * b))
        result.speedup[b] = mb.metrics["speedup"]
        result.efficiency[b] = mb.metrics["efficiency"]
    return result
