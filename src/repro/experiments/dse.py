"""Design-space exploration (extension): how the mapping's efficiency
depends on the DRAM geometry the paper takes as fixed.

Two sweeps at fixed N:

* **row-buffer size** (columns per row) — smaller rows push more stages
  into the inter-row regime, the expensive one; this quantifies how much
  the row-centric mapping relies on HBM-class 1 KB rows.
* **atom size** (Na) — wider atoms vectorize C2 further and cut command
  counts, at the cost of wider buffers/BU (area feedback reported via
  the Table II model).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from ..api import NttRequest, Simulator
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..cost.area import cu_area_mm2
from ..dram.timing import HBM2E_ARCH
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import format_table

__all__ = ["DseResult", "run_row_size_sweep", "run_atom_size_sweep"]


@dataclass
class DseResult:
    """One sweep: parameter value -> (latency us, activations, area)."""

    parameter: str
    n: int
    values: Tuple[int, ...]
    latency_us: Dict[int, float] = field(default_factory=dict)
    activations: Dict[int, int] = field(default_factory=dict)
    area_mm2: Dict[int, float] = field(default_factory=dict)

    def check_claims(self) -> Dict[str, bool]:
        ordered = [self.latency_us[v] for v in sorted(self.values)]
        claims = {}
        if self.parameter == "columns_per_row":
            # Bigger rows always help (fewer inter-row stages).
            claims["latency_improves_with_row_size"] = (
                ordered == sorted(ordered, reverse=True))
            acts = [self.activations[v] for v in sorted(self.values)]
            claims["activations_drop_with_row_size"] = (
                acts == sorted(acts, reverse=True))
        else:
            # Wider atoms help latency but cost area.
            claims["latency_improves_with_atom_size"] = (
                ordered == sorted(ordered, reverse=True))
            areas = [self.area_mm2[v] for v in sorted(self.values)]
            claims["area_grows_with_atom_size"] = areas == sorted(areas)
        return claims

    def table(self) -> str:
        rows: List[List[object]] = []
        for v in sorted(self.values):
            rows.append([v, self.latency_us[v], self.activations[v],
                         self.area_mm2.get(v)])
        return format_table(
            [self.parameter, "latency (us)", "ACTs", "CU area (mm^2)"],
            rows, title=f"DSE — {self.parameter} sweep at N={self.n}")


def run_row_size_sweep(n: int = 2048,
                       columns: Sequence[int] = (8, 16, 32, 64),
                       nb: int = 2) -> DseResult:
    """Vary the row-buffer size (columns per row of 32 B atoms)."""
    result = DseResult(parameter="columns_per_row", n=n, values=tuple(columns))
    q = find_ntt_prime(n, 32)
    params = NttParams(n, q)
    for cols in columns:
        arch = dataclasses.replace(HBM2E_ARCH, columns_per_row=cols)
        config = SimConfig(arch=arch, pim=PimParams(nb_buffers=nb),
                           functional=False)
        run = Simulator(config).run(NttRequest(params=params))
        result.latency_us[cols] = run.latency_us
        result.activations[cols] = run.activations
        result.area_mm2[cols] = cu_area_mm2(nb)
    return result


def run_atom_size_sweep(n: int = 2048,
                        atom_bytes: Sequence[int] = (16, 32, 64),
                        nb: int = 2) -> DseResult:
    """Vary the DRAM atom size (the C1/C2 vector width)."""
    result = DseResult(parameter="atom_bytes", n=n, values=tuple(atom_bytes))
    q = find_ntt_prime(n, 32)
    params = NttParams(n, q)
    for ab in atom_bytes:
        arch = dataclasses.replace(HBM2E_ARCH, atom_bytes=ab,
                                   columns_per_row=1024 // ab)
        config = SimConfig(arch=arch, pim=PimParams(nb_buffers=nb),
                           functional=False)
        run = Simulator(config).run(NttRequest(params=params))
        result.latency_us[ab] = run.latency_us
        result.activations[ab] = run.activations
        result.area_mm2[ab] = cu_area_mm2(nb, atom_words=ab // 4)
    return result
