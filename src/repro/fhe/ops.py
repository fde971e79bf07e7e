"""FHE polynomial operations routed through the PIM simulator.

This is the bridge the paper's introduction motivates: FHE ring
multiplications are NTT -> pointwise -> INTT, and the NTTs run on the
PIM.  The negacyclic pre/post scalings (psi powers) are element-wise
host passes, matching the paper's CPU-side bit-reversal assumption.

:class:`PimFheAccelerator` keeps an account of simulated PIM time and
energy, so examples can report "what the PIM did" for an end-to-end
homomorphic workload.  The facade's ``fhe`` workload
(:class:`repro.api.FheOpRequest`) is built on this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Sequence

from ..arith.modmath import mod_mul_vec
from ..ntt.negacyclic import NegacyclicParams, psi_power_table
from ..sim.driver import SimConfig, TransformSpec, _run_dispatch

__all__ = ["PimTransformStats", "PimFheAccelerator"]


@dataclass
class PimTransformStats:
    """Aggregate of all PIM transforms issued by an accelerator."""

    transforms: int = 0
    total_cycles: int = 0
    total_latency_us: float = 0.0
    total_energy_nj: float = 0.0
    total_activations: int = 0
    #: DRAM commands issued across all transforms (the command-bus
    #: traffic the serving layer's shared-bus model charges).
    total_commands: int = 0
    #: Transforms that ran functionally and passed the online check
    #: (:meth:`~repro.sim.driver.TransformSpec.check`).
    verified_transforms: int = 0
    per_call_us: List[float] = field(default_factory=list)


class PimFheAccelerator:
    """Runs negacyclic ring multiplications with NTTs on the simulated PIM.

    Two modes:

    * ``native=False`` (paper-faithful): host psi-prescaling and bit
      reversal, cyclic NTT on the PIM;
    * ``native=True`` (extension): the merged negacyclic transform runs
      entirely on the PIM via the C1N/zeta mapping — no host scaling or
      permutation passes (see :class:`repro.mapping.NegacyclicNttMapper`).
    """

    def __init__(self, ring: NegacyclicParams, config: SimConfig | None = None,
                 native: bool = False):
        self.ring = ring
        self.config = config or SimConfig()
        self.native = native
        self.stats = PimTransformStats()
        if native:
            self._forward = TransformSpec(kind="negacyclic", ring=ring)
        else:
            self._forward = TransformSpec(kind="ntt", params=ring.cyclic)
        # The inverse spec applies 1/N host-side, like every inverse.
        self._inverse = replace(self._forward, inverse=True)
        # Shared per-(psi, n, q) tables — deterministic artifacts, memoized.
        self._psi_powers = psi_power_table(ring.psi, ring.n, ring.q)
        self._psi_inv_powers = psi_power_table(ring.psi_inv, ring.n, ring.q)

    def _transform(self, spec: TransformSpec,
                   values: Sequence[int]) -> List[int]:
        result = _run_dispatch([[values]], [spec], self.config)
        schedule = result.schedule
        self.stats.transforms += 1
        self.stats.total_cycles += schedule.total_cycles
        self.stats.total_latency_us += schedule.latency_us
        self.stats.total_energy_nj += schedule.energy_nj
        self.stats.total_activations += schedule.stats.activations
        self.stats.total_commands += result.command_count
        self.stats.verified_transforms += result.verified
        self.stats.per_call_us.append(schedule.latency_us)
        return result.outputs[0] if result.outputs else []

    def forward(self, coefficients: Sequence[int]) -> List[int]:
        """Negacyclic forward transform on the PIM."""
        if self.native:
            return self._transform(self._forward, coefficients)
        scaled = mod_mul_vec(coefficients, self._psi_powers, self.ring.q)
        return self._transform(self._forward, scaled)

    def inverse(self, values: Sequence[int]) -> List[int]:
        """Negacyclic inverse transform (PIM transform; 1/N — and in the
        paper-faithful mode psi^-i — applied host-side)."""
        out = self._transform(self._inverse, values)
        if self.native or not out:  # a timing-only run has no values
            return out
        return mod_mul_vec(out, self._psi_inv_powers, self.ring.q)

    def multiply(self, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Full ring product: 2 forward NTTs, pointwise, 1 inverse."""
        fa = self.forward(a)
        fb = self.forward(b)
        prod = mod_mul_vec(fa, fb, self.ring.q)
        return self.inverse(prod)
