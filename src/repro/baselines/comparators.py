"""Prior PIM/FPGA NTT accelerators (Table III comparators).

MeNTT (6T-SRAM bit-serial PIM), CryptoPIM (ReRAM PIM) and the FPGA
design are other groups' silicon/bitstreams; the paper itself compares
against their *published* operating points.  We model each with a small
structural latency model (bit-serial cycle counts, pipeline fill) whose
constants are anchored to the published points, and we encode each
design's flexibility restrictions (fixed modulus, maximum N) so the
comparison logic can reason about them the way Sec. VI.E does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

__all__ = ["AcceleratorModel", "MeNttModel", "CryptoPimModel", "FpgaNttModel",
           "NttPimModel"]


@dataclass
class AcceleratorModel:
    """Base: published anchor points + capability restrictions."""

    name: str = "accelerator"
    bitwidth: int = 32
    max_n: Optional[int] = None          # maximum supported polynomial length
    fixed_modulus: bool = False          # CryptoPIM's FHE-hostile restriction
    published_latency_us: Dict[int, float] = field(default_factory=dict)
    published_energy_nj: Dict[int, float] = field(default_factory=dict)

    def supports(self, n: int) -> bool:
        return self.max_n is None or n <= self.max_n

    def latency_us(self, n: int) -> Optional[float]:
        """Published value if anchored, else the structural model, else
        None when the design cannot run the size at all."""
        if not self.supports(n):
            return None
        if n in self.published_latency_us:
            return self.published_latency_us[n]
        return self._extrapolate_latency(n)

    def energy_nj(self, n: int) -> Optional[float]:
        if not self.supports(n):
            return None
        if n in self.published_energy_nj:
            return self.published_energy_nj[n]
        return self._extrapolate_energy(n)

    def _extrapolate_latency(self, n: int) -> Optional[float]:
        raise NotImplementedError

    def _extrapolate_energy(self, n: int) -> Optional[float]:
        lat = self.latency_us(n)
        if lat is None or not self.published_energy_nj:
            return None
        # Scale energy with latency from the nearest anchored point.
        anchor = min(self.published_energy_nj, key=lambda k: abs(k - n))
        anchor_lat = self.latency_us(anchor)
        return self.published_energy_nj[anchor] * lat / anchor_lat


class MeNttModel(AcceleratorModel):
    """MeNTT [11]: bit-serial 6T-SRAM PIM, 14-bit datapath, N <= 1024.

    Bit-serial modular multiply costs O(b^2) cycles; all butterflies of
    a stage run in parallel across bitlines, so latency is stages x
    per-stage serial cost, with a wiring/fan-out penalty as the array
    fills (visible in the published 1024-point).
    """

    def __init__(self):
        super().__init__(
            name="MeNTT",
            bitwidth=14,
            max_n=1024,
            published_latency_us={256: 23.0, 512: 26.0, 1024: 34.3},
            published_energy_nj={256: 0.144, 512: 0.324, 1024: 0.868},
        )
        self.cycles_per_stage = 575.0   # ~2.9 * b^2 at b=14
        self.freq_mhz = 200.0

    def _extrapolate_latency(self, n: int) -> float:
        log_n = n.bit_length() - 1
        fill_penalty = 1.0 + 0.2 * (n / 1024.0)
        return log_n * self.cycles_per_stage * fill_penalty / self.freq_mhz


class CryptoPimModel(AcceleratorModel):
    """CryptoPIM [12]: ReRAM PIM, fixed modulus, pipeline refills when the
    polynomial exceeds the crossbar capacity (the published 2048 jump)."""

    def __init__(self):
        super().__init__(
            name="CryptoPIM",
            bitwidth=16,
            max_n=4096,
            fixed_modulus=True,
            published_latency_us={256: 68.57, 512: 75.90, 1024: 83.12,
                                  2048: 363.90, 4096: 392.69},
            published_energy_nj={256: 68.67, 512: 75.90, 1024: 83.12,
                                 2048: 363.60, 4096: 421.78},
        )
        self.base_us = 61.0
        self.per_stage_us = 2.4
        self.crossbar_capacity = 1024

    def _extrapolate_latency(self, n: int) -> float:
        log_n = n.bit_length() - 1
        refills = max(1, n // self.crossbar_capacity)
        return refills * (self.base_us + self.per_stage_us * log_n)


class NttPimModel(AcceleratorModel):
    """This paper's design, measured live through the
    :class:`repro.api.Simulator` facade (not a published-point model).

    Puts NTT-PIM in the same comparator frame as the prior accelerators:
    ``latency_us`` / ``energy_nj`` run one simulated transform per new N
    (memoized), with full modulus/length flexibility — the Sec. VI.E
    contrast to CryptoPIM's fixed modulus and MeNTT's N <= 1024 cap.
    """

    def __init__(self, nb_buffers: int = 2, functional: bool = False,
                 config=None):
        super().__init__(name=f"NTT-PIM Nb={nb_buffers}", bitwidth=32)
        from ..api import Simulator
        from ..pim.params import PimParams
        from ..sim.driver import SimConfig

        self.nb_buffers = nb_buffers
        self._simulator = Simulator(config or SimConfig(
            pim=PimParams(nb_buffers=nb_buffers), functional=functional))
        self._responses: Dict[int, object] = {}

    def _response(self, n: int):
        if n not in self._responses:
            from ..api import NttRequest
            from ..arith.primes import find_ntt_prime
            from ..arith.roots import NttParams

            params = NttParams(n, find_ntt_prime(n, 32))
            self._responses[n] = self._simulator.run(NttRequest(params=params))
        return self._responses[n]

    def _extrapolate_latency(self, n: int) -> float:
        return self._response(n).latency_us

    def _extrapolate_energy(self, n: int) -> float:
        return self._response(n).energy_nj


class FpgaNttModel(AcceleratorModel):
    """FPGA butterfly-pipeline design (16-bit column of Table III):
    throughput-bound, latency ~ c * N log N."""

    def __init__(self):
        super().__init__(
            name="FPGA",
            bitwidth=16,
            max_n=None,
            published_latency_us={256: 21.56, 512: 47.64, 1024: 101.84},
            published_energy_nj={256: 2.15, 512: 5.28, 1024: 12.52},
        )
        self.us_per_nlogn = 0.0105

    def _extrapolate_latency(self, n: int) -> float:
        log_n = n.bit_length() - 1
        return self.us_per_nlogn * n * log_n
