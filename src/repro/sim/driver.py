"""One simulated PIM bank: the paper's Python MC model + functional checker.

Mirrors Sec. VI.A: every NTT invocation is (a) lowered into DRAM
commands via the mapping algorithm and (b) run through both the timing
engine and the functional bank model, verifying the data result against
the golden transform while collecting cycles/energy.

Host protocol (Sec. IV.A): the input polynomial is already in memory in
bit-reversed order (bit reversal is the host's job, as in MeNTT and
CryptoPIM); the NTT request passes only (N, q, omega, address); the
result overwrites the input, in natural order.

A :class:`TransformSpec` names one transform kind — forward or inverse
cyclic NTT, or the merged negacyclic transform — and owns its program,
input layout, host-side 1/N epilogue and golden model.  :func:`_run_bank`
is the one functional checker: single transforms, every bank of a
multi-bank dispatch and the FHE accelerator all go through it.  The
supported entry point is :meth:`repro.api.Simulator.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .._cache import ArtifactCache
from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams
from ..dram.energy import EnergyParams, HBM2E_ENERGY
from ..dram.engine import TimingEngine
from ..dram.stream import CommandStream, cached_stream
from ..dram.timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from ..errors import FunctionalMismatch
from ..mapping.mapper import MapperOptions
from ..mapping.program_cache import (
    CachedProgram,
    cyclic_program,
    negacyclic_program,
)
from ..ntt.merged import merged_negacyclic_intt, merged_negacyclic_ntt
from ..ntt.negacyclic import NegacyclicParams
from ..ntt.reference import intt as reference_intt
from ..ntt.reference import ntt as reference_ntt
from ..pim.bank_pim import PimBank
from ..pim.params import PimParams
from .results import NttRunResult

__all__ = ["SimConfig", "TransformSpec", "cached_schedule",
           "schedule_cache_info", "clear_schedule_cache"]


# -- schedule cache ------------------------------------------------------------
# The timing engine is deterministic: the same command sequence under the
# same (timing, arch, compute, energy) parameters always produces the
# same schedule.  Keys are *structural*, never identity-based: either
# the command tuple's own content (commands are frozen dataclasses that
# hash and compare by value), or — cheaper — the generating-parameter
# key of a memoized program, which determines the command content
# exactly (that determinism is the premise of the program cache).  The
# batch and multi-bank mergers build fresh lists on every call, yet hit
# the same entries via keys derived from their components' keys.
# Cached ScheduleResults are shared between runs — treat them as
# immutable.  Thread-safe via the shared ArtifactCache (locked
# lookup/stats/eviction, simulation outside the lock, one canonical
# ScheduleResult per key).
_MAX_SCHEDULES = 128
_schedule_cache = ArtifactCache(_MAX_SCHEDULES)


def cached_schedule(commands, timing, arch, compute, energy, key=None):
    """Memoized stream-compiled ``TimingEngine`` simulation.

    ``commands`` is a command sequence or an already-compiled
    :class:`~repro.dram.stream.CommandStream`.  Cold lookups compile the
    program (via the shared stream cache) and run the engine's
    vectorized stream loop — bit-identical to ``simulate(commands)``.

    ``key`` is an exact stand-in for the command content (e.g. a
    :class:`~repro.mapping.program_cache.CachedProgram` key, or a merge
    recipe over such keys) that avoids hashing thousands of commands per
    lookup; when ``None``, the command tuple itself is the key.
    """
    if isinstance(commands, CommandStream):
        stream = commands
        # Only materialize Command objects when no structural key exists
        # (merge-built streams are lazy; the timing loop never needs them).
        content_key = key if key is not None else tuple(commands.commands)
    else:
        stream = None
        content_key = key if key is not None else tuple(commands)
    cache_key = (content_key, timing, arch, compute, energy)

    def simulate():
        compiled = (stream if stream is not None
                    else cached_stream(commands, arch, key=key))
        return TimingEngine(timing, arch, compute=compute,
                            energy=energy).simulate_stream(compiled)

    return _schedule_cache.get_or_create(cache_key, simulate)


def schedule_cache_info() -> dict:
    """Schedule-cache statistics (mirrors
    :func:`repro.mapping.program_cache.program_cache_info`)."""
    return _schedule_cache.info()


def clear_schedule_cache() -> None:
    """Empty the schedule cache and reset statistics (test isolation)."""
    _schedule_cache.clear()


@dataclass(frozen=True)
class SimConfig:
    """Full configuration of one simulated PIM bank."""

    arch: ArchParams = HBM2E_ARCH
    timing: TimingParams = HBM2E_TIMING
    pim: PimParams = field(default_factory=PimParams)
    energy: EnergyParams = HBM2E_ENERGY
    base_row: int = 0
    verify: bool = True
    functional: bool = True   # set False for timing-only sweeps (faster)
    mapper_options: MapperOptions = MapperOptions()

    def at_frequency(self, freq_mhz: float) -> "SimConfig":
        """Fig. 8 helper: same machine at a different clock."""
        return SimConfig(arch=self.arch, timing=self.timing.retimed(freq_mhz),
                         pim=self.pim, energy=self.energy,
                         base_row=self.base_row, verify=self.verify,
                         functional=self.functional,
                         mapper_options=self.mapper_options)


@dataclass(frozen=True)
class TransformSpec:
    """One transform kind a bank runs.

    ``kind`` is ``"ntt"`` (cyclic, ``params``) or ``"negacyclic"``
    (merged C1N mapping, ``ring``); ``inverse`` selects the inverse
    transform, whose final 1/N scale runs host-side — the same epilogue
    whether the transform runs alone or as one bank of a multi-bank
    dispatch, so the two stay bit-identical.
    """

    kind: str = "ntt"
    inverse: bool = False
    params: Optional[NttParams] = None
    ring: Optional[NegacyclicParams] = None

    @classmethod
    def of(cls, params_or_spec) -> "TransformSpec":
        """Normalize the legacy ``NttParams`` calling convention."""
        if isinstance(params_or_spec, TransformSpec):
            return params_or_spec
        return cls(kind="ntt", params=params_or_spec)

    @property
    def n(self) -> int:
        return self.ring.n if self.kind == "negacyclic" else self.params.n

    @property
    def q(self) -> int:
        return self.ring.q if self.kind == "negacyclic" else self.params.q

    # -- per-bank artifacts ------------------------------------------------------
    def program(self, config: SimConfig, bank: int) -> CachedProgram:
        """The (memoized) command program one bank runs."""
        if self.kind == "negacyclic":
            return negacyclic_program(self.ring, config.arch, config.pim,
                                      config.base_row, bank,
                                      inverse=self.inverse)
        ntt = self.params.inverse() if self.inverse else self.params
        return cyclic_program(ntt, config.arch, config.pim, config.base_row,
                              bank, config.mapper_options)

    def compile(self, config: SimConfig, passes=None
                ) -> Tuple[CachedProgram, CommandStream]:
        """Bank 0's program and its compiled stream, memoized under the
        program's own key — a lone transform never pays for a one-bank
        interleave."""
        program = self.program(config, 0)
        return program, cached_stream(program.commands, config.arch,
                                      key=program.key, passes=passes)

    def load_layout(self, values: Sequence[int]) -> List[int]:
        """Bank-resident input image (the Sec. IV.A host protocol leaves
        cyclic inputs bit-reversed; the merged negacyclic mapping takes
        natural order)."""
        if self.kind == "negacyclic":
            return [v % self.q for v in values]
        return bit_reverse_permute(list(values))

    def finalize(self, output: List[int]) -> List[int]:
        """Host-side epilogue: the inverse transforms' 1/N scale."""
        if not self.inverse:
            return output
        from ..arith.modmath import mod_scale_vec
        return mod_scale_vec(output, self.cyclic_params.n_inv, self.q)

    @property
    def cyclic_params(self) -> NttParams:
        """The cyclic parameter view (negacyclic rings embed one)."""
        return self.ring.cyclic if self.kind == "negacyclic" else self.params

    def expected(self, values: Sequence[int]) -> List[int]:
        """Golden model of one bank's *finalized* output."""
        if self.kind == "negacyclic":
            golden = (merged_negacyclic_intt if self.inverse
                      else merged_negacyclic_ntt)
            return golden(values, self.ring)
        if self.inverse:
            return reference_intt(values, self.params)
        return reference_ntt(values, self.params)

    def describe(self) -> str:
        return f"{'inverse ' if self.inverse else ''}{self.kind}"


def _run_bank(spec: TransformSpec, values: Sequence[int], config: SimConfig,
              program: CachedProgram, stream: CommandStream
              ) -> Tuple[List[int], int]:
    """Functional half of one bank's transform: load the host layout,
    replay the compiled stream, read back and finalize, then (with
    ``config.verify``) check against the golden model.  Returns the
    finalized output and the executed butterfly µ-op count."""
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(spec.q)
    bank.load_polynomial(config.base_row, spec.load_layout(values))
    bank.run_stream(stream)
    output = spec.finalize(
        bank.read_polynomial(program.result_base_row, spec.n))
    if config.verify and output != spec.expected(values):
        raise FunctionalMismatch(
            f"PIM {spec.describe()} result wrong for N={spec.n}, "
            f"Nb={config.pim.nb_buffers}")
    return output, bank.cu.bu_ops


def _run_transform(spec: TransformSpec, values: Sequence[int],
                   config: SimConfig) -> NttRunResult:
    """Simulate one transform of ``values`` (natural order) on one bank.

    Returns timing, energy and the finalized data; raises
    :class:`FunctionalMismatch` if the PIM result disagrees with the
    golden model (when ``verify`` is on).
    """
    if len(values) != spec.n:
        raise ValueError(f"expected {spec.n} values, got {len(values)}")
    program, stream = spec.compile(config)
    schedule = cached_schedule(stream, config.timing, config.arch,
                               config.pim.compute_timing(), config.energy,
                               key=program.key)
    output: List[int] = []
    bu_ops = 0
    if config.functional:
        output, bu_ops = _run_bank(spec, values, config, program, stream)
    return NttRunResult(
        n=spec.n, q=spec.q, nb_buffers=config.pim.nb_buffers,
        output=output, schedule=schedule,
        verified=config.functional and config.verify,
        command_count=len(program.commands), bu_ops=bu_ops)
