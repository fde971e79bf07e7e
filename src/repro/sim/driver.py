"""One simulated PIM bank: the paper's Python MC model + functional checker.

Mirrors Sec. VI.A: every NTT invocation is (a) lowered into DRAM
commands via the mapping algorithm and (b) run through both the timing
engine and the functional bank model, verifying the data result against
the golden transform while collecting cycles/energy.  The online check
is Freivalds' (:meth:`TransformSpec.check`): dot products against the
golden transform's transpose, O(N) per transform.

Host protocol (Sec. IV.A): the input polynomial is already in memory in
bit-reversed order (bit reversal is the host's job, as in MeNTT and
CryptoPIM); the NTT request passes only (N, q, omega, address); the
result overwrites the input, in natural order.

A :class:`TransformSpec` names one transform kind — forward or inverse
cyclic NTT, or the merged negacyclic transform — and owns its program,
input layout, host-side 1/N epilogue and golden model.  Every run is
one dispatch of ``banks x slots`` transforms: a lone transform is 1x1,
a one-bank batch 1xk (slots back to back in one bank), a multi-bank
dispatch kx1 (one bank each on the shared command bus).
:func:`compile_dispatch` builds its one merged stream and
:func:`_run_dispatch` times it, runs it through :func:`_run_bank` — the
one functional checker, which the lockstep banks of one spec pass
through as one stacked pass with one check — and returns one
:class:`~repro.sim.results.DispatchResult`.  Everything a dispatch
derives from its shape alone is memoized per ``(specs, slots, config)``
as a :class:`DispatchShape`, so a warm dispatch makes one lookup before
its banks run.  The supported entry point is
:meth:`repro.api.Simulator.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .._cache import ArtifactCache
from ..arith import vector
from ..arith.bitrev import bit_reverse_permute
from ..arith.modmath import mod_mul_vec, mod_scale_vec
from ..arith.roots import NttParams
from ..compile.lower import concat_irs, interleave_irs
from ..dram.energy import EnergyParams, HBM2E_ENERGY
from ..dram.engine import ScheduleResult, TimingEngine
from ..dram.stream import CommandStream, cached_stream
from ..dram.timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from ..errors import FunctionalMismatch
from ..mapping.mapper import MapperOptions
from ..mapping.program_cache import (
    CachedProgram,
    cyclic_program,
    negacyclic_program,
    programs_recipe_key,
)
from ..ntt.merged import merged_negacyclic_intt, merged_negacyclic_ntt
from ..ntt.negacyclic import NegacyclicParams, psi_power_table
from ..ntt.reference import intt as reference_intt
from ..ntt.reference import ntt as reference_ntt
from ..pim.bank_pim import PimBank, touched_rows
from ..pim.params import PimParams
from .results import DispatchResult

__all__ = ["SimConfig", "TransformSpec", "cached_schedule",
           "schedule_cache_info", "clear_schedule_cache",
           "compile_dispatch", "dispatch_cache_info",
           "clear_dispatch_cache"]


# -- schedule cache ------------------------------------------------------------
# The timing engine is deterministic: the same command sequence under the
# same (timing, arch, compute, energy) parameters always produces the
# same schedule.  Keys are *structural*, never identity-based: either
# the command tuple's own content (commands are frozen dataclasses that
# hash and compare by value), or — cheaper — the generating-parameter
# key of a memoized program, which determines the command content
# exactly (that determinism is the premise of the program cache).  A
# merged dispatch hits the same entries on every call via the merge
# recipe over its components' keys (:func:`compile_dispatch`).
# Cached ScheduleResults are shared between runs — treat them as
# immutable.  Thread-safe via the shared ArtifactCache (locked
# lookup/stats/eviction, simulation outside the lock, one canonical
# ScheduleResult per key).
_MAX_SCHEDULES = 128
_schedule_cache = ArtifactCache(_MAX_SCHEDULES)


def cached_schedule(commands, timing, arch, compute, energy, key=None):
    """Memoized stream-compiled ``TimingEngine`` simulation.

    ``commands`` is a command program or an already-compiled
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
        # (IR-built streams are lazy; the timing loop never needs them).
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
    functional: bool = True   # set False for timing-only sweeps (faster)
    mapper_options: MapperOptions = MapperOptions()

    def at_frequency(self, freq_mhz: float) -> "SimConfig":
        """Fig. 8 helper: same machine at a different clock."""
        return replace(self, timing=self.timing.retimed(freq_mhz))


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

    @property
    def n(self) -> int:
        return self.ring.n if self.kind == "negacyclic" else self.params.n

    @property
    def q(self) -> int:
        return self.ring.q if self.kind == "negacyclic" else self.params.q

    # -- per-bank artifacts ------------------------------------------------------
    def program(self, config: SimConfig, bank: int,
                slot: int = 0) -> CachedProgram:
        """The (memoized) command program of one bank's slot ``slot``.

        Each slot owns its rows plus, under the out-of-place ablation,
        the mirror region its inter-row stages ping-pong through, so
        back-to-back slots never overlap and their results stay resident.
        """
        regions = 1 if config.mapper_options.in_place_update else 2
        base_row = config.base_row + slot * regions * max(
            1, self.n // config.arch.words_per_row)
        if self.kind == "negacyclic":
            return negacyclic_program(self.ring, config.arch, config.pim,
                                      base_row, bank, inverse=self.inverse)
        ntt = self.params.inverse() if self.inverse else self.params
        return cyclic_program(ntt, config.arch, config.pim, base_row, bank,
                              config.mapper_options)

    def load_layout(self, values: np.ndarray) -> np.ndarray:
        """Bank-resident input image of ``(..., N)`` uint64 inputs (the
        Sec. IV.A host protocol leaves cyclic inputs bit-reversed; the
        merged negacyclic mapping takes natural order)."""
        if self.kind == "negacyclic":
            return values
        return bit_reverse_permute(values)

    def finalize(self, output):
        """Host-side epilogue: the inverse transforms' 1/N scale (a list
        of ints, or a uint64 array of any leading shape)."""
        if not self.inverse:
            return output
        return mod_scale_vec(output, self.cyclic_params.n_inv, self.q)

    @property
    def cyclic_params(self) -> NttParams:
        """The cyclic parameter view (negacyclic rings embed one)."""
        return self.ring.cyclic if self.kind == "negacyclic" else self.params

    def expected(self, values):
        """Golden model of the *finalized* output ``M·x``: a list of ints
        for a list, a uint64 array for a uint64 array of any leading
        shape.  ``M`` is this transform's matrix from natural-order
        inputs to finalized outputs (layout, ψ twist and 1/N included);
        the tests hold the bank to this oracle, and :meth:`check`
        verifies runs against its transpose."""
        if self.kind == "negacyclic":
            golden = (merged_negacyclic_intt if self.inverse
                      else merged_negacyclic_ntt)
            return golden(values, self.ring)
        if self.inverse:
            return reference_intt(values, self.params)
        return reference_ntt(values, self.params)

    def check(self, inputs, outputs) -> bool:
        """Freivalds' check that ``outputs`` are the finalized transforms
        of the natural-order ``inputs`` (matching ``(..., N)`` stacks, or
        one polynomial each): every output word is below ``q`` and
        ``r·y ≡ (Mᵀ·r)·x (mod q)`` for every row and each of this
        spec's fixed ``r`` (:class:`~repro.arith.vector.FreivaldsCheck`).

        O(K·N) per transform, with ``Mᵀ·r`` built once per (kind,
        direction, N, q, root); a warm check runs no NTT.  For prime
        ``q`` a wrong output passes with probability at most
        ``(q-1)^-K <= 2^-60``, and one wrong word never passes.  ``r``
        is fixed per spec, so the bound does not hold against outputs
        chosen adversarially.
        """
        return self._freivalds().accepts(inputs, outputs)

    def _freivalds(self) -> vector.FreivaldsCheck:
        """The memoized check material: rows ``r`` and ``v = Mᵀ·r``."""
        root = self.ring.psi if self.kind == "negacyclic" else self.params.omega
        label = f"{self.describe()} N={self.n} q={self.q} root={root}"
        return vector.freivalds_check(label, self.n, self.q,
                                      self._transposed)

    def _transposed(self, rows: np.ndarray):
        """``Mᵀ·r`` for each row of a ``(K, N)`` uint64 stack: one array
        golden call on the lanes, else one scalar call per row.  ``Mᵀ``
        costs one transform (the transposition principle): the cyclic
        ``W`` and ``W⁻¹/N`` are symmetric, and the merged negacyclic
        maps factor into them, the bit-reversal ``P`` and the ψ-power
        diagonal ``D``."""
        def transpose(values):
            if self.kind == "ntt":
                return self.expected(values)
            ring = self.ring
            if self.inverse:  # M = D⁻¹·(W⁻¹/N)·P, so Mᵀ = P·(W⁻¹/N)·D⁻¹
                return bit_reverse_permute(reference_intt(
                    _psi_twist(values, ring.psi_inv, ring), ring.cyclic))
            # M = P·W·D, so Mᵀ = D·W·P
            return _psi_twist(reference_ntt(bit_reverse_permute(values),
                                            ring.cyclic), ring.psi, ring)

        if vector.lanes_supported(self.q):
            return transpose(rows)
        return [transpose(row) for row in rows.tolist()]

    def describe(self) -> str:
        return f"{'inverse ' if self.inverse else ''}{self.kind}"


def _psi_twist(values, base: int, ring: NegacyclicParams):
    """``values[..., j] · base^j mod q``: on the lanes for a uint64
    array, in Python ints for a list."""
    if vector.is_array(values):
        return vector.mod_mul_arr(
            values, vector.omega_power_array(ring.n, ring.q, base), ring.q)
    return mod_mul_vec(values, psi_power_table(base, ring.n, ring.q), ring.q)


def _mismatch(spec: TransformSpec, config: SimConfig) -> FunctionalMismatch:
    return FunctionalMismatch(
        f"PIM {spec.describe()} result wrong for N={spec.n}, "
        f"Nb={config.pim.nb_buffers}")


def _run_bank(spec: TransformSpec, inputs, config: SimConfig,
              programs: Sequence[CachedProgram],
              stream: CommandStream) -> Tuple[list, int]:
    """The one functional checker: ``banks x slots`` ``spec`` transforms.

    ``inputs`` holds natural-order polynomials shaped ``(banks, slots,
    N)``: lockstep banks that all replay ``stream``, the compiled
    program of one bank whose slot ``s`` lives at ``programs[s]``'s
    rows.  Steps: one uint64 stack of the inputs (C speed when the rows
    are arrays, as the requests' array operands are) plus the cyclic
    layout's bit-reversal gather; one load per slot into a bank stack holding
    only the rows ``stream`` touches; one pass of the atom plan over
    the bank axis; one slice read per slot and the inverse 1/N scale on
    the array; one :meth:`TransformSpec.check` of the whole stack; one
    conversion to Python ints, whose lists the responses share.

    Streams a stack cannot run — Nb=1 lane plans, moduli without lane
    support, programs with no plan — run bank by bank on full single
    banks instead.  Returns the
    finalized outputs, nested like ``inputs``, and the executed
    butterfly µ-op count; a wrong result raises
    :class:`FunctionalMismatch`.
    """
    values = vector.uint64_lanes(inputs, spec.q)
    bank = PimBank(config.arch, config.pim, stack=values.shape[:-2],
                   rows=touched_rows(stream))
    bank.set_parameters(spec.q)
    if not bank.runs_atom_plan(stream):
        return _run_bank_by_bank(spec, values, config, programs, stream)
    layout = spec.load_layout(values)
    for slot, program in enumerate(programs):
        bank.load_polynomial(program.base_row, layout[..., slot, :])
    bank.run_stream(stream)
    outputs = spec.finalize(np.stack(
        [bank.read_polynomial(program.result_base_row, spec.n)
         for program in programs], axis=-2))
    if not spec.check(values, outputs):
        raise _mismatch(spec, config)
    return outputs.tolist(), bank.cu.bu_ops


def _run_bank_by_bank(spec: TransformSpec, values: np.ndarray,
                      config: SimConfig, programs: Sequence[CachedProgram],
                      stream: CommandStream) -> Tuple[list, int]:
    """:func:`_run_bank` one full single bank at a time, with lists of
    ints through host I/O."""
    banks: List[List[List[int]]] = []
    bu_ops = 0
    for bank_values in values:
        bank = PimBank(config.arch, config.pim)
        bank.set_parameters(spec.q)
        for image, program in zip(spec.load_layout(bank_values), programs):
            bank.load_polynomial(program.base_row, image)
        bank.run_stream(stream)
        outputs = [spec.finalize(
            bank.read_polynomial(program.result_base_row, spec.n))
            for program in programs]
        if not spec.check(bank_values, outputs):
            raise _mismatch(spec, config)
        banks.append(outputs)
        bu_ops += bank.cu.bu_ops
    return banks, bu_ops


def compile_dispatch(specs: Sequence[TransformSpec], slots: int,
                     config: SimConfig):
    """Compile one dispatch: ``slots`` back-to-back transforms in each of
    ``len(specs)`` banks, bank ``k`` running ``specs[k]`` (kinds and
    directions may mix across banks).

    Returns ``(programs, stream, key)``: the per-bank slot programs
    (``programs[bank][slot]``), the merged stream and the structural key
    it is memoized under.  Each bank's slots concatenate, dropping every
    PARAM_WRITE after the first; the banks then interleave round-robin
    on the shared bus.  Both merges run vectorized over IR columns,
    bit-identical to the per-command :func:`~repro.sim.batch.concat_programs`
    and :func:`~repro.sim.multibank.interleave_programs` references, and
    lazily: the merged content is a pure function of the component
    programs, so the merge recipe over their keys is an exact cache key,
    and warm shapes skip the merge work entirely.  A lone program is
    keyed by its own key.
    """
    if not specs or slots < 1:
        raise ValueError("a dispatch needs at least one bank and one slot")
    programs = [[spec.program(config, bank, slot) for slot in range(slots)]
                for bank, spec in enumerate(specs)]
    keys = [row[0].key if slots == 1
            else programs_recipe_key("concat", row, True)
            for row in programs]
    key = keys[0] if len(keys) == 1 else ("interleave", tuple(keys))
    stream = cached_stream(
        lambda: interleave_irs([concat_irs([p.ir for p in row])
                                for row in programs]),
        config.arch, key=key)
    return programs, stream, key


# -- dispatch memo -------------------------------------------------------------
# A dispatch's shape — its specs, slot count and config — determines
# everything but its data: the programs, the merged stream and schedule,
# the single-program cycles and the per-spec bank groups with their
# one-spec streams.  The memo keeps those per shape, so a warm dispatch
# makes one lookup instead of re-deriving them through the program,
# stream and schedule caches; a miss derives them exactly as a cold run
# always has (same lookups, same order).  Specs compare by value, their
# parameter objects by ``(n, q, root)``, so equal transforms hit however
# their parameters were built.  Entries are shared between runs: treat
# them as immutable.
_MAX_DISPATCHES = 64
_dispatch_cache = ArtifactCache(_MAX_DISPATCHES)


@dataclass(frozen=True)
class BankGroup:
    """The banks of one dispatch that run the same spec: ``members``
    (bank indices, ascending), the slot programs and the compiled
    stream of one bank, which the stack replays for all of them."""

    spec: TransformSpec
    members: Tuple[int, ...]
    programs: Tuple[CachedProgram, ...]
    stream: CommandStream


@dataclass(frozen=True)
class DispatchShape:
    """What a dispatch derives from ``(specs, slots, config)`` alone:
    the merged schedule, the cycles of bank 0's first transform run
    alone, and — for a functional config — the bank groups, one per
    distinct spec in first-bank order."""

    schedule: ScheduleResult
    single_cycles: int
    groups: Tuple[BankGroup, ...]


def _derive_shape(specs: Sequence[TransformSpec], slots: int,
                  config: SimConfig) -> DispatchShape:
    """A :class:`DispatchShape` derived anew through the program, stream
    and schedule caches."""
    programs, stream, key = compile_dispatch(specs, slots, config)
    compute = config.pim.compute_timing()
    schedule = cached_schedule(stream, config.timing, config.arch, compute,
                               config.energy, key=key)
    first = programs[0][0]
    single = schedule if len(specs) * slots == 1 else cached_schedule(
        first.ir, config.timing, config.arch, compute, config.energy,
        key=first.key)
    groups = []
    if config.functional:
        # The banks of one spec run programs that differ only in their
        # bank index, so a group replays bank 0's compiled stream once
        # over a bank stack, equivalent to replaying the round-robin
        # merge command by command.  One bank checks on its own stream.
        members_of = {}
        for bank, spec in enumerate(specs):
            members_of.setdefault(spec, []).append(bank)
        for spec, members in members_of.items():
            if len(specs) == 1:
                group_programs, group_stream = programs[0], stream
            else:
                (group_programs,), group_stream, _ = compile_dispatch(
                    [spec], slots, config)
            groups.append(BankGroup(spec, tuple(members),
                                    tuple(group_programs), group_stream))
    return DispatchShape(schedule, single.total_cycles, tuple(groups))


def dispatch_cache_info() -> dict:
    """Dispatch-memo statistics (mirrors :func:`schedule_cache_info`)."""
    return _dispatch_cache.info()


def clear_dispatch_cache() -> None:
    """Empty the dispatch memo and reset statistics (test isolation)."""
    _dispatch_cache.clear()


def _run_dispatch(inputs, specs: Sequence[TransformSpec],
                  config: SimConfig) -> DispatchResult:
    """Simulate one dispatch: ``inputs[bank][slot]`` (natural order) runs
    through ``specs[bank]``'s transform.

    Returns timing, energy and the finalized outputs (bank-major); every
    output stays bit-identical to its standalone run.  A functional run
    checks every output with :meth:`TransformSpec.check` and raises
    :class:`FunctionalMismatch` on a failure; a timing-only run
    (``config.functional`` off) has no outputs and stays unverified.
    """
    banks = len(inputs)
    if len(specs) != banks:
        raise ValueError(f"got {len(specs)} per-bank specs for {banks} banks")
    slots = len(inputs[0]) if inputs else 0
    specs = tuple(specs)
    shape = _dispatch_cache.get_or_create(
        (specs, slots, config), lambda: _derive_shape(specs, slots, config))

    outputs: List[List[int]] = []
    bu_ops = 0
    if config.functional:
        per_bank = [None] * banks
        for group in shape.groups:
            rows, ops = _run_bank(group.spec,
                                  [inputs[b] for b in group.members],
                                  config, group.programs, group.stream)
            for bank, bank_outputs in zip(group.members, rows):
                per_bank[bank] = bank_outputs
            bu_ops += ops
        outputs = [output for bank_outputs in per_bank
                   for output in bank_outputs]
    return DispatchResult(
        banks=banks, slots=slots, schedule=shape.schedule,
        single_cycles=shape.single_cycles,
        verified=config.functional,
        outputs=outputs, bu_ops=bu_ops)
