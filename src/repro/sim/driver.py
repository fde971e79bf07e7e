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
Its timing is one replay of its merged program's IR columns
(:func:`cached_schedule`): the merge recipe builds the IR on a schedule
miss, and the replay drops it, so no merged multi-bank program is
compiled or kept.  Only what a bank runs compiles — each spec's
one-bank stream, which all its banks share — and only for a functional
config, so a timing-only dispatch builds no plan.  Everything a
dispatch derives from its shape alone is memoized per ``(specs, slots,
config)`` as a :class:`DispatchShape`, so a warm dispatch makes one
lookup (:func:`lookup_dispatch`) before its banks run.

:class:`BankStacks` is the one functional path: it runs a looked-up
dispatch's bank groups through :func:`_run_bank` — the one functional
checker — and, for the dispatches a caller announced, stacks banks
*across* dispatches: every bank of every announced dispatch that
replays one compiled stream (one spec, one slot count) joins one
lockstep stack with one load, one plan pass and one check, split at
:data:`STACK_WORD_BUDGET` words.  Each dispatch still gets its own
:class:`~repro.sim.results.DispatchResult`, equal to its run alone;
:func:`_run_dispatch` runs one dispatch alone.  The supported entry
point is :meth:`repro.api.Simulator.run` (with
:meth:`~repro.api.Simulator.expect` announcing what it will run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._cache import ArtifactCache
from ..arith import vector
from ..arith.bitrev import bit_reverse_permute
from ..arith.modmath import mod_mul_vec, mod_scale_vec
from ..arith.roots import NttParams
from ..compile.ir import StreamIR, as_ir, program_key
from ..compile.lower import concat_irs, interleave_irs
from ..dram.energy import EnergyParams, HBM2E_ENERGY
from ..dram.engine import ScheduleResult, TimingEngine
from ..dram.stream import CommandStream, cached_stream, compile_stream
from ..dram.timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams
from ..errors import FunctionalMismatch
from ..mapping.mapper import MapperOptions
from ..mapping.program_cache import (
    CachedProgram,
    cyclic_program,
    negacyclic_program,
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
           "dispatch_recipe", "compile_dispatch", "dispatch_cache_info",
           "clear_dispatch_cache", "Dispatch", "lookup_dispatch",
           "BankStacks", "STACK_WORD_BUDGET"]


# -- schedule cache ------------------------------------------------------------
# The timing engine is deterministic: the same command sequence under the
# same (timing, arch, energy) parameters always produces the
# same schedule.  Keys are *structural*, never identity-based: either
# the command tuple's own content (commands are frozen dataclasses that
# hash and compare by value), or — cheaper — the generating-parameter
# key of a memoized program, which determines the command content
# exactly (that determinism is the premise of the program cache).  A
# merged dispatch hits the same entries on every call via the merge
# recipe over its components' keys (:func:`dispatch_recipe`).
# Cached ScheduleResults are shared between runs — treat them as
# immutable.  Thread-safe via the shared ArtifactCache (locked
# lookup/stats/eviction, simulation outside the lock, one canonical
# ScheduleResult per key).
_MAX_SCHEDULES = 128
_schedule_cache = ArtifactCache(_MAX_SCHEDULES)


def cached_schedule(program, timing, arch, energy, key=None):
    """Memoized timing replay of one command program's IR columns.

    ``program`` is a command program — a command sequence or view, a
    :class:`~repro.compile.ir.StreamIR`, or a compiled
    :class:`~repro.dram.stream.CommandStream` (its IR) — or, with a
    ``key``, a zero-argument callable building one.  A hit builds
    nothing; a miss builds the program, replays its columns through
    the engine's stream loop (bit-identical to ``simulate(commands)``)
    and keeps only the schedule.  The compute commands take the
    engine's default latencies (:class:`~repro.dram.engine.ComputeTiming`,
    the synthesized Sec. VI.B values).  Nothing compiles: the replay
    reads no plan, so a timing-only run builds none, and a merged
    multi-bank program built here is dropped after its replay.

    ``key`` is an exact stand-in for the command content (e.g. a
    :class:`~repro.mapping.program_cache.CachedProgram` key, or a merge
    recipe over such keys) that avoids hashing thousands of commands per
    lookup; when ``None``, the command tuple itself is the key.
    """
    content_key = key if key is not None else program_key(program)

    def simulate():
        ir = as_ir(program() if callable(program) else program)
        return TimingEngine(timing, arch, energy=energy).simulate_stream(ir)

    return _schedule_cache.get_or_create(
        (content_key, timing, arch, energy), simulate)


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
    def program(self, config: SimConfig, slot: int = 0) -> CachedProgram:
        """The (memoized) command program of slot ``slot``, on bank 0:
        every bank running this spec shares it.

        Each slot owns its rows plus, under the out-of-place ablation,
        the mirror region its inter-row stages ping-pong through, so
        back-to-back slots never overlap and their results stay resident.
        """
        regions = 1 if config.mapper_options.in_place_update else 2
        base_row = config.base_row + slot * regions * max(
            1, self.n // config.arch.words_per_row)
        if self.kind == "negacyclic":
            return negacyclic_program(self.ring, config.arch, config.pim,
                                      base_row, inverse=self.inverse)
        ntt = self.params.inverse() if self.inverse else self.params
        return cyclic_program(ntt, config.arch, config.pim, base_row,
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
    N)``: lockstep banks — of one dispatch or of many — that all replay
    ``stream``, the compiled program of one bank whose slot ``s`` lives
    at ``programs[s]``'s rows.  Steps: one uint64 stack of the inputs
    (C speed when the rows are arrays, as the requests' array operands
    are) plus the cyclic layout's bit-reversal gather; one load per
    slot into a bank stack holding only the rows ``stream`` touches;
    one pass of the atom plan over the bank axis; one slice read per
    slot and the inverse 1/N scale on the array; one
    :meth:`TransformSpec.check` of the whole stack; one conversion to
    Python ints, whose lists the responses share.

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


def _slots_key(row: Sequence[CachedProgram]) -> Optional[tuple]:
    """The structural key of one bank's slot programs back to back
    (``None`` if one has no key: consumers then key by content)."""
    if len(row) == 1:
        return row[0].key
    keys = tuple(p.key for p in row)
    return None if None in keys else ("concat", keys, True)


def _bank_stream(row: Sequence[CachedProgram],
                 arch: ArchParams) -> CommandStream:
    """The cached stream of one bank's slot programs back to back."""
    return cached_stream(lambda: concat_irs([p.ir for p in row]), arch,
                         key=_slots_key(row))


def dispatch_recipe(specs: Sequence[TransformSpec], slots: int,
                    config: SimConfig):
    """The merge recipe of one dispatch: ``slots`` back-to-back
    transforms in each of ``len(specs)`` banks, bank ``k`` running
    ``specs[k]`` (kinds and directions may mix across banks).

    Returns ``(programs, key, build)``: the slot programs
    ``programs[bank][slot]`` — each distinct spec looked up once per
    slot, and its one row shared by all its banks — the structural key
    of the merged program and ``build``, a zero-argument callable that
    builds its :class:`~repro.compile.ir.StreamIR`.  Each bank's slots
    concatenate, dropping every PARAM_WRITE after the first; the rows
    then interleave round-robin on the shared bus, row ``k`` on bank
    ``k``.  Both merges run vectorized over IR columns, bit-identical to
    the per-command :func:`~repro.sim.batch.concat_programs` and
    :func:`~repro.sim.multibank.interleave_programs` references.  The
    merged content is a pure function of the rows in bank order, so the
    recipe over their keys is an exact cache key (a one-bank dispatch's
    is its row's), and a cache hit never calls ``build``.
    """
    if not specs or slots < 1:
        raise ValueError("a dispatch needs at least one bank and one slot")
    rows = {spec: [spec.program(config, slot) for slot in range(slots)]
            for spec in dict.fromkeys(specs)}
    programs = [rows[spec] for spec in specs]
    key = (_slots_key(programs[0]) if len(specs) == 1
           else ("interleave", tuple(map(_slots_key, programs))))

    def build() -> StreamIR:
        irs = [concat_irs([p.ir for p in row]) for row in programs]
        # One bank's row is already on bank 0: an interleave would copy it.
        return irs[0] if len(irs) == 1 else interleave_irs(irs)

    return programs, key, build


def compile_dispatch(specs: Sequence[TransformSpec], slots: int,
                     config: SimConfig):
    """Compile one dispatch (see :func:`dispatch_recipe`).

    Returns ``(programs, stream, key)``: the per-bank slot programs, the
    merged stream and its structural key.  A one-bank dispatch's stream
    is what its bank runs, compiled once into the stream cache.  A
    multi-bank stream spans its banks, so it gets no plan (each bank
    runs its own one-bank stream); it compiles on each call and is kept
    nowhere — only the compile surface
    (:func:`repro.compile.compile_request`) asks for one.
    """
    programs, key, build = dispatch_recipe(specs, slots, config)
    if len(specs) == 1:
        stream = _bank_stream(programs[0], config.arch)
    else:
        stream = compile_stream(build(), config.arch)
    return programs, stream, key


# -- dispatch memo -------------------------------------------------------------
# A dispatch's shape — its specs, slot count and config — determines
# everything but its data: the merged schedule, the single-program
# cycles and the per-spec bank groups with their one-spec streams.  The
# memo keeps those per shape, so a warm dispatch makes one lookup
# instead of re-deriving them through the program, stream and schedule
# caches; a miss derives them through those caches (:func:`_derive_shape`).
# Specs compare by value, their parameter objects by ``(n, q, root)``,
# so equal transforms hit however their parameters were built.  Entries
# are shared between runs: treat them as immutable.
_MAX_DISPATCHES = 64
_dispatch_cache = ArtifactCache(_MAX_DISPATCHES)


@dataclass(frozen=True)
class BankGroup:
    """The banks of one dispatch that run the same spec: ``members``
    (bank indices, ascending), the one row of slot programs they share
    and its compiled stream, which the stack replays for all of them."""

    spec: TransformSpec
    members: Tuple[int, ...]
    programs: Tuple[CachedProgram, ...]
    stream: CommandStream


@dataclass(frozen=True)
class DispatchShape:
    """What a dispatch derives from ``(specs, slots, config)`` alone:
    the merged schedule, the cycles of bank 0's first transform run
    alone, and — for a functional config — the bank groups, one per
    distinct spec in first-bank order, each holding the one-bank stream
    its banks replay (a timing-only shape holds no stream)."""

    schedule: ScheduleResult
    single_cycles: int
    groups: Tuple[BankGroup, ...]


def _spec_groups(specs: Sequence[TransformSpec]) -> Dict[TransformSpec,
                                                        List[int]]:
    """The banks of each distinct spec, in first-bank order."""
    members_of: Dict[TransformSpec, List[int]] = {}
    for bank, spec in enumerate(specs):
        members_of.setdefault(spec, []).append(bank)
    return members_of


def _derive_shape(specs: Sequence[TransformSpec], slots: int,
                  config: SimConfig) -> DispatchShape:
    """A :class:`DispatchShape` derived anew through the program, stream
    and schedule caches.

    The schedules replay IR columns: the merged program's, built from
    its recipe on a schedule miss and dropped after the replay, and
    bank 0's first program's.  Only a functional config compiles, and
    only what its banks run: each bank group's one-bank stream."""
    programs, key, build = dispatch_recipe(specs, slots, config)
    groups = []
    if config.functional:
        # A group replays its spec's one stream over a bank stack, which
        # equals replaying the round-robin merge command by command.
        for spec, members in _spec_groups(specs).items():
            row = programs[members[0]]
            groups.append(BankGroup(spec, tuple(members), tuple(row),
                                    _bank_stream(row, config.arch)))
    # The schedule replays the merged IR, built on a miss, or a one-bank
    # dispatch's group stream, so a batch's concat is built once.
    source = groups[0].stream if groups and len(specs) == 1 else build
    schedule = cached_schedule(source, config.timing, config.arch,
                               config.energy, key=key)
    first = programs[0][0]
    single = schedule if len(specs) * slots == 1 else cached_schedule(
        first.ir, config.timing, config.arch, config.energy, key=first.key)
    return DispatchShape(schedule, single.total_cycles, tuple(groups))


def dispatch_cache_info() -> dict:
    """Dispatch-memo statistics (mirrors :func:`schedule_cache_info`)."""
    return _dispatch_cache.info()


def clear_dispatch_cache() -> None:
    """Empty the dispatch memo and reset statistics (test isolation)."""
    _dispatch_cache.clear()


@dataclass(frozen=True)
class Dispatch:
    """One dispatch bound to its memoized shape: ``inputs[bank][slot]``
    (natural order) runs through the transform of bank ``bank``'s spec
    (from :func:`lookup_dispatch`)."""

    inputs: Sequence
    banks: int
    slots: int
    shape: DispatchShape


def lookup_dispatch(inputs, specs: Sequence[TransformSpec],
                    config: SimConfig) -> Dispatch:
    """Bind ``inputs[bank][slot]`` to the memoized shape of its
    dispatch, ``specs[bank]`` per bank: one dispatch-memo lookup, which
    derives the shape on a miss (raises :class:`ValueError` for a
    dispatch with no bank or no slot, or a spec count that does not
    match the banks)."""
    banks = len(inputs)
    if len(specs) != banks:
        raise ValueError(f"got {len(specs)} per-bank specs for {banks} banks")
    slots = len(inputs[0]) if inputs else 0
    specs = tuple(specs)
    shape = _dispatch_cache.get_or_create(
        (specs, slots, config), lambda: _derive_shape(specs, slots, config))
    return Dispatch(inputs, banks, slots, shape)


#: Words (banks x slots x N) one stack of :class:`BankStacks` holds at
#: most: a longer run of same-stream bank groups splits between groups
#: at this budget, so a long offline session never builds one multi-GB
#: transient stack (a single group above it still runs whole, as it
#: would alone).  From a sweep of stack widths (CHANGES.md): the cost
#: per bank falls with width to its minimum near 2^15 words and climbs
#: past 2^16, where the stack outgrows the cache (at 2^17 words an
#: N=512 bank costs twice what it does at 2^15).  2^16 keeps every
#: stack of the serving benchmarks whole, where a split would leave a
#: narrow, call-bound remainder.
STACK_WORD_BUDGET = 1 << 16


def _budget_chunks(entries: list, bank_words: int):
    """``(token, bank inputs)`` entries split into consecutive runs of
    at most :data:`STACK_WORD_BUDGET` words (a larger entry alone)."""
    chunk, words = [], 0
    for entry in entries:
        size = len(entry[1]) * bank_words
        if chunk and words + size > STACK_WORD_BUDGET:
            yield chunk
            chunk, words = [], 0
        chunk.append(entry)
        words += size
    yield chunk


class BankStacks:
    """Bank runs shared by the dispatches a caller announces.

    :meth:`announce` names the dispatches that later :meth:`run` calls
    will make, each under a token (any object, told apart by identity:
    requests hash by content).  The first run that needs one
    compiled stream — one spec, one slot count — runs the banks of
    every announced dispatch that replays it through :func:`_run_bank`
    as one stack per :data:`STACK_WORD_BUDGET` words: one load, one plan
    pass, one check and one conversion to Python ints.  The other
    dispatches' rows wait, with their banks' share of the butterfly
    count (exact: every bank of a stack runs the same plan), until
    their own runs take them.  A stack that raises keeps nothing: its
    dispatches run alone, each raising what it raises alone.  A
    dispatch run without an announcement, or run again, runs alone.
    """

    def __init__(self):
        #: The config the announced dispatches run under.
        self._config: Optional[SimConfig] = None
        #: Announced banks not yet stacked: ``(spec, slots) ->
        #: {id(token): (token, [bank inputs])}``.  Each entry holds its
        #: token, so no other object can take its id meanwhile.
        self._pending: Dict[tuple, Dict[int, tuple]] = {}
        #: Stacked rows not yet taken: ``(id(token), spec) -> (token,
        #: rows, bu_ops)``.
        self._ready: Dict[tuple, tuple] = {}

    def announce(self, dispatches: Sequence[tuple],
                 config: SimConfig) -> None:
        """Announce ``(token, (specs, inputs))`` pairs — ``inputs[bank]
        [slot]`` through ``specs[bank]``, as :func:`lookup_dispatch`
        takes them — to run under ``config``, in place of any earlier
        announcement, whose untaken rows go."""
        self._config, self._pending, self._ready = config, {}, {}
        for token, (specs, inputs) in dispatches:
            slots = len(inputs[0]) if inputs else 0
            for spec, members in _spec_groups(specs).items():
                self._pending.setdefault((spec, slots), {})[id(token)] = (
                    token, [inputs[bank] for bank in members])

    def run(self, token, dispatch: Dispatch,
            config: SimConfig) -> DispatchResult:
        """Simulate one looked-up dispatch (:func:`lookup_dispatch`),
        announced under ``token`` or not.

        Returns its timing, energy and finalized outputs (bank-major),
        bit-identical to its run alone.  A functional run checks every
        output with :meth:`TransformSpec.check` and raises
        :class:`FunctionalMismatch` on a failure; a timing-only run
        (``config.functional`` off) has no outputs and stays
        unverified.  Only a run under the announced config (the same
        object) stacks."""
        functional = config.functional
        rows = [None] * dispatch.banks if functional else []
        bu_ops = 0
        stacked = config is self._config and (self._pending or self._ready)
        for group in dispatch.shape.groups:
            taken = (self._take(token, group, dispatch.slots, config)
                     if stacked else None)
            outputs, ops = taken or _run_bank(
                group.spec, [dispatch.inputs[bank] for bank in group.members],
                config, group.programs, group.stream)
            for bank, output in zip(group.members, outputs):
                rows[bank] = output
            bu_ops += ops
        return DispatchResult(
            banks=dispatch.banks, slots=dispatch.slots,
            schedule=dispatch.shape.schedule,
            single_cycles=dispatch.shape.single_cycles,
            verified=functional,
            outputs=[output for bank_outputs in rows
                     for output in bank_outputs],
            bu_ops=bu_ops)

    def _take(self, token, group: BankGroup, slots: int,
              config: SimConfig) -> Optional[Tuple[list, int]]:
        """``token``'s stacked rows of ``group``, stacking the group's
        stream first if ``token`` waits on it; ``None`` if there are
        none (the group then runs alone)."""
        spec, key = group.spec, (group.spec, slots)
        if id(token) in self._pending.get(key, ()):
            entries = list(self._pending.pop(key).values())
            for chunk in _budget_chunks(entries, slots * spec.n):
                try:
                    outputs, ops = _run_bank(
                        spec, [row for _, banks in chunk for row in banks],
                        config, group.programs, group.stream)
                except Exception:
                    continue  # these dispatches run alone
                per_bank = ops // len(outputs)
                rows = iter(outputs)
                for other, banks in chunk:
                    self._ready[(id(other), spec)] = (
                        other, [next(rows) for _ in banks],
                        per_bank * len(banks))
        taken = self._ready.pop((id(token), spec), None)
        return None if taken is None else taken[1:]


def _run_dispatch(inputs, specs: Sequence[TransformSpec],
                  config: SimConfig) -> DispatchResult:
    """Simulate one dispatch alone: ``inputs[bank][slot]`` (natural
    order) runs through ``specs[bank]``'s transform."""
    return BankStacks().run(None, lookup_dispatch(inputs, specs, config),
                            config)
