"""Batched NTT execution in one bank (extension).

An FHE ciphertext operation needs many NTTs; besides spreading them over
banks (:mod:`repro.sim.multibank`), a single bank can run them
back-to-back.  Batching amortizes the parameter write and lets the MC
overlap the tail of one transform with the head of the next (the final
PRE of polynomial *i* and the first reads of polynomial *i+1* pipeline
on the bus).  :func:`run_batch` measures steady-state throughput per
transform vs the single-shot latency.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Sequence

from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams
from ..dram.commands import Command, CommandType
from ..dram.engine import ScheduleResult
from ..dram.stream import cached_stream
from ..errors import FunctionalMismatch
from ..mapping.program_cache import cyclic_program, programs_recipe_key
from ..ntt.reference import ntt as reference_ntt
from ..pim.bank_pim import PimBank
from .driver import SimConfig, cached_schedule

__all__ = ["BatchResult", "compile_batch", "concat_programs"]


def concat_programs(programs: Sequence[List[Command]],
                    skip_leading_param: bool = True) -> List[Command]:
    """Concatenate per-polynomial programs with dependency re-indexing.

    With ``skip_leading_param`` the PARAM_WRITE of every program after
    the first is dropped — the modulus registers are already loaded.
    """
    merged: List[Command] = []
    for prog_index, program in enumerate(programs):
        offset_map = {}
        for i, cmd in enumerate(program):
            if (skip_leading_param and prog_index > 0 and i == 0
                    and cmd.ctype is CommandType.PARAM_WRITE):
                continue
            new_deps = tuple(offset_map[d] for d in cmd.deps
                             if d in offset_map)
            merged.append(dataclasses.replace(cmd, deps=new_deps))
            offset_map[i] = len(merged) - 1
    return merged


@dataclass
class BatchResult:
    """Timing of a back-to-back batch in one bank."""

    count: int
    schedule: ScheduleResult
    single_cycles: int
    verified: bool
    #: Per-polynomial transform outputs (populated on functional runs).
    outputs: List[List[int]] = dataclasses.field(default_factory=list)
    #: Executed butterfly µ-ops across the batch (functional runs).
    bu_ops: int = 0

    @property
    def cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def cycles_per_transform(self) -> float:
        return self.cycles / self.count

    @property
    def amortization(self) -> float:
        """single-shot cycles / steady-state cycles-per-transform
        (>1 means batching helps)."""
        return self.single_cycles / self.cycles_per_transform


def compile_batch(params: NttParams, count: int, config: SimConfig,
                  passes=None):
    """Compile the ``count``-deep back-to-back program for one shape.

    Returns ``(programs, merged_stream, merged_key, rows_each)``.
    Memoized end to end, so repeated batches of one shape compile
    once.  With the ``interleave``
    (merge) pass enabled the concat runs vectorized over IR columns
    (:func:`repro.compile.concat_irs`); toggled off, the legacy
    per-command :func:`concat_programs` runs — both bit-identical.
    """
    if count < 1:
        raise ValueError("need at least one polynomial")
    rows_each = max(1, params.n // config.arch.words_per_row)
    # Per-slot programs differ only in base row; each is memoized, so a
    # repeated batch (or a bigger batch reusing earlier slots) maps for free.
    programs = [
        cyclic_program(params, config.arch, config.pim,
                       config.base_row + i * rows_each,
                       options=config.mapper_options)
        for i in range(count)
    ]
    # The merged list's content is a pure function of the component
    # programs, so the merge recipe over their keys is an exact (and
    # cheap) cache key — and the concat runs lazily, only when the
    # stream cache misses: the batch compiles to a stream once per
    # shape and warm shapes skip the merge work entirely.
    from ..compile.lower import concat_irs
    from ..compile.passes import normalize_passes

    merged_key = programs_recipe_key("concat", programs, True)
    if "interleave" in normalize_passes(passes):
        def merge():
            return concat_irs([p.commands for p in programs])
    else:
        def merge():
            return concat_programs([p.commands for p in programs])
    merged_stream = cached_stream(merge, config.arch, key=merged_key,
                                  passes=passes)
    return programs, merged_stream, merged_key, rows_each


def _run_batch(inputs: Sequence[Sequence[int]], params: NttParams,
               config: SimConfig | None = None) -> BatchResult:
    """Run ``len(inputs)`` NTTs back-to-back in one bank.

    Each polynomial occupies its own row region so results stay resident
    (an FHE pipeline reads them later).
    """
    config = config or SimConfig()
    count = len(inputs)
    programs, merged_stream, merged_key, rows_each = compile_batch(
        params, count, config)
    compute = config.pim.compute_timing()
    schedule = cached_schedule(merged_stream, config.timing, config.arch,
                               compute, config.energy, key=merged_key)
    single = cached_schedule(programs[0].commands, config.timing, config.arch,
                             compute, config.energy, key=programs[0].key)

    verified = False
    outputs: List[List[int]] = []
    bu_ops = 0
    if config.functional:
        bank = PimBank(config.arch, config.pim)
        bank.set_parameters(params.q)
        for i, values in enumerate(inputs):
            bank.load_polynomial(config.base_row + i * rows_each,
                                 bit_reverse_permute(list(values)))
        bank.run_stream(merged_stream)
        bu_ops = bank.cu.bu_ops
        outputs = [bank.read_polynomial(config.base_row + i * rows_each,
                                        params.n)
                   for i in range(count)]
        if config.verify:
            for i, values in enumerate(inputs):
                if outputs[i] != reference_ntt(values, params):
                    raise FunctionalMismatch(f"batch element {i} wrong")
            verified = True
    return BatchResult(count=count, schedule=schedule,
                       single_cycles=single.total_cycles, verified=verified,
                       outputs=outputs, bu_ops=bu_ops)
