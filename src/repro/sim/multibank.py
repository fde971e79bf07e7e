"""Bank-level parallelism (Sec. VI.A / Conclusion).

FHE workloads run many independent NTTs (one per RNS limb / ciphertext
polynomial); the paper's architecture runs one per bank.  All banks
share the command bus (one command per cycle) while row/column timing
and the CUs are per-bank, so speedup is near-linear until the command
bus saturates — which this module lets us measure.

The merge is *kind-generic*: a :class:`~repro.sim.driver.TransformSpec`
names which per-bank program every bank runs — forward or inverse
cyclic NTT, or the merged negacyclic transform.  Functionally, the
banks of one spec step through the same program in lockstep, so each
spec group runs as one stacked pass of the checker a lone transform
uses (:func:`~repro.sim.driver._run_bank`, ``banks x 1``), with one
golden check per group.  That one abstraction is what lets the serving
layer's batching scheduler coalesce negacyclic and inverse traffic
exactly like forward cyclic NTTs.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..dram.commands import Command
from ..dram.engine import ScheduleResult
from ..dram.stream import cached_stream
from ..mapping.program_cache import programs_recipe_key
# Unused here, but bound on purpose: perfbench/smoke.py asserts the
# benchmark tracer finds this alias.
from ..ntt.reference import intt as reference_intt  # noqa: F401
from .driver import SimConfig, TransformSpec, _run_bank, cached_schedule

__all__ = ["TransformSpec", "interleave_programs", "compile_multibank",
           "MultiBankResult"]


def interleave_programs(programs: Sequence[List[Command]]) -> List[Command]:
    """Round-robin merge of per-bank programs onto the shared bus.

    Dependency indices are rewritten from per-program to merged
    positions.  Round-robin models an MC draining per-bank queues
    fairly, which is what gives each bank steady command-bus share.
    """
    merged: List[Command] = []
    index_maps = [dict() for _ in programs]
    cursors = [0] * len(programs)
    remaining = sum(len(p) for p in programs)
    while remaining:
        for bank_idx, program in enumerate(programs):
            cur = cursors[bank_idx]
            if cur >= len(program):
                continue
            cmd = program[cur]
            new_deps = tuple(index_maps[bank_idx][d] for d in cmd.deps)
            merged.append(dataclasses.replace(cmd, deps=new_deps))
            index_maps[bank_idx][cur] = len(merged) - 1
            cursors[bank_idx] = cur + 1
            remaining -= 1
    return merged


@dataclasses.dataclass
class MultiBankResult:
    """Outcome of running one transform per bank concurrently."""

    banks: int
    schedule: ScheduleResult
    single_bank_cycles: int
    verified: bool
    #: Per-bank transform outputs (populated on functional runs).
    outputs: List[List[int]] = dataclasses.field(default_factory=list)
    #: Executed butterfly µ-ops across all banks (functional runs).
    bu_ops: int = 0

    @property
    def cycles(self) -> int:
        return self.schedule.total_cycles

    @property
    def latency_us(self) -> float:
        return self.schedule.latency_us

    @property
    def speedup(self) -> float:
        """Throughput speedup over running the same work serially on one
        bank: (banks * T1) / T_parallel."""
        return self.banks * self.single_bank_cycles / self.cycles

    @property
    def efficiency(self) -> float:
        """Fraction of ideal linear scaling achieved."""
        return self.speedup / self.banks


def compile_multibank(specs: Sequence[TransformSpec], config: SimConfig):
    """Compile the interleaved program of one transform per bank.

    ``specs`` names each bank's transform; mixed kinds (e.g. forward and
    inverse limbs of one shape) interleave in a single bus program.
    Returns ``(programs, merged_stream, merged_key)``.  Everything is
    memoized (program / stream caches), so repeated dispatches of one
    shape compile once.

    The merge runs as a vectorized index permutation over the per-bank
    IR columns (:func:`repro.compile.interleave_irs`), bit-identical to
    the per-command :func:`interleave_programs` reference.
    """
    if not specs:
        raise ValueError("need at least one bank's worth of input")
    # Programs are memoized per (spec, config, bank): repeated rounds
    # over the same shape (e.g. every RNS limb round) reuse the programs.
    programs = [s.program(config, k) for k, s in enumerate(specs)]
    # The merged list's content is a pure function of the component
    # programs, so the merge recipe over their keys is an exact (and
    # cheap) shared-cache key — and the merge itself runs lazily, only
    # when the stream cache misses on that key.
    from ..compile.lower import interleave_irs

    merged_key = programs_recipe_key("interleave", programs)
    merged_stream = cached_stream(
        lambda: interleave_irs([p.ir for p in programs]),
        config.arch, key=merged_key)
    return programs, merged_stream, merged_key


def _run_multibank(inputs: Sequence[Sequence[int]],
                   specs: Sequence[TransformSpec],
                   config: SimConfig | None = None) -> MultiBankResult:
    """Run ``len(inputs)`` independent transforms, one per bank.

    ``specs`` holds one spec per bank (kinds and directions may mix);
    every bank's output stays bit-identical to its standalone run.
    """
    config = config or SimConfig()
    banks = len(inputs)
    if len(specs) != banks:
        raise ValueError(f"got {len(specs)} per-bank specs for {banks} banks")
    programs, merged_stream, merged_key = compile_multibank(specs, config)
    compute = config.pim.compute_timing()
    schedule = cached_schedule(merged_stream, config.timing, config.arch,
                               compute, config.energy, key=merged_key)
    single = cached_schedule(programs[0].ir, config.timing, config.arch,
                             compute, config.energy, key=programs[0].key)

    outputs: List[List[int]] = []
    bu_ops = 0
    if config.functional:
        # Banks are functionally independent and the banks of one spec
        # run programs that differ only in their bank index, so each
        # spec group replays bank 0's compiled stream once over a bank
        # stack — equivalent to replaying the round-robin merge command
        # by command, minus the interleaving.
        groups = {}
        for index, spec in enumerate(specs):
            groups.setdefault(spec, []).append(index)
        outputs = [None] * banks
        for spec, members in groups.items():
            program, stream = spec.compile(config)
            group, ops = _run_bank(spec, [[inputs[i]] for i in members],
                                   config, [program], stream)
            for index, (output,) in zip(members, group):
                outputs[index] = output
            bu_ops += ops
    verified = config.functional and config.verify

    return MultiBankResult(banks=banks, schedule=schedule,
                           single_bank_cycles=single.total_cycles,
                           verified=verified, outputs=outputs, bu_ops=bu_ops)
