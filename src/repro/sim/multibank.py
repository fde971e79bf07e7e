"""Bank-level parallelism (Sec. VI.A / Conclusion): the per-command
merge reference.

FHE workloads run many independent NTTs (one per RNS limb / ciphertext
polynomial); the paper's architecture runs one per bank.  All banks
share the command bus (one command per cycle) while row/column timing
and the CUs are per-bank, so speedup is near-linear until the command
bus saturates.  A multi-bank dispatch is the kx1 shape of one dispatch
(:func:`repro.sim.driver.dispatch_recipe`): any mix of
:class:`~repro.sim.driver.TransformSpec` kinds, one per bank, whose
vectorized round-robin merge (:func:`repro.compile.interleave_irs`) is
bit-identical to :func:`interleave_programs`, the per-command reference
kept here; both put program ``k`` on bank ``k``.  The banks of one
spec share one program and step through it in lockstep, so each spec
group runs as one stacked pass of the one checker
(:func:`~repro.sim.driver._run_bank`) with one check.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..dram.commands import Command
# Unused here, but bound on purpose: perfbench/smoke.py asserts the
# benchmark tracer finds this alias.
from ..ntt.reference import intt as reference_intt  # noqa: F401
from .driver import TransformSpec

__all__ = ["TransformSpec", "interleave_programs"]


def interleave_programs(programs: Sequence[List[Command]]) -> List[Command]:
    """Round-robin merge of per-bank programs onto the shared bus,
    program ``k`` on bank ``k``.

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
            merged.append(dataclasses.replace(cmd, bank=bank_idx,
                                              deps=new_deps))
            index_maps[bank_idx][cur] = len(merged) - 1
            cursors[bank_idx] = cur + 1
            remaining -= 1
    return merged

