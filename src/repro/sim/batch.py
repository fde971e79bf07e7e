"""Back-to-back transforms in one bank: the per-command merge reference.

An FHE ciphertext operation needs many NTTs; besides spreading them over
banks, a single bank can run them back to back.  That amortizes the
parameter write and lets the MC overlap the tail of one transform with
the head of the next (the final PRE of polynomial *i* and the first
reads of polynomial *i+1* pipeline on the bus).  A batch is the 1xk
shape of one dispatch (:func:`repro.sim.driver.dispatch_recipe`), whose
vectorized concat (:func:`repro.compile.concat_irs`) is bit-identical to
:func:`concat_programs`, the per-command reference kept here.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence

from ..dram.commands import Command, CommandType

__all__ = ["concat_programs"]


def concat_programs(programs: Sequence[List[Command]]) -> List[Command]:
    """Concatenate per-polynomial programs with dependency re-indexing.

    The PARAM_WRITE opening every program after the first is dropped —
    the modulus registers are already loaded.
    """
    merged: List[Command] = []
    for prog_index, program in enumerate(programs):
        offset_map = {}
        for i, cmd in enumerate(program):
            if (prog_index > 0 and i == 0
                    and cmd.ctype is CommandType.PARAM_WRITE):
                continue
            new_deps = tuple(offset_map[d] for d in cmd.deps
                             if d in offset_map)
            merged.append(dataclasses.replace(cmd, deps=new_deps))
            offset_map[i] = len(merged) - 1
    return merged
