"""IR -> executable stream lowering, and the vectorized program merges.

:func:`compile_ir` is the compiler's spine: run the pass pipeline
(:func:`repro.compile.passes.build_plan`) over one :class:`StreamIR`,
then pair the IR with the plan in the executable
:class:`~repro.dram.stream.CommandStream` the timing engine and the
functional bank consume.  Lowering copies nothing: the timing engine
builds its loop inputs from the IR's int64 columns when it replays the
stream.

:func:`interleave_irs` and :func:`concat_irs` are the merge passes: the
round-robin multi-bank interleave and the back-to-back batch concat,
reimplemented as index permutations over the concatenated columns (the
per-command list merges
:func:`repro.sim.multibank.interleave_programs` and
:func:`repro.sim.batch.concat_programs` remain as the test
references).  Merged IRs, like the mappers' IRs they merge, hold no
``Command`` objects; only the per-command reference paths materialize
them from the columns.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..dram.commands import CTYPE_CODES, CommandType
from ..dram.stream import CommandStream
from ..dram.timing import ArchParams
from .ir import StreamIR, as_ir
from .passes import build_plan

__all__ = ["compile_ir", "interleave_irs", "concat_irs"]

_CODE_PARAM = CTYPE_CODES[CommandType.PARAM_WRITE]


def compile_ir(ir: StreamIR, arch: ArchParams) -> CommandStream:
    """Pass pipeline + lowering: one IR -> one executable stream."""
    t0 = time.perf_counter()
    plan, reason, stats = build_plan(ir, arch)
    stats["plan_ms"] = (time.perf_counter() - t0) * 1e3
    return CommandStream(ir, plan, reason, stats)


# -- merge passes --------------------------------------------------------------

def _ragged_take(starts, counts):
    """Flat indices gathering ``counts[i]`` elements from ``starts[i]``
    onward, for every row in order."""
    total = int(counts.sum())
    shift = np.cumsum(counts) - counts
    return np.repeat(starts - shift, counts) + np.arange(total,
                                                         dtype=np.int64)


def _gather_side(tables: Sequence[tuple], order_list) -> tuple:
    pool: list = []
    for table in tables:
        pool.extend(table)
    return tuple(map(pool.__getitem__, order_list))


def interleave_irs(programs) -> StreamIR:
    """Round-robin merge of per-bank programs onto the shared bus.

    The command content (and thus every cache key downstream) is
    bit-identical to :func:`repro.sim.multibank.interleave_programs`;
    the merge itself is an index permutation over the concatenated
    columns, with dependencies remapped through the same permutation.
    Round-robin models an MC draining per-bank queues fairly, which is
    what gives each bank steady command-bus share.
    """
    irs = [as_ir(p) for p in programs]
    if len(irs) == 1:
        return irs[0]
    lens = np.array([ir.n for ir in irs], dtype=np.int64)
    total = int(lens.sum())
    cmd_off = np.concatenate(([0], np.cumsum(lens)))[:-1]
    prog = np.repeat(np.arange(len(irs), dtype=np.int64), lens)
    pos = np.concatenate([np.arange(l, dtype=np.int64)
                          for l in lens.tolist()]) if total else \
        np.zeros(0, dtype=np.int64)
    # Round-robin: all position-0 commands (program order), then all
    # position-1, ... — exactly the legacy cursor sweep.
    order = np.lexsort((prog, pos))
    new_of_old = np.empty(total, dtype=np.int64)
    new_of_old[order] = np.arange(total, dtype=np.int64)

    def col(name):
        return np.concatenate([getattr(ir, name) for ir in irs])[order]

    # Dependencies: concatenate per-program flats shifted to old-global
    # command ids, gather them in merged-row order, then remap ids
    # through the permutation.
    flat_off = np.concatenate(
        ([0], np.cumsum([len(ir.dep_flat) for ir in irs])))[:-1]
    flat_global = np.concatenate(
        [ir.dep_flat + off for ir, off in zip(irs, cmd_off.tolist())])
    counts = np.concatenate([ir.dep_end - ir.dep_start for ir in irs])
    starts = np.concatenate(
        [ir.dep_start + off for ir, off in zip(irs, flat_off.tolist())])
    take = _ragged_take(starts[order], counts[order])
    dep_flat = new_of_old[flat_global[take]]
    dep_end = np.cumsum(counts[order], dtype=np.int64)
    dep_start = dep_end - counts[order]

    order_list = order.tolist()
    merged = StreamIR(
        n=total,
        codes=col("codes"),
        banks=col("banks"),
        rows=col("rows"),
        cols=col("cols"),
        bufs=col("bufs"),
        buf2s=col("buf2s"),
        lanes=col("lanes"),
        payloads=col("payloads"),
        gs=col("gs"),
        dep_start=dep_start,
        dep_end=dep_end,
        dep_flat=dep_flat,
        omega0s=_gather_side([ir.omega0s for ir in irs], order_list),
        r_omegas=_gather_side([ir.r_omegas for ir in irs], order_list),
        zetas=_gather_side([ir.zetas for ir in irs], order_list),
        has_omega0=col("has_omega0"),
        has_r_omega=col("has_r_omega"),
        zeta_lens=col("zeta_lens"),
    )
    merged.meta["merge"] = "interleave"
    merged.meta["programs"] = len(irs)
    return merged


def concat_irs(programs, skip_leading_param: bool = True) -> StreamIR:
    """Back-to-back merge of per-polynomial programs in one bank.

    With ``skip_leading_param`` the PARAM_WRITE opening every program
    after the first is dropped (the modulus registers are already
    loaded) — bit-identical to
    :func:`repro.sim.batch.concat_programs`.
    """
    irs = [as_ir(p) for p in programs]
    if len(irs) == 1:
        return irs[0]
    lens = np.array([ir.n for ir in irs], dtype=np.int64)
    total = int(lens.sum())
    cmd_off = np.concatenate(([0], np.cumsum(lens)))[:-1]
    keep = np.ones(total, dtype=np.bool_)
    if skip_leading_param:
        for j, ir in enumerate(irs):
            if j and ir.n and ir.codes[0] == _CODE_PARAM:
                keep[cmd_off[j]] = False
    new_of_old = np.cumsum(keep, dtype=np.int64) - 1
    kept = np.nonzero(keep)[0]

    def col(name):
        return np.concatenate([getattr(ir, name) for ir in irs])[kept]

    # Dependencies on dropped commands are filtered out, exactly as the
    # legacy merge's offset-map lookup does.  (A dropped leading
    # PARAM_WRITE has no deps itself, so dropped rows contribute no
    # slice of their own.)
    flat_global = np.concatenate(
        [ir.dep_flat + off for ir, off in zip(irs, cmd_off.tolist())])
    dep_keep = keep[flat_global]
    csum = np.concatenate(([0], np.cumsum(dep_keep, dtype=np.int64)))
    flat_off = np.concatenate(
        ([0], np.cumsum([len(ir.dep_flat) for ir in irs])))[:-1]
    starts = np.concatenate(
        [ir.dep_start + off for ir, off in zip(irs, flat_off.tolist())])
    ends = np.concatenate(
        [ir.dep_end + off for ir, off in zip(irs, flat_off.tolist())])
    counts = (csum[ends] - csum[starts])[kept]
    dep_flat = new_of_old[flat_global[dep_keep]]
    dep_end = np.cumsum(counts, dtype=np.int64)

    kept_list = kept.tolist()
    merged = StreamIR(
        n=len(kept_list),
        codes=col("codes"),
        banks=col("banks"),
        rows=col("rows"),
        cols=col("cols"),
        bufs=col("bufs"),
        buf2s=col("buf2s"),
        lanes=col("lanes"),
        payloads=col("payloads"),
        gs=col("gs"),
        dep_start=dep_end - counts,
        dep_end=dep_end,
        dep_flat=dep_flat,
        omega0s=_gather_side([ir.omega0s for ir in irs], kept_list),
        r_omegas=_gather_side([ir.r_omegas for ir in irs], kept_list),
        zetas=_gather_side([ir.zetas for ir in irs], kept_list),
        has_omega0=col("has_omega0"),
        has_r_omega=col("has_r_omega"),
        zeta_lens=col("zeta_lens"),
    )
    merged.meta["merge"] = "concat"
    merged.meta["programs"] = len(irs)
    return merged
