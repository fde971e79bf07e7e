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
references).  The programs' twiddle and zeta tables concatenate, the
index and dependency columns shift and remap, so merged IRs, like the
mappers' IRs they merge, hold no per-command Python value; only the
per-command reference paths materialize ``Command`` objects.
"""

from __future__ import annotations

import time
from itertools import chain

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

def _merged(irs, order, new_of_old, kind) -> StreamIR:
    """The IR of ``irs`` concatenated and gathered at ``order``, each
    dependency remapped through ``new_of_old`` (old global id -> merged
    id, -1 if dropped).  An interleave runs program ``k`` on bank ``k``;
    a concat keeps each command's bank.  A dependency that does not
    point back into its own program raises ``KeyError`` in an
    interleave, as in :func:`repro.sim.multibank.interleave_programs`;
    in a concat it drops, as does one that lands on a dropped command,
    and its row compacts, as in :func:`repro.sim.batch.concat_programs`."""
    lens = [ir.n for ir in irs]
    starts = np.repeat(np.cumsum([0] + lens[:-1]), lens)

    def col(name):
        return np.concatenate([getattr(ir, name) for ir in irs])[order]

    def shifted(name, sizes):
        """An index column, each program's entries offset by the sum of
        ``sizes`` over the programs before it."""
        offset = np.repeat(np.cumsum([0] + sizes[:-1]), lens)[order]
        column = col(name)
        return np.where(column >= 0, column + offset, -1)

    # Dependencies: widen every program's column to the widest, keep the
    # entries that point back into their own program, remap them.
    width = max(ir.deps.shape[1] for ir in irs)
    deps = np.full((len(starts), width), -1, dtype=np.int64)
    row = 0
    for ir in irs:
        deps[row:row + ir.n, :ir.deps.shape[1]] = ir.deps
        row += ir.n
    deps, start = deps[order], starts[order, None]
    local = np.arange(len(starts), dtype=np.int64)[order, None] - start
    slot = np.arange(width)
    counted = slot < col("dep_counts")[:, None]
    used = counted & (deps >= 0) & (deps < local)
    if kind == "interleave" and (used != counted).any():
        # The reference's lookup fails at the first such entry in
        # merged order.
        i, j = np.argwhere(used != counted)[0]
        raise KeyError(int(deps[i, j]))
    deps = np.where(used, new_of_old[np.where(used, deps + start, 0)], -1)
    used &= deps >= 0
    # Column by column: NumPy reduces a narrow last axis row by row.
    dep_counts = np.zeros(len(order), dtype=np.int64)
    for j in range(width):
        dep_counts += used[:, j]
    gaps = used != (slot < dep_counts[:, None])
    if gaps.any():
        ragged = np.unique(np.nonzero(gaps)[0])
        front = np.argsort(~used[ragged], axis=1, kind="stable")
        deps[ragged] = np.take_along_axis(deps[ragged], front, axis=1)

    merged = StreamIR(
        n=len(order),
        codes=col("codes"),
        banks=(np.repeat(np.arange(len(irs), dtype=np.int64), lens)[order]
               if kind == "interleave" else col("banks")),
        rows=col("rows"),
        cols=col("cols"),
        bufs=col("bufs"),
        buf2s=col("buf2s"),
        lanes=col("lanes"),
        payloads=col("payloads"),
        gs=col("gs"),
        omega0_idx=shifted("omega0_idx", [len(ir.twiddles) for ir in irs]),
        r_omega_idx=shifted("r_omega_idx", [len(ir.twiddles) for ir in irs]),
        zeta_idx=shifted("zeta_idx", [len(ir.zeta_rows) for ir in irs]),
        twiddles=tuple(chain.from_iterable(ir.twiddles for ir in irs)),
        zeta_rows=tuple(chain.from_iterable(ir.zeta_rows for ir in irs)),
        deps=deps,
        dep_counts=dep_counts,
    )
    merged.meta["merge"] = kind
    merged.meta["programs"] = len(irs)
    return merged


def interleave_irs(programs) -> StreamIR:
    """Round-robin merge of per-bank programs onto the shared bus,
    program ``k`` on bank ``k`` (a lone program on bank 0), whatever
    bank its commands named.

    The command content (and thus every cache key downstream) is
    bit-identical to :func:`repro.sim.multibank.interleave_programs`;
    the merge itself is an index permutation over the concatenated
    columns, with dependencies remapped through the same permutation.
    Like the reference, it raises ``KeyError`` for a dependency that
    does not name an earlier command of its own program.
    Round-robin models an MC draining per-bank queues fairly, which is
    what gives each bank steady command-bus share.
    """
    irs = [as_ir(p) for p in programs]
    lens = [ir.n for ir in irs]
    total = sum(lens)
    # Round-robin: all position-0 commands (program order), then all
    # position-1, ... — exactly the legacy cursor sweep.
    pos = np.concatenate([np.arange(n, dtype=np.int64) for n in lens])
    order = np.argsort(pos, kind="stable")
    new_of_old = np.empty(total, dtype=np.int64)
    new_of_old[order] = np.arange(total, dtype=np.int64)
    return _merged(irs, order, new_of_old, "interleave")


def concat_irs(programs) -> StreamIR:
    """Back-to-back merge of per-polynomial programs in one bank.

    The PARAM_WRITE opening every program after the first is dropped
    (the modulus registers are already loaded) — bit-identical to
    :func:`repro.sim.batch.concat_programs`.
    """
    irs = [as_ir(p) for p in programs]
    if len(irs) == 1:
        return irs[0]
    starts = np.cumsum([0] + [ir.n for ir in irs])
    keep = np.ones(starts[-1], dtype=np.bool_)
    for start, ir in zip(starts[1:].tolist(), irs[1:]):
        if ir.n and ir.codes[0] == _CODE_PARAM:
            keep[start] = False
    new_of_old = np.where(keep, np.cumsum(keep, dtype=np.int64) - 1, -1)
    kept = np.nonzero(keep)[0]
    return _merged(irs, kept, new_of_old, "concat")
