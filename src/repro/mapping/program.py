"""Columnar command-program assembly shared by the mappers.

A mapper describes its program as an *op table*: one int64 row per
column or compute command (:data:`FIELDS` columns, ``-1`` = unused),
built with :func:`ops` and :func:`grouped` from ``arange``-style index
arithmetic.  :func:`assemble` turns the table into the
:class:`~repro.compile.ir.StreamIR` the compiler consumes, column for
column, on bank 0 (a program is bank-relative: the bus interleave,
:func:`repro.compile.lower.interleave_irs`, places it on its bank):

* the opening PARAM_WRITE and, at every change of the row the column
  ops address, a PRE (if a row is open) and an ACT, plus the closing
  PRE;
* one ``twiddles`` table, the powers of the root, which the ops'
  twiddle exponents index as they stand (C1N zeta rows too);
* every dependency, from per-buffer scans: a CU_READ waits on the last
  command that used its buffer (WAR), every other buffer op on the last
  command that produced the buffer's contents (at most two per op).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..arith.vector import power_table
from ..compile.ir import StreamIR
from ..dram.commands import CTYPE_CODES, CommandType

__all__ = ["FIELDS", "ops", "grouped", "assemble"]

#: Op-table columns: command code, row, column, buffers, scalar lane,
#: Gentleman-Sande flag, omega0 / r_omega twiddle indices and the C1N
#: zeta-row index.
CODE, ROW, COL, BUF, BUF2, LANE, GS, OMEGA0, R_OMEGA, ZETA = range(10)
FIELDS = 10

#: q plus Montgomery constants travel over the global buffer as 16-bit
#: chunks; 6 words covers a 32-bit q, q' and R^2 mod q.
PARAM_WORDS = 6

_PRE = CTYPE_CODES[CommandType.PRE]
_CU_READ = CTYPE_CODES[CommandType.CU_READ]
_CU_WRITE = CTYPE_CODES[CommandType.CU_WRITE]
#: Ops that leave new contents in their buffer(s); CU_WRITE and
#: LOAD_SCALAR only read it.
_PRODUCES = np.zeros(len(CTYPE_CODES), dtype=np.bool_)
_PRODUCES[[CTYPE_CODES[t] for t in (
    CommandType.CU_READ, CommandType.C1, CommandType.C2, CommandType.C1N,
    CommandType.BU_SCALAR, CommandType.STORE_SCALAR)]] = True


def ops(ctype: CommandType, *, row=-1, col=-1, buf=-1, buf2=-1, lane=-1,
        gs=False, omega0=-1, r_omega=-1, zeta=-1) -> np.ndarray:
    """An op table of ``ctype`` ops, shaped ``(..., FIELDS)`` by
    broadcasting the field arguments against each other."""
    fields = (CTYPE_CODES[ctype], row, col, buf, buf2, lane, int(gs),
              omega0, r_omega, zeta)
    table = np.empty(np.broadcast(*fields).shape + (FIELDS,), dtype=np.int64)
    for index, value in enumerate(fields):
        table[..., index] = value
    return table


def grouped(phases: Sequence, size: int) -> np.ndarray:
    """Pipeline items through the buffer pool ``size`` at a time.

    Each phase is an op table ``(..., items, FIELDS)`` (one op per
    item) or a tuple of them (that many ops per item, item by item).
    Each group emits phase 0 of all its items, then phase 1, and so on;
    the last group may be short.  Leading axes are independent sweeps,
    kept in the result ``(..., ops, FIELDS)``.
    """
    phases = [np.stack(p, axis=-2) if isinstance(p, tuple)
              else p[..., None, :] for p in phases]
    items = phases[0].shape[-3]
    lead = phases[0].shape[:-3]
    full = items - items % size
    parts = []
    for lo, hi in ((0, full), (full, items)):
        if hi > lo:
            k = min(size, hi - lo)
            parts.append(np.concatenate(
                [p[..., lo:hi, :, :].reshape(
                    *lead, (hi - lo) // k, k * p.shape[-2], FIELDS)
                 for p in phases], axis=-2).reshape(*lead, -1, FIELDS))
    return np.concatenate(parts, axis=-2)


def assemble(body: np.ndarray, root: int, q: int,
             zetas: Optional[np.ndarray] = None) -> StreamIR:
    """The full program of an op table (which must address at least one
    row), PARAM_WRITE through final PRE, on bank 0.

    Twiddle index ``e`` (OMEGA0/R_OMEGA, and the entries of row ``z`` of
    ``zetas``: the zetas of the ZETA = ``z`` C1N, in consumption order)
    stands for ``root**e mod q``.
    """
    n_ops = len(body)
    codes = body[:, CODE]
    column = np.flatnonzero((codes == _CU_READ) | (codes == _CU_WRITE))
    col_rows = body[column, ROW]
    opens = np.ones(len(column), dtype=np.bool_)
    opens[1:] = col_rows[1:] != col_rows[:-1]
    # A row change costs PRE + ACT; the first opening only the ACT.
    extra = np.zeros(n_ops, dtype=np.int64)
    extra[column[opens]] = 2
    extra[column[:1]] = 1
    pos = 1 + np.arange(n_ops) + np.cumsum(extra)
    total = 2 + n_ops + int(extra.sum())

    table = np.full((total, FIELDS), -1, dtype=np.int64)
    table[:, GS] = 0
    table[0, CODE] = CTYPE_CODES[CommandType.PARAM_WRITE]
    table[pos] = body
    act_at = pos[column[opens]] - 1
    table[act_at, CODE] = CTYPE_CODES[CommandType.ACT]
    table[act_at, ROW] = col_rows[opens]
    table[act_at[1:] - 1, CODE] = _PRE
    table[-1, CODE] = _PRE

    # Hazards: every (buffer, op) touch in program order per buffer.
    ev_op, ev_leg = np.nonzero(body[:, BUF:BUF2 + 1] >= 0)
    ev_buf = body[ev_op, BUF + ev_leg]
    order = np.lexsort((ev_op, ev_buf))
    ev_op, ev_buf, ev_leg = ev_op[order], ev_buf[order], ev_leg[order]
    first = np.ones(len(ev_op), dtype=np.bool_)
    first[1:] = ev_buf[1:] != ev_buf[:-1]
    last_use = np.where(first, -1, np.roll(ev_op, 1))
    # Running max of producer ids; the buffer * stride offset keeps one
    # buffer's scan from leaking into the next.
    stride = n_ops + 1
    tagged = ev_buf * stride + np.where(_PRODUCES[codes[ev_op]], ev_op + 1, 0)
    running = np.roll(np.maximum.accumulate(tagged), 1)
    last_producer = np.where(first, -1, running - ev_buf * stride - 1)
    dep = np.where(codes[ev_op] == _CU_READ, last_use, last_producer)
    legs = np.full((2, n_ops), -1, dtype=np.int64)
    legs[ev_leg, ev_op] = np.where(dep >= 0, pos[dep], -1)
    # Each op's distinct dependencies, ascending, then the -1 padding.
    lo, hi = np.minimum(legs[0], legs[1]), np.maximum(legs[0], legs[1])
    dep0 = np.where(lo < 0, hi, lo)
    dep1 = np.where((lo >= 0) & (hi != lo), hi, -1)
    deps = np.full((total, 2), -1, dtype=np.int64)
    deps[pos, 0] = dep0
    deps[pos, 1] = dep1
    dep_counts = np.zeros(total, dtype=np.int64)
    dep_counts[pos] = (dep0 >= 0).astype(np.int64) + (dep1 >= 0)

    # One power table per program, up to the largest exponent used.
    twiddles = power_table(root, 1 + max(
        int(body[:, OMEGA0:R_OMEGA + 1].max()),
        0 if zetas is None else int(zetas.max()), 0), q)
    codes, rows, cols, bufs, buf2s, lanes, gs, omega0, r_omega, zeta = (
        np.ascontiguousarray(table.T))
    payloads = np.zeros(total, dtype=np.int64)
    payloads[0] = PARAM_WORDS
    return StreamIR(
        n=total, codes=codes, banks=np.zeros(total, dtype=np.int64),
        rows=rows, cols=cols, bufs=bufs, buf2s=buf2s, lanes=lanes,
        payloads=payloads, gs=gs.astype(np.bool_),
        omega0_idx=omega0, r_omega_idx=r_omega, zeta_idx=zeta,
        twiddles=tuple(twiddles),
        zeta_rows=() if zetas is None else tuple(
            tuple(map(twiddles.__getitem__, row)) for row in zetas.tolist()),
        deps=deps, dep_counts=dep_counts,
    )
