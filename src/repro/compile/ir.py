"""The compiler's structure-of-arrays intermediate representation.

A :class:`StreamIR` is the columnar form of one command program: every
per-command integer field becomes one int64 NumPy column (``-1`` encodes
"field unused by this command" — except in a field the command's type
requires, :data:`~repro.dram.commands.REQUIRED_FIELDS`, where every
value is its own, so ``Command(ACT, row=-1)`` round-trips; a negative
value in a field the type does not carry reads back as ``None``);
twiddles are index columns into one ``twiddles`` table per program
(Python ints: twiddles of moduli above 2**63 overflow int64) and C1N
zetas into one ``zeta_rows`` table; and
dependencies are one fixed-width ``(n, k)`` column ``deps``, row ``i``
holding ``dep_counts[i]`` entries, then ``-1`` padding (the counts say
which are real, so negative, forward and duplicate dependencies of a
hand-built program round-trip exactly).  Every pass in
:mod:`repro.compile.passes` is a vectorized computation over these
columns — the per-command Python loop of the old monolithic compile
survives only as the ground-truth executor.

The mappers emit their programs as StreamIRs directly
(:func:`repro.mapping.program.assemble`), and the merge passes
(interleave / concat) build merged IRs from those columns and tables.
None builds a per-command Python value: ``Command`` objects materialize
from the columns only when a per-command reference asks for them
(:meth:`StreamIR.materialize_commands`, or a :class:`CommandView`).  An
IR built by :meth:`StreamIR.from_commands` tabulates the commands'
values and keeps its source tuple.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence as SequenceABC
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dram.commands import CODE_CTYPES, CTYPE_CODES, REQUIRED_FIELDS, \
    Command

__all__ = ["StreamIR", "CommandView", "as_ir", "program_key"]


def _field(value: Optional[int]) -> int:
    return -1 if value is None else value


#: Per ctype code, whether its type requires each optional field.
_REQUIRED_BY_CODE = {
    name: np.array([ctype in types for ctype in CODE_CTYPES], dtype=np.bool_)
    for name, types in REQUIRED_FIELDS.items()}


def _optional(column: np.ndarray, codes: np.ndarray, name: str) -> list:
    """A field column as command values: ``None`` for a negative entry
    of a command whose type does not require the field (the "unused"
    encoding), the entry itself otherwise."""
    present = ((column >= 0) | _REQUIRED_BY_CODE[name][codes]).tolist()
    return [v if p else None for v, p in zip(column.tolist(), present)]


def _tabulate(values: list, present: list, base: int = 0):
    """The present values in order, and each one's index plus ``base``
    (-1 where absent)."""
    mask = np.array(present, dtype=np.bool_)
    return (tuple(itertools.compress(values, present)),
            np.where(mask, np.cumsum(mask) - 1 + base, -1))


class StreamIR:
    """SoA columns + the twiddle and zeta tables of one command program."""

    __slots__ = (
        "n", "codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
        "payloads", "gs", "omega0_idx", "r_omega_idx", "zeta_idx",
        "twiddles", "zeta_rows", "deps", "dep_counts", "meta", "_commands",
    )

    def __init__(self, *, n, codes, banks, rows, cols, bufs, buf2s, lanes,
                 payloads, gs, omega0_idx, r_omega_idx, zeta_idx, twiddles,
                 zeta_rows, deps, dep_counts,
                 commands: Optional[Tuple[Command, ...]] = None):
        self.n = n
        self.codes = codes
        self.banks = banks
        self.rows = rows
        self.cols = cols
        self.bufs = bufs
        self.buf2s = buf2s
        self.lanes = lanes
        self.payloads = payloads
        self.gs = gs
        self.omega0_idx = omega0_idx
        self.r_omega_idx = r_omega_idx
        self.zeta_idx = zeta_idx
        self.twiddles = twiddles
        self.zeta_rows = zeta_rows
        self.deps = deps
        self.dep_counts = dep_counts
        self.meta: dict = {}
        self._commands = commands

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_commands(cls, commands: Sequence[Command]) -> "StreamIR":
        """Columnarize a hand-built command program (the mappers and the
        merge passes build their IRs from columns instead)."""
        commands = tuple(commands)
        n = len(commands)
        (codes, banks, rows, cols, bufs, buf2s, lanes, payloads, gs,
         dep_counts) = np.ascontiguousarray(np.array(
            [(CTYPE_CODES[c.ctype], c.bank, _field(c.row), _field(c.col),
              _field(c.buf), _field(c.buf2), _field(c.lane), c.payload_words,
              c.gs, len(c.deps)) for c in commands],
            dtype=np.int64).reshape(n, 10).T)
        omega0s = [c.omega0 for c in commands]
        r_omegas = [c.r_omega for c in commands]
        zetas = [c.zetas for c in commands]
        omega0_table, omega0_idx = _tabulate(
            omega0s, [v is not None for v in omega0s])
        r_omega_table, r_omega_idx = _tabulate(
            r_omegas, [v is not None for v in r_omegas], len(omega0_table))
        zeta_rows, zeta_idx = _tabulate(zetas, list(map(bool, zetas)))
        k = int(dep_counts.max()) if n else 0
        deps = np.full((n, k), -1, dtype=np.int64)
        deps[np.arange(k) < dep_counts[:, None]] = np.fromiter(
            itertools.chain.from_iterable(c.deps for c in commands),
            dtype=np.int64)
        return cls(
            n=n, codes=codes, banks=banks, rows=rows, cols=cols, bufs=bufs,
            buf2s=buf2s, lanes=lanes, payloads=payloads,
            gs=gs.astype(np.bool_),
            omega0_idx=omega0_idx, r_omega_idx=r_omega_idx,
            zeta_idx=zeta_idx, twiddles=omega0_table + r_omega_table,
            zeta_rows=zeta_rows, deps=deps, dep_counts=dep_counts,
            commands=commands,
        )

    # -- command materialization ----------------------------------------------
    def materialize_commands(self) -> Tuple[Command, ...]:
        """The equivalent :class:`Command` tuple, built from the columns
        once and kept (only the per-command reference paths ever ask —
        the fused executor and the timing engine run on the columns)."""
        if self._commands is None:
            # Index -1 picks the appended "absent" entry.
            twiddles = self.twiddles + (None,)
            zeta_rows = self.zeta_rows + ((),)
            deps = [tuple(row[:count]) for row, count
                    in zip(self.deps.tolist(), self.dep_counts.tolist())]
            self._commands = tuple(itertools.starmap(Command, zip(
                map(CODE_CTYPES.__getitem__, self.codes.tolist()),
                self.banks.tolist(),
                _optional(self.rows, self.codes, "row"),
                _optional(self.cols, self.codes, "col"),
                _optional(self.bufs, self.codes, "buf"),
                _optional(self.buf2s, self.codes, "buf2"),
                _optional(self.lanes, self.codes, "lane"),
                map(twiddles.__getitem__, self.omega0_idx.tolist()),
                map(twiddles.__getitem__, self.r_omega_idx.tolist()),
                self.payloads.tolist(), self.gs.tolist(),
                map(zeta_rows.__getitem__, self.zeta_idx.tolist()),
                deps)))
        return self._commands

    # -- introspection --------------------------------------------------------
    def counts_by_type(self) -> dict:
        """``{command-type name: count}`` over the program."""
        counts = np.bincount(self.codes, minlength=len(CODE_CTYPES))
        return {ct.value: int(c)
                for ct, c in zip(CODE_CTYPES, counts) if c}

    def describe(self) -> str:
        """Human-readable IR dump (the head of ``repro compile``'s output)."""
        lines = [f"StreamIR: {self.n} commands, "
                 f"{len(np.unique(self.banks))} bank(s)"]
        for name, count in sorted(self.counts_by_type().items(),
                                  key=lambda kv: -kv[1]):
            lines.append(f"  {name:<12} {count}")
        lines.append(f"  deps (flat)  {int(self.dep_counts.sum())}")
        if self.meta:
            for key, value in sorted(self.meta.items()):
                lines.append(f"  meta {key} = {value}")
        return "\n".join(lines)


class CommandView(SequenceABC):
    """A read-only :class:`Command` sequence over a :class:`StreamIR`:
    ``len`` is free, the commands materialize on first element access."""

    __slots__ = ("ir",)

    def __init__(self, ir: StreamIR):
        self.ir = ir

    def __len__(self) -> int:
        return self.ir.n

    def __getitem__(self, index):
        return self.ir.materialize_commands()[index]


def as_ir(program) -> StreamIR:
    """The IR of a command program: a :class:`StreamIR` itself, the IR
    behind a :class:`CommandView` or a compiled
    :class:`~repro.dram.stream.CommandStream` (its ``ir``), or a
    columnarized command sequence."""
    ir = getattr(program, "ir", program)
    return ir if isinstance(ir, StreamIR) else StreamIR.from_commands(program)


def program_key(program) -> Tuple[Command, ...]:
    """The command tuple of a program :func:`as_ir` takes: the exact
    content key of the stream and schedule caches for a caller with no
    structural key (an IR materializes its commands for it)."""
    ir = getattr(program, "ir", program)
    if isinstance(ir, StreamIR):
        return ir.materialize_commands()
    return tuple(program)
