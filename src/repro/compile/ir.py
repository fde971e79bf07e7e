"""The compiler's structure-of-arrays intermediate representation.

A :class:`StreamIR` is the columnar form of one command program: every
per-command integer field becomes one int64 NumPy column (``-1`` encodes
"field unused by this command"), the twiddle payloads stay Python-object
side tables (twiddles of moduli above 2**63 overflow int64), and
dependencies flatten into a CSR-style
``dep_start/dep_end/dep_flat`` triple.  Every pass in
:mod:`repro.compile.passes` is a vectorized computation over these
columns — the per-command Python loop of the old monolithic compile
survives only as the ground-truth executor.

The mappers emit their programs as StreamIRs directly
(:func:`repro.mapping.program.assemble`), and the merge passes
(interleave / concat) build merged IRs from those columns.  Neither
builds :class:`~repro.dram.commands.Command` objects: they materialize
from the columns only when a per-command reference asks for them
(:meth:`StreamIR.materialize_commands`, or a :class:`CommandView`).
An IR built by :meth:`StreamIR.from_commands` keeps its source tuple.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence as SequenceABC
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dram.commands import CODE_CTYPES, CTYPE_CODES, Command

__all__ = ["StreamIR", "CommandView", "as_ir"]


def _field(value: Optional[int]) -> int:
    return -1 if value is None else value


def _optional(column: np.ndarray) -> list:
    return [None if v < 0 else v for v in column.tolist()]


class StreamIR:
    """SoA columns + side tables for one command program."""

    __slots__ = (
        "n", "codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
        "payloads", "gs", "dep_start", "dep_end", "dep_flat", "omega0s",
        "r_omegas", "zetas", "has_omega0", "has_r_omega", "zeta_lens",
        "meta", "_commands",
    )

    def __init__(self, *, n, codes, banks, rows, cols, bufs, buf2s, lanes,
                 payloads, gs, dep_start, dep_end, dep_flat, omega0s,
                 r_omegas, zetas, has_omega0, has_r_omega, zeta_lens,
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
        self.dep_start = dep_start
        self.dep_end = dep_end
        self.dep_flat = dep_flat
        self.omega0s = omega0s
        self.r_omegas = r_omegas
        self.zetas = zetas
        self.has_omega0 = has_omega0
        self.has_r_omega = has_r_omega
        self.zeta_lens = zeta_lens
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
         has_omega0, has_r_omega, zeta_lens) = np.ascontiguousarray(np.array(
            [(CTYPE_CODES[c.ctype], c.bank, _field(c.row), _field(c.col),
              _field(c.buf), _field(c.buf2), _field(c.lane), c.payload_words,
              c.gs, c.omega0 is not None, c.r_omega is not None,
              len(c.zetas)) for c in commands],
            dtype=np.int64).reshape(n, 12).T)
        deps = [c.deps for c in commands]
        dep_lens = np.fromiter(map(len, deps), dtype=np.int64, count=n)
        dep_end = np.cumsum(dep_lens, dtype=np.int64)
        return cls(
            n=n, codes=codes, banks=banks, rows=rows, cols=cols, bufs=bufs,
            buf2s=buf2s, lanes=lanes, payloads=payloads,
            gs=gs.astype(np.bool_),
            dep_start=dep_end - dep_lens,
            dep_end=dep_end,
            dep_flat=np.fromiter(itertools.chain.from_iterable(deps),
                                 dtype=np.int64),
            omega0s=tuple(c.omega0 for c in commands),
            r_omegas=tuple(c.r_omega for c in commands),
            zetas=tuple(c.zetas for c in commands),
            has_omega0=has_omega0.astype(np.bool_),
            has_r_omega=has_r_omega.astype(np.bool_),
            zeta_lens=zeta_lens,
            commands=commands,
        )

    # -- command materialization ----------------------------------------------
    def materialize_commands(self) -> Tuple[Command, ...]:
        """The equivalent :class:`Command` tuple, built from the columns
        once and kept (only the per-command reference paths ever ask —
        the fused executor and the timing engine run on the columns)."""
        if self._commands is None:
            self._commands = tuple(itertools.starmap(Command, zip(
                map(CODE_CTYPES.__getitem__, self.codes.tolist()),
                self.banks.tolist(),
                _optional(self.rows), _optional(self.cols),
                _optional(self.bufs), _optional(self.buf2s),
                _optional(self.lanes),
                self.omega0s, self.r_omegas, self.payloads.tolist(),
                self.gs.tolist(), self.zetas, self.deps_list())))
        return self._commands

    def deps_list(self):
        """Per-command dependency tuples, for materialized :class:`Command`
        objects (the timing engine reads the flat columns directly)."""
        starts = self.dep_start.tolist()
        ends = self.dep_end.tolist()
        flat = self.dep_flat.tolist()
        return [tuple(flat[s:e]) for s, e in zip(starts, ends)]

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
        lines.append(f"  deps (flat)  {len(self.dep_flat)}")
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
    behind a :class:`CommandView`, or a columnarized command sequence."""
    if isinstance(program, StreamIR):
        return program
    if isinstance(program, CommandView):
        return program.ir
    return StreamIR.from_commands(program)
