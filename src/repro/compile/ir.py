"""The compiler's structure-of-arrays intermediate representation.

A :class:`StreamIR` is the columnar view of one command program: every
per-command integer field becomes one int64 NumPy column (``-1`` encodes
"field unused by this command"), the twiddle payloads stay Python-object
side tables (moduli above 2**63 overflow int64 on the pure-Python
backend), and dependencies flatten into a CSR-style
``dep_start/dep_end/dep_flat`` triple.  Every pass in
:mod:`repro.compile.passes` is a vectorized computation over these
columns — the per-command Python loop of the old monolithic compile
survives only as the ground-truth executor.

An IR built by :meth:`StreamIR.from_commands` keeps the source command
tuple.  IRs built by the merge passes (interleave / concat) instead
carry a *recipe* over their source programs and materialize merged
:class:`~repro.dram.commands.Command` objects only on demand — the
fused executor and the timing engine's stream loop never need them.
"""

from __future__ import annotations

import dataclasses
import itertools
from operator import attrgetter
from typing import Optional, Sequence, Tuple

import numpy as np

from ..dram.commands import CODE_CTYPES, Command

__all__ = ["StreamIR"]

_OMEGA0 = attrgetter("omega0")
_R_OMEGA = attrgetter("r_omega")
_ZETAS = attrgetter("zetas")
_DEPS = attrgetter("deps")


class StreamIR:
    """SoA columns + side tables for one command program."""

    __slots__ = (
        "n", "codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
        "gs", "dep_start", "dep_end", "dep_flat", "omega0s", "r_omegas",
        "zetas", "has_omega0", "has_r_omega", "zeta_lens", "meta",
        "_commands", "_merge_sources", "_merge_prog", "_merge_pos",
    )

    def __init__(self, *, n, codes, banks, rows, cols, bufs, buf2s, lanes,
                 gs, dep_start, dep_end, dep_flat, omega0s, r_omegas,
                 zetas, has_omega0, has_r_omega, zeta_lens,
                 commands: Optional[Tuple[Command, ...]] = None,
                 merge_sources=None, merge_prog=None, merge_pos=None):
        self.n = n
        self.codes = codes
        self.banks = banks
        self.rows = rows
        self.cols = cols
        self.bufs = bufs
        self.buf2s = buf2s
        self.lanes = lanes
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
        # Merge recipe (interleave/concat built IRs): source command
        # tuples plus each merged row's (program, position) provenance.
        self._merge_sources = merge_sources
        self._merge_prog = merge_prog
        self._merge_pos = merge_pos

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_commands(cls, commands: Sequence[Command]) -> "StreamIR":
        """Columnarize a command program (one attribute pass, then
        C-level per-column conversions — the cold-compile hot path)."""
        commands = tuple(commands)
        n = len(commands)
        if n == 0:
            z = np.zeros(0, dtype=np.int64)
            zb = np.zeros(0, dtype=np.bool_)
            return cls(n=0, codes=z, banks=z, rows=z, cols=z, bufs=z,
                       buf2s=z, lanes=z, gs=zb, dep_start=z, dep_end=z,
                       dep_flat=z, omega0s=(), r_omegas=(), zetas=(),
                       has_omega0=zb, has_r_omega=zb, zeta_lens=z,
                       commands=commands)
        # The integer columns come precomputed: every Command carries
        # its ``ir_row`` tuple (built once at map time), so the whole
        # SoA table is one C-level np.array plus cheap column views.
        table = np.fromiter(
            itertools.chain.from_iterable(c.ir_row for c in commands),
            dtype=np.int64, count=n * 11).reshape(n, 11)
        omega0s = tuple(map(_OMEGA0, commands))
        r_omegas = tuple(map(_R_OMEGA, commands))
        zetas = tuple(map(_ZETAS, commands))
        deps = tuple(map(_DEPS, commands))
        dep_lens = np.fromiter(map(len, deps), dtype=np.int64, count=n)
        dep_end = np.cumsum(dep_lens, dtype=np.int64)
        dep_flat = np.fromiter(itertools.chain.from_iterable(deps),
                               dtype=np.int64, count=int(dep_end[-1]))
        return cls(
            n=n,
            codes=np.ascontiguousarray(table[:, 0]),
            banks=np.ascontiguousarray(table[:, 1]),
            rows=np.ascontiguousarray(table[:, 2]),
            cols=np.ascontiguousarray(table[:, 3]),
            bufs=np.ascontiguousarray(table[:, 4]),
            buf2s=np.ascontiguousarray(table[:, 5]),
            lanes=np.ascontiguousarray(table[:, 6]),
            gs=table[:, 7].astype(np.bool_),
            dep_start=dep_end - dep_lens,
            dep_end=dep_end,
            dep_flat=dep_flat,
            omega0s=omega0s,
            r_omegas=r_omegas,
            zetas=zetas,
            has_omega0=table[:, 8].astype(np.bool_),
            has_r_omega=table[:, 9].astype(np.bool_),
            zeta_lens=np.ascontiguousarray(table[:, 10]),
            commands=commands,
        )

    # -- command materialization ----------------------------------------------
    def materialize_commands(self) -> Tuple[Command, ...]:
        """The equivalent :class:`Command` tuple.

        Free for IRs built from commands; merged IRs rebuild commands
        from their recipe (only the legacy per-command fallback paths
        ever need this — the fused executor and the timing engine run
        on the columns alone)."""
        if self._commands is None:
            sources = self._merge_sources
            prog = self._merge_prog.tolist()
            pos = self._merge_pos.tolist()
            starts = self.dep_start.tolist()
            ends = self.dep_end.tolist()
            flat = self.dep_flat.tolist()
            replace = dataclasses.replace
            self._commands = tuple(
                replace(sources[p][i], deps=tuple(flat[s:e]))
                for p, i, s, e in zip(prog, pos, starts, ends))
        return self._commands

    def deps_list(self):
        """Per-command dependency tuples (the timing loop's mirror)."""
        if self._commands is not None:
            return [c.deps for c in self._commands]
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
