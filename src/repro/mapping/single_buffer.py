"""Degenerate Nb=1 mapping (GSA only) — the paper's negative baseline.

With a single atom buffer and two scalar CU registers, intra-atom stages
still work (C1 through the GSA), but every inter-atom butterfly must
stage data element-by-element through the one buffer (Sec. III.B):

    [atom A in buffer]      LOAD_SCALAR  a <- buf[lane]
    CU_READ atom B          (clobbers the buffer)
    BU_SCALAR               b' -> buf[lane], a' stays in the register
    CU_WRITE atom B
    CU_READ atom A          (again!)
    STORE_SCALAR            a' -> buf[lane]
    CU_WRITE atom A         (buffer now holds A for the next butterfly)

i.e. ~2 reads + 2 writes *per element pair* instead of per atom pair, and
in the inter-row regime every read/write pair flips the open row — about
half of all accesses activate, exactly the paper's account.  Fig. 7's
"no advantage over software" line comes from this mapper.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..arith.roots import NttParams
from ..compile.ir import StreamIR
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..pim.params import PimParams
from .program import FIELDS, assemble, ops

__all__ = ["SingleBufferMapper"]


class SingleBufferMapper:
    """Command generation when only the primary buffer exists."""

    def __init__(self, ntt: NttParams, arch: ArchParams, pim: PimParams,
                 base_row: int = 0, bank: int = 0):
        if pim.nb_buffers != 1:
            raise MappingError("SingleBufferMapper is exactly the Nb=1 case")
        if ntt.n < arch.words_per_atom:
            raise MappingError("N below one atom")
        rows_needed = (ntt.n + arch.words_per_row - 1) // arch.words_per_row
        if base_row < 0 or base_row + rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial does not fit in the bank")
        self.ntt = ntt
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.bank = bank
        self.rows_used = rows_needed
        self.result_base_row = base_row  # Nb=1 always computes in place

    def build(self) -> StreamIR:
        """The full program, PARAM_WRITE through final PRE, as IR."""
        stages = range(self.arch.log_words_per_atom + 1, self.ntt.log_n + 1)
        body = [self._intra_atom_phase()] + [
            self._inter_atom_stage(stage) for stage in stages]
        return assemble(np.concatenate(body), self.bank, self.ntt.omega,
                        self.ntt.q)

    def generate(self) -> List[Command]:
        """The program as :class:`Command` objects (the reference form)."""
        return list(self.build().materialize_commands())

    def _intra_atom_phase(self) -> np.ndarray:
        """Read, C1 and write back every atom, one row after another."""
        na = self.arch.words_per_atom
        row = self.base_row + np.arange(self.rows_used)[:, None]
        col = np.arange(min(self.ntt.n, self.arch.words_per_row) // na)
        root = self.ntt.n // na  # C1 root omega^(N/Na), as an exponent
        read = ops(CommandType.CU_READ, row=row, col=col, buf=0)
        c1 = np.broadcast_to(ops(CommandType.C1, buf=0, omega0=root,
                                 r_omega=root), read.shape)
        write = ops(CommandType.CU_WRITE, row=row, col=col, buf=0)
        return np.stack([read, c1, write], axis=-2).reshape(-1, FIELDS)

    def _inter_atom_stage(self, stage: int) -> np.ndarray:
        """The stage's N/2 butterflies in scan order, each staged through
        the buffer.  The buffer still holds a butterfly's '+'-leg atom
        from the previous one except at lane 0, where the scan enters a
        new atom and must read it first."""
        n = self.ntt.n
        r = self.arch.words_per_row
        na = self.arch.words_per_atom
        m = 1 << (stage - 1)
        t = np.arange(n // 2)
        j = t % m
        word_a = t // m * 2 * m + j
        word_b = word_a + m
        row_a, col_a = self.base_row + word_a // r, word_a % r // na
        row_b, col_b = self.base_row + word_b // r, word_b % r // na
        lane = word_a % na
        butterflies = np.stack([
            ops(CommandType.CU_READ, row=row_a, col=col_a, buf=0),
            ops(CommandType.LOAD_SCALAR, buf=0, lane=lane),
            ops(CommandType.CU_READ, row=row_b, col=col_b, buf=0),
            ops(CommandType.BU_SCALAR, buf=0, lane=lane,
                omega0=(n >> stage) * j),
            ops(CommandType.CU_WRITE, row=row_b, col=col_b, buf=0),
            ops(CommandType.CU_READ, row=row_a, col=col_a, buf=0),
            ops(CommandType.STORE_SCALAR, buf=0, lane=lane),
            ops(CommandType.CU_WRITE, row=row_a, col=col_a, buf=0)], axis=1)
        keep = np.ones(butterflies.shape[:2], dtype=np.bool_)
        keep[:, 0] = lane == 0
        return butterflies[keep]
