"""Functional storage model of a DRAM bank (cell array + row buffer).

Timing lives in :mod:`repro.dram.engine`; this module only answers "what
data is where".  The row-buffer copy semantics matter for correctness:
an activated row's contents live in the bitline sense amplifiers, column
accesses hit the row buffer, and a precharge writes the (possibly
modified) buffer back — so a CU_WRITE before a PRE really does update
the array, which is what makes the paper's in-place update sound.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import MappingError
from .timing import ArchParams

__all__ = ["BankStorage"]


class BankStorage:
    """One bank: ``rows_per_bank`` x ``words_per_row`` words plus an
    explicit row buffer with open/closed state.

    With ``stack`` — a leading bank-axis shape, ``()`` or ``(banks,)`` —
    the cell array instead holds that many lockstep banks and only the
    ``rows`` window a compiled program touches: the data plane of
    :meth:`repro.pim.bank_pim.PimBank.run_stream`, whose host I/O moves
    uint64 arrays.  Per-command (row buffer) access needs the single
    full bank.
    """

    def __init__(self, arch: ArchParams,
                 stack: Optional[Tuple[int, ...]] = None,
                 rows: Optional[range] = None):
        self.arch = arch
        self.stack = stack
        self.rows = rows if rows is not None else range(arch.rows_per_bank)
        self._cells = np.zeros((stack or ()) + (len(self.rows),
                                                arch.words_per_row),
                               dtype=np.uint64)
        self._row_buffer = np.zeros(arch.words_per_row, dtype=np.uint64)
        self._open_row: Optional[int] = None

    # -- row management ----------------------------------------------------
    @property
    def open_row(self) -> Optional[int]:
        return self._open_row

    def activate(self, row: int) -> None:
        """Copy a row into the row buffer (ACT)."""
        if self._open_row is not None:
            raise MappingError(
                f"ACT row {row} while row {self._open_row} is open (missing PRE)")
        if not 0 <= row < self.arch.rows_per_bank:
            raise MappingError(f"row {row} outside bank")
        self._row_buffer[:] = self._cells[row]
        self._open_row = row

    def precharge(self) -> None:
        """Write the row buffer back and close the row (PRE)."""
        if self._open_row is None:
            raise MappingError("PRE with no open row")
        self._cells[self._open_row] = self._row_buffer
        self._open_row = None

    def _check_column_access(self, row: int, col: int) -> None:
        if self._open_row is None:
            raise MappingError(f"column access to row {row} with no open row")
        if self._open_row != row:
            raise MappingError(
                f"column access to row {row} but row {self._open_row} is open")
        if not 0 <= col < self.arch.columns_per_row:
            raise MappingError(f"column {col} outside row")

    # -- column (atom) access ----------------------------------------------
    def read_atom(self, row: int, col: int) -> List[int]:
        """RD / CU_READ: one atom out of the open row buffer."""
        self._check_column_access(row, col)
        na = self.arch.words_per_atom
        return self._row_buffer[col * na:(col + 1) * na].tolist()

    def write_atom(self, row: int, col: int, words: List[int]) -> None:
        """WR / CU_WRITE: one atom into the open row buffer."""
        self._check_column_access(row, col)
        na = self.arch.words_per_atom
        if len(words) != na:
            raise MappingError(f"atom write needs {na} words, got {len(words)}")
        self._row_buffer[col * na:(col + 1) * na] = np.asarray(words,
                                                               dtype=np.uint64)

    # -- compiled-stream back-door -------------------------------------------
    def atoms_view(self) -> np.ndarray:
        """``(*stack, rows, columns, Na)`` uint64 view of the cell array;
        row ``i`` of the view is bank row ``self.rows[i]``.

        The compiled-stream executor gathers/scatters whole fused groups
        of atoms through this view, bypassing the row buffer: the stream
        compiler has already proven (symbolically, at compile time) that
        every column access in the program hits its ACT'd row and that
        every row is precharged again, under which the row buffer is an
        exact mirror of the open row — so direct cell access is
        observably identical.
        """
        return self._cells.reshape(self._cells.shape[:-1] + (
            self.arch.columns_per_row, self.arch.words_per_atom))

    # -- host back-door (loading inputs / reading results) -------------------
    def _polynomial_span(self, base_row: int, length: int) -> np.ndarray:
        """``(*stack, words)`` view of the whole rows a contiguous
        polynomial of ``length`` words starting at ``base_row`` covers."""
        if self._open_row is not None:
            raise MappingError("host access while a row is open")
        r = self.arch.words_per_row
        start = base_row - self.rows.start
        stop = start + -(-length // r)
        if start < 0 or stop > len(self.rows):
            raise MappingError(
                f"polynomial at row {base_row} outside rows {self.rows}")
        span = self._cells[..., start:stop, :]
        return span.reshape(span.shape[:-2] + (-1,))

    def host_write_polynomial(self, base_row: int, values) -> None:
        """Lay a polynomial out contiguously starting at ``base_row``:
        one slice copy of ``values`` (a sequence of ints for one bank,
        an ``(*stack, N)`` array for a stack)."""
        length = (values.shape[-1] if isinstance(values, np.ndarray)
                  else len(values))
        self._polynomial_span(base_row, length)[..., :length] = values

    def host_read_polynomial(self, base_row: int, length: int):
        """Read back a contiguous polynomial in one slice: Python ints
        for one bank, a fresh ``(*stack, length)`` uint64 array for a
        stack."""
        words = self._polynomial_span(base_row, length)[..., :length]
        return words.tolist() if self.stack is None else words.copy()
