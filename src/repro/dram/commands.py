"""DRAM + PIM command vocabulary.

The memory controller lowers an NTT invocation into a sequence of these
commands (paper Fig. 1 and Sec. III.D).  Plain DRAM commands (ACT, PRE,
RD, WR) coexist with the PIM extensions:

* ``CU_READ`` / ``CU_WRITE`` — column transfers that stop at an atom
  buffer instead of chip I/O,
* ``C1`` — intra-atom NTT (Algorithm 1),
* ``C2`` — one Na-way vectorized butterfly between two buffers
  (Algorithm 2),
* ``PARAM_WRITE`` — loads (q, omega0, r_omega) scalars into CU registers
  via the global buffer.

Commands carry optional ``deps`` — indices of earlier commands whose
*completion* must precede this command's *issue* (data hazards through
buffers).  The engine issues strictly in list order (a real MC's command
queue); dependencies only add stall time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = ["CommandType", "Command", "CODE_CTYPES", "CTYPE_CODES",
           "REQUIRED_FIELDS"]


class CommandType(enum.Enum):
    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    CU_READ = "CU_READ"
    CU_WRITE = "CU_WRITE"
    C1 = "C1"
    C2 = "C2"
    PARAM_WRITE = "PARAM_WRITE"
    # Extension: intra-atom stages of the *merged negacyclic* transform
    # (decreasing stride, one constant zeta per butterfly block — seven
    # zetas per atom, carried as command parameters).  See
    # repro.ntt.merged and repro.mapping.mapper.NegacyclicNttMapper.
    C1N = "C1N"
    # Scalar micro-ops, normally internal to C1/C2.  The MC sequences them
    # explicitly only in the single-buffer (Nb=1) degenerate mapping, where
    # the CU's two operand registers are the only place to stage data
    # (Sec. III.B; DESIGN.md note 3).
    LOAD_SCALAR = "LOAD_SCALAR"    # scalar reg <- buf[lane]
    BU_SCALAR = "BU_SCALAR"        # BU(scalar reg, buf[lane]); buf[lane] <- b'
    STORE_SCALAR = "STORE_SCALAR"  # buf[lane] <- scalar reg (holds a')

    @property
    def is_column(self) -> bool:
        """Column commands contend for tCCD and need the row open."""
        return self in _COLUMN_TYPES

    @property
    def is_compute(self) -> bool:
        return self in _COMPUTE_TYPES

    @property
    def is_write_like(self) -> bool:
        return self in _WRITE_LIKE_TYPES


# Membership sets built once — these properties run per command in the
# timing engine's inner loop.
_COLUMN_TYPES = frozenset((CommandType.RD, CommandType.WR,
                           CommandType.CU_READ, CommandType.CU_WRITE))
_COMPUTE_TYPES = frozenset((CommandType.C1, CommandType.C2, CommandType.C1N,
                            CommandType.LOAD_SCALAR, CommandType.BU_SCALAR,
                            CommandType.STORE_SCALAR))
_WRITE_LIKE_TYPES = frozenset((CommandType.WR, CommandType.CU_WRITE))
# Field requirements checked by Command.__post_init__.
_ROW_TYPES = frozenset((CommandType.ACT, CommandType.RD, CommandType.WR,
                        CommandType.CU_READ, CommandType.CU_WRITE))
_BUF_TYPES = frozenset((CommandType.CU_READ, CommandType.CU_WRITE,
                        CommandType.C1, CommandType.C1N))
_SCALAR_TYPES = frozenset((CommandType.LOAD_SCALAR, CommandType.BU_SCALAR,
                           CommandType.STORE_SCALAR))
#: The optional integer fields each command type requires — the rules
#: :meth:`Command.__post_init__` enforces.  The IR's columns encode an
#: absent field as -1, so they read -1 as absent only in a field the
#: command's type does not require (:mod:`repro.compile.ir`).
REQUIRED_FIELDS = {
    "row": _ROW_TYPES,
    "col": _COLUMN_TYPES,
    "buf": _BUF_TYPES | {CommandType.C2} | _SCALAR_TYPES,
    "buf2": frozenset((CommandType.C2,)),
    "lane": _SCALAR_TYPES,
}

#: Canonical integer encoding of the command vocabulary — the single
#: source of truth shared by the compiled stream's SoA ctype column,
#: the stream engine's bincount/latency tables, and ComputeTiming.
#: ``CODE_CTYPES[code]`` is the type for a code; ``CTYPE_CODES`` the
#: inverse map.
CODE_CTYPES: Tuple[CommandType, ...] = tuple(CommandType)
CTYPE_CODES = {ctype: code for code, ctype in enumerate(CODE_CTYPES)}


@dataclass(frozen=True)
class Command:
    """One entry of the MC's command queue.

    Frozen: programs are shared through the program cache
    (:mod:`repro.mapping.program_cache`), so commands must be immutable
    after construction — derive variants with ``dataclasses.replace``
    (as the batch/multi-bank mergers do).

    Only the fields relevant to the type need to be set:

    ========== =======================================================
    type       fields used
    ========== =======================================================
    ACT        bank, row
    PRE        bank
    RD/WR      bank, row, col
    CU_READ    bank, row, col, buf      (row-buffer atom -> atom buffer)
    CU_WRITE   bank, row, col, buf      (atom buffer -> row-buffer atom)
    C1         bank, buf, omega0, r_omega
    C2         bank, buf, buf2, omega0, r_omega   (buf=P leg, buf2=S leg)
    PARAM_WRITE bank, payload_words
    ========== =======================================================
    """

    ctype: CommandType
    bank: int = 0
    row: Optional[int] = None
    col: Optional[int] = None
    buf: Optional[int] = None
    buf2: Optional[int] = None
    lane: Optional[int] = None
    omega0: Optional[int] = None
    r_omega: Optional[int] = None
    payload_words: int = 0
    gs: bool = False                      # Gentleman-Sande butterfly form
    zetas: Tuple[int, ...] = ()           # C1N per-block twiddles
    deps: Tuple[int, ...] = field(default_factory=tuple)
    label: str = ""

    def __post_init__(self):
        ctype = self.ctype
        if ctype in _ROW_TYPES and self.row is None:
            raise ValueError(f"{ctype.value} requires a row")
        if ctype in _COLUMN_TYPES and self.col is None:
            raise ValueError(f"{ctype.value} requires a column")
        if ctype in _BUF_TYPES and self.buf is None:
            raise ValueError(f"{ctype.value} requires a buffer index")
        if ctype is CommandType.C1N and not self.zetas:
            raise ValueError("C1N requires its per-block zetas")
        if ctype is CommandType.C2 and (self.buf is None or self.buf2 is None):
            raise ValueError("C2 requires two buffer indices")
        if ctype in _SCALAR_TYPES and (self.buf is None or self.lane is None):
            raise ValueError(f"{ctype.value} requires a buffer and a lane")

    def describe(self) -> str:
        """Short human-readable form for traces and timing diagrams."""
        t = self.ctype
        if t is CommandType.ACT:
            return f"ACT r{self.row}"
        if t is CommandType.PRE:
            return "PRE"
        if t.is_column:
            return f"{t.value} r{self.row} c{self.col}" + (
                f" b{self.buf}" if self.buf is not None else "")
        if t is CommandType.C1:
            return f"C1 b{self.buf}"
        if t is CommandType.C1N:
            return f"C1N b{self.buf}" + ("i" if self.gs else "")
        if t is CommandType.C2:
            return f"C2 b{self.buf},b{self.buf2}" + (" gs" if self.gs else "")
        if t in _SCALAR_TYPES:
            return f"{t.value} b{self.buf}[{self.lane}]"
        return f"PARAM x{self.payload_words}"
