"""The executable functional plan the pass pipeline produces.

A :class:`FunctionalPlan` is the macro-op program
:meth:`repro.pim.bank_pim.PimBank.run_stream` executes instead of the
per-command loop.  Two shapes exist:

* ``mode="atom"`` — whole-atom buffer renaming (the Nb >= 2 mapping):
  ops move full ``Na``-word buffer versions between the cell array, the
  virtual-version pool and the stacked CU kernels.
* ``mode="lane"`` — lane-granular renaming (the Nb=1 scalar-µ-op
  mapping): versions are single lanes plus the CU's scalar register;
  LOAD/BU/STORE_SCALAR runs execute as stacked copies / butterflies.

``pooled=True`` ops carry ``np.intp`` index arrays into one shared
value pool (``(n_virtual, Na)`` for atom mode, ``(n_virtual,)`` for
lane mode); unpooled atom ops keep the legacy list-of-version payloads
and the executor stacks rows per group (the pre-pooling behaviour, kept
for the ``pool`` pass toggle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["FunctionalPlan"]


@dataclass
class FunctionalPlan:
    """Depth-grouped macro-ops for :meth:`repro.pim.bank_pim.PimBank.run_stream`.

    Atom-mode ``ops`` entries (executed in order):

    * ``("param", cmd_index)`` — latch the staged modulus.
    * ``("read", rows, cols, vouts)`` — gather ``k`` atoms from the
      cell array into fresh virtual-buffer versions.
    * ``("write", rows, cols, vins)`` — scatter ``k`` versions back.
    * ``("c1", vins, vouts, omegas)`` — one stacked intra-atom NTT.
    * ``("c2", pins, sins, pouts, souts, omega0s, r_omegas, gs)``.
    * ``("c1n", vins, vouts, zetas_rows, gs)``.

    Lane-mode entries (all pooled; vid arrays are ``np.intp``):

    * ``("lread", rows, cols, vouts2d)`` / ``("lwrite", rows, cols,
      vins2d)`` — ``(k, Na)`` whole-atom gathers/scatters through
      per-lane versions.
    * ``("lc1", vins2d, vouts2d, omegas)`` — stacked intra-atom NTTs.
    * ``("load", lane_vins, reg_vouts)`` — ``k`` LOAD_SCALARs: register
      versions receive ``lane % q``.
    * ``("bu", reg_vins, lane_vins, reg_vouts, lane_vouts, omegas)`` —
      ``k`` scalar butterflies ``(a', b') = BU(reg, lane)``.
    * ``("store", reg_vins, lane_vouts)`` — ``k`` STORE_SCALARs.
    * ``("param", cmd_index)``.

    Virtual ids are dense ints; ``init_versions`` seeds atom-mode
    versions from the physical buffers at run start and
    ``final_versions`` restores the buffer file afterwards.  Lane mode
    seeds a full ``Na``-lane block per touched buffer (``lane_init``:
    ``(buf, first_vid)`` with lanes contiguous), restores via
    ``lane_final`` (``(buf, vid_array)``), and carries the scalar
    register through ``reg_init`` / ``reg_final`` (``None`` when the
    program never reads-before-write / never writes it).

    ``max_buffer`` is the largest physical buffer index the program
    touches: the executor refuses to fuse when it exceeds the bank's
    buffer file (the legacy loop then raises the range error at the
    offending command, before any side effect).
    """

    ops: List[tuple]
    n_virtual: int
    init_versions: List[Tuple[int, int]]
    final_versions: List[Tuple[int, int]]
    has_param: bool
    max_buffer: int
    mode: str = "atom"
    pooled: bool = True
    lane_init: Tuple[Tuple[int, int], ...] = ()
    lane_final: tuple = ()
    reg_init: Optional[int] = None
    reg_final: Optional[int] = None
