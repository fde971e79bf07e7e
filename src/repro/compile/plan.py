"""The executable functional plan the pass pipeline produces.

A :class:`FunctionalPlan` is the macro-op program
:meth:`repro.pim.bank_pim.PimBank.run_stream` executes instead of the
per-command loop.  Two shapes exist:

* ``mode="atom"`` — whole-atom buffer renaming (the Nb >= 2 mapping):
  ops move full ``Na``-word buffer versions between the cell array, a
  ``(…, n_slots, Na)`` value pool and the stacked CU kernels.  Store-to-load
  forwarding keeps every intermediate stage in the pool: the plan reads
  each atom from the cells at most once and writes it back at most
  once (a Table III plan: one read op and one write op of N/8 atoms).
  Slots are allocated by liveness, so an in-place program updates its
  atoms in place: a Table III plan's pool is one image of its N/8
  atoms, and every one of its ops addresses a (reshape, slice) view of
  it.
* ``mode="lane"`` — lane-granular renaming (the Nb=1 scalar-µ-op
  mapping): versions are single lanes plus the CU's scalar register;
  LOAD/BU/STORE_SCALAR runs execute as stacked copies / butterflies.

Ops carry ``np.intp`` index arrays into the pool: slots for atom mode,
version ids into an ``(n_virtual,)`` pool for lane mode.  An atom op
that matched a view also carries it; the executor then slices instead
of gathering and scattering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

__all__ = ["FunctionalPlan"]


@dataclass
class FunctionalPlan:
    """Depth-grouped macro-ops for :meth:`repro.pim.bank_pim.PimBank.run_stream`.

    Atom-mode ``ops`` entries (executed in order; every array holds pool
    slots, members ordered by slot):

    * ``("param", cmd_index)`` — latch the staged modulus.
    * ``("read", rows, cols, slots, view)`` — gather ``k`` atoms from
      the cell array into the pool.  Only an atom's first CU_READ
      gathers: a later one is *forwarded* — it has no op, and every
      consumer of its version (compute inputs, write inputs,
      ``final_versions``) reads the version the atom's previous
      CU_WRITE stored, or its first read gathered, instead.
    * ``("write", rows, cols, slots, view)`` — scatter ``k`` slots back.
      Only an atom's last CU_WRITE stores (dead-store elimination);
      nothing observes a cell in the middle of a plan.
    * ``("c1", vins, vouts, omegas, reduced, view)`` — ``k`` intra-atom
      NTTs, run as one lane-major kernel call.
    * ``("c2", pins, sins, pouts, souts, omega0s, r_omegas, gs, reduced,
      view)``.
    * ``("c1n", vins, vouts, zetas_rows, gs, reduced, view)``.

    ``reduced`` is True when the compiler proved every input word below
    the modulus the group runs under (each input version is the output
    of a C1/C1N/C2 op after the program's first PARAM_WRITE, or of any
    one in a program with none); the executor then skips the kernels'
    scan for words ``>= q``.

    ``view`` is None when the group matched no view, else: for a read or
    write, ``(atom, slot, k)`` — atoms ``atom …`` (``row * columns +
    col``) and slots ``slot …``, ``k`` of each in a run; for an in-place
    C1 or C1N, the slot run ``(start, stop)``; for an in-place C2,
    ``(start, stop, blocks, half, swap)`` — slots ``start:stop`` as
    ``blocks`` blocks of two ``half``-slot halves, P in the lower half
    (in the upper one with ``swap``).  Twiddle rows follow the members.

    Lane-mode entries (vid arrays are ``np.intp``):

    * ``("lread", rows, cols, vouts2d)`` / ``("lwrite", rows, cols,
      vins2d)`` — ``(k, Na)`` whole-atom gathers/scatters through
      per-lane versions.
    * ``("lc1", vins2d, vouts2d, omegas)`` — ``k`` intra-atom NTTs,
      run as one lane-major kernel call on their ``(Na, k)`` transpose.
    * ``("load", lane_vins, reg_vouts)`` — ``k`` LOAD_SCALARs: register
      versions receive ``lane % q``.
    * ``("bu", reg_vins, lane_vins, reg_vouts, lane_vouts, omegas)`` —
      ``k`` scalar butterflies ``(a', b') = BU(reg, lane)``.
    * ``("store", reg_vins, lane_vouts)`` — ``k`` STORE_SCALARs.
    * ``("param", cmd_index)``.

    ``n_virtual`` counts the renaming's versions; an atom plan's pool
    holds ``n_slots`` of them at a time.  ``init_versions`` seeds
    atom-mode slots from the physical buffers at run start and
    ``final_versions`` restores the buffer file afterwards, both as
    ``(buf, slot)``.  Lane mode seeds a full ``Na``-lane block per
    touched buffer (``lane_init``: ``(buf, first_vid)`` with lanes
    contiguous), restores via ``lane_final`` (``(buf, vid_array)``), and
    carries the scalar register through ``reg_init`` / ``reg_final``
    (``None`` when the program never reads-before-write / never writes
    it).

    ``max_buffer`` is the largest physical buffer index the program
    touches: the executor refuses to fuse when it exceeds the bank's
    buffer file (the legacy loop then raises the range error at the
    offending command, before any side effect).
    ``computes_before_param`` records that a command needing q
    precedes the first PARAM_WRITE: with no modulus loaded the executor
    refuses to fuse, so the legacy loop raises at exactly that command.
    """

    ops: List[tuple]
    n_virtual: int
    init_versions: List[Tuple[int, int]]
    final_versions: List[Tuple[int, int]]
    has_param: bool
    max_buffer: int
    mode: str = "atom"
    n_slots: int = 0
    lane_init: Tuple[Tuple[int, int], ...] = ()
    lane_final: tuple = ()
    reg_init: Optional[int] = None
    reg_final: Optional[int] = None
    computes_before_param: bool = False
