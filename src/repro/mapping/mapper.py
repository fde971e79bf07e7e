"""The row-centric NTT mapping algorithm (paper Secs. III-V).

One schedule lowers a size-N transform into a DRAM/PIM command program,
requiring at least one auxiliary buffer (Nb >= 2; for Nb = 1 see
:mod:`repro.mapping.single_buffer`).  :class:`NttMapper` runs it for the
paper's cyclic NTT and :class:`NegacyclicNttMapper` for the merged
negacyclic extension; they differ only in twiddles and stage order.

Structure (Sec. IV.B):

1. The first ``log R`` stages are split *vertically* into ``N/R``
   independent row-sized blocks — one activation each.  Within a block,
   the first ``log Na`` stages run as per-atom C1 commands and the rest
   as intra-row C2 commands with in-place update (read both operand
   atoms, butterfly, write both back to their origin — Sec. III.C).
2. The remaining stages are processed stage-by-stage (inter-row
   regime); each atom pair straddles two rows.

Pipelining (Sec. V) is purely a command-ordering matter here: atoms /
atom-pairs are processed in groups sized by the buffer pool (``Nb``
atoms in intra-atom, ``Nb // 2`` pairs otherwise), reads of a whole
group are emitted before its computes and writes, and in the inter-row
regime same-row accesses of a group share one activation pair — the
Fig. 6c effect that cuts activations by the group factor.

Merged negacyclic transform (an extension beyond the paper).  The paper
leaves the negacyclic psi-scaling and bit reversal to the host;
production lattice crypto merges the psi powers into the twiddles
(:mod:`repro.ntt.merged`), which fits this PIM even better:

* input arrives in **natural order** — the host bit-reversal pass
  disappears;
* every butterfly block has a **constant** zeta, which the TFG realizes
  as the degenerate geometric sequence ``(omega0 = zeta, r_omega = 1)``;
* the forward network runs the same three regimes in *reverse* order
  (largest stride first: inter-row stages, then the row blocks), so the
  same row-activation arithmetic applies;
* the intra-atom stages need per-block zetas that are not derivable by
  squaring, so they ride a ``C1N`` command carrying its Na-1 zetas as
  parameters (see ``ComputeTiming.c1n_cycles``).

The inverse is the mirror image with Gentleman-Sande butterflies (an
output-side mux on the BU multiplier) and inverse zetas; the final 1/N
scale stays on the host, as in the paper's protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..arith.modmath import mod_pow
from ..arith.roots import NttParams
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..ntt.merged import block_zeta_exponent
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .program import ProgramBuilder
from .twiddle_params import c1_root, c2_twiddles

__all__ = ["NttMapper", "NegacyclicNttMapper", "MapperOptions"]


def _chunks(seq: Sequence, size: int):
    for start in range(0, len(seq), size):
        yield seq[start:start + size]


@dataclass(frozen=True)
class MapperOptions:
    """Ablation switches for the design choices DESIGN.md calls out.

    * ``in_place_update=False`` — the naive alternative of Sec. III.C:
      inter-row stage outputs go to a mirror region (ping-pong in DRAM)
      instead of back to the input atoms, so the '-'-leg write stops
      being a buffer hit and every group pays two extra activations.
    * ``group_same_row=False`` — disables the Fig. 6c same-row command
      grouping, processing one atom pair at a time even when the buffer
      pool could hold several; isolates the activation-reduction part of
      the pipelining win from the latency-overlap part.
    """

    in_place_update: bool = True
    group_same_row: bool = True


class _RowCentricSchedule:
    """The Nb >= 2 row-centric schedule both transform kinds share.

    Stages are indexed by butterfly stride ``length`` (DIT stage ``s``
    has ``length = 1 << (s - 1)``).  Subclasses supply the intra-atom
    command (:meth:`_atom_command`) and the C2 twiddle pair
    (:meth:`_c2_pair`), and set two flags derived from the transform:
    ``gs`` (Gentleman-Sande butterflies) and ``reverse`` (largest stride
    first, inter-row stages before the row blocks).
    """

    gs = False
    reverse = False

    def __init__(self, n: int, arch: ArchParams, pim: PimParams,
                 base_row: int, bank: int, options: MapperOptions):
        if pim.nb_buffers < 2:
            raise MappingError(
                "the row-centric mapping needs an auxiliary buffer; use "
                "SingleBufferMapper for Nb=1")
        na = arch.words_per_atom
        if n < na:
            raise MappingError(f"N={n} below one atom ({na} words)")
        rows_needed = (n + arch.words_per_row - 1) // arch.words_per_row
        self.log_n = n.bit_length() - 1
        self.inter_row_stages = max(0, self.log_n - arch.log_words_per_row)
        regions = 1 if options.in_place_update or not self.inter_row_stages else 2
        if base_row + regions * rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial (plus ping-pong region) does not "
                               "fit in the bank")
        self.n = n
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.bank = bank
        self.rows_used = rows_needed
        self.options = options
        #: Where the natural-order result lands (differs from base_row
        #: only in the out-of-place ablation with an odd stage count).
        if options.in_place_update or self.inter_row_stages % 2 == 0:
            self.result_base_row = base_row
        else:
            self.result_base_row = base_row + rows_needed

    # -- per-kind hooks -----------------------------------------------------------
    def _atom_command(self, b: ProgramBuilder, buf: int,
                      atom_index: int) -> None:
        raise NotImplementedError

    def _c2_pair(self, length: int, word_a: int) -> Tuple[int, int]:
        raise NotImplementedError

    # -- public API -------------------------------------------------------------
    def generate(self) -> List[Command]:
        """The full command program, PARAM_WRITE through final PRE."""
        b = ProgramBuilder(self.bank, self.pim.nb_buffers)
        # q plus Montgomery constants travel over the global buffer as
        # 16-bit chunks; 6 words covers a 32-bit q, q' and R^2 mod q.
        b.emit(CommandType.PARAM_WRITE, payload_words=6)
        inter_row = [1 << s for s in range(self.arch.log_words_per_row,
                                           self.log_n)]
        if self.reverse:
            # Only the forward negacyclic transform runs reversed, and it
            # always maps in place, so its row blocks stay at base_row.
            self._inter_row_stages(b, inter_row[::-1])
            for block in range(self.rows_used):
                self._row_block(b, block)
        else:
            for block in range(self.rows_used):
                self._row_block(b, block)
            self._inter_row_stages(b, inter_row)
        b.close_row()
        return b.build()

    # -- phase A: one row-sized vertical block ------------------------------------
    def _row_block(self, b: ProgramBuilder, block: int) -> None:
        arch = self.arch
        row = self.base_row + block
        words_here = min(self.n - block * arch.words_per_row,
                         arch.words_per_row)
        atoms_here = words_here // arch.words_per_atom
        b.goto_row(row)
        intra_row = [1 << s for s in range(
            arch.log_words_per_atom, min(self.log_n, arch.log_words_per_row))]
        if self.reverse:
            for length in reversed(intra_row):
                self._intra_row_stage(b, row, block, atoms_here, length)
            self._intra_atom(b, row, block, atoms_here)
        else:
            self._intra_atom(b, row, block, atoms_here)
            for length in intra_row:
                self._intra_row_stage(b, row, block, atoms_here, length)

    def _intra_atom(self, b: ProgramBuilder, row: int, block: int,
                    atoms_here: int) -> None:
        """One intra-atom command per atom, group-pipelined over the
        whole buffer pool."""
        first_atom = block * self.arch.columns_per_row
        for group in _chunks(range(atoms_here), self.pim.nb_buffers):
            for buf, col in enumerate(group):
                b.cu_read(row, col, buf)
            for buf, col in enumerate(group):
                self._atom_command(b, buf, first_atom + col)
            for buf, col in enumerate(group):
                b.cu_write(row, col, buf)

    def _intra_row_stage(self, b: ProgramBuilder, row: int, block: int,
                         atoms_here: int, length: int) -> None:
        """C2 per atom pair inside one open row (all buffer hits)."""
        na = self.arch.words_per_atom
        stride_atoms = length // na
        pairs: List[Tuple[int, int]] = []
        for block_start in range(0, atoms_here, 2 * stride_atoms):
            for i in range(stride_atoms):
                pairs.append((block_start + i, block_start + i + stride_atoms))
        word_base = block * self.arch.words_per_row
        gs = self.gs
        for group in _chunks(pairs, self.pim.pair_slots):
            for slot, (col_a, col_b) in enumerate(group):
                b.cu_read(row, col_a, 2 * slot)
                b.cu_read(row, col_b, 2 * slot + 1)
            for slot, (col_a, col_b) in enumerate(group):
                omega0, r_omega = self._c2_pair(length, word_base + col_a * na)
                b.c2(2 * slot, 2 * slot + 1, omega0, r_omega, gs=gs)
            for slot, (col_a, col_b) in enumerate(group):
                b.cu_write(row, col_a, 2 * slot)
                b.cu_write(row, col_b, 2 * slot + 1)

    # -- phase B: the inter-row stages ---------------------------------------------
    def _inter_row_stages(self, b: ProgramBuilder,
                          lengths: Sequence[int]) -> None:
        """Run each stride in turn; with ``in_place_update`` off, every
        stage writes the other of two ping-pong regions."""
        src_base = self.base_row
        for length in lengths:
            if self.options.in_place_update:
                dst_base = src_base
            else:
                dst_base = (self.base_row + self.rows_used
                            if src_base == self.base_row else self.base_row)
            self._inter_row_stage(b, length, src_base, dst_base)
            src_base = dst_base

    def _inter_row_stage(self, b: ProgramBuilder, length: int,
                         src_base: int, dst_base: int) -> None:
        """C2 per atom pair straddling two rows, group-batched so a group
        shares one (ACT A, ACT B, ACT A) sweep — the pipelining payoff.

        In place, the '-'-leg writes hit the still-open row B (the
        paper's in-place update) and one activation back to row A serves
        the '+'-leg writes and the next group's reads.  With ``dst_base``
        at the mirror region, both writes open an *additional* row.
        """
        arch = self.arch
        na = arch.words_per_atom
        r_words = arch.words_per_row
        row_dist = length // r_words
        if row_dist < 1:
            raise MappingError(f"stride {length} is not inter-row")
        group_size = self.pim.pair_slots if self.options.group_same_row else 1
        gs = self.gs
        for rel_row in range(self.rows_used):
            if (rel_row * r_words) % (2 * length) >= length:
                continue  # this row is a '-'-leg row; handled with its partner
            row_a = src_base + rel_row
            row_b = row_a + row_dist
            out_a = dst_base + rel_row
            out_b = out_a + row_dist
            for group in _chunks(range(arch.columns_per_row), group_size):
                # Reads of all '+'-legs (row A open once per group).
                b.goto_row(row_a)
                for slot, col in enumerate(group):
                    b.cu_read(row_a, col, 2 * slot)
                # Reads of all '-'-legs.
                b.goto_row(row_b)
                for slot, col in enumerate(group):
                    b.cu_read(row_b, col, 2 * slot + 1)
                # Vectorized butterflies (no row involvement).
                for slot, col in enumerate(group):
                    omega0, r_omega = self._c2_pair(
                        length, rel_row * r_words + col * na)
                    b.c2(2 * slot, 2 * slot + 1, omega0, r_omega, gs=gs)
                b.goto_row(out_b)
                for slot, col in enumerate(group):
                    b.cu_write(out_b, col, 2 * slot + 1)
                b.goto_row(out_a)
                for slot, col in enumerate(group):
                    b.cu_write(out_a, col, 2 * slot)


class NttMapper(_RowCentricSchedule):
    """Generates the command program for one cyclic NTT on one bank."""

    def __init__(self, ntt: NttParams, arch: ArchParams, pim: PimParams,
                 base_row: int = 0, bank: int = 0,
                 options: MapperOptions = MapperOptions()):
        super().__init__(ntt.n, arch, pim, base_row, bank, options)
        self.ntt = ntt
        self._c1_root = c1_root(ntt, arch.words_per_atom)

    def _atom_command(self, b: ProgramBuilder, buf: int,
                      atom_index: int) -> None:
        b.c1(buf, self._c1_root)

    def _c2_pair(self, length: int, word_a: int) -> Tuple[int, int]:
        return c2_twiddles(self.ntt, length.bit_length(), word_a)


class NegacyclicNttMapper(_RowCentricSchedule):
    """Command generation for the merged negacyclic transform."""

    def __init__(self, ring: NegacyclicParams, arch: ArchParams,
                 pim: PimParams, base_row: int = 0, bank: int = 0,
                 inverse: bool = False):
        super().__init__(ring.n, arch, pim, base_row, bank, MapperOptions())
        self.ring = ring
        self.gs = inverse
        self.reverse = not inverse
        # Twiddle base: psi forward, psi^-1 inverse.
        self._root = ring.psi_inv if inverse else ring.psi

    def _zeta(self, length: int, start: int) -> int:
        exp = block_zeta_exponent(self.ring.n, length, start)
        return mod_pow(self._root, exp, self.ring.q)

    def _atom_zetas(self, atom_index: int) -> Tuple[int, ...]:
        """The Na-1 per-block zetas one C1N consumes, in consumption
        order (forward: strides Na/2 down; inverse: strides 1 up)."""
        na = self.arch.words_per_atom
        base = atom_index * na
        strides = [1 << s for s in range(self.arch.log_words_per_atom)]
        if self.reverse:
            strides.reverse()
        return tuple(self._zeta(length, base + start)
                     for length in strides
                     for start in range(0, na, 2 * length))

    def _atom_command(self, b: ProgramBuilder, buf: int,
                      atom_index: int) -> None:
        b.c1n(buf, self._atom_zetas(atom_index), gs=self.gs)

    def _c2_pair(self, length: int, word_a: int) -> Tuple[int, int]:
        return self._zeta(length, word_a - word_a % (2 * length)), 1
