"""The row-centric NTT mapping algorithm (paper Secs. III-V).

One schedule lowers a size-N transform into a DRAM/PIM command program,
requiring at least one auxiliary buffer (Nb >= 2; for Nb = 1 see
:mod:`repro.mapping.single_buffer`).  :class:`NttMapper` runs it for the
paper's cyclic NTT and :class:`NegacyclicNttMapper` for the merged
negacyclic extension; they differ only in twiddles and stage order.
The schedule is closed-form, so each regime is emitted as one op table
(:mod:`repro.mapping.program`) with the butterfly stride on a leading
axis — every intra-row stride has the same pairs per row and every
inter-row stride the same ``rows / 2`` row pairs, so all of a regime's
strides broadcast together — and :func:`~repro.mapping.program.assemble`
turns the tables straight into the compiler's
:class:`~repro.compile.ir.StreamIR`; ``generate()`` materializes the
equivalent :class:`~repro.dram.commands.Command` list for reference.
Programs are bank-relative (every command on bank 0): one serves every
bank of a dispatch, and the bus interleave puts program ``k`` on bank
``k`` (:func:`repro.compile.lower.interleave_irs`).

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
from typing import List, Tuple

import numpy as np

from ..arith.roots import NttParams
from ..compile.ir import StreamIR
from ..dram.commands import Command, CommandType
from ..dram.timing import ArchParams
from ..errors import MappingError
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .program import FIELDS, assemble, grouped, ops

__all__ = ["NttMapper", "NegacyclicNttMapper", "MapperOptions"]

CU_READ, CU_WRITE, C2 = (CommandType.CU_READ, CommandType.CU_WRITE,
                         CommandType.C2)


def _bit_reverse(values: np.ndarray, bits: int) -> np.ndarray:
    out = np.zeros_like(values)
    for bit in range(bits):
        out |= ((values >> bit) & 1) << (bits - 1 - bit)
    return out


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
    has ``length = 1 << (s - 1)``); op-table fields are index arithmetic
    over strides, rows, atoms and pairs, twiddles are exponents of
    ``root``.  Subclasses supply the intra-atom ops (:meth:`_atom_ops`)
    and the C2 twiddle exponents (:meth:`_c2_twiddles`, broadcast over
    a stride array), and set ``gs`` (Gentleman-Sande butterflies) and
    ``reverse`` (largest stride first, inter-row stages before the row
    blocks).
    """

    gs = False
    reverse = False
    #: C1N zeta exponents, one row per atom (negacyclic only).
    _zetas = None

    def __init__(self, n: int, q: int, root: int, arch: ArchParams,
                 pim: PimParams, base_row: int, options: MapperOptions):
        if pim.nb_buffers < 2:
            raise MappingError(
                "the row-centric mapping, and with it the merged "
                "negacyclic mapping, needs an auxiliary buffer (Nb >= 2)")
        na = arch.words_per_atom
        if n < na:
            raise MappingError(f"N={n} below one atom ({na} words)")
        rows_needed = (n + arch.words_per_row - 1) // arch.words_per_row
        self.log_n = n.bit_length() - 1
        self.inter_row_stages = max(0, self.log_n - arch.log_words_per_row)
        regions = 1 if options.in_place_update or not self.inter_row_stages else 2
        if base_row < 0 or base_row + regions * rows_needed > arch.rows_per_bank:
            raise MappingError("polynomial (plus ping-pong region) does not "
                               "fit in the bank")
        self.n = n
        self.q = q
        self.root = root
        self.arch = arch
        self.pim = pim
        self.base_row = base_row
        self.rows_used = rows_needed
        self.options = options
        #: Where the natural-order result lands (differs from base_row
        #: only in the out-of-place ablation with an odd stage count).
        if options.in_place_update or self.inter_row_stages % 2 == 0:
            self.result_base_row = base_row
        else:
            self.result_base_row = base_row + rows_needed

    # -- per-kind hooks -----------------------------------------------------------
    def _atom_ops(self, bufs: np.ndarray, atoms: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _c2_twiddles(self, length: np.ndarray, word_a: np.ndarray):
        """``(omega0, r_omega)`` exponents of the C2 whose '+'-leg atom
        starts at word ``word_a`` at stride ``length`` (arrays that
        broadcast together)."""
        raise NotImplementedError

    # -- public API -------------------------------------------------------------
    def build(self) -> StreamIR:
        """The full program, PARAM_WRITE through final PRE, as IR."""
        body = [self._row_blocks()]
        if self.inter_row_stages:
            body.append(self._inter_row_stages())
        if self.reverse:
            # Only the forward negacyclic transform runs reversed, and it
            # always maps in place, so its row blocks stay at base_row.
            body.reverse()
        return assemble(np.concatenate(body), self.root, self.q, self._zetas)

    def generate(self) -> List[Command]:
        """The program as :class:`Command` objects (the reference form)."""
        return list(self.build().materialize_commands())

    def _strides(self, lo: int, hi: int) -> np.ndarray:
        """The butterfly strides ``2**lo .. 2**(hi-1)`` in run order."""
        lengths = 1 << np.arange(lo, hi)
        return lengths[::-1] if self.reverse else lengths

    # -- phase A: the row-sized vertical blocks -----------------------------------
    def _row_blocks(self) -> np.ndarray:
        """Every block's intra-atom sweep and intra-row stages; block
        ``b`` owns row ``base_row + b`` (one activation each)."""
        arch = self.arch
        blocks = np.arange(self.rows_used)[:, None]
        atoms = min(self.n, arch.words_per_row) // arch.words_per_atom
        stages = [self._intra_atom(blocks, atoms)]
        lengths = self._strides(arch.log_words_per_atom,
                                min(self.log_n, arch.log_words_per_row))
        if len(lengths):
            stages.append(self._intra_row_stages(
                blocks[:, :, None], atoms, lengths[:, None]).reshape(
                    self.rows_used, -1, FIELDS))
        if self.reverse:
            stages.reverse()
        return np.concatenate(stages, axis=1).reshape(-1, FIELDS)

    def _intra_atom(self, blocks: np.ndarray, atoms: int) -> np.ndarray:
        """One intra-atom op per atom, group-pipelined over the whole
        buffer pool."""
        row = self.base_row + blocks
        col = np.arange(atoms)
        buf = col % self.pim.nb_buffers
        read = ops(CU_READ, row=row, col=col, buf=buf)
        compute = np.broadcast_to(
            self._atom_ops(buf, blocks * self.arch.columns_per_row + col),
            read.shape)
        write = ops(CU_WRITE, row=row, col=col, buf=buf)
        return grouped([read, compute, write], self.pim.nb_buffers)

    def _intra_row_stages(self, blocks: np.ndarray, atoms: int,
                          lengths: np.ndarray) -> np.ndarray:
        """C2 per atom pair inside one open row (all buffer hits), every
        stride at once: ``blocks`` is ``(blocks, 1, 1)``, ``lengths``
        ``(strides, 1)``, the table ``(blocks, strides, ops, FIELDS)``."""
        na = self.arch.words_per_atom
        stride = lengths // na
        pair = np.arange(atoms // 2)
        col_a = pair // stride * 2 * stride + pair % stride
        col_b = col_a + stride
        buf = 2 * (pair % self.pim.pair_slots)
        row = self.base_row + blocks
        omega0, r_omega = self._c2_twiddles(
            lengths, blocks * self.arch.words_per_row + col_a * na)
        return grouped([
            (ops(CU_READ, row=row, col=col_a, buf=buf),
             ops(CU_READ, row=row, col=col_b, buf=buf + 1)),
            ops(C2, buf=buf, buf2=buf + 1, gs=self.gs, omega0=omega0,
                r_omega=r_omega),
            (ops(CU_WRITE, row=row, col=col_a, buf=buf),
             ops(CU_WRITE, row=row, col=col_b, buf=buf + 1))],
            self.pim.pair_slots)

    # -- phase B: the inter-row stages ---------------------------------------------
    def _inter_row_stages(self) -> np.ndarray:
        """C2 per atom pair straddling two rows, every stride at once,
        group-batched so a group shares one (ACT A, ACT B, ACT A) sweep —
        the pipelining payoff.

        Each group reads all its '+'-legs from row A and all its
        '-'-legs from row B, runs its butterflies, then writes the
        '-'-legs to ``out_b`` and the '+'-legs to ``out_a``.  In place,
        the '-'-leg writes hit the still-open row B (the paper's in-place
        update) and one activation back to row A serves the '+'-leg
        writes and the next group's reads.  With ``in_place_update``
        off, stage ``j`` writes the other of two ping-pong regions, so
        both writes open an *additional* row.
        """
        arch = self.arch
        r_words = arch.words_per_row
        # Leading axes (stride, '+'-leg row): every stride has rows_used/2
        # '+'-leg rows, each handling its '-'-leg partner row_dist on.
        lengths = self._strides(arch.log_words_per_row,
                                self.log_n)[:, None, None]
        row_dist = lengths // r_words
        half = np.arange(self.rows_used // 2)[:, None]
        rel = half // row_dist * 2 * row_dist + half % row_dist
        group_size = self.pim.pair_slots if self.options.group_same_row else 1
        col = np.arange(arch.columns_per_row)
        buf = 2 * (col % group_size)
        omega0, r_omega = self._c2_twiddles(
            lengths, rel * r_words + col * arch.words_per_atom)
        src_base = dst_base = self.base_row
        if not self.options.in_place_update:
            flip = np.arange(len(lengths))[:, None, None] % 2 * self.rows_used
            src_base = self.base_row + flip
            dst_base = self.base_row + self.rows_used - flip
        out_a = dst_base + rel
        stage = grouped([
            ops(CU_READ, row=src_base + rel, col=col, buf=buf),
            ops(CU_READ, row=src_base + rel + row_dist, col=col, buf=buf + 1),
            ops(C2, buf=buf, buf2=buf + 1, gs=self.gs, omega0=omega0,
                r_omega=r_omega),
            ops(CU_WRITE, row=out_a + row_dist, col=col, buf=buf + 1),
            ops(CU_WRITE, row=out_a, col=col, buf=buf)], group_size)
        return stage.reshape(-1, FIELDS)


class NttMapper(_RowCentricSchedule):
    """Generates the command program for one cyclic NTT on one bank."""

    def __init__(self, ntt: NttParams, arch: ArchParams, pim: PimParams,
                 base_row: int = 0, options: MapperOptions = MapperOptions()):
        super().__init__(ntt.n, ntt.q, ntt.omega, arch, pim, base_row,
                         options)
        self.ntt = ntt

    def _atom_ops(self, bufs, atoms):
        # C1's root omega^(N/Na) seeds every atom's sub-NTT: the first
        # log Na DIT stages are N/Na identical size-Na NTTs.
        root = self.n // self.arch.words_per_atom
        return ops(CommandType.C1, buf=bufs, omega0=root, r_omega=root)

    def _c2_twiddles(self, length, word_a):
        # The C2 TFG run: omega0 = omega^(step * (word_a mod m)) with
        # ratio omega^step, step = N >> stage = N / (2 * length).
        step = self.n // (2 * length)
        return step * (word_a % length), step


class NegacyclicNttMapper(_RowCentricSchedule):
    """Command generation for the merged negacyclic transform."""

    def __init__(self, ring: NegacyclicParams, arch: ArchParams,
                 pim: PimParams, base_row: int = 0, inverse: bool = False):
        # Twiddle base: psi forward, psi^-1 inverse.
        super().__init__(ring.n, ring.q, ring.psi_inv if inverse else ring.psi,
                         arch, pim, base_row, MapperOptions())
        self.ring = ring
        self.gs = inverse
        self.reverse = not inverse
        self._zetas = self._zeta_exponents(
            np.arange(ring.n // arch.words_per_atom))

    def _zeta_exponent(self, length, word) -> np.ndarray:
        """block_zeta_exponent of the block holding ``word`` at stride
        ``length``: brev(N/2L + word // 2L) over log N bits."""
        return _bit_reverse(self.n // (2 * length) + word // (2 * length),
                            self.log_n)

    def _zeta_exponents(self, atoms: np.ndarray) -> np.ndarray:
        """Per atom, the exponents of the Na-1 per-block zetas one C1N
        consumes, in consumption order (forward: strides Na/2 down;
        inverse: strides 1 up)."""
        na = self.arch.words_per_atom
        strides = [1 << s for s in range(self.arch.log_words_per_atom)]
        if self.reverse:
            strides.reverse()
        base = atoms[:, None] * na
        return np.concatenate(
            [self._zeta_exponent(length, base + np.arange(0, na, 2 * length))
             for length in strides], axis=1)

    def _atom_zetas(self, atom_index: int) -> Tuple[int, ...]:
        """The zetas of one atom's C1N."""
        return tuple(pow(self.root, e, self.q)
                     for e in self._zetas[atom_index].tolist())

    def _atom_ops(self, bufs, atoms):
        return ops(CommandType.C1N, buf=bufs, gs=self.gs, zeta=atoms)

    def _c2_twiddles(self, length, word_a):
        return self._zeta_exponent(length, word_a), 0  # (zeta, 1)
