"""A PIM-extended DRAM bank: storage + atom buffers + compute unit.

This is the functional half of the simulator.  The driver feeds the same
command list to this class (for data) and to the timing engine (for
cycles) — mirroring the paper's two-way coupling between their Python
front-end and DRAMsim3 (Sec. VI.A, footnote 1).

A :class:`PimBank` is either one full bank — the per-command ground
truth, whose host I/O speaks Python ints — or a *stack* of lockstep
banks: in the paper's FHE deployment every bank steps through the same
row-centric program on one shared command bus (Sec. VI.A), so a stack
holds a leading bank axis over only the rows the program touches and
:meth:`PimBank.run_stream` replays one compiled atom plan for all of
them at once.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..arith import vector
from ..dram.bank import BankStorage
from ..dram.commands import Command, CommandType
from ..dram.stream import CommandStream
from ..dram.timing import ArchParams
from ..errors import MappingError
from .buffers import AtomBufferFile
from .cu import ComputeUnit
from .params import PimParams

__all__ = ["PimBank", "touched_rows"]


def touched_rows(stream: CommandStream) -> range:
    """Every row a compiled program's commands name — the window a bank
    stack must hold (memoized per stream)."""
    rows = stream.fuse_cache.get("rows")
    if rows is None:
        named = stream.ir.rows[stream.ir.rows >= 0]
        rows = stream.fuse_cache["rows"] = (
            range(int(named.min()), int(named.max()) + 1) if len(named)
            else range(0))
    return rows


def _window_ops(stream: CommandStream, row0: int, columns: int) -> tuple:
    """The atom plan's ops with each read/write's ``(rows, cols)`` pair
    folded into one atom index of a cell window that starts at bank row
    ``row0`` — one gather per group instead of two — and a matched
    view's first atom moved into the window (memoized per stream)."""
    key = ("ops", row0)
    ops = stream.fuse_cache.get(key)
    if ops is None:
        ops = []
        for op in stream.plan.ops:
            if op[0] in ("read", "write"):
                kind, rows, cols, slots, view = op
                atoms = (rows - row0) * columns + cols
                if view is not None:
                    view = (int(atoms[0]),) + view[1:]
                op = (kind, atoms, slots, view)
            ops.append(op)
        ops = stream.fuse_cache[key] = tuple(ops)
    return ops


class PimBank:
    """One bank with the paper's datapath extensions (Fig. 2 left).

    With ``stack`` (a leading bank-axis shape, ``()`` or ``(banks,)``)
    and ``rows`` (from :func:`touched_rows`) it is instead a stack of
    lockstep banks sharing one CU model: cells, buffers and the value
    pool carry the bank axis, the µ-op counters count every bank, and
    only atom-mode compiled plans run (:meth:`runs_atom_plan`).
    """

    def __init__(self, arch: ArchParams, pim: PimParams,
                 stack: Optional[Tuple[int, ...]] = None,
                 rows: Optional[range] = None):
        self.arch = arch
        self.pim = pim
        self.storage = BankStorage(arch, stack, rows)
        self.buffers = AtomBufferFile(pim.nb_buffers, arch.words_per_atom)
        self.cu = ComputeUnit(arch.words_per_atom)
        self.pending_q: int | None = None
        # Per-type handlers: run() looks one up per command, and a dict
        # dispatch beats re-evaluating an if-chain of enum membership tests.
        self._dispatch = {
            CommandType.ACT: self._exec_act,
            CommandType.PRE: self._exec_pre,
            CommandType.RD: self._exec_rd,
            CommandType.CU_READ: self._exec_cu_read,
            CommandType.WR: self._exec_wr,
            CommandType.CU_WRITE: self._exec_cu_write,
            CommandType.C1: self._exec_c1,
            CommandType.C2: self._exec_c2,
            CommandType.C1N: self._exec_c1n,
            CommandType.PARAM_WRITE: self._exec_param_write,
            CommandType.LOAD_SCALAR: self._exec_load_scalar,
            CommandType.BU_SCALAR: self._exec_bu_scalar,
            CommandType.STORE_SCALAR: self._exec_store_scalar,
        }

    def set_parameters(self, q: int) -> None:
        """Stage the modulus the next PARAM_WRITE command will latch."""
        self.pending_q = q

    # -- per-command handlers --------------------------------------------------
    def _exec_act(self, cmd: Command) -> None:
        self.storage.activate(cmd.row)

    def _exec_pre(self, cmd: Command) -> None:
        self.storage.precharge()

    def _exec_rd(self, cmd: Command) -> None:
        # A plain RD sends data to chip I/O; nothing bank-side changes
        # (the access is still validated).
        self.storage.read_atom(cmd.row, cmd.col)

    def _exec_cu_read(self, cmd: Command) -> None:
        self.buffers.write(cmd.buf, self.storage.read_atom(cmd.row, cmd.col))

    def _exec_wr(self, cmd: Command) -> None:
        raise MappingError(
            "plain WR with host data is not used by the NTT mapping")

    def _exec_cu_write(self, cmd: Command) -> None:
        self.storage.write_atom(cmd.row, cmd.col, self.buffers.read(cmd.buf))

    def _exec_c1(self, cmd: Command) -> None:
        out = self.cu.execute_c1(self.buffers.read(cmd.buf),
                                 cmd.omega0, cmd.r_omega or 0)
        self.buffers.write(cmd.buf, out)

    def _exec_c2(self, cmd: Command) -> None:
        p_out, s_out = self.cu.execute_c2(
            self.buffers.read(cmd.buf), self.buffers.read(cmd.buf2),
            cmd.omega0, cmd.r_omega, gs=cmd.gs)
        self.buffers.write(cmd.buf, p_out)
        self.buffers.write(cmd.buf2, s_out)

    def _exec_c1n(self, cmd: Command) -> None:
        out = self.cu.execute_c1n(self.buffers.read(cmd.buf),
                                  cmd.zetas, gs=cmd.gs)
        self.buffers.write(cmd.buf, out)

    def _exec_param_write(self, cmd: Command) -> None:
        if self.pending_q is None:
            raise MappingError("PARAM_WRITE with no staged parameters")
        self.cu.set_modulus(self.pending_q)

    def _exec_load_scalar(self, cmd: Command) -> None:
        self.cu.load_scalar(self.buffers.read_lane(cmd.buf, cmd.lane))

    def _exec_bu_scalar(self, cmd: Command) -> None:
        b = self.buffers.read_lane(cmd.buf, cmd.lane)
        _, b_out = self.cu.bu_scalar(b, cmd.omega0)
        self.buffers.write_lane(cmd.buf, cmd.lane, b_out)

    def _exec_store_scalar(self, cmd: Command) -> None:
        self.buffers.write_lane(cmd.buf, cmd.lane, self.cu.store_scalar())

    def run(self, commands: Sequence[Command]) -> None:
        """Apply a whole program in order, one command at a time — the
        ground-truth path.  Its compute commands run the scalar
        :class:`~repro.pim.cu.ComputeUnit` methods for every modulus;
        NumPy enters only through :meth:`run_stream`'s compiled plans."""
        dispatch = self._dispatch
        for cmd in commands:
            dispatch[cmd.ctype](cmd)

    # -- compiled-stream execution --------------------------------------------
    def _stream_fusable(self, stream: CommandStream) -> bool:
        """Fused macro-ops need a plan and lane support for the modulus
        the program will compute under (the staged one when the program
        latches its own parameters, else the currently loaded one)."""
        if stream.plan is None:
            return False
        if stream.plan.max_buffer >= self.buffers.count:
            # Out-of-range buffer: the per-command loop raises at the
            # offending command, before any data effect.
            return False
        if stream.plan.reg_init is not None and self.cu.reg_a >= 2 ** 64:
            # Lane plans pool the scalar register as a uint64 version;
            # an oversized pre-program register value (only reachable by
            # hand-driving the CU) must keep the exact-int scalar path.
            return False
        if stream.plan.has_param:
            # The loaded modulus may still cover compute groups scheduled
            # before the first PARAM_WRITE, so it must be lane-safe too.
            # With none loaded the per-command loop raises at the first
            # of them, and the plan — whose groups need not follow
            # program order — could not stop at the same command.  Nor
            # could it stop at a PARAM_WRITE that rejects its modulus.
            if self.cu.q is None:
                loaded_ok = not stream.plan.computes_before_param
            else:
                loaded_ok = vector.lanes_supported(self.cu.q)
            return (self.pending_q is not None and self.pending_q > 2
                    and vector.lanes_supported(self.pending_q)
                    and loaded_ok)
        return self.cu.q is not None and vector.lanes_supported(self.cu.q)

    def runs_atom_plan(self, stream: CommandStream) -> bool:
        """True when :meth:`run_stream` executes ``stream`` as one
        atom-mode plan — the only kind a bank stack runs."""
        return self._stream_fusable(stream) and stream.plan.mode == "atom"

    def run_stream(self, stream: CommandStream) -> None:
        """Apply a compiled program via its fused macro-ops.

        Each plan op executes one whole dependency-depth group — e.g.
        every C1 of a butterfly-stage pass as a single stacked
        :class:`~repro.pim.cu.ComputeUnit` call (division-free Shoup
        lanes below ``2**32``, twiddles and their companions cached in
        ``stream.fuse_cache`` per modulus), over every bank of a stack
        at once.  An atom plan touches the cells twice: one gather of
        the atoms the program reads before writing them, and one
        scatter of each atom's last write; every stage in between stays
        in the value pool (store forwarding) and, its slots allocated by
        liveness, updates the pool in place through the views the
        compiler matched (a Table III plan slices the cells and the pool
        everywhere and gathers nothing by index).
        Nb=1 scalar-µ-op programs run their LOAD/BU/STORE runs as
        stacked lane butterflies.  Data results, CU µ-op counters and
        raised errors are identical to :meth:`run` on
        ``stream.commands`` (per bank of a stack): a plan runs only when
        nothing in it can raise — the one error it could hit mid-plan, a
        compute group before the first PARAM_WRITE with no modulus
        loaded, sends the program to that loop instead, as do programs
        without a plan and moduli outside the lane kernels; the loop
        needs a single full bank.
        """
        fusable = self._stream_fusable(stream)
        if fusable and stream.plan.mode == "atom":
            self._run_atom_plan(stream)
        elif self.storage.stack is not None:
            raise MappingError("a bank stack runs only atom-mode plans")
        elif fusable:
            self._run_lane_plan(stream)
        else:
            self.run(stream.commands)

    def _run_atom_plan(self, stream: CommandStream) -> None:
        """Atom-mode plan over one ``(*stack, n_slots, Na)`` pool, every
        op broadcasting over the bank axis.  An op with a view slices
        the pool (and, for a read or write, the cells) and updates it in
        place; one without gathers its slots with ``take`` and scatters
        its results by fancy index.  C1 and C1N groups run lane-major:
        one transpose in, whole-row stages, one transpose out.  A group
        the compiler marked ``reduced`` skips its kernel's scan for
        words ``>= q``."""
        plan = stream.plan
        storage = self.storage
        cells = storage.atoms_view()
        atoms = cells.reshape(cells.shape[:-3] + (-1, cells.shape[-1]))
        buffers = self.buffers
        cu = self.cu
        fuse_cache = stream.fuse_cache
        na = self.arch.words_per_atom
        lead = cells.shape[:-3]
        take = np.take
        pool = np.empty(lead + (plan.n_slots, na), dtype=np.uint64)
        for buf, slot in plan.init_versions:
            pool[..., slot, :] = buffers.peek_array(buf)

        # Axis orders between a (*stack, k, Na) operand and its
        # lane-major (Na, *stack, k) transpose.
        ndim = len(lead) + 2
        to_lanes = (ndim - 1,) + tuple(range(ndim - 1))
        from_lanes = tuple(range(1, ndim)) + (0,)
        ops = _window_ops(stream, storage.rows.start, cells.shape[-2])
        for index, op in enumerate(ops):
            kind = op[0]
            if kind == "c2":
                (_, pins, sins, pouts, souts, omega0s, r_omegas, gs, reduced,
                 view) = op
                cache_key = (index, cu._require_modulus())
                w2d = fuse_cache.get(cache_key)
                if w2d is None:
                    w2d = fuse_cache[cache_key] = vector.c2_stack_wpack(
                        cache_key[1], omega0s, r_omegas, na,
                        shape=None if view is None else view[2:4] + (na,))
                if view is None:
                    p_out, s_out = cu.execute_c2_stack(
                        take(pool, pins, axis=-2), take(pool, sins, axis=-2),
                        w2d, gs=gs, reduced=reduced)
                    pool[..., pouts, :] = p_out
                    pool[..., souts, :] = s_out
                else:
                    start, stop, blocks, half, swap = view
                    pair = pool[..., start:stop, :].reshape(
                        lead + (blocks, 2, half, na))
                    p, s = pair[..., swap, :, :], pair[..., 1 - swap, :, :]
                    p[...], s[...] = cu.execute_c2_stack(p, s, w2d, gs=gs,
                                                         reduced=reduced)
            elif kind == "c1" or kind == "c1n":
                vins, vouts, reduced, view = op[1], op[2], op[-2], op[-1]
                cache_key = (index, cu._require_modulus())
                pack = fuse_cache.get(cache_key)
                if pack is None:
                    pack = fuse_cache[cache_key] = (
                        vector.c1_lanes_wpack(cache_key[1], op[3], na)
                        if kind == "c1"
                        else vector.c1n_lanes_zpack(cache_key[1], op[3]))
                x = (take(pool, vins, axis=-2) if view is None
                     else pool[..., view[0]:view[1], :])
                xt = np.ascontiguousarray(x.transpose(to_lanes))
                xt3 = xt.reshape(na, -1, x.shape[-2])
                if kind == "c1":
                    cu.execute_c1_lanes(xt3, pack, reduced=reduced)
                else:
                    cu.execute_c1n_lanes(xt3, pack, gs=op[4], reduced=reduced)
                if view is None:
                    pool[..., vouts, :] = xt.transpose(from_lanes)
                else:
                    x[...] = xt.transpose(from_lanes)
            elif kind == "read":
                _, atoms_a, slots, view = op
                if view is None:
                    pool[..., slots, :] = take(atoms, atoms_a, axis=-2)
                else:
                    atom, slot, k = view
                    pool[..., slot:slot + k, :] = atoms[..., atom:atom + k, :]
            elif kind == "write":
                _, atoms_a, slots, view = op
                if view is None:
                    atoms[..., atoms_a, :] = take(pool, slots, axis=-2)
                else:
                    atom, slot, k = view
                    atoms[..., atom:atom + k, :] = pool[..., slot:slot + k, :]
            else:  # param
                if self.pending_q is None:
                    raise MappingError("PARAM_WRITE with no staged parameters")
                cu.set_modulus(self.pending_q)

        for buf, slot in plan.final_versions:
            buffers.write_array(buf, pool[..., slot, :].copy())

    def _run_lane_plan(self, stream: CommandStream) -> None:
        """Lane-mode plan (Nb=1 scalar-µ-op programs): versions are
        single lanes plus the CU register, held in one 1-D pool;
        LOAD/BU/STORE runs execute as stacked scalar ops with the exact
        per-µ-op counter semantics of the dispatch loop."""
        plan = stream.plan
        cells = self.storage.atoms_view()
        buffers = self.buffers
        cu = self.cu
        fuse_cache = stream.fuse_cache
        na = self.arch.words_per_atom
        pool = np.empty(plan.n_virtual, dtype=np.uint64)
        for buf, first_vid in plan.lane_init:
            pool[first_vid:first_vid + na] = buffers.peek_array(buf)
        if plan.reg_init is not None:
            pool[plan.reg_init] = cu.reg_a

        for index, op in enumerate(plan.ops):
            kind = op[0]
            if kind == "bu":
                _, reg_vins, lane_vins, reg_vouts, lane_vouts, omegas = op
                cache_key = (index, cu._require_modulus())
                warr = fuse_cache.get(cache_key)
                if warr is None:
                    q = cache_key[1]
                    warr = fuse_cache[cache_key] = vector.lane_twiddles(
                        np.array([w % q for w in omegas], dtype=np.uint64),
                        q)
                a_out, b_out = cu.execute_bu_stack(pool[reg_vins],
                                                   pool[lane_vins], warr)
                pool[reg_vouts] = a_out
                pool[lane_vouts] = b_out
            elif kind == "load":
                _, lane_vins, reg_vouts = op
                q = cu._require_modulus()
                pool[reg_vouts] = pool[lane_vins] % np.uint64(q)
                cu.load_uops += len(reg_vouts)
            elif kind == "store":
                _, reg_vins, lane_vouts = op
                cu._require_modulus()
                pool[lane_vouts] = pool[reg_vins]
                cu.store_uops += len(reg_vins)
            elif kind == "lread":
                _, rows_a, cols_a, vouts2d = op
                pool[vouts2d] = cells[rows_a, cols_a]
            elif kind == "lwrite":
                _, rows_a, cols_a, vins2d = op
                cells[rows_a, cols_a] = pool[vins2d]
            elif kind == "lc1":
                _, vins2d, vouts2d, omegas = op
                cache_key = (index, cu._require_modulus())
                wpack = fuse_cache.get(cache_key)
                if wpack is None:
                    wpack = fuse_cache[cache_key] = vector.c1_stack_wpack(
                        cache_key[1], omegas, na)
                pool[vouts2d] = cu.execute_c1_stack(pool[vins2d], wpack)
            else:  # param
                if self.pending_q is None:
                    raise MappingError("PARAM_WRITE with no staged parameters")
                cu.set_modulus(self.pending_q)

        for buf, vid_arr in plan.lane_final:
            buffers.write_array(buf, pool[vid_arr])
        if plan.reg_final is not None:
            cu.reg_a = int(pool[plan.reg_final])

    # -- host data path -------------------------------------------------------
    def load_polynomial(self, base_row: int, values) -> None:
        """Host writes the (already bit-reversed) input into the bank —
        ints for one bank, an ``(*stack, N)`` uint64 array (one
        polynomial per bank) for a stack."""
        self.storage.host_write_polynomial(base_row, values)

    def read_polynomial(self, base_row: int, length: int):
        """Host reads the NTT result back: a list of ints from one bank,
        an ``(*stack, length)`` uint64 array from a stack."""
        return self.storage.host_read_polynomial(base_row, length)
