"""Vectorized compiler passes over the :class:`~repro.compile.ir.StreamIR`.

One fixed pipeline replaces the old per-command ``_build_plan`` Python
loop with NumPy computations over the SoA columns.  One stable counting
sort of the command codes first lists every code's commands, and each
pass then works on the classes it needs:

* **validate** — symbolic open-row protocol, address bounds and payload
  checks on a one-bank stream, reporting the *first* violating command
  with the same fallback reason the legacy loop produced.  One running
  count of ACTs and PREs gives every command's open-row depth and the
  ACT that opened its row; each rule tests only its own classes.
* **rename** — buffer renaming: every buffer write allocates a fresh
  virtual version (register renaming), erasing WAR/WAW hazards so
  whole stages fuse.  One touch table holds every buffer access in
  class blocks; its writes are the versions, numbered in table order,
  and one sort by (buffer, program order) resolves every read.
* **group** — dependency-depth grouping: longest-path levels over the
  vectorized hazard-edge graph (atom RAW/WAR/WAW chains, buffer-version
  RAW chains, modulus-register chains), computed by a frontier Kahn
  sweep that assigns each level's depth outright: the edges are sorted
  by source once, and each level walks only its frontier's out-edges.
* **lane fusion** — lane-granular renaming for programs with scalar
  µ-ops (the Nb=1 single-buffer mapping): buffer *lanes* and the CU's
  scalar register rename individually, so LOAD/BU/STORE_SCALAR group
  into stacked lane copies and butterflies.  Scalar programs that also
  carry C2/C1N run per-command.
* **forward** — SSA over memory (Cytron et al., TOPLAS 1991) for the
  atom plan: over the CU_READ/CU_WRITE accesses sorted by atom, then
  program order, a read of an atom the plan wrote (or already read) is
  forwarded — its version aliases the stored (gathered) one, resolved
  transitively — and only each atom's last write stores.  Each atom is
  one segment, so its first access, last write and the write before
  every access are segment reductions.  Forwarded reads and dead writes
  drop out before grouping, so a plan reads each atom from the cells at
  most once and writes it back at most once.
* **slots** — pool-slot allocation by liveness (linear scan; Poletto &
  Sarkar, TOPLAS 1999) for the atom plan: a version read only by the
  in-place op that replaces it (C1/C1N ``vout ← vin``, C2 ``pout ←
  pin`` and ``sout ← sin``) hands its slot to that op's output,
  resolved by pointer jumping; an atom's first read takes the atom's
  rank among the plan's atoms; init versions and the outputs of
  versions read more than once take fresh slots, in program order.  An
  in-place plan's pool is then one ``(…, atoms, Na)`` image of the
  atoms it reads.
* **assemble** — every group at once, in both plans: one stable sort
  orders all plan members by (kind, depth, gs) group — in an atom plan
  then by the slot of the version that keys them — so each group is a
  contiguous run (ties in program order), and the groups are emitted
  by (depth, first member).  Each op array is gathered once in that
  order.  In an atom plan, per-member flags — slots (and, for reads
  and writes, atoms) not one run, an op not in place, an input not
  proven reduced, a C2 leg off its block pattern — OR together per
  group in one segment reduction.  The loop that remains only slices
  the sorted columns and builds op tuples.
* **views** — each group's slot arrays are matched against a (reshape,
  slice) view of that image: a read, write, C1 or C1N group over a
  contiguous run, or a C2 group over the two halves of ``blocks``
  blocks, stores its view on the op.  A group that matches none keeps
  its ``np.intp`` slot arrays, which the executor gathers with ``take``
  and scatters by fancy index.
* **reduced inputs** — a compute group whose every input version a
  C1/C1N/C2 op wrote after the program's first PARAM_WRITE (anywhere,
  in a program with none) is marked: those words are already below the
  modulus the group runs under, so the executor skips the kernels'
  scan for words ``>= q``.  Groups fed by reads, by the buffers' prior
  contents or by compute ops under a modulus the program replaces keep
  it.

The plan executes bit-identically to the legacy engine — the levels
need not match the historical depth assignment command for command,
because any topological leveling executes the same data flow; the
equivalence tests assert values, µ-op counters and energy against
:meth:`repro.pim.bank_pim.PimBank.run`, and ``tests/test_compile.py``
pins every field of the Table III and ablation plans by one digest.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Optional, Tuple

import numpy as np

from ..dram.commands import CODE_CTYPES, CTYPE_CODES, CommandType
from ..dram.timing import ArchParams
from .ir import StreamIR
from .plan import FunctionalPlan

__all__ = ["build_plan"]

_CODE_ACT = CTYPE_CODES[CommandType.ACT]
_CODE_PRE = CTYPE_CODES[CommandType.PRE]
_CODE_RD = CTYPE_CODES[CommandType.RD]
_CODE_WR = CTYPE_CODES[CommandType.WR]
_CODE_CU_READ = CTYPE_CODES[CommandType.CU_READ]
_CODE_CU_WRITE = CTYPE_CODES[CommandType.CU_WRITE]
_CODE_C1 = CTYPE_CODES[CommandType.C1]
_CODE_C2 = CTYPE_CODES[CommandType.C2]
_CODE_C1N = CTYPE_CODES[CommandType.C1N]
_CODE_PARAM = CTYPE_CODES[CommandType.PARAM_WRITE]
_CODE_LOAD = CTYPE_CODES[CommandType.LOAD_SCALAR]
_CODE_BU = CTYPE_CODES[CommandType.BU_SCALAR]
_CODE_STORE = CTYPE_CODES[CommandType.STORE_SCALAR]

_IS_COLUMN = np.array([ct.is_column for ct in CODE_CTYPES], dtype=np.bool_)


# -- shared vectorized helpers -------------------------------------------------

def _split_codes(codes: np.ndarray) -> list:
    """Per command code, the sorted indices of the commands that carry
    it, from one stable counting sort of the codes."""
    order = np.argsort(codes.astype(np.uint8), kind="stable")
    ends = np.cumsum(np.bincount(codes, minlength=len(CODE_CTYPES))).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def _prev_write(is_write: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per element of a segment-sorted sequence: the index of the latest
    *writing* element strictly before it in the same segment, else -1."""
    k = len(seg)
    out = np.full(k, -1, dtype=np.int64)
    if k > 1:
        np.maximum.accumulate(np.where(is_write[:-1], np.arange(k - 1), -1),
                              out=out[1:])
        out[seg[np.maximum(out, 0)] != seg] = -1
    return out


def _next_write(is_write: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Mirror of :func:`_prev_write`: the earliest writing element
    strictly after, else -1."""
    k = len(seg)
    rev = _prev_write(is_write[::-1], seg[::-1])[::-1]
    return np.where(rev >= 0, k - 1 - rev, -1)


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """The start of every run of equal ``keys``."""
    first = np.ones(len(keys), dtype=np.bool_)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return np.flatnonzero(first)


def _modulus_edges(idx_q, idx_p):
    """Modulus-register chains as ``(src, dst)``: every command in
    ``idx_q`` that needs q orders against the PARAM_WRITEs (sorted
    ``idx_p``) around it both ways, and PARAM_WRITEs order among
    themselves (WAW)."""
    before = np.searchsorted(idx_p, idx_q)
    has_prev = before > 0
    has_next = before < len(idx_p)
    src = np.concatenate((idx_p[before[has_prev] - 1], idx_q[has_next],
                          idx_p[:-1]))
    dst = np.concatenate((idx_q[has_prev], idx_p[before[has_next]],
                          idx_p[1:]))
    return src, dst


def _computes_before_param(idx_q, idx_p) -> bool:
    """True when a command needing q (``idx_q``) precedes the first
    PARAM_WRITE (sorted ``idx_p``): it runs under the modulus loaded
    before the program."""
    return bool(len(idx_q) and (not len(idx_p) or idx_q.min() < idx_p[0]))


def _storage_and_modulus_edges(ir, arch, idx_r, idx_w, idx_q, idx_p):
    """The lane plan's storage and modulus hazard edges, as ``(src,
    dst)``: per atom, RAW and WAW to the previous write and WAR from
    each read to the next write, plus :func:`_modulus_edges`."""
    sel = np.concatenate((idx_r, idx_w))
    atom = ir.rows[sel] * arch.columns_per_row + ir.cols[sel]
    ao = np.lexsort((sel, atom))
    a_cmd, a_atom, a_w = sel[ao], atom[ao], ao >= len(idx_r)
    a_prevw, a_nextw = _prev_write(a_w, a_atom), _next_write(a_w, a_atom)
    chained = a_prevw >= 0          # RAW (reads) and WAW (writes)
    war = ~a_w & (a_nextw >= 0)     # read -> next write
    q_src, q_dst = _modulus_edges(idx_q, idx_p)
    src = np.concatenate((a_cmd[a_prevw[chained]], a_cmd[war], q_src))
    dst = np.concatenate((a_cmd[chained], a_cmd[a_nextw[war]], q_dst))
    return src, dst


def _forward_stores(ir, arch, mem_cmd, nr):
    """Store-to-load forwarding and dead-store elimination over (row,
    col) atoms — SSA over memory (Cytron et al., TOPLAS 1991).

    Nothing observes a cell in the middle of a plan, so only an atom's
    first access can read its entry cells: every later CU_READ is
    *forwarded* — it gathers nothing, and its version aliases the
    version the atom's previous CU_WRITE stored (or, with no write
    since, the one its first read gathered).  Only each atom's last
    CU_WRITE stores.  What is left reads each atom at most once and
    writes it at most once, and orders only by WAR: the read before
    its atom's write.

    ``mem_cmd`` is the CU_READs, then the ``len(mem_cmd) - nr``
    CU_WRITEs.  Sorted by (atom, program order), each atom is one
    segment, so its first access, last write and the write before each
    access are segment reductions.  Returns ``(first_reads, live_w,
    fwd_r, fwd_src, war_src, war_dst)``: the positions in ``mem_cmd``
    of the reads that gather, in atom order; a mask over the writes of
    those that store; the positions of the forwarded reads and, for
    each, of the read or write whose version it takes; and the WAR
    edges.
    """
    k = len(mem_cmd)
    live_w = np.zeros(k - nr, dtype=np.bool_)
    if k == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, live_w, empty, empty, empty, empty
    atom = ir.rows[mem_cmd] * arch.columns_per_row + ir.cols[mem_cmd]
    ao = np.lexsort((mem_cmd, atom))
    a_cmd, is_w = mem_cmd[ao], ao >= nr
    starts = _first_of_runs(atom[ao])
    pos = np.arange(k, dtype=np.int64)
    seg_start = np.zeros(k, dtype=np.int64)
    seg_start[starts] = starts
    np.maximum.accumulate(seg_start, out=seg_start)
    wpos = np.where(is_w, pos, -1)
    last_w = np.maximum.reduceat(wpos, starts)  # per atom, else -1
    prev_w = np.empty(k, dtype=np.int64)
    prev_w[0] = -1
    np.maximum.accumulate(wpos[:-1], out=prev_w[1:])
    forwarded = ~is_w
    forwarded[starts] = False
    source = np.maximum(prev_w, seg_start)[forwarded]
    written = last_w >= 0
    live_w[ao[last_w[written]] - nr] = True
    lead = ~is_w[starts]            # the atom's first access reads it
    war = lead & written
    return (ao[starts[lead]], live_w, ao[forwarded], ao[source],
            a_cmd[starts[war]], a_cmd[last_w[war]])


def _longest_path_levels(n_nodes: int, src: np.ndarray,
                         dst: np.ndarray) -> np.ndarray:
    """Longest-path depth per node of a DAG, via a frontier Kahn sweep.

    Every node of a frontier sits at the sweep's level, so a level
    assigns its depth outright and releases its successors' in-degrees;
    each step is a vectorized operation, one loop iteration per
    dependency level.  The edges are sorted by source once (a radix
    sort up to 2^16 nodes), so a level gathers only its frontier's
    out-edges: work in proportion to the frontier, whether the graph has
    ten-odd levels (an atom plan) or hundreds (a lane plan)."""
    depth = np.zeros(n_nodes, dtype=np.int64)
    if n_nodes == 0 or len(src) == 0:
        return depth
    indeg = np.bincount(dst, minlength=n_nodes)
    order = np.argsort(src.astype(np.min_scalar_type(n_nodes)), kind="stable")
    succ = dst[order]
    out_deg = np.bincount(src, minlength=n_nodes)
    first_out = np.cumsum(out_deg) - out_deg
    frontier = np.flatnonzero(indeg == 0)
    seen = np.empty(n_nodes, dtype=np.int64)
    level = 0
    while True:
        counts = out_deg[frontier]
        total = int(counts.sum())
        if not total:
            return depth
        base = first_out[frontier] - np.cumsum(counts) + counts
        heads = succ[np.repeat(base, counts) + np.arange(total)]
        np.subtract.at(indeg, heads, 1)
        # A node released by several frontier edges appears once per
        # edge; whichever of its positions the scatter stores, exactly
        # one occurrence matches it.
        ready = heads[indeg[heads] == 0]
        at = np.arange(len(ready))
        seen[ready] = at
        frontier = ready[seen[ready] == at]
        level += 1
        depth[frontier] = level


def _first_violation(candidates) -> Optional[Tuple[int, int, object]]:
    """``candidates`` is a list of ``(indices, priority, describe)``,
    each ``indices`` sorted; returns the winning ``(index, priority,
    describe)`` or None."""
    best = None
    for indices, priority, describe in candidates:
        if len(indices) == 0:
            continue
        i = int(indices[0])
        if best is None or (i, priority) < best[:2]:
            best = (i, priority, describe)
    return best


# -- validation ----------------------------------------------------------------

#: Per code, the step of the running (ACT count << 32) + PRE count.
_ROW_STEP = np.array([(1 << 32) if ct is CommandType.ACT
                      else 1 if ct is CommandType.PRE else 0
                      for ct in CODE_CTYPES], dtype=np.int64)
_SCALAR_CODES = (_CODE_LOAD, _CODE_BU, _CODE_STORE)


def _validate(ir: StreamIR, arch: ArchParams, by_code: list):
    """Vectorized symbolic validation.

    Returns ``(reason, has_scalar)`` — ``reason`` is the legacy fallback
    string for the first violating command (None when the program is
    provable), ``has_scalar`` selects the lane-granular plan.  Each
    rule tests only the commands of the codes it covers
    (``by_code``); one running count of ACTs and PREs gives every
    command's open-row depth and the ACT that opened its row.
    """
    codes = ir.codes
    rows = ir.rows
    cols = ir.cols
    n = ir.n
    idx_act, idx_pre = by_code[_CODE_ACT], by_code[_CODE_PRE]
    has_scalar = any(len(by_code[code]) for code in _SCALAR_CODES)

    counts = np.cumsum(_ROW_STEP[codes])
    acts = counts >> 32                     # ACTs up to each command
    depth_after = acts - (counts & 0xFFFFFFFF)
    act_rows = np.concatenate(([-1], rows[idx_act]))

    def open_row_at(i: int):
        """The open row before command ``i`` on a valid prefix."""
        opens = int(codes[i] == _CODE_ACT)
        if int(depth_after[i]) - opens + int(codes[i] == _CODE_PRE) != 1:
            return None
        return int(act_rows[int(acts[i]) - opens])

    act_r = rows[idx_act]
    idx_col = np.flatnonzero(_IS_COLUMN[codes])
    col_r, col_c = rows[idx_col], cols[idx_col]
    idx_c1, idx_c2, idx_c1n = (by_code[_CODE_C1], by_code[_CODE_C2],
                               by_code[_CODE_C1N])
    zetas_per_atom = arch.words_per_atom - 1
    zeta_counts = np.fromiter(map(len, ir.zeta_rows + ((),)),  # -1: ()
                              dtype=np.int64)
    candidates = [
        (idx_act[depth_after[idx_act] != 1], 0,
         lambda i: f"cmd {i}: ACT while row {open_row_at(i)} is open"),
        (idx_act[(act_r < 0) | (act_r >= arch.rows_per_bank)], 1,
         lambda i: f"cmd {i}: ACT row {rows[i]} outside bank"),
        (idx_pre[depth_after[idx_pre] != 0], 0,
         lambda i: f"cmd {i}: PRE with no open row"),
        # Column ops: open-row mismatch, then column bounds, then WR.
        (idx_col[(depth_after[idx_col] != 1)
                 | (act_rows[acts[idx_col]] != col_r)], 2,
         lambda i: (f"cmd {i}: {CODE_CTYPES[codes[i]].value} r{rows[i]} "
                    f"with row {open_row_at(i)} open")),
        (idx_col[(col_c < 0) | (col_c >= arch.columns_per_row)], 3,
         lambda i: f"cmd {i}: column {cols[i]} outside row"),
        (by_code[_CODE_WR], 4,
         lambda i: f"cmd {i}: WR with host data is unmapped"),
        (idx_c1[ir.omega0_idx[idx_c1] < 0], 2,
         lambda i: f"cmd {i}: C1 without omega0"),
        (idx_c2[(ir.omega0_idx[idx_c2] < 0) | (ir.r_omega_idx[idx_c2] < 0)],
         2, lambda i: f"cmd {i}: C2 without its twiddle pair"),
        (idx_c1n[zeta_counts[ir.zeta_idx[idx_c1n]] != zetas_per_atom], 2,
         lambda i: (f"cmd {i}: C1N carries "
                    f"{zeta_counts[ir.zeta_idx[i]]} zetas, "
                    f"needs {zetas_per_atom}")),
    ]
    if has_scalar:
        for code in _SCALAR_CODES:
            idx = by_code[code]
            if len(idx_c2) or len(idx_c1n):
                candidates.append((idx, 5, lambda i: (
                    f"cmd {i}: {CODE_CTYPES[codes[i]].value} "
                    f"runs per-command")))
            else:
                lanes = ir.lanes[idx]
                candidates.append((
                    idx[(lanes < 0) | (lanes >= arch.words_per_atom)], 5,
                    lambda i: f"cmd {i}: lane {ir.lanes[i]} outside the atom"))

    hit = _first_violation(candidates)
    if hit is not None:
        return hit[2](hit[0]), has_scalar
    if n and depth_after[-1] != 0:
        return (f"program ends with row "
                f"{int(rows[idx_act[-1]])} open"), has_scalar
    return None, has_scalar


# -- whole-atom plan (the Nb >= 2 shape) ---------------------------------------

def _blocks(sizes) -> list:
    """Consecutive slices of the given sizes, from 0."""
    ends = list(accumulate(sizes))
    return [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]


def _atom_edges_and_versions(ir, arch, idx_r, idx_w, idx_c1, idx_c2,
                             idx_c1n, idx_p):
    """Buffer renaming, store forwarding and hazard-edge construction,
    fully vectorized over one buffer touch table.

    The table holds one touch per buffer access, in class blocks:
    CU_READs (each writes its buffer), CU_WRITEs (each reads it), then
    the compute touches — C1, C2's P leg, C1N and C2's S leg (each reads
    and writes).  Every write touch is a version, numbered in table
    order (so the reads' versions are their positions), and init
    versions follow, one per buffer read before it is written, in
    buffer order.  The layout lives here only: the caller gets named
    views of it.

    Returns ``(edges_src, edges_dst, versions)``, or None for a negative
    buffer index.  ``versions`` holds the CU_WRITEs' input versions
    (``w_vin``); every compute touch's input and output versions and
    (command, leg) program-order key (``x_vin``, ``x_vout``,
    ``x_order``); per compute command, C1s, then C2s, then C1Ns, its
    command (``c_cmd``) and the versions its P and S legs read, then
    write (``c_legs``, four rows; a C1 or C1N's one touch is both legs);
    the init/final version lists, the virtual count and the forwarding
    result of :func:`_forward_stores`.  Every input version, and every
    final version, reads through the forwarding aliases.
    """
    nr, nw, n2 = len(idx_r), len(idx_w), len(idx_c2)
    read, write, c1, c2p, c1n, c2s = _blocks(
        (nr, nw, len(idx_c1), n2, len(idx_c1n), n2))
    computes = slice(c1.start, c2s.stop)
    t_cmd = np.concatenate((idx_r, idx_w, idx_c1, idx_c2, idx_c1n, idx_c2))
    T = len(t_cmd)
    t_buf = ir.bufs[t_cmd]
    t_buf[c2s] = ir.buf2s[idx_c2]
    if T and int(t_buf.min()) < 0:
        return None
    t_order = 2 * t_cmd
    t_order[c2s] += 1

    # Versions: the writes (every touch but CU_WRITE's) in table order.
    n_write_vids = T - nw
    t_vid = np.full(T, -1, dtype=np.int64)
    t_vid[read] = np.arange(nr)
    t_vid[computes] = np.arange(nr, n_write_vids)

    # RAW resolution in buffer-sorted, then program, order.
    bo = np.lexsort((t_order, t_buf))
    b_buf, b_cmd, b_vid = t_buf[bo], t_cmd[bo], t_vid[bo]
    b_write = b_vid >= 0
    prevw = _prev_write(b_write, b_buf)
    # A command's reads see versions from *earlier* commands only (the
    # C2 buf == buf2 degenerate case would otherwise read its own
    # primary-leg output); one step suffices — a command touches one
    # buffer at most twice.
    same = (prevw >= 0) & (b_cmd[np.maximum(prevw, 0)] == b_cmd)
    if same.any():
        stepped = prevw[np.maximum(prevw, 0)]
        ok = (stepped >= 0) & (b_buf[np.maximum(stepped, 0)] == b_buf)
        prevw = np.where(same, np.where(ok, stepped, -1), prevw)

    # Init versions: buffers read before ever written.  b_buf is sorted,
    # so the unresolved reads' buffers are too.
    b_read = bo >= read.stop            # every touch but CU_READ's reads
    unresolved = b_read & (prevw < 0)
    u_buf = b_buf[unresolved]
    new_buf = np.ones(len(u_buf), dtype=np.bool_)
    np.not_equal(u_buf[1:], u_buf[:-1], out=new_buf[1:])
    init_bufs = u_buf[new_buf]
    b_vin = np.where(b_read, b_vid[np.maximum(prevw, 0)], -1)
    b_vin[unresolved] = n_write_vids + np.cumsum(new_buf) - 1
    n_virtual = n_write_vids + len(init_bufs)
    t_vin = np.empty(T, dtype=np.int64)
    t_vin[bo] = b_vin

    # Store forwarding: a forwarded read's version aliases the version
    # its source read gathered or its source write stored, resolved
    # transitively (a stored version may itself be a forwarded read's).
    # The reads and writes open the table, so a position among them is
    # also the source's touch, and a read's its version.
    first_reads, live_w, fwd_r, fwd_src, war_src, war_dst = _forward_stores(
        ir, arch, t_cmd[:write.stop], nr)
    alias = np.arange(n_virtual, dtype=np.int64)
    if len(fwd_r):
        alias[fwd_r] = np.where(fwd_src < nr, fwd_src, t_vin[fwd_src])
        while True:
            hop = alias[alias]
            if np.array_equal(hop, alias):
                break
            alias = hop
        t_vin[write.start:] = alias[t_vin[write.start:]]

    # Final version per buffer: its last write's, else its init version.
    seg = _first_of_runs(b_buf)
    lastw = np.maximum.reduceat(np.where(b_write, np.arange(T), -1), seg)
    final = np.where(lastw >= 0, alias[b_vid[lastw]],
                     n_write_vids + np.searchsorted(init_bufs, b_buf[seg]))
    buffers = b_buf[seg].tolist()

    # RAW buffer edges (renaming erases buffer WAR/WAW): each surviving
    # consumer from the command that produced the version it reads.
    vid_cmd = np.concatenate((t_cmd[read], t_cmd[computes]))
    consumer = (t_vin >= 0) & (t_vin < n_write_vids)
    consumer[write] &= live_w
    raw_src = vid_cmd[t_vin[consumer]]
    raw_dst = t_cmd[consumer]

    # Reduced versions: a compute op's output holds words below the
    # modulus it ran under, and every compute op after the program's
    # first PARAM_WRITE (every one, in a program with none) runs under
    # the same modulus, so a consumer there need not reduce them again.
    # Reads (raw cells), init versions (the buffers' prior contents) and
    # outputs of compute ops under a modulus the program then replaces
    # stay unproven.
    reduced = np.zeros(n_virtual, dtype=np.bool_)
    reduced[t_vid[computes]] = t_cmd[computes] > (idx_p[0] if len(idx_p)
                                                  else -1)

    # One touch per compute command is its P leg (C2) or its only one.
    p_leg = np.arange(c1.start, c1n.stop)
    s_leg = np.concatenate([np.arange(b.start, b.stop)
                            for b in (c1, c2s, c1n)])
    c_cmd = t_cmd[p_leg]
    versions = {
        "w_vin": t_vin[write],
        "x_vin": t_vin[computes],
        "x_vout": t_vid[computes],
        "x_order": t_order[computes],
        "c_cmd": c_cmd,
        "c_legs": np.stack((t_vin[p_leg], t_vin[s_leg],
                            t_vid[p_leg], t_vid[s_leg])),
        "n_write_vids": n_write_vids,
        "n_virtual": n_virtual,
        "init_versions": list(zip(init_bufs.tolist(),
                                  range(n_write_vids, n_virtual))),
        "final_versions": list(zip(buffers, final.tolist())),
        "max_buffer": int(t_buf.max()) if T else -1,
        "first_reads": first_reads,
        "live_w": live_w,
        "reduced": reduced,
        "computes_before_param": _computes_before_param(c_cmd, idx_p),
    }
    # Computes consume the modulus registers.
    q_src, q_dst = _modulus_edges(c_cmd, idx_p)
    src = np.concatenate((raw_src, war_src, q_src))
    dst = np.concatenate((raw_dst, war_dst, q_dst))
    return src, dst, versions


def _allocate_slots(versions):
    """Pool slots by liveness: ``(slot, n_slots)``, ``slot`` mapping each
    version id to its slot (-1 for a version no plan op produces: a
    forwarded read's).

    A version read only by the in-place op that replaces it hands its
    slot to that op's output; nothing reads it afterwards.  Every other
    version roots a chain: a first read takes its atom's rank (the
    reads that gather come in atom order), and init versions and the
    outputs of versions read more than once — by a second op, by a
    write, or as a buffer's final version — take fresh slots after the
    atoms, outputs in program order, then init versions.  Chains are
    disjoint paths, so no two live versions ever share a slot.
    """
    n = versions["n_virtual"]
    final = np.array([vid for _, vid in versions["final_versions"]],
                     dtype=np.int64)
    # Every compute touch replaces the version it reads with the one it
    # writes: C1/C1N vout <- vin, C2 pout <- pin and sout <- sin.
    x_vin, x_vout = versions["x_vin"], versions["x_vout"]
    reads = np.bincount(np.concatenate((
        versions["w_vin"][versions["live_w"]], x_vin, final)), minlength=n)
    parent = np.arange(n, dtype=np.int64)
    handed = reads[x_vin] == 1
    parent[x_vout[handed]] = x_vin[handed]
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            break
        parent = hop

    first_reads = versions["first_reads"]
    slot = np.full(n, -1, dtype=np.int64)
    slot[first_reads] = np.arange(len(first_reads))
    # Roots among the compute outputs, then the init versions.  Versions
    # number the table, not the program: the outputs take their slots in
    # (command, leg) order.
    rooted = (parent == np.arange(n)) & (slot < 0)
    out = rooted[x_vout]
    n_write_vids = versions["n_write_vids"]
    roots = np.concatenate((
        x_vout[out][np.argsort(versions["x_order"][out])],
        n_write_vids + np.flatnonzero(rooted[n_write_vids:])))
    slot[roots] = len(first_reads) + np.arange(len(roots))
    return slot[parent], len(first_reads) + len(roots)


_KIND_READ, _KIND_WRITE, _KIND_C1, _KIND_C2, _KIND_C1N, _KIND_PARAM = range(6)

#: Per-member flags of the group assembly, OR-ed over each group.
_NOT_SLOT_RUN, _NOT_ATOM_RUN, _NOT_IN_PLACE, _NOT_REDUCED, _NOT_PAIRED = (
    1, 2, 4, 8, 16)


def _group_members(kinds, depth, extras, keys, cmds):
    """Sort plan members into their groups, all at once.

    Members arrive in class blocks in ``kinds`` order, each block in
    program order (``cmds``).  One stable sort by (kind, depth, extra)
    group, then ``keys``, keeps the blocks in place and makes every
    group one contiguous run of the returned ``order``, ties in program
    order.  Returns ``(order, lo, hi, g_order, g_kind, g_extra)``: the
    runs' bounds, the order that emits the groups by (depth, first
    member) — the legacy emission order — and each run's kind and
    extra.  The sort keys stay far below 2^63: depth < m, keys < 2n.
    """
    m = len(cmds)
    span = 2 * (int(depth.max()) + 1 if m else 1)
    group = kinds * span + depth * 2 + extras
    order = np.argsort(group * (int(keys.max()) + 1 if m else 1) + keys,
                       kind="stable")
    s_group = group[order]
    bounds = np.append(_first_of_runs(s_group), m)
    lo, hi = bounds[:-1], bounds[1:]
    g_group = s_group[lo]
    g_order = np.lexsort((np.minimum.reduceat(cmds[order], lo),
                          g_group % span // 2))
    return order, lo, hi, g_order, g_group // span, g_group % 2


def _atom_plan(ir: StreamIR, arch: ArchParams, by_code: list, stats: dict):
    idx_r, idx_w, idx_c1, idx_c2, idx_c1n, idx_p = (
        by_code[code] for code in (_CODE_CU_READ, _CODE_CU_WRITE, _CODE_C1,
                                   _CODE_C2, _CODE_C1N, _CODE_PARAM))
    renamed = _atom_edges_and_versions(ir, arch, idx_r, idx_w, idx_c1,
                                       idx_c2, idx_c1n, idx_p)
    if renamed is None:
        return None, "negative buffer index"
    src, dst, versions = renamed
    slot, n_slots = _allocate_slots(versions)

    # The plan's members, in class blocks of the kind order: the reads
    # that gather (atom order), the writes that store, C1, C2, C1N and
    # PARAM_WRITE.  Forwarded reads and dead writes leave the plan.
    first_reads, live_w = versions["first_reads"], versions["live_w"]
    m_cmd = np.concatenate((idx_r[first_reads], idx_w[live_w],
                            versions["c_cmd"], idx_p))
    m = len(m_cmd)
    sizes = (len(first_reads), int(live_w.sum()), len(idx_c1), len(idx_c2),
             len(idx_c1n), len(idx_p))
    by_kind = _blocks(sizes)
    mem = slice(0, by_kind[_KIND_WRITE].stop)
    computes = slice(by_kind[_KIND_C1].start, by_kind[_KIND_C1N].stop)
    kinds = np.repeat(np.arange(len(sizes)), sizes)
    extras = np.zeros(m, dtype=np.int64)
    extras[computes] = ir.gs[versions["c_cmd"]]
    extras[by_kind[_KIND_C1]] = 0       # C1 groups do not split by gs
    # Per compute member: the versions its P and S legs read and write.
    legs = np.zeros((4, m), dtype=np.int64)
    legs[:, computes] = versions["c_legs"]
    key_slot = np.zeros(m, dtype=np.int64)   # members order by it
    key_slot[by_kind[_KIND_READ]] = slot[first_reads]
    key_slot[by_kind[_KIND_WRITE]] = slot[versions["w_vin"][live_w]]
    key_slot[computes] = slot[legs[0, computes]]

    node = np.full(ir.n, -1, dtype=np.int64)
    node[m_cmd] = np.arange(m)
    depth = _longest_path_levels(m, node[src], node[dst])
    stats["edges"] = int(len(src))

    # Each (kind, depth, gs) group orders its members by key slot; every
    # array below is in that sorted member order.
    order, lo, hi, g_order, g_kind, g_extra = _group_members(
        kinds, depth, extras, key_slot, m_cmd)
    s_cmd = m_cmd[order]
    s_slot = key_slot[order].astype(np.intp, copy=False)
    s_rows = ir.rows[s_cmd].astype(np.intp, copy=False)
    s_cols = ir.cols[s_cmd].astype(np.intp, copy=False)
    s_legs = legs[:, order]
    leg_slots = np.zeros((4, m), dtype=np.intp)
    leg_slots[:, computes] = slot[s_legs[:, computes]]

    # Per-member flags, OR-ed per group: a run of slots (and, for reads
    # and writes, of atoms) makes a view; an in-place compute group
    # whose inputs are all proven reduced skips the scan.
    cpr = arch.columns_per_row
    bad = np.zeros(m, dtype=np.int64)
    bad[1:] = np.diff(s_slot) != 1
    bad[1:mem.stop] |= (np.diff(s_rows[mem] * cpr + s_cols[mem]) != 1
                        ) * _NOT_ATOM_RUN
    bad[lo] &= ~(_NOT_SLOT_RUN | _NOT_ATOM_RUN)
    c_slots = leg_slots[:, computes]
    reduced = versions["reduced"]
    bad[computes] |= (((c_slots[0] != c_slots[2]) | (c_slots[1] != c_slots[3]))
                      * _NOT_IN_PLACE)
    bad[computes] |= ~(reduced[s_legs[0, computes]]
                       & reduced[s_legs[1, computes]]) * _NOT_REDUCED

    # C2 views: a group's P and S legs walk the two halves of ``blocks``
    # blocks of 2 * half slots from ``start`` (P in the upper half with
    # ``swap``); the first member fixes start, half and swap.
    c2 = by_kind[_KIND_C2]
    c2_groups = np.flatnonzero(g_kind == _KIND_C2)
    c2_lo = lo[c2_groups]
    c2_size = hi[c2_groups] - c2_lo
    p0, s0 = leg_slots[0, c2_lo], leg_slots[1, c2_lo]
    half = np.abs(s0 - p0)
    swap = (p0 > s0).astype(np.int64)
    start = np.minimum(p0, s0)
    h = np.repeat(np.maximum(half, 1), c2_size)
    j = np.arange(c2.start, c2.stop) - np.repeat(c2_lo, c2_size)
    lower = np.repeat(start, c2_size) + (j // h) * (2 * h) + j % h
    up = np.repeat(swap, c2_size) * h
    bad[c2] |= (((leg_slots[0, c2] != lower + up)
                 | (leg_slots[1, c2] != lower + h - up)) * _NOT_PAIRED)
    c2_views = {}
    for g, st, hf, sw, k in zip(c2_groups.tolist(), start.tolist(),
                                half.tolist(), swap.tolist(),
                                c2_size.tolist()):
        if hf and not k % hf:
            c2_views[g] = (st, st + 2 * k, k // hf, hf, sw)

    g_bad = np.bitwise_or.reduceat(bad, lo).tolist()
    omega_idx, r_omega_idx = ir.omega0_idx[s_cmd], ir.r_omega_idx[s_cmd]
    zeta_idx = ir.zeta_idx[s_cmd]

    def values(table, idx, a, b):
        """A group's twiddles or zeta rows, by their table indices."""
        return tuple([table[i] for i in idx[a:b].tolist()])

    lo_l, hi_l = lo.tolist(), hi.tolist()
    g_kind_l, g_extra_l = g_kind.tolist(), g_extra.tolist()
    ops = []
    for g in g_order.tolist():
        a, b, kind, bits = lo_l[g], hi_l[g], g_kind_l[g], g_bad[g]
        if kind == _KIND_READ or kind == _KIND_WRITE:
            view = (None if bits & (_NOT_SLOT_RUN | _NOT_ATOM_RUN)
                    else (int(s_rows[a]) * cpr + int(s_cols[a]),
                          int(s_slot[a]), b - a))
            ops.append(("read" if kind == _KIND_READ else "write",
                        s_rows[a:b], s_cols[a:b], s_slot[a:b], view))
            continue
        if kind == _KIND_PARAM:
            ops.append(("param", int(s_cmd[a])))
            continue
        vins, vouts = leg_slots[0, a:b], leg_slots[2, a:b]
        reduced_in = not bits & _NOT_REDUCED
        view = (None if bits & (_NOT_SLOT_RUN | _NOT_IN_PLACE)
                else (int(vins[0]), int(vins[0]) + b - a))
        if kind == _KIND_C1:
            ops.append(("c1", vins, vouts,
                        values(ir.twiddles, omega_idx, a, b), reduced_in,
                        view))
        elif kind == _KIND_C2:
            view = (None if bits & (_NOT_IN_PLACE | _NOT_PAIRED)
                    else c2_views.get(g))
            ops.append(("c2", vins, leg_slots[1, a:b], vouts,
                        leg_slots[3, a:b],
                        values(ir.twiddles, omega_idx, a, b),
                        values(ir.twiddles, r_omega_idx, a, b),
                        bool(g_extra_l[g]), reduced_in, view))
        else:
            ops.append(("c1n", vins, vouts,
                        values(ir.zeta_rows, zeta_idx, a, b),
                        bool(g_extra_l[g]), reduced_in, view))

    stats["mode"] = "atom"
    stats["groups"] = len(ops)
    stats["depth"] = int(depth.max()) + 1 if m else 0
    stats["n_virtual"] = versions["n_virtual"]
    stats["slots"] = n_slots
    plan = FunctionalPlan(
        ops=ops,
        n_virtual=versions["n_virtual"],
        n_slots=n_slots,
        init_versions=[(buf, int(slot[vid]))
                       for buf, vid in versions["init_versions"]],
        final_versions=[(buf, int(slot[vid]))
                        for buf, vid in versions["final_versions"]],
        has_param=bool(len(idx_p)),
        max_buffer=versions["max_buffer"],
        mode="atom",
        computes_before_param=versions["computes_before_param"],
    )
    return plan, None


# -- lane-granular plan (the Nb=1 scalar-µ-op shape) ---------------------------

def _lane_plan(ir: StreamIR, arch: ArchParams, by_code: list,
               stats: dict):
    """Lane-granular renaming: buffer lanes and the CU scalar register
    rename individually, so scalar µ-op programs fuse into stacked lane
    copies and butterflies instead of executing per-command."""
    na = arch.words_per_atom
    bufs = ir.bufs
    lanes = ir.lanes
    rows = ir.rows
    cols = ir.cols

    idx_r, idx_w, idx_c1, idx_ld, idx_bu, idx_st, idx_p = (
        by_code[code] for code in (_CODE_CU_READ, _CODE_CU_WRITE, _CODE_C1,
                                   _CODE_LOAD, _CODE_BU, _CODE_STORE,
                                   _CODE_PARAM))

    all_buf_touch = np.concatenate((bufs[idx_r], bufs[idx_w], bufs[idx_c1],
                                    bufs[idx_ld], bufs[idx_bu],
                                    bufs[idx_st]))
    if len(all_buf_touch) and int(all_buf_touch.min()) < 0:
        return None, "negative buffer index"

    nr, nw, n1 = len(idx_r), len(idx_w), len(idx_c1)
    nl, nb, ns = len(idx_ld), len(idx_bu), len(idx_st)

    # Unit ids: 0 = the CU scalar register; 1 + buf*Na + lane per lane.
    def wide_units(idx):
        return (1 + bufs[idx, None] * na
                + np.arange(na, dtype=np.int64)[None, :]).ravel()

    def wide_cmds(idx):
        return np.repeat(idx, na)

    lane_units = 1 + bufs * na + lanes  # valid only at scalar-op rows

    # Touch table, class blocks in a fixed layout:
    #   CU_READ (k*na, write) | CU_WRITE (k*na, read) | C1 (k*na, rw)
    #   | LOAD lane (read) | LOAD reg (write)
    #   | BU lane (rw) | BU reg (rw)
    #   | STORE lane (write) | STORE reg (read)
    t_unit = np.concatenate((
        wide_units(idx_r), wide_units(idx_w), wide_units(idx_c1),
        lane_units[idx_ld], np.zeros(nl, np.int64),
        lane_units[idx_bu], np.zeros(nb, np.int64),
        lane_units[idx_st], np.zeros(ns, np.int64)))
    t_cmd = np.concatenate((
        wide_cmds(idx_r), wide_cmds(idx_w), wide_cmds(idx_c1),
        idx_ld, idx_ld, idx_bu, idx_bu, idx_st, idx_st))
    wide = nr * na, nw * na, n1 * na
    t_read = np.concatenate((
        np.zeros(wide[0], np.bool_), np.ones(wide[1], np.bool_),
        np.ones(wide[2], np.bool_),
        np.ones(nl, np.bool_), np.zeros(nl, np.bool_),
        np.ones(nb, np.bool_), np.ones(nb, np.bool_),
        np.zeros(ns, np.bool_), np.ones(ns, np.bool_)))
    t_write = np.concatenate((
        np.ones(wide[0], np.bool_), np.zeros(wide[1], np.bool_),
        np.ones(wide[2], np.bool_),
        np.zeros(nl, np.bool_), np.ones(nl, np.bool_),
        np.ones(nb, np.bool_), np.ones(nb, np.bool_),
        np.ones(ns, np.bool_), np.zeros(ns, np.bool_)))
    T = len(t_unit)

    # Version numbering: program order; slot = unit keeps per-command
    # lane blocks contiguous and deterministic.
    po = np.lexsort((t_unit, t_cmd))
    w_po = t_write[po]
    vid_po = np.where(w_po, np.cumsum(w_po) - 1, -1)
    t_vid = np.empty(T, dtype=np.int64)
    t_vid[po] = vid_po
    n_write_vids = int(w_po.sum())

    # Unit-sorted RAW resolution (a command never touches one unit
    # twice, so no same-command fixup is needed here).
    uo = np.lexsort((t_cmd, t_unit))
    u_unit, u_cmd = t_unit[uo], t_cmd[uo]
    u_read, u_write = t_read[uo], t_write[uo]
    u_vid = t_vid[uo]
    prevw = _prev_write(u_write, u_unit)
    res = u_read & (prevw >= 0)
    unresolved = u_read & (prevw < 0)

    # Init versions: a full Na-lane block per touched buffer (restores
    # untouched lanes exactly), plus the register seed when it is read
    # before written.
    touched_bufs = np.unique(all_buf_touch)
    init_base = n_write_vids
    n_virtual = init_base + len(touched_bufs) * na
    reg_init = None
    if bool((unresolved & (u_unit == 0)).any()):
        reg_init = n_virtual
        n_virtual += 1

    def init_vid_of(units):
        buf = (units - 1) // na
        lane = (units - 1) % na
        return (init_base + np.searchsorted(touched_bufs, buf) * na + lane)

    u_vin = np.full(T, -1, dtype=np.int64)
    u_vin[res] = u_vid[prevw[res]]
    lane_unres = unresolved & (u_unit > 0)
    u_vin[lane_unres] = init_vid_of(u_unit[lane_unres])
    if reg_init is not None:
        u_vin[unresolved & (u_unit == 0)] = reg_init

    # Final per-lane versions, defaulting to the init block.
    lane_final = np.arange(init_base, init_base + len(touched_bufs) * na,
                           dtype=np.intp).reshape(len(touched_bufs), na)
    reg_final = None
    if T:
        seg_starts = np.nonzero(
            np.concatenate(([True], u_unit[1:] != u_unit[:-1])))[0]
        wpos = np.where(u_write, np.arange(T, dtype=np.int64), -1)
        lastw = np.maximum.reduceat(wpos, seg_starts)
        seg_units = u_unit[seg_starts]
        written = lastw >= 0
        wu = seg_units[written]
        wv = u_vid[lastw[written]]
        reg_rows = wu == 0
        if bool(reg_rows.any()):
            reg_final = int(wv[reg_rows][0])
        lane_rows = ~reg_rows
        lu = wu[lane_rows]
        lane_final[np.searchsorted(touched_bufs, (lu - 1) // na),
                   (lu - 1) % na] = wv[lane_rows]

    # RAW edges through units (a command touches each unit at most once,
    # so no self-edges can arise).
    raw_src = u_cmd[prevw[res]]
    raw_dst = u_cmd[res]

    # C1, BU and LOAD consume q's value; STORE needs it latched.
    idx_q = np.concatenate((idx_c1, idx_bu, idx_ld, idx_st))
    hz_src, hz_dst = _storage_and_modulus_edges(ir, arch, idx_r, idx_w,
                                                idx_q, idx_p)
    src = np.concatenate((raw_src, hz_src))
    dst = np.concatenate((raw_dst, hz_dst))

    # The plan's members, in class blocks of the kind order.
    m_cmd = np.concatenate((idx_r, idx_w, idx_c1, idx_ld, idx_bu, idx_st,
                            idx_p))
    m = len(m_cmd)
    sizes = (nr, nw, n1, nl, nb, ns, len(idx_p))
    node = np.full(ir.n, -1, dtype=np.int64)
    node[m_cmd] = np.arange(m)
    depth = _longest_path_levels(m, node[src], node[dst])
    stats["edges"] = int(len(src))
    zeros = np.zeros(m, dtype=np.int64)
    order, lo, hi, g_order, g_kind, _ = _group_members(
        np.repeat(np.arange(len(sizes)), sizes), depth, zeros, zeros, m_cmd)

    # Scatter vin back to original touch order, then slice the fixed
    # class-block layout into per-class views.
    t_vin = np.empty(T, dtype=np.int64)
    t_vin[uo] = u_vin
    o = 0
    r_vout2d = t_vid[o:o + nr * na].reshape(nr, na)
    o += nr * na
    w_vin2d = t_vin[o:o + nw * na].reshape(nw, na)
    o += nw * na
    c1_vin2d = t_vin[o:o + n1 * na].reshape(n1, na)
    c1_vout2d = t_vid[o:o + n1 * na].reshape(n1, na)
    o += n1 * na
    ld_lane_vin = t_vin[o:o + nl]
    o += nl
    ld_reg_vout = t_vid[o:o + nl]
    o += nl
    bu_lane_vin = t_vin[o:o + nb]
    bu_lane_vout = t_vid[o:o + nb]
    o += nb
    bu_reg_vin = t_vin[o:o + nb]
    bu_reg_vout = t_vid[o:o + nb]
    o += nb
    st_lane_vout = t_vid[o:o + ns]
    o += ns
    st_reg_vin = t_vin[o:o + ns]

    # Per kind: its op name and its members' op arrays (C1 and BU also
    # their twiddles, PARAM_WRITE its commands), each gathered once in
    # sorted member order, so a group's op fields are slices.
    twiddles = ir.twiddles + (None,)  # an unchecked BU_SCALAR's -1: None
    classes = (("lread", idx_r, (rows[idx_r], cols[idx_r], r_vout2d)),
               ("lwrite", idx_w, (rows[idx_w], cols[idx_w], w_vin2d)),
               ("lc1", idx_c1, (c1_vin2d, c1_vout2d)),
               ("load", idx_ld, (ld_lane_vin, ld_reg_vout)),
               ("bu", idx_bu, (bu_reg_vin, bu_lane_vin, bu_reg_vout,
                               bu_lane_vout)),
               ("store", idx_st, (st_reg_vin, st_lane_vout)),
               ("param", idx_p, ()))
    first = np.cumsum((0,) + sizes).tolist()
    columns = []
    for kind, (name, idx, arrays) in enumerate(classes):
        cpos = order[first[kind]:first[kind + 1]] - first[kind]
        values = None
        if name in ("lc1", "bu"):
            values = [twiddles[i] for i in ir.omega0_idx[idx[cpos]].tolist()]
        elif name == "param":
            values = idx[cpos].tolist()
        columns.append((name, tuple(a[cpos].astype(np.intp, copy=False)
                                    for a in arrays), values))
    ops = []
    lo, hi = lo.tolist(), hi.tolist()
    for g, kind in zip(g_order.tolist(), g_kind[g_order].tolist()):
        name, arrays, values = columns[kind]
        a, b = lo[g] - first[kind], hi[g] - first[kind]
        if name == "param":
            ops.append(("param", values[a]))
            continue
        op = (name,) + tuple(array[a:b] for array in arrays)
        ops.append(op if values is None else op + (tuple(values[a:b]),))

    stats["mode"] = "lane"
    stats["groups"] = len(ops)
    stats["depth"] = int(depth.max()) + 1 if m else 0
    stats["n_virtual"] = n_virtual
    plan = FunctionalPlan(
        ops=ops,
        n_virtual=n_virtual,
        init_versions=[],
        final_versions=[],
        has_param=bool(len(idx_p)),
        max_buffer=int(touched_bufs.max()) if len(touched_bufs) else -1,
        mode="lane",
        lane_init=tuple((int(buf), int(init_base + i * na))
                        for i, buf in enumerate(touched_bufs)),
        lane_final=tuple((int(buf), lane_final[i])
                         for i, buf in enumerate(touched_bufs)),
        reg_init=reg_init,
        reg_final=reg_final,
        computes_before_param=_computes_before_param(idx_q, idx_p),
    )
    return plan, None


# -- entry ---------------------------------------------------------------------

def build_plan(ir: StreamIR, arch: ArchParams):
    """Run the pass pipeline over one IR.

    Returns ``(plan, fallback_reason, stats)`` — exactly one of the
    first two is set.  A plan models one bank, and :func:`_validate`
    tracks one open row, so a stream spanning several banks (a merged
    multi-bank dispatch) gets no plan; its banks execute on their own
    one-bank streams.
    """
    stats: dict = {}
    banks = ir.banks
    if ir.n and banks.min() != banks.max():
        return None, (f"stream spans {len(np.unique(banks))} banks; "
                      f"plans are per bank"), stats
    by_code = _split_codes(ir.codes)
    reason, has_scalar = _validate(ir, arch, by_code)
    if reason is not None:
        return None, reason, stats
    plan, reason = (_lane_plan if has_scalar else _atom_plan)(ir, arch,
                                                              by_code, stats)
    return plan, reason, stats
