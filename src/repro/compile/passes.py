"""Vectorized compiler passes over the :class:`~repro.compile.ir.StreamIR`.

One fixed pipeline replaces the old per-command ``_build_plan`` Python
loop with NumPy computations over the SoA columns:

* **validate** — symbolic open-row protocol, address bounds and payload
  checks on a one-bank stream, reporting the *first* violating command
  with the same fallback reason the legacy loop produced.
* **rename** — buffer renaming: every buffer write allocates a fresh
  virtual version (register renaming), erasing WAR/WAW hazards so
  whole stages fuse.
* **group** — dependency-depth grouping: longest-path levels over the
  vectorized hazard-edge graph (atom RAW/WAR/WAW chains, buffer-version
  RAW chains, modulus-register chains), computed by a frontier Kahn
  sweep.
* **lane fusion** — lane-granular renaming for programs with scalar
  µ-ops (the Nb=1 single-buffer mapping): buffer *lanes* and the CU's
  scalar register rename individually, so LOAD/BU/STORE_SCALAR group
  into stacked lane copies and butterflies.  Scalar programs that also
  carry C2/C1N run per-command.
* **forward** — SSA over memory (Cytron et al., TOPLAS 1991) for the
  atom plan: over the atom-sorted CU_READ/CU_WRITE chains the hazard
  edges already walk, a read of an atom the plan wrote (or already
  read) is forwarded — its version aliases the stored (gathered) one,
  resolved transitively — and only each atom's last write stores.
  Forwarded reads and dead writes drop out before grouping, so a plan
  reads each atom from the cells at most once and writes it back at
  most once.  The pass is vectorized: it replaces the per-stage
  read/write groups, and the grouping sweep gets cheaper with them.
* **slots** — pool-slot allocation by liveness (linear scan; Poletto &
  Sarkar, TOPLAS 1999) for the atom plan: a version read only by the
  in-place op that replaces it (C1/C1N ``vout ← vin``, C2 ``pout ←
  pin`` and ``sout ← sin``) hands its slot to that op's output,
  resolved by pointer jumping; an atom's first read takes the atom's
  rank among the plan's atoms; init versions and the outputs of
  versions read more than once take fresh slots.  An in-place plan's
  pool is then one ``(…, atoms, Na)`` image of the atoms it reads.
* **views** — each group's slot arrays are matched against a (reshape,
  slice) view of that image: members and twiddle rows are ordered by
  slot, and a read, write, C1 or C1N group over a contiguous run, or a
  C2 group over the two halves of ``blocks`` blocks, stores its view on
  the op.  A group that matches none keeps its ``np.intp`` slot arrays,
  which the executor gathers with ``take`` and scatters by fancy index.
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
:meth:`repro.pim.bank_pim.PimBank.run`.
"""

from __future__ import annotations

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
_IS_ATOM_COMPUTE = np.array([ct in (CommandType.C1, CommandType.C2,
                                    CommandType.C1N)
                             for ct in CODE_CTYPES], dtype=np.bool_)
_IS_SCALAR = np.array([ct in (CommandType.LOAD_SCALAR,
                              CommandType.BU_SCALAR,
                              CommandType.STORE_SCALAR)
                       for ct in CODE_CTYPES], dtype=np.bool_)


# -- shared vectorized helpers -------------------------------------------------

def _prev_write(is_write: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Per element of a segment-sorted sequence: the index of the latest
    *writing* element strictly before it in the same segment, else -1."""
    k = len(seg)
    out = np.full(k, -1, dtype=np.int64)
    if k == 0:
        return out
    wpos = np.where(is_write, np.arange(k, dtype=np.int64), -1)
    run = np.maximum.accumulate(wpos)
    out[1:] = run[:-1]
    ok = out >= 0
    np.logical_and(ok, seg[np.maximum(out, 0)] == seg, out=ok)
    out[~ok] = -1
    return out


def _next_write(is_write: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Mirror of :func:`_prev_write`: the earliest writing element
    strictly after, else -1."""
    k = len(seg)
    rev = _prev_write(is_write[::-1], seg[::-1])[::-1]
    return np.where(rev >= 0, k - 1 - rev, -1)


def _values(table: tuple, index: np.ndarray, members: np.ndarray) -> tuple:
    """The ``table`` entries an index column names for ``members``."""
    return tuple(map(table.__getitem__, index[members].tolist()))


def _atom_chains(ir, arch, idx_r, idx_w):
    """The CU_READs (``idx_r``) and CU_WRITEs (``idx_w``) sorted by
    (row, col) atom, then program order, as ``(order, cmd, atom,
    is_write, prev_write, next_write)``: ``order`` indexes the
    concatenation ``idx_r + idx_w``, and the last two give each
    element's previous and next write of the same atom in this order,
    else -1."""
    sel = np.concatenate((idx_r, idx_w))
    iswr = np.concatenate((np.zeros(len(idx_r), np.bool_),
                           np.ones(len(idx_w), np.bool_)))
    atom = ir.rows[sel] * arch.columns_per_row + ir.cols[sel]
    ao = np.lexsort((sel, atom))
    a_atom, a_w = atom[ao], iswr[ao]
    return (ao, sel[ao], a_atom, a_w, _prev_write(a_w, a_atom),
            _next_write(a_w, a_atom))


def _modulus_edges(idx_q, idx_p):
    """Modulus-register chains as ``(src, dst)``: every command in the
    sorted ``idx_q`` that needs q orders against the PARAM_WRITEs
    (``idx_p``) around it both ways, and PARAM_WRITEs order among
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
    """True when a command needing q (sorted ``idx_q``) precedes the
    first PARAM_WRITE (``idx_p``): it runs under the modulus loaded
    before the program."""
    return bool(len(idx_q) and (not len(idx_p) or idx_q[0] < idx_p[0]))


def _storage_and_modulus_edges(ir, arch, idx_r, idx_w, idx_q, idx_p):
    """The lane plan's storage and modulus hazard edges, as ``(src,
    dst)``: per atom, RAW and WAW to the previous write and WAR from
    each read to the next write, plus :func:`_modulus_edges`."""
    _, a_cmd, _, a_w, a_prevw, a_nextw = _atom_chains(ir, arch, idx_r, idx_w)
    chained = a_prevw >= 0          # RAW (reads) and WAW (writes)
    war = ~a_w & (a_nextw >= 0)     # read -> next write
    q_src, q_dst = _modulus_edges(idx_q, idx_p)
    src = np.concatenate((a_cmd[a_prevw[chained]], a_cmd[war], q_src))
    dst = np.concatenate((a_cmd[chained], a_cmd[a_nextw[war]], q_dst))
    return src, dst


def _forward_stores(ir, arch, idx_r, idx_w):
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

    Returns ``(live_r, live_w, fwd_r, fwd_src, war_src, war_dst)``:
    boolean masks over ``idx_r`` / ``idx_w`` of the surviving reads and
    writes; positions in ``idx_r`` of the forwarded reads and, for
    each, the position in ``idx_r + idx_w`` of the read or write whose
    version it takes; and the WAR edges.
    """
    nr = len(idx_r)
    ao, a_cmd, a_atom, a_w, a_prevw, a_nextw = _atom_chains(ir, arch,
                                                            idx_r, idx_w)
    first = np.ones(len(a_atom), dtype=np.bool_)
    first[1:] = a_atom[1:] != a_atom[:-1]
    forwarded = ~a_w & ~first
    source = np.where(a_prevw >= 0, a_prevw, np.maximum.accumulate(
        np.where(first, np.arange(len(first)), 0)))
    last = a_w & (a_nextw < 0)
    to_last = _next_write(last, a_atom)
    war = ~a_w & first & (to_last >= 0)
    live_r = np.ones(nr, dtype=np.bool_)
    live_r[ao[forwarded]] = False
    live_w = np.zeros(len(idx_w), dtype=np.bool_)
    live_w[ao[last] - nr] = True
    return (live_r, live_w, ao[forwarded], ao[source[forwarded]],
            a_cmd[war], a_cmd[to_last[war]])


def _longest_path_levels(n_nodes: int, src: np.ndarray,
                         dst: np.ndarray) -> np.ndarray:
    """Longest-path depth per node of a DAG, via a frontier Kahn sweep.

    Each edge is touched exactly once; the loop iterates once per
    dependency level (tens for real programs), with every step a
    vectorized operation — this is what keeps the grouping pass off the
    per-command Python path."""
    depth = np.zeros(n_nodes, dtype=np.int64)
    if n_nodes == 0 or len(src) == 0:
        return depth
    indeg = np.bincount(dst, minlength=n_nodes)
    order = np.argsort(src, kind="stable")
    ss = src[order]
    ds = dst[order]
    offs = np.concatenate(
        ([0], np.cumsum(np.bincount(ss, minlength=n_nodes))))
    frontier = np.nonzero(indeg == 0)[0]
    while frontier.size:
        starts = offs[frontier]
        cnt = offs[frontier + 1] - starts
        nz = cnt > 0
        starts, cnt = starts[nz], cnt[nz]
        total = int(cnt.sum())
        if not total:
            break
        take = (np.repeat(starts - (np.cumsum(cnt) - cnt), cnt)
                + np.arange(total, dtype=np.int64))
        d = ds[take]
        np.maximum.at(depth, d, depth[ss[take]] + 1)
        np.subtract.at(indeg, d, 1)
        frontier = np.unique(d[indeg[d] == 0])
    return depth


def _first_violation(candidates) -> Optional[Tuple[int, int, object]]:
    """``candidates`` is a list of ``(indices, priority, describe)``;
    returns the winning ``(index, priority, describe)`` or None."""
    best = None
    for indices, priority, describe in candidates:
        if len(indices) == 0:
            continue
        i = int(indices[0])
        if best is None or (i, priority) < best[:2]:
            best = (i, priority, describe)
    return best


# -- validation ----------------------------------------------------------------

def _validate(ir: StreamIR, arch: ArchParams):
    """Vectorized symbolic validation.

    Returns ``(reason, has_scalar)`` — ``reason`` is the legacy fallback
    string for the first violating command (None when the program is
    provable), ``has_scalar`` selects the lane-granular plan.
    """
    codes = ir.codes
    rows = ir.rows
    cols = ir.cols
    n = ir.n
    is_act = codes == _CODE_ACT
    is_pre = codes == _CODE_PRE
    is_col = _IS_COLUMN[codes]
    is_scalar = _IS_SCALAR[codes]
    has_scalar = bool(is_scalar.any())

    delta = is_act.astype(np.int64) - is_pre.astype(np.int64)
    depth_after = np.cumsum(delta)
    depth_before = depth_after - delta
    act_positions = np.nonzero(is_act)[0]

    def open_row_at(i: int):
        """The open row before command ``i`` on a valid prefix."""
        if depth_before[i] != 1:
            return None
        j = int(np.searchsorted(act_positions, i)) - 1
        return int(rows[act_positions[j]])

    candidates = []

    def rule(mask, priority, describe):
        candidates.append((np.nonzero(mask)[0], priority, describe))

    rule(is_act & (depth_before != 0), 0,
         lambda i: f"cmd {i}: ACT while row {open_row_at(i)} is open")
    rule(is_act & ((rows < 0) | (rows >= arch.rows_per_bank)), 1,
         lambda i: f"cmd {i}: ACT row {rows[i]} outside bank")
    rule(is_pre & (depth_before != 1), 0,
         lambda i: f"cmd {i}: PRE with no open row")

    # Column ops: open-row mismatch, then column bounds, then WR.
    open_ok = depth_before == 1
    # The open row for every position (valid where open_ok): row of the
    # most recent ACT.
    if len(act_positions):
        last_act = np.searchsorted(act_positions, np.arange(n),
                                   side="right") - 1
        open_rows = np.where(last_act >= 0,
                             rows[act_positions[np.maximum(last_act, 0)]], -1)
    else:
        open_rows = np.full(n, -1, dtype=np.int64)
    rule(is_col & (~open_ok | (open_rows != rows)), 2,
         lambda i: (f"cmd {i}: {CODE_CTYPES[codes[i]].value} r{rows[i]} "
                    f"with row {open_row_at(i)} open"))
    rule(is_col & ((cols < 0) | (cols >= arch.columns_per_row)), 3,
         lambda i: f"cmd {i}: column {cols[i]} outside row")
    rule(codes == _CODE_WR, 4,
         lambda i: f"cmd {i}: WR with host data is unmapped")

    rule((codes == _CODE_C1) & (ir.omega0_idx < 0), 2,
         lambda i: f"cmd {i}: C1 without omega0")
    rule((codes == _CODE_C2) & ((ir.omega0_idx < 0) | (ir.r_omega_idx < 0)),
         2, lambda i: f"cmd {i}: C2 without its twiddle pair")
    zetas_per_atom = arch.words_per_atom - 1
    zeta_counts = np.fromiter(map(len, ir.zeta_rows + ((),)),  # -1: ()
                              dtype=np.int64)[ir.zeta_idx]
    rule((codes == _CODE_C1N) & (zeta_counts != zetas_per_atom), 2,
         lambda i: (f"cmd {i}: C1N carries {zeta_counts[i]} zetas, "
                    f"needs {zetas_per_atom}"))

    if has_scalar:
        if bool(((codes == _CODE_C2) | (codes == _CODE_C1N)).any()):
            rule(is_scalar, 5,
                 lambda i: (f"cmd {i}: {CODE_CTYPES[codes[i]].value} "
                            f"runs per-command"))
        else:
            lanes = ir.lanes
            rule(is_scalar & ((lanes < 0)
                              | (lanes >= arch.words_per_atom)), 5,
                 lambda i: f"cmd {i}: lane {lanes[i]} outside the atom")

    hit = _first_violation(candidates)
    if hit is not None:
        return hit[2](hit[0]), has_scalar
    if n and depth_after[-1] != 0:
        return (f"program ends with row "
                f"{int(rows[act_positions[-1]])} open"), has_scalar
    return None, has_scalar


# -- whole-atom plan (the Nb >= 2 shape) ---------------------------------------

def _atom_edges_and_versions(ir, arch, idx_r, idx_w, idx_c1, idx_c2,
                             idx_c1n, idx_p):
    """Buffer renaming, store forwarding and hazard-edge construction,
    fully vectorized.

    Returns ``(edges_src, edges_dst, versions)`` where ``versions``
    bundles per-class vin/vout arrays, init/final version lists, the
    virtual count and the surviving (``live_r`` / ``live_w``) reads and
    writes of :func:`_forward_stores`.  Every vin, and every final
    version, reads through the forwarding aliases.
    """
    bufs = ir.bufs

    # Buffer touch table (C2 contributes two legs).
    blocks = (idx_r, idx_w, idx_c1, idx_c1n, idx_c2, idx_c2)
    t_cmd = np.concatenate(blocks) if blocks else np.zeros(0, np.int64)
    t_buf = np.concatenate((bufs[idx_r], bufs[idx_w], bufs[idx_c1],
                            bufs[idx_c1n], bufs[idx_c2],
                            ir.buf2s[idx_c2]))
    nr, nw, n1, n1n, n2 = (len(idx_r), len(idx_w), len(idx_c1),
                           len(idx_c1n), len(idx_c2))
    t_read = np.concatenate((np.zeros(nr, np.bool_),
                             np.ones(nw + n1 + n1n + 2 * n2, np.bool_)))
    t_write = np.concatenate((np.ones(nr, np.bool_),
                              np.zeros(nw, np.bool_),
                              np.ones(n1 + n1n + 2 * n2, np.bool_)))
    t_slot = np.concatenate((np.zeros(nr + nw + n1 + n1n + n2, np.int64),
                             np.ones(n2, np.int64)))
    T = len(t_cmd)

    # Version ids for writes, numbered in program order (cmd, then leg).
    po = np.lexsort((t_slot, t_cmd))
    w_po = t_write[po]
    vid_po = np.where(w_po, np.cumsum(w_po) - 1, -1)
    t_vid = np.empty(T, dtype=np.int64)
    t_vid[po] = vid_po
    n_write_vids = int(w_po.sum())

    # RAW resolution in buffer-sorted order.
    bo = np.lexsort((t_slot, t_cmd, t_buf))
    b_cmd, b_buf = t_cmd[bo], t_buf[bo]
    b_read, b_write = t_read[bo], t_write[bo]
    b_vid = t_vid[bo]
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

    # Init versions: buffers read before ever written.
    unresolved = b_read & (prevw < 0)
    init_bufs = np.unique(b_buf[unresolved])
    init_base = n_write_vids
    b_vin = np.full(T, -1, dtype=np.int64)
    res = b_read & (prevw >= 0)
    b_vin[res] = b_vid[prevw[res]]
    b_vin[unresolved] = init_base + np.searchsorted(init_bufs,
                                                    b_buf[unresolved])
    n_virtual = init_base + len(init_bufs)
    init_versions = [(int(buf), init_base + i)
                     for i, buf in enumerate(init_bufs)]

    # Scatter vin back to original touch order.
    t_vin = np.empty(T, dtype=np.int64)
    t_vin[bo] = b_vin

    # Store forwarding: a forwarded read's version aliases the version
    # its source read gathered or its source write stored, resolved
    # transitively (a stored version may itself be a forwarded read's).
    # The touch table starts with the reads, then the writes, so a
    # position in idx_r + idx_w is also the source's touch.
    live_r, live_w, fwd_r, fwd_src, war_src, war_dst = _forward_stores(
        ir, arch, idx_r, idx_w)
    alias = np.arange(n_virtual, dtype=np.int64)
    if len(fwd_r):
        alias[t_vid[fwd_r]] = np.where(fwd_src < nr, t_vid[fwd_src],
                                       t_vin[fwd_src])
        while True:
            hop = alias[alias]
            if np.array_equal(hop, alias):
                break
            alias = hop
        has_vin = t_vin >= 0
        t_vin[has_vin] = alias[t_vin[has_vin]]

    # Final version per buffer: the last write's vid, else its init vid.
    final_versions = []
    if T:
        seg_starts = np.nonzero(
            np.concatenate(([True], b_buf[1:] != b_buf[:-1])))[0]
        wpos = np.where(b_write, np.arange(T, dtype=np.int64), -1)
        lastw = np.maximum.reduceat(wpos, seg_starts)
        seg_bufs = b_buf[seg_starts]
        init_lookup = dict(init_versions)
        for buf, lw in zip(seg_bufs.tolist(), lastw.tolist()):
            final_versions.append(
                (buf, int(alias[b_vid[lw]]) if lw >= 0 else init_lookup[buf]))

    # RAW buffer edges (renaming erases buffer WAR/WAW): each surviving
    # consumer from the command that produced the version it reads.
    vid_cmd = np.empty(n_write_vids, dtype=np.int64)
    vid_cmd[t_vid[t_write]] = t_cmd[t_write]

    # Reduced versions: a compute op's output holds words below the
    # modulus it ran under, and every compute op after the program's
    # first PARAM_WRITE (every one, in a program with none) runs under
    # the same modulus, so a consumer there need not reduce them again.
    # Reads (raw cells), init versions (the buffers' prior contents) and
    # outputs of compute ops under a modulus the program then replaces
    # stay unproven.
    reduced = np.zeros(n_virtual, dtype=np.bool_)
    reduced[:n_write_vids] = (_IS_ATOM_COMPUTE[ir.codes[vid_cmd]]
                              & (vid_cmd > (idx_p[0] if len(idx_p) else -1)))
    consumer = t_read & (t_vin < n_write_vids)
    consumer[nr:nr + nw] &= live_w
    raw_src = vid_cmd[t_vin[consumer]]
    raw_dst = t_cmd[consumer]

    # Computes consume the modulus registers.
    idx_q = np.sort(np.concatenate((idx_c1, idx_c2, idx_c1n)))
    versions = {
        "r_vout": t_vid[:nr],
        "w_vin": t_vin[nr:nr + nw],
        "c1_vin": t_vin[nr + nw:nr + nw + n1],
        "c1_vout": t_vid[nr + nw:nr + nw + n1],
        "c1n_vin": t_vin[nr + nw + n1:nr + nw + n1 + n1n],
        "c1n_vout": t_vid[nr + nw + n1:nr + nw + n1 + n1n],
        "c2_pin": t_vin[nr + nw + n1 + n1n:nr + nw + n1 + n1n + n2],
        "c2_pout": t_vid[nr + nw + n1 + n1n:nr + nw + n1 + n1n + n2],
        "c2_sin": t_vin[nr + nw + n1 + n1n + n2:],
        "c2_sout": t_vid[nr + nw + n1 + n1n + n2:],
        "n_virtual": n_virtual,
        "init_versions": init_versions,
        "final_versions": final_versions,
        "max_buffer": int(t_buf.max()) if T else -1,
        "min_buffer": int(t_buf.min()) if T else 0,
        "live_r": live_r,
        "live_w": live_w,
        "reduced": reduced,
        "computes_before_param": _computes_before_param(idx_q, idx_p),
    }
    q_src, q_dst = _modulus_edges(idx_q, idx_p)
    src = np.concatenate((raw_src, war_src, q_src))
    dst = np.concatenate((raw_dst, war_dst, q_dst))
    return src, dst, versions


def _allocate_slots(versions, read_atoms):
    """Pool slots by liveness: ``(slot, n_slots)``, ``slot`` mapping each
    version id to its slot (-1 for a version no plan op produces: a
    forwarded read's).

    A version read only by the in-place op that replaces it hands its
    slot to that op's output; nothing reads it afterwards.  Every other
    version roots a chain: a first read (``versions["r_vout"]`` of the
    surviving reads, over ``read_atoms``) takes its atom's rank, and
    init versions and the outputs of versions read more than once —
    by a second op, by a write, or as a buffer's final version — take
    fresh slots after the atoms, in version order.  Chains are disjoint
    paths, so no two live versions ever share a slot.
    """
    n = versions["n_virtual"]
    final = np.array([vid for _, vid in versions["final_versions"]],
                     dtype=np.int64)
    reads = np.bincount(np.concatenate((
        versions["w_vin"][versions["live_w"]], versions["c1_vin"],
        versions["c1n_vin"], versions["c2_pin"], versions["c2_sin"],
        final)), minlength=n)
    parent = np.arange(n, dtype=np.int64)
    outputs = []
    for vin, vout in (("c1_vin", "c1_vout"), ("c1n_vin", "c1n_vout"),
                      ("c2_pin", "c2_pout"), ("c2_sin", "c2_sout")):
        vi, vo = versions[vin], versions[vout]
        handed = reads[vi] == 1
        parent[vo[handed]] = vi[handed]
        outputs.append(vo)
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            break
        parent = hop

    first_reads = versions["r_vout"][versions["live_r"]]
    slot = np.full(n, -1, dtype=np.int64)
    slot[first_reads[np.argsort(read_atoms, kind="stable")]] = np.arange(
        len(first_reads))
    rooted = np.zeros(n, dtype=np.bool_)
    rooted[np.concatenate(outputs + [np.array(
        [vid for _, vid in versions["init_versions"]], dtype=np.int64)])] = True
    rooted &= (parent == np.arange(n)) & (slot < 0)
    slot[rooted] = len(first_reads) + np.arange(int(rooted.sum()))
    return slot[parent], len(first_reads) + int(rooted.sum())


def _run_view(slots) -> Optional[Tuple[int, int]]:
    """``(start, stop)`` when ``slots`` is the run ``start, start + 1,
    …, stop - 1``, else None."""
    start = int(slots[0])
    if not np.array_equal(slots, np.arange(start, start + len(slots))):
        return None
    return start, start + len(slots)


def _pair_view(pins, sins) -> Optional[Tuple[int, int, int, int, int]]:
    """The C2 view ``(start, stop, blocks, half, swap)`` when, in member
    order, ``pins`` and ``sins`` walk the two halves of ``blocks``
    consecutive blocks of ``2 * half`` slots from ``start`` — P in the
    lower half, or in the upper one with ``swap`` — else None."""
    k = len(pins)
    half = abs(int(sins[0]) - int(pins[0]))
    if half == 0 or k % half:
        return None
    swap = int(pins[0] > sins[0])
    start = min(int(pins[0]), int(sins[0]))
    j = np.arange(k)
    lower = start + (j // half) * (2 * half) + j % half
    if not (np.array_equal(pins, lower + swap * half)
            and np.array_equal(sins, lower + (1 - swap) * half)):
        return None
    return start, start + 2 * k, k // half, half, swap


_KIND_READ, _KIND_WRITE, _KIND_C1, _KIND_C2, _KIND_C1N, _KIND_PARAM = range(6)


def _assemble_groups(rel, depth, kinds, extras, first_sort_keys=None):
    """Shared group construction: sort the relevant commands by
    ``(depth, kind, extra, cmd)``, find boundaries, and order the
    groups by ``(depth, first member)`` — the legacy emission order.

    Returns a list of ``(kind, extra, member_cmds, member_positions)``
    where positions index into ``rel``.
    """
    m = len(rel)
    if m == 0:
        return []
    order = np.lexsort((rel, extras, kinds, depth))
    s_rel = rel[order]
    s_depth = depth[order]
    s_kind = kinds[order]
    s_extra = extras[order]
    boundary = np.concatenate((
        [True],
        (s_depth[1:] != s_depth[:-1]) | (s_kind[1:] != s_kind[:-1])
        | (s_extra[1:] != s_extra[:-1])))
    starts = np.nonzero(boundary)[0]
    ends = np.concatenate((starts[1:], [m]))
    g_first = s_rel[starts]
    g_depth = s_depth[starts]
    g_order = np.lexsort((g_first, g_depth))
    groups = []
    for g in g_order.tolist():
        lo, hi = int(starts[g]), int(ends[g])
        groups.append((int(s_kind[lo]), int(s_extra[lo]),
                       s_rel[lo:hi], order[lo:hi]))
    return groups


def _atom_plan(ir: StreamIR, arch: ArchParams, stats: dict):
    codes = ir.codes
    idx_r = np.nonzero(codes == _CODE_CU_READ)[0]
    idx_w = np.nonzero(codes == _CODE_CU_WRITE)[0]
    idx_c1 = np.nonzero(codes == _CODE_C1)[0]
    idx_c2 = np.nonzero(codes == _CODE_C2)[0]
    idx_c1n = np.nonzero(codes == _CODE_C1N)[0]
    idx_p = np.nonzero(codes == _CODE_PARAM)[0]

    src, dst, versions = _atom_edges_and_versions(
        ir, arch, idx_r, idx_w, idx_c1, idx_c2, idx_c1n, idx_p)
    if versions["min_buffer"] < 0:
        return None, "negative buffer index"
    # Forwarded reads and dead writes leave the plan: their positions
    # still index the per-class version arrays through searchsorted.
    live_r, live_w = idx_r[versions["live_r"]], idx_w[versions["live_w"]]

    rel = np.sort(np.concatenate((live_r, live_w, idx_c1, idx_c2,
                                  idx_c1n, idx_p)))
    kinds = np.empty(len(rel), dtype=np.int64)
    pos_of = {  # class -> positions of its members within `rel`
        _KIND_READ: np.searchsorted(rel, live_r),
        _KIND_WRITE: np.searchsorted(rel, live_w),
        _KIND_C1: np.searchsorted(rel, idx_c1),
        _KIND_C2: np.searchsorted(rel, idx_c2),
        _KIND_C1N: np.searchsorted(rel, idx_c1n),
        _KIND_PARAM: np.searchsorted(rel, idx_p),
    }
    for kind, positions in pos_of.items():
        kinds[positions] = kind
    extras = np.zeros(len(rel), dtype=np.int64)
    extras[pos_of[_KIND_C2]] = ir.gs[idx_c2]
    extras[pos_of[_KIND_C1N]] = ir.gs[idx_c1n]

    depth = _longest_path_levels(
        len(rel), np.searchsorted(rel, src), np.searchsorted(rel, dst))
    stats["edges"] = int(len(src))

    rows = ir.rows
    cols = ir.cols
    cpr = arch.columns_per_row
    slot, n_slots = _allocate_slots(versions,
                                    rows[live_r] * cpr + cols[live_r])

    def by_slot(idx, name, members):
        """The members ordered by the slot of their ``name`` version,
        with their positions in ``idx``."""
        cpos = np.searchsorted(idx, members)
        order = np.argsort(slot[versions[name][cpos]], kind="stable")
        return members[order], cpos[order]

    def slots(name, cpos):
        return slot[versions[name][cpos]].astype(np.intp)

    def memory_op(op_kind, idx, name, members):
        members, cpos = by_slot(idx, name, members)
        op_rows, op_cols = rows[members], cols[members]
        op_slots = slots(name, cpos)
        atoms, run = _run_view(op_rows * cpr + op_cols), _run_view(op_slots)
        view = (atoms[0], run[0], len(members)) if atoms and run else None
        return (op_kind, op_rows.astype(np.intp), op_cols.astype(np.intp),
                op_slots, view)

    def in_place_view(vins, vouts):
        return _run_view(vins) if np.array_equal(vins, vouts) else None

    def reduced_inputs(cpos, *names):
        return all(bool(versions["reduced"][versions[name][cpos]].all())
                   for name in names)

    ops = []
    for kind, extra, members, _ in _assemble_groups(rel, depth, kinds,
                                                    extras):
        if kind == _KIND_READ:
            ops.append(memory_op("read", idx_r, "r_vout", members))
        elif kind == _KIND_WRITE:
            ops.append(memory_op("write", idx_w, "w_vin", members))
        elif kind == _KIND_C1:
            members, cpos = by_slot(idx_c1, "c1_vin", members)
            vins, vouts = slots("c1_vin", cpos), slots("c1_vout", cpos)
            ops.append(("c1", vins, vouts,
                        _values(ir.twiddles, ir.omega0_idx, members),
                        reduced_inputs(cpos, "c1_vin"),
                        in_place_view(vins, vouts)))
        elif kind == _KIND_C2:
            members, cpos = by_slot(idx_c2, "c2_pin", members)
            pins, sins = slots("c2_pin", cpos), slots("c2_sin", cpos)
            pouts, souts = slots("c2_pout", cpos), slots("c2_sout", cpos)
            view = (_pair_view(pins, sins) if np.array_equal(pins, pouts)
                    and np.array_equal(sins, souts) else None)
            ops.append(("c2", pins, sins, pouts, souts,
                        _values(ir.twiddles, ir.omega0_idx, members),
                        _values(ir.twiddles, ir.r_omega_idx, members),
                        bool(extra),
                        reduced_inputs(cpos, "c2_pin", "c2_sin"),
                        view))
        elif kind == _KIND_C1N:
            members, cpos = by_slot(idx_c1n, "c1n_vin", members)
            vins, vouts = slots("c1n_vin", cpos), slots("c1n_vout", cpos)
            ops.append(("c1n", vins, vouts,
                        _values(ir.zeta_rows, ir.zeta_idx, members),
                        bool(extra), reduced_inputs(cpos, "c1n_vin"),
                        in_place_view(vins, vouts)))
        else:  # param
            ops.append(("param", int(members[0])))

    stats["mode"] = "atom"
    stats["groups"] = len(ops)
    stats["depth"] = int(depth.max()) + 1 if len(depth) else 0
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

def _lane_plan(ir: StreamIR, arch: ArchParams, stats: dict):
    """Lane-granular renaming: buffer lanes and the CU scalar register
    rename individually, so scalar µ-op programs fuse into stacked lane
    copies and butterflies instead of executing per-command."""
    codes = ir.codes
    na = arch.words_per_atom
    bufs = ir.bufs
    lanes = ir.lanes
    rows = ir.rows
    cols = ir.cols

    idx_r = np.nonzero(codes == _CODE_CU_READ)[0]
    idx_w = np.nonzero(codes == _CODE_CU_WRITE)[0]
    idx_c1 = np.nonzero(codes == _CODE_C1)[0]
    idx_ld = np.nonzero(codes == _CODE_LOAD)[0]
    idx_bu = np.nonzero(codes == _CODE_BU)[0]
    idx_st = np.nonzero(codes == _CODE_STORE)[0]
    idx_p = np.nonzero(codes == _CODE_PARAM)[0]

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
    idx_q = np.sort(np.concatenate((idx_c1, idx_bu, idx_ld, idx_st)))
    hz_src, hz_dst = _storage_and_modulus_edges(ir, arch, idx_r, idx_w,
                                                idx_q, idx_p)
    src = np.concatenate((raw_src, hz_src))
    dst = np.concatenate((raw_dst, hz_dst))

    rel = np.sort(np.concatenate((idx_r, idx_w, idx_c1, idx_ld, idx_bu,
                                  idx_st, idx_p)))
    K_LREAD, K_LWRITE, K_LC1, K_LOAD, K_BU, K_STORE, K_PARAM = range(7)
    kinds = np.empty(len(rel), dtype=np.int64)
    for kind, idx in ((K_LREAD, idx_r), (K_LWRITE, idx_w), (K_LC1, idx_c1),
                      (K_LOAD, idx_ld), (K_BU, idx_bu), (K_STORE, idx_st),
                      (K_PARAM, idx_p)):
        kinds[np.searchsorted(rel, idx)] = kind
    extras = np.zeros(len(rel), dtype=np.int64)

    depth = _longest_path_levels(
        len(rel), np.searchsorted(rel, src), np.searchsorted(rel, dst))
    stats["edges"] = int(len(src))

    # Scatter vin back to original touch order, then slice the fixed
    # class-block layout into per-class views.
    t_vin = np.empty(T, dtype=np.int64)
    t_vin[uo] = u_vin
    o = 0
    r_vout2d = t_vid[o:o + nr * na].reshape(nr, na).astype(np.intp)
    o += nr * na
    w_vin2d = t_vin[o:o + nw * na].reshape(nw, na).astype(np.intp)
    o += nw * na
    c1_vin2d = t_vin[o:o + n1 * na].reshape(n1, na).astype(np.intp)
    c1_vout2d = t_vid[o:o + n1 * na].reshape(n1, na).astype(np.intp)
    o += n1 * na
    ld_lane_vin = t_vin[o:o + nl].astype(np.intp)
    o += nl
    ld_reg_vout = t_vid[o:o + nl].astype(np.intp)
    o += nl
    bu_lane_vin = t_vin[o:o + nb].astype(np.intp)
    bu_lane_vout = t_vid[o:o + nb].astype(np.intp)
    o += nb
    bu_reg_vin = t_vin[o:o + nb].astype(np.intp)
    bu_reg_vout = t_vid[o:o + nb].astype(np.intp)
    o += nb
    st_lane_vout = t_vid[o:o + ns].astype(np.intp)
    o += ns
    st_reg_vin = t_vin[o:o + ns].astype(np.intp)

    twiddles = ir.twiddles + (None,)  # an unchecked BU_SCALAR's -1: None
    ops = []
    for kind, _extra, members, _ in _assemble_groups(rel, depth, kinds,
                                                     extras):
        if kind == K_LREAD:
            cpos = np.searchsorted(idx_r, members)
            ops.append(("lread", rows[members].astype(np.intp),
                        cols[members].astype(np.intp), r_vout2d[cpos]))
        elif kind == K_LWRITE:
            cpos = np.searchsorted(idx_w, members)
            ops.append(("lwrite", rows[members].astype(np.intp),
                        cols[members].astype(np.intp), w_vin2d[cpos]))
        elif kind == K_LC1:
            cpos = np.searchsorted(idx_c1, members)
            ops.append(("lc1", c1_vin2d[cpos], c1_vout2d[cpos],
                        _values(twiddles, ir.omega0_idx, members)))
        elif kind == K_LOAD:
            cpos = np.searchsorted(idx_ld, members)
            ops.append(("load", ld_lane_vin[cpos], ld_reg_vout[cpos]))
        elif kind == K_BU:
            cpos = np.searchsorted(idx_bu, members)
            ops.append(("bu", bu_reg_vin[cpos], bu_lane_vin[cpos],
                        bu_reg_vout[cpos], bu_lane_vout[cpos],
                        _values(twiddles, ir.omega0_idx, members)))
        elif kind == K_STORE:
            cpos = np.searchsorted(idx_st, members)
            ops.append(("store", st_reg_vin[cpos], st_lane_vout[cpos]))
        else:  # param
            ops.append(("param", int(members[0])))

    stats["mode"] = "lane"
    stats["groups"] = len(ops)
    stats["depth"] = int(depth.max()) + 1 if len(depth) else 0
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
    reason, has_scalar = _validate(ir, arch)
    if reason is not None:
        return None, reason, stats
    plan, reason = (_lane_plan if has_scalar else _atom_plan)(ir, arch, stats)
    return plan, reason, stats
