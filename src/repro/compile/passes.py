"""Vectorized compiler passes over the :class:`~repro.compile.ir.StreamIR`.

The pipeline replaces the old per-command ``_build_plan`` Python loop
with NumPy computations over the SoA columns:

* **validate** (always on) — symbolic open-row protocol, address
  bounds and payload checks, reporting the *first* violating command
  with the same fallback reason the legacy loop produced.
* **rename** — buffer renaming: every buffer write allocates a fresh
  virtual version (register renaming), erasing WAR/WAW hazards so
  whole stages fuse.  Toggled off, the program executes through the
  legacy per-command loop.
* **group** — dependency-depth grouping: longest-path levels over the
  vectorized hazard-edge graph (atom RAW/WAR/WAW chains, buffer-version
  RAW chains, modulus-register chains), computed by a frontier Kahn
  sweep.  Toggled off, every command becomes its own single-member
  group in program order (renaming and pooling still apply).
* **lane_fuse** — lane-granular renaming for programs with scalar
  µ-ops (the Nb=1 single-buffer mapping): buffer *lanes* and the CU's
  scalar register rename individually, LOAD/BU/STORE_SCALAR group into
  stacked lane copies and butterflies instead of forcing the whole
  program onto the per-command path.
* **pool** — group-result pooling: plan ops carry ``np.intp`` index
  arrays into one shared ``(n_virtual, Na)`` value pool, so the
  executor gathers/scatters entire groups without the per-row
  ``np.stack``.  Toggled off, ops keep the legacy list-of-versions
  payloads (and scalar-µ-op programs fall back, as lane fusion builds
  pooled plans only).

Every pass combination is bit-identical to the legacy engine — the
levels need not match the historical depth assignment command for
command, because any topological leveling executes the same data flow;
the equivalence tests assert values, µ-op counters and energy against
:meth:`repro.pim.bank_pim.PimBank.run`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..dram.commands import CODE_CTYPES, CTYPE_CODES, CommandType
from ..dram.timing import ArchParams
from .ir import StreamIR
from .plan import FunctionalPlan

__all__ = ["PASS_NAMES", "DEFAULT_PASSES", "normalize_passes", "build_plan"]

#: Every toggleable pass, in pipeline order.
PASS_NAMES: Tuple[str, ...] = ("rename", "group", "lane_fuse", "pool",
                               "interleave")
DEFAULT_PASSES: frozenset = frozenset(PASS_NAMES)

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
_IS_SCALAR = np.array([ct in (CommandType.LOAD_SCALAR,
                              CommandType.BU_SCALAR,
                              CommandType.STORE_SCALAR)
                       for ct in CODE_CTYPES], dtype=np.bool_)


def normalize_passes(passes) -> frozenset:
    """``None`` -> all passes; else validate an iterable of pass names."""
    if passes is None:
        return DEFAULT_PASSES
    if isinstance(passes, str):
        passes = (passes,) if passes else ()
    names = frozenset(passes)
    unknown = names - DEFAULT_PASSES
    if unknown:
        raise ValueError(
            f"unknown compiler pass(es) {sorted(unknown)}; "
            f"choose from {list(PASS_NAMES)}")
    return names


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

class _Validated:
    """Side results of validation the later passes reuse."""

    __slots__ = ("depth_before", "act_positions", "has_scalar")

    def __init__(self, depth_before, act_positions, has_scalar):
        self.depth_before = depth_before
        self.act_positions = act_positions
        self.has_scalar = has_scalar


def _validate(ir: StreamIR, arch: ArchParams, passes: frozenset):
    """Vectorized symbolic validation.

    Returns ``(reason, validated)`` — ``reason`` is the legacy fallback
    string for the first violating command (None when the program is
    provable), ``validated`` carries the open-row bookkeeping onward.
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

    rule((codes == _CODE_C1) & ~ir.has_omega0, 2,
         lambda i: f"cmd {i}: C1 without omega0")
    rule((codes == _CODE_C2) & ~(ir.has_omega0 & ir.has_r_omega), 2,
         lambda i: f"cmd {i}: C2 without its twiddle pair")
    zetas_per_atom = arch.words_per_atom - 1
    rule((codes == _CODE_C1N) & (ir.zeta_lens != zetas_per_atom), 2,
         lambda i: (f"cmd {i}: C1N carries {ir.zeta_lens[i]} zetas, "
                    f"needs {zetas_per_atom}"))

    if has_scalar:
        lane_fusable = ("lane_fuse" in passes and "pool" in passes
                        and not bool(((codes == _CODE_C2)
                                      | (codes == _CODE_C1N)).any()))
        if not lane_fusable:
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
        return hit[2](hit[0]), None
    if n and depth_after[-1] != 0:
        return (f"program ends with row "
                f"{int(rows[act_positions[-1]])} open"), None
    return None, _Validated(depth_before, act_positions, has_scalar)


# -- whole-atom plan (the Nb >= 2 shape) ---------------------------------------

def _atom_edges_and_versions(ir, arch, idx_r, idx_w, idx_c1, idx_c2,
                             idx_c1n, idx_p):
    """Buffer renaming + hazard-edge construction, fully vectorized.

    Returns ``(edges_src, edges_dst, versions)`` where ``versions``
    bundles per-class vin/vout arrays, init/final version lists and the
    virtual count.
    """
    bufs = ir.bufs
    rows = ir.rows
    cols = ir.cols

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
                (buf, int(b_vid[lw]) if lw >= 0 else init_lookup[buf]))

    # RAW buffer edges (renaming erases buffer WAR/WAW).
    raw_src = b_cmd[prevw[res]]
    raw_dst = b_cmd[res]

    # Scatter vin back to original touch order for per-class slices.
    t_vin = np.empty(T, dtype=np.int64)
    t_vin[bo] = b_vin

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
    }

    # Atom (storage) hazard chains among CU_READ / CU_WRITE.
    sel = np.concatenate((idx_r, idx_w))
    iswr = np.concatenate((np.zeros(nr, np.bool_), np.ones(nw, np.bool_)))
    atom = rows[sel] * arch.columns_per_row + cols[sel]
    ao = np.lexsort((sel, atom))
    a_cmd, a_atom, a_w = sel[ao], atom[ao], iswr[ao]
    a_prevw = _prev_write(a_w, a_atom)
    a_nextw = _next_write(a_w, a_atom)
    chained = a_prevw >= 0          # RAW (reads) and WAW (writes)
    war = ~a_w & (a_nextw >= 0)     # read -> next write
    atom_src = np.concatenate((a_cmd[a_prevw[chained]], a_cmd[war]))
    atom_dst = np.concatenate((a_cmd[chained], a_cmd[a_nextw[war]]))

    # Modulus-register chains: computes RAW/WAR against PARAM_WRITE,
    # PARAM_WRITE WAW against itself.
    idx_c = np.sort(np.concatenate((idx_c1, idx_c2, idx_c1n)))
    before = np.searchsorted(idx_p, idx_c)
    has_prev = before > 0
    has_next = before < len(idx_p)
    q_src = np.concatenate((idx_p[before[has_prev] - 1], idx_c[has_next],
                            idx_p[:-1]))
    q_dst = np.concatenate((idx_c[has_prev], idx_p[before[has_next]],
                            idx_p[1:]))

    src = np.concatenate((raw_src, atom_src, q_src))
    dst = np.concatenate((raw_dst, atom_dst, q_dst))
    return src, dst, versions


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


def _atom_plan(ir: StreamIR, arch: ArchParams, passes: frozenset,
               stats: dict):
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

    rel = np.sort(np.concatenate((idx_r, idx_w, idx_c1, idx_c2,
                                  idx_c1n, idx_p)))
    kinds = np.empty(len(rel), dtype=np.int64)
    pos_of = {  # class -> positions of its members within `rel`
        _KIND_READ: np.searchsorted(rel, idx_r),
        _KIND_WRITE: np.searchsorted(rel, idx_w),
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

    if "group" in passes:
        compact_src = np.searchsorted(rel, src)
        compact_dst = np.searchsorted(rel, dst)
        depth = _longest_path_levels(len(rel), compact_src, compact_dst)
        stats["edges"] = int(len(src))
    else:
        depth = np.arange(len(rel), dtype=np.int64)
        stats["edges"] = 0

    pooled = "pool" in passes
    rows = ir.rows
    cols = ir.cols
    omega0s = ir.omega0s
    r_omegas = ir.r_omegas
    zetas = ir.zetas

    def members_tuple(table, members):
        return tuple(map(table.__getitem__, members.tolist()))

    ops = []
    for kind, extra, members, _ in _assemble_groups(rel, depth, kinds,
                                                    extras):
        if kind == _KIND_READ:
            cpos = np.searchsorted(idx_r, members)
            vouts = versions["r_vout"][cpos]
            ops.append(("read", rows[members].astype(np.intp),
                        cols[members].astype(np.intp),
                        vouts.astype(np.intp) if pooled
                        else vouts.tolist()))
        elif kind == _KIND_WRITE:
            cpos = np.searchsorted(idx_w, members)
            vins = versions["w_vin"][cpos]
            ops.append(("write", rows[members].astype(np.intp),
                        cols[members].astype(np.intp),
                        vins.astype(np.intp) if pooled else vins.tolist()))
        elif kind == _KIND_C1:
            cpos = np.searchsorted(idx_c1, members)
            vins = versions["c1_vin"][cpos]
            vouts = versions["c1_vout"][cpos]
            ops.append(("c1",
                        vins.astype(np.intp) if pooled else vins.tolist(),
                        vouts.astype(np.intp) if pooled else vouts.tolist(),
                        members_tuple(omega0s, members)))
        elif kind == _KIND_C2:
            cpos = np.searchsorted(idx_c2, members)
            pins = versions["c2_pin"][cpos]
            sins = versions["c2_sin"][cpos]
            pouts = versions["c2_pout"][cpos]
            souts = versions["c2_sout"][cpos]
            if pooled:
                pins, sins = pins.astype(np.intp), sins.astype(np.intp)
                pouts, souts = pouts.astype(np.intp), souts.astype(np.intp)
            else:
                pins, sins = pins.tolist(), sins.tolist()
                pouts, souts = pouts.tolist(), souts.tolist()
            ops.append(("c2", pins, sins, pouts, souts,
                        members_tuple(omega0s, members),
                        members_tuple(r_omegas, members), bool(extra)))
        elif kind == _KIND_C1N:
            cpos = np.searchsorted(idx_c1n, members)
            vins = versions["c1n_vin"][cpos]
            vouts = versions["c1n_vout"][cpos]
            ops.append(("c1n",
                        vins.astype(np.intp) if pooled else vins.tolist(),
                        vouts.astype(np.intp) if pooled else vouts.tolist(),
                        members_tuple(zetas, members), bool(extra)))
        else:  # param
            ops.append(("param", int(members[0])))

    stats["mode"] = "atom"
    stats["groups"] = len(ops)
    stats["depth"] = int(depth.max()) + 1 if len(depth) else 0
    stats["n_virtual"] = versions["n_virtual"]
    plan = FunctionalPlan(
        ops=ops,
        n_virtual=versions["n_virtual"],
        init_versions=versions["init_versions"],
        final_versions=versions["final_versions"],
        has_param=bool(len(idx_p)),
        max_buffer=versions["max_buffer"],
        mode="atom",
        pooled=pooled,
    )
    return plan, None


# -- lane-granular plan (the Nb=1 scalar-µ-op shape) ---------------------------

def _lane_plan(ir: StreamIR, arch: ArchParams, passes: frozenset,
               stats: dict):
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

    # Atom chains (CU_READ / CU_WRITE), exactly as in atom mode.
    sel = np.concatenate((idx_r, idx_w))
    iswr = np.concatenate((np.zeros(nr, np.bool_), np.ones(nw, np.bool_)))
    atom = rows[sel] * arch.columns_per_row + cols[sel]
    ao = np.lexsort((sel, atom))
    a_cmd, a_atom, a_w = sel[ao], atom[ao], iswr[ao]
    a_prevw = _prev_write(a_w, a_atom)
    a_nextw = _next_write(a_w, a_atom)
    chained = a_prevw >= 0
    war = ~a_w & (a_nextw >= 0)
    atom_src = np.concatenate((a_cmd[a_prevw[chained]], a_cmd[war]))
    atom_dst = np.concatenate((a_cmd[chained], a_cmd[a_nextw[war]]))

    # Modulus chains: C1, BU and LOAD consume q's value; STORE needs it
    # latched.  All four order against PARAM_WRITE both ways.
    idx_q = np.sort(np.concatenate((idx_c1, idx_bu, idx_ld, idx_st)))
    before = np.searchsorted(idx_p, idx_q)
    has_prev = before > 0
    has_next = before < len(idx_p)
    q_src = np.concatenate((idx_p[before[has_prev] - 1], idx_q[has_next],
                            idx_p[:-1]))
    q_dst = np.concatenate((idx_q[has_prev], idx_p[before[has_next]],
                            idx_p[1:]))

    src = np.concatenate((raw_src, atom_src, q_src))
    dst = np.concatenate((raw_dst, atom_dst, q_dst))

    rel = np.sort(np.concatenate((idx_r, idx_w, idx_c1, idx_ld, idx_bu,
                                  idx_st, idx_p)))
    K_LREAD, K_LWRITE, K_LC1, K_LOAD, K_BU, K_STORE, K_PARAM = range(7)
    kinds = np.empty(len(rel), dtype=np.int64)
    for kind, idx in ((K_LREAD, idx_r), (K_LWRITE, idx_w), (K_LC1, idx_c1),
                      (K_LOAD, idx_ld), (K_BU, idx_bu), (K_STORE, idx_st),
                      (K_PARAM, idx_p)):
        kinds[np.searchsorted(rel, idx)] = kind
    extras = np.zeros(len(rel), dtype=np.int64)

    if "group" in passes:
        depth = _longest_path_levels(
            len(rel), np.searchsorted(rel, src), np.searchsorted(rel, dst))
        stats["edges"] = int(len(src))
    else:
        depth = np.arange(len(rel), dtype=np.int64)
        stats["edges"] = 0

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

    omega0s = ir.omega0s

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
                        tuple(map(omega0s.__getitem__, members.tolist()))))
        elif kind == K_LOAD:
            cpos = np.searchsorted(idx_ld, members)
            ops.append(("load", ld_lane_vin[cpos], ld_reg_vout[cpos]))
        elif kind == K_BU:
            cpos = np.searchsorted(idx_bu, members)
            ops.append(("bu", bu_reg_vin[cpos], bu_lane_vin[cpos],
                        bu_reg_vout[cpos], bu_lane_vout[cpos],
                        tuple(map(omega0s.__getitem__, members.tolist()))))
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
        pooled=True,
        lane_init=tuple((int(buf), int(init_base + i * na))
                        for i, buf in enumerate(touched_bufs)),
        lane_final=tuple((int(buf), lane_final[i])
                         for i, buf in enumerate(touched_bufs)),
        reg_init=reg_init,
        reg_final=reg_final,
    )
    return plan, None


# -- entry ---------------------------------------------------------------------

def build_plan(ir: StreamIR, arch: ArchParams, passes=None):
    """Run the pass pipeline over one IR.

    Returns ``(plan, fallback_reason, stats)`` — exactly one of the
    first two is set.
    """
    passes = normalize_passes(passes)
    stats: dict = {"passes": tuple(sorted(passes))}
    if "rename" not in passes:
        return None, "buffer-renaming pass disabled", stats
    reason, validated = _validate(ir, arch, passes)
    if reason is not None:
        return None, reason, stats
    if validated.has_scalar:
        plan, reason = _lane_plan(ir, arch, passes, stats)
    else:
        plan, reason = _atom_plan(ir, arch, passes, stats)
    return plan, reason, stats
