"""Compiled command streams: the executable output of the compiler tier.

A command program is compiled **once** into a :class:`CommandStream` by
the pass-based IR compiler in :mod:`repro.compile` (program ->
:class:`~repro.compile.ir.StreamIR` -> {renaming, depth-grouping,
lane-fusion, pooling, interleave} passes -> this class):

* **SoA columns** — NumPy int64 arrays for ctype code, bank, row, col,
  buf/buf2/lane, flat dependency ranges, plus side tables for the
  omega/zeta payloads.  The timing engine's stream loop
  (:meth:`repro.dram.engine.TimingEngine.simulate_stream`) walks
  pre-decoded Python-list mirrors of these columns — no enum dispatch,
  no attribute lookups, no per-command object construction.
* **A functional execution plan** — the renaming pass gives every
  buffer write a fresh virtual version (like register renaming in an
  OoO core), the grouping pass levels the hazard graph by longest-path
  depth, and the pooling pass lowers each level to macro-ops over one
  shared value pool.  All C1 commands of one butterfly-stage pass land
  in a single group and execute as **one** stacked
  :mod:`repro.arith.vector` call on a ``(k, Na)`` array; likewise
  C2/C1N stages and CU_READ/CU_WRITE bursts (fancy-indexed
  gathers/scatters straight against the cell array).  ACT/PRE pairs are
  validated symbolically at compile time and disappear from the plan
  entirely.  Nb=1 scalar-µ-op programs fuse too, through the
  lane-granular renaming pass.

Programs the passes cannot prove safe (WR with host data, protocol
violations, rows left open at program end, missing twiddle payloads)
compile with ``plan = None`` and execute through the legacy per-command
loop — the ground-truth path — raising the same errors at the same
commands.

Streams are cached under the same structural keys as the PR 2 schedule
cache (program-cache keys or merge recipes over them) plus the active
pass set, so merged batch/multibank programs compile once per shape.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .._cache import ArtifactCache
from ..compile.plan import FunctionalPlan
from .commands import Command
from .timing import ArchParams

__all__ = ["CommandStream", "FunctionalPlan", "compile_stream",
           "cached_stream", "stream_cache_info", "clear_stream_cache"]


class CommandStream:
    """One compiled program: SoA columns + optional functional plan.

    ``commands`` is lazy: streams built by the vectorized merge passes
    (interleave/concat) carry a provenance recipe in their ``ir`` and
    only materialize :class:`Command` objects if a legacy fallback path
    asks for them.
    """

    __slots__ = (
        "n", "codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
        "gs", "dep_start", "dep_end", "dep_flat", "omega0s", "r_omegas",
        "zetas", "codes_l", "cats_l", "banks_l", "rows_l", "write_like_l",
        "deps_l", "bank_ids", "nbanks", "plan", "fallback_reason", "ir",
        "pass_stats", "fuse_cache",
    )

    def __init__(self, *, n, codes, banks, rows, cols, bufs, buf2s, lanes,
                 gs, dep_start, dep_end, dep_flat, omega0s, r_omegas,
                 zetas, codes_l, cats_l, banks_l, rows_l, write_like_l,
                 deps_l, bank_ids, nbanks, plan, fallback_reason, ir=None,
                 pass_stats=None):
        self.n = n
        # SoA columns (int64; -1 encodes "field unused by this command").
        self.codes = codes
        self.banks = banks
        self.rows = rows
        self.cols = cols
        self.bufs = bufs
        self.buf2s = buf2s
        self.lanes = lanes
        self.gs = gs
        self.dep_start = dep_start
        self.dep_end = dep_end
        self.dep_flat = dep_flat
        # Payload side tables (Python ints can exceed int64).
        self.omega0s = omega0s
        self.r_omegas = r_omegas
        self.zetas = zetas
        # Hot-loop mirrors: plain Python lists index faster than ndarrays.
        self.codes_l = codes_l
        self.cats_l = cats_l
        self.banks_l = banks_l          # compact 0..nbanks-1 indices
        self.rows_l = rows_l
        self.write_like_l = write_like_l
        self.deps_l = deps_l
        self.bank_ids = bank_ids
        self.nbanks = nbanks
        # Functional plan (None: execute via the legacy per-command loop).
        self.plan: Optional[FunctionalPlan] = plan
        self.fallback_reason: Optional[str] = fallback_reason
        # The source IR and the pass pipeline's statistics.
        self.ir = ir
        self.pass_stats: dict = pass_stats or {}
        # Per-(op, modulus) twiddle-pack cache filled in by the executor.
        self.fuse_cache: dict = {}

    @property
    def commands(self) -> Tuple[Command, ...]:
        """The program as :class:`Command` objects (materialized lazily
        for merge-built streams)."""
        return self.ir.materialize_commands()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"plan={len(self.plan.ops)} ops" if self.plan is not None
                 else f"fallback={self.fallback_reason!r}")
        return f"<CommandStream n={self.n} banks={self.nbanks} {state}>"


def compile_stream(commands, arch: ArchParams,
                   passes=None) -> CommandStream:
    """Compile a command program (or a prebuilt
    :class:`~repro.compile.ir.StreamIR`) into an executable stream.

    ``passes`` selects the optimization passes to run (``None`` = all;
    see :data:`repro.compile.PASS_NAMES`) — every subset produces a
    bit-identical execution, only the fusion shape changes.
    """
    # Lazy import: repro.compile sits above this module (it imports
    # CommandStream from here); the cycle resolves at call time.
    from ..compile.ir import StreamIR
    from ..compile.lower import compile_ir

    ir = (commands if isinstance(commands, StreamIR)
          else StreamIR.from_commands(commands))
    return compile_ir(ir, arch, passes)


# -- stream cache --------------------------------------------------------------
# Keyed exactly like the driver's schedule cache: a compact structural
# key (program-cache key or a merge recipe over such keys) when the
# caller has one, else the command tuple itself — plus the geometry the
# plan was validated against and the active pass set.  Thread-safe via
# the shared ArtifactCache (locked lookup/stats/eviction, compilation
# outside the lock, one canonical stream per key).

_MAX_STREAMS = 128
_stream_cache = ArtifactCache(_MAX_STREAMS)


def cached_stream(commands, arch: ArchParams, key=None,
                  passes=None) -> CommandStream:
    """Memoized :func:`compile_stream`.

    ``key`` is an exact stand-in for the command content (see
    :func:`repro.sim.driver.cached_schedule`); merged batch/multibank
    programs hit the same entries via their merge-recipe keys.

    ``commands`` may be a command sequence, a prebuilt
    :class:`~repro.compile.ir.StreamIR`, or a zero-argument callable
    producing either.  With a callable *and* a ``key``, a cache hit
    never materializes the program at all — the batch/multi-bank
    mergers pass their merge as the callable, so warm shapes skip the
    merge work entirely.
    """
    from ..compile.passes import normalize_passes

    pass_tag = tuple(sorted(normalize_passes(passes)))
    if callable(commands) and key is None:
        commands = commands()
    if key is not None:
        content_key = key
    else:
        from ..compile.ir import StreamIR
        content_key = (tuple(commands.materialize_commands())
                       if isinstance(commands, StreamIR)
                       else tuple(commands))
    cache_key = (content_key, arch, pass_tag)
    return _stream_cache.get_or_create(
        cache_key,
        lambda: compile_stream(commands() if callable(commands)
                               else commands, arch, passes=pass_tag))


def stream_cache_info() -> Dict[str, int]:
    """Stream-cache statistics (mirrors the program/schedule caches)."""
    return _stream_cache.info()


def clear_stream_cache() -> None:
    """Empty the stream cache and reset statistics (test isolation)."""
    _stream_cache.clear()
