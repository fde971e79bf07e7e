"""Compiled command streams: the executable output of the compiler tier.

A command program is compiled **once** into a :class:`CommandStream` by
the pass-based IR compiler in :mod:`repro.compile` (program ->
:class:`~repro.compile.ir.StreamIR` -> renaming, depth-grouping,
lane-fusion and pooling passes -> this class):

* **Its IR** — the :class:`~repro.compile.ir.StreamIR`'s NumPy int64
  columns (ctype code, bank, row, col, buf/buf2/lane, fixed-width
  dependencies, twiddle/zeta indices into the program's tables).  These
  columns are the whole contract with the timing engine: its stream
  loop (:meth:`repro.dram.engine.TimingEngine.simulate_stream`) builds
  its inputs from them at call time, so a stream carries no copy or
  Python-list mirror of any column, and no per-command value.
* **A functional execution plan** — the renaming pass gives every
  buffer write a fresh virtual version (like register renaming in an
  OoO core), the grouping pass levels the hazard graph by longest-path
  depth, and the pooling pass lowers each level to macro-ops over one
  shared value pool.  All C1 commands of one butterfly-stage pass land
  in a single group and execute as **one** stacked
  :mod:`repro.arith.vector` call, lane-major on an ``(Na, banks, k)``
  transpose (C1N groups too); likewise C2 stages, and CU_READ/CU_WRITE
  bursts against the cell array.  Pool slots are allocated by
  liveness, so a group whose members form a (reshape, slice) view of
  the pool or the cells updates them in place through it; a group that
  matches none gathers and scatters by index.  ACT/PRE pairs are
  validated symbolically at compile time and disappear from the plan
  entirely.  Nb=1 scalar-µ-op programs fuse too, through the
  lane-granular renaming pass.

Programs the passes cannot prove safe (WR with host data, protocol
violations, rows left open at program end, missing twiddle payloads,
commands on more than one bank) compile with ``plan = None`` and
execute through the legacy per-command loop — the ground-truth path —
raising the same errors at the same commands.

Streams are what a bank runs, and only bank runs compile them: a
dispatch's one-bank streams (:func:`repro.sim.driver.compile_dispatch`,
the bank groups of :func:`repro.sim.driver.lookup_dispatch`) and
functional ``program`` runs.  They are cached under structural keys
(program-cache keys or merge recipes over them) plus the geometry, so a
batch's concatenated program compiles once per shape.  The timing
replay reads IR columns only (:func:`repro.sim.driver.cached_schedule`),
so a timing-only run compiles nothing, and a merged multi-bank program —
which has no plan: a plan models one bank — is never compiled into this
cache.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .._cache import ArtifactCache
from ..compile.plan import FunctionalPlan
from .commands import Command
from .timing import ArchParams

__all__ = ["CommandStream", "FunctionalPlan", "compile_stream",
           "cached_stream", "cached_streams", "stream_cache_info",
           "clear_stream_cache"]


class CommandStream:
    """One compiled program: its IR + optional functional plan.

    ``commands`` is lazy: mapper- and merge-built IRs hold columns only
    and materialize :class:`Command` objects if a per-command fallback
    path asks for them.
    """

    __slots__ = ("n", "ir", "plan", "fallback_reason", "pass_stats",
                 "fuse_cache")

    def __init__(self, ir, plan, fallback_reason, pass_stats=None):
        self.n = ir.n
        # The source IR: int64 columns (-1 encodes "field unused by this
        # command") and the twiddle/zeta tables they index, read directly
        # by the timing engine and the bank's row window.
        self.ir = ir
        # Functional plan (None: execute via the legacy per-command loop).
        self.plan: Optional[FunctionalPlan] = plan
        self.fallback_reason: Optional[str] = fallback_reason
        # The pass pipeline's statistics.
        self.pass_stats: dict = pass_stats or {}
        # Per-(op, modulus) twiddle-pack cache filled in by the executor.
        self.fuse_cache: dict = {}

    @property
    def commands(self) -> Tuple[Command, ...]:
        """The program as :class:`Command` objects (materialized from
        the IR columns on first access)."""
        return self.ir.materialize_commands()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (f"plan={len(self.plan.ops)} ops" if self.plan is not None
                 else f"fallback={self.fallback_reason!r}")
        return f"<CommandStream n={self.n} {state}>"


def compile_stream(commands, arch: ArchParams) -> CommandStream:
    """Compile a command program (a command sequence or view, or a
    prebuilt :class:`~repro.compile.ir.StreamIR`) into a stream."""
    # Lazy import: repro.compile sits above this module (it imports
    # CommandStream from here); the cycle resolves at call time.
    from ..compile.ir import as_ir
    from ..compile.lower import compile_ir

    return compile_ir(as_ir(commands), arch)


# -- stream cache --------------------------------------------------------------
# Keyed like the driver's schedule cache: a compact structural key
# (program-cache key or a merge recipe over such keys) when the caller
# has one, else the command tuple itself — plus the geometry the plan
# was validated against.  Thread-safe via the shared ArtifactCache
# (locked lookup/stats/eviction, compilation outside the lock, one
# canonical stream per key).

_MAX_STREAMS = 128
_stream_cache = ArtifactCache(_MAX_STREAMS)


def cached_stream(commands, arch: ArchParams, key=None) -> CommandStream:
    """Memoized :func:`compile_stream`.

    ``key`` is an exact stand-in for the command content (see
    :func:`repro.sim.driver.cached_schedule`); a batch's concatenated
    program hits the same entry via its merge-recipe key.

    ``commands`` may be anything :func:`compile_stream` takes, or a
    zero-argument callable producing one.  With a callable *and* a
    ``key``, a cache hit never builds the program at all — the batch
    merger passes its concat as the callable, so warm shapes skip the
    merge work entirely.
    """
    if callable(commands) and key is None:
        commands = commands()
    if key is not None:
        content_key = key
    else:
        from ..compile.ir import program_key
        content_key = program_key(commands)
    return _stream_cache.get_or_create(
        (content_key, arch),
        lambda: compile_stream(commands() if callable(commands)
                               else commands, arch))


def cached_streams() -> Tuple[CommandStream, ...]:
    """The streams the cache holds now (a snapshot, oldest first)."""
    return tuple(_stream_cache.values())


def stream_cache_info() -> Dict[str, int]:
    """Stream-cache statistics (mirrors the program/schedule caches)."""
    return _stream_cache.info()


def clear_stream_cache() -> None:
    """Empty the stream cache and reset statistics (test isolation)."""
    _stream_cache.clear()
