"""Memoized command-program generation.

A mapper's output is a deterministic artifact of ``(transform
parameters, geometry, PIM config, base row)``, the key this module
caches programs under: every repetition of a batch, every point of an
experiment sweep that revisits a size reuses one.  No key names a bank:
one program (every command on bank 0) serves every bank of a dispatch,
and the bus interleave (:func:`repro.compile.lower.interleave_irs`)
puts program ``k`` of a merge on bank ``k``.

Cached programs are the :class:`~repro.compile.ir.StreamIR` columns the
mapper emitted, shared between consumers: nothing mutates an IR after
construction (the merges build new ones).  ``CachedProgram.commands``
materializes :class:`~repro.dram.commands.Command` objects once, for
the per-command reference paths only.

The cache is thread-safe via the shared :class:`repro._cache.ArtifactCache`
(locked lookup/statistics/eviction, generation outside the lock, one
canonical entry per key), so concurrent callers cannot corrupt
statistics or race the eviction scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .._cache import ArtifactCache

from ..arith.roots import NttParams
from ..compile.ir import CommandView, StreamIR
from ..dram.timing import ArchParams
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .mapper import MapperOptions, NegacyclicNttMapper, NttMapper
from .single_buffer import SingleBufferMapper

__all__ = ["CachedProgram", "cyclic_program", "negacyclic_program",
           "cached_programs", "program_cache_info", "clear_program_cache"]

_MAX_ENTRIES = 512


@dataclass(frozen=True)
class CachedProgram:
    """One lowered NTT invocation, plus the mapper facts the driver needs.

    ``base_row`` is the row the host lays the input out from;
    ``result_base_row`` is where the natural-order result lands.
    ``key`` is the program-cache key the program was generated under — a
    compact, exact stand-in for the program's content (the program is a
    deterministic function of the key), which downstream caches (the
    stream and schedule caches) use to avoid hashing thousands of
    commands per lookup.  ``None`` (e.g. a hand-built program) means "no
    compact key": consumers must fall back to structural keying, never
    share a sentinel.
    """

    ir: StreamIR
    base_row: int
    result_base_row: int
    key: Optional[tuple] = None

    @property
    def commands(self) -> CommandView:
        """The program as a lazy, read-only :class:`Command` sequence
        (``len`` is free; elements materialize once, on first access)."""
        return CommandView(self.ir)


_cache = ArtifactCache(_MAX_ENTRIES)


def cyclic_program(ntt: NttParams, arch: ArchParams, pim: PimParams,
                   base_row: int = 0,
                   options: MapperOptions = MapperOptions()) -> CachedProgram:
    """The command program of one cyclic NTT (Nb >= 2 row-centric mapping,
    or the Nb = 1 single-buffer mapping), memoized."""
    key = ("cyclic", ntt.n, ntt.q, ntt.omega, arch, pim, base_row, options)

    def generate() -> CachedProgram:
        if pim.nb_buffers == 1:
            mapper = SingleBufferMapper(ntt, arch, pim, base_row)
        else:
            mapper = NttMapper(ntt, arch, pim, base_row, options=options)
        return CachedProgram(mapper.build(), base_row,
                             mapper.result_base_row, key)

    return _cache.get_or_create(key, generate)


def negacyclic_program(ring: NegacyclicParams, arch: ArchParams,
                       pim: PimParams, base_row: int = 0,
                       inverse: bool = False) -> CachedProgram:
    """The command program of one merged negacyclic transform, memoized."""
    key = ("negacyclic", ring.n, ring.q, ring.psi, arch, pim, base_row,
           inverse)

    def generate() -> CachedProgram:
        mapper = NegacyclicNttMapper(ring, arch, pim, base_row,
                                     inverse=inverse)
        return CachedProgram(mapper.build(), base_row,
                             mapper.result_base_row, key)

    return _cache.get_or_create(key, generate)


def cached_programs() -> Tuple[CachedProgram, ...]:
    """The programs the cache holds now (a snapshot, oldest first)."""
    return tuple(_cache.values())


def program_cache_info() -> Dict[str, int]:
    """Cache statistics (for benchmarks and diagnostics)."""
    return _cache.info()


def clear_program_cache() -> None:
    """Empty the cache and reset statistics (test isolation)."""
    _cache.clear()
