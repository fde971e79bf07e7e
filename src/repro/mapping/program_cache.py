"""Memoized command-program generation.

A mapper's output is a deterministic artifact of ``(transform
parameters, geometry, PIM config, placement)``: running the same NTT
shape twice — every repetition of a batch, every bank of a multi-bank
round, every point of an experiment sweep that revisits a size —
regenerates an identical command list.  This module caches those
programs.

Cached programs are tuples of :class:`~repro.dram.commands.Command`
objects shared between consumers.  That is safe because nothing in the
simulator mutates a command after construction: the timing engine and
the functional bank only read fields, and the batch/multi-bank mergers
rewrite dependencies via ``dataclasses.replace`` (fresh copies).  Do not
mutate commands obtained from this cache.

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
from ..dram.commands import Command
from ..dram.timing import ArchParams
from ..ntt.negacyclic import NegacyclicParams
from ..pim.params import PimParams
from .mapper import MapperOptions, NttMapper
from .negacyclic_mapper import NegacyclicNttMapper
from .single_buffer import SingleBufferMapper

__all__ = ["CachedProgram", "cyclic_program", "negacyclic_program",
           "programs_recipe_key", "program_cache_info",
           "clear_program_cache"]

_MAX_ENTRIES = 512


@dataclass(frozen=True)
class CachedProgram:
    """One lowered NTT invocation, plus the mapper facts the driver needs.

    ``key`` is the program-cache key the program was generated under — a
    compact, exact stand-in for the command tuple's content (the program
    is a deterministic function of the key), which downstream caches
    (the schedule cache) use to avoid re-hashing thousands of commands
    per lookup.  ``None`` (e.g. a hand-built program) means "no compact
    key": consumers must fall back to structural keying, never share a
    sentinel.
    """

    commands: Tuple[Command, ...]
    result_base_row: int
    key: Optional[tuple] = None


_cache = ArtifactCache(_MAX_ENTRIES)


def programs_recipe_key(tag: str, programs, *extra) -> Optional[tuple]:
    """A merge-recipe cache key over component :class:`CachedProgram` keys.

    A merged command list (batch concat, multi-bank interleave) is a pure
    function of its component programs plus the merge rule, so
    ``(tag, component keys, rule parameters)`` is an exact — and cheap —
    stand-in for the merged content in the stream/schedule caches.
    ``None`` when any component lacks a compact key (consumers fall back
    to structural keying).
    """
    keys = tuple(p.key for p in programs)
    if any(k is None for k in keys):
        return None
    return (tag, keys) + extra


def cyclic_program(ntt: NttParams, arch: ArchParams, pim: PimParams,
                   base_row: int = 0, bank: int = 0,
                   options: MapperOptions = MapperOptions()) -> CachedProgram:
    """The command program of one cyclic NTT (Nb >= 2 row-centric mapping,
    or the Nb = 1 single-buffer mapping), memoized."""
    key = ("cyclic", ntt.n, ntt.q, ntt.omega, arch, pim, base_row, bank,
           options)

    def generate() -> CachedProgram:
        if pim.nb_buffers == 1:
            mapper = SingleBufferMapper(ntt, arch, pim, base_row, bank)
        else:
            mapper = NttMapper(ntt, arch, pim, base_row, bank,
                               options=options)
        return CachedProgram(tuple(mapper.generate()),
                             mapper.result_base_row, key)

    return _cache.get_or_create(key, generate)


def negacyclic_program(ring: NegacyclicParams, arch: ArchParams,
                       pim: PimParams, base_row: int = 0, bank: int = 0,
                       inverse: bool = False) -> CachedProgram:
    """The command program of one merged negacyclic transform, memoized."""
    key = ("negacyclic", ring.n, ring.q, ring.psi, arch, pim, base_row, bank,
           inverse)

    def generate() -> CachedProgram:
        mapper = NegacyclicNttMapper(ring, arch, pim, base_row, bank,
                                     inverse=inverse)
        return CachedProgram(tuple(mapper.generate()),
                             mapper.result_base_row, key)

    return _cache.get_or_create(key, generate)


def program_cache_info() -> Dict[str, int]:
    """Cache statistics (for benchmarks and diagnostics)."""
    return _cache.info()


def clear_program_cache() -> None:
    """Empty the cache and reset statistics (test isolation)."""
    _cache.clear()
