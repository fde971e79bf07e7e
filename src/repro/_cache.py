"""The shared thread-safe keyed-artifact cache.

One implementation behind the four deterministic-artifact caches —
mapper programs (:mod:`repro.mapping.program_cache`), compiled command
streams (:mod:`repro.dram.stream`), timing schedules
(:mod:`repro.sim.driver`) and Freivalds check material
(:mod:`repro.arith.vector`) — so the concurrency-sensitive part lives
in exactly one place.

The contract every consumer relies on:

* Lookups, hit/miss counters, eviction and insertion run under the
  cache's lock; artifact *generation* runs outside it (generation is
  pure and may be slow — holding the lock would serialize concurrent
  callers).
* Two threads missing on the same key may both generate, but the first
  published entry wins and every caller observes that one canonical
  object (``get_or_create`` returns it), so identity-based sharing
  holds.
* ``hits + misses`` equals the number of lookups — no lost counter
  updates.
* Past ``max_entries``, the oldest quarter (insertion order) is
  evicted: artifacts are cheap to regenerate; the cap only bounds
  memory during huge sweeps.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Optional

__all__ = ["ArtifactCache"]


class ArtifactCache:
    """Bounded, thread-safe, statistics-keeping mapping of structural
    keys to immutable artifacts."""

    def __init__(self, max_entries: int):
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._data: dict = {}
        self._hits = 0
        self._misses = 0

    def lookup(self, key) -> Optional[object]:
        """One counted lookup: the cached artifact, or ``None`` on miss."""
        with self._lock:
            hit = self._data.get(key)
            if hit is not None:
                self._hits += 1
            else:
                self._misses += 1
            return hit

    def publish(self, key, value):
        """Insert ``value`` unless a concurrent generator beat us to it;
        returns the canonical entry either way."""
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                return existing
            if len(self._data) >= self.max_entries:
                evict = max(1, self.max_entries // 4)
                for stale in list(self._data)[:evict]:
                    del self._data[stale]
            self._data[key] = value
            return value

    def get_or_create(self, key, factory: Callable[[], object]):
        """``lookup``, else generate outside the lock and ``publish``."""
        hit = self.lookup(key)
        if hit is not None:
            return hit
        return self.publish(key, factory())

    def values(self) -> list:
        """The cached artifacts, oldest first (a snapshot; uncounted)."""
        with self._lock:
            return list(self._data.values())

    def info(self) -> Dict[str, int]:
        """Statistics in the shape every ``*_cache_info`` reports."""
        with self._lock:
            return {"entries": len(self._data), "hits": self._hits,
                    "misses": self._misses}

    def clear(self) -> None:
        """Empty the cache and reset statistics (test isolation)."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
