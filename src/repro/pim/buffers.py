"""Atom buffer file: the GSA (primary) plus secondary atom buffers.

Each buffer holds exactly one DRAM atom (Na words).  Buffer 0 is the
primary atom buffer — the global sense amplifiers that every DRAM bank
already has; buffers 1..Nb-1 are the paper's added SRAM secondary
buffers (6T cells + complementary-signal inverters, Sec. IV.A).
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import MappingError

__all__ = ["AtomBufferFile", "PRIMARY_BUFFER"]

#: Index of the primary atom buffer (the GSA).
PRIMARY_BUFFER = 0


class AtomBufferFile:
    """``count`` single-atom buffers of ``atom_words`` words each."""

    def __init__(self, count: int, atom_words: int):
        if count < 1:
            raise ValueError("need at least the primary buffer")
        if atom_words < 1:
            raise ValueError("atom width must be positive")
        self.count = count
        self.atom_words = atom_words
        self._data: List[List[int]] = [[0] * atom_words for _ in range(count)]

    def _check(self, index: int) -> None:
        if not 0 <= index < self.count:
            raise MappingError(
                f"buffer {index} out of range (Nb={self.count})")

    def read(self, index: int) -> List[int]:
        """Copy out one buffer's contents as Python ints."""
        self._check(index)
        data = self._data[index]
        if isinstance(data, np.ndarray):
            return data.tolist()
        return list(data)

    def write(self, index: int, words: List[int]) -> None:
        """Replace one buffer's contents."""
        self._check(index)
        if len(words) != self.atom_words:
            raise MappingError(
                f"buffer write needs {self.atom_words} words, got {len(words)}")
        self._data[index] = list(words)

    def peek_array(self, index: int) -> np.ndarray:
        """Borrow a buffer's contents as a uint64 array *without copying*
        — how the compiled-plan executors seed their version pools.

        The caller must not mutate it (the executors copy it into their
        pool before any kernel runs).
        """
        self._check(index)
        data = self._data[index]
        if isinstance(data, np.ndarray):
            return data
        return np.array(data, dtype=np.uint64)

    def write_array(self, index: int, words: np.ndarray) -> None:
        """Array form of :meth:`write`; takes ownership of ``words``
        (callers pass fresh arrays, never views into live storage).  A
        bank stack writes ``(*stack, Na)`` — one atom per bank."""
        self._check(index)
        if words.shape[-1] != self.atom_words:
            raise MappingError(f"buffer write needs {self.atom_words} words, "
                               f"got {words.shape[-1]}")
        self._data[index] = words

    def read_lane(self, index: int, lane: int) -> int:
        """One word out of a buffer (scalar load µ-op path)."""
        self._check(index)
        if not 0 <= lane < self.atom_words:
            raise MappingError(f"lane {lane} out of range")
        return int(self._data[index][lane])

    def write_lane(self, index: int, lane: int, value: int) -> None:
        """One word into a buffer (scalar store µ-op path)."""
        self._check(index)
        if not 0 <= lane < self.atom_words:
            raise MappingError(f"lane {lane} out of range")
        self._data[index][lane] = value
