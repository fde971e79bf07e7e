"""Bit-reversal permutation.

The paper assumes bit reversal is performed by software on the CPU
(Sec. II.B), so the PIM input is stored bit-reversed and the transform
produces natural order.  These helpers are that software step.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple, TypeVar

import numpy as np

T = TypeVar("T")

__all__ = ["bit_reverse", "bit_reverse_indices", "bit_reverse_permute", "is_power_of_two"]


def is_power_of_two(n: int) -> bool:
    """True for 1, 2, 4, 8, ..."""
    return n > 0 and n & (n - 1) == 0


def bit_reverse(value: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``value``."""
    if bits < 0:
        raise ValueError(f"bit width must be non-negative, got {bits}")
    if value < 0 or value >= (1 << bits):
        raise ValueError(f"value {value} does not fit in {bits} bits")
    out = 0
    for _ in range(bits):
        out = (out << 1) | (value & 1)
        value >>= 1
    return out


@lru_cache(maxsize=64)
def _indices(n: int) -> Tuple[int, ...]:
    if not is_power_of_two(n):
        raise ValueError(f"length must be a power of two, got {n}")
    bits = n.bit_length() - 1
    return tuple(bit_reverse(i, bits) for i in range(n))


def bit_reverse_indices(n: int) -> List[int]:
    """The permutation table ``i -> bit_reverse(i, log2 n)`` (memoized
    internally — every transform of size ``n`` uses the same table)."""
    return list(_indices(n))


@lru_cache(maxsize=64)
def _gather_index(n: int):
    index = np.array(_indices(n), dtype=np.intp)
    index.setflags(write=False)
    return index


def bit_reverse_permute(values: Sequence[T]) -> List[T]:
    """Return ``values`` reordered by bit-reversed index (an involution).

    A NumPy array is permuted along its last axis by one cached index
    gather, so a whole ``(..., N)`` stack reverses in one call."""
    if isinstance(values, np.ndarray):
        return values[..., _gather_index(values.shape[-1])]
    table = _indices(len(values))
    return [values[i] for i in table]
