"""NTT-friendly prime generation and primality testing.

An NTT of length ``N`` over ``Z_q`` requires a primitive ``N``-th root of
unity, which exists iff ``N | q - 1``.  Negacyclic NTTs (the FHE ring
``Z_q[X]/(X^N + 1)``) need ``2N | q - 1``.  This module finds such primes
deterministically and provides a Miller-Rabin test that is exact for all
inputs below 3.3 * 10^24 and overwhelmingly reliable above.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

__all__ = [
    "is_prime",
    "find_ntt_prime",
    "ntt_prime_candidates",
    "DEFAULT_PRIME_32",
    "DEFAULT_PRIME_14",
    "DEFAULT_PRIME_16",
]

# Deterministic Miller-Rabin witness sets (Sinclair / Jaeschke bounds).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97,
)


@lru_cache(maxsize=1024)
def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic for ``n < 3.3e24``.

    Memoized: every :class:`~repro.arith.roots.NttParams` construction
    tests its modulus, and a run builds many for the same few moduli.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(n: int, bits: int, negacyclic: bool = False) -> int:
    """Return the largest prime ``q < 2**bits`` with ``q ≡ 1 (mod order)``.

    ``order`` is ``n`` for a cyclic NTT and ``2n`` for a negacyclic one.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"NTT length must be a power of two >= 2, got {n}")
    order = 2 * n if negacyclic else n
    if bits <= order.bit_length():
        raise ValueError(f"{bits}-bit primes cannot satisfy q ≡ 1 mod {order}")
    # Largest k with k*order + 1 < 2**bits, scanning downward.
    k = ((1 << bits) - 2) // order
    while k > 0:
        q = k * order + 1
        if is_prime(q):
            return q
        k -= 1
    raise ValueError(f"no {bits}-bit prime with q ≡ 1 mod {order}")


def ntt_prime_candidates(n: int, bits: int, count: int,
                         negacyclic: bool = False) -> List[int]:
    """Return up to ``count`` distinct NTT-friendly primes below ``2**bits``.

    Used by the RNS layer of the FHE example, which needs a chain of
    coprime moduli all supporting the same transform length.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    order = 2 * n if negacyclic else n
    out: List[int] = []
    k = ((1 << bits) - 2) // order
    while k > 0 and len(out) < count:
        q = k * order + 1
        if is_prime(q):
            out.append(q)
        k -= 1
    if len(out) < count:
        raise ValueError(
            f"only found {len(out)} of {count} primes ≡ 1 mod {order} below 2^{bits}")
    return out


#: The classic 32-bit NTT prime used throughout the examples: supports
#: negacyclic transforms up to N = 2^19 (q - 1 = 2^20 * 4095).
DEFAULT_PRIME_32 = 0xFFF00001  # 4293918721

#: Small primes matching MeNTT's 14-bit and CryptoPIM's 16-bit datapaths.
DEFAULT_PRIME_14 = 12289       # 12289 = 3 * 2^12 + 1, supports N <= 2048 cyclic
DEFAULT_PRIME_16 = 65537       # Fermat prime F4, supports N <= 2^15 cyclic
