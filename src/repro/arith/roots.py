"""Primitive roots of unity for NTT parameterization.

Given a prime ``q`` with ``N | q - 1``, the NTT needs a primitive ``N``-th
root of unity ``ω`` (``ω^N = 1`` and ``ω^(N/2) = -1``); the negacyclic
transform additionally needs a ``2N``-th root ``ψ`` with ``ψ^2 = ω``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List

from .modmath import mod_inverse, mod_pow
from .primes import is_prime

__all__ = [
    "factorize",
    "primitive_root",
    "root_of_unity",
    "inverse_root_of_unity",
    "is_primitive_root_of_unity",
    "NttParams",
]


def factorize(n: int) -> Dict[int, int]:
    """Trial-division factorization (fine for q-1 of crypto-sized primes,
    whose cofactors beyond the power of two are small by construction)."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    factors: Dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@lru_cache(maxsize=1024)
def primitive_root(q: int) -> int:
    """Smallest generator of the multiplicative group of ``Z_q`` (q prime).

    Memoized: experiment sweeps re-derive parameters for the same handful
    of moduli thousands of times, and the search factorizes ``q - 1``.
    """
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    group = q - 1
    prime_factors: List[int] = list(factorize(group))
    for g in range(2, q):
        if all(mod_pow(g, group // p, q) != 1 for p in prime_factors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")  # pragma: no cover


@lru_cache(maxsize=1024)
def root_of_unity(order: int, q: int) -> int:
    """A primitive ``order``-th root of unity modulo prime ``q`` (memoized —
    a deterministic artifact of ``(order, q)``)."""
    if order < 1:
        raise ValueError(f"order must be positive, got {order}")
    if (q - 1) % order != 0:
        raise ValueError(f"no order-{order} root exists: {order} does not divide q-1={q - 1}")
    g = primitive_root(q)
    omega = mod_pow(g, (q - 1) // order, q)
    assert is_primitive_root_of_unity(omega, order, q)
    return omega


def inverse_root_of_unity(order: int, q: int) -> int:
    """The inverse of :func:`root_of_unity` (drives the inverse NTT)."""
    return mod_inverse(root_of_unity(order, q), q)


def is_primitive_root_of_unity(omega: int, order: int, q: int) -> bool:
    """Check ``omega^order = 1`` and ``omega^(order/p) != 1`` for prime ``p | order``."""
    if mod_pow(omega, order, q) != 1:
        return False
    return all(mod_pow(omega, order // p, q) != 1 for p in factorize(order))


class NttParams:
    """Bundle of (N, q, ω) — what the host passes to the PIM as "write data".

    The paper's host interface sends the NTT parameters in a write request
    (Sec. IV.A); this class is the software-side representation, including
    the derived inverse parameters for the inverse transform.  ``q`` must
    be prime: without a field the Cooley-Tukey network is not the DFT.
    Two bundles of the same ``(n, q, omega)`` are equal and hash alike,
    so requests and specs built from separately constructed parameters
    share caches and merge into one bank group.
    """

    def __init__(self, n: int, q: int, omega: int | None = None):
        if n < 2 or n & (n - 1):
            raise ValueError(f"N must be a power of two >= 2, got {n}")
        if (q - 1) % n != 0:
            raise ValueError(f"q={q} does not support length-{n} NTT")
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.n = n
        self.q = q
        self.log_n = n.bit_length() - 1
        self.omega = root_of_unity(n, q) if omega is None else omega % q
        if not is_primitive_root_of_unity(self.omega, n, q):
            raise ValueError(f"omega={omega} is not a primitive {n}-th root mod {q}")
        self.omega_inv = mod_inverse(self.omega, q)
        self.n_inv = mod_inverse(n, q)
        self._inverse: NttParams | None = None
        self._hash = hash((n, q, self.omega))

    def inverse(self) -> "NttParams":
        """Parameters of the inverse transform (twiddles inverted),
        built on first use."""
        if self._inverse is None:
            self._inverse = NttParams(self.n, self.q, self.omega_inv)
        return self._inverse

    def __eq__(self, other) -> bool:
        if type(other) is not NttParams:
            return NotImplemented
        return (self.n, self.q, self.omega) == (other.n, other.q, other.omega)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NttParams(n={self.n}, q={self.q}, omega={self.omega})"
