"""Negacyclic NTT for the FHE ring ``R_q = Z_q[X]/(X^N + 1)`` (Sec. II.B).

Multiplication in ``R_q`` is a *negacyclic* convolution.  With a ``2N``-th
root of unity ``psi`` (``psi^2 = omega``), pre-scaling coefficient ``i``
by ``psi^i`` turns it into the cyclic case handled by the plain NTT:

    NegaNTT(a)   = NTT(psi^i * a_i)
    NegaINTT(A)  = psi^{-i} * INTT(A)_i
    a *_nega b   = NegaINTT(NegaNTT(a) ⊙ NegaNTT(b))
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from ..arith.modmath import mod_inverse, mod_mul_vec, mod_pow
from ..arith.primes import is_prime
from ..arith.roots import NttParams, is_primitive_root_of_unity, root_of_unity
from .reference import intt, ntt

__all__ = [
    "NegacyclicParams",
    "psi_power_table",
    "negacyclic_ntt",
    "negacyclic_intt",
    "negacyclic_convolution",
    "naive_negacyclic_convolution",
]


class NegacyclicParams:
    """(N, q, psi) with ``psi`` a primitive 2N-th root; ``omega = psi^2``;
    ``q`` prime, as for :class:`~repro.arith.roots.NttParams`, and equal
    and hashed by ``(n, q, psi)`` the same way."""

    def __init__(self, n: int, q: int, psi: int | None = None):
        if (q - 1) % (2 * n) != 0:
            raise ValueError(f"q={q} does not support length-{n} negacyclic NTT")
        if not is_prime(q):
            raise ValueError(f"{q} is not prime")
        self.n = n
        self.q = q
        self.psi = root_of_unity(2 * n, q) if psi is None else psi % q
        if not is_primitive_root_of_unity(self.psi, 2 * n, q):
            raise ValueError(f"psi={psi} is not a primitive {2 * n}-th root mod {q}")
        self.psi_inv = mod_inverse(self.psi, q)
        self.cyclic = NttParams(n, q, mod_pow(self.psi, 2, q))
        self._hash = hash((n, q, self.psi))

    def __eq__(self, other) -> bool:
        if type(other) is not NegacyclicParams:
            return NotImplemented
        return (self.n, self.q, self.psi) == (other.n, other.q, other.psi)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"NegacyclicParams(n={self.n}, q={self.q}, psi={self.psi})"


@lru_cache(maxsize=64)
def psi_power_table(base: int, n: int, q: int) -> Tuple[int, ...]:
    """``(base^0, base^1, ..., base^(n-1)) mod q`` — the pre/post scaling
    vector of the decomposed negacyclic transform, computed once per
    ``(base, n, q)`` instead of once per call."""
    powers = [1] * n
    for i in range(1, n):
        powers[i] = (powers[i - 1] * base) % q
    return tuple(powers)


def negacyclic_ntt(values: Sequence[int], params: NegacyclicParams) -> List[int]:
    """Forward negacyclic transform (psi pre-scaling + cyclic NTT)."""
    q = params.q
    scaled = mod_mul_vec(values, psi_power_table(params.psi, params.n, q), q)
    return ntt(scaled, params.cyclic)


def negacyclic_intt(values: Sequence[int], params: NegacyclicParams) -> List[int]:
    """Inverse negacyclic transform (cyclic INTT + psi^{-i} post-scaling)."""
    q = params.q
    raw = intt(values, params.cyclic)
    return mod_mul_vec(raw, psi_power_table(params.psi_inv, params.n, q), q)


def negacyclic_convolution(a: Sequence[int], b: Sequence[int],
                           params: NegacyclicParams) -> List[int]:
    """Product in ``Z_q[X]/(X^N+1)`` via the transform (Eq. 1 of the paper)."""
    fa = negacyclic_ntt(a, params)
    fb = negacyclic_ntt(b, params)
    prod = [(x * y) % params.q for x, y in zip(fa, fb)]
    return negacyclic_intt(prod, params)


def naive_negacyclic_convolution(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """Schoolbook product with ``X^N = -1`` reduction, for verification."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % q
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % q
    return out
