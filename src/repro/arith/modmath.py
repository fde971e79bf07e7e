"""Elementary modular arithmetic.

These routines are the mathematical ground truth for the whole library.
The PIM compute unit (:mod:`repro.pim.cu`) performs the same operations
through the Montgomery datapath model (:mod:`repro.arith.montgomery`);
unit tests cross-check both against the functions defined here.

All functions operate on plain Python integers so they remain exact for
any modulus width (the paper targets 32-bit moduli, MeNTT 14/16-bit).
The element-wise ``*_vec`` forms run the uint64 lane kernels of
:mod:`repro.arith.vector` when they support the modulus, else these
scalar loops.
"""

from __future__ import annotations

from typing import Iterable, List

from . import vector

__all__ = [
    "mod_add",
    "mod_sub",
    "mod_mul",
    "mod_neg",
    "mod_pow",
    "mod_inverse",
    "egcd",
    "is_unit",
    "mod_add_vec",
    "mod_sub_vec",
    "mod_mul_vec",
    "mod_scale_vec",
]


def mod_add(a: int, b: int, q: int) -> int:
    """Return ``(a + b) mod q``."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    return (a + b) % q


def mod_sub(a: int, b: int, q: int) -> int:
    """Return ``(a - b) mod q`` (always in ``[0, q)``)."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    return (a - b) % q


def mod_mul(a: int, b: int, q: int) -> int:
    """Return ``(a * b) mod q``."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    return (a * b) % q


def mod_neg(a: int, q: int) -> int:
    """Return ``(-a) mod q``."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    return (-a) % q


def mod_pow(base: int, exponent: int, q: int) -> int:
    """Return ``base**exponent mod q``; negative exponents use the inverse."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    if exponent < 0:
        return pow(mod_inverse(base, q), -exponent, q)
    return pow(base, exponent, q)


def egcd(a: int, b: int):
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y = g = gcd(a, b)``."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def mod_inverse(a: int, q: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``q``.

    Raises :class:`ValueError` when ``gcd(a, q) != 1``.
    """
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    g, x, _ = egcd(a % q, q)
    if g not in (1, -1):
        raise ValueError(f"{a} is not invertible modulo {q} (gcd={g})")
    if g == -1:
        x = -x
    return x % q


def is_unit(a: int, q: int) -> bool:
    """True when ``a`` is invertible modulo ``q``."""
    g, _, _ = egcd(a % q, q)
    return g in (1, -1)


def _ints(xs) -> List[int]:
    """A sequence or uint64 array as a list of Python ints — a uint64
    array's NumPy scalars would wrap at 2**64 in the scalar loops."""
    return xs.tolist() if vector.is_array(xs) else list(xs)


def _operands(xs, ys, q: int):
    xs, ys = _ints(xs), _ints(ys)
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    return xs, ys


def mod_add_vec(xs: Iterable[int], ys: Iterable[int], q: int) -> List[int]:
    """Element-wise modular addition of two equal-length sequences."""
    xs, ys = _operands(xs, ys, q)
    if vector.lanes_supported(q):
        return vector.mod_add_list(xs, ys, q)
    return [mod_add(x, y, q) for x, y in zip(xs, ys)]


def mod_sub_vec(xs: Iterable[int], ys: Iterable[int], q: int) -> List[int]:
    """Element-wise modular subtraction of two equal-length sequences."""
    xs, ys = _operands(xs, ys, q)
    if vector.lanes_supported(q):
        return vector.mod_sub_list(xs, ys, q)
    return [mod_sub(x, y, q) for x, y in zip(xs, ys)]


def mod_mul_vec(xs: Iterable[int], ys: Iterable[int], q: int) -> List[int]:
    """Element-wise modular product of two equal-length sequences."""
    xs, ys = _operands(xs, ys, q)
    if vector.lanes_supported(q):
        return vector.mod_mul_list(xs, ys, q)
    return [mod_mul(x, y, q) for x, y in zip(xs, ys)]


def mod_scale_vec(xs: Iterable[int], c: int, q: int) -> List[int]:
    """``[(x * c) mod q]`` — the element-wise scalings (1/N, psi powers)
    that bracket every inverse/negacyclic transform.  A uint64 array of
    reduced residues (any shape) scales on the lanes and stays an
    array."""
    if q <= 0:
        raise ValueError(f"modulus must be positive, got {q}")
    if not vector.lanes_supported(q):
        return [(x * c) % q for x in _ints(xs)]
    if vector.is_array(xs):
        return vector.scale_arr(xs, c, q)
    return vector.scale_list(list(xs), c, q)
