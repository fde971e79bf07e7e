"""NumPy ``uint64`` lane kernels for the whole simulator stack.

Every hot path of the library — golden NTTs, the compiled PIM plans'
stacked butterfly kernels, the RNS/RLWE element-wise ops — bottoms out
in element-wise modular arithmetic.  This module provides that
arithmetic on NumPy ``uint64`` lanes.  Each kernel has a pure-Python
scalar reference (:mod:`repro.arith.modmath`, the golden NTTs, the
per-command :class:`~repro.pim.cu.ComputeUnit`) that is exact for any
modulus; unit tests hold the two equal lane for lane.  Callers take the
lane kernel exactly when :func:`lanes_supported` holds for the modulus.

Overflow safety
---------------

``uint64`` lane products overflow once ``q >= 2**32``, so the multiply
kernel runs in four regimes:

* ``q < 2**32`` — the product of two reduced operands fits in 64 bits;
  plain ``(a * b) % q``.  A *fixed* operand — a compiled plan's twiddle
  matrix — is a :class:`ShoupPair` instead: it carries its precomputed
  companion ``w' = floor(w * 2**32 / q)`` (Harvey, J. Symbolic Comput.
  2014; NTL's ``MulModPrecon``), and a multiply by it is two products,
  a shift and one conditional subtraction, with no division.
* odd ``q < 2**63`` — Montgomery multiplication with ``R = 2**64``:
  the full 128-bit product is formed as a (hi, lo) pair via 32-bit
  limb splitting (:func:`_mul_u64`) and reduced with a vectorized REDC,
  mirroring :func:`repro.arith.montgomery.montgomery_reduce` word for
  word.
* any ``q < 2**61`` (covering the even moduli Montgomery cannot) —
  Barrett reduction of the 128-bit product: the quotient is estimated
  with the precomputed ``mu = floor(2**(2k) / q)`` through shifted limb
  products, and the remainder recovered modulo ``2**(k+3)`` with at
  most three conditional subtractions.
* anything else — no lane support (:func:`lanes_supported` is False);
  callers run the scalar reference.

Additions and subtractions of reduced operands are ``t = a + b`` (or
``a + (q - b)``) and one conditional subtraction, ``min(t, t - q)``:
``t < 2q < 2**64`` for every lane modulus, and ``t - q`` wraps above
``t`` exactly when ``t < q``.

Entry reduction
---------------

The element-wise and golden kernels reduce their inputs with ``%`` on
entry.  The stacked PIM kernels take pool values that are usually
reduced already, but not always: raw 64-bit cells (a program request
with no modulus), and words reduced under the modulus a PARAM_WRITE
replaced.  They scan each operand once and run ``%`` only when some
word is ``>= q`` — unless the caller passes ``reduced=True``, as a
compiled plan does for a group whose every input is the output of an
earlier kernel under the same modulus; then there is no scan.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from typing import Callable, List, NamedTuple, Sequence

import numpy as np

from .._cache import ArtifactCache

__all__ = [
    "lanes_supported",
    "ShoupPair",
    "lane_twiddles",
    "mod_add_arr",
    "mod_sub_arr",
    "mod_mul_arr",
    "mod_add_list",
    "mod_sub_list",
    "mod_mul_list",
    "scale_arr",
    "scale_list",
    "uint64_lanes",
    "random_residues",
    "ntt_dit_bitrev",
    "ntt_dif_natural",
    "merged_negacyclic_forward",
    "merged_negacyclic_inverse",
    "is_array",
    "c2_stack_wpack",
    "c2_stack_arr",
    "c1_lanes_wpack",
    "c1_lanes_arr",
    "c1n_lanes_zpack",
    "c1n_lanes_arr",
    "omega_power_array",
    "power_table",
    "FreivaldsCheck",
    "freivalds_check",
    "clear_caches",
]

_MASK32 = (1 << 32) - 1
_DIRECT_LIMIT = 1 << 32   # below: reduced lane products fit in uint64
_LANE_LIMIT = 1 << 63     # below (odd q): Montgomery lane path
_BARRETT_LIMIT = 1 << 61  # below (any q): Barrett-split lane path


def lanes_supported(q: int) -> bool:
    """True when the uint64 lane kernels are exact for modulus ``q`` —
    the test every caller makes before it picks a lane kernel over its
    scalar reference."""
    if q <= 0:
        return False
    return q < _BARRETT_LIMIT or (q < _LANE_LIMIT and q % 2 == 1)


def is_array(x) -> bool:
    """True when ``x`` is a NumPy array — how the list-or-array entry
    points (golden NTTs, element-wise ops) tell their inputs apart."""
    return isinstance(x, np.ndarray)


# -- uint64 lane primitives ----------------------------------------------------

@lru_cache(maxsize=1024)
def _u64(q: int):
    """Cached uint64 scalar of ``q`` — boxing a Python int into a NumPy
    scalar costs more than a small-array ufunc, so do it once per modulus."""
    return np.uint64(q)


def _mul_u64(a, b):
    """Full 128-bit product of two uint64 arrays as a (hi, lo) pair.

    Classic 32-bit limb splitting; every partial product and carry sum
    stays strictly below 2**64, so the arithmetic is exact.
    """
    a0 = a & np.uint64(_MASK32)
    a1 = a >> np.uint64(32)
    b0 = b & np.uint64(_MASK32)
    b1 = b >> np.uint64(32)
    ll = a0 * b0
    mid1 = a0 * b1 + (ll >> np.uint64(32))
    mid2 = a1 * b0 + (mid1 & np.uint64(_MASK32))
    hi = a1 * b1 + (mid1 >> np.uint64(32)) + (mid2 >> np.uint64(32))
    lo = (mid2 << np.uint64(32)) | (ll & np.uint64(_MASK32))
    return hi, lo


@lru_cache(maxsize=None)
def _mont_constants(q: int):
    """Per-modulus Montgomery constants for ``R = 2**64`` as uint64 scalars:
    ``-q^-1 mod R`` and ``R^2 mod q``."""
    r = 1 << 64
    neg_qinv = (-pow(q, -1, r)) % r
    r2 = (1 << 128) % q
    return np.uint64(neg_qinv), np.uint64(r2)


def _redc(hi, lo, q_u64, neg_qinv):
    """Vectorized REDC of the 128-bit values ``hi:lo`` (each < q * 2**64)."""
    m = lo * neg_qinv  # wraps mod 2**64 — exactly the REDC definition
    mq_hi, mq_lo = _mul_u64(m, q_u64)
    # lo + mq_lo is 0 mod 2**64 by construction: carry is 1 unless lo == 0.
    carry = (lo != np.uint64(0)).astype(np.uint64)
    u = hi + mq_hi + carry  # < 2q < 2**64, no wrap
    return np.where(u >= q_u64, u - q_u64, u)


def _mulmod_mont(a, b, q: int):
    """``a * b mod q`` on uint64 lanes for odd ``q < 2**63`` via two REDCs
    (product REDC + correction by ``R^2 mod q``), mirroring
    :meth:`repro.arith.montgomery.MontgomeryContext.mul`."""
    neg_qinv, r2 = _mont_constants(q)
    q_u64 = np.uint64(q)
    hi, lo = _mul_u64(a, b)
    t = _redc(hi, lo, q_u64, neg_qinv)          # a*b*R^-1 mod q
    hi2, lo2 = _mul_u64(t, r2)
    return _redc(hi2, lo2, q_u64, neg_qinv)     # a*b mod q


@lru_cache(maxsize=None)
def _barrett_constants(q: int):
    """Per-modulus Barrett constants for ``q < 2**61`` as uint64 scalars.

    ``mu = floor(2**(2k) / q)`` with ``k = q.bit_length()``; since
    ``2**(k-1) <= q``, ``mu < 2**(k+1) <= 2**62`` fits a uint64.  The
    shift pairs extract ``t >> (k-1)`` and ``x >> (k+1)`` from (hi, lo)
    128-bit pairs, and the mask reduces modulo ``2**(k+3)`` — wide
    enough to hold the remainder estimate ``t - q3*q < 4q``.
    """
    k = q.bit_length()
    mu = (1 << (2 * k)) // q
    mask = (1 << min(k + 3, 64)) - 1
    return (np.uint64(mu), np.uint64(k - 1), np.uint64(65 - k),
            np.uint64(k + 1), np.uint64(63 - k), np.uint64(mask))


def _mulmod_barrett(a, b, q: int):
    """``a * b mod q`` on uint64 lanes for any ``q < 2**61`` (the even and
    otherwise non-Montgomery moduli) via Barrett splitting.

    The 128-bit product ``t`` is kept as a (hi, lo) limb pair; the
    quotient estimate ``q3 = ((t >> (k-1)) * mu) >> (k+1)`` satisfies
    ``floor(t/q) - 3 <= q3 <= floor(t/q)``, so the remainder is
    recovered exactly from ``t - q3*q`` modulo ``2**(k+3)`` with three
    conditional subtractions.  All intermediates stay below 2**64.
    """
    mu, sh_lo, sh_hi, sh2_lo, sh2_hi, mask = _barrett_constants(q)
    q_u64 = np.uint64(q)
    hi, lo = _mul_u64(a, b)
    q1 = (hi << sh_hi) | (lo >> sh_lo)          # floor(t / 2**(k-1))
    h2, l2 = _mul_u64(q1, mu)
    q3 = (h2 << sh2_hi) | (l2 >> sh2_lo)        # floor(q1 * mu / 2**(k+1))
    r = (lo - q3 * q_u64) & mask                # t - q3*q  (mod 2**(k+3))
    r = np.where(r >= q_u64, r - q_u64, r)
    r = np.where(r >= q_u64, r - q_u64, r)
    return np.where(r >= q_u64, r - q_u64, r)


class ShoupPair(NamedTuple):
    """A fixed reduced lane operand ``w`` for a modulus ``q < 2**32``
    with its Shoup companion ``w' = floor(w * 2**32 / q)`` (exact in
    uint64 because ``w < q``): :func:`mod_mul_arr` multiplies by it with
    no division."""

    w: np.ndarray
    companion: np.ndarray


def lane_twiddles(w, q: int):
    """A fixed operand (reduced uint64 lanes) ready for
    :func:`mod_mul_arr`: its :class:`ShoupPair` below ``2**32``, else
    the array itself.  A pair passes through unchanged."""
    if type(w) is ShoupPair or q >= _DIRECT_LIMIT:
        return w
    w = np.asarray(w, dtype=np.uint64)
    return ShoupPair(w, (w << np.uint64(32)) // _u64(q))


def _mulmod_shoup(a, pair: ShoupPair, q_u64):
    """``a * w mod q`` for ``a < 2**32``: the quotient estimate
    ``(a * w') >> 32`` is ``floor(a * w / q)`` or one less, so
    ``a * w - estimate * q`` (mod 2**64) lies in ``[0, 2q)``."""
    hi = a * pair.companion
    hi >>= np.uint64(32)
    hi *= q_u64
    r = a * pair.w
    r -= hi
    np.subtract(r, q_u64, out=hi)
    return np.minimum(r, hi, out=r)


def mod_add_arr(a, b, q: int):
    """Lane-wise ``(a + b) mod q`` for reduced uint64 operands."""
    t = a + b
    return np.minimum(t, t - _u64(q), out=t)


def mod_sub_arr(a, b, q: int):
    """Lane-wise ``(a - b) mod q`` for reduced uint64 operands."""
    q_u64 = _u64(q)
    t = q_u64 - b
    t += a
    return np.minimum(t, t - q_u64, out=t)


def mod_mul_arr(a, b, q: int):
    """Lane-wise ``(a * b) mod q`` for reduced uint64 operands.

    Requires :func:`lanes_supported`\\ ``(q)``; picks the direct,
    Montgomery or Barrett regime by modulus width and parity.  Either
    operand may be a :class:`ShoupPair` (from :func:`lane_twiddles`),
    which takes the division-free multiply.
    """
    if type(a) is ShoupPair:
        a, b = b, a
    if type(b) is ShoupPair:
        return _mulmod_shoup(a, b, _u64(q))
    if q < _DIRECT_LIMIT:
        return (a * b) % _u64(q)
    if q % 2 == 1 and q < _LANE_LIMIT:
        return _mulmod_mont(a, b, q)
    if q < _BARRETT_LIMIT:
        return _mulmod_barrett(a, b, q)
    raise ValueError(f"no uint64 lane support for modulus {q}")


def uint64_lanes(xs, q: int):
    """A (nested) int sequence as one uint64 array of the same shape,
    values kept as they are; only ints outside ``[0, 2**64)`` — which
    no uint64 lane can hold — are reduced mod ``q`` first (rare path)."""
    try:
        return np.array(xs, dtype=np.uint64)
    except (OverflowError, ValueError):
        return np.array(np.array(xs, dtype=object) % q, dtype=np.uint64)


def random_residues(rng: random.Random, n: int, q: int):
    """``[rng.randrange(q) for _ in range(n)]`` as a read-only uint64
    array: the same values, and ``rng`` left in the same state.

    Below ``2**32``, CPython's ``randrange(q)`` takes one 32-bit
    Mersenne Twister word per attempt, keeps its top ``q.bit_length()``
    bits and rejects a result ``>= q``; ``getrandbits(32 * m)`` returns
    the next ``m`` words, least significant first.  So each round draws
    one word per value still needed — never more, which is what keeps
    the generator's state — and keeps the accepted words in order.  A
    wider ``q`` takes several words per attempt and keeps the loop."""
    if q >= _DIRECT_LIMIT:
        out = np.array([rng.randrange(q) for _ in range(n)], dtype=np.uint64)
    else:
        out = np.empty(n, dtype=np.uint64)
        shift, filled = 32 - q.bit_length(), 0
        while filled < n:
            need = n - filled
            words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(
                4 * need, "little"), dtype="<u4") >> shift
            kept = words[words < q]
            out[filled:filled + len(kept)] = kept
            filled += len(kept)
    out.flags.writeable = False
    return out


def _as_lanes(xs, q: int):
    """Reduce a (nested) sequence or an array mod ``q`` into a fresh
    uint64 array (the kernels below update it in place)."""
    if not (isinstance(xs, np.ndarray) and xs.dtype == np.uint64):
        xs = uint64_lanes(xs, q)
    return xs % _u64(q)


# -- list-level API (what modmath's mod_*_vec dispatch to) ---------------------

def mod_add_list(xs: Sequence[int], ys: Sequence[int], q: int) -> List[int]:
    return mod_add_arr(_as_lanes(xs, q), _as_lanes(ys, q), q).tolist()


def mod_sub_list(xs: Sequence[int], ys: Sequence[int], q: int) -> List[int]:
    return mod_sub_arr(_as_lanes(xs, q), _as_lanes(ys, q), q).tolist()


def mod_mul_list(xs: Sequence[int], ys: Sequence[int], q: int) -> List[int]:
    return mod_mul_arr(_as_lanes(xs, q), _as_lanes(ys, q), q).tolist()


def scale_arr(x, c: int, q: int):
    """``(x * c) mod q`` on reduced uint64 lanes of any shape."""
    return mod_mul_arr(x, _u64(c % q), q)


def scale_list(xs: Sequence[int], c: int, q: int) -> List[int]:
    """``[(x * c) mod q]`` — the 1/N passes and psi pre/post scalings."""
    return scale_arr(_as_lanes(xs, q), c, q).tolist()


# -- cached twiddle material ---------------------------------------------------

def power_table(base: int, count: int, q: int) -> List[int]:
    """``[base**i % q for i in range(count)]`` as Python ints.

    Below ``2**32`` the table doubles in uint64 lanes — ``powers[k:2k]
    = powers[:k] · base^k mod q``, every product below ``2**64`` — in
    ``log2(count)`` steps; from ``2**32`` up, where those products
    overflow a lane, it runs the products in Python ints."""
    if q >= _DIRECT_LIMIT:
        powers = [1 % q]
        for _ in range(count - 1):
            powers.append(powers[-1] * base % q)
        return powers[:count]
    powers = np.empty(count, dtype=np.uint64)
    powers[:1] = 1 % q
    k, step, lane_q = 1, base % q, np.uint64(q)
    while k < count:
        m = min(k, count - k)
        powers[k:k + m] = powers[:m] * np.uint64(step) % lane_q
        k += m
        step = step * step % q
    return powers.tolist()


@lru_cache(maxsize=64)
def omega_power_array(n: int, q: int, omega: int):
    """uint64 array of ``omega^i mod q`` for ``i in [0, n)`` — the full
    twiddle table of one ``(n, q, omega)`` transform, computed once."""
    return np.array(power_table(omega, n, q), dtype=np.uint64)


@lru_cache(maxsize=64)
def _merged_zeta_arrays(n: int, q: int, psi: int, inverse: bool):
    """Per-stage block-zeta arrays of the merged negacyclic transform.

    Stage order matches the kernels below: forward walks strides
    N/2, N/4, ..., 1; inverse walks 1, 2, ..., N/2 with inverse zetas.
    """
    from .bitrev import bit_reverse  # local import avoids a cycle

    log_n = n.bit_length() - 1
    base = pow(psi, -1, q) if inverse else psi % q
    stages = []
    lengths = ([n >> s for s in range(1, log_n + 1)] if not inverse
               else [1 << s for s in range(log_n)])
    for length in lengths:
        blocks = n // (2 * length)
        zetas = np.empty(blocks, dtype=np.uint64)
        for k in range(blocks):
            zetas[k] = pow(base, bit_reverse(blocks + k, log_n), q)
        stages.append(zetas)
    return tuple(stages)


@lru_cache(maxsize=8192)
def _geom_run_arr(first: int, step: int, count: int, q: int):
    """uint64 array of the geometric run ``first * step^j`` — exactly what
    one TFG parameter pair ``(omega0, r_omega)`` expands to.  Memoized:
    sweeps and batches replay the same command programs, hence the same
    runs."""
    out = np.empty(count, dtype=np.uint64)
    acc = first % q
    step = step % q
    for j in range(count):
        out[j] = acc
        acc = (acc * step) % q
    return out


def clear_caches() -> None:
    """Drop all memoized twiddle/constant material (test isolation)."""
    _mont_constants.cache_clear()
    _barrett_constants.cache_clear()
    omega_power_array.cache_clear()
    _merged_zeta_arrays.cache_clear()
    _geom_run_arr.cache_clear()
    _c1_stage_steps.cache_clear()
    _freivalds_cache.clear()


# -- whole-transform kernels ---------------------------------------------------
#
# The golden transforms run on the last axis and broadcast over any
# leading shape, so one call checks a whole ``(banks, slots, N)`` stack.
# They take (nested) int sequences or uint64 arrays and return a fresh
# uint64 array of the same shape.

def ntt_dit_bitrev(values, n: int, q: int, omega: int):
    """Iterative DIT Cooley-Tukey on uint64 lanes: bit-reversed input,
    natural output.  Bit-exact with
    :func:`repro.ntt.reference.ntt_dit_bitrev_input`."""
    x = _as_lanes(values, q)
    lead = x.shape[:-1]
    powers = omega_power_array(n, q, omega)
    log_n = n.bit_length() - 1
    for s in range(1, log_n + 1):
        m = 1 << (s - 1)
        w = powers[:: n >> s][:m]  # omega^(j * N/2^s) for one block
        xr = x.reshape(lead + (-1, 2 * m))
        a = xr[..., :m].copy()  # copy: the next writes go through the view
        t = mod_mul_arr(w, xr[..., m:], q)
        xr[..., :m] = mod_add_arr(a, t, q)
        xr[..., m:] = mod_sub_arr(a, t, q)
    return x


def ntt_dif_natural(values, n: int, q: int, omega: int):
    """Iterative DIF Gentleman-Sande on uint64 lanes: natural input,
    bit-reversed output — the transpose network of :func:`ntt_dit_bitrev`."""
    x = _as_lanes(values, q)
    lead = x.shape[:-1]
    powers = omega_power_array(n, q, omega)
    log_n = n.bit_length() - 1
    for s in range(log_n, 0, -1):
        m = 1 << (s - 1)
        w = powers[:: n >> s][:m]
        xr = x.reshape(lead + (-1, 2 * m))
        a = xr[..., :m].copy()
        b = xr[..., m:]
        xr[..., :m] = mod_add_arr(a, b, q)
        xr[..., m:] = mod_mul_arr(mod_sub_arr(a, b, q), w, q)
    return x


def merged_negacyclic_forward(values, n: int, q: int, psi: int):
    """Forward merged-psi negacyclic NTT on uint64 lanes (natural-order
    input, NTT-domain output) — bit-exact with
    :func:`repro.ntt.merged.merged_negacyclic_ntt`."""
    x = _as_lanes(values, q)
    lead = x.shape[:-1]
    length = n // 2
    for zetas in _merged_zeta_arrays(n, q, psi, inverse=False):
        xr = x.reshape(lead + (-1, 2 * length))
        a = xr[..., :length].copy()
        t = mod_mul_arr(zetas[:, None], xr[..., length:], q)
        xr[..., :length] = mod_add_arr(a, t, q)
        xr[..., length:] = mod_sub_arr(a, t, q)
        length >>= 1
    return x


def merged_negacyclic_inverse(values, n: int, q: int, psi: int):
    """Inverse merged transform on uint64 lanes, *including* the final
    1/N scale — bit-exact with
    :func:`repro.ntt.merged.merged_negacyclic_intt`."""
    x = _as_lanes(values, q)
    lead = x.shape[:-1]
    length = 1
    for zetas in _merged_zeta_arrays(n, q, psi, inverse=True):
        xr = x.reshape(lead + (-1, 2 * length))
        a = xr[..., :length].copy()
        b = xr[..., length:].copy()
        xr[..., :length] = mod_add_arr(a, b, q)
        xr[..., length:] = mod_mul_arr(mod_sub_arr(a, b, q), zetas[:, None], q)
        length <<= 1
    return scale_arr(x, pow(n, -1, q), q)


# -- Freivalds' check of a linear map ------------------------------------------
#
# A transform is a fixed linear map y = M·x over Z_q.  Freivalds' check
# (IFIP 1977) accepts an output stack iff every word is reduced and
# r·y + (q - Mᵀ·r)·x ≡ 0 (mod q) for K fixed rows r: O(K·N) per
# transform, and none of the butterfly kernels it checks runs.  Below
# 2**32 each side is one uint64 matmul against 16-bit limbs of r and of
# q - Mᵀ·r; a reduced word times a limb is < 2**48, so the two sides'
# sums stay below 2N·2**48, exact for N <= 2**15.  Wider moduli (and
# longer transforms) sum in Python ints.

_CHECK_BITS = 60          # K = ceil(60 / log2 q) rows
_LIMB_MAX_N = 1 << 15


def _dot_matrix(rows, q: int):
    """The ``(N, ...)`` right operand of :meth:`FreivaldsCheck.accepts`
    for a ``(K, N)`` stack of reduced rows: ``2K`` columns of 16-bit
    limbs (low limbs first; held as uint16, a quarter of the memory,
    and widened by the matmul), or the rows as Python ints."""
    if q < _DIRECT_LIMIT and rows.shape[-1] <= _LIMB_MAX_N:
        limbs = np.concatenate([rows & np.uint64(0xFFFF),
                                rows >> np.uint64(16)])
        return np.ascontiguousarray(limbs.T, dtype=np.uint16)
    return rows.T.astype(object)


class FreivaldsCheck:
    """Freivalds' check of one linear map ``y = M·x`` over ``Z_q``.

    ``rows`` holds ``K = ceil(60 / log2 q)`` vectors ``r`` with entries
    in ``[1, q)``; row ``k`` comes from its own stream, seeded
    ``f"{label}:{k}"``, so every process draws the same rows.
    ``vectors`` holds ``v = Mᵀ·r``, which ``transpose`` computes once
    for the whole ``(K, N)`` stack.
    """

    def __init__(self, label: str, n: int, q: int,
                 transpose: Callable):
        count = math.ceil(_CHECK_BITS / math.log2(q))
        draws = [np.frombuffer(random.Random(f"{label}:{k}")
                               .getrandbits(64 * n).to_bytes(8 * n, "little"),
                               dtype=np.uint64)
                 for k in range(count)]
        self.n = n
        self.q = q
        self.rows = np.stack(draws) % _u64(q - 1) + np.uint64(1)
        self.vectors = np.array(transpose(self.rows), dtype=np.uint64)
        self._r = _dot_matrix(self.rows, q)
        self._minus_v = _dot_matrix((_u64(q) - self.vectors) % _u64(q), q)

    def accepts(self, inputs, outputs) -> bool:
        """True iff ``outputs`` has the shape of ``inputs`` (``(..., N)``,
        any leading shape), every output word is below ``q``, and
        ``r·y ≡ v·x (mod q)`` for every row pair ``(x, y)`` and every
        ``(r, v)``.  Inputs are reduced mod ``q`` first."""
        q, n = self.q, self.n
        x = (inputs if is_array(inputs) and inputs.dtype == np.uint64
             else uint64_lanes(inputs, q))
        try:
            y = np.asarray(outputs, dtype=np.uint64)
        except (OverflowError, ValueError):
            return False  # a word no uint64 cell holds, or a ragged stack
        if y.shape != x.shape or x.shape[-1] != n or y.max(initial=0) >= q:
            return False
        x, y = x.reshape(-1, n), y.reshape(-1, n)
        if x.max(initial=0) >= q:
            x = x % _u64(q)
        if self._r.dtype == object:
            return not ((y.astype(object) @ self._r
                         + x.astype(object) @ self._minus_v) % q).any()
        sums = (y @ self._r + x @ self._minus_v) % _u64(q)
        half = self._r.shape[1] // 2
        return not ((sums[:, :half] + (sums[:, half:] << np.uint64(16)))
                    % _u64(q)).any()


_freivalds_cache = ArtifactCache(64)


def freivalds_check(label: str, n: int, q: int,
                    transpose: Callable) -> FreivaldsCheck:
    """The :class:`FreivaldsCheck` of the length-``n`` map over ``Z_q``
    that ``label`` names uniquely, built on first use and kept in a
    bounded cache that :func:`clear_caches` empties."""
    return _freivalds_cache.get_or_create(
        label, lambda: FreivaldsCheck(label, n, q, transpose))


# -- stacked PIM kernels (fused macro-ops of the compiled command stream) ------
#
# One kernel per compute command type runs a whole fused group of ``k``
# same-type commands — e.g. every C2 of a butterfly stage — as a few
# NumPy operations over every bank of a stack at once.  C2 runs on
# ``(..., k, Na)`` operand views; C1 and C1N run lane-major, on a
# ``(Na, L, k)`` transpose holding word ``i`` of all ``L * k`` atoms on
# row ``i``, so each stage is an op over whole contiguous rows.  Atom
# ``j`` computes exactly what the scalar ``ComputeUnit.execute_c1`` /
# ``execute_c2`` / ``execute_c1n`` computes for the ``j``-th command.
# The ``*_wpack``/``*_zpack`` helpers prebuild the twiddle operands
# through :func:`lane_twiddles` (Shoup pairs below 2**32), cached per
# compiled stream and modulus by the executor.

def _reduced(x, q_u64):
    """``x`` with every word below ``q``: ``x % q`` when some word is
    not (raw cells, or words reduced under an earlier modulus), else
    ``x`` itself — one scan instead of a division per word."""
    return x % q_u64 if x.max(initial=0) >= q_u64 else x


@lru_cache(maxsize=4096)
def _c1_stage_steps(q: int, omega0: int, log_na: int):
    """Per-stage lane steps of one C1: stage ``s`` uses ``g^(Na / 2^s)``,
    derived from ``g = omega0`` by repeated squaring (exactly the CU's
    TFG derivation, which is an exact mod-mul either datapath)."""
    steps = [0] * (log_na + 1)
    steps[log_na] = omega0 % q
    for s in range(log_na - 1, 0, -1):
        steps[s] = (steps[s + 1] * steps[s + 1]) % q
    return tuple(steps)


def _geom_rows(firsts: Sequence[int], steps: Sequence[int], count: int,
               q: int):
    """``(k, count)`` uint64 rows of the geometric runs ``firsts[i] *
    steps[i]^j mod q`` — :func:`_geom_run_arr` for every row at once,
    stepping all rows' lanes together.  The products are exact: plain
    ``(a * b) % q`` below ``2**32``, the private Montgomery or Barrett
    multiply above (never the module-level :func:`mod_mul_arr`, so a
    patched multiply cannot leak into cached twiddles)."""
    if q < _DIRECT_LIMIT:
        q_u64 = _u64(q)

        def mul(a, b):
            return (a * b) % q_u64
    elif q % 2 == 1 and q < _LANE_LIMIT:
        def mul(a, b):
            return _mulmod_mont(a, b, q)
    else:
        def mul(a, b):
            return _mulmod_barrett(a, b, q)
    steps = _as_lanes(steps, q)
    out = np.empty((len(steps), count), dtype=np.uint64)
    if count:
        out[:, 0] = _as_lanes(firsts, q)
    for j in range(1, count):
        out[:, j] = mul(out[:, j - 1], steps)
    return out


def _shaped(w, shape):
    """A twiddle operand (plain or a Shoup pair) reshaped to ``shape``."""
    if type(w) is ShoupPair:
        return ShoupPair(*(half.reshape(shape) for half in w))
    return w.reshape(shape)


def c2_stack_wpack(q: int, omega0s: Sequence[int], r_omegas: Sequence[int],
                   na: int, shape=None):
    """``(k, Na)`` twiddle operand for a fused C2 group: row ``j`` is the
    TFG's geometric run of the ``j``-th command.  ``shape`` (ending in
    ``Na``) lays the rows out to broadcast over a view of the operands
    instead."""
    w = lane_twiddles(_geom_rows(omega0s, r_omegas, na, q), q)
    return w if shape is None else _shaped(w, shape)


def c2_stack_arr(p, s, q: int, w, gs: bool = False, reduced: bool = False):
    """Stacked form of :meth:`repro.pim.cu.ComputeUnit.execute_c2`:
    ``p``/``s`` are ``(..., k, Na)`` and ``w`` is ``(k, Na)`` (a plain
    reduced array, or its :func:`lane_twiddles` to multiply without
    dividing) — the P legs, S legs and lane twiddles of ``k`` fused C2
    commands (leading axes broadcast).  With ``reduced`` the caller
    promises every operand word is below ``q`` already, and the scan for
    words that are not is skipped."""
    if not reduced:
        q_u64 = _u64(q)
        p, s = _reduced(p, q_u64), _reduced(s, q_u64)
    if gs:
        return (mod_add_arr(p, s, q),
                mod_mul_arr(mod_sub_arr(p, s, q), w, q))
    t = mod_mul_arr(s, w, q)
    return mod_add_arr(p, t, q), mod_sub_arr(p, t, q)


def _butterflies(a, b, t, q_u64):
    """``(a, b) <- (a + t, a - t) mod q`` in place, for reduced
    operands."""
    np.subtract(q_u64, t, out=b)
    b += a
    np.minimum(b, b - q_u64, out=b)
    a += t
    np.minimum(a, a - q_u64, out=a)


def c1_lanes_wpack(q: int, omegas: Sequence[int], na: int):
    """Per-stage twiddles of a fused C1 group for :func:`c1_lanes_arr`:
    stage ``s`` multiplies word ``m + j`` of each ``2m``-word block of
    atom ``i`` by ``g_i^(j Na / 2m)``, with ``m = 2^(s-1)`` and ``g_i``
    row ``i``'s generator, as one ``(m, 1, k)`` operand (``(m, 1, 1)``
    when every row shares its generator — the common case of a whole
    stage pass)."""
    log_na = na.bit_length() - 1
    rows = [_c1_stage_steps(q, omega0, log_na) for omega0 in omegas]
    if all(r == rows[0] for r in rows):
        rows = rows[:1]
    return tuple(
        lane_twiddles(np.stack([_geom_run_arr(1, r[s], 1 << (s - 1), q)
                                for r in rows], axis=-1)[:, None, :], q)
        for s in range(1, log_na + 1))


def c1_lanes_arr(xt, q: int, wpack, reduced: bool = False):
    """Stacked form of :meth:`repro.pim.cu.ComputeUnit.execute_c1`, run
    lane-major and in place: ``xt`` is a C-contiguous ``(Na, L, k)``
    array holding word ``i`` of ``k`` atoms in each of ``L`` banks on
    ``xt[i]``, so every stage is a few operations over whole contiguous
    runs of ``L * k`` words; ``wpack`` comes from
    :func:`c1_lanes_wpack`.  With ``reduced`` the caller promises every
    word is below ``q`` already, and the scan for words that are not is
    skipped."""
    na = xt.shape[0]
    q_u64 = _u64(q)
    if not reduced and xt.max(initial=0) >= q_u64:
        np.remainder(xt, q_u64, out=xt)
    for s, w in enumerate(wpack):
        m = 1 << s
        xr = xt.reshape((na // (2 * m), 2 * m) + xt.shape[1:])
        a, b = xr[:, :m], xr[:, m:]
        _butterflies(a, b, mod_mul_arr(b, w, q), q_u64)
    return xt


def c1n_lanes_zpack(q: int, zetas_rows: Sequence[Sequence[int]]):
    """``(Na-1, 1, k)`` reduced block-zeta operand of a fused C1N group
    for :func:`c1n_lanes_arr`: zeta ``i`` of row ``j`` at ``[i, 0, j]``."""
    return lane_twiddles(np.array([[z % q for z in zetas]
                                   for zetas in zip(*zetas_rows)],
                                  dtype=np.uint64)[:, None, :], q)


def c1n_lanes_arr(xt, q: int, zt, gs: bool = False, reduced: bool = False):
    """Stacked form of :meth:`repro.pim.cu.ComputeUnit.execute_c1n`, run
    lane-major and in place on a C-contiguous ``(Na, L, k)`` array (see
    :func:`c1_lanes_arr`, ``reduced`` too); ``zt`` comes from
    :func:`c1n_lanes_zpack`, and each atom consumes its zetas in the
    scalar method's order."""
    na = xt.shape[0]
    q_u64 = _u64(q)
    if not reduced and xt.max(initial=0) >= q_u64:
        np.remainder(xt, q_u64, out=xt)
    log_na = na.bit_length() - 1
    lengths = ([na >> s for s in range(1, log_na + 1)] if not gs
               else [1 << s for s in range(log_na)])
    idx = 0
    for length in lengths:
        blocks = na // (2 * length)
        z = (ShoupPair(*(half[idx:idx + blocks, None] for half in zt))
             if type(zt) is ShoupPair else zt[idx:idx + blocks, None])
        idx += blocks
        xr = xt.reshape((blocks, 2 * length) + xt.shape[1:])
        a, b = xr[:, :length], xr[:, length:]
        if gs:
            d = mod_sub_arr(a, b, q)
            a += b
            np.minimum(a, a - q_u64, out=a)
            b[...] = mod_mul_arr(d, z, q)
        else:
            _butterflies(a, b, mod_mul_arr(b, z, q), q_u64)
    return xt
