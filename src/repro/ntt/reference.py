"""Golden-model NTT kernels.

The PIM executes a decimation-in-time (DIT) Cooley-Tukey network on
bit-reversed input producing natural-order output (see DESIGN.md §3 for
why this is the consistent reading of the paper's Fig. 3 + Algorithms
1-2).  :func:`ntt_dit_bitrev_input` is therefore *the* semantic contract
the PIM simulator is verified against; everything else here exists to
cross-check it (direct O(N²) DFT, DIF variant, recursive formulation)
and to serve software baselines.
"""

from __future__ import annotations

from typing import List, Sequence

from ..arith import vector
from ..arith.bitrev import bit_reverse_permute, is_power_of_two
from ..arith.modmath import _ints, mod_mul_vec, mod_pow, mod_scale_vec
from ..arith.roots import NttParams

__all__ = [
    "direct_ntt",
    "ntt_dit_bitrev_input",
    "ntt_dif_natural_input",
    "ntt",
    "intt",
    "recursive_ntt",
    "cyclic_convolution",
    "naive_cyclic_convolution",
]


def _check_length(values, n: int) -> None:
    length = values.shape[-1] if vector.is_array(values) else len(values)
    if length != n:
        raise ValueError(f"expected {n} coefficients, got {length}")


def _check_input(values: Sequence[int], params: NttParams) -> List[int]:
    _check_length(values, params.n)
    return [v % params.q for v in _ints(values)]


def _lanes_out(out, values):
    """Array in, array out: a lane kernel's result goes back to Python
    ints only when the caller passed a sequence."""
    return out if vector.is_array(values) else out.tolist()


def direct_ntt(values: Sequence[int], params: NttParams) -> List[int]:
    """O(N²) evaluation ``A[j] = sum_k a[k] * omega^(j*k)`` — ground truth."""
    x = _check_input(values, params)
    n, q, omega = params.n, params.q, params.omega
    out = []
    for j in range(n):
        acc = 0
        w = 1
        wj = mod_pow(omega, j, q)
        for k in range(n):
            acc = (acc + x[k] * w) % q
            w = (w * wj) % q
        out.append(acc)
    return out


def ntt_dit_bitrev_input(values: Sequence[int], params: NttParams) -> List[int]:
    """Iterative DIT Cooley-Tukey: bit-reversed input -> natural output.

    Stage ``s`` (1-based) works on pairs that differ in bit ``s-1``; the
    lane twiddle is ``omega^(j * N / 2^s)``, geometric across ``j`` — the
    exact pattern the hardware TFG generates from ``(omega0, r_omega)``.
    When the lanes support ``q``, a uint64 array of any leading shape
    transforms along its last axis and comes back as an array.
    """
    n, q, omega = params.n, params.q, params.omega
    _check_length(values, n)
    if vector.lanes_supported(q):
        return _lanes_out(vector.ntt_dit_bitrev(values, n, q, omega), values)
    x = _check_input(values, params)
    log_n = params.log_n
    for s in range(1, log_n + 1):
        m = 1 << (s - 1)
        w_step = mod_pow(omega, n >> s, q)
        for k in range(0, n, 2 * m):
            w = 1
            for j in range(m):
                t = (w * x[k + j + m]) % q
                u = x[k + j]
                x[k + j] = (u + t) % q
                x[k + j + m] = (u - t) % q
                w = (w * w_step) % q
    return x


def ntt_dif_natural_input(values: Sequence[int], params: NttParams) -> List[int]:
    """Iterative DIF Gentleman-Sande: natural input -> bit-reversed output.

    The transpose network of :func:`ntt_dit_bitrev_input`; composing with
    a bit-reversal gives the same transform (asserted in tests).
    """
    n, q, omega = params.n, params.q, params.omega
    _check_length(values, n)
    if vector.lanes_supported(q):
        return _lanes_out(vector.ntt_dif_natural(values, n, q, omega), values)
    x = _check_input(values, params)
    log_n = params.log_n
    for s in range(log_n, 0, -1):
        m = 1 << (s - 1)
        w_step = mod_pow(omega, n >> s, q)
        for k in range(0, n, 2 * m):
            w = 1
            for j in range(m):
                u = x[k + j]
                v = x[k + j + m]
                x[k + j] = (u + v) % q
                x[k + j + m] = ((u - v) * w) % q
                w = (w * w_step) % q
    return x


def ntt(values: Sequence[int], params: NttParams) -> List[int]:
    """Natural-order forward NTT (software does the bit reversal, as in
    the paper's host-side assumption).  Arrays in, arrays out (see
    :func:`ntt_dit_bitrev_input`)."""
    return ntt_dit_bitrev_input(bit_reverse_permute(values), params)


def intt(values: Sequence[int], params: NttParams) -> List[int]:
    """Natural-order inverse NTT, including the ``1/N`` scaling."""
    inv = params.inverse()
    y = ntt_dit_bitrev_input(bit_reverse_permute(values), inv)
    return mod_scale_vec(y, params.n_inv, params.q)


def recursive_ntt(values: Sequence[int], params: NttParams) -> List[int]:
    """Recursive Cooley-Tukey on bit-reversed input.

    This is the formulation the mapping algorithm exploits (Sec. III.A):
    the first ``log M`` stages of a size-``N`` DIT network are ``N/M``
    *independent, identical* size-``M`` sub-transforms, which is what
    lets a row (or an atom) be processed with a single activation.
    """
    x = _check_input(values, params)
    return _recursive_dit(x, params.omega, params.q)


def _recursive_dit(x: List[int], omega: int, q: int) -> List[int]:
    n = len(x)
    if n == 1:
        return x
    half = n // 2
    omega_half = (omega * omega) % q
    even = _recursive_dit(x[:half], omega_half, q)
    odd = _recursive_dit(x[half:], omega_half, q)
    out = [0] * n
    w = 1
    for j in range(half):
        t = (w * odd[j]) % q
        out[j] = (even[j] + t) % q
        out[j + half] = (even[j] - t) % q
        w = (w * omega) % q
    return out


def cyclic_convolution(a: Sequence[int], b: Sequence[int], params: NttParams) -> List[int]:
    """Length-N cyclic convolution via the convolution theorem (Eq. 1)."""
    fa = ntt(a, params)
    fb = ntt(b, params)
    prod = mod_mul_vec(fa, fb, params.q)
    return intt(prod, params)


def naive_cyclic_convolution(a: Sequence[int], b: Sequence[int], q: int) -> List[int]:
    """Schoolbook cyclic convolution, for verifying the NTT-based path."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    if not is_power_of_two(n):
        raise ValueError(f"length must be a power of two, got {n}")
    out = [0] * n
    for i in range(n):
        for j in range(n):
            out[(i + j) % n] = (out[(i + j) % n] + a[i] * b[j]) % q
    return out
