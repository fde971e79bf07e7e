"""Merged-psi ("fully merged") negacyclic NTT kernels.

:mod:`repro.ntt.negacyclic` computes the negacyclic transform as
psi-prescale + cyclic NTT — the decomposition the paper's host protocol
implies.  Production lattice crypto (NewHope, Kyber, SEAL) instead
*merges* the psi powers into the twiddles, giving a transform that

* takes **natural-order** input (no host bit-reversal pass),
* uses a **constant twiddle per butterfly block** (``zeta = psi^brev(k)``),
  which the PIM's two-parameter TFG realizes as the degenerate geometric
  sequence ``(omega0 = zeta, r_omega = 1)``, and
* produces output in the standard "NTT domain order" where pointwise
  multiplication is valid directly.

The forward network runs Cooley-Tukey butterflies with *decreasing*
stride; the inverse runs Gentleman-Sande butterflies with increasing
stride and a final 1/N scale.  These kernels are the golden model for
the native negacyclic PIM mapping
(:class:`repro.mapping.NegacyclicNttMapper`).
"""

from __future__ import annotations

from typing import List, Sequence

from ..arith import vector
from ..arith.bitrev import bit_reverse
from ..arith.modmath import mod_inverse, mod_mul_vec, mod_pow
from .negacyclic import NegacyclicParams
from .reference import _check_input, _check_length, _lanes_out

__all__ = [
    "block_zeta_exponent",
    "block_zeta",
    "merged_negacyclic_ntt",
    "merged_negacyclic_intt",
    "merged_pointwise_multiply",
]


def block_zeta_exponent(n: int, length: int, start: int) -> int:
    """Exponent of psi for the block at (stride ``length``, offset
    ``start``): ``brev(N/2L + start/2L)`` over log N bits."""
    if length < 1 or n % (2 * length):
        raise ValueError(f"invalid stride {length} for N={n}")
    if start % (2 * length):
        raise ValueError(f"start {start} not aligned to 2*{length}")
    log_n = n.bit_length() - 1
    node = n // (2 * length) + start // (2 * length)
    return bit_reverse(node, log_n)


def block_zeta(params: NegacyclicParams, length: int, start: int) -> int:
    """The constant twiddle of one butterfly block."""
    return mod_pow(params.psi,
                   block_zeta_exponent(params.n, length, start), params.q)


def merged_negacyclic_ntt(values: Sequence[int],
                          params: NegacyclicParams) -> List[int]:
    """Forward merged transform: natural-order input, NTT-domain output.

    CT butterfly ``(a + zeta*b, a - zeta*b)`` with stride halving each
    stage; one zeta per block.  Arrays in, arrays out, as
    :func:`repro.ntt.reference.ntt`.
    """
    n, q = params.n, params.q
    _check_length(values, n)
    if vector.lanes_supported(q):
        return _lanes_out(
            vector.merged_negacyclic_forward(values, n, q, params.psi), values)
    x = _check_input(values, params)
    length = n // 2
    while length >= 1:
        for start in range(0, n, 2 * length):
            zeta = block_zeta(params, length, start)
            for j in range(start, start + length):
                t = (zeta * x[j + length]) % q
                x[j + length] = (x[j] - t) % q
                x[j] = (x[j] + t) % q
        length >>= 1
    return x


def merged_negacyclic_intt(values: Sequence[int],
                           params: NegacyclicParams) -> List[int]:
    """Inverse merged transform: NTT-domain input, natural-order output.

    GS butterfly ``(a + b, (a - b) * zeta^-1)`` with stride doubling,
    using each block's inverse zeta, then a 1/N scale.
    """
    n, q = params.n, params.q
    _check_length(values, n)
    if vector.lanes_supported(q):
        return _lanes_out(
            vector.merged_negacyclic_inverse(values, n, q, params.psi), values)
    x = _check_input(values, params)
    psi_inv = params.psi_inv
    length = 1
    while length < n:
        for start in range(0, n, 2 * length):
            exp = block_zeta_exponent(n, length, start)
            zeta_inv = mod_pow(psi_inv, exp, q)
            for j in range(start, start + length):
                a, b = x[j], x[j + length]
                x[j] = (a + b) % q
                x[j + length] = ((a - b) * zeta_inv) % q
        length <<= 1
    n_inv = mod_inverse(n, q)
    return [(v * n_inv) % q for v in x]


def merged_pointwise_multiply(a_hat: Sequence[int], b_hat: Sequence[int],
                              params: NegacyclicParams) -> List[int]:
    """Pointwise product in the merged NTT domain (full transform, so
    plain lane-wise multiplication — no base-case folding needed)."""
    if len(a_hat) != params.n or len(b_hat) != params.n:
        raise ValueError("operands must be full NTT-domain vectors")
    return mod_mul_vec(a_hat, b_hat, params.q)
