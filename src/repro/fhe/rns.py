"""Residue number system (RNS) layer — how real FHE uses this hardware.

Production FHE (CKKS/BFV in SEAL, OpenFHE, Lattigo) represents the big
ciphertext modulus ``Q = q_1 * q_2 * ... * q_L`` as a chain of word-sized
NTT-friendly primes and keeps every polynomial as L independent residue
limbs.  Each limb's NTT is an independent size-N transform with its own
modulus — which is exactly the paper's bank-level parallelism story
(Sec. VI.A): one limb per bank, near-linear scaling.

This module provides the CRT math (:class:`RnsBasis`), the multi-limb
polynomial (:class:`RnsPolynomial`), and :class:`PimRnsMultiplier`,
which runs a full RNS ring multiplication with every limb NTT simulated
on its own PIM bank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..arith.modmath import mod_add_vec, mod_inverse, mod_mul_vec, mod_sub_vec
from ..arith.primes import ntt_prime_candidates
from ..ntt.negacyclic import NegacyclicParams, negacyclic_intt, negacyclic_ntt
from ..pim.params import PimParams
from ..sim.driver import SimConfig, TransformSpec, _run_dispatch

__all__ = ["RnsBasis", "RnsPolynomial", "PimRnsMultiplier"]


class RnsBasis:
    """A chain of coprime NTT-friendly primes and its CRT machinery."""

    def __init__(self, n: int, moduli: Sequence[int]):
        if not moduli:
            raise ValueError("need at least one modulus")
        if len(set(moduli)) != len(moduli):
            raise ValueError("moduli must be distinct")
        self.n = n
        self.moduli = list(moduli)
        self.rings = [NegacyclicParams(n, q) for q in moduli]
        self.big_q = 1
        for q in moduli:
            self.big_q *= q
        # CRT reconstruction constants: Q_i = Q/q_i, inv_i = Q_i^-1 mod q_i.
        self._big_over = [self.big_q // q for q in moduli]
        self._inv = [mod_inverse(b % q, q)
                     for b, q in zip(self._big_over, moduli)]

    @classmethod
    def generate(cls, n: int, limbs: int, bits: int = 30) -> "RnsBasis":
        """A fresh basis of ``limbs`` negacyclic-NTT-friendly primes."""
        return cls(n, ntt_prime_candidates(n, bits, limbs, negacyclic=True))

    @property
    def limbs(self) -> int:
        return len(self.moduli)

    def to_rns(self, coefficients: Sequence[int]) -> List[List[int]]:
        """Big-integer coefficients -> per-limb residues."""
        if len(coefficients) != self.n:
            raise ValueError(f"expected {self.n} coefficients")
        return [[c % q for c in coefficients] for q in self.moduli]

    def from_rns(self, residues: Sequence[Sequence[int]]) -> List[int]:
        """CRT reconstruction back to coefficients mod Q."""
        if len(residues) != self.limbs:
            raise ValueError(f"expected {self.limbs} limbs")
        out = []
        for i in range(self.n):
            acc = 0
            for limb, (big, inv, q) in enumerate(
                    zip(self._big_over, self._inv, self.moduli)):
                acc += big * ((residues[limb][i] * inv) % q)
            out.append(acc % self.big_q)
        return out


@dataclass
class RnsPolynomial:
    """A ring element held as per-limb residue vectors."""

    basis: RnsBasis
    residues: List[List[int]] = field(default_factory=list)

    @classmethod
    def from_coefficients(cls, basis: RnsBasis,
                          coefficients: Sequence[int]) -> "RnsPolynomial":
        return cls(basis, basis.to_rns(coefficients))

    def to_coefficients(self) -> List[int]:
        return self.basis.from_rns(self.residues)

    def _check(self, other: "RnsPolynomial") -> None:
        if self.basis is not other.basis and (
                self.basis.moduli != other.basis.moduli
                or self.basis.n != other.basis.n):
            raise ValueError("operands use different RNS bases")

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check(other)
        out = [mod_add_vec(x, y, q)
               for x, y, q in zip(self.residues, other.residues,
                                  self.basis.moduli)]
        return RnsPolynomial(self.basis, out)

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check(other)
        out = [mod_sub_vec(x, y, q)
               for x, y, q in zip(self.residues, other.residues,
                                  self.basis.moduli)]
        return RnsPolynomial(self.basis, out)

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Negacyclic product, limb-wise (software path)."""
        self._check(other)
        out = []
        for x, y, ring in zip(self.residues, other.residues, self.basis.rings):
            fa = negacyclic_ntt(x, ring)
            fb = negacyclic_ntt(y, ring)
            prod = mod_mul_vec(fa, fb, ring.q)
            out.append(negacyclic_intt(prod, ring))
        return RnsPolynomial(self.basis, out)


class PimRnsMultiplier:
    """RNS ring multiplication with limb NTTs on parallel PIM banks.

    Each transform round (forward a, forward b, inverse product) runs all
    L limbs concurrently, one per bank, sharing the command bus — the
    deployment the paper's conclusion sketches.
    """

    def __init__(self, basis: RnsBasis, config: SimConfig | None = None):
        self.basis = basis
        self.config = config or SimConfig(pim=PimParams(nb_buffers=2))
        self.total_cycles = 0
        self.rounds = 0

    def _limb_ntt_round(self, limb_inputs: List[List[int]],
                        inverse: bool) -> List[List[int]]:
        """One all-limbs transform round on the multi-bank machine."""
        outputs: List[List[int]] = []
        # Timing: all limbs in parallel (same N; take one representative
        # merged run per round using the first ring's shape).
        rep_ring = self.basis.rings[0].cyclic
        rep_inputs = [[[0] * self.basis.n]] * self.basis.limbs
        timing_cfg = SimConfig(
            arch=self.config.arch, timing=self.config.timing,
            pim=self.config.pim, energy=self.config.energy, functional=False)
        rep_specs = [TransformSpec(params=rep_ring)] * self.basis.limbs
        mb = _run_dispatch(rep_inputs, rep_specs, timing_cfg)
        self.total_cycles += mb.cycles
        self.rounds += 1
        # Function: exact per-limb software transforms (the functional
        # equivalence of the PIM path is covered by the driver tests).
        for values, ring in zip(limb_inputs, self.basis.rings):
            if inverse:
                outputs.append(negacyclic_intt(values, ring))
            else:
                outputs.append(negacyclic_ntt(values, ring))
        return outputs

    def multiply(self, a: RnsPolynomial, b: RnsPolynomial) -> RnsPolynomial:
        """Full product: 2 forward rounds + pointwise + 1 inverse round."""
        a._check(b)
        fa = self._limb_ntt_round(a.residues, inverse=False)
        fb = self._limb_ntt_round(b.residues, inverse=False)
        prod = [mod_mul_vec(la, lb, q)
                for la, lb, q in zip(fa, fb, self.basis.moduli)]
        out = self._limb_ntt_round(prod, inverse=True)
        return RnsPolynomial(self.basis, out)

    @property
    def total_latency_us(self) -> float:
        return self.config.timing.cycles_to_us(self.total_cycles)
