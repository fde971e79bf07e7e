"""Tests for the incomplete (Kyber-style) NTT and wide-modulus support."""

import random

import pytest

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, is_prime
from repro.ntt import naive_negacyclic_convolution
from repro.ntt.incomplete import (
    IncompleteNttParams,
    incomplete_basemul,
    incomplete_intt,
    incomplete_ntt,
)
from repro.pim import PimParams
from repro.sim import SimConfig

KYBER_Q = 3329  # q - 1 = 2^8 * 13: only 2-adicity 8


class TestIncompleteNtt:
    def test_kyber_parameters_supported(self):
        # Full negacyclic at N=256 would need a 512th root: impossible.
        with pytest.raises(ValueError):
            IncompleteNttParams(256, KYBER_Q, 1)
        # Depth 2 (Kyber's actual configuration) works.
        IncompleteNttParams(256, KYBER_Q, 2)

    @pytest.mark.parametrize("n,depth", [(256, 2), (256, 4), (128, 2),
                                         (64, 2), (32, 4)])
    def test_roundtrip(self, n, depth):
        p = IncompleteNttParams(n, KYBER_Q, depth)
        rng = random.Random(n + depth)
        x = [rng.randrange(KYBER_Q) for _ in range(n)]
        assert incomplete_intt(incomplete_ntt(x, p), p) == x

    @pytest.mark.parametrize("n,depth", [(256, 2), (128, 4), (64, 2)])
    def test_basemul_convolution_theorem(self, n, depth):
        p = IncompleteNttParams(n, KYBER_Q, depth)
        rng = random.Random(n * depth)
        a = [rng.randrange(KYBER_Q) for _ in range(n)]
        b = [rng.randrange(KYBER_Q) for _ in range(n)]
        prod = incomplete_basemul(incomplete_ntt(a, p),
                                  incomplete_ntt(b, p), p)
        assert (incomplete_intt(prod, p)
                == naive_negacyclic_convolution(a, b, KYBER_Q))

    def test_slot_zetas_alternate_sign(self):
        p = IncompleteNttParams(256, KYBER_Q, 2)
        for s in range(0, 16, 2):
            assert (p.slot_zeta(s) + p.slot_zeta(s + 1)) % KYBER_Q == 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            IncompleteNttParams(256, KYBER_Q, 3)
        with pytest.raises(ValueError):
            IncompleteNttParams(256, KYBER_Q, 256)

    def test_wrong_lengths_rejected(self):
        p = IncompleteNttParams(64, KYBER_Q, 2)
        with pytest.raises(ValueError):
            incomplete_ntt([1, 2], p)
        with pytest.raises(ValueError):
            incomplete_basemul([0] * 64, [0] * 32, p)


class TestGoldilocksModulus:
    """64-bit modulus support end to end (the PIM datapath is modeled in
    exact integers, so width is a parameter, not a limit)."""

    GOLDILOCKS = (1 << 64) - (1 << 32) + 1

    def test_is_prime(self):
        assert is_prime(self.GOLDILOCKS)

    def test_supports_deep_ntt(self):
        # 2-adicity 32: any practical power-of-two length.
        assert (self.GOLDILOCKS - 1) % (1 << 32) == 0

    def test_pim_ntt_with_64bit_modulus(self):
        n = 64
        params = NttParams(n, self.GOLDILOCKS)
        rng = random.Random(0)
        x = [rng.randrange(self.GOLDILOCKS) for _ in range(n)]
        sim = Simulator(SimConfig(pim=PimParams(nb_buffers=2)))
        assert sim.run(NttRequest(params=params, values=x)).verified

    def test_montgomery_radix_widens(self):
        from repro.arith import MontgomeryContext
        ctx = MontgomeryContext(self.GOLDILOCKS)
        assert ctx.rbits == 64  # q < 2^64, so a 64-bit radix suffices
        a, b = 2**63 + 5, 2**62 + 11
        assert ctx.mul(a, b) == (a * b) % self.GOLDILOCKS
