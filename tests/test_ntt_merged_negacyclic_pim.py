"""Tests for the merged negacyclic kernels and their native PIM mapping
(the C1N / constant-zeta extension)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import NegacyclicRequest, NttRequest, Simulator
from repro.arith import bit_reverse, find_ntt_prime
from repro.dram import CommandType, HBM2E_ARCH
from repro.errors import MappingError
from repro.fhe import PimFheAccelerator
from repro.mapping import NegacyclicNttMapper
from repro.ntt import (
    NegacyclicParams,
    block_zeta_exponent,
    merged_negacyclic_intt,
    merged_negacyclic_ntt,
    merged_pointwise_multiply,
    naive_negacyclic_convolution,
    negacyclic_ntt,
)
from repro.pim import ComputeUnit, PimParams
from repro.sim import SimConfig


def ring(n):
    return NegacyclicParams(n, find_ntt_prime(n, 30, negacyclic=True))


def run(sim, values, p, inverse=False):
    return sim.run(NegacyclicRequest(ring=p, values=values, inverse=inverse))


class TestMergedKernels:
    @pytest.mark.parametrize("n", [8, 32, 256])
    def test_roundtrip(self, n):
        p = ring(n)
        rng = random.Random(n)
        x = [rng.randrange(p.q) for _ in range(n)]
        assert merged_negacyclic_intt(merged_negacyclic_ntt(x, p), p) == x

    @pytest.mark.parametrize("n", [8, 64, 128])
    def test_convolution_theorem(self, n):
        p = ring(n)
        rng = random.Random(n + 1)
        a = [rng.randrange(p.q) for _ in range(n)]
        b = [rng.randrange(p.q) for _ in range(n)]
        prod = merged_pointwise_multiply(
            merged_negacyclic_ntt(a, p), merged_negacyclic_ntt(b, p), p)
        assert (merged_negacyclic_intt(prod, p)
                == naive_negacyclic_convolution(a, b, p.q))

    def test_same_multiset_as_scaled_form(self):
        """Merged output is a permutation of the psi-prescaled cyclic
        NTT's output (same evaluation points, different order)."""
        n = 32
        p = ring(n)
        rng = random.Random(7)
        x = [rng.randrange(p.q) for _ in range(n)]
        assert sorted(merged_negacyclic_ntt(x, p)) == sorted(
            negacyclic_ntt(x, p))

    def test_block_zeta_exponent_values(self):
        # N=8, first stage (length 4, start 0): node 1 -> brev3(1) = 4.
        assert block_zeta_exponent(8, 4, 0) == bit_reverse(1, 3)
        # length 2: nodes 2, 3.
        assert block_zeta_exponent(8, 2, 0) == bit_reverse(2, 3)
        assert block_zeta_exponent(8, 2, 4) == bit_reverse(3, 3)

    def test_block_zeta_validation(self):
        with pytest.raises(ValueError):
            block_zeta_exponent(8, 3, 0)
        with pytest.raises(ValueError):
            block_zeta_exponent(8, 2, 1)

    def test_wrong_length_rejected(self):
        p = ring(16)
        with pytest.raises(ValueError):
            merged_negacyclic_ntt([1, 2, 3], p)


class TestC1N:
    def test_c1n_equals_last_stages_of_merged(self):
        """C1N on one atom == a size-8 merged transform with that atom's
        subtree zetas."""
        n = 8
        p = ring(n)
        cu = ComputeUnit(8)
        cu.set_modulus(p.q)
        mapper = NegacyclicNttMapper(p, HBM2E_ARCH, PimParams(nb_buffers=2))
        zetas = mapper._atom_zetas(0)
        rng = random.Random(3)
        x = [rng.randrange(p.q) for _ in range(8)]
        assert cu.execute_c1n(x, zetas) == merged_negacyclic_ntt(x, p)

    def test_c1n_zeta_count_enforced(self):
        cu = ComputeUnit(8)
        cu.set_modulus(12289)
        with pytest.raises(MappingError):
            cu.execute_c1n([0] * 8, (1, 2, 3))

    def test_c1n_command_requires_zetas(self):
        from repro.dram import Command
        with pytest.raises(ValueError):
            Command(CommandType.C1N, buf=0)

    def test_gs_inverse_of_ct(self):
        """C1N(gs, inverse zetas) undoes C1N up to the 1/Na scale."""
        n = 8
        p = ring(n)
        cu = ComputeUnit(8)
        cu.set_modulus(p.q)
        fwd_mapper = NegacyclicNttMapper(p, HBM2E_ARCH, PimParams(nb_buffers=2))
        inv_mapper = NegacyclicNttMapper(p, HBM2E_ARCH, PimParams(nb_buffers=2),
                                         inverse=True)
        rng = random.Random(4)
        x = [rng.randrange(p.q) for _ in range(8)]
        fwd = cu.execute_c1n(x, fwd_mapper._atom_zetas(0))
        back = cu.execute_c1n(fwd, inv_mapper._atom_zetas(0), gs=True)
        from repro.arith import mod_inverse
        n_inv = mod_inverse(8, p.q)
        assert [(v * n_inv) % p.q for v in back] == x


class TestNegacyclicMapping:
    @pytest.mark.parametrize("n", [8, 64, 256, 512, 1024])
    @pytest.mark.parametrize("nb", [2, 4, 6])
    def test_forward_verified(self, n, nb):
        p = ring(n)
        rng = random.Random(n + nb)
        x = [rng.randrange(p.q) for _ in range(n)]
        sim = Simulator(SimConfig(pim=PimParams(nb_buffers=nb)))
        assert run(sim, x, p).verified

    @pytest.mark.parametrize("n", [64, 512])
    def test_inverse_roundtrip_on_pim(self, n):
        p = ring(n)
        rng = random.Random(n)
        x = [rng.randrange(p.q) for _ in range(n)]
        sim = Simulator(SimConfig())
        fwd = run(sim, x, p)
        back = run(sim, fwd.values, p, inverse=True)
        assert back.verified
        assert back.values == x

    def test_full_ring_product_on_pim(self):
        n = 256
        p = ring(n)
        rng = random.Random(9)
        a = [rng.randrange(p.q) for _ in range(n)]
        b = [rng.randrange(p.q) for _ in range(n)]
        sim = Simulator(SimConfig(pim=PimParams(nb_buffers=4)))
        fa = run(sim, a, p).values
        fb = run(sim, b, p).values
        prod = [(x * y) % p.q for x, y in zip(fa, fb)]
        got = run(sim, prod, p, inverse=True).values
        assert got == naive_negacyclic_convolution(a, b, p.q)

    def test_uses_c1n_and_constant_zeta_c2(self):
        p = ring(512)
        mapper = NegacyclicNttMapper(p, HBM2E_ARCH, PimParams(nb_buffers=2))
        cmds = mapper.generate()
        kinds = {c.ctype for c in cmds}
        assert CommandType.C1N in kinds
        assert CommandType.C1 not in kinds
        for c in cmds:
            if c.ctype is CommandType.C2:
                assert c.r_omega == 1  # degenerate TFG sequence

    def test_inverse_uses_gs(self):
        p = ring(512)
        mapper = NegacyclicNttMapper(p, HBM2E_ARCH, PimParams(nb_buffers=2),
                                     inverse=True)
        assert all(c.gs for c in mapper.generate()
                   if c.ctype in (CommandType.C2, CommandType.C1N))

    def test_single_buffer_rejected(self):
        with pytest.raises(MappingError):
            NegacyclicNttMapper(ring(64), HBM2E_ARCH, PimParams(nb_buffers=1))

    def test_latency_close_to_cyclic(self):
        """Native mapping costs about the same as the cyclic one (the
        C1N zeta loads are the only addition)."""
        n = 1024
        p = ring(n)
        from repro.arith import NttParams
        sim = Simulator(SimConfig(functional=False, verify=False))
        nega = sim.run(NegacyclicRequest(ring=p))
        cyc = sim.run(NttRequest(params=NttParams(n, p.q)))
        assert 0.9 <= nega.cycles / cyc.cycles <= 1.2


class TestNativeAccelerator:
    def test_native_matches_schoolbook(self):
        n = 256
        p = ring(n)
        acc = PimFheAccelerator(p, SimConfig(pim=PimParams(nb_buffers=4)),
                                native=True)
        rng = random.Random(11)
        a = [rng.randrange(p.q) for _ in range(n)]
        b = [rng.randrange(p.q) for _ in range(n)]
        assert acc.multiply(a, b) == naive_negacyclic_convolution(a, b, p.q)
        assert acc.stats.transforms == 3

    def test_native_and_hosted_agree(self):
        n = 128
        p = ring(n)
        rng = random.Random(12)
        a = [rng.randrange(p.q) for _ in range(n)]
        b = [rng.randrange(p.q) for _ in range(n)]
        hosted = PimFheAccelerator(p, native=False).multiply(a, b)
        native = PimFheAccelerator(p, native=True).multiply(a, b)
        assert hosted == native


@given(log_n=st.integers(min_value=3, max_value=9),
       seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_property_native_negacyclic_verified(log_n, seed):
    n = 1 << log_n
    p = ring(n)
    rng = random.Random(seed)
    x = [rng.randrange(p.q) for _ in range(n)]
    sim = Simulator(SimConfig(pim=PimParams(nb_buffers=4)))
    assert run(sim, x, p).verified
