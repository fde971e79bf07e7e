"""Tests for atom buffers and the compute unit (Algorithms 1-2)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import NttParams, bit_reverse_permute, mod_pow
from repro.errors import MappingError
from repro.mapping.twiddle_params import c1_root, c2_twiddles
from repro.ntt import direct_ntt, ntt
from repro.pim import AtomBufferFile, ComputeUnit

Q = 12289


class TestAtomBufferFile:
    def test_roundtrip(self):
        bufs = AtomBufferFile(2, 8)
        bufs.write(1, list(range(8)))
        assert bufs.read(1) == list(range(8))

    def test_buffers_independent(self):
        bufs = AtomBufferFile(3, 8)
        bufs.write(0, [1] * 8)
        bufs.write(2, [2] * 8)
        assert bufs.read(0) == [1] * 8
        assert bufs.read(1) == [0] * 8
        assert bufs.read(2) == [2] * 8

    def test_read_returns_copy(self):
        bufs = AtomBufferFile(1, 8)
        out = bufs.read(0)
        out[0] = 99
        assert bufs.read(0)[0] == 0

    def test_lane_access(self):
        bufs = AtomBufferFile(1, 8)
        bufs.write_lane(0, 3, 42)
        assert bufs.read_lane(0, 3) == 42

    def test_index_out_of_range(self):
        bufs = AtomBufferFile(2, 8)
        with pytest.raises(MappingError):
            bufs.read(2)
        with pytest.raises(MappingError):
            bufs.read_lane(0, 8)

    def test_wrong_size_write(self):
        with pytest.raises(MappingError):
            AtomBufferFile(1, 8).write(0, [1, 2])

    def test_wrong_size_stacked_write_reports_words(self):
        """A stacked ``(banks, words)`` write reports the word count, not
        the bank count."""
        with pytest.raises(MappingError, match="needs 8 words, got 4$"):
            AtomBufferFile(1, 8).write_array(0, np.zeros((3, 4), np.uint64))

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            AtomBufferFile(0, 8)
        with pytest.raises(ValueError):
            AtomBufferFile(1, 0)


class TestC1:
    """C1 must be a size-Na NTT (bit-reversed in, natural out)."""

    @pytest.mark.parametrize("use_mont", [True, False])
    def test_c1_is_size8_ntt(self, use_mont):
        cu = ComputeUnit(8, use_montgomery=use_mont)
        cu.set_modulus(Q)
        p8 = NttParams(8, Q)
        rng = random.Random(1)
        x = [rng.randrange(Q) for _ in range(8)]
        got = cu.execute_c1(bit_reverse_permute(x), p8.omega, 0)
        assert got == direct_ntt(x, p8)

    def test_c1_with_derived_root(self):
        """The root the mapper sends (omega^(N/Na)) makes C1 compute the
        first log Na stages of the big transform."""
        n = 64
        big = NttParams(n, Q)
        root = c1_root(big, 8)
        sub = NttParams(8, Q, root)
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        rng = random.Random(2)
        x = [rng.randrange(Q) for _ in range(8)]
        assert cu.execute_c1(x, root, 0) == \
            ntt(bit_reverse_permute(x), sub)  # same sub-transform

    def test_c1_requires_modulus(self):
        cu = ComputeUnit(8)
        with pytest.raises(MappingError):
            cu.execute_c1([0] * 8, 1, 0)

    def test_c1_wrong_width(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        with pytest.raises(MappingError):
            cu.execute_c1([0] * 4, 1, 0)

    def test_c1_counts_uops(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        cu.execute_c1([0] * 8, 1, 0)
        # Na/2 * log Na = 12 butterflies, 2 loads + 2 stores each.
        assert cu.bu_ops == 12
        assert cu.load_uops == 24
        assert cu.store_uops == 24


class TestC2:
    def test_c2_butterfly_semantics(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        p = [10] * 8
        s = [3] * 8
        omega0, r_omega = 5, 7
        p_out, s_out = cu.execute_c2(p, s, omega0, r_omega)
        w = omega0
        for j in range(8):
            t = (w * s[j]) % Q
            assert p_out[j] == (p[j] + t) % Q
            assert s_out[j] == (p[j] - t) % Q
            w = (w * r_omega) % Q

    def test_c2_lane_count(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        cu.execute_c2([0] * 8, [0] * 8, 1, 1)
        assert cu.bu_ops == 8

    def test_c2_wrong_width(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        with pytest.raises(MappingError):
            cu.execute_c2([0] * 8, [0] * 4, 1, 1)

    def test_c2_twiddle_params_helper(self):
        big = NttParams(64, Q)
        stage = 5  # m = 16
        omega0, r_omega = c2_twiddles(big, stage, 8)
        assert omega0 == mod_pow(big.omega, (64 >> stage) * 8, Q)
        assert r_omega == mod_pow(big.omega, 64 >> stage, Q)

    def test_c2_twiddles_rejects_minus_leg(self):
        big = NttParams(64, Q)
        with pytest.raises(ValueError):
            c2_twiddles(big, 5, 16)  # word 16 has bit 4 set -> '-' leg


class TestScalarPath:
    def test_scalar_butterfly(self):
        cu = ComputeUnit(8)
        cu.set_modulus(Q)
        cu.load_scalar(10)
        a_out, b_out = cu.bu_scalar(3, 5)
        t = (5 * 3) % Q
        assert a_out == (10 + t) % Q
        assert b_out == (10 - t) % Q
        assert cu.store_scalar() == a_out

    def test_scalar_requires_modulus(self):
        cu = ComputeUnit(8)
        with pytest.raises(MappingError):
            cu.load_scalar(1)


class TestConstruction:
    def test_non_power_of_two_width(self):
        with pytest.raises(ValueError):
            ComputeUnit(6)

    def test_bad_modulus(self):
        cu = ComputeUnit(8)
        with pytest.raises(MappingError):
            cu.set_modulus(2)


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=25, deadline=None)
def test_property_c1_montgomery_plain_agree(seed):
    """The Montgomery datapath and plain arithmetic give identical C1."""
    rng = random.Random(seed)
    x = [rng.randrange(Q) for _ in range(8)]
    root = NttParams(8, Q).omega
    cu_m = ComputeUnit(8, use_montgomery=True)
    cu_p = ComputeUnit(8, use_montgomery=False)
    cu_m.set_modulus(Q)
    cu_p.set_modulus(Q)
    assert cu_m.execute_c1(list(x), root, 0) == cu_p.execute_c1(list(x), root, 0)
