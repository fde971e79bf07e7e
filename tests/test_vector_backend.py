"""Backend equivalence: the NumPy lane kernels must match the pure-Python
ground truth bit for bit, across the whole stack (element-wise ops, golden
NTTs, merged negacyclic transforms, the PIM compute unit, the driver)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import NegacyclicRequest, NttRequest, Simulator
from repro.arith import (
    NttParams,
    find_ntt_prime,
    mod_add,
    mod_add_vec,
    mod_mul,
    mod_mul_vec,
    mod_scale_vec,
    mod_sub,
    mod_sub_vec,
    set_backend,
    use_backend,
    vector,
)
from repro.ntt import (
    NegacyclicParams,
    intt,
    merged_negacyclic_intt,
    merged_negacyclic_ntt,
    ntt,
    ntt_dif_natural_input,
    ntt_dit_bitrev_input,
)
from repro.pim import ComputeUnit

# Moduli spanning the four lane regimes: direct uint64 products,
# Montgomery splitting (products overflow 64 bits), near the 63-bit
# Montgomery ceiling, and the even/large moduli of the Barrett regime.
Q_SMALL = 12289                       # 14-bit
Q_32 = find_ntt_prime(64, 32)         # near 2^32: products graze 2^64
Q_WIDE = find_ntt_prime(64, 60)       # 60-bit: Montgomery lane regime
Q_EDGE = find_ntt_prime(64, 63)       # just under the 2^63 lane ceiling
Q_EVEN = (1 << 40) + 2                # wide and even: Barrett regime
Q_EVEN_EDGE = (1 << 61) - 2           # just under the 2^61 Barrett ceiling


def both_backends(fn):
    """Run ``fn`` under each backend and return the two results."""
    with use_backend("python"):
        py = fn()
    with use_backend("numpy"):
        np_ = fn()
    return py, np_


class TestBackendSelector:
    def test_default_is_numpy_when_available(self):
        assert vector.HAS_NUMPY
        assert vector.get_backend() in ("python", "numpy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            set_backend("fortran")

    def test_use_backend_restores(self):
        before = vector.get_backend()
        with use_backend("python"):
            assert vector.get_backend() == "python"
        assert vector.get_backend() == before

    def test_lane_support_matrix(self):
        assert vector.lanes_supported(Q_SMALL)
        assert vector.lanes_supported(Q_32)
        assert vector.lanes_supported(Q_WIDE)
        assert vector.lanes_supported(Q_EDGE)
        assert not vector.lanes_supported(1 << 63)     # too wide
        assert vector.lanes_supported(Q_EVEN)          # even: Barrett regime
        assert vector.lanes_supported(Q_EVEN_EDGE)
        assert not vector.lanes_supported((1 << 61) + 2)  # even past Barrett
        assert vector.lanes_supported((1 << 20) + 2)   # even but direct regime


@given(seed=st.integers(min_value=0, max_value=2**31),
       q=st.sampled_from([3, 17, Q_SMALL, Q_32, Q_WIDE, Q_EDGE, Q_EVEN,
                          Q_EVEN_EDGE, (1 << 32) - 5, (1 << 32) - 4,
                          (1 << 62) + 57]))
@settings(max_examples=60, deadline=None)
def test_property_elementwise_ops_match(seed, q):
    """mod_{add,sub,mul}_vec agree lane for lane on random operands,
    including operands near the modulus (worst-case overflow)."""
    rng = random.Random(seed)
    xs = [rng.randrange(q) for _ in range(32)] + [q - 1, 0, 1][: 3 if q > 2 else 1]
    ys = [rng.randrange(q) for _ in range(len(xs))]
    for op, ref in ((mod_add_vec, mod_add), (mod_sub_vec, mod_sub),
                    (mod_mul_vec, mod_mul)):
        py, np_ = both_backends(lambda op=op: op(xs, ys, q))
        assert py == np_
        assert py == [ref(x, y, q) for x, y in zip(xs, ys)]


def test_elementwise_ops_accept_unreduced_inputs():
    """Negative and > 2^64 inputs take the Python pre-reduction path."""
    q = Q_WIDE
    xs = [-5, 2**70 + 3, q + 1, -(2**65)]
    ys = [7, -1, 2**64, 3]
    py, np_ = both_backends(lambda: mod_mul_vec(xs, ys, q))
    assert py == np_ == [mod_mul(x, y, q) for x, y in zip(xs, ys)]
    py, np_ = both_backends(lambda: mod_add_vec(xs, ys, q))
    assert py == np_ == [mod_add(x, y, q) for x, y in zip(xs, ys)]


def test_scale_vec_matches():
    q = Q_EDGE
    rng = random.Random(3)
    xs = [rng.randrange(q) for _ in range(64)]
    c = rng.randrange(q)
    py, np_ = both_backends(lambda: mod_scale_vec(xs, c, q))
    assert py == np_ == [(x * c) % q for x in xs]


@given(seed=st.integers(min_value=0, max_value=2**31),
       bits=st.integers(min_value=33, max_value=60))
@settings(max_examples=60, deadline=None)
def test_property_barrett_regime_matches(seed, bits):
    """The Barrett lane path (even/large moduli past the Montgomery
    regime) is bit-exact against the Python ground truth, including the
    worst-case operands ``q - 1``."""
    rng = random.Random(seed)
    q = rng.randrange(1 << (bits - 1), 1 << bits)
    if q % 2:
        q += 1  # force the even (Barrett-only) regime
    assert vector.lanes_supported(q)
    xs = [rng.randrange(q) for _ in range(29)] + [q - 1, q - 1, 0]
    ys = [rng.randrange(q) for _ in range(29)] + [q - 1, 1, q - 1]
    py, np_ = both_backends(lambda: mod_mul_vec(xs, ys, q))
    assert py == np_
    assert py == [x * y % q for x, y in zip(xs, ys)]


def test_barrett_edge_moduli():
    """Exhaustive corners at the Barrett ceiling and regime boundaries."""
    for q in (Q_EVEN, Q_EVEN_EDGE, (1 << 32) + 2, (1 << 33) - 2,
              (1 << 50) + 4, (1 << 60) + 6):
        assert vector.lanes_supported(q)
        xs = [q - 1, q - 1, q - 2, 1, 0, q // 2, q // 2 + 1]
        ys = [q - 1, 1, q - 2, q - 1, q - 1, q // 2, q // 2]
        py, np_ = both_backends(lambda q=q, xs=xs, ys=ys:
                                mod_mul_vec(xs, ys, q))
        assert py == np_ == [x * y % q for x, y in zip(xs, ys)]


class TestNttEquivalence:
    @pytest.mark.parametrize("q", [Q_SMALL, Q_32, Q_WIDE, Q_EDGE])
    @pytest.mark.parametrize("n", [8, 64])
    def test_dit_and_dif(self, n, q):
        if (q - 1) % n:
            q = find_ntt_prime(n, q.bit_length())
        params = NttParams(n, q)
        rng = random.Random(n * 31 + q % 1009)
        x = [rng.randrange(q) for _ in range(n)]
        for kernel in (ntt_dit_bitrev_input, ntt_dif_natural_input):
            py, np_ = both_backends(lambda k=kernel: k(list(x), params))
            assert py == np_, f"{kernel.__name__} diverges for n={n} q={q}"

    @pytest.mark.parametrize("q", [Q_SMALL, Q_WIDE])
    def test_forward_inverse_roundtrip(self, q):
        n = 64
        params = NttParams(n, q)
        rng = random.Random(7)
        x = [rng.randrange(q) for _ in range(n)]
        py, np_ = both_backends(lambda: intt(ntt(x, params), params))
        assert py == np_ == x

    def test_merged_negacyclic(self):
        for n, bits in ((64, 31), (64, 60)):
            q = find_ntt_prime(n, bits, negacyclic=True)
            ring = NegacyclicParams(n, q)
            rng = random.Random(bits)
            x = [rng.randrange(q) for _ in range(n)]
            fwd_py, fwd_np = both_backends(
                lambda: merged_negacyclic_ntt(x, ring))
            assert fwd_py == fwd_np
            inv_py, inv_np = both_backends(
                lambda: merged_negacyclic_intt(fwd_py, ring))
            assert inv_py == inv_np == x


class TestComputeUnitEquivalence:
    """Array atom execution must match the scalar path — data *and* the
    µ-op counters the area/power models consume."""

    @staticmethod
    def _counters(cu):
        return (cu.bu_ops, cu.load_uops, cu.store_uops, cu.twiddles_generated)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_property_c1_matches(self, seed):
        rng = random.Random(seed)
        q = rng.choice([Q_SMALL, Q_32, Q_WIDE])
        root = NttParams(8, q).omega
        x = [rng.randrange(q) for _ in range(8)]

        def run():
            cu = ComputeUnit(8)
            cu.set_modulus(q)
            out = cu.execute_c1(list(x), root, 0)
            return out, self._counters(cu)

        (out_py, ctr_py), (out_np, ctr_np) = both_backends(run)
        assert out_py == out_np
        assert ctr_py == ctr_np

    @pytest.mark.parametrize("gs", [False, True])
    @pytest.mark.parametrize("q", [Q_SMALL, Q_WIDE])
    def test_c2_matches(self, q, gs):
        rng = random.Random(q % 97 + gs)
        p = [rng.randrange(q) for _ in range(8)]
        s = [rng.randrange(q) for _ in range(8)]
        omega0, r_omega = rng.randrange(1, q), rng.randrange(1, q)

        def run():
            cu = ComputeUnit(8)
            cu.set_modulus(q)
            out = cu.execute_c2(list(p), list(s), omega0, r_omega, gs=gs)
            return out, self._counters(cu)

        (out_py, ctr_py), (out_np, ctr_np) = both_backends(run)
        assert out_py == out_np
        assert ctr_py == ctr_np

    @pytest.mark.parametrize("gs", [False, True])
    def test_c1n_matches(self, gs):
        q = Q_WIDE
        rng = random.Random(11 + gs)
        x = [rng.randrange(q) for _ in range(8)]
        zetas = tuple(rng.randrange(1, q) for _ in range(7))

        def run():
            cu = ComputeUnit(8)
            cu.set_modulus(q)
            out = cu.execute_c1n(list(x), zetas, gs=gs)
            return out, self._counters(cu)

        (out_py, ctr_py), (out_np, ctr_np) = both_backends(run)
        assert out_py == out_np
        assert ctr_py == ctr_np


class TestDriverBothBackends:
    """The full mapped-command verify path passes under either backend."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_run_ntt_verifies(self, backend):
        n = 512
        params = NttParams(n, Q_SMALL)
        rng = random.Random(5)
        x = [rng.randrange(Q_SMALL) for _ in range(n)]
        with use_backend(backend):
            result = Simulator().run(NttRequest(params=params, values=x))
        assert result.verified

    def test_run_ntt_outputs_identical(self):
        n = 512
        params = NttParams(n, Q_SMALL)
        rng = random.Random(6)
        x = [rng.randrange(Q_SMALL) for _ in range(n)]
        py, np_ = both_backends(
            lambda: Simulator().run(NttRequest(params=params, values=x)))
        assert py.values == np_.values
        assert py.counters["bu_ops"] == np_.counters["bu_ops"]
        assert py.cycles == np_.cycles

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_negacyclic_driver_verifies(self, backend):
        n = 256
        q = find_ntt_prime(n, 31, negacyclic=True)
        ring = NegacyclicParams(n, q)
        rng = random.Random(8)
        x = [rng.randrange(q) for _ in range(n)]
        with use_backend(backend):
            result = Simulator().run(NegacyclicRequest(ring=ring, values=x))
        assert result.verified
