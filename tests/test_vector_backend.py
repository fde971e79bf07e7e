"""Compute-path equivalence: the NumPy lane kernels must match the
pure-Python scalar references bit for bit, across the whole stack
(element-wise ops, golden NTTs, merged negacyclic transforms, the PIM
compute unit, the driver)."""

import itertools
import random

import numpy as np
import pytest
from compute_paths import both_paths, on_path, scalar_path
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


class TestBackendSelector:
    """What picks a lane kernel over its scalar reference: the modulus."""

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
        py, np_ = both_paths(lambda op=op: op(xs, ys, q))
        assert py == np_
        assert py == [ref(x, y, q) for x, y in zip(xs, ys)]


def test_elementwise_ops_accept_unreduced_inputs():
    """Negative and > 2^64 inputs take the Python pre-reduction path."""
    q = Q_WIDE
    xs = [-5, 2**70 + 3, q + 1, -(2**65)]
    ys = [7, -1, 2**64, 3]
    py, np_ = both_paths(lambda: mod_mul_vec(xs, ys, q))
    assert py == np_ == [mod_mul(x, y, q) for x, y in zip(xs, ys)]
    py, np_ = both_paths(lambda: mod_add_vec(xs, ys, q))
    assert py == np_ == [mod_add(x, y, q) for x, y in zip(xs, ys)]


def test_scale_vec_matches():
    q = Q_EDGE
    rng = random.Random(3)
    xs = [rng.randrange(q) for _ in range(64)]
    c = rng.randrange(q)
    py, np_ = both_paths(lambda: mod_scale_vec(xs, c, q))
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
    py, np_ = both_paths(lambda: mod_mul_vec(xs, ys, q))
    assert py == np_
    assert py == [x * y % q for x, y in zip(xs, ys)]


def test_barrett_edge_moduli():
    """Exhaustive corners at the Barrett ceiling and regime boundaries."""
    for q in (Q_EVEN, Q_EVEN_EDGE, (1 << 32) + 2, (1 << 33) - 2,
              (1 << 50) + 4, (1 << 60) + 6):
        assert vector.lanes_supported(q)
        xs = [q - 1, q - 1, q - 2, 1, 0, q // 2, q // 2 + 1]
        ys = [q - 1, 1, q - 2, q - 1, q - 1, q // 2, q // 2]
        py, np_ = both_paths(lambda q=q, xs=xs, ys=ys:
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
            py, np_ = both_paths(lambda k=kernel: k(list(x), params))
            assert py == np_, f"{kernel.__name__} diverges for n={n} q={q}"

    @pytest.mark.parametrize("q", [Q_SMALL, Q_WIDE])
    def test_forward_inverse_roundtrip(self, q):
        n = 64
        params = NttParams(n, q)
        rng = random.Random(7)
        x = [rng.randrange(q) for _ in range(n)]
        py, np_ = both_paths(lambda: intt(ntt(x, params), params))
        assert py == np_ == x

    def test_merged_negacyclic(self):
        for n, bits in ((64, 31), (64, 60)):
            q = find_ntt_prime(n, bits, negacyclic=True)
            ring = NegacyclicParams(n, q)
            rng = random.Random(bits)
            x = [rng.randrange(q) for _ in range(n)]
            fwd_py, fwd_np = both_paths(
                lambda: merged_negacyclic_ntt(x, ring))
            assert fwd_py == fwd_np
            inv_py, inv_np = both_paths(
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

        (out_py, ctr_py), (out_np, ctr_np) = both_paths(run)
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

        (out_py, ctr_py), (out_np, ctr_np) = both_paths(run)
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

        (out_py, ctr_py), (out_np, ctr_np) = both_paths(run)
        assert out_py == out_np
        assert ctr_py == ctr_np


def _counters(cu):
    return (cu.bu_ops, cu.load_uops, cu.store_uops, cu.twiddles_generated)


def _lanes(x):
    """A ``(*lead, k, Na)`` atom stack as the C-contiguous ``(Na, L, k)``
    operand of the lane-major C1/C1N kernels."""
    return np.ascontiguousarray(np.moveaxis(x, -1, 0)).reshape(
        x.shape[-1], -1, x.shape[-2])


class TestStackedKernelsMatchScalar:
    """Each stacked lane kernel a compiled plan runs equals ``k`` scalar
    ComputeUnit calls per bank: every row's values and, summed over the
    stack, all four µ-op counters.  Operands are raw words, about one in
    five ``>= q`` (entry reduction), or words below ``q`` passed with
    ``reduced=True``, which skips the kernels' scan."""

    NA = 8

    @pytest.mark.parametrize("q", [Q_SMALL, Q_32, Q_WIDE, Q_EDGE])
    @pytest.mark.parametrize("kernel", ["c1", "c2", "c2-gs", "c1n",
                                        "c1n-gs", "bu"])
    def test_kernel_matches_scalar_calls(self, kernel, q):
        na, gs = self.NA, kernel.endswith("-gs")
        rng = random.Random(f"{kernel}-{q}")

        def draw():
            return rng.randrange(1, q)

        # (bank axis, k): one command, a fused group, a group per bank;
        # rows with their own twiddles or one shared set; raw or
        # reduced words (BU_SCALAR takes no reduced flag).
        for (lead, k), shared, reduced in itertools.product(
                [((), 1), ((), 3), ((2,), 3)], (False, True),
                (False,) if kernel == "bu" else (False, True)):
            rows = 2 * k if lead else k
            x, y = (np.array([rng.randrange(2**64)
                              if not reduced and rng.random() < 0.2
                              else rng.randrange(q)
                              for _ in range(rows * na)],
                             dtype=np.uint64).reshape(lead + (k, na))
                    for _ in range(2))
            xr, yr = x.reshape(rows, na).tolist(), y.reshape(rows, na).tolist()

            def per_row(make):
                return [make()] * k if shared else [make() for _ in range(k)]

            w0, w1 = per_row(draw), per_row(draw)
            zetas = per_row(lambda: tuple(draw() for _ in range(na - 1)))
            # stacked(cu) -> output legs shaped (*lead, k, ...);
            # scalar(cu, row, j) -> the same legs of one command j.
            if kernel == "c1":
                def stacked(cu):
                    xt = _lanes(x)
                    cu.execute_c1_lanes(xt, vector.c1_lanes_wpack(q, w0, na),
                                        reduced=reduced)
                    return [xt.transpose(1, 2, 0)]

                def scalar(cu, r, j):
                    return [cu.execute_c1(xr[r], w0[j], 0)]
            elif kernel.startswith("c2"):
                def stacked(cu):
                    return cu.execute_c2_stack(
                        x, y, vector.c2_stack_wpack(q, w0, w1, na), gs=gs,
                        reduced=reduced)

                def scalar(cu, r, j):
                    return list(cu.execute_c2(xr[r], yr[r], w0[j], w1[j],
                                              gs=gs))
            elif kernel.startswith("c1n"):
                def stacked(cu):
                    xt = _lanes(x)
                    cu.execute_c1n_lanes(xt, vector.c1n_lanes_zpack(q, zetas),
                                         gs=gs, reduced=reduced)
                    return [xt.transpose(1, 2, 0)]

                def scalar(cu, r, j):
                    return [cu.execute_c1n(xr[r], zetas[j], gs=gs)]
            else:  # bu: lane 0 of x is reg_a, lane 0 of y the buffer lane
                def stacked(cu):
                    return cu.execute_bu_stack(
                        x[..., 0], y[..., 0], np.array(w0, dtype=np.uint64))

                def scalar(cu, r, j):
                    cu.reg_a = xr[r][0]
                    return [[value] for value in cu.bu_scalar(yr[r][0],
                                                              w0[j])]

            cu_stack, cu_scalar = ComputeUnit(na), ComputeUnit(na)
            cu_stack.set_modulus(q)
            cu_scalar.set_modulus(q)
            got = [list(legs) for legs in zip(*(
                leg.reshape(rows, -1).tolist() for leg in stacked(cu_stack)))]
            want = [scalar(cu_scalar, r, r % k) for r in range(rows)]
            case = (lead, k, shared, reduced)
            assert got == want, case
            assert _counters(cu_stack) == _counters(cu_scalar), case


class TestShoupBoundaries:
    """The division-free kernels (``q < 2**32``) at their edges: the
    smallest moduli and the largest 32-bit prime, twiddles 1 and
    ``q - 1``, and operands 0, ``q - 1`` and raw words ``>= 2**63``
    (entry reduction).  Each stacked kernel equals the scalar CU."""

    NA = 8

    @pytest.mark.parametrize("q", [3, 97, 12289, 2**32 - 5])
    @pytest.mark.parametrize("twiddle", ["one", "minus-one"])
    @pytest.mark.parametrize("kernel", ["c1", "c2", "c2-gs", "c1n",
                                        "c1n-gs", "bu"])
    def test_kernel_matches_scalar_at_edges(self, kernel, twiddle, q):
        na, gs, k = self.NA, kernel.endswith("-gs"), 3
        w = 1 if twiddle == "one" else q - 1
        edges = [0, q - 1, 2**63, 2**64 - 1, 2**63 + q - 1]
        # A two-bank stack of k atoms; x and y pair the edges up
        # differently lane by lane.
        xr = [[edges[(r * na + j) % 5] for j in range(na)]
              for r in range(2 * k)]
        yr = [[edges[(r * na + 3 * j + 2) % 5] for j in range(na)]
              for r in range(2 * k)]
        x, y = (np.array(rows, dtype=np.uint64).reshape(2, k, na)
                for rows in (xr, yr))
        cu_stack, cu_scalar = ComputeUnit(na), ComputeUnit(na)
        cu_stack.set_modulus(q)
        cu_scalar.set_modulus(q)
        if kernel == "c1":
            xt = _lanes(x)
            cu_stack.execute_c1_lanes(xt, vector.c1_lanes_wpack(q, [w] * k,
                                                                na))
            got = [xt.transpose(1, 2, 0)]
            want = [[cu_scalar.execute_c1(row, w, 0)] for row in xr]
        elif kernel.startswith("c2"):
            got = cu_stack.execute_c2_stack(
                x, y, vector.c2_stack_wpack(q, [w] * k, [w] * k, na), gs=gs)
            want = [list(cu_scalar.execute_c2(p, s, w, w, gs=gs))
                    for p, s in zip(xr, yr)]
        elif kernel.startswith("c1n"):
            xt = _lanes(x)
            cu_stack.execute_c1n_lanes(
                xt, vector.c1n_lanes_zpack(q, [(w,) * (na - 1)] * k), gs=gs)
            got = [xt.transpose(1, 2, 0)]
            want = [[cu_scalar.execute_c1n(row, (w,) * (na - 1), gs=gs)]
                    for row in xr]
        else:  # bu: lane 0 of x is reg_a, lane 0 of y the buffer lane
            got = cu_stack.execute_bu_stack(
                x[..., 0], y[..., 0],
                vector.lane_twiddles(np.full(k, w, dtype=np.uint64), q))
            want = []
            for p, s in zip(xr, yr):
                cu_scalar.reg_a = p[0]
                want.append([[v] for v in cu_scalar.bu_scalar(s[0], w)])
        got = [list(legs) for legs in zip(*(
            leg.reshape(2 * k, -1).tolist() for leg in got))]
        assert got == want
        assert _counters(cu_stack) == _counters(cu_scalar)


def _pack_arrays(pack):
    """The arrays of a lane-kernel twiddle pack (a plain array, a Shoup
    pair, or a tuple of either per stage)."""
    if isinstance(pack, np.ndarray):
        return [pack]
    return [a for part in pack for a in _pack_arrays(part)]


class TestLaneMajorKernels:
    """A plan runs a C1 or C1N group lane-major on an ``(Na, L, k)``
    stack of ``L`` banks (the atom plan) or on one bank's ``(Na, 1, k)``
    transpose of its ``(k, Na)`` gather (the Nb=1 lane plan's ``lc1``).
    On raw words, ``>= q`` (entry reduction) included, the stacked call
    equals ``L`` one-bank calls in values and summed µ-op counters, and
    leaves its twiddle pack, which a warm plan caches and reuses, as it
    found it."""

    NA = 8

    @pytest.mark.parametrize("q", [Q_SMALL, Q_32, Q_WIDE, Q_EDGE])
    @pytest.mark.parametrize("kernel", ["c1", "c1-rows", "c1n", "c1n-gs"])
    def test_lane_major_equals_stacked(self, kernel, q):
        na, k, banks = self.NA, 5, 3
        rng = random.Random(f"{kernel}-{q}")
        x = np.array([rng.randrange(2**64) if rng.random() < 0.2
                      else rng.randrange(q) for _ in range(banks * k * na)],
                     dtype=np.uint64).reshape(banks, k, na)
        gs = kernel.endswith("-gs")
        if kernel.startswith("c1n"):
            pack = vector.c1n_lanes_zpack(
                q, [tuple(rng.randrange(1, q) for _ in range(na - 1))
                    for _ in range(k)])
        else:
            omegas = ([rng.randrange(1, q)] * k if kernel == "c1"
                      else [rng.randrange(1, q) for _ in range(k)])
            pack = vector.c1_lanes_wpack(q, omegas, na)
        before = [a.copy() for a in _pack_arrays(pack)]

        def run(cu, xt):
            if kernel.startswith("c1n"):
                cu.execute_c1n_lanes(xt, pack, gs=gs)
            else:
                cu.execute_c1_lanes(xt, pack)

        cu_stack, cu_banks = ComputeUnit(na), ComputeUnit(na)
        cu_stack.set_modulus(q)
        cu_banks.set_modulus(q)
        stacked = _lanes(x)
        run(cu_stack, stacked)
        per_bank = []
        for bank in x:
            xt = np.ascontiguousarray(bank.T)
            run(cu_banks, xt[:, None, :])
            per_bank.append(xt.T.tolist())
        assert stacked.transpose(1, 2, 0).tolist() == per_bank
        assert _counters(cu_stack) == _counters(cu_banks)
        after = _pack_arrays(pack)
        assert len(after) == len(before)
        assert all(np.array_equal(a, b) for a, b in zip(after, before))


@pytest.mark.parametrize("bits", [32, 40, 60])
def test_c2_twiddle_pack_equals_per_row_runs(bits):
    """The C2 pack steps every row's ``omega0 * r_omega^j`` lanes at
    once; each row must equal the memoized per-row run, and the pack is
    the same rows laid out for a view."""
    q = find_ntt_prime(64, bits)
    rng = random.Random(bits)
    k, na = 12, 8
    omega0s = [rng.randrange(q) for _ in range(k - 2)] + [0, q + 5]
    r_omegas = [rng.randrange(q) for _ in range(k - 2)] + [2**64 + 3, 1]
    want = np.stack([vector._geom_run_arr(w, r, na, q)
                     for w, r in zip(omega0s, r_omegas)])
    got = vector.c2_stack_wpack(q, omega0s, r_omegas, na)
    shaped = vector.c2_stack_wpack(q, omega0s, r_omegas, na,
                                   shape=(3, 4, na))
    if bits == 32:
        got, shaped = got.w, shaped.w
    assert got.tolist() == want.tolist()
    assert shaped.tolist() == want.reshape(3, 4, na).tolist()


@pytest.mark.parametrize("kind", ["ntt", "negacyclic"])
def test_per_command_bank_uses_no_lane_kernel(monkeypatch, kind):
    """``PimBank.run`` is the scalar ground truth on the numpy backend
    too: with every lane kernel of ``repro.arith.vector`` patched to
    raise, a mapped N=256 program still runs to the golden output."""
    from repro.pim.bank_pim import PimBank
    from repro.sim import SimConfig, TransformSpec

    n = 256
    q = find_ntt_prime(n, 32, negacyclic=True)
    spec = (TransformSpec(params=NttParams(n, q)) if kind == "ntt" else
            TransformSpec(kind="negacyclic", ring=NegacyclicParams(n, q)))
    config = SimConfig()
    program = spec.program(config, 0)
    commands = list(program.commands)
    rng = random.Random(n)
    x = [rng.randrange(q) for _ in range(n)]
    image = list(spec.load_layout(x))
    expected = list(spec.expected(x))

    def forbidden(*args, **kwargs):
        raise AssertionError("per-command execution reached a lane kernel")

    keep = {"lanes_supported", "is_array"}
    for name in vector.__all__:
        if name not in keep and callable(getattr(vector, name)):
            monkeypatch.setattr(vector, name, forbidden)
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(program.base_row, image)
    bank.run(commands)
    out = bank.read_polynomial(program.result_base_row, n)
    assert out == expected


class TestDriverBothBackends:
    """The full mapped-command verify path passes on either compute
    path."""

    @pytest.mark.parametrize("path", ["python", "numpy"])
    def test_run_ntt_verifies(self, path):
        n = 512
        params = NttParams(n, Q_SMALL)
        rng = random.Random(5)
        x = [rng.randrange(Q_SMALL) for _ in range(n)]
        with on_path(path):
            result = Simulator().run(NttRequest(params=params, values=x))
        assert result.verified

    def test_run_ntt_outputs_identical(self):
        n = 512
        params = NttParams(n, Q_SMALL)
        rng = random.Random(6)
        x = [rng.randrange(Q_SMALL) for _ in range(n)]
        py, np_ = both_paths(
            lambda: Simulator().run(NttRequest(params=params, values=x)))
        assert py.values == np_.values
        assert py.counters["bu_ops"] == np_.counters["bu_ops"]
        assert py.cycles == np_.cycles

    @pytest.mark.parametrize("path", ["python", "numpy"])
    def test_negacyclic_driver_verifies(self, path):
        n = 256
        q = find_ntt_prime(n, 31, negacyclic=True)
        ring = NegacyclicParams(n, q)
        rng = random.Random(8)
        x = [rng.randrange(q) for _ in range(n)]
        with on_path(path):
            result = Simulator().run(NegacyclicRequest(ring=ring, values=x))
        assert result.verified


def test_scalar_path_runs_no_lane_kernel(monkeypatch):
    """``scalar_path`` sends a whole ``Simulator.run`` down the scalar
    route: with the stacked kernels and the array golden NTT patched to
    raise, an N=512 NTT still replays its commands one by one through
    ``PimBank.run`` and verifies."""
    from repro.pim.bank_pim import PimBank

    def forbidden(*args, **kwargs):
        raise AssertionError("the scalar path reached a lane kernel")

    for name in ("c1_lanes_arr", "c2_stack_arr", "c1n_lanes_arr",
                 "ntt_dit_bitrev"):
        monkeypatch.setattr(vector, name, forbidden)
    per_command = []
    real_run = PimBank.run

    def run(self, commands):
        per_command.append(len(commands))
        real_run(self, commands)

    monkeypatch.setattr(PimBank, "run", run)
    n = 512
    params = NttParams(n, Q_SMALL)
    rng = random.Random(9)
    x = [rng.randrange(Q_SMALL) for _ in range(n)]
    with scalar_path():
        result = Simulator().run(NttRequest(params=params, values=x))
    assert result.verified
    assert per_command == [result.command_count]


Q_NO_LANES = find_ntt_prime(16, 64)   # >= 2^63: past every lane regime
_SCALAR_ONLY = {
    "mod_add_vec": lambda x: mod_add_vec(x, x[::-1], Q_NO_LANES),
    "mod_sub_vec": lambda x: mod_sub_vec(x, x[::-1], Q_NO_LANES),
    "mod_mul_vec": lambda x: mod_mul_vec(x, x[::-1], Q_NO_LANES),
    "mod_scale_vec": lambda x: mod_scale_vec(x, Q_NO_LANES - 2, Q_NO_LANES),
    "ntt": lambda x: ntt(x, NttParams(16, Q_NO_LANES)),
    "intt": lambda x: intt(x, NttParams(16, Q_NO_LANES)),
    "merged_negacyclic_ntt": lambda x: merged_negacyclic_ntt(
        x, NegacyclicParams(16, Q_NO_LANES)),
    "merged_negacyclic_intt": lambda x: merged_negacyclic_intt(
        x, NegacyclicParams(16, Q_NO_LANES)),
}


@pytest.mark.parametrize("name", list(_SCALAR_ONLY))
def test_scalar_fallback_takes_uint64_arrays(name):
    """A modulus the lanes cannot hold runs the scalar loops, and a
    uint64 array there gives the values of the equal list — its NumPy
    scalars must not reach the arithmetic, where they wrap at 2**64."""
    assert not vector.lanes_supported(Q_NO_LANES)
    rng = random.Random(name)
    x = [rng.randrange(Q_NO_LANES) for _ in range(16)]
    fn = _SCALAR_ONLY[name]
    assert [int(v) for v in fn(np.array(x, dtype=np.uint64))] == fn(x)
