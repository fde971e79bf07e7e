"""Cross-module integration and property tests: the whole pipeline from
host values through mapping, timing, functional execution and back."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import NttParams, find_ntt_prime, ntt_prime_candidates
from repro.baselines import numpy_ntt
from repro.dram import CommandType
from repro.mapping.mapper import MapperOptions
from repro.ntt import cyclic_convolution, intt, ntt
from repro.pim import PimParams
from repro.api import NttRequest, Simulator
from repro.sim import SimConfig, TransformSpec

Q32 = find_ntt_prime(8192, 32)


def run(values, params, config=None, inverse=False):
    return Simulator(config).run(NttRequest(params=params, values=values,
                                            inverse=inverse))


class TestEndToEndAgreement:
    """PIM, numpy and pure-python golden models all agree."""

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_three_way_agreement(self, n):
        rng = random.Random(n)
        params = NttParams(n, Q32)
        x = [rng.randrange(Q32) for _ in range(n)]
        golden = ntt(x, params)
        assert numpy_ntt(x, params) == golden
        assert run(x, params).values == golden

    def test_pim_convolution_pipeline(self):
        """Polynomial product via two PIM NTTs + host pointwise + PIM INTT."""
        n = 256
        params = NttParams(n, Q32)
        rng = random.Random(42)
        a = [rng.randrange(Q32) for _ in range(n)]
        b = [rng.randrange(Q32) for _ in range(n)]
        fa = run(a, params).values
        fb = run(b, params).values
        prod = [(x * y) % Q32 for x, y in zip(fa, fb)]
        got = run(prod, params, inverse=True).values
        assert got == cyclic_convolution(a, b, params)

    @pytest.mark.parametrize("bits", [14, 16, 30, 32])
    def test_different_modulus_widths(self, bits):
        """Sec. VI.E flexibility: arbitrary (NTT-friendly) moduli work."""
        n = 64
        q = find_ntt_prime(n, bits)
        params = NttParams(n, q)
        rng = random.Random(bits)
        x = [rng.randrange(q) for _ in range(n)]
        assert run(x, params).verified

    def test_multiple_moduli_same_machine(self):
        """FHE runs many NTTs with different q (RNS limbs) — the PARAM
        mechanism must isolate them."""
        n = 128
        for q in ntt_prime_candidates(n, 30, 3):
            params = NttParams(n, q)
            rng = random.Random(q)
            x = [rng.randrange(q) for _ in range(n)]
            assert run(x, params).verified


class TestSchedulePropertiesAcrossConfigs:
    @pytest.mark.parametrize("nb", [2, 4, 6])
    def test_commands_and_cycles_consistent(self, nb):
        config = SimConfig(pim=PimParams(nb_buffers=nb),
                           functional=False)
        result = run([0] * 1024, NttParams(1024, Q32), config)
        # Bus occupies one cycle per command: makespan >= command count.
        assert result.cycles >= result.command_count
        # All issues strictly ordered (in-order bus).
        issues = [t.issue for t in result.schedule.timings]
        assert all(b > a for a, b in zip(issues, issues[1:]))

    def test_energy_scales_with_work(self):
        config = SimConfig(functional=False)
        runs = [run([0] * n, NttParams(n, Q32), config)
                for n in (256, 1024, 4096)]
        energies = [r.energy_nj for r in runs]
        assert energies == sorted(energies)

    def test_every_column_access_under_open_row(self):
        """Protocol invariant re-checked structurally on the command list."""
        config = SimConfig(functional=False)
        cmds = TransformSpec(params=NttParams(2048, Q32)).program(
            config).commands
        open_row = None
        for c in cmds:
            if c.ctype is CommandType.ACT:
                assert open_row is None
                open_row = c.row
            elif c.ctype is CommandType.PRE:
                assert open_row is not None
                open_row = None
            elif c.ctype.is_column:
                assert c.row == open_row


@given(
    log_n=st.integers(min_value=3, max_value=10),
    nb=st.sampled_from([2, 3, 4, 6]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
def test_property_pim_matches_golden(log_n, nb, seed):
    """For random sizes, buffer counts and data, the PIM equals the
    golden model (the paper's footnote-1 two-way check, fuzzed)."""
    n = 1 << log_n
    params = NttParams(n, Q32)
    rng = random.Random(seed)
    x = [rng.randrange(Q32) for _ in range(n)]
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    assert run(x, params, config).verified


@given(
    log_n=st.integers(min_value=3, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=8, deadline=None)
def test_property_pim_roundtrip(log_n, seed):
    """NTT then INTT on the PIM returns the input."""
    n = 1 << log_n
    params = NttParams(n, Q32)
    rng = random.Random(seed)
    x = [rng.randrange(Q32) for _ in range(n)]
    fwd = run(x, params)
    back = run(fwd.values, params, inverse=True)
    assert back.values == x


@given(nb=st.sampled_from([2, 4, 6]),
       options=st.sampled_from([
           MapperOptions(),
           MapperOptions(in_place_update=False),
           MapperOptions(group_same_row=False),
       ]))
@settings(max_examples=9, deadline=None)
def test_property_ablations_preserve_function(nb, options):
    """No scheduling variant may change the computed transform."""
    n = 512
    params = NttParams(n, Q32)
    rng = random.Random(nb)
    x = [rng.randrange(Q32) for _ in range(n)]
    config = SimConfig(pim=PimParams(nb_buffers=nb), mapper_options=options)
    assert run(x, params, config).verified
