"""Tests for the single-bank driver path and its response records."""

import random

import pytest

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.errors import FunctionalMismatch
from repro.ntt import intt, ntt
from repro.pim import PimParams
from repro.pim.bank_pim import PimBank
from repro.sim import SimConfig

Q = find_ntt_prime(4096, 32)


def run(values, params, config=None, inverse=False):
    return Simulator(config).run(NttRequest(params=params, values=values,
                                            inverse=inverse))


def flip_one_word(monkeypatch):
    """Corrupt the next bank read-back: one output word off by one bit."""
    real_read = PimBank.read_polynomial

    def corrupted(self, base_row, n):
        words = real_read(self, base_row, n)
        words[n // 2] ^= 1
        return words

    monkeypatch.setattr(PimBank, "read_polynomial", corrupted)


class TestRunNtt:
    def test_runs_and_verifies(self):
        rng = random.Random(1)
        n = 256
        x = [rng.randrange(Q) for _ in range(n)]
        result = run(x, NttParams(n, Q))
        assert result.verified
        assert len(result.values) == n
        assert result.values == ntt(x, NttParams(n, Q))

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            run([1, 2, 3], NttParams(256, Q))

    def test_result_metrics_consistent(self):
        result = run([0] * 256, NttParams(256, Q))
        assert result.cycles > 0
        assert result.latency_us == pytest.approx(result.latency_ns / 1000)
        assert result.energy_nj > 0
        assert result.command_count > 0
        assert result.activations == 1
        assert "verified=yes" in result.summary()

    def test_functional_off_skips_data(self):
        config = SimConfig(functional=False, verify=False)
        result = run([0] * 256, NttParams(256, Q), config)
        assert result.values == []
        assert not result.verified
        assert result.cycles > 0

    def test_timing_identical_with_and_without_functional(self):
        on = run([0] * 512, NttParams(512, Q), SimConfig())
        off = run([0] * 512, NttParams(512, Q),
                  SimConfig(functional=False, verify=False))
        assert on.cycles == off.cycles

    def test_bu_op_count_matches_theory(self):
        n = 512
        result = run([0] * n, NttParams(n, Q))
        # N/2 * log N butterflies exactly — full data reuse, no recompute.
        assert result.counters["bu_ops"] == (n // 2) * 9

    def test_verification_catches_corruption(self, monkeypatch):
        """A flipped output word must fail the golden check."""
        n = 256
        rng = random.Random(4)
        x = [rng.randrange(Q) for _ in range(n)]
        flip_one_word(monkeypatch)
        with pytest.raises(FunctionalMismatch):
            run(x, NttParams(n, Q))


class TestInverse:
    def test_intt_roundtrip_via_pim(self):
        rng = random.Random(2)
        n = 256
        params = NttParams(n, Q)
        x = [rng.randrange(Q) for _ in range(n)]
        fwd = run(x, params)
        inv = run(fwd.values, params, inverse=True)
        assert inv.values == x

    def test_intt_matches_reference(self):
        rng = random.Random(3)
        n = 512
        params = NttParams(n, Q)
        y = [rng.randrange(Q) for _ in range(n)]
        inv = run(y, params, inverse=True)
        assert inv.values == intt(y, params)

    def test_lone_inverse_is_golden_checked(self, monkeypatch):
        """A lone inverse NTT is verified exactly like its batched twin:
        it reports ``verified`` and a corrupted result raises."""
        n = 256
        rng = random.Random(5)
        y = [rng.randrange(Q) for _ in range(n)]
        assert run(y, NttParams(n, Q), inverse=True).verified
        flip_one_word(monkeypatch)
        with pytest.raises(FunctionalMismatch):
            run(y, NttParams(n, Q), inverse=True)


class TestFrequencyScaling:
    def test_lower_clock_slower_in_ns_but_tolerant(self):
        base = SimConfig(pim=PimParams(nb_buffers=2),
                         functional=False, verify=False)
        n, params = 2048, NttParams(2048, Q)
        t1200 = run([0] * n, params, base)
        t300 = run([0] * n, params, base.at_frequency(300.0))
        slowdown = t300.latency_ns / t1200.latency_ns
        assert 1.0 < slowdown < 2.5  # paper: ~1.65x for a 4x clock drop

    def test_config_frequency_propagates(self):
        config = SimConfig().at_frequency(600.0)
        assert config.timing.freq_mhz == 600.0
