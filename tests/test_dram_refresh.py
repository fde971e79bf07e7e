"""Tests for the refresh-overhead analysis."""

import pytest

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.dram import HBM2E_TIMING, RefreshParams, refresh_overhead
from repro.sim import SimConfig

Q = find_ntt_prime(8192, 32)


class TestRefreshModel:
    def test_zero_run_zero_overhead(self):
        o = refresh_overhead(0, HBM2E_TIMING)
        assert o.refresh_windows == 0
        assert o.overhead_fraction == 0.0

    def test_short_run_no_refresh(self):
        # Well under one tREFI (3.9 us = 4680 cycles at 1200 MHz).
        o = refresh_overhead(1000, HBM2E_TIMING)
        assert o.refresh_windows == 0
        assert o.total_cycles == 1000

    def test_long_run_accumulates_windows(self):
        trefi = HBM2E_TIMING.ns_to_cycles(3900.0)
        o = refresh_overhead(10 * trefi, HBM2E_TIMING)
        assert o.refresh_windows >= 10
        assert o.stall_cycles == o.refresh_windows * HBM2E_TIMING.ns_to_cycles(260.0)

    def test_fixed_point_convergence(self):
        """Stall time itself can cross refresh boundaries."""
        trefi = HBM2E_TIMING.ns_to_cycles(3900.0)
        o = refresh_overhead(100 * trefi, HBM2E_TIMING)
        # Total with stalls must not require more windows than charged.
        import math
        assert math.floor(o.total_cycles / trefi) <= o.refresh_windows + 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            RefreshParams(trefi_ns=100.0, trfc_ns=200.0)
        with pytest.raises(ValueError):
            refresh_overhead(-1, HBM2E_TIMING)

    def test_overhead_fraction_bounded(self):
        # tRFC/tREFI ~ 6.7%: overhead can never exceed ~8% incl. reopen.
        o = refresh_overhead(10_000_000, HBM2E_TIMING)
        assert 0.0 < o.overhead_fraction < 0.09


class TestRefreshOnNttRuns:
    """The paper ignores refresh; quantify that the omission is benign."""

    @pytest.mark.parametrize("n", [256, 2048, 8192])
    def test_ntt_refresh_overhead_small(self, n):
        config = SimConfig(functional=False, verify=False)
        run = Simulator(config).run(NttRequest(params=NttParams(n, Q)))
        o = refresh_overhead(run.cycles, config.timing)
        assert o.overhead_fraction < 0.09

    def test_large_n_still_under_ten_percent(self):
        config = SimConfig(functional=False, verify=False)
        run = Simulator(config).run(NttRequest(params=NttParams(8192, Q)))
        o = refresh_overhead(run.cycles, config.timing)
        assert o.refresh_windows > 0  # long enough to actually refresh
        assert o.overhead_fraction < 0.09
