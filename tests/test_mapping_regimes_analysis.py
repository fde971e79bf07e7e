"""Tests for regime classification and the command-count forecasts."""

import pytest

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.dram import HBM2E_ARCH
from repro.mapping import (
    Regime,
    forecast_multi_buffer,
    forecast_single_buffer,
    profile_regimes,
    regime_of_stage,
)
from repro.pim import PimParams
from repro.sim import SimConfig

Q = find_ntt_prime(8192, 32)


class TestRegimeOfStage:
    def test_boundaries(self):
        # Na = 8 -> stages 1..3 intra-atom; R = 256 -> stages 4..8 intra-row.
        assert regime_of_stage(1, HBM2E_ARCH) is Regime.INTRA_ATOM
        assert regime_of_stage(3, HBM2E_ARCH) is Regime.INTRA_ATOM
        assert regime_of_stage(4, HBM2E_ARCH) is Regime.INTRA_ROW
        assert regime_of_stage(8, HBM2E_ARCH) is Regime.INTRA_ROW
        assert regime_of_stage(9, HBM2E_ARCH) is Regime.INTER_ROW

    def test_invalid_stage(self):
        with pytest.raises(ValueError):
            regime_of_stage(0, HBM2E_ARCH)


class TestProfile:
    def test_small_n_all_in_row(self):
        p = profile_regimes(256, HBM2E_ARCH)
        assert (p.intra_atom_stages, p.intra_row_stages, p.inter_row_stages) \
            == (3, 5, 0)

    def test_large_n(self):
        p = profile_regimes(8192, HBM2E_ARCH)
        assert (p.intra_atom_stages, p.intra_row_stages, p.inter_row_stages) \
            == (3, 5, 5)
        assert p.total_stages == 13

    def test_inter_row_fraction_grows(self):
        fracs = [profile_regimes(n, HBM2E_ARCH).inter_row_fraction
                 for n in (256, 512, 2048, 8192)]
        assert fracs == sorted(fracs)

    def test_tiny_n(self):
        p = profile_regimes(8, HBM2E_ARCH)
        assert (p.intra_atom_stages, p.intra_row_stages, p.inter_row_stages) \
            == (3, 0, 0)

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            profile_regimes(100, HBM2E_ARCH)
        with pytest.raises(ValueError):
            profile_regimes(4, HBM2E_ARCH)


@pytest.mark.parametrize("n", [256, 512, 1024, 2048])
@pytest.mark.parametrize("nb", [2, 4, 6])
class TestMultiBufferForecast:
    """The closed-form command mix must match the simulation exactly."""

    def test_forecast_matches_simulation(self, n, nb):
        pim = PimParams(nb_buffers=nb)
        forecast = forecast_multi_buffer(n, HBM2E_ARCH, pim)
        config = SimConfig(pim=pim, functional=False)
        run = Simulator(config).run(NttRequest(params=NttParams(n, Q)))
        counts = run.schedule.stats.command_counts
        assert counts.get("ACT", 0) == forecast.activations
        assert counts.get("CU_READ", 0) == forecast.cu_reads
        assert counts.get("CU_WRITE", 0) == forecast.cu_writes
        assert counts.get("C1", 0) == forecast.c1_ops
        assert counts.get("C2", 0) == forecast.c2_ops


@pytest.mark.parametrize("n", [256, 512, 1024])
class TestSingleBufferForecast:
    def test_forecast_matches_simulation(self, n):
        forecast = forecast_single_buffer(n, HBM2E_ARCH)
        config = SimConfig(pim=PimParams(nb_buffers=1),
                           functional=False)
        run = Simulator(config).run(NttRequest(params=NttParams(n, Q)))
        counts = run.schedule.stats.command_counts
        scalar = sum(counts.get(k, 0) for k in
                     ("LOAD_SCALAR", "BU_SCALAR", "STORE_SCALAR"))
        assert counts.get("ACT", 0) == forecast.activations
        assert counts.get("CU_READ", 0) == forecast.cu_reads
        assert counts.get("CU_WRITE", 0) == forecast.cu_writes
        assert counts.get("C1", 0) == forecast.c1_ops
        assert scalar == forecast.scalar_ops


class TestActivationScaling:
    """Sec. III.C / V arithmetic: grouping divides inter-row ACTs."""

    def test_one_activation_when_fits_in_row(self):
        f = forecast_multi_buffer(256, HBM2E_ARCH, PimParams(nb_buffers=2))
        assert f.activations == 1

    def test_grouping_halves_inter_row_activations(self):
        f2 = forecast_multi_buffer(4096, HBM2E_ARCH, PimParams(nb_buffers=2))
        f4 = forecast_multi_buffer(4096, HBM2E_ARCH, PimParams(nb_buffers=4))
        # Phase A is identical (16 rows); the inter-row part halves.
        inter2 = f2.activations - 16
        inter4 = f4.activations - 16
        assert inter4 < 0.6 * inter2

    def test_single_buffer_is_activation_catastrophe(self):
        f1 = forecast_single_buffer(2048, HBM2E_ARCH)
        f2 = forecast_multi_buffer(2048, HBM2E_ARCH, PimParams(nb_buffers=2))
        assert f1.activations > 5 * f2.activations

    def test_column_traffic_ratio(self):
        """Nb=1 moves ~Na/2 x more atoms per inter-atom stage."""
        f1 = forecast_single_buffer(1024, HBM2E_ARCH)
        f2 = forecast_multi_buffer(1024, HBM2E_ARCH, PimParams(nb_buffers=2))
        assert f1.column_accesses > 3 * f2.column_accesses
