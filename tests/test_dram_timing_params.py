"""Tests for DRAM geometry/timing parameters (Table I)."""

import pytest

from repro.dram import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams


class TestArchParams:
    def test_table1_geometry(self):
        assert HBM2E_ARCH.atom_bytes == 32
        assert HBM2E_ARCH.columns_per_row == 32
        assert HBM2E_ARCH.rows_per_bank == 32768

    def test_derived_quantities(self):
        assert HBM2E_ARCH.words_per_atom == 8      # Na
        assert HBM2E_ARCH.words_per_row == 256     # R
        assert HBM2E_ARCH.row_bytes == 1024        # 1 KB row buffer
        assert HBM2E_ARCH.log_words_per_atom == 3
        assert HBM2E_ARCH.log_words_per_row == 8

    def test_bank_capacity(self):
        assert HBM2E_ARCH.bank_words == 32768 * 256

    def test_atom_must_be_whole_words(self):
        with pytest.raises(ValueError):
            ArchParams(atom_bytes=30)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            ArchParams(columns_per_row=0)


class TestTimingParams:
    def test_table1_timing(self):
        t = HBM2E_TIMING
        assert (t.cl, t.tccd, t.trp, t.tras, t.trcd, t.twr) == (
            14, 2, 14, 34, 14, 16)
        assert t.freq_mhz == 1200.0

    def test_cycle_ns(self):
        assert HBM2E_TIMING.cycle_ns == pytest.approx(1000.0 / 1200.0)

    def test_conversions_roundtrip(self):
        t = HBM2E_TIMING
        assert t.ns_to_cycles(t.cycles_to_ns(100)) == 100
        assert t.cycles_to_us(1200) == pytest.approx(1.0)

    def test_negative_params_rejected(self):
        with pytest.raises(ValueError):
            TimingParams(cl=-1)
        with pytest.raises(ValueError):
            TimingParams(freq_mhz=0)


class TestRetiming:
    """Fig. 8's rule: DRAM ns constant, CU cycles constant."""

    def test_same_frequency_is_identity(self):
        assert HBM2E_TIMING.retimed(1200.0) == HBM2E_TIMING

    def test_half_frequency_halves_cycle_counts(self):
        t = HBM2E_TIMING.retimed(600.0)
        assert t.cl == 7
        assert t.trp == 7
        assert t.tras == 17
        assert t.trcd == 7
        assert t.twr == 8
        assert t.tccd == 1

    def test_ns_durations_preserved_within_rounding(self):
        for freq in (300.0, 600.0, 900.0):
            t = HBM2E_TIMING.retimed(freq)
            for name in ("cl", "trp", "tras", "trcd", "twr"):
                original_ns = HBM2E_TIMING.cycles_to_ns(
                    getattr(HBM2E_TIMING, name))
                new_ns = t.cycles_to_ns(getattr(t, name))
                # Rounded up to whole cycles: never shorter, at most one
                # cycle longer.
                assert new_ns >= original_ns - 1e-9
                assert new_ns <= original_ns + t.cycle_ns

    def test_minimum_one_cycle(self):
        t = HBM2E_TIMING.retimed(100.0)
        assert t.tccd >= 1

    def test_bad_frequency(self):
        with pytest.raises(ValueError):
            HBM2E_TIMING.retimed(-5)
