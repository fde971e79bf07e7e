"""Tests for the command-stepped timing engine."""

import pytest

from repro.dram import (
    Command,
    CommandType,
    ComputeTiming,
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
)
from repro.errors import MappingError

ACT = CommandType.ACT
PRE = CommandType.PRE
CU_READ = CommandType.CU_READ
CU_WRITE = CommandType.CU_WRITE
C1 = CommandType.C1
C2 = CommandType.C2


def engine():
    return TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())


def act(row, **kw):
    return Command(ACT, row=row, **kw)


def rd(row, col, buf, **kw):
    return Command(CU_READ, row=row, col=col, buf=buf, **kw)


def wr(row, col, buf, **kw):
    return Command(CU_WRITE, row=row, col=col, buf=buf, **kw)


class TestBasicConstraints:
    def test_act_to_column_trcd(self):
        res = engine().simulate([act(0), rd(0, 0, 0)])
        assert res.timings[1].issue - res.timings[0].issue >= HBM2E_TIMING.trcd

    def test_read_completion_cl_plus_burst(self):
        res = engine().simulate([act(0), rd(0, 0, 0)])
        t = res.timings[1]
        assert t.complete - t.issue == HBM2E_TIMING.cl + HBM2E_TIMING.burst

    def test_tccd_between_columns(self):
        res = engine().simulate([act(0), rd(0, 0, 0), rd(0, 1, 1)])
        assert (res.timings[2].issue - res.timings[1].issue
                >= HBM2E_TIMING.tccd)

    def test_tras_before_precharge(self):
        res = engine().simulate([act(0), Command(PRE)])
        assert (res.timings[1].issue - res.timings[0].issue
                >= HBM2E_TIMING.tras)

    def test_twr_after_write(self):
        res = engine().simulate([act(0), wr(0, 0, 0), Command(PRE)])
        write_data_end = res.timings[1].complete
        assert res.timings[2].issue >= write_data_end + HBM2E_TIMING.twr

    def test_trp_between_pre_and_act(self):
        res = engine().simulate([act(0), Command(PRE), act(1)])
        assert res.timings[2].issue - res.timings[1].issue >= HBM2E_TIMING.trp

    def test_bus_one_command_per_cycle(self):
        res = engine().simulate([act(0), rd(0, 0, 0), rd(0, 1, 1)])
        issues = [t.issue for t in res.timings]
        assert all(b > a for a, b in zip(issues, issues[1:]))


class TestComputeCommands:
    def test_c1_latency(self):
        res = engine().simulate(
            [Command(C1, buf=0, omega0=1)])
        t = res.timings[0]
        assert t.complete - t.issue == 15

    def test_c2_latency(self):
        res = engine().simulate([Command(C2, buf=0, buf2=1, omega0=1, r_omega=1)])
        t = res.timings[0]
        assert t.complete - t.issue == 10

    def test_cu_serializes_compute(self):
        res = engine().simulate([
            Command(C1, buf=0, omega0=1),
            Command(C1, buf=1, omega0=1),
        ])
        assert res.timings[1].issue >= res.timings[0].complete

    def test_compute_overlaps_column_access(self):
        """The pipelining premise: C1 on one buffer runs while the next
        read streams into another buffer."""
        res = engine().simulate([
            act(0),
            rd(0, 0, 0),
            Command(C1, buf=0, omega0=1, deps=(1,)),
            rd(0, 1, 1),
        ])
        c1_t, rd2_t = res.timings[2], res.timings[3]
        assert rd2_t.issue < c1_t.complete  # overlap happened

    def test_dependency_stalls_compute(self):
        res = engine().simulate([
            act(0),
            rd(0, 0, 0),
            Command(C1, buf=0, omega0=1, deps=(1,)),
        ])
        assert res.timings[2].issue >= res.timings[1].complete

    def test_scalar_uop_latencies(self):
        res = engine().simulate([
            Command(CommandType.LOAD_SCALAR, buf=0, lane=0),
            Command(CommandType.BU_SCALAR, buf=0, lane=0, omega0=1),
            Command(CommandType.STORE_SCALAR, buf=0, lane=0),
        ])
        durations = [t.complete - t.issue for t in res.timings]
        assert durations == [2, 10, 2]

    def test_param_write_latency(self):
        res = engine().simulate(
            [Command(CommandType.PARAM_WRITE, payload_words=6)])
        t = res.timings[0]
        assert t.complete - t.issue == 4

    def test_the_default_engine_prices_compute_at_the_synthesized_values(
            self):
        """The engine's own table is the one set of CU latencies: the
        bank parameters carry the buffer count only."""
        from dataclasses import fields

        from repro.pim import PimParams
        assert [item.name for item in fields(PimParams)] == ["nb_buffers"]
        program = [Command(CommandType.PARAM_WRITE, payload_words=6),
                   Command(C1, buf=0, omega0=1),
                   Command(C2, buf=0, buf2=1, omega0=1, r_omega=1),
                   Command(CommandType.LOAD_SCALAR, buf=0, lane=0),
                   Command(CommandType.BU_SCALAR, buf=0, lane=0, omega0=1),
                   Command(CommandType.STORE_SCALAR, buf=0, lane=0)]
        default = TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(program)
        assert [t.complete - t.issue for t in default.timings] == \
            [4, 15, 10, 2, 10, 2]
        assert default == engine().simulate(program)


class TestValidation:
    def test_column_without_act(self):
        with pytest.raises(MappingError):
            engine().simulate([rd(0, 0, 0)])

    def test_column_wrong_row(self):
        with pytest.raises(MappingError):
            engine().simulate([act(0), rd(1, 0, 0)])

    def test_double_act(self):
        with pytest.raises(MappingError):
            engine().simulate([act(0), act(1)])

    def test_pre_without_act(self):
        with pytest.raises(MappingError):
            engine().simulate([Command(PRE)])

    def test_forward_dependency_rejected(self):
        with pytest.raises(MappingError):
            engine().simulate([Command(C1, buf=0, omega0=1, deps=(5,))])


class TestStatsAndEnergy:
    def test_command_counts(self):
        res = engine().simulate([act(0), rd(0, 0, 0), wr(0, 0, 0),
                                 Command(PRE)])
        c = res.stats.command_counts
        assert c == {"ACT": 1, "CU_READ": 1, "CU_WRITE": 1, "PRE": 1}
        assert res.stats.activations == 1
        assert res.stats.column_accesses == 2

    def test_energy_positive_and_monotone(self):
        short = engine().simulate([act(0), rd(0, 0, 0)])
        long = engine().simulate([act(0), rd(0, 0, 0), rd(0, 1, 1),
                                  rd(0, 2, 2)])
        assert 0 < short.energy_nj < long.energy_nj

    def test_latency_unit_conversions(self):
        res = engine().simulate([act(0), rd(0, 0, 0)])
        assert res.latency_ns == pytest.approx(res.total_cycles * 1000 / 1200)
        assert res.latency_us == pytest.approx(res.latency_ns / 1000)

    def test_multibank_independent_rows(self):
        """Two banks can hold different open rows concurrently."""
        res = engine().simulate([
            act(0, bank=0),
            act(5, bank=1),
            rd(0, 0, 0, bank=0),
            rd(5, 0, 0, bank=1),
        ])
        assert res.stats.activations == 2

    def test_multibank_shares_command_bus(self):
        res = engine().simulate([act(0, bank=0), act(5, bank=1)])
        assert res.timings[1].issue > res.timings[0].issue
