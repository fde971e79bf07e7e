"""Tests for bank-level parallelism."""

import random

import pytest

from repro.api import MultiBankRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.dram import Command, CommandType
from repro.pim import PimParams
from repro.sim import SimConfig, interleave_programs
from repro.sim.driver import _run_dispatch
from repro.sim.multibank import TransformSpec

Q = find_ntt_prime(1024, 32)


class TestInterleave:
    def test_round_robin_order(self):
        a = [Command(CommandType.ACT, bank=0, row=0),
             Command(CommandType.PRE, bank=0)]
        b = [Command(CommandType.ACT, bank=1, row=5)]
        merged = interleave_programs([a, b])
        assert [c.bank for c in merged] == [0, 1, 0]

    def test_dependencies_remapped(self):
        prog = [
            Command(CommandType.ACT, bank=0, row=0),
            Command(CommandType.CU_READ, bank=0, row=0, col=0, buf=0,
                    deps=(0,)),
        ]
        other = [Command(CommandType.ACT, bank=1, row=1)]
        merged = interleave_programs([prog, other])
        # prog[1] lands at merged index 2 and must point at merged index 0.
        assert merged[2].deps == (0,)
        assert merged[2].bank == 0

    def test_unequal_lengths(self):
        a = [Command(CommandType.ACT, bank=0, row=0)] * 3
        b = [Command(CommandType.ACT, bank=1, row=0)]
        merged = interleave_programs([a, b])
        assert len(merged) == 4
        assert [c.bank for c in merged] == [0, 1, 0, 0]


class TestMultiBankRuns:
    def test_two_banks_verified(self):
        rng = random.Random(1)
        n = 256
        params = NttParams(n, Q)
        inputs = [[rng.randrange(Q) for _ in range(n)] for _ in range(2)]
        result = _run_dispatch([[x] for x in inputs],
                               [TransformSpec(params=params)] * len(inputs),
                               SimConfig())
        assert result.verified
        assert result.banks == 2

    def test_near_linear_speedup(self):
        n = 512
        params = NttParams(n, Q)
        config = SimConfig(pim=PimParams(nb_buffers=2),
                           functional=False)
        result = Simulator(config).run(
            MultiBankRequest(params=params, inputs=[[0] * n] * 4))
        assert result.metrics["speedup"] > 3.0
        assert 0.75 <= result.metrics["efficiency"] <= 1.01

    def test_single_bank_degenerate(self):
        n = 256
        params = NttParams(n, Q)
        config = SimConfig(functional=False)
        result = Simulator(config).run(
            MultiBankRequest(params=params, inputs=[[0] * n]))
        assert result.metrics["speedup"] == pytest.approx(1.0)

    def test_parallel_not_slower_than_serial(self):
        n = 256
        params = NttParams(n, Q)
        config = SimConfig(functional=False)
        parallel = _run_dispatch([[[0] * n]] * 8,
                                 [TransformSpec(params=params)] * 8, config)
        assert parallel.cycles < 8 * parallel.single_cycles

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            _run_dispatch([], [], SimConfig())

    def test_different_data_per_bank(self):
        rng = random.Random(2)
        n = 256
        params = NttParams(n, Q)
        inputs = [[rng.randrange(Q) for _ in range(n)] for _ in range(3)]
        result = _run_dispatch([[x] for x in inputs],
                               [TransformSpec(params=params)] * len(inputs),
                               SimConfig())
        assert result.verified  # each bank independently checked
