"""Simulator-throughput benches: how fast the reproduction itself runs
one full PIM NTT (mapping + timing + functional + verify).  Useful for
tracking regressions in the simulator, not a paper figure."""

import random

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.pim import PimParams
from repro.sim import SimConfig

Q = find_ntt_prime(4096, 32)


def _run(n, nb, functional):
    rng = random.Random(n)
    x = [rng.randrange(Q) for _ in range(n)]
    config = SimConfig(pim=PimParams(nb_buffers=nb), functional=functional)
    return Simulator(config).run(NttRequest(params=NttParams(n, Q), values=x))


def test_sim_full_n1024_nb2(benchmark):
    result = benchmark.pedantic(lambda: _run(1024, 2, True),
                                rounds=2, iterations=1)
    assert result.verified


def test_sim_timing_only_n4096_nb6(benchmark):
    result = benchmark.pedantic(lambda: _run(4096, 6, False),
                                rounds=2, iterations=1)
    assert result.cycles > 0


def test_sim_single_buffer_n512(benchmark):
    result = benchmark.pedantic(lambda: _run(512, 1, True),
                                rounds=1, iterations=1)
    assert result.verified
