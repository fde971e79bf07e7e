"""Microbenchmarks of the software NTT kernels themselves — the
simulator's functional substrate.  These are real wall-clock benches
(the one place pytest-benchmark's repetition earns its keep)."""

import random

from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.baselines import numpy_ntt
from repro.ntt import ntt, ntt_dit_bitrev_input

N = 1024
Q = find_ntt_prime(N, 32)
PARAMS = NttParams(N, Q)
RNG = random.Random(0)
DATA = [RNG.randrange(Q) for _ in range(N)]
EXPECTED = ntt(DATA, PARAMS)


def test_kernel_reference_dit(benchmark):
    x = bit_reverse_permute(DATA)
    result = benchmark(lambda: ntt_dit_bitrev_input(list(x), PARAMS))
    assert result == EXPECTED


def test_kernel_numpy(benchmark):
    result = benchmark(lambda: numpy_ntt(DATA, PARAMS))
    assert result == EXPECTED

