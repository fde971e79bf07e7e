"""Concurrent-access regression tests for the shared artifact caches.

The program/stream/schedule caches are shared process-wide, so any
caller may hit them from multiple threads.  These tests hammer each cache from a thread pool and assert that (a)
statistics stay consistent (hits + misses == lookups, no lost updates),
(b) every thread observes one canonical object per key, and (c) results
are bit-identical to a single-threaded pass.
"""

import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.dram import HBM2E_ARCH, HBM2E_ENERGY, HBM2E_TIMING
from repro.dram.stream import (
    cached_stream,
    clear_stream_cache,
    stream_cache_info,
)
from repro.mapping.program_cache import (
    clear_program_cache,
    cyclic_program,
    program_cache_info,
)
from repro.ntt import ntt as reference_ntt
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import (
    cached_schedule,
    clear_schedule_cache,
    schedule_cache_info,
)

THREADS = 8
ROUNDS = 12

PIM = PimParams()
SHAPES = [NttParams(n, find_ntt_prime(n, 32)) for n in (64, 128, 256)]


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_program_cache()
    clear_stream_cache()
    clear_schedule_cache()
    yield
    clear_program_cache()
    clear_stream_cache()
    clear_schedule_cache()


def _hammer(fn):
    """Run ``fn(shape)`` from THREADS threads, ROUNDS times per shape,
    all released at once; returns results grouped per shape index."""
    barrier = threading.Barrier(THREADS)
    per_thread = []

    def worker(seed):
        barrier.wait()
        rng = random.Random(seed)
        order = [s for s in range(len(SHAPES)) for _ in range(ROUNDS)]
        rng.shuffle(order)
        out = {}
        for s in order:
            out.setdefault(s, []).append(fn(SHAPES[s]))
        return out

    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        per_thread = list(pool.map(worker, range(THREADS)))
    return per_thread


class TestProgramCacheConcurrency:
    def test_counters_and_canonical_objects(self):
        per_thread = _hammer(
            lambda p: cyclic_program(p, HBM2E_ARCH, PIM))
        info = program_cache_info()
        lookups = THREADS * ROUNDS * len(SHAPES)
        assert info["hits"] + info["misses"] == lookups
        assert info["entries"] == len(SHAPES)
        # Duplicate generation on a racing cold miss is allowed, but the
        # published entry must be one canonical object per key.
        for s in range(len(SHAPES)):
            canonical = cyclic_program(SHAPES[s], HBM2E_ARCH, PIM)
            for result in per_thread:
                assert all(p is canonical for p in result[s])


class TestStreamCacheConcurrency:
    def test_counters_and_canonical_objects(self):
        programs = [cyclic_program(p, HBM2E_ARCH, PIM) for p in SHAPES]
        clear_stream_cache()

        def compile_one(params):
            prog = programs[SHAPES.index(params)]
            return cached_stream(prog.commands, HBM2E_ARCH, key=prog.key)

        per_thread = _hammer(compile_one)
        info = stream_cache_info()
        lookups = THREADS * ROUNDS * len(SHAPES)
        assert info["hits"] + info["misses"] == lookups
        assert info["entries"] == len(SHAPES)
        for s, prog in enumerate(programs):
            canonical = cached_stream(prog.commands, HBM2E_ARCH, key=prog.key)
            for result in per_thread:
                assert all(st is canonical for st in result[s])


class TestScheduleCacheConcurrency:
    def test_counters_and_bit_identical_schedules(self):
        programs = [cyclic_program(p, HBM2E_ARCH, PIM) for p in SHAPES]
        clear_schedule_cache()

        def schedule_one(params):
            prog = programs[SHAPES.index(params)]
            return cached_schedule(prog.commands, HBM2E_TIMING, HBM2E_ARCH,
                                   HBM2E_ENERGY, key=prog.key)

        per_thread = _hammer(schedule_one)
        info = schedule_cache_info()
        lookups = THREADS * ROUNDS * len(SHAPES)
        assert info["hits"] + info["misses"] == lookups
        assert info["entries"] == len(SHAPES)
        # Same totals as a fresh single-threaded simulation.
        clear_schedule_cache()
        for s, prog in enumerate(programs):
            reference = cached_schedule(prog.commands, HBM2E_TIMING,
                                        HBM2E_ARCH, HBM2E_ENERGY,
                                        key=prog.key)
            for result in per_thread:
                for sched in result[s]:
                    assert sched.total_cycles == reference.total_cycles
                    assert sched.energy_nj == reference.energy_nj


class TestArtifactCacheBounds:
    def test_tiny_cache_still_evicts(self):
        from repro._cache import ArtifactCache
        cache = ArtifactCache(2)
        for key in range(10):
            cache.get_or_create(key, lambda k=key: f"artifact-{k}")
        assert cache.info()["entries"] <= 2

    def test_capacity_respected_at_scale(self):
        from repro._cache import ArtifactCache
        cache = ArtifactCache(16)
        for key in range(100):
            cache.get_or_create(key, lambda k=key: k)
        assert cache.info()["entries"] <= 16
        # The most recent key survived the eviction sweeps.
        assert cache.lookup(99) == 99


class TestConcurrentFunctionalExecution:
    def test_shared_stream_concurrent_run_stream(self):
        """Two banks replaying one shared cached stream concurrently
        (the stream's fuse cache is get-or-compute with immutable
        values) produce the single-threaded transform, bit for bit."""
        params = SHAPES[1]
        prog = cyclic_program(params, HBM2E_ARCH, PIM)
        stream = cached_stream(prog.commands, HBM2E_ARCH, key=prog.key)
        rng = random.Random(7)
        inputs = [[rng.randrange(params.q) for _ in range(params.n)]
                  for _ in range(THREADS)]
        expected = [reference_ntt(v, params) for v in inputs]

        def run_one(values):
            bank = PimBank(HBM2E_ARCH, PIM)
            bank.set_parameters(params.q)
            bank.load_polynomial(0, bit_reverse_permute(list(values)))
            bank.run_stream(stream)
            return bank.read_polynomial(prog.result_base_row, params.n)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            outputs = list(pool.map(run_one, inputs))
        assert outputs == expected
