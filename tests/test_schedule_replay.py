"""Compile only what a bank runs.

A dispatch's timing replays its merged program's IR columns
(``cached_schedule``): the merge recipe builds the IR on a schedule
miss and the replay drops it.  Only what a bank runs compiles — each
spec's one-bank stream — so a merged multi-bank stream is never
compiled or kept, and a timing-only run or a ``program`` window builds
no plan.  Schedules store their per-command times as
``array('q')`` in both engines.
"""

import sys
from array import array

import numpy as np
import pytest

from repro.api import (
    BankSpec,
    BatchRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    Simulator,
)
from repro.arith import NttParams, find_ntt_prime
from repro.compile import compile_request, lower
from repro.dram import (
    CommandType,
    ComputeTiming,
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    TimingParams,
    compile_stream,
)
from repro.dram.energy import HBM2E_ENERGY
from repro.dram.stream import cached_streams
from repro.ntt import NegacyclicParams
from repro.sim.driver import (
    SimConfig,
    TransformSpec,
    cached_schedule,
    dispatch_recipe,
    schedule_cache_info,
)

N = 256
PARAMS = NttParams(N, find_ntt_prime(N, 32))
RING = NegacyclicParams(N, find_ntt_prime(N, 32, negacyclic=True))
X = tuple(tuple((i * 7 + k) % PARAMS.q for i in range(N)) for k in range(3))
Y = tuple(tuple((i * 5 + k) % RING.q for i in range(N)) for k in range(2))
MIXED = MultiBankRequest(
    specs=(BankSpec(params=PARAMS), BankSpec(ring=RING, inverse=True),
           BankSpec(params=PARAMS, inverse=True), BankSpec(ring=RING)),
    inputs=(X[0], Y[0], X[1], Y[1]))
TRANSFORMS = {
    "ntt": NttRequest(params=PARAMS, values=X[0]),
    "negacyclic": NegacyclicRequest(ring=RING, values=Y[0], inverse=True),
    "batch": BatchRequest(params=PARAMS, inputs=X),
    "multibank": MultiBankRequest(params=PARAMS, inputs=X, inverse=True),
    "mixed multibank": MIXED,
}
NO_LOOKUP = {"hits": 0, "misses": 0, "entries": 0}


def _program():
    return TransformSpec(params=PARAMS).program(SimConfig())


def _banks_spanned(stream) -> int:
    return len(np.unique(stream.ir.banks))


def _timing(response):
    counters = dict(response.counters)
    counters.pop("bu_ops", None)
    return (response.cycles, response.latency_us, response.energy_nj,
            response.command_count, sorted(counters.items()),
            sorted(response.metrics.items()))


@pytest.fixture(autouse=True)
def _cold():
    Simulator.clear_caches()
    yield
    Simulator.clear_caches()


def _forbid_plans(monkeypatch):
    """Make every plan build fail (each compile runs the pipeline)."""
    def build_plan(ir, arch):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(lower, "build_plan", build_plan)


def test_a_cold_mixed_spec_dispatch_caches_only_one_bank_streams():
    response = Simulator().run(MIXED)
    assert response.verified
    streams = cached_streams()
    assert len(streams) == 4  # one per distinct spec, none merged
    assert all(_banks_spanned(stream) == 1 for stream in streams)
    assert all(stream.plan is not None for stream in streams)
    assert response.cache["stream"] == {"hits": 0, "misses": 4,
                                        "entries": 4}


def test_a_merged_stream_compiled_for_inspection_is_kept_nowhere():
    compiled = compile_request(MultiBankRequest(params=PARAMS, inputs=X))
    assert _banks_spanned(compiled.stream) == 3
    assert compiled.stream.fallback_reason == (
        "stream spans 3 banks; plans are per bank")
    assert cached_streams() == ()


@pytest.mark.parametrize("kind", sorted(TRANSFORMS))
def test_a_timing_only_transform_builds_no_plan(kind, monkeypatch):
    """Same timing as the functional run, with no plan and no stream
    lookup."""
    request = TRANSFORMS[kind]
    functional = Simulator().run(request)
    Simulator.clear_caches()
    _forbid_plans(monkeypatch)
    timed = Simulator(SimConfig(functional=False)).run(request)
    assert timed.cache["stream"] == NO_LOOKUP
    assert not timed.verified and timed.values == []
    assert _timing(timed) == _timing(functional)


def test_a_timing_only_program_builds_no_plan(monkeypatch):
    program = _program()
    reference = TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(
        program.commands)
    _forbid_plans(monkeypatch)
    # A window on a functional machine and on a timing-only one.
    timed = [Simulator(config).run(ProgramRequest(commands=program.commands))
             for config in (SimConfig(), SimConfig(functional=False))]
    for response in timed:
        assert response.cache["stream"] == NO_LOOKUP
        assert response.cycles == reference.total_cycles
        assert response.energy_nj == reference.energy_nj
        assert response.counters == reference.stats.command_counts
        assert response.values == []


def test_a_schedule_hit_builds_nothing():
    programs, key, build = dispatch_recipe(
        [TransformSpec(params=PARAMS)] * 2, 2, SimConfig())
    built = []

    def counted():
        built.append(1)
        return build()

    first = cached_schedule(counted, HBM2E_TIMING, HBM2E_ARCH, HBM2E_ENERGY,
                            key=key)
    again = cached_schedule(counted, HBM2E_TIMING, HBM2E_ARCH, HBM2E_ENERGY,
                            key=key)
    assert again is first and len(built) == 1
    assert schedule_cache_info()["hits"] == 1
    assert cached_streams() == ()
    assert first == TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(
        build().materialize_commands())


def test_both_engines_store_times_as_int64_arrays():
    program = _program()
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
    legacy = engine.simulate(program.commands)
    replayed = engine.simulate_stream(program.ir)
    compiled = engine.simulate_stream(compile_stream(program.ir, HBM2E_ARCH))
    for schedule in (legacy, replayed, compiled):
        for times in (schedule.issues, schedule.completes):
            assert type(times) is array and times.typecode == "q"
            assert len(times) == program.ir.n
            assert type(times[0]) is int
    assert replayed.timings == legacy.timings == compiled.timings
    assert replayed == legacy == compiled
    assert all(t.issue <= t.complete for t in replayed.timings)


def test_an_eight_bank_schedule_stores_sixteen_bytes_per_command():
    n = 4096
    params = NttParams(n, find_ntt_prime(n, 32))
    response = Simulator(SimConfig(functional=False)).run(MultiBankRequest(
        params=params, inputs=((0,) * n,) * 8))
    schedule = response.schedule
    commands = response.command_count
    assert commands == len(schedule.issues) > 8 * 17_000
    stored = sys.getsizeof(schedule.issues) + sys.getsizeof(
        schedule.completes)
    assert 16 * commands <= stored <= 16 * commands + 256
    assert response.cache["stream"] == NO_LOOKUP


@pytest.mark.parametrize("build", [lambda: ComputeTiming(c1_cycles=15.5),
                                   lambda: TimingParams(trcd=14.0)])
def test_a_fractional_cycle_count_is_rejected(build):
    """Schedules store int64 cycles, so a fractional latency would be
    truncated: the parameters refuse it."""
    with pytest.raises(TypeError, match="whole number of cycles"):
        build()


def test_a_negative_latency_is_rejected():
    """The stream replay tells a compute command (its latency as the
    step) from the other kinds (negative step codes) by sign, so a
    negative latency is refused."""
    with pytest.raises(ValueError, match="c2_cycles must be >= 0"):
        ComputeTiming(c2_cycles=-1)
    assert ComputeTiming(c2_cycles=0).latency(CommandType.C2) == 0
