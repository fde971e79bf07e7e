"""The dispatch memo: a warm dispatch finds everything its shape
determines — programs, merged stream and schedule, single-program
cycles, bank groups — in one lookup keyed by ``(specs, slots,
config)``, and nothing else about the run is remembered."""

import dataclasses
import random

import pytest

from repro.api import (
    BankSpec,
    BatchRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    Simulator,
)
from repro.api.workloads import dispatch_of
from repro.arith import NttParams, find_ntt_prime
from repro.compile.ir import StreamIR
from repro.dram import CommandType
from repro.errors import FunctionalMismatch
from repro.mapping.program_cache import CachedProgram
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import (
    SimConfig,
    TransformSpec,
    _run_dispatch,
    dispatch_cache_info,
)

N = 256
PARAMS = NttParams(N, find_ntt_prime(N, 32))
RING = NegacyclicParams(N, find_ntt_prime(N, 32, negacyclic=True))


def _rows(count, q, seed):
    rng = random.Random(seed)
    return tuple(tuple(rng.randrange(q) for _ in range(N))
                 for _ in range(count))


X = _rows(3, PARAMS.q, 1)
Y = _rows(2, RING.q, 2)
MIXED = MultiBankRequest(
    specs=(BankSpec(params=PARAMS), BankSpec(ring=RING, inverse=True),
           BankSpec(params=PARAMS, inverse=True), BankSpec(ring=RING)),
    inputs=(X[0], Y[0], X[1], Y[1]))
PERMUTED = MultiBankRequest(specs=MIXED.specs[::-1],
                            inputs=MIXED.inputs[::-1])


def _outcome(response):
    return (response.cycles, response.latency_us, response.energy_nj,
            response.verified, response.command_count, response.values,
            response.outputs, sorted(response.counters.items()),
            sorted(response.metrics.items()))


def test_clear_caches_makes_the_next_run_cold():
    simulator = Simulator()
    request = NttRequest(params=PARAMS, values=X[0])
    simulator.run(request)
    assert simulator.run(request).cache["dispatch"]["hits"] == 1
    Simulator.clear_caches()
    again = simulator.run(request)
    for cache in ("program", "stream", "schedule", "dispatch"):
        assert again.cache[cache]["misses"] == 1
        assert again.cache[cache]["hits"] == 0


@pytest.mark.parametrize("first,second", [
    # Same specs, other bank order.
    ((MIXED, SimConfig()), (PERMUTED, SimConfig())),
    # Same spec and transform count: 1 bank x 3 slots, 3 banks x 1 slot.
    ((BatchRequest(params=PARAMS, inputs=X), SimConfig()),
     (MultiBankRequest(params=PARAMS, inputs=X), SimConfig())),
    # Same request, timing only.
    ((MIXED, SimConfig()), (MIXED, SimConfig(functional=False))),
    ((MultiBankRequest(params=PARAMS, inputs=X), SimConfig()),
     (MultiBankRequest(params=PARAMS, inputs=X),
      SimConfig(pim=PimParams(nb_buffers=4), functional=False))),
], ids=["permuted-banks", "batch-vs-multibank", "timing-only-mixed",
        "timing-only-nb4"])
def test_each_shape_has_its_own_entry_and_equals_a_cold_run(first, second):
    cold = []
    for request, config in (first, second):
        Simulator.clear_caches()
        cold.append(_outcome(Simulator(config).run(request)))
    Simulator.clear_caches()
    Simulator(first[1]).run(first[0])
    response = Simulator(second[1]).run(second[0])
    assert response.cache["dispatch"] == {"hits": 0, "misses": 1,
                                          "entries": 2}
    assert _outcome(response) == cold[1]
    for (request, config), expected in zip((first, second), cold):
        warm = Simulator(config).run(request)
        assert warm.cache["dispatch"] == {"hits": 1, "misses": 0,
                                          "entries": 2}
        for cache in ("program", "stream", "schedule"):
            stats = warm.cache[cache]
            assert (stats["hits"], stats["misses"]) == (0, 0)
        assert _outcome(warm) == expected
    Simulator.clear_caches()


def test_a_homogeneous_multibank_request_lowers_to_one_spec():
    """Every bank of a homogeneous request shares one spec object (one
    memo key element to hash, one bank group); listed bank specs lower
    one by one."""
    specs, inputs = dispatch_of(MultiBankRequest(params=PARAMS, inputs=X))
    assert len(specs) == len(inputs) == 3
    assert all(spec is specs[0] for spec in specs)
    specs, _ = dispatch_of(MIXED)
    assert [spec.describe() for spec in specs] == [
        "ntt", "inverse negacyclic", "inverse ntt", "negacyclic"]


def _swap_first_c2(real_program):
    """``TransformSpec.program`` with the P and S buffers of its first C2
    swapped (``tests/test_compile.py``'s perturbed pairing)."""
    def perturbed(self, config, bank, slot=0):
        program = real_program(self, config, bank, slot)
        commands = list(program.commands)
        i = next(i for i, cmd in enumerate(commands)
                 if cmd.ctype is CommandType.C2)
        commands[i] = dataclasses.replace(
            commands[i], buf=commands[i].buf2, buf2=commands[i].buf)
        return CachedProgram(
            ir=StreamIR.from_commands(commands),
            base_row=program.base_row,
            result_base_row=program.result_base_row,
            key=("perturbed C2 pairing", program.key))
    return perturbed


def test_a_warm_hit_still_runs_and_checks_the_banks(monkeypatch):
    """The memo keeps the perturbed program's shape, not a verdict: the
    warm hit replays the banks and fails the online check again."""
    spec = TransformSpec(params=NttParams(N, find_ntt_prime(N, 32)))
    monkeypatch.setattr(TransformSpec, "program",
                        _swap_first_c2(TransformSpec.program))
    rng = random.Random(N)
    inputs = [[[rng.randrange(spec.q) for _ in range(N)]] for _ in range(2)]
    before = dispatch_cache_info()
    for _ in range(2):
        with pytest.raises(FunctionalMismatch):
            _run_dispatch(inputs, [spec] * 2, SimConfig())
    after = dispatch_cache_info()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 1


def test_requests_of_equal_params_built_apart_are_equal():
    """Transform parameters compare and hash by value — ``(n, q, omega)``
    and ``(n, q, psi)`` — so requests built from separately constructed
    parameters of one transform are equal, and others are not."""
    for make in (lambda: NttRequest(params=NttParams(N, PARAMS.q)),
                 lambda: NegacyclicRequest(ring=NegacyclicParams(N, RING.q))):
        a, b = make(), make()
        assert a == b and hash(a) == hash(b)
    other_root = NttParams(N, PARAMS.q, pow(PARAMS.omega, 3, PARAMS.q))
    assert other_root != PARAMS and hash(other_root) != hash(PARAMS)
    assert RING != RING.cyclic


def test_bank_specs_of_equal_params_built_apart_share_a_group_and_entry(
        monkeypatch):
    """A 2-bank request whose bank specs each build their own
    ``NttParams`` of one transform runs as one bank group, and a second
    such request hits the first one's memo entry."""
    def request():
        return MultiBankRequest(
            specs=tuple(BankSpec(params=NttParams(N, PARAMS.q))
                        for _ in range(2)),
            inputs=X[:2])

    groups = []
    real = PimBank.run_stream

    def spy(self, stream):
        groups.append(self.storage.stack)
        return real(self, stream)

    monkeypatch.setattr(PimBank, "run_stream", spy)
    Simulator.clear_caches()
    first = Simulator().run(request())
    second = Simulator().run(request())
    assert first.verified and second.verified
    assert groups == [(2,), (2,)]
    assert second.cache["dispatch"] == {"hits": 1, "misses": 0,
                                        "entries": 1}
    assert second.values == first.values
    Simulator.clear_caches()
