"""Bank runs stacked across dispatches.

``Simulator.expect`` announces the requests that the next
``Simulator.run`` calls will make, and the first run of a transform
shape runs the banks of all the announced dispatches of that shape as
one stack (``repro.sim.driver.BankStacks``); ``Simulator.run_each`` is
the list form, and every settle pass of a ``SimServer`` announces its
backlog.  Everything here compares against the unstacked form: the
loop of ``Simulator.run``, dispatches run alone, or the same server
with ``Simulator.expect`` patched out.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BankSpec,
    BatchRequest,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    Simulator,
)
from repro.api.workloads import dispatch_of
from repro.arith import NttParams, find_ntt_prime, vector
from repro.errors import FunctionalMismatch
from repro.ntt import NegacyclicParams
from repro.serve import LoadGenerator, SimServer, make_scenario
from repro.sim import driver
from repro.sim.driver import BankStacks, SimConfig, TransformSpec, \
    lookup_dispatch
from test_always_verified import REQUESTS, broken_lane_multiply  # noqa: F401
from test_freivalds import _plus_one

KINDS = ("ntt", "negacyclic", "batch", "multibank", "mixed", "fhe",
         "program")
CONFIGS = (SimConfig(), SimConfig(functional=False))


@lru_cache(maxsize=None)
def _params(n: int) -> NttParams:
    return NttParams(n, find_ntt_prime(n, 32))


@lru_cache(maxsize=None)
def _ring(n: int) -> NegacyclicParams:
    return NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))


def _poly(seed: int, q: int, n: int):
    """A tuple for an even seed, a read-only uint64 array for an odd one:
    one stack then mixes both operand forms."""
    values = tuple(random.Random(seed).randrange(q) for _ in range(n))
    if seed % 2:
        values = np.array(values, dtype=np.uint64)
        values.flags.writeable = False
    return values


def _request(kind: str, n: int, inverse: bool, seed: int):
    params, ring = _params(n), _ring(n)
    if kind == "ntt":
        return NttRequest(params=params, values=_poly(seed, params.q, n),
                          inverse=inverse)
    if kind == "negacyclic":
        return NegacyclicRequest(ring=ring, values=_poly(seed, ring.q, n),
                                 inverse=inverse)
    if kind == "batch":
        return BatchRequest(params=params, inputs=tuple(
            _poly(seed + k, params.q, n) for k in range(1 + seed % 3)))
    if kind == "multibank":
        return MultiBankRequest(params=params, inverse=inverse, inputs=tuple(
            _poly(seed + k, params.q, n) for k in range(1 + seed % 4)))
    if kind == "mixed":
        specs = (BankSpec(params=params, inverse=inverse),
                 BankSpec(ring=ring, inverse=not inverse),
                 BankSpec(params=params, inverse=not inverse),
                 BankSpec(ring=ring, inverse=inverse))
        return MultiBankRequest(specs=specs, inputs=tuple(
            _poly(seed + k, spec.params.q if spec.params else spec.ring.q, n)
            for k, spec in enumerate(specs)))
    if kind == "fhe":
        op = ("forward", "inverse", "multiply")[seed % 3]
        return FheOpRequest(ring=ring, op=op, a=_poly(seed, ring.q, n),
                            b=_poly(seed + 1, ring.q, n)
                            if op == "multiply" else None,
                            native=inverse)
    # A timing-only window: it joins no stack and returns no values.
    program = TransformSpec(params=params, inverse=inverse).program(
        SimConfig())
    return ProgramRequest(commands=program.commands)


def _envelope(response) -> tuple:
    return (response.workload, response.values, response.outputs,
            response.cycles, response.latency_us, response.energy_nj,
            response.verified, response.command_count,
            sorted(response.counters.items()),
            sorted(response.metrics.items()),
            sorted((k, sorted(v.items())) for k, v in response.cache.items()))


def _outcome(call):
    """The call's value, or the type and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc), str(exc)


@given(draws=st.lists(st.tuples(st.sampled_from(KINDS),
                                st.sampled_from((256, 512)), st.booleans(),
                                st.integers(0, 5)),
                      min_size=1, max_size=7),
       config=st.sampled_from(CONFIGS))
@settings(max_examples=25, deadline=None)
def test_run_each_equals_the_loop_of_run(draws, config):
    """Values, outputs, timing, energy, counters (``bu_ops`` each
    dispatch's own share), ``verified``, metrics and the cache deltas
    of each request's own lookups, from the same cold start."""
    requests = [_request(*draw) for draw in draws]
    simulator = Simulator(config)
    Simulator.clear_caches()
    loop = [_envelope(simulator.run(request)) for request in requests]
    Simulator.clear_caches()
    stacked = simulator.run_each(requests)
    assert [_envelope(response) for response in stacked] == loop
    assert [response.request for response in stacked] == requests


def test_run_each_shares_one_stack_per_transform_shape(monkeypatch):
    """Six forward N=512 transforms in three requests and two inverse
    ones make two stacks, each as wide as all its banks together."""
    widths = []
    real = driver._run_bank

    def spy(spec, inputs, *args):
        widths.append((spec.inverse, len(inputs)))
        return real(spec, inputs, *args)

    monkeypatch.setattr(driver, "_run_bank", spy)
    requests = [_request("ntt", 512, False, 1),
                _request("multibank", 512, False, 3),
                _request("ntt", 512, True, 2),
                _request("multibank", 512, False, 2),
                _request("ntt", 512, True, 4)]
    Simulator().run_each(requests)
    assert widths == [(False, 1 + 4 + 3), (True, 2)]


@pytest.mark.parametrize("sim_request", REQUESTS)
def test_run_each_raises_what_the_loop_raises(sim_request,
                                              broken_lane_multiply):  # noqa: F811
    simulator = Simulator()
    neighbour = _request("ntt", 256, False, 0)
    for requests in ([sim_request], [neighbour, sim_request],
                     [sim_request, neighbour]):
        loop = _outcome(lambda: [simulator.run(r) for r in requests])
        assert loop[0] is FunctionalMismatch
        assert _outcome(lambda: simulator.run_each(requests)) == loop


def _result(result) -> tuple:
    return (result.outputs, result.bu_ops, result.verified, result.banks,
            result.slots, result.cycles)


@pytest.fixture
def bank_runs(monkeypatch):
    """The width (banks) of every ``_run_bank`` call."""
    widths = []
    real = driver._run_bank

    def spy(spec, inputs, *args):
        widths.append(len(inputs))
        return real(spec, inputs, *args)

    monkeypatch.setattr(driver, "_run_bank", spy)
    return widths


def test_bank_stacks_stack_once_and_run_a_second_run_alone(bank_runs):
    """Three announced forward N=512 dispatches (1 + 3 + 2 banks) make
    one stack, whichever runs first.  A dispatch run again, a run under
    another config object and a dispatch not announced run alone.  Each
    result equals its run alone."""
    config = SimConfig()
    requests = [_request("ntt", 512, False, 1),
                _request("multibank", 512, False, 2),
                _request("multibank", 512, False, 5),
                _request("ntt", 512, False, 4)]
    dispatches = {request: dispatch_of(request) for request in requests}
    alone = {}
    for request, (specs, inputs) in dispatches.items():
        alone[request] = _result(driver._run_dispatch(inputs, specs, config))
    bank_runs.clear()
    stacks = BankStacks()
    stacks.announce([(r, dispatches[r]) for r in requests[:3]], config)

    def run(request, under=config):
        specs, inputs = dispatches[request]
        result = stacks.run(request, lookup_dispatch(inputs, specs, under),
                            under)
        assert _result(result) == alone[request]

    run(requests[1])
    assert bank_runs == [6]
    run(requests[1])
    run(requests[2], SimConfig())
    assert bank_runs == [6, 3, 2]
    run(requests[0])
    run(requests[2])
    assert bank_runs == [6, 3, 2]
    run(requests[3])
    assert bank_runs == [6, 3, 2, 1]


def test_a_failed_stack_runs_its_dispatches_alone(monkeypatch, bank_runs):
    """A stack that raises keeps nothing: its dispatches run alone."""
    requests = [_request("ntt", 256, False, k) for k in range(3)]
    Simulator.clear_caches()
    loop = [_envelope(Simulator().run(r)) for r in requests]
    real = driver._run_bank

    def wide_fails(spec, inputs, *args):
        if len(inputs) > 1:
            raise RuntimeError("the stack failed")
        return real(spec, inputs, *args)

    # Over the spy: ``bank_runs`` records the runs that reached the bank.
    monkeypatch.setattr(driver, "_run_bank", wide_fails)
    bank_runs.clear()
    Simulator.clear_caches()
    stacked = Simulator().run_each(requests)
    assert [_envelope(response) for response in stacked] == loop
    assert bank_runs == [1, 1, 1]


# -- the server's announcement --------------------------------------------------

def _load(count: int, rate_rps: float, seed: int = 1,
          scenario: str = "skewed"):
    return LoadGenerator(make_scenario(scenario), rate_rps=rate_rps,
                         count=count, seed=seed).requests()


def _records(server: SimServer) -> list:
    return [repr(record) for record in server.telemetry.records]


def _settled(server: SimServer) -> dict:
    results = server._live.results
    return {rid: (repr(result.record),
                  None if result.response is None
                  else list(result.response.values))
            for rid, result in sorted(results.items())}


def _broken_for(moduli):
    """``test_freivalds``'s ``(a·b + 1) mod q`` lane multiply, for the
    moduli in ``moduli`` only (every modulus when ``None``)."""
    real = vector.mod_mul_arr
    broken = _plus_one(real)

    def mod_mul_arr(a, b, q):
        return (broken if moduli is None or q in moduli else real)(a, b, q)
    return mod_mul_arr


def _unstacked(monkeypatch):
    """Announce nothing: every dispatch runs alone, as it did before
    bank stacking."""
    monkeypatch.setattr(Simulator, "expect", lambda self, requests: None)


def _session_with_a_mid_session_fault(monkeypatch, stacked: bool,
                                      scenario: str, moduli):
    """60 live submissions; after 40 (partly settled by a poll) the lane
    multiplies of ``moduli`` break.  Returns what each step observed."""
    if not stacked:
        _unstacked(monkeypatch)
    Simulator.clear_caches()
    vector.clear_caches()
    server = SimServer(SimConfig(), num_shards=2)
    sreqs = _load(60, 150_000, scenario=scenario)
    for sreq in sreqs[:40]:
        server.submit(sreq.request, arrival_us=sreq.arrival_us)
    server.poll(1)
    before_fault = _settled(server)
    real = vector.mod_mul_arr
    monkeypatch.setattr(vector, "mod_mul_arr", _broken_for(moduli))
    for sreq in sreqs[40:]:
        server.submit(sreq.request, arrival_us=sreq.arrival_us)
    first = _outcome(server.drain)
    seen = (before_fault, first, _settled(server), _records(server))
    retry = _outcome(server.drain)
    monkeypatch.setattr(vector, "mod_mul_arr", real)
    results = server.drain()
    monkeypatch.undo()
    Simulator.clear_caches()
    vector.clear_caches()
    return seen, retry, [(repr(r.record), list(r.response.values))
                         for r in results], _records(server)


@pytest.mark.parametrize("scenario,moduli,settles_more", [
    ("skewed", None, False),
    # Only the cyclic transforms break: the walk settles a negacyclic
    # dispatch before it reaches the first cyclic one.
    ("mixed", {find_ntt_prime(512, 32)}, True),
], ids=["every-lane", "cyclic-lanes"])
def test_a_mid_session_fault_settles_what_the_unstacked_server_settles(
        monkeypatch, scenario, moduli, settles_more):
    """Same exception, same settled results and telemetry records as
    with the announcement patched out; a retried drain raises again,
    and after the repair the drain returns the same results."""
    stacked = _session_with_a_mid_session_fault(monkeypatch, True,
                                                scenario, moduli)
    alone = _session_with_a_mid_session_fault(monkeypatch, False,
                                              scenario, moduli)
    (before, first, settled, _), retry, results, _ = stacked
    assert 0 < len(before) < 40
    assert first[0] is FunctionalMismatch
    assert (len(settled) > len(before)) == settles_more
    assert len(settled) < 60
    assert retry == first
    assert len(results) == 60 and all(values for _, values in results)
    assert stacked == alone


@pytest.fixture
def stack_widths(monkeypatch):
    """Every ``_run_bank`` call as ``(spec, slots, banks, words)``, plus
    the settle passes that made them."""
    calls, passes = [], []
    real_bank, real_settle = driver._run_bank, SimServer._settle

    def bank(spec, inputs, config, programs, stream):
        calls.append((spec, len(programs), len(inputs),
                      len(inputs) * len(programs) * spec.n))
        return real_bank(spec, inputs, config, programs, stream)

    def settle(self, session, horizon_us):
        passes.append(len(calls))
        return real_settle(self, session, horizon_us)

    monkeypatch.setattr(driver, "_run_bank", bank)
    monkeypatch.setattr(SimServer, "_settle", settle)
    return calls, passes


def test_a_settle_pass_runs_one_stack_per_shape(stack_widths):
    calls, passes = stack_widths
    sreqs = _load(80, 400_000)
    results = SimServer(SimConfig(), num_shards=2).serve(sreqs)
    assert all(result.ok for result in results)
    assert passes == [0]  # one settle pass: no DAG stages to release
    shapes = {(spec, slots) for spec, slots, _, _ in calls}
    assert len(calls) == len(shapes) == 2  # the mix's N=512 and N=256
    assert sum(banks for _, _, banks, _ in calls) == 80
    assert max(words for *_, words in calls) <= driver.STACK_WORD_BUDGET


def test_a_session_above_the_word_budget_splits(stack_widths):
    calls, _ = stack_widths
    sreqs = _load(200, 400_000, seed=3)
    results = SimServer(SimConfig(), num_shards=2).serve(sreqs)
    by_shape = {}
    for spec, slots, _, words in calls:
        by_shape.setdefault((spec, slots), []).append(words)
    assert max(map(len, by_shape.values())) > 1
    assert max(words for *_, words in calls) <= driver.STACK_WORD_BUDGET
    solo = Simulator()
    for sreq, result in zip(sreqs, results):
        assert list(result.response.values) == list(
            solo.run(sreq.request).values)


def test_every_dispatch_runs_through_simulator_run(monkeypatch, bank_runs):
    """Stacking shares bank runs, not dispatches: a served dispatch is
    still one ``Simulator.run`` call (the unit a per-dispatch trace
    counts), while the banks of a settle pass run as one stack per
    shape."""
    runs = []
    real = Simulator.run

    def counted(self, request):
        runs.append(request)
        return real(self, request)

    monkeypatch.setattr(Simulator, "run", counted)
    server = SimServer(SimConfig(), num_shards=2)
    results = server.serve(_load(80, 400_000))
    assert all(result.ok for result in results)
    dispatches = server.telemetry.snapshot()["dispatches"]
    assert len(runs) == dispatches > len(bank_runs) == 2


@pytest.mark.parametrize("scenario,count,rate_rps", [
    ("chaos", 40, 150_000), ("skewed", 80, 400_000)])
def test_faults_see_what_the_unstacked_server_sees(monkeypatch, scenario,
                                                   count, rate_rps):
    """Under injected failures, timeouts and corruptions, every executed
    attempt runs (a retried one again) and a unit that never executes
    looks nothing up: records, results, resilience counters and the
    session's cache rollup equal those of the unstacked server."""
    real_run = Simulator.run

    def session(stacked):
        runs = []

        def counted(self, request):
            runs.append(request)
            return real_run(self, request)

        monkeypatch.setattr(Simulator, "run", counted)
        if not stacked:
            _unstacked(monkeypatch)
        Simulator.clear_caches()
        server = SimServer(SimConfig(), num_shards=2, faults="chaos",
                           fault_seed=7, policy="standard")
        results = server.serve(_load(count, rate_rps, seed=7,
                                     scenario=scenario))
        snapshot = server.telemetry.snapshot()
        monkeypatch.undo()
        return (len(runs), _records(server), snapshot["cache"],
                snapshot["resilience"], snapshot["dispatches"],
                [None if r.response is None else list(r.response.values)
                 for r in results])

    stacked, alone = session(True), session(False)
    runs, _, _, resilience, dispatches, _ = stacked
    # Executed attempts that failed and ran again, and injected failures.
    assert resilience["detected_mismatches"] >= 1
    assert resilience["faults_injected"]["fail"] >= 1
    assert runs == (dispatches + resilience["detected_mismatches"]
                    + resilience["timeouts"])
    assert stacked == alone


def test_an_announcement_replaces_the_last_one(bank_runs):
    """Rows stacked under one announcement never serve a run after the
    next one: a settle pass recomputes what the last pass stacked but
    did not run."""
    first, second = (_request("ntt", 256, False, k) for k in range(2))
    simulator = Simulator()
    simulator.expect([first, second])
    simulator.run(first)
    assert bank_runs == [2]
    simulator.expect([])
    simulator.run(second)
    assert bank_runs == [2, 1]
