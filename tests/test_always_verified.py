"""Every functional run is checked online, so ``verified`` means one
thing on every workload: the run was functional and every PIM transform
passed :meth:`~repro.sim.driver.TransformSpec.check`.

The ring-op workloads (``fhe``, ``kyber_kem``) take ``verified`` from
their PIM transforms and re-run no golden ring product, so a broken
lane multiply must still fail them through those transforms' checks.
"""

import random

import pytest

from repro.api import (
    BatchRequest,
    DagEdge,
    DagRequest,
    FheOpRequest,
    KyberKemRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    Simulator,
    workload_names,
)
from repro.arith import NttParams, find_ntt_prime, vector
from repro.errors import FunctionalMismatch
from repro.ntt import NegacyclicParams
from repro.sim.driver import SimConfig, TransformSpec
from test_freivalds import _plus_one

N = 256
PARAMS = NttParams(N, find_ntt_prime(N, 32))
RING = NegacyclicParams(N, find_ntt_prime(N, 32, negacyclic=True))
KYBER_Q = 3329
FHE_CASES = [(op, native) for op in ("forward", "inverse", "multiply")
             for native in (False, True)]


def _poly(seed: int, q: int = PARAMS.q, n: int = N):
    rng = random.Random(seed)
    return tuple(rng.randrange(q) for _ in range(n))


def _fhe(op: str, native: bool) -> FheOpRequest:
    return FheOpRequest(ring=RING, op=op, a=_poly(1, RING.q),
                        b=_poly(2, RING.q) if op == "multiply" else None,
                        native=native)


def _kyber() -> KyberKemRequest:
    return KyberKemRequest(a=_poly(3, KYBER_Q), b=_poly(4, KYBER_Q),
                           n=N, q=KYBER_Q)


def _requests():
    yield "ntt", NttRequest(params=PARAMS, values=_poly(5))
    yield "negacyclic", NegacyclicRequest(ring=RING,
                                          values=_poly(6, RING.q))
    yield "batch", BatchRequest(params=PARAMS, inputs=(_poly(7), _poly(8)))
    yield "multibank", MultiBankRequest(params=PARAMS,
                                        inputs=(_poly(9), _poly(10)))
    for op, native in FHE_CASES:
        yield f"fhe-{op}-{'native' if native else 'hosted'}", _fhe(op, native)
    yield "kyber_kem", _kyber()
    # A timing-only run keeps each child's placeholder for its edge.
    yield "dag", DagRequest(
        nodes=(("fwd", NttRequest(params=PARAMS, values=_poly(11))),
               ("inv", NttRequest(params=PARAMS, inverse=True)),
               ("neg", NegacyclicRequest(ring=RING, values=_poly(12, RING.q),
                                         inverse=True))),
        edges=(DagEdge("fwd", "inv"),))


REQUESTS = [pytest.param(request, id=name) for name, request in _requests()]


@pytest.mark.parametrize("sim_request", REQUESTS)
def test_functional_runs_are_verified_and_timing_only_runs_are_not(
        sim_request):
    timing_only = Simulator(SimConfig(functional=False))
    assert Simulator().run(sim_request).verified
    assert not timing_only.run(sim_request).verified


def test_the_requests_cover_every_registered_workload():
    """A new workload joins the checks above: every registered name is
    one of these requests' or the program window's, which returns no
    values."""
    covered = {request.workload for _, request in _requests()}
    assert covered | {ProgramRequest.workload} == set(workload_names())


def test_a_program_window_returns_no_values_under_a_functional_config():
    program = TransformSpec(params=PARAMS).program(SimConfig())
    response = Simulator().run(ProgramRequest(commands=program.commands))
    assert response.cycles > 0
    assert response.values == [] and response.outputs == []
    assert "bu_ops" not in response.counters
    assert not response.verified


@pytest.fixture
def broken_lane_multiply(monkeypatch):
    """``tests/test_freivalds.py``'s mutation — ``(a·b + 1) mod q`` in
    every lane multiply, which every stacked kernel calls — with
    the checks' vectors and every cached artifact built under it, and
    all of them dropped afterwards."""
    Simulator.clear_caches()
    vector.clear_caches()
    monkeypatch.setattr(vector, "mod_mul_arr",
                        _plus_one(vector.mod_mul_arr))
    yield
    monkeypatch.undo()
    Simulator.clear_caches()
    vector.clear_caches()


@pytest.mark.parametrize("op,native", FHE_CASES)
def test_a_broken_lane_multiply_fails_an_fhe_op(op, native,
                                                broken_lane_multiply):
    with pytest.raises(FunctionalMismatch):
        Simulator().run(_fhe(op, native))


def test_a_broken_lane_multiply_fails_a_kyber_kem_request(
        broken_lane_multiply):
    with pytest.raises(FunctionalMismatch):
        Simulator().run(_kyber())
