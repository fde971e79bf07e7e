"""The bulk coefficient draw (``repro.arith.vector.random_residues``)
against the per-coefficient ``rng.randrange(q)`` loop it replaces: the
same values, the generator left in the same state, and every load
generator scenario yielding the same stream as a per-value reference."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dag as dag_module
from repro.api import (
    DagRequest,
    FheOpRequest,
    KyberKemRequest,
    NegacyclicRequest,
    NttRequest,
)
from repro.arith.vector import random_residues
from repro.serve import SCENARIOS, LoadGenerator
from repro.serve.loadgen import Scenario, _ntt_params, _ring_params


def _per_value(rng, n, q):
    return tuple(rng.randrange(q) for _ in range(n))


@settings(max_examples=300, deadline=None)
@given(q=st.one_of(st.integers(1, 2**32 - 1),
                   # Half the attempts at a power of two are rejected.
                   st.integers(0, 31).map(lambda k: 2**k),
                   # Several words per attempt: the per-value fallback.
                   st.integers(2**32, 2**64)),
       n=st.integers(0, 700),
       seed=st.integers(0, 2**64))
def test_bulk_draw_equals_per_value_loop(q, n, seed):
    bulk, loop = random.Random(seed), random.Random(seed)
    drawn = random_residues(bulk, n, q)
    assert drawn.tolist() == list(_per_value(loop, n, q))
    assert bulk.random() == loop.random()
    assert drawn.dtype == np.uint64 and not drawn.flags.writeable


# -- a per-value reference of every scenario's request makers -------------------

def _ntt_maker(n, inverse=False):
    def make(rng):
        params = _ntt_params(n)
        return NttRequest(params=params,
                          values=_per_value(rng, n, params.q),
                          inverse=inverse)
    return make


def _negacyclic_maker(n, inverse=False):
    def make(rng):
        ring = _ring_params(n)
        return NegacyclicRequest(ring=ring, values=_per_value(rng, n, ring.q),
                                 inverse=inverse)
    return make


def _fhe_maker(n):
    def make(rng):
        ring = _ring_params(n)
        return FheOpRequest(ring=ring, op="multiply",
                            a=_per_value(rng, n, ring.q),
                            b=_per_value(rng, n, ring.q))
    return make


def _dag_maker(build, *args, **kwargs):
    # The builders draw their own operands; the test runs the reference
    # with repro.dag's draw patched to the per-value loop.
    def make(rng):
        return build(*args, seed=rng.randrange(2 ** 31), **kwargs)
    return make


REFERENCE_MIXES = {
    "uniform": ((1.0, _ntt_maker(256)), (1.0, _ntt_maker(512)),
                (1.0, _ntt_maker(1024))),
    "skewed": ((9.0, _ntt_maker(512)), (1.0, _ntt_maker(256))),
    "fhe": ((6.0, _ntt_maker(512)), (2.5, _negacyclic_maker(256)),
            (1.5, _fhe_maker(256))),
    "mixed": ((4.0, _ntt_maker(512)), (2.5, _ntt_maker(512, inverse=True)),
              (2.0, _negacyclic_maker(512)),
              (1.5, _negacyclic_maker(512, inverse=True))),
    "chaos": ((3.0, _ntt_maker(512)), (1.5, _ntt_maker(256)),
              (1.5, _ntt_maker(512, inverse=True)),
              (1.5, _negacyclic_maker(256)),
              (1.0, _negacyclic_maker(256, inverse=True)),
              (1.5, _fhe_maker(256))),
    "dag": ((4.0, _dag_maker(dag_module.ckks_mul_chain, 256, limbs=2,
                             depth=2)),
            (2.0, _dag_maker(dag_module.kem_batch, 3, n=256)),
            (4.0, _ntt_maker(512))),
    "pipeline": ((5.0, _dag_maker(dag_module.ntt_pipeline, 512, stages=3)),
                 (5.0, _ntt_maker(512))),
}


def _operands(request):
    """Every coefficient operand of a request, as lists of ints."""
    if isinstance(request, DagRequest):
        return [op for _, node in request.nodes for op in _operands(node)]
    if isinstance(request, (NttRequest, NegacyclicRequest)):
        operands = (request.values,)
    elif isinstance(request, (FheOpRequest, KyberKemRequest)):
        operands = (request.a, request.b)
    else:
        raise TypeError(type(request).__name__)
    return [[int(v) for v in op] for op in operands if op is not None]


def _stream(scenario, count=40):
    return LoadGenerator(scenario, rate_rps=50_000, count=count, seed=11,
                         high_priority_fraction=0.3, deadline_us=500.0,
                         tenants=(("a", 2.0), ("b", 1.0))).requests()


def test_reference_covers_every_scenario():
    assert set(REFERENCE_MIXES) == set(SCENARIOS)
    for name, scenario in SCENARIOS.items():
        assert [w for w, _ in scenario.mix] == \
            [w for w, _ in REFERENCE_MIXES[name]]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_stream_equals_per_value_reference(name, monkeypatch):
    served = _stream(SCENARIOS[name])
    monkeypatch.setattr(dag_module, "random_residues", _per_value)
    reference = _stream(Scenario(name, "per-value reference",
                                 REFERENCE_MIXES[name]))
    assert [(s.request_id, s.arrival_us, s.priority, s.deadline_us, s.tenant)
            for s in served] == \
        [(s.request_id, s.arrival_us, s.priority, s.deadline_us, s.tenant)
         for s in reference]
    for got, want in zip(served, reference):
        assert type(got.request) is type(want.request)
        assert _operands(got.request) == _operands(want.request)
        assert got.request == want.request


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_load_generator_operands_are_read_only_arrays(name):
    """Every randomly drawn operand is a read-only uint64 array; only a
    DAG child's zero placeholders (overwritten by its edge binding)
    stay tuples."""
    arrays = 0
    for sreq in _stream(SCENARIOS[name]):
        request = sreq.request
        nodes = (request.nodes if isinstance(request, DagRequest)
                 else (("", request),))
        for _, node in nodes:
            fields = (("values",) if isinstance(node, (NttRequest,
                                                       NegacyclicRequest))
                      else ("a", "b"))
            for field in fields:
                operand = getattr(node, field)
                if operand is None or (isinstance(operand, tuple)
                                       and not any(operand)):
                    continue
                assert isinstance(operand, np.ndarray), (name, field)
                assert operand.dtype == np.uint64
                assert not operand.flags.writeable
                with pytest.raises(ValueError):
                    operand[0] = 1
                arrays += 1
    assert arrays > 0
