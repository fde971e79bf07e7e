"""The online check: Freivalds' dot products against the transpose of
each transform's golden matrix (``TransformSpec.check``).

``M`` is the matrix of :meth:`TransformSpec.expected` (natural-order
inputs to finalized outputs).  A check holds ``K`` fixed rows ``r`` and
``v = Mᵀ·r`` and accepts ``y`` for ``x`` iff every word of ``y`` is
reduced and ``r·y ≡ v·x (mod q)`` for every row.
"""

import ast
import math
import os
import random
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compute_paths import on_path
from repro.api import NegacyclicRequest, NttRequest, Simulator
from repro.arith import vector
from repro.errors import FunctionalMismatch
from repro.pim.bank_pim import PimBank
from repro.sim.driver import SimConfig, _run_bank, _run_dispatch, \
    compile_dispatch
from test_bank_stack import KINDS, _spec

GOLDEN_KERNELS = ("ntt_dit_bitrev", "ntt_dif_natural",
                  "merged_negacyclic_forward", "merged_negacyclic_inverse")


@pytest.fixture
def fresh_checks():
    """Build every check inside the test, and drop what it built."""
    vector.clear_caches()
    yield
    vector.clear_caches()


def _inputs(spec, count, seed):
    rng = random.Random(seed)
    return [[rng.randrange(spec.q) for _ in range(spec.n)]
            for _ in range(count)]


# -- the rows and their transposed images --------------------------------------

@pytest.mark.parametrize("bits,count", [(14, 5), (32, 2), (40, 2), (60, 1)])
def test_rows_are_k_distinct_nonconstant_residues(bits, count, fresh_checks):
    """K = ceil(60 / log2 q) rows, every entry in [1, q), pairwise
    distinct and none constant (one stream per row: a generator seeded
    per entry drew a constant r, which a broken kernel can pass)."""
    spec = _spec("ntt", False, 512, bits)
    rows = spec._freivalds().rows
    assert count == math.ceil(60 / math.log2(spec.q))
    assert rows.shape == (count, 512) and rows.dtype == np.uint64
    assert rows.min() >= 1 and rows.max() < spec.q
    as_lists = rows.tolist()
    assert len({tuple(row) for row in as_lists}) == count
    assert all(len(set(row)) > 1 for row in as_lists)


def test_a_fresh_interpreter_draws_the_same_rows():
    code = ("from repro.arith import find_ntt_prime\n"
            "from repro.ntt import NegacyclicParams\n"
            "from repro.sim.driver import TransformSpec\n"
            "ring = NegacyclicParams(64, find_ntt_prime(64, 32, "
            "negacyclic=True))\n"
            "spec = TransformSpec(kind='negacyclic', inverse=True, "
            "ring=ring)\n"
            "print(spec._freivalds().rows.tolist())\n")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    spec = _spec("negacyclic", True, 64, 32)
    assert ast.literal_eval(out) == spec._freivalds().rows.tolist()


@pytest.mark.parametrize("path", ["python", "numpy"])
@pytest.mark.parametrize("kind,inverse", KINDS)
def test_vectors_are_the_transposed_golden_matrix(kind, inverse, path,
                                                  fresh_checks):
    """v = Mᵀ·r on the lane side and the scalar side, against M built
    column by column from the golden model at N=16."""
    spec = _spec(kind, inverse, 16, 32)
    columns = [spec.expected([int(i == j) for i in range(16)])
               for j in range(16)]
    with on_path(path):
        check = spec._freivalds()
    for r, v in zip(check.rows.tolist(), check.vectors.tolist()):
        assert v == [sum(m * x for m, x in zip(column, r)) % spec.q
                     for column in columns]


# -- what the check accepts ----------------------------------------------------

@pytest.mark.parametrize("bits", [32, 40])
def test_accepts_golden_outputs_only(bits):
    spec = _spec("negacyclic", False, 64, bits)
    inputs = _inputs(spec, 3, bits)
    outputs = [spec.expected(x) for x in inputs]
    assert spec.check(inputs, outputs)
    assert spec.check(inputs[0], outputs[0])
    assert spec.check(np.array(inputs, dtype=np.uint64),
                      np.array(outputs, dtype=np.uint64))
    congruent = [list(row) for row in outputs]
    congruent[1][5] += spec.q  # same residue, but not a reduced word
    assert not spec.check(inputs, congruent)
    assert not spec.check(inputs, outputs[:2])
    assert not spec.check(inputs[0], [-1] + outputs[0][1:])


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
@pytest.mark.parametrize("bits", [14, 32])
def test_accepts_inputs_of_any_integer_dtype(dtype, bits):
    """Request operands may be signed or narrow integer arrays (the
    server's corruption check passes them as they are): they are checked
    as uint64 lanes, not promoted to float64 or wrapped at 32 bits."""
    spec = _spec("ntt", False, 64, bits)
    inputs = _inputs(spec, 3, bits)
    outputs = [spec.expected(x) for x in inputs]
    typed = np.array(inputs, dtype=dtype)
    assert spec.check(typed, outputs)
    assert spec.check(typed[0], outputs[0])
    wrong = [list(row) for row in outputs]
    wrong[2][7] = (wrong[2][7] + 1) % spec.q
    assert not spec.check(typed, wrong)


# -- mutation: a broken lane multiply --------------------------------------------

def _plus_one(real):
    def mod_mul_arr(a, b, q):
        return (real(a, b, q) + np.uint64(1)) % np.uint64(q)
    return mod_mul_arr


@pytest.mark.parametrize("bits", [32, 40])
@pytest.mark.parametrize("kind,inverse", KINDS)
def test_a_broken_lane_multiply_is_caught(kind, inverse, bits, monkeypatch,
                                          fresh_checks):
    """``(a·b + 1) mod q`` in every lane multiply breaks the bank's
    stacked kernels and the array golden alike, so comparing against
    the golden passes it.  The check still raises, with ``Mᵀ·r`` built
    under the same bug: the bank's network and the transpose of the
    golden's network break the identity differently."""
    spec = _spec(kind, inverse, 512, bits)
    values = tuple(_inputs(spec, 1, bits)[0])
    request = (NegacyclicRequest(ring=spec.ring, values=values,
                                 inverse=inverse)
               if kind == "negacyclic"
               else NttRequest(params=spec.params, values=values,
                               inverse=inverse))
    monkeypatch.setattr(vector, "mod_mul_arr",
                        _plus_one(vector.mod_mul_arr))
    with pytest.raises(FunctionalMismatch):
        Simulator().run(request)


# -- the warm path -------------------------------------------------------------

@pytest.mark.parametrize("kind,inverse", KINDS)
def test_a_warm_dispatch_runs_no_golden_transform(kind, inverse,
                                                  monkeypatch):
    """Once a spec has run, an 8-bank dispatch of it verifies with every
    array golden transform patched to raise."""
    spec = _spec(kind, inverse, 512, 32)
    inputs = [[x] for x in _inputs(spec, 8, 3)]
    _run_dispatch(inputs[:1], [spec], SimConfig())

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm check ran a golden transform")

    for name in GOLDEN_KERNELS:
        monkeypatch.setattr(vector, name, forbidden)
    result = _run_dispatch(inputs, [spec] * 8, SimConfig())
    assert result.verified
    monkeypatch.undo()
    assert result.outputs == [spec.expected(x) for (x,) in inputs]


# -- property: any corrupted row of a stacked dispatch raises ------------------

@given(kind=st.sampled_from(KINDS), bits=st.sampled_from([32, 40, 60]),
       banks=st.integers(1, 4), slots=st.integers(1, 3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_corrupted_row_of_a_stacked_dispatch_raises(kind, bits, banks,
                                                        slots, data):
    """Adding a nonzero residue to any 1…N words of one (bank, slot) row
    keeps every word reduced; the dot products must still catch it."""
    spec = _spec(*kind, 64, bits)
    bank = data.draw(st.integers(0, banks - 1), label="bank")
    slot = data.draw(st.integers(0, slots - 1), label="slot")
    words = data.draw(st.lists(st.integers(0, spec.n - 1), min_size=1,
                               max_size=spec.n, unique=True), label="words")
    deltas = np.array(data.draw(
        st.lists(st.integers(1, spec.q - 1), min_size=len(words),
                 max_size=len(words)), label="deltas"), dtype=np.uint64)
    inputs = [_inputs(spec, slots, f"{bank}:{slot}:{k}")
              for k in range(banks)]
    config = SimConfig()
    (programs,), stream, _ = compile_dispatch([spec], slots, config)
    real_read = PimBank.read_polynomial
    reads = []

    def corrupted(self, base_row, length):
        out = real_read(self, base_row, length)
        if len(reads) == slot:
            out[bank, words] = (out[bank, words] + deltas) % np.uint64(spec.q)
        reads.append(base_row)
        return out

    assert _run_bank(spec, inputs, config, programs, stream)[0] == [
        [spec.expected(x) for x in row] for row in inputs]
    with mock.patch.object(PimBank, "read_polynomial", corrupted):
        with pytest.raises(FunctionalMismatch):
            _run_bank(spec, inputs, config, programs, stream)
    assert len(reads) == slots
