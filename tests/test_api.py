"""Tests for the repro.api facade: registry round-trip, request
validation, response-envelope equality with the engine-room entry
points, shared schedule caching and same-shape merging."""

import hashlib
import random
import re
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from compute_paths import on_path

from repro.api import (
    BankSpec,
    BatchRequest,
    DagRequest,
    FheOpRequest,
    KyberKemRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    SimRequest,
    SimResponse,
    Simulator,
    UnknownWorkloadError,
    get_workload,
    merge_key,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.arith import NttParams, find_ntt_prime
from repro.errors import RequestValidationError
from repro.mapping.mapper import MapperOptions
from repro.ntt import NegacyclicParams
from repro.pim import PimParams
from repro.serve import ServeRequest, SimServer
from repro.sim import SimConfig, TransformSpec, schedule_cache_info
from repro.sim.driver import _run_dispatch

N = 256
Q = find_ntt_prime(N, 32)
QN = find_ntt_prime(N, 32, negacyclic=True)
PARAMS = NttParams(N, Q)
RING = NegacyclicParams(N, QN)


def _data(seed=0, q=Q, n=N):
    rng = random.Random(seed)
    return [rng.randrange(q) for _ in range(n)]


def _legacy(call, *args, **kwargs):
    """Run an engine-room entry point directly."""
    return call(*args, **kwargs)


class TestRegistry:
    def test_builtins_registered(self):
        names = workload_names()
        for name in ("ntt", "negacyclic", "batch", "multibank", "fhe",
                     "program"):
            assert name in names

    def test_round_trip_custom_workload(self):
        @dataclass(frozen=True)
        class EchoRequest(SimRequest):
            workload: ClassVar[str] = "echo-test"
            payload: int = 0

        @register_workload("echo-test")
        def run_echo(config, request):
            return SimResponse(workload="echo-test",
                               values=[request.payload])

        try:
            assert "echo-test" in workload_names()
            response = Simulator().run(EchoRequest(payload=42))
            assert response.values == [42]
            assert response.workload == "echo-test"
            # The envelope is stamped even for third-party workloads.
            assert "schedule" in response.cache
        finally:
            unregister_workload("echo-test")
        assert "echo-test" not in workload_names()

    def test_duplicate_registration_rejected(self):
        @register_workload("dup-test")
        def first(config, request):  # pragma: no cover - never run
            return None

        try:
            with pytest.raises(ValueError, match="already registered"):
                @register_workload("dup-test")
                def second(config, request):  # pragma: no cover
                    return None

            # replace=True is the explicit override.
            @register_workload("dup-test", replace=True)
            def third(config, request):  # pragma: no cover
                return None

            assert get_workload("dup-test") is third
        finally:
            unregister_workload("dup-test")

    def test_unknown_workload(self):
        with pytest.raises(UnknownWorkloadError, match="no-such-workload"):
            get_workload("no-such-workload")

    def test_unknown_workload_message_unmangled(self):
        try:
            get_workload("no-such-workload")
        except UnknownWorkloadError as exc:
            # Must not inherit KeyError's repr-quoting __str__.
            assert str(exc).startswith("unknown workload")


class TestValidation:
    def test_ntt_wrong_length(self):
        with pytest.raises(RequestValidationError, match="expected 256"):
            Simulator().run(NttRequest(params=PARAMS, values=[1, 2, 3]))

    def test_negacyclic_wrong_length(self):
        with pytest.raises(RequestValidationError):
            Simulator().run(NegacyclicRequest(ring=RING, values=[0] * 7))

    def test_batch_empty(self):
        with pytest.raises(RequestValidationError, match="at least one"):
            Simulator().run(BatchRequest(params=PARAMS, inputs=[]))

    def test_multibank_ragged(self):
        with pytest.raises(RequestValidationError, match="bank 1"):
            Simulator().run(MultiBankRequest(
                params=PARAMS, inputs=[[0] * N, [0] * (N - 1)]))

    def test_fhe_unknown_op(self):
        with pytest.raises(RequestValidationError, match="unknown FHE op"):
            Simulator().run(FheOpRequest(ring=RING, op="divide", a=[0] * N))

    def test_fhe_wrong_ring_type(self):
        with pytest.raises(RequestValidationError, match="NegacyclicParams"):
            Simulator().run(FheOpRequest(ring=PARAMS, op="forward",
                                         a=[0] * N))

    def test_fhe_multiply_needs_b(self):
        with pytest.raises(RequestValidationError, match="second operand"):
            Simulator().run(FheOpRequest(ring=RING, op="multiply", a=[0] * N))

    def test_program_empty(self):
        with pytest.raises(RequestValidationError):
            Simulator().run(ProgramRequest(commands=()))

    def test_each_request_validated_once(self, monkeypatch):
        """Admission validates a request once; a group the server
        merges from admitted members is not re-validated at dispatch,
        and a failed validation is never remembered."""
        calls = []
        for cls in (NttRequest, MultiBankRequest):
            real = cls.validate
            monkeypatch.setattr(
                cls, "validate",
                lambda self, real=real: (calls.append(type(self)),
                                         real(self))[1])
        requests = [NttRequest(params=PARAMS, values=_data(seed))
                    for seed in range(4)]
        results = SimServer(window_us=10.0, max_banks=8).serve(requests)
        assert [r.record.group_banks for r in results] == [4] * 4
        Simulator().run(requests[0])
        assert calls == [NttRequest] * 4
        bad = NttRequest(params=PARAMS, values=[1, 2, 3])
        for _ in range(2):
            with pytest.raises(RequestValidationError):
                Simulator().run(bad)
        assert calls == [NttRequest] * 6

    def test_requests_are_frozen(self):
        request = NttRequest(params=PARAMS, values=_data())
        with pytest.raises(AttributeError):
            request.inverse = True
        assert isinstance(request.values, tuple)


class TestCoefficientRange:
    """One input rule for every coefficient-carrying request, on both
    compute paths: values lie in [0, q).  Anything else is a
    RequestValidationError before any simulation work — never a raw
    NumPy OverflowError, never a silent reduction mod q."""

    @staticmethod
    def _requests(bad):
        def row(q=Q, n=N):
            values = _data(q=q, n=n)
            values[n // 2] = bad if bad is not None else q
            return values

        ok = _data()
        return [
            NttRequest(params=PARAMS, values=row()),
            NegacyclicRequest(ring=RING, values=row(QN)),
            BatchRequest(params=PARAMS, inputs=[ok, row()]),
            MultiBankRequest(params=PARAMS, inputs=[ok, row()]),
            MultiBankRequest(specs=[BankSpec(params=PARAMS),
                                    BankSpec(ring=RING)],
                             inputs=[ok, row(QN)]),
            FheOpRequest(ring=RING, op="forward", a=row(QN)),
            FheOpRequest(ring=RING, op="multiply", a=_data(q=QN),
                         b=row(QN)),
            KyberKemRequest(a=row(3329), b=_data(q=3329), q=3329),
            ProgramRequest(commands=TransformSpec(params=PARAMS).program(
                SimConfig(), 0).commands, functional=True, modulus=Q,
                memory=[(0, row())]),
        ]

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize("bad", [-1, None, 2**64],
                             ids=["negative", "q", "2**64"])
    def test_out_of_range_rejected(self, path, bad):
        with on_path(path):
            for request in self._requests(bad):
                with pytest.raises(RequestValidationError,
                                   match=r"coefficients must lie in \[0, q\)"):
                    Simulator().run(request)

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize("bad", [1.5, "5", 2.0],
                             ids=["float", "str", "integral-float"])
    def test_non_integer_rejected(self, path, bad):
        """A non-integer coefficient is a RequestValidationError on both
        compute paths — never silently truncated by a uint64 conversion,
        never a raw TypeError or a misleading FunctionalMismatch."""
        with on_path(path):
            for request in self._requests(bad):
                with pytest.raises(RequestValidationError,
                                   match="coefficients must be integers"):
                    Simulator().run(request)

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_integral_types_accepted(self, path):
        """bool and NumPy integer scalars are integers: they are served
        exactly like the equal Python ints."""
        import numpy as np

        values = _data()
        typed = [np.int64(v) for v in values]
        typed[0], typed[1] = True, np.uint64(values[1])
        values[0] = 1
        with on_path(path):
            plain = Simulator().run(NttRequest(params=PARAMS, values=values))
            mixed = Simulator().run(NttRequest(params=PARAMS, values=typed))
        assert mixed.verified and mixed.values == plain.values

    def test_raw_program_words_bounded_by_bank_width(self):
        request = ProgramRequest(
            commands=TransformSpec(params=PARAMS).program(
                SimConfig(), 0).commands,
            functional=True, memory=[(0, [0, 2**64])])
        with pytest.raises(RequestValidationError, match="memory row 0"):
            request.validate()

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_range_edges_accepted(self, path):
        values = _data()
        values[0], values[1] = 0, Q - 1
        with on_path(path):
            response = Simulator().run(NttRequest(params=PARAMS,
                                                  values=values))
        assert response.verified


def _wide_ring() -> NegacyclicParams:
    """A ring over a 65-bit NTT prime, whose residues do not fit the
    64-bit bank word.  Its psi is ``x^((q-1)/2N)`` for a quadratic
    non-residue ``x``, which has order exactly 2N, so ``q - 1`` (slow
    to factor for this q) is never factored."""
    q = find_ntt_prime(N, 65, negacyclic=True)
    x = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
    return NegacyclicParams(N, q, pow(x, (q - 1) // (2 * N), q))


RING65 = _wide_ring()


class TestModulusWidth:
    """A modulus the bank word cannot hold is a RequestValidationError
    on both compute paths, before any simulation work — never a raw
    OverflowError from the bank, never silently accepted."""

    @staticmethod
    def _requests():
        params, ring = RING65.cyclic, RING65
        row = _data(q=RING65.q)
        return [
            NttRequest(params=params, values=row),
            NegacyclicRequest(ring=ring, values=row),
            BatchRequest(params=params, inputs=[row, row]),
            MultiBankRequest(params=params, inputs=[row, row]),
            MultiBankRequest(specs=[BankSpec(params=PARAMS),
                                    BankSpec(ring=ring)],
                             inputs=[_data(), row]),
            FheOpRequest(ring=ring, op="forward", a=row),
            FheOpRequest(ring=ring, op="multiply", a=row, b=row),
            KyberKemRequest(a=row, b=row, q=RING65.q),
            DagRequest(nodes=[("wide", NttRequest(params=params,
                                                  values=row))]),
        ]

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_wide_modulus_rejected(self, path):
        with on_path(path):
            for request in self._requests():
                with pytest.raises(RequestValidationError,
                                   match="wider than the 64-bit bank word"):
                    Simulator().run(request)
            # A timing-only request carries no residues: still served.
            timing = Simulator(SimConfig(functional=False)).run(
                NttRequest(params=RING65.cyclic))
        assert timing.cycles > 0

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize("modulus", [Q + 1, 2, 2**70 + 1, 2**64 + 1],
                             ids=["even", "two", "2**70+1", "2**64+1"])
    def test_program_modulus_must_suit_the_montgomery_bu(self, path,
                                                         modulus):
        """An even, too-small or too-wide functional modulus fails one
        way: the Montgomery BU takes odd moduli in [3, 2**64)."""
        request = ProgramRequest(
            commands=TransformSpec(params=PARAMS).program(
                SimConfig(), 0).commands,
            functional=True, modulus=modulus, memory=[(0, [1] * N)],
            read_rows=(0, N))
        with on_path(path):
            with pytest.raises(RequestValidationError,
                               match=r"odd and in \[3, 2\*\*64\)"):
                Simulator().run(request)


class TestLegacyEquivalence:
    """The facade and the engine-room entry points are bit-identical."""

    def test_ntt_matches_driver(self):
        x = _data(1)
        legacy = _legacy(_run_dispatch, [[x]], [TransformSpec(params=PARAMS)],
                         SimConfig())
        response = Simulator().run(NttRequest(params=PARAMS, values=x))
        assert response.values == legacy.outputs[0]
        assert response.cycles == legacy.cycles
        assert response.energy_nj == legacy.schedule.energy_nj
        assert response.command_count == legacy.command_count
        assert response.counters["bu_ops"] == legacy.bu_ops
        assert response.activations == legacy.schedule.stats.activations
        assert response.verified and legacy.verified

    def test_intt_matches_driver(self):
        x = _data(2)
        legacy = _legacy(_run_dispatch, [[x]],
                         [TransformSpec(params=PARAMS, inverse=True)],
                         SimConfig())
        response = Simulator().run(NttRequest(params=PARAMS, values=x,
                                              inverse=True))
        assert response.values == legacy.outputs[0]
        assert response.cycles == legacy.cycles

    def test_negacyclic_matches_driver(self):
        x = _data(3, q=QN)
        legacy = _legacy(_run_dispatch, [[x]],
                         [TransformSpec(kind="negacyclic", ring=RING)],
                         SimConfig())
        response = Simulator().run(NegacyclicRequest(ring=RING, values=x))
        assert response.values == legacy.outputs[0]
        assert response.cycles == legacy.cycles
        assert response.energy_nj == legacy.schedule.energy_nj
        assert response.verified

    def test_batch_matches_run_batch(self):
        inputs = [_data(4), _data(5)]
        legacy = _legacy(_run_dispatch, [inputs],
                         [TransformSpec(params=PARAMS)], SimConfig())
        response = Simulator().run(BatchRequest(params=PARAMS, inputs=inputs))
        assert response.cycles == legacy.cycles
        assert response.metrics["amortization"] == (
            legacy.single_cycles / (legacy.cycles / 2))
        assert response.outputs == legacy.outputs
        assert response.verified and legacy.verified

    def test_multibank_matches_run_multibank(self):
        inputs = [_data(6), _data(7), _data(8)]
        legacy = _legacy(_run_dispatch, [[x] for x in inputs],
                         [TransformSpec(params=PARAMS)] * 3, SimConfig())
        response = Simulator().run(MultiBankRequest(params=PARAMS,
                                                    inputs=inputs))
        speedup = 3 * legacy.single_cycles / legacy.cycles
        assert response.cycles == legacy.cycles
        assert response.metrics["speedup"] == speedup
        assert response.metrics["efficiency"] == speedup / 3
        assert response.outputs == legacy.outputs
        # Per-bank outputs match individual single-transform runs.
        for values, out in zip(inputs, response.outputs):
            single = Simulator().run(NttRequest(params=PARAMS, values=values))
            assert out == single.values


class TestScheduleCache:
    def test_batch_hits_schedule_cache_on_repeat(self):
        simulator = Simulator()
        inputs = [_data(10), _data(11)]
        simulator.run(BatchRequest(params=PARAMS, inputs=inputs))
        again = simulator.run(BatchRequest(params=PARAMS, inputs=inputs))
        # Both the merged and the single-shot schedules hit.
        assert again.cache["schedule"]["hits"] >= 2
        assert again.cache["schedule"]["misses"] == 0
        assert again.cache["program"]["misses"] == 0

    def test_multibank_hits_schedule_cache_on_repeat(self):
        simulator = Simulator()
        inputs = [_data(12), _data(13)]
        simulator.run(MultiBankRequest(params=PARAMS, inputs=inputs))
        again = simulator.run(MultiBankRequest(params=PARAMS, inputs=inputs))
        assert again.cache["schedule"]["hits"] >= 2
        assert again.cache["schedule"]["misses"] == 0

    def test_structural_key_shared_across_paths(self):
        """A single-bank NTT and a batch's first slot share one schedule."""
        simulator = Simulator()
        x = _data(14)
        simulator.run(NttRequest(params=PARAMS, values=x))
        batch = simulator.run(BatchRequest(params=PARAMS, inputs=[x]))
        # The batch's single-shot reference schedule is the same program
        # the plain run cached — a structural (not identity) hit.
        assert batch.cache["schedule"]["hits"] >= 1

    def test_cache_info_shape(self):
        info = Simulator().cache_info()
        assert set(info) == {"program", "stream", "schedule"}
        for cache in ("program", "schedule"):
            assert set(info[cache]) == {"entries", "hits", "misses"}
        assert schedule_cache_info()["entries"] >= 0


class TestMultiBankKinds:
    """The generalized MultiBankRequest: per-bank inverse cyclic and
    negacyclic transforms, bit-identical to single-request runs."""

    def test_inverse_cyclic_banks_match_single_runs(self):
        simulator = Simulator()
        inputs = [_data(70 + i) for i in range(3)]
        merged = simulator.run(MultiBankRequest(params=PARAMS, inputs=inputs,
                                                inverse=True))
        assert merged.verified
        for values, out in zip(inputs, merged.outputs):
            solo = simulator.run(NttRequest(params=PARAMS, values=values,
                                            inverse=True))
            assert out == solo.values

    @pytest.mark.parametrize("inverse", [False, True])
    def test_negacyclic_banks_match_single_runs(self, inverse):
        simulator = Simulator()
        inputs = [_data(80 + i, q=QN) for i in range(3)]
        merged = simulator.run(MultiBankRequest(ring=RING, inputs=inputs,
                                                inverse=inverse))
        assert merged.verified
        for values, out in zip(inputs, merged.outputs):
            solo = simulator.run(NegacyclicRequest(ring=RING, values=values,
                                                   inverse=inverse))
            assert out == solo.values

    def test_exactly_one_kind_required(self):
        with pytest.raises(RequestValidationError, match="exactly one"):
            MultiBankRequest(inputs=[[0] * N]).validate()
        with pytest.raises(RequestValidationError, match="exactly one"):
            MultiBankRequest(params=PARAMS, ring=RING,
                             inputs=[[0] * N]).validate()


class TestFheWorkload:
    def test_multiply_verified_against_software(self):
        a, b = _data(40, q=QN), _data(41, q=QN)
        response = Simulator().run(FheOpRequest(ring=RING, op="multiply",
                                                a=a, b=b))
        from repro.ntt import naive_negacyclic_convolution
        assert response.values == naive_negacyclic_convolution(a, b, QN)
        assert response.verified
        assert response.metrics["transforms"] == 3
        assert response.cycles > 0 and response.energy_nj > 0

    def test_native_equals_hosted(self):
        a, b = _data(42, q=QN), _data(43, q=QN)
        hosted = Simulator().run(FheOpRequest(ring=RING, op="multiply",
                                              a=a, b=b, native=False))
        native = Simulator().run(FheOpRequest(ring=RING, op="multiply",
                                              a=a, b=b, native=True))
        assert hosted.values == native.values

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize("native", [False, True])
    @pytest.mark.parametrize("op", FheOpRequest.OPS)
    def test_timing_only_matches_functional_run(self, op, native, path):
        """A timing-only FHE op returns no values and is unverified, but
        carries the functional run's cycles, energy, command count and
        counters."""
        a, b = _data(44, q=QN), _data(45, q=QN)
        request = FheOpRequest(ring=RING, op=op, a=a,
                               b=b if op == "multiply" else None,
                               native=native)
        with on_path(path):
            functional = Simulator().run(request)
            timing_only = Simulator(SimConfig(functional=False)).run(request)
        assert functional.verified and len(functional.values) == N
        assert timing_only.values == []
        assert not timing_only.verified
        assert timing_only.cycles == functional.cycles
        assert timing_only.latency_us == functional.latency_us
        assert timing_only.energy_nj == functional.energy_nj
        assert timing_only.command_count == functional.command_count
        assert timing_only.counters == functional.counters
        assert timing_only.metrics == functional.metrics


class TestResponseEnvelope:
    def test_metadata_fields(self):
        response = Simulator().run(NttRequest(params=PARAMS, values=_data()))
        assert response.wall_time_s > 0
        assert response.request.params is PARAMS
        assert response.latency_ns == pytest.approx(
            response.latency_us * 1000.0)
        assert response.schedule is not None
        assert "ACT" in response.counters

    def test_summary_mentions_shape_and_workload(self):
        response = Simulator().run(NttRequest(params=PARAMS, values=_data()))
        line = response.summary()
        assert f"N={N:>5}" in line
        assert "[ntt]" in line
        assert "verified=yes" in line


class TestPinnedEnvelopes:
    """Every transform request kind's response envelope, pinned by digest.

    Values, outputs, cycles, latency, energy, verified, command count,
    counters, metrics and the cold-then-warm cache deltas of lone,
    batched and multi-bank transforms under four configs; a change to
    any simulated number, response field or cache lookup changes the
    digest.  Both compute paths must produce the same one.
    """

    DIGEST = ("f07746e8a7da027c1442c88fcbe47d01"
              "3997324fff1f93b0a4db0dbe638d0a14")

    CONFIGS = (
        SimConfig(),
        SimConfig(pim=PimParams(nb_buffers=1)),
        SimConfig(pim=PimParams(nb_buffers=4), base_row=5,
                  mapper_options=MapperOptions(in_place_update=False)),
        SimConfig(pim=PimParams(nb_buffers=6), functional=False),
    )

    @staticmethod
    def _requests(cyclic_only: bool):
        n = 512
        params = NttParams(n, find_ntt_prime(n, 32))
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        x = [tuple(_data(seed, params.q, n)) for seed in range(3)]
        y = [tuple(_data(seed, ring.q, n)) for seed in range(3, 6)]
        yield NttRequest(params=params, values=x[0])
        yield NttRequest(params=params, values=x[1], inverse=True)
        yield BatchRequest(params=params, inputs=x)
        yield MultiBankRequest(params=params, inputs=x)
        if cyclic_only:  # Nb=1 maps cyclic transforms only
            return
        yield NegacyclicRequest(ring=ring, values=y[0])
        yield NegacyclicRequest(ring=ring, values=y[1], inverse=True)
        yield MultiBankRequest(ring=ring, inputs=y, inverse=True)
        yield MultiBankRequest(
            specs=(BankSpec(params=params), BankSpec(ring=ring, inverse=True),
                   BankSpec(params=params, inverse=True), BankSpec(ring=ring)),
            inputs=(x[0], y[0], x[1], y[1]))

    @staticmethod
    def _envelope(response: SimResponse) -> bytes:
        return repr((
            response.workload, response.values, response.outputs,
            response.cycles, response.latency_us, response.energy_nj,
            response.verified, response.command_count,
            sorted(response.counters.items()),
            sorted(response.metrics.items()),
            sorted((k, sorted(v.items())) for k, v in response.cache.items()),
        )).encode()

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_envelope_digest(self, path):
        h = hashlib.sha256()
        count = 0
        with on_path(path):
            for config in self.CONFIGS:
                simulator = Simulator(config)
                for request in self._requests(config.pim.nb_buffers == 1):
                    Simulator.clear_caches()
                    for _ in ("cold", "warm"):
                        h.update(self._envelope(simulator.run(request)))
                        count += 1
        Simulator.clear_caches()
        assert count == 56
        assert h.hexdigest() == self.DIGEST


class TestProgramFunctional:
    def _program(self):
        return TransformSpec(params=PARAMS).program(SimConfig(), 0)

    def test_functional_program_transforms_bank_data(self):
        from repro.arith import bit_reverse_permute
        from repro.ntt import ntt as reference_ntt
        prog = self._program()
        values = _data(80)
        request = ProgramRequest(
            commands=prog.commands, functional=True, modulus=Q,
            memory=((0, tuple(bit_reverse_permute(values))),),
            read_rows=(prog.result_base_row, N), label="fn-window")
        response = Simulator().run(request)
        assert response.values == reference_ntt(values, PARAMS)
        assert response.counters.get("bu_ops", 0) > 0
        assert response.metrics["label"] == "fn-window"
        assert response.cycles > 0  # timing still reported

    def test_timing_only_default_unchanged(self):
        response = Simulator().run(
            ProgramRequest(commands=self._program().commands))
        assert response.values == []
        assert "bu_ops" not in response.counters

    def test_functional_fields_require_functional_flag(self):
        commands = self._program().commands
        for bad in (dict(modulus=Q), dict(read_rows=(0, N)),
                    dict(memory=((0, (1, 2)),))):
            with pytest.raises(RequestValidationError,
                               match="functional=True"):
                Simulator().run(ProgramRequest(commands=commands, **bad))

    def test_functional_validation(self):
        commands = self._program().commands
        with pytest.raises(RequestValidationError, match="modulus"):
            Simulator().run(ProgramRequest(commands=commands,
                                           functional=True, modulus=1))
        with pytest.raises(RequestValidationError, match="read_rows"):
            Simulator().run(ProgramRequest(commands=commands,
                                           functional=True,
                                           read_rows=(0, 0)))
        with pytest.raises(RequestValidationError, match="base_row"):
            Simulator().run(ProgramRequest(commands=commands,
                                           functional=True,
                                           memory=((-1, (1,)),)))

    def test_config_functional_switch_gates_execution(self):
        """SimConfig(functional=False) keeps a functional request
        timing-only (the sweep idiom wins)."""
        prog = self._program()
        request = ProgramRequest(
            commands=prog.commands, functional=True, modulus=Q,
            memory=((0, tuple(_data(81))),), read_rows=(prog.result_base_row, N))
        response = Simulator(SimConfig(functional=False)).run(request)
        assert response.values == []


KYBER_Q = 3329

#: Every coefficient slot of every request kind: ``(build, q, field)``,
#: where ``build(operand)`` puts ``operand`` in the slot (other
#: operands valid), ``q`` is the slot's modulus and ``field`` the label
#: its errors name.
OPERAND_SLOTS = {
    "ntt": (lambda v: NttRequest(params=PARAMS, values=v), Q, "values"),
    "negacyclic": (lambda v: NegacyclicRequest(ring=RING, values=v), QN,
                   "values"),
    "batch": (lambda v: BatchRequest(params=PARAMS, inputs=[_data(), v]), Q,
              "inputs row 1"),
    "multibank": (lambda v: MultiBankRequest(params=PARAMS,
                                             inputs=[_data(), v]),
                  Q, "inputs row 1"),
    "multibank-specs": (lambda v: MultiBankRequest(
        specs=[BankSpec(params=PARAMS), BankSpec(ring=RING, inverse=True)],
        inputs=[_data(), v]), QN, "inputs row 1"),
    "fhe-a": (lambda v: FheOpRequest(ring=RING, op="forward", a=v), QN, "a"),
    "fhe-b": (lambda v: FheOpRequest(ring=RING, op="multiply",
                                     a=_data(q=QN), b=v), QN, "b"),
    "kyber-a": (lambda v: KyberKemRequest(a=v, b=_data(q=KYBER_Q),
                                          q=KYBER_Q), KYBER_Q, "a"),
    "kyber-b": (lambda v: KyberKemRequest(a=_data(q=KYBER_Q), b=v,
                                          q=KYBER_Q), KYBER_Q, "b"),
    "dag": (lambda v: DagRequest(nodes=(
        ("fwd", NttRequest(params=PARAMS, values=v)),
        ("inv", NttRequest(params=PARAMS, inverse=True))),
        edges=(("fwd", "inv", "values"),)), Q, "values"),
}


def _bad_array(kind: str, q: int) -> np.ndarray:
    ok = np.array(_data(seed=5, q=q), dtype=np.uint64)
    if kind == "ge-q":
        ok[N // 2] = q
        return ok
    if kind == "negative":
        signed = ok.astype(np.int64)
        signed[N // 2] = -1
        return signed
    return {"length": ok[:-1], "2-D": ok.reshape(N, 1),
            "float": ok.astype(np.float64)}[kind]


def _tuple_twin(array: np.ndarray) -> tuple:
    return tuple(tuple(row) if isinstance(row, list) else row
                 for row in array.tolist())


class TestArrayOperands:
    """A coefficient operand may be a 1-D integer NumPy array: it is
    validated, compared, hashed, merged, cached and served exactly like
    its tuple twin, and the request keeps a read-only copy."""

    @pytest.mark.parametrize("scalar", [5, np.uint64(5), np.array(5)],
                             ids=["int", "uint64", "0-d"])
    @pytest.mark.parametrize("slot", sorted(OPERAND_SLOTS))
    def test_scalar_operand_is_a_validation_error(self, slot, scalar):
        build, _, field = OPERAND_SLOTS[slot]
        with pytest.raises(RequestValidationError,
                           match=f"^{field}: expected a sequence"):
            build(scalar)

    @pytest.mark.parametrize("request_type", [BatchRequest, MultiBankRequest])
    def test_scalar_rows_are_a_validation_error(self, request_type):
        with pytest.raises(RequestValidationError, match="^inputs row 0"):
            request_type(params=PARAMS, inputs=[5, 6])
        with pytest.raises(RequestValidationError, match="^inputs: expected"):
            request_type(params=PARAMS, inputs=5)

    @pytest.mark.parametrize("bad", ["ge-q", "negative", "length", "2-D",
                                     "float"])
    @pytest.mark.parametrize("slot", sorted(OPERAND_SLOTS))
    def test_bad_array_fails_like_its_tuple_twin(self, slot, bad):
        """The same error and message; only the type names an integer
        check lists differ (``ndarray``/``float64`` against
        ``tuple``/``float``)."""
        build, q, _ = OPERAND_SLOTS[slot]
        array = _bad_array(bad, q)
        messages = []
        for operand in (array, _tuple_twin(array)):
            with pytest.raises(RequestValidationError) as info:
                Simulator().run(build(operand))
            messages.append(re.sub(r"got \[[^\]]*\]", "got [...]",
                                   str(info.value)))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    @pytest.mark.parametrize("slot", sorted(OPERAND_SLOTS))
    def test_array_request_is_its_tuple_twin(self, slot, dtype):
        """Equal, the same hash and merge key, and a bit-identical
        response: values, outputs, timing and verification."""
        build, q, _ = OPERAND_SLOTS[slot]
        values = _data(seed=9, q=q)
        array, twin = build(np.array(values, dtype=dtype)), build(values)
        assert array == twin and hash(array) == hash(twin)
        assert array != build(_data(seed=10, q=q))
        assert merge_key(array) == merge_key(twin)
        got, want = Simulator().run(array), Simulator().run(twin)
        assert got.verified and want.verified
        assert (got.values, got.outputs, got.cycles, got.counters) == \
            (want.values, want.outputs, want.cycles, want.counters)

    def test_twins_cache_alike_and_merge_into_one_dispatch(self):
        rows = [_data(seed=i) for i in range(4)]
        arrays = [NttRequest(params=PARAMS,
                             values=np.array(row, dtype=np.uint64))
                  for row in rows]
        tuples = [NttRequest(params=PARAMS, values=row) for row in rows]
        caches = []
        for requests in (arrays, tuples):
            Simulator.clear_caches()
            cold = [Simulator().run(r).cache for r in requests]
            grouped = Simulator().run(Simulator.merge_requests(requests))
            caches.append((cold, grouped.cache))
        assert caches[0] == caches[1]
        mixed = [arrays[0], tuples[1], arrays[2], tuples[3]]
        sreqs = [ServeRequest(request=r, arrival_us=0.0, request_id=i + 1)
                 for i, r in enumerate(mixed)]
        results = SimServer(SimConfig(), window_us=10.0,
                            max_banks=8).serve(sreqs)
        assert [r.record.group_banks for r in results] == [4] * 4
        solo = Simulator()
        for request, result in zip(tuples, results):
            assert result.response.values == solo.run(request).values

    def test_caller_writes_reach_neither_request_nor_response(self):
        values = _data(seed=3)
        caller = np.array(values, dtype=np.uint64)
        request = NttRequest(params=PARAMS, values=caller)
        caller[:] = 0
        assert request.values.tolist() == values
        assert not request.values.flags.writeable
        with pytest.raises(ValueError):
            request.values[0] = 1
        response = Simulator().run(request)
        expected = list(response.values)
        caller[:] = 1
        assert response.values == expected == Simulator().run(
            NttRequest(params=PARAMS, values=values)).values
        # A read-only view of a writable array is copied too; a
        # read-only array that owns its data is kept as it is.
        base = np.array(values, dtype=np.uint64)
        view = base[:]
        view.flags.writeable = False
        viewed = NttRequest(params=PARAMS, values=view)
        base[0] += 1
        assert viewed.values.tolist() == values
        frozen = np.array(values, dtype=np.uint64)
        frozen.flags.writeable = False
        assert NttRequest(params=PARAMS, values=frozen).values is frozen
        grid = np.array([values, values[::-1]], dtype=np.uint64)
        multi = MultiBankRequest(params=PARAMS, inputs=grid)
        grid[:] = 0
        assert [row.tolist() for row in multi.inputs] == \
            [values, values[::-1]]
