"""Tests for the repro.api facade: registry round-trip, request
validation, response-envelope equality with the engine-room entry
points, shared schedule caching and run_many grouping."""

import random
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.api import (
    BatchRequest,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    SimRequest,
    SimResponse,
    Simulator,
    UnknownWorkloadError,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.arith import NttParams, find_ntt_prime
from repro.errors import RequestValidationError
from repro.ntt import NegacyclicParams
from repro.pim import PimParams
from repro.sim import SimConfig, TransformSpec, schedule_cache_info
from repro.sim.batch import _run_batch
from repro.sim.driver import _run_transform
from repro.sim.multibank import _run_multibank

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
            assert response.backend in ("python", "numpy")
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

    def test_requests_are_frozen(self):
        request = NttRequest(params=PARAMS, values=_data())
        with pytest.raises(AttributeError):
            request.inverse = True
        assert isinstance(request.values, tuple)


class TestLegacyEquivalence:
    """The facade and the engine-room entry points are bit-identical."""

    def test_ntt_matches_driver(self):
        x = _data(1)
        legacy = _legacy(_run_transform, TransformSpec(params=PARAMS), x,
                         SimConfig())
        response = Simulator().run(NttRequest(params=PARAMS, values=x))
        assert response.values == legacy.output
        assert response.cycles == legacy.cycles
        assert response.energy_nj == legacy.energy_nj
        assert response.command_count == legacy.command_count
        assert response.counters["bu_ops"] == legacy.bu_ops
        assert response.activations == legacy.activations
        assert response.verified and legacy.verified

    def test_intt_matches_driver(self):
        x = _data(2)
        legacy = _legacy(_run_transform,
                         TransformSpec(params=PARAMS, inverse=True), x,
                         SimConfig())
        response = Simulator().run(NttRequest(params=PARAMS, values=x,
                                              inverse=True))
        assert response.values == legacy.output
        assert response.cycles == legacy.cycles

    def test_negacyclic_matches_driver(self):
        x = _data(3, q=QN)
        legacy = _legacy(_run_transform,
                         TransformSpec(kind="negacyclic", ring=RING), x,
                         SimConfig())
        response = Simulator().run(NegacyclicRequest(ring=RING, values=x))
        assert response.values == legacy.output
        assert response.cycles == legacy.cycles
        assert response.energy_nj == legacy.energy_nj
        assert response.verified

    def test_batch_matches_run_batch(self):
        inputs = [_data(4), _data(5)]
        legacy = _legacy(_run_batch, inputs, PARAMS)
        response = Simulator().run(BatchRequest(params=PARAMS, inputs=inputs))
        assert response.cycles == legacy.cycles
        assert response.metrics["amortization"] == legacy.amortization
        assert response.outputs == legacy.outputs
        assert response.verified and legacy.verified

    def test_multibank_matches_run_multibank(self):
        inputs = [_data(6), _data(7), _data(8)]
        legacy = _legacy(_run_multibank, inputs, PARAMS)
        response = Simulator().run(MultiBankRequest(params=PARAMS,
                                                    inputs=inputs))
        assert response.cycles == legacy.cycles
        assert response.metrics["speedup"] == legacy.speedup
        assert response.metrics["efficiency"] == legacy.efficiency
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
        assert info["backend"] in ("python", "numpy")
        for cache in ("program", "schedule"):
            assert set(info[cache]) == {"entries", "hits", "misses"}
        assert schedule_cache_info()["entries"] >= 0


class TestRunMany:
    def test_grouped_outputs_match_individual_runs(self):
        simulator = Simulator()
        inputs = [_data(i) for i in range(20, 23)]
        requests = [NttRequest(params=PARAMS, values=x) for x in inputs]
        responses = simulator.run_many(requests)
        assert len(responses) == 3
        for x, response in zip(inputs, responses):
            single = simulator.run(NttRequest(params=PARAMS, values=x))
            assert response.values == single.values
            assert response.metrics["group_banks"] == 3
        assert [r.metrics["bank"] for r in responses] == [0, 1, 2]

    def test_grouped_energy_and_counters_split_per_bank(self):
        """Summing run_many responses must not overcount the group."""
        simulator = Simulator()
        inputs = [_data(i) for i in range(24, 27)]
        requests = [NttRequest(params=PARAMS, values=x) for x in inputs]
        responses = simulator.run_many(requests)
        group = responses[0].raw  # shared MultiBankResult
        total_nj = sum(r.energy_nj for r in responses)
        assert total_nj == pytest.approx(group.schedule.energy_nj)
        assert (sum(r.command_count for r in responses)
                == len(group.schedule.timings))
        assert (sum(r.counters["ACT"] for r in responses)
                == group.schedule.stats.activations)

    def test_mixed_requests_keep_order(self):
        simulator = Simulator()
        x = _data(30)
        requests = [
            NttRequest(params=PARAMS, values=x),
            NegacyclicRequest(ring=RING, values=_data(31, q=QN)),
            NttRequest(params=PARAMS, values=x),
        ]
        responses = simulator.run_many(requests)
        assert [r.workload for r in responses] == ["ntt", "negacyclic", "ntt"]
        assert responses[0].values == responses[2].values

    def test_max_banks_chunking(self):
        simulator = Simulator(SimConfig(functional=False, verify=False))
        requests = [NttRequest(params=PARAMS) for _ in range(5)]
        responses = simulator.run_many(requests, max_banks=2)
        banks = [r.metrics.get("group_banks") for r in responses]
        # 5 = 2 + 2 + 1: two pairs grouped, the leftover runs alone.
        assert banks.count(2) == 4 and banks.count(None) == 1

    def test_validates_everything_up_front(self, monkeypatch):
        simulator = Simulator(SimConfig(verify=False))
        ran = []
        monkeypatch.setattr(simulator, "run", ran.append)
        requests = [NttRequest(params=PARAMS, values=_data(60 + i))
                    for i in range(2)]
        requests.append(NttRequest(params=PARAMS, values=(1, 2, 3)))
        with pytest.raises(RequestValidationError):
            simulator.run_many(requests)
        assert ran == []  # the malformed tail stopped every unit

    def test_inverse_and_negacyclic_group_bit_identically(self):
        simulator = Simulator()
        requests = (
            [NttRequest(params=PARAMS, values=_data(40 + i), inverse=True)
             for i in range(2)]
            + [NegacyclicRequest(ring=RING, values=_data(50 + i, q=QN))
               for i in range(2)]
            + [NegacyclicRequest(ring=RING, values=_data(60 + i, q=QN),
                                 inverse=True) for i in range(2)])
        responses = simulator.run_many(requests)
        for request, response in zip(requests, responses):
            assert response.metrics["group_banks"] == 2
            assert response.values == simulator.run(request).values

    def test_forward_and_inverse_never_share_a_group(self):
        simulator = Simulator(SimConfig(functional=False, verify=False))
        responses = simulator.run_many(
            [NttRequest(params=PARAMS),
             NttRequest(params=PARAMS, inverse=True)])
        assert all("group_banks" not in r.metrics for r in responses)


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


class TestResponseEnvelope:
    def test_metadata_fields(self):
        response = Simulator().run(NttRequest(params=PARAMS, values=_data()))
        assert response.backend in ("python", "numpy")
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
        response = Simulator(SimConfig(functional=False,
                                       verify=False)).run(request)
        assert response.values == []
