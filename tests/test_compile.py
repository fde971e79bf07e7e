"""The pass-based IR compiler: per-pass bit-identity against the legacy
per-command engine, the merge passes against the legacy mergers, Nb=1
lane fusion, and the public ``repro.compile`` API surface."""

import itertools
import random

import numpy as np
import pytest

from repro.api import (
    BankSpec,
    BatchRequest,
    CompiledProgram,
    FheOpRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    Simulator,
    compile_request,
)
from repro.arith import NttParams, find_ntt_prime
from repro.arith.bitrev import bit_reverse_permute
from repro.compile import DEFAULT_PASSES, PASS_NAMES, normalize_passes
from repro.compile.ir import StreamIR
from repro.compile.lower import concat_irs, interleave_irs
from repro.dram import HBM2E_ARCH, HBM2E_TIMING, TimingEngine, compile_stream
from repro.errors import RequestValidationError
from repro.mapping.program_cache import cyclic_program
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.batch import concat_programs
from repro.sim.driver import SimConfig
from repro.sim.multibank import (
    TransformSpec,
    interleave_programs,
    normalize_specs,
)


def _bank_state(bank, base_row, n):
    cu = bank.cu
    return {
        "result": bank.read_polynomial(base_row, n),
        "buffers": [bank.buffers.read(b)
                    for b in range(bank.buffers.count)],
        "counters": (cu.bu_ops, cu.load_uops, cu.store_uops,
                     cu.twiddles_generated),
        "reg_a": cu.reg_a,
    }


def _run_legacy(config, q, commands, data, base_row, n):
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(0, list(data))
    bank.run(commands)
    return _bank_state(bank, base_row, n)


def _run_stream(config, q, stream, data, base_row, n):
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(q)
    bank.load_polynomial(0, list(data))
    bank.run_stream(stream)
    return _bank_state(bank, base_row, n)


class TestPassNormalization:
    def test_default_is_every_pass(self):
        assert normalize_passes(None) == set(PASS_NAMES)
        assert DEFAULT_PASSES == frozenset(PASS_NAMES)

    def test_string_means_singleton(self):
        assert normalize_passes("rename") == {"rename"}

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError, match="unknown compiler pass"):
            normalize_passes({"rename", "bogus"})


class TestPerPassBitIdentity:
    """Every subset of the optimization pipeline must execute and time
    bit-identically to the legacy per-command engine."""

    @pytest.mark.parametrize("off", [()] + [(p,) for p in PASS_NAMES])
    def test_each_pass_toggled_off(self, off):
        n = 256
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        passes = set(PASS_NAMES) - set(off)
        stream = compile_stream(program.commands, config.arch, passes=passes)
        data = bit_reverse_permute([(7 * i + 3) % q for i in range(n)])
        legacy = _run_legacy(config, q, program.commands, data,
                             program.result_base_row, n)
        fused = _run_stream(config, q, stream, data,
                            program.result_base_row, n)
        assert fused == legacy
        # ... and the timing engine sees the same schedule either way.
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                              compute=config.pim.compute_timing())
        by_cmd = engine.simulate(program.commands)
        by_stream = engine.simulate_stream(stream)
        assert by_stream.total_cycles == by_cmd.total_cycles
        assert by_stream.energy_nj == by_cmd.energy_nj
        assert by_stream.stats == by_cmd.stats

    def test_all_subsets_on_a_small_program(self):
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        data = bit_reverse_permute([(5 * i + 1) % q for i in range(n)])
        legacy = _run_legacy(config, q, program.commands, data,
                             program.result_base_row, n)
        for r in range(len(PASS_NAMES) + 1):
            for subset in itertools.combinations(PASS_NAMES, r):
                stream = compile_stream(program.commands, config.arch,
                                        passes=set(subset))
                fused = _run_stream(config, q, stream, data,
                                    program.result_base_row, n)
                assert fused == legacy, f"passes={subset}"


class TestLaneFusion:
    """Nb=1 µ-op programs fuse through the lane-granular renaming pass."""

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_fuzzed_nb1_equivalence(self, n):
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        assert stream.plan is not None, stream.fallback_reason
        assert stream.plan.mode == "lane"
        rng = random.Random(n)
        for _ in range(3):
            data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])
            legacy = _run_legacy(config, q, program.commands, data,
                                 program.result_base_row, n)
            fused = _run_stream(config, q, stream, data,
                                program.result_base_row, n)
            assert fused == legacy

    def test_lane_pass_off_falls_back(self):
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        cmds = cyclic_program(NttParams(n, q), config.arch,
                              config.pim).commands
        off = compile_stream(cmds, HBM2E_ARCH,
                             passes=set(PASS_NAMES) - {"lane_fuse"})
        assert off.plan is None


class TestMergePasses:
    """interleave/concat on the SoA IR reproduce the legacy command-level
    mergers command for command."""

    def test_interleave_matches_legacy(self):
        n = 256
        config = SimConfig()
        specs = normalize_specs(
            [TransformSpec(kind="ntt",
                           params=NttParams(n, find_ntt_prime(n, 32))),
             TransformSpec(kind="negacyclic",
                           ring=NegacyclicParams(
                               n, find_ntt_prime(n, 32, negacyclic=True)))],
            banks=2)
        programs = [s.program(config, k) for k, s in enumerate(specs)]
        merged_legacy = interleave_programs([p.commands for p in programs])
        ir = interleave_irs([StreamIR.from_commands(p.commands)
                             for p in programs])
        assert ir.materialize_commands() == tuple(merged_legacy)

    def test_concat_matches_legacy(self):
        n = 128
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        merged_legacy = concat_programs([program.commands] * 3)
        ir = concat_irs([StreamIR.from_commands(program.commands)] * 3)
        assert ir.materialize_commands() == tuple(merged_legacy)

    def test_mixed_kind_interleave_matches_two_separate_runs(self):
        n = 256
        q_c = find_ntt_prime(n, 32)
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        rng = random.Random(42)
        rows = [[rng.randrange(q_c) for _ in range(n)],
                [rng.randrange(ring.q) for _ in range(n)]]
        mixed = MultiBankRequest(
            specs=(BankSpec(params=NttParams(n, q_c)),
                   BankSpec(ring=ring)),
            inputs=tuple(tuple(r) for r in rows))
        merged = Simulator().run(mixed)
        assert merged.verified
        cyc = Simulator().run(NttRequest(params=NttParams(n, q_c),
                                         values=tuple(rows[0])))
        neg = Simulator().run(NegacyclicRequest(ring=ring,
                                                values=tuple(rows[1])))
        assert list(merged.outputs[0]) == list(cyc.values)
        assert list(merged.outputs[1]) == list(neg.values)


class TestCompileRequestApi:
    def test_ntt_request_compiles_fused(self):
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)))
        cp = compile_request(req)
        assert isinstance(cp, CompiledProgram)
        assert cp.fused
        assert cp.ir.n == len(cp.stream.commands)
        assert cp.key is not None
        assert set(cp.passes) == set(PASS_NAMES)
        assert "StreamIR" in cp.describe()

    def test_pass_subset_round_trips(self):
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)))
        cp = compile_request(req, passes={"rename"})
        assert cp.passes == ("rename",)
        assert cp.pass_stats["passes"] == ("rename",)
        # Without the grouping pass every op is its own group.
        assert cp.pass_stats["groups"] == cp.pass_stats["depth"]
        with pytest.raises(ValueError, match="unknown compiler pass"):
            compile_request(req, passes={"bogus"})

    def test_compiled_stream_is_the_one_the_simulator_runs(self):
        Simulator.clear_caches()
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)),
                         values=tuple(range(1, n + 1)))
        compile_request(req)
        response = Simulator().run(req)
        assert response.verified
        assert response.cache["stream"]["misses"] == 0  # compile warmed it

    def test_multibank_request_carries_parts(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               inputs=((1,) * n, (2,) * n))
        cp = compile_request(req)
        assert len(cp.parts) == 2
        assert cp.ir.meta.get("merge") == "interleave"
        assert cp.ir.n == sum(len(part.commands) for part in cp.parts)

    def test_batch_request_concatenates(self):
        n = 128
        q = find_ntt_prime(n, 32)
        req = BatchRequest(params=NttParams(n, q),
                           inputs=((1,) * n, (2,) * n, (3,) * n))
        cp = compile_request(req)
        assert len(cp.parts) == 3
        assert cp.ir.meta.get("merge") == "concat"

    def test_non_stream_request_rejected(self):
        n = 256
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        req = FheOpRequest(ring=ring, op="forward", a=(1,) * n)
        with pytest.raises(RequestValidationError, match="no stream"):
            compile_request(req)


class TestBankSpec:
    def test_homogeneous_requests_still_work(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               inputs=((1,) * n, (2,) * n))
        req.validate()
        specs = req.bank_specs()
        assert len(specs) == 2
        assert all(s.params.n == n and s.params.q == q for s in specs)

    def test_specs_and_params_are_exclusive(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(params=NttParams(n, q),
                               specs=(BankSpec(params=NttParams(n, q)),),
                               inputs=((1,) * n,))
        with pytest.raises(RequestValidationError, match="specs"):
            req.validate()

    def test_spec_count_must_match_inputs(self):
        n = 256
        q = find_ntt_prime(n, 32)
        req = MultiBankRequest(specs=(BankSpec(params=NttParams(n, q)),),
                               inputs=((1,) * n, (2,) * n))
        with pytest.raises(RequestValidationError, match="specs"):
            req.validate()

    def test_per_bank_length_checked_against_its_spec(self):
        n = 256
        q = find_ntt_prime(n, 32)
        ring = NegacyclicParams(128, find_ntt_prime(128, 32, negacyclic=True))
        req = MultiBankRequest(specs=(BankSpec(params=NttParams(n, q)),
                                      BankSpec(ring=ring)),
                               inputs=((1,) * n, (2,) * n))  # bank 1 != 128
        with pytest.raises(RequestValidationError, match="bank 1"):
            req.validate()

    def test_bank_spec_needs_exactly_one_kind(self):
        with pytest.raises(RequestValidationError, match="exactly one"):
            BankSpec().validate()

    def test_per_bank_inverse_round_trips(self):
        n = 256
        q = find_ntt_prime(n, 32)
        rng = random.Random(9)
        data = [rng.randrange(q) for _ in range(n)]
        fwd = Simulator().run(NttRequest(params=NttParams(n, q),
                                         values=tuple(data)))
        req = MultiBankRequest(
            specs=(BankSpec(params=NttParams(n, q)),
                   BankSpec(params=NttParams(n, q), inverse=True)),
            inputs=(tuple(data), tuple(fwd.values)))
        response = Simulator().run(req)
        assert response.verified
        assert list(response.outputs[1]) == list(data)


class TestIrConstruction:
    def test_ir_row_matches_columns(self):
        n = 128
        q = find_ntt_prime(n, 32)
        cmds = cyclic_program(NttParams(n, q), HBM2E_ARCH,
                              PimParams()).commands
        ir = StreamIR.from_commands(cmds)
        assert ir.n == len(cmds)
        for i in (0, 1, len(cmds) // 2, len(cmds) - 1):
            cmd = cmds[i]
            assert ir.rows[i] == (-1 if cmd.row is None else cmd.row)
            assert ir.bufs[i] == (-1 if cmd.buf is None else cmd.buf)
            assert bool(ir.gs[i]) == cmd.gs
            assert bool(ir.has_omega0[i]) == (cmd.omega0 is not None)
        assert int(ir.zeta_lens.sum()) == sum(len(c.zetas) for c in cmds)
        assert np.array_equal(ir.dep_end - ir.dep_start,
                              np.array([len(c.deps) for c in cmds]))
