"""Compiled command streams: SoA compilation, the fused functional
plan, and its bit-exact equivalence with the legacy per-command bank."""

import pytest
from compute_paths import on_path

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.arith.bitrev import bit_reverse_permute
from repro.dram import (
    Command,
    CommandType,
    HBM2E_ARCH,
    cached_stream,
    clear_stream_cache,
    compile_stream,
    stream_cache_info,
)
from repro.errors import MappingError
from repro.mapping.program_cache import cyclic_program, negacyclic_program
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import SimConfig


def _fresh_banks(config, q):
    a = PimBank(config.arch, config.pim)
    b = PimBank(config.arch, config.pim)
    for bank in (a, b):
        bank.set_parameters(q)
    return a, b


def _counters(bank):
    cu = bank.cu
    return (cu.bu_ops, cu.load_uops, cu.store_uops, cu.twiddles_generated)


class TestCompilation:
    def test_soa_columns_mirror_commands(self):
        n = 256
        q = find_ntt_prime(n, 32)
        cmds = cyclic_program(NttParams(n, q), HBM2E_ARCH,
                              PimParams()).commands
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.n == len(cmds)
        assert stream.commands == tuple(cmds)
        ir = stream.ir  # the int64 columns the timing engine reads
        for i in (0, 1, len(cmds) // 2, len(cmds) - 1):
            cmd = cmds[i]
            assert ir.codes[i] == list(CommandType).index(cmd.ctype)
            assert ir.rows[i] == (-1 if cmd.row is None else cmd.row)
            assert ir.cols[i] == (-1 if cmd.col is None else cmd.col)
            count = int(ir.dep_counts[i])
            assert tuple(ir.deps[i, :count].tolist()) == cmd.deps
        # The fixed-width dependency column reconstructs every command's
        # deps: its first dep_counts[i] entries, then -1 padding.
        for i, cmd in enumerate(cmds):
            count = int(ir.dep_counts[i])
            assert tuple(ir.deps[i, :count]) == cmd.deps
            assert (ir.deps[i, count:] == -1).all()

    def test_mapper_program_gets_fused_plan(self):
        n = 1024
        q = find_ntt_prime(n, 32)
        cmds = cyclic_program(NttParams(n, q), HBM2E_ARCH,
                              PimParams()).commands
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is not None, stream.fallback_reason
        # The whole point: thousands of commands collapse into a handful
        # of stacked macro-ops (one per butterfly-stage pass per type).
        assert len(stream.plan.ops) < len(cmds) // 50

    def test_scalar_programs_fuse_through_lane_renaming(self):
        # Nb=1 µ-op programs fuse via the lane-granular renaming pass.
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        cmds = cyclic_program(NttParams(n, q), config.arch,
                              config.pim).commands
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is not None, stream.fallback_reason
        assert stream.plan.mode == "lane"
        assert len(stream.plan.ops) < len(cmds) // 2

    def test_scalar_program_with_c2_runs_per_command(self):
        # Lane fusion covers pure scalar-µ-op programs: one C2 appended
        # to an Nb=1 program sends it down the per-command fallback,
        # which must leave the bank exactly as the legacy loop does.
        n = 64
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=1))
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        cmds = list(program.commands) + [
            Command(CommandType.C2, buf=0, buf2=0, omega0=3, r_omega=1)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is None
        assert "runs per-command" in stream.fallback_reason
        legacy, fused = _fresh_banks(config, q)
        data = bit_reverse_permute([(7 * i + 3) % q for i in range(n)])
        for bank in (legacy, fused):
            bank.load_polynomial(0, list(data))
        legacy.run(cmds)
        fused.run_stream(stream)
        assert (fused.read_polynomial(program.result_base_row, n)
                == legacy.read_polynomial(program.result_base_row, n))
        assert fused.buffers.read(0) == legacy.buffers.read(0)
        assert _counters(fused) == _counters(legacy)

    def test_protocol_violations_fall_back(self):
        bad = [Command(CommandType.ACT, row=3),
               Command(CommandType.ACT, row=4)]
        stream = compile_stream(bad, HBM2E_ARCH)
        assert stream.plan is None
        # ... and the fallback raises exactly like the legacy loop.
        bank = PimBank(HBM2E_ARCH, PimParams())
        with pytest.raises(MappingError):
            bank.run_stream(stream)

    def test_wrong_zeta_count_falls_back_with_legacy_error(self):
        # The CU rejects a wrong-size C1N payload with MappingError; the
        # plan must not fuse such programs into broadcastable kernels.
        cmds = [Command(CommandType.ACT, row=0),
                Command(CommandType.CU_READ, row=0, col=0, buf=0),
                Command(CommandType.PRE),
                Command(CommandType.C1N, buf=0,
                        zetas=tuple(range(1, 9)))]  # 8 zetas, Na-1 = 7
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is None
        assert "zetas" in stream.fallback_reason
        bank = PimBank(HBM2E_ARCH, PimParams())
        bank.set_parameters(find_ntt_prime(16, 32))
        with pytest.raises(MappingError):
            bank.run_stream(stream)

    def test_out_of_range_buffer_falls_back_without_side_effects(self):
        # legacy raises at the offending command with no data effect;
        # the fused path must not scatter into cells first.
        q = find_ntt_prime(16, 32)
        cmds = [Command(CommandType.ACT, row=0),
                Command(CommandType.CU_READ, row=0, col=0, buf=7),
                Command(CommandType.CU_WRITE, row=0, col=1, buf=7),
                Command(CommandType.PRE)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is not None  # structurally fine for wider banks
        import numpy as np
        cells = {}
        for name, run in (("legacy", lambda b: b.run(cmds)),
                          ("fused", lambda b: b.run_stream(stream))):
            bank = PimBank(HBM2E_ARCH, PimParams(nb_buffers=2))
            bank.set_parameters(q)
            bank.load_polynomial(0, list(range(1, 257)))
            with pytest.raises(MappingError, match="out of range"):
                run(bank)
            bank.storage.precharge()  # close the row the error left open
            cells[name] = np.array(bank.storage.host_read_polynomial(0, 256))
        assert (cells["fused"] == cells["legacy"]).all()

    def test_compute_before_param_raises_mapping_error(self):
        # Legacy error parity: a compute command ahead of the program's
        # PARAM_WRITE must fail like the per-command loop does.
        cmds = [Command(CommandType.C1, buf=0, omega0=3),
                Command(CommandType.PARAM_WRITE, payload_words=6)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        bank = PimBank(HBM2E_ARCH, PimParams())
        bank.set_parameters(find_ntt_prime(16, 32))
        with pytest.raises(MappingError, match="before PARAM_WRITE"):
            bank.run_stream(stream)

    def test_compute_before_param_leaves_per_command_state(self):
        # The plan would run both CU_WRITEs as one depth-0 group before
        # the C1 group raises; the per-command loop stops before the
        # second write.  Cells, buffers and counters must match it.
        q = find_ntt_prime(16, 32)
        cmds = [Command(CommandType.ACT, row=0),
                Command(CommandType.CU_WRITE, row=0, col=1, buf=1),
                Command(CommandType.C1, buf=0, omega0=3),
                Command(CommandType.CU_WRITE, row=0, col=0, buf=1),
                Command(CommandType.PRE),
                Command(CommandType.PARAM_WRITE, payload_words=6)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert stream.plan is not None and stream.plan.computes_before_param
        states = {}
        for name, run in (("legacy", lambda b: b.run(cmds)),
                          ("fused", lambda b: b.run_stream(stream))):
            bank = PimBank(HBM2E_ARCH, PimParams())
            bank.set_parameters(q)
            bank.load_polynomial(0, list(range(1, 257)))
            bank.buffers.write(1, [9] * 8)
            with pytest.raises(MappingError, match="before PARAM_WRITE"):
                run(bank)
            bank.storage.precharge()  # close the row the error left open
            states[name] = (bank.storage.host_read_polynomial(0, 256),
                            [bank.buffers.read(b) for b in range(2)],
                            _counters(bank))
        assert states["fused"] == states["legacy"]
        assert states["legacy"][0][:16] == list(range(1, 9)) + [9] * 8

    def test_rejected_modulus_leaves_per_command_state(self):
        # PARAM_WRITE of a staged q <= 2 raises; the plan's write group
        # would already hold the CU_WRITE that follows it.
        cmds = [Command(CommandType.ACT, row=0),
                Command(CommandType.CU_WRITE, row=0, col=0, buf=1),
                Command(CommandType.PARAM_WRITE, payload_words=6),
                Command(CommandType.CU_WRITE, row=0, col=1, buf=1),
                Command(CommandType.PRE)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        cells = {}
        for name, run in (("legacy", lambda b: b.run(cmds)),
                          ("fused", lambda b: b.run_stream(stream))):
            bank = PimBank(HBM2E_ARCH, PimParams())
            bank.cu.set_modulus(find_ntt_prime(16, 32))
            bank.set_parameters(2)
            bank.load_polynomial(0, list(range(1, 257)))
            bank.buffers.write(1, [9] * 8)
            with pytest.raises(MappingError, match="unsupported"):
                run(bank)
            bank.storage.precharge()
            cells[name] = bank.storage.host_read_polynomial(0, 256)
        assert cells["fused"] == cells["legacy"]

    def test_open_row_at_end_falls_back(self):
        stream = compile_stream([Command(CommandType.ACT, row=3)], HBM2E_ARCH)
        assert stream.plan is None
        assert "open" in stream.fallback_reason

    def test_stream_cache_shares_structural_keys(self):
        clear_stream_cache()
        n = 256
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        first = cached_stream(program.commands, config.arch, key=program.key)
        # A fresh (content-identical) command list with the same key hits.
        again = cached_stream(list(program.commands), config.arch,
                              key=program.key)
        assert again is first
        info = stream_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1


class TestFusedExecutionEquivalence:
    @pytest.mark.parametrize("n,nb", [(256, 2), (1024, 2), (512, 4)])
    def test_cyclic_matches_legacy_bank(self, n, nb):
        q = find_ntt_prime(n, 32)
        config = SimConfig(pim=PimParams(nb_buffers=nb))
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        assert stream.plan is not None, stream.fallback_reason
        legacy, fused = _fresh_banks(config, q)
        data = bit_reverse_permute([(7 * i + 3) % q for i in range(n)])
        for bank in (legacy, fused):
            bank.load_polynomial(0, list(data))
        legacy.run(program.commands)
        fused.run_stream(stream)
        assert (fused.read_polynomial(program.result_base_row, n)
                == legacy.read_polynomial(program.result_base_row, n))
        assert _counters(fused) == _counters(legacy)
        # The physical buffer file is restored to its end-of-run state.
        for b in range(nb):
            assert fused.buffers.read(b) == legacy.buffers.read(b)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_negacyclic_matches_legacy_bank(self, inverse):
        n = 256
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        config = SimConfig()
        program = negacyclic_program(ring, config.arch, config.pim,
                                     inverse=inverse)
        stream = compile_stream(program.commands, config.arch)
        assert stream.plan is not None, stream.fallback_reason
        legacy, fused = _fresh_banks(config, ring.q)
        data = [(11 * i + 5) % ring.q for i in range(n)]
        for bank in (legacy, fused):
            bank.load_polynomial(0, list(data))
        legacy.run(program.commands)
        fused.run_stream(stream)
        assert (fused.read_polynomial(program.result_base_row, n)
                == legacy.read_polynomial(program.result_base_row, n))
        assert _counters(fused) == _counters(legacy)

    def test_python_backend_falls_back_to_ground_truth(self):
        n = 256
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        data = bit_reverse_permute([(5 * i + 1) % q for i in range(n)])
        outputs = {}
        for path in ("python", "numpy"):
            with on_path(path):
                bank = PimBank(config.arch, config.pim)
                bank.set_parameters(q)
                bank.load_polynomial(0, list(data))
                bank.run_stream(stream)
                outputs[path] = bank.read_polynomial(
                    program.result_base_row, n)
        assert outputs["python"] == outputs["numpy"]

    def test_unsupported_modulus_falls_back(self):
        # A modulus past every lane regime still runs (scalar path).
        n = 16
        q = find_ntt_prime(n, 64)
        assert q >= 1 << 63
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        bank = PimBank(config.arch, config.pim)
        bank.set_parameters(q)
        data = bit_reverse_permute([(3 * i + 2) % q for i in range(n)])
        bank.load_polynomial(0, list(data))
        bank.run_stream(stream)  # must not touch the stacked kernels
        legacy = PimBank(config.arch, config.pim)
        legacy.set_parameters(q)
        legacy.load_polynomial(0, list(data))
        legacy.run(program.commands)
        assert (bank.read_polynomial(program.result_base_row, n)
                == legacy.read_polynomial(program.result_base_row, n))


class TestFacadeIntegration:
    def test_stream_cache_surfaces_in_facade(self):
        Simulator.clear_caches()
        n = 256
        q = find_ntt_prime(n, 32)
        sim = Simulator()
        response = sim.run(NttRequest(params=NttParams(n, q)))
        assert response.verified
        assert response.cache["stream"]["misses"] >= 1
        # The same transform at another clock: a new dispatch shape, but
        # the same command program, so the same compiled stream.
        again = Simulator(SimConfig().at_frequency(600)).run(
            NttRequest(params=NttParams(n, q)))
        assert again.cache["dispatch"]["misses"] == 1
        assert again.cache["stream"]["misses"] == 0
        info = sim.cache_info()
        assert info["stream"]["entries"] >= 1
        assert info["stream"]["hits"] >= 1
