"""The pass-based IR compiler: pipeline bit-identity against the legacy
per-command engine, the merge passes against the legacy mergers, Nb=1
lane fusion, the public ``repro.compile`` API surface, the pinned plans
and the grouping pass's leveling."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
from repro.compile import passes
from repro.compile.ir import StreamIR
from repro.compile.lower import concat_irs, interleave_irs
from repro.compile.passes import build_plan
from repro.dram import (
    Command,
    CommandType,
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    cached_stream,
    compile_stream,
)
from repro.errors import FunctionalMismatch, RequestValidationError
from repro.mapping.mapper import MapperOptions
from repro.mapping.program_cache import (
    CachedProgram,
    cyclic_program,
    negacyclic_program,
)
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank, touched_rows
from repro.pim.params import PimParams
from repro.sim.batch import concat_programs
from repro.sim.driver import SimConfig, _run_dispatch, compile_dispatch
from repro.sim.multibank import TransformSpec, interleave_programs
from test_bank_stack import _fuzz_cells, _stack_matches_per_command


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


class TestPipelineBitIdentity:
    """The compiled pipeline must execute and time bit-identically to
    the legacy per-command engine."""

    def test_default_pipeline_matches_legacy(self):
        n = 256
        q = find_ntt_prime(n, 32)
        config = SimConfig()
        program = cyclic_program(NttParams(n, q), config.arch, config.pim)
        stream = compile_stream(program.commands, config.arch)
        data = bit_reverse_permute([(7 * i + 3) % q for i in range(n)])
        legacy = _run_legacy(config, q, program.commands, data,
                             program.result_base_row, n)
        fused = _run_stream(config, q, stream, data,
                            program.result_base_row, n)
        assert fused == legacy
        # ... and the timing engine sees the same schedule either way.
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
        by_cmd = engine.simulate(program.commands)
        by_stream = engine.simulate_stream(stream)
        assert by_stream.total_cycles == by_cmd.total_cycles
        assert by_stream.energy_nj == by_cmd.energy_nj
        assert by_stream.stats == by_cmd.stats


TABLE3 = [(n, nb) for n in (256, 512, 1024, 2048, 4096) for nb in (2, 4, 6)]


def _plan_memory_ops(spec, nb):
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    plan = compile_stream(spec.program(config).commands, config.arch).plan
    return [(op[0], len(op[1])) for op in plan.ops
            if op[0] in ("read", "write")]


class TestStoreForwarding:
    """Store-to-load forwarding and dead-store elimination: a plan reads
    each atom from the cells once and writes it back once."""

    @pytest.mark.parametrize("n,nb", TABLE3)
    def test_table3_plan_moves_each_atom_once(self, n, nb):
        spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
        atoms = n // HBM2E_ARCH.words_per_atom
        assert _plan_memory_ops(spec, nb) == [("read", atoms),
                                              ("write", atoms)]

    @pytest.mark.parametrize("inverse", [False, True])
    def test_negacyclic_plan_moves_each_atom_once(self, inverse):
        n = 512
        ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
        spec = TransformSpec(kind="negacyclic", inverse=inverse, ring=ring)
        atoms = n // HBM2E_ARCH.words_per_atom
        assert _plan_memory_ops(spec, 2) == [("read", atoms),
                                             ("write", atoms)]

    def test_forwarded_final_version_restores_the_buffer(self):
        # Buffer 1's last version is a read of an atom the plan wrote:
        # the buffer file must get the stored value, not a pool slot
        # nothing filled.
        q = find_ntt_prime(16, 32)
        cmds = [Command(CommandType.ACT, row=0),
                Command(CommandType.CU_READ, row=0, col=0, buf=0),
                Command(CommandType.C1, buf=0, omega0=3),
                Command(CommandType.CU_WRITE, row=0, col=2, buf=0),
                Command(CommandType.CU_READ, row=0, col=2, buf=1),
                Command(CommandType.PRE)]
        stream = compile_stream(cmds, HBM2E_ARCH)
        assert [op[0] for op in stream.plan.ops] == ["read", "c1", "write"]
        states = []
        for run in (lambda b: b.run(cmds), lambda b: b.run_stream(stream)):
            bank = PimBank(HBM2E_ARCH, PimParams())
            bank.cu.set_modulus(q)
            bank.load_polynomial(0, list(range(3, 259)))
            run(bank)
            states.append(_bank_state(bank, 0, 256))
        assert states[0] == states[1]
        assert states[0]["buffers"][0] == states[0]["buffers"][1]


def _fused_equals_per_command(commands, q, banks=2, seed=0):
    """Run ``commands`` fused over a stack of ``banks`` banks of random
    reduced cells and per command on one full bank per stack row: the
    cells, buffers and summed µ-op counters must agree.  Returns the
    stream."""
    stream = compile_stream(commands, HBM2E_ARCH)
    window = touched_rows(stream)
    words = len(window) * HBM2E_ARCH.words_per_row
    cells = np.random.default_rng(seed).integers(0, q, size=(banks, words),
                                                 dtype=np.uint64)
    stack = PimBank(HBM2E_ARCH, PimParams(), stack=(banks,), rows=window)
    stack.set_parameters(q)
    assert stack.runs_atom_plan(stream), stream.fallback_reason
    stack.load_polynomial(window.start, cells)
    stack.run_stream(stream)
    after = stack.read_polynomial(window.start, words)

    def counters(bank):
        cu = bank.cu
        return np.array([cu.bu_ops, cu.load_uops, cu.store_uops,
                         cu.twiddles_generated])

    summed = 0
    for k in range(banks):
        bank = PimBank(HBM2E_ARCH, PimParams())
        bank.set_parameters(q)
        bank.load_polynomial(window.start, cells[k].tolist())
        bank.run(commands)
        assert after[k].tolist() == bank.read_polynomial(window.start, words)
        for buf in range(bank.buffers.count):
            assert (np.broadcast_to(stack.buffers.peek_array(buf),
                                    (banks, HBM2E_ARCH.words_per_atom))[k]
                    .tolist() == bank.buffers.read(buf))
        summed = summed + counters(bank)
    assert counters(stack).tolist() == summed.tolist()
    return stream


class TestSlotsAndViews:
    """Liveness-allocated pool slots and view-addressed groups: an
    in-place plan's pool is one image of its atoms and every group
    slices it; a group that matches no view keeps index arrays; and a
    view never stands in for the pairing the program asked for."""

    @staticmethod
    def _plan(spec, nb):
        config = SimConfig(pim=PimParams(nb_buffers=nb))
        return compile_stream(spec.program(config).commands,
                              config.arch).plan

    @pytest.mark.parametrize("kind,n,nb", [("ntt", n, nb) for n, nb in TABLE3]
                             + [("forward", 512, 2), ("inverse", 512, 2)])
    def test_pool_is_one_atom_image_and_every_group_views_it(self, kind, n,
                                                             nb):
        if kind == "ntt":
            spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
        else:
            ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
            spec = TransformSpec(kind="negacyclic", ring=ring,
                                 inverse=kind == "inverse")
        plan = self._plan(spec, nb)
        assert plan.n_slots == n // HBM2E_ARCH.words_per_atom
        groups = [op for op in plan.ops if op[0] != "param"]
        assert {op[0] for op in groups} >= {"read", "write", "c2"}
        assert [op[0] for op in groups if op[-1] is None] == []

    @pytest.mark.parametrize("pairs,singles", [
        (((0, 3), (1, 2)), ()),
        # The P legs walk a view's lower halves; the S legs do not.
        (((0, 2), (1, 5)), (3, 4)),
    ])
    def test_unmatched_c2_group_takes_the_index_path(self, pairs, singles):
        # No (reshape, slice) view walks these pairs, so the C2 group
        # gathers and scatters by index.
        q = find_ntt_prime(64, 32)
        c2 = dict(omega0=3, r_omega=5)
        commands = [Command(CommandType.PARAM_WRITE, payload_words=6),
                    Command(CommandType.ACT, row=0)]
        for col in singles:
            commands += [Command(CommandType.CU_READ, row=0, col=col, buf=0),
                         Command(CommandType.C1, buf=0, omega0=3),
                         Command(CommandType.CU_WRITE, row=0, col=col, buf=0)]
        for p_col, s_col in pairs:
            commands += [
                Command(CommandType.CU_READ, row=0, col=p_col, buf=0),
                Command(CommandType.CU_READ, row=0, col=s_col, buf=1),
                Command(CommandType.C2, buf=0, buf2=1, **c2),
                Command(CommandType.CU_WRITE, row=0, col=p_col, buf=0),
                Command(CommandType.CU_WRITE, row=0, col=s_col, buf=1)]
        commands.append(Command(CommandType.PRE))
        stream = _fused_equals_per_command(commands, q)
        (c2_op,) = [op for op in stream.plan.ops if op[0] == "c2"]
        assert c2_op[-1] is None and len(c2_op[1]) == len(pairs)
        assert stream.plan.n_slots == 2 * len(pairs) + len(singles)

    def test_a_perturbed_pairing_is_run_as_written(self, monkeypatch):
        """Swap the P and S buffers of one C2 in a real N=256 program:
        the plan runs exactly the perturbed commands, and a dispatch of
        the perturbed program fails its online check."""
        n = 256
        spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
        config = SimConfig()
        real_program = TransformSpec.program

        def perturbed(self, config, slot=0):
            program = real_program(self, config, slot)
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

        _fused_equals_per_command(
            list(perturbed(spec, config).commands), spec.q)
        monkeypatch.setattr(TransformSpec, "program", perturbed)
        rng = random.Random(n)
        inputs = [[[rng.randrange(spec.q) for _ in range(n)]]
                  for _ in range(2)]
        with pytest.raises(FunctionalMismatch):
            _run_dispatch(inputs, [spec] * 2, config)


def _compute_flags(plan):
    """``(kind, reduced)`` of every compute group, in plan order."""
    return [(op[0], op[-2]) for op in plan.ops
            if op[0] in ("c1", "c2", "c1n")]


_C2 = dict(omega0=3, r_omega=5)
_ZETAS = (2, 3, 4, 5, 6, 7, 8)
#: Read two atoms, run a C2 on them, a GS C2 on its outputs, then a C1
#: and a C1N on those: only the first C2 is fed by reads.
_C2_FIRST = [
    Command(CommandType.ACT, row=0),
    Command(CommandType.CU_READ, row=0, col=0, buf=0),
    Command(CommandType.CU_READ, row=0, col=1, buf=1),
    Command(CommandType.C2, buf=0, buf2=1, **_C2),
    Command(CommandType.C2, buf=0, buf2=1, gs=True, **_C2),
    Command(CommandType.C1, buf=0, omega0=3),
    Command(CommandType.C1N, buf=1, zetas=_ZETAS),
    Command(CommandType.CU_WRITE, row=0, col=0, buf=0),
    Command(CommandType.CU_WRITE, row=0, col=1, buf=1),
    Command(CommandType.PRE),
]
_PARAM = Command(CommandType.PARAM_WRITE, payload_words=6)


class TestReducedInputs:
    """The compiler marks a compute group ``reduced`` only when every
    input version is the output of a compute op under the modulus the
    group runs under; the executor then skips the scan for words >= q."""

    @pytest.mark.parametrize("kind,n,nb", [("ntt", n, nb) for n, nb in TABLE3]
                             + [("forward", 512, 2), ("inverse", 512, 2)])
    def test_every_group_but_the_one_fed_by_the_read_skips_the_scan(
            self, kind, n, nb):
        if kind == "ntt":
            spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
        else:
            ring = NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))
            spec = TransformSpec(kind="negacyclic", ring=ring,
                                 inverse=kind == "inverse")
        plan = TestSlotsAndViews._plan(spec, nb)
        stages = (n // HBM2E_ARCH.words_per_atom).bit_length() - 1
        expected = {
            "ntt": [("c1", False)] + [("c2", True)] * stages,
            "forward": ([("c2", False)] + [("c2", True)] * (stages - 1)
                        + [("c1n", True)]),
            "inverse": [("c1n", False)] + [("c2", True)] * stages,
        }[kind]
        assert _compute_flags(plan) == expected

    @pytest.mark.parametrize("commands,q,loaded_q,flags", [
        # The PARAM_WRITE comes first: only the C2 fed by reads scans.
        ([_PARAM] + _C2_FIRST, find_ntt_prime(64, 32), None,
         [("c2", False), ("c2", True), ("c1", True), ("c1n", True)]),
        # No PARAM_WRITE: every compute op runs under the loaded modulus.
        (_C2_FIRST, 97, find_ntt_prime(64, 32),
         [("c2", False), ("c2", True), ("c1", True), ("c1n", True)]),
        # A mid-program PARAM_WRITE to a smaller modulus: outputs of the
        # compute ops before it do not count, those after it do.
        (_C2_FIRST[:4] + [Command(CommandType.C1, buf=0, omega0=3), _PARAM,
                          Command(CommandType.C2, buf=0, buf2=1, gs=True,
                                  **_C2),
                          Command(CommandType.C1N, buf=1, zetas=_ZETAS)]
         + _C2_FIRST[-3:], 97, find_ntt_prime(64, 40),
         [("c2", False), ("c1", False), ("c2", False), ("c1n", True)]),
    ])
    @pytest.mark.parametrize("banks", [1, 3])
    def test_raw_words_take_the_scan_and_equal_the_per_command_run(
            self, commands, q, loaded_q, flags, banks):
        # The cells hold raw words anywhere below 2**64, nearly all
        # above either modulus.
        cells = _fuzz_cells(banks, banks, range(1))
        stream = _stack_matches_per_command(commands, cells, q,
                                            loaded_q=loaded_q)
        assert _compute_flags(stream.plan) == flags


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


class TestMergePasses:
    """interleave/concat on the SoA IR reproduce the legacy command-level
    mergers command for command."""

    def test_interleave_matches_legacy(self):
        n = 256
        config = SimConfig()
        specs = [TransformSpec(kind="ntt",
                               params=NttParams(n, find_ntt_prime(n, 32))),
                 TransformSpec(kind="negacyclic",
                               ring=NegacyclicParams(
                                   n, find_ntt_prime(n, 32, negacyclic=True)))]
        programs = [s.program(config) for s in specs]
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

    @staticmethod
    def _mapper_programs(n=256, slots=1):
        """Slot programs of a cyclic and a negacyclic bank: two moduli,
        two twiddle tables, zeta rows on one side only."""
        config = SimConfig()
        specs = [TransformSpec(kind="ntt",
                               params=NttParams(n, find_ntt_prime(n, 32))),
                 TransformSpec(kind="negacyclic",
                               ring=NegacyclicParams(
                                   n, find_ntt_prime(n, 32, negacyclic=True)))]
        return [[spec.program(config, slot) for slot in range(slots)]
                for spec in specs]

    def test_interleave_of_mapper_irs_matches_legacy(self):
        cyclic, negacyclic = (row[0] for row in self._mapper_programs())
        assert cyclic.ir.twiddles != negacyclic.ir.twiddles
        assert not cyclic.ir.zeta_rows and negacyclic.ir.zeta_rows
        ir = interleave_irs([cyclic.ir, negacyclic.ir])
        assert_columns_only(ir)
        assert ir.materialize_commands() == tuple(interleave_programs(
            [list(cyclic.commands), list(negacyclic.commands)]))

    def test_three_slot_concat_of_mapper_irs_matches_legacy(self):
        for row in self._mapper_programs(n=128, slots=3):
            ir = concat_irs([p.ir for p in row])
            assert_columns_only(ir)
            assert ir.materialize_commands() == tuple(concat_programs(
                [list(p.commands) for p in row]))

    def test_a_dispatch_merge_of_mapper_irs_matches_legacy(self):
        rows = self._mapper_programs(n=128, slots=2)
        ir = interleave_irs([concat_irs([p.ir for p in row])
                             for row in rows])
        assert_columns_only(ir)
        assert ir.materialize_commands() == tuple(interleave_programs(
            [concat_programs([list(p.commands) for p in row])
             for row in rows]))

    def test_mapper_and_hand_built_irs_merge(self):
        cyclic, negacyclic = (row[0] for row in self._mapper_programs())
        hand_built = StreamIR.from_commands(negacyclic.commands)
        commands = [list(cyclic.commands), list(negacyclic.commands)]
        merged = interleave_irs([cyclic.ir, hand_built])
        assert merged.materialize_commands() == tuple(
            interleave_programs(commands))
        merged = concat_irs([hand_built, cyclic.ir, hand_built])
        assert merged.materialize_commands() == tuple(concat_programs(
            [commands[1], commands[0], commands[1]]))

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


class TestPerBankPlans:
    """A plan models one bank: a merged multi-bank stream gets none, with
    a reason that says so instead of a false protocol violation."""

    @pytest.mark.parametrize("banks", [2, 8])
    def test_multibank_dispatch_stream_has_no_plan(self, banks):
        n = 512
        config = SimConfig()
        spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
        programs, stream, _ = compile_dispatch([spec] * banks, 1, config)
        assert stream.plan is None
        assert stream.fallback_reason == (
            f"stream spans {banks} banks; plans are per bank")
        # The merged program is legal, and each bank's own one-bank
        # stream still fuses.
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
        assert engine.simulate_stream(stream).total_cycles > 0
        for row in programs:
            own = compile_stream(row[0].ir, config.arch)
            assert own.plan is not None, own.fallback_reason

    def test_one_bank_double_act_still_reported(self):
        commands = [Command(CommandType.ACT, bank=3, row=0),
                    Command(CommandType.ACT, bank=3, row=1),
                    Command(CommandType.PRE, bank=3)]
        stream = compile_stream(commands, HBM2E_ARCH)
        assert stream.plan is None
        assert stream.fallback_reason == "cmd 1: ACT while row 0 is open"


class TestCompileRequestApi:
    def test_ntt_request_compiles_fused(self):
        n = 256
        req = NttRequest(params=NttParams(n, find_ntt_prime(n, 32)))
        cp = compile_request(req)
        assert isinstance(cp, CompiledProgram)
        assert cp.fused
        assert cp.ir.n == len(cp.stream.commands)
        assert cp.key is not None
        assert "StreamIR" in cp.describe()

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


def assert_columns_only(ir):
    """A mapper- or merge-built IR holds no per-command Python object:
    every attribute as long as the program is an ndarray (the twiddle
    and zeta tables are per program) and no Command was built."""
    tables = {"twiddles", "zeta_rows"}
    for name in StreamIR.__slots__:
        value = getattr(ir, name)
        if name not in tables and hasattr(value, "__len__") \
                and len(value) == ir.n:
            assert isinstance(value, np.ndarray), name
    assert ir._commands is None, "a Command was materialized"
    assert isinstance(ir.twiddles, tuple)
    assert isinstance(ir.zeta_rows, tuple)


def _resolved(ir):
    """Per command, the twiddles, zetas and dependencies an IR names."""
    twiddles, zeta_rows = ir.twiddles + (None,), ir.zeta_rows + ((),)
    return {
        "omega0": [twiddles[i] for i in ir.omega0_idx.tolist()],
        "r_omega": [twiddles[i] for i in ir.r_omega_idx.tolist()],
        "zetas": [zeta_rows[i] for i in ir.zeta_idx.tolist()],
        "deps": [tuple(row[:count]) for row, count
                 in zip(ir.deps.tolist(), ir.dep_counts.tolist())],
    }


class TestIrConstruction:
    """The mappers emit StreamIR columns directly; Command objects are a
    lazily materialized reference view of them."""

    COLUMNS = ("codes", "banks", "rows", "cols", "bufs", "buf2s", "lanes",
               "payloads", "gs", "dep_counts")

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["ntt", "negacyclic", "inverse negacyclic"]),
           log_n=st.integers(min_value=3, max_value=9),
           nb=st.sampled_from([1, 2, 3, 4, 5, 6, 8]),
           in_place=st.booleans(), group=st.booleans(),
           base_row=st.integers(min_value=0, max_value=40))
    def test_mapper_ir_round_trips(self, kind, log_n, nb, in_place, group,
                                   base_row):
        n = 1 << log_n
        pim = PimParams(nb_buffers=nb)
        Simulator.clear_caches()
        if kind == "ntt":
            program = cyclic_program(
                NttParams(n, find_ntt_prime(n, 32)), HBM2E_ARCH, pim,
                base_row, MapperOptions(in_place, group))
        else:
            assume(nb >= 2)
            program = negacyclic_program(
                NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True)),
                HBM2E_ARCH, pim, base_row,
                inverse=kind.startswith("inverse"))
        ir = program.ir

        # Counting, compiling, caching and merging run on the columns.
        assert len(program.commands) == ir.n
        assert compile_stream(program.commands, HBM2E_ARCH).ir is ir
        assert cached_stream(program.commands, HBM2E_ARCH,
                             key=program.key).ir is ir
        assert interleave_irs([ir, ir]).n == concat_irs([ir, ir]).n + 1
        assert_columns_only(ir)

        commands = list(program.commands)
        assert len(commands) == ir.n
        rebuilt = StreamIR.from_commands(commands)
        assert rebuilt.n == ir.n
        for name in self.COLUMNS:
            ours, theirs = getattr(ir, name), getattr(rebuilt, name)
            assert ours.dtype == theirs.dtype, name
            assert np.array_equal(ours, theirs), name
        # Mapper and from_commands tables index differently: compare the
        # values and dependencies the index columns resolve to.
        assert _resolved(ir) == _resolved(rebuilt)

        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
        assert (engine.simulate(program.commands)
                == engine.simulate_stream(compile_stream(ir, HBM2E_ARCH)))


def _feed(h, value):
    """Hash ``value`` into ``h`` exactly: arrays by dtype, shape and
    bytes; tuples and lists element by element; scalars by type and
    ``repr`` (so a NumPy scalar never passes for a Python int)."""
    if isinstance(value, np.ndarray):
        h.update(f"a{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(f"{type(value).__name__}{len(value)}(".encode())
        for item in value:
            _feed(h, item)
        h.update(b")")
    else:
        h.update(f"{type(value).__name__}:{value!r};".encode())


def _pinned_irs():
    """The programs whose plans are pinned: the 15 Table III programs,
    N=512 negacyclic forward and inverse, N=1024 Nb=4 with each mapper
    switch off, a 3-slot N=256 batch concat and the Nb=1 N=256 lane
    program."""
    def config(nb, options=MapperOptions()):
        return SimConfig(pim=PimParams(nb_buffers=nb), mapper_options=options)

    def cyclic(n):
        return TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))

    irs = [cyclic(n).program(config(nb)).ir for n, nb in TABLE3]
    ring = NegacyclicParams(512, find_ntt_prime(512, 32, negacyclic=True))
    irs += [TransformSpec(kind="negacyclic", ring=ring, inverse=inverse)
            .program(config(2)).ir for inverse in (False, True)]
    irs += [cyclic(1024).program(config(4, options)).ir
            for options in (MapperOptions(in_place_update=False),
                            MapperOptions(group_same_row=False))]
    irs.append(concat_irs([cyclic(256).program(config(2), slot).ir
                           for slot in range(3)]))
    irs.append(cyclic(256).program(config(1)).ir)
    return irs


class TestPinnedPlans:
    """The plans themselves, not only their outputs: a regrouped or
    re-slotted plan can run every fuzz correctly and still slow the warm
    bank stacks, so one digest pins every field of every plan."""

    DIGEST = ("5ccba75840790085f592d4f0065edb0e"
              "6b03dad6416812cbd62b19f7e0227ddf")

    def test_plans_match_the_pinned_digest(self):
        Simulator.clear_caches()
        h = hashlib.sha256()
        for ir in _pinned_irs():
            plan, reason, _ = build_plan(ir, HBM2E_ARCH)
            assert reason is None
            for field in dataclasses.fields(plan):
                h.update(field.name.encode())
                _feed(h, getattr(plan, field.name))
        assert h.hexdigest() == self.DIGEST


def _levels_by_dp(n, edges):
    """Longest-path depth per node, by a plain-Python DP in topological
    order (Kahn's queue)."""
    succs = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in edges:
        succs[u].append(v)
        indeg[v] += 1
    depth = [0] * n
    ready = [v for v in range(n) if indeg[v] == 0]
    while ready:
        u = ready.pop()
        for v in succs[u]:
            depth[v] = max(depth[v], depth[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                ready.append(v)
    return depth


class TestLeveling:
    """The grouping pass's leveling is the longest-path depth of every
    node, whatever the node numbering."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(min_value=0, max_value=300))
    def test_levels_equal_the_longest_path_dp(self, data, n):
        # Edges run forward in a random topological order, so they need
        # not point forward in node numbering; repeats are parallel
        # edges, and nodes no pair names stay isolated.
        order = data.draw(st.permutations(range(n))) if n else []
        pairs = data.draw(st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)),
                      st.integers(0, max(n - 1, 0))),
            max_size=3 * n))
        edges = [(order[min(a, b)], order[max(a, b)])
                 for a, b in pairs if a != b]
        src = np.array([u for u, _ in edges], dtype=np.int64)
        dst = np.array([v for _, v in edges], dtype=np.int64)
        levels = passes._longest_path_levels(n, src, dst)
        assert levels.tolist() == _levels_by_dp(n, edges)
