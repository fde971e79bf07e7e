"""The bank-axis data plane: the lockstep banks of a dispatch run as one
stacked pass of bank 0's compiled plan with one golden check.

Every test here compares the stack against the per-bank loop it
replaced, kept in this file as the reference: one full single
:class:`PimBank` per bank, running that bank's own program.
"""

import gc
import random
import weakref
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arith import NttParams, find_ntt_prime
from repro.arith.bitrev import bit_reverse_permute
from repro.arith.modmath import mod_scale_vec
from repro.dram import Command, CommandType, HBM2E_ARCH, cached_stream, \
    compile_stream
from repro.errors import FunctionalMismatch, MappingError
from repro.mapping.mapper import MapperOptions
from repro.ntt import NegacyclicParams
from repro.pim.bank_pim import PimBank, touched_rows
from repro.pim.params import PimParams
from repro.sim.driver import SimConfig, TransformSpec, _run_dispatch, \
    compile_dispatch
from test_engine_fuzz import _random_legal_program

OPTIONS = [MapperOptions(in_place_update=a, group_same_row=b)
           for a in (True, False) for b in (True, False)]
KINDS = [("ntt", False), ("ntt", True), ("negacyclic", False),
         ("negacyclic", True)]


@lru_cache(maxsize=None)
def _spec(kind: str, inverse: bool, n: int, bits: int) -> TransformSpec:
    if kind == "negacyclic":
        ring = NegacyclicParams(n, find_ntt_prime(n, bits, negacyclic=True))
        return TransformSpec(kind=kind, inverse=inverse, ring=ring)
    return TransformSpec(kind=kind, inverse=inverse,
                         params=NttParams(n, find_ntt_prime(n, bits)))


def _counters(bank: PimBank) -> tuple:
    cu = bank.cu
    return (cu.bu_ops, cu.load_uops, cu.store_uops, cu.twiddles_generated)


def _summed(banks) -> tuple:
    return tuple(map(sum, zip((0, 0, 0, 0), *map(_counters, banks))))


@contextmanager
def _banks_run():
    """Collect every PimBank that replays a stream inside the block."""
    seen = []
    real = PimBank.run_stream

    def spy(self, stream):
        seen.append(self)
        return real(self, stream)

    PimBank.run_stream = spy
    try:
        yield seen
    finally:
        PimBank.run_stream = real


def _reference_bank(spec, slots, config, programs, stream):
    """The per-bank reference: one full single bank, lists through host
    I/O and the 1/N epilogue, as before the bank axis existed."""
    bank = PimBank(config.arch, config.pim)
    bank.set_parameters(spec.q)
    for values, program in zip(slots, programs):
        image = (list(values) if spec.kind == "negacyclic"
                 else bit_reverse_permute(list(values)))
        bank.load_polynomial(program.base_row, image)
    bank.run_stream(stream)
    outputs = []
    for program in programs:
        output = bank.read_polynomial(program.result_base_row, spec.n)
        if spec.inverse:
            output = mod_scale_vec(output, spec.cyclic_params.n_inv, spec.q)
        outputs.append(output)
    return outputs, bank


def _reference_multibank(inputs, specs, config):
    """Every bank on its own program (bank index ``k``), one at a time."""
    outputs, banks = [], []
    for k, (values, spec) in enumerate(zip(inputs, specs)):
        program = spec.program(config, k)
        stream = cached_stream(program.ir, config.arch, key=program.key)
        (output,), bank = _reference_bank(spec, [values], config, [program],
                                          stream)
        outputs.append(output)
        banks.append(bank)
    return outputs, _summed(banks)


@st.composite
def _dispatches(draw):
    nb = draw(st.sampled_from([1, 2, 3, 4, 6]))
    n = draw(st.sampled_from([64, 256, 1024]))
    bits = draw(st.sampled_from([32, 40, 60]))
    # Wide dispatches of large transforms only cost tier-1 time.
    banks = draw(st.integers(1, 8 if n < 1024 else 3))
    kinds = KINDS[:2] if nb == 1 else KINDS  # Nb=1 maps cyclic only
    pool = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3,
                         unique=True))
    specs = [_spec(*draw(st.sampled_from(pool)), n, bits)
             for _ in range(banks)]
    config = SimConfig(pim=PimParams(nb_buffers=nb),
                       base_row=draw(st.integers(0, 5)),
                       mapper_options=draw(st.sampled_from(OPTIONS)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    inputs = [[rng.randrange(spec.q) for _ in range(n)] for spec in specs]
    return config, specs, inputs


@given(case=_dispatches())
@settings(max_examples=30, deadline=None)
def test_stacked_dispatch_equals_per_bank_loop(case):
    """Outputs, bu_ops and the CU's load/store/twiddle counters of a
    (mixed-spec) multi-bank dispatch equal the per-bank loop's.  Nb >= 2
    runs one stacked bank per spec group; Nb=1 lane plans run one full
    bank per bank."""
    config, specs, inputs = case
    with _banks_run() as seen:
        result = _run_dispatch([[x] for x in inputs], specs, config)
    expected, counters = _reference_multibank(inputs, specs, config)
    assert result.verified
    assert result.outputs == expected
    assert result.bu_ops == counters[0]
    assert _summed(seen) == counters
    if config.pim.nb_buffers > 1:
        assert len(seen) == len(set(specs))
        assert all(bank.storage.stack is not None for bank in seen)
    else:
        assert len(seen) == len(specs)
        assert all(bank.storage.stack is None for bank in seen)


@given(n=st.sampled_from([64, 256, 1024]),
       bits=st.sampled_from([32, 40, 60]),
       nb=st.sampled_from([1, 2, 3, 4, 6]),
       options=st.sampled_from(OPTIONS),
       base_row=st.integers(0, 5),
       count=st.integers(1, 4),
       seed=st.integers(0, 2**32))
@settings(max_examples=15, deadline=None)
def test_stacked_batch_equals_one_bank(n, bits, nb, options, base_row,
                                       count, seed):
    """A one-bank batch (1 x k) through the checker equals the reference
    bank replaying the merged batch stream."""
    spec = _spec("ntt", False, n, bits)
    config = SimConfig(pim=PimParams(nb_buffers=nb), base_row=base_row,
                       mapper_options=options)
    rng = random.Random(seed)
    inputs = [[rng.randrange(spec.q) for _ in range(n)]
              for _ in range(count)]
    with _banks_run() as seen:
        result = _run_dispatch([inputs], [spec], config)
    (programs,), stream, _ = compile_dispatch([spec], count, config)
    expected, bank = _reference_bank(spec, inputs, config, programs, stream)
    assert result.verified and result.outputs == expected
    assert _summed(seen) == _counters(bank)
    assert result.bu_ops == bank.cu.bu_ops


def _plan_signature(plan) -> tuple:
    """Everything of a functional plan the executor reads, in a form
    that compares by value."""
    def value(field):
        if isinstance(field, np.ndarray):
            return ("array", field.tolist())
        if isinstance(field, tuple):
            return tuple(map(value, field))
        return field
    return (plan.mode, plan.n_virtual, plan.has_param, plan.max_buffer,
            tuple(plan.init_versions), tuple(plan.final_versions),
            tuple(tuple(map(value, op)) for op in plan.ops))


TABLE3 = [(n, nb) for nb in (2, 4, 6) for n in (256, 512, 1024, 2048, 4096)]


@pytest.mark.parametrize("n,nb", TABLE3 + [("negacyclic", 4),
                                           ("negacyclic-inverse", 4)])
def test_every_bank_compiles_bank_zeros_plan(n, nb):
    """The stack replays bank 0's plan for every bank of a group, so the
    compiled plan of every bank index must equal bank 0's."""
    if isinstance(n, str):
        spec = _spec("negacyclic", n.endswith("inverse"), 512, 32)
    else:
        spec = _spec("ntt", False, n, 32)
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    signatures = []
    for bank in range(8):
        program = spec.program(config, bank)
        stream = cached_stream(program.ir, config.arch, key=program.key)
        assert stream.plan is not None, stream.fallback_reason
        signatures.append(_plan_signature(stream.plan))
    assert all(sig == signatures[0] for sig in signatures[1:])


@pytest.mark.parametrize("flipped", range(8))
def test_one_flipped_word_in_any_bank_is_caught(flipped, monkeypatch):
    """Mutation check of the one stacked check: a single flipped output
    word in any one bank of an 8-bank dispatch raises, and the stack
    the check received is wrong in that bank only."""
    spec = _spec("ntt", False, 512, 32)
    rng = random.Random(flipped)
    inputs = [[rng.randrange(spec.q) for _ in range(spec.n)]
              for _ in range(8)]
    golden = [spec.expected(values) for values in inputs]
    real_read = PimBank.read_polynomial
    real_check = TransformSpec.check
    checked = []

    def corrupted(self, base_row, length):
        words = real_read(self, base_row, length)
        words[flipped, length // 3] ^= 1
        return words

    def spy(self, values, outputs):
        checked.append(outputs.tolist())
        return real_check(self, values, outputs)

    monkeypatch.setattr(PimBank, "read_polynomial", corrupted)
    monkeypatch.setattr(TransformSpec, "check", spy)
    with pytest.raises(FunctionalMismatch):
        _run_dispatch([[x] for x in inputs], [spec] * 8, SimConfig())
    (outputs,) = checked
    wrong = [k for k in range(8) if outputs[k] != [golden[k]]]
    assert wrong == [flipped]


# -- differential fuzz of the fused executor -----------------------------------

FUZZ_MODULI = (97, find_ntt_prime(64, 40), find_ntt_prime(64, 60))


def _fuzz_cells(seed, banks, window):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=(banks, len(window) * 256),
                        dtype=np.uint64, endpoint=False)


@given(seed=st.integers(0, 2**31), length=st.integers(1, 120),
       banks=st.integers(1, 4), with_deps=st.booleans(),
       q=st.sampled_from(FUZZ_MODULI))
@settings(max_examples=60, deadline=None)
def test_fused_stack_equals_per_command_run(seed, length, banks, with_deps,
                                            q):
    """A random legal C1/C2/C1N program, fused and run once over 1-4
    lockstep banks of random cells, leaves every bank's cells and
    buffers, and the summed µ-op counters, exactly as a per-command
    ``PimBank.run`` of that bank does."""
    commands = _random_legal_program(seed, length, with_deps=with_deps)
    stream = compile_stream(commands, HBM2E_ARCH)
    window = touched_rows(stream)
    cells = _fuzz_cells(seed, banks, window)
    pim = PimParams()
    stack = PimBank(HBM2E_ARCH, pim, stack=(banks,), rows=window)
    stack.set_parameters(q)
    assert stack.runs_atom_plan(stream), stream.fallback_reason
    stack.load_polynomial(window.start, cells)
    stack.run_stream(stream)
    after = stack.read_polynomial(window.start, cells.shape[-1])
    references = []
    for k in range(banks):
        bank = PimBank(HBM2E_ARCH, pim)
        bank.set_parameters(q)
        bank.load_polynomial(window.start, cells[k].tolist())
        bank.run(commands)
        assert after[k].tolist() == bank.read_polynomial(window.start,
                                                         cells.shape[-1])
        for buf in range(pim.nb_buffers):
            stacked = np.broadcast_to(stack.buffers.peek_array(buf),
                                      (banks, HBM2E_ARCH.words_per_atom))
            assert stacked[k].tolist() == bank.buffers.read(buf)
        references.append(bank)
    assert _counters(stack) == _summed(references)


def _stack_matches_per_command(commands, cells, q, loaded_q=None):
    """Run ``commands`` fused over a stack of ``len(cells)`` banks and
    per command on one full bank per row of ``cells``: every bank's
    cells and buffers, and the summed µ-op counters, must agree."""
    banks = len(cells)
    stream = compile_stream(commands, HBM2E_ARCH)
    window = touched_rows(stream)
    pim = PimParams()
    stack = PimBank(HBM2E_ARCH, pim, stack=(banks,), rows=window)
    references = [PimBank(HBM2E_ARCH, pim) for _ in range(banks)]
    for bank in [stack] + references:
        if loaded_q is not None:
            bank.cu.set_modulus(loaded_q)
        bank.set_parameters(q)
    assert stack.runs_atom_plan(stream), stream.fallback_reason
    stack.load_polynomial(window.start, cells)
    stack.run_stream(stream)
    after = stack.read_polynomial(window.start, cells.shape[-1])
    for k, bank in enumerate(references):
        bank.load_polynomial(window.start, cells[k].tolist())
        bank.run(commands)
        assert after[k].tolist() == bank.read_polynomial(window.start,
                                                         cells.shape[-1])
        for buf in range(pim.nb_buffers):
            stacked = np.broadcast_to(stack.buffers.peek_array(buf),
                                      (banks, HBM2E_ARCH.words_per_atom))
            assert stacked[k].tolist() == bank.buffers.read(buf)
    assert _counters(stack) == _summed(references)
    return stream


@given(seed=st.integers(0, 2**31), length=st.integers(1, 120),
       banks=st.integers(1, 4),
       q=st.sampled_from(FUZZ_MODULI + (2**32 - 5,)))
@settings(max_examples=60, deadline=None)
def test_forwarded_stack_equals_per_command_run(seed, length, banks, q):
    """Random legal programs that re-read atoms they wrote, copy atoms,
    overwrite an atom twice before reading it and end with a buffer
    whose last version is a forwarded read: the fused plan reads each
    atom at most once and writes it at most once, and still leaves
    every bank exactly as the per-command loop does."""
    commands = _random_legal_program(seed, length, memory_ops=True)
    window = touched_rows(compile_stream(commands, HBM2E_ARCH))
    stream = _stack_matches_per_command(
        commands, _fuzz_cells(seed, banks, window), q)
    for kind in ("read", "write"):
        atoms = [(r, c) for op in stream.plan.ops if op[0] == kind
                 for r, c in zip(op[1].tolist(), op[2].tolist())]
        assert len(atoms) == len(set(atoms))


@pytest.mark.parametrize("banks", [1, 3])
def test_modulus_switch_mid_plan_equals_per_command_run(banks):
    """Compute groups before a PARAM_WRITE run under the loaded 32-bit
    prime, the ones after under the smaller staged modulus: their
    operands were reduced under the old one, so the kernels reduce
    them again on entry."""
    c2 = dict(omega0=3, r_omega=5)
    commands = [
        Command(CommandType.ACT, row=0),
        Command(CommandType.CU_READ, row=0, col=0, buf=0),
        Command(CommandType.CU_READ, row=0, col=1, buf=1),
        Command(CommandType.C2, buf=0, buf2=1, **c2),
        Command(CommandType.C1, buf=0, omega0=3),
        Command(CommandType.CU_WRITE, row=0, col=2, buf=0),
        Command(CommandType.PARAM_WRITE, payload_words=6),
        Command(CommandType.C2, buf=0, buf2=1, gs=True, **c2),
        Command(CommandType.C1N, buf=1, zetas=(2, 3, 4, 5, 6, 7, 8)),
        Command(CommandType.CU_WRITE, row=0, col=0, buf=0),
        Command(CommandType.CU_WRITE, row=0, col=3, buf=1),
        Command(CommandType.PRE),
    ]
    cells = _fuzz_cells(banks, banks, range(1))
    stream = _stack_matches_per_command(commands, cells, 97,
                                        loaded_q=find_ntt_prime(64, 32))
    assert stream.plan.computes_before_param


def _break(commands, rng, nb):
    """Insert one command no compiled plan may run: an out-of-range
    buffer, or an ACT of a row that is already open."""
    position = rng.randrange(1, len(commands))
    if rng.random() < 0.5:
        bad = Command(CommandType.C2, buf=0, buf2=nb, omega0=3, r_omega=5)
    else:
        bad = Command(CommandType.ACT, row=70)
        commands = commands[:position] + [Command(CommandType.ACT, row=71)] \
            + commands[position:]
    return commands[:position] + [bad] + commands[position:]


@given(seed=st.integers(0, 2**31), length=st.integers(1, 80),
       with_deps=st.booleans())
@settings(max_examples=30, deadline=None)
def test_unfusable_programs_raise_like_per_command_run(seed, length,
                                                       with_deps):
    """Programs the compiler cannot fuse never run on a bank stack, and
    on a single bank raise the per-command loop's error at the same
    command, leaving the same cells, buffers and counters behind."""
    pim = PimParams()
    commands = _break(_random_legal_program(seed, length,
                                            with_deps=with_deps),
                      random.Random(seed), pim.nb_buffers)
    stream = compile_stream(commands, HBM2E_ARCH)
    window = range(0, 72)
    stack = PimBank(HBM2E_ARCH, pim, stack=(2,), rows=window)
    stack.set_parameters(97)
    assert not stack.runs_atom_plan(stream)
    with pytest.raises(MappingError, match="bank stack"):
        stack.run_stream(stream)
    cells = _fuzz_cells(seed, 1, window)[0].tolist()
    errors, states = [], []
    for run in (PimBank.run_stream, lambda bank, _: bank.run(commands)):
        bank = PimBank(HBM2E_ARCH, pim)
        bank.set_parameters(97)
        bank.load_polynomial(0, cells)
        with pytest.raises(MappingError) as caught:
            run(bank, stream)
        errors.append(str(caught.value))
        if bank.storage.open_row is not None:
            bank.storage.precharge()
        states.append((bank.read_polynomial(0, len(cells)),
                       [bank.buffers.read(b) for b in range(pim.nb_buffers)],
                       _counters(bank)))
    assert errors[0] == errors[1]
    assert states[0] == states[1]


def test_a_dispatch_frees_its_bank_stack_without_the_cyclic_collector(
        monkeypatch):
    """A bank stack holds no reference cycle: with the cyclic collector
    off, each stack an 8-bank dispatch builds and runs is gone as soon
    as the dispatch returns."""
    spec = _spec("ntt", False, 512, 32)
    rng = random.Random(512)
    inputs = [[[rng.randrange(spec.q) for _ in range(512)]]
              for _ in range(8)]
    stacks = []
    real = PimBank.run_stream

    def spy(self, stream):
        stacks.append(weakref.ref(self))
        return real(self, stream)

    monkeypatch.setattr(PimBank, "run_stream", spy)
    gc.disable()
    try:
        assert _run_dispatch(inputs, [spec] * 8, SimConfig()).verified
        assert stacks and all(stack() is None for stack in stacks)
        bank = PimBank(HBM2E_ARCH, PimParams())
        dropped = weakref.ref(bank)
        del bank
        assert dropped() is None
    finally:
        gc.enable()
