"""Hand-built command programs through the IR's integer columns.

``StreamIR.from_commands`` tabulates a program's own twiddle and zeta
values and packs its dependencies into one fixed-width column.  Drawn
programs carry what no mapper emits — 0–6 dependencies per command,
negative, self, forward and duplicate ones among them, twiddles of 2**64
and more, C1N zeta rows of the wrong length, negative rows, columns,
buffers and lanes in the fields a command's type requires — and must
come back out of the columns unchanged, compile to the same fallback
reasons, replay to the per-command engine's result or its error, and
merge like the per-command references.  The columns encode an absent
field as -1, so a negative value in a field the command's type does not
carry still reads back as ``None``; the draws keep those non-negative.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compile.ir import StreamIR
from repro.compile.lower import concat_irs, interleave_irs
from repro.dram import (
    Command,
    CommandType,
    ComputeTiming,
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    compile_stream,
)
from repro.dram.commands import REQUIRED_FIELDS
from repro.errors import MappingError
from repro.sim.batch import concat_programs
from repro.sim.multibank import interleave_programs

CT = CommandType
_COLUMN = (CT.RD, CT.WR, CT.CU_READ, CT.CU_WRITE)
_COMPUTE = (CT.C1, CT.C2, CT.C1N, CT.PARAM_WRITE, CT.LOAD_SCALAR,
            CT.BU_SCALAR, CT.STORE_SCALAR)
_WORDS = st.one_of(st.integers(0, 2**16), st.integers(2**64, 2**70))


def _field(draw, ctype, name: str, top: int) -> int:
    """A field value up to ``top``: down to -2 in a field ``ctype``
    requires, where the columns keep every value, else non-negative
    (a negative value there reads back as ``None``)."""
    low = -2 if ctype in REQUIRED_FIELDS[name] else 0
    return draw(st.integers(low, top))


@st.composite
def programs(draw, max_len=24, banks=st.just(0)):
    """A hand-built program: protocol-legal as one bank's program but for
    at most one command of any type with any row (so the engines get
    past the first few commands), every field its type needs, 0–6
    backward dependencies per command and at most one invalid one.  A
    field the command's type requires may be negative (:func:`_field`).
    Each command's bank is drawn from ``banks``."""
    cmds = []
    open_row = None
    length = draw(st.integers(0, max_len))
    # Past the end: no wild command, no invalid dependency.
    wild_at = draw(st.integers(0, 2 * max_len))
    fault_at = draw(st.integers(0, 2 * max_len))
    for i in range(length):
        if i != wild_at:
            ctype = (CT.ACT if open_row is None
                     else draw(st.sampled_from(_COLUMN + _COMPUTE
                                               + (CT.PRE,))))
            row = (open_row if ctype in _COLUMN
                   else _field(draw, ctype, "row", 7))
        else:
            ctype = draw(st.sampled_from(list(CT)))
            row = _field(draw, ctype, "row", 7)
        zetas = ()
        if ctype is CT.C1N or not draw(st.integers(0, 7)):
            zetas = tuple(draw(st.lists(_WORDS, min_size=1, max_size=9)))
        deps = draw(st.lists(st.integers(0, i - 1), max_size=6)) if i else []
        if i == fault_at:
            bad = draw(st.sampled_from([-2, -1, i, i + 1, i + 7]))
            deps.insert(draw(st.integers(0, len(deps))), bad)
        cmds.append(Command(
            ctype, bank=draw(banks), row=row,
            col=_field(draw, ctype, "col", 31),
            buf=_field(draw, ctype, "buf", 3),
            buf2=_field(draw, ctype, "buf2", 3),
            lane=_field(draw, ctype, "lane", 9),
            omega0=draw(st.one_of(st.none(), _WORDS)),
            r_omega=draw(st.one_of(st.none(), _WORDS)),
            payload_words=draw(st.integers(0, 6)),
            gs=draw(st.booleans()), zetas=zetas, deps=tuple(deps)))
        if ctype is CT.ACT:
            open_row = row
        elif ctype is CT.PRE:
            open_row = None
    return cmds


def _from_columns(cmds) -> StreamIR:
    """The IR of ``cmds`` with its source tuple dropped, so commands
    materialize from the columns and tables."""
    ir = StreamIR.from_commands(cmds)
    ir._commands = None
    return ir


def _outcome(run):
    try:
        return run()
    except MappingError as exc:
        return f"MappingError: {exc}"


def _merge_outcome(merge):
    try:
        return merge()
    except KeyError as exc:
        return f"KeyError: {exc}"


@settings(max_examples=60, deadline=None)
@given(cmds=programs())
def test_commands_round_trip_through_the_columns(cmds):
    ir = _from_columns(cmds)
    assert ir.deps.shape == (len(cmds), max(
        (len(c.deps) for c in cmds), default=0))
    assert ir.materialize_commands() == tuple(cmds)


@settings(max_examples=80, deadline=None)
@given(cmds=programs())
def test_stream_replay_matches_the_per_command_engine(cmds):
    """Same timings, stats and energy, or the same MappingError message
    at the same command."""
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    expected = _outcome(lambda: engine.simulate(cmds))
    stream = compile_stream(_from_columns(cmds), HBM2E_ARCH)
    assert _outcome(lambda: engine.simulate_stream(stream)) == expected


_ANY_BANK = st.integers(0, 7)


@settings(max_examples=50, deadline=None)
@given(first=programs(max_len=12, banks=_ANY_BANK),
       second=programs(max_len=12, banks=_ANY_BANK))
def test_merges_match_the_per_command_references(first, second):
    """A concat keeps each command's bank, drops every dependency that
    does not point back into its own program, or that lands on a
    dropped PARAM_WRITE, and compacts the row; an interleave, a lone
    program's included, runs program ``k`` on bank ``k`` whatever bank
    its commands named, and raises the reference's KeyError for such a
    dependency, at the same one."""
    # Open `second` with a PARAM_WRITE that every command depends on
    # first: the concat drops it, so every row of `second` compacts.
    second = [Command(CT.PARAM_WRITE, payload_words=6)] + [
        replace(c, deps=(0,) + tuple(d + 1 for d in c.deps))
        for c in second]
    # Every command of `third` also names itself, the next command and
    # -1, none of which the concat keeps.
    third = [replace(c, deps=c.deps + (i, i + 1, -1))
             for i, c in enumerate(first)]
    slots = [first, second, third]
    merged = concat_irs([_from_columns(p) for p in slots])
    assert merged.materialize_commands() == tuple(concat_programs(slots))
    for slots in ([first], [first, second, first], [second, third]):
        expected = _merge_outcome(lambda: tuple(interleave_programs(slots)))
        assert _merge_outcome(lambda: interleave_irs(
            [_from_columns(p) for p in slots]).materialize_commands()
        ) == expected
        if not isinstance(expected, str):
            # Round-robin: position p of every program long enough.
            owners = [k for p in range(max(map(len, slots)))
                      for k, program in enumerate(slots) if p < len(program)]
            assert [c.bank for c in expected] == owners
    if third:
        assert expected.startswith("KeyError")


def test_a_negative_row_survives_a_merge():
    cmds = [Command(CT.ACT, row=-1)]
    merged = concat_irs([_from_columns(cmds), _from_columns(cmds)])
    assert merged.materialize_commands() == tuple(
        concat_programs([cmds, cmds]))


def test_a_negative_field_the_type_does_not_carry_reads_back_as_none():
    """The residual of the -1 encoding: PRE carries no row, so its -1
    is "absent"."""
    ir = _from_columns([Command(CT.PRE, row=-1, buf=-3)])
    assert ir.materialize_commands() == (Command(CT.PRE),)


def _legal_prefix():
    return [Command(CT.PARAM_WRITE, payload_words=6),
            Command(CT.ACT, row=0),
            Command(CT.CU_READ, row=0, col=0, buf=0),
            Command(CT.CU_READ, row=0, col=1, buf=1)]


@pytest.mark.parametrize("omega0, r_omega", [(3, None), (None, 5),
                                             (None, None)])
def test_c2_without_its_twiddle_pair_falls_back(omega0, r_omega):
    cmds = _legal_prefix() + [
        Command(CT.C2, buf=0, buf2=1, omega0=omega0, r_omega=r_omega),
        Command(CT.PRE)]
    stream = compile_stream(_from_columns(cmds), HBM2E_ARCH)
    assert stream.plan is None
    assert stream.fallback_reason == "cmd 4: C2 without its twiddle pair"


@settings(max_examples=30, deadline=None)
@given(count=st.integers(1, 12).filter(lambda k: k != 7),
       big=st.booleans())
def test_c1n_with_the_wrong_zeta_count_falls_back(count, big):
    zetas = tuple((2**64 if big else 0) + z for z in range(1, count + 1))
    cmds = _legal_prefix() + [Command(CT.C1N, buf=0, zetas=zetas),
                              Command(CT.C1N, buf=1, zetas=zetas[:1]),
                              Command(CT.PRE)]
    stream = compile_stream(_from_columns(cmds), HBM2E_ARCH)
    assert stream.plan is None
    assert stream.fallback_reason == (
        f"cmd 4: C1N carries {count} zetas, needs 7")


def test_c1n_with_seven_zetas_compiles():
    cmds = _legal_prefix() + [
        Command(CT.C1N, buf=0, zetas=tuple(range(2**64, 2**64 + 7))),
        Command(CT.CU_WRITE, row=0, col=0, buf=0), Command(CT.PRE)]
    stream = compile_stream(_from_columns(cmds), HBM2E_ARCH)
    assert stream.plan is not None, stream.fallback_reason
