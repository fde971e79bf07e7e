"""Property/fuzz tests of the timing engine on randomly generated but
protocol-legal command programs, including bit-identity of the compiled
command-stream engine against the legacy per-command loop."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram import (
    Command,
    CommandType,
    ComputeTiming,
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    cached_stream,
    clear_stream_cache,
    compile_stream,
    stream_cache_info,
)
from repro.errors import MappingError
from repro.sim.driver import (
    cached_schedule,
    clear_schedule_cache,
    schedule_cache_info,
)


def _random_legal_program(seed: int, length: int, banks: int = 1,
                          with_deps: bool = False, max_deps: int = 2,
                          memory_ops: bool = False):
    """Generate a random DRAM/PIM program that obeys open-row rules.

    With ``banks > 1`` commands spread over several banks (each with its
    own open-row state); with ``with_deps`` commands carry random
    backward dependency edges, up to ``max_deps`` per command (duplicates
    collapse), exercising the engines' stall logic.  With
    ``memory_ops`` the program keeps to 2 rows of 4 atoms, so it
    re-reads atoms it wrote; it also copies atoms unchanged to other
    atoms, overwrites an atom twice before reading it, and ends by
    reading back an atom it just wrote into buffer 1.  The default
    draws are unchanged.
    """
    rng = random.Random(seed)
    cmds = []
    open_row = [None] * banks
    rows, cols = (2, 4) if memory_ops else (64, 32)
    extra = ["copy", "rewrite"] if memory_ops else []
    cmds.append(Command(CommandType.PARAM_WRITE, payload_words=6))

    def deps():
        if not with_deps or len(cmds) < 2 or rng.random() < 0.5:
            return ()
        count = rng.randrange(1, max_deps + 1)
        return tuple(sorted({rng.randrange(len(cmds))
                             for _ in range(count)}))

    for _ in range(length):
        bank = rng.randrange(banks)
        if open_row[bank] is None:
            op = "act"
        else:
            op = rng.choice(["rd", "wr", "c1", "c2", "c1n", "pre",
                             "rd", "wr"] + extra)
        row = open_row[bank]
        if op == "act":
            open_row[bank] = rng.randrange(rows)
            cmds.append(Command(CommandType.ACT, bank=bank,
                                row=open_row[bank], deps=deps()))
        elif op == "pre":
            cmds.append(Command(CommandType.PRE, bank=bank, deps=deps()))
            open_row[bank] = None
        elif op == "rd":
            cmds.append(Command(CommandType.CU_READ, bank=bank, row=row,
                                col=rng.randrange(cols), buf=rng.randrange(2),
                                deps=deps()))
        elif op == "wr":
            cmds.append(Command(CommandType.CU_WRITE, bank=bank, row=row,
                                col=rng.randrange(cols), buf=rng.randrange(2),
                                deps=deps()))
        elif op == "copy":
            buf = rng.randrange(2)
            cmds.append(Command(CommandType.CU_READ, bank=bank, row=row,
                                col=rng.randrange(cols), buf=buf))
            cmds.append(Command(CommandType.CU_WRITE, bank=bank, row=row,
                                col=rng.randrange(cols), buf=buf))
        elif op == "rewrite":
            col = rng.randrange(cols)
            for buf in (0, 1):
                cmds.append(Command(CommandType.CU_WRITE, bank=bank,
                                    row=row, col=col, buf=buf))
            cmds.append(Command(CommandType.CU_READ, bank=bank, row=row,
                                col=col, buf=rng.randrange(2)))
        elif op == "c1":
            cmds.append(Command(CommandType.C1, bank=bank,
                                buf=rng.randrange(2), omega0=3, deps=deps()))
        elif op == "c1n":
            cmds.append(Command(CommandType.C1N, bank=bank,
                                buf=rng.randrange(2),
                                zetas=tuple(rng.randrange(1, 97)
                                            for _ in range(7)),
                                gs=rng.random() < 0.5, deps=deps()))
        elif op == "c2":
            cmds.append(Command(CommandType.C2, bank=bank, buf=0, buf2=1,
                                omega0=3, r_omega=5, deps=deps()))
    if memory_ops:
        if open_row[0] is None:
            open_row[0] = rng.randrange(rows)
            cmds.append(Command(CommandType.ACT, row=open_row[0]))
        col = rng.randrange(cols)
        cmds.append(Command(CommandType.CU_WRITE, row=open_row[0], col=col,
                            buf=0))
        cmds.append(Command(CommandType.CU_READ, row=open_row[0], col=col,
                            buf=1))
    for bank in range(banks):
        if open_row[bank] is not None:
            cmds.append(Command(CommandType.PRE, bank=bank))
    return cmds


@given(seed=st.integers(min_value=0, max_value=2**31),
       length=st.integers(min_value=1, max_value=120))
@settings(max_examples=60, deadline=None)
def test_property_legal_programs_simulate(seed, length):
    """Every protocol-legal program must simulate without error, with
    strictly increasing issue times and completes >= issues."""
    cmds = _random_legal_program(seed, length)
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    result = engine.simulate(cmds)
    issues = [t.issue for t in result.timings]
    assert all(b > a for a, b in zip(issues, issues[1:]))
    assert all(t.complete >= t.issue for t in result.timings)
    assert result.total_cycles == max(t.complete for t in result.timings)
    assert result.stats.total_commands == len(cmds)
    assert result.energy_nj > 0


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_property_slower_timing_never_faster(seed):
    """Uniformly relaxing DRAM timing cannot shorten a schedule."""
    from dataclasses import replace
    cmds = _random_legal_program(seed, 60)
    fast = TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(cmds)
    slow_params = replace(HBM2E_TIMING, cl=20, trp=20, tras=44,
                          trcd=20, twr=22, tccd=4)
    slow = TimingEngine(slow_params, HBM2E_ARCH).simulate(cmds)
    assert slow.total_cycles >= fast.total_cycles


@given(seed=st.integers(min_value=0, max_value=2**31),
       length=st.integers(min_value=1, max_value=150),
       banks=st.integers(min_value=1, max_value=4),
       with_deps=st.booleans(),
       dep_width=st.integers(min_value=1, max_value=6))
@settings(max_examples=80, deadline=None)
def test_property_stream_engine_bit_identical(seed, length, banks, with_deps,
                                              dep_width):
    """The compiled-stream engine reproduces the legacy per-command loop
    bit for bit: per-command issue/complete timings, stats counters and
    energy_nj — across banks, dependency edges (up to ``dep_width`` per
    command, so the stream engine's padded dependency columns run at
    every width) and every command type the generator emits."""
    cmds = _random_legal_program(seed, length, banks=banks,
                                 with_deps=with_deps, max_deps=dep_width)
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    legacy = engine.simulate(cmds)
    stream = compile_stream(cmds, HBM2E_ARCH)
    streamed = engine.simulate_stream(stream)
    assert streamed.timings == legacy.timings
    assert streamed.stats == legacy.stats
    assert streamed.energy_nj == legacy.energy_nj
    assert streamed.total_cycles == legacy.total_cycles


def test_stream_engine_negative_row_parity():
    """Negative ACT rows are pathological but constructible; both
    engines must treat them identically (no sentinel collisions)."""
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    ok = [Command(CommandType.ACT, row=-1), Command(CommandType.PRE)]
    legacy = engine.simulate(ok)
    streamed = engine.simulate_stream(compile_stream(ok, HBM2E_ARCH))
    assert streamed.timings == legacy.timings
    bad = [Command(CommandType.ACT, row=-1), Command(CommandType.ACT, row=5)]
    with pytest.raises(MappingError, match="while row -1 is open"):
        engine.simulate(bad)
    with pytest.raises(MappingError, match="while row -1 is open"):
        engine.simulate_stream(compile_stream(bad, HBM2E_ARCH))


def _first_fault(engine, cmds, streamed: bool) -> str:
    with pytest.raises(MappingError) as exc:
        if streamed:
            engine.simulate_stream(compile_stream(cmds, HBM2E_ARCH))
        else:
            engine.simulate(cmds)
    return str(exc.value)


# A legal program with a protocol fault at command 5 (a second ACT while
# row 3 is open).  Commands 3, 5 and 7 are the dependency-fault sites
# before, at and after it.
_FAULTY = (
    Command(CommandType.PARAM_WRITE, payload_words=6),
    Command(CommandType.ACT, row=3),
    Command(CommandType.CU_READ, row=3, col=0, buf=0, deps=(1,)),
    Command(CommandType.C1, buf=0, omega0=3, deps=(2,)),
    Command(CommandType.CU_WRITE, row=3, col=0, buf=0, deps=(3,)),
    Command(CommandType.ACT, row=4, deps=(4,)),
    Command(CommandType.PRE),
    Command(CommandType.CU_READ, row=4, col=1, buf=1, deps=(5,)),
    Command(CommandType.PRE),
)


@pytest.mark.parametrize("site,expected", [
    (3, "command 3 has invalid dependency {bad}"),
    (5, "command 5 has invalid dependency {bad}"),
    (7, "cmd 5: ACT row 4 while row 3 is open"),
], ids=["before", "at", "after"])
@pytest.mark.parametrize("offset", [0, 2, -9], ids=["self", "forward",
                                                    "negative"])
def test_stream_engine_invalid_dependency_parity(site, expected, offset):
    """The stream engine's up-front dependency scan stops the loop at
    the first invalid (forward or negative) dependency: the same
    message at the same command as the legacy loop, which checks a
    command's dependencies before its protocol and reports the first
    invalid one in its list."""
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    bad = site + offset if offset >= 0 else offset
    cmds = list(_FAULTY)
    cmds[site] = replace(cmds[site],
                         deps=cmds[site].deps + (bad, -1, site + 1))
    message = expected.format(bad=bad)
    assert _first_fault(engine, cmds, streamed=False) == message
    assert _first_fault(engine, cmds, streamed=True) == message


@given(seed=st.integers(min_value=0, max_value=2**31),
       length=st.integers(min_value=2, max_value=120),
       banks=st.integers(min_value=1, max_value=3),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_property_invalid_dependency_parity(seed, length, banks, data):
    """Random legal programs with an invalid dependency and, optionally,
    a protocol fault (an ACT on an open bank, or a PRE on a closed one)
    anywhere: both engines raise the same first fault."""
    cmds = _random_legal_program(seed, length, banks=banks,
                                 with_deps=True, max_deps=4)
    n = len(cmds)
    site = data.draw(st.integers(0, n - 1), label="dependency site")
    bad = data.draw(st.one_of(st.integers(site, site + 4),
                              st.integers(-4, -1)), label="invalid dep")
    cmds[site] = replace(cmds[site], deps=cmds[site].deps + (bad,))
    fault = data.draw(st.one_of(st.none(), st.integers(0, n - 1)),
                      label="protocol fault")
    if fault is not None:
        open_rows = {}
        for cmd in cmds[:fault]:
            if cmd.ctype is CommandType.ACT:
                open_rows[cmd.bank] = cmd.row
            elif cmd.ctype is CommandType.PRE:
                open_rows.pop(cmd.bank, None)
        bank = cmds[fault].bank
        illegal = (Command(CommandType.ACT, bank=bank, row=99)
                   if bank in open_rows else
                   Command(CommandType.PRE, bank=bank))
        cmds[fault] = replace(illegal, deps=cmds[fault].deps)
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH, compute=ComputeTiming())
    assert (_first_fault(engine, cmds, streamed=True)
            == _first_fault(engine, cmds, streamed=False))


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_property_stream_roundtrips_through_schedule_cache(seed):
    """The schedule cache replays a program's IR columns and compiles
    nothing: a schedule miss makes no stream lookup, the same program
    hits the schedule cache on replay, a stream compiled afterwards
    holds the same commands, and the cached schedule equals a direct
    legacy simulation."""
    cmds = _random_legal_program(seed, 90, banks=2, with_deps=True)
    clear_schedule_cache()
    clear_stream_cache()
    from repro.dram.energy import HBM2E_ENERGY
    first = cached_schedule(cmds, HBM2E_TIMING, HBM2E_ARCH, HBM2E_ENERGY)
    assert schedule_cache_info()["misses"] == 1
    again = cached_schedule(cmds, HBM2E_TIMING, HBM2E_ARCH, HBM2E_ENERGY)
    assert again is first  # schedule cache hit, no recompute
    assert schedule_cache_info()["hits"] == 1
    # A second miss replays the columns again, still without a stream.
    clear_schedule_cache()
    assert cached_schedule(cmds, HBM2E_TIMING, HBM2E_ARCH,
                           HBM2E_ENERGY) == first
    assert stream_cache_info() == {"entries": 0, "hits": 0, "misses": 0}
    stream = cached_stream(cmds, HBM2E_ARCH)
    assert stream_cache_info()["misses"] == 1
    assert stream.commands == tuple(cmds)
    legacy = TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(cmds)
    assert first.timings == legacy.timings
    assert first.stats == legacy.stats
    assert first.energy_nj == legacy.energy_nj


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_property_prefix_monotone(seed):
    """Simulating a prefix never takes longer than the whole program."""
    cmds = _random_legal_program(seed, 80)
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
    full = engine.simulate(cmds)
    # Choose a prefix that leaves no dangling open row: cut after a PRE.
    pre_positions = [i for i, c in enumerate(cmds)
                     if c.ctype is CommandType.PRE]
    if not pre_positions:
        return
    cut = pre_positions[len(pre_positions) // 2] + 1
    prefix = engine.simulate(cmds[:cut])
    assert prefix.total_cycles <= full.total_cycles
