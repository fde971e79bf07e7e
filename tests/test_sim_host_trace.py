"""Tests for command-trace export."""

import pytest

from repro.arith import NttParams, find_ntt_prime
from repro.dram import HBM2E_ARCH, HBM2E_TIMING, CommandType, TimingEngine
from repro.ntt import NegacyclicParams
from repro.pim import PimParams
from repro.sim import (
    SimConfig,
    TransformSpec,
    format_trace,
    interleave_programs,
    trace_summary,
)

Q = find_ntt_prime(1024, 32)
RING = NegacyclicParams(256, find_ntt_prime(256, 32, negacyclic=True))
CT = CommandType

#: Each command type a mapper emits, with the transform and buffer
#: count whose program carries it.
TYPE_SOURCES = {
    **{ctype: (TransformSpec(params=NttParams(256, Q)), 2)
       for ctype in (CT.PARAM_WRITE, CT.ACT, CT.PRE, CT.CU_READ,
                     CT.CU_WRITE, CT.C1, CT.C2)},
    CT.C1N: (TransformSpec(kind="negacyclic", ring=RING), 2),
    **{ctype: (TransformSpec(params=NttParams(256, Q)), 1)
       for ctype in (CT.LOAD_SCALAR, CT.BU_SCALAR, CT.STORE_SCALAR)},
}


class TestTrace:
    def _program(self):
        return TransformSpec(params=NttParams(256, Q)).program(
            SimConfig()).commands

    def test_format_untimed(self):
        cmds = self._program()
        text = format_trace(cmds[:5])
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("bank0")

    def test_format_timed(self):
        cmds = self._program()
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
        result = engine.simulate(cmds)
        text = format_trace(cmds, result.timings)
        first = text.splitlines()[0].split()
        assert first[0].isdigit()

    @pytest.mark.parametrize("ctype", list(TYPE_SOURCES),
                             ids=lambda ctype: ctype.value)
    def test_a_timed_line_reads_issue_bank_and_command(self, ctype):
        """What a tool reading the trace gets back from one line: the
        issue cycle, the bank and the command as ``describe`` renders
        it, led by its mnemonic."""
        spec, nb = TYPE_SOURCES[ctype]
        program = spec.program(SimConfig(pim=PimParams(nb_buffers=nb)))
        cmds = interleave_programs([program.commands] * 2)
        timings = TimingEngine(HBM2E_TIMING, HBM2E_ARCH).simulate(
            cmds).timings
        lines = format_trace(cmds, timings).splitlines()
        index = next(i for i, cmd in enumerate(cmds)
                     if cmd.ctype is ctype and cmd.bank == 1)
        issue, bank, *command = lines[index].split()
        assert int(issue) == timings[index].issue
        assert bank == "bank1"
        assert " ".join(command) == cmds[index].describe()
        assert command[0] == ("PARAM" if ctype is CT.PARAM_WRITE
                              else ctype.value)

    def test_timed_length_mismatch(self):
        cmds = self._program()
        with pytest.raises(ValueError):
            format_trace(cmds, [])

    def test_summary_counts(self):
        cmds = self._program()
        text = trace_summary(cmds)
        assert text.startswith(f"{len(cmds)} commands:")
        assert "C1=32" in text
