"""Tests for command-trace export."""

import pytest

from repro.arith import NttParams, find_ntt_prime
from repro.dram import HBM2E_ARCH
from repro.sim import (
    SimConfig,
    TransformSpec,
    format_trace,
    parse_trace_line,
    trace_summary,
)

Q = find_ntt_prime(1024, 32)


class TestTrace:
    def _program(self):
        return TransformSpec(params=NttParams(256, Q)).program(
            SimConfig(), 0).commands

    def test_format_untimed(self):
        cmds = self._program()
        text = format_trace(cmds[:5])
        lines = text.splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("bank0")

    def test_format_timed(self):
        from repro.dram import HBM2E_TIMING, TimingEngine
        from repro.pim import PimParams
        cmds = self._program()
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                              compute=PimParams().compute_timing())
        result = engine.simulate(cmds)
        text = format_trace(cmds, result.timings)
        first = text.splitlines()[0].split()
        assert first[0].isdigit()

    def test_timed_length_mismatch(self):
        cmds = self._program()
        with pytest.raises(ValueError):
            format_trace(cmds, [])

    def test_parse_roundtrip(self):
        cmds = self._program()
        parsed = parse_trace_line(format_trace([cmds[1]]))  # the ACT
        assert parsed["bank"] == 0
        assert parsed["op"] == "ACT"
        assert "row" in parsed

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_trace_line("")
        with pytest.raises(ValueError):
            parse_trace_line("12 notabank ACT")

    def test_summary_counts(self):
        cmds = self._program()
        text = trace_summary(cmds)
        assert text.startswith(f"{len(cmds)} commands:")
        assert "C1=32" in text
