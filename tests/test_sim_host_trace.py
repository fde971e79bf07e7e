"""Tests for the request-level host interface and trace export."""

import random

import pytest

from repro.arith import NttParams, find_ntt_prime
from repro.dram import HBM2E_ARCH
from repro.ntt import ntt
from repro.sim import (
    MemoryRequest,
    PimMemoryController,
    RequestType,
    SimConfig,
    TransformSpec,
    format_trace,
    parse_trace_line,
    trace_summary,
)

Q = find_ntt_prime(1024, 32)
R = HBM2E_ARCH.words_per_row


class TestHostProtocol:
    def test_write_read_roundtrip(self):
        mc = PimMemoryController()
        data = list(range(100))
        assert mc.submit(MemoryRequest(RequestType.WRITE, address=64,
                                       data=data)).ok
        resp = mc.submit(MemoryRequest(RequestType.READ, address=64,
                                       length=100))
        assert resp.ok and resp.data == data

    def test_unwritten_memory_reads_zero(self):
        mc = PimMemoryController()
        resp = mc.submit(MemoryRequest(RequestType.READ, address=0, length=4))
        assert resp.data == [0, 0, 0, 0]

    def test_ntt_invoke_full_protocol(self):
        """Fig. 1 flow: write input, invoke NTT as a write request, read
        the transformed data back from the same address."""
        n = 256
        params = NttParams(n, Q)
        rng = random.Random(0)
        values = [rng.randrange(Q) for _ in range(n)]
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.WRITE, address=0, data=values))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=params))
        assert resp.ok
        assert resp.run is not None and resp.run.verified
        readback = mc.submit(MemoryRequest(RequestType.READ, address=0,
                                           length=n))
        assert readback.data == ntt(values, params)

    def test_ntt_at_nonzero_row_aligned_address(self):
        n = 256
        params = NttParams(n, Q)
        mc = PimMemoryController()
        addr = 7 * R
        mc.submit(MemoryRequest(RequestType.WRITE, address=addr,
                                data=[1] * n))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=addr,
                                       ntt_params=params))
        assert resp.ok

    def test_unaligned_ntt_rejected(self):
        mc = PimMemoryController()
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=17,
                                       ntt_params=NttParams(256, Q)))
        assert not resp.ok and "aligned" in resp.detail

    def test_ntt_without_params_rejected(self):
        mc = PimMemoryController()
        assert not mc.submit(MemoryRequest(RequestType.NTT_INVOKE)).ok

    def test_write_without_data_rejected(self):
        mc = PimMemoryController()
        assert not mc.submit(MemoryRequest(RequestType.WRITE, address=0)).ok

    def test_pre_bit_reversed_input(self):
        """A host that already stored the bit-reversed image gets the
        same transform."""
        from repro.arith import bit_reverse_permute
        n = 256
        params = NttParams(n, Q)
        rng = random.Random(1)
        values = [rng.randrange(Q) for _ in range(n)]
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                data=bit_reverse_permute(values)))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=params,
                                       pre_bit_reversed=True))
        assert resp.ok and resp.data == ntt(values, params)

    def test_responses_recorded(self):
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.READ, address=0, length=1))
        mc.submit(MemoryRequest(RequestType.WRITE, address=0, data=[1]))
        assert len(mc.completed) == 2


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
