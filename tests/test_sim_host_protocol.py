"""Direct tests for the PimMemoryController request/response protocol
(paper Sec. IV.A / Fig. 1), including the serve-layer queued path and
its bit-equivalence with the legacy direct-facade route."""

import random

import pytest

from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.dram import HBM2E_ARCH
from repro.ntt import ntt as reference_ntt
from repro.serve import SimServer
from repro.sim import (
    MemoryRequest,
    MemoryResponse,
    PimMemoryController,
    RequestType,
    SimConfig,
)

N = 256
Q = find_ntt_prime(1024, 32)  # works for every power of two up to 1024
R = HBM2E_ARCH.words_per_row


def _values(seed: int, n: int = N):
    rng = random.Random(seed)
    return [rng.randrange(Q) for _ in range(n)]


class TestProtocolContract:
    """The raw request/response surface, independent of routing."""

    def test_write_response_carries_no_data(self):
        mc = PimMemoryController()
        resp = mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                       data=[1, 2, 3]))
        assert isinstance(resp, MemoryResponse)
        assert resp.ok and resp.data == [] and resp.run is None

    def test_read_is_a_pure_window(self):
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.WRITE, address=10, data=[5, 6]))
        resp = mc.submit(MemoryRequest(RequestType.READ, address=8, length=6))
        assert resp.data == [0, 0, 5, 6, 0, 0]

    def test_ntt_invoke_returns_run_metadata(self):
        params = NttParams(N, Q)
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                data=_values(0)))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=params))
        assert resp.ok and resp.run is not None
        assert resp.run.verified
        assert resp.run.schedule.total_cycles > 0
        assert resp.run.command_count > 0

    def test_ntt_overwrites_input_in_place(self):
        """The protocol's defining rule: the result lands where the
        input lived, and only there."""
        params = NttParams(N, Q)
        values = _values(1)
        sentinel_addr = N + 64
        mc = PimMemoryController()
        mc.submit(MemoryRequest(RequestType.WRITE, address=0, data=values))
        mc.submit(MemoryRequest(RequestType.WRITE, address=sentinel_addr,
                                data=[77] * 4))
        mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                ntt_params=params))
        after = mc.submit(MemoryRequest(RequestType.READ, address=0,
                                        length=N)).data
        assert after == reference_ntt(values, params)
        untouched = mc.submit(MemoryRequest(RequestType.READ,
                                            address=sentinel_addr,
                                            length=4)).data
        assert untouched == [77] * 4

    def test_back_to_back_invokes_at_distinct_addresses(self):
        params = NttParams(N, Q)
        mc = PimMemoryController()
        rows_each = max(1, N // R)
        blobs = [_values(s) for s in range(3)]
        for i, blob in enumerate(blobs):
            addr = i * rows_each * R
            mc.submit(MemoryRequest(RequestType.WRITE, address=addr,
                                    data=blob))
            resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE,
                                           address=addr, ntt_params=params))
            assert resp.ok
            assert resp.data == reference_ntt(blob, params)

    def test_failed_request_is_still_recorded(self):
        mc = PimMemoryController()
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=17,
                                       ntt_params=NttParams(N, Q)))
        assert not resp.ok
        assert mc.completed[-1] is resp

    def test_timing_only_config_returns_no_data(self):
        mc = PimMemoryController(SimConfig(functional=False))
        mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                data=_values(2)))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=NttParams(N, Q)))
        assert resp.ok and resp.data == []
        assert resp.run.schedule.total_cycles > 0


class TestQueuedPath:
    """NTT_INVOKE routed through the serving layer's queue/scheduler."""

    def test_queued_ntt_bit_identical_to_legacy(self):
        params = NttParams(N, Q)
        values = _values(3)
        legacy = PimMemoryController()
        queued = PimMemoryController(server=SimServer())
        for mc in (legacy, queued):
            mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                    data=values))
        resp_legacy = legacy.submit(
            MemoryRequest(RequestType.NTT_INVOKE, address=0,
                          ntt_params=params))
        resp_queued = queued.submit(
            MemoryRequest(RequestType.NTT_INVOKE, address=0,
                          ntt_params=params))
        assert resp_queued.ok
        assert resp_queued.data == resp_legacy.data
        assert resp_queued.run.verified
        assert resp_queued.run.schedule.total_cycles == \
            resp_legacy.run.schedule.total_cycles

    def test_queued_path_honours_base_row_override(self):
        """The request address becomes the per-request SimConfig the
        serve layer carries as a config override."""
        params = NttParams(N, Q)
        values = _values(4)
        server = SimServer()
        mc = PimMemoryController(server=server)
        addr = 16 * R
        mc.submit(MemoryRequest(RequestType.WRITE, address=addr, data=values))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=addr,
                                       ntt_params=params))
        assert resp.ok
        assert resp.data == reference_ntt(values, params)
        readback = mc.submit(MemoryRequest(RequestType.READ, address=addr,
                                           length=N))
        assert readback.data == resp.data

    def test_queued_traffic_lands_in_server_telemetry(self):
        params = NttParams(N, Q)
        server = SimServer()
        mc = PimMemoryController(server=server)
        for seed in range(3):
            mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                    data=_values(seed)))
            assert mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                           ntt_params=params)).ok
        snapshot = server.telemetry.snapshot()
        assert snapshot["completed"] == 3
        assert snapshot["total_cycles"] > 0

    def test_queued_pre_bit_reversed_input(self):
        params = NttParams(N, Q)
        values = _values(5)
        mc = PimMemoryController(server=SimServer())
        mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                data=bit_reverse_permute(values)))
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=params,
                                       pre_bit_reversed=True))
        assert resp.ok and resp.data == reference_ntt(values, params)

    def test_queued_unaligned_rejected_before_reaching_server(self):
        server = SimServer()
        mc = PimMemoryController(server=server)
        resp = mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=5,
                                       ntt_params=NttParams(N, Q)))
        assert not resp.ok and "aligned" in resp.detail
        assert server.telemetry.snapshot()["requests"] == 0

    def test_shared_server_batches_controller_and_api_traffic(self):
        """One server can front both host-protocol controllers and
        direct facade callers; the controller's invoke goes through the
        same scheduler machinery (group of one here)."""
        params = NttParams(N, Q)
        server = SimServer(window_us=0.0)
        mc = PimMemoryController(server=server)
        mc.submit(MemoryRequest(RequestType.WRITE, address=0,
                                data=_values(6)))
        assert mc.submit(MemoryRequest(RequestType.NTT_INVOKE, address=0,
                                       ntt_params=params)).ok
        from repro.api import NttRequest
        response = server.call(NttRequest(params=params,
                                          values=tuple(_values(7))))
        assert response.verified
        assert server.telemetry.snapshot()["completed"] == 2
