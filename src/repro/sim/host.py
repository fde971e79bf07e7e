"""Request-level host interface (paper Fig. 1 and Sec. IV.A).

From the software's point of view, the NTT function is invoked as a
*memory write request* whose "write data" carries the NTT parameters
(N, q, omega, base address); the input polynomial is already in memory.
The memory controller expands the request into DRAM commands, and a
write *response* signals completion.

This module models that protocol: plain reads/writes move data in and
out of the bank (through untimed host access, standing in for ordinary
DRAM traffic), and :class:`PimMemoryController` serves NTT_INVOKE
requests through the :class:`repro.api.Simulator` facade — or, when
constructed with a :class:`repro.serve.SimServer`, through the serving
layer's full queue → scheduler → shard path, so host-protocol traffic
shares admission control, telemetry and the batching machinery with
every other client of the server.  Both routes produce bit-identical
data results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import List, Optional

from ..arith.bitrev import bit_reverse_permute
from ..arith.roots import NttParams
from ..errors import MappingError
from .driver import SimConfig
from .results import NttRunResult

__all__ = ["RequestType", "MemoryRequest", "MemoryResponse",
           "PimMemoryController"]


class RequestType(enum.Enum):
    READ = "R"
    WRITE = "W"
    NTT_INVOKE = "NTT"


@dataclass
class MemoryRequest:
    """One entry of the host's request stream.

    READ:        address (word index), length
    WRITE:       address, data (list of words)
    NTT_INVOKE:  address, ntt_params — the 'write request carrying
                 parameters as write data'.
    """

    rtype: RequestType
    address: int = 0
    length: int = 0
    data: Optional[List[int]] = None
    ntt_params: Optional[NttParams] = None
    pre_bit_reversed: bool = False  # has the host already permuted?


@dataclass
class MemoryResponse:
    """Completion record returned per request."""

    ok: bool
    data: List[int] = field(default_factory=list)
    run: Optional[NttRunResult] = None
    detail: str = ""


class PimMemoryController:
    """Serves host requests against one simulated PIM bank.

    Data written via WRITE persists across requests (it is "already in
    the memory" when the NTT arrives); NTT_INVOKE overwrites it with the
    transform result, as the paper's host protocol specifies.

    ``server`` optionally routes NTT invocations through a
    :class:`repro.serve.SimServer` (queue, batching scheduler, shards,
    telemetry) instead of a direct facade call; the data result is
    bit-identical either way.  The per-request :class:`SimConfig`
    (base row from the request address) rides along as the serve
    layer's config override.
    """

    def __init__(self, config: SimConfig | None = None, server=None):
        self.config = config or SimConfig()
        #: Optional :class:`repro.serve.SimServer` the NTT path uses.
        self.server = server
        self._words_per_row = self.config.arch.words_per_row
        # Host-visible backing store (word address space of one bank).
        self._memory = {}
        self.completed: List[MemoryResponse] = []

    # -- plain traffic -------------------------------------------------------
    def _write_words(self, address: int, data: List[int]) -> None:
        for offset, word in enumerate(data):
            self._memory[address + offset] = word

    def _read_words(self, address: int, length: int) -> List[int]:
        return [self._memory.get(address + i, 0) for i in range(length)]

    # -- request service --------------------------------------------------------
    def submit(self, request: MemoryRequest) -> MemoryResponse:
        """Serve one request synchronously and record the response."""
        if request.rtype is RequestType.WRITE:
            if request.data is None:
                response = MemoryResponse(ok=False, detail="WRITE without data")
            else:
                self._write_words(request.address, request.data)
                response = MemoryResponse(ok=True)
        elif request.rtype is RequestType.READ:
            response = MemoryResponse(
                ok=True, data=self._read_words(request.address, request.length))
        elif request.rtype is RequestType.NTT_INVOKE:
            response = self._serve_ntt(request)
        else:  # pragma: no cover - enum exhaustive
            response = MemoryResponse(ok=False, detail="unknown request")
        self.completed.append(response)
        return response

    def _serve_ntt(self, request: MemoryRequest) -> MemoryResponse:
        params = request.ntt_params
        if params is None:
            return MemoryResponse(ok=False, detail="NTT without parameters")
        if request.address % self._words_per_row != 0:
            return MemoryResponse(
                ok=False, detail="NTT base address must be row-aligned")
        base_row = request.address // self._words_per_row
        values = self._read_words(request.address, params.n)
        if request.pre_bit_reversed:
            # The stored data is the bit-reversed image; recover natural
            # order for the driver's host-side step (an involution).
            values = bit_reverse_permute(values)
        # Imported here, not at module top: repro.sim is an engine-room
        # package of the facade and the serving layer, so the dependency
        # must stay one-way at import time (repro.api/repro.serve ->
        # repro.sim).
        from ..api import NttRequest, Simulator

        config = replace(self.config, base_row=base_row)
        ntt_request = NttRequest(params=params, values=tuple(values))
        try:
            if self.server is not None:
                response = self.server.call(ntt_request, config=config)
            else:
                response = Simulator(config).run(ntt_request)
        except MappingError as exc:
            return MemoryResponse(ok=False, detail=str(exc))
        run = response.raw
        if run.output:
            self._write_words(request.address, run.output)
        return MemoryResponse(ok=True, data=run.output, run=run)
