"""Unified simulation facade — the library's public API spine.

One entry point for every run shape of the paper's evaluation::

    from repro.api import NttRequest, Simulator
    from repro import NttParams, SimConfig, find_ntt_prime

    sim = Simulator(SimConfig())
    q = find_ntt_prime(1024, 32)
    response = sim.run(NttRequest(params=NttParams(1024, q), values=data))

* typed, frozen requests (:mod:`repro.api.requests`) map one-to-one to
  the paper sections they reproduce;
* every request returns the same :class:`SimResponse` envelope
  (:mod:`repro.api.response`): values, cycles, energy, µ-op counters,
  cache provenance and wall-clock metadata;
* a string-keyed workload registry (:mod:`repro.api.registry`) lets
  third-party scenarios plug in without touching core code;
* :meth:`Simulator.run_many` validates a bulk request list, then
  groups its same-shape transforms across banks automatically;
* :func:`repro.compile.compile_request` (re-exported here) runs just
  the deterministic compile side of a request — mapping, IR passes,
  stream lowering — returning a
  :class:`~repro.compile.api.CompiledProgram`.
"""

from ..compile.api import CompiledProgram, compile_request

from .registry import (
    UnknownWorkloadError,
    get_workload,
    register_workload,
    unregister_workload,
    workload_names,
)
from .requests import (
    BankSpec,
    BatchRequest,
    FheOpRequest,
    KyberKemRequest,
    MultiBankRequest,
    NegacyclicRequest,
    NttRequest,
    ProgramRequest,
    SimRequest,
)
from .response import SimResponse
from .simulator import Simulator, merge_key

# Importing the handlers registers the built-in workloads.
from . import workloads as _workloads  # noqa: F401  (registration side effect)
from .dag import DagEdge, DagRequest  # noqa: E402  (also registers "dag")

__all__ = [
    "UnknownWorkloadError",
    "get_workload",
    "register_workload",
    "unregister_workload",
    "workload_names",
    "SimRequest",
    "NttRequest",
    "NegacyclicRequest",
    "BatchRequest",
    "BankSpec",
    "MultiBankRequest",
    "FheOpRequest",
    "ProgramRequest",
    "KyberKemRequest",
    "DagEdge",
    "DagRequest",
    "SimResponse",
    "Simulator",
    "merge_key",
    "CompiledProgram",
    "compile_request",
]
