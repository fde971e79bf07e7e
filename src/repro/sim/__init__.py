"""Simulation front end: the single-bank driver, results, host protocol,
traces, bank-level parallelism."""

from .batch import BatchResult, compile_batch, concat_programs
from .driver import (
    SimConfig,
    TransformSpec,
    cached_schedule,
    clear_schedule_cache,
    schedule_cache_info,
)
from .host import MemoryRequest, MemoryResponse, PimMemoryController, RequestType
from .multibank import MultiBankResult, compile_multibank, interleave_programs
from .results import NttRunResult
from .trace import format_trace, parse_trace_line, trace_summary

__all__ = [
    "BatchResult",
    "compile_batch",
    "concat_programs",
    "SimConfig",
    "cached_schedule",
    "clear_schedule_cache",
    "schedule_cache_info",
    "MemoryRequest",
    "MemoryResponse",
    "PimMemoryController",
    "RequestType",
    "MultiBankResult",
    "TransformSpec",
    "compile_multibank",
    "interleave_programs",
    "NttRunResult",
    "format_trace",
    "parse_trace_line",
    "trace_summary",
]
