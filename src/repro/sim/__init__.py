"""Simulation front end: one ``banks x slots`` dispatch path (a lone
transform, a one-bank batch, a multi-bank dispatch), its result, the
per-command merge references and traces."""

from .batch import concat_programs
from .driver import (
    SimConfig,
    TransformSpec,
    cached_schedule,
    clear_dispatch_cache,
    clear_schedule_cache,
    compile_dispatch,
    dispatch_cache_info,
    dispatch_recipe,
    schedule_cache_info,
)
from .multibank import interleave_programs
from .results import DispatchResult
from .trace import format_trace, trace_summary

__all__ = [
    "concat_programs",
    "SimConfig",
    "cached_schedule",
    "clear_dispatch_cache",
    "clear_schedule_cache",
    "compile_dispatch",
    "dispatch_cache_info",
    "dispatch_recipe",
    "schedule_cache_info",
    "TransformSpec",
    "interleave_programs",
    "DispatchResult",
    "format_trace",
    "trace_summary",
]
