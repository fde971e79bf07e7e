"""DRAM substrate: geometry/timing parameters, storage, timing engine,
energy accounting."""

from .bank import BankStorage
from .commands import Command, CommandType
from .energy import EnergyParams, HBM2E_ENERGY
from .engine import CommandTiming, ComputeTiming, ScheduleResult, TimingEngine
from .refresh import RefreshOverhead, RefreshParams, refresh_overhead
from .stats import SimStats
from .stream import (
    CommandStream,
    FunctionalPlan,
    cached_stream,
    clear_stream_cache,
    compile_stream,
    stream_cache_info,
)
from .timing import HBM2E_ARCH, HBM2E_TIMING, ArchParams, TimingParams

__all__ = [
    "BankStorage",
    "Command",
    "CommandType",
    "EnergyParams",
    "HBM2E_ENERGY",
    "CommandTiming",
    "ComputeTiming",
    "ScheduleResult",
    "TimingEngine",
    "RefreshOverhead",
    "RefreshParams",
    "refresh_overhead",
    "SimStats",
    "CommandStream",
    "FunctionalPlan",
    "cached_stream",
    "clear_stream_cache",
    "compile_stream",
    "stream_cache_info",
    "HBM2E_ARCH",
    "HBM2E_TIMING",
    "ArchParams",
    "TimingParams",
]
