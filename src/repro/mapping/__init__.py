"""NTT-to-PIM mapping: regimes, twiddle parameters, command generation."""

from .analysis import (
    MappingForecast,
    forecast_multi_buffer,
    forecast_single_buffer,
)
from .mapper import MapperOptions, NegacyclicNttMapper, NttMapper
from .program_cache import (
    CachedProgram,
    clear_program_cache,
    cyclic_program,
    negacyclic_program,
    program_cache_info,
)
from .regimes import Regime, RegimeProfile, profile_regimes, regime_of_stage
from .single_buffer import SingleBufferMapper
from .twiddle_params import c1_root, c2_twiddles

__all__ = [
    "MappingForecast",
    "forecast_multi_buffer",
    "forecast_single_buffer",
    "MapperOptions",
    "NttMapper",
    "NegacyclicNttMapper",
    "Regime",
    "RegimeProfile",
    "profile_regimes",
    "regime_of_stage",
    "SingleBufferMapper",
    "CachedProgram",
    "clear_program_cache",
    "cyclic_program",
    "negacyclic_program",
    "program_cache_info",
    "c1_root",
    "c2_twiddles",
]
