"""The public compile surface: facade request -> compiled program.

:func:`compile_request` runs *only* the deterministic compile side of a
facade request — command-program mapping, the IR pass pipeline, stream
lowering — and hands back a :class:`CompiledProgram` bundling the
:class:`~repro.compile.ir.StreamIR`, the pass statistics and the
executable :class:`~repro.dram.stream.CommandStream`.  No functional or
timing state is touched.

Callers who previously reached into ``repro.dram.stream`` for
``cached_stream`` should come through here (or through
``repro.api.Simulator``): the request objects carry the workload shape,
and ``passes`` selects the optimization pipeline without touching
engine-room modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CompiledProgram", "compile_request"]


@dataclass
class CompiledProgram:
    """One compiled facade request.

    ``stream`` is the merged, executable program (for batch/multi-bank
    requests: the bus-interleaved or concatenated stream the timing
    engine runs); ``parts`` holds the per-bank / per-polynomial source
    programs when the request merged several (empty for single-program
    requests).  ``key`` is the structural cache key the stream is
    memoized under.
    """

    request: object
    stream: object
    key: object = None
    parts: Tuple = ()
    passes: Tuple[str, ...] = ()

    @property
    def ir(self):
        """The :class:`~repro.compile.ir.StreamIR` behind the stream."""
        return self.stream.ir

    @property
    def pass_stats(self) -> dict:
        """Pass-pipeline statistics (mode, group/op counts, timings)."""
        return self.stream.pass_stats

    @property
    def fused(self) -> bool:
        """Whether the stream carries a fused functional plan."""
        return self.stream.plan is not None

    def describe(self) -> str:
        """Human-readable dump (the ``repro compile`` CLI body)."""
        lines = [self.ir.describe()]
        lines.append(f"passes: {', '.join(self.passes) or '(none)'}")
        if self.fused:
            stats = self.pass_stats
            lines.append(
                f"plan: mode={stats.get('mode')} ops={len(self.stream.plan.ops)} "
                f"groups={stats.get('groups')} depth={stats.get('depth')} "
                f"virtual={stats.get('n_virtual')}")
        else:
            lines.append(f"fallback: {self.stream.fallback_reason}")
        for tag in ("plan_ms", "lower_ms"):
            if tag in self.pass_stats:
                lines.append(f"{tag}: {self.pass_stats[tag]:.3f}")
        return "\n".join(lines)


def compile_request(request, config=None, *, passes=None) -> CompiledProgram:
    """Compile a facade request into its executable stream.

    ``request`` is any stream-backed :class:`~repro.api.requests.SimRequest`
    (``ntt``, ``negacyclic``, ``batch``, ``multibank``, ``program``);
    ``config`` defaults to ``SimConfig()``.  ``passes`` selects the
    optimization passes (``None`` = all; see :data:`PASS_NAMES`) —
    every subset executes bit-identically.

    All compile artifacts land in the shared program/stream caches, so
    a subsequent ``Simulator.run`` of the same request is a cache hit.
    """
    # Engine-room imports stay lazy: this module is part of the public
    # repro.compile package, which repro.dram.stream imports from.
    from ..api.requests import (
        BatchRequest,
        MultiBankRequest,
        NegacyclicRequest,
        NttRequest,
        ProgramRequest,
    )
    from ..dram.stream import cached_stream
    from ..errors import RequestValidationError
    from ..sim.driver import SimConfig
    from .passes import normalize_passes

    if config is None:
        config = SimConfig()
    request.validate()
    pass_tag = tuple(sorted(normalize_passes(passes)))

    if type(request) in (NttRequest, NegacyclicRequest):
        from ..api.workloads import transform_spec
        program, stream = transform_spec(request).compile(config,
                                                          passes=pass_tag)
        return CompiledProgram(request, stream, key=program.key,
                               passes=pass_tag)
    if type(request) is MultiBankRequest:
        from ..api.workloads import multibank_specs
        from ..sim.multibank import compile_multibank
        programs, stream, key = compile_multibank(
            multibank_specs(request), len(request.inputs), config,
            passes=pass_tag)
        return CompiledProgram(request, stream, key=key,
                               parts=tuple(programs), passes=pass_tag)
    if type(request) is BatchRequest:
        from ..sim.batch import compile_batch
        programs, stream, key, _ = compile_batch(
            request.params, len(request.inputs), config, passes=pass_tag)
        return CompiledProgram(request, stream, key=key,
                               parts=tuple(programs), passes=pass_tag)
    if type(request) is ProgramRequest:
        stream = cached_stream(request.commands, config.arch,
                               passes=pass_tag)
        return CompiledProgram(request, stream, passes=pass_tag)
    raise RequestValidationError(
        f"{type(request).__name__} has no stream to compile "
        "(supported: ntt, negacyclic, batch, multibank, program)")
