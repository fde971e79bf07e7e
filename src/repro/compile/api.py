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
so no engine-room module needs touching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CompiledProgram", "compile_request"]


@dataclass
class CompiledProgram:
    """One compiled facade request.

    ``stream`` is the merged program compiled (for batch/multi-bank
    requests: the concatenated or bus-interleaved program whose IR the
    timing engine replays); ``parts`` holds a transform request's
    source programs, bank-major (one for a lone transform; empty for
    raw program requests).  ``key`` is the structural key of the merged
    program: the stream cache's key for a one-bank stream, the schedule
    cache's for any.
    """

    request: object
    stream: object
    key: object = None
    parts: Tuple = ()

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
        if self.fused:
            stats = self.pass_stats
            lines.append(
                f"plan: mode={stats.get('mode')} ops={len(self.stream.plan.ops)} "
                f"groups={stats.get('groups')} depth={stats.get('depth')} "
                f"virtual={stats.get('n_virtual')}"
                + (f" slots={stats['slots']}" if "slots" in stats else ""))
        else:
            lines.append(f"fallback: {self.stream.fallback_reason}")
        if "plan_ms" in self.pass_stats:
            lines.append(f"plan_ms: {self.pass_stats['plan_ms']:.3f}")
        return "\n".join(lines)


def compile_request(request, config=None) -> CompiledProgram:
    """Compile a facade request into its executable stream.

    ``request`` is any stream-backed :class:`~repro.api.requests.SimRequest`
    (``ntt``, ``negacyclic``, ``batch``, ``multibank``, ``program``);
    ``config`` defaults to ``SimConfig()``.

    The programs land in the shared program cache, and a one-bank
    stream (a lone transform, a batch, a program request) in the stream
    cache, so a later functional ``Simulator.run`` of the same request
    finds them there.  A multi-bank stream spans its banks and has no
    plan: it compiles here for inspection and is kept nowhere (its
    banks run their own one-bank streams, and its timing replays the
    merged IR, which the simulator builds from the recipe).
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

    if config is None:
        config = SimConfig()
    request.validate()

    if type(request) in (NttRequest, NegacyclicRequest, BatchRequest,
                         MultiBankRequest):
        from ..api.workloads import dispatch_of
        from ..sim.driver import compile_dispatch
        specs, inputs = dispatch_of(request)
        programs, stream, key = compile_dispatch(specs, len(inputs[0]),
                                                 config)
        return CompiledProgram(request, stream, key=key,
                               parts=tuple(p for row in programs for p in row))
    if type(request) is ProgramRequest:
        return CompiledProgram(request,
                               cached_stream(request.commands, config.arch))
    raise RequestValidationError(
        f"{type(request).__name__} has no stream to compile "
        "(supported: ntt, negacyclic, batch, multibank, program)")
