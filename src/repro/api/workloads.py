"""Built-in workload handlers of the :mod:`repro.api` facade.

Each handler lowers one request type onto the engine-room modules
(:mod:`repro.sim.driver`, :mod:`repro.fhe.ops`) and wraps the outcome
in the uniform :class:`~repro.api.response.SimResponse` envelope.  The
four transform request kinds share one handler: each is one dispatch
of ``banks x slots`` transforms (:func:`dispatch_of`).  The handlers
are registered under the names ``ntt``, ``negacyclic``, ``batch``,
``multibank``, ``fhe`` and ``program`` — the same names the CLI's
generic ``run <workload>`` subcommand accepts.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..arith.vector import is_array
from ..dram.engine import ScheduleResult
from ..sim.driver import BankStacks, SimConfig, TransformSpec, \
    cached_schedule, lookup_dispatch
from .registry import register_workload
from .requests import (
    BatchRequest,
    FheOpRequest,
    KyberKemRequest,
    MultiBankRequest,
    ProgramRequest,
)
from .response import SimResponse

__all__ = ["dispatch_of", "response_from_schedule", "transform_spec"]


def transform_spec(request) -> TransformSpec:
    """The engine-room :class:`TransformSpec` of one transform — an
    :class:`NttRequest`, a :class:`NegacyclicRequest` or one bank of a
    :class:`MultiBankRequest` — the one place a request's kind fields
    lower into the engine room."""
    ring = getattr(request, "ring", None)
    if ring is not None:
        return TransformSpec(kind="negacyclic", inverse=request.inverse,
                             ring=ring)
    return TransformSpec(kind="ntt", inverse=request.inverse,
                         params=request.params)


def dispatch_of(request) -> Tuple[List[TransformSpec], list]:
    """The ``banks x slots`` dispatch of a transform request: one spec
    per bank and the natural-order inputs ``[bank][slot]``.  A lone
    :class:`NttRequest` or :class:`NegacyclicRequest` is 1x1
    (``values=None`` runs on zeros), a :class:`BatchRequest` 1xk and a
    :class:`MultiBankRequest` kx1.  A homogeneous multi-bank request
    (no ``specs``) lowers to one spec object that every bank shares;
    one that lists a :class:`BankSpec` per bank lowers each of them."""
    if type(request) is BatchRequest:
        return [TransformSpec(params=request.params)], [request.inputs]
    if type(request) is MultiBankRequest:
        rows = [[row] for row in request.inputs]
        if request.specs is None:
            return [transform_spec(request)] * len(rows), rows
        return [transform_spec(spec) for spec in request.specs], rows
    spec = transform_spec(request)
    values = request.values if request.values is not None else (0,) * spec.n
    return [spec], [[values]]


def _ints(operand) -> List[int]:
    """A coefficient operand as a list of Python ints: ``.tolist()`` of
    an array (``list()`` would give NumPy scalars, which wrap at
    ``2**64``), else ``list()``."""
    return operand.tolist() if is_array(operand) else list(operand)


def response_from_schedule(workload: str, schedule: ScheduleResult,
                           raw=None) -> SimResponse:
    """Envelope a bare :class:`ScheduleResult` (timing-only workloads)."""
    return SimResponse(
        workload=workload,
        cycles=schedule.total_cycles,
        latency_us=schedule.latency_us,
        energy_nj=schedule.energy_nj,
        command_count=len(schedule.issues),
        counters=dict(schedule.stats.command_counts),
        raw=raw if raw is not None else schedule,
    )


@register_workload("multibank")
@register_workload("batch")
@register_workload("negacyclic")
@register_workload("ntt")
def run_transform_workload(config: SimConfig, request,
                           stacks: Optional[BankStacks] = None
                           ) -> SimResponse:
    """One dispatch of transforms (Sec. VI.A): a lone cyclic (I)NTT
    (Sec. IV.A protocol, the Fig. 7/8 run shape) or native merged
    negacyclic transform (C1N mapping extension), back-to-back NTTs in
    one bank (``batch``), or one transform per bank on the shared bus
    (``multibank``).  Its banks join the stacks of ``stacks`` when the
    request was announced there (the facade passes its own), else they
    run alone."""
    specs, inputs = dispatch_of(request)
    result = (BankStacks() if stacks is None else stacks).run(
        request, lookup_dispatch(inputs, specs, config), config)
    response = response_from_schedule(request.workload, result.schedule,
                                      raw=result)
    if result.bu_ops:
        response.counters["bu_ops"] = result.bu_ops
    response.verified = result.verified
    # The response shares the dispatch's output lists, read-only.
    if result.outputs:
        response.values = result.outputs[0]
    if type(request) is BatchRequest:
        response.outputs = result.outputs
        per_transform = result.cycles / result.slots
        response.metrics = {
            "count": result.slots,
            "single_cycles": result.single_cycles,
            "cycles_per_transform": per_transform,
            "amortization": result.single_cycles / per_transform,
        }
    elif type(request) is MultiBankRequest:
        response.outputs = result.outputs
        speedup = result.banks * result.single_cycles / result.cycles
        response.metrics = {
            "banks": result.banks,
            "single_bank_cycles": result.single_cycles,
            "speedup": speedup,
            "efficiency": speedup / result.banks,
        }
    return response


@register_workload("fhe")
def run_fhe_workload(config: SimConfig, request: FheOpRequest) -> SimResponse:
    """Negacyclic ring op with every NTT on the PIM (Sec. I motivation)."""
    # Imported lazily: repro.fhe sits above the facade's engine-room
    # imports, and only this handler needs it.
    from ..fhe.ops import PimFheAccelerator

    acc = PimFheAccelerator(request.ring, config, native=request.native)
    a = _ints(request.a)
    if request.op == "multiply":
        out = acc.multiply(a, _ints(request.b))
    else:
        out = acc.forward(a) if request.op == "forward" else acc.inverse(a)
    stats = acc.stats
    return SimResponse(
        workload="fhe",
        values=list(out),
        cycles=stats.total_cycles,
        latency_us=stats.total_latency_us,
        energy_nj=stats.total_energy_nj,
        verified=stats.verified_transforms == stats.transforms,
        command_count=stats.total_commands,
        counters={"ACT": stats.total_activations},
        metrics={"transforms": stats.transforms,
                 "per_transform_us": (stats.total_latency_us
                                      / max(stats.transforms, 1))},
        raw=stats,
    )


@register_workload("kyber_kem")
def run_kyber_kem_workload(config: SimConfig,
                           request: KyberKemRequest) -> SimResponse:
    """Kyber-style ring product via the incomplete NTT (the
    ``examples/kyber_like.py`` pipeline as a served workload).

    Function is exact host math: truncated forward transforms of both
    operands, slot-wise base multiplication, truncated inverse.  PIM
    timing prices the equivalent transform work — at (n, depth) the
    truncated transform executes exactly the butterflies of ``depth``
    cyclic NTTs of size ``n/depth``, so the forward side runs one
    multi-bank dispatch of the ``2*depth`` operand sub-rows and the
    inverse side one of the ``depth`` product sub-rows.  ``verified``
    is those dispatches' online check.
    """
    # Lazy imports, same one-way layering reason as the FHE handler.
    from ..arith.roots import NttParams
    from ..ntt.incomplete import (
        IncompleteNttParams,
        incomplete_basemul,
        incomplete_intt,
        incomplete_ntt,
    )
    from .simulator import Simulator

    params = IncompleteNttParams(request.n, request.q, request.depth)
    a, b = _ints(request.a), _ints(request.b)
    a_hat = incomplete_ntt(a, params)
    b_hat = incomplete_ntt(b, params)
    prod_hat = incomplete_basemul(a_hat, b_hat, params)
    product = incomplete_intt(prod_hat, params)
    m = request.n // request.depth
    sub = NttParams(m, request.q)

    def rows(vec):
        return tuple(tuple(vec[i * m:(i + 1) * m])
                     for i in range(request.depth))

    sim = Simulator(config)
    forward = sim.run(MultiBankRequest(params=sub, inputs=rows(a) + rows(b)))
    inverse = sim.run(MultiBankRequest(params=sub, inputs=rows(prod_hat),
                                       inverse=True))
    counters = dict(forward.counters)
    for key, value in inverse.counters.items():
        counters[key] = counters.get(key, 0) + value
    return SimResponse(
        workload="kyber_kem",
        values=product,
        cycles=forward.cycles + inverse.cycles,
        latency_us=forward.latency_us + inverse.latency_us,
        energy_nj=forward.energy_nj + inverse.energy_nj,
        verified=forward.verified and inverse.verified,
        command_count=forward.command_count + inverse.command_count,
        counters=counters,
        metrics={"slots": request.n // request.depth,
                 "sub_transforms": 3 * request.depth,
                 "sub_n": m},
        raw={"forward": forward, "inverse": inverse},
    )


@register_workload("program")
def run_program_workload(config: SimConfig,
                         request: ProgramRequest) -> SimResponse:
    """Raw command-window run (the Fig. 5/6 micro-studies): the timing
    replay of the program's IR columns, which compiles nothing.  A
    window returns no values, so every functional response the facade
    returns comes from a verified transform."""
    schedule = cached_schedule(request.commands, config.timing,
                               config.arch, config.energy)
    response = response_from_schedule("program", schedule)
    if request.label:
        response.metrics["label"] = request.label
    return response
