"""Built-in workload handlers of the :mod:`repro.api` facade.

Each handler lowers one request type onto the engine-room modules
(:mod:`repro.sim.driver`, :mod:`repro.sim.batch`,
:mod:`repro.sim.multibank`, :mod:`repro.fhe.ops`) and wraps the outcome
in the uniform :class:`~repro.api.response.SimResponse` envelope.  The
handlers are registered under the names ``ntt``, ``negacyclic``,
``batch``, ``multibank``, ``fhe`` and ``program`` — the same names the
CLI's generic ``run <workload>`` subcommand accepts.
"""

from __future__ import annotations

from typing import List, Optional

from ..dram.engine import ScheduleResult
from ..dram.stream import cached_stream
from ..sim.batch import BatchResult, _run_batch
from ..sim.driver import SimConfig, TransformSpec, _run_transform, \
    cached_schedule
from ..sim.multibank import MultiBankResult, _run_multibank
from ..sim.results import NttRunResult
from .registry import register_workload
from .requests import (
    BatchRequest,
    FheOpRequest,
    KyberKemRequest,
    MultiBankRequest,
    ProgramRequest,
)
from .response import SimResponse

__all__ = ["response_from_run", "response_from_schedule", "transform_spec",
           "multibank_specs"]


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


def multibank_specs(request: "MultiBankRequest") -> List[TransformSpec]:
    """The per-bank :class:`TransformSpec` list of a multi-bank request
    (mixed-kind requests map one ``specs`` entry per bank)."""
    return [transform_spec(spec) for spec in request.bank_specs()]


def _counters(schedule: ScheduleResult, bu_ops: int = 0) -> dict:
    counters = dict(schedule.stats.command_counts)
    if bu_ops:
        counters["bu_ops"] = bu_ops
    return counters


def response_from_run(workload: str, run: NttRunResult) -> SimResponse:
    """Envelope one driver-level :class:`NttRunResult`."""
    return SimResponse(
        workload=workload,
        values=list(run.output),
        cycles=run.cycles,
        latency_us=run.latency_us,
        energy_nj=run.energy_nj,
        verified=run.verified,
        command_count=run.command_count,
        counters=_counters(run.schedule, run.bu_ops),
        raw=run,
    )


def response_from_schedule(workload: str, schedule: ScheduleResult,
                           raw=None) -> SimResponse:
    """Envelope a bare :class:`ScheduleResult` (timing-only workloads)."""
    return SimResponse(
        workload=workload,
        cycles=schedule.total_cycles,
        latency_us=schedule.latency_us,
        energy_nj=schedule.energy_nj,
        command_count=len(schedule.timings),
        counters=_counters(schedule),
        raw=raw if raw is not None else schedule,
    )


def _values_or_zeros(values: Optional[tuple], n: int) -> List[int]:
    return list(values) if values is not None else [0] * n


@register_workload("negacyclic")
@register_workload("ntt")
def run_transform_workload(config: SimConfig, request) -> SimResponse:
    """One transform on one bank: the cyclic (I)NTT (Sec. IV.A
    protocol, the Fig. 7/8 run shape) or the native merged negacyclic
    transform (C1N mapping extension)."""
    spec = transform_spec(request)
    run = _run_transform(spec, _values_or_zeros(request.values, spec.n),
                         config)
    return response_from_run(request.workload, run)


@register_workload("batch")
def run_batch_workload(config: SimConfig,
                       request: BatchRequest) -> SimResponse:
    """Back-to-back NTTs in one bank (Sec. VI.A batching)."""
    result: BatchResult = _run_batch(
        [list(row) for row in request.inputs], request.params, config)
    response = response_from_schedule("batch", result.schedule, raw=result)
    if result.bu_ops:
        response.counters["bu_ops"] = result.bu_ops
    response.outputs = [list(out) for out in result.outputs]
    if response.outputs:
        response.values = list(response.outputs[0])
    response.verified = result.verified
    response.metrics = {
        "count": result.count,
        "single_cycles": result.single_cycles,
        "cycles_per_transform": result.cycles_per_transform,
        "amortization": result.amortization,
    }
    return response


@register_workload("multibank")
def run_multibank_workload(config: SimConfig,
                           request: MultiBankRequest) -> SimResponse:
    """One transform per bank on the shared bus (Sec. VI.A /
    Conclusion); cyclic forward/inverse or merged negacyclic."""
    result: MultiBankResult = _run_multibank(
        [list(row) for row in request.inputs], multibank_specs(request),
        config)
    response = response_from_schedule("multibank", result.schedule, raw=result)
    if result.bu_ops:
        response.counters["bu_ops"] = result.bu_ops
    response.outputs = [list(out) for out in result.outputs]
    if response.outputs:
        response.values = list(response.outputs[0])
    response.verified = result.verified
    response.metrics = {
        "banks": result.banks,
        "single_bank_cycles": result.single_bank_cycles,
        "speedup": result.speedup,
        "efficiency": result.efficiency,
    }
    return response


@register_workload("fhe")
def run_fhe_workload(config: SimConfig, request: FheOpRequest) -> SimResponse:
    """Negacyclic ring op with every NTT on the PIM (Sec. I motivation)."""
    # Imported lazily: repro.fhe sits above the facade's engine-room
    # imports, and only this handler needs it.
    from ..fhe.ops import PimFheAccelerator

    acc = PimFheAccelerator(request.ring, config, native=request.native)
    a = list(request.a)
    verified = False
    if request.op == "multiply":
        out = acc.multiply(a, list(request.b))
        if config.functional and config.verify:
            from ..arith.modmath import mod_mul_vec
            from ..ntt.negacyclic import negacyclic_intt, negacyclic_ntt
            fa = negacyclic_ntt(a, request.ring)
            fb = negacyclic_ntt(list(request.b), request.ring)
            expected = negacyclic_intt(mod_mul_vec(fa, fb, request.ring.q),
                                       request.ring)
            if out != expected:
                from ..errors import FunctionalMismatch
                raise FunctionalMismatch(
                    f"FHE ring product wrong for N={request.ring.n}")
            verified = True
    else:
        out = acc.forward(a) if request.op == "forward" else acc.inverse(a)
        verified = config.functional and config.verify
    stats = acc.stats
    return SimResponse(
        workload="fhe",
        values=list(out),
        cycles=stats.total_cycles,
        latency_us=stats.total_latency_us,
        energy_nj=stats.total_energy_nj,
        verified=verified,
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
    inverse side one of the ``depth`` product sub-rows.
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
    a, b = list(request.a), list(request.b)
    a_hat = incomplete_ntt(a, params)
    b_hat = incomplete_ntt(b, params)
    prod_hat = incomplete_basemul(a_hat, b_hat, params)
    product = incomplete_intt(prod_hat, params)
    verified = False
    if config.functional and config.verify:
        from ..errors import FunctionalMismatch
        from ..ntt import naive_negacyclic_convolution
        if product != naive_negacyclic_convolution(a, b, request.q):
            raise FunctionalMismatch(
                f"incomplete-NTT ring product wrong for N={request.n}, "
                f"q={request.q}, depth={request.depth}")
        verified = True
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
        verified=verified,
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
    """Raw command-window run (the Fig. 5/6 micro-studies).

    Timing always; with ``request.functional=True`` (and the config's
    ``functional`` switch on) the program also executes on the bank
    model and the ``read_rows`` window comes back in ``values``.
    """
    schedule = cached_schedule(request.commands, config.timing, config.arch,
                               config.pim.compute_timing(), config.energy)
    response = response_from_schedule("program", schedule)
    if request.functional and config.functional:
        # Lazy import for the same one-way reason as the FHE handler.
        from ..pim.bank_pim import PimBank

        bank = PimBank(config.arch, config.pim)
        if request.modulus is not None:
            bank.set_parameters(request.modulus)
        for base_row, words in request.memory:
            bank.load_polynomial(base_row, list(words))
        bank.run_stream(cached_stream(request.commands, config.arch))
        if request.read_rows is not None:
            base, length = request.read_rows
            response.values = bank.read_polynomial(base, length)
        if bank.cu.bu_ops:
            response.counters["bu_ops"] = bank.cu.bu_ops
    if request.label:
        response.metrics["label"] = request.label
    return response
