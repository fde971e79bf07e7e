"""Synthetic open-loop load generation for serving experiments.

Arrivals are open-loop Poisson (exponential inter-arrival gaps from a
seeded RNG — clients do not wait for responses, so the server sees the
offered rate whether or not it keeps up), over named *scenario mixes*
of request shapes:

* ``uniform``  — equal thirds of N=256/512/1024 forward NTTs: shape
  diversity, exercises sharding.
* ``skewed``   — 90% one hot shape (N=512), 10% N=256: the
  batching-friendly traffic an FHE service actually sees (every limb of
  every ciphertext shares one ring), and the benchmark's headline mix.
* ``fhe``      — forward NTTs mixed with native negacyclic transforms
  and full FHE ring multiplies: batchable and unbatchable work
  interleaved, the worst case for a batching window.
* ``mixed``    — the full batchable transform zoo: forward and inverse
  cyclic NTTs plus forward and inverse negacyclic transforms, each
  kind coalescing into its own dispatch group (the generalized-
  batching scenario).
* ``chaos``    — the resilience drill: every transform kind plus
  unbatchable FHE ring multiplies, the traffic the fault-injection
  experiments (:mod:`repro.serve.faults`) run against.
* ``dag``      — dependent op-graphs (:class:`repro.api.DagRequest`):
  CKKS-style multiply chains and Kyber KEM batches from
  :mod:`repro.dag`, mixed with plain hot-shape NTTs — the traffic the
  dependency-aware scheduler exists for.
* ``pipeline`` — linear NTT pipelines over one hot ring mixed with
  single transforms of the same shape: every stage batchable, so
  concurrent graphs coalesce stage-by-stage.

Arrival rates can *step* over virtual time (``rate_profile``): a burst
or ramp overload — e.g. :meth:`LoadGenerator.burst_profile` — drives
queue depth, admission rejections and deadline expiries
deterministically.

Everything is deterministic given ``seed``: the same scenario, rate and
count replay the same requests with the same arrival times, priorities
and values — the closed-form property the serving experiments and CI
assertions rely on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..api.requests import FheOpRequest, NegacyclicRequest, NttRequest, SimRequest
from ..arith.primes import find_ntt_prime
from ..arith.roots import NttParams
from ..arith.vector import random_residues
from ..errors import ServeError
from ..ntt.negacyclic import NegacyclicParams
from .queueing import ServeRequest

__all__ = ["Scenario", "LoadGenerator", "SCENARIOS", "make_scenario"]


@lru_cache(maxsize=None)
def _ntt_params(n: int) -> NttParams:
    return NttParams(n, find_ntt_prime(n, 32))


@lru_cache(maxsize=None)
def _ring_params(n: int) -> NegacyclicParams:
    return NegacyclicParams(n, find_ntt_prime(n, 32, negacyclic=True))


def _ntt_maker(n: int,
               inverse: bool = False) -> Callable[[random.Random],
                                                  SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        params = _ntt_params(n)
        return NttRequest(params=params,
                          values=random_residues(rng, n, params.q),
                          inverse=inverse)
    return make


def _negacyclic_maker(n: int,
                      inverse: bool = False) -> Callable[[random.Random],
                                                         SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        ring = _ring_params(n)
        return NegacyclicRequest(ring=ring,
                                 values=random_residues(rng, n, ring.q),
                                 inverse=inverse)
    return make


def _fhe_maker(n: int) -> Callable[[random.Random], SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        ring = _ring_params(n)
        return FheOpRequest(ring=ring, op="multiply",
                            a=random_residues(rng, n, ring.q),
                            b=random_residues(rng, n, ring.q))
    return make


def _ckks_chain_maker(n: int, limbs: int,
                      depth: int) -> Callable[[random.Random], SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        from ..dag import ckks_mul_chain
        return ckks_mul_chain(n, limbs=limbs, depth=depth,
                              seed=rng.randrange(2 ** 31))
    return make


def _kem_batch_maker(count: int,
                     n: int) -> Callable[[random.Random], SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        from ..dag import kem_batch
        return kem_batch(count, n=n, seed=rng.randrange(2 ** 31))
    return make


def _pipeline_maker(n: int,
                    stages: int) -> Callable[[random.Random], SimRequest]:
    def make(rng: random.Random) -> SimRequest:
        from ..dag import ntt_pipeline
        return ntt_pipeline(n, stages=stages, seed=rng.randrange(2 ** 31))
    return make


@dataclass(frozen=True)
class Scenario:
    """A weighted mix of request factories."""

    name: str
    description: str
    #: ``(weight, factory)`` pairs; weights need not be normalized.
    mix: Tuple[Tuple[float, Callable[[random.Random], SimRequest]], ...]


SCENARIOS: Dict[str, Scenario] = {
    "uniform": Scenario(
        name="uniform",
        description="equal thirds of N=256/512/1024 forward NTTs",
        mix=((1.0, _ntt_maker(256)), (1.0, _ntt_maker(512)),
             (1.0, _ntt_maker(1024)))),
    "skewed": Scenario(
        name="skewed",
        description="90% N=512 forward NTTs, 10% N=256 (hot-shape FHE "
                    "traffic; the batching benchmark's mix)",
        mix=((9.0, _ntt_maker(512)), (1.0, _ntt_maker(256)))),
    "fhe": Scenario(
        name="fhe",
        description="60% N=512 forward NTTs, 25% native negacyclic "
                    "N=256, 15% full FHE ring multiplies N=256",
        mix=((6.0, _ntt_maker(512)), (2.5, _negacyclic_maker(256)),
             (1.5, _fhe_maker(256)))),
    "mixed": Scenario(
        name="mixed",
        description="every batchable transform kind at N=512: 40% "
                    "forward / 25% inverse cyclic NTTs, 20% forward / "
                    "15% inverse negacyclic transforms",
        mix=((4.0, _ntt_maker(512)), (2.5, _ntt_maker(512, inverse=True)),
             (2.0, _negacyclic_maker(512)),
             (1.5, _negacyclic_maker(512, inverse=True)))),
    "chaos": Scenario(
        name="chaos",
        description="the resilience drill: 30% N=512 / 15% N=256 forward "
                    "NTTs, 15% inverse N=512 NTTs, 15% forward / 10% "
                    "inverse negacyclic N=256, 15% FHE ring multiplies "
                    "N=256 (batchable and unbatchable work under fault "
                    "injection)",
        mix=((3.0, _ntt_maker(512)), (1.5, _ntt_maker(256)),
             (1.5, _ntt_maker(512, inverse=True)),
             (1.5, _negacyclic_maker(256)),
             (1.0, _negacyclic_maker(256, inverse=True)),
             (1.5, _fhe_maker(256)))),
    "dag": Scenario(
        name="dag",
        description="dependent op-graphs: 40% CKKS multiply chains "
                    "(N=256, 2 limbs x 2 levels), 20% Kyber KEM batches "
                    "of 3, 40% plain N=512 forward NTTs",
        mix=((4.0, _ckks_chain_maker(256, limbs=2, depth=2)),
             (2.0, _kem_batch_maker(3, 256)),
             (4.0, _ntt_maker(512)))),
    "pipeline": Scenario(
        name="pipeline",
        description="linear NTT pipelines over the hot N=512 ring: 50% "
                    "3-stage chains, 50% single forward NTTs of the "
                    "same shape (stage-by-stage cross-graph batching)",
        mix=((5.0, _pipeline_maker(512, stages=3)),
             (5.0, _ntt_maker(512)))),
}


def make_scenario(name: str) -> Scenario:
    """The named scenario; an unknown name raises a contextful
    :class:`~repro.errors.ServeError` listing every available one."""
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ServeError(f"unknown scenario {name!r}; "
                         f"available scenarios: {known}") from None


class LoadGenerator:
    """Deterministic open-loop Poisson arrival stream over a scenario.

    ``rate_rps`` is the offered rate in requests per *simulated* second;
    ``high_priority_fraction`` marks that share of requests priority 1
    (the rest 0); ``deadline_us`` optionally stamps every request with
    ``arrival + deadline_us``.

    ``rate_profile`` steps the offered rate over virtual time: sorted
    ``(start_us, rate_rps)`` pairs, each taking effect at its start
    time (``rate_rps`` applies before the first step).  A burst or
    ramp overload is just a profile — see :meth:`burst_profile`.

    ``tenants`` turns the stream multi-tenant: ``(name, weight)`` pairs
    draw each request's ``tenant`` field (the arrival *mix* of tenants
    — :meth:`noisy_neighbor` is the skewed preset the quota
    experiments run).  The draw uses its own RNG stream, so a seeded
    stream yields bit-identical arrivals, shapes and values with or
    without tenancy — tenancy only labels them.

    Coefficient operands are read-only uint64 arrays
    (:func:`~repro.arith.vector.random_residues`): exactly the values
    of a per-coefficient ``rng.randrange(q)`` loop, with the generator
    left in the same state, so the arrivals, priorities and tenants
    drawn after them match too.
    """

    def __init__(self, scenario: Scenario, *, rate_rps: float,
                 count: int, seed: int = 0,
                 high_priority_fraction: float = 0.0,
                 deadline_us: Optional[float] = None,
                 rate_profile: Optional[Tuple[Tuple[float, float], ...]]
                 = None,
                 tenants: Optional[Tuple[Tuple[str, float], ...]] = None):
        if rate_rps <= 0:
            raise ValueError("rate_rps must be > 0")
        if count < 1:
            raise ValueError("count must be >= 1")
        if not 0.0 <= high_priority_fraction <= 1.0:
            raise ValueError("high_priority_fraction must be in [0, 1]")
        if rate_profile is not None:
            steps = tuple(rate_profile)
            starts = [start for start, _ in steps]
            if starts != sorted(starts):
                raise ValueError("rate_profile steps must be sorted by "
                                 "start time")
            if any(rate <= 0 for _, rate in steps):
                raise ValueError("rate_profile rates must be > 0")
            rate_profile = steps
        if tenants is not None:
            tenants = tuple(tenants)
            if not tenants:
                raise ValueError("tenants must be non-empty when given")
            if any(weight <= 0 for _, weight in tenants):
                raise ValueError("tenant weights must be > 0")
        self.tenants = tenants
        self.scenario = scenario
        self.rate_rps = rate_rps
        self.count = count
        self.seed = seed
        self.high_priority_fraction = high_priority_fraction
        self.deadline_us = deadline_us
        self.rate_profile = rate_profile

    @staticmethod
    def noisy_neighbor(hog: str = "hog", neighbors: int = 3,
                       hog_share: float = 0.8
                       ) -> Tuple[Tuple[str, float], ...]:
        """The skewed tenant mix of the quota experiments: one ``hog``
        tenant offering ``hog_share`` of the traffic, the rest split
        evenly across ``neighbors`` well-behaved tenants — the classic
        noisy-neighbor shape per-tenant quotas exist to contain."""
        if not 0.0 < hog_share < 1.0:
            raise ValueError("hog_share must be in (0, 1)")
        if neighbors < 1:
            raise ValueError("neighbors must be >= 1")
        share = (1.0 - hog_share) / neighbors
        return ((hog, hog_share),) + tuple(
            (f"tenant-{chr(ord('a') + i)}", share)
            for i in range(neighbors))

    @staticmethod
    def burst_profile(base_rps: float, peak_rps: float, *,
                      start_us: float, duration_us: float
                      ) -> Tuple[Tuple[float, float], ...]:
        """A step overload: ``base_rps`` until ``start_us``, then
        ``peak_rps`` for ``duration_us``, then back — the arrival shape
        of the ``repro serve --burst`` overload drill."""
        return ((0.0, base_rps), (start_us, peak_rps),
                (start_us + duration_us, base_rps))

    def rate_at(self, now_us: float) -> float:
        """The offered rate in force at virtual time ``now_us``."""
        rate = self.rate_rps
        if self.rate_profile is not None:
            for start_us, step_rate in self.rate_profile:
                if start_us <= now_us:
                    rate = step_rate
                else:
                    break
        return rate

    def stream(self) -> Iterator[ServeRequest]:
        """Yield the arrival stream one request at a time, in arrival
        order — the *live-client* form: each yielded request can go
        straight into :meth:`repro.serve.SimServer.submit` as it
        "happens", while :meth:`requests` is just this stream
        materialized for the offline ``serve()`` path."""
        rng = random.Random(self.seed)
        weights = [w for w, _ in self.scenario.mix]
        makers = [m for _, m in self.scenario.mix]
        # Tenancy draws from a sibling stream so labelling requests
        # never perturbs their arrivals, shapes or values.
        trng = random.Random(f"tenants:{self.seed}")
        tenant_names = ([name for name, _ in self.tenants]
                        if self.tenants else None)
        tenant_weights = ([weight for _, weight in self.tenants]
                          if self.tenants else None)
        now_us = 0.0
        for request_id in range(1, self.count + 1):
            now_us += rng.expovariate(1.0) * (1e6 / self.rate_at(now_us))
            maker = rng.choices(makers, weights=weights, k=1)[0]
            priority = int(rng.random() < self.high_priority_fraction)
            deadline = (now_us + self.deadline_us
                        if self.deadline_us is not None else None)
            tenant = (trng.choices(tenant_names, weights=tenant_weights,
                                   k=1)[0] if tenant_names else "")
            yield ServeRequest(request=maker(rng), arrival_us=now_us,
                               priority=priority, deadline_us=deadline,
                               request_id=request_id, tenant=tenant)

    def requests(self) -> List[ServeRequest]:
        """The full arrival list, sorted by arrival time, ids 1..count."""
        return list(self.stream())
