"""Deterministic fault injection + resilience policies for serving.

The PR 4/5 serving stack models an ideal machine: shards never stall,
dispatches never fail, outputs are never corrupted.  The paper's host
protocol (Sec. IV.A) is exactly the boundary where a real PIM
deployment sees all three, so this module builds the *fault model* the
recovery machinery is measured against:

* :class:`FaultProfile` — rates and magnitudes of the four injectable
  fault kinds: transient dispatch **fail**ures, shard **stall**\\ s,
  shard **slowdown**\\ s, and functional **corrupt**\\ ion (flipped
  output words).
* :class:`FaultPlan` — the seeded, *virtual-time* injector.  Every
  decision is a pure function of ``(seed, dispatch seq, shard,
  attempt)``, so runs are bit-reproducible regardless of host timing
  or live-vs-offline entry style, and a re-dispatch of the same unit
  (new attempt) draws a fresh decision — exactly how a transient fault
  behaves.  A zero-rate plan never draws at all
  (:attr:`FaultPlan.active` is false), so it is provably identical to
  serving with no plan, and :func:`make_fault_plan` builds none.
* :class:`ResiliencePolicy` — the recovery knobs the server grows on
  top: per-request retry with capped exponential backoff in virtual
  time and a global retry budget, per-dispatch timeout with
  re-dispatch, a per-shard circuit breaker (K consecutive failures
  open it; traffic routes around; a half-open probe closes it after a
  cooldown), online golden-model detection of corrupted outputs
  (served values re-checked by the same Freivalds check a verified
  run passes, ``TransformSpec.check``).  Planning reads no policy.

* :class:`ReplicaFaultPlan` — the fault domain one level up: whole
  replicas **crash** (state lost), **hang** (dark link, state held) or
  **partition** (typed messages dropped) on a timeline that is a pure
  function of ``(seed, replica, virtual_time)``.  The cluster watchdog
  (:mod:`repro.cluster.watchdog`) observes these only through missed
  heartbeats and recovers with supervised restarts and failover.

Faults and policies are orthogonal: ``benchmarks/bench_serve.py``
sweeps fault rate x {policies off, policies on} and records the
goodput gap in ``BENCH_serve.json``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

__all__ = ["FaultProfile", "FaultDecision", "FaultPlan", "NO_FAULT",
           "ResiliencePolicy", "FAULT_PROFILES", "POLICIES",
           "make_fault_plan", "make_policy",
           "CRASH", "HANG", "PARTITION", "REPLICA_FAULT_KINDS",
           "ReplicaFaultProfile", "ReplicaFaultEvent", "ReplicaFaultPlan",
           "REPLICA_FAULT_PROFILES", "make_replica_fault_plan"]


@dataclass(frozen=True)
class FaultProfile:
    """Rates (per dispatch attempt) and magnitudes of injected faults.

    All times are simulated microseconds.  ``shard_weights`` scales
    every rate for specific shards — ``((0, 4.0),)`` models shard 0 as
    a degraded channel seeing 4x the fault pressure.  A ``fail`` draw
    preempts the others (the dispatch never produces output); stall,
    slowdown and corruption draws are independent and compose.
    """

    name: str = "custom"
    #: Transient dispatch failure: the shard burns ``fail_cost_us`` of
    #: virtual time and produces nothing (:class:`~repro.errors.ShardFailure`).
    fail_rate: float = 0.0
    fail_cost_us: float = 15.0
    #: Shard stall: service takes ``stall_us`` extra virtual time.
    stall_rate: float = 0.0
    stall_us: float = 1500.0
    #: Shard slowdown: service latency multiplied by ``slowdown_factor``.
    slowdown_rate: float = 0.0
    slowdown_factor: float = 4.0
    #: Functional corruption: one output word of the dispatch flips.
    corrupt_rate: float = 0.0
    #: ``(shard, rate_multiplier)`` pairs for unevenly degraded shards.
    shard_weights: Tuple[Tuple[int, float], ...] = ()

    def __post_init__(self):
        for rate_name in ("fail_rate", "stall_rate", "slowdown_rate",
                          "corrupt_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], "
                                 f"got {rate}")

    @property
    def active(self) -> bool:
        """Whether any fault can ever fire (zero-rate profiles are
        provably inert — no draw is ever made)."""
        return (self.fail_rate > 0 or self.stall_rate > 0
                or self.slowdown_rate > 0 or self.corrupt_rate > 0)

    def shard_weight(self, shard: int) -> float:
        for sid, weight in self.shard_weights:
            if sid == shard:
                return weight
        return 1.0

    @classmethod
    def scaled(cls, rate: float) -> "FaultProfile":
        """A uniform profile for sweeps: ``rate`` transient failures,
        half that rate of corruption, stalls and slowdowns."""
        return cls(name=f"rate:{rate:g}", fail_rate=rate,
                   corrupt_rate=rate / 2, stall_rate=rate / 2,
                   slowdown_rate=rate / 2)


#: Named fault profiles of the ``repro serve --faults`` CLI.
FAULT_PROFILES: Dict[str, FaultProfile] = {
    "none": FaultProfile(name="none"),
    "transient": FaultProfile(name="transient", fail_rate=0.12),
    "degraded": FaultProfile(name="degraded", slowdown_rate=0.2,
                             stall_rate=0.08, fail_rate=0.04,
                             shard_weights=((0, 4.0),)),
    "chaos": FaultProfile(name="chaos", fail_rate=0.1, stall_rate=0.06,
                          slowdown_rate=0.1, corrupt_rate=0.08),
}


@dataclass(frozen=True)
class FaultDecision:
    """What one dispatch attempt suffers (``NO_FAULT`` when nothing)."""

    fail: bool = False
    stall_us: float = 0.0
    slowdown: float = 1.0
    corrupt: bool = False

    @property
    def any(self) -> bool:
        return (self.fail or self.corrupt or self.stall_us > 0
                or self.slowdown != 1.0)


NO_FAULT = FaultDecision()


class FaultPlan:
    """Seeded virtual-time fault injector over dispatch attempts.

    ``decide(seq, shard, attempt)`` is a pure function of its arguments
    plus the plan's seed — it draws from a throwaway RNG keyed on the
    whole tuple, never from shared mutable state — so injection is
    independent of execution order, host timing, and entry style, and
    identical across runs with the same seed.
    """

    def __init__(self, profile: Union[FaultProfile, str] = "chaos",
                 seed: int = 0):
        if isinstance(profile, str):
            profile = _named_profile(profile)
        self.profile = profile
        self.seed = seed

    @property
    def active(self) -> bool:
        return self.profile.active

    def _rng(self, seq: int, shard: int, attempt: int) -> random.Random:
        return random.Random(f"{self.seed}:{seq}:{shard}:{attempt}")

    def decide(self, seq: int, shard: int, attempt: int) -> FaultDecision:
        """The fault (if any) this dispatch attempt suffers."""
        if not self.active:
            return NO_FAULT
        profile = self.profile
        weight = profile.shard_weight(shard)
        rng = self._rng(seq, shard, attempt)
        # One draw per kind, always, so a decision never depends on
        # which other rates are zero (stable under profile tweaks).
        fail = rng.random() < profile.fail_rate * weight
        stall = rng.random() < profile.stall_rate * weight
        slow = rng.random() < profile.slowdown_rate * weight
        corrupt = rng.random() < profile.corrupt_rate * weight
        if fail:
            return FaultDecision(fail=True)
        if not (stall or slow or corrupt):
            return NO_FAULT
        return FaultDecision(
            stall_us=profile.stall_us if stall else 0.0,
            slowdown=profile.slowdown_factor if slow else 1.0,
            corrupt=corrupt)

    def corrupt_index(self, seq: int, shard: int, attempt: int,
                      banks: int, length: int) -> Tuple[int, int]:
        """Deterministic ``(bank_slot, word_index)`` to flip for a
        corrupted dispatch of ``banks`` outputs of ``length`` words."""
        rng = self._rng(seq, shard, attempt)
        rng.random()  # skip past the decision draws' stream prefix
        return rng.randrange(max(banks, 1)), rng.randrange(max(length, 1))

    def describe(self) -> str:
        return f"{self.profile.name} (seed {self.seed})"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Recovery knobs of the serving stack.  The default is fully
    neutral: no retries, no timeout, no breaker, no detection —
    bit-identical serving to a policy-less server.

    All times/backoffs are simulated microseconds; retries happen in
    *virtual* time (a retried dispatch re-enters its shard's backlog at
    ``failure + backoff``), so resilience costs latency on the same
    clock every other serving number is measured on.
    """

    name: str = "custom"
    #: Re-dispatch attempts per unit after its first failure.
    max_retries: int = 0
    #: Capped exponential backoff: ``base * 2**(attempt-1)``, capped.
    retry_backoff_us: float = 25.0
    retry_backoff_cap_us: float = 400.0
    #: Global retry budget per serving session (``None`` = unlimited);
    #: exhausted budget fails fast instead of retrying.
    retry_budget: Optional[int] = None
    #: Per-dispatch service timeout: a dispatch whose (faulted) service
    #: would exceed this aborts at the timeout and re-dispatches.
    timeout_us: Optional[float] = None
    #: Circuit breaker: this many *consecutive* failures open a shard
    #: (0 disables).  Open shards are routed around when another shard
    #: can serve sooner; after ``breaker_cooldown_us`` a half-open
    #: probe decides between closing and re-opening.
    breaker_threshold: int = 0
    breaker_cooldown_us: float = 2000.0
    #: Online golden-model detection: served outputs are re-checked
    #: by their transforms' Freivalds check; mismatches (e.g. injected
    #: corruption) surface as FunctionalMismatch and retry.
    detect: bool = False

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_us < 0 or self.retry_backoff_cap_us < 0:
            raise ValueError("retry backoff times must be >= 0")

    @property
    def neutral(self) -> bool:
        """True when no knob can ever change serving behavior."""
        return (self.max_retries == 0 and self.timeout_us is None
                and self.breaker_threshold == 0 and not self.detect)

    def backoff_us(self, attempt: int) -> float:
        """Virtual-time backoff before retry number ``attempt`` (1-based)."""
        return min(self.retry_backoff_us * (2 ** (attempt - 1)),
                   self.retry_backoff_cap_us)


#: Named policies of the ``repro serve --policy`` CLI.  ``standard`` is
#: the measured-in-BENCH_serve recovery stack.
POLICIES: Dict[str, ResiliencePolicy] = {
    "none": ResiliencePolicy(name="none"),
    "standard": ResiliencePolicy(
        name="standard", max_retries=3, retry_backoff_us=25.0,
        retry_backoff_cap_us=400.0, retry_budget=1024,
        timeout_us=600.0, breaker_threshold=3,
        breaker_cooldown_us=2000.0, detect=True),
}


def make_fault_plan(spec: Union[None, str, FaultProfile, FaultPlan],
                    seed: int = 0) -> Optional[FaultPlan]:
    """Normalize the server/CLI fault spec: ``None``/``"none"``/zero-rate
    -> no plan (a zero-rate plan never draws, so the fault path is
    literally plan-less), a profile name or ``"rate:<r>"`` -> a seeded
    plan, and profile/plan instances pass through (a plan keeps its own
    seed)."""
    if spec is None or spec == "none":
        return None
    if isinstance(spec, FaultPlan):
        plan = spec
    elif isinstance(spec, FaultProfile):
        plan = FaultPlan(spec, seed)
    elif spec.startswith("rate:"):
        plan = FaultPlan(FaultProfile.scaled(float(spec[5:])), seed)
    else:
        plan = FaultPlan(_named_profile(spec), seed)
    return plan if plan.active else None


def make_policy(spec: Union[str, ResiliencePolicy]) -> ResiliencePolicy:
    """Resolve a policy name, or pass an instance through."""
    if isinstance(spec, str):
        try:
            spec = POLICIES[spec]
        except KeyError:
            known = ", ".join(sorted(POLICIES))
            raise ValueError(f"unknown policy {spec!r}; known: {known}") \
                from None
    return spec


def _named_profile(name: str) -> FaultProfile:
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(FAULT_PROFILES))
        raise ValueError(f"unknown fault profile {name!r}; known: {known}"
                         ) from None


# ---------------------------------------------------------------------------
# Replica-scoped faults: the failure domain *above* the dispatch level.
# A dispatch fault breaks one unit of work on one shard; a replica fault
# takes a whole SimServer replica off the cluster's message link.  The
# cluster watchdog (repro.cluster.watchdog) observes these only through
# missed heartbeats, exactly like a real supervisor.
# ---------------------------------------------------------------------------

#: Replica dies: every in-flight submission and unfetched result on it
#: is lost; only a supervised restart brings the slot back.
CRASH = "crash"
#: Replica stops answering the message link for a window but holds its
#: state; a slow-then-recovered replica can re-answer old requests.
HANG = "hang"
#: The message link drops typed messages for a window; the replica
#: itself is healthy and keeps its state.
PARTITION = "partition"

REPLICA_FAULT_KINDS = (CRASH, HANG, PARTITION)


@dataclass(frozen=True)
class ReplicaFaultProfile:
    """Rates (per decision interval, per replica) and window lengths of
    replica-scoped faults.

    Virtual time is cut into ``interval_us`` decision intervals; each
    interval draws at most one fault event per replica (precedence
    ``crash > hang > partition``) with a deterministic onset inside the
    interval.  All times are simulated microseconds.
    """

    name: str = "custom"
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    partition_rate: float = 0.0
    #: Width of one fault-decision interval.
    interval_us: float = 1000.0
    #: How long a hang window keeps the replica dark.
    hang_us: float = 1200.0
    #: How long a partition window drops the replica's messages.
    partition_us: float = 600.0

    def __post_init__(self):
        for rate_name in ("crash_rate", "hang_rate", "partition_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_name} must be in [0, 1], "
                                 f"got {rate}")
        if self.interval_us <= 0:
            raise ValueError("interval_us must be > 0")
        if self.hang_us < 0 or self.partition_us < 0:
            raise ValueError("fault window lengths must be >= 0")

    @property
    def active(self) -> bool:
        """Whether any replica fault can ever fire (zero-rate profiles
        never draw — provably identical to no plan at all)."""
        return (self.crash_rate > 0 or self.hang_rate > 0
                or self.partition_rate > 0)

    @classmethod
    def scaled(cls, rate: float) -> "ReplicaFaultProfile":
        """A uniform profile for sweeps: ``rate`` crashes per interval,
        half that rate of hangs and partitions."""
        return cls(name=f"rate:{rate:g}", crash_rate=rate,
                   hang_rate=rate / 2, partition_rate=rate / 2)


#: Named replica-fault profiles of the ``--replica-faults`` CLI.
REPLICA_FAULT_PROFILES: Dict[str, ReplicaFaultProfile] = {
    "none": ReplicaFaultProfile(name="none"),
    "crashy": ReplicaFaultProfile(name="crashy", crash_rate=0.25,
                                  interval_us=800.0),
    "flaky": ReplicaFaultProfile(name="flaky", hang_rate=0.3,
                                 partition_rate=0.2, interval_us=800.0,
                                 hang_us=900.0, partition_us=500.0),
    "chaos": ReplicaFaultProfile(name="chaos", crash_rate=0.12,
                                 hang_rate=0.15, partition_rate=0.1,
                                 interval_us=800.0, hang_us=900.0,
                                 partition_us=500.0),
}


@dataclass(frozen=True)
class ReplicaFaultEvent:
    """One replica fault: ``kind`` strikes at ``onset_us`` and (for
    hang/partition) heals at ``end_us``; a crash never heals on its own
    (``end_us`` is ``inf`` — only a supervised restart ends it)."""

    kind: str
    onset_us: float
    end_us: float
    #: Decision interval the event was drawn in (its identity — one
    #: event per ``(replica, interval)``).
    interval: int


class ReplicaFaultPlan:
    """Seeded replica-fault timeline over virtual time.

    ``event(replica, interval)`` is a pure function of ``(seed,
    replica, interval)`` — it draws from a throwaway RNG keyed on the
    whole tuple — so the fault timeline is independent of traffic,
    probe cadence and host timing, and identical across runs with the
    same seed: chaos runs replay bit-for-bit.  ``outage`` evaluates the
    timeline at a point in virtual time for one replica incarnation
    (events that predate ``alive_since_us`` died with the previous
    incarnation and never re-fire).
    """

    def __init__(self, profile: Union[ReplicaFaultProfile, str] = "chaos",
                 seed: int = 0):
        if isinstance(profile, str):
            profile = _named_replica_profile(profile)
        self.profile = profile
        self.seed = seed
        self._events: Dict[Tuple[int, int], Optional[ReplicaFaultEvent]] = {}

    @property
    def active(self) -> bool:
        return self.profile.active

    def event(self, replica: int, interval: int
              ) -> Optional[ReplicaFaultEvent]:
        """The fault event (if any) drawn for ``replica`` in decision
        interval ``interval`` (memoized; the draw itself is pure)."""
        if not self.active or interval < 0:
            return None
        key = (replica, interval)
        if key in self._events:
            return self._events[key]
        profile = self.profile
        rng = random.Random(
            f"replica-fault:{self.seed}:{replica}:{interval}")
        # One draw per kind, always, so the timeline never depends on
        # which other rates are zero (stable under profile tweaks).
        crash = rng.random() < profile.crash_rate
        hang = rng.random() < profile.hang_rate
        partition = rng.random() < profile.partition_rate
        onset = (interval + rng.random()) * profile.interval_us
        if crash:
            event = ReplicaFaultEvent(CRASH, onset, float("inf"), interval)
        elif hang:
            event = ReplicaFaultEvent(HANG, onset, onset + profile.hang_us,
                                      interval)
        elif partition:
            event = ReplicaFaultEvent(PARTITION, onset,
                                      onset + profile.partition_us, interval)
        else:
            event = None
        self._events[key] = event
        return event

    def outage(self, replica: int, now_us: float,
               alive_since_us: float = 0.0) -> Optional[ReplicaFaultEvent]:
        """The event keeping ``replica``'s link dark at ``now_us``, or
        ``None`` while the link is clean.  A crash whose onset falls in
        ``(alive_since_us, now_us]`` is permanent; hang/partition
        windows cover ``[onset, end)``."""
        if not self.active:
            return None
        interval_us = self.profile.interval_us
        first = max(int(alive_since_us // interval_us), 0)
        last = int(now_us // interval_us)
        for interval in range(first, last + 1):
            event = self.event(replica, interval)
            if event is None or event.onset_us <= alive_since_us:
                continue
            if event.kind == CRASH:
                if event.onset_us <= now_us:
                    return event
            elif event.onset_us <= now_us < event.end_us:
                return event
        return None

    def describe(self) -> str:
        return f"{self.profile.name} (seed {self.seed})"


def make_replica_fault_plan(
        spec: Union[None, str, ReplicaFaultProfile, ReplicaFaultPlan],
        seed: int = 0) -> Optional[ReplicaFaultPlan]:
    """Normalize the cluster/CLI replica-fault spec exactly like
    :func:`make_fault_plan`: ``None``/``"none"``/zero-rate -> no plan
    (the fault path is literally plan-less), a profile name or
    ``"rate:<r>"`` -> a seeded plan, instances pass through."""
    if spec is None:
        return None
    if isinstance(spec, ReplicaFaultPlan):
        return spec if spec.active else None
    if isinstance(spec, ReplicaFaultProfile):
        return ReplicaFaultPlan(spec, seed) if spec.active else None
    if spec == "none":
        return None
    if spec.startswith("rate:"):
        profile = ReplicaFaultProfile.scaled(float(spec[5:]))
        return ReplicaFaultPlan(profile, seed) if profile.active else None
    profile = _named_replica_profile(spec)
    return ReplicaFaultPlan(profile, seed) if profile.active else None


def _named_replica_profile(name: str) -> ReplicaFaultProfile:
    try:
        return REPLICA_FAULT_PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(REPLICA_FAULT_PROFILES))
        raise ValueError(f"unknown replica-fault profile {name!r}; "
                         f"known: {known}") from None
