"""Virtual-time watchdog machinery of the self-healing cluster.

The :class:`~repro.cluster.frontend.ClusterFrontend` supervises each
replica through a :class:`ReplicaSupervisor`: every typed message goes
through :meth:`ReplicaSupervisor.deliver`, which first consults the
replica's fault timeline (:class:`repro.serve.faults.ReplicaFaultPlan`)
— a crashed, hung or partitioned replica simply *does not answer*
(``None`` instead of a typed reply), exactly what a real supervisor
sees.  The watchdog turns missed heartbeats into the lifecycle state
machine::

    UP --missed >= suspect_after--> SUSPECT
       --missed >= down_after----> DOWN   (failover + restart scheduled)
    DOWN --link heals before restart--> UP   (slow-then-recovered)
    DOWN --restart_delay elapses------> UP   (fresh incarnation)
    UP --idle heartbeat, scale-in----> RETIRED

Everything runs on the deterministic virtual clock: probe ticks land on
a fixed ``heartbeat_us`` grid, restarts fire at ``down + restart_delay``
and fault windows are pure functions of ``(seed, replica, time)`` — so
a chaos run with failovers, restarts and scale events replays
bit-for-bit.

:class:`AutoscalePolicy` drives membership from the same heartbeat
rollups: sustained mean load above ``scale_out_load`` grows the fleet
(up to ``max_replicas``), sustained idleness shrinks it (down to
``min_replicas``, only retiring a replica whose heartbeat shows nothing
queued or in flight), with a cooldown between scale events to prevent
flapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import ClusterError, ReproError
from ..serve.faults import CRASH, ReplicaFaultEvent, ReplicaFaultPlan
from ..serve.telemetry import Telemetry

__all__ = ["UP", "SUSPECT", "DOWN", "RETIRED",
           "LIFECYCLE_STATES", "WatchdogPolicy", "AutoscalePolicy",
           "ClusterHealth", "ReplicaSupervisor"]

#: Replica lifecycle states, as the watchdog sees them.
UP = "up"                # answering heartbeats, routable
SUSPECT = "suspect"      # missed probes; routed around, not failed over
DOWN = "down"            # declared dead; failed over, restart scheduled
RETIRED = "retired"      # scaled in; state kept for telemetry only

LIFECYCLE_STATES = (UP, SUSPECT, DOWN, RETIRED)


@dataclass(frozen=True)
class WatchdogPolicy:
    """Missed-heartbeat detection and supervised-restart knobs (all
    times simulated microseconds)."""

    #: Probe cadence: heartbeats land on multiples of this.
    heartbeat_us: float = 500.0
    #: Consecutive missed probes before a replica turns SUSPECT
    #: (routed around, nothing failed over yet).
    suspect_after: int = 2
    #: Consecutive missed probes before DOWN: orphaned in-flight work
    #: is failed over and a restart is scheduled.
    down_after: int = 4
    #: Virtual time between declaring DOWN and the rebuilt incarnation
    #: coming up (a hung replica that answers again before this fires
    #: is taken back without losing its state).
    restart_delay_us: float = 1500.0

    def __post_init__(self):
        if self.heartbeat_us <= 0:
            raise ClusterError("heartbeat_us must be > 0")
        if not 1 <= self.suspect_after <= self.down_after:
            raise ClusterError("need 1 <= suspect_after <= down_after")
        if self.restart_delay_us < 0:
            raise ClusterError("restart_delay_us must be >= 0")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Heartbeat-rollup-driven membership: scale-out on sustained load,
    scale-in on sustained idleness, cooldown against flapping."""

    min_replicas: int = 1
    max_replicas: int = 4
    #: Mean (queue depth + outstanding) per UP replica at/above which a
    #: tick votes for scale-out.
    scale_out_load: float = 12.0
    #: Mean load at/below which a tick votes for scale-in.
    scale_in_load: float = 0.0
    #: Consecutive agreeing ticks before a scale event fires.
    sustain_ticks: int = 2
    #: Minimum virtual time between scale events.
    cooldown_us: float = 2000.0

    def __post_init__(self):
        if not 1 <= self.min_replicas <= self.max_replicas:
            raise ClusterError("need 1 <= min_replicas <= max_replicas")
        if self.sustain_ticks < 1:
            raise ClusterError("sustain_ticks must be >= 1")
        if self.cooldown_us < 0:
            raise ClusterError("cooldown_us must be >= 0")
        if self.scale_in_load > self.scale_out_load:
            raise ClusterError("scale_in_load must not exceed "
                               "scale_out_load")


class ClusterHealth:
    """Cluster-level self-healing counters (virtual time throughout)."""

    def __init__(self):
        #: Distinct replica-fault events the supervisor observed, by kind.
        self.faults_seen: Dict[str, int] = {}
        self.suspects = 0
        self.downs = 0
        self.failovers = 0
        self.restarts = 0
        #: Orphaned in-flight requests re-submitted to healthy replicas.
        self.orphans_recovered = 0
        #: Duplicate results dropped (slow-then-recovered double-serves).
        self.duplicates_dropped = 0
        self.scale_out = 0
        self.scale_in = 0
        #: DOWN -> serving-again intervals, one sample per recovery.
        self.mttr_samples_us: List[float] = []

    @property
    def mttr_us(self) -> float:
        """Mean virtual time from DOWN to serving again (0 with no
        recoveries yet)."""
        if not self.mttr_samples_us:
            return 0.0
        return sum(self.mttr_samples_us) / len(self.mttr_samples_us)

    def note_fault(self, kind: str) -> None:
        self.faults_seen[kind] = self.faults_seen.get(kind, 0) + 1

    def snapshot(self) -> Dict[str, object]:
        return {
            "faults_seen": dict(self.faults_seen),
            "suspects": self.suspects,
            "downs": self.downs,
            "failovers": self.failovers,
            "restarts": self.restarts,
            "orphans_recovered": self.orphans_recovered,
            "duplicates_dropped": self.duplicates_dropped,
            "scale_out": self.scale_out,
            "scale_in": self.scale_in,
            "recoveries": len(self.mttr_samples_us),
            "mttr_us": self.mttr_us,
        }


class ReplicaSupervisor:
    """Lifecycle state machine + fault-aware message link for one
    replica slot.

    The supervisor owns the slot, not the object: a restart swaps in a
    fresh :class:`~repro.cluster.replica.Replica` incarnation (same
    slot, same derived fault seed) and keeps the dead incarnation's
    telemetry for cluster rollups.  The fault timeline is evaluated
    against ``alive_since_us``, so events that predate the current
    incarnation's birth never re-fire.
    """

    def __init__(self, slot: int, replica, *,
                 plan: Optional[ReplicaFaultPlan] = None,
                 born_us: float = 0.0):
        self.slot = slot
        self.replica = replica
        self.plan = plan
        self.state = UP
        self.missed = 0
        self.incarnation = 0
        self.alive_since_us = born_us
        self.down_since_us: Optional[float] = None
        self.restart_at_us: Optional[float] = None
        #: Telemetries of dead incarnations (crash-lost state keeps its
        #: completed-and-returned records attributable).
        self.retired_telemetries: List[Telemetry] = []
        #: Fault events already counted (one count per distinct event).
        self._seen_events: set = set()
        #: How many of them :meth:`pop_seen_kinds` already handed out.
        self._counted = 0

    # -- the fault-aware link ----------------------------------------------------
    def link_outage(self, now_us: float) -> Optional[ReplicaFaultEvent]:
        """The fault event keeping this slot's link dark at ``now_us``
        (``None`` while clean or retired-with-no-plan)."""
        if self.plan is None:
            return None
        return self.plan.outage(self.slot, now_us, self.alive_since_us)

    def deliver(self, message, now_us: float):
        """Deliver one typed message through the (possibly faulty)
        link: the typed reply, or ``None`` when the link is dark or the
        slot is retired.  Replica-side exceptions are wrapped in a
        contextful :class:`ClusterError` with ``__cause__`` preserved."""
        if self.state == RETIRED:
            return None
        event = self.link_outage(now_us)
        if event is not None:
            self._note_event(event)
            return None
        return self.send(message)

    def send(self, message):
        """Deliver ``message`` straight to the replica, bypassing the
        link (close-time delivery: a virtual-time close waits out
        transient outages), with the same contextful error wrap as
        :meth:`deliver`."""
        try:
            return self.replica.send(message)
        except ReproError as exc:
            raise ClusterError(
                f"replica {self.slot} ({self.state}) failed handling "
                f"{type(message).__name__}: {exc}",
                replica=self.slot, state=self.state) from exc

    def _note_event(self, event: ReplicaFaultEvent):
        self._seen_events.add((event.interval, event.kind))

    def pop_seen_kinds(self) -> List[str]:
        """Kinds of fault events newly observed since the last call
        (for health counters; each event counts once)."""
        kinds = [kind for _, kind in sorted(self._seen_events)]
        fresh = kinds[self._counted:]
        self._counted = len(kinds)
        return fresh

    def crashed(self, now_us: float) -> bool:
        """Whether the current incarnation's link outage (if any) is a
        permanent crash — its state is unrecoverable without restart."""
        event = self.link_outage(now_us)
        return event is not None and event.kind == CRASH

    # -- the lifecycle state machine ---------------------------------------------
    def on_missed(self, now_us: float,
                  policy: WatchdogPolicy) -> Optional[str]:
        """One missed probe; returns the transition it caused
        (``"suspect"``/``"down"``) or ``None``."""
        self.missed += 1
        if self.state == UP and self.missed >= policy.suspect_after:
            self.state = SUSPECT
            return SUSPECT
        if self.state == SUSPECT and self.missed >= policy.down_after:
            self.mark_down(now_us, policy)
            return DOWN
        return None

    def mark_down(self, now_us: float, policy: WatchdogPolicy) -> None:
        self.state = DOWN
        self.down_since_us = now_us
        self.restart_at_us = now_us + policy.restart_delay_us

    def on_ack(self, now_us: float) -> Optional[float]:
        """One answered probe; heals SUSPECT back to UP, takes a
        slow-then-recovered DOWN replica back (cancelling its pending
        restart) and returns the MTTR sample when it does."""
        self.missed = 0
        if self.state == SUSPECT:
            self.state = UP
            return None
        if self.state == DOWN:
            self.state = UP
            self.restart_at_us = None
            mttr = now_us - (self.down_since_us or now_us)
            self.down_since_us = None
            return mttr
        return None

    def reborn(self, replica, now_us: float) -> float:
        """Swap in a fresh incarnation (supervised restart): retire the
        dead incarnation's telemetry, reset the link bookkeeping, and
        return the MTTR sample."""
        self.retired_telemetries.append(self.replica.server.telemetry)
        self.replica = replica
        self.incarnation += 1
        self.state = UP
        self.missed = 0
        self.alive_since_us = now_us
        self.restart_at_us = None
        mttr = now_us - (self.down_since_us or now_us)
        self.down_since_us = None
        return mttr

    def retire(self) -> None:
        """Scale-in: take the slot out of service for good (its live
        telemetry stays reachable through ``self.replica``)."""
        self.state = RETIRED
        self.restart_at_us = None
