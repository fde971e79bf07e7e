"""One supervised serving replica behind the typed message protocol.

A :class:`Replica` owns a full :class:`~repro.serve.SimServer` — queue,
batching scheduler, shards, bus, fault plan, resilience policy — and
exposes it *only* through :meth:`Replica.send`, which dispatches the
typed messages of :mod:`repro.cluster.messages`.  The front-end never
reaches past the protocol, so a replica is exactly the actor the
gridworks proactor pattern supervises: typed inbox, typed replies,
observable link state (the heartbeat).

Clock translation happens here: cluster messages carry *absolute*
virtual time, the wrapped server thinks in session-relative time, and
:meth:`~repro.serve.SimServer.session_offset_us` bridges the two.  With
one replica the offset is identical to a bare server's, which is one
of the links in the cluster's single-replica bit-identity proof.

Health is the per-shard circuit-breaker machinery lifted to replica
granularity, and the heartbeat is its one probe: the reply reports the
replica ``up`` while at least one shard could serve a dispatch *now* —
every shard's breaker open (and still inside its cooldown) means the
whole replica is effectively dark, and the router routes around it
until a cooldown expires.  The same reply carries the load the router
balances and the idleness the autoscaler retires on.  Recovery is
catch-up by construction: the replica's backlog keeps settling on
every :class:`~repro.cluster.messages.Advance` tick, open breakers
half-open and re-close through the server's own probe machinery, and
the heartbeat flips back to ``up``.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import ClusterError
from ..serve.faults import FaultPlan, ResiliencePolicy
from ..serve.server import SimServer
from ..sim.driver import SimConfig
from .messages import (
    Advance,
    Advanced,
    Drain,
    Drained,
    Heartbeat,
    HeartbeatReply,
    Poll,
    PollReply,
    Submit,
    Submitted,
)

__all__ = ["Replica"]


class Replica:
    """One :class:`SimServer` actor under the cluster supervisor.

    ``server_kwargs`` pass straight through to :class:`SimServer` —
    the replica adds nothing to the serving model itself, only the
    message boundary, the absolute-time translation, and the
    replica-granular health view.
    """

    def __init__(self, replica_id: int,
                 config: Optional[SimConfig] = None, *,
                 fault_plan: Optional[FaultPlan] = None,
                 policy: Union[str, ResiliencePolicy] = "none",
                 **server_kwargs):
        self.replica_id = replica_id
        self.server = SimServer(config, faults=fault_plan, policy=policy,
                                **server_kwargs)
        # Every record this replica ever produces carries its id, so
        # merged cluster telemetry keeps per-replica attribution.
        self.server.telemetry.replica = replica_id

    # -- the protocol ------------------------------------------------------------
    def send(self, message):
        """Dispatch one typed message and return its typed reply."""
        handler = _HANDLERS.get(type(message))
        if handler is None:
            raise ClusterError(
                f"replica {self.replica_id} has no handler for "
                f"{type(message).__name__!r}; the protocol accepts "
                f"Submit, Poll, Advance, Drain, Heartbeat",
                replica=self.replica_id)
        return handler(self, message)

    # -- handlers ----------------------------------------------------------------
    def _to_relative(self, absolute_us: float) -> float:
        return absolute_us - self.server.session_offset_us()

    def _submit(self, message: Submit) -> Submitted:
        sreq = message.sreq
        request_id = self.server.submit(
            sreq.request,
            arrival_us=self._to_relative(sreq.arrival_us),
            priority=sreq.priority,
            deadline_us=(self._to_relative(sreq.deadline_us)
                         if sreq.deadline_us is not None else None),
            request_id=sreq.request_id, tenant=sreq.tenant)
        return Submitted(request_id=request_id, replica=self.replica_id)

    def _poll(self, message: Poll) -> PollReply:
        return PollReply(request_id=message.request_id,
                         result=self.server.poll(message.request_id))

    def _advance(self, message: Advance) -> Advanced:
        self.server.advance(self._to_relative(message.now_us))
        return Advanced(replica=self.replica_id, now_us=message.now_us)

    def _drain(self, message: Drain) -> Drained:
        return Drained(replica=self.replica_id,
                       results=self.server.drain())

    def _heartbeat(self, message: Heartbeat) -> HeartbeatReply:
        """Load plus the replica-granular lift of the per-shard
        breakers: ``up`` = some shard can serve at ``now_us`` (an open
        breaker whose cooldown already expired counts as servable — its
        next dispatch is the half-open probe)."""
        stats = self.server.live_stats()
        breakers = dict(stats["breakers"])
        dark = sum(1 for state, open_until in breakers.values()
                   if state == "open" and open_until > message.now_us)
        snapshot = (self.server.telemetry.snapshot()
                    if message.want_snapshot else None)
        return HeartbeatReply(
            replica=self.replica_id, now_us=message.now_us,
            queue_depth=int(stats["queue_depth"]),
            outstanding=int(stats["submitted"]) - int(stats["settled"]),
            backlog=int(stats["backlog"]),
            num_shards=int(stats["num_shards"]),
            breakers=breakers, up=dark < int(stats["num_shards"]),
            snapshot=snapshot)


# The protocol's handlers, called as ``handler(replica, message)``.
# Unbound, so a replica holds no bound methods that point back at it and
# a dropped replica is freed at once with its server and telemetry.
_HANDLERS = {
    Submit: Replica._submit,
    Poll: Replica._poll,
    Advance: Replica._advance,
    Drain: Replica._drain,
    Heartbeat: Replica._heartbeat,
}
