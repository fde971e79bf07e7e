"""Per-tenant admission quotas of the cluster front-end.

The front-end meters every submission against its tenant's token
bucket *before* routing: a tenant earns ``rate_rps`` tokens per second
of virtual time up to a ``burst`` ceiling, and each admitted request
spends one.  A tenant that outruns its refill is throttled — the
request is dropped at the front door with a ``throttled`` telemetry
record and a retry-after hint — so one noisy neighbor degrades only
its own goodput, not the cluster's.

Degradation is priority-aware rather than all-or-nothing: a quota may
grant an *overdraft* (extra tokens below zero) that only requests at or
above ``min_priority`` may spend.  Under pressure a tenant's urgent
traffic keeps landing while its bulk traffic is throttled first.

Everything runs on the deterministic virtual clock (token refill is a
pure function of elapsed virtual time), so admission decisions replay
bit-for-bit with the rest of the simulation.

Quotas are **membership-independent** by construction: buckets are
keyed by tenant, never by replica, and refill depends only on virtual
time — so failovers, supervised restarts and autoscale events
(:mod:`repro.cluster.watchdog`) never reset a tenant's budget, and a
throttle decision is identical no matter how many replicas are up.
Failover *re-submits* bypass admission entirely (the request already
spent its token when it was first admitted), so a crash can never
double-charge a tenant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ClusterError

__all__ = ["TenantQuota", "QuotaManager"]


@dataclass(frozen=True)
class TenantQuota:
    """Admission budget for one tenant (or the ``"*"`` default).

    ``rate_rps`` tokens/second refill up to ``burst``; requests with
    ``priority >= min_priority`` may additionally overdraw the bucket
    by ``overdraft`` tokens before they too are throttled.
    """

    rate_rps: float
    burst: float
    overdraft: float = 0.0
    min_priority: int = 0

    def __post_init__(self):
        if self.rate_rps <= 0:
            raise ClusterError("quota rate_rps must be > 0")
        if self.burst < 1:
            raise ClusterError("quota burst must be >= 1")
        if self.overdraft < 0:
            raise ClusterError("quota overdraft must be >= 0")


@dataclass
class _Bucket:
    quota: TenantQuota
    tokens: float
    refilled_us: float


class QuotaManager:
    """Virtual-time token buckets, one per tenant.

    ``quotas`` maps tenant names to their :class:`TenantQuota`; the
    ``"*"`` entry (if present) is the default applied to tenants not
    named explicitly.  Without a matching quota a tenant is unmetered.
    """

    def __init__(self, quotas: Optional[Dict[str, TenantQuota]] = None):
        self.quotas: Dict[str, TenantQuota] = dict(quotas or {})
        self._buckets: Dict[str, _Bucket] = {}
        self._admitted: Dict[str, int] = {}
        self._throttled: Dict[str, int] = {}

    def _bucket(self, tenant: str, now_us: float) -> Optional[_Bucket]:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.quotas.get(tenant, self.quotas.get("*"))
            if quota is None:
                return None
            bucket = _Bucket(quota=quota, tokens=quota.burst,
                             refilled_us=now_us)
            self._buckets[tenant] = bucket
        return bucket

    def admit(self, tenant: str, now_us: float, *, priority: int = 0
              ) -> Tuple[bool, Optional[float]]:
        """Spend one token for ``tenant`` at virtual time ``now_us``.

        Returns ``(True, None)`` when admitted, else ``(False,
        retry_after_us)`` — the virtual-time wait until one token has
        refilled, the backpressure hint the front-end surfaces.
        """
        bucket = self._bucket(tenant, now_us)
        if bucket is None:
            self._admitted[tenant] = self._admitted.get(tenant, 0) + 1
            return True, None
        quota = bucket.quota
        if now_us > bucket.refilled_us:
            bucket.tokens = min(
                quota.burst,
                bucket.tokens
                + (now_us - bucket.refilled_us) * quota.rate_rps / 1e6)
        bucket.refilled_us = max(bucket.refilled_us, now_us)
        floor = (-quota.overdraft if priority >= quota.min_priority
                 and quota.overdraft > 0 else 0.0)
        if bucket.tokens - 1.0 >= floor:
            bucket.tokens -= 1.0
            self._admitted[tenant] = self._admitted.get(tenant, 0) + 1
            return True, None
        self._throttled[tenant] = self._throttled.get(tenant, 0) + 1
        deficit = 1.0 - (bucket.tokens - floor)
        return False, deficit * 1e6 / quota.rate_rps

    def stats(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant ``{admitted, throttled, tokens}`` counters."""
        out: Dict[str, Dict[str, float]] = {}
        for tenant in sorted(set(self._admitted) | set(self._throttled)
                             | set(self._buckets)):
            bucket = self._buckets.get(tenant)
            out[tenant] = {
                "admitted": self._admitted.get(tenant, 0),
                "throttled": self._throttled.get(tenant, 0),
                "tokens": (round(bucket.tokens, 6) if bucket is not None
                           else float("inf")),
            }
        return out
