"""Live operator console over a :class:`ClusterFrontend`.

The console is a *driver* of the deterministic virtual clock, not an
observer of wall time: each frame submits every arrival whose virtual
time has come and then idle-ticks the cluster
(:meth:`ClusterFrontend.advance`), so windows close and results settle
exactly as they would under an offline :meth:`ClusterFrontend.serve`
of the same stream — watching a run does not change it.  The
submit-before-advance order inside a frame is what preserves that
bit-identity: advancing first would clamp same-frame arrivals forward.

Each frame renders through :func:`render_plain`, a fixed-width table
any terminal (and the CI log) can show.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

from ..serve.queueing import ServeRequest
from ..serve.server import ServeResult
from .frontend import ClusterFrontend

__all__ = ["render_plain", "watch"]

#: Columns of the per-replica table, with formatting widths.
_COLUMNS = (("replica", 7), ("state", 7), ("queue", 5), ("live", 5),
            ("backlog", 7), ("brk", 4), ("done", 6), ("thr", 5),
            ("p50_us", 9), ("p99_us", 9), ("goodput", 8))


def _state_cell(hb) -> str:
    """The watchdog's lifecycle verdict unless it is ``up``; the
    breaker view then.  Dark states render uppercase so they jump
    out."""
    if hb.lifecycle != "up":
        return (hb.lifecycle.upper()
                if hb.lifecycle in ("down", "suspect") else hb.lifecycle)
    return "up" if hb.up else "DOWN"


def _rows(frontend: ClusterFrontend) -> List[List[str]]:
    rows = []
    for hb in frontend.heartbeats(want_snapshot=True):
        snap = hb.snapshot or {}
        rows.append([
            f"r{hb.replica}",
            _state_cell(hb),
            str(hb.queue_depth),
            str(hb.outstanding),
            str(hb.backlog),
            str(sum(1 for state, _ in hb.breakers.values()
                    if state == "open")),
            str(snap.get("completed", 0)),
            str(snap.get("failed", 0) + snap.get("expired", 0)),
            f"{snap.get('latency_p50_us', 0.0):.1f}",
            f"{snap.get('latency_p99_us', 0.0):.1f}",
            f"{snap.get('goodput_rps', 0.0):.0f}",
        ])
    return rows


def render_plain(frontend: ClusterFrontend) -> str:
    """One fixed-width console frame: the replica table, then tenant
    quota counters (skipped while no tenant is metered), then the
    self-healing counters."""
    header = " ".join(name.rjust(width) for name, width in _COLUMNS)
    lines = [f"cluster @ {frontend.now_us:.1f}us "
             f"({len(frontend.replicas)} replicas)",
             header, "-" * len(header)]
    for row in _rows(frontend):
        lines.append(" ".join(cell.rjust(width) for cell, (_, width)
                              in zip(row, _COLUMNS)))
    stats = frontend.quota_stats()
    if stats:
        lines.append("tenants: " + "  ".join(
            f"{tenant or '(none)'}: {int(s['admitted'])} ok"
            f"/{int(s['throttled'])} throttled"
            for tenant, s in stats.items()))
    health = frontend.health.snapshot()
    lines.append(
        f"health: failovers={health['failovers']} "
        f"restarts={health['restarts']} "
        f"orphans={health['orphans_recovered']} "
        f"dups={health['duplicates_dropped']} "
        f"scale=+{health['scale_out']}/-{health['scale_in']} "
        f"mttr={health['mttr_us']:.0f}us")
    return "\n".join(lines)


def watch(frontend: ClusterFrontend,
          requests: Iterable[ServeRequest], *,
          every_us: float = 200.0,
          emit: Optional[Callable[[str], None]] = print,
          max_frames: Optional[int] = None) -> List[ServeResult]:
    """Run the watch loop: feed ``requests`` (arrivals session-relative,
    like ``submit()``) into ``frontend`` on the virtual-time cadence
    ``every_us``, rendering one frame per tick, and return the drained
    results (cluster submission order).

    Frames go through ``emit``; ``max_frames`` caps emitted frames so
    long runs don't flood a log — the loop itself always runs to
    completion.  ``every_us`` must be positive (a zero or NaN cadence
    never reaches an arrival): anything else raises ``ValueError``.
    """
    if not every_us > 0:
        raise ValueError(f"watch cadence must be > 0 us, got {every_us}")
    pending = sorted(requests, key=lambda s: (s.arrival_us, s.request_id))
    cursor = 0
    tick = 0
    emitted = 0
    while True:
        tick += 1
        now = tick * every_us
        while (cursor < len(pending)
               and pending[cursor].arrival_us <= now):
            frontend.submit(pending[cursor])
            cursor += 1
        frontend.advance(now)
        if emit is not None and (max_frames is None
                                 or emitted < max_frames):
            emit(render_plain(frontend))
            emitted += 1
        if cursor >= len(pending):
            break
    results = frontend.drain()
    if emit is not None:
        emit(render_plain(frontend))
    return results
