"""Tests for the repro.cluster subsystem: typed replica supervision,
routing, tenant quotas, failure handling and the operator console.

The two load-bearing properties: a one-replica cluster is bit-identical
to a bare ``SimServer`` (ids, records, telemetry — the front-end adds
nothing to the serving model), and every multi-replica run — chaos
included — replays bit-for-bit from its seeds.
"""

import dataclasses
import gc
import math
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.api import NttRequest
from repro.arith import NttParams, find_ntt_prime
from repro.cluster import (
    ClusterFrontend,
    ConsistentHashRouter,
    LeastLoadedRouter,
    QuotaManager,
    Replica,
    TenantQuota,
    WatchdogPolicy,
    derive_fault_plans,
    make_router,
    render_plain,
    watch,
)
from repro.cluster.messages import Drain, Heartbeat, Submit
from repro.errors import ClusterError
from repro.serve import LoadGenerator, SimServer, make_scenario
from repro.serve.faults import make_fault_plan
from repro.serve.queueing import ServeRequest
from repro.serve.telemetry import STATUS_OK, STATUS_THROTTLED
from repro.sim.driver import SimConfig

CONFIG = SimConfig()
N256 = NttParams(256, find_ntt_prime(256, 32))


def _records(results):
    return [dataclasses.asdict(r.record) for r in results]


def _snap(telemetry):
    """Snapshot minus compile-cache keys: the process-wide caches warm
    up across comparison runs, everything else must match exactly."""
    return {k: v for k, v in telemetry.snapshot().items()
            if "cache" not in k}


@st.composite
def _id_stream(draw):
    """N=256 submissions with zero, duplicate and explicit ids, arrivals
    in any order, and either ``submit()`` calling form (``True`` = bare
    request plus keywords, arriving "now")."""
    count = draw(st.integers(min_value=1, max_value=6))
    stream = []
    for _ in range(count):
        arrival = draw(st.integers(min_value=0, max_value=300))
        deadline = draw(st.one_of(st.none(),
                                  st.integers(min_value=0, max_value=400)))
        sreq = ServeRequest(
            request=NttRequest(params=N256,
                               inverse=draw(st.booleans())),
            arrival_us=float(arrival),
            priority=draw(st.integers(min_value=0, max_value=1)),
            deadline_us=(None if deadline is None
                         else float(arrival + deadline)),
            request_id=draw(st.sampled_from([0, 0, 1, 2, 3, 7])))
        stream.append((sreq, draw(st.booleans())))
    return stream


def _stream(count=40, seed=7, scenario="mixed", rate=30000,
            deadline_us=5000.0, tenants=None):
    gen = LoadGenerator(make_scenario(scenario), rate_rps=rate,
                        count=count, seed=seed, deadline_us=deadline_us,
                        tenants=tenants)
    return gen.requests()


class TestBitIdentity:
    """A one-replica cluster == a bare server, bit for bit."""

    def test_offline_serve_matches_bare_server(self):
        reqs = _stream()
        bare = SimServer(CONFIG, num_shards=2)
        cluster = ClusterFrontend(1, CONFIG, num_shards=2)
        a = bare.serve(list(reqs))
        b = cluster.serve(list(reqs))
        assert _records(a) == _records(b)
        assert all((x.response.values if x.ok else None)
                   == (y.response.values if y.ok else None)
                   for x, y in zip(a, b))
        assert _snap(bare.telemetry) == _snap(cluster.cluster_telemetry())

    def test_offline_serve_matches_under_chaos(self):
        reqs = _stream(count=50, scenario="chaos")
        bare = SimServer(CONFIG, num_shards=2, faults="chaos",
                         fault_seed=5, policy="standard")
        cluster = ClusterFrontend(1, CONFIG, num_shards=2,
                                  faults="chaos", fault_seed=5,
                                  policy="standard")
        assert _records(bare.serve(list(reqs))) == \
            _records(cluster.serve(list(reqs)))
        assert _snap(bare.telemetry) == _snap(cluster.cluster_telemetry())

    def test_live_submit_poll_drain_matches_offline(self):
        reqs = _stream()
        offline = ClusterFrontend(1, CONFIG, num_shards=2) \
            .serve(list(reqs))
        live = ClusterFrontend(1, CONFIG, num_shards=2)
        ids = [live.submit(sreq) for sreq in reqs]
        assert ids == [sreq.request_id for sreq in reqs]
        assert _records(live.drain()) == _records(offline)

    @given(stream=_id_stream())
    @settings(max_examples=60, deadline=None)
    def test_random_id_streams_match_bare_server(self, stream):
        """The shared session rules (ids, normalisation, clock fold) hold
        by construction: an offline session then a live one on the
        continued clock leave a 1-replica cluster equal to a server."""
        bare = SimServer(CONFIG, num_shards=2)
        cluster = ClusterFrontend(1, CONFIG, num_shards=2)
        sreqs = [sreq for sreq, _ in stream]
        assert _records(bare.serve(sreqs)) == _records(cluster.serve(sreqs))
        live_ids = []
        for front in (bare, cluster):
            live_ids.append([
                front.submit(sreq.request, priority=sreq.priority,
                             request_id=sreq.request_id)
                if keywords else front.submit(sreq)
                for sreq, keywords in stream])
        assert live_ids[0] == live_ids[1]
        assert _records(bare.drain()) == _records(cluster.drain())
        assert _snap(bare.telemetry) == _snap(cluster.cluster_telemetry())

    def test_second_session_continues_the_clock(self):
        # The cluster folds its virtual clock forward across sessions
        # exactly like a bare server's monotonic _clock_us.
        reqs = _stream(count=12)
        bare = SimServer(CONFIG)
        cluster = ClusterFrontend(1, CONFIG)
        first = (_records(bare.serve(list(reqs))),
                 _records(cluster.serve(list(reqs))))
        assert first[0] == first[1]
        again = (_records(bare.serve(list(reqs))),
                 _records(cluster.serve(list(reqs))))
        assert again[0] == again[1]
        # Arrivals really were offset, not restarted.
        assert again[0][0]["arrival_us"] > first[0][0]["arrival_us"]


class TestChaosReplay:
    def test_four_replica_chaos_replays_bit_identical(self):
        reqs = _stream(count=50, scenario="chaos", deadline_us=8000.0)

        def run():
            fe = ClusterFrontend(4, CONFIG, num_shards=2,
                                 faults="chaos", fault_seed=5,
                                 policy="standard")
            return _records(fe.serve(list(reqs)))

        first, second = run(), run()
        assert first == second
        assert len({r["replica"] for r in first}) > 1

    def test_fault_plans_derive_per_replica(self):
        base = make_fault_plan("chaos", 11)
        plans = derive_fault_plans(base, 3)
        assert plans[0].seed == 11  # replica 0 keeps the base seed
        assert len({p.seed for p in plans}) == 3
        assert all(p.profile is base.profile for p in plans)
        assert derive_fault_plans(None, 3) == [None, None, None]

    def test_explicit_fault_plans_length_checked(self):
        with pytest.raises(ClusterError):
            ClusterFrontend(2, CONFIG, fault_plans=[None])


class TestRouting:
    def test_hash_same_key_same_replica(self):
        router = ConsistentHashRouter(4)
        candidates = [0, 1, 2, 3]
        key = ("ntt", 256, 12289, 3, False)
        picks = {router.route(key, i, now_us=0.0, candidates=candidates,
                              loads={}) for i in range(20)}
        assert len(picks) == 1

    def test_hash_stability_under_membership_change(self):
        router = ConsistentHashRouter(4)
        keys = [("k", i) for i in range(200)]
        before = {k: router.route(k, 0, now_us=0.0,
                                  candidates=[0, 1, 2, 3], loads={})
                  for k in keys}
        router.remove_replica(3)
        after = {k: router.route(k, 0, now_us=0.0,
                                 candidates=[0, 1, 2], loads={})
                 for k in keys}
        # Only keys replica 3 owned may move; everyone else stays put.
        assert all(after[k] == owner for k, owner in before.items()
                   if owner != 3)
        router.add_replica(3)
        restored = {k: router.route(k, 0, now_us=0.0,
                                    candidates=[0, 1, 2, 3], loads={})
                    for k in keys}
        assert restored == before

    def test_hash_routes_around_down_replicas(self):
        router = ConsistentHashRouter(2)
        key = ("ntt", 512, 12289, 3, False)
        home = router.route(key, 0, now_us=0.0, candidates=[0, 1],
                            loads={})
        other = 1 - home
        assert router.route(key, 0, now_us=0.0, candidates=[other],
                            loads={}) == other

    def test_least_loaded_deterministic_tie_break(self):
        router = LeastLoadedRouter()
        # Equal loads: lowest replica id wins, every time.
        assert router.route(None, 1, now_us=0.0, candidates=[2, 0, 1],
                            loads={0: 3, 1: 3, 2: 3}) == 0
        assert router.route(None, 2, now_us=0.0, candidates=[2, 1],
                            loads={1: 5, 2: 5}) == 1

    def test_least_loaded_affinity_epoch(self):
        router = LeastLoadedRouter(epoch_us=1000.0)
        key = ("ntt", 256, 12289, 3, False)
        first = router.route(key, 1, now_us=0.0, candidates=[0, 1],
                             loads={0: 0, 1: 5})
        assert first == 0
        # Load flips, but the lease pins the shape until the epoch ends.
        assert router.route(key, 2, now_us=500.0, candidates=[0, 1],
                            loads={0: 50, 1: 0}) == 0
        # Epoch over: re-evaluate.
        assert router.route(key, 3, now_us=1500.0, candidates=[0, 1],
                            loads={0: 50, 1: 0}) == 1

    def test_least_loaded_lease_skips_down_replica(self):
        router = LeastLoadedRouter(epoch_us=1000.0)
        key = ("k",)
        assert router.route(key, 1, now_us=0.0, candidates=[0, 1],
                            loads={0: 0, 1: 1}) == 0
        assert router.route(key, 2, now_us=10.0, candidates=[1],
                            loads={0: 0, 1: 1}) == 1

    def test_batching_affinity_preserved_across_replicas(self):
        # One hot shape through 4 replicas must coalesce exactly as it
        # does through 1: routing by merge key keeps the whole shape on
        # one replica, so batch occupancy survives the scale-out.
        reqs = _stream(count=30, scenario="skewed", rate=100000,
                       deadline_us=None)
        solo = ClusterFrontend(1, CONFIG, max_banks=8)
        solo.serve(list(reqs))
        spread = ClusterFrontend(4, CONFIG, max_banks=8)
        spread.serve(list(reqs))
        assert (spread.cluster_snapshot()["mean_batch_occupancy"]
                >= solo.cluster_snapshot()["mean_batch_occupancy"] - 1e-9)

    def test_make_router(self):
        assert isinstance(make_router("hash", 2), ConsistentHashRouter)
        assert isinstance(make_router("least-loaded", 2),
                          LeastLoadedRouter)
        router = LeastLoadedRouter()
        assert make_router(router, 2) is router
        with pytest.raises(ClusterError):
            make_router("random", 2)

    def test_no_candidates_raises(self):
        with pytest.raises(ClusterError):
            ConsistentHashRouter(2).route(("k",), 1, now_us=0.0,
                                          candidates=[], loads={})
        with pytest.raises(ClusterError):
            LeastLoadedRouter().route(("k",), 1, now_us=0.0,
                                      candidates=[], loads={})

    # -- membership churn battery (autoscale / failover remaps) --------

    def test_scale_out_moves_only_new_owner_keys(self):
        router = ConsistentHashRouter(4)
        keys = [("k", i) for i in range(300)]
        before = {k: router.route(k, 0, now_us=0.0,
                                  candidates=[0, 1, 2, 3], loads={})
                  for k in keys}
        router.add_replica(4)
        after = {k: router.route(k, 0, now_us=0.0,
                                 candidates=[0, 1, 2, 3, 4], loads={})
                 for k in keys}
        moved = {k for k in keys if after[k] != before[k]}
        # Minimal remap: every moved key landed on the new replica, and
        # the new replica picked up a non-trivial share.
        assert moved and all(after[k] == 4 for k in moved)
        assert len(moved) < len(keys)

    def test_churn_sequence_keeps_unaffected_keys_pinned(self):
        router = ConsistentHashRouter(4)
        keys = [("shape", i, 12289) for i in range(200)]
        members = [0, 1, 2, 3]

        def table():
            return {k: router.route(k, 0, now_us=0.0,
                                    candidates=list(members), loads={})
                    for k in keys}

        snapshot = table()
        for step, (op, replica) in enumerate(
                [("rm", 1), ("add", 4), ("rm", 0), ("add", 1)]):
            if op == "rm":
                router.remove_replica(replica)
                members.remove(replica)
                gone, came = replica, None
            else:
                router.add_replica(replica)
                members.append(replica)
                gone, came = None, replica
            fresh = table()
            for k in keys:
                if fresh[k] == snapshot[k]:
                    continue
                # A key may move only off the removed replica or onto
                # the added one — never between two surviving replicas.
                assert snapshot[k] == gone or fresh[k] == came, (
                    step, k, snapshot[k], fresh[k])
            snapshot = fresh

    def test_least_loaded_remove_purges_leases(self):
        router = LeastLoadedRouter(epoch_us=1e6)
        key = ("hot",)
        assert router.route(key, 1, now_us=0.0, candidates=[0, 1],
                            loads={0: 5, 1: 0}) == 1
        router.remove_replica(1)
        router.add_replica(1)
        # The lease died with the membership change: the reborn replica
        # must win on load, not on a stale pin.
        assert router.route(key, 2, now_us=10.0, candidates=[0, 1],
                            loads={0: 0, 1: 50}) == 0

    def test_supervised_least_loaded_skips_dark_replicas(self):
        # Under crash chaos the frontend only offers UP replicas with a
        # clean link as candidates; leases onto dark replicas are
        # re-evaluated, so every request still lands exactly once.
        fe = ClusterFrontend(
            3, CONFIG, router="least-loaded",
            replica_faults="crashy", replica_fault_seed=7,
            watchdog=WatchdogPolicy(heartbeat_us=100.0, suspect_after=1,
                                    down_after=2, restart_delay_us=300.0))
        results = fe.serve(_stream(count=120, scenario="skewed",
                                   rate=20000, deadline_us=None))
        ids = [r.record.request_id for r in results]
        assert len(ids) == len(set(ids)) == 120
        assert all(r.ok for r in results)
        assert fe.health.failovers > 0


class TestQuotas:
    def test_token_bucket_throttles_and_refills(self):
        quotas = QuotaManager({"t": TenantQuota(rate_rps=1000.0,
                                                burst=2.0)})
        assert quotas.admit("t", 0.0) == (True, None)
        assert quotas.admit("t", 0.0) == (True, None)
        ok, retry = quotas.admit("t", 0.0)
        assert not ok
        assert retry == pytest.approx(1000.0)  # one token @ 1000 rps
        # One virtual millisecond later, exactly one token refilled.
        assert quotas.admit("t", 1000.0) == (True, None)
        assert quotas.admit("t", 1000.0)[0] is False

    def test_priority_overdraft(self):
        quotas = QuotaManager({"t": TenantQuota(
            rate_rps=1000.0, burst=1.0, overdraft=2.0, min_priority=1)})
        assert quotas.admit("t", 0.0, priority=0) == (True, None)
        assert quotas.admit("t", 0.0, priority=0)[0] is False
        # Urgent traffic may overdraw by two tokens...
        assert quotas.admit("t", 0.0, priority=1) == (True, None)
        assert quotas.admit("t", 0.0, priority=1) == (True, None)
        # ...then it too sheds.
        assert quotas.admit("t", 0.0, priority=1)[0] is False

    def test_unmetered_without_quota(self):
        quotas = QuotaManager()
        assert all(quotas.admit("anyone", 0.0) == (True, None)
                   for _ in range(100))

    def test_default_quota_applies_to_unnamed_tenants(self):
        quotas = QuotaManager({"*": TenantQuota(rate_rps=1000.0,
                                                burst=1.0)})
        assert quotas.admit("a", 0.0) == (True, None)
        assert quotas.admit("a", 0.0)[0] is False
        assert quotas.admit("b", 0.0) == (True, None)  # own bucket

    def test_invalid_quota_raises(self):
        with pytest.raises(ClusterError):
            TenantQuota(rate_rps=0.0, burst=2.0)
        with pytest.raises(ClusterError):
            TenantQuota(rate_rps=100.0, burst=0.5)
        with pytest.raises(ClusterError):
            TenantQuota(rate_rps=100.0, burst=2.0, overdraft=-1.0)

    def test_noisy_neighbor_shed_at_the_front_door(self):
        reqs = _stream(count=120, scenario="skewed", rate=50000,
                       deadline_us=None,
                       tenants=LoadGenerator.noisy_neighbor())
        fe = ClusterFrontend(2, CONFIG, router="least-loaded",
                             quotas={"hog": TenantQuota(rate_rps=5000.0,
                                                        burst=5.0)})
        results = fe.serve(list(reqs))
        assert len(results) == len(reqs)
        throttled = [r for r in results
                     if r.record.status == STATUS_THROTTLED]
        assert throttled and all(r.record.tenant == "hog"
                                 for r in throttled)
        assert all(not r.ok for r in throttled)
        # The neighbors ride through untouched.
        stats = fe.quota_stats()
        assert stats["hog"]["throttled"] == len(throttled)
        for tenant, s in stats.items():
            if tenant != "hog":
                assert s["throttled"] == 0
        # Front-door drops are attributed to no replica (-1).
        assert all(r.record.replica == -1 for r in throttled)
        snap = fe.cluster_snapshot()
        assert snap["throttled"] == len(throttled)

    def test_throttled_result_pollable_before_drain(self):
        fe = ClusterFrontend(1, CONFIG,
                             quotas={"*": TenantQuota(rate_rps=100.0,
                                                      burst=1.0)})
        reqs = _stream(count=3, rate=1000000, deadline_us=None)
        ids = [fe.submit(sreq) for sreq in reqs]
        polled = [fe.poll(i) for i in ids]
        assert polled[1] is not None
        assert polled[1].record.status == STATUS_THROTTLED
        drained = fe.drain()
        assert [r.record.request_id for r in drained] == ids


class TestFailureHandling:
    def test_route_around_poisoned_replica(self):
        reqs = _stream(count=30, scenario="skewed", rate=20000,
                       deadline_us=None)
        # Find where the ring sends the hot shape, and poison exactly
        # that replica so traffic *must* route around it.
        from repro.api import merge_key
        probe = ConsistentHashRouter(2)
        home = probe.route(merge_key(reqs[0].request), 0, now_us=0.0,
                           candidates=[0, 1], loads={})
        plans = [None, None]
        plans[home] = make_fault_plan("rate:1.0", 3)
        fe = ClusterFrontend(2, CONFIG, router="hash",
                             fault_plans=plans, policy="standard")
        saw_down = False
        for sreq in reqs:
            fe.submit(sreq)
            fe.advance(sreq.arrival_us + 3000.0)
            saw_down = saw_down or not \
                fe.replicas[home].send(Heartbeat(fe.now_us)).up
        results = fe.drain()
        assert saw_down  # the breaker lift took the replica dark
        done = [r for r in results if r.record.status == STATUS_OK]
        assert done  # the cluster stayed available throughout
        # Nothing the poisoned replica touched ever completed; route-
        # around delivered every completion from the healthy one.
        assert {r.record.replica for r in done} == {1 - home}
        assert any(r.record.replica == home for r in results
                   if r.record.status != STATUS_OK)

    def test_unknown_message_raises(self):
        replica = Replica(0, CONFIG)
        with pytest.raises(ClusterError):
            replica.send(object())

    def test_replica_translates_cluster_time(self):
        replica = Replica(0, CONFIG)
        reply = replica.send(Submit(sreq=ServeRequest(
            request=_stream(count=1)[0].request, arrival_us=123.0,
            request_id=9)))
        assert reply.request_id == 9
        hb = replica.send(Heartbeat(now_us=123.0))
        assert hb.replica == 0 and hb.outstanding == 1

    def test_a_dropped_replica_is_freed_without_the_cyclic_collector(self):
        """A replica, its server and its telemetry hold no reference
        cycle: with the cyclic collector off, dropping the last
        reference to a replica that served requests frees all three."""
        gc.disable()
        try:
            replica = Replica(0, CONFIG)
            for sreq in _stream(count=4):
                replica.send(Submit(sreq=sreq))
            replica.send(Drain())
            dropped = [weakref.ref(obj) for obj in (
                replica, replica.server, replica.server.telemetry)]
            del replica
            assert [ref() for ref in dropped] == [None] * 3
        finally:
            gc.enable()

    def test_poll_unknown_id_returns_none(self):
        fe = ClusterFrontend(2, CONFIG)
        assert fe.poll(999) is None
        fe.submit(_stream(count=1)[0])
        assert fe.poll(999) is None

    def test_replica_count_validated(self):
        with pytest.raises(ClusterError):
            ClusterFrontend(0, CONFIG)


class TestConsole:
    def test_render_plain_one_row_per_replica(self):
        fe = ClusterFrontend(3, CONFIG)
        fe.serve(_stream(count=10))
        frame = render_plain(fe)
        lines = frame.splitlines()
        assert "replica" in lines[1]
        assert [ln.split()[0] for ln in lines[3:6]] == ["r0", "r1", "r2"]
        assert all("up" in ln for ln in lines[3:6])

    def test_render_plain_shows_health_of_a_plain_cluster(self):
        fe = ClusterFrontend(2, CONFIG)
        fe.serve(_stream(count=6))
        assert render_plain(fe).splitlines()[-1] == (
            "health: failovers=0 restarts=0 orphans=0 dups=0 "
            "scale=+0/-0 mttr=0us")

    def test_render_plain_shows_tenant_counters(self):
        fe = ClusterFrontend(1, CONFIG,
                             quotas={"*": TenantQuota(rate_rps=100.0,
                                                      burst=1.0)})
        for sreq in _stream(count=4, rate=1000000, deadline_us=None,
                            tenants=(("solo", 1.0),)):
            fe.submit(sreq)
        assert "tenants: solo:" in render_plain(fe)

    def test_watch_emits_frames_and_matches_offline(self):
        reqs = _stream()
        offline = ClusterFrontend(2, CONFIG, num_shards=2) \
            .serve(list(reqs))
        frames = []
        fe = ClusterFrontend(2, CONFIG, num_shards=2)
        results = watch(fe, list(reqs), every_us=400.0,
                        emit=frames.append, max_frames=2)
        # Watching the run does not change it.
        assert _records(results) == _records(offline)
        # max_frames caps the stream (plus the one post-drain frame).
        assert len(frames) == 3
        assert all("replica" in f for f in frames)

    @pytest.mark.parametrize("every_us", [0.0, -200.0, math.nan])
    def test_watch_rejects_a_cadence_that_never_advances(self, every_us):
        """A zero, negative or NaN cadence never reaches an arrival, so
        the loop would spin forever: it raises before the first tick."""
        frames = []
        with pytest.raises(ValueError, match="cadence"):
            watch(ClusterFrontend(1, CONFIG), _stream(count=3),
                  every_us=every_us, emit=frames.append)
        assert frames == []


class TestClusterTelemetry:
    def test_merged_records_keep_replica_attribution(self):
        fe = ClusterFrontend(3, CONFIG, num_shards=2)
        fe.serve(_stream(count=30))
        merged = fe.cluster_telemetry()
        by_replica = {r.replica for r in merged.records}
        assert by_replica <= {0, 1, 2}
        assert len(by_replica) > 1
        assert len(merged.records) == 30

    def test_snapshot_counts_replicas(self):
        fe = ClusterFrontend(2, CONFIG)
        fe.serve(_stream(count=10))
        snap = fe.cluster_snapshot()
        # Front-door telemetry + two replicas contribute parts.
        assert snap["replicas"] == 3
        assert snap["requests"] == 10

    def test_plain_cluster_snapshot_has_zero_health(self):
        fe = ClusterFrontend(2, CONFIG, num_shards=2)
        fe.serve(_stream(count=10))
        health = fe.cluster_snapshot()["cluster"]
        assert health == {
            "faults_seen": {}, "suspects": 0, "downs": 0, "failovers": 0,
            "restarts": 0, "orphans_recovered": 0, "duplicates_dropped": 0,
            "scale_out": 0, "scale_in": 0, "recoveries": 0, "mttr_us": 0.0}

    def test_heartbeats_cover_every_replica(self):
        fe = ClusterFrontend(3, CONFIG)
        fe.serve(_stream(count=6))
        replies = fe.heartbeats(want_snapshot=True)
        assert [hb.replica for hb in replies] == [0, 1, 2]
        assert all(hb.snapshot is not None for hb in replies)
        assert sum(hb.snapshot["completed"] for hb in replies) <= 6


#: Operand pool for the live-session state machine (N=256 transforms).
_OPERANDS = [tuple(random.Random(seed).randrange(N256.q)
                   for _ in range(N256.n)) for seed in range(4)]


class LiveClusterMachine(RuleBasedStateMachine):
    """Random interleavings of ``submit``/``poll``/``advance`` on a live
    cluster session, closed by ``drain``: the drained run must equal an
    offline ``serve()`` of the same stream, every id must come back
    exactly once in submission order, and every early poll must have
    seen its request's final result."""

    @initialize(replicas=st.integers(min_value=1, max_value=3),
                gaps=st.lists(st.integers(min_value=0, max_value=120),
                              min_size=12, max_size=12),
                kinds=st.lists(st.integers(min_value=0, max_value=7),
                               min_size=12, max_size=12))
    def setup(self, replicas, gaps, kinds):
        self.replicas = replicas
        arrivals = [float(sum(gaps[:i + 1])) for i in range(len(gaps))]
        # A kind picks the operands (kind % 4) and the direction
        # (kind >= 4); kind 3 carries a tight deadline, so a window
        # close can expire it.
        self.stream = [
            ServeRequest(
                request=NttRequest(params=N256,
                                   values=_OPERANDS[kind % 4],
                                   inverse=kind >= 4),
                arrival_us=arrival,
                deadline_us=arrival + 30.0 if kind == 3 else None)
            for arrival, kind in zip(arrivals, kinds)]
        self.frontend = ClusterFrontend(replicas, CONFIG, num_shards=2)
        self.submitted = []
        self.polled = {}

    def _pending_arrival(self):
        if len(self.submitted) < len(self.stream):
            return self.stream[len(self.submitted)].arrival_us
        return None

    @precondition(lambda self: self._pending_arrival() is not None)
    @rule()
    def submit(self):
        sreq = self.stream[len(self.submitted)]
        self.submitted.append(self.frontend.submit(sreq))

    @precondition(lambda self: self.submitted)
    @rule(pick=st.integers(min_value=0, max_value=11))
    def poll(self, pick):
        rid = self.submitted[pick % len(self.submitted)]
        result = self.frontend.poll(rid)
        if result is not None:
            self.polled[rid] = (dataclasses.asdict(result.record),
                                result.response.values if result.ok
                                else None)

    @rule(share=st.floats(min_value=0.0, max_value=1.0))
    def advance(self, share):
        # A fresh frontend's session starts at 0, so its absolute
        # clock is already session-relative.
        now = self.frontend.now_us
        upcoming = self._pending_arrival()
        limit = upcoming if upcoming is not None else now + 500.0
        self.frontend.advance(min(limit, now + share * (limit - now)))

    def teardown(self):
        drained = self.frontend.drain()
        prefix = self.stream[:len(self.submitted)]
        offline = ClusterFrontend(self.replicas, CONFIG, num_shards=2) \
            .serve(list(prefix))
        assert _records(drained) == _records(offline)
        assert [r.response.values if r.ok else None for r in drained] == \
            [r.response.values if r.ok else None for r in offline]
        assert [r.record.request_id for r in drained] == self.submitted
        final = {r.record.request_id: r for r in drained}
        for rid, (record, values) in self.polled.items():
            assert record == dataclasses.asdict(final[rid].record)
            assert values == (final[rid].response.values
                              if final[rid].ok else None)


LiveClusterMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=40, deadline=None)
TestLiveClusterMachine = LiveClusterMachine.TestCase
