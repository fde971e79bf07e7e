"""Tests for the self-healing cluster tier: replica-level fault
domains (crash/hang/partition), the virtual-time watchdog (lifecycle,
supervised restart, failover with in-flight orphan recovery), and
heartbeat-driven auto-scaling.

The load-bearing properties:

* a zero-rate replica-fault plan drops to ``None``: no link drops, the
  watchdog skips its no-op ticks, and the run is bit-identical to a
  cluster built without a plan;
* under crash chaos every acknowledged request is served **exactly
  once** (no loss, no duplicates, submission order), and the whole
  run — failovers, restarts, scale events, health counters — replays
  bit-for-bit from its seeds.
"""

import dataclasses

import pytest

from repro.cluster import (
    DOWN,
    RETIRED,
    SUSPECT,
    UP,
    AutoscalePolicy,
    ClusterFrontend,
    ReplicaSupervisor,
    TenantQuota,
    WatchdogPolicy,
)
from repro.cluster.messages import Drain, Heartbeat
from repro.errors import ClusterError, ShardFailure
from repro.serve import LoadGenerator, make_scenario
from repro.serve.faults import (
    CRASH,
    HANG,
    PARTITION,
    REPLICA_FAULT_PROFILES,
    ReplicaFaultPlan,
    ReplicaFaultProfile,
    make_replica_fault_plan,
)
from repro.serve.telemetry import (
    STATUS_OK,
    STATUS_ORPHANED,
    Telemetry,
    merge_snapshots,
)
from repro.sim.driver import SimConfig

NOVERIFY = SimConfig(verify=False)

#: Tight watchdog for tests: probe every 100us, suspect after one miss,
#: down after two, restart 300us later.
FAST_WATCHDOG = WatchdogPolicy(heartbeat_us=100.0, suspect_after=1,
                               down_after=2, restart_delay_us=300.0)


def _stream(count=40, seed=7, scenario="mixed", rate=20000):
    gen = LoadGenerator(make_scenario(scenario), rate_rps=rate,
                        count=count, seed=seed)
    return gen.requests()


def _records(results):
    return [dataclasses.asdict(r.record) for r in results]


def _chaos_run(profile="crashy", seed=7, count=120, replicas=4, **kw):
    fe = ClusterFrontend(replicas, NOVERIFY, replica_faults=profile,
                         replica_fault_seed=seed, watchdog=FAST_WATCHDOG,
                         **kw)
    results = fe.serve(_stream(count=count))
    return fe, results


class TestReplicaFaultPlan:
    def test_timeline_is_pure_and_seeded(self):
        a = ReplicaFaultPlan("chaos", 11)
        b = ReplicaFaultPlan("chaos", 11)
        c = ReplicaFaultPlan("chaos", 12)
        events = [(r, i, a.event(r, i)) for r in range(4)
                  for i in range(12)]
        assert events == [(r, i, b.event(r, i)) for r in range(4)
                          for i in range(12)]
        assert events != [(r, i, c.event(r, i)) for r in range(4)
                          for i in range(12)]

    def test_crash_is_sticky_windows_heal(self):
        profile = ReplicaFaultProfile(crash_rate=1.0, interval_us=100.0)
        plan = ReplicaFaultPlan(profile, 0)
        event = plan.event(0, 0)
        assert event.kind == CRASH and event.end_us == float("inf")
        assert plan.outage(0, event.onset_us + 1e6) is event

        windows = ReplicaFaultPlan(
            ReplicaFaultProfile(hang_rate=1.0, interval_us=1000.0,
                                hang_us=50.0), 0)
        hang = windows.event(0, 0)
        assert hang.kind == HANG
        assert windows.outage(0, hang.onset_us).kind == HANG
        assert windows.outage(0, hang.end_us + 1.0,
                              hang.end_us) is None

    def test_precedence_and_one_event_per_interval(self):
        plan = ReplicaFaultPlan(
            ReplicaFaultProfile(crash_rate=1.0, hang_rate=1.0,
                                partition_rate=1.0, interval_us=100.0), 3)
        for interval in range(8):
            assert plan.event(1, interval).kind == CRASH

    def test_incarnation_birth_filters_old_events(self):
        plan = ReplicaFaultPlan(
            ReplicaFaultProfile(crash_rate=1.0, interval_us=100.0), 0)
        onset = plan.event(0, 5).onset_us
        # Born after the onset: the event died with the old incarnation.
        assert plan.outage(0, onset + 1.0, alive_since_us=onset) is None
        # Born before it: the crash fires.
        assert plan.outage(0, onset + 1.0,
                           alive_since_us=onset - 50.0).kind == CRASH
        # alive == now: nothing can have fired yet.
        assert plan.outage(0, 5000.0, alive_since_us=5000.0) is None

    def test_make_replica_fault_plan_zero_rate_is_none(self):
        assert make_replica_fault_plan(None) is None
        assert make_replica_fault_plan("none") is None
        assert make_replica_fault_plan("rate:0") is None
        assert make_replica_fault_plan(
            ReplicaFaultProfile(name="idle")) is None
        plan = make_replica_fault_plan("rate:0.2", 9)
        assert plan.seed == 9 and plan.profile.crash_rate == 0.2
        assert make_replica_fault_plan(plan) is plan
        for name, profile in REPLICA_FAULT_PROFILES.items():
            made = make_replica_fault_plan(name, 1)
            assert (made is None) == (not profile.active)
        with pytest.raises(ValueError):
            make_replica_fault_plan("nope")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            ReplicaFaultProfile(crash_rate=1.5)
        with pytest.raises(ValueError):
            ReplicaFaultProfile(interval_us=0.0)


class TestSupervisedIdentity:
    """Supervision must cost nothing when it has nothing to do."""

    def test_zero_rate_plan_is_bit_identical(self):
        reqs = list(_stream())
        plain = ClusterFrontend(4, NOVERIFY, num_shards=2)
        zeroed = ClusterFrontend(4, NOVERIFY, num_shards=2,
                                 replica_faults="rate:0",
                                 replica_fault_seed=99)
        a, b = plain.serve(list(reqs)), zeroed.serve(list(reqs))
        assert _records(a) == _records(b)
        assert all((x.response.values if x.ok else None)
                   == (y.response.values if y.ok else None)
                   for x, y in zip(a, b))
        assert plain.cluster_snapshot() == zeroed.cluster_snapshot()

    def test_inert_supervision_is_bit_identical(self):
        # autoscale (N, N) runs every watchdog tick, but probes are
        # read-only and no scale event can fire: results, records and
        # the whole snapshot must match the tick-free plain run.
        reqs = list(_stream())
        plain = ClusterFrontend(4, NOVERIFY, num_shards=2)
        inert = ClusterFrontend(4, NOVERIFY, num_shards=2,
                                autoscale=(4, 4))
        a, b = plain.serve(list(reqs)), inert.serve(list(reqs))
        assert _records(a) == _records(b)
        inert_snap = inert.cluster_snapshot()
        assert plain.cluster_snapshot() == inert_snap
        health = inert_snap["cluster"]
        assert health["failovers"] == health["restarts"] == 0
        assert health["scale_out"] == health["scale_in"] == 0


class TestCrashRecovery:
    def test_exactly_once_in_submission_order(self):
        fe, results = _chaos_run("crashy")
        assert fe.health.faults_seen.get(CRASH, 0) > 0
        assert fe.health.failovers > 0
        ids = [r.record.request_id for r in results]
        assert len(ids) == len(set(ids)) == 120
        assert all(r.record.status == STATUS_OK for r in results)

    def test_chaos_replays_bit_identical_twice(self):
        def key(fe, results):
            return (_records(results), fe.health.snapshot(),
                    fe.cluster_snapshot())

        first = key(*_chaos_run("chaos"))
        second = key(*_chaos_run("chaos"))
        assert first == second

    def test_hang_recovery_never_double_serves(self):
        fe, results = _chaos_run("flaky")
        assert (fe.health.faults_seen.get(HANG, 0)
                + fe.health.faults_seen.get(PARTITION, 0)) > 0
        ids = [r.record.request_id for r in results]
        assert len(ids) == len(set(ids)) == 120
        # A slow-then-recovered replica's extra copies are orphan-marked
        # in telemetry, never returned as results.
        assert all(r.record.status != STATUS_ORPHANED for r in results)

    def test_live_session_drain_order_and_health(self):
        fe = ClusterFrontend(3, NOVERIFY, replica_faults="crashy",
                             replica_fault_seed=3, watchdog=FAST_WATCHDOG)
        reqs = list(_stream(count=60, rate=15000))
        ids = [fe.submit(sreq) for sreq in reqs]
        fe.advance(max(s.arrival_us for s in reqs) + 2000.0)
        results = fe.drain()
        assert [r.record.request_id for r in results] == ids
        assert fe.health.restarts >= 0  # counters exist and are coherent
        assert len(fe.health.mttr_samples_us) == \
            fe.health.snapshot()["recoveries"]

    def test_failover_restamps_serving_replica(self):
        # Every returned record must be owned by the telemetry of the
        # replica id it claims — re-routed requests are re-stamped with
        # the actually-serving replica, not the one that crashed.
        fe, results = _chaos_run("crashy", seed=7, count=120)
        assert fe.health.orphans_recovered > 0
        by_replica = {}
        for sup in fe._supervisors:
            for telemetry in (sup.retired_telemetries
                              + [sup.replica.server.telemetry]):
                by_replica.setdefault(sup.slot, []).extend(
                    telemetry.records)
        for result in results:
            record = result.record
            assert any(record is candidate
                       for candidate in by_replica[record.replica])

    def test_cluster_rollup_counts_each_request_once(self):
        fe, results = _chaos_run("chaos", seed=13, count=120)
        snap = fe.cluster_snapshot()
        assert snap["requests"] == 120
        assert snap["completed"] == 120
        assert snap["availability"] == 1.0
        merged = fe.cluster_telemetry()
        by_status = {}
        for record in merged.records:
            by_status[record.status] = by_status.get(record.status, 0) + 1
        assert by_status.get(STATUS_OK, 0) == 120
        # Duplicate/lost copies are visible — as orphans, not requests.
        assert snap["orphaned"] == by_status.get(STATUS_ORPHANED, 0)


class TestWatchdogLifecycle:
    def test_missed_heartbeat_state_machine(self):
        class _Dark:
            def send(self, message):
                raise AssertionError("dark replica must not be reached")

        plan = ReplicaFaultPlan(
            ReplicaFaultProfile(hang_rate=1.0, interval_us=100.0,
                                hang_us=1e9), 0)
        sup = ReplicaSupervisor(0, _Dark(), plan=plan)
        policy = WatchdogPolicy(heartbeat_us=100.0, suspect_after=2,
                                down_after=3, restart_delay_us=500.0)
        onset = plan.event(0, 0).onset_us
        t = onset + 1.0
        assert sup.deliver(Heartbeat(now_us=t), t) is None
        assert sup.on_missed(t, policy) is None and sup.state == UP
        assert sup.on_missed(t, policy) == SUSPECT
        assert sup.on_missed(t, policy) == DOWN
        assert sup.restart_at_us == t + 500.0
        # Slow-then-recovered: an ack takes it straight back to UP.
        mttr = sup.on_ack(t + 200.0)
        assert sup.state == UP and mttr == 200.0
        assert sup.restart_at_us is None

    def test_reborn_swaps_incarnation_and_retires_telemetry(self):
        class _Server:
            telemetry = Telemetry()

        class _Replica:
            server = _Server()

        sup = ReplicaSupervisor(2, _Replica())
        sup.mark_down(1000.0, FAST_WATCHDOG)
        fresh = _Replica()
        fresh.server = _Server()
        mttr = sup.reborn(fresh, 1300.0)
        assert mttr == 300.0
        assert sup.incarnation == 1 and sup.state == UP
        assert sup.alive_since_us == 1300.0
        assert len(sup.retired_telemetries) == 1
        sup.retire()
        assert sup.state == RETIRED
        assert sup.deliver(Heartbeat(now_us=2000.0), 2000.0) is None

    def test_policy_validation(self):
        with pytest.raises(ClusterError):
            WatchdogPolicy(heartbeat_us=0.0)
        with pytest.raises(ClusterError):
            WatchdogPolicy(suspect_after=3, down_after=2)
        with pytest.raises(ClusterError):
            AutoscalePolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ClusterError):
            AutoscalePolicy(scale_in_load=5.0, scale_out_load=1.0)

    def test_cluster_error_keeps_cause_and_context(self):
        class _Boom:
            def send(self, message):
                raise ShardFailure("shard 1 exploded", shard=1, kind="transient")

        sup = ReplicaSupervisor(3, _Boom())
        with pytest.raises(ClusterError) as info:
            sup.deliver(Drain(), 0.0)
        assert info.value.replica == 3
        assert info.value.state == UP
        assert isinstance(info.value.__cause__, ShardFailure)
        assert info.value.__cause__.kind == "transient"

    def test_drain_is_retryable_after_watchdog_wrap(self):
        fe = ClusterFrontend(2, NOVERIFY, autoscale=(2, 2))
        for sreq in _stream(count=20, rate=40000):
            fe.submit(sreq)

        victim = fe._supervisors[1].replica
        original = victim.send
        fuse = {"armed": True}

        def flaky_send(message):
            if fuse["armed"] and isinstance(message, Drain):
                fuse["armed"] = False
                raise ShardFailure("transient drain hiccup")
            return original(message)

        victim.send = flaky_send
        with pytest.raises(ClusterError) as info:
            fe.drain()
        assert isinstance(info.value.__cause__, ShardFailure)
        assert info.value.replica == 1
        results = fe.drain()  # the session survived; retry completes
        assert len(results) == 20
        assert all(r.record.status == STATUS_OK for r in results)


class TestAutoscale:
    POLICY = AutoscalePolicy(min_replicas=2, max_replicas=4,
                             scale_out_load=3.0, scale_in_load=0.0,
                             sustain_ticks=2, cooldown_us=300.0)

    def test_scale_out_on_sustained_load_and_in_on_idle(self):
        fe = ClusterFrontend(2, NOVERIFY, watchdog=FAST_WATCHDOG,
                             autoscale=self.POLICY)
        for sreq in _stream(count=80, rate=60000, scenario="skewed"):
            fe.submit(sreq)
        fe.advance(fe.now_us + 500.0)
        assert fe.health.scale_out > 0
        assert len(fe.replicas) > 2
        # Let everything settle, then idle long enough to shrink back.
        for _ in range(60):
            fe.advance(fe.now_us + 200.0)
        assert fe.health.scale_in > 0
        retired = [sup for sup in fe._supervisors
                   if sup.state == RETIRED]
        assert retired and all(sup.slot >= 2 for sup in retired)
        results = fe.drain()
        ids = [r.record.request_id for r in results]
        assert len(ids) == len(set(ids)) == 80
        assert all(r.record.status == STATUS_OK for r in results)

    def test_cooldown_prevents_flapping(self):
        calm = AutoscalePolicy(min_replicas=2, max_replicas=4,
                               scale_out_load=3.0, scale_in_load=0.0,
                               sustain_ticks=2, cooldown_us=1e9)
        fe = ClusterFrontend(2, NOVERIFY, watchdog=FAST_WATCHDOG,
                             autoscale=calm)
        for sreq in _stream(count=80, rate=60000, scenario="skewed"):
            fe.submit(sreq)
        for _ in range(30):
            fe.advance(fe.now_us + 200.0)
        fe.drain()
        assert fe.health.scale_out + fe.health.scale_in <= 1

    def test_never_scales_past_bounds(self):
        fe = ClusterFrontend(2, NOVERIFY, watchdog=FAST_WATCHDOG,
                             autoscale=self.POLICY)
        for sreq in _stream(count=120, rate=100000, scenario="skewed"):
            fe.submit(sreq)
        for _ in range(80):
            fe.advance(fe.now_us + 150.0)
        fe.drain()
        active = sum(1 for sup in fe._supervisors
                     if sup.state != RETIRED)
        assert 2 <= active <= 4
        assert len(fe._supervisors) <= 4

    def test_autoscale_spec_forms(self):
        by_pair = ClusterFrontend(2, NOVERIFY, autoscale=(2, 6))
        by_str = ClusterFrontend(2, NOVERIFY, autoscale="2:6")
        assert by_pair._autoscale == by_str._autoscale
        assert by_pair._autoscale.max_replicas == 6

    def test_scale_out_replay_is_deterministic(self):
        def run():
            fe = ClusterFrontend(2, NOVERIFY, watchdog=FAST_WATCHDOG,
                                 autoscale=self.POLICY,
                                 replica_faults="rate:0.1",
                                 replica_fault_seed=21)
            results = fe.serve(_stream(count=100, rate=60000,
                                       scenario="skewed"))
            return (_records(results), fe.health.snapshot())

        assert run() == run()


class TestQuotasSurviveMembership:
    def test_throttle_decisions_ignore_failovers(self):
        quotas = {"*": TenantQuota(rate_rps=20000.0, burst=4.0)}

        def throttle_set(**kw):
            fe = ClusterFrontend(3, NOVERIFY, quotas=quotas, **kw)
            results = fe.serve(_stream(count=80, rate=60000))
            return ([r.record.request_id for r in results
                     if r.record.status == "throttled"],
                    fe.quota_stats())

        calm = throttle_set()
        chaotic = throttle_set(replica_faults="crashy",
                               replica_fault_seed=7,
                               watchdog=FAST_WATCHDOG)
        assert calm == chaotic
        assert len(calm[0]) > 0  # quota actually bit

    def test_failover_resubmit_never_double_charges(self):
        quotas = {"*": TenantQuota(rate_rps=30000.0, burst=6.0)}
        fe = ClusterFrontend(3, NOVERIFY, quotas=quotas,
                             replica_faults="crashy",
                             replica_fault_seed=7,
                             watchdog=FAST_WATCHDOG)
        results = fe.serve(_stream(count=160, rate=20000))
        assert fe.health.orphans_recovered > 0
        stats = fe.quota_stats()[""]
        admitted = sum(1 for r in results
                       if r.record.status != "throttled")
        assert int(stats["admitted"]) == admitted
