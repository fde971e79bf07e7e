"""Fault injection + resilience policies of the serving stack.

The contract under test, in order of importance:

1. *Inertness*: a zero-rate fault plan plus the neutral policy leave
   results, records and telemetry bit-identical to a server without
   them — offline and live.
2. *Determinism*: the same fault seed replays the same faults, records
   and counters regardless of entry style.
3. *Recovery*: each policy knob (retry/backoff/budget, timeout,
   breaker + reroute, detection) does what it says on a scripted or
   seeded fault schedule.
"""

import random

import pytest

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.errors import ServeError, ShardFailure
from repro.serve import (
    FAULT_PROFILES,
    POLICIES,
    STATUS_FAILED,
    FaultDecision,
    FaultPlan,
    FaultProfile,
    LoadGenerator,
    ReplicaFaultPlan,
    ReplicaFaultProfile,
    RequestQueue,
    ResiliencePolicy,
    ServeRequest,
    SimServer,
    make_fault_plan,
    make_policy,
    make_replica_fault_plan,
    make_scenario,
)
from repro.sim.driver import SimConfig

N = 256
Q = find_ntt_prime(N, 32)
PARAMS = NttParams(N, Q)
CONFIG = SimConfig()


def ntt_request(seed: int) -> NttRequest:
    rng = random.Random(seed)
    return NttRequest(params=PARAMS,
                      values=tuple(rng.randrange(Q) for _ in range(N)))


def chaos_load(count: int = 40, seed: int = 3) -> LoadGenerator:
    return LoadGenerator(make_scenario("chaos"), rate_rps=150_000.0,
                         count=count, seed=seed,
                         high_priority_fraction=0.2, deadline_us=4000.0)


class ScriptedPlan(FaultPlan):
    """A fault plan whose decisions come from an explicit table —
    ``(seq, shard, attempt) -> FaultDecision`` — for tests that need
    one exact failure, not a seeded distribution."""

    def __init__(self, script, default=FaultDecision()):
        # Any nonzero rate keeps .active true; decide() is overridden.
        super().__init__(FaultProfile(name="scripted", fail_rate=0.5), 0)
        self.script = dict(script)
        self.default = default

    def decide(self, seq, shard, attempt):
        return self.script.get((seq, shard, attempt), self.default)


FAIL = FaultDecision(fail=True)


# ---------------------------------------------------------------------------
# The plan itself
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_decide_is_pure_and_seeded(self):
        plan = FaultPlan("chaos", seed=11)
        a = [plan.decide(seq, seq % 2, 1) for seq in range(50)]
        b = [plan.decide(seq, seq % 2, 1) for seq in range(50)]
        assert a == b
        assert a != [FaultPlan("chaos", seed=12).decide(seq, seq % 2, 1)
                     for seq in range(50)]
        assert any(d.any for d in a)

    def test_redispatch_draws_fresh_decision(self):
        plan = FaultPlan(FaultProfile(fail_rate=0.5), seed=0)
        draws = [plan.decide(7, 0, attempt).fail for attempt in range(1, 30)]
        assert True in draws and False in draws

    def test_zero_rate_plan_is_inert_and_never_draws(self, monkeypatch):
        plan = FaultPlan(FaultProfile(), seed=123)
        assert not plan.active

        def boom(*a, **k):
            raise AssertionError("zero-rate plan drew from its RNG")

        monkeypatch.setattr(FaultPlan, "_rng", boom)
        for seq in range(20):
            assert plan.decide(seq, 0, 1) == FaultDecision()

    def test_corrupt_index_deterministic_and_in_bounds(self):
        plan = FaultPlan("chaos", seed=5)
        for seq in range(20):
            slot, idx = plan.corrupt_index(seq, 1, 1, banks=4, length=N)
            assert (slot, idx) == plan.corrupt_index(seq, 1, 1, 4, N)
            assert 0 <= slot < 4 and 0 <= idx < N

    def test_profile_validation_and_weights(self):
        with pytest.raises(ValueError, match="fail_rate"):
            FaultProfile(fail_rate=1.5)
        profile = FAULT_PROFILES["degraded"]
        assert profile.shard_weight(0) == 4.0
        assert profile.shard_weight(1) == 1.0

    def test_make_fault_plan_specs(self):
        assert make_fault_plan(None) is None
        assert make_fault_plan("none") is None
        # Every zero-rate spec builds no plan: a profile, a rate, a plan.
        assert make_fault_plan(FaultProfile()) is None
        assert make_fault_plan("rate:0") is None
        assert make_fault_plan(FaultPlan(FaultProfile(), seed=3)) is None
        plan = make_fault_plan("rate:0.25", seed=9)
        assert plan.profile.fail_rate == 0.25 and plan.seed == 9
        assert make_fault_plan(plan, seed=4) is plan  # keeps its seed
        with pytest.raises(ValueError, match="unknown fault profile"):
            make_fault_plan("catastrophic")

    def test_make_policy_specs(self):
        assert make_policy("none").neutral
        standard = make_policy("standard")
        assert standard.max_retries == 3 and standard.detect
        assert make_policy(standard) is standard
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("heroic")

    def test_backoff_is_capped_exponential(self):
        policy = ResiliencePolicy(retry_backoff_us=25.0,
                                  retry_backoff_cap_us=80.0)
        assert [policy.backoff_us(a) for a in (1, 2, 3, 4)] == \
            [25.0, 50.0, 80.0, 80.0]


# ---------------------------------------------------------------------------
# Inertness: the acceptance bar
# ---------------------------------------------------------------------------
class TestZeroRateInertness:
    def _snapshot(self, server, results):
        snap = server.telemetry.snapshot()
        # Compile caches are process-global: their hit/miss deltas
        # depend on what ran before, not on this server's behavior.
        snap.pop("cache", None)
        snap.pop("cache_hit_rate", None)
        return ([r.record for r in results],
                [r.response.values if r.ok else None for r in results],
                snap)

    def test_offline_bit_identical(self):
        arrivals = chaos_load().requests()
        plain = SimServer(CONFIG, num_shards=2)
        guarded = SimServer(CONFIG, num_shards=2, faults="rate:0",
                            fault_seed=99, policy="none")
        assert guarded.fault_plan is None  # provably the plan-less path
        assert self._snapshot(plain, plain.serve(arrivals)) == \
            self._snapshot(guarded, guarded.serve(arrivals))

    def test_live_bit_identical(self):
        plain = SimServer(CONFIG, num_shards=2)
        guarded = SimServer(CONFIG, num_shards=2,
                            faults=FaultProfile(name="inert"),
                            policy=ResiliencePolicy())
        outcomes = []
        for server in (plain, guarded):
            for sreq in chaos_load().stream():
                server.submit(sreq)
                server.poll(1)
            outcomes.append(self._snapshot(server, server.drain()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("spec", [
        None, "none", "rate:0", "rate:0.0", FaultProfile(),
        FAULT_PROFILES["none"], FaultPlan(FaultProfile(), seed=3)],
        ids=["None", "none", "rate:0", "rate:0.0", "profile",
             "named-none-profile", "plan"])
    def test_every_zero_rate_spec_serves_plan_less(self, spec):
        """One rule for inert specs, whatever their form: no plan, and
        the same records and values as a server given no spec."""
        assert make_fault_plan(spec, seed=5) is None
        arrivals = chaos_load(count=8).requests()
        plain = SimServer(CONFIG, num_shards=2)
        inert = SimServer(CONFIG, num_shards=2, faults=spec, fault_seed=5)
        assert inert.fault_plan is None
        assert self._snapshot(plain, plain.serve(arrivals)) == \
            self._snapshot(inert, inert.serve(arrivals))

    @pytest.mark.parametrize("spec", [
        None, "none", "rate:0", ReplicaFaultProfile(),
        ReplicaFaultPlan(ReplicaFaultProfile(), seed=3)],
        ids=["None", "none", "rate:0", "profile", "plan"])
    def test_every_zero_rate_replica_spec_builds_no_plan(self, spec):
        assert make_replica_fault_plan(spec, seed=5) is None

    def test_zero_resilience_counters_without_faults(self):
        server = SimServer(CONFIG)
        server.serve(chaos_load(count=10).requests())
        res = server.telemetry.snapshot()["resilience"]
        assert res["faults_injected"] == {}
        assert all(res[k] == 0 for k in res if k != "faults_injected")


# ---------------------------------------------------------------------------
# Determinism under faults
# ---------------------------------------------------------------------------
class TestFaultDeterminism:
    def test_same_seed_same_everything(self):
        def run():
            server = SimServer(CONFIG, num_shards=2, faults="chaos",
                               fault_seed=7, policy="standard")
            results = server.serve(chaos_load().requests())
            return ([r.record for r in results],
                    server.telemetry.snapshot()["resilience"])

        first, second = run(), run()
        assert first == second
        assert sum(first[1]["faults_injected"].values()) > 0

    def test_different_seed_different_schedule(self):
        def injected(seed):
            server = SimServer(CONFIG, num_shards=2, faults="chaos",
                               fault_seed=seed, policy="standard")
            server.serve(chaos_load().requests())
            return server.telemetry.snapshot()["resilience"]

        assert injected(7) != injected(8)

    def test_live_matches_offline_under_faults(self):
        offline = SimServer(CONFIG, num_shards=2, faults="chaos",
                            fault_seed=7, policy="standard")
        offline_results = offline.serve(chaos_load().requests())
        live = SimServer(CONFIG, num_shards=2, faults="chaos",
                         fault_seed=7, policy="standard")
        ids = [live.submit(s) for s in chaos_load().stream()]
        live_results = live.drain()
        assert [r.record for r in offline_results] == \
            [r.record for r in live_results]
        assert ids == [r.record.request_id for r in live_results]
        assert offline.telemetry.snapshot()["resilience"] == \
            live.telemetry.snapshot()["resilience"]


# ---------------------------------------------------------------------------
# Recovery: retries, budget, timeout
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_transient_failure_retries_to_success(self):
        # Dispatch 0 fails on its first two attempts, then serves.
        plan = ScriptedPlan({(0, 0, 1): FAIL, (0, 0, 2): FAIL})
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(max_retries=3,
                                                   retry_backoff_us=25.0))
        result = server.serve([ServeRequest(request=ntt_request(0))])[0]
        assert result.ok
        assert result.record.attempts == 3
        assert server.telemetry.events["retries"] == 2
        assert server.telemetry.faults_injected["fail"] == 2
        # Two backoffs (25, 50) plus two failure costs pushed completion.
        solo = SimServer(CONFIG).serve(
            [ServeRequest(request=ntt_request(0))])[0]
        assert result.record.completion_us > solo.record.completion_us
        assert result.response.values == solo.response.values

    def test_retries_exhausted_fails_gracefully(self):
        plan = ScriptedPlan({}, default=FAIL)  # every attempt fails
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(max_retries=2))
        result = server.serve([ServeRequest(request=ntt_request(0))])[0]
        assert not result.ok
        assert result.record.status == STATUS_FAILED
        assert result.record.attempts == 3  # 1 try + 2 retries
        assert "injected transient failure" in result.record.error
        # The session survived a terminal failure: serve again, cleanly.
        assert server.telemetry.snapshot()["failed"] == 1

    def test_no_retries_without_policy(self):
        plan = ScriptedPlan({(0, 0, 1): FAIL})
        server = SimServer(CONFIG, faults=plan)  # policy "none"
        result = server.serve([ServeRequest(request=ntt_request(0))])[0]
        assert not result.ok and result.record.status == STATUS_FAILED
        assert server.telemetry.events["retries"] == 0

    def test_retry_budget_exhaustion_fails_fast(self):
        plan = ScriptedPlan({}, default=FAIL)
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(max_retries=5,
                                                   retry_budget=3))
        results = server.serve([ServeRequest(request=ntt_request(i),
                                             arrival_us=float(i))
                                for i in range(4)])
        # The whole session's budget.
        assert server.telemetry.events["retries"] == 3
        assert all(r.record.status == STATUS_FAILED for r in results)

    def test_timeout_aborts_and_redispatches(self):
        # Attempt 1 stalls far past the timeout; attempt 2 is clean.
        plan = ScriptedPlan({(0, 0, 1): FaultDecision(stall_us=5000.0)})
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(max_retries=1,
                                                   timeout_us=1000.0))
        result = server.serve([ServeRequest(request=ntt_request(0))])[0]
        assert result.ok and result.record.attempts == 2
        assert server.telemetry.events["timeouts"] == 1
        # The abort happened at the timeout, not after the full stall.
        assert result.record.completion_us < 5000.0


# ---------------------------------------------------------------------------
# Circuit breaker + routing around
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def test_breaker_opens_after_consecutive_failures(self):
        plan = ScriptedPlan({}, default=FAIL)
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(breaker_threshold=2,
                                                   breaker_cooldown_us=500.0))
        server.serve([ServeRequest(request=ntt_request(i),
                                   arrival_us=float(i * 200))
                      for i in range(4)])
        assert server.telemetry.events["breaker_trips"] >= 1

    def test_half_open_probe_closes_breaker(self):
        # Three failures trip shard 0; later dispatches are clean, so
        # the half-open probe succeeds and serving resumes normally.
        script = {(seq, 0, 1): FAIL for seq in range(3)}
        plan = ScriptedPlan(script)
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(
                               breaker_threshold=3,
                               breaker_cooldown_us=300.0))
        results = server.serve([ServeRequest(request=ntt_request(i),
                                             arrival_us=float(i * 100))
                                for i in range(6)])
        assert server.telemetry.events["breaker_trips"] == 1
        assert sum(r.ok for r in results) == 3
        probe = results[3]  # first dispatch after the trip
        assert probe.ok
        failures = [r for r in results if not r.ok]
        trip_us = max(r.record.completion_us for r in failures)
        # The probe waited out the cooldown before serving.
        assert probe.record.start_us >= trip_us + 300.0

    def test_reroute_around_open_shard(self):
        # Shard 0 fails every attempt; shard 1 is healthy.  With two
        # shapes routed round-robin, shard 0's retries detour to shard
        # 1 once the breaker opens — everything still serves.
        def fails_on_shard0(seq, shard, attempt):
            return FAIL if shard == 0 else FaultDecision()

        plan = ScriptedPlan({})
        plan.decide = fails_on_shard0
        other = NttParams(512, find_ntt_prime(512, 32))
        rng = random.Random(1)
        arrivals = []
        for i in range(6):
            params = PARAMS if i % 2 == 0 else other
            arrivals.append(ServeRequest(
                request=NttRequest(params=params,
                                   values=tuple(rng.randrange(params.q)
                                                for _ in range(params.n))),
                arrival_us=float(i * 30)))
        server = SimServer(CONFIG, num_shards=2, window_us=10.0,
                           faults=plan,
                           policy=ResiliencePolicy(
                               max_retries=4, breaker_threshold=1,
                               breaker_cooldown_us=5000.0))
        results = server.serve(arrivals)
        assert all(r.ok for r in results)
        assert server.telemetry.events["reroutes"] > 0
        # The detoured dispatches really served on the healthy shard.
        assert {r.record.shard for r in results} == {1}


# ---------------------------------------------------------------------------
# Corruption + online detection
# ---------------------------------------------------------------------------
class TestCorruptionDetection:
    def test_undetected_corruption_serves_wrong_values(self):
        plan = ScriptedPlan({(0, 0, 1): FaultDecision(corrupt=True)})
        server = SimServer(CONFIG, faults=plan)  # no detection
        request = ntt_request(0)
        result = server.serve([ServeRequest(request=request)])[0]
        golden = Simulator(CONFIG).run(request).values
        assert result.ok
        diff = [i for i, (a, b) in enumerate(zip(result.response.values,
                                                 golden)) if a != b]
        assert len(diff) == 1  # exactly one flipped word
        assert server.telemetry.faults_injected["corrupt"] == 1
        assert server.telemetry.events["detected_mismatches"] == 0

    def test_detection_catches_and_retry_recovers(self):
        plan = ScriptedPlan({(0, 0, 1): FaultDecision(corrupt=True)})
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(max_retries=2,
                                                   detect=True))
        request = ntt_request(0)
        result = server.serve([ServeRequest(request=request)])[0]
        assert result.ok and result.record.attempts == 2
        assert server.telemetry.events["detected_mismatches"] == 1
        assert result.response.values == Simulator(CONFIG).run(
            request).values

    def test_detection_without_retries_fails_loudly(self):
        plan = ScriptedPlan({}, default=FaultDecision(corrupt=True))
        server = SimServer(CONFIG, faults=plan,
                           policy=ResiliencePolicy(detect=True))
        result = server.serve([ServeRequest(request=ntt_request(0))])[0]
        assert not result.ok and result.record.status == STATUS_FAILED
        assert "golden-model" in result.record.error

    def test_grouped_corruption_detected(self):
        # Two same-shape requests coalesce; the flip lands in one bank
        # of the merged dispatch and detection still catches it.
        plan = ScriptedPlan({(0, 0, 1): FaultDecision(corrupt=True)})
        server = SimServer(CONFIG, window_us=50.0, faults=plan,
                           policy=ResiliencePolicy(max_retries=2,
                                                   detect=True))
        results = server.serve([
            ServeRequest(request=ntt_request(1), arrival_us=0.0),
            ServeRequest(request=ntt_request(2), arrival_us=10.0)])
        assert all(r.ok for r in results)
        assert server.telemetry.events["detected_mismatches"] == 1
        for seed, result in zip((1, 2), results):
            assert result.response.values == Simulator(CONFIG).run(
                ntt_request(seed)).values

    @pytest.mark.parametrize("dtype", ["uint64", "int64"])
    def test_corruption_detected_on_array_operands(self, dtype):
        """Array operands reach the corruption check as they are; a
        signed array is checked as uint64 lanes, not promoted to
        float64."""
        import numpy as np

        plan = ScriptedPlan({(0, 0, 1): FaultDecision(corrupt=True)})
        server = SimServer(CONFIG, window_us=50.0, faults=plan,
                           policy=ResiliencePolicy(max_retries=2,
                                                   detect=True))
        requests = [NttRequest(params=PARAMS, values=np.array(
            ntt_request(seed).values, dtype=dtype)) for seed in (1, 2)]
        results = server.serve([ServeRequest(request=r, arrival_us=0.0)
                                for r in requests])
        assert all(r.ok for r in results)
        assert server.telemetry.events["detected_mismatches"] == 1
        for seed, result in zip((1, 2), results):
            assert result.response.values == Simulator(CONFIG).run(
                ntt_request(seed)).values


# ---------------------------------------------------------------------------
# Burst / ramp load profiles
# ---------------------------------------------------------------------------
class TestBurstLoad:
    def test_rate_profile_steps(self):
        load = LoadGenerator(
            make_scenario("uniform"), rate_rps=1000.0, count=10,
            rate_profile=LoadGenerator.burst_profile(
                1000.0, 8000.0, start_us=100.0, duration_us=50.0))
        assert load.rate_at(0.0) == 1000.0
        assert load.rate_at(100.0) == 8000.0
        assert load.rate_at(149.0) == 8000.0
        assert load.rate_at(150.0) == 1000.0

    def test_burst_is_deterministic_and_denser(self):
        base = LoadGenerator(make_scenario("uniform"), rate_rps=10_000.0,
                             count=60, seed=5)
        burst = LoadGenerator(
            make_scenario("uniform"), rate_rps=10_000.0, count=60, seed=5,
            rate_profile=LoadGenerator.burst_profile(
                10_000.0, 400_000.0, start_us=500.0, duration_us=2000.0))
        a, b = burst.requests(), burst.requests()
        assert [r.arrival_us for r in a] == [r.arrival_us for r in b]
        assert a[-1].arrival_us < base.requests()[-1].arrival_us

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="sorted"):
            LoadGenerator(make_scenario("uniform"), rate_rps=1.0, count=1,
                          rate_profile=((100.0, 1.0), (0.0, 2.0)))
        with pytest.raises(ValueError, match="> 0"):
            LoadGenerator(make_scenario("uniform"), rate_rps=1.0, count=1,
                          rate_profile=((0.0, -1.0),))

    def test_burst_drives_queue_depth(self):
        # The same stream with a burst overload queues deeper than at a
        # flat rate.
        profile = LoadGenerator.burst_profile(
            30_000.0, 2_000_000.0, start_us=200.0, duration_us=1500.0)
        flat = SimServer(CONFIG, window_us=100.0)
        flat.serve(LoadGenerator(make_scenario("skewed"), rate_rps=30_000.0,
                                 count=60, seed=2).requests())
        bursty = SimServer(CONFIG, window_us=100.0)
        bursty.serve(LoadGenerator(make_scenario("skewed"),
                                   rate_rps=30_000.0, count=60, seed=2,
                                   rate_profile=profile).requests())
        assert (bursty.telemetry.snapshot()["max_queue_depth"]
                > flat.telemetry.snapshot()["max_queue_depth"])


# ---------------------------------------------------------------------------
# Satellites: queue errors, live drop accounting
# ---------------------------------------------------------------------------
class TestQueueErrors:
    def test_remove_missing_raises_contextful_serve_error(self):
        queue = RequestQueue(max_depth=4)
        stranger = ServeRequest(request=ntt_request(0), arrival_us=12.0,
                                request_id=77)
        with pytest.raises(ServeError, match=r"request 77 .*12\.0us.*"
                                             r"depth 0"):
            queue.remove(stranger)
        assert isinstance(ShardFailure(""), ServeError)  # hierarchy

    def test_discard_is_idempotent(self):
        queue = RequestQueue(max_depth=4)
        sreq = ServeRequest(request=ntt_request(0), request_id=1)
        queue.offer(sreq)
        assert queue.discard(sreq) is True
        assert queue.discard(sreq) is False
        assert queue.stats()["removed"] == 1
        queue.offer(sreq)
        queue.remove(sreq)  # remove still works on a waiting request
        assert queue.depth() == 0


class TestLiveDropAccounting:
    def test_drop_cursor_counts_each_drop_once_across_polls(self):
        server = SimServer(CONFIG, window_us=40.0)
        # Both requests expire in-queue: deadlines pass before their
        # window closes (closing happens when time advances past it).
        doomed = [server.submit(ntt_request(i), arrival_us=float(i * 5),
                                deadline_us=float(i * 5 + 10))
                  for i in range(2)]
        survivor = server.submit(ntt_request(9), arrival_us=500.0)
        # Poll repeatedly between/after: the drop cursor must not
        # double-count records already absorbed by an earlier poll.
        for _ in range(3):
            for rid in doomed:
                result = server.poll(rid)
                assert result is not None and not result.ok
                assert result.record.status == "expired"
                assert result.record.deadline_missed
        results = server.drain()
        assert len(results) == 3
        records = server.telemetry.records
        assert len(records) == 3  # one record per request, ever
        assert sum(r.status == "expired" for r in records) == 2
        snap = server.telemetry.snapshot()
        assert snap["expired"] == 2 and snap["completed"] == 1
        assert server.poll(survivor) is None  # session closed

    def test_interleaved_submit_poll_preserves_drop_records(self):
        server = SimServer(CONFIG, window_us=20.0, max_depth=2)
        ids = []
        statuses = {}
        for i in range(8):
            rid = server.submit(ntt_request(i), arrival_us=float(i * 4),
                                deadline_us=float(i * 4 + 8))
            ids.append(rid)
            for seen in ids:
                result = server.poll(seen)
                if result is not None and seen not in statuses:
                    statuses[seen] = result.record.status
        results = {r.record.request_id: r for r in server.drain()}
        assert set(results) == set(ids)
        # Whatever a mid-stream poll reported is what drain() reports.
        for rid, status in statuses.items():
            assert results[rid].record.status == status
        # Telemetry holds exactly one record per submission.
        assert len(server.telemetry.records) == len(ids)
        snap = server.telemetry.snapshot()
        assert (snap["completed"] + snap["rejected"] + snap["expired"]
                == len(ids))


# ---------------------------------------------------------------------------
# End to end: the headline resilience claim
# ---------------------------------------------------------------------------
class TestPoliciesRecoverGoodput:
    def test_policies_on_beats_policies_off_under_faults(self):
        arrivals = chaos_load(count=50, seed=3).requests()
        off = SimServer(CONFIG, num_shards=2, faults="chaos",
                        fault_seed=7, policy="none")
        off_results = off.serve(list(arrivals))
        on = SimServer(CONFIG, num_shards=2, faults="chaos",
                       fault_seed=7, policy="standard")
        on_results = on.serve(list(arrivals))
        assert sum(bool(r.ok) for r in on_results) > \
            sum(bool(r.ok) for r in off_results)
        assert on.telemetry.snapshot()["availability"] > \
            off.telemetry.snapshot()["availability"]
        assert sum(
            off.telemetry.snapshot()["resilience"]
            ["faults_injected"].values()) > 0

    def test_policy_names_registered(self):
        assert set(POLICIES) >= {"none", "standard"}
        assert POLICIES["none"].neutral
        assert not POLICIES["standard"].neutral
