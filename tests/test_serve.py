"""Tests for the repro.serve subsystem: queue, scheduler, telemetry,
load generation and the end-to-end server.

The load-bearing property throughout: scheduling changes *when* work
runs, never *what it computes* — every served response must be bit-
identical to a standalone ``Simulator.run`` of the same request.
"""

import random

import pytest
from compute_paths import on_path

from repro.api import (
    FheOpRequest,
    NegacyclicRequest,
    NttRequest,
    Simulator,
    merge_key,
)
from repro.arith import NttParams, find_ntt_prime
from repro.errors import RequestValidationError, ServeError
from repro.ntt.negacyclic import NegacyclicParams
from repro.serve import (
    BatchingScheduler,
    LoadGenerator,
    RequestQueue,
    ServeRequest,
    SimServer,
    Telemetry,
    make_scenario,
    merge_snapshots,
    percentile,
    sequential_policy,
)
from repro.serve.faults import ResiliencePolicy
from repro.serve.telemetry import RequestRecord
from repro.sim.driver import SimConfig

N = 256
Q = find_ntt_prime(N, 32)
PARAMS = NttParams(N, Q)
CONFIG = SimConfig()


def ntt_request(seed: int, params: NttParams = PARAMS) -> NttRequest:
    rng = random.Random(seed)
    return NttRequest(params=params,
                      values=tuple(rng.randrange(params.q)
                                   for _ in range(params.n)))


def _with_coefficient(bad) -> NttRequest:
    """An otherwise valid request with one bad coefficient."""
    values = list(ntt_request(9).values)
    values[3] = bad
    return NttRequest(params=PARAMS, values=values)


RING = NegacyclicParams(N, find_ntt_prime(N, 32, negacyclic=True))


def nega_request(seed: int, inverse: bool = False) -> NegacyclicRequest:
    rng = random.Random(seed)
    return NegacyclicRequest(ring=RING,
                             values=tuple(rng.randrange(RING.q)
                                          for _ in range(RING.n)),
                             inverse=inverse)


def fhe_request(seed: int) -> FheOpRequest:
    """A genuinely unbatchable request (FHE ops span several programs)."""
    rng = random.Random(seed)
    return FheOpRequest(ring=RING, op="forward",
                        a=tuple(rng.randrange(RING.q)
                                for _ in range(RING.n)))


class TestRequestQueue:
    def test_admission_control_rejects_when_full(self):
        queue = RequestQueue(max_depth=2)
        a = ServeRequest(request=ntt_request(0), request_id=1)
        b = ServeRequest(request=ntt_request(1), request_id=2)
        c = ServeRequest(request=ntt_request(2), request_id=3)
        assert queue.offer(a) and queue.offer(b)
        assert not queue.offer(c)
        stats = queue.stats()
        assert stats == {"depth": 2, "admitted": 2, "rejected": 1,
                         "removed": 0, "max_depth": 2}
        queue.remove(a)
        assert queue.offer(c)

    def test_waiting_orders_by_priority_then_fifo(self):
        queue = RequestQueue()
        low = ServeRequest(request=ntt_request(0), arrival_us=0.0,
                           priority=0, request_id=1)
        high = ServeRequest(request=ntt_request(1), arrival_us=5.0,
                            priority=3, request_id=2)
        low2 = ServeRequest(request=ntt_request(2), arrival_us=1.0,
                            priority=0, request_id=3)
        for s in (low, high, low2):
            queue.offer(s)
        assert [s.request_id for s in queue.waiting()] == [2, 1, 3]

    def test_max_depth_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(max_depth=0)


class TestShapeKey:
    """The scheduler coalesces by :func:`repro.api.merge_key`."""

    def test_forward_ntts_of_same_shape_share_a_key(self):
        assert merge_key(ntt_request(0)) == merge_key(ntt_request(1))

    def test_inverse_and_negacyclic_batch_under_their_own_keys(self):
        keys = [merge_key(r) for r in (
            ntt_request(0), NttRequest(params=PARAMS, inverse=True),
            nega_request(0), nega_request(1, inverse=True))]
        assert all(k is not None for k in keys)
        assert len(set(keys)) == 4  # four distinct dispatch groups

    def test_fhe_ops_do_not_batch(self):
        assert merge_key(fhe_request(0)) is None


def _plan(scheduler, sreqs, max_depth=256, telemetry=None):
    queue = RequestQueue(max_depth=max_depth)
    return scheduler.plan(sorted(sreqs, key=lambda s: (s.arrival_us,
                                                       s.request_id)),
                          queue, telemetry)


class TestBatchingSchedulerPlan:
    def test_same_shape_within_window_coalesces(self):
        sched = BatchingScheduler(window_us=50.0, max_banks=8)
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(5)]
        units, dropped = _plan(sched, sreqs)
        assert not dropped
        assert len(units) == 1
        assert units[0].banks == 5
        # The group closed when the head's window elapsed.
        assert units[0].ready_us == pytest.approx(0.0 + 50.0)

    def test_full_group_dispatches_before_window(self):
        sched = BatchingScheduler(window_us=1000.0, max_banks=4)
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(6)]
        units, _ = _plan(sched, sreqs)
        assert [u.banks for u in units] == [4, 2]
        assert units[0].ready_us == pytest.approx(3.0)  # filled at 4th arrival

    def test_window_closure_starts_a_fresh_group(self):
        sched = BatchingScheduler(window_us=10.0, max_banks=8)
        sreqs = [ServeRequest(request=ntt_request(0), arrival_us=0.0,
                              request_id=1),
                 ServeRequest(request=ntt_request(1), arrival_us=100.0,
                              request_id=2)]
        units, _ = _plan(sched, sreqs)
        assert [u.banks for u in units] == [1, 1]
        assert units[0].ready_us == pytest.approx(10.0)
        assert units[1].ready_us == pytest.approx(110.0)

    def test_unbatchable_requests_dispatch_immediately(self):
        sched = BatchingScheduler(window_us=50.0, max_banks=8)
        sreqs = [ServeRequest(request=fhe_request(0), arrival_us=3.0,
                              request_id=1)]
        units, _ = _plan(sched, sreqs)
        assert len(units) == 1 and units[0].ready_us == pytest.approx(3.0)

    def test_sequential_policy_never_groups(self):
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(4)]
        units, _ = _plan(sequential_policy(), sreqs)
        assert [u.banks for u in units] == [1, 1, 1, 1]
        assert [u.ready_us for u in units] == [0.0, 1.0, 2.0, 3.0]

    def test_deadline_expiry_while_queued(self):
        sched = BatchingScheduler(window_us=100.0, max_banks=8)
        sreqs = [ServeRequest(request=ntt_request(0), arrival_us=0.0,
                              request_id=1),
                 ServeRequest(request=ntt_request(1), arrival_us=1.0,
                              deadline_us=20.0, request_id=2)]
        units, dropped = _plan(sched, sreqs)
        assert len(units) == 1 and units[0].banks == 1
        assert [r.request_id for r in dropped] == [2]
        assert dropped[0].status == "expired"

    def test_admission_rejection_recorded(self):
        sched = BatchingScheduler(window_us=1000.0, max_banks=8)
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(4)]
        units, dropped = _plan(sched, sreqs, max_depth=2)
        assert [r.request_id for r in dropped] == [3, 4]
        assert all(r.status == "rejected" for r in dropped)
        assert len(units) == 1 and units[0].banks == 2

    def test_distinct_shapes_shard_round_robin(self):
        sched = BatchingScheduler(window_us=10.0, max_banks=8, num_shards=2)
        big = NttParams(512, find_ntt_prime(512, 32))
        sreqs = [ServeRequest(request=ntt_request(0), arrival_us=0.0,
                              request_id=1),
                 ServeRequest(request=ntt_request(1, big), arrival_us=1.0,
                              request_id=2)]
        units, _ = _plan(sched, sreqs)
        assert sorted(u.shard for u in units) == [0, 1]


class TestSimServer:
    def _load(self, count=40, rate=300_000, seed=2):
        return LoadGenerator(make_scenario("skewed"), rate_rps=rate,
                             count=count, seed=seed).requests()

    def test_batching_responses_bit_identical_to_standalone(self):
        sreqs = self._load()
        server = SimServer(CONFIG, max_banks=8, window_us=50.0)
        results = server.serve(sreqs)
        solo = Simulator(CONFIG)
        grouped = 0
        for sreq, result in zip(sreqs, results):
            assert result.ok
            assert result.response.values == solo.run(sreq.request).values
            if result.record.group_banks > 1:
                grouped += 1
                assert result.response.metrics["group_banks"] == \
                    result.record.group_banks
        assert grouped > len(sreqs) // 2  # the skewed mix really batches

    def test_sequential_responses_bit_identical_to_standalone(self):
        sreqs = self._load(count=20)
        server = SimServer(CONFIG, scheduler="sequential")
        results = server.serve(sreqs)
        solo = Simulator(CONFIG)
        for sreq, result in zip(sreqs, results):
            assert result.response.values == solo.run(sreq.request).values
            assert result.record.group_banks == 1

    def test_batching_beats_sequential_under_overload(self):
        sreqs = self._load(count=60, rate=400_000)
        batching = SimServer(CONFIG, max_banks=8, window_us=50.0)
        batching.serve(sreqs)
        sequential = SimServer(CONFIG, scheduler="sequential")
        sequential.serve(self._load(count=60, rate=400_000))
        b = batching.telemetry.snapshot()
        s = sequential.telemetry.snapshot()
        assert b["throughput_rps"] >= 2.0 * s["throughput_rps"]
        assert b["latency_p99_us"] < s["latency_p99_us"]

    def test_priority_served_first_under_backlog(self):
        # Three unbatchable requests on one shard: the shard is busy
        # with the first when #2 (prio 0) and #3 (prio 5) are ready, so
        # the urgent one overtakes.
        sreqs = [ServeRequest(request=fhe_request(i), arrival_us=float(i),
                              priority=p, request_id=i + 1)
                 for i, p in ((0, 0), (1, 0), (2, 5))]
        server = SimServer(CONFIG)
        results = server.serve(sreqs)
        by_id = {r.record.request_id: r.record for r in results}
        assert by_id[3].completion_us < by_id[2].completion_us
        assert by_id[2].queue_wait_us > by_id[3].queue_wait_us

    def test_deadline_missed_flag_and_expiry(self):
        sreqs = [ServeRequest(request=ntt_request(0), arrival_us=0.0,
                              deadline_us=1.0, request_id=1),
                 ServeRequest(request=ntt_request(1), arrival_us=0.5,
                              deadline_us=10_000.0, request_id=2)]
        server = SimServer(CONFIG, window_us=5.0)
        results = server.serve(sreqs)
        # #1's deadline passed before its window closed -> expired.
        assert not results[0].ok
        assert results[0].record.status == "expired"
        # #2 made it, comfortably.
        assert results[1].ok and not results[1].record.deadline_missed

    def test_rejected_requests_get_record_without_response(self):
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(5)]
        server = SimServer(CONFIG, max_depth=2, window_us=1000.0)
        results = server.serve(sreqs)
        statuses = [r.record.status for r in results]
        assert statuses.count("rejected") == 3
        assert all(r.response is None
                   for r in results if r.record.status == "rejected")
        assert server.telemetry.snapshot()["rejected"] == 3

    def test_call_matches_facade_run(self):
        request = ntt_request(9)
        server = SimServer()
        response = server.serve([request])[0].response
        assert response.verified
        assert response.values == Simulator().run(request).values
        assert server.telemetry.snapshot()["completed"] == 1

    def test_energy_rollup_stays_physical(self):
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=0.0,
                              request_id=i + 1) for i in range(4)]
        server = SimServer(CONFIG, window_us=10.0, max_banks=4)
        results = server.serve(sreqs)
        group = results[0].response.raw  # the group's DispatchResult
        total = server.telemetry.snapshot()["total_energy_nj"]
        assert total == pytest.approx(group.schedule.energy_nj)

    def test_cache_rollup_accumulates_across_calls(self):
        """telemetry.cache holds session-wide deltas, not just the last
        call's: the first call misses, the warm second call hits, and
        both show up."""
        server = SimServer(CONFIG)
        Simulator.clear_caches()
        server.serve([ntt_request(20)])
        server.serve([ntt_request(21)])  # same shape: pure cache hits
        cache = server.telemetry.cache
        assert cache["program"]["misses"] >= 1   # first call compiled
        assert cache["program"]["hits"] >= 1     # second call reused
        assert server.telemetry.snapshot()["cache_hit_rate"] > 0

    def test_single_routing_does_not_grow_scheduler_state(self):
        sreqs = [ServeRequest(request=fhe_request(i), arrival_us=float(i),
                              request_id=i + 1) for i in range(6)]
        server = SimServer(CONFIG, num_shards=2)
        server.serve(sreqs)
        # Unbatchable singles take round-robin shards without leaving
        # per-request residue in the placement map.
        assert len(server.scheduler._shard_of) == 0

    def test_duplicate_request_ids_reassigned(self):
        """Two concatenated LoadGenerator streams both number 1..count;
        serve() must keep results positional and ids unique instead of
        silently cross-wiring responses."""
        first = self._load(count=8, seed=11)
        second = self._load(count=8, seed=12)
        combined = first + second
        server = SimServer(CONFIG)
        results = server.serve(combined)
        assert len(results) == 16
        ids = [r.record.request_id for r in results]
        assert len(set(ids)) == 16
        solo = Simulator(CONFIG)
        for sreq, result in zip(combined, results):
            assert result.response.values == solo.run(sreq.request).values
        # The caller's own objects were not renumbered (copy-on-write).
        assert [s.request_id for s in second] == list(range(1, 9))

    def test_virtual_clock_monotonic_across_calls(self):
        """Sequential one-request serve() calls must read as serial
        traffic: completions advance, makespan spans the whole session,
        throughput is not inflated."""
        server = SimServer(CONFIG)
        completions = []
        for seed in range(3):
            server.serve([ntt_request(seed)])
            completions.append(server.telemetry.records[-1].completion_us)
        assert completions == sorted(completions)
        assert len(set(completions)) == 3
        snapshot = server.telemetry.snapshot()
        single = server.telemetry.records[0].latency_us
        assert snapshot["makespan_us"] >= 2.5 * single
        assert snapshot["throughput_rps"] < 1.5e6 / single

    def test_sharding_overlaps_distinct_shapes(self):
        big = NttParams(512, find_ntt_prime(512, 32))
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=0.0,
                              request_id=i + 1) for i in range(2)]
        sreqs += [ServeRequest(request=ntt_request(i, big), arrival_us=0.0,
                               request_id=i + 3) for i in range(2)]
        one = SimServer(CONFIG, num_shards=1, window_us=5.0)
        two = SimServer(CONFIG, num_shards=2, window_us=5.0)
        m1 = max(r.record.completion_us for r in one.serve(sreqs))
        m2 = max(r.record.completion_us for r in two.serve(sreqs))
        assert m2 < m1  # the second channel absorbed one shape


class TestGeneralizedBatching:
    """Negacyclic and inverse transforms coalesce exactly like forward
    cyclic NTTs — bit-identical to standalone runs — and mixed-kind
    windows split into one dispatch group per kind."""

    def _serve_and_check(self, requests, **server_kwargs):
        sreqs = [ServeRequest(request=r, arrival_us=0.0, request_id=i + 1)
                 for i, r in enumerate(requests)]
        server = SimServer(CONFIG, window_us=10.0, max_banks=8,
                           **server_kwargs)
        results = server.serve(sreqs)
        solo = Simulator(CONFIG)
        for sreq, result in zip(sreqs, results):
            assert result.ok
            assert result.response.values == solo.run(sreq.request).values
        return results

    def test_inverse_ntts_merge_bit_identically(self):
        results = self._serve_and_check(
            [NttRequest(params=PARAMS, values=ntt_request(i).values,
                        inverse=True) for i in range(4)])
        assert all(r.record.group_banks == 4 for r in results)

    def test_negacyclic_merges_bit_identically(self):
        results = self._serve_and_check(
            [nega_request(i) for i in range(3)])
        assert all(r.record.group_banks == 3 for r in results)

    def test_inverse_negacyclic_merges_bit_identically(self):
        results = self._serve_and_check(
            [nega_request(i, inverse=True) for i in range(3)])
        assert all(r.record.group_banks == 3 for r in results)

    def test_mixed_kind_window_splits_into_per_kind_groups(self):
        requests = ([ntt_request(i) for i in range(2)]
                    + [NttRequest(params=PARAMS,
                                  values=ntt_request(i + 10).values,
                                  inverse=True) for i in range(2)]
                    + [nega_request(i) for i in range(2)]
                    + [nega_request(i + 10, inverse=True) for i in range(2)]
                    + [fhe_request(0)])
        results = self._serve_and_check(requests)
        # Four two-member groups (one per transform kind) and the FHE
        # op alone: 8 grouped requests, 1 unbatched.
        banks = [r.record.group_banks for r in results]
        assert banks == [2] * 8 + [1]

    def test_grouped_negacyclic_counters_split_per_bank(self):
        results = self._serve_and_check([nega_request(i) for i in range(4)])
        group = results[0].response.raw  # the group's DispatchResult
        assert group.banks == 4
        per_bank = results[0].response.counters
        assert all(v * 4 == group.schedule.stats.command_counts.get(k, 0)
                   for k, v in per_bank.items() if k != "bu_ops")
        # Summed over the group's responses, energy and command counts
        # are the group schedule's own: the split never overcounts.
        responses = [r.response for r in results]
        assert (sum(r.energy_nj for r in responses)
                == pytest.approx(group.schedule.energy_nj))
        assert (sum(r.command_count for r in responses)
                == len(group.schedule.timings))


class TestLiveSurface:
    """submit()/poll()/drain(): the online form of serve()."""

    def _load(self, count=30, rate=300_000, seed=7, scenario="mixed"):
        return LoadGenerator(make_scenario(scenario), rate_rps=rate,
                             count=count, seed=seed)

    def test_drain_matches_offline_serve_bit_for_bit(self):
        offline = SimServer(CONFIG, window_us=50.0)
        off = offline.serve(self._load().requests())
        live = SimServer(CONFIG, window_us=50.0)
        for sreq in self._load().stream():
            live.submit(sreq)
        drained = live.drain()
        assert len(drained) == len(off)
        for a, b in zip(off, drained):
            assert b.response.values == a.response.values
            assert b.record.completion_us == a.record.completion_us
            assert b.record.start_us == a.record.start_us
            assert b.record.dispatch_us == a.record.dispatch_us
            assert b.record.shard == a.record.shard
            assert b.record.group_banks == a.record.group_banks

    def test_poll_progression(self):
        """A request is invisible while queued/windowed, then appears
        with a response once later arrivals push virtual time past its
        dispatch and service."""
        server = SimServer(CONFIG, window_us=10.0)
        first = server.submit(ntt_request(0), arrival_us=0.0)
        assert server.poll(first) is None          # window still open
        server.submit(ntt_request(1), arrival_us=5.0)
        assert server.poll(first) is None          # still open (5 < 10)
        server.submit(ntt_request(2), arrival_us=5_000.0)
        result = server.poll(first)                # window long closed
        assert result is not None and result.ok
        assert result.record.group_banks == 2      # batched with #2
        drained = server.drain()
        assert len(drained) == 3
        assert server.poll(first) is None          # session closed

    def test_poll_unknown_and_empty_drain(self):
        server = SimServer(CONFIG)
        assert server.poll(1) is None
        assert server.drain() == []

    def test_submit_rejected_request_polls_failed_result(self):
        server = SimServer(CONFIG, max_depth=1, window_us=1000.0)
        ids = [server.submit(ntt_request(i), arrival_us=float(i))
               for i in range(3)]
        rejected = [server.poll(i) for i in ids[1:]]
        assert all(r is not None and not r.ok for r in rejected)
        assert all(r.record.status == "rejected" for r in rejected)
        results = server.drain()
        assert results[0].ok

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_bad_coefficient_rejected_at_admission(self, path):
        """One out-of-range coefficient is a RequestValidationError at
        submit(); the neighbours it would have shared a dispatch with
        are served as if it never arrived."""
        self._check_rejected_at_admission(
            path, _with_coefficient(-1), "coefficients")

    @pytest.mark.parametrize("path", ["numpy", "python"])
    @pytest.mark.parametrize("bad", [1.5, "5"], ids=["float", "str"])
    def test_non_integer_coefficient_rejected_at_admission(self, path,
                                                           bad):
        """A non-integer coefficient is rejected at submit() the same
        way, before the stacked data plane's uint64 load could truncate
        it."""
        self._check_rejected_at_admission(
            path, _with_coefficient(bad), "coefficients")

    @pytest.mark.parametrize("path", ["numpy", "python"])
    def test_wide_modulus_rejected_at_admission(self, path):
        """A modulus wider than the 64-bit bank word is rejected at
        submit() too, instead of failing its dispatch at drain()."""
        q = find_ntt_prime(N, 65)
        # omega from a quadratic non-residue: no slow factoring of q - 1.
        x = next(x for x in range(2, q) if pow(x, (q - 1) // 2, q) == q - 1)
        wide = NttParams(N, q, pow(x, (q - 1) // N, q))
        self._check_rejected_at_admission(
            path, ntt_request(9, wide), "64-bit bank word")

    @staticmethod
    def _check_rejected_at_admission(path, bad, match):
        with on_path(path):
            with pytest.raises(RequestValidationError, match=match):
                SimServer(CONFIG).serve(
                    [ntt_request(0), ntt_request(1), bad, ntt_request(2)])
            server = SimServer(SimConfig(), window_us=50.0)
            kept = [server.submit(ntt_request(0), arrival_us=0.0),
                    server.submit(ntt_request(1), arrival_us=1.0)]
            with pytest.raises(RequestValidationError, match=match):
                server.submit(bad, arrival_us=2.0)
            kept.append(server.submit(ntt_request(2), arrival_us=3.0))
            results = server.drain()
        assert [r.record.request_id for r in results] == kept
        assert all(r.ok and r.response.verified for r in results)
        assert results[0].record.group_banks == 3
        for seed, result in enumerate(results):
            alone = Simulator().run(ntt_request(seed))
            assert result.response.values == alone.values

    def test_submit_clamps_past_arrivals(self):
        server = SimServer(CONFIG, window_us=5.0)
        server.submit(ntt_request(0), arrival_us=100.0)
        late = server.submit(ntt_request(1), arrival_us=1.0)  # in the past
        results = server.drain()
        by_id = {r.record.request_id: r.record for r in results}
        assert by_id[late].arrival_us >= 100.0

    def test_submit_rejects_kwargs_alongside_serve_request(self):
        server = SimServer(CONFIG)
        with pytest.raises(ValueError, match="ServeRequest"):
            server.submit(ServeRequest(request=ntt_request(0)), priority=3)
        assert server.drain() == []  # nothing was admitted

    def test_drain_survives_execution_error_and_retries(self, monkeypatch):
        server = SimServer(CONFIG, window_us=5.0)
        request_id = server.submit(ntt_request(0))
        real_execute = SimServer._execute
        failures = {"left": 1}

        def flaky(self, unit):
            if failures["left"]:
                failures["left"] -= 1
                raise RuntimeError("transient execution failure")
            return real_execute(self, unit)

        monkeypatch.setattr(SimServer, "_execute", flaky)
        # Pool leaks surface as the serving hierarchy, original attached.
        with pytest.raises(ServeError, match="transient") as excinfo:
            server.drain()
        assert isinstance(excinfo.value.__cause__, RuntimeError)
        # The session survived: the retry serves the re-queued unit.
        results = server.drain()
        assert len(results) == 1 and results[0].ok
        assert results[0].record.request_id == request_id
        assert server.drain() == []  # now closed

    def test_serve_guard_while_live_session_open(self):
        server = SimServer(CONFIG)
        server.submit(ntt_request(0))
        with pytest.raises(RuntimeError, match="drain"):
            server.serve([ServeRequest(request=ntt_request(1))])
        server.drain()
        assert server.serve([ServeRequest(request=ntt_request(1))])[0].ok

    def test_advance_settles_without_new_traffic(self):
        """The idle tick: virtual time passes, the window closes, and
        the result becomes pollable with no further arrivals — what a
        console loop (or any quiet client) relies on."""
        server = SimServer(CONFIG, window_us=10.0)
        request_id = server.submit(ntt_request(0), arrival_us=0.0)
        assert server.poll(request_id) is None      # window still open
        server.advance(5.0)
        assert server.poll(request_id) is None      # still open (5 < 10)
        server.advance(5_000.0)
        result = server.poll(request_id)            # closed by the tick
        assert result is not None and result.ok
        # The tick changed *when* the answer appeared, never *what* the
        # session computes: the drain matches an untouched twin.
        twin = SimServer(CONFIG, window_us=10.0)
        twin.submit(ntt_request(0), arrival_us=0.0)
        a, b = server.drain(), twin.drain()
        assert a[0].response.values == b[0].response.values
        assert a[0].record.completion_us == b[0].record.completion_us

    def test_advance_is_monotonic_and_opens_a_session(self):
        server = SimServer(CONFIG, window_us=10.0)
        server.advance(100.0)                       # opens an empty live session
        assert server.session_offset_us() == 0.0
        request_id = server.submit(ntt_request(0))  # arrives at "now" = 100
        server.advance(50.0)                        # backwards: no-op
        server.advance(5_000.0)
        record = server.poll(request_id).record
        assert record.arrival_us >= 100.0
        server.drain()

    def test_live_stats_gauges(self):
        server = SimServer(CONFIG, window_us=50.0, num_shards=2)
        empty = server.live_stats()
        assert empty["submitted"] == 0 and empty["breakers"] == {}
        server.submit(ntt_request(0), arrival_us=0.0)
        stats = server.live_stats()
        assert stats["submitted"] == 1
        assert stats["settled"] == 0
        assert stats["num_shards"] == 2
        server.drain()

    def test_clock_monotonic_across_live_and_offline_sessions(self):
        server = SimServer(CONFIG)
        server.serve([ntt_request(0)])
        first_completion = server.telemetry.records[-1].completion_us
        server.submit(ntt_request(1))
        server.drain()
        second_completion = server.telemetry.records[-1].completion_us
        assert second_completion > first_completion


class TestSharedBus:
    def test_unknown_bus_model_rejected(self):
        with pytest.raises(ValueError, match="bus model"):
            SimServer(CONFIG, bus="turbo")

    def _two_shape_load(self, per_shape=4):
        big = NttParams(512, find_ntt_prime(512, 32))
        sreqs = [ServeRequest(request=ntt_request(i), arrival_us=0.0,
                              request_id=i + 1) for i in range(per_shape)]
        sreqs += [ServeRequest(request=ntt_request(i, big), arrival_us=0.0,
                               request_id=i + 1 + per_shape)
                  for i in range(per_shape)]
        return sreqs

    def test_shared_bus_delays_concurrent_shards(self):
        independent = SimServer(CONFIG, num_shards=2, window_us=5.0,
                                bus="independent")
        shared = SimServer(CONFIG, num_shards=2, window_us=5.0,
                           bus="shared")
        m_ind = max(r.record.completion_us
                    for r in independent.serve(self._two_shape_load()))
        m_sha = max(r.record.completion_us
                    for r in shared.serve(self._two_shape_load()))
        assert m_sha > m_ind  # the second shard stalled for bus slots
        snap = shared.telemetry.snapshot()
        assert snap["bus_utilization"] > 0.0
        assert snap["bus_wait_p99_us"] > 0.0
        assert independent.telemetry.snapshot()["bus_utilization"] == 0.0

    def test_shared_bus_single_shard_matches_independent(self):
        """With one shard the bus occupancy always fits under the
        dispatch latency, so the shared model changes nothing — the
        PR 4 single-shard numbers are preserved exactly."""
        a = SimServer(CONFIG, num_shards=1, bus="independent")
        b = SimServer(CONFIG, num_shards=1, bus="shared")
        ra = a.serve(self._two_shape_load())
        rb = b.serve(self._two_shape_load())
        for x, y in zip(ra, rb):
            assert x.record.completion_us == y.record.completion_us
        assert b.telemetry.snapshot()["bus_utilization"] > 0.0

    def test_fhe_dispatches_charge_the_bus(self):
        """Multi-program workloads (FHE ops) report their summed command
        count, so the shared bus sees their traffic too."""
        server = SimServer(CONFIG, bus="shared")
        result = server.serve([ServeRequest(request=fhe_request(0),
                                            request_id=1)])[0]
        assert result.response.command_count > 0
        assert server.telemetry.snapshot()["bus_utilization"] > 0.0

    def test_shared_bus_responses_stay_bit_identical(self):
        server = SimServer(CONFIG, num_shards=2, window_us=5.0,
                           bus="shared")
        sreqs = self._two_shape_load()
        solo = Simulator(CONFIG)
        for sreq, result in zip(sreqs, server.serve(sreqs)):
            assert result.response.values == solo.run(sreq.request).values


class TestPlanSession:
    def test_incremental_plan_matches_offline_plan(self):
        def arrivals():
            return [ServeRequest(request=ntt_request(i),
                                 arrival_us=float(i * 7), request_id=i + 1)
                    for i in range(10)]
        offline = BatchingScheduler(window_us=20.0, max_banks=3)
        units, dropped = _plan(offline, arrivals())
        online = BatchingScheduler(window_us=20.0, max_banks=3)
        session = online.begin(RequestQueue())
        for sreq in arrivals():
            session.offer(sreq)
        session.flush()
        assert not dropped and not session.dropped
        assert [(u.ready_us, [m.request_id for m in u.members], u.shard)
                for u in units] == \
               [(u.ready_us, [m.request_id for m in u.members], u.shard)
                for u in session.units]

    def test_out_of_order_arrival_rejected(self):
        scheduler = BatchingScheduler(window_us=10.0)
        session = scheduler.begin(RequestQueue())
        session.offer(ServeRequest(request=ntt_request(0), arrival_us=50.0,
                                   request_id=1))
        with pytest.raises(ValueError, match="precedes"):
            session.offer(ServeRequest(request=ntt_request(1),
                                       arrival_us=10.0, request_id=2))


class TestPlanSessionRelease:
    """``release`` admits dependency-released arrivals: at or past the
    clock it is ``offer``; behind the clock it joins the planning walk
    without moving the clock."""

    @staticmethod
    def _sreq(i, arrival, priority=0):
        return ServeRequest(request=ntt_request(i), arrival_us=arrival,
                            priority=priority, request_id=i + 1)

    @staticmethod
    def _units(session):
        return [(u.ready_us, [m.request_id for m in u.members], u.shard)
                for u in session.units]

    def test_release_at_or_after_clock_plans_like_offer(self):
        arrivals = [0.0, 5.0, 5.0, 40.0, 41.0, 90.0, 90.0]
        sessions = []
        for admit in ("offer", "release"):
            session = BatchingScheduler(window_us=20.0, max_banks=3) \
                .begin(RequestQueue(max_depth=4))
            for i, arrival in enumerate(arrivals):
                getattr(session, admit)(self._sreq(i, arrival))
                assert session.now_us == arrival
            session.flush()
            sessions.append(session)
        offered, released = sessions
        assert self._units(released) == self._units(offered)
        assert released.dropped == offered.dropped
        assert released.now_us == offered.now_us

    def test_past_release_joins_open_window_without_moving_clock(self):
        session = BatchingScheduler(window_us=100.0, max_banks=8) \
            .begin(RequestQueue())
        session.offer(self._sreq(0, 0.0))
        session.advance(50.0)
        session.release(self._sreq(1, 20.0))
        assert session.now_us == 50.0 and not session.units
        session.flush()
        assert self._units(session) == [(100.0, [1, 2], 0)]

    def test_past_release_opens_a_window_at_its_release_time(self):
        session = BatchingScheduler(window_us=30.0, max_banks=8) \
            .begin(RequestQueue())
        session.offer(self._sreq(0, 0.0))
        session.advance(40.0)
        session.release(self._sreq(1, 20.0))
        assert session.now_us == 40.0
        session.advance(45.0)
        assert [u.ready_us for u in session.units] == [30.0]
        session.advance(50.0)
        assert [u.ready_us for u in session.units] == [30.0, 50.0]

    def test_past_release_filling_the_group_closes_at_latest_arrival(self):
        session = BatchingScheduler(window_us=100.0, max_banks=3) \
            .begin(RequestQueue())
        session.offer(self._sreq(0, 0.0))
        session.offer(self._sreq(1, 30.0))
        session.advance(40.0)
        session.release(self._sreq(2, 10.0))
        assert self._units(session) == [(30.0, [1, 2, 3], 0)]
        assert session.now_us == 40.0

    def test_past_release_into_a_full_queue_is_rejected(self):
        session = BatchingScheduler(window_us=100.0, max_banks=8) \
            .begin(RequestQueue(max_depth=1))
        session.offer(self._sreq(0, 0.0))
        session.advance(20.0)
        session.release(self._sreq(1, 10.0))
        assert [(r.request_id, r.status, r.arrival_us)
                for r in session.dropped] == [(2, "rejected", 10.0)]
        assert session.now_us == 20.0

    def test_past_release_past_shed_depth_is_shed(self):
        telemetry = Telemetry()
        policy = ResiliencePolicy(shed_depth=1, shed_min_priority=1)
        session = BatchingScheduler(window_us=100.0, max_banks=8) \
            .begin(RequestQueue(), telemetry, policy)
        session.offer(self._sreq(0, 0.0))
        session.advance(20.0)
        session.release(self._sreq(1, 10.0))
        session.release(self._sreq(2, 12.0, priority=1))
        assert [(r.request_id, r.status, r.arrival_us)
                for r in session.dropped] == [(2, "shed", 10.0)]
        session.flush()
        assert self._units(session) == [(100.0, [1, 3], 0)]
        assert telemetry.snapshot()["resilience"]["shed"] == 1


class TestLoadGenerator:
    def test_deterministic_given_seed(self):
        gen = lambda: LoadGenerator(make_scenario("uniform"),  # noqa: E731
                                    rate_rps=10_000, count=20, seed=5)
        a, b = gen().requests(), gen().requests()
        assert [s.arrival_us for s in a] == [s.arrival_us for s in b]
        assert [s.request for s in a] == [s.request for s in b]

    def test_mean_arrival_gap_tracks_rate(self):
        load = LoadGenerator(make_scenario("uniform"), rate_rps=1000.0,
                             count=400, seed=0)
        sreqs = load.requests()
        mean_gap = sreqs[-1].arrival_us / len(sreqs)
        assert mean_gap == pytest.approx(1000.0, rel=0.2)  # 1/rate = 1ms

    def test_skewed_mix_is_skewed(self):
        sreqs = LoadGenerator(make_scenario("skewed"), rate_rps=1000.0,
                              count=100, seed=1).requests()
        n512 = sum(s.request.params.n == 512 for s in sreqs)
        assert n512 > 75

    def test_priorities_and_deadlines_stamped(self):
        sreqs = LoadGenerator(make_scenario("uniform"), rate_rps=1000.0,
                              count=50, seed=3, high_priority_fraction=0.5,
                              deadline_us=123.0).requests()
        assert 0 < sum(s.priority for s in sreqs) < 50
        assert all(s.deadline_us == pytest.approx(s.arrival_us + 123.0)
                   for s in sreqs)

    def test_stream_equals_requests(self):
        load = LoadGenerator(make_scenario("mixed"), rate_rps=5_000,
                             count=25, seed=9)
        assert list(load.stream()) == load.requests()

    def test_mixed_scenario_covers_every_batchable_kind(self):
        sreqs = LoadGenerator(make_scenario("mixed"), rate_rps=1000.0,
                              count=120, seed=4).requests()
        kinds = {(s.request.workload, s.request.inverse) for s in sreqs}
        assert kinds == {("ntt", False), ("ntt", True),
                         ("negacyclic", False), ("negacyclic", True)}

    def test_unknown_scenario_raises(self):
        from repro.errors import ServeError
        with pytest.raises(ServeError, match="unknown scenario") as info:
            make_scenario("nope")
        # The error is contextful: every available scenario is listed.
        for name in ("uniform", "skewed", "fhe", "mixed", "chaos", "dag",
                     "pipeline"):
            assert name in str(info.value)

    def test_tenancy_labels_without_perturbing_the_stream(self):
        """The tenant draw uses a sibling RNG stream: a seeded stream
        yields bit-identical arrivals, shapes and values with or
        without tenancy."""
        plain = LoadGenerator(make_scenario("mixed"), rate_rps=10_000,
                              count=30, seed=5).requests()
        tagged = LoadGenerator(make_scenario("mixed"), rate_rps=10_000,
                               count=30, seed=5,
                               tenants=(("a", 1.0), ("b", 1.0))
                               ).requests()
        assert [s.arrival_us for s in plain] == \
            [s.arrival_us for s in tagged]
        assert [s.request for s in plain] == [s.request for s in tagged]
        assert all(s.tenant == "" for s in plain)
        assert set(s.tenant for s in tagged) == {"a", "b"}
        again = LoadGenerator(make_scenario("mixed"), rate_rps=10_000,
                              count=30, seed=5,
                              tenants=(("a", 1.0), ("b", 1.0))).requests()
        assert [s.tenant for s in tagged] == [s.tenant for s in again]

    def test_noisy_neighbor_preset(self):
        mix = LoadGenerator.noisy_neighbor(hog_share=0.8, neighbors=3)
        assert mix[0] == ("hog", 0.8)
        assert len(mix) == 4
        assert sum(w for _, w in mix) == pytest.approx(1.0)
        sreqs = LoadGenerator(make_scenario("skewed"), rate_rps=10_000,
                              count=200, seed=2, tenants=mix).requests()
        share = sum(s.tenant == "hog" for s in sreqs) / len(sreqs)
        assert share == pytest.approx(0.8, abs=0.1)
        with pytest.raises(ValueError, match="hog_share"):
            LoadGenerator.noisy_neighbor(hog_share=1.5)

    def test_tenant_weights_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            LoadGenerator(make_scenario("uniform"), rate_rps=1000,
                          count=5, tenants=())
        with pytest.raises(ValueError, match="weights"):
            LoadGenerator(make_scenario("uniform"), rate_rps=1000,
                          count=5, tenants=(("a", 0.0),))


class TestTelemetry:
    def test_percentile_interpolates(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50.0) == pytest.approx(25.0)
        assert percentile(values, 99.0) == pytest.approx(39.7)
        assert percentile([], 50.0) == 0.0
        assert percentile([7.0], 99.0) == 7.0

    def test_snapshot_empty_session(self):
        snapshot = Telemetry().snapshot()
        assert snapshot["requests"] == 0
        assert snapshot["throughput_rps"] == 0.0
        assert snapshot["resilience"] == {
            "faults_injected": {}, "retries": 0, "timeouts": 0,
            "breaker_trips": 0, "reroutes": 0, "detected_mismatches": 0,
            "shed": 0, "shrunk_windows": 0}

    def test_unknown_resilience_event_rejected(self):
        with pytest.raises(ValueError, match="unknown resilience event"):
            Telemetry().note("retry")

    @staticmethod
    def _part(replica, latencies, start_us=0.0):
        telemetry = Telemetry()
        telemetry.replica = replica
        for i, latency in enumerate(latencies):
            telemetry.add(RequestRecord(
                request_id=i + 1, arrival_us=start_us,
                start_us=start_us, completion_us=start_us + latency))
        telemetry.note("retries")
        telemetry.faults_injected["fail"] = 2
        return telemetry

    def test_merge_single_part_is_identity(self):
        part = self._part(0, [10.0, 20.0])
        merged = Telemetry.merge([part])
        assert merged.records == part.records
        assert merged.events == part.events
        assert merged.faults_injected == part.faults_injected
        assert {k: v for k, v in merged.snapshot().items()} == \
            {k: v for k, v in part.snapshot().items()}

    def test_merge_pools_records_and_sums_counters(self):
        a = self._part(0, [10.0, 20.0])
        b = self._part(1, [30.0, 40.0])
        merged = Telemetry.merge([a, b])
        assert len(merged.records) == 4
        # Per-replica attribution survives the pooling.
        assert [r.replica for r in merged.records] == [0, 0, 1, 1]
        assert merged.events["retries"] == 2
        assert merged.faults_injected == {"fail": 4}
        # Exact percentile over all four latencies.
        assert merged.snapshot()["latency_p50_us"] == pytest.approx(25.0)

    def test_merge_snapshots_weighted_combining(self):
        # Two replicas, equal completed counts: percentile means are
        # completed-weighted, counters add, and rates re-derive over
        # the *max* makespan (replicas serve concurrently).
        a = self._part(0, [10.0, 20.0]).snapshot()    # makespan 20us
        b = self._part(1, [30.0, 40.0]).snapshot()    # makespan 40us
        merged = merge_snapshots([a, b])
        assert merged["requests"] == 4
        assert merged["completed"] == 4
        assert merged["replicas"] == 2
        assert merged["availability"] == pytest.approx(1.0)
        assert merged["latency_p50_us"] == pytest.approx(
            (a["latency_p50_us"] + b["latency_p50_us"]) / 2.0)
        assert merged["makespan_us"] == pytest.approx(40.0)
        # 4 in-deadline completions re-rated over the widest makespan.
        assert merged["goodput_rps"] == pytest.approx(4 / 40e-6)
        assert merged["throughput_rps"] == pytest.approx(4 / 40e-6)
        assert merged["resilience"]["retries"] == 2
        assert merged["resilience"]["faults_injected"] == {"fail": 4}

    def test_merge_snapshots_unequal_weights_and_empty(self):
        empty = merge_snapshots([])
        assert empty["requests"] == 0 and empty["replicas"] == 0
        assert empty["resilience"] == {"faults_injected": {}}
        heavy = self._part(0, [10.0] * 9).snapshot()
        light = self._part(1, [100.0]).snapshot()
        merged = merge_snapshots([heavy, light])
        # 9:1 completed weighting pulls the mean toward the busy part.
        assert merged["latency_mean_us"] == pytest.approx(
            0.9 * heavy["latency_mean_us"] + 0.1 * light["latency_mean_us"])
