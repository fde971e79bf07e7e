"""Tests for DAG workloads: :class:`repro.api.DagRequest` construction
and golden model, the ``kyber_kem`` workload, the builders in
:mod:`repro.dag`, and dependency-aware serving in :mod:`repro.serve`.

The load-bearing properties:

* a served DAG never executes a stage before every parent has settled,
  yet ready stages from concurrent graphs coalesce into shared
  multi-bank dispatches;
* ``drain()`` returns whole graphs in submission order, each
  bit-identical (sink values, per-node outputs, per-stage responses) to
  a standalone golden ``Simulator.run`` of the same ``DagRequest``;
* everything replays deterministically — same seed, same chaos, same
  records — and a cluster failover recovers an in-flight graph exactly
  once.
"""

import dataclasses
import random

import pytest

from repro.api import DagEdge, DagRequest, FheOpRequest, KyberKemRequest, \
    NttRequest, Simulator, workload_names
from repro.arith import NttParams, find_ntt_prime
from repro.dag import ckks_mul_chain, kem_batch, ntt_pipeline
from repro.errors import RequestValidationError
from repro.ntt import NegacyclicParams, naive_negacyclic_convolution
from repro.serve import ServeRequest, SimServer
from repro.sim.driver import SimConfig

N = 256
Q = find_ntt_prime(N, 32)
PARAMS = NttParams(N, Q)
CONFIG = SimConfig()


def _poly(seed: int, n: int = N, q: int = Q):
    rng = random.Random(seed)
    return tuple(rng.randrange(q) for _ in range(n))


def _chain(*, seed: int = 0, stages: int = 3, n: int = N) -> DagRequest:
    return ntt_pipeline(n, stages=stages, seed=seed)


def _join() -> DagRequest:
    """Two roots meet in a ring multiply, one of them behind a second
    stage, and a third root stands alone."""
    ring = NegacyclicParams(N, find_ntt_prime(N, 32, negacyclic=True))
    zeros = (0,) * N
    nodes = (
        ("left", FheOpRequest(ring=ring, op="multiply", a=_poly(1, q=ring.q),
                              b=_poly(2, q=ring.q))),
        ("left_inv", FheOpRequest(ring=ring, op="inverse", a=zeros)),
        ("right", FheOpRequest(ring=ring, op="forward", a=_poly(3, q=ring.q))),
        ("join", FheOpRequest(ring=ring, op="multiply", a=zeros, b=zeros)),
        ("alone", NttRequest(params=PARAMS, values=_poly(4))),
    )
    edges = (DagEdge("left", "left_inv", "a"),
             DagEdge("left_inv", "join", "a"),
             DagEdge("right", "join", "b"))
    return DagRequest(nodes=nodes, edges=edges)


def _chains(dag: DagRequest):
    """Every dependency chain of ``dag``, from a root to each node."""
    def ending_at(name):
        parents = dag.parents(name)
        if not parents:
            yield (name,)
        for parent in parents:
            for chain in ending_at(parent):
                yield chain + (name,)
    for name, _ in dag.nodes:
        yield from ending_at(name)


#: Graph shapes for the critical-path check: a chain, roots only,
#: independent multi-stage chains, and a join.
CRITICAL_PATH_SHAPES = {
    "pipeline": lambda: _chain(seed=5, stages=4),
    "kem_batch": lambda: kem_batch(3, seed=2),
    "ckks": lambda: ckks_mul_chain(N, limbs=2, depth=2, seed=1),
    "join": _join,
}


class TestDagRequestConstruction:
    def test_registered_workload(self):
        assert "dag" in workload_names()
        assert "kyber_kem" in workload_names()

    def test_cycle_rejected(self):
        nodes = (("a", NttRequest(params=PARAMS, values=_poly(1))),
                 ("b", NttRequest(params=PARAMS, values=None)))
        with pytest.raises(RequestValidationError, match="cycle"):
            DagRequest(nodes=nodes,
                       edges=(DagEdge("a", "b", "values"),
                              DagEdge("b", "a", "values")))

    def test_self_edge_rejected(self):
        nodes = (("a", NttRequest(params=PARAMS, values=_poly(1))),)
        with pytest.raises(RequestValidationError):
            DagRequest(nodes=nodes, edges=(DagEdge("a", "a", "values"),))

    def test_unknown_node_reference_rejected(self):
        nodes = (("a", NttRequest(params=PARAMS, values=_poly(1))),)
        with pytest.raises(RequestValidationError, match="unknown"):
            DagRequest(nodes=nodes, edges=(DagEdge("a", "ghost", "values"),))

    def test_duplicate_node_name_rejected(self):
        nodes = (("a", NttRequest(params=PARAMS, values=_poly(1))),
                 ("a", NttRequest(params=PARAMS, values=_poly(2))))
        with pytest.raises(RequestValidationError, match="duplicate"):
            DagRequest(nodes=nodes)

    def test_nested_dag_rejected(self):
        inner = _chain(seed=1, stages=2)
        with pytest.raises(RequestValidationError, match="nests"):
            DagRequest(nodes=(("inner", inner),))

    def test_bad_edge_field_rejected_by_validate(self):
        nodes = (("a", NttRequest(params=PARAMS, values=_poly(1))),
                 ("b", NttRequest(params=PARAMS, values=None)))
        dag = DagRequest(nodes=nodes,
                         edges=(DagEdge("a", "b", "no_such_field"),))
        with pytest.raises(RequestValidationError, match="no_such_field"):
            dag.validate()

    def test_topological_order_and_parents(self):
        dag = _chain(seed=2, stages=4)
        order = dag.topological_order()
        assert order == ["stage0", "stage1", "stage2", "stage3"]
        assert dag.parents("stage0") == ()
        assert dag.parents("stage2") == ("stage1",)
        assert dag.sink_name == "stage3"


class TestGoldenModel:
    def test_pipeline_matches_manual_stage_run(self):
        """The golden "dag" run equals running each stage by hand and
        feeding parent outputs forward."""
        dag = _chain(seed=3, stages=3)
        sim = Simulator(CONFIG)
        response = sim.run(dag)
        values = None
        for name, node in dag.nodes:
            bound = dag.bound_request(
                name, {p: values for p in dag.parents(name)})
            stage = sim.run(bound)
            values = tuple(stage.values)
        assert list(response.values) == list(values)
        assert response.workload == "dag"
        assert response.metrics["stages"] == 3
        assert response.metrics["critical_path_us"] > 0
        assert response.verified == all(
            r.verified for r in response.raw["responses"].values())

    def test_parallel_graph_critical_path(self):
        """Independent chains: critical path is one chain, total
        latency of the golden (sequential host) run is all of them."""
        dag = kem_batch(4, seed=1)
        response = Simulator(CONFIG).run(dag)
        assert response.metrics["parallelism"] == pytest.approx(4.0)

    @pytest.mark.parametrize("shape", sorted(CRITICAL_PATH_SHAPES))
    def test_critical_path_is_the_heaviest_chain(self, shape):
        """The golden run's latency is the graph's critical path under
        its stages' latencies — the heaviest chain of all of them."""
        dag = CRITICAL_PATH_SHAPES[shape]()
        response = Simulator(CONFIG).run(dag)
        latencies = {name: stage.latency_us
                     for name, stage in response.raw["responses"].items()}
        assert response.latency_us == response.metrics["critical_path_us"] \
            == dag.critical_path_us(latencies)
        assert response.latency_us == pytest.approx(
            max(sum(latencies[name] for name in chain)
                for chain in _chains(dag)), rel=1e-12)
        assert response.metrics["total_latency_us"] == pytest.approx(
            sum(latencies.values()), rel=1e-12)

    def test_forward_inverse_roundtrip(self):
        values = _poly(7)
        dag = DagRequest(nodes=(
            ("fwd", NttRequest(params=PARAMS, values=values)),
            ("inv", NttRequest(params=PARAMS, values=None, inverse=True))),
            edges=(DagEdge("fwd", "inv", "values"),))
        response = Simulator(CONFIG).run(dag)
        assert list(response.values) == list(values)


class TestBinding:
    """A parent's output binds into its child as given; the child's
    ``__post_init__`` freezes it, and validation names what cannot
    feed a bank word."""

    def test_bound_child_holds_a_frozen_copy_of_the_output(self):
        dag = _chain(seed=4, stages=2)
        values = list(Simulator(CONFIG).run(dag.node("stage0")).values)
        bound = dag.bound_request("stage1", {"stage0": values})
        twin = dataclasses.replace(dag.node("stage1"), values=tuple(values))
        assert bound.values == twin.values == tuple(values)
        assert bound == twin and hash(bound) == hash(twin)
        values[0] ^= 1
        assert bound.values == twin.values

    @pytest.mark.parametrize("values, match", [
        ([-1] + [0] * (N - 1), "must lie in"),
        ([2**64] + [0] * (N - 1), "must lie in"),
        ([0.5] * N, "must be integers")])
    def test_outputs_that_fit_no_bank_word_fail_validation(self, values,
                                                           match):
        dag = _chain(seed=4, stages=2)
        with pytest.raises(RequestValidationError,
                           match=f"stage 'stage1': binding values failed"
                                 f".*{match}"):
            dag.bound_request("stage1", {"stage0": values})


class TestTimingOnlyDags:
    """A timing-only graph runs with its edges: parents return no values,
    so each child keeps its placeholders, and the cycles and latency
    equal the functional run's (timing never reads operands)."""

    GRAPHS = [pytest.param(lambda: ntt_pipeline(N, stages=3), id="pipeline"),
              pytest.param(lambda: ckks_mul_chain(64, limbs=1, depth=1),
                           id="ckks")]

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_simulator(self, graph):
        dag = graph()
        assert dag.edges
        timed = Simulator(SimConfig(functional=False)).run(dag)
        full = Simulator(CONFIG).run(dag)
        assert (timed.cycles, timed.latency_us) == (full.cycles,
                                                    full.latency_us)
        assert full.verified and not timed.verified

    @pytest.mark.parametrize("graph", GRAPHS)
    def test_server(self, graph):
        dag = graph()
        (timed,) = SimServer(SimConfig(functional=False)).serve([dag])
        (full,) = SimServer(CONFIG).serve([dag])
        assert timed.ok and full.ok
        assert (timed.response.cycles, timed.response.latency_us) == (
            full.response.cycles, full.response.latency_us)
        assert timed.record.completion_us == full.record.completion_us

    def test_pipeline_cycles(self):
        timed = Simulator(SimConfig(functional=False)).run(
            ntt_pipeline(N, stages=3))
        assert timed.cycles == 12999


class TestKyberKemWorkload:
    def test_matches_schoolbook_ring_product(self):
        n, q, depth = 256, 3329, 2
        a, b = _poly(11, n, q), _poly(12, n, q)
        response = Simulator(CONFIG).run(
            KyberKemRequest(a=a, b=b, n=n, q=q, depth=depth))
        assert list(response.values) == \
            naive_negacyclic_convolution(list(a), list(b), q)
        assert response.verified
        assert response.metrics["sub_transforms"] == 3 * depth
        assert response.cycles > 0 and response.latency_us > 0

    def test_invalid_ring_rejected(self):
        with pytest.raises(RequestValidationError):
            KyberKemRequest(a=(0,) * 256, b=(0,) * 256,
                            n=256, q=3329, depth=1).validate()
        with pytest.raises(RequestValidationError):
            KyberKemRequest(a=(0,) * 10, b=(0,) * 10,
                            n=256, q=3329, depth=2).validate()


class TestBuilders:
    def test_builders_are_deterministic(self):
        assert ckks_mul_chain(64, limbs=2, depth=2, seed=5) == \
            ckks_mul_chain(64, limbs=2, depth=2, seed=5)
        assert ntt_pipeline(256, stages=3, seed=5) != \
            ntt_pipeline(256, stages=3, seed=6)

    def test_ckks_chain_shape(self):
        dag = ckks_mul_chain(64, limbs=2, depth=2, seed=0)
        assert len(dag.nodes) == 12  # limbs * depth * (mul, relin, rescale)
        response = Simulator(CONFIG).run(dag)
        assert response.metrics["parallelism"] == pytest.approx(2.0)


class TestServedDags:
    def test_served_bit_identical_to_golden(self):
        """Sink values, per-node outputs AND per-stage responses of a
        served DAG equal the standalone golden run."""
        dag = _chain(seed=21, stages=4)
        golden = Simulator(CONFIG).run(dag)
        server = SimServer(CONFIG, num_shards=2, max_banks=4)
        result = server.serve([dag])[0]
        assert result.ok
        assert list(result.response.values) == list(golden.values)
        assert [list(o) for o in result.response.outputs] == \
            [list(o) for o in golden.outputs]
        for name, _node in dag.nodes:
            assert list(result.stages[name].response.values) == \
                list(golden.raw["responses"][name].values)

    def test_no_stage_starts_before_parents_settle(self):
        dags = [ckks_mul_chain(64, limbs=2, depth=2, seed=s)
                for s in (1, 2)]
        server = SimServer(CONFIG, window_us=20.0, max_banks=8)
        for result, dag in zip(server.serve(dags), dags):
            assert result.ok
            for name, _ in dag.nodes:
                record = result.stages[name].record
                for parent in dag.parents(name):
                    done = result.stages[parent].record.completion_us
                    assert record.start_us >= done - 1e-9
                    assert record.arrival_us >= done - 1e-9

    def test_ready_stages_coalesce_across_dags(self):
        """Same-shape stages of concurrent graphs merge into shared
        multi-bank dispatches — the whole point of serving graphs
        through the batching window instead of running them solo."""
        dags = [_chain(seed=s, stages=3) for s in (31, 32)]
        server = SimServer(CONFIG, window_us=50.0, max_banks=8)
        results = server.serve(dags)
        banks = [res.stages[name].record.group_banks
                 for res, dag in zip(results, dags) for name, _ in dag.nodes]
        assert max(banks) >= 2
        golden = Simulator(CONFIG)
        for res, dag in zip(results, dags):
            assert list(res.response.values) == \
                list(golden.run(dag).values)

    def test_drain_returns_submission_order(self):
        dags = [_chain(seed=s, stages=2) for s in (41, 42, 43)]
        plain = NttRequest(params=PARAMS, values=_poly(44))
        server = SimServer(CONFIG)
        ids = [server.submit(item, arrival_us=float(i))
               for i, item in enumerate(dags + [plain])]
        results = server.drain()
        assert len(results) == 4
        assert [r.record.request_id for r in results] == ids
        assert [r.record.workload for r in results] == \
            ["dag", "dag", "dag", "ntt"]

    def test_live_stats_count_a_settled_dag_once(self):
        """A graph is one client request: its stage results must not
        count as settled requests."""
        server = SimServer(CONFIG)
        rid = server.submit(_chain(seed=55, stages=3))
        server.advance(1e6)
        assert server.poll(rid).ok
        stats = server.live_stats()
        assert stats["submitted"] == stats["settled"] == 1

    def test_submit_drain_equals_offline_serve(self):
        dags = [_chain(seed=s, stages=3) for s in (51, 52)]
        sreqs = [ServeRequest(request=d, arrival_us=10.0 * i,
                              request_id=i + 1)
                 for i, d in enumerate(dags)]
        offline = SimServer(CONFIG).serve(sreqs)
        live = SimServer(CONFIG)
        for sreq in sreqs:
            live.submit(sreq)
        online = live.drain()
        assert [r.record for r in online] == [r.record for r in offline]
        assert [list(r.response.values) for r in online] == \
            [list(r.response.values) for r in offline]

    def test_dag_record_and_telemetry(self):
        dag = _chain(seed=61, stages=3)
        server = SimServer(CONFIG)
        result = server.serve([dag])[0]
        record = result.record
        assert record.workload == "dag"
        assert record.critical_path_us > 0
        assert record.latency_us >= record.critical_path_us - 1e-9
        stage_records = [result.stages[name].record for name, _ in dag.nodes]
        assert record.cycles == sum(r.cycles for r in stage_records)
        snap = server.telemetry.snapshot()
        # Stages never inflate the headline counts.
        assert snap["requests"] == 1 and snap["completed"] == 1
        dag_rollup = snap["dag"]
        assert dag_rollup["dags"] == 1 and dag_rollup["stages"] == 3
        assert dag_rollup["critical_path_stretch"] >= 1.0 - 1e-9
        assert "dag workloads" in server.telemetry.summary()

    def test_deadline_judged_on_whole_graph(self):
        dag = _chain(seed=71, stages=3)
        server = SimServer(CONFIG)
        result = server.serve([ServeRequest(request=dag,
                                            deadline_us=1.0)])[0]
        assert result.ok  # stages carry no deadline; the graph's is a miss
        assert result.record.deadline_missed


class TestServedDagDeterminism:
    def _chaos_run(self, seed: int = 9):
        dags = [ckks_mul_chain(64, limbs=2, depth=1, seed=s)
                for s in (1, 2, 3)]
        server = SimServer(CONFIG, num_shards=2, faults="chaos",
                           fault_seed=seed, policy="standard")
        results = server.serve([
            ServeRequest(request=d, arrival_us=25.0 * i, request_id=i + 1)
            for i, d in enumerate(dags)])
        return [(r.record.request_id, r.record.status,
                 r.record.completion_us, r.record.attempts,
                 tuple(r.response.values) if r.ok else None)
                for r in results]

    def test_same_seed_chaos_replays_bit_identical(self):
        assert self._chaos_run(seed=9) == self._chaos_run(seed=9)

    def test_failed_stage_cascades_to_descendants(self):
        """A stage failure fails every descendant (they can never run)
        and the whole graph, with the culprit named — while completed
        sibling stages keep their results."""
        dag = _chain(seed=81, stages=3)
        # A breaker-free policy with zero retries and a 100% failure
        # plan: the root stage fails, everything downstream cascades.
        server = SimServer(CONFIG, faults="rate:1.0", fault_seed=3,
                           policy="none")
        result = server.serve([dag])[0]
        assert not result.ok
        assert result.record.status == "failed"
        assert "stage" in result.record.error
        statuses = [result.stages[name].record.status
                    for name, _ in dag.nodes]
        assert statuses == ["failed"] * 3
        assert "upstream stage" in result.stages["stage1"].record.error


class TestClusterDags:
    def test_cluster_dag_values_match_golden(self):
        from repro.cluster import ClusterFrontend
        dags = [_chain(seed=s, stages=3) for s in (91, 92, 93, 94)]
        cluster = ClusterFrontend(replicas=2)
        results = cluster.serve([
            ServeRequest(request=d, arrival_us=20.0 * i)
            for i, d in enumerate(dags)])
        golden = Simulator(CONFIG)
        for res, dag in zip(results, dags):
            assert res.ok
            assert list(res.response.values) == list(golden.run(dag).values)
        # A graph executes whole on one replica: every stage record of
        # one dag carries the same replica stamp.
        snap = cluster.cluster_telemetry().snapshot()
        assert snap["dag"]["dags"] == 4 and snap["dag"]["completed"] == 4

    def test_settled_dags_leave_no_outstanding_work(self):
        """Once a live 2-replica cluster's graphs settle, every
        heartbeat reads zero outstanding requests — the load the
        least-loaded router, the auto-scaler and scale-in read.  Two
        shapes, so each replica holds a routing lease on one."""
        from repro.cluster import ClusterFrontend
        cluster = ClusterFrontend(replicas=2, router="least-loaded")
        ids = [cluster.submit(_chain(seed=95 + i, stages=3, n=256 << i % 2),
                              arrival_us=20.0 * i)
               for i in range(8)]
        cluster.advance(1e6)
        results = [cluster.poll(rid) for rid in ids]
        assert all(res.ok for res in results)
        assert {res.record.replica for res in results} == {0, 1}
        assert [hb.outstanding for hb in cluster.heartbeats()] == [0, 0]

    def test_supervised_failover_recovers_inflight_dags_exactly_once(self):
        """Replica crashes mid-stream: orphaned in-flight graphs are
        re-submitted to healthy replicas exactly once — every graph
        completes once with golden values, none is double-served."""
        from repro.cluster import ClusterFrontend
        dags = [_chain(seed=s, stages=2) for s in range(100, 112)]
        cluster = ClusterFrontend(replicas=3, replica_faults="crashy",
                                  replica_fault_seed=3)
        results = cluster.serve([
            ServeRequest(request=d, arrival_us=1000.0 * i)
            for i, d in enumerate(dags)])
        assert len(results) == len(dags)
        golden = Simulator(CONFIG)
        for res, dag in zip(results, dags):
            assert res.ok
            assert list(res.response.values) == list(golden.run(dag).values)
        assert cluster.health.failovers >= 1
        # Exactly once: merged records contain one live (non-orphaned)
        # whole-graph record per submitted graph.
        records = cluster.cluster_telemetry().records
        live = [r for r in records
                if r.workload == "dag" and r.status == "ok"]
        assert len(live) == len(dags)

    def test_supervised_replay_is_deterministic(self):
        from repro.cluster import ClusterFrontend

        def run():
            dags = [_chain(seed=s, stages=2) for s in range(100, 108)]
            cluster = ClusterFrontend(replicas=3, replica_faults="crashy",
                                      replica_fault_seed=3)
            results = cluster.serve([
                ServeRequest(request=d, arrival_us=1000.0 * i)
                for i, d in enumerate(dags)])
            return [(r.record.status, r.record.completion_us,
                     tuple(r.response.values) if r.ok else None)
                    for r in results]

        assert run() == run()
