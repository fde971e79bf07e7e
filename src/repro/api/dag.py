"""Dependent op-graphs as one workload: :class:`DagRequest`.

Real FHE traffic is not independent transforms — it is *chains*:
CKKS/BGV-style multiply → relinearize → rescale, where every stage
consumes the previous stage's ciphertext limbs.  :class:`DagRequest`
makes that shape a first-class facade workload: a named-node graph
whose nodes are ordinary :class:`~repro.api.requests.SimRequest`\\ s and
whose edges feed a parent's output values into a child's input field::

    from repro.api import DagEdge, DagRequest, NttRequest, Simulator

    dag = DagRequest(
        nodes=(("fwd", NttRequest(params=params, values=data)),
               ("inv", NttRequest(params=params, inverse=True))),
        edges=(DagEdge("fwd", "inv", field="values"),))
    response = Simulator().run(dag)   # the standalone golden model

The graph is validated *at construction*: node names must be unique,
edges must reference known nodes, nodes cannot nest another
:class:`DagRequest`, and the graph must be acyclic — a malformed graph
raises :class:`~repro.errors.RequestValidationError` before any
simulation work starts.

The registered ``dag`` handler is the **golden model**: it runs every
stage standalone through the workload registry in topological order,
binding each child's inputs from its parents' outputs.  The serving
layer (:mod:`repro.serve.server`) executes the same graph with
dependency-aware batching — stages from concurrent DAGs coalesce into
shared multi-bank dispatches — and is gated bit-identical to this
handler, stage by stage.

Child nodes that receive an edge binding carry *placeholder* operands
of the right length (or ``values=None`` for transform requests); the
binding overwrites them with the parent's actual output at execution
time, and the bound request is re-validated before it runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import ClassVar, Dict, List, Mapping, Sequence, Tuple

from ..errors import RequestValidationError
from ..sim.driver import SimConfig
from .registry import register_workload
from .requests import SimRequest
from .response import SimResponse

__all__ = ["DagEdge", "DagRequest"]


@dataclass(frozen=True)
class DagEdge:
    """One dependency: ``parent``'s output values become ``child``'s
    ``field`` (``"values"`` for transform requests, ``"a"``/``"b"`` for
    FHE-op operands)."""

    parent: str
    child: str
    field: str = "values"


@dataclass(frozen=True)
class DagRequest(SimRequest):
    """A dependency graph of facade requests, served as one workload.

    ``nodes`` is an ordered ``(name, request)`` sequence (a mapping is
    accepted and frozen in iteration order); the *last* node is the
    graph's sink, whose output becomes the DAG response's ``values``.
    ``label`` is a free-form tag carried into telemetry-facing metrics.
    """

    workload: ClassVar[str] = "dag"

    nodes: Tuple[Tuple[str, SimRequest], ...] = ()
    edges: Tuple[DagEdge, ...] = ()
    label: str = ""

    def __post_init__(self):
        nodes = self.nodes
        if isinstance(nodes, Mapping):
            nodes = tuple(nodes.items())
        object.__setattr__(self, "nodes",
                           tuple((name, request) for name, request in nodes))
        object.__setattr__(self, "edges", tuple(
            edge if isinstance(edge, DagEdge) else DagEdge(*edge)
            for edge in self.edges))
        self._check_structure()

    # -- structure ---------------------------------------------------------------
    def _check_structure(self) -> None:
        if not self.nodes:
            raise RequestValidationError("a DAG needs at least one node")
        names = [name for name, _ in self.nodes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise RequestValidationError(
                f"duplicate node name(s): {', '.join(dupes)}")
        for name, request in self.nodes:
            if not name or not isinstance(name, str):
                raise RequestValidationError(
                    "node names must be non-empty strings")
            if not isinstance(request, SimRequest):
                raise RequestValidationError(
                    f"node {name!r} is not a SimRequest")
            if isinstance(request, DagRequest):
                raise RequestValidationError(
                    f"node {name!r} nests another DagRequest; "
                    f"flatten the graph instead")
        known = set(names)
        seen_edges = set()
        for edge in self.edges:
            if edge.parent not in known or edge.child not in known:
                raise RequestValidationError(
                    f"edge {edge.parent!r}->{edge.child!r} references an "
                    f"unknown node (nodes: {', '.join(names)})")
            if edge.parent == edge.child:
                raise RequestValidationError(
                    f"node {edge.parent!r} cannot depend on itself")
            if not edge.field or not isinstance(edge.field, str):
                raise RequestValidationError(
                    f"edge {edge.parent!r}->{edge.child!r} needs a "
                    f"non-empty field name")
            key = (edge.parent, edge.child, edge.field)
            if key in seen_edges:
                raise RequestValidationError(
                    f"duplicate edge {edge.parent!r}->{edge.child!r} "
                    f"into field {edge.field!r}")
            seen_edges.add(key)
        # Kahn's algorithm doubles as the acyclicity proof: any node the
        # walk cannot reach sits on (or behind) a cycle.
        order = self._kahn()
        if len(order) != len(names):
            stuck = [n for n in names if n not in set(order)]
            raise RequestValidationError(
                f"dependency cycle through node(s): {', '.join(stuck)}")

    def _kahn(self) -> List[str]:
        names = [name for name, _ in self.nodes]
        index = {name: i for i, name in enumerate(names)}
        indegree = {name: 0 for name in names}
        for edge in self.edges:
            indegree[edge.child] += 1
        ready = [name for name in names if indegree[name] == 0]
        order: List[str] = []
        while ready:
            # Deterministic: always take the earliest-declared ready node.
            ready.sort(key=index.__getitem__)
            name = ready.pop(0)
            order.append(name)
            for edge in self.edges:
                if edge.parent == name:
                    indegree[edge.child] -= 1
                    if indegree[edge.child] == 0:
                        ready.append(edge.child)
        return order

    # -- graph accessors ---------------------------------------------------------
    @property
    def sink_name(self) -> str:
        """The last-declared node — the graph's result."""
        return self.nodes[-1][0]

    def node(self, name: str) -> SimRequest:
        for node_name, request in self.nodes:
            if node_name == name:
                return request
        raise KeyError(name)

    def parents(self, name: str) -> Tuple[str, ...]:
        """Unique parents of ``name`` in first-edge order."""
        seen: List[str] = []
        for edge in self.edges:
            if edge.child == name and edge.parent not in seen:
                seen.append(edge.parent)
        return tuple(seen)

    def topological_order(self) -> List[str]:
        """A deterministic topological order (declaration order among
        simultaneously-ready nodes) — the golden model's execution
        order, and the serving layer's release-scan order."""
        return self._kahn()

    def bound_request(self, name: str,
                      parent_values: Mapping[str, Sequence[int]],
                      functional: bool = True) -> SimRequest:
        """Node ``name``'s request with every inbound edge bound:
        each edge's ``field`` is replaced by that parent's output
        values.  The bound request is re-validated, so a parent whose
        output cannot feed the child (wrong length, no values) fails
        with stage context instead of deep in the engine room.

        A timing-only stage (``functional=False``) binds nothing: its
        parents return no values, and timing never reads operands, so
        the node's own placeholders stand in (``values=None`` for a
        transform, zeros of the right length for an FHE operand)."""
        request = self.node(name)
        if not functional:
            return request
        changes: Dict[str, tuple] = {}
        for edge in self.edges:
            if edge.child != name:
                continue
            values = parent_values.get(edge.parent)
            if values is None:
                raise RequestValidationError(
                    f"dag stage {name!r}: parent {edge.parent!r} "
                    f"produced no output values to bind")
            changes[edge.field] = tuple(values)
        if not changes:
            return request
        try:
            bound = dataclasses.replace(request, **changes)
            bound.validate()
        except (RequestValidationError, TypeError) as exc:
            raise RequestValidationError(
                f"dag stage {name!r}: binding "
                f"{', '.join(sorted(changes))} failed: {exc}") from None
        return bound

    def critical_path_us(self, durations: Mapping[str, float]) -> float:
        """Length of the longest dependency chain under the given
        per-stage durations — the makespan lower bound any scheduler
        is judged against."""
        finish: Dict[str, float] = {}
        for name in self.topological_order():
            finish[name] = durations.get(name, 0.0) + max(
                (finish[p] for p in self.parents(name)), default=0.0)
        return max(finish.values()) if finish else 0.0

    # -- validation --------------------------------------------------------------
    def validate(self) -> None:
        """Structure is checked at construction; this validates every
        node request and that each edge binds an actual field of its
        child."""
        for name, request in self.nodes:
            try:
                request.validate()
            except RequestValidationError as exc:
                raise RequestValidationError(
                    f"dag node {name!r}: {exc}") from None
        for edge in self.edges:
            child = self.node(edge.child)
            fields = {f.name for f in dataclasses.fields(child)}
            if edge.field not in fields:
                raise RequestValidationError(
                    f"edge {edge.parent!r}->{edge.child!r} binds unknown "
                    f"field {edge.field!r} on {type(child).__name__} "
                    f"(fields: {', '.join(sorted(fields))})")


def _dag_envelope(dag: DagRequest, responses: Mapping[str, SimResponse],
                  **fields) -> SimResponse:
    """The ``"dag"`` response both runners build from the per-node
    responses: the sink's values, every node's output in node order,
    ``verified`` and ``command_count`` over all nodes, and their
    counters summed.  ``fields`` carry what each runner measures itself
    (the standalone run's sums and critical path, or the server's
    per-bank shares and makespan): cycles, latency, energy, metrics."""
    counters: Dict[str, int] = {}
    for response in responses.values():
        for key, value in response.counters.items():
            counters[key] = counters.get(key, 0) + value
    return SimResponse(
        workload="dag",
        values=list(responses[dag.sink_name].values),
        outputs=[list(responses[name].values) for name, _ in dag.nodes],
        verified=all(r.verified for r in responses.values()),
        command_count=sum(r.command_count for r in responses.values()),
        counters=counters,
        request=dag,
        **fields)


@register_workload("dag")
def run_dag_workload(config: SimConfig, request: DagRequest) -> SimResponse:
    """The standalone golden model: every stage runs alone (no
    batching, no bus contention) in topological order, children bound
    from their parents' outputs.  ``latency_us`` is the graph's
    critical path — stages on independent chains could run in
    parallel, and the response's ``metrics`` report how much
    parallelism the graph exposes for the serving layer to exploit.
    """
    # Local import: the Simulator facade imports the registry this
    # handler registers into.
    from .simulator import Simulator

    sim = Simulator(config)
    responses: Dict[str, SimResponse] = {}
    finish: Dict[str, float] = {}
    order = request.topological_order()
    for name in order:
        bound = request.bound_request(
            name, {p: responses[p].values for p in request.parents(name)},
            functional=config.functional)
        response = sim.run(bound)
        responses[name] = response
        finish[name] = response.latency_us + max(
            (finish[p] for p in request.parents(name)), default=0.0)
    critical_path_us = max(finish.values())
    total_latency_us = sum(r.latency_us for r in responses.values())
    metrics: Dict[str, object] = {
        "stages": len(order),
        "critical_path_us": critical_path_us,
        "total_latency_us": total_latency_us,
        "parallelism": (total_latency_us / critical_path_us
                        if critical_path_us > 0 else 1.0),
    }
    if request.label:
        metrics["label"] = request.label
    return _dag_envelope(
        request, responses,
        cycles=sum(r.cycles for r in responses.values()),
        latency_us=critical_path_us,
        energy_nj=sum(r.energy_nj for r in responses.values()),
        metrics=metrics,
        raw={"responses": responses, "order": order,
             "critical_path_us": critical_path_us})
