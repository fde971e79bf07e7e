"""Per-layer host-time attribution, installed from outside ``src/``.

The tracer wraps each layer's public functions at *every* binding that
holds them: module globals (``sim/driver.py`` imports
``reference.ntt`` as ``reference_ntt``, ``sim/multibank.py`` imports
``reference.intt`` as ``reference_intt``) and class attributes
(methods, classmethods).  Wrapping only the canonical names would leave
the aliased calls unattributed, and their time would hide in the
caller's self time.

A wrapped call opens a span.  A span's self time is its duration minus
the durations of the spans it encloses, so the per-layer self times add
up to the time spent inside the outermost spans.  ``uninstall`` puts
every original object back, including bindings that modules imported
lazily while the tracer was installed.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: ``(layer, targets)``.  A target is ``"module:qualname"``, optionally
#: with a work extractor ``fn(args, result) -> int`` counted per span.
LAYERS: Tuple[Tuple[str, Tuple[tuple, ...]], ...] = (
    ("map", (
        ("repro.mapping.program_cache:cyclic_program",
         lambda args, result: len(result.commands)),
        ("repro.mapping.program_cache:negacyclic_program",
         lambda args, result: len(result.commands)))),
    ("compile", (
        ("repro.dram.stream:cached_stream", lambda args, result: result.n),
        ("repro.dram.stream:compile_stream", lambda args, result: result.n))),
    ("timing", (
        ("repro.dram.engine:TimingEngine.simulate_stream",
         lambda args, result: args[1].n),
        ("repro.sim.driver:cached_schedule", None))),
    ("bank", (
        ("repro.pim.bank_pim:PimBank.run_stream", None),)),
    ("host_io", (
        ("repro.pim.bank_pim:PimBank.load_polynomial",
         lambda args, result: len(args[2])),
        ("repro.pim.bank_pim:PimBank.read_polynomial",
         lambda args, result: len(result)),
        ("repro.arith.bitrev:bit_reverse_permute",
         lambda args, result: len(result)))),
    ("verify", (
        ("repro.ntt.reference:ntt", None),
        ("repro.ntt.reference:intt", None),
        ("repro.ntt.merged:merged_negacyclic_ntt", None),
        ("repro.ntt.merged:merged_negacyclic_intt", None))),
    ("dispatch", (
        ("repro.api.simulator:Simulator.run", None),)),
    ("plan", (
        ("repro.serve.scheduler:PlanSession.offer", None),
        ("repro.serve.scheduler:PlanSession.release", None),
        ("repro.serve.scheduler:PlanSession.advance", None),
        ("repro.serve.scheduler:PlanSession.flush", None),
        ("repro.serve.queueing:RequestQueue.offer", None))),
    ("telemetry", (
        ("repro.serve.telemetry:Telemetry.add", lambda args, result: 1),
        ("repro.serve.telemetry:Telemetry.snapshot", None),
        ("repro.serve.telemetry:Telemetry.merge", None),
        ("repro.serve.telemetry:merge_snapshots", None))),
    ("server", (
        ("repro.serve.server:SimServer.__init__", None),
        ("repro.serve.server:SimServer.serve", None),
        ("repro.serve.server:SimServer.submit", None),
        ("repro.serve.server:SimServer.poll", None),
        ("repro.serve.server:SimServer.advance", None),
        ("repro.serve.server:SimServer.drain", None))),
    ("cluster", (
        ("repro.cluster.frontend:ClusterFrontend.__init__", None),
        ("repro.cluster.frontend:ClusterFrontend.submit", None),
        ("repro.cluster.frontend:ClusterFrontend.drain", None),
        ("repro.cluster.frontend:ClusterFrontend.cluster_snapshot", None),
        ("repro.cluster.router:ConsistentHashRouter.route", None))),
)

LAYER_NAMES = tuple(name for name, _ in LAYERS)

#: A span of the key layer opened inside a span of one of the value
#: layers is folded into the enclosing span: the golden NTT bit-reverses
#: its own input, which is verification work, not host I/O.
FOLD = {"host_io": frozenset({"verify"})}


def _resolve(target: str) -> Callable:
    """The function a ``"module:qualname"`` target names (the function
    under a classmethod, not a bound method)."""
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = vars(obj)[part]
    return getattr(obj, "__func__", obj)


def _repro_containers():
    """Every module of the package and every class defined in one."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro"
                                  or name.startswith("repro.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


class Recorder:
    """Span bookkeeping: per-layer self time, top-level calls and work."""

    def __init__(self):
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYER_NAMES}
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        #: Open spans, innermost last: ``[layer, start, child seconds]``.
        self._stack: List[list] = []
        self._depth: Counter = Counter()

    def wrap(self, func: Callable, layer: str,
             work: Optional[Callable]) -> Callable:
        stack = self._stack
        depth = self._depth
        fold = FOLD.get(layer, frozenset())
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if fold and stack and stack[-1][0] in fold:
                return func(*args, **kwargs)
            if not depth[layer]:
                self.calls[layer] += 1
            depth[layer] += 1
            span = [layer, clock(), 0.0]
            stack.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - span[1]
                stack.pop()
                depth[layer] -= 1
                self.self_s[layer] += elapsed - span[2]
                if stack:
                    stack[-1][2] += elapsed
            if work is not None:
                self.work[layer] += work(args, result)
            return result

        traced.__perfbench_original__ = func
        return traced


class Tracer:
    """Install and remove the layer wrappers around one :class:`Recorder`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        #: original function -> wrapper
        self._wrappers: Dict[Callable, Callable] = {}
        for layer, targets in LAYERS:
            for target, work in targets:
                func = _resolve(target)
                self._wrappers[func] = recorder.wrap(func, layer, work)
        self._saved: list = []

    def _swap(self, mapping: Dict[Callable, Callable]) -> list:
        """Replace every binding whose value (or descriptor's function)
        is a key of ``mapping``; returns ``(container, name, old value)``
        of each binding replaced."""
        replaced = []
        for container in _repro_containers():
            for name, value in list(vars(container).items()):
                func = value
                kind = None
                if isinstance(value, (classmethod, staticmethod)):
                    kind, func = type(value), value.__func__
                try:
                    replacement = mapping.get(func)
                except TypeError:  # unhashable attribute value
                    continue
                if replacement is None:
                    continue
                setattr(container, name,
                        kind(replacement) if kind else replacement)
                replaced.append((container, name, value))
        return replaced

    def install(self) -> None:
        self._saved = self._swap(self._wrappers)

    def uninstall(self) -> None:
        """Put back the exact objects ``install`` replaced, then the
        originals of bindings made while installed (lazy imports)."""
        for container, name, value in self._saved:
            setattr(container, name, value)
        self._saved = []
        self._swap({wrapper: func for func, wrapper
                    in self._wrappers.items()})


def binding_snapshot() -> Dict[Tuple[str, str], int]:
    """``{(container, name): id(value)}`` of every binding that holds a
    traced function — equal before and after a run when nothing leaked."""
    originals = set()
    for _, targets in LAYERS:
        for target, _ in targets:
            func = _resolve(target)
            originals.add(getattr(func, "__perfbench_original__", func))
    snapshot = {}
    for container in _repro_containers():
        for name, value in vars(container).items():
            func = getattr(value, "__func__", value) \
                if isinstance(value, (classmethod, staticmethod)) else value
            original = getattr(func, "__perfbench_original__", func)
            try:
                hit = original in originals
            except TypeError:
                continue
            if hit:
                label = getattr(container, "__qualname__",
                                getattr(container, "__name__", "?"))
                snapshot[(f"{container.__module__}.{label}"
                          if isinstance(container, type) else label,
                          name)] = id(value)
    return snapshot
