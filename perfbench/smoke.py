"""The benchmark's own smoke test (about a minute).

    python3 perfbench/smoke.py

Checks, on every workload, that:

* a short run emits every metric ``BENCHMARK.json`` names, with its unit,
  exits 0 and reports ``correct``;
* tracing leaves no trace: after an untraced run, and after a traced run
  has uninstalled itself, every binding of every wrapped function is the
  original object again (aliases such as ``sim.driver.reference_ntt``
  included);
* the traced per-layer self times cover at least 95% of traced host time;
* ``trace.overhead_pct`` is reported;

and that the command exits non-zero without printing a result in a
directory that holds only ``BENCHMARK.json`` and ``perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COVERAGE_FLOOR_PCT = 95.0


def _run(cwd: Path, workload: str, trace: int):
    command = SPEC["command"] + ["--workload", workload, "--seed", "3",
                                 "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_metrics() -> None:
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(ROOT, workload, trace)
            assert proc.returncode == 0, (workload, trace, proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            assert result["attempted"] >= 1, result
            metrics = result["metrics"]
            expected = {m["name"]: m["unit"] for m in SPEC[section]}
            assert set(metrics) == set(expected), (
                workload, set(metrics) ^ set(expected))
            for name, unit in expected.items():
                assert metrics[name]["unit"] == unit, (workload, name)
                assert isinstance(metrics[name]["value"], (int, float))
            if trace:
                coverage = metrics["trace.coverage_pct"]["value"]
                assert coverage >= COVERAGE_FLOOR_PCT, (workload, coverage)
                assert "trace.overhead_pct" in metrics
            print(f"ok  {workload} --trace {trace}")


def check_bindings_restored() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import perf_trace
    import perf_workloads

    for cls in perf_workloads.WORKLOADS.values():
        workload = cls()
        workload.setup(5)
        before = perf_trace.binding_snapshot()
        assert ("repro.sim.driver", "reference_ntt") in before
        assert ("repro.sim.multibank", "reference_intt") in before
        perf_workloads.measure(workload, 0.0)
        assert perf_trace.binding_snapshot() == before, cls.name
        tracer = perf_trace.Tracer(perf_trace.Recorder())
        perf_workloads.measure(workload, 0.0, tracer)
        assert tracer.recorder.calls["dispatch"] > 0, cls.name
        assert perf_trace.binding_snapshot() == before, cls.name
        print(f"ok  {cls.name}: {len(before)} bindings restored")


def check_refuses_without_sources() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0, proc.stdout
        assert '"metrics"' not in proc.stdout, proc.stdout
    print("ok  refuses to run without the simulator sources")


if __name__ == "__main__":
    check_metrics()
    check_bindings_restored()
    check_refuses_without_sources()
    print("perfbench smoke ok")
