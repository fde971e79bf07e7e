"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload table3_cold|serve_skewed|cluster_mixed
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; it simulates with the checkout's own
``src/`` (pure Python, nothing to build).  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it print every
metric with its unit and clock (``host`` = wall clock of the simulator,
``sim`` = simulated device time), the sample counts behind each
percentile, and a digest of every simulated output.  The exit code is
non-zero when any operation failed or any output check mismatched.

``perfbench/NOTES.md`` says why each workload exists and which layer
should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run; ``setup_s`` is the median.
SETUP_REPS = 3
DEFAULT_SEED = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("table3_cold", "serve_skewed",
                                 "cluster_mixed"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program():
    """Import the checkout's simulator and the workloads; returns the
    seconds it took.  Refuses to fall back on any other installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}; "
                 f"run from the root of a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import perf_clock
    before = perf_clock.slowdown()
    start = time.perf_counter()
    import perf_workloads  # noqa: F401  (imports the simulator)
    seconds = time.perf_counter() - start
    return seconds / ((before + perf_clock.slowdown()) / 2)


def _recorded_digest(workload: str, seed: int):
    """The digest ``digests.json`` records for this workload and seed."""
    recorded = json.loads((HERE / "digests.json").read_text())
    return recorded.get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    args = _parse(argv)
    import_s = _import_program()
    import perf_trace
    import perf_workloads
    from perf_workloads import percentile

    workload = perf_workloads.WORKLOADS[args.workload]()
    setup_s, loadgen_us = perf_workloads.setup(workload, args.seed,
                                               SETUP_REPS)
    setup_s += import_s
    recorder = perf_trace.Recorder() if args.trace else None
    tracer = perf_trace.Tracer(recorder) if args.trace else None
    plain, traced = perf_workloads.measure(workload, args.seconds, tracer)
    check_failed = workload.check()
    simulated = workload.simulated()
    digest = workload.digest()

    units = plain + traced
    attempted = sum(u.requests for u in units)
    failed = sum(u.failed for u in units) + check_failed
    correct = failed == 0

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Host ms per op: per cold config, or per served request (a round's
    # wall time over its requests), at the reference machine's speed.
    per_op_ms = [1e3 * u.scaled_seconds / u.requests for u in plain]
    plain_s = sum(u.scaled_seconds for u in plain)
    plain_ops = sum(u.requests for u in plain)
    raw_ms = [1e3 * u.seconds / u.requests for u in plain]
    mean_slowdown = sum(u.seconds for u in plain) / plain_s

    lines = [f"workload {args.workload}  seed={args.seed}  "
             f"trace={args.trace}  op={workload.op}",
             f"  host times at reference speed; this run's machine was "
             f"{mean_slowdown:.3f}x slower (raw p50 "
             f"{statistics.median(raw_ms):.4g} ms, raw p90 "
             f"{percentile(raw_ms, 90.0):.4g} ms)"]
    end_to_end = {
        "setup_s": (setup_s, "s", "host",
                    f"median of {SETUP_REPS} set-ups + {import_s:.3f} s "
                    f"import"),
        "host_ms_p50": (statistics.median(per_op_ms), "ms", "host",
                        f"per {workload.op}, {len(per_op_ms)} samples"),
        "host_ms_p90": (percentile(per_op_ms, 90.0), "ms", "host",
                        f"per {workload.op}, {len(per_op_ms)} samples, "
                        f"{len(per_op_ms) // 10} beyond"),
        "host_req_per_s": (plain_ops / plain_s, "req/s", "host",
                           f"{plain_ops} ops in {plain_s:.2f} s"),
        "peak_rss_mb": (rss_mb, "MB", "host", "peak RSS of this process"),
    }
    sim_units = {"samples": "count", "p50_us": "us", "p99_us": "us",
                 "goodput_rps": "req/s", "paper_err_pct": "%",
                 "commands": "count", "activations": "count",
                 "sweep_us": "us", "sweep_nj": "nJ",
                 "queue_wait_p50_us": "us", "bus_utilization": "ratio"}
    for name, (value, unit, clock, note) in end_to_end.items():
        lines.append(f"  {name:<22} {value:>14.6g} {unit:<6} [{clock}] "
                     f"{note}")
    lines.append(f"  {'failed_frac':<22} {failed / attempted:>14.6g} "
                 f"{'ratio':<6} [-] {failed} of {attempted} failed, "
                 f"rejected, shed or mismatched")
    for key, unit in sim_units.items():
        lines.append(f"  sim.{key:<18} {simulated[key]:>14.6g} {unit:<6} "
                     f"[sim] first pass")
    recorded = _recorded_digest(args.workload, args.seed)
    verdict = ("no recorded digest for this seed" if recorded is None
               else "matches recorded" if recorded == digest
               else "DIFFERS from recorded")
    lines.append(f"  sim digest {digest} ({verdict})")
    lines.append("  paper_err_pct is the model's error against Table III")

    if args.trace:
        metrics = _per_layer(recorder, traced, plain, simulated, loadgen_us,
                             sim_units, lines)
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _, _) in end_to_end.items()}
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _per_layer(recorder, traced, plain, simulated, loadgen_us, sim_units,
               lines):
    """Per-layer metrics of the traced passes, per operation."""
    from perf_trace import LAYER_NAMES

    traced_s = sum(u.seconds for u in traced)
    traced_ops = sum(u.requests for u in traced)
    traced_scaled_s = sum(u.scaled_seconds for u in traced)
    bu_ops = sum(u.bu_ops for u in traced)
    self_s = recorder.self_s
    calls = recorder.calls
    work = recorder.work
    plain_per_op = (sum(u.scaled_seconds for u in plain)
                    / sum(u.requests for u in plain))

    def cache_ratio(name):
        hits = sum(u.cache[name][0] for u in traced)
        return ratio(hits, hits + sum(u.cache[name][1] for u in traced))

    def per_op_ms(layer):
        return 1e3 * self_s[layer] / traced_ops

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {"loadgen.us_per_req": (loadgen_us, "us/req")}
    for layer in LAYER_NAMES:
        metrics[f"{layer}.calls"] = (calls[layer] / traced_ops, "calls/op")
        metrics[f"{layer}.self_ms"] = (per_op_ms(layer), "ms/op")
    metrics.update({
        "map.hit_ratio": (cache_ratio("program"), "ratio"),
        "map.us_per_cmd": (ratio(1e6 * self_s["map"], work["map"]),
                           "us/cmd"),
        "compile.hit_ratio": (cache_ratio("stream"), "ratio"),
        "compile.us_per_cmd": (ratio(1e6 * self_s["compile"],
                                     work["compile"]), "us/cmd"),
        "timing.hit_ratio": (cache_ratio("schedule"), "ratio"),
        "timing.mcmd_per_s": (ratio(work["timing"],
                                    1e6 * self_s["timing"]), "Mcmd/s"),
        "bank.ns_per_bu": (ratio(1e9 * self_s["bank"], bu_ops), "ns/bu"),
        "host_io.ns_per_word": (ratio(1e9 * self_s["host_io"],
                                      work["host_io"]), "ns/word"),
        "plan.dispatches": (simulated["dispatches"], "count"),
        "plan.banks_per_dispatch": (simulated["banks_per_dispatch"],
                                    "banks"),
        "telemetry.records": (work["telemetry"] / traced_ops,
                              "records/op"),
    })
    for key, unit in sim_units.items():
        metrics[f"sim.{key}"] = (simulated[key], unit)
    covered = sum(self_s.values())
    metrics["trace.coverage_pct"] = (100.0 * covered / traced_s, "%")
    metrics["trace.overhead_pct"] = (
        100.0 * (traced_scaled_s / traced_ops / plain_per_op - 1.0), "%")
    lines.append(f"  traced: {traced_ops} ops in {traced_s:.2f} s; "
                 f"plain: {sum(u.requests for u in plain)} ops")
    for name, (value, unit) in metrics.items():
        if not name.startswith("sim."):  # printed above already
            lines.append(f"  {name:<26} {value:>14.6g} {unit}")
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
