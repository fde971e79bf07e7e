"""Lane-kernel wall times across the stack.

Times (a) the golden reference-NTT kernel, (b) an end-to-end functional
NTT through ``Simulator.run`` (mapping + timing engine + functional
bank + golden verify) at N in {1024, 4096} — both on the uint64 lane
kernels, the path every 32-bit modulus takes — and (c) the repro.api
facade vs the dispatch executor behind it (the envelope overhead budget
is <5%), and writes the measurements to ``BENCH_kernels.json`` at the
repo root.

Non-gating: run directly —

    PYTHONPATH=src python benchmarks/bench_backend_speedup.py

or as a pytest smoke target (reduced sizes, no threshold asserts) —

    PYTHONPATH=src python -m pytest benchmarks/bench_backend_speedup.py -s
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from repro.api import NttRequest, Simulator
from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.ntt.reference import ntt_dit_bitrev_input
from repro.sim.driver import SimConfig, TransformSpec, _run_dispatch

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"


def _best_of(fn, repeats: int, warmup: int = 1) -> float:
    """Best wall time in seconds (warmup also primes the artifact caches,
    so the steady-state number reflects the cached pipeline)."""
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def merge_sections(out_path: Path, results: dict) -> None:
    """Update this bench's sections of the shared benchmark file in
    place — other benches (e.g. bench_timing_engine) own their own
    sections of ``BENCH_kernels.json``."""
    merged = {}
    if out_path.exists():
        merged = json.loads(out_path.read_text())
    merged.update(results)
    out_path.write_text(json.dumps(merged, indent=2) + "\n")


def run(ns=(1024, 4096), kernel_repeats: int = 5, e2e_repeats: int = 3,
        out_path: Path = DEFAULT_OUT) -> dict:
    results = {
        "description": "lane-kernel path, best-of wall times (s)",
        "kernel_reference_ntt": {},
        "end_to_end_run_ntt": {},
        "facade_overhead": {},
    }
    for n in ns:
        q = find_ntt_prime(n, 32)
        params = NttParams(n, q)
        rng = random.Random(n)
        data = [rng.randrange(q) for _ in range(n)]
        pre_reversed = bit_reverse_permute(list(data))

        results["kernel_reference_ntt"][str(n)] = {"wall_s": _best_of(
            lambda: ntt_dit_bitrev_input(list(pre_reversed), params),
            kernel_repeats)}

        simulator = Simulator()
        request = NttRequest(params=params, values=tuple(data))
        results["end_to_end_run_ntt"][str(n)] = {"wall_s": _best_of(
            lambda: simulator.run(request), e2e_repeats)}

        # Facade overhead guard: the repro.api envelope (validation,
        # registry dispatch, cache provenance, response building) must
        # stay in the noise vs the dispatch executor it wraps —
        # budget < 5%.
        specs, inputs = [TransformSpec(params=params)], [[data]]
        config = SimConfig()
        # The two paths differ by well under 1 ms, and the stream-fused
        # runs are short enough that machine-state drift between two
        # separate best-of blocks spans several percent — so the guard
        # interleaves the samples (direct/facade back to back each
        # round) and takes best-of over many rounds.
        guard_repeats = max(e2e_repeats, 15)
        for _ in range(3):
            _run_dispatch(inputs, specs, config)
            simulator.run(request)
        direct_s = facade_s = float("inf")
        for _ in range(guard_repeats):
            start = time.perf_counter()
            _run_dispatch(inputs, specs, config)
            direct_s = min(direct_s, time.perf_counter() - start)
            start = time.perf_counter()
            simulator.run(request)
            facade_s = min(facade_s, time.perf_counter() - start)
        # Budget: the envelope is a fixed few-tens-of-µs cost (request
        # validation, cache provenance, response building), unchanged
        # since it was introduced — but the stream-fused runs it wraps
        # are now ~5x shorter, so the same absolute allowance is 5% of
        # a run instead of the original 2%.
        results["facade_overhead"][str(n)] = {
            "direct_s": direct_s,
            "facade_s": facade_s,
            "overhead_pct": 100.0 * (facade_s / direct_s - 1.0),
            "budget_pct": 5.0,
        }

    merge_sections(out_path, results)
    return results


def _format(results: dict) -> str:
    lines = ["lane-kernel path, best-of wall time:"]
    for section in ("kernel_reference_ntt", "end_to_end_run_ntt"):
        for n, entry in results[section].items():
            lines.append(
                f"  {section:24s} N={n:>5s}  wall={entry['wall_s'] * 1e3:9.3f} ms")
    for n, entry in results.get("facade_overhead", {}).items():
        lines.append(
            f"  {'facade_overhead':24s} N={n:>5s}  direct={entry['direct_s'] * 1e3:9.3f} ms"
            f"  facade={entry['facade_s'] * 1e3:9.3f} ms"
            f"  overhead={entry['overhead_pct']:+6.2f}% (budget {entry['budget_pct']:.0f}%)")
    return "\n".join(lines)


def test_backend_speedup_smoke(show, tmp_path):
    """Smoke target: reduced sizes, sanity checks only (no perf gates)."""
    results = run(ns=(256,), kernel_repeats=2, e2e_repeats=1,
                  out_path=tmp_path / "BENCH_kernels.json")
    show(_format(results))
    assert (tmp_path / "BENCH_kernels.json").exists()
    for section in ("kernel_reference_ntt", "end_to_end_run_ntt"):
        assert results[section]["256"]["wall_s"] > 0
    # Gross-regression tripwire: the 5% budget is judged at the full
    # bench sizes (N=256 wall times are ~ms, so allow generous timing
    # noise here) — a facade that got structurally slower still trips.
    assert results["facade_overhead"]["256"]["overhead_pct"] < 25.0


def main(argv=None) -> int:
    ns = tuple(int(a) for a in (argv or sys.argv[1:])) or (1024, 4096)
    results = run(ns=ns)
    print(_format(results))
    print(f"wrote {DEFAULT_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
