"""Timing-engine throughput: legacy per-command loop vs compiled stream.

Measures commands/sec of ``TimingEngine.simulate`` (the ground-truth
per-command loop) against ``TimingEngine.simulate_stream`` (the SoA
compiled-stream loop) on fixed NTT command programs, plus the one-time
stream compile cost and the end-to-end functional ``run_ntt`` speedup of
the stream-routed driver over the legacy per-command bank — and merges
the measurements into ``BENCH_kernels.json`` at the repo root.  Each
compiler entry also records the host slowdown
(``perfbench/perf_clock.slowdown``) measured around its compile
timings, so ``check_trajectory`` can gate the compile rate at the
reference machine's speed.

Non-gating when run directly —

    PYTHONPATH=src python benchmarks/bench_timing_engine.py

and a CI smoke target (reduced size) asserting the stream engine is
bit-identical to — and not slower than — the legacy loop:

    PYTHONPATH=src python -m pytest benchmarks/bench_timing_engine.py -s
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from bench_backend_speedup import _best_of, merge_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import perf_clock  # noqa: E402

from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime
from repro.dram import (
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    cached_stream,
    clear_stream_cache,
    compile_stream,
)
from repro.pim.bank_pim import PimBank
from repro.pim.params import PimParams
from repro.sim.driver import SimConfig, TransformSpec

DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"


def run(ns=(1024, 4096), repeats: int = 5,
        out_path: Path = DEFAULT_OUT) -> dict:
    section = {}
    compiler = {}
    for n in ns:
        q = find_ntt_prime(n, 32)
        params = NttParams(n, q)
        config = SimConfig()
        commands = TransformSpec(params=params).program(config, 0).commands
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                              compute=config.pim.compute_timing())

        # Cold compile = full IR pipeline every call (compile_stream
        # never caches); warm = structural stream-cache hit.  The host
        # slowdown is probed on both sides of the cold timing.
        slowdown = perf_clock.slowdown()
        compile_s = _best_of(lambda: compile_stream(commands, HBM2E_ARCH),
                             repeats)
        slowdown = (slowdown + perf_clock.slowdown()) / 2
        stream = compile_stream(commands, HBM2E_ARCH)
        clear_stream_cache()
        warm_s = _best_of(
            lambda: cached_stream(commands, HBM2E_ARCH, key=("bench", n)),
            repeats)
        compiler[str(n)] = {
            "commands": len(commands),
            "cold_compile_s": compile_s,
            "cold_us_per_cmd": compile_s / len(commands) * 1e6,
            "slowdown": slowdown,
            "warm_hit_s": warm_s,
        }

        legacy_s = _best_of(lambda: engine.simulate(commands), repeats)
        stream_s = _best_of(lambda: engine.simulate_stream(stream), repeats)

        # End-to-end functional execution: stream-fused bank vs the
        # legacy per-command bank on the same program and data.
        rng = random.Random(n)
        data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])

        def run_bank(use_stream: bool):
            bank = PimBank(config.arch, config.pim)
            bank.set_parameters(q)
            bank.load_polynomial(0, list(data))
            if use_stream:
                bank.run_stream(stream)
            else:
                bank.run(commands)

        bank_legacy_s = _best_of(lambda: run_bank(False), max(repeats // 2, 2))
        bank_stream_s = _best_of(lambda: run_bank(True), max(repeats // 2, 2))

        section[str(n)] = {
            "commands": len(commands),
            "compile_s": compile_s,
            "engine_legacy_s": legacy_s,
            "engine_stream_s": stream_s,
            "engine_legacy_cmds_per_s": len(commands) / legacy_s,
            "engine_stream_cmds_per_s": len(commands) / stream_s,
            "engine_speedup": legacy_s / stream_s,
            "bank_legacy_s": bank_legacy_s,
            "bank_stream_s": bank_stream_s,
            "bank_speedup": bank_legacy_s / bank_stream_s,
        }
    compiler["nb1"] = _bench_nb1(repeats)
    results = {"timing_engine": section, "compiler": compiler}
    merge_sections(out_path, results)
    return results


def _bench_nb1(repeats: int, n: int = 256) -> dict:
    """Nb=1 µ-op programs: the lane-renaming pass must fuse them, and
    the fused run must beat the per-command loop a non-fused stream
    executes (``PimBank.run``, the pre-compiler behavior)."""
    q = find_ntt_prime(n, 32)
    config = SimConfig(pim=PimParams(nb_buffers=1))
    spec = TransformSpec(params=NttParams(n, q))
    commands = spec.program(config, 0).commands
    fused = compile_stream(commands, HBM2E_ARCH)
    assert fused.plan is not None and fused.plan.mode == "lane"
    rng = random.Random(n)
    data = bit_reverse_permute([rng.randrange(q) for _ in range(n)])

    def run_bank(use_stream: bool):
        bank = PimBank(config.arch, config.pim)
        bank.set_parameters(q)
        bank.load_polynomial(0, list(data))
        if use_stream:
            bank.run_stream(fused)
        else:
            bank.run(commands)

    fused_s = _best_of(lambda: run_bank(True), repeats)
    fallback_s = _best_of(lambda: run_bank(False), repeats)
    return {
        "n": n,
        "commands": len(commands),
        "fused_s": fused_s,
        "fallback_s": fallback_s,
        "fused_speedup": fallback_s / fused_s,
    }


def _format(results: dict) -> str:
    lines = ["timing engine: legacy per-command loop vs compiled stream:"]
    for n, entry in results["timing_engine"].items():
        lines.append(
            f"  N={n:>5s}  {entry['commands']:>6d} cmds  "
            f"engine {entry['engine_legacy_cmds_per_s'] / 1e6:5.2f} -> "
            f"{entry['engine_stream_cmds_per_s'] / 1e6:5.2f} Mcmd/s "
            f"({entry['engine_speedup']:4.1f}x)  "
            f"bank {entry['bank_legacy_s'] * 1e3:7.2f} -> "
            f"{entry['bank_stream_s'] * 1e3:6.2f} ms "
            f"({entry['bank_speedup']:4.1f}x)  "
            f"compile {entry['compile_s'] * 1e3:6.1f} ms")
    lines.append("compiler: cold IR pipeline vs warm cache hit:")
    for n, entry in results["compiler"].items():
        if n == "nb1":
            continue
        lines.append(
            f"  N={n:>5s}  cold {entry['cold_compile_s'] * 1e3:6.2f} ms "
            f"({entry['cold_us_per_cmd']:.2f} us/cmd, host slowdown "
            f"{entry['slowdown']:.2f}x)  "
            f"warm {entry['warm_hit_s'] * 1e6:6.1f} us")
    nb1 = results["compiler"]["nb1"]
    lines.append(
        f"  Nb=1 N={nb1['n']} ({nb1['commands']} u-op cmds): lane-fused "
        f"{nb1['fused_s'] * 1e3:.2f} ms vs per-command "
        f"{nb1['fallback_s'] * 1e3:.2f} ms ({nb1['fused_speedup']:.1f}x)")
    return "\n".join(lines)


def test_stream_engine_smoke(show, tmp_path):
    """CI smoke: on a fixed program the stream engine must match the
    legacy loop bit for bit and must not be slower (generous, non-flaky
    threshold — the measured speedup is several-fold)."""
    n = 512
    q = find_ntt_prime(n, 32)
    config = SimConfig()
    spec = TransformSpec(params=NttParams(n, q))
    commands = spec.program(config, 0).commands
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH,
                          compute=config.pim.compute_timing())
    stream = compile_stream(commands, HBM2E_ARCH)
    legacy = engine.simulate(commands)
    streamed = engine.simulate_stream(stream)
    assert streamed.timings == legacy.timings
    assert streamed.stats == legacy.stats
    assert streamed.energy_nj == legacy.energy_nj

    legacy_s = _best_of(lambda: engine.simulate(commands), 3)
    stream_s = _best_of(lambda: engine.simulate_stream(stream), 3)
    show(f"N={n}: legacy {legacy_s * 1e3:.2f} ms, "
         f"stream {stream_s * 1e3:.2f} ms "
         f"({legacy_s / stream_s:.1f}x)")
    # "Not slower" with generous headroom against CI timer noise.
    assert stream_s <= legacy_s * 1.5

    results = run(ns=(256,), repeats=2,
                  out_path=tmp_path / "BENCH_kernels.json")
    assert results["timing_engine"]["256"]["engine_speedup"] > 0
    assert results["compiler"]["256"]["cold_us_per_cmd"] > 0
    assert results["compiler"]["256"]["slowdown"] > 0
    assert results["compiler"]["nb1"]["fused_speedup"] > 0


def main(argv=None) -> int:
    ns = tuple(int(a) for a in (argv or sys.argv[1:])) or (1024, 4096)
    results = run(ns=ns)
    print(_format(results))
    print(f"updated {DEFAULT_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
