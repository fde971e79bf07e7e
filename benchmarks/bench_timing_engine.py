"""Timing-engine throughput: legacy per-command loop vs compiled stream.

Measures commands/sec of ``TimingEngine.simulate`` (the ground-truth
per-command loop) against ``TimingEngine.simulate_stream`` (the SoA
compiled-stream loop) on fixed NTT command programs — the stream replay
also as µs per command, which includes building the loop's inputs from
the stream's columns on every call — plus the one-time
cold map (program-cache miss to IR) and stream compile costs and the
functional bank speedup of the fused compiled plan over the per-command
bank (``PimBank.run``, the scalar ground truth; its time is recorded
as ``bank_legacy_s``), plus the functional data plane's rate
on warm 8-bank dispatches (ns per butterfly µ-op, and the share spent
outside the bank run), plus each Table III
plan's cell traffic (read/write ops, atoms moved, and the most times
any one atom is read or written), plus the load generator's cost per
request on the skewed serving mix — and merges the
measurements into ``BENCH_kernels.json`` at the repo root.  Each
mapper, compiler, data-plane and load-generator entry also records the
host slowdown (``perfbench/perf_clock.slowdown``) measured around its
timings, so ``check_trajectory`` can gate those rates — and the stream
replay's — at the reference machine's speed.

Non-gating when run directly —

    PYTHONPATH=src python benchmarks/bench_timing_engine.py

and a CI smoke target (reduced size) asserting the stream engine is
bit-identical to — and not slower than — the legacy loop:

    PYTHONPATH=src python -m pytest benchmarks/bench_timing_engine.py -s
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

import numpy as np
from bench_backend_speedup import _best_of, merge_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "perfbench"))

import perf_clock  # noqa: E402

from repro.arith import NttParams, bit_reverse_permute, find_ntt_prime, vector
from repro.dram import (
    HBM2E_ARCH,
    HBM2E_TIMING,
    TimingEngine,
    cached_stream,
    clear_stream_cache,
    compile_stream,
)
from repro.mapping import clear_program_cache
from repro.pim.bank_pim import PimBank, touched_rows
from repro.pim.params import PimParams
from repro.serve import LoadGenerator, make_scenario
from repro.sim.driver import SimConfig, TransformSpec, _run_dispatch, \
    compile_dispatch

DEFAULT_OUT = REPO_ROOT / "BENCH_kernels.json"
TABLE3_NS = (256, 512, 1024, 2048, 4096)
TABLE3_NBS = (2, 4, 6)
#: Best of this many warm dispatches: best of 5 read 29.8-38.4 ns/bu
#: over five reruns of one tree on a shared host, too wide to resolve a
#: 1.3x change; best of 40 read 24.8-34.5.
DATAPLANE_REPEATS = 40
#: Requests per load-generator timing: one serving pool of perfbench.
LOADGEN_REQUESTS = 1280


def run(ns=(1024, 4096), repeats: int = 5,
        out_path: Path = DEFAULT_OUT, dataplane_ns=(512, 4096),
        plan_ns=TABLE3_NS) -> dict:
    section = {}
    compiler = {}
    for n in ns:
        q = find_ntt_prime(n, 32)
        params = NttParams(n, q)
        config = SimConfig()
        commands = TransformSpec(params=params).program(config).commands
        engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)

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
        replay_slowdown = perf_clock.slowdown()
        stream_s = _best_of(lambda: engine.simulate_stream(stream), repeats)
        replay_slowdown = (replay_slowdown + perf_clock.slowdown()) / 2

        # Functional execution: the fused compiled plan vs the scalar
        # ground-truth per-command bank on the same program and data.
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
            "engine_stream_us_per_cmd": stream_s / len(commands) * 1e6,
            "slowdown": replay_slowdown,
            "bank_legacy_s": bank_legacy_s,
            "bank_stream_s": bank_stream_s,
            "bank_speedup": bank_legacy_s / bank_stream_s,
        }
    compiler["nb1"] = _bench_nb1(repeats)
    mapper = {str(n): _bench_map(n, 2, repeats) for n in ns}
    mapper["nb1"] = _bench_map(256, 1, repeats)
    dataplane = {str(n): _bench_dataplane(n) for n in dataplane_ns}
    plans = {f"{n}x{nb}": _plan_traffic(n, nb)
             for n in plan_ns for nb in TABLE3_NBS}
    results = {"timing_engine": section, "compiler": compiler,
               "mapper": mapper, "dataplane": dataplane, "plans": plans,
               "loadgen": _bench_loadgen(repeats)}
    merge_sections(out_path, results)
    return results


def _best_of_each(fns, repeats: int):
    """The best of ``repeats`` wall times of each of ``fns``, taken in
    turn round by round (after one warm-up round), so that the bests of
    a ratio see the same host conditions."""
    best = [float("inf")] * len(fns)
    for round_ in range(repeats + 1):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            fn()
            if round_:
                best[i] = min(best[i], time.perf_counter() - start)
    return best


def _bench_dataplane(n: int, banks: int = 8) -> dict:
    """Warm same-spec ``banks``-bank dispatches through
    ``_run_dispatch`` — the functional data plane a served dispatch
    pays once its shape is cached, online check included — as ns per
    executed butterfly µ-op, with the host slowdown probed around the
    timing; plus the time of the online check alone (``check_s``:
    ``TransformSpec.check`` on the same ``(banks, 1, N)`` input and
    output stacks the dispatch checks), which prices it; plus the bank
    run alone (``bank_s``: the bank stack's set-up, its loads and
    ``PimBank.run_stream`` on the same stacks), whose complement
    ``host_share`` is the fraction of the dispatch spent around the
    banks.  Each bank's input is a read-only uint64 row, as a served
    dispatch receives it from the load generator's requests."""
    spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
    config = SimConfig()
    rng = random.Random(n)
    inputs = [[vector.random_residues(rng, n, spec.q)] for _ in range(banks)]
    specs = [spec] * banks
    result = _run_dispatch(inputs, specs, config)
    assert result.verified
    values = vector.uint64_lanes(inputs, spec.q)
    outputs = np.array(result.outputs, dtype=np.uint64).reshape(values.shape)
    assert spec.check(values, outputs)
    (programs,), stream, _ = compile_dispatch([spec], 1, config)
    layout = spec.load_layout(values)

    def bank_run():
        bank = PimBank(config.arch, config.pim, stack=values.shape[:-2],
                       rows=touched_rows(stream))
        bank.set_parameters(spec.q)
        for slot, program in enumerate(programs):
            bank.load_polynomial(program.base_row, layout[..., slot, :])
        bank.run_stream(stream)

    slowdown = perf_clock.slowdown()
    dispatch_s, bank_s = _best_of_each(
        (lambda: _run_dispatch(inputs, specs, config), bank_run),
        DATAPLANE_REPEATS)
    slowdown = (slowdown + perf_clock.slowdown()) / 2
    check_s = _best_of(lambda: spec.check(values, outputs), DATAPLANE_REPEATS)
    return {
        "n": n,
        "banks": banks,
        "bu_ops": result.bu_ops,
        "dispatch_s": dispatch_s,
        "check_s": check_s,
        "bank_s": bank_s,
        "host_share": 1 - bank_s / dispatch_s,
        "ns_per_bu": dispatch_s / result.bu_ops * 1e9,
        "slowdown": slowdown,
    }


def _bench_loadgen(repeats: int) -> dict:
    """Load generation: µs per request of
    ``LoadGenerator(make_scenario("skewed"), ...).requests()`` over one
    perfbench serving pool, with the host slowdown probed around the
    timing (warm: the prime search behind each shape is cached)."""
    load = LoadGenerator(make_scenario("skewed"), rate_rps=400_000,
                         count=LOADGEN_REQUESTS, seed=1)
    slowdown = perf_clock.slowdown()
    seconds = _best_of(load.requests, repeats)
    slowdown = (slowdown + perf_clock.slowdown()) / 2
    return {
        "scenario": "skewed",
        "requests": LOADGEN_REQUESTS,
        "loadgen_s": seconds,
        "us_per_req": seconds / LOADGEN_REQUESTS * 1e6,
        "slowdown": slowdown,
    }


def _plan_traffic(n: int, nb: int) -> dict:
    """One Table III plan's cell traffic: its read and write ops, the
    atoms they move, and the most times the plan reads (writes) any one
    atom — 1 each once store forwarding leaves only each atom's first
    read and last write; and its value pool: the slots it holds (N/8
    once slots are allocated by liveness) and how many of its groups
    address a view of it and how many fall back to index arrays."""
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))
    plan = compile_stream(spec.program(config).commands,
                          config.arch).plan
    entry = {"n": n, "nb": nb, "atoms": n // config.arch.words_per_atom}
    for kind, moved in (("read", "read"), ("write", "written")):
        ops = [op for op in plan.ops if op[0] == kind]
        atoms = (np.concatenate([op[1] * config.arch.columns_per_row + op[2]
                                 for op in ops]) if ops
                 else np.zeros(0, dtype=np.intp))
        entry[f"{kind}_ops"] = len(ops)
        entry[f"atoms_{moved}"] = len(atoms)
        entry[f"max_{kind}s_per_atom"] = int(
            np.unique(atoms, return_counts=True)[1].max(initial=0))
    groups = [op for op in plan.ops if op[0] != "param"]
    entry["pool_slots"] = plan.n_slots
    entry["view_groups"] = sum(op[-1] is not None for op in groups)
    entry["fallback_groups"] = sum(op[-1] is None for op in groups)
    return entry


def _bench_map(n: int, nb: int, repeats: int) -> dict:
    """Cold map: program-cache miss to the program's IR, with the host
    slowdown probed on both sides of the timing."""
    config = SimConfig(pim=PimParams(nb_buffers=nb))
    spec = TransformSpec(params=NttParams(n, find_ntt_prime(n, 32)))

    def cold_map():
        clear_program_cache()
        return spec.program(config)

    slowdown = perf_clock.slowdown()
    map_s = _best_of(cold_map, repeats)
    slowdown = (slowdown + perf_clock.slowdown()) / 2
    commands = cold_map().ir.n
    return {
        "n": n,
        "nb": nb,
        "commands": commands,
        "cold_map_s": map_s,
        "cold_us_per_cmd": map_s / commands * 1e6,
        "slowdown": slowdown,
    }


def _bench_nb1(repeats: int, n: int = 256) -> dict:
    """Nb=1 µ-op programs: the lane-renaming pass must fuse them, and
    the fused run must beat the per-command loop a non-fused stream
    executes (``PimBank.run``, the scalar ground truth)."""
    q = find_ntt_prime(n, 32)
    config = SimConfig(pim=PimParams(nb_buffers=1))
    spec = TransformSpec(params=NttParams(n, q))
    commands = spec.program(config).commands
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
            f"({entry['engine_speedup']:4.1f}x, "
            f"{entry['engine_stream_us_per_cmd']:.2f} us/cmd at host "
            f"slowdown {entry['slowdown']:.2f}x)  "
            f"bank scalar {entry['bank_legacy_s'] * 1e3:7.2f} -> fused "
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
    lines.append("mapper: cold map, program-cache miss to IR:")
    for entry in results["mapper"].values():
        lines.append(
            f"  N={entry['n']:>5d} Nb={entry['nb']}  "
            f"{entry['cold_map_s'] * 1e3:6.2f} ms ({entry['commands']} cmds, "
            f"{entry['cold_us_per_cmd']:.2f} us/cmd, host slowdown "
            f"{entry['slowdown']:.2f}x)")
    nb1 = results["compiler"]["nb1"]
    lines.append(
        f"  Nb=1 N={nb1['n']} ({nb1['commands']} u-op cmds): lane-fused "
        f"{nb1['fused_s'] * 1e3:.2f} ms vs per-command "
        f"{nb1['fallback_s'] * 1e3:.2f} ms ({nb1['fused_speedup']:.1f}x)")
    lines.append("plans: cell traffic per Table III plan:")
    for entry in results["plans"].values():
        lines.append(
            f"  N={entry['n']:>5d} Nb={entry['nb']}  "
            f"{entry['read_ops']} read / {entry['write_ops']} write ops, "
            f"{entry['atoms_read']} / {entry['atoms_written']} atoms of "
            f"{entry['atoms']} (at most {entry['max_reads_per_atom']} / "
            f"{entry['max_writes_per_atom']} per atom), "
            f"{entry['pool_slots']} pool slots, {entry['view_groups']} "
            f"view / {entry['fallback_groups']} index groups")
    lines.append("data plane: warm same-spec dispatch, online check "
                 "included:")
    for entry in results["dataplane"].values():
        lines.append(
            f"  N={entry['n']:>5d} x {entry['banks']} banks  "
            f"{entry['dispatch_s'] * 1e3:6.2f} ms "
            f"({entry['ns_per_bu']:.1f} ns/bu, host slowdown "
            f"{entry['slowdown']:.2f}x), check alone "
            f"{entry['check_s'] * 1e3:6.3f} ms, bank run alone "
            f"{entry['bank_s'] * 1e3:6.3f} ms (host share "
            f"{entry['host_share']:.2f})")
    loadgen = results["loadgen"]
    lines.append(
        f"load generator: {loadgen['requests']} {loadgen['scenario']} "
        f"requests in {loadgen['loadgen_s'] * 1e3:.1f} ms "
        f"({loadgen['us_per_req']:.1f} us/req, host slowdown "
        f"{loadgen['slowdown']:.2f}x)")
    return "\n".join(lines)


def test_stream_engine_smoke(show, tmp_path):
    """CI smoke: on a fixed program the stream engine must match the
    legacy loop bit for bit and must not be slower (generous, non-flaky
    threshold — the measured speedup is several-fold)."""
    n = 512
    q = find_ntt_prime(n, 32)
    config = SimConfig()
    spec = TransformSpec(params=NttParams(n, q))
    commands = spec.program(config).commands
    engine = TimingEngine(HBM2E_TIMING, HBM2E_ARCH)
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
                  out_path=tmp_path / "BENCH_kernels.json",
                  dataplane_ns=(256,), plan_ns=(256,))
    assert results["timing_engine"]["256"]["engine_speedup"] > 0
    assert results["timing_engine"]["256"]["engine_stream_us_per_cmd"] > 0
    assert results["timing_engine"]["256"]["slowdown"] > 0
    assert results["compiler"]["256"]["cold_us_per_cmd"] > 0
    assert results["compiler"]["256"]["slowdown"] > 0
    assert results["compiler"]["nb1"]["fused_speedup"] > 0
    assert results["mapper"]["256"]["cold_us_per_cmd"] > 0
    assert results["mapper"]["nb1"]["slowdown"] > 0
    assert results["dataplane"]["256"]["ns_per_bu"] > 0
    assert results["dataplane"]["256"]["check_s"] > 0
    assert 0 < results["dataplane"]["256"]["bank_s"] < results[
        "dataplane"]["256"]["dispatch_s"]
    loadgen = results["loadgen"]
    assert loadgen["requests"] == LOADGEN_REQUESTS
    assert loadgen["us_per_req"] > 0 and loadgen["slowdown"] > 0
    for nb in TABLE3_NBS:
        plan = results["plans"][f"256x{nb}"]
        assert (plan["read_ops"], plan["write_ops"]) == (1, 1)
        assert plan["atoms_read"] == plan["atoms_written"] == plan["atoms"]
        assert plan["max_reads_per_atom"] == plan["max_writes_per_atom"] == 1
        assert plan["pool_slots"] == plan["atoms"]
        assert plan["fallback_groups"] == 0 < plan["view_groups"]


def main(argv=None) -> int:
    ns = tuple(int(a) for a in (argv or sys.argv[1:])) or (1024, 4096)
    results = run(ns=ns)
    print(_format(results))
    print(f"updated {DEFAULT_OUT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
