"""Quickstart: run one NTT through the repro.api facade and inspect the
response envelope.

    python examples/quickstart.py
"""

import random

from repro import (
    NttParams,
    NttRequest,
    PimParams,
    SimConfig,
    Simulator,
    find_ntt_prime,
)
from repro.cost import PowerModel


def main() -> None:
    # 1. Pick NTT parameters: length N and an NTT-friendly 32-bit prime.
    n = 1024
    q = find_ntt_prime(n, 32)
    params = NttParams(n, q)
    print(f"N = {n}, q = {q} (omega = {params.omega})")

    # 2. Configure the PIM: HBM2E timing (paper Table I), 2 atom buffers
    #    (the primary GSA + one auxiliary — the paper's base design).
    #    One Simulator owns one configuration; every workload shape goes
    #    through its run() entry point.
    config = SimConfig(pim=PimParams(nb_buffers=2))
    simulator = Simulator(config)

    # 3. Run.  The facade bit-reverses on the host, loads the bank,
    #    generates the DRAM command sequence, executes it functionally
    #    AND through the timing engine, and verifies against the golden
    #    software NTT.
    rng = random.Random(0)
    values = [rng.randrange(q) for _ in range(n)]
    response = simulator.run(NttRequest(params=params, values=values))

    print(response.summary())
    print(f"  cycles          : {response.cycles}")
    print(f"  latency         : {response.latency_us:.2f} us "
          f"@ {config.timing.freq_mhz:.0f} MHz")
    print(f"  energy          : {response.energy_nj:.2f} nJ")
    print(f"  row activations : {response.activations}")
    print(f"  DRAM commands   : {response.command_count}")
    print(f"  butterfly ops   : {response.counters['bu_ops']} "
          f"(= N/2 log N = {(n // 2) * params.log_n}, full data reuse)")
    print(f"  cache provenance: {response.cache}")
    print(f"  wall clock      : {response.wall_time_s * 1e3:.1f} ms")

    power = PowerModel(config.energy, config.timing)
    breakdown = power.breakdown(response.schedule.stats)
    print("  energy breakdown:")
    for key in ("activation_pj", "column_pj", "compute_pj", "static_pj"):
        print(f"    {key:<14}: {breakdown[key] / 1000:.2f} nJ")

    # 4. The inverse transform brings the data back — same entry point.
    inverse = simulator.run(NttRequest(params=params,
                                       values=response.values,
                                       inverse=True))
    assert inverse.values == values
    print("inverse NTT on PIM round-trips the data: ok")

    # 5. A repeated run finds its whole dispatch shape (program, stream,
    #    schedule) in one memo lookup.
    again = simulator.run(NttRequest(params=params, values=values))
    assert again.cache["dispatch"]["hits"] == 1
    print(f"repeat run cache hits: {again.cache} "
          f"({again.wall_time_s * 1e3:.1f} ms)")


if __name__ == "__main__":
    main()
