"""Render the paper's Fig. 5 / Fig. 6 timing diagrams from real
simulated schedules: the three mapping regimes, without and with
pipelining.

    python examples/timing_diagrams.py
"""

from repro import (
    NttParams,
    PimParams,
    ProgramRequest,
    SimConfig,
    Simulator,
    find_ntt_prime,
)
from repro.sim import TransformSpec
from repro.visual import render_timing_diagram


def regime_window(n: int, nb: int, start: int, end: int, title: str) -> None:
    q = find_ntt_prime(n, 32)
    config = SimConfig(pim=PimParams(nb_buffers=nb), functional=False)
    spec = TransformSpec(params=NttParams(n, q))
    commands = spec.program(config).commands
    response = Simulator(config).run(ProgramRequest(commands=commands,
                                                    label=title))
    print(f"\n--- {title} (N={n}, Nb={nb}) ---")
    print(render_timing_diagram(commands, response.raw.timings,
                                start_cycle=start, end_cycle=end))


def main() -> None:
    print("Fig. 5-style windows: the three mapping regimes")
    # Intra-atom: the first C1 sweeps (right after PARAM + ACT).
    regime_window(256, 2, 0, 220, "intra-atom regime: RD / C1 / WR")
    # Intra-row: skip past the C1 phase of a 256-point NTT.
    regime_window(256, 2, 600, 850, "intra-row regime: RD RD / C2 / WR WR")
    # Inter-row: N=512 spills over two rows; window into the last stage.
    regime_window(512, 2, 2800, 3300,
                  "inter-row regime: ACT-interleaved C2")

    print("\nFig. 6-style comparison: same inter-row work, more buffers")
    regime_window(512, 2, 2800, 3300, "without pipelining (Nb=2)")
    regime_window(512, 6, 1500, 2000, "with pipelining (Nb=6): same-row "
                                      "reads grouped, fewer ACT (A) marks")


if __name__ == "__main__":
    main()
