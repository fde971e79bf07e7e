"""Extension benches: native merged negacyclic NTT vs the paper's
host-scaled cyclic protocol, and the refresh-overhead the evaluation
(like the paper) ignores."""

from repro.api import NegacyclicRequest, NttRequest, Simulator
from repro.arith import NttParams, find_ntt_prime
from repro.dram import refresh_overhead
from repro.experiments.report import format_table
from repro.ntt import NegacyclicParams
from repro.pim import PimParams
from repro.sim import SimConfig


def test_native_negacyclic_vs_cyclic(benchmark, show):
    """The native mapping should cost within ~10% of the cyclic NTT
    while eliminating the host's psi-scaling and bit-reversal passes."""

    def sweep():
        rows = []
        sim = Simulator(SimConfig(pim=PimParams(nb_buffers=4),
                                  functional=False))
        for n in (256, 1024, 4096):
            q = find_ntt_prime(n, 32, negacyclic=True)
            nega = sim.run(NegacyclicRequest(ring=NegacyclicParams(n, q)))
            cyc = sim.run(NttRequest(params=NttParams(n, q)))
            rows.append([n, cyc.latency_us, nega.latency_us,
                         nega.cycles / cyc.cycles])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(format_table(
        ["N", "cyclic (us)", "native negacyclic (us)", "ratio"],
        rows, title="Extension — native merged negacyclic NTT on PIM"))
    for _, _, _, ratio in rows:
        assert 0.9 <= ratio <= 1.2


def test_refresh_overhead(benchmark, show):
    """Refresh (tREFI 3.9us / tRFC 260ns) costs an NTT run under 9%,
    justifying the paper's omission."""

    def sweep():
        rows = []
        config = SimConfig(functional=False)
        sim = Simulator(config)
        q = find_ntt_prime(8192, 32)
        for n in (256, 1024, 4096, 8192):
            run = sim.run(NttRequest(params=NttParams(n, q)))
            o = refresh_overhead(run.cycles, config.timing)
            rows.append([n, run.cycles, o.refresh_windows,
                         100.0 * o.overhead_fraction])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    show(format_table(
        ["N", "base cycles", "refresh windows", "overhead %"],
        rows, title="Extension — DRAM refresh overhead on NTT runs"))
    for _, _, _, pct in rows:
        assert pct < 9.0
