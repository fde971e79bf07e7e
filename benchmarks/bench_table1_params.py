"""Table I: the architecture parameters the whole evaluation runs on.

Asserts our defaults are exactly the published configuration and times
the construction of a full simulation stack on those parameters.
"""

from repro.dram import HBM2E_ARCH, HBM2E_TIMING, TimingEngine
from repro.experiments.report import format_table


def test_table1_parameters(benchmark, show):
    def build():
        return TimingEngine(HBM2E_TIMING, HBM2E_ARCH)

    engine = benchmark(build)
    a, t = engine.arch, engine.timing
    assert a.atom_bytes == 32
    assert a.columns_per_row == 32
    assert a.rows_per_bank == 32768
    assert (t.cl, t.tccd, t.trp, t.tras, t.trcd, t.twr) == (
        14, 2, 14, 34, 14, 16)
    show(format_table(
        ["parameter", "value"],
        [["DRAM atom size", f"{a.atom_bytes} B"],
         ["# columns per row", a.columns_per_row],
         ["# rows per bank", a.rows_per_bank],
         ["CL", t.cl], ["tCCD", t.tccd], ["tRP", t.trp],
         ["tRAS", t.tras], ["tRCD", t.trcd], ["tWR", t.twr],
         ["clock", f"{t.freq_mhz:.0f} MHz"]],
        title="Table I — architecture parameters (reproduced defaults)"))
