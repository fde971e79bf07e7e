"""Fig. 6: effect of pipelining, one micro-study per mapping regime.

For each regime we time a small representative command window with the
baseline buffer count vs the pipelined one and report cycles and (for
inter-row) row activations — the two mechanisms the paper credits:
latency overlap and activation elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..api import ProgramRequest, Simulator
from ..dram.commands import CommandType
from ..mapping.program import assemble, grouped, ops
from ..pim.params import PimParams
from ..sim.driver import SimConfig
from .report import format_table

__all__ = ["Fig6Result", "run_fig6"]

_ATOMS = 8          # atoms per micro-study window
_PAIRS = 8          # atom pairs per inter-atom window


@dataclass
class Fig6Result:
    """cycles[(regime, 'baseline'|'pipelined')], activations likewise."""

    cycles: Dict[tuple, int]
    activations: Dict[tuple, int]

    def speedup(self, regime: str) -> float:
        return (self.cycles[(regime, "baseline")]
                / self.cycles[(regime, "pipelined")])

    def check_claims(self) -> Dict[str, bool]:
        claims = {}
        for regime in ("intra-atom", "intra-row", "inter-row"):
            claims[f"{regime}_pipelining_helps"] = self.speedup(regime) > 1.1
        # Fig. 6c: pipelining in inter-row also CUTS activations (~2x).
        claims["inter_row_fewer_activations"] = (
            self.activations[("inter-row", "pipelined")]
            <= 0.6 * self.activations[("inter-row", "baseline")])
        return claims

    def table(self) -> str:
        rows: List[List[object]] = []
        for regime in ("intra-atom", "intra-row", "inter-row"):
            rows.append([regime,
                         self.cycles[(regime, "baseline")],
                         self.cycles[(regime, "pipelined")],
                         self.speedup(regime),
                         self.activations[(regime, "baseline")],
                         self.activations[(regime, "pipelined")]])
        return format_table(
            ["regime", "cycles w/o", "cycles w/", "speedup",
             "ACTs w/o", "ACTs w/"],
            rows, title="Fig. 6 — pipelining micro-study per regime")


#: The windows' twiddles are powers of 3 (C1: omega0 = r_omega = 3^1;
#: C2: omega0 = 3^0, r_omega = 3^1), modulo a prime that fits a word.
_ROOT, _Q = 3, 12289
CU_READ, CU_WRITE = CommandType.CU_READ, CommandType.CU_WRITE


def _simulate(body: np.ndarray, nb: int):
    simulator = Simulator(SimConfig(pim=PimParams(nb_buffers=max(nb, 1)),
                                    functional=False))
    program = assemble(body, _ROOT, _Q).materialize_commands()
    response = simulator.run(ProgramRequest(commands=program))
    return response.raw  # the ScheduleResult of the micro-study window


def _intra_atom_window(nb: int) -> np.ndarray:
    """RD / C1 / WR over _ATOMS atoms with an nb-deep buffer pool."""
    col = np.arange(_ATOMS)
    buf = col % nb
    return grouped([ops(CU_READ, row=0, col=col, buf=buf),
                    ops(CommandType.C1, buf=buf, omega0=1, r_omega=1),
                    ops(CU_WRITE, row=0, col=col, buf=buf)], nb)


def _intra_row_window(nb: int) -> np.ndarray:
    """C2 over _PAIRS same-row atom pairs with nb buffers."""
    col = np.arange(_PAIRS)
    buf = 2 * (col % (nb // 2))
    return grouped([
        (ops(CU_READ, row=0, col=col, buf=buf),
         ops(CU_READ, row=0, col=col + _PAIRS, buf=buf + 1)),
        ops(CommandType.C2, buf=buf, buf2=buf + 1, omega0=0, r_omega=1),
        (ops(CU_WRITE, row=0, col=col, buf=buf),
         ops(CU_WRITE, row=0, col=col + _PAIRS, buf=buf + 1))], nb // 2)


def _inter_row_window(nb: int) -> np.ndarray:
    """C2 over _PAIRS pairs straddling rows 0 and 1 with nb buffers."""
    col = np.arange(_PAIRS)
    buf = 2 * (col % (nb // 2))
    return grouped([
        ops(CU_READ, row=0, col=col, buf=buf),
        ops(CU_READ, row=1, col=col, buf=buf + 1),
        ops(CommandType.C2, buf=buf, buf2=buf + 1, omega0=0, r_omega=1),
        ops(CU_WRITE, row=1, col=col, buf=buf + 1),
        ops(CU_WRITE, row=0, col=col, buf=buf)], nb // 2)


def run_fig6() -> Fig6Result:
    """Baseline vs pipelined buffer counts per regime (Fig. 6's pairs:
    intra-atom 1->2 effective-depth, inter-atom Nb 2->4)."""
    cycles: Dict[tuple, int] = {}
    acts: Dict[tuple, int] = {}
    studies = {
        "intra-atom": (_intra_atom_window, 1, 2),
        "intra-row": (_intra_row_window, 2, 4),
        "inter-row": (_inter_row_window, 2, 4),
    }
    for regime, (make, base_nb, pipe_nb) in studies.items():
        for label, nb in (("baseline", base_nb), ("pipelined", pipe_nb)):
            schedule = _simulate(make(nb), nb)
            cycles[(regime, label)] = schedule.total_cycles
            acts[(regime, label)] = schedule.stats.activations
    return Fig6Result(cycles=cycles, activations=acts)
