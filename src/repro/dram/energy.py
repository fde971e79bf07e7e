"""Per-command energy model.

DRAMsim3 derives energy from IDD currents; we use the equivalent
per-operation formulation: each command type carries a fixed energy,
plus a static/background power term integrated over the run.  The
default constants are calibrated so the Table III NTT-PIM energy column
reproduces (see EXPERIMENTS.md); their *relative* magnitudes follow the
usual DRAM breakdown — a row activation costs an order of magnitude more
than a column access, and internal (CU) transfers cost less than
off-chip ones because no I/O drivers toggle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .commands import CommandType
from .timing import TimingParams

__all__ = ["EnergyParams", "HBM2E_ENERGY"]


@dataclass(frozen=True)
class EnergyParams:
    """Energy per command in picojoules, plus background power."""

    act_pj: float = 22.0          # activate + restore + precharge, whole row
    rd_pj: float = 4.0            # column read through chip I/O
    wr_pj: float = 4.0            # column write through chip I/O
    cu_rd_pj: float = 1.6         # column read terminating at an atom buffer
    cu_wr_pj: float = 1.6         # column write from an atom buffer
    c1_pj: float = 3.0            # 12 BU ops (Na/2 * log Na) incl. TFG
    c2_pj: float = 2.0            # 8 vectorized BU lanes incl. TFG
    param_pj: float = 0.2
    scalar_pj: float = 0.3        # one scalar µop (Nb=1 degenerate mapping)
    static_mw: float = 0.05       # PIM-bank background power

    def __post_init__(self):
        # Build the per-type lookup table once (frozen dataclass, hence
        # object.__setattr__).
        object.__setattr__(self, "_energy_table", {
            CommandType.ACT: self.act_pj,
            CommandType.PRE: 0.0,  # folded into act_pj
            CommandType.RD: self.rd_pj,
            CommandType.WR: self.wr_pj,
            CommandType.CU_READ: self.cu_rd_pj,
            CommandType.CU_WRITE: self.cu_wr_pj,
            CommandType.C1: self.c1_pj,
            CommandType.C1N: self.c1_pj * 1.2,  # + zeta register loads
            CommandType.C2: self.c2_pj,
            CommandType.PARAM_WRITE: self.param_pj,
            CommandType.LOAD_SCALAR: self.scalar_pj,
            CommandType.BU_SCALAR: self.scalar_pj,
            CommandType.STORE_SCALAR: self.scalar_pj,
        })

    def counts_energy_pj(self, command_counts: Dict[str, int]) -> float:
        """Dynamic energy of a run from its per-type command counts.

        Sums ``count * energy`` in canonical :class:`CommandType` order,
        so the result is independent of both command order and the
        counts dict's insertion order — the legacy per-command engine
        and the compiled-stream engine share this accumulation and stay
        bit-identical.
        """
        total = 0.0
        for ctype in CommandType:
            count = command_counts.get(ctype.value)
            if count:
                total += self._energy_table[ctype] * count
        return total

    def run_energy_nj(self, dynamic_pj: float, total_cycles: int,
                      timing: TimingParams) -> float:
        """Combine dynamic energy with the background power integrated
        over the run — the one place the static-energy formula lives."""
        ns = timing.cycles_to_ns(total_cycles)
        static_pj = self.static_mw * ns  # mW * ns = pJ
        return (dynamic_pj + static_pj) / 1000.0

    def total_nj(self, command_counts: Dict[str, int], total_cycles: int,
                 timing: TimingParams) -> float:
        """Dynamic + static energy for a whole run, in nanojoules."""
        return self.run_energy_nj(self.counts_energy_pj(command_counts),
                                  total_cycles, timing)


#: Calibrated defaults (see EXPERIMENTS.md for the calibration run).
HBM2E_ENERGY = EnergyParams()
