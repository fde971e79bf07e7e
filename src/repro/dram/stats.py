"""Command-count and cycle statistics for a simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .commands import CommandType

__all__ = ["SimStats"]


@dataclass
class SimStats:
    """Aggregated counters the experiments report on."""

    command_counts: Dict[str, int] = field(default_factory=dict)
    total_cycles: int = 0
    bus_busy_cycles: int = 0
    cu_busy_cycles: int = 0

    def record(self, ctype: CommandType) -> None:
        key = ctype.value
        self.command_counts[key] = self.command_counts.get(key, 0) + 1

    @property
    def activations(self) -> int:
        """Row activations — the paper's key inter-row efficiency metric."""
        return self.command_counts.get("ACT", 0)

    @property
    def column_accesses(self) -> int:
        return sum(self.command_counts.get(k, 0)
                   for k in ("RD", "WR", "CU_READ", "CU_WRITE"))

    @property
    def total_commands(self) -> int:
        return sum(self.command_counts.values())
