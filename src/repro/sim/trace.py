"""Command-trace export — the "DRAM cmd seq" of the paper's Fig. 1.

Serializes a command program (optionally with its simulated timing) in
a DRAMsim3-style text format, one command per line, so schedules can be
diffed, inspected, or replayed by external tools.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from ..dram.commands import Command
from ..dram.engine import CommandTiming

__all__ = ["format_trace", "trace_summary"]


def format_trace(commands: Sequence[Command],
                 timings: Optional[Sequence[CommandTiming]] = None) -> str:
    """Render a command program as text.

    With timings, each line is prefixed by the issue cycle::

        123  bank0  CU_READ r5 c3 b1
    """
    if timings is not None and len(timings) != len(commands):
        raise ValueError("timings and commands differ in length")
    if timings is None:
        return "\n".join(f"bank{cmd.bank}  {cmd.describe()}"
                         for cmd in commands)
    return "\n".join(f"{t.issue:>10}  bank{cmd.bank}  {cmd.describe()}"
                     for cmd, t in zip(commands, timings))


def trace_summary(commands: Iterable[Command]) -> str:
    """One-line histogram of a program's command mix."""
    counts = Counter(cmd.ctype.value for cmd in commands)
    body = ", ".join(f"{name}={count}"
                     for name, count in counts.most_common())
    return f"{sum(counts.values())} commands: {body}"
