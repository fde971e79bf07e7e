"""Command-stepped DRAM/PIM timing engine (the DRAMsim3 stand-in).

The engine consumes an ordered command list — the memory controller's
command queue — and issues strictly in order over a shared command bus
(one command per cycle), stalling a command until:

* the bus is free,
* its bank's timing constraints allow it (tRCD/tCCD/tRAS/tRP/tWR/CL),
* the CU is idle (for compute commands), and
* every dependency (data hazard through a buffer) has completed.

In-order issue is what makes the paper's pipelining story representable
purely by command *order*: the mapper interleaves reads of the next
operation between compute/write of the previous one (Fig. 6), and the
engine turns that order into overlapped timing.

The engine also *validates* the schedule: activating an open bank,
accessing a closed or wrong row, etc. raise :class:`MappingError`, so
every timing run doubles as a protocol check of the mapping algorithm.
"""

from __future__ import annotations

import itertools
import numbers
from array import array
from dataclasses import dataclass, fields
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import MappingError
from .commands import CODE_CTYPES, Command, CommandType
from .energy import EnergyParams, HBM2E_ENERGY
from .stats import SimStats
from .timing import ArchParams, TimingParams

__all__ = ["ComputeTiming", "CommandTiming", "ScheduleResult", "TimingEngine"]


@dataclass(frozen=True)
class ComputeTiming:
    """Latency of the PIM compute commands, in CU clock cycles.

    ``c1`` and ``c2`` are the synthesized latencies from Sec. VI.B.
    The scalar micro-op latencies model the Nb=1 degenerate mapping,
    where the MC must sequence the loads/stores that C1/C2 normally
    perform internally ("load/store µ-ops ... are very fast (2 cycles)").
    """

    c1_cycles: int = 15
    c2_cycles: int = 10
    param_cycles: int = 4
    load_scalar_cycles: int = 2
    store_scalar_cycles: int = 2
    bu_scalar_cycles: int = 10
    # C1N (merged negacyclic intra-atom) = C1's butterflies plus seven
    # zeta-register loads from the command payload (one cycle each).
    c1n_cycles: int = 22

    def __post_init__(self):
        for item in fields(self):
            # Schedules store their cycle times as int64.
            if not isinstance(getattr(self, item.name), numbers.Integral):
                raise TypeError(
                    f"{item.name} must be a whole number of cycles")
        # latency() sits on the per-command hot path of the engine;
        # precompute the lookup table once instead of rebuilding a dict
        # for every command.  (Frozen dataclass, hence object.__setattr__.)
        object.__setattr__(self, "_latency_table", {
            CommandType.C1: self.c1_cycles,
            CommandType.C1N: self.c1n_cycles,
            CommandType.C2: self.c2_cycles,
            CommandType.PARAM_WRITE: self.param_cycles,
            CommandType.LOAD_SCALAR: self.load_scalar_cycles,
            CommandType.STORE_SCALAR: self.store_scalar_cycles,
            CommandType.BU_SCALAR: self.bu_scalar_cycles,
        })
        # Same latencies indexed by the compiled stream's integer ctype
        # code; 0 for non-compute types.
        object.__setattr__(self, "_code_latencies", tuple(
            self._latency_table.get(ct, 0) for ct in CODE_CTYPES))

    def latency(self, ctype: CommandType) -> int:
        return self._latency_table[ctype]

    def code_latencies(self) -> tuple:
        """Latency per stream ctype code (the stream engine's table)."""
        return self._code_latencies


class CommandTiming(NamedTuple):
    """When one command issued and when its effect completed (built on
    demand by :attr:`ScheduleResult.timings`)."""

    issue: int
    complete: int


@dataclass
class ScheduleResult:
    """Timing outcome of one command program: command ``i`` issued at
    cycle ``issues[i]`` and completed at ``completes[i]``.

    Both are ``array('q')``, 16 bytes per command, whose items read back
    as Python ints: :attr:`timings` and ``==`` between schedules compare
    values.  Cached schedules are shared between runs: treat them as
    immutable.
    """

    issues: array
    completes: array
    stats: SimStats
    timing_params: TimingParams
    energy_nj: float = 0.0

    @property
    def timings(self) -> List[CommandTiming]:
        """Per-command view for traces, timing diagrams and tests (built
        on each read; the hot path only counts ``issues``)."""
        return list(map(CommandTiming, self.issues, self.completes))

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles

    @property
    def latency_ns(self) -> float:
        return self.timing_params.cycles_to_ns(self.total_cycles)

    @property
    def latency_us(self) -> float:
        return self.timing_params.cycles_to_us(self.total_cycles)


@dataclass
class _BankState:
    """Timing-side mirror of one bank's row/CU state."""

    open_row: Optional[int] = None
    next_act: int = 0
    next_col: int = 0
    next_pre: int = 0
    cu_free: int = 0


class TimingEngine:
    """Cycle-accurate-in-effect simulator over an ordered command list."""

    def __init__(self, timing: TimingParams, arch: ArchParams,
                 compute: ComputeTiming | None = None,
                 energy: EnergyParams | None = None):
        self.timing = timing
        self.arch = arch
        self.compute = compute or ComputeTiming()
        self.energy = energy or HBM2E_ENERGY

    def simulate(self, commands: Sequence[Command]) -> ScheduleResult:
        """Reference per-command simulation loop (the ground-truth path).

        :meth:`simulate_stream` consumes a compiled
        :class:`~repro.dram.stream.CommandStream` instead and produces
        bit-identical results at a fraction of the per-command cost.
        """
        timing = self.timing
        compute = self.compute
        banks: Dict[int, _BankState] = {}
        stats = SimStats()
        timings: List[CommandTiming] = []
        bus_free = 0
        end = 0
        # Rank-level activation throttles: tRRD between any two ACTs,
        # tFAW over any four (matters once several banks run in parallel).
        last_act = -10**9
        act_history: List[int] = []

        for index, cmd in enumerate(commands):
            bank = banks.setdefault(cmd.bank, _BankState())
            earliest = bus_free
            for dep in cmd.deps:
                if dep >= index or dep < 0:
                    raise MappingError(
                        f"command {index} has invalid dependency {dep}")
                earliest = max(earliest, timings[dep].complete)

            ctype = cmd.ctype
            if ctype is CommandType.ACT:
                if bank.open_row is not None:
                    raise MappingError(
                        f"cmd {index}: ACT row {cmd.row} while row "
                        f"{bank.open_row} is open")
                t = max(earliest, bank.next_act, last_act + timing.trrd)
                if len(act_history) >= 4:
                    t = max(t, act_history[-4] + timing.tfaw)
                last_act = t
                act_history.append(t)
                if len(act_history) > 8:
                    del act_history[:-4]
                bank.open_row = cmd.row
                bank.next_col = t + timing.trcd
                bank.next_pre = t + timing.tras
                complete = t + timing.trcd

            elif ctype is CommandType.PRE:
                if bank.open_row is None:
                    raise MappingError(f"cmd {index}: PRE with no open row")
                t = max(earliest, bank.next_pre)
                bank.open_row = None
                bank.next_act = max(bank.next_act, t + timing.trp)
                complete = t

            elif ctype.is_column:
                if bank.open_row is None:
                    raise MappingError(
                        f"cmd {index}: {ctype.value} with no open row")
                if bank.open_row != cmd.row:
                    raise MappingError(
                        f"cmd {index}: {ctype.value} to row {cmd.row} but row "
                        f"{bank.open_row} is open")
                t = max(earliest, bank.next_col)
                bank.next_col = t + timing.tccd
                if ctype.is_write_like:
                    data_end = t + timing.write_to_data
                    bank.next_pre = max(bank.next_pre, data_end + timing.twr)
                    complete = data_end
                else:
                    complete = t + timing.read_to_data

            elif ctype.is_compute or ctype is CommandType.PARAM_WRITE:
                latency = compute.latency(ctype)
                t = max(earliest, bank.cu_free)
                bank.cu_free = t + latency
                stats.cu_busy_cycles += latency
                complete = t + latency

            else:  # pragma: no cover - enum is exhaustive
                raise MappingError(f"unknown command type {ctype}")

            bus_free = t + 1
            stats.bus_busy_cycles += 1
            stats.record(ctype)
            timings.append(CommandTiming(issue=t, complete=complete))
            end = max(end, complete)

        stats.total_cycles = end
        energy_nj = self.energy.total_nj(stats.command_counts, end, timing)
        return ScheduleResult(issues=array("q", [t.issue for t in timings]),
                              completes=array("q",
                                              [t.complete for t in timings]),
                              stats=stats, timing_params=timing,
                              energy_nj=energy_nj)

    def simulate_stream(self, stream) -> ScheduleResult:
        """Replay a program's IR columns: a compiled
        :class:`~repro.dram.stream.CommandStream` or its
        :class:`~repro.compile.ir.StreamIR` itself (a replay reads no
        plan, so nothing has to compile).

        Bit-identical to :meth:`simulate` on the program's commands (the
        same timings, stats, energy, and :class:`MappingError` at the
        same command), but the loop iterates the IR's integer columns:
        one kind column folding category and write-like flag, compute
        latency, row, compact bank id (by ``np.unique``) and the
        ``deps`` column's first two entries, whose -1 padding reads the
        spare, always-0 last slot of ``completes`` (see
        :func:`_dependency_columns`).  The loop stores completion times
        only; each issue time is its completion less the fixed offset
        of its command's kind (:func:`_issue_offsets`), and the last
        completion is the schedule's end, both taken after the loop in
        array operations.  Stats and energy come from an
        ``np.bincount`` over ``codes``.  The recurrence stays serial:
        almost every command issues later than ``previous + 1``.
        """
        timing = self.timing
        ir = getattr(stream, "ir", stream)
        n = ir.n
        codes = ir.codes
        kinds = np.take(_KIND_BY_CODE, codes).tolist()
        latency_by_code = np.array(self.compute.code_latencies())
        latencies = np.take(latency_by_code, codes).tolist()
        rows = ir.rows.tolist()
        bank_ids, bank_index = np.unique(ir.banks, return_inverse=True)
        nb, banks = len(bank_ids), bank_index.tolist()
        dep0, dep1, more, stop, bad_dep = _dependency_columns(ir)

        # Per-bank integer state, indexed by compact bank ids.  The
        # closed-row sentinel is None (not -1): row numbers are not
        # validated here, so any int — negative included — must behave
        # exactly as in the legacy loop.
        open_row = [None] * nb
        next_act = [0] * nb
        next_col = [0] * nb
        next_pre = [0] * nb
        cu_free = [0] * nb
        # One extra slot: the padding sentinel's dependency target, a
        # completion of 0 that never delays anything.
        completes = [0] * (n + 1)
        bus_free = 0
        last_act = -10**9
        act_history: List[int] = []

        trrd = timing.trrd
        tfaw = timing.tfaw
        trcd = timing.trcd
        tras = timing.tras
        trp = timing.trp
        tccd = timing.tccd
        twr = timing.twr
        read_done = timing.read_to_data
        write_done = timing.write_to_data

        for i, b, kind, d0, d1, extra in zip(range(stop), banks, kinds,
                                             dep0, dep1, more):
            earliest = bus_free
            c = completes[d0]
            if c > earliest:
                earliest = c
            c = completes[d1]
            if c > earliest:
                earliest = c
            if extra is not None:
                for d in extra:
                    c = completes[d]
                    if c > earliest:
                        earliest = c

            if kind < 2:  # column command; kind 1 is write-like
                row = rows[i]
                if open_row[b] != row:
                    name = _CODE_NAMES[codes[i]]
                    if open_row[b] is None:
                        raise MappingError(
                            f"cmd {i}: {name} with no open row")
                    raise MappingError(
                        f"cmd {i}: {name} to row {row} but row "
                        f"{open_row[b]} is open")
                t = next_col[b]
                if earliest > t:
                    t = earliest
                next_col[b] = t + tccd
                if kind:
                    complete = t + write_done
                    guard = complete + twr
                    if guard > next_pre[b]:
                        next_pre[b] = guard
                else:
                    complete = t + read_done

            elif kind == 2:  # compute / PARAM_WRITE
                latency = latencies[i]
                t = cu_free[b]
                if earliest > t:
                    t = earliest
                cu_free[b] = t + latency
                complete = t + latency

            elif kind == 3:  # ACT
                if open_row[b] is not None:
                    raise MappingError(
                        f"cmd {i}: ACT row {rows[i]} while row "
                        f"{open_row[b]} is open")
                t = next_act[b]
                if earliest > t:
                    t = earliest
                guard = last_act + trrd
                if guard > t:
                    t = guard
                if len(act_history) >= 4:
                    guard = act_history[-4] + tfaw
                    if guard > t:
                        t = guard
                last_act = t
                act_history.append(t)
                if len(act_history) > 8:
                    del act_history[:-4]
                open_row[b] = rows[i]
                next_col[b] = t + trcd
                next_pre[b] = t + tras
                complete = t + trcd

            else:  # PRE
                if open_row[b] is None:
                    raise MappingError(f"cmd {i}: PRE with no open row")
                t = next_pre[b]
                if earliest > t:
                    t = earliest
                open_row[b] = None
                guard = t + trp
                if guard > next_act[b]:
                    next_act[b] = guard
                complete = t

            bus_free = t + 1
            completes[i] = complete
        if stop < n:
            raise MappingError(
                f"command {stop} has invalid dependency {bad_dep}")
        done = np.fromiter(completes, dtype=np.int64, count=n)
        issues = done - np.take(
            _issue_offsets(timing, latency_by_code), codes)
        end = int(done.max()) if n else 0

        counts = np.bincount(codes, minlength=len(_CODE_NAMES))
        command_counts = {name: count for name, count
                          in zip(_CODE_NAMES, counts.tolist()) if count}
        stats = SimStats(
            command_counts=command_counts,
            total_cycles=end,
            bus_busy_cycles=n,
            cu_busy_cycles=int(counts @ latency_by_code),
        )
        energy_nj = self.energy.total_nj(command_counts, end, timing)
        return ScheduleResult(issues=_int64_array(issues),
                              completes=_int64_array(done),
                              stats=stats, timing_params=timing,
                              energy_nj=energy_nj)


def _int64_array(values: np.ndarray) -> array:
    """``values`` as an exactly sized ``array('q')`` (built from bytes,
    an array over-allocates by about 1/16)."""
    out = array("q", [0]) * len(values)
    np.frombuffer(out, dtype=np.int64)[:] = values
    return out


def _issue_offsets(timing: TimingParams,
                   latency_by_code: np.ndarray) -> np.ndarray:
    """Cycles from issue to completion per ctype code, fixed by the
    command's kind: ``read_to_data`` for a column read,
    ``write_to_data`` for a column write, the compute latency for a
    compute command or PARAM_WRITE, ``trcd`` for ACT and 0 for PRE."""
    return np.choose(_KIND_BY_CODE, (timing.read_to_data,
                                     timing.write_to_data, latency_by_code,
                                     timing.trcd, 0))


def _dependency_columns(ir):
    """``(dep0, dep1, more, stop, bad_dep)`` for the stream loop: the
    ``deps`` column's first two entries (-1 padded), the tuple of any
    further ones (only hand-built programs have them) or None, the first
    command with an invalid (negative, self or forward) dependency (else
    ``n``) and that first dependency, as :meth:`TimingEngine.simulate`
    reports it."""
    n = ir.n
    deps = ir.deps
    counts = ir.dep_counts
    k = deps.shape[1]
    used = np.arange(k) < counts[:, None]
    bad = used & ((deps < 0) | (deps >= np.arange(n)[:, None]))
    stop, bad_dep = n, None
    if bad.any():
        stop = int(bad.any(axis=1).argmax())
        bad_dep = int(deps[stop, bad[stop].argmax()])
    pad = itertools.repeat(-1)
    dep0 = deps[:, 0].tolist() if k > 0 else pad
    dep1 = deps[:, 1].tolist() if k > 1 else pad
    more = itertools.repeat(None)
    if k > 2:
        more = [tuple(row[2:count]) if count > 2 else None
                for row, count in zip(deps.tolist(), counts.tolist())]
    return dep0, dep1, more, stop, bad_dep


# Derived views of the canonical command encoding (commands.CODE_CTYPES)
# — the codes column the compiler populates indexes these tables.
_CODE_NAMES = tuple(ct.value for ct in CODE_CTYPES)
#: The stream loop's command kinds: 0 column read, 1 column write
#: (write-like), 2 compute or PARAM_WRITE, 3 ACT, 4 PRE.
_KIND_BY_CODE = np.array(
    [(1 if ct.is_write_like else 0) if ct.is_column else
     3 if ct is CommandType.ACT else
     4 if ct is CommandType.PRE else
     2 for ct in CODE_CTYPES], dtype=np.int64)
