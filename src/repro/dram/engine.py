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
            value = getattr(self, item.name)
            # Schedules store their cycle times as int64.
            if not isinstance(value, numbers.Integral):
                raise TypeError(
                    f"{item.name} must be a whole number of cycles")
            # The stream loop tells compute steps (their latency) from
            # the other kinds (negative codes) by sign.
            if value < 0:
                raise ValueError(f"{item.name} must be >= 0 cycles")
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
        same command), but the loop carries only timing state and
        iterates the IR's integer columns: one step column folding the
        command's kind and compute latency (the latency itself, ``>= 0``,
        for a compute command or PARAM_WRITE; :data:`_ACT`, :data:`_PRE`,
        :data:`_READ` or :data:`_WRITE` otherwise), row, compact bank id
        (0 for a one-bank program, else by ``np.unique``) and the
        ``deps`` column's first two entries shifted by one (see
        :func:`_dependency_columns`).  Completions are appended to a
        list whose slot 0 is a sentinel completion of 0, the target of
        every -1 padding entry, so command ``i`` completes in slot
        ``i + 1`` and a protocol fault names command
        ``len(completes) - 1``.  The step column is cut at the first
        command with an invalid dependency, which raises once the loop
        reaches it.  The tFAW window is a ring of the last four ACTs.
        Each issue time is its completion less the fixed offset of its
        command's kind (:func:`_issue_offsets`), and the last completion
        is the schedule's end, both taken after the loop in array
        operations.  Stats and energy come from an ``np.bincount`` over
        ``codes``.  The recurrence stays serial: almost every command
        issues later than ``previous + 1``.
        """
        timing = self.timing
        ir = getattr(stream, "ir", stream)
        n = ir.n
        codes = ir.codes
        latency_by_code = np.array(self.compute.code_latencies())
        dep0, dep1, more, stop, bad_dep = _dependency_columns(ir)
        steps = np.take(np.where(_KIND_BY_CODE == _COMPUTE, latency_by_code,
                                 _STEP_BY_KIND[_KIND_BY_CODE]),
                        codes[:stop]).tolist()
        rows = ir.rows[:stop].tolist()
        if n and ir.banks.min() == ir.banks.max():
            nb, banks = 1, itertools.repeat(0)
        else:
            bank_ids, bank_index = np.unique(ir.banks, return_inverse=True)
            nb, banks = len(bank_ids), bank_index[:stop].tolist()

        # Per-bank integer state, indexed by compact bank ids.  The
        # closed-row sentinel is None (not -1): row numbers are not
        # validated here, so any int — negative included — must behave
        # exactly as in the legacy loop.
        open_row = [None] * nb
        next_act = [0] * nb
        next_col = [0] * nb
        next_pre = [0] * nb
        cu_free = [0] * nb
        # Slot 0: the padding sentinel's dependency target, a completion
        # of 0 that never delays anything.
        completes = [0]
        append = completes.append
        bus_free = 0
        last_act = -10**9
        # The last four ACTs, oldest at ``slot``: tFAW binds from the
        # fourth ACT on, and the -10**9 fill never does.
        window = [-10**9] * 4
        slot = 0

        trrd = timing.trrd
        tfaw = timing.tfaw
        trcd = timing.trcd
        tras = timing.tras
        trp = timing.trp
        tccd = timing.tccd
        twr = timing.twr
        read_done = timing.read_to_data
        write_done = timing.write_to_data
        act, pre, write = _ACT, _PRE, _WRITE

        for step, b, row, d0, d1, extra in zip(steps, banks, rows, dep0,
                                               dep1, more):
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

            if step < pre:  # column command
                if open_row[b] != row:
                    i = len(completes) - 1
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
                if step == write:
                    complete = t + write_done
                    guard = complete + twr
                    if guard > next_pre[b]:
                        next_pre[b] = guard
                else:
                    complete = t + read_done

            elif step >= 0:  # compute / PARAM_WRITE: its latency
                t = cu_free[b]
                if earliest > t:
                    t = earliest
                complete = cu_free[b] = t + step

            elif step == act:
                if open_row[b] is not None:
                    raise MappingError(
                        f"cmd {len(completes) - 1}: ACT row {row} while "
                        f"row {open_row[b]} is open")
                t = next_act[b]
                if earliest > t:
                    t = earliest
                guard = last_act + trrd
                if guard > t:
                    t = guard
                guard = window[slot] + tfaw
                if guard > t:
                    t = guard
                last_act = window[slot] = t
                slot = (slot + 1) & 3
                open_row[b] = row
                next_col[b] = complete = t + trcd
                next_pre[b] = t + tras

            else:  # PRE
                if open_row[b] is None:
                    raise MappingError(
                        f"cmd {len(completes) - 1}: PRE with no open row")
                t = next_pre[b]
                if earliest > t:
                    t = earliest
                open_row[b] = None
                guard = t + trp
                if guard > next_act[b]:
                    next_act[b] = guard
                complete = t

            bus_free = t + 1
            append(complete)
        if stop < n:
            raise MappingError(
                f"command {stop} has invalid dependency {bad_dep}")
        done = np.array(completes, dtype=np.int64)[1:]
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
    ``deps`` column's first two entries shifted by one, so the -1
    padding reads the loop's sentinel completion in slot 0 and
    dependency ``d`` reads command ``d``'s completion in slot ``d + 1``;
    the tuple of any further ones, shifted the same way (only
    hand-built programs have them), or None; the first command with an
    invalid (negative, self or forward) dependency (else ``n``), where
    the loop's step column is cut; and that first dependency, as
    :meth:`TimingEngine.simulate` reports it."""
    n = ir.n
    deps = ir.deps
    counts = ir.dep_counts
    k = deps.shape[1]
    stop, bad_dep = n, None
    # The padding is -1: a program none of whose entries reaches its own
    # command, and whose non-negative entries number sum(counts), has no
    # invalid one.  Only a program failing that scans the used mask.
    if k and (np.count_nonzero(deps >= 0) != counts.sum()
              or (deps >= np.arange(n)[:, None]).any()):
        used = np.arange(k) < counts[:, None]
        bad = used & ((deps < 0) | (deps >= np.arange(n)[:, None]))
        if bad.any():
            stop = int(bad.any(axis=1).argmax())
            bad_dep = int(deps[stop, bad[stop].argmax()])
    columns = (deps[:stop, :2] + 1).T.tolist()
    columns += [itertools.repeat(0)] * (2 - len(columns))
    dep0, dep1 = columns
    more = itertools.repeat(None)
    if k > 2:
        more = [tuple(row[2:count]) if count > 2 else None
                for row, count in zip((deps[:stop] + 1).tolist(),
                                      counts[:stop].tolist())]
    return dep0, dep1, more, stop, bad_dep


# Derived views of the canonical command encoding (commands.CODE_CTYPES)
# — the codes column the compiler populates indexes these tables.
_CODE_NAMES = tuple(ct.value for ct in CODE_CTYPES)
#: Command kinds by ctype code: 0 column read, 1 column write
#: (write-like), 2 compute or PARAM_WRITE, 3 ACT, 4 PRE.
_COMPUTE = 2
_KIND_BY_CODE = np.array(
    [(1 if ct.is_write_like else 0) if ct.is_column else
     3 if ct is CommandType.ACT else
     4 if ct is CommandType.PRE else
     _COMPUTE for ct in CODE_CTYPES], dtype=np.int64)
#: The stream loop's step codes for the kinds that carry no latency
#: (a compute step is its latency, ``>= 0``): the two column kinds sort
#: below the rest, so one comparison picks them out.
_ACT, _PRE, _READ, _WRITE = -1, -2, -3, -4
_STEP_BY_KIND = np.array([_READ, _WRITE, 0, _ACT, _PRE], dtype=np.int64)
