"""Typed, frozen request objects of the :mod:`repro.api` facade.

Each request class captures one workload shape of the paper's
evaluation, so the mapping back to the source material stays explicit:

=====================  ======================================================
request                paper section it reproduces
=====================  ======================================================
:class:`NttRequest`    Sec. IV.A host protocol / Sec. VI.C (Fig. 7, Fig. 8):
                       one cyclic (I)NTT invocation against one bank.
:class:`NegacyclicRequest`
                       merged negacyclic transform extension of Sec. III
                       (the C1N/zeta mapping in
                       :class:`repro.mapping.NegacyclicNttMapper`).
:class:`BatchRequest`  back-to-back transforms in one bank — the batching
                       side of the Sec. VI.A FHE deployment story.
:class:`MultiBankRequest`
                       Sec. VI.A / Conclusion: one independent NTT per bank
                       (e.g. one RNS limb each) on the shared command bus.
:class:`FheOpRequest`  Sec. I motivation: negacyclic ring arithmetic whose
                       NTTs run on the PIM (forward / inverse / multiply).
:class:`ProgramRequest`
                       raw command-window micro-studies (Fig. 5 / Fig. 6).
=====================  ======================================================

Requests are frozen dataclasses, immutable and hashable.  A
coefficient operand (:data:`Coefficients`) is normalized in
``__post_init__``: a 1-D integer NumPy array stays an array, read-only
(a writable one is copied first), so a dispatch stacks it without
creating a Python int; any other sequence becomes a tuple.  An array
request equals, and hashes like, its tuple twin.
:meth:`SimRequest.validate` raises :class:`~repro.errors.RequestValidationError`
on malformed parameters before any simulation work starts.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass
from typing import ClassVar, Optional, Tuple, Union

import numpy as np

from ..arith.roots import NttParams
from ..dram.commands import Command
from ..errors import RequestValidationError
from ..ntt.negacyclic import NegacyclicParams

__all__ = ["SimRequest", "NttRequest", "NegacyclicRequest", "BatchRequest",
           "BankSpec", "MultiBankRequest", "FheOpRequest", "ProgramRequest",
           "KyberKemRequest"]


#: A coefficient operand: a tuple of ints, or a read-only 1-D integer
#: NumPy array.
Coefficients = Union[Tuple[int, ...], np.ndarray]


def _freeze(label: str, values) -> Coefficients:
    """``values`` as an immutable coefficient operand: a 1-D integer
    array stays an array (kept if it is read-only and owns its data,
    else a read-only copy); anything else becomes a tuple.  A value
    that is not a sequence raises :class:`RequestValidationError`
    naming ``label``."""
    if (isinstance(values, np.ndarray) and values.ndim == 1
            and values.dtype.kind in "iu"):
        if values.flags.writeable or not values.flags.owndata:
            values = values.copy()
            values.flags.writeable = False
        return values
    try:
        return tuple(values)
    except TypeError:
        raise RequestValidationError(
            f"{label}: expected a sequence of coefficients, got "
            f"{type(values).__name__}") from None


def _freeze_nested(label: str, rows) -> Tuple[Coefficients, ...]:
    return tuple(_freeze(f"{label} row {i}", row)
                 for i, row in enumerate(_freeze(label, rows)))


def _comparable(value):
    """A field value with every coefficient array, alone or in a tuple
    of rows, as a tuple of ints."""
    if isinstance(value, np.ndarray):
        return tuple(value.tolist())
    if isinstance(value, tuple):
        return tuple(map(_comparable, value))
    return value


#: Every residue must fit one bank word: ``BankStorage`` cells are uint64.
_BANK_WORD_LIMIT = 1 << 64


def _check_values(label: str, values: Coefficients, n: Optional[int],
                  q: int) -> None:
    """The one input rule for a coefficient vector: a modulus
    ``q <= 2**64``, so that every residue fits a bank word; ``n`` values
    (when given), every one an integer (a :class:`numbers.Integral`:
    ``int``, ``bool`` or a NumPy integer scalar; an array's integer
    dtype says so at once) and a residue ``0 <= v < q``.  The type set
    and ``min``/``max`` run at C speed, so admission stays cheap."""
    if q > _BANK_WORD_LIMIT:
        raise RequestValidationError(
            f"{label}: modulus q={q} is wider than the 64-bit bank word")
    if n is not None and len(values) != n:
        raise RequestValidationError(
            f"{label}: expected {n} values, got {len(values)}")
    if not len(values):
        return
    if isinstance(values, np.ndarray):
        negative = values.dtype.kind == "i" and int(values.min()) < 0
        high = int(values.max())
    else:
        bad = [t.__name__ for t in set(map(type, values))
               if not issubclass(t, numbers.Integral)]
        if bad:
            raise RequestValidationError(
                f"{label}: coefficients must be integers, got {sorted(bad)}")
        negative, high = min(values) < 0, max(values)
    if negative or high >= q:
        raise RequestValidationError(
            f"{label}: coefficients must lie in [0, q) for q={q}")


@dataclass(frozen=True)
class SimRequest:
    """Base class of every facade request.

    Subclasses set the ``workload`` class attribute to the registry name
    their handler is registered under (see
    :func:`repro.api.register_workload`) and may override
    :meth:`validate`.
    """

    workload: ClassVar[str] = ""

    # Subclasses that carry coefficients are declared ``eq=False`` and
    # inherit these: a generated ``__eq__`` would compare arrays
    # element-wise, and an array does not hash.
    def _key(self) -> tuple:
        return tuple(_comparable(getattr(self, f.name))
                     for f in dataclasses.fields(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def validate(self) -> None:
        """Raise :class:`RequestValidationError` on malformed parameters."""
        if not self.workload:
            raise RequestValidationError(
                f"{type(self).__name__} does not name a workload")

    def admit(self) -> None:
        """:meth:`validate`, once per instance: a request is immutable, so
        a passed validation stands (serving admits a request at the
        cluster frontend, at its replica and at dispatch)."""
        if "_admitted" not in self.__dict__:
            self.validate()
            self.__dict__["_admitted"] = True


@dataclass(frozen=True, eq=False)
class NttRequest(SimRequest):
    """One cyclic (I)NTT invocation (Sec. IV.A protocol; Fig. 7/8 runs).

    ``values=None`` runs on an all-zero polynomial — the timing-only
    idiom of the experiment sweeps (pair with
    ``SimConfig(functional=False)``).  ``inverse=True`` runs the inverse
    transform including the host-side 1/N scale.
    """

    workload: ClassVar[str] = "ntt"

    params: NttParams
    #: Natural-order coefficients in ``[0, q)``: ints, or a 1-D integer
    #: array (held read-only).
    values: Optional[Coefficients] = None
    inverse: bool = False

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", _freeze("values", self.values))

    def validate(self) -> None:
        if not isinstance(self.params, NttParams):
            raise RequestValidationError("params must be an NttParams")
        if self.values is not None:
            _check_values("values", self.values, self.params.n, self.params.q)


@dataclass(frozen=True, eq=False)
class NegacyclicRequest(SimRequest):
    """One native merged negacyclic transform (C1N mapping extension)."""

    workload: ClassVar[str] = "negacyclic"

    ring: NegacyclicParams
    #: Natural-order coefficients, as in :class:`NttRequest`.
    values: Optional[Coefficients] = None
    inverse: bool = False

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", _freeze("values", self.values))

    def validate(self) -> None:
        if not isinstance(self.ring, NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.values is not None:
            _check_values("values", self.values, self.ring.n, self.ring.q)


@dataclass(frozen=True, eq=False)
class BatchRequest(SimRequest):
    """Back-to-back NTTs of all ``inputs`` in one bank (Sec. VI.A
    batching: amortized PARAM_WRITE, pipelined transform seams)."""

    workload: ClassVar[str] = "batch"

    params: NttParams
    #: One coefficient row per transform, each as in :class:`NttRequest`
    #: (a 2-D integer array splits into read-only rows).
    inputs: Tuple[Coefficients, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inputs",
                           _freeze_nested("inputs", self.inputs))

    def validate(self) -> None:
        if len(self.inputs) < 1:
            raise RequestValidationError("need at least one polynomial")
        for i, row in enumerate(self.inputs):
            _check_values(f"batch element {i}", row, self.params.n,
                          self.params.q)


@dataclass(frozen=True)
class BankSpec:
    """One bank's transform kind in a mixed-kind
    :class:`MultiBankRequest`: a cyclic NTT (``params``) or a merged
    negacyclic transform (``ring``) — exactly one of the two — with
    ``inverse`` selecting the inverse transform (host-side 1/N scale
    applied, exactly as the standalone request runs it)."""

    params: Optional[NttParams] = None
    ring: Optional[NegacyclicParams] = None
    inverse: bool = False

    @property
    def n(self) -> int:
        """Polynomial length of whichever kind is set."""
        return self.ring.n if self.ring is not None else self.params.n

    def validate(self, label: str = "bank spec") -> None:
        if (self.params is None) == (self.ring is None):
            raise RequestValidationError(
                f"{label}: set exactly one of params (cyclic) or "
                "ring (negacyclic)")
        if self.ring is not None and not isinstance(self.ring,
                                                    NegacyclicParams):
            raise RequestValidationError(
                f"{label}: ring must be a NegacyclicParams")
        if self.params is not None and not isinstance(self.params, NttParams):
            raise RequestValidationError(
                f"{label}: params must be an NttParams")


@dataclass(frozen=True, eq=False)
class MultiBankRequest(SimRequest):
    """One independent transform per bank on the shared command bus
    (Sec. VI.A / Conclusion — the RNS-limb-per-bank deployment).

    The homogeneous convenience form sets ``params`` (cyclic NTT) or
    ``ring`` (merged negacyclic) — exactly one of the two — and every
    bank runs that transform, with ``inverse=True`` selecting the
    inverse (host-side 1/N scale applied).  The general form sets
    ``specs`` instead: one :class:`BankSpec` per input row, so a single
    bus dispatch can mix kinds and directions across banks (e.g.
    forward and inverse limbs of one shape interleaved together).
    Either way, every bank's output is bit-identical to the matching
    single-request :class:`NttRequest` / :class:`NegacyclicRequest`
    run.  This is the dispatch shape the serving layer's batching
    scheduler coalesces all three transform kinds into.
    """

    workload: ClassVar[str] = "multibank"

    params: Optional[NttParams] = None
    #: One coefficient row per bank, as in :class:`BatchRequest`.
    inputs: Tuple[Coefficients, ...] = ()
    inverse: bool = False
    ring: Optional[NegacyclicParams] = None
    specs: Optional[Tuple["BankSpec", ...]] = None

    def __post_init__(self):
        object.__setattr__(self, "inputs",
                           _freeze_nested("inputs", self.inputs))
        if self.specs is not None:
            object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def n(self) -> int:
        """Per-bank polynomial length (homogeneous form only)."""
        return self.ring.n if self.ring is not None else self.params.n

    def validate(self) -> None:
        if len(self.inputs) < 1:
            raise RequestValidationError("need at least one bank's input")
        if self.specs is not None:
            if self.params is not None or self.ring is not None:
                raise RequestValidationError(
                    "set either specs or the homogeneous params/ring "
                    "fields, not both")
            if self.inverse:
                raise RequestValidationError(
                    "with specs, put inverse on each BankSpec")
            if len(self.specs) != len(self.inputs):
                raise RequestValidationError(
                    f"got {len(self.specs)} specs for "
                    f"{len(self.inputs)} input rows")
            for i, (spec, row) in enumerate(zip(self.specs, self.inputs)):
                if not isinstance(spec, BankSpec):
                    raise RequestValidationError(
                        f"bank {i}: specs entries must be BankSpec")
                spec.validate(label=f"bank {i}")
                _check_values(f"bank {i}", row, spec.n,
                              (spec.ring or spec.params).q)
            return
        if (self.params is None) == (self.ring is None):
            raise RequestValidationError(
                "set exactly one of params (cyclic) or ring (negacyclic)")
        if self.ring is not None and not isinstance(self.ring,
                                                    NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.params is not None and not isinstance(self.params, NttParams):
            raise RequestValidationError("params must be an NttParams")
        for i, row in enumerate(self.inputs):
            _check_values(f"bank {i}", row, self.n,
                          (self.ring or self.params).q)


@dataclass(frozen=True, eq=False)
class FheOpRequest(SimRequest):
    """One negacyclic ring operation with its NTTs on the PIM (Sec. I).

    ``op`` is ``"forward"``, ``"inverse"`` or ``"multiply"`` (two
    forward transforms, pointwise product, one inverse).  ``native=True``
    uses the merged negacyclic mapping instead of the paper-faithful
    host psi-scaling + cyclic NTT protocol.
    """

    workload: ClassVar[str] = "fhe"
    OPS: ClassVar[Tuple[str, ...]] = ("forward", "inverse", "multiply")

    ring: NegacyclicParams
    op: str = "multiply"
    #: Ring operands, coefficients as in :class:`NttRequest`.
    a: Coefficients = ()
    b: Optional[Coefficients] = None
    native: bool = False

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze("a", self.a))
        if self.b is not None:
            object.__setattr__(self, "b", _freeze("b", self.b))

    def validate(self) -> None:
        if not isinstance(self.ring, NegacyclicParams):
            raise RequestValidationError("ring must be a NegacyclicParams")
        if self.op not in self.OPS:
            raise RequestValidationError(
                f"unknown FHE op {self.op!r}; choose from {self.OPS}")
        _check_values("operand a", self.a, self.ring.n, self.ring.q)
        if self.op == "multiply":
            if self.b is None or len(self.b) != self.ring.n:
                raise RequestValidationError(
                    "multiply needs a second operand b of length n")
            _check_values("operand b", self.b, None, self.ring.q)
        elif self.b is not None:
            raise RequestValidationError(f"op {self.op!r} takes one operand")


@dataclass(frozen=True, eq=False)
class KyberKemRequest(SimRequest):
    """Kyber-style KEM ring product via the *incomplete* (truncated)
    NTT — the lattice-crypto workload ``examples/kyber_like.py``
    sketches, promoted to a registered facade request.

    Kyber's modulus (q=3329, n=256) admits no 512th root of unity, so
    the transform stops ``log2(depth)`` butterfly levels early and the
    pointwise stage becomes a base multiplication of degree-``depth``
    slot polynomials.  The handler computes the exact host math and
    prices PIM timing as the equivalent sub-transform runs (the
    truncated transform executes exactly the butterflies of ``depth``
    independent cyclic NTTs of size ``n/depth`` per operand).
    """

    workload: ClassVar[str] = "kyber_kem"

    #: Ring operands, coefficients as in :class:`NttRequest`.
    a: Coefficients = ()
    b: Coefficients = ()
    n: int = 256
    q: int = 3329
    depth: int = 2

    def __post_init__(self):
        object.__setattr__(self, "a", _freeze("a", self.a))
        object.__setattr__(self, "b", _freeze("b", self.b))

    def validate(self) -> None:
        # Lazy: repro.ntt sits above this module's import layer.
        from ..ntt.incomplete import IncompleteNttParams
        # The cheap coefficient rule first: the ring check searches for
        # a root of unity, which factors q - 1 (seconds for a 65-bit q).
        for label, operand in (("a", self.a), ("b", self.b)):
            _check_values(f"operand {label}", operand, self.n, self.q)
        try:
            IncompleteNttParams(self.n, self.q, self.depth)
        except ValueError as exc:
            raise RequestValidationError(str(exc)) from None


@dataclass(frozen=True)
class ProgramRequest(SimRequest):
    """Time a raw command program (the Fig. 5/6 micro-study windows).

    The program runs through the timing engine only: buffer depth and
    clocking come from the simulator's
    :class:`~repro.sim.driver.SimConfig`, and the response carries
    cycles, energy and command counts but no values.
    """

    workload: ClassVar[str] = "program"

    commands: Tuple[Command, ...] = ()
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "commands", tuple(self.commands))

    def validate(self) -> None:
        if len(self.commands) < 1:
            raise RequestValidationError("need at least one command")
