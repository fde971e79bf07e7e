"""Library-wide exception types."""

__all__ = ["ReproError", "MappingError", "FunctionalMismatch",
           "RequestValidationError", "ServeError", "ShardFailure",
           "ClusterError"]


class ReproError(Exception):
    """Base class for all library errors."""


class RequestValidationError(ReproError, ValueError):
    """A :mod:`repro.api` request carries malformed or inconsistent
    parameters (wrong value count, empty batch, unknown FHE op, ...)."""


class MappingError(ReproError):
    """A command sequence violates the DRAM/PIM protocol (e.g. a column
    access to a row that is not open, or a buffer index out of range)."""


class FunctionalMismatch(ReproError):
    """The PIM-computed result disagrees with the golden-model NTT.

    Raised when an output fails its transform's online check
    (:meth:`repro.sim.driver.TransformSpec.check`): a word not below
    ``q``, or Freivalds' dot products against the golden transform's
    transpose disagree.  For prime ``q`` a wrong output escapes with
    probability at most ``(q-1)^-K <= 2^-60``, and one wrong word
    always raises; the check's rows are fixed per transform, so the
    bound does not hold against adversarially chosen outputs.
    """


class ServeError(ReproError):
    """The serving layer (:mod:`repro.serve`) failed an operation —
    queue bookkeeping went inconsistent, or a dispatch's execution
    raised.  Arbitrary execution failures surface as a
    :class:`ServeError` (with the original exception as ``__cause__``)
    so serving callers catch one hierarchy instead of arbitrary
    leaks."""


class ShardFailure(ServeError):
    """One shard failed a dispatch — a transient dispatch failure or a
    per-dispatch timeout, injected by :class:`repro.serve.FaultPlan` or
    detected by the resilience layer.  Retryable: the scheduler's retry
    policy re-dispatches (with backoff) rather than failing the session.
    """

    def __init__(self, message: str, *, shard: int = 0, seq: int = 0,
                 kind: str = "transient"):
        super().__init__(message)
        #: Shard the dispatch was running on.
        self.shard = shard
        #: Dispatch-unit sequence number within the serving session.
        self.seq = seq
        #: ``"transient"`` (dispatch failed outright) or ``"timeout"``
        #: (service exceeded the policy's per-dispatch timeout).
        self.kind = kind


class ClusterError(ServeError):
    """The cluster tier (:mod:`repro.cluster`) failed an operation — a
    typed message no replica handler accepts, a poll for a request no
    replica owns, a misconfigured router/quota, or inconsistent
    supervisor bookkeeping.

    Carries the failing replica's id and lifecycle state when the
    supervisor knows them (``None``/``""`` otherwise), so operators see
    *which* replica in *what* state failed.  The supervisor's message
    wrap keeps the original exception as ``__cause__`` — like the
    server's :class:`ServeError` wrap of a failed dispatch — so
    retryable failures (e.g. a recoverable drain) stay recognizable
    under the wrap.
    """

    def __init__(self, message: str, *, replica=None, state: str = ""):
        super().__init__(message)
        #: Replica the failure is attributed to (``None`` = cluster-wide).
        self.replica = replica
        #: The replica's lifecycle state at failure time (``up`` /
        #: ``suspect`` / ``down`` / ``retired``; ``""`` when the failure
        #: is not replica-scoped).
        self.state = state

