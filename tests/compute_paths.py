"""The two compute paths a test can hold equal: lane kernels and scalar
references.

Every NumPy ``uint64`` lane kernel of :mod:`repro.arith.vector` has a
pure-Python scalar reference it must match bit for bit, and the library
takes the lane kernel only when ``vector.lanes_supported(q)`` holds.
:func:`scalar_path` patches that one predicate to False, so the code it
wraps runs exactly as it does for a modulus too wide for the lanes:
scalar element-wise ops and golden NTTs, and a functional bank that
replays every command through the scalar compute unit.

Tests parametrize over ``("numpy", "python")`` — the lane side and the
scalar side — and enter :func:`on_path`.
"""

from contextlib import contextmanager, nullcontext
from unittest import mock

from repro.arith import vector


@contextmanager
def scalar_path():
    """Run the enclosed code as if no modulus had lane support."""
    with mock.patch.object(vector, "lanes_supported", lambda q: False):
        yield


def on_path(path: str):
    """:func:`scalar_path` for ``"python"``; the lane path, which needs
    no patch, for ``"numpy"``."""
    return scalar_path() if path == "python" else nullcontext()


def both_paths(fn):
    """``fn()`` on the scalar path, then on the lane path."""
    with scalar_path():
        scalar = fn()
    return scalar, fn()
