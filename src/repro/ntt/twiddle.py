"""Twiddle-factor generation.

The paper generates twiddle factors on the fly (Sec. IV.A, after Aysu et
al. [21]) so that the full memory bandwidth serves polynomial data.  The
hardware TFG is a multiply-accumulate register seeded with two scalars
``(omega0, r_omega)``; each butterfly lane consumes the current value and
the register is multiplied by ``r_omega``.

:class:`TwiddleGenerator` models that register; the scalar compute unit
(:mod:`repro.pim.cu`) runs one per C1 stage and per C2 command.
"""

from __future__ import annotations

from typing import List

from ..arith.modmath import mod_mul

__all__ = ["TwiddleGenerator"]


class TwiddleGenerator:
    """On-the-fly geometric twiddle sequence ``omega0 * r_omega^t``.

    The hardware equivalent is a single modular multiplier and a hold
    register inside the CU (the ``TFG`` block of Fig. 2); parameters are
    delivered via the global buffer as 16-bit chunks (Sec. IV.A).
    """

    def __init__(self, omega0: int, r_omega: int, q: int):
        if q <= 1:
            raise ValueError(f"modulus must exceed 1, got {q}")
        self.q = q
        self.omega0 = omega0 % q
        self.r_omega = r_omega % q
        self._current = self.omega0
        self.count = 0  # how many twiddles were consumed (for stats)

    def next(self) -> int:
        """Consume and return the next twiddle."""
        value = self._current
        self._current = mod_mul(self._current, self.r_omega, self.q)
        self.count += 1
        return value

    def peek(self) -> int:
        """Current twiddle without consuming it."""
        return self._current

    def reset(self, omega0: int | None = None, r_omega: int | None = None) -> None:
        """Reload the generator (a parameter write in hardware)."""
        if omega0 is not None:
            self.omega0 = omega0 % self.q
        if r_omega is not None:
            self.r_omega = r_omega % self.q
        self._current = self.omega0

    def take(self, count: int) -> List[int]:
        """Consume ``count`` twiddles (one vectorized C2's worth)."""
        return [self.next() for _ in range(count)]
