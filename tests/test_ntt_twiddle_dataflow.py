"""Tests for the on-the-fly twiddle generator (the CU's TFG)."""

import pytest

from repro.ntt import TwiddleGenerator

Q = 12289


class TestTwiddleGenerator:
    def test_geometric_sequence(self):
        gen = TwiddleGenerator(3, 2, 1000)
        assert gen.take(4) == [3, 6, 12, 24]

    def test_peek_does_not_consume(self):
        gen = TwiddleGenerator(5, 7, Q)
        assert gen.peek() == 5
        assert gen.next() == 5
        assert gen.count == 1

    def test_reset_reloads(self):
        gen = TwiddleGenerator(5, 7, Q)
        gen.take(3)
        gen.reset(omega0=11, r_omega=13)
        assert gen.next() == 11
        assert gen.next() == (11 * 13) % Q

    def test_reset_keeps_unspecified_params(self):
        gen = TwiddleGenerator(5, 7, Q)
        gen.take(2)
        gen.reset()
        assert gen.next() == 5

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            TwiddleGenerator(1, 1, 1)
