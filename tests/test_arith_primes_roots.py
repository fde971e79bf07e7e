"""Tests for NTT-friendly prime search and roots of unity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arith import (
    DEFAULT_PRIME_14,
    DEFAULT_PRIME_16,
    DEFAULT_PRIME_32,
    NttParams,
    factorize,
    find_ntt_prime,
    inverse_root_of_unity,
    is_prime,
    is_primitive_root_of_unity,
    mod_pow,
    ntt_prime_candidates,
    primitive_root,
    root_of_unity,
)


class TestIsPrime:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
        for n in range(32):
            assert is_prime(n) == (n in primes)

    def test_known_ntt_primes(self):
        assert is_prime(DEFAULT_PRIME_14)
        assert is_prime(DEFAULT_PRIME_16)
        assert is_prime(DEFAULT_PRIME_32)

    def test_carmichael_numbers_rejected(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601, 41041, 825265):
            assert not is_prime(n)

    def test_large_composite(self):
        assert not is_prime(DEFAULT_PRIME_32 * DEFAULT_PRIME_14)


class TestFindNttPrime:
    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_cyclic_congruence(self, n):
        q = find_ntt_prime(n, 32)
        assert is_prime(q)
        assert (q - 1) % n == 0
        assert q < 2**32

    def test_negacyclic_congruence(self):
        q = find_ntt_prime(1024, 32, negacyclic=True)
        assert (q - 1) % 2048 == 0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            find_ntt_prime(100, 32)

    def test_too_few_bits_rejected(self):
        with pytest.raises(ValueError):
            find_ntt_prime(1024, 8)

    def test_candidates_distinct_and_valid(self):
        primes = ntt_prime_candidates(256, 30, 5)
        assert len(set(primes)) == 5
        for q in primes:
            assert is_prime(q) and (q - 1) % 256 == 0

    def test_default_prime_32_supports_deep_negacyclic(self):
        # q - 1 = 2^20 * 4095: negacyclic transforms up to N = 2^19.
        assert (DEFAULT_PRIME_32 - 1) % (1 << 20) == 0


class TestRoots:
    def test_factorize_roundtrip(self):
        for n in [2, 12, 97, 360, 12288]:
            product = 1
            for p, e in factorize(n).items():
                assert is_prime(p)
                product *= p**e
            assert product == n

    def test_primitive_root_generates(self):
        q = 12289
        g = primitive_root(q)
        assert is_primitive_root_of_unity(g, q - 1, q)

    def test_root_of_unity_order(self):
        q = 12289
        for order in (2, 4, 256, 4096):
            w = root_of_unity(order, q)
            assert mod_pow(w, order, q) == 1
            assert mod_pow(w, order // 2, q) == q - 1  # primitive => w^(n/2) = -1

    def test_root_of_unity_unsupported_order(self):
        with pytest.raises(ValueError):
            root_of_unity(5, 12289)  # 5 does not divide 12288

    def test_inverse_root(self):
        q = 12289
        w = root_of_unity(256, q)
        wi = inverse_root_of_unity(256, q)
        assert (w * wi) % q == 1


class TestNttParams:
    def test_derivations(self):
        p = NttParams(256, 12289)
        assert (p.omega * p.omega_inv) % p.q == 1
        assert (p.n * p.n_inv) % p.q == 1
        assert p.log_n == 8

    def test_inverse_params_swap_omega(self):
        p = NttParams(256, 12289)
        assert p.inverse().omega == p.omega_inv

    def test_bad_length(self):
        with pytest.raises(ValueError):
            NttParams(100, 12289)

    def test_unsupported_modulus(self):
        with pytest.raises(ValueError):
            NttParams(256, 17)

    def test_non_primitive_omega_rejected(self):
        with pytest.raises(ValueError):
            NttParams(256, 12289, omega=1)

    def test_composite_modulus_rejected_with_explicit_root(self):
        """1649 = 17 * 97 with 16 | 1648, and 8 passes the root test
        (8^16 = 1, 8^8 = 290 != 1): without a field the Cooley-Tukey
        network is not the DFT, so both constructors refuse the modulus
        as the default-root path does."""
        from repro.ntt import NegacyclicParams

        assert is_primitive_root_of_unity(8, 16, 1649)
        for make in (lambda: NttParams(16, 1649, 8),
                     lambda: NegacyclicParams(8, 1649, 8),
                     lambda: NttParams(16, 1649)):
            with pytest.raises(ValueError, match="1649 is not prime"):
                make()

    def test_inverse_params_built_once(self):
        p = NttParams(256, 12289)
        assert p.inverse() is p.inverse()


@given(st.integers(min_value=2, max_value=10_000))
def test_property_is_prime_matches_trial_division(n):
    def trial(n):
        if n < 2:
            return False
        d = 2
        while d * d <= n:
            if n % d == 0:
                return False
            d += 1
        return True

    assert is_prime(n) == trial(n)
